"""Closed-form spectra, root finding, and the classification bundle."""

import copy
import dataclasses
import importlib
import pickle

import numpy as np
import pytest

from g2orbits.classify import (
    CHEB_FIRST_N,
    EXPECTED_MULTIPLICITIES,
    PARAMETER_TOLERANCE,
    REFERENCE_AUSTERE,
    REFERENCE_BIHARMONIC_T,
    REFERENCE_MINIMAL_T,
    NoRootError,
    StructuralMismatchError,
    _chebyshev_roots,
    classify,
    classify_type,
    closed_form_spectrum,
    compare_spectra,
    find_biharmonic,
    find_minimal,
    mean_curvature_closed_form,
    principal_interval,
    shape_norm_sq_closed_form,
    singular_weight,
)
from g2orbits.orbits import action_spec, is_austere, shape_norm_sq

ALL_TYPES = ("II", "III", "IV", "V")


class TestClosedFormSpectra:
    def test_type_iii_balanced(self):
        out = closed_form_spectrum("III", np.pi / 2)
        expected = [
            (-1 / np.sqrt(6.0), 6),
            (0.0, 8),
            (1 / np.sqrt(6.0), 6),
        ]
        assert [m for _, m in out] == [m for _, m in expected]
        assert max(abs(a - b) for (a, _), (b, _) in zip(out, expected)) < 1e-14

    def test_type_ii_zero_multiplicity(self):
        out = closed_form_spectrum("II", 0.61)
        zero = [m for v, m in out if v == 0.0]
        assert zero == [3]
        assert sorted(m for _, m in out) == sorted(EXPECTED_MULTIPLICITIES["II"])

    def test_type_iv_minimal_is_negation_symmetric(self):
        out = closed_form_spectrum("IV", np.pi / 2)
        assert is_austere(out, tol=1e-12)

    def test_multiplicities_total_orbit_dimension(self):
        totals = {"II": 13, "III": 20, "IV": 20, "V": 20}
        for ty in ALL_TYPES:
            t = 0.9 if ty != "II" else 0.6
            assert sum(m for _, m in closed_form_spectrum(ty, t)) == totals[ty]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            closed_form_spectrum("II", np.pi / 2)  # singular endpoint
        with pytest.raises(ValueError):
            closed_form_spectrum("III", 0.0)
        with pytest.raises(ValueError):
            closed_form_spectrum("IV", 3.5)

    def test_type_iii_endpoint_accepted(self):
        assert closed_form_spectrum("III", np.pi / 2)


class TestCompareSpectra:
    @pytest.mark.parametrize("ty,t", [("II", 0.3), ("III", 1.0), ("IV", 1.3), ("V", 1.2)])
    def test_engine_matches_closed_forms(self, ty, t):
        assert compare_spectra(action_spec(ty), t) < 1e-8

    def test_multiplicity_sets(self, rng):
        for ty in ALL_TYPES:
            spec = action_spec(ty)
            lo, hi = spec.t_range
            for t in rng.uniform(lo + 0.1, hi - 0.1, size=5):
                reference = closed_form_spectrum(ty, float(t))
                assert sorted(m for _, m in reference) == sorted(
                    EXPECTED_MULTIPLICITIES[ty]
                )
                assert compare_spectra(spec, float(t)) < 1e-8

    def test_oversized_cluster_tolerance_raises(self):
        with pytest.raises(StructuralMismatchError) as err:
            compare_spectra(action_spec("III"), 1.0, tol=5.0)
        assert err.value.engine != err.value.reference


class TestNormSqClosedForms:
    def test_identities(self, rng):
        for ty in ALL_TYPES:
            spec = action_spec(ty)
            lo, hi = spec.t_range
            for t in rng.uniform(lo + 0.1, hi - 0.1, size=8):
                engine = shape_norm_sq(spec, float(t))
                reference = shape_norm_sq_closed_form(ty, float(t))
                assert abs(engine - reference) < 1e-8

    def test_norm_sq_equals_spectrum_moment(self, rng):
        for ty in ALL_TYPES:
            t = float(rng.uniform(0.4, 1.1))
            spectrum = closed_form_spectrum(ty, t)
            moment = sum(v * v * m for v, m in spectrum)
            assert moment == pytest.approx(shape_norm_sq_closed_form(ty, t), rel=1e-12)

    def test_profile_shapes(self):
        # |shape|^2 is decreasing for type III and valley-shaped for the
        # others over the scanned window, so the root counts are forced.
        for ty, changes in [("II", 1), ("III", 0), ("IV", 1), ("V", 1)]:
            spec = action_spec(ty)
            lo, hi = principal_interval(spec)
            ts = np.linspace(lo, hi, 400)
            vals = np.array([shape_norm_sq_closed_form(ty, t) for t in ts])
            signs = np.sign(np.diff(vals))
            signs = signs[signs != 0.0]
            sign_changes = int(np.sum(np.diff(signs) != 0))
            assert sign_changes == changes


class TestRootFinding:
    def test_minimal_parameters(self):
        for ty in ALL_TYPES:
            res = classify_type(ty)
            assert abs(res.minimal_t - REFERENCE_MINIMAL_T[ty]) < 1e-8

    def test_minimal_austere_verdicts(self):
        for ty in ALL_TYPES:
            assert classify_type(ty).minimal_austere == REFERENCE_AUSTERE[ty]

    def test_biharmonic_parameters(self):
        for ty in ALL_TYPES:
            res = classify_type(ty)
            refs = REFERENCE_BIHARMONIC_T[ty]
            assert len(res.biharmonic_t) == len(refs)
            for found, ref in zip(res.biharmonic_t, refs):
                assert abs(found - ref) < 1e-8

    def test_root_counts(self):
        counts = {"II": 2, "III": 1, "IV": 2, "V": 2}
        for ty in ALL_TYPES:
            assert len(classify_type(ty).biharmonic_t) == counts[ty]

    def test_grid_is_one_call(self, monkeypatch):
        # One kernel pass per type: the 2n - 1 = 63 parameters of the node
        # grid reach curvature_invariants as one array call (two blocks),
        # then one frame each for the |H| filter, the minimal spectrum and
        # the two window ends.
        orbits = importlib.import_module("g2orbits.orbits")
        module = importlib.import_module("g2orbits.classify")
        frames, grids = [], []
        kernel, invariants = orbits._frames, module.curvature_invariants

        def counted_frames(spec, ts):
            frames.append(len(ts))
            return kernel(spec, ts)

        def counted_invariants(spec, t):
            grids.append(np.shape(t))
            return invariants(spec, t)

        monkeypatch.setattr(orbits, "_frames", counted_frames)
        monkeypatch.setattr(module, "curvature_invariants", counted_invariants)
        for ty in ALL_TYPES:
            frames.clear()
            grids.clear()
            classify_type.__wrapped__(ty)  # uncached
            assert len(frames) <= 6, (ty, frames)
            assert grids == [(2 * CHEB_FIRST_N - 1,)], (ty, grids)

    def test_find_functions_match_classify(self):
        for ty in ALL_TYPES:
            spec, res = action_spec(ty), classify_type(ty)
            (_, minimal_diag), (_, biharmonic_diag) = res.root_diagnostics
            assert find_minimal(spec) == (res.minimal_t, minimal_diag)
            assert find_biharmonic(spec) == (list(res.biharmonic_t), biharmonic_diag)

    def test_each_function_keeps_its_first_accepted_interpolant(self, monkeypatch):
        # A 1e-6 cos(40 t) term in |A|^2 is not resolved by 32 points, so
        # n doubles for f_A alone; f_H keeps its n = 32 interpolant.
        module = importlib.import_module("g2orbits.classify")
        exact = module.curvature_invariants
        unperturbed = classify_type("II").root_diagnostics[0][1]

        def wiggled(spec, t):
            values = exact(spec, t)
            values[1] += 1e-6 * np.cos(40.0 * t)
            return values

        monkeypatch.setattr(module, "curvature_invariants", wiggled)
        (_, minimal_diag), (_, biharmonic_diag) = classify(action_spec("II")).root_diagnostics
        assert minimal_diag == unperturbed
        assert (minimal_diag.n, minimal_diag.evaluations) == (32, 63)
        assert (biharmonic_diag.n, biharmonic_diag.evaluations) == (64, 63 + 127)
        assert biharmonic_diag.tail <= 1e-9 and biharmonic_diag.defect <= 1e-8

    def test_classify_reads_the_given_spec(self):
        spec = dataclasses.replace(action_spec("II"), einstein_constant=9.0)
        res = classify(spec)
        assert res.biharmonic_t == tuple(find_biharmonic(spec)[0])
        assert res.biharmonic_t != classify_type("II").biharmonic_t

    def test_a_root_outside_the_parameter_tolerance_carries_a_note(self):
        # 1e-7 is above the 1e-8 tolerance that fails the row on the
        # command line, so the note must say why.
        assert PARAMETER_TOLERANCE < 1e-7
        ref = REFERENCE_MINIMAL_T["II"]
        res = classify(dataclasses.replace(action_spec("II"), minimal_t=ref + 1e-7))
        assert res.closed_form_minimal_t == ref + 1e-7
        assert any("deviates from the closed-form value" in n for n in res.discrepancy_notes)

    @pytest.mark.parametrize("lam", [8.5, 9.0, 12.0])
    @pytest.mark.parametrize("ty", ["II", "V"])
    def test_biharmonic_roots_match_closed_form_oracle(self, ty, lam):
        spec = dataclasses.replace(action_spec(ty), einstein_constant=lam)
        expected = _closed_form_roots(ty, lam)
        found, _ = find_biharmonic(spec)
        assert len(found) == len(expected) == 2
        assert max(abs(a - b) for a, b in zip(found, expected)) < 1e-10

    def test_unweighted_pole_raises(self):
        # Without pi/2 among the singular parameters, w H keeps the pole of
        # tan t there, so no interpolant up to 256 points resolves it.
        spec = dataclasses.replace(action_spec("II"), singular_ts=(0.0,))
        with pytest.raises(NoRootError) as err:
            find_minimal(spec)
        message = str(err.value)
        assert "\n" not in message and "256 Chebyshev points" in message

    @pytest.mark.parametrize("shift", [0.0, 1e-10], ids=["double", "close_pair"])
    def test_near_double_root_raises(self, shift):
        # The colleague matrix splits the double root of (t - 1)^2 into a
        # complex pair with |imag| about 1e-8, and (t - 1)^2 + 1e-10 has the
        # pair 1 +/- 1e-5 i: neither may vanish from the root count.
        spec = action_spec("III")
        with pytest.raises(NoRootError) as err:
            _chebyshev_roots(spec, lambda t: np.array([(t - 1.0) ** 2 + shift]), ("x",))
        message = str(err.value)
        assert "\n" not in message and "double root near t=1" in message
        # two simple roots 0.01 apart are still found
        [(roots, _)] = _chebyshev_roots(
            spec, lambda t: np.array([(t - 1.0) * (t - 1.01)]), ("x",)
        )
        assert np.allclose(roots, [1.0, 1.01], atol=1e-12)

    def test_weight_has_one_factor_per_singular_class(self):
        # Type IV's singular parameters 0 and pi agree mod pi: one sin t.
        ts = np.linspace(0.1, 3.0, 7)
        assert np.array_equal(singular_weight(action_spec("IV"), ts), np.sin(ts))
        expected = np.sin(ts) * np.sin(ts - np.pi / 2)
        assert np.array_equal(singular_weight(action_spec("V"), ts), expected)

    def test_endpoint_root_is_clipped_onto_the_end(self):
        assert classify_type("III").minimal_t == np.pi / 2

    def test_root_diagnostics(self):
        for ty in ALL_TYPES:
            diagnostics = classify_type(ty).root_diagnostics
            assert [name for name, _ in diagnostics] == ["f_H", "f_A"]
            for _, diag in diagnostics:
                assert 32 <= diag.n <= 256
                assert diag.tail <= 1e-9 and diag.defect <= 1e-8
                # 2n - 1 points per interpolant, n = 32, 64, ... doubling.
                assert diag.evaluations == sum(
                    2 * m - 1 for m in (32, 64, 128, 256) if m <= diag.n
                )

    def test_result_is_a_plain_value(self):
        res = classify_type("II")
        assert hash(res) == hash(dataclasses.replace(res))
        assert pickle.loads(pickle.dumps(res)) == res
        assert copy.deepcopy(res) == res
        fields = dataclasses.asdict(res)
        assert fields["root_diagnostics"][0][0] == "f_H"
        assert set(fields["root_diagnostics"][1][1]) == {"n", "tail", "defect", "evaluations"}


def _closed_form_roots(ty: str, lam: float) -> list[float]:
    """Roots of the closed-form |A|^2 - lam over the principal window from a
    dense sign scan and bisection, the oracle of the Chebyshev root finder."""

    def g(t):
        return shape_norm_sq_closed_form(ty, t) - lam

    ts = np.linspace(*principal_interval(action_spec(ty)), 20001)
    values = g(ts)
    roots = []
    for i in np.nonzero(values[:-1] * values[1:] < 0.0)[0]:
        a, b, ga = ts[i], ts[i + 1], values[i]
        for _ in range(60):
            m = 0.5 * (a + b)
            gm = g(m)
            if (gm < 0.0) == (ga < 0.0):
                a, ga = m, gm
            else:
                b = m
        roots.append(0.5 * (a + b))
    return roots


class TestClassification:
    def test_singular_dimensions(self):
        assert classify_type("II").singular_dims == (10, 11)
        assert classify_type("IV").singular_dims == (17, 17)
        assert classify_type("V").singular_dims == (15, 19)

    def test_type_iii_right_endpoint_is_principal(self):
        assert classify_type("III").singular_dims == (14, 20)

    def test_type_v_discrepancy_note(self):
        notes = classify_type("V").discrepancy_notes
        assert len(notes) == 1
        assert "sqrt(211)" in notes[0]
        assert "unsquared" in notes[0]

    def test_type_v_roots_satisfy_squared_reading(self):
        res = classify_type("V")
        targets = sorted(((16 - np.sqrt(211.0)) / 3, (16 + np.sqrt(211.0)) / 3))
        for root, target in zip(res.biharmonic_t, targets):
            assert abs(np.tan(root) ** 2 - target) < 1e-8

    def test_no_unexpected_notes(self):
        for ty in ("II", "III", "IV"):
            assert classify_type(ty).discrepancy_notes == ()

    def test_section_parameters(self):
        res = classify_type("III")
        assert res.minimal_s == pytest.approx(np.pi / 3, abs=1e-10)
        assert res.biharmonic_s[0] == pytest.approx(
            (2.0 / 3.0) * np.arctan(3.0 / 4.0), abs=1e-10
        )

    def test_mean_closed_form_consistency(self, rng):
        for ty in ALL_TYPES:
            spec = action_spec(ty)
            t = float(rng.uniform(0.4, min(1.2, spec.t_range[1] - 0.2)))
            spectrum = closed_form_spectrum(ty, t)
            total = sum(v * m for v, m in spectrum)
            assert total == pytest.approx(mean_curvature_closed_form(ty, t), abs=1e-10)
