"""Closed-form spectra, root finding, and the classification bundle."""

import dataclasses
import importlib

import numpy as np
import pytest

from g2orbits.classify import (
    EXPECTED_MULTIPLICITIES,
    REFERENCE_AUSTERE,
    REFERENCE_BIHARMONIC_T,
    REFERENCE_MINIMAL_T,
    StructuralMismatchError,
    classify,
    classify_type,
    closed_form_spectrum,
    compare_spectra,
    find_biharmonic,
    find_minimal,
    mean_curvature_closed_form,
    principal_interval,
    shape_norm_sq_closed_form,
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
        calls = {"array": 0, "scalar": 0}

        def counted(fn):
            def wrapper(spec, t):
                calls["array" if np.ndim(t) else "scalar"] += 1
                return fn(spec, t)

            return wrapper

        module = importlib.import_module("g2orbits.classify")
        for name in ("mean_curvature", "shape_norm_sq"):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
        for ty in ALL_TYPES:
            calls.update(array=0, scalar=0)
            classify_type.__wrapped__(ty)  # uncached
            assert calls["array"] <= 4 and calls["scalar"] <= 150, (ty, calls)

    def test_find_functions_match_classify(self):
        spec = action_spec("III")
        assert find_minimal(spec) == classify_type("III").minimal_t
        assert tuple(find_biharmonic(spec)) == classify_type("III").biharmonic_t

    def test_classify_reads_the_given_spec(self):
        spec = dataclasses.replace(action_spec("II"), einstein_constant=9.0)
        res = classify(spec)
        assert res.biharmonic_t == tuple(find_biharmonic(spec))
        assert res.biharmonic_t != classify_type("II").biharmonic_t


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
