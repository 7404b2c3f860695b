"""Closed-form spectra, root finding, and the classification bundle."""

import copy
import dataclasses
import importlib
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2orbits.actions import action_record
from g2orbits.classify import (
    CHEB_NODES,
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
    principal_interval,
    singular_weight,
)
from g2orbits.orbits import action_spec, curvature_invariants, is_austere, shape_norm_sq

from util import MEAN_CURVATURE, replaced, spectrum_moments, spy

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

    def test_the_given_spec_supplies_the_closed_form(self):
        spec = action_spec("II")
        shifted = dataclasses.replace(
            spec, spectrum=lambda t: [(v + 1.0, m) for v, m in spec.spectrum(t)]
        )
        assert abs(compare_spectra(shifted, 0.3) - 1.0) < 1e-8

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
                reference = spectrum_moments(action_record(ty), float(t))[1]
                assert abs(engine - reference) < 1e-8

    def test_profile_shapes(self):
        # |shape|^2 is decreasing for type III and valley-shaped for the
        # others over the scanned window, so the root counts are forced.
        for ty, changes in [("II", 1), ("III", 0), ("IV", 1), ("V", 1)]:
            spec = action_spec(ty)
            lo, hi = principal_interval(spec)
            ts = np.linspace(lo, hi, 400)
            vals = spectrum_moments(action_record(ty), ts)[1]
            signs = np.sign(np.diff(vals))
            signs = signs[signs != 0.0]
            sign_changes = int(np.sum(np.diff(signs) != 0))
            assert sign_changes == changes


@st.composite
def _root_sets(draw):
    """A type, 1-2 roots r_i in (0, pi/2), whether cos t is a factor (then
    with one r_i, for a degree of at most 4) and a scale C.

    The roots are 1.1e-4 to pi/2 - 6e-4 (pi/2 - 1.1e-3 beside the root pi/2
    of cos t), so inside every clipped window, and 0.2 apart.  Their mirror
    images pi - r_i are roots as well, inside type IV's window only.
    """
    ty = draw(st.sampled_from(ALL_TYPES))
    odd = draw(st.booleans())
    m = 1 if odd else draw(st.integers(1, 2))
    lo, hi, gap = 1.1e-4, np.pi / 2 - (1.1e-3 if odd else 6e-4), 0.2
    offsets = sorted(draw(st.lists(st.floats(0.0, hi - lo - (m - 1) * gap), min_size=m, max_size=m)))
    roots = tuple(lo + u + i * gap for i, u in enumerate(offsets))
    return ty, roots, odd, draw(st.floats(1e-3, 1e3))


def _product(scale, roots, odd=False):
    """C (cos t) prod (cos 2t - cos 2 r_i) at the Chebyshev nodes, as one row:
    cos 2t - cos 2r = -2 sin(t - r) sin(t + r)."""
    factors = [np.cos(2.0 * CHEB_NODES) - np.cos(2.0 * r) for r in roots]
    return scale * np.prod(factors + [np.cos(CHEB_NODES)] * odd, axis=0)[None]


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
        # One kernel pass per type: the 8 Chebyshev nodes in (0, pi/2), onto
        # which the certified isometry t -> pi - t folds the other 8, reach
        # curvature_invariants as one array call of one block, then one
        # block for the minimal spectrum and the |H| filter; the orbit
        # dimensions at the window ends come from the spec.  The kernel takes
        # its rows from the spec's coefficients, so g(t) is never formed.
        orbits = importlib.import_module("g2orbits.orbits")
        module = importlib.import_module("g2orbits.classify")
        frames = spy(monkeypatch, orbits, "_principal_lifts", lambda spec, ts: len(ts))
        geodesics = spy(monkeypatch, orbits, "_geodesic")
        grids, invariants = [], module.curvature_invariants

        def counted_invariants(spec, t):
            before = len(frames)
            values = invariants(spec, t)
            grids.append((np.shape(t), frames[before:]))
            return values

        monkeypatch.setattr(module, "curvature_invariants", counted_invariants)
        for ty in ALL_TYPES:
            frames.clear()
            grids.clear()
            classify_type.__wrapped__(ty)  # uncached
            roots = len(classify_type(ty).biharmonic_t)
            assert frames == [8, 1 + roots], (ty, frames)
            assert grids == [((8,), [8])], (ty, grids)
            assert geodesics == [], ty

    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_one_pass_over_both_functions_equals_each_alone(self, ty):
        spec = action_spec(ty)
        (h, norm_sq), w = curvature_invariants(spec, CHEB_NODES), singular_weight(spec, CHEB_NODES)
        values = np.stack([w * h, w**2 * (norm_sq - spec.einstein_constant)])
        both = _chebyshev_roots(spec, values, ("f_H", "f_A"))
        for row, (roots, diag) in enumerate(both):
            [(alone, alone_diag)] = _chebyshev_roots(spec, values[[row]], ("f",))
            assert roots == alone
            assert diag == alone_diag

    def test_an_unresolved_row_is_named_while_the_other_is_accepted(self):
        # |cos t| has a kink at pi/2, so its series has no end; cos t is
        # accepted.
        spec = action_spec("III")
        values = np.stack([np.cos(CHEB_NODES), np.abs(np.cos(CHEB_NODES))])
        with pytest.raises(NoRootError) as err:
            _chebyshev_roots(spec, values, ("smooth", "kinked"))
        message = str(err.value)
        assert "\n" not in message and "kinked: tail beyond degree 4" in message
        assert "smooth" not in message

    def test_a_mixed_parity_series_is_refused(self):
        # cos t + cos 2t has degree 2 but no parity: neither the quadratic
        # in cos 2t nor cos t times a linear one.
        with pytest.raises(NoRootError) as err:
            _chebyshev_roots(
                action_spec("II"), (np.cos(CHEB_NODES) + np.cos(2.0 * CHEB_NODES))[None], ("x",)
            )
        message = str(err.value)
        assert "\n" not in message and "x: parity defect" in message

    def test_find_functions_match_classify(self):
        for ty in ALL_TYPES:
            spec, res = action_spec(ty), classify_type(ty)
            (_, minimal_diag), (_, biharmonic_diag) = res.root_diagnostics
            assert find_minimal(spec) == (res.minimal_t, minimal_diag)
            assert find_biharmonic(spec) == (list(res.biharmonic_t), biharmonic_diag)

    def test_a_term_beyond_degree_four_is_refused(self, monkeypatch):
        # A 1e-6 cos(2 t) term in |A|^2, even and pi-periodic as the folded
        # grid requires of a function of the orbit, gives
        # f_A = w^2 (|A|^2 - lambda) degree 6 in cos t; f_H is untouched.
        module = importlib.import_module("g2orbits.classify")
        exact = module.curvature_invariants

        def wiggled(spec, t):
            values = exact(spec, t)
            values[1] += 1e-6 * np.cos(2.0 * t)
            return values

        monkeypatch.setattr(module, "curvature_invariants", wiggled)
        with pytest.raises(NoRootError) as err:
            classify(action_spec("II"))
        message = str(err.value)
        assert "\n" not in message and "f_H" not in message
        assert "f_A = w^2 (|A|^2 - lambda): tail beyond degree 4" in message

    def test_classify_reads_the_given_spec(self):
        spec = dataclasses.replace(action_spec("II"), einstein_constant=9.0)
        res = classify(spec)
        assert res.biharmonic_t == tuple(find_biharmonic(spec)[0])
        assert res.biharmonic_t != classify_type("II").biharmonic_t
        # the references are re-derived for the replaced lambda, not kept
        # from the spec it was replaced from
        expected = _closed_form_roots("II", 9.0)
        assert len(res.closed_form_biharmonic_t) == len(expected) == 2
        assert max(abs(a - b) for a, b in zip(res.closed_form_biharmonic_t, expected)) < 1e-10
        assert res.passed is True

    def test_a_root_outside_the_parameter_tolerance_carries_a_note(self, monkeypatch):
        # 1e-7 is above the 1e-8 tolerance that fails the row on the
        # command line, so the note must say why.
        assert PARAMETER_TOLERANCE < 1e-7
        ref = REFERENCE_MINIMAL_T["II"]
        res = classify(replaced(monkeypatch, action_spec("II"), minimal_t=ref + 1e-7))
        assert res.closed_form_minimal_t == ref + 1e-7
        assert any("deviates from the closed-form value" in n for n in res.discrepancy_notes)

    def test_a_disagreeing_austere_verdict_carries_a_note(self):
        res = classify(dataclasses.replace(action_spec("IV"), austere=False))
        assert res.minimal_austere is True and res.closed_form_austere is False
        note = "disagrees with the closed-form verdict False"
        assert any(note in n for n in res.discrepancy_notes)
        assert res.passed is False

    def test_verdict_and_deviations_come_with_the_result(self, monkeypatch):
        for ty in ALL_TYPES:
            res = classify_type(ty)
            pairs = zip(res.biharmonic_t, res.closed_form_biharmonic_t)
            assert res.minimal_deviation == abs(res.minimal_t - res.closed_form_minimal_t)
            assert res.biharmonic_deviation == max(abs(a - b) for a, b in pairs)
            assert res.passed is True
        ref = REFERENCE_BIHARMONIC_T["II"]
        res = classify(replaced(monkeypatch, action_spec("II"), biharmonic_t=ref[:1]))
        assert res.passed is False and res.biharmonic_deviation < PARAMETER_TOLERANCE

    @pytest.mark.parametrize("lam", [1.5, 8.5, 9.0, 12.0])
    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_biharmonic_roots_match_closed_form_oracle(self, ty, lam):
        # f_A is linear in cos 2t for III and IV.  1.5 is below the least
        # |A|^2 of every window (2 for III, at pi/2), where no orbit is
        # biharmonic.
        spec = dataclasses.replace(action_spec(ty), einstein_constant=lam)
        expected = _closed_form_roots(ty, lam)
        found, _ = find_biharmonic(spec)
        assert len(found) == len(expected) == (0 if lam < 2 else 1 if ty == "III" else 2)
        assert max((abs(a - b) for a, b in zip(found, expected)), default=0.0) < 1e-10
        res = classify(spec)
        assert res.passed is True and len(res.closed_form_biharmonic_t) == len(expected)

    def test_the_mean_curvature_filter_drops_only_the_minimal_orbit(self):
        # With lambda = |A|^2(t_min), f_A vanishes on the minimal orbit, which
        # is not proper biharmonic; 1e-4 away its |H| is 8.2e-4, above the
        # 1e-6 of the filter, and the root is kept.
        spec = action_spec("II")
        t_min = spec.minimal_t
        for shift, kept in [(0.0, ()), (1e-4, (t_min + 1e-4,))]:
            lam = float(shape_norm_sq(spec, t_min + shift))
            moved = dataclasses.replace(spec, einstein_constant=lam)
            found, _ = find_biharmonic(moved)
            assert len(found) == 1 + len(kept) == len(moved.biharmonic_t)
            assert abs(found[0] - np.pi / 4) < 1e-3  # the other root, far from t_min
            assert max(abs(a - b) for a, b in zip(found, moved.biharmonic_t)) < 1e-12
            assert all(abs(a - b) < 1e-12 for a, b in zip(found[1:], kept))
            assert classify(moved).passed is True
        assert 1e-6 < abs(curvature_invariants(spec, t_min + 1e-4)[0]) < 1e-3

    def test_a_root_on_the_symmetry_point_is_counted_once(self):
        # |A|^2 of type IV is least at pi/2, where it is 6.5: f_A has a double
        # root in t there, a simple root z = cos 2t = -1, and it is the
        # minimal orbit, so no orbit is proper biharmonic.
        spec = dataclasses.replace(action_spec("IV"), einstein_constant=6.5)
        assert spec.biharmonic_t == ()
        res = classify(spec)
        assert res.biharmonic_t == () and res.passed is True
        # cos 2t + 1 = 2 cos^2 t: one root, not a close pair
        [(roots, _)] = _chebyshev_roots(action_spec("IV"), _product(1.0, [np.pi / 2]), ("f",))
        assert roots == [np.pi / 2]

    @pytest.mark.parametrize("shift", [0.0, 1e-10], ids=["double", "close_pair"])
    def test_near_double_root_raises(self, shift):
        # The double root z = cos 2 of (cos 2t - cos 2)^2, and the pair
        # cos 2 +/- 1e-5 i of (cos 2t - cos 2)^2 + 1e-10, may not vanish
        # from the root count.
        spec = action_spec("III")
        with pytest.raises(NoRootError) as err:
            _chebyshev_roots(spec, _product(1.0, [1.0, 1.0]) + shift, ("x",))
        message = str(err.value)
        assert "\n" not in message and "double root near t=+-1 mod pi" in message
        # two simple roots 0.01 apart are still found
        [(roots, _)] = _chebyshev_roots(spec, _product(1.0, [1.0, 1.01]), ("x",))
        assert np.allclose(roots, [1.0, 1.01], atol=1e-12)
        # a root z just past -1, and a root z near -1 beside the root pi/2 of
        # cos t, are near-double roots at pi/2
        past, beside = _product(1.0, [np.pi / 2]) + 1e-6, _product(1.0, [np.pi / 2 - 1e-5], True)
        for values in [past, beside]:
            with pytest.raises(NoRootError, match=r"double root near t=\+-1.5708 mod pi"):
                _chebyshev_roots(spec, values, ("x",))

    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_values_outside_the_window_are_the_analytic_continuation(self, ty):
        # Off the window the kernel's w H and w^2 |A|^2 must still be the
        # closed forms times the weight, here at 32 points over a period.
        spec, record = action_spec(ty), action_record(ty)
        ts = np.pi * np.arange(1, 64, 2) / 32
        (h, norm_sq), w = curvature_invariants(spec, ts), singular_weight(spec, ts)
        closed_h, closed_norm_sq = spectrum_moments(record, ts)
        for engine, closed_form in [
            (w * h, w * closed_h),
            (w**2 * norm_sq, w**2 * closed_norm_sq),
        ]:
            bound = 1e-10 * np.maximum(1.0, np.abs(closed_form))
            assert np.all(np.abs(engine - closed_form) <= bound)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=_root_sets())
    @example(data=("II", (1e-4 + 1e-5, np.pi / 2 - 1e-4 - 5e-4), False, 1.0))
    @example(data=("IV", (1e-4 + 9e-4, 1.2), False, 3.0))
    @example(data=("III", (0.7,), True, 0.01))
    @example(data=("IV", (np.pi / 2 - 1.1e-3,), True, 1e3))
    def test_roots_of_a_product_of_sines(self, data):
        # C (cos t) prod (cos 2t - cos 2 r_i) has exactly the roots r_i, the
        # pi - r_i and, with cos t, pi/2 in the window; a repeated r_i is a
        # double root and raises.
        ty, roots, odd, scale = data
        spec = action_spec(ty)
        lo, hi = principal_interval(spec)
        expected = sorted(
            [t for r in roots for t in (r, np.pi - r) if lo <= t <= hi]
            + [np.pi / 2] * (odd and lo <= np.pi / 2 <= hi)
        )
        [(found, _)] = _chebyshev_roots(spec, _product(scale, roots, odd), ("f",))
        assert len(found) == len(expected)
        # An even function is flat at 0 and pi/2, so the rounding of its
        # values moves a root d away from there by up to about 12 eps / d (23
        # eps / sin 2d at most over 20,000 random sets; the root pi/2 of
        # cos t is exact).
        expected = np.array(expected)
        bound = 1e-12 + 2e-14 / np.maximum(np.abs(np.sin(2.0 * expected)), 1e-4)
        assert np.all(np.abs(np.array(found) - expected) <= bound)
        with pytest.raises(NoRootError, match="double root"):
            _chebyshev_roots(spec, _product(scale, roots[:1] * 2), ("f",))

    def test_weight_has_one_factor_per_singular_class(self):
        # Type IV's singular parameters 0 and pi agree mod pi: one sin t.
        ts = np.linspace(0.1, 3.0, 7)
        assert np.array_equal(singular_weight(action_spec("IV"), ts), np.sin(ts))
        expected = np.sin(ts) * np.sin(ts - np.pi / 2)
        assert np.array_equal(singular_weight(action_spec("V"), ts), expected)

    def test_unweighted_pole_raises(self):
        # Without pi/2 among the singular parameters, w H keeps the pole of
        # tan t there, so its series has no end.
        spec = dataclasses.replace(action_spec("II"), singular_ts=(0.0,))
        with pytest.raises(NoRootError) as err:
            find_minimal(spec)
        message = str(err.value)
        assert "\n" not in message and "f_H = w H: tail beyond degree 4" in message

    def test_endpoint_root_is_clipped_onto_the_end(self):
        assert classify_type("III").minimal_t == np.pi / 2
        # With t = 0 a principal end, the root z = 1 of cos 2t - 1 is the
        # single t = 0, and a root 1e-10 past the upper end is clipped onto it.
        spec = dataclasses.replace(action_spec("II"), singular_ts=(np.pi / 2,))
        lo, hi = principal_interval(spec)
        [(roots, _)] = _chebyshev_roots(spec, _product(1.0, [0.0, hi + 1e-10]), ("x",))
        assert roots == [0.0, hi]
        # A root between a singular end and the clipped window is not one.
        [(roots, _)] = _chebyshev_roots(action_spec("II"), _product(1.0, [5e-5, 1.0]), ("x",))
        assert len(roots) == 1 and abs(roots[0] - 1.0) < 1e-12

    def test_root_diagnostics(self):
        for ty in ALL_TYPES:
            diagnostics = classify_type(ty).root_diagnostics
            assert [name for name, _ in diagnostics] == ["f_H", "f_A"]
            for _, diag in diagnostics:
                # One series from 16 Chebyshev nodes resolves each, from the
                # kernel at the 8 of them in (0, pi/2).
                assert (diag.n, diag.evaluations) == (16, 8)
                assert diag.tail <= 1e-9 and diag.defect <= 1e-9
                values = (diag.tail, diag.defect, *diag.coefficients)
                assert len(diag.coefficients) == 5
                assert all(type(x) is float for x in values)

    def test_coefficients_are_the_series_of_the_closed_forms(self, rng):
        # sum c_k T_k(cos t) against w H and w^2 (|A|^2 - lambda) from the
        # closed-form spectrum, over a whole period and independent of the
        # kernel.
        for ty in ALL_TYPES:
            spec = action_spec(ty)
            ts = rng.uniform(0.0, np.pi, size=50)
            h, norm_sq = spectrum_moments(action_record(ty), ts)
            w = singular_weight(spec, ts)
            closed = [w * h, w**2 * (norm_sq - spec.einstein_constant)]
            for (_, diag), values in zip(classify_type(ty).root_diagnostics, closed):
                series = np.polynomial.chebyshev.chebval(np.cos(ts), diag.coefficients)
                bound = 1e-12 * np.max(np.abs(diag.coefficients))
                assert np.max(np.abs(series - values)) <= bound, ty

    def test_result_is_a_plain_value(self):
        res = classify_type("II")
        assert hash(res) == hash(dataclasses.replace(res))
        assert pickle.loads(pickle.dumps(res)) == res
        assert copy.deepcopy(res) == res
        fields = dataclasses.asdict(res)
        assert fields["root_diagnostics"][0][0] == "f_H"
        assert set(fields["root_diagnostics"][1][1]) == {
            "n", "tail", "defect", "evaluations", "coefficients"
        }


def _closed_form_roots(ty: str, lam: float) -> list[float]:
    """Roots of the closed-form |A|^2 - lam over the principal window from a
    dense sign scan and bisection, the oracle of the Fourier root finder."""

    def g(t):
        return spectrum_moments(action_record(ty), t)[1] - lam

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

    def test_mean_closed_form_consistency(self):
        # The spectrum's first moment is the hand-written H over a whole
        # period, at odd multiples of pi/64 (none of them singular).
        ts = np.pi * np.arange(1, 128, 2) / 64
        for ty in ALL_TYPES:
            moment = spectrum_moments(action_record(ty), ts)[0]
            expected = MEAN_CURVATURE[ty](ts)
            assert np.all(np.abs(moment - expected) <= 1e-13 * np.maximum(1.0, np.abs(expected)))
