"""Orbit frames, shape operators, spectra and the reflection isometries."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from g2orbits import orbits
from g2orbits.actions import ACTIONS, ActionRecord, action_record
from g2orbits.classify import classify_type, principal_interval
from g2orbits.linalg import NotASubspaceError, _to_rows, expm, g_basis, inner_g, v_elem, zeta
from g2orbits.orbits import (
    FRAME_BLOCK,
    ActionSpec,
    SingularOrbitError,
    _frames,
    _generator_rows,
    _geodesic,
    _principal_lifts,
    action_spec,
    curvature_invariants,
    is_austere,
    mean_curvature,
    orbit_frame,
    shape_norm_sq,
    shape_operator,
    spectrum_report,
    spectrum_reports,
    unit_normal,
    verify_reflection,
)
from g2orbits.triality import SIGMA, named_subalgebra

from util import lift_generators, replaced, shape_oracle, spectrum_moments, spy

ALL_TYPES = ("II", "III", "IV", "V")

#: Orbit dimensions at the two ends of each type's parameter range.
END_DIMS = {"II": (10, 11), "III": (14, 20), "IV": (17, 17), "V": (15, 19)}


#: c^2 = <X, xi>^2 / <xi, xi>, Ric(xi, xi) and the codimensions k_s of the
#: singular orbits at the entries of singular_ts.
DERIVATION_FACTS = {
    "II": (1.5, 2.0, (4, 3)),
    "III": (4 / 3, 2.5, (7,)),
    "IV": (1 / 3, 2.5, (4, 4)),
    "V": (4 / 3, 2.5, (6, 2)),
}

#: The exact closed forms of the minimal and proper biharmonic parameters.
CLOSED_FORM_MINIMAL_T = {
    "II": float(np.arctan(np.sqrt(1.5))),
    "III": float(np.pi / 2),
    "IV": float(np.pi / 2),
    "V": float(np.arctan(np.sqrt(5.0))),
}
CLOSED_FORM_BIHARMONIC_T = {
    "II": tuple(float(np.arctan(np.sqrt((5 + sgn * np.sqrt(19.0)) / 2))) for sgn in (-1, 1)),
    "III": (float(np.arctan(3.0 / 4.0)),),
    "IV": (float(np.arctan(6.0 / np.sqrt(14.0))), float(np.pi - np.arctan(6.0 / np.sqrt(14.0)))),
    "V": tuple(float(np.arctan(np.sqrt((16 + sgn * np.sqrt(211.0)) / 3))) for sgn in (-1, 1)),
}


class TestActionSpecs:
    def test_einstein_constants(self):
        assert action_spec("II").einstein_constant == 8.0
        for ty in ("III", "IV", "V"):
            assert action_spec(ty).einstein_constant == 10.0

    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_einstein_constant_is_four_times_ricci(self, ty):
        # lambda = -B(xi, xi) = |ad_xi|_F^2 = 4 Ric(xi, xi) in inner_g
        spec = action_spec(ty)
        lam = spec.einstein_constant
        assert abs(4 * spec.ricci - lam) <= 1e-12 * lam
        assert abs(np.sum(spec.ad_section**2) - lam) <= 1e-12 * lam

    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_derived_facts(self, ty):
        spec = action_spec(ty)
        c_sq, ricci, codims = DERIVATION_FACTS[ty]
        assert abs(spec.normal_speed_sq - c_sq) <= 1e-12
        assert abs(spec.ricci - ricci) <= 1e-12
        assert spec.singular_codims == codims

    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_derived_references_are_the_closed_forms(self, ty):
        spec = action_spec(ty)
        assert spec.minimal_t == CLOSED_FORM_MINIMAL_T[ty]
        expected = CLOSED_FORM_BIHARMONIC_T[ty]
        assert len(spec.biharmonic_t) == len(expected)
        assert max(abs(a - b) for a, b in zip(spec.biharmonic_t, expected)) <= 2.3e-16

    def test_principal_orbit_declared_singular_is_refused(self, monkeypatch):
        bad = dataclasses.replace(ACTIONS["II"], action_type="sII", singular_ts=(0.0, 1.0))
        monkeypatch.setitem(ACTIONS, "sII", bad)
        with pytest.raises(ValueError, match=r"^type sII: .* t=1\.0 is principal$") as err:
            action_spec("sII")
        assert "\n" not in str(err.value)

    def test_subgroup_assignments(self):
        assert (action_spec("II").h.name, action_spec("II").k.name) == ("so4_g2", "su3")
        assert (action_spec("III").h.name, action_spec("III").k.name) == ("g2", "g2")
        assert (action_spec("IV").h.name, action_spec("IV").k.name) == ("so3_so4", "g2")
        assert (action_spec("V").h.name, action_spec("V").k.name) == ("u3", "g2")

    def test_section_ratios(self):
        assert [action_spec(ty).section_ratio for ty in ALL_TYPES] == [2.0, 1.5, 3.0, 1.5]

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            action_spec("VI")

    def test_corrupted_k_basis_is_refused(self, monkeypatch):
        # su3 with its first basis element stretched by 0.1%, and so4_g2
        # (the h of type II) with 1e-3 G_01, off g2, added to its first
        corruptions = {
            "su3": (lambda first: 1.001 * first, r"not an orthogonal basis \(defect 2\.001e-03\)"),
            "so4_g2": (lambda first: first + 1e-3 * g_basis(0, 1), "leaves the ambient algebra"),
        }
        monkeypatch.setitem(ACTIONS, "kII", dataclasses.replace(ACTIONS["II"], action_type="kII"))
        for corrupted, (change, message) in corruptions.items():

            def corrupt(name):
                sub = named_subalgebra(name)
                if name != corrupted:
                    return sub
                basis = sub.basis.copy()
                basis[0] = change(basis[0])
                return dataclasses.replace(sub, basis=basis)

            monkeypatch.setattr(orbits, "named_subalgebra", corrupt)
            with pytest.raises(ValueError, match=message):
                action_spec("kII")

    def test_replaced_h_leaving_the_ambient_algebra_is_refused(self, monkeypatch):
        # Every spec runs its checks, also one built by dataclasses.replace.
        spec = action_spec("IV")
        basis = spec.h.basis.copy()
        basis[0] += 1e-3 * g_basis(0, 1)  # G_01 is orthogonal to so(7)
        corrupted = dataclasses.replace(spec.h, basis=basis)
        monkeypatch.setattr(
            orbits, "named_subalgebra",
            lambda name: corrupted if name == "so3_so4" else named_subalgebra(name),
        )
        with pytest.raises(NotASubspaceError, match=r"leaves the ambient algebra \(residual"):
            dataclasses.replace(spec)

    def test_a_replaced_record_field_rederives_the_codimensions(self):
        spec = dataclasses.replace(action_spec("II"), singular_ts=(0.0,))
        assert spec.singular_codims == (4,)

    def test_a_derived_field_cannot_be_replaced(self):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(action_spec("II"), minimal_t=1.0)

    def test_only_the_record_is_settable(self):
        # every other field is derived by ActionSpec.__post_init__
        settable = {f.name for f in dataclasses.fields(ActionSpec) if f.init}
        assert settable == {f.name for f in dataclasses.fields(ActionRecord)}

    def test_equality_and_hash_are_those_of_the_record(self):
        spec = action_spec("II")
        copy = dataclasses.replace(spec)
        assert spec == copy and hash(spec) == hash(copy)
        assert spec != dataclasses.replace(spec, einstein_constant=9.0)

    def test_spec_carries_its_record(self):
        for ty in ALL_TYPES:
            spec = action_spec(ty)
            for field in dataclasses.fields(ActionRecord):
                assert getattr(spec, field.name) is getattr(ACTIONS[ty], field.name), field.name


class TestGeodesic:
    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_closed_form_matches_the_series_and_scipy(self, ty):
        spec = action_spec(ty)
        x = spec.geodesic_generator
        # every parameter range and the isometries' g(pi), g(+-pi/2); past
        # |t| = pi scipy's own error grows (6e-14 at 2 pi)
        ts = np.concatenate([np.linspace(-np.pi, np.pi, 61), np.arange(-2, 3) * np.pi / 2])
        for t, g_t in zip(ts, _geodesic(spec, ts)):
            assert np.abs(g_t - expm(x, t)).max() < 1e-14
            assert np.abs(g_t - scipy.linalg.expm(t * x)).max() < 1e-14

    def test_replaced_generator_is_the_one_exponentiated(self):
        # X^2 comes from the certified generator, not from a field of its own
        x = action_spec("V").geodesic_generator
        spec = dataclasses.replace(action_spec("III"), geodesic=ACTIONS["V"].geodesic)
        for t in (0.3, 1.0, 2.0):
            assert np.abs(_geodesic(spec, t) - expm(x, t)).max() < 1e-14

    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_closed_form_matches_a_40_digit_exponential(self, ty):
        mpmath = pytest.importorskip("mpmath")
        spec = action_spec(ty)
        x = mpmath.matrix(spec.geodesic_generator.tolist())
        with mpmath.workdps(40):
            for t in (0.3, 1.1, 2.0, -2.5, 5.9):
                exact = np.array(mpmath.expm(mpmath.mpf(t) * x).tolist(), dtype=float)
                assert np.abs(_geodesic(spec, t) - exact).max() < 1e-15

    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_closed_form_is_orthogonal(self, ty):
        ts = np.linspace(-2 * np.pi, 2 * np.pi, 201)
        ts = np.concatenate([ts, np.arange(-4, 5) * np.pi / 2])
        g = _geodesic(action_spec(ty), ts)
        assert np.abs(g @ np.swapaxes(g, 1, 2) - np.eye(8)).max() < 1e-14

    def test_generator_breaking_the_cube_identity_is_refused(self, monkeypatch):
        # twice type II's generator V4(1, -1, 0) has X^3 = -4X
        doubled = dataclasses.replace(ACTIONS["II"], action_type="2II", geodesic=(2, -2, 0))
        monkeypatch.setitem(ACTIONS, "2II", doubled)
        with pytest.raises(ValueError, match=r"X\^3 = -X fails \(defect 6\.000e\+00\)"):
            action_spec("2II")


def _conjugated_rows(spec, g):
    """Ambient coordinates of g^T h_p g for each 8x8 g of the stack ``g``."""
    moved = np.swapaxes(g, -1, -2)[:, None] @ spec.h.basis @ g[:, None]
    return (_to_rows(moved.reshape(-1, 8, 8)) @ spec.ambient_rows.T).reshape(len(g), spec.h.dim, -1)


class TestGeneratorRows:
    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_rows_match_the_conjugation(self, ty):
        spec = action_spec(ty)
        ts = np.linspace(-2 * np.pi, 2 * np.pi, 200)
        rows, reduced = _generator_rows(spec, ts)
        direct = _conjugated_rows(spec, _geodesic(spec, ts))
        assert np.abs(rows - direct).max() <= 2e-15
        assert np.abs(reduced - direct @ spec.k_perp.T).max() <= 2e-15

    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_rows_match_a_40_digit_conjugation(self, ty):
        mpmath = pytest.importorskip("mpmath")
        spec = action_spec(ty)
        ts = (0.3, 1.1, 2.0, -2.5, 5.9)
        x = mpmath.matrix(spec.geodesic_generator.tolist())
        exact = []
        with mpmath.workdps(40):
            for t in ts:
                g = mpmath.expm(mpmath.mpf(t) * x)
                moved = [g.T * mpmath.matrix(h.tolist()) * g for h in spec.h.basis]
                exact.append([np.array(m.tolist(), dtype=float) for m in moved])
        exact = np.array(exact)
        direct = _to_rows(exact.reshape(-1, 8, 8)) @ spec.ambient_rows.T
        direct = direct.reshape(len(ts), spec.h.dim, -1)
        assert np.abs(_generator_rows(spec, np.array(ts))[0] - direct).max() <= 1e-15

    def test_replaced_generator_rebuilds_the_rows(self):
        # the coefficients are derived from the spec's own X, so a replaced
        # generator cannot leave III's rows behind
        iii = action_spec("III")
        spec = dataclasses.replace(iii, geodesic=ACTIONS["V"].geodesic)
        ts = np.linspace(0.2, 1.3, 5)
        rows = _generator_rows(spec, ts)[0]
        direct = _conjugated_rows(spec, _geodesic(spec, ts))
        assert np.abs(rows - direct).max() <= 2e-15
        assert np.abs(rows - _generator_rows(iii, ts)[0]).max() > 0.1
        vt, dim, _, _ = _frames(spec, ts)
        tangent = vt[:, :dim]
        # every row of Ad(g(t))^-1 h (V's g) lies in the tangent space, and
        # the rank is that of [H; K]
        spanned = direct @ np.swapaxes(tangent, 1, 2) @ tangent
        assert np.abs(direct - spanned).max() < 1e-12
        k_rows = np.broadcast_to(spec.k_coords, (len(ts),) + spec.k_coords.shape)
        full = np.concatenate([direct, k_rows], axis=1)
        assert [np.linalg.matrix_rank(r, tol=1e-9) for r in full] == [dim] * 5


class TestOrbitDimensions:
    @pytest.mark.parametrize(
        "ty,samples",
        [
            ("II", [(0.0, 10), (0.35, 13), (0.8, 13), (1.2, 13), (np.pi / 2, 11)]),
            ("III", [(0.0, 14), (0.5, 20), (0.9, 20), (1.4, 20), (np.pi / 2, 20)]),
            ("IV", [(0.0, 17), (0.8, 20), (1.6, 20), (2.4, 20), (np.pi, 17)]),
            ("V", [(0.0, 15), (0.4, 20), (0.8, 20), (1.3, 20), (np.pi / 2, 19)]),
        ],
    )
    def test_dimension_profile(self, ty, samples):
        spec = action_spec(ty)
        for t, dim in samples:
            frame = orbit_frame(spec, t)
            assert frame.orbit_dim == dim
            assert frame.tangent.dim + frame.normal.dim == spec.ambient.dim
            assert frame.lift_residual < 1e-9


class TestUnitNormal:
    def test_type_ii_canonical(self):
        n = unit_normal(action_spec("II"), 0.5)
        expected = v_elem(4, 2, -1, -1) / np.sqrt(6.0)
        assert np.abs(n - expected).max() < 1e-9

    def test_type_iii_canonical(self):
        n = unit_normal(action_spec("III"), 0.7)
        assert np.abs(n - zeta(4) / np.sqrt(3.0)).max() < 1e-9

    def test_singular_orbit_error(self):
        with pytest.raises(SingularOrbitError) as err:
            unit_normal(action_spec("II"), 0.0)
        assert err.value.codimension == 4


class TestShapeOperator:
    def test_raw_symmetry_defect(self, rng):
        # 50 random (type, t) samples away from the blowup endpoints
        for _ in range(50):
            ty = rng.choice(ALL_TYPES)
            spec = action_spec(ty)
            lo, hi = spec.t_range
            t = rng.uniform(lo + 0.15, hi - 0.15)
            frame = orbit_frame(spec, t)
            n = unit_normal(spec, t, frame=frame)
            raw = shape_oracle(spec, _geodesic(spec, t), frame.tangent.basis, n)
            assert np.abs(raw - raw.T).max() < 1e-9

    def test_rejects_bad_normal(self):
        spec = action_spec("III")
        with pytest.raises(ValueError):
            shape_operator(spec, 0.8, zeta(4))  # not unit length
        frame = orbit_frame(spec, 0.8)
        with pytest.raises(ValueError):
            shape_operator(spec, 0.8, frame.tangent.basis[0], frame=frame)

    def test_rejects_normal_outside_the_ambient_algebra(self):
        # G_01 is unit length and orthogonal to so(7), so also to the
        # tangent space, but it is no normal vector of the orbit in SO(7).
        spec = action_spec("III")
        assert inner_g(g_basis(0, 1), g_basis(0, 1)) == 1.0
        with pytest.raises(ValueError, match="leaves the ambient algebra"):
            shape_operator(spec, 0.8, g_basis(0, 1))

    def test_lift_independence(self, rng):
        # Perturb the least-squares lifts along the solution space's null
        # directions; the shape operator must not move.
        for ty, t in [("II", 0.6), ("III", 1.0), ("V", 0.9)]:
            spec = action_spec(ty)
            frame = orbit_frame(spec, t)
            n = unit_normal(spec, t, frame=frame)
            base = shape_operator(spec, t, n, frame=frame)

            gens = lift_generators(spec, _geodesic(spec, t))
            columns = gens.reshape(len(gens), -1).T
            _, sv, vt = np.linalg.svd(columns, full_matrices=True)
            null = vt[np.sum(sv > 1e-9 * sv[0]):]
            assert len(null) > 0

            vectors = frame.tangent.basis
            coeffs, *_ = np.linalg.lstsq(
                columns, vectors.reshape(len(vectors), -1).T, rcond=None
            )
            coeffs += null.T @ rng.normal(size=(len(null), len(vectors)))
            perturbed = shape_oracle(spec, _geodesic(spec, t), vectors, n, coeffs=coeffs)
            assert np.abs(perturbed - base).max() < 1e-9

    def test_frame_independence(self, rng):
        # Rotating the orthonormal tangent basis must permute nothing but
        # the matrix representation; eigenvalues are invariant.
        spec = action_spec("IV")
        t = 1.1
        frame = orbit_frame(spec, t)
        n = unit_normal(spec, t, frame=frame)
        base = shape_operator(spec, t, n, frame=frame)

        m = frame.tangent.dim
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        rotated = np.einsum("ij,jab->iab", q, frame.tangent.basis)
        rotated_shape = shape_oracle(spec, _geodesic(spec, t), rotated, n)
        ours = np.sort(np.linalg.eigvalsh(0.5 * (rotated_shape + rotated_shape.T)))
        ref = np.sort(np.linalg.eigvalsh(base))
        assert np.abs(ours - ref).max() < 1e-9

    def test_type_ii_block_structure(self):
        # The tangent space splits into shape-invariant blocks of
        # dimensions 4, 4, 4, 1.
        spec = action_spec("II")
        t = 0.7
        frame = orbit_frame(spec, t)
        n = unit_normal(spec, t, frame=frame)
        s = shape_operator(spec, t, n, frame=frame)
        blocks = []
        for i in (1, 2, 3):
            blocks.append(
                [
                    v_elem(i, 0, 1, -1),
                    v_elem(i, 2, -1, -1),
                    v_elem(i + 4, 0, 1, -1),
                    v_elem(i + 4, 2, -1, -1),
                ]
            )
        blocks.append([v_elem(4, 0, 1, -1)])
        dims = []
        for block in blocks:
            coords = np.array(
                [[inner_g(mat, u) for u in frame.tangent.basis] for mat in block]
            )
            q, _ = np.linalg.qr(coords.T)
            proj = q @ q.T
            dims.append(q.shape[1])
            assert np.abs(s @ proj - proj @ s).max() < 1e-9
        assert dims == [4, 4, 4, 1]

    def test_type_ii_characteristic_polynomial(self, rng):
        # Restricted to the second block, det(l - 2 sqrt6 S) equals
        # (l^2 + 4 cot t l - 3)(l^2 - 4 tan t l - 3).
        spec = action_spec("II")
        probes = np.array([-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0])
        for t in rng.uniform(0.15, np.pi / 2 - 0.15, size=20):
            frame = orbit_frame(spec, t)
            n = unit_normal(spec, t, frame=frame)
            s = shape_operator(spec, t, n, frame=frame)
            block = [
                v_elem(2, 0, 1, -1),
                v_elem(2, 2, -1, -1),
                v_elem(6, 0, 1, -1),
                v_elem(6, 2, -1, -1),
            ]
            coords = np.array(
                [[inner_g(mat, u) for u in frame.tangent.basis] for mat in block]
            )
            q, _ = np.linalg.qr(coords.T)
            restricted = 2 * np.sqrt(6.0) * (q.T @ s @ q)
            cot, tan = np.cos(t) / np.sin(t), np.tan(t)
            for lam in probes:
                det = np.linalg.det(lam * np.eye(4) - restricted)
                expected = (lam**2 + 4 * cot * lam - 3) * (lam**2 - 4 * tan * lam - 3)
                assert abs(det - expected) < 1e-8 * max(1.0, abs(expected))


class TestMeanCurvature:
    def test_closed_forms(self, rng):
        closed = {
            "II": lambda t: (4 * np.tan(t) - 6 / np.tan(t)) / np.sqrt(6.0),
            "III": lambda t: -3 * np.sqrt(3.0) / np.tan(t),
            "IV": lambda t: -3 * np.sqrt(3.0) / np.tan(t),
            "V": lambda t: -np.sqrt(3.0) * (1 / np.tan(2 * t) + 2 / np.tan(t)),
        }
        for ty in ALL_TYPES:
            spec = action_spec(ty)
            lo, hi = spec.t_range
            for t in rng.uniform(lo + 0.1, hi - 0.1, size=20):
                assert abs(mean_curvature(spec, t) - closed[ty](t)) < 1e-8

    def test_type_ii_trig_identity(self, rng):
        for t in rng.uniform(0.1, np.pi / 2 - 0.1, size=20):
            folded = (2 / np.sqrt(6.0)) * (
                -2 / np.tan(t) + np.tan(t) - 2 / np.tan(2 * t)
            )
            flat = (4 * np.tan(t) - 6 / np.tan(t)) / np.sqrt(6.0)
            assert abs(folded - flat) < 1e-12

    def test_type_iv_trace_value(self):
        # trace at t = pi/3 equals -3 sqrt3 cot(pi/3) = -3
        assert mean_curvature(action_spec("IV"), np.pi / 3) == pytest.approx(
            -3.0, abs=1e-10
        )


class TestFrameKernel:
    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_array_matches_scalar_and_8x8_oracle(self, ty, rng):
        spec = action_spec(ty)
        lo, hi = principal_interval(spec)
        # more than two blocks, the clipped window ends included
        ts = np.concatenate([[lo, hi], rng.uniform(lo, hi, size=2 * FRAME_BLOCK + 3)])
        means, norms = mean_curvature(spec, ts), shape_norm_sq(spec, ts)
        assert means.shape == norms.shape == ts.shape
        for t, mean, norm in zip(ts, means, norms):
            frame = orbit_frame(spec, t)
            n = unit_normal(spec, t, frame=frame)
            raw = shape_oracle(spec, _geodesic(spec, t), frame.tangent.basis, n)
            s = 0.5 * (raw + raw.T)
            for value, scalar, oracle in [
                (mean, mean_curvature(spec, float(t)), np.trace(s)),
                (norm, shape_norm_sq(spec, float(t)), np.sum(s * s)),
            ]:
                assert isinstance(scalar, float)
                tol = 1e-12 * max(1.0, abs(oracle))
                assert abs(value - scalar) <= tol
                assert abs(value - oracle) <= tol

    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_refined_lifts_at_the_clipped_window_ends(self, ty):
        # cond(R) grows like 1/|t - s| near a singular s, and the refined
        # lifts keep their residual small there.  H and |A|^2 are checked
        # at 1e-4 only: at pi/2 - 1e-4 the rounding of t itself dominates.
        spec = action_spec(ty)
        for t in principal_interval(spec):
            assert orbit_frame(spec, t).lift_residual <= 1e-11
        mean, norm = curvature_invariants(spec, 1e-4)
        closed_mean, closed_norm = spectrum_moments(action_record(ty), 1e-4)
        assert mean == pytest.approx(closed_mean, rel=2.5e-13)
        assert norm == pytest.approx(closed_norm, rel=2.5e-13)

    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_relative_error_near_the_singular_end_is_at_most_half_eps_over_t(self, ty):
        # cond(R) grows like 1/t next to the singular orbit at t = 0, so
        # eps / t is the size of the rounding the frames can reach there.
        # Over 3000 geometric t in [1e-4, 1e-2] the worst ratio is 0.17
        # (V); over these 60 it is 0.14 (V, |A|^2), 0.09 for III.
        ts = np.geomspace(1e-4, 1e-2, 60)
        engine = curvature_invariants(action_spec(ty), ts)
        for value, closed in zip(engine, spectrum_moments(action_record(ty), ts)):
            relative = np.abs(value - closed) / np.abs(closed)
            assert np.all(relative <= 0.5 * np.finfo(float).eps / ts)

    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_svd_runs_on_h_off_k_and_k_rows_are_exact(self, ty, monkeypatch):
        # The SVD kernel runs where an orbit may be singular (here for the
        # spec's singular codimensions), on the rows of Ad(g)^-1 h off k
        # only.  A classification and a principal report take no SVD: their
        # tangent rows are the spec's fixed [K; W], and the K rows lift to -K.
        spec = action_spec(ty)
        q, d = spec.k.dim, spec.ambient.dim
        stacks = spy(monkeypatch, orbits, "ranked_svd", lambda rows, **kwargs: rows.shape)
        blocks = spy(monkeypatch, orbits, "_principal_lifts", lambda spec, ts: ts)
        tangents = spy(monkeypatch, orbits, "_shapes", lambda tangent_ad, lifts, ts: tangent_ad)
        dataclasses.replace(spec)
        assert stacks == [(1, spec.h.dim, d - q)] * len(spec.singular_ts)
        stacks.clear()
        classify_type.cache_clear()
        try:
            classify_type(ty)
        finally:
            classify_type.cache_clear()
        spectrum_report(spec, spec.minimal_t)
        assert stacks == []
        assert blocks and len(tangents) == len(blocks)
        assert all(tangent_ad is spec.tangent_ad for tangent_ad in tangents)
        tangent = spec.tangent_rows
        assert (tangent[:q] == spec.k_coords).all()
        assert np.abs(tangent @ tangent.T - np.eye(d - 1)).max() <= 1e-15
        assert np.abs(tangent @ spec.unit_section).max() <= 1e-15
        assert (spec.tangent_ad == tangent @ spec.ad_section).all()
        for ts in blocks:
            lifts, _ = _principal_lifts(spec, ts)
            assert lifts.shape == (len(ts), d - 1, d)
            assert (lifts[:, :q] == -spec.k_coords).all()

    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_principal_kernel_matches_the_svd_kernel(self, ty, rng):
        # The fixed tangent rows with QR lifts against the SVD frames with
        # the normal xi, at 40 random t and 20 geometric t from 1e-4 to 1e-2
        # off each singular end; the worst are V's near its ends: 3.4e-13
        # (|A|^2), 1.7e-13 (H) and 4.8e-13 (eigenvalues).
        spec = action_spec(ty)
        lo, _ = spec.t_range
        ends = [s + (1 if s <= lo else -1) * np.geomspace(1e-4, 1e-2, 20) for s in spec.singular_ts]
        ts = np.concatenate([rng.uniform(*principal_interval(spec), size=40), *ends])
        principal = np.concatenate([shapes for _, shapes in orbits._shape_blocks(spec, ts)])
        general = []
        for start in range(0, len(ts), FRAME_BLOCK):
            block = ts[start:start + FRAME_BLOCK]
            vt, dim, lifts, _ = _frames(spec, block)
            assert dim == spec.ambient.dim - 1
            general.append(orbits._shapes(vt[:, :dim] @ spec.ad_section, lifts, block))
        general = np.concatenate(general)
        norm_sq = np.sum(general * general, axis=(1, 2))
        assert np.all(np.abs(np.sum(principal * principal, axis=(1, 2)) - norm_sq) <= 1e-12 * norm_sq)
        # H may vanish, so it is compared on the scale max(|H|, |A|)
        mean = np.trace(general, axis1=1, axis2=2)
        scale = np.maximum(np.abs(mean), np.sqrt(norm_sq))
        assert np.all(np.abs(np.trace(principal, axis1=1, axis2=2) - mean) <= 1e-12 * scale)
        values = np.linalg.eigvalsh(general)
        defect = np.abs(np.linalg.eigvalsh(principal) - values).max(axis=1)
        assert np.all(defect <= 1e-12 * np.abs(values).max(axis=1))
        # the rank certificate accepts every t just outside the guard
        for s in spec.singular_ts:
            for t in (s - 1.01 * orbits.SINGULAR_GUARD, s + 1.01 * orbits.SINGULAR_GUARD):
                spectrum_report(spec, t)  # SingularOrbitError if refused

    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_rank_decisions_at_and_near_the_singular_ends(self, ty):
        spec = action_spec(ty)
        principal = spec.ambient.dim - 1
        end_dims = dict(zip(spec.t_range, END_DIMS[ty]))
        assert [orbit_frame(spec, t).orbit_dim for t in spec.t_range] == list(END_DIMS[ty])
        for s in spec.singular_ts:
            for offset in (1e-6, 1e-5, 1e-4):
                for t in (s - offset, s + offset):
                    assert orbit_frame(spec, t).orbit_dim == principal
            # inside SINGULAR_GUARD the rank is either decided or the lift
            # residual check refuses the frame
            for offset in (1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 3e-7):
                for t in (s - offset, s + offset):
                    try:
                        dim = orbit_frame(spec, t).orbit_dim
                    except ArithmeticError:
                        continue
                    assert dim in (principal, end_dims[s])

    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_invariants_are_mean_curvature_and_norm_sq(self, ty, rng):
        spec = action_spec(ty)
        ts = rng.uniform(*principal_interval(spec), size=40)  # two blocks
        invariants = curvature_invariants(spec, ts)
        assert invariants.shape == (2, 40)
        assert np.array_equal(invariants[0], mean_curvature(spec, ts))
        assert np.array_equal(invariants[1], shape_norm_sq(spec, ts))
        for (mean, norm), report in zip(invariants.T, spectrum_reports(spec, ts)):
            assert mean == pytest.approx(report.mean_curvature, rel=1e-12, abs=1e-12)
            assert norm == pytest.approx(report.norm_sq, rel=1e-12)
        assert curvature_invariants(spec, ts[0]).shape == (2,)
        assert np.array_equal(curvature_invariants(spec, ts[:, None]), invariants[:, :, None])

    def test_singular_parameter_in_array(self, monkeypatch):
        spec = action_spec("II")
        ts = np.array([0.3, 0.6, 0.0, 0.9])
        with pytest.raises(SingularOrbitError):
            shape_norm_sq(spec, ts)
        # past the principal guard, the rank check refuses the singular orbit
        monkeypatch.setattr(orbits, "SINGULAR_GUARD", 0.0)
        with pytest.raises(SingularOrbitError) as err:
            mean_curvature(spec, ts)
        assert err.value.codimension == 4
        # a section that is not normal to the orbits is refused when the
        # spec is built, before any t is evaluated
        tilted = r"^type II: the section generator is not normal to the orbits: max \|<xi, k_i>\| "
        with pytest.raises(ValueError, match=tilted + r"\(defect 5\.000e-01\)$"):
            dataclasses.replace(spec, section=(1, -1, 0))

    def test_memory_is_bounded_by_the_block(self):
        spec = action_spec("III")
        ts = np.linspace(*principal_interval(spec), 2000)
        shape_norm_sq(spec, ts)
        tracemalloc.start()
        try:
            shape_norm_sq(spec, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestSpectrumReport:
    def test_type_iii_balanced_spectrum(self):
        rep = spectrum_report(action_spec("III"), np.pi / 2)
        assert [m for _, m in rep.curvatures] == [6, 8, 6]
        values = [v for v, _ in rep.curvatures]
        assert abs(values[0] + 1 / np.sqrt(6.0)) < 1e-10
        assert abs(values[1]) < 1e-10
        assert abs(values[2] - 1 / np.sqrt(6.0)) < 1e-10
        assert rep.austere

    def test_type_ii_contains_half_angle_eigenvalue(self):
        rep = spectrum_report(action_spec("II"), np.pi / 4)
        target = np.tan(np.pi / 8) / np.sqrt(6.0)
        assert any(
            m == 1 and abs(v - target) < 1e-9 for v, m in rep.curvatures
        )

    def test_type_v_minimal_parameter(self):
        rep = spectrum_report(action_spec("V"), np.arctan(np.sqrt(5.0)))
        assert abs(rep.mean_curvature) < 1e-9

    def test_moment_identities(self, rng):
        for ty in ALL_TYPES:
            spec = action_spec(ty)
            lo, hi = spec.t_range
            rep = spectrum_report(spec, rng.uniform(lo + 0.2, hi - 0.2))
            mean = sum(v * m for v, m in rep.curvatures)
            sq = sum(v * v * m for v, m in rep.curvatures)
            assert abs(mean - rep.mean_curvature) < 1e-9
            assert abs(sq - rep.norm_sq) < 1e-9
            assert rep.s == pytest.approx(rep.t / spec.section_ratio)

    def test_near_singular_guard(self):
        with pytest.raises(SingularOrbitError):
            spectrum_report(action_spec("II"), 1e-8)
        with pytest.raises(SingularOrbitError):
            spectrum_report(action_spec("IV"), np.pi - 1e-7)

    def test_endpoint_allowed_for_type_iii(self):
        rep = spectrum_report(action_spec("III"), np.pi / 2)
        assert rep.orbit_dim == 20


class TestAustereTest:
    def test_zero_spectrum(self):
        assert is_austere([(0.0, 5)])

    def test_balanced(self):
        assert is_austere([(-1.0, 2), (0.0, 3), (1.0, 2)])

    def test_multiplicity_mismatch(self):
        assert not is_austere([(-1.0, 1), (0.0, 3), (1.0, 2)])

    def test_unbalanced_value(self):
        assert not is_austere([(-1.0, 1), (2.0, 1)])


class TestReflections:
    def test_type_iii(self):
        assert verify_reflection(action_spec("III"))

    def test_type_iv(self):
        assert verify_reflection(action_spec("IV"))

    def test_unsupported_types(self):
        for ty in ("II", "V"):
            with pytest.raises(ValueError):
                verify_reflection(action_spec(ty))

    @pytest.mark.parametrize(
        "ty, changes",
        [
            # b = I leaves g(pi/2) unfixed and keeps the normal
            ("IV", {"reflection": lambda g: (g(np.pi / 2) @ SIGMA @ g(-np.pi / 2), 1, np.eye(8))}),
            # x -> g(pi) x^-1 fixes g(pi/2), not g(1)
            ("III", {"minimal_t": 1.0}),
            # fixes g(t_min), but inversion swaps H and K and su3 is not in so4
            ("II", {"reflection": lambda g: (g(2 * action_spec("II").minimal_t), -1, np.eye(8))}),
            # x -> sigma x sigma does not fix g(pi/2)
            ("IV", {"reflection": lambda g: (SIGMA, 1, SIGMA)}),
        ],
        ids=["iv_without_sigma", "iii_moved_base_point", "ii_inversion", "iv_sigma_conjugation"],
    )
    def test_a_wrong_isometry_fails(self, ty, changes, monkeypatch):
        assert not verify_reflection(replaced(monkeypatch, action_spec(ty), **changes))


class TestOrbitSpaceIsometries:
    # Every spec certifies that g(pi) normalises h (so the orbits at t and
    # t + pi have the same shape operators in the fixed frame) and that
    # conjugation by sigma reverses X and xi (so it maps the orbit at t onto
    # the one at -t with the normal reversed).  Checked on the kernel at
    # both parameters, without the classification's folded grid.
    @pytest.mark.parametrize("ty", ALL_TYPES)
    def test_invariants_are_pi_periodic_and_h_is_odd(self, ty, rng):
        spec = action_spec(ty)
        ts = rng.uniform(0.0, np.pi / 2, 20)
        h, norm_sq = curvature_invariants(spec, ts)
        for moved, sign in [(ts + np.pi, 1.0), (-ts, -1.0)]:
            moved_h, moved_norm_sq = curvature_invariants(spec, moved)
            assert moved_h == pytest.approx(sign * h, rel=1e-12)
            assert moved_norm_sq == pytest.approx(norm_sq, rel=1e-12)

    def test_type_iv_spectrum_is_negated_across_the_middle_of_its_window(self, rng):
        spec = action_spec("IV")
        for t in rng.uniform(0.0, np.pi / 2, 20):
            here = spectrum_report(spec, t).curvatures
            mirrored = spectrum_report(spec, np.pi - t).curvatures
            assert [m for _, m in mirrored] == [m for _, m in reversed(here)]
            scale = max(abs(v) for v, _ in here)
            expected = [-v for v, _ in reversed(here)]
            assert [v for v, _ in mirrored] == pytest.approx(expected, rel=0, abs=1e-12 * scale)

    def test_a_geodesic_whose_half_period_moves_h_is_refused(self):
        # su3 as type IV's h passes every other check, but g(pi) does not
        # normalise it.
        message = r"^type IV: g\(pi\) = I \+ 2 X\^2 does not normalise h \(defect 1\.000e\+00\)$"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(action_spec("IV"), h_name="su3")

    def test_a_sigma_that_keeps_the_geodesic_is_refused(self, monkeypatch):
        # sigma = I maps every algebra into itself but fixes X.
        monkeypatch.setattr(orbits, "SIGMA", np.eye(8))
        message = r"^type II: Ad\(sigma\) X = -X fails \(defect 2\.000e\+00\)$"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(action_spec("II"))


class TestSingularOrbits:
    def test_type_iii_totally_geodesic(self):
        spec = action_spec("III")
        frame = orbit_frame(spec, 0.0)
        assert frame.normal.dim == 7
        for n in frame.normal.basis:
            s = shape_operator(spec, 0.0, n, frame=frame)
            assert np.abs(s).max() < 1e-9

    @pytest.mark.parametrize("t", [0.0, np.pi / 2])
    def test_type_ii_not_totally_geodesic(self, t):
        spec = action_spec("II")
        frame = orbit_frame(spec, t)
        worst = max(
            np.abs(shape_operator(spec, t, n, frame=frame)).max()
            for n in frame.normal.basis
        )
        assert worst > 1e-3
