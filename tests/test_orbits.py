"""Orbit frames, shape operators, spectra and the reflection isometries."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from g2orbits.actions import ACTIONS, ActionRecord
from g2orbits.classify import principal_interval
from g2orbits.linalg import g_basis, inner_g, v_elem, zeta
from g2orbits.orbits import (
    FRAME_BLOCK,
    SingularOrbitError,
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

from util import lift_generators, shape_oracle

ALL_TYPES = ("II", "III", "IV", "V")


class TestActionSpecs:
    def test_einstein_constants(self):
        assert action_spec("II").einstein_constant == 8.0
        for ty in ("III", "IV", "V"):
            assert action_spec(ty).einstein_constant == 10.0

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

    def test_spec_carries_its_record(self):
        for ty in ALL_TYPES:
            spec = action_spec(ty)
            for field in dataclasses.fields(ActionRecord):
                assert getattr(spec, field.name) is getattr(ACTIONS[ty], field.name), field.name


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
            raw = shape_oracle(spec, frame.x, frame.tangent.basis, n)
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

            gens = lift_generators(spec, frame.x)
            columns = gens.reshape(len(gens), -1).T
            _, sv, vt = np.linalg.svd(columns, full_matrices=True)
            null = vt[np.sum(sv > 1e-9 * sv[0]):]
            assert len(null) > 0

            vectors = frame.tangent.basis
            coeffs, *_ = np.linalg.lstsq(
                columns, vectors.reshape(len(vectors), -1).T, rcond=None
            )
            coeffs += null.T @ rng.normal(size=(len(null), len(vectors)))
            perturbed = shape_oracle(spec, frame.x, vectors, n, coeffs=coeffs)
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
        rotated_shape = shape_oracle(spec, frame.x, rotated, n)
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
            raw = shape_oracle(spec, frame.x, frame.tangent.basis, n)
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

    def test_singular_parameter_in_array(self):
        spec = action_spec("II")
        ts = np.array([0.3, 0.6, 0.0, 0.9])
        with pytest.raises(SingularOrbitError):
            shape_norm_sq(spec, ts)
        # past the principal guard, the rank check refuses the singular orbit
        unguarded = dataclasses.replace(spec, singular_ts=(-1.0,))
        with pytest.raises(SingularOrbitError) as err:
            mean_curvature(unguarded, ts)
        assert err.value.codimension == 4
        # a normal that is not orthogonal to the tangent space is refused
        tilted = dataclasses.replace(spec, unit_section=np.eye(spec.ambient.dim)[0])
        with pytest.raises(SingularOrbitError):
            mean_curvature(tilted, ts[:2])

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
