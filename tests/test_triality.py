"""Triality maps, named subalgebras, spin lifts, RP7 level function."""

import numpy as np
import pytest

from g2orbits.linalg import (
    Subspace,
    bracket,
    expm,
    g_basis,
    inner_g,
    norm_g,
    orthonormalize,
    v_elem,
    zeta,
)
from g2orbits.octonion import basis_element, oct_mul
from g2orbits.triality import (
    G_PAIRS,
    SpinElement,
    alpha,
    beta,
    bracket_closure_defect,
    f_basis,
    gamma,
    is_automorphism,
    named_subalgebra,
    rp7_invariant,
    spin_lift_exp,
)

from util import random_lifted_g2, random_skew


class TestFBasis:
    def test_table_rows(self):
        assert np.array_equal(
            2 * f_basis(2, 3),
            g_basis(0, 1) + g_basis(2, 3) - g_basis(4, 5) - g_basis(6, 7),
        )
        assert np.array_equal(
            2 * f_basis(4, 5),
            g_basis(0, 1) - g_basis(2, 3) + g_basis(4, 5) - g_basis(6, 7),
        )

    def test_every_row_is_a_product_of_left_multiplications(self):
        # 2 F_ij e_k = e_i (e_j e_k), exactly, for all 28 pairs i < j.
        for i, j in G_PAIRS:
            for k in range(8):
                e_i, e_j, e_k = basis_element(i), basis_element(j), basis_element(k)
                assert np.array_equal(
                    2 * f_basis(i, j) @ e_k, oct_mul(e_i, oct_mul(e_j, e_k))
                ), (i, j, k)

    def test_antisymmetric_in_indices(self):
        assert np.array_equal(f_basis(5, 2), -f_basis(2, 5))

    def test_full_rank(self):
        fs = [f_basis(i, j) for i, j in G_PAIRS]
        assert orthonormalize(fs).dim == 28

    def test_invalid(self):
        with pytest.raises(ValueError):
            f_basis(3, 3)


class TestTrialityMaps:
    def test_alpha_fixes_so7_basis(self):
        assert np.array_equal(alpha(g_basis(2, 3)), g_basis(2, 3))

    def test_alpha_negates_mixed(self):
        assert np.array_equal(alpha(g_basis(0, 1)), -g_basis(0, 1))

    def test_involutions(self, rng):
        x = random_skew(rng)
        assert np.abs(alpha(alpha(x)) - x).max() < 1e-13
        assert np.abs(beta(beta(x)) - x).max() < 1e-13

    def test_beta_on_basis_roundtrip(self):
        g04 = g_basis(0, 4)
        assert np.abs(beta(beta(g04)) - g04).max() < 1e-13

    def test_gamma_composition(self, rng):
        x = random_skew(rng)
        assert np.abs(gamma(x) - beta(alpha(x))).max() == 0.0

    def test_bracket_automorphisms(self, rng):
        for _ in range(25):
            x, y = random_skew(rng), random_skew(rng)
            for phi in (alpha, beta, gamma):
                defect = np.abs(
                    phi(bracket(x, y)) - bracket(phi(x), phi(y))
                ).max()
                assert defect < 1e-10

    def test_so7_iff_beta_equals_gamma(self, rng):
        x = v_elem(4, *rng.normal(size=3))  # alpha-fixed
        assert np.abs(alpha(x) - x).max() == 0.0
        assert np.abs(beta(x) - gamma(x)).max() < 1e-13
        y = g_basis(0, 3)  # not alpha-fixed
        assert np.abs(beta(y) - gamma(y)).max() > 0.1


class TestNamedSubalgebras:
    @pytest.mark.parametrize(
        "name,dim",
        [("g2", 14), ("su3", 8), ("so4_g2", 6), ("u3", 9), ("so3_so4", 9), ("so7", 21)],
    )
    def test_dimensions(self, name, dim):
        assert named_subalgebra(name).dim == dim

    @pytest.mark.parametrize(
        "name", ["g2", "su3", "so4_g2", "u3", "so3_so4", "so7"]
    )
    def test_bracket_closure(self, name):
        sub = named_subalgebra(name)
        # Reference: each basis bracket minus its projection, pair by pair.
        pairwise = max(
            norm_g(b - sum(inner_g(b, e) * e for e in sub.basis))
            for k, x in enumerate(sub.basis)
            for b in (bracket(x, y) for y in sub.basis[k + 1:])
        )
        defect = bracket_closure_defect(sub)
        assert defect < 1e-9
        assert abs(defect - pairwise) <= 4 * np.finfo(float).eps

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_subalgebra("e8")

    def test_closure_defect_of_a_non_closed_span(self):
        # [G01, G12] = -G02 is a unit vector orthogonal to both generators.
        span = Subspace(np.stack([g_basis(0, 1), g_basis(1, 2)]), 2)
        assert bracket_closure_defect(span) == 1.0

    def test_g2_fixed_by_beta_gamma(self):
        for b in named_subalgebra("g2").basis:
            assert np.abs(beta(b) - b).max() < 1e-12
            assert np.abs(gamma(b) - b).max() < 1e-12

    def test_g2_inside_so7(self):
        for b in named_subalgebra("g2").basis:
            assert np.abs(alpha(b) - b).max() < 1e-12
            assert np.abs(b[0]).max() == 0.0 and np.abs(b[:, 0]).max() == 0.0

    def test_su3_inside_u3_codimension_one(self):
        su3 = named_subalgebra("su3")
        u3 = named_subalgebra("u3")
        u3_rows = u3.basis.reshape(u3.dim, -1)
        for b in su3.basis:
            row = b.reshape(-1)
            residual = row - u3_rows.T @ (u3_rows @ row) / 2.0
            assert np.linalg.norm(residual) < 1e-10
        assert u3.dim - su3.dim == 1


class TestAutomorphismTest:
    def test_identity(self):
        assert is_automorphism(np.eye(8))

    def test_g2_exponentials(self, rng):
        g2 = named_subalgebra("g2")
        for _ in range(5):
            gen = np.einsum("i,iab->ab", rng.normal(size=14), g2.basis)
            assert is_automorphism(expm(gen, rng.uniform(-2, 2)), 1e-9)

    def test_unit_rotation_is_not(self):
        assert not is_automorphism(expm(g_basis(0, 1), 1.0), 1e-9)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError):
            is_automorphism(2.0 * np.eye(8))


class TestSpinLifts:
    def test_so7_membership_enforced(self):
        with pytest.raises(ValueError):
            spin_lift_exp(g_basis(0, 1), 0.5)

    @pytest.mark.parametrize(
        "gen_args,angle",
        [((1, 0, 1), 1.0), ((1, 0, 0), 0.5), ((0, 1, 1), 1.0)],
    )
    def test_section_curves(self, rng, gen_args, angle):
        gen = v_elem(4, *gen_args)
        for t in rng.uniform(-np.pi, np.pi, size=20):
            v = spin_lift_exp(gen, t).g2 @ basis_element(0)
            expected = np.zeros(8)
            expected[0] = np.cos(angle * t)
            expected[4] = np.sin(angle * t)
            assert np.abs(v - expected).max() < 1e-10

    def test_zeta4_section_curve(self, rng):
        for s in rng.uniform(-np.pi, np.pi, size=20):
            v = spin_lift_exp(zeta(4), s).g2 @ basis_element(0)
            expected = np.zeros(8)
            expected[0] = np.cos(1.5 * s)
            expected[4] = np.sin(1.5 * s)
            assert np.abs(v - expected).max() < 1e-10

    def test_multiplication_compatibility(self, rng):
        for _ in range(15):
            gen = sum(
                rng.normal() * v_elem(axis, *rng.normal(size=3))
                for axis in range(1, 8)
            )
            gen = gen / norm_g(gen)
            el = spin_lift_exp(gen, rng.uniform(-2, 2))
            a, b = rng.normal(size=8), rng.normal(size=8)
            lhs = oct_mul(el.g1 @ a, el.g2 @ b)
            rhs = el.g2 @ oct_mul(a, b)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_g2_lift_components_agree(self, rng):
        g2 = named_subalgebra("g2")
        gen = np.einsum("i,iab->ab", rng.normal(size=14), g2.basis)
        el = spin_lift_exp(gen, 0.8)
        assert np.abs(el.g1 - el.g2).max() < 1e-11

    def test_compose_and_inverse(self, rng):
        p = random_lifted_g2(rng)
        q = random_lifted_g2(rng)
        prod = p @ q
        assert np.abs(prod.g1 - p.g1 @ q.g1).max() == 0.0
        back = prod @ prod.inverse()
        assert np.abs(back.g1 - np.eye(8)).max() < 1e-12
        a, b = rng.normal(size=8), rng.normal(size=8)
        lhs = oct_mul(prod.g1 @ a, prod.g2 @ b)
        assert np.abs(lhs - prod.g2 @ oct_mul(a, b)).max() < 1e-10


class TestRP7Invariant:
    def test_identity_element(self):
        assert rp7_invariant(SpinElement.identity()) == pytest.approx(1.0)

    def test_quarter_turn_vanishes(self):
        el = spin_lift_exp(v_elem(4, 1, 0, 1), np.pi / 2)
        assert rp7_invariant(el) == pytest.approx(0.0, abs=1e-12)

    def test_orbit_invariance(self, rng):
        gen = v_elem(4, 1, 0, 1)
        for _ in range(1000):
            t = rng.uniform(0.0, np.pi / 2)
            p = random_lifted_g2(rng) @ spin_lift_exp(gen, t) @ random_lifted_g2(rng)
            assert abs(rp7_invariant(p) - abs(np.cos(t))) < 1e-10
