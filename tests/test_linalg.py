"""Matrix kernel: G/V bases, brackets, inner product, expm, rank, eigen."""

import numpy as np
import pytest
import scipy.linalg

from g2orbits.linalg import (
    NotASubspaceError,
    Subspace,
    bracket,
    complement,
    expm,
    g_basis,
    inner_g,
    norm_g,
    off_span,
    orthonormalize,
    span_coords,
    sym_eigen,
    v_elem,
    zeta,
)
from g2orbits.octonion import basis_element

from util import random_skew


class TestGBasis:
    def test_action_on_basis(self):
        g12 = g_basis(1, 2)
        assert np.array_equal(g12 @ basis_element(1), basis_element(2))
        assert np.array_equal(g12 @ basis_element(2), -basis_element(1))
        assert np.array_equal(g12 @ basis_element(5), np.zeros(8))

    def test_antisymmetry_in_indices(self):
        assert np.array_equal(g_basis(2, 1), -g_basis(1, 2))

    def test_composition_rule(self):
        # [G_ik, G_kj] = -G_ij
        assert np.array_equal(bracket(g_basis(2, 3), g_basis(3, 7)), -g_basis(2, 7))

    @pytest.mark.parametrize("i,j", [(0, 0), (3, 3), (-1, 2), (0, 8)])
    def test_invalid_indices(self, i, j):
        with pytest.raises(ValueError):
            g_basis(i, j)


class TestVElements:
    def test_v1_lambda_term(self):
        assert np.array_equal(v_elem(1, 1, 0, 0), g_basis(2, 3))

    def test_zeta4(self):
        expected = -g_basis(1, 5) + g_basis(2, 6) - g_basis(3, 7)
        assert np.array_equal(zeta(4), expected)

    def test_zero_coefficients(self):
        assert np.array_equal(v_elem(2, 0, 0, 0), np.zeros((8, 8)))

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            v_elem(0, 1, 1, 1)

    def test_skew_and_so7(self, rng):
        for axis in range(1, 8):
            m = v_elem(axis, *rng.normal(size=3))
            assert np.abs(m + m.T).max() == 0.0
            assert np.abs(m[0]).max() == 0.0 and np.abs(m[:, 0]).max() == 0.0

    def test_v_subspaces_abelian(self, rng):
        for axis in range(1, 8):
            a = v_elem(axis, *rng.normal(size=3))
            b = v_elem(axis, *rng.normal(size=3))
            assert np.abs(bracket(a, b)).max() == 0.0

    def test_broadcast_coefficients_match_scalar_calls(self, rng):
        lam, mu, nu = rng.normal(size=(4, 1)), rng.normal(size=(1, 5)), rng.normal()
        for axis in range(1, 8):
            each = [[v_elem(axis, lam[i, 0], mu[0, j], nu) for j in range(5)] for i in range(4)]
            stacked = v_elem(axis, lam, mu, nu)
            assert stacked.shape == (4, 5, 8, 8)
            assert np.array_equal(stacked, each)


class TestBracketRules:
    def test_specific_example(self):
        lhs = bracket(v_elem(1, 1, 0, 0), v_elem(4, 0, 0, 1))
        assert np.array_equal(lhs, v_elem(5, 0, -1, 0))

    def test_self_bracket(self, rng):
        x = random_skew(rng)
        assert np.abs(bracket(x, x)).max() == 0.0

    def test_zeta_example(self):
        assert np.array_equal(bracket(zeta(1), v_elem(5, 1, 0, -1)), -zeta(4))

    def test_rules_on_sampled_grid(self, rng):
        from g2orbits.linalg import V_BRACKET_RULES

        grid = np.arange(-2.0, 3.0)
        for i, j, k, rule in V_BRACKET_RULES:
            for _ in range(30):
                ci = tuple(rng.choice(grid, size=3))
                cj = tuple(rng.choice(grid, size=3))
                lhs = bracket(v_elem(i, *ci), v_elem(j, *cj))
                out = [sum(s * ci[p] * cj[q] for s, p, q in t) for t in rule]
                assert np.array_equal(lhs, v_elem(k, *out))

    def test_zeta_rules_on_constrained_grid(self, rng):
        from g2orbits.linalg import ZETA_BRACKET_RULES

        for slot, i, j, selector in ZETA_BRACKET_RULES:
            for _ in range(25):
                lam, mu = rng.choice(np.arange(-2.0, 3.0), size=2)
                c = (lam, mu, -lam - mu)
                scalar = float(np.dot(selector, c))
                if slot == "zeta_first":
                    lhs = bracket(zeta(i), v_elem(j, *c))
                else:
                    lhs = bracket(v_elem(i, *c), zeta(j))
                assert np.array_equal(lhs, scalar * zeta(4))


class TestInnerProduct:
    def test_same_axis(self):
        assert inner_g(v_elem(1, 1, 2, 3), v_elem(1, 1, 1, 1)) == pytest.approx(6.0)

    def test_cross_axis_orthogonal(self, rng):
        a = v_elem(1, *rng.normal(size=3))
        b = v_elem(2, *rng.normal(size=3))
        assert inner_g(a, b) == pytest.approx(0.0, abs=1e-14)

    def test_zeta_norm(self):
        assert inner_g(zeta(4), zeta(4)) == pytest.approx(3.0)

    def test_span_coords_of_a_stack_match_each_matrix(self, rng):
        # One matrix product for the stack; it may round differently from
        # the per-matrix inner products, within a few ulps.
        stack, basis = rng.normal(size=(6, 8, 8)), rng.normal(size=(5, 8, 8))
        each = [[inner_g(x, b) for b in basis] for x in stack]
        coords = span_coords(stack, basis)
        assert coords.shape == (6, 5)
        assert np.abs(coords - each).max() <= 1e-13

    def test_ad_invariance(self, rng):
        for _ in range(40):
            x, y, z = (random_skew(rng) for _ in range(3))
            lhs = inner_g(bracket(z, x), y) + inner_g(x, bracket(z, y))
            assert abs(lhs) < 1e-10

    def test_jacobi_identity(self, rng):
        for _ in range(500):
            x, y, z = (random_skew(rng, 0.5) for _ in range(3))
            total = (
                bracket(x, bracket(y, z))
                + bracket(y, bracket(z, x))
                + bracket(z, bracket(x, y))
            )
            assert np.abs(total).max() < 1e-10


class TestExpm:
    def test_zero_parameter(self, rng):
        assert np.array_equal(expm(random_skew(rng), 0.0), np.eye(8))

    def test_plane_rotation(self):
        t = 0.83
        v = expm(g_basis(0, 1), t) @ basis_element(0)
        expected = np.cos(t) * basis_element(0) + np.sin(t) * basis_element(1)
        assert np.abs(v - expected).max() < 1e-14

    def test_orthogonality(self, rng):
        for _ in range(10):
            x = random_skew(rng)
            g = expm(x, rng.uniform(-3, 3))
            assert np.abs(g.T @ g - np.eye(8)).max() < 1e-11
            assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-10)

    def test_one_parameter_group(self, rng):
        x = random_skew(rng)
        s, t = 0.7, -1.9
        assert np.abs(expm(x, s + t) - expm(x, s) @ expm(x, t)).max() < 1e-11

    def test_against_scipy(self, rng):
        for _ in range(10):
            x = random_skew(rng)
            t = rng.uniform(-4, 4)
            assert np.abs(expm(x, t) - scipy.linalg.expm(t * x)).max() < 1e-12

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_non_finite_parameter_is_refused(self, rng, t):
        with pytest.raises(ValueError, match="one finite parameter"):
            expm(random_skew(rng), t)

    def test_array_of_parameters_is_refused(self, rng):
        with pytest.raises(ValueError, match="one finite parameter"):
            expm(random_skew(rng), np.array([0.5, 1.0]))


class TestOrthonormalize:
    def test_dependent_set(self):
        sub = orthonormalize([g_basis(1, 2), 2.0 * g_basis(1, 2)])
        assert sub.dim == 1

    def test_so7_dimension(self):
        gens = [g_basis(i, j) for i in range(1, 8) for j in range(i + 1, 8)]
        assert orthonormalize(gens).dim == 21

    def test_g2_generating_set(self):
        gens = [v_elem(i, 1, -1, 0) for i in range(1, 8)]
        gens += [v_elem(i, 0, 1, -1) for i in range(1, 8)]
        assert orthonormalize(gens).dim == 14

    def test_pairwise_orthonormal(self, rng):
        gens = [random_skew(rng) for _ in range(10)]
        sub = orthonormalize(gens)
        gram = np.array(
            [[inner_g(a, b) for b in sub.basis] for a in sub.basis]
        )
        assert np.abs(gram - np.eye(sub.dim)).max() < 1e-10

    def test_empty(self):
        assert orthonormalize([]).dim == 0


#: Orthonormal basis of so(8) under inner_g.
SO8 = np.array([g_basis(i, j) for i in range(8) for j in range(i + 1, 8)])


def _rows(mats):
    # Flattened coordinates in which the dot product equals inner_g.
    return np.asarray(mats).reshape(len(mats), -1) / np.sqrt(2.0)


def _planted(rng, n, singular_values):
    """n skew generators whose rows have exactly the given nonzero singular
    values: a product of random orthonormal factors and a diagonal."""
    r = len(singular_values)
    left, _ = np.linalg.qr(rng.normal(size=(n, r)))
    right, _ = np.linalg.qr(rng.normal(size=(len(SO8), r)))
    coeffs = (left * singular_values) @ right.T
    return np.einsum("np,pab->nab", coeffs, SO8)


class TestAgainstScipy:
    @pytest.mark.parametrize(
        "n,singular_values,rank",
        [
            (5, [2.0], 1),
            (12, np.geomspace(3.0, 0.1, 7), 7),
            (30, np.geomspace(1.0, 1e-3, 14), 14),
            (40, np.ones(28), 28),
            # one singular value on either side of the 1e-9 relative threshold
            (9, [1.0, 0.5, 0.5e-9], 2),
            (9, [1.0, 0.5, 2e-9], 3),
        ],
    )
    def test_orthonormalize_matches_orth(self, rng, n, singular_values, rank):
        gens = _planted(rng, n, singular_values)
        sub = orthonormalize(gens)
        ref = scipy.linalg.orth(_rows(gens).T, rcond=1e-9)
        assert sub.dim == ref.shape[1] == rank
        # The kept span is determined to eps * s_1 / (s_rank - s_rank+1).
        sv = list(singular_values) + [0.0]
        tol = 64 * np.finfo(float).eps * sv[0] / (sv[rank - 1] - sv[rank])
        basis = _rows(sub.basis)
        assert np.abs(basis.T @ basis - ref @ ref.T).max() < tol

    @pytest.mark.parametrize("ambient_rank,sub_rank", [(28, 6), (20, 1), (14, 13)])
    def test_complement_matches_null_space(self, rng, ambient_rank, sub_rank):
        ambient = orthonormalize(_planted(rng, 30, np.linspace(2.0, 1.0, ambient_rank)))
        mix = rng.normal(size=(sub_rank, ambient.dim))
        sub = orthonormalize(np.einsum("ki,iab->kab", mix, ambient.basis))
        comp = complement(sub, ambient)
        # Complement coordinates c in the ambient basis solve (sub . ambient) c = 0.
        a = _rows(ambient.basis)
        null = a.T @ scipy.linalg.null_space(_rows(sub.basis) @ a.T)
        assert comp.dim == null.shape[1] == ambient_rank - sub_rank
        c = _rows(comp.basis)
        assert np.abs(c.T @ c - null @ null.T).max() < 1e-12


class TestComplement:
    def test_two_plane(self):
        ambient = orthonormalize([g_basis(2, 3), g_basis(4, 5)])
        sub = orthonormalize([g_basis(2, 3)])
        comp = complement(sub, ambient)
        assert comp.dim == 1
        assert abs(abs(inner_g(comp.basis[0], g_basis(4, 5))) - 1.0) < 1e-12

    def test_self_complement_empty(self):
        ambient = orthonormalize([g_basis(1, 2), g_basis(3, 4)])
        assert complement(ambient, ambient).dim == 0

    def test_containment_enforced(self):
        ambient = orthonormalize([g_basis(2, 3)])
        stranger = orthonormalize([g_basis(4, 5)])
        with pytest.raises(NotASubspaceError):
            complement(stranger, ambient)

    def test_dependent_basis_rows_are_refused(self):
        ambient = orthonormalize([g_basis(2, 3), g_basis(4, 5)])
        twice = Subspace(np.stack([g_basis(2, 3), g_basis(2, 3)]), 2)
        with pytest.raises(ArithmeticError, match="rank 1"):
            complement(twice, ambient)

    def test_dims_add(self, rng):
        ambient = orthonormalize([random_skew(rng) for _ in range(9)])
        sub = orthonormalize(list(ambient.basis[:4]))
        comp = complement(sub, ambient)
        assert sub.dim + comp.dim == ambient.dim


class TestOffSpan:
    def test_empty_stack_reads_zero(self):
        assert off_span(np.zeros((0, 8, 8)), orthonormalize([g_basis(2, 3)]).basis) == 0.0

    def test_largest_norm_g_distance_off_the_span(self, rng):
        line = orthonormalize([g_basis(2, 3)]).basis
        mats = np.stack([g_basis(2, 3), 3 * g_basis(2, 3) + 2 * g_basis(4, 5), g_basis(6, 7)])
        assert abs(off_span(mats, line) - 2.0) < 1e-14
        basis = orthonormalize([random_skew(rng) for _ in range(5)]).basis
        mats = np.stack([random_skew(rng) for _ in range(3)])
        residuals = mats - np.einsum("ni,iab->nab", span_coords(mats, basis), basis)
        assert abs(off_span(mats, basis) - max(norm_g(r) for r in residuals)) < 1e-14


class TestSymEigen:
    def test_diagonal_cluster(self):
        out = sym_eigen(np.diag([1.0, 1.0, 2.0]), cluster_tol=1e-6)
        assert out == [(1.0, 2), (2.0, 1)]

    def test_reflection(self):
        out = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert [(round(v, 12), m) for v, m in out] == [(-1.0, 1), (1.0, 1)]

    def test_known_quartic_block(self):
        # 4x4 block with characteristic polynomial l^2 (l^2 + 4 cot(t) l - 4)
        # at t = pi/4, scaled by 1/(2 sqrt 6).
        r3 = np.sqrt(3.0)
        b1 = np.array(
            [
                [0.0, 0.0, 0.0, r3],
                [0.0, 0.0, 0.0, -1.0],
                [0.0, 0.0, 0.0, 0.0],
                [r3, -1.0, 0.0, -4.0],
            ]
        ) / (2 * np.sqrt(6.0))
        out = sym_eigen(b1, cluster_tol=1e-9)
        roots = sorted([0.0, 0.0, -2 - 2 * np.sqrt(2), -2 + 2 * np.sqrt(2)])
        expected = [r / (2 * np.sqrt(6.0)) for r in roots]
        values = [v for v, m in out for _ in range(m)]
        assert len(values) == 4
        assert max(abs(a - b) for a, b in zip(values, expected)) < 1e-12

    def test_against_numpy(self, rng):
        for n in (5, 11, 20):
            a = rng.normal(size=(n, n))
            a = a + a.T
            ours = np.concatenate([[v] * m for v, m in sym_eigen(a, cluster_tol=0.0)])
            assert np.abs(ours - np.linalg.eigvalsh(a)).max() < 1e-10

    def test_multiplicities_total(self, rng):
        a = rng.normal(size=(12, 12))
        a = a + a.T
        assert sum(m for _, m in sym_eigen(a)) == 12

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSubspaceInvariants:
    def test_constructed_values_skew(self, rng):
        sub = orthonormalize([random_skew(rng) for _ in range(6)])
        for b in sub.basis:
            assert np.abs(b + b.T).max() < 1e-12

    def test_norm_g(self):
        assert norm_g(g_basis(1, 2)) == pytest.approx(1.0)
        assert norm_g(v_elem(4, 2, -1, -1)) == pytest.approx(np.sqrt(6.0))
