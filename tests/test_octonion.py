"""Octonion arithmetic: basis contract, algebra laws, orientation search."""

import numpy as np
import pytest

from g2orbits.linalg import V_BRACKET_RULES, V_TERMS, g_basis, v_elem
from g2orbits.octonion import (
    FANO_LINES,
    INDEX,
    MUL_TENSOR,
    SIGN,
    as_octonion,
    basis_element,
    cayley_tables,
    oct_conj,
    oct_inner,
    oct_mul,
    oct_norm,
)

E = [basis_element(i) for i in range(8)]

#: The V-element terms as first entered by hand: for axis i, (sign, (a, b))
#: for the lambda, mu and nu terms.  The oracle of the orientation search,
#: independent of their derivation in g2orbits.linalg.
SHIPPED_V_TERMS = {
    1: ((+1, (2, 3)), (+1, (4, 5)), (+1, (6, 7))),
    2: ((-1, (1, 3)), (-1, (4, 6)), (+1, (5, 7))),
    3: ((+1, (1, 2)), (+1, (4, 7)), (+1, (5, 6))),
    4: ((-1, (1, 5)), (+1, (2, 6)), (-1, (3, 7))),
    5: ((+1, (1, 4)), (-1, (2, 7)), (-1, (3, 6))),
    6: ((-1, (1, 7)), (-1, (2, 4)), (+1, (3, 5))),
    7: ((+1, (1, 6)), (+1, (2, 5)), (+1, (3, 4))),
}


class TestBasisContract:
    def test_unit_element(self, rng):
        x = rng.normal(size=8)
        assert np.array_equal(oct_mul(E[0], x), x)
        assert np.array_equal(oct_mul(x, E[0]), x)

    def test_imaginary_squares(self):
        for i in range(1, 8):
            assert np.array_equal(oct_mul(E[i], E[i]), -E[0])

    def test_anticommutativity(self):
        for i in range(1, 8):
            for j in range(1, 8):
                if i != j:
                    assert np.array_equal(oct_mul(E[i], E[j]), -oct_mul(E[j], E[i]))

    def test_products_follow_tables(self):
        for i in range(8):
            for j in range(8):
                assert np.array_equal(oct_mul(E[i], E[j]), SIGN[i, j] * E[INDEX[i, j]])

    @pytest.mark.parametrize(
        "i,j,k",
        [(1, 2, 3), (2, 3, 1), (3, 1, 2), (1, 4, 5), (2, 6, 4), (3, 5, 6), (2, 5, 7)],
    )
    def test_oriented_products(self, i, j, k):
        assert np.array_equal(oct_mul(E[i], E[j]), E[k])

    def test_lines_partition_pairs(self):
        pairs = sorted(
            tuple(sorted(p))
            for line in FANO_LINES
            for p in ((line[0], line[1]), (line[1], line[2]), (line[0], line[2]))
        )
        assert pairs == [(i, j) for i in range(1, 8) for j in range(i + 1, 8)]


class TestConjugationAndInner:
    def test_conj_basis(self):
        assert np.array_equal(oct_conj(E[0]), E[0])
        assert np.array_equal(oct_conj(E[3]), -E[3])

    def test_conj_linear(self):
        assert np.array_equal(oct_conj(2 * E[0] + 3 * E[4]), 2 * E[0] - 3 * E[4])

    def test_conj_involution(self, rng):
        x = rng.normal(size=8)
        assert np.array_equal(oct_conj(oct_conj(x)), x)

    def test_inner_orthonormal_basis(self):
        for i in range(8):
            for j in range(8):
                assert oct_inner(E[i], E[j]) == (1.0 if i == j else 0.0)

    def test_inner_equals_norm_sq(self, rng):
        x = rng.normal(size=8)
        assert oct_inner(x, x) == pytest.approx(oct_norm(x) ** 2, rel=1e-14)

    def test_inner_algebraic_identity(self, rng):
        for _ in range(50):
            x, y = rng.normal(size=8), rng.normal(size=8)
            algebraic = 0.5 * (oct_mul(oct_conj(x), y) + oct_mul(oct_conj(y), x))
            assert np.abs(algebraic - oct_inner(x, y) * E[0]).max() < 1e-12

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            as_octonion([1.0, 2.0])
        with pytest.raises(ValueError):
            oct_mul([1.0, 2.0], E[1])


class TestAlgebraLaws:
    def test_composition_law(self, rng):
        for _ in range(1000):
            x, y = rng.normal(size=8), rng.normal(size=8)
            lhs = oct_norm(oct_mul(x, y))
            rhs = oct_norm(x) * oct_norm(y)
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_stacked_product_matches_each_pair(self, rng):
        pairs = rng.normal(size=(2000, 2, 8))
        each = np.stack([oct_mul(a, b) for a, b in pairs])
        assert np.array_equal(each, [np.einsum("ijk,i,j->k", MUL_TENSOR, a, b) for a, b in pairs])
        assert np.array_equal(oct_mul(pairs[:, 0], pairs[:, 1]), each)
        # one octonion against a stack broadcasts
        x, ys = pairs[0, 0], pairs[:3, 1]
        assert np.array_equal(oct_mul(x, ys), [oct_mul(x, y) for y in ys])

    def test_integer_stacks_match_the_table_exactly(self, rng):
        # Integer coefficients keep every product exact in floating point.
        a, b = rng.integers(-9, 10, size=(2, 40, 8))
        expected = np.zeros((40, 40, 8), dtype=int)
        for i in range(8):
            for j in range(8):
                expected[..., INDEX[i, j]] += SIGN[i, j] * np.outer(a[:, i], b[:, j])
        assert np.array_equal(oct_mul(a[:, None], b[None]), expected)
        assert np.array_equal(oct_mul(a, b), np.diagonal(expected).T)

    def test_alternativity(self, rng):
        for _ in range(200):
            x, y = rng.normal(size=8), rng.normal(size=8)
            xx = oct_mul(x, x)
            assert np.abs(oct_mul(x, oct_mul(x, y)) - oct_mul(xx, y)).max() < 1e-12
            assert np.abs(oct_mul(oct_mul(y, x), x) - oct_mul(y, xx)).max() < 1e-12

    def test_non_associativity_witness(self):
        found = any(
            not np.array_equal(
                oct_mul(oct_mul(E[i], E[j]), E[k]),
                oct_mul(E[i], oct_mul(E[j], E[k])),
            )
            for i in range(1, 8)
            for j in range(1, 8)
            for k in range(1, 8)
        )
        assert found


def _v_terms_from_table(sign, index):
    """Signed G-pair data induced on each V axis by a multiplication table.

    Axis i collects the pairs (j, k) with e_j e_k = +/- e_i, sorted, with
    the sign of the product; returns None when the table is degenerate.
    """
    terms = {}
    for axis in range(1, 8):
        pairs = sorted(
            (j, k)
            for j in range(1, 8)
            for k in range(j + 1, 8)
            if index[j, k] == axis
        )
        if len(pairs) != 3:
            return None
        terms[axis] = tuple((int(sign[j, k]), (j, k)) for (j, k) in pairs)
    return terms


def _v_matrix(terms, axis, coeffs):
    m = np.zeros((8, 8))
    for c, (s, (a, b)) in zip(coeffs, terms[axis]):
        m += c * s * g_basis(a, b)
    return m


def _bracket_rules_hold(terms):
    basis_coeffs = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    for i, j, k, rule in V_BRACKET_RULES:
        for ci in basis_coeffs:
            for cj in basis_coeffs:
                vi, vj = _v_matrix(terms, i, ci), _v_matrix(terms, j, cj)
                out = [sum(s * ci[p] * cj[q] for s, p, q in t) for t in rule]
                if not np.array_equal(vi @ vj - vj @ vi, _v_matrix(terms, k, out)):
                    return False
    return True


class TestOrientationSearch:
    """Independent fixing of the line orientations.

    Search all 2^7 orientation assignments of the seven lines; for each,
    derive the V-element data the table induces and keep the assignments
    under which all nine bracket composition rules hold exactly.  The
    shipped table must survive, and it must be the unique survivor whose
    induced V-elements coincide with SHIPPED_V_TERMS.
    """

    def _survivors(self):
        out = []
        for bits in range(128):
            lines = tuple(
                (i, j, k) if not (bits >> n) & 1 else (i, k, j)
                for n, (i, j, k) in enumerate(FANO_LINES)
            )
            sign, index = cayley_tables(lines)
            terms = _v_terms_from_table(sign, index)
            if terms is not None and _bracket_rules_hold(terms):
                out.append((lines, sign, index, terms))
        return out

    def test_shipped_orientation_survives(self):
        survivors = self._survivors()
        assert FANO_LINES in [lines for lines, *_ in survivors]

    def test_survivors_agree_on_e1_e4(self):
        # e1 e4 = +e5 in every surviving orientation
        for _, sign, index, _ in self._survivors():
            assert index[1, 4] == 5 and sign[1, 4] == 1

    def test_unique_survivor_matches_shipped_v_terms(self):
        survivors = self._survivors()
        matching = [
            lines
            for lines, _, _, terms in survivors
            if terms == SHIPPED_V_TERMS
        ]
        assert matching == [FANO_LINES]

    def test_derived_v_terms_match_shipped_table(self):
        assert V_TERMS == SHIPPED_V_TERMS

    def test_v_elem_matches_shipped_terms(self, rng):
        coeffs = rng.normal(size=(10, 3))
        for axis, terms in SHIPPED_V_TERMS.items():
            oracle = [
                sum(c * sgn * g_basis(a, b) for c, (sgn, (a, b)) in zip(row, terms))
                for row in coeffs
            ]
            assert np.array_equal(v_elem(axis, *coeffs.T), oracle)
            assert np.array_equal(v_elem(axis, *coeffs[0]), oracle[0])
