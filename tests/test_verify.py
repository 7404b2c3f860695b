"""Algebra self-checks catch defects in the algebra they check."""

import re

import numpy as np
import pytest

from g2orbits import linalg, octonion, triality, verify


def test_cayley_contract_rejects_a_mixed_product(monkeypatch):
    # e1 e2 = e3 + e7 / 2 = -e2 e1: anticommutative, with a unit-size
    # largest coefficient, but not a signed basis element.
    exact = octonion.oct_mul

    def corrupted(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        out = exact(a, b)
        out[..., 7] += 0.5 * (a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1])
        return out

    monkeypatch.setattr(octonion, "oct_mul", corrupted)
    assert np.array_equal(octonion.oct_mul(np.eye(8)[1], np.eye(8)[2]), [0, 0, 0, 1, 0, 0, 0, 0.5])
    assert not verify.check_cayley_contract().passed


def test_v_bracket_rules_reject_a_flipped_sign(monkeypatch):
    (i, j, k, terms), *rest = linalg.V_BRACKET_RULES
    (sgn, p, q), = terms[0]
    flipped = ((i, j, k, (((-sgn, p, q),),) + terms[1:]),) + tuple(rest)
    assert verify.check_v_bracket_rules().passed
    monkeypatch.setattr(linalg, "V_BRACKET_RULES", flipped)
    assert not verify.check_v_bracket_rules().passed


def test_zeta_bracket_rules_reject_a_wrong_selector(monkeypatch):
    (slot, i, j, selector), *rest = linalg.ZETA_BRACKET_RULES
    assert selector == (-1, 0, 0)
    wrong = ((slot, i, j, (0, -1, 0)),) + tuple(rest)
    assert verify.check_zeta_bracket_rules().passed
    monkeypatch.setattr(linalg, "ZETA_BRACKET_RULES", wrong)
    assert not verify.check_zeta_bracket_rules().passed


@pytest.mark.parametrize(
    "expected, message",
    [(2, "broken: bracket closure defect 1.000e+00"), (3, "broken: rank 2, expected 3")],
    ids=["not_closed", "rank_too_low"],
)
def test_subalgebras_reject_a_defective_entry(monkeypatch, expected, message):
    # [G_01, G_12] = G_02 lies outside the span of G_01 and G_12.
    generators = [linalg.g_basis(0, 1), linalg.g_basis(1, 2)]
    assert verify.check_subalgebras().passed
    monkeypatch.setitem(triality.SUBALGEBRAS, "broken", (expected, generators))
    result = verify.check_subalgebras()
    assert not result.passed
    assert result.detail.startswith(message + ", g2:14 (")
    assert result.detail.count(":") == 7


@pytest.mark.parametrize(
    "corrupt", [lambda f: -f[0], lambda f: f[0] + 1e-3 * f[1]], ids=["negated", "mixed"]
)
def test_triality_involutions_reject_a_corrupted_f_basis(monkeypatch, corrupt):
    # F_01 becomes -F_01, or F_01 + 1e-3 F_02.
    corrupted = triality._F_STACK.copy()
    corrupted[0] = corrupt(triality._F_STACK)
    assert verify.check_triality_involutions().passed
    monkeypatch.setattr(triality, "_F_STACK", corrupted)
    assert not verify.check_triality_involutions().passed


def test_triality_involutions_reject_an_involution_that_breaks_brackets(monkeypatch):
    # x -> -(conj x conj) squares to the identity, but [-aX, -aY] = a[X, Y].
    def negated_alpha(x):
        return -(triality._CONJ @ x @ triality._CONJ)

    stack = triality._G_STACK
    assert np.array_equal(negated_alpha(negated_alpha(stack)), stack)
    monkeypatch.setattr(triality, "alpha", negated_alpha)
    result = verify.check_triality_involutions()
    assert not result.passed
    # The square and the images are exact; the defect 2 is [G_a, G_b] against -[G_a, G_b].
    assert result.detail.startswith("worst identity defect 2.00e+00 ")
    assert "dim Fix(alpha) = 7," in result.detail


def test_triality_detail_is_exact_at_seed_0():
    result = verify.run_all(0)[4]
    assert result.detail == (
        "worst identity defect 0.00e+00 on 28 basis matrices and 378 pairs, "
        "dim Fix(alpha) = 21, dim Fix(beta) & Fix(gamma) = 14"
    )


@pytest.mark.parametrize(
    "mirrored, message",
    [
        (False, "structure constants: entry (0, 6, 12) breaks antisymmetry in (a, b)"),
        (True, "structure constants: [G_01, G_07] rebuilt with defect 2.000e+00"),
    ],
    ids=["one_entry", "mirrored_pair"],
)
def test_structure_constant_certificate_rejects_a_flipped_sign(mirrored, message):
    # [G_01, G_07] = G_17; in the order of G_PAIRS these are G_0, G_6 and G_12.
    table = triality.STRUCTURE_CONSTANTS.copy()
    assert table[0, 6, 12] == 1.0
    table[0, 6, 12] = -1.0
    if mirrored:
        table[6, 0, 12] = 1.0
    triality.certify_structure_constants(triality.STRUCTURE_CONSTANTS)
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        triality.certify_structure_constants(table)


def test_stacked_checks_bracket_in_one_call(monkeypatch):
    # The triality check reads brackets from the structure constants; the V
    # and zeta checks bracket every rule in one stack.
    calls = []
    exact = linalg.bracket

    def spy(x, y):
        calls.append(np.broadcast_shapes(np.shape(x), np.shape(y)))
        return exact(x, y)

    monkeypatch.setattr(linalg, "bracket", spy)
    shapes = {}
    for check in (
        verify.check_triality_involutions,
        verify.check_v_bracket_rules,
        verify.check_zeta_bracket_rules,
    ):
        calls.clear()
        assert check().passed
        shapes[check.__name__] = list(calls)
    assert shapes == {
        "check_triality_involutions": [],
        "check_v_bracket_rules": [(9, 3, 3, 8, 8)],
        "check_zeta_bracket_rules": [(6, 2, 8, 8)],
    }


@pytest.mark.parametrize("phi", ["alpha", "beta", "gamma"])
def test_involutions_on_a_stack_match_each_matrix(phi):
    phi = getattr(triality, phi)
    stack = triality._G_STACK
    assert np.array_equal(phi(stack), np.stack([phi(g) for g in stack]))


def test_only_the_composition_law_depends_on_the_seed():
    first, second = verify.run_all(0), verify.run_all(1)
    differ = [a.name for a, b in zip(first, second) if a != b]
    assert differ == ["composition law |xy| = |x||y|"]
    assert all(check.passed for check in first + second)


def test_composition_law_reports_the_relative_defect(monkeypatch):
    # |ab| off by a factor 1 + 1e-9: the squared norms differ by 2e-9
    # relative, and the check reports half of that.
    exact = octonion.oct_mul
    monkeypatch.setattr(octonion, "oct_mul", lambda a, b: (1.0 + 1e-9) * exact(a, b))
    result = verify.check_composition_law(np.random.default_rng(0))
    assert not result.passed
    assert result.detail == "1000 random pairs, worst relative defect 1.00e-09"
