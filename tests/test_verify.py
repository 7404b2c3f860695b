"""Algebra self-checks catch defects in the algebra they check."""

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
        out[7] += 0.5 * (a[1] * b[2] - a[2] * b[1])
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
    "corrupt", [lambda f: -f[0], lambda f: f[0] + 1e-3 * f[1]], ids=["negated", "mixed"]
)
def test_triality_involutions_reject_a_corrupted_f_basis(monkeypatch, corrupt):
    # F_01 becomes -F_01, or F_01 + 1e-3 F_02.
    corrupted = triality._F_STACK.copy()
    corrupted[0] = corrupt(triality._F_STACK)
    assert verify.check_triality_involutions().passed
    monkeypatch.setattr(triality, "_F_STACK", corrupted)
    assert not verify.check_triality_involutions().passed


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
