"""Algebra self-checks catch defects in the algebra they check."""

import numpy as np

from g2orbits import octonion, verify


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
