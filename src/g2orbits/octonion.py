"""Octonion arithmetic over the standard basis e0, ..., e7.

Multiplication is generated by seven oriented index triples: each triple
(i, j, k) declares e_i e_j = e_k, e_j e_k = e_i and e_k e_i = e_j, together
with e_i^2 = -1 for 1 <= i <= 7, anticommutativity of distinct imaginary
units, and e0 as the two-sided unit.  The seven unordered triples partition
the 21 index pairs of {1, ..., 7}; the cyclic orientations in FANO_LINES
are the ones under which the V-element bracket rules of
:mod:`g2orbits.linalg` hold exactly (the orientation search in the test
suite singles them out).  Every other table of the algebra layer is read
off the sign and index tables SIGN and INDEX: the structure tensor
MUL_TENSOR here, the V-element terms in :mod:`g2orbits.linalg` and the
left multiplications in :mod:`g2orbits.triality`.

Octonions are plain numpy arrays of shape (8,); index i holds the
coefficient of e_i.  All functions are pure.
"""

from __future__ import annotations

import numpy as np

#: Oriented multiplication triples: (i, j, k) means e_i e_j = e_k (cyclically).
FANO_LINES = (
    (1, 2, 3),
    (1, 4, 5),
    (1, 6, 7),
    (2, 6, 4),
    (2, 5, 7),
    (3, 4, 7),
    (3, 5, 6),
)


def cayley_tables(lines=FANO_LINES):
    """Sign and index tables of the basis products.

    Returns integer arrays ``(sign, index)`` of shape (8, 8) with
    e_i e_j = sign[i, j] * e_{index[i, j]}.
    """
    sign = np.zeros((8, 8), dtype=int)
    index = np.zeros((8, 8), dtype=int)
    sign[0] = sign[:, 0] = 1
    index[0] = index[:, 0] = np.arange(8)
    sign[np.arange(1, 8), np.arange(1, 8)] = -1
    for i, j, k in lines:
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            sign[a, b], index[a, b] = 1, c
            sign[b, a], index[b, a] = -1, c
    return sign, index


SIGN, INDEX = cayley_tables()

#: Structure tensor: (xy)_k = sum_{i,j} MUL_TENSOR[i, j, k] x_i y_j, that is
#: MUL_TENSOR[i, j, INDEX[i, j]] = SIGN[i, j] and zero elsewhere.
MUL_TENSOR = np.zeros((8, 8, 8))
MUL_TENSOR[np.arange(8)[:, None], np.arange(8), INDEX] = SIGN

_CONJ_SIGNS = np.array([1.0, -1, -1, -1, -1, -1, -1, -1])


def as_octonion(coeffs) -> np.ndarray:
    """Coerce ``coeffs`` to a float coefficient vector of shape (8,)."""
    x = np.asarray(coeffs, dtype=float)
    if x.shape != (8,):
        raise ValueError(f"an octonion needs 8 coefficients, got shape {x.shape}")
    return x


def basis_element(i: int) -> np.ndarray:
    """The basis octonion e_i."""
    if not 0 <= i <= 7:
        raise ValueError(f"basis index out of range: {i}")
    e = np.zeros(8)
    e[i] = 1.0
    return e


def oct_mul(a, b) -> np.ndarray:
    """Octonion product ab, the bilinear extension of the basis table; ``a``
    and ``b`` may also be stacks (..., 8) of octonions that broadcast."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.einsum("ijk,...i,...j->...k", MUL_TENSOR, a, b)


def oct_conj(a) -> np.ndarray:
    """Conjugate: fixes the e0 coefficient and negates the other seven."""
    return _CONJ_SIGNS * as_octonion(a)


def oct_inner(a, b) -> float:
    """Euclidean inner product of coefficient vectors.

    Coincides with the algebraic expression (conj(a) b + conj(b) a) / 2,
    which is a real multiple of e0.
    """
    return float(np.dot(as_octonion(a), as_octonion(b)))


def oct_norm(a) -> float:
    """|a| = sqrt((a, a))."""
    return float(np.linalg.norm(as_octonion(a)))

