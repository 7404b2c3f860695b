"""Dense 8x8 skew-symmetric matrix kernel for the rotation Lie algebras.

Provides the standard basis G_ij of so(8) acting on octonion coefficient
vectors, the seven 3-parameter V-elements V_i(lambda, mu, nu) whose
traceless members span the derivation algebra g2 (their G terms are derived
from the octonion sign and index tables), the matrix bracket, the invariant
inner product <X, Y> = -tr(XY)/2, a matrix exponential at one parameter
(for Spin(7) lifts, the reflection isometries, demos and tests; orbit
frames use a closed form), orthonormal bases of spans from LAPACK's
singular value decomposition (the numerical rank counts the singular values
above 1e-9 times the largest one), the
distance of matrices off an orthonormal span (:func:`off_span`), orthogonal
complements as the null space of one SVD of the sub's coordinates in the
ambient basis, and symmetric eigenvalues from LAPACK clustered into
multiplicities.

Everything operates on plain numpy arrays and is safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .octonion import INDEX, SIGN

_SQRT2 = np.sqrt(2.0)
#: The numerical rank counts the singular values above this times the largest.
_RANK_RTOL = 1e-9


class NotASubspaceError(ValueError):
    """Raised when a claimed subspace fails its containment check."""


def g_basis(i: int, j: int) -> np.ndarray:
    """The so(8) basis matrix G_ij: sends e_i to e_j, e_j to -e_i, rest to 0.

    ``g_basis(j, i)`` is the negative of ``g_basis(i, j)``.
    """
    if i == j or not (0 <= i <= 7 and 0 <= j <= 7):
        raise ValueError(f"invalid G basis indices ({i}, {j})")
    m = np.zeros((8, 8))
    m[j, i] = 1.0
    m[i, j] = -1.0
    return m


_IMAGINARY_PAIRS = [(a, b) for a in range(1, 8) for b in range(a + 1, 8)]

#: Signed index pairs defining V_i(lambda, mu, nu) as a combination of three
#: G matrices: the entry for axis i lists (sign, (a, b)) for the lambda, mu
#: and nu terms in that order, read off the octonion product as the pairs
#: 0 < a < b with e_a e_b = sign * e_i, in increasing order.
V_TERMS = {
    i: tuple((int(SIGN[p]), p) for p in _IMAGINARY_PAIRS if INDEX[p] == i) for i in range(1, 8)
}


#: Per axis, V_axis(1, 0, 0), V_axis(0, 1, 0) and V_axis(0, 0, 1) flattened.
_V_ROWS = {i: np.stack([s * g_basis(*p).ravel() for s, p in V_TERMS[i]]) for i in V_TERMS}


def v_elem(axis: int, lam, mu, nu) -> np.ndarray:
    """The so(7) element V_axis(lam, mu, nu).

    Members with lam + mu + nu = 0 lie in g2; V_axis(1, 1, 1) is the
    zeta element orthogonal to g2 inside the span of the axis.  For
    coefficient arrays that broadcast, the matrices come last.
    """
    if axis not in V_TERMS:
        raise ValueError(f"V axis must be 1..7, got {axis}")
    coeffs = np.stack(np.broadcast_arrays(lam, mu, nu), axis=-1).astype(float)
    return (coeffs @ _V_ROWS[axis]).reshape(coeffs.shape[:-1] + (8, 8))


def zeta(axis: int) -> np.ndarray:
    """zeta_axis = V_axis(1, 1, 1)."""
    return v_elem(axis, 1.0, 1.0, 1.0)


#: Bracket composition rules among the V subspaces, [V_i(c), V_j(c')] =
#: V_k(...): each rule is (i, j, k, terms) where terms gives, for each of
#: the three output coefficients, a sum of signed products c[p] * c'[q]
#: encoded as (sign, p, q) with 0 = lambda, 1 = mu, 2 = nu.
V_BRACKET_RULES = (
    (1, 4, 5, (((+1, 1, 0),), ((-1, 0, 2), (-1, 2, 1)), ((-1, 0, 1), (-1, 2, 2)))),
    (1, 5, 4, (((-1, 1, 0),), ((+1, 0, 2), (+1, 2, 1)), ((+1, 0, 1), (+1, 2, 2)))),
    (4, 5, 1, (((-1, 1, 2), (-1, 2, 1)), ((+1, 0, 0),), ((-1, 1, 1), (-1, 2, 2)))),
    (2, 4, 6, (((+1, 0, 2), (+1, 2, 0)), ((-1, 1, 1),), ((+1, 0, 0), (+1, 2, 2)))),
    (2, 6, 4, (((-1, 0, 2), (-1, 2, 0)), ((+1, 1, 1),), ((-1, 0, 0), (-1, 2, 2)))),
    (4, 6, 2, (((+1, 0, 2), (+1, 2, 0)), ((-1, 1, 1),), ((+1, 0, 0), (+1, 2, 2)))),
    (3, 4, 7, (((-1, 0, 1), (-1, 2, 0)), ((-1, 0, 0), (-1, 2, 1)), ((+1, 1, 2),))),
    (3, 7, 4, (((+1, 0, 1), (+1, 2, 0)), ((+1, 0, 0), (+1, 2, 1)), ((-1, 1, 2),))),
    (4, 7, 3, (((-1, 0, 1), (-1, 1, 0)), ((+1, 2, 2),), ((-1, 0, 0), (-1, 1, 1)))),
)

#: Brackets against zeta elements that land on multiples of zeta_4, valid
#: when the free coefficients sum to zero.  ``slot`` says which factor is
#: the zeta element; the multiple of zeta_4 is selector . coefficients.
ZETA_BRACKET_RULES = (
    ("zeta_first", 1, 5, (-1, 0, 0)),
    ("zeta_second", 1, 5, (0, -1, 0)),
    ("zeta_first", 2, 6, (0, +1, 0)),
    ("zeta_second", 2, 6, (0, +1, 0)),
    ("zeta_first", 3, 7, (0, 0, -1)),
    ("zeta_second", 3, 7, (0, -1, 0)),
)


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix commutator [X, Y] = XY - YX."""
    return x @ y - y @ x


def inner_g(x: np.ndarray, y: np.ndarray) -> float:
    """Invariant inner product -tr(XY)/2, positive definite on skew matrices."""
    return -0.5 * float(np.einsum("ab,ba->", x, y))


def norm_g(x: np.ndarray) -> float:
    """Norm induced by :func:`inner_g`."""
    return float(np.sqrt(max(inner_g(x, x), 0.0)))


def expm(x: np.ndarray, t: float) -> np.ndarray:
    """exp(tX) at one parameter ``t`` by scaling and squaring of a truncated
    power series (Moler & Van Loan, SIAM Rev. 45 (2003)).

    Accurate to ~1e-13 for ||tX|| up to a few tens; for skew-symmetric X
    the result is orthogonal with determinant 1.
    """
    if np.ndim(t) != 0 or not np.isfinite(t):
        raise ValueError(f"exp(tX) needs one finite parameter, got {t!r}")
    a = float(t) * np.asarray(x, dtype=float)
    nrm = np.sqrt(np.sum(a * a))
    squarings = int(np.ceil(np.log2(nrm / 0.5))) if nrm > 0.5 else 0
    a = a / 2.0**squarings
    out = np.eye(len(a))
    term = out
    for k in range(1, 40):
        term = term @ a / k
        out += term
        if np.sqrt(np.sum(term * term)) < 1e-17:
            break
    for _ in range(squarings):
        out = out @ out
    return out


@dataclass(frozen=True)
class Subspace:
    """An orthonormal basis (under inner_g) together with its dimension."""

    basis: np.ndarray  # shape (dim, 8, 8)
    dim: int


def _to_rows(mats: np.ndarray) -> np.ndarray:
    # Row coordinates in which the Euclidean dot product equals inner_g.
    return mats.reshape(len(mats), 64) / _SQRT2


def _from_rows(rows: np.ndarray) -> np.ndarray:
    return (rows * _SQRT2).reshape(-1, 8, 8)


def ranked_svd(rows: np.ndarray, abs_tol: float = 0.0):
    """Thin SVD ``u, sing, vt`` of the matrix ``rows`` and its numerical
    rank ``dim``: the count of singular values above 1e-9 times the largest
    one and above ``abs_tol``.
    """
    u, sing, vt = np.linalg.svd(rows, full_matrices=False)
    dim = int(np.count_nonzero(sing > np.maximum(_RANK_RTOL * sing[:1], abs_tol)))
    return u, sing, vt, dim


def orthonormalize(generators) -> Subspace:
    """Orthonormal basis under inner_g of the span of ``generators``.

    One LAPACK SVD of the generators' row coordinates gives both the rank
    and the basis (see :func:`ranked_svd`): ``dim`` is the numerical rank
    and the basis is the matching right singular vectors.
    """
    _, _, vt, dim = ranked_svd(_to_rows(np.asarray(list(generators), dtype=float)))
    return Subspace(_from_rows(vt[:dim]), dim)


def span_coords(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The inner products <x, b_i> with the matrices b_i of ``basis``; for
    an orthonormal basis, the coefficients of the projection of ``x`` onto
    its span.  For a stack ``x`` of matrices, the coordinates come last."""
    x = np.asarray(x, dtype=float)
    rows = np.swapaxes(basis, 1, 2).reshape(len(basis), 64)
    return -0.5 * (x.reshape(x.shape[:-2] + (64,)) @ rows.T)


def off_span(mats: np.ndarray, basis: np.ndarray) -> float:
    """Largest norm_g of a matrix of the stack ``mats`` off the span of the
    orthonormal ``basis``; 0 for an empty stack."""
    rows, target = _to_rows(mats), _to_rows(basis)
    return float(np.linalg.norm(rows - rows @ target.T @ target, axis=1).max(initial=0.0))


def complement(sub: Subspace, ambient: Subspace) -> Subspace:
    """Orthogonal complement of ``sub`` inside ``ambient``, both orthonormal:
    the right singular vectors past ``sub.dim`` of one full SVD of the
    coordinates C of ``sub`` in the basis of ``ambient``.  Raises
    :class:`NotASubspaceError` when ``sub`` lies off ``ambient`` by more than
    1e-9 (:func:`off_span`), and ArithmeticError when C has rank below ``sub.dim``.
    """
    worst = off_span(sub.basis, ambient.basis)
    if worst > 1e-9:
        raise NotASubspaceError(
            f"claimed subspace leaves the ambient space (residual {worst:.3e})"
        )
    arows = _to_rows(ambient.basis)
    _, sing, vt = np.linalg.svd(_to_rows(sub.basis) @ arows.T)
    rank = np.count_nonzero(sing > _RANK_RTOL * sing[:1])
    if rank < sub.dim:
        raise ArithmeticError(f"subspace of dimension {sub.dim} has rank {rank}")
    return Subspace(_from_rows(vt[sub.dim:] @ arows), ambient.dim - sub.dim)


def sym_eigen(s: np.ndarray, cluster_tol: float = 1e-6) -> list[tuple[float, int]]:
    """Eigenvalues of a symmetric matrix, clustered with multiplicities.

    The matrix must be symmetric up to 1e-9; its symmetric part goes to
    LAPACK (``numpy.linalg.eigvalsh``), whose eigenvalues come sorted
    ascending.  Adjacent values within ``cluster_tol`` of each other are
    merged into one (mean value, summed multiplicity).
    """
    a = np.asarray(s, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    defect = float(np.abs(a - a.T).max(initial=0.0))
    if defect > 1e-9:
        raise ValueError(f"matrix is not symmetric (defect {defect:.3e})")
    values = np.linalg.eigvalsh(0.5 * (a + a.T))
    n = len(values)
    clusters: list[tuple[float, int]] = []
    start = 0
    for idx in range(1, n + 1):
        if idx == n or values[idx] - values[idx - 1] > cluster_tol:
            group = values[start:idx]
            clusters.append((float(group.mean()), len(group)))
            start = idx
    return clusters
