"""Dense 8x8 skew-symmetric matrix kernel for the rotation Lie algebras.

Provides the standard basis G_ij of so(8) acting on octonion coefficient
vectors, the seven 3-parameter V-elements V_i(lambda, mu, nu) whose
traceless members span the derivation algebra g2, the matrix bracket, the
invariant inner product <X, Y> = -tr(XY)/2, a matrix exponential at one
parameter or a whole array of them, orthonormal bases of spans from
LAPACK's singular value decomposition (the numerical rank counts the
singular values above a tolerance relative to the largest one, also for a
stack of matrices), orthogonal complements, and symmetric eigenvalues from
LAPACK clustered into multiplicities.

Everything operates on plain numpy arrays and is safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SQRT2 = np.sqrt(2.0)


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


#: Signed index pairs defining V_i(lambda, mu, nu) as a combination of three
#: G matrices: the entry for axis i lists (sign, (a, b)) for the lambda, mu
#: and nu terms in that order.
V_TERMS = {
    1: ((+1, (2, 3)), (+1, (4, 5)), (+1, (6, 7))),
    2: ((-1, (1, 3)), (-1, (4, 6)), (+1, (5, 7))),
    3: ((+1, (1, 2)), (+1, (4, 7)), (+1, (5, 6))),
    4: ((-1, (1, 5)), (+1, (2, 6)), (-1, (3, 7))),
    5: ((+1, (1, 4)), (-1, (2, 7)), (-1, (3, 6))),
    6: ((-1, (1, 7)), (-1, (2, 4)), (+1, (3, 5))),
    7: ((+1, (1, 6)), (+1, (2, 5)), (+1, (3, 4))),
}


def v_elem(axis: int, lam: float, mu: float, nu: float) -> np.ndarray:
    """The so(7) element V_axis(lam, mu, nu).

    Members with lam + mu + nu = 0 lie in g2; V_axis(1, 1, 1) is the
    zeta element orthogonal to g2 inside the span of the axis.
    """
    if axis not in V_TERMS:
        raise ValueError(f"V axis must be 1..7, got {axis}")
    coeffs = (lam, mu, nu)
    m = np.zeros((8, 8))
    for c, (sgn, (a, b)) in zip(coeffs, V_TERMS[axis]):
        m += c * sgn * g_basis(a, b)
    return m


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


def expm(x: np.ndarray, t=1.0) -> np.ndarray:
    """exp(tX) by scaling and squaring of a truncated power series.

    ``t`` is a number or an array of parameters; the result has the shape
    of ``t`` followed by the shape of ``x``, and each exp(tX) takes its own
    number of squarings and series terms, as if computed alone.  Accurate
    to ~1e-13 for ||tX|| up to a few tens; for skew-symmetric X the result
    is orthogonal with determinant 1.
    """
    x = np.asarray(x, dtype=float)
    ts = np.asarray(t, dtype=float)
    if not np.isfinite(ts).all():
        raise ValueError(f"exp(tX) needs finite parameters, got {t}")
    n = x.shape[0]
    a = ts.reshape(-1, 1, 1) * x
    nrm = np.sqrt(np.sum(a * a, axis=(1, 2)))
    squarings = np.zeros(len(a), dtype=int)
    big = nrm > 0.5
    squarings[big] = np.ceil(np.log2(nrm[big] / 0.5)).astype(int)
    a = a / (2.0 ** squarings)[:, None, None]
    out = np.broadcast_to(np.eye(n), a.shape).copy()
    term = out.copy()
    active = np.ones(len(a), dtype=bool)
    for k in range(1, 40):
        term = term @ a / k
        out += term * active[:, None, None]
        active &= np.sqrt(np.sum(term * term, axis=(1, 2))) >= 1e-17
        if not active.any():
            break
    for i in range(squarings.max(initial=0)):
        sq = squarings > i
        out[sq] = out[sq] @ out[sq]
    return out.reshape(ts.shape + (n, n))


@dataclass(frozen=True)
class Subspace:
    """An orthonormal basis (under inner_g) together with its dimension."""

    basis: np.ndarray  # shape (dim, 8, 8)
    dim: int


def _to_rows(mats: np.ndarray) -> np.ndarray:
    # Row coordinates in which the Euclidean dot product equals inner_g.
    return mats.reshape(mats.shape[0], -1) / _SQRT2


def _from_rows(rows: np.ndarray) -> np.ndarray:
    return (rows * _SQRT2).reshape(-1, 8, 8)


def ranked_svd(rows: np.ndarray, rel_tol: float = 1e-9, abs_tol: float = 0.0):
    """Thin SVD ``u, sing, vt`` of ``rows`` and its numerical rank ``dim``.

    ``rows`` may carry leading batch axes; ``dim`` then has their shape.
    The rank counts the singular values above ``rel_tol`` times the largest
    one and above ``abs_tol``.
    """
    u, sing, vt = np.linalg.svd(rows, full_matrices=False)
    dim = np.count_nonzero(sing > np.maximum(rel_tol * sing[..., :1], abs_tol), axis=-1)
    return u, sing, vt, dim


def orthonormalize(generators, rel_tol: float = 1e-9, abs_tol: float = 0.0) -> Subspace:
    """Orthonormal basis under inner_g of the span of ``generators``.

    One LAPACK SVD of the generators' row coordinates gives both the rank
    and the basis (see :func:`ranked_svd`): ``dim`` is the numerical rank
    and the basis is the matching right singular vectors.
    """
    mats = np.asarray(list(generators), dtype=float)
    if mats.size == 0:
        return Subspace(np.zeros((0, 8, 8)), 0)
    _, _, vt, dim = ranked_svd(_to_rows(mats), rel_tol, abs_tol)
    return Subspace(_from_rows(vt[:dim]), int(dim))


def span_coords(x: np.ndarray, sub: Subspace) -> np.ndarray:
    """Coefficients of the projection of ``x`` onto ``sub``."""
    if sub.dim == 0:
        return np.zeros(0)
    return np.einsum("ab,iba->i", x, sub.basis) * -0.5


def complement(sub, ambient, tol: float = 1e-9) -> Subspace:
    """Orthogonal complement of ``sub`` inside ``ambient``.

    Both arguments need orthonormal ``basis`` / ``dim`` attributes.  Raises
    :class:`NotASubspaceError` when a basis vector of ``sub`` sticks out of
    ``ambient`` by more than ``tol``.
    """
    arows = _to_rows(np.asarray(ambient.basis, dtype=float))
    if getattr(sub, "dim", 0) == 0:
        return Subspace(np.array(ambient.basis, copy=True), ambient.dim)
    srows = _to_rows(np.asarray(sub.basis, dtype=float))
    overshoot = srows - (srows @ arows.T) @ arows
    worst = float(np.linalg.norm(overshoot, axis=1).max())
    if worst > tol:
        raise NotASubspaceError(
            f"claimed subspace leaves the ambient space (residual {worst:.3e})"
        )
    residual = arows - (arows @ srows.T) @ srows
    out = orthonormalize(_from_rows(residual), rel_tol=0.0, abs_tol=tol)
    expected = ambient.dim - sub.dim
    if out.dim != expected:
        raise ArithmeticError(
            f"complement dimension {out.dim} != {ambient.dim} - {sub.dim}"
        )
    return out


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
