"""Orbit geometry of the four two-sided actions at points of the geodesic.

Each configured action is a product group H x K acting on an ambient
compact group (G2 or SO(7)) by (h, k) . x = h x k^{-1}.  Along the fixed
one-parameter geodesic g(t), the orbit tangent space translated back to
the identity is Ad(g(t))^{-1} h + k.  A tangent vector u is realized by a
Killing field through a lift, a pair (X, Y) in h x k with

    Ad(g(t))^{-1} X - Y = u,

and the shape operator in a unit normal n comes from the bi-invariant
Levi-Civita connection:

    S_ij = -1/2 < [Ad^{-1} X_i - Y_i, Ad^{-1} X_j + Y_j], n >.

The value is independent of the lift choice (the second fundamental form
is tensorial), so any exact solution is acceptable.  Frames are computed
in orthonormal coordinates of the ambient algebra: one SVD R = U S V^T of
the coordinate rows R of Ad(g(t))^{-1} h_p and k_q gives the tangent rank,
the tangent basis (rows of V^T) and the minimum-norm lifts (columns
U_i / S_i).  :func:`mean_curvature` and :func:`shape_norm_sq` take whole
arrays of t and evaluate them block by block.

The per-type data (groups, geodesic and section generators, parameter
ranges) come from the records of :mod:`g2orbits.actions`; the unit normal
at a principal parameter is oriented along the section generator, and
t = section_ratio * s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .actions import ACTIONS, action_record
from .linalg import (
    NotASubspaceError,
    Subspace,
    _from_rows,
    _to_rows,
    bracket,
    complement,
    expm,
    inner_g,
    orthonormalize,  # noqa: F401  (a binding site perfbench's tracer self-test wraps)
    ranked_svd,
    sym_eigen,
    v_elem,
)
from .triality import NamedSubalgebra, named_subalgebra

ACTION_TYPES = tuple(ACTIONS)

#: Parameters per block of the frame kernel.  Each block is reduced to H
#: or |A|^2 before the next one starts, which bounds the working memory.
FRAME_BLOCK = 32


class SingularOrbitError(RuntimeError):
    """The orbit at the requested parameter is not a hypersurface."""

    def __init__(self, message: str, codimension: int):
        super().__init__(message)
        self.codimension = codimension


@dataclass(frozen=True)
class ActionSpec:
    """Static data of one action type.

    The last four fields describe the ambient algebra in the orthonormal
    coordinates (under inner_g, basis e_a) in which frames are computed.
    """

    action_type: str
    ambient: NamedSubalgebra
    einstein_constant: float
    h: NamedSubalgebra
    k: NamedSubalgebra
    geodesic_generator: np.ndarray
    section_generator: np.ndarray
    t_range: tuple[float, float]
    section_ratio: float
    singular_ts: tuple[float, ...]
    ambient_rows: np.ndarray  # (d, 64), the e_a as rows
    k_coords: np.ndarray  # (k.dim, d), coordinates of the basis of k
    unit_section: np.ndarray  # (d,), coordinates of the unit section generator xi
    ad_section: np.ndarray  # (d, d), [a, b] = <e_a, [e_b, xi]>


@lru_cache(maxsize=None)
def action_spec(action_type: str) -> ActionSpec:
    """The configuration of one of the action types II, III, IV, V."""
    record = action_record(action_type)
    ambient = named_subalgebra(record.ambient)
    k = named_subalgebra(record.k)
    section = v_elem(4, *record.section)
    rows = _to_rows(ambient.basis)
    unit_section = _to_rows(section[None])[0] @ rows.T
    unit_section /= np.linalg.norm(unit_section)
    brackets = bracket(ambient.basis, np.einsum("a,abc->bc", unit_section, ambient.basis))
    return ActionSpec(
        action_type=record.name,
        ambient=ambient,
        einstein_constant=record.einstein_constant,
        h=named_subalgebra(record.h),
        k=k,
        geodesic_generator=v_elem(4, *record.geodesic),
        section_generator=section,
        t_range=record.t_range,
        section_ratio=record.section_ratio,
        singular_ts=record.singular_ts,
        ambient_rows=rows,
        k_coords=_to_rows(k.basis) @ rows.T,
        unit_section=unit_section,
        ad_section=rows @ _to_rows(brackets).T,
    )


@dataclass(frozen=True)
class OrbitFrame:
    """Identity-translated tangent data of the orbit through g(t)."""

    t: float
    x: np.ndarray  # g(t)
    tangent: Subspace
    normal: Subspace
    lift_h: np.ndarray  # (tangent.dim, 8, 8), components in h
    lift_k: np.ndarray  # (tangent.dim, 8, 8), components in k
    lift_residual: float

    @property
    def orbit_dim(self) -> int:
        return self.tangent.dim


def _generator_rows(spec: ActionSpec, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g(t) and the generator rows R for each t of ``ts``.

    The rows of R are the ambient coordinates of Ad(g(t))^{-1} h_p followed
    by those of k_q; the projection of Ad(g(t))^{-1} h_p onto the ambient
    algebra must leave a residual of at most 1e-9.
    """
    x = expm(spec.geodesic_generator, ts)
    moved = np.swapaxes(x, 1, 2)[:, None] @ spec.h.basis @ x[:, None]
    moved_rows = moved.reshape(moved.shape[:2] + (64,))
    moved_rows /= np.sqrt(2.0)  # the coordinates of _to_rows, in place
    h_coords = moved_rows @ spec.ambient_rows.T
    moved_rows -= h_coords @ spec.ambient_rows
    overshoot = np.sqrt(np.einsum("bpi,bpi->bp", moved_rows, moved_rows).max(axis=1))
    if np.any(overshoot > 1e-9):
        i = int(np.argmax(overshoot))
        raise NotASubspaceError(
            f"type {spec.action_type}: Ad(g)^-1 h leaves the ambient algebra at "
            f"t={ts[i]} (residual {overshoot[i]:.3e})"
        )
    k_coords = np.broadcast_to(spec.k_coords, (len(ts),) + spec.k_coords.shape)
    return x, np.concatenate([h_coords, k_coords], axis=1)


def _lift_coeffs(ts, rows, u, sing, vt, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients C with C^T R = the first ``dim`` rows of ``vt``, and the
    residual of that equation per t (at most 1e-9).

    With R = U diag(sing) V^T the columns of C are U[:, i] / sing[i]; row p
    of C weighs the p-th row of R.
    """
    coeffs = u[..., :dim] / sing[..., None, :dim]
    residual = np.abs(np.swapaxes(coeffs, -1, -2) @ rows - vt[..., :dim, :]).max(
        axis=(-2, -1), initial=0.0
    )
    if np.any(residual > 1e-9):
        i = int(np.argmax(residual))
        raise ArithmeticError(
            f"Killing-field lift residual {residual[i]:.3e} at t={ts[i]}"
        )
    return coeffs, residual


def orbit_frame(spec: ActionSpec, t: float) -> OrbitFrame:
    """Tangent space, normal space and Killing-field lifts at g(t).

    The tangent space is the span of { Ad(g(t))^{-1} h_i } together with
    the basis of k; the normal space is its complement in the ambient
    algebra.  One SVD of the generators' ambient coordinates gives the
    tangent rank and basis and the lifts, which solve Ad^{-1} X - Y = u
    up to ``lift_residual``.
    """
    ts = np.array([t], dtype=float)
    x, rows = _generator_rows(spec, ts)
    u, sing, vt, dims = ranked_svd(rows)
    dim = int(dims[0])
    coeffs, residual = _lift_coeffs(ts, rows, u, sing, vt, dim)
    tangent = Subspace(_from_rows(vt[0, :dim] @ spec.ambient_rows), dim)
    normal = complement(tangent, spec.ambient.subspace)
    nh = spec.h.dim
    lift_h = np.einsum("pi,pab->iab", coeffs[0, :nh], spec.h.basis)
    lift_k = -np.einsum("pi,pab->iab", coeffs[0, nh:], spec.k.basis)
    return OrbitFrame(t, x[0], tangent, normal, lift_h, lift_k, float(residual[0]))


def unit_normal(spec: ActionSpec, t: float, frame: OrbitFrame | None = None) -> np.ndarray:
    """The unit normal at g(t), oriented along the section generator.

    Only defined at principal parameters (orbit codimension one); at a
    singular parameter a :class:`SingularOrbitError` carries the actual
    codimension.
    """
    if frame is None:
        frame = orbit_frame(spec, t)
    if frame.normal.dim != 1:
        raise SingularOrbitError(
            f"type {spec.action_type} orbit at t={t} has codimension "
            f"{frame.normal.dim}",
            codimension=frame.normal.dim,
        )
    n = frame.normal.basis[0]
    if inner_g(n, spec.section_generator) < 0:
        n = -n
    return n


def shape_operator_from_lifts(
    x: np.ndarray,
    vectors: np.ndarray,
    lift_h: np.ndarray,
    lift_k: np.ndarray,
    normal: np.ndarray,
    symmetry_tol: float = 1e-9,
) -> np.ndarray:
    """Shape operator matrix from explicit Killing-field lifts.

    vectors[i] must equal Ad(x)^{-1} lift_h[i] - lift_k[i]; the matrix is
    S_ij = -1/2 < [vectors_i, Ad^{-1} lift_h_j + lift_k_j], normal >,
    checked for symmetry up to ``symmetry_tol`` (relative to the entry
    scale, which grows like cot near singular parameters) and then
    symmetrized.
    """
    plus = np.einsum("ba,jbc,cd->jad", x, lift_h, x) + lift_k
    comm = np.einsum("jab,bc->jac", plus, normal) - np.einsum(
        "ab,jbc->jac", normal, plus
    )
    s = 0.25 * np.einsum("iab,jba->ij", vectors, comm)
    defect = float(np.abs(s - s.T).max(initial=0.0))
    scale = max(1.0, float(np.abs(s).max(initial=0.0)))
    if defect > symmetry_tol * scale:
        raise ArithmeticError(f"shape operator asymmetry defect {defect:.3e}")
    return 0.5 * (s + s.T)


def shape_operator(
    spec: ActionSpec,
    t: float,
    normal: np.ndarray,
    frame: OrbitFrame | None = None,
    tol: float = 1e-9,
) -> np.ndarray:
    """Shape operator of the orbit through g(t) in the direction ``normal``.

    ``normal`` must be a unit vector orthogonal to the tangent space; this
    works at singular parameters too, one normal direction at a time.
    """
    if frame is None:
        frame = orbit_frame(spec, t)
    if abs(inner_g(normal, normal) - 1.0) > tol:
        raise ValueError("normal vector is not unit length")
    tangency = max(
        abs(inner_g(normal, u)) for u in frame.tangent.basis
    ) if frame.tangent.dim else 0.0
    if tangency > tol:
        raise ValueError(f"normal is not orthogonal to the tangent space ({tangency:.3e})")
    return shape_operator_from_lifts(
        frame.x, frame.tangent.basis, frame.lift_h, frame.lift_k, normal
    )


def is_austere(curvatures, tol: float = 1e-6) -> bool:
    """True when the multiset of (value, multiplicity) pairs is symmetric
    under negation of the values, pairing values within ``tol``."""
    expanded: list[float] = []
    for value, mult in curvatures:
        expanded.extend([float(value)] * int(mult))
    expanded.sort()
    n = len(expanded)
    return all(abs(expanded[i] + expanded[n - 1 - i]) <= tol for i in range(n))


@dataclass(frozen=True)
class SpectrumReport:
    """Curvature data of a principal orbit at one parameter."""

    t: float
    s: float
    orbit_dim: int
    shape: np.ndarray
    curvatures: tuple[tuple[float, int], ...]
    mean_curvature: float
    norm_sq: float
    austere: bool
    cluster_ambiguous: bool


def _require_principal_parameter(spec: ActionSpec, t, guard: float = 1e-6):
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    distance = np.min(np.abs(ts[:, None] - np.array(spec.singular_ts)), axis=1)
    if np.any(distance < guard):
        raise SingularOrbitError(
            f"type {spec.action_type}: t={ts[np.argmax(distance < guard)]} is within "
            f"{guard} of a singular parameter",
            codimension=-1,
        )


def _principal_shapes(spec: ActionSpec, ts: np.ndarray) -> np.ndarray:
    """Symmetrised shape operators at the principal parameters ``ts``.

    The unit normal is the section generator xi, certified by a tangent
    rank of d - 1 and |<xi, u_i>| <= 1e-9 for every tangent basis vector
    u_i.  In ambient coordinates S = -1/2 T ad_xi P^T, where the rows of T
    are the u_i and those of P the lifts Ad^{-1} X_i + Y_i.
    """
    d = spec.ambient.dim
    _, rows = _generator_rows(spec, ts)
    u, sing, vt, dims = ranked_svd(rows)
    tangent = vt[:, : d - 1]
    tangency = np.abs(tangent @ spec.unit_section).max(axis=1)
    bad = (dims != d - 1) | (tangency > 1e-9)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SingularOrbitError(
            f"type {spec.action_type} orbit at t={ts[i]} has codimension {d - dims[i]}",
            codimension=int(d - dims[i]),
        )
    coeffs, _ = _lift_coeffs(ts, rows, u, sing, vt, d - 1)
    rows[:, spec.h.dim:] *= -1.0
    plus = np.swapaxes(coeffs, 1, 2) @ rows
    s = -0.5 * (tangent @ spec.ad_section) @ np.swapaxes(plus, 1, 2)
    s_t = np.swapaxes(s, 1, 2)
    defect = np.abs(s - s_t).max(axis=(1, 2))
    scale = np.maximum(1.0, np.abs(s).max(axis=(1, 2)))
    if np.any(defect > 1e-9 * scale):
        i = int(np.argmax(defect / scale))
        raise ArithmeticError(f"shape operator asymmetry defect {defect[i]:.3e} at t={ts[i]}")
    return 0.5 * (s + s_t)


def _reduce_shapes(spec: ActionSpec, t, reduce):
    """``reduce`` of the shape operators at ``t`` (a number or an array),
    taken block by block of at most :data:`FRAME_BLOCK` parameters."""
    ts = np.asarray(t, dtype=float)
    flat = ts.reshape(-1)
    _require_principal_parameter(spec, flat)
    values = np.empty(len(flat))
    for start in range(0, len(flat), FRAME_BLOCK):
        block = slice(start, start + FRAME_BLOCK)
        values[block] = reduce(_principal_shapes(spec, flat[block]))
    return float(values[0]) if ts.ndim == 0 else values.reshape(ts.shape)


def mean_curvature(spec: ActionSpec, t):
    """Trace of the shape operator in the canonical unit normal, at a
    parameter or at each entry of an array of parameters."""
    return _reduce_shapes(spec, t, lambda s: np.trace(s, axis1=1, axis2=2))


def shape_norm_sq(spec: ActionSpec, t):
    """Squared Frobenius norm of the shape operator (sum of squared
    principal curvatures), at a parameter or at each entry of an array."""
    return _reduce_shapes(spec, t, lambda s: np.sum(s * s, axis=(1, 2)))


def spectrum_report(spec: ActionSpec, t: float, cluster_tol: float = 1e-6) -> SpectrumReport:
    """Full curvature report at a principal parameter.

    Eigenvalues within ``cluster_tol`` are merged; the report is flagged
    cluster-ambiguous when some gap between adjacent eigenvalues lies
    within a decade of the clustering tolerance.
    """
    _require_principal_parameter(spec, t)
    frame = orbit_frame(spec, t)
    s = shape_operator(spec, t, unit_normal(spec, t, frame=frame), frame=frame)
    clusters = sym_eigen(s, cluster_tol=cluster_tol)
    values = np.concatenate([[v] * m for v, m in clusters]) if clusters else np.zeros(0)
    gaps = np.diff(np.sort(values))
    ambiguous = bool(np.any((gaps > cluster_tol) & (gaps < 10.0 * cluster_tol)))
    return SpectrumReport(
        t=float(t),
        s=float(t) / spec.section_ratio,
        orbit_dim=frame.orbit_dim,
        shape=s,
        curvatures=tuple((float(v), int(m)) for v, m in clusters),
        mean_curvature=float(np.trace(s)),
        norm_sq=float(np.sum(s * s)),
        austere=is_austere(clusters, tol=cluster_tol),
        cluster_ambiguous=ambiguous,
    )


def verify_reflection(spec: ActionSpec, tol: float = 1e-9) -> bool:
    """Check the explicit orbit-reversing isometry of types III and IV.

    The isometry and its certificate are part of the type's record; see
    :mod:`g2orbits.actions`.
    """
    check = action_record(spec.action_type).reflection
    if check is None:
        raise ValueError(
            f"no reflection isometry is configured for action type {spec.action_type}"
        )
    return check(spec, tol)
