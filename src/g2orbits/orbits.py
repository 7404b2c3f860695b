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
is tensorial), so any exact solution is acceptable.

One kernel, :func:`_frames`, computes every frame, in orthonormal
coordinates e_a of the ambient algebra and for a whole block of t at once.
One SVD R = U S V^T of the coordinate rows R of Ad(g(t))^{-1} h_p and k_q
gives the tangent rank, the tangent basis (the first rows of V^T), the
normal basis (the other rows) and the minimum-norm lifts (columns
U_i / S_i).  With T the tangent rows, P the rows of Ad^{-1} X_i + Y_i and
ad_n[a, b] = <e_a, [e_b, n]>, the shape operator is S = -1/2 T ad_n P^T.
Orbit frames, shape operators in any normal, spectrum reports (at one t,
or with :func:`spectrum_reports` over an array of t), and H and |A|^2
together (:func:`curvature_invariants`) over whole arrays of t (block by
block) all come from this kernel.

An :class:`ActionSpec` is the record of its type from
:mod:`g2orbits.actions` (groups, geodesic and section generators, parameter
ranges, closed forms) together with the subalgebras and generators built
from it; the unit normal at a principal parameter is oriented along the
section generator, and t = section_ratio * s.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .actions import ACTIONS, ActionRecord, action_record
from .linalg import (
    NotASubspaceError,
    Subspace,
    _from_rows,
    _to_rows,
    bracket,
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
#: and |A|^2 before the next one starts, which bounds the working memory.
FRAME_BLOCK = 32

#: Principal-orbit reports refuse parameters this close to a singular one.
SINGULAR_GUARD = 1e-6


class SingularOrbitError(RuntimeError):
    """The orbit at the requested parameter is not a hypersurface."""

    def __init__(self, message: str, codimension: int):
        super().__init__(message)
        self.codimension = codimension


@dataclass(frozen=True, kw_only=True)
class ActionSpec(ActionRecord):
    """The record of one action type with its geometry built.

    The last four fields describe the ambient algebra in the orthonormal
    coordinates (under inner_g, basis e_a) in which frames are computed.
    """

    ambient: NamedSubalgebra
    h: NamedSubalgebra
    k: NamedSubalgebra
    geodesic_generator: np.ndarray
    section_generator: np.ndarray
    ambient_rows: np.ndarray  # (d, 64), the e_a as rows
    k_coords: np.ndarray  # (k.dim, d), coordinates of the basis of k
    unit_section: np.ndarray  # (d,), coordinates of the unit section generator xi
    ad_section: np.ndarray  # (d, d), [a, b] = <e_a, [e_b, xi]>


@lru_cache(maxsize=None)
def action_spec(action_type: str) -> ActionSpec:
    """The configuration of one of the action types II, III, IV, V."""
    record = action_record(action_type)
    ambient = named_subalgebra(record.ambient_name)
    k = named_subalgebra(record.k_name)
    section = v_elem(4, *record.section)
    rows = _to_rows(ambient.basis)
    unit_section = _to_rows(section[None])[0] @ rows.T
    unit_section /= np.linalg.norm(unit_section)
    return ActionSpec(
        **{field.name: getattr(record, field.name) for field in fields(record)},
        ambient=ambient,
        h=named_subalgebra(record.h_name),
        k=k,
        geodesic_generator=v_elem(4, *record.geodesic),
        section_generator=section,
        ambient_rows=rows,
        k_coords=_to_rows(k.basis) @ rows.T,
        unit_section=unit_section,
        ad_section=_ad_matrix(ambient.basis, unit_section),
    )


def _ad_matrix(basis: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """[a, b] = <e_a, [e_b, v]> for v = sum_a coords[a] e_a, where the e_a
    (``basis``) are orthonormal under inner_g."""
    brackets = bracket(basis, np.einsum("a,abc->bc", coords, basis))
    return _to_rows(basis) @ _to_rows(brackets).T


@dataclass(frozen=True)
class OrbitFrame:
    """Identity-translated tangent data of the orbit through g(t).

    The rows of ``tangent_rows`` (the tangent basis u_i) and ``lift_rows``
    (Ad^{-1} X_i + Y_i for lifts (X_i, Y_i) of the u_i) are coordinates in
    the orthonormal basis of the ambient algebra.
    """

    t: float
    x: np.ndarray  # g(t)
    tangent: Subspace
    normal: Subspace
    tangent_rows: np.ndarray  # (tangent.dim, d)
    lift_rows: np.ndarray  # (tangent.dim, d)
    lift_residual: float

    @property
    def orbit_dim(self) -> int:
        return self.tangent.dim


def _frames(spec: ActionSpec, ts: np.ndarray):
    """The frame kernel: ``x, vt, dim, lifts, residual`` at each parameter
    of ``ts``, from one SVD R = U diag(sing) V^T of the generator rows R.

    The rows of R are the ambient coordinates of Ad(g(t))^{-1} h_p, whose
    projection onto the ambient algebra must leave a residual of at most
    1e-9, followed by those of k_q.  x is g(t); the tangent rows are
    vt[:, :dim] and the normal rows vt[:, dim:].  ``dim`` is the largest
    numerical rank of the block; a parameter of lower rank raises
    :class:`SingularOrbitError` with its codimension.  The lift
    coefficients C = U[:, :dim] / sing[:dim] solve C^T R = V^T[:dim] up to
    ``residual`` (at most 1e-9); row p of C weighs the p-th generator, so
    C^T R with the k rows negated gives ``lifts``, the rows of
    Ad^{-1} X_i + Y_i.
    """
    d = spec.ambient.dim
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
    rows = np.concatenate([h_coords, k_coords], axis=1)
    u, sing, vt, dims = ranked_svd(rows)
    dim = int(dims.max())
    if np.any(dims < dim):
        i = int(np.argmax(dims < dim))
        raise SingularOrbitError(
            f"type {spec.action_type} orbit at t={ts[i]} has codimension {d - dims[i]}",
            codimension=int(d - dims[i]),
        )
    coeffs = u[..., :dim] / sing[..., None, :dim]
    residual = np.abs(np.swapaxes(coeffs, 1, 2) @ rows - vt[:, :dim]).max(
        axis=(1, 2), initial=0.0
    )
    if np.any(residual > 1e-9):
        i = int(np.argmax(residual))
        raise ArithmeticError(
            f"Killing-field lift residual {residual[i]:.3e} at t={ts[i]}"
        )
    rows[:, spec.h.dim:] *= -1.0
    return x, vt, dim, np.swapaxes(coeffs, 1, 2) @ rows, residual


def _shapes(tangent, ad, lifts, ts) -> np.ndarray:
    """S = -1/2 T ad P^T for stacks of tangent rows T and lift rows P,
    checked for symmetry up to 1e-9 relative to the entry scale (which
    grows like cot near singular parameters) and then symmetrised."""
    s = -0.5 * (tangent @ ad) @ np.swapaxes(lifts, 1, 2)
    s_t = np.swapaxes(s, 1, 2)
    defect = np.abs(s - s_t).max(axis=(1, 2))
    scale = np.maximum(1.0, np.abs(s).max(axis=(1, 2)))
    if np.any(defect > 1e-9 * scale):
        i = int(np.argmax(defect / scale))
        raise ArithmeticError(f"shape operator asymmetry defect {defect[i]:.3e} at t={ts[i]}")
    return 0.5 * (s + s_t)


def orbit_frame(spec: ActionSpec, t: float) -> OrbitFrame:
    """Tangent space, normal space and Killing-field lifts at g(t).

    The tangent space is the span of { Ad(g(t))^{-1} h_i } together with
    the basis of k; the normal space is its complement in the ambient
    algebra.  Both bases and the lifts, which solve Ad^{-1} X - Y = u up
    to ``lift_residual``, come from the frame kernel at one parameter.
    """
    x, vt, dim, lifts, residual = _frames(spec, np.array([t], dtype=float))
    tangent = Subspace(_from_rows(vt[0, :dim] @ spec.ambient_rows), dim)
    normal = Subspace(_from_rows(vt[0, dim:] @ spec.ambient_rows), len(vt[0]) - dim)
    if tangent.dim + normal.dim != spec.ambient.dim:
        raise ArithmeticError(
            f"tangent dim {tangent.dim} + normal dim {normal.dim} != {spec.ambient.dim}"
        )
    return OrbitFrame(t, x[0], tangent, normal, vt[0, :dim], lifts[0], float(residual[0]))


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


def shape_operator(
    spec: ActionSpec,
    t: float,
    normal: np.ndarray,
    frame: OrbitFrame | None = None,
) -> np.ndarray:
    """Shape operator of the orbit through g(t) in the direction ``normal``.

    ``normal`` must be a unit vector of the ambient algebra orthogonal to
    the tangent space; this works at singular parameters too, one normal
    direction at a time.
    """
    if frame is None:
        frame = orbit_frame(spec, t)
    if abs(inner_g(normal, normal) - 1.0) > 1e-9:
        raise ValueError("normal vector is not unit length")
    row = _to_rows(normal[None])[0]
    coords = row @ spec.ambient_rows.T
    outside = float(np.linalg.norm(row - coords @ spec.ambient_rows))
    if outside > 1e-9:
        raise ValueError(f"normal leaves the ambient algebra (residual {outside:.3e})")
    tangency = float(np.abs(frame.tangent_rows @ coords).max(initial=0.0))
    if tangency > 1e-9:
        raise ValueError(f"normal is not orthogonal to the tangent space ({tangency:.3e})")
    ad = _ad_matrix(spec.ambient.basis, coords)
    return _shapes(frame.tangent_rows[None], ad, frame.lift_rows[None], [t])[0]


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


def _shape_blocks(spec: ActionSpec, ts: np.ndarray):
    """The symmetrised shape operators at the principal parameters ``ts``
    (a 1-d array), as (slice of ``ts``, shapes) pairs over blocks of at
    most :data:`FRAME_BLOCK` parameters.

    Parameters within :data:`SINGULAR_GUARD` of a singular one are refused.
    The unit normal is the section generator xi, certified by a tangent
    rank of d - 1 and |<xi, u_i>| <= 1e-9 for every tangent basis vector
    u_i.
    """
    near = np.min(np.abs(ts[:, None] - np.array(spec.singular_ts)), axis=1) < SINGULAR_GUARD
    if np.any(near):
        raise SingularOrbitError(
            f"type {spec.action_type}: t={ts[np.argmax(near)]} is within "
            f"{SINGULAR_GUARD} of a singular parameter",
            codimension=-1,
        )
    d = spec.ambient.dim
    for start in range(0, len(ts), FRAME_BLOCK):
        block = slice(start, start + FRAME_BLOCK)
        _, vt, dim, lifts, _ = _frames(spec, ts[block])
        tangent = vt[:, :dim]
        bad = (dim != d - 1) | (np.abs(tangent @ spec.unit_section).max(axis=1) > 1e-9)
        if np.any(bad):
            raise SingularOrbitError(
                f"type {spec.action_type} orbit at t={ts[block][np.argmax(bad)]} has "
                f"codimension {d - dim}",
                codimension=d - dim,
            )
        yield block, _shapes(tangent, spec.ad_section, lifts, ts[block])


def curvature_invariants(spec: ActionSpec, t) -> np.ndarray:
    """H and |A|^2 at a parameter or at each entry of an array of
    parameters, as the two rows of one (2, ...) array, from one walk over
    the shape operators."""
    ts = np.asarray(t, dtype=float)
    flat = ts.reshape(-1)
    values = np.empty((2, len(flat)))
    for block, shapes in _shape_blocks(spec, flat):
        values[0, block] = np.trace(shapes, axis1=1, axis2=2)
        values[1, block] = np.sum(shapes * shapes, axis=(1, 2))
    return values.reshape((2,) + ts.shape)


def mean_curvature(spec: ActionSpec, t):
    """Trace of the shape operator in the canonical unit normal, at a
    parameter or at each entry of an array of parameters."""
    h = curvature_invariants(spec, t)[0]
    return float(h) if h.ndim == 0 else h


def shape_norm_sq(spec: ActionSpec, t):
    """Squared Frobenius norm of the shape operator (sum of squared
    principal curvatures), at a parameter or at each entry of an array."""
    norm_sq = curvature_invariants(spec, t)[1]
    return float(norm_sq) if norm_sq.ndim == 0 else norm_sq


def _report(spec: ActionSpec, t: float, s: np.ndarray, cluster_tol: float) -> SpectrumReport:
    """The spectrum report of the shape operator ``s`` at ``t``."""
    clusters = sym_eigen(s, cluster_tol=cluster_tol)
    values = np.concatenate([[v] * m for v, m in clusters]) if clusters else np.zeros(0)
    gaps = np.diff(np.sort(values))
    ambiguous = bool(np.any((gaps > cluster_tol) & (gaps < 10.0 * cluster_tol)))
    return SpectrumReport(
        t=float(t),
        s=float(t) / spec.section_ratio,
        orbit_dim=spec.ambient.dim - 1,
        shape=s,
        curvatures=tuple((float(v), int(m)) for v, m in clusters),
        mean_curvature=float(np.trace(s)),
        norm_sq=float(np.sum(s * s)),
        austere=is_austere(clusters, tol=cluster_tol),
        cluster_ambiguous=ambiguous,
    )


def spectrum_report(spec: ActionSpec, t: float, cluster_tol: float = 1e-6) -> SpectrumReport:
    """Full curvature report at a principal parameter.

    Eigenvalues within ``cluster_tol`` are merged; the report is flagged
    cluster-ambiguous when some gap between adjacent eigenvalues lies
    within a decade of the clustering tolerance.
    """
    return spectrum_reports(spec, [t], cluster_tol)[0]


def spectrum_reports(spec: ActionSpec, ts, cluster_tol: float = 1e-6) -> list[SpectrumReport]:
    """:func:`spectrum_report` at each parameter of ``ts``, with the shape
    operators built block by block of at most :data:`FRAME_BLOCK`
    parameters and each spectrum clustered on its own."""
    flat = np.asarray(ts, dtype=float).reshape(-1)
    return [
        _report(spec, t, s, cluster_tol)
        for block, shapes in _shape_blocks(spec, flat)
        for t, s in zip(flat[block], shapes)
    ]


def verify_reflection(spec: ActionSpec) -> bool:
    """Check the explicit orbit-reversing isometry of types III and IV.

    The isometry and its certificate are part of the type's record; see
    :mod:`g2orbits.actions`.
    """
    if spec.reflection is None:
        raise ValueError(
            f"no reflection isometry is configured for action type {spec.action_type}"
        )
    return spec.reflection(spec)
