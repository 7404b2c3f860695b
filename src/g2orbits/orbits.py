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
is tensorial); lifts are produced by least squares over the h + k
coefficient space and any exact solution is acceptable.

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
    Subspace,
    complement,
    expm,
    inner_g,
    orthonormalize,
    sym_eigen,
    v_elem,
)
from .triality import NamedSubalgebra, named_subalgebra

ACTION_TYPES = tuple(ACTIONS)


class SingularOrbitError(RuntimeError):
    """The orbit at the requested parameter is not a hypersurface."""

    def __init__(self, message: str, codimension: int):
        super().__init__(message)
        self.codimension = codimension


@dataclass(frozen=True)
class ActionSpec:
    """Static data of one action type."""

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


@lru_cache(maxsize=None)
def action_spec(action_type: str) -> ActionSpec:
    """The configuration of one of the action types II, III, IV, V."""
    record = action_record(action_type)
    return ActionSpec(
        action_type=record.name,
        ambient=named_subalgebra(record.ambient),
        einstein_constant=record.einstein_constant,
        h=named_subalgebra(record.h),
        k=named_subalgebra(record.k),
        geodesic_generator=v_elem(4, *record.geodesic),
        section_generator=v_elem(4, *record.section),
        t_range=record.t_range,
        section_ratio=record.section_ratio,
        singular_ts=record.singular_ts,
    )


def group_element(spec: ActionSpec, t: float) -> np.ndarray:
    """The geodesic point g(t) = exp(t * geodesic generator)."""
    return expm(spec.geodesic_generator, t)


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


def orbit_frame(spec: ActionSpec, t: float) -> OrbitFrame:
    """Tangent space, normal space and Killing-field lifts at g(t).

    The tangent space is the span of { Ad(g(t))^{-1} h_i } together with
    the basis of k; the normal space is its complement in the ambient
    algebra.  Lifts solve Ad^{-1} X - Y = u by least squares and are exact
    up to ``lift_residual``.
    """
    x = group_element(spec, t)
    moved_h = np.einsum("ba,ibc,cd->iad", x, spec.h.basis, x)
    gens = np.concatenate([moved_h, spec.k.basis], axis=0)
    tangent = orthonormalize(gens)
    normal = complement(tangent, spec.ambient.subspace)

    nh, nk = spec.h.dim, spec.k.dim
    columns = np.concatenate(
        [moved_h.reshape(nh, -1), -spec.k.basis.reshape(nk, -1)], axis=0
    ).T
    rhs = tangent.basis.reshape(tangent.dim, -1).T
    sol, *_ = np.linalg.lstsq(columns, rhs, rcond=None)
    residual = float(np.abs(columns @ sol - rhs).max(initial=0.0))
    if residual > 1e-9:
        raise ArithmeticError(
            f"Killing-field lift residual {residual:.3e} at t={t}"
        )
    coeff_h, coeff_k = sol[:nh], sol[nh:]
    lift_h = np.einsum("pi,pab->iab", coeff_h, spec.h.basis)
    lift_k = np.einsum("pi,pab->iab", coeff_k, spec.k.basis)
    return OrbitFrame(t, x, tangent, normal, lift_h, lift_k, residual)


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


def _singular_distance(spec: ActionSpec, t: float) -> float:
    return min(abs(t - s) for s in spec.singular_ts)


def _require_principal_parameter(spec: ActionSpec, t: float, guard: float = 1e-6):
    if _singular_distance(spec, t) < guard:
        raise SingularOrbitError(
            f"type {spec.action_type}: t={t} is within {guard} of a singular parameter",
            codimension=-1,
        )


def _shape_at(spec: ActionSpec, t: float):
    _require_principal_parameter(spec, t)
    frame = orbit_frame(spec, t)
    normal = unit_normal(spec, t, frame=frame)
    s = shape_operator(spec, t, normal, frame=frame)
    return s, frame


def mean_curvature(spec: ActionSpec, t: float) -> float:
    """Trace of the shape operator in the canonical unit normal."""
    s, _ = _shape_at(spec, t)
    return float(np.trace(s))


def shape_norm_sq(spec: ActionSpec, t: float) -> float:
    """Squared Frobenius norm of the shape operator (sum of squared
    principal curvatures)."""
    s, _ = _shape_at(spec, t)
    return float(np.sum(s * s))


def spectrum_report(spec: ActionSpec, t: float, cluster_tol: float = 1e-6) -> SpectrumReport:
    """Full curvature report at a principal parameter.

    Eigenvalues within ``cluster_tol`` are merged; the report is flagged
    cluster-ambiguous when some gap between adjacent eigenvalues lies
    within a decade of the clustering tolerance.
    """
    s, frame = _shape_at(spec, t)
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
