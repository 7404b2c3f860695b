"""Closed-form curvature tables and the minimal / biharmonic classification.

For each action type the principal curvatures of the principal orbit admit
closed forms in the geodesic parameter t; this module evaluates them,
compares them against the numerically computed spectra, and locates the
distinguished parameters:

  * minimal orbits: zeros of the mean curvature,
  * proper biharmonic orbits: non-minimal parameters where the squared
    norm of the shape operator equals the Einstein constant of the
    ambient metric (8 on G2, 10 on SO(7)).

Root finding is a dense sign-change scan, whose whole grid is one call of
the batched frame kernel, followed by bisection on single parameters; the
scan ranges are clipped 1e-4 away from singular endpoints where the closed
forms blow up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .actions import ACTIONS, action_record
from .orbits import (
    ActionSpec,
    action_spec,
    mean_curvature,
    orbit_frame,
    shape_norm_sq,
    spectrum_report,
)


class NoRootError(RuntimeError):
    """A scan found no (or not the expected number of) sign changes."""


class StructuralMismatchError(ValueError):
    """Engine and closed-form spectra disagree on multiplicities."""

    def __init__(self, message: str, engine, reference):
        super().__init__(message)
        self.engine = engine
        self.reference = reference


def principal_interval(spec: ActionSpec, clip: float = 1e-4) -> tuple[float, float]:
    """The scanned parameter window, clipped away from singular endpoints."""
    lo, hi = spec.t_range
    if any(abs(lo - s) < 1e-12 for s in spec.singular_ts):
        lo += clip
    if any(abs(hi - s) < 1e-12 for s in spec.singular_ts):
        hi -= clip
    return lo, hi


def _check_in_range(action_type: str, t: float):
    spec = action_spec(action_type)
    lo, hi = spec.t_range
    inside = lo < t <= hi
    near_singular = any(abs(t - s) < 1e-9 for s in spec.singular_ts)
    if not inside or near_singular:
        raise ValueError(
            f"t={t} is outside the principal range of type {action_type}"
        )


def closed_form_spectrum(action_type: str, t: float) -> list[tuple[float, int]]:
    """Principal curvatures with multiplicities, sorted ascending."""
    _check_in_range(action_type, t)
    return sorted(action_record(action_type).spectrum(t))


def mean_curvature_closed_form(action_type: str, t: float) -> float:
    """Trace of the shape operator from the closed-form tables."""
    return action_record(action_type).mean_curvature(t)


def shape_norm_sq_closed_form(action_type: str, t: float) -> float:
    """Sum of squared principal curvatures from the closed-form tables."""
    return action_record(action_type).norm_sq(t)


#: Expected multiplicity multisets of the principal-orbit spectra.
EXPECTED_MULTIPLICITIES = {
    ty: tuple(m for _, m in r.spectrum(r.minimal_t)) for ty, r in ACTIONS.items()
}

#: Closed-form parameters of the minimal principal orbit.
REFERENCE_MINIMAL_T = {ty: r.minimal_t for ty, r in ACTIONS.items()}

#: Austere verdicts for the minimal principal orbits.
REFERENCE_AUSTERE = {ty: r.austere for ty, r in ACTIONS.items()}

#: Closed-form parameters of the proper biharmonic principal orbits.
REFERENCE_BIHARMONIC_T = {ty: r.biharmonic_t for ty, r in ACTIONS.items()}


def _bisect(f, a: float, b: float, fa: float, fb: float, xtol: float) -> float:
    while b - a > xtol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _scan_roots(f, lo: float, hi: float, samples: int, xtol: float = 1e-12,
                zero_tol: float = 1e-9) -> list[float]:
    ts = np.linspace(lo, hi, samples)
    vals = f(ts)
    roots: list[float] = []

    def push(r: float):
        if all(abs(r - seen) > 1e-9 for seen in roots):
            roots.append(r)

    for i, (t, v) in enumerate(zip(ts, vals)):
        if abs(v) < zero_tol:
            push(float(t))
        elif i + 1 < len(ts) and abs(vals[i + 1]) >= zero_tol and v * vals[i + 1] < 0:
            push(_bisect(f, float(ts[i]), float(ts[i + 1]), v, vals[i + 1], xtol))
    return sorted(roots)


def find_minimal(spec: ActionSpec, samples: int = 200) -> float:
    """The unique principal parameter with vanishing mean curvature.

    Bracketing scan at ``samples`` points over the clipped principal
    window, bisection to 1e-12.  A zero sitting exactly on a principal
    endpoint of the window (type III) is accepted directly.
    """
    lo, hi = principal_interval(spec)
    roots = _scan_roots(lambda t: mean_curvature(spec, t), lo, hi, samples)
    if not roots:
        raise NoRootError(f"type {spec.action_type}: no minimal parameter found")
    if len(roots) > 1:
        raise NoRootError(
            f"type {spec.action_type}: expected one minimal parameter, found {roots}"
        )
    return roots[0]


def find_biharmonic(spec: ActionSpec, samples: int = 2000) -> list[float]:
    """All principal parameters where |shape|^2 equals the Einstein
    constant and the mean curvature does not vanish."""
    lo, hi = principal_interval(spec)
    lam = spec.einstein_constant
    roots = _scan_roots(
        lambda t: shape_norm_sq(spec, t) - lam, lo, hi, samples
    )
    return [r for r in roots if abs(mean_curvature(spec, r)) > 1e-6]


def spectrum_deviation(action_type: str, t: float, engine, reference) -> float:
    """Max absolute deviation between an engine spectrum and the closed-form
    one, paired by sorted order; a multiplicity mismatch raises
    :class:`StructuralMismatchError` carrying both multisets."""
    engine = list(engine)
    if [m for _, m in engine] != [m for _, m in reference]:
        raise StructuralMismatchError(
            f"type {action_type} t={t}: multiplicities "
            f"{[m for _, m in engine]} vs closed-form {[m for _, m in reference]}",
            engine,
            reference,
        )
    return max(abs(a - b) for (a, _), (b, _) in zip(engine, reference))


def compare_spectra(spec: ActionSpec, t: float, tol: float = 1e-6) -> float:
    """Max absolute deviation between computed and closed-form spectra.

    The computed spectrum is clustered with tolerance ``tol`` and compared
    by :func:`spectrum_deviation`.
    """
    report = spectrum_report(spec, t, cluster_tol=tol)
    reference = closed_form_spectrum(spec.action_type, t)
    return spectrum_deviation(spec.action_type, t, report.curvatures, reference)


@dataclass(frozen=True)
class ClassificationResult:
    """Distinguished orbits of one action, engine values beside closed forms."""

    action_type: str
    minimal_t: float
    minimal_s: float
    minimal_austere: bool
    biharmonic_t: tuple[float, ...]
    biharmonic_s: tuple[float, ...]
    closed_form_minimal_t: float
    closed_form_biharmonic_t: tuple[float, ...]
    singular_dims: tuple[int, int]
    discrepancy_notes: tuple[str, ...]


@lru_cache(maxsize=None)
def classify_type(action_type: str) -> ClassificationResult:
    """Classification of type ``action_type`` (results are cached)."""
    spec = action_spec(action_type)
    minimal_t = find_minimal(spec)
    report = spectrum_report(spec, minimal_t)
    biharmonic = tuple(find_biharmonic(spec))
    end_dims = (
        orbit_frame(spec, spec.t_range[0]).orbit_dim,
        orbit_frame(spec, spec.t_range[1]).orbit_dim,
    )

    record = action_record(action_type)
    notes: list[str] = []
    ref_min = record.minimal_t
    if abs(minimal_t - ref_min) > 1e-6:
        notes.append(
            f"minimal parameter {minimal_t!r} deviates from the closed-form "
            f"value {ref_min!r}"
        )
    ref_bi = record.biharmonic_t
    if len(biharmonic) != len(ref_bi) or any(
        abs(a - b) > 1e-6 for a, b in zip(biharmonic, ref_bi)
    ):
        notes.append(
            f"biharmonic parameters {biharmonic!r} deviate from the "
            f"closed-form values {ref_bi!r}"
        )
    if record.note is not None:
        notes.append(record.note(biharmonic))

    return ClassificationResult(
        action_type=action_type,
        minimal_t=minimal_t,
        minimal_s=minimal_t / spec.section_ratio,
        minimal_austere=report.austere,
        biharmonic_t=biharmonic,
        biharmonic_s=tuple(r / spec.section_ratio for r in biharmonic),
        closed_form_minimal_t=ref_min,
        closed_form_biharmonic_t=ref_bi,
        singular_dims=end_dims,
        discrepancy_notes=tuple(notes),
    )


def classify(spec: ActionSpec) -> ClassificationResult:
    """Classification of the action described by ``spec``."""
    return classify_type(spec.action_type)
