"""Closed-form curvature tables and the minimal / biharmonic classification.

For each action type the principal curvatures of the principal orbit admit
closed forms in the geodesic parameter t; this module evaluates them,
compares them against the numerically computed spectra, and locates the
distinguished parameters:

  * minimal orbits: zeros of the mean curvature,
  * proper biharmonic orbits: non-minimal parameters where the squared
    norm of the shape operator equals the Einstein constant of the
    ambient metric (8 on G2, 10 on SO(7)).

The roots come from one Chebyshev interpolant per function.  H and |A|^2
blow up at the singular ends of the window, so the functions interpolated
are f_H = w H and f_A = w^2 (|A|^2 - lambda), with the weight
w(t) = prod sin(t - s) over the singular parameters s taken mod pi without
repeats; weighted, both are analytic on the closed window t_range.  One
kernel pass serves both interpolants: each call of the frame kernel gives
H and |A|^2 from the same shape operators at n first-kind Chebyshev points
and the n - 1 interleaved midpoints.  An interpolant is accepted when its
relative tail (largest of the last n/4 coefficients over the largest
coefficient) is at most 1e-9 and its midpoint defect (largest |f - p| at
the midpoints over the largest |f| at the nodes) is at most 1e-8.  Each
function keeps the first interpolant it accepts; n doubles from 32 while
one has none, and past 256 :class:`NoRootError` is raised.  The roots are
the real eigenvalues of the colleague matrix (``chebroots``) that fall in
the window clipped 1e-4 away from singular endpoints, where the closed
forms blow up, and a root on a principal endpoint (type III) is clipped
onto it; a nearly real pair of eigenvalues (a double root or a close pair
of roots, which cannot be counted) raises :class:`NoRootError`.
At n = 32 these roots are within 3.2e-15 of the closed forms, so they are
not polished (Trefethen, Approximation Theory and Approximation Practice,
ch. 18; Boyd, SIAM J. Numer. Anal. 40 (2002)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .actions import ACTIONS, action_record
from .orbits import (
    ActionSpec,
    action_spec,
    curvature_invariants,
    mean_curvature,
    orbit_frame,
    shape_norm_sq,  # noqa: F401  (a binding site perfbench's tracer self-test wraps)
    spectrum_report,
)


class NoRootError(RuntimeError):
    """No root, not the expected number of roots, or no interpolant that
    resolves the root function."""


class StructuralMismatchError(ValueError):
    """Engine and closed-form spectra disagree on multiplicities."""

    def __init__(self, message: str, engine, reference):
        super().__init__(message)
        self.engine = engine
        self.reference = reference


def principal_interval(spec: ActionSpec) -> tuple[float, float]:
    """The scanned parameter window, clipped 1e-4 away from singular
    endpoints."""
    lo, hi = spec.t_range
    if any(abs(lo - s) < 1e-12 for s in spec.singular_ts):
        lo += 1e-4
    if any(abs(hi - s) < 1e-12 for s in spec.singular_ts):
        hi -= 1e-4
    return lo, hi


def _check_in_range(action_type: str, t: float):
    record = action_record(action_type)
    lo, hi = record.t_range
    inside = lo < t <= hi
    near_singular = any(abs(t - s) < 1e-9 for s in record.singular_ts)
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


#: The most a root may deviate from its closed-form value: beyond it
#: :func:`classify` writes a discrepancy note and the command line fails
#: the row.
PARAMETER_TOLERANCE = 1e-8

#: First-kind Chebyshev points of the first interpolant, and the most the
#: root finder tries before it gives up.
CHEB_FIRST_N = 32
CHEB_MAX_N = 256

#: Acceptance of an interpolant: relative coefficient tail and midpoint
#: defect.  The engine's error grows near the singular ends, so neither falls
#: to machine precision, and both rise as more points crowd the ends (type
#: II's f_A: 6.6e-15 and 2.1e-13 at n = 32, 5.3e-14 and 4.8e-12 at
#: n = 128).  The bounds stay well above that floor; every type passes at
#: n = 32.
CHEB_TAIL_TOL = 1e-9
CHEB_DEFECT_TOL = 1e-8

#: Colleague-matrix eigenvalues with at most this imaginary part count as
#: real; roots this close to a window end are clipped onto it.
IMAG_TOL = 1e-9
END_TOL = 1e-9

#: A colleague eigenvalue with |Re| <= 1 and IMAG_TOL < |Im| <= this is a
#: double root or a close pair and raises (all four types have |Im| >= 1.26).
NEAR_REAL_TOL = 1e-3


@dataclass(frozen=True)
class RootDiagnostics:
    """How the roots of one weighted function were found.

    ``n`` is the number of first-kind Chebyshev points of the accepted
    interpolant, ``tail`` and ``defect`` the two quantities of its
    acceptance (see the module docstring), and ``evaluations`` the kernel
    evaluations (parameters t) of all the interpolants tried.
    """

    n: int
    tail: float
    defect: float
    evaluations: int


def singular_weight(spec: ActionSpec, t):
    """w(t) = prod sin(t - s) over the singular parameters s of ``spec``,
    taken mod pi without repeats (type IV's 0 and pi give one factor)."""
    shifts = np.unique(np.mod(spec.singular_ts, np.pi))
    return np.prod([np.sin(t - s) for s in shifts], axis=0)


def _chebyshev_roots(
    spec: ActionSpec, f, names: tuple[str, ...]
) -> list[tuple[list[float], RootDiagnostics]]:
    """The roots in the principal window of each function of ``names`` and
    how they were found, from the Chebyshev interpolant over t_range of its
    row of ``f`` (t -> stack of the functions); see the module docstring."""
    lo, hi = spec.t_range
    n, evaluations, accepted = CHEB_FIRST_N, 0, {}
    while len(accepted) < len(names):
        # Odd multiples of pi / 2n are the nodes, even ones the midpoints.
        theta = np.pi * np.arange(1, 2 * n) / (2 * n)
        ts = lo + 0.5 * (hi - lo) * (1.0 + np.cos(theta))
        values = f(ts)
        evaluations += len(ts)
        k = np.arange(n)
        for row in [row for row in range(len(names)) if row not in accepted]:
            nodes, mids = values[row, 0::2], values[row, 1::2]
            coeffs = np.cos(np.outer(k, theta[0::2])) @ nodes * (2.0 / n)
            coeffs[0] /= 2.0
            tail = float(np.abs(coeffs[-(n // 4):]).max() / np.abs(coeffs).max())
            interpolated = np.cos(np.outer(theta[1::2], k)) @ coeffs
            defect = float(np.abs(interpolated - mids).max() / np.abs(nodes).max())
            if tail <= CHEB_TAIL_TOL and defect <= CHEB_DEFECT_TOL:
                accepted[row] = coeffs, RootDiagnostics(n, tail, defect, evaluations)
            elif n >= CHEB_MAX_N:
                raise NoRootError(
                    f"type {spec.action_type}: {names[row]} is not resolved by {n} Chebyshev "
                    f"points (tail {tail:.1e}, midpoint defect {defect:.1e})"
                )
        n *= 2
    # Loaded on first use: importing all of numpy.polynomial with the
    # package would add about a tenth to its import and spec set-up time.
    from numpy.polynomial.chebyshev import chebroots

    window_lo, window_hi = principal_interval(spec)
    found = []
    for row, name in enumerate(names):
        coeffs, diag = accepted[row]
        x = chebroots(coeffs)
        imag = np.abs(x.imag)
        near = (np.abs(x.real) <= 1.0) & (IMAG_TOL < imag) & (imag <= NEAR_REAL_TOL)
        if np.any(near):
            t = lo + 0.5 * (hi - lo) * (1.0 + x.real[near][0])
            raise NoRootError(f"type {spec.action_type}: {name}: double root near t={t:.6g}")
        roots: list[float] = []
        for t in lo + 0.5 * (hi - lo) * (1.0 + x.real[imag <= IMAG_TOL]):
            if not window_lo - END_TOL <= t <= window_hi + END_TOL:
                continue
            if t <= window_lo + END_TOL:
                t = window_lo
            elif t >= window_hi - END_TOL:
                t = window_hi
            if all(abs(t - seen) > 1e-9 for seen in roots):
                roots.append(float(t))
        found.append((sorted(roots), diag))
    return found


def _classification_roots(spec: ActionSpec):
    """``find_minimal(spec), find_biharmonic(spec)`` from one Chebyshev pass
    that evaluates f_H and f_A on the same shape operators."""
    def weighted(ts):
        (h, norm_sq), w = curvature_invariants(spec, ts), singular_weight(spec, ts)
        return np.stack([w * h, w**2 * (norm_sq - spec.einstein_constant)])

    (minimal, h_diag), (roots, a_diag) = _chebyshev_roots(
        spec, weighted, ("w H", "w^2 (|A|^2 - lambda)")
    )
    if len(minimal) != 1:
        raise NoRootError(
            f"type {spec.action_type}: expected one minimal parameter, found {minimal}"
        )
    non_minimal = np.abs(mean_curvature(spec, roots)) > 1e-6
    return (minimal[0], h_diag), ([r for r, keep in zip(roots, non_minimal) if keep], a_diag)


def find_minimal(spec: ActionSpec) -> tuple[float, RootDiagnostics]:
    """The unique principal parameter with vanishing mean curvature, and
    how it was found.

    The root of the Chebyshev interpolant of f_H = w H; a zero on a
    principal endpoint of the window (type III) is clipped onto it.
    """
    return _classification_roots(spec)[0]


def find_biharmonic(spec: ActionSpec) -> tuple[list[float], RootDiagnostics]:
    """All principal parameters where |shape|^2 equals the Einstein
    constant and the mean curvature does not vanish, and how they were
    found.

    The roots of the Chebyshev interpolant of f_A = w^2 (|A|^2 - lambda)
    that have |H| > 1e-6 (f_H must have one root, as in :func:`find_minimal`).
    """
    return _classification_roots(spec)[1]


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
    root_diagnostics: tuple[tuple[str, RootDiagnostics], ...]  # "f_H", "f_A"


def classify(spec: ActionSpec) -> ClassificationResult:
    """Classification of the action described by ``spec``."""
    (minimal_t, minimal_diag), (roots, biharmonic_diag) = _classification_roots(spec)
    report = spectrum_report(spec, minimal_t)
    biharmonic = tuple(roots)
    end_dims = (
        orbit_frame(spec, spec.t_range[0]).orbit_dim,
        orbit_frame(spec, spec.t_range[1]).orbit_dim,
    )

    notes: list[str] = []
    ref_min = spec.minimal_t
    if abs(minimal_t - ref_min) > PARAMETER_TOLERANCE:
        notes.append(
            f"minimal parameter {minimal_t!r} deviates from the closed-form "
            f"value {ref_min!r}"
        )
    ref_bi = spec.biharmonic_t
    if len(biharmonic) != len(ref_bi) or any(
        abs(a - b) > PARAMETER_TOLERANCE for a, b in zip(biharmonic, ref_bi)
    ):
        notes.append(
            f"biharmonic parameters {biharmonic!r} deviate from the "
            f"closed-form values {ref_bi!r}"
        )
    if spec.note is not None:
        notes.append(spec.note(biharmonic))

    return ClassificationResult(
        action_type=spec.action_type,
        minimal_t=minimal_t,
        minimal_s=minimal_t / spec.section_ratio,
        minimal_austere=report.austere,
        biharmonic_t=biharmonic,
        biharmonic_s=tuple(r / spec.section_ratio for r in biharmonic),
        closed_form_minimal_t=ref_min,
        closed_form_biharmonic_t=ref_bi,
        singular_dims=end_dims,
        discrepancy_notes=tuple(notes),
        root_diagnostics=(("f_H", minimal_diag), ("f_A", biharmonic_diag)),
    )


@lru_cache(maxsize=None)
def classify_type(action_type: str) -> ClassificationResult:
    """Classification of type ``action_type`` (results are cached)."""
    return classify(action_spec(action_type))
