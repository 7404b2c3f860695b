"""Closed-form curvature tables and the minimal / biharmonic classification.

For each action type the principal curvatures of the principal orbit admit
closed forms in the geodesic parameter t; this module evaluates them,
compares them against the numerically computed spectra, and locates the
distinguished parameters:

  * minimal orbits: zeros of the mean curvature,
  * proper biharmonic orbits: non-minimal parameters where the squared
    norm of the shape operator equals lambda = -B(xi, xi) = 4 Ric(xi, xi)
    in inner_g (8 on G2, 10 on SO(7); see ROADMAP item 1).

The roots come from one Chebyshev series per function.  H and |A|^2 blow up
at the singular parameters, so the functions expanded are f_H = w H and
f_A = w^2 (|A|^2 - lambda), with the weight w(t) = prod sin(t - s) over the
singular parameters s taken mod pi without repeats.  The geodesic generator
X satisfies X^3 = -X, so g(t) = exp(tX) has entries linear in cos t and
sin t, and the kernel's values outside the principal window are those of
principal orbits of the same action, the analytic continuation of the
window's.  The orbit space of a hyperpolar action of cohomogeneity one is
an interval, and every spec certifies the two isometries that fold the
period onto it (see :class:`ActionSpec`): g(pi) normalises h, so
H(t + pi) = H(t), and conjugation by sigma maps the orbit at t onto the one
at -t with the normal reversed, so H(-t) = -H(t); |A|^2 is even and
pi-periodic.  Both functions are therefore even in t: series
sum c_k T_k(cos t) = sum c_k cos(k t) in y = cos t, of degree at most 4 and
of one parity (the weight fixes which).  One call of the frame kernel at the
8 Chebyshev-Gauss nodes t_m = pi (2m + 1) / 32 in (0, pi/2) gives H and
|A|^2 there, and H(pi - t) = -H(t), |A|^2(pi - t) = |A|^2(t) give them at
the other 8 nodes of (0, pi) (the weight is evaluated at all 16).  One
constant 16 x 16 DCT takes the 16 values of both functions to their c_k,
k < 16.  A function is accepted when its relative tail (largest |c_k| over
k > 4, over the largest |c_k|) and its parity defect (the largest of
c_0 .. c_4 of the other parity, over the largest |c_k|) are both at most
1e-9; otherwise :class:`NoRootError` names the function and the failed
check.  With z = cos 2t = T_2(y), an even series is the quadratic
(c_0 - c_4) + c_2 z + 2 c_4 z^2 and an odd one is y ((c_1 - c_3) + 2 c_3 z),
whose root y = 0 is t = pi/2.  The quadratic is solved in closed form
without cancellation; each root z in [-1, 1] is the pair t = arccos(z) / 2
and pi - t, a z within 1e-9 of -1 or 1 the single t = pi/2 or 0 (a simple
root in z there is a root of even order in t, fixed by the reflection), and
their copies mod pi that fall in the window clipped 1e-4 away from singular
endpoints, where the closed forms blow up, are the roots found; a root on a
principal endpoint (type III) is clipped onto it.  A root z near [-1, 1]
but off it (a near-zero discriminant), or two roots less than 1e-3 apart in
t (a double root or a close pair, which cannot be counted), raises
:class:`NoRootError`.  The roots of the four types are within 2e-15 of the
closed forms, so they are not polished (a root d away from 0 or pi/2, where
z is flat in t, moves by up to about 12 eps / d; Boyd, J. Eng. Math. 56
(2006), on rootfinding in the Chebyshev basis).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .actions import ActionRecord, action_record
from .orbits import (
    ACTION_TYPES,
    ActionSpec,
    _report,
    _shape_blocks,
    action_spec,
    curvature_invariants,
    mean_curvature,  # noqa: F401  (binding sites perfbench's tracer self-test wraps)
    orbit_frame,  # noqa: F401
    shape_norm_sq,  # noqa: F401
    spectrum_report,
)


class NoRootError(RuntimeError):
    """No root, not the expected number of roots, or a root function that
    fails its certificates."""


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


def _closed_form(record: ActionRecord, t: float) -> list[tuple[float, int]]:
    """The closed-form spectrum of ``record`` at a principal ``t``, sorted."""
    lo, hi = record.t_range
    if not lo < t <= hi or any(abs(t - s) < 1e-9 for s in record.singular_ts):
        raise ValueError(f"t={t} is outside the principal range of type {record.action_type}")
    return sorted(record.spectrum(t))


def closed_form_spectrum(action_type: str, t: float) -> list[tuple[float, int]]:
    """Principal curvatures with multiplicities, sorted ascending."""
    return _closed_form(action_record(action_type), t)


_SPECS = {ty: action_spec(ty) for ty in ACTION_TYPES}

#: Expected multiplicity multisets of the principal-orbit spectra.
EXPECTED_MULTIPLICITIES = {
    ty: tuple(m for _, m in s.spectrum(s.minimal_t)) for ty, s in _SPECS.items()
}

#: Closed-form parameters of the minimal principal orbit.
REFERENCE_MINIMAL_T = {ty: s.minimal_t for ty, s in _SPECS.items()}

#: Austere verdicts for the minimal principal orbits.
REFERENCE_AUSTERE = {ty: s.austere for ty, s in _SPECS.items()}

#: Closed-form parameters of the proper biharmonic principal orbits.
REFERENCE_BIHARMONIC_T = {ty: s.biharmonic_t for ty, s in _SPECS.items()}


#: The most a root may deviate from its closed-form value: beyond it
#: :func:`classify` writes a discrepancy note and the command line fails
#: the row.
PARAMETER_TOLERANCE = 1e-8

#: The Chebyshev-Gauss nodes t_m = pi (2m + 1) / 32 of (0, pi), and the DCT
#: that takes values there to the coefficients c_0 .. c_15 of the series
#: sum c_k cos(k t) that interpolates them.
CHEB_N = 16
CHEB_NODES = np.pi * np.arange(1, 2 * CHEB_N, 2) / (2 * CHEB_N)
_DCT = 2.0 / CHEB_N * np.cos(np.outer(np.arange(CHEB_N), CHEB_NODES))
_DCT[0] /= 2.0

#: Acceptance of a series: its relative tail beyond degree 4 and its parity
#: defect are each at most this.  Every type passes with both at most 2.1e-15.
SERIES_TOL = 1e-9

#: Roots z within this of [-1, 1] are real, and those within it of -1 or 1
#: the single t = pi/2 or 0; roots t this close to a window end are clipped
#: onto it.
UNIT_TOL = 1e-9
END_TOL = 1e-9

#: A root z with UNIT_TOL < distance from [-1, 1] <= this (a near-zero
#: discriminant, or a root just past -1 or 1), or two roots
#: t = arccos(z) / 2 (and pi/2 of an odd series) at most this apart, is a
#: double root or a close pair and raises.  Every root of the four types is
#: at least 0.5 from any other.
NEAR_UNIT_TOL = 1e-3


@dataclass(frozen=True)
class RootDiagnostics:
    """How the roots of one weighted function were found.

    ``n`` is the number of Chebyshev nodes, ``tail`` and ``defect`` the
    relative tail beyond degree 4 and the parity defect of its acceptance
    (see the module docstring), ``evaluations`` the kernel evaluations
    (parameters t), at the nodes in (0, pi/2) onto which the rest fold, and
    ``coefficients`` the certified c_0 .. c_4 of sum c_k T_k(cos t).
    """

    n: int
    tail: float
    defect: float
    evaluations: int
    coefficients: tuple[float, ...]


def singular_weight(spec: ActionSpec, t):
    """w(t) = prod sin(t - s) over the singular parameters s of ``spec``,
    taken mod pi without repeats (type IV's 0 and pi give one factor)."""
    shifts = np.unique(np.mod(spec.singular_ts, np.pi))
    return np.prod([np.sin(t - s) for s in shifts], axis=0)


def _quadratic_roots(a2: float, a1: float, a0: float) -> list[complex]:
    """The roots of a2 z^2 + a1 z + a0 (one if a2 = 0, none if also
    a1 = 0), from the quadratic formula without cancellation."""
    root = cmath.sqrt(a1 * a1 - 4.0 * a2 * a0)
    q = -0.5 * (a1 + root if a1 >= 0.0 else a1 - root)
    if not q:
        return [0j, 0j] if a2 else []
    return [a0 / q, q / a2] if a2 else [a0 / q]


def _chebyshev_roots(
    spec: ActionSpec, values: np.ndarray, names: tuple[str, ...]
) -> list[tuple[list[float], RootDiagnostics]]:
    """The roots in the principal window of each function of ``names`` and
    how they were found, from its row of ``values`` at :data:`CHEB_NODES`;
    see the module docstring."""
    lo, hi = principal_interval(spec)
    found = []
    # one product, summed per row: a row's c_k do not depend on the others
    for name, c in zip(names, (values[:, None, :] * _DCT).sum(axis=-1).tolist()):
        size = max(map(abs, c))
        even, odd = max(map(abs, c[0:5:2])), max(map(abs, c[1:5:2]))
        tail, defect = max(map(abs, c[5:])) / size, min(even, odd) / size
        for check, value in (("tail beyond degree 4", tail), ("parity defect", defect)):
            if not value <= SERIES_TOL:
                raise NoRootError(f"type {spec.action_type}: {name}: {check} {value:.1e}")
        c0, c1, c2, c3, c4 = c[:5]
        if even > odd:  # (c0 - c4) + c2 z + 2 c4 z^2 in z = cos 2t
            zs, reps = _quadratic_roots(2.0 * c4, c2, c0 - c4), []
        else:  # y ((c1 - c3) + 2 c3 z), and y = cos t = 0 at pi/2
            zs, reps = _quadratic_roots(0.0, 2.0 * c3, c1 - c3), [np.pi / 2]
        doubtful = []
        for z in zs:
            # one t = arccos(z) / 2 in [0, pi/2] per root z, with t and pi - t
            # both roots; off is the distance of z from [-1, 1]
            off = abs(complex(max(abs(z.real) - 1.0, 0.0), z.imag))
            x = min(max(z.real, -1.0), 1.0)
            t = 0.5 * math.acos(x) if abs(x) < 1.0 - UNIT_TOL else 0.0 if x > 0.0 else np.pi / 2
            if off <= UNIT_TOL:
                reps.append(t)
            elif off <= NEAR_UNIT_TOL:
                doubtful.append(t)
        reps.sort()
        doubtful += [a for a, b in zip(reps, reps[1:]) if b - a <= NEAR_UNIT_TOL]
        if doubtful:
            raise NoRootError(
                f"type {spec.action_type}: {name}: double root near t=+-{doubtful[0]:.6g} mod pi"
            )
        # each root's copy mod pi in the period that starts END_TOL below the
        # window; on the window (give or take END_TOL) if any copy is
        ts = [r for t in reps for r in ((t,) if t in (0.0, np.pi / 2) else (t, np.pi - t))]
        copies = sorted(lo - END_TOL + (t - lo + END_TOL) % np.pi for t in ts)
        roots = [lo if t <= lo + END_TOL else hi if t >= hi - END_TOL else t
                 for t in copies if t <= hi + END_TOL]
        found.append((roots, RootDiagnostics(CHEB_N, tail, defect, CHEB_N // 2, tuple(c[:5]))))
    return found


def _classification_roots(spec: ActionSpec):
    """``find_minimal(spec), find_biharmonic(spec)`` from one Chebyshev pass
    that evaluates f_H and f_A on the same shape operators, at the nodes in
    (0, pi/2) (see the module docstring), and the minimal spectrum report
    (one frame block also gives the H of the |H| filter)."""
    # t_(15 - m) = pi - t_m, so the kernel runs at the nodes m < 8 and the
    # rest is filled by index: H(pi - t) = -H(t) and |A|^2(pi - t) = |A|^2(t)
    # (certified by the spec).
    half = curvature_invariants(spec, CHEB_NODES[:CHEB_N // 2])
    h, norm_sq = np.concatenate([half, half[:, ::-1] * [[-1.0], [1.0]]], axis=1)
    w = singular_weight(spec, CHEB_NODES)
    (minimal, h_diag), (roots, a_diag) = _chebyshev_roots(
        spec,
        np.stack([w * h, w**2 * (norm_sq - spec.einstein_constant)]),
        ("f_H = w H", "f_A = w^2 (|A|^2 - lambda)"),
    )
    if len(minimal) != 1:
        raise NoRootError(
            f"type {spec.action_type}: expected one minimal parameter, found {minimal}"
        )
    ts = np.array([minimal[0], *roots])
    shapes = np.concatenate([block for _, block in _shape_blocks(spec, ts)])
    biharmonic = [r for r, s in zip(roots, shapes[1:]) if abs(np.trace(s)) > 1e-6]
    return (minimal[0], h_diag), (biharmonic, a_diag), _report(spec, ts[0], shapes[0], 1e-6)


def find_minimal(spec: ActionSpec) -> tuple[float, RootDiagnostics]:
    """The unique principal parameter with vanishing mean curvature, and
    how it was found.

    The root of the Chebyshev series of f_H = w H; a zero on a
    principal endpoint of the window (type III) is clipped onto it.
    """
    return _classification_roots(spec)[0]


def find_biharmonic(spec: ActionSpec) -> tuple[list[float], RootDiagnostics]:
    """All principal parameters where |shape|^2 equals the Einstein
    constant and the mean curvature does not vanish, and how they were
    found.

    The roots of the Chebyshev series of f_A = w^2 (|A|^2 - lambda)
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
    by :func:`spectrum_deviation` with the closed form and range of ``spec``
    itself.
    """
    report = spectrum_report(spec, t, cluster_tol=tol)
    reference = _closed_form(spec, t)
    return spectrum_deviation(spec.action_type, t, report.curvatures, reference)


@dataclass(frozen=True)
class ClassificationResult:
    """Distinguished orbits of one action, engine values beside closed forms,
    and the verdict: ``passed`` unless a root, the root count or the austere
    verdict disagrees with the references (each disagreement writes a note)."""

    action_type: str
    minimal_t: float
    minimal_s: float
    minimal_austere: bool
    closed_form_austere: bool
    biharmonic_t: tuple[float, ...]
    biharmonic_s: tuple[float, ...]
    closed_form_minimal_t: float
    closed_form_biharmonic_t: tuple[float, ...]
    minimal_deviation: float
    biharmonic_deviation: float
    passed: bool
    singular_dims: tuple[int, int]
    discrepancy_notes: tuple[str, ...]
    root_diagnostics: tuple[tuple[str, RootDiagnostics], ...]  # "f_H", "f_A"


def classify(spec: ActionSpec) -> ClassificationResult:
    """Classification of the action described by ``spec``, checked against
    the reference parameters the spec derives (see :mod:`g2orbits.orbits`)."""
    (minimal_t, minimal_diag), (roots, biharmonic_diag), report = _classification_roots(spec)
    biharmonic = tuple(roots)
    ref_min, ref_bi = spec.minimal_t, spec.biharmonic_t
    dev_min = abs(minimal_t - ref_min)
    dev_bi = max((abs(a - b) for a, b in zip(biharmonic, ref_bi)), default=0.0)

    notes: list[str] = []
    if dev_min > PARAMETER_TOLERANCE:
        notes.append(
            f"minimal parameter {minimal_t!r} deviates from the closed-form "
            f"value {ref_min!r}"
        )
    if report.austere != spec.austere:
        notes.append(
            f"austere verdict {report.austere} of the minimal orbit disagrees with "
            f"the closed-form verdict {spec.austere}"
        )
    if len(biharmonic) != len(ref_bi) or dev_bi > PARAMETER_TOLERANCE:
        notes.append(
            f"biharmonic parameters {biharmonic!r} deviate from the "
            f"closed-form values {ref_bi!r}"
        )
    passed = not notes
    if spec.note is not None:
        notes.append(spec.note(biharmonic))
    codims = dict(zip(spec.singular_ts, spec.singular_codims))

    return ClassificationResult(
        action_type=spec.action_type,
        minimal_t=minimal_t,
        minimal_s=minimal_t / spec.section_ratio,
        minimal_austere=report.austere,
        closed_form_austere=spec.austere,
        biharmonic_t=biharmonic,
        biharmonic_s=tuple(r / spec.section_ratio for r in biharmonic),
        closed_form_minimal_t=ref_min,
        closed_form_biharmonic_t=ref_bi,
        minimal_deviation=dev_min,
        biharmonic_deviation=dev_bi,
        passed=passed,
        singular_dims=tuple(spec.ambient.dim - codims.get(end, 1) for end in spec.t_range),
        discrepancy_notes=tuple(notes),
        root_diagnostics=(("f_H", minimal_diag), ("f_A", biharmonic_diag)),
    )


@lru_cache(maxsize=None)
def classify_type(action_type: str) -> ClassificationResult:
    """Classification of type ``action_type`` (results are cached)."""
    return classify(action_spec(action_type))
