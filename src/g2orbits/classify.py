"""Closed-form curvature tables and the minimal / biharmonic classification.

For each action type the principal curvatures of the principal orbit admit
closed forms in the geodesic parameter t; this module evaluates them,
compares them against the numerically computed spectra, and locates the
distinguished parameters:

  * minimal orbits: zeros of the mean curvature,
  * proper biharmonic orbits: non-minimal parameters where the squared
    norm of the shape operator equals lambda = -B(xi, xi) = 4 Ric(xi, xi)
    in inner_g (8 on G2, 10 on SO(7); see ROADMAP item 1).

The roots come from one trigonometric interpolant per function.  H and
|A|^2 blow up at the singular parameters, so the functions interpolated are
f_H = w H and f_A = w^2 (|A|^2 - lambda), with the weight
w(t) = prod sin(t - s) over the singular parameters s taken mod pi without
repeats.  The geodesic generator X satisfies X^3 = -X, so g(t) = exp(tX)
is 2 pi-periodic with entries linear in cos t and sin t, and weighted, both
functions are trigonometric polynomials in t (of degree at most 4); the
kernel's values outside the principal window are those of principal orbits
of the same action, the analytic continuation of the window's.  The
interpolants sample the 2n points t_m = pi (2m + 1) / 2n, m = 0 .. 2n - 1,
of one period.  The even m are the n equispaced nodes and the odd m the
midpoints; for even n no t_m is a multiple of pi/2, where the singular
orbits of all four types lie.  The orbit space of a hyperpolar action of
cohomogeneity one is an interval, and every spec certifies the two
isometries that fold the period onto it (see :class:`ActionSpec`): g(pi)
normalises h, so H(t + pi) = H(t), and conjugation by sigma maps the orbit
at t onto the one at -t with the normal reversed, so H(-t) = -H(t); |A|^2
is even and pi-periodic.  As t_(m + n) = t_m + pi and t_(n - 1 - m) =
pi - t_m, one call of the frame kernel at the n/2 points of the first
quarter, in (0, pi/2), gives H and |A|^2 from the same shape operators for
both interpolants, and the other points are filled by index (the weight is
evaluated on the whole grid).  The coefficients c_k, |k| <= n/2
(the Nyquist term split in half), come from the FFT of the node values.  An
interpolant is accepted when its relative tail (largest |c_k| over
|k| > n/4, over the largest |c_k|) is at most 1e-9 and its midpoint defect
(largest |f - p| at the midpoints over the largest |f| at the nodes) is at
most 1e-8.  Each function keeps the first interpolant it accepts; n doubles
from 16 while one has none, and past 64 :class:`NoRootError` is raised.
With the coefficients at the rounding floor dropped, p has degree D and the
eigenvalues z of the companion matrix of the polynomial z^D p(z)
(``numpy.roots``) on the unit circle are its real roots t = arg z.  The
rows not yet accepted at an n share one FFT, so each function's roots and
tail are those of a pass over it alone, bit for bit.  Those that fall in
the window clipped 1e-4 away from singular endpoints, where the closed
forms blow up, are the roots found, and a root on a principal endpoint
(type III) is clipped onto it; an eigenvalue near the circle but off it,
or two close together (a double root or a close pair of roots, which
cannot be counted), raises :class:`NoRootError`.  At n = 16 these
roots are within 1.6e-15 of the closed forms, so they are not polished
(Boyd, J. Eng. Math. 56 (2006), on roots of trigonometric polynomials from
the companion matrix).
"""

from __future__ import annotations

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

#: Fourier nodes over one period of the first interpolant, and the most the
#: root finder tries before it gives up.
FOURIER_FIRST_N = 16
FOURIER_MAX_N = 64

#: Acceptance of an interpolant: relative coefficient tail and midpoint
#: defect.  Every type passes at n = 16, where they are at most 1.7e-15 and
#: 5.2e-15 (the weighted functions have degree at most 4).
FOURIER_TAIL_TOL = 1e-9
FOURIER_DEFECT_TOL = 1e-8

#: Coefficients at most this share of the largest are rounding and are
#: dropped before the companion matrix is formed (keeping them all moves
#: the roots by up to 4.2e-15; floors from 1e-14 to 1e-10 give the same
#: roots).
FOURIER_FLOOR = 1e3 * np.finfo(float).eps

#: Companion eigenvalues z with ||z| - 1| at most this are the real roots
#: t = arg z; roots this close to a window end are clipped onto it.
UNIT_TOL = 1e-9
END_TOL = 1e-9

#: A companion eigenvalue with UNIT_TOL < ||z| - 1| <= this, or with
#: ||z| - 1| <= this and another such eigenvalue at most this far away, is
#: a double root or a close pair and raises (the rounding splits a double
#: root into a pair about 1e-8 apart, in any direction).  Every root of the
#: four types is on the unit circle, at least 0.5 from any other.
NEAR_UNIT_TOL = 1e-3


@dataclass(frozen=True)
class RootDiagnostics:
    """How the roots of one weighted function were found.

    ``n`` is the number of Fourier nodes of the accepted interpolant,
    ``tail`` and ``defect`` the two quantities of its acceptance (see the
    module docstring), and ``evaluations`` the kernel evaluations
    (parameters t) of all the interpolants tried: n/2 for each n, the first
    quarter of its 2n grid points, onto which the rest fold.
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


def _fourier_roots(
    spec: ActionSpec, f, names: tuple[str, ...]
) -> list[tuple[list[float], RootDiagnostics]]:
    """The roots in the principal window of each function of ``names`` and
    how they were found, from the trigonometric interpolant over one period
    of its row of ``f`` (t -> stack of the functions); see the module
    docstring."""
    n, evaluations, accepted = FOURIER_FIRST_N, 0, {}
    while len(accepted) < len(names):
        # Odd multiples of pi / 2n: the even-numbered ones are the nodes,
        # the others the midpoints.
        ts = np.pi * np.arange(1, 4 * n, 2) / (2 * n)
        values = f(ts)
        evaluations += n // 2  # the kernel runs on the first quarter only
        k = np.arange(n // 2 + 1)
        rows = [row for row in range(len(names)) if row not in accepted]
        nodes, mids = values[rows, 0::2], values[rows, 1::2]
        # c_k for k >= 0 (c_-k is its conjugate); the nodes start at ts[0],
        # and the Nyquist term is split between k = +-n/2.
        coeffs = np.fft.rfft(nodes, axis=-1) * np.exp(-1j * k * ts[0]) / n
        coeffs[:, -1] /= 2.0
        sizes = np.abs(coeffs).max(axis=1)
        tails = np.abs(coeffs[:, n // 4 + 1:]).max(axis=1) / sizes
        basis = np.exp(1j * np.outer(ts[1::2], k))
        interpolated = 2.0 * (coeffs[:, None] * basis).sum(axis=-1).real - coeffs[:, :1].real
        defects = np.abs(interpolated - mids).max(axis=1) / np.abs(nodes).max(axis=1)
        for row, c, size, tail, defect in zip(rows, coeffs, sizes, tails, defects):
            if tail <= FOURIER_TAIL_TOL and defect <= FOURIER_DEFECT_TOL:
                c[np.abs(c) <= FOURIER_FLOOR * size] = 0.0
                accepted[row] = c, RootDiagnostics(n, float(tail), float(defect), evaluations)
            elif n >= FOURIER_MAX_N:
                raise NoRootError(
                    f"type {spec.action_type}: {names[row]} is not resolved by {n} Fourier "
                    f"nodes (tail {tail:.1e}, midpoint defect {defect:.1e})"
                )
        n *= 2

    lo, hi = principal_interval(spec)
    found = []
    for row, name in enumerate(names):
        coeffs, diag = accepted[row]
        degree = int(np.nonzero(coeffs)[0].max())
        # z^D p(z) = sum c_k z^(k + D), highest power first: c_D .. c_-D.
        z = np.roots(np.concatenate([coeffs[degree::-1], np.conj(coeffs[1:degree + 1])]))
        off = np.abs(np.abs(z) - 1.0)
        # each t + 2 pi j in the period that starts END_TOL below the window;
        # on the window (give or take END_TOL) if any copy is
        copies = lo - END_TOL + np.mod(np.angle(z) - lo + END_TOL, 2.0 * np.pi)
        near = off <= NEAR_UNIT_TOL
        crowded = (np.abs(z[near, None] - z[near]) <= NEAR_UNIT_TOL).sum(axis=1) > 1
        doubtful = copies[near][crowded | (off[near] > UNIT_TOL)]
        if len(doubtful):
            raise NoRootError(
                f"type {spec.action_type}: {name}: double root near t={doubtful[0]:.6g}"
            )
        t = copies[(off <= UNIT_TOL) & (copies <= hi + END_TOL)]
        t = np.where(t <= lo + END_TOL, lo, np.where(t >= hi - END_TOL, hi, t))
        found.append((np.sort(t).tolist(), diag))
    return found


def _classification_roots(spec: ActionSpec):
    """``find_minimal(spec), find_biharmonic(spec)`` from one Fourier pass
    that evaluates f_H and f_A on the same shape operators, at the first
    quarter of the grid (see the module docstring), and the minimal spectrum
    report (one frame block also gives the H of the |H| filter)."""
    def weighted(ts):
        # t_(m + n) = t_m + pi and t_(n - 1 - m) = pi - t_m on the grid of
        # _fourier_roots, so the kernel runs on its first quarter m < n/2
        # and the rest is filled by index: H(t + pi) = H(t), H(-t) = -H(t),
        # and |A|^2 is even and pi-periodic (certified by the spec).
        n = len(ts) // 2
        m = np.arange(2 * n) % n
        mirrored = m >= n // 2
        h, norm_sq = curvature_invariants(spec, ts[:n // 2])[:, np.where(mirrored, n - 1 - m, m)]
        w = singular_weight(spec, ts)
        return np.stack([w * np.where(mirrored, -h, h), w**2 * (norm_sq - spec.einstein_constant)])

    (minimal, h_diag), (roots, a_diag) = _fourier_roots(
        spec, weighted, ("w H", "w^2 (|A|^2 - lambda)")
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

    The root of the trigonometric interpolant of f_H = w H; a zero on a
    principal endpoint of the window (type III) is clipped onto it.
    """
    return _classification_roots(spec)[0]


def find_biharmonic(spec: ActionSpec) -> tuple[list[float], RootDiagnostics]:
    """All principal parameters where |shape|^2 equals the Einstein
    constant and the mean curvature does not vanish, and how they were
    found.

    The roots of the trigonometric interpolant of f_A = w^2 (|A|^2 - lambda)
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
