"""One record per action type: every hand-entered fact that differs
between II-V.

An :class:`ActionRecord` holds the data of the geometry (subalgebra names
of the ambient algebra, H and K; V4 coefficients of the geodesic and
section generators; the parameter range, its singular ends and the section
ratio t = ratio * s), the constant lambda of the biharmonic equation
|A|^2 = lambda, closed forms in t of the principal curvatures (the only
closed form of the shape operator: H and |A|^2 are its first and second
moments), the austere verdict of the minimal orbit, the orbit-reversing
isometry x -> a x^eps b of types III and IV as the data (a, eps, b) that
:func:`g2orbits.orbits.verify_reflection` certifies, and the note on the
tan^2 reading of the type V biharmonic parameters.
:class:`g2orbits.orbits.ActionSpec` takes exactly these fields and derives
everything else from them: the subalgebras and generators, the codimensions
of the singular orbits, and the minimal and biharmonic parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .triality import SIGMA

_R6 = np.sqrt(6.0)
_R2 = np.sqrt(2.0)
_HALF_PI = np.pi / 2.0


def _cot(t: float) -> float:
    return np.cos(t) / np.sin(t)


def _pair(x: float, mult: int) -> list[tuple[float, int]]:
    """The curvatures (-3 sqrt2 x +/- sqrt(18 x^2 + 16)) / (4 sqrt6), each
    of multiplicity ``mult``, that the SO(7) actions share."""
    return [
        ((-3 * _R2 * x + sgn * np.sqrt(18 * x * x + 16)) / (4 * _R6), mult)
        for sgn in (1.0, -1.0)
    ]


def _spectrum_ii(t: float) -> list[tuple[float, int]]:
    tn, ct = np.tan(t), _cot(t)
    th, ch = np.tan(t / 2), _cot(t / 2)
    ev = [(0.0, 3), (th / _R6, 1), (-ch / _R6, 1)]
    for sgn in (1.0, -1.0):
        ev.append(((2 * tn + sgn * np.sqrt(4 * tn * tn + 3)) / (2 * _R6), 2))
        ev.append(((-2 * ct + sgn * np.sqrt(4 * ct * ct + 3)) / (2 * _R6), 2))
    return ev


def _note_v(biharmonic: tuple[float, ...]) -> str:
    targets = ((16 - np.sqrt(211.0)) / 3, (16 + np.sqrt(211.0)) / 3)
    residuals = [f"{abs(np.tan(r) ** 2 - target):.2e}" for r, target in zip(biharmonic, targets)]
    unsquared = [float(np.arctan(target)) for target in targets]
    return (
        "type V biharmonic parameters satisfy tan(t)^2 = (16 -/+ sqrt(211))/3 "
        f"(residuals {', '.join(residuals)}); the unsquared "
        f"reading tan(t) = (16 -/+ sqrt(211))/3 would give t = "
        f"{unsquared[0]:.12f}, {unsquared[1]:.12f} and is inconsistent with "
        "|shape|^2 = 10 there"
    )


@dataclass(frozen=True)
class ActionRecord:
    """Every per-type fact of one action (see the module docstring)."""

    action_type: str
    ambient_name: str  # subalgebra names, see triality.named_subalgebra
    h_name: str
    k_name: str
    einstein_constant: float
    geodesic: tuple[float, float, float]  # generator V4(lambda, mu, nu)
    section: tuple[float, float, float]  # section generator V4(lambda, mu, nu)
    t_range: tuple[float, float]
    section_ratio: float
    singular_ts: tuple[float, ...]
    spectrum: Callable[[float], list[tuple[float, int]]]  # (value, multiplicity)
    austere: bool  # verdict at the minimal orbit
    # (t -> g(t)) -> (a, eps, b) of the isometry x -> a x^eps b
    reflection: Callable[[Callable], tuple[np.ndarray, int, np.ndarray]] | None = None
    note: Callable[[tuple[float, ...]], str] | None = None  # biharmonic t -> note


ACTIONS = {
    record.action_type: record
    for record in (
        ActionRecord(
            action_type="II", ambient_name="g2", h_name="so4_g2", k_name="su3",
            einstein_constant=8.0, geodesic=(1, -1, 0), section=(2, -1, -1),
            t_range=(0.0, _HALF_PI), section_ratio=2.0, singular_ts=(0.0, _HALF_PI),
            spectrum=_spectrum_ii,
            austere=False,
        ),
        ActionRecord(
            action_type="III", ambient_name="so7", h_name="g2", k_name="g2",
            einstein_constant=10.0, geodesic=(1, 0, 1), section=(1, 1, 1),
            t_range=(0.0, _HALF_PI), section_ratio=1.5, singular_ts=(0.0,),
            spectrum=lambda t: [(0.0, 8)] + _pair(_cot(t), 6),
            austere=True,
            reflection=lambda g: (g(np.pi), -1, np.eye(8)),
        ),
        ActionRecord(
            action_type="IV", ambient_name="so7", h_name="so3_so4", k_name="g2",
            einstein_constant=10.0, geodesic=(1, 0, 0), section=(1, 1, 1),
            t_range=(0.0, np.pi), section_ratio=3.0, singular_ts=(0.0, np.pi),
            spectrum=lambda t: [(0.0, 8)] + _pair(_cot(t / 2), 3) + _pair(-np.tan(t / 2), 3),
            austere=True,
            reflection=lambda g: (g(_HALF_PI) @ SIGMA @ g(-_HALF_PI), 1, SIGMA),
        ),
        ActionRecord(
            action_type="V", ambient_name="so7", h_name="u3", k_name="g2",
            einstein_constant=10.0, geodesic=(0, 1, 1), section=(1, 1, 1),
            t_range=(0.0, _HALF_PI), section_ratio=1.5, singular_ts=(0.0, _HALF_PI),
            spectrum=lambda t: [(0.0, 8)] + _pair(_cot(t), 5) + _pair(-np.tan(t), 1),
            austere=False,
            note=_note_v,
        ),
    )
}


def action_record(action_type: str) -> ActionRecord:
    """The record of one of the action types II, III, IV, V."""
    try:
        return ACTIONS[action_type]
    except KeyError:
        raise ValueError(f"unknown action type {action_type!r}") from None
