"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import numpy as np

from g2orbits import verify
from g2orbits.classify import (
    EXPECTED_MULTIPLICITIES,
    REFERENCE_AUSTERE,
    REFERENCE_BIHARMONIC_T,
    REFERENCE_MINIMAL_T,
    classify_type,
    closed_form_spectrum,
    compare_spectra,
)
from g2orbits.linalg import v_elem, zeta
from g2orbits.octonion import basis_element
from g2orbits.orbits import (
    action_spec,
    mean_curvature,
    orbit_frame,
    shape_operator,
    verify_reflection,
)
from g2orbits.triality import rp7_invariant, spin_lift_exp

from util import MEAN_CURVATURE, random_lifted_g2

ALL_TYPES = ("II", "III", "IV", "V")


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_algebra_suite():
    results = verify.run_all(seed=0)
    ok = all(r.passed for r in results)
    _report(
        "criterion 1: algebra suite (basis products, composition, bracket "
        "rules, involutions, subalgebra dims)",
        ok,
        "; ".join(f"{r.name}: {'ok' if r.passed else 'FAIL'}" for r in results),
    )


def test_criterion_2_section_formulas():
    rng = np.random.default_rng(2)
    cases = [
        ("III generator", v_elem(4, 1, 0, 1), 1.0),
        ("IV generator", v_elem(4, 1, 0, 0), 0.5),
        ("V generator", v_elem(4, 0, 1, 1), 1.0),
        ("section generator", zeta(4), 1.5),
    ]
    worst = 0.0
    for _, gen, angle in cases:
        for t in rng.uniform(-np.pi, np.pi, size=20):
            v = spin_lift_exp(gen, t).g2 @ basis_element(0)
            expected = np.zeros(8)
            expected[0] = np.cos(angle * t)
            expected[4] = np.sin(angle * t)
            worst = max(worst, float(np.abs(v - expected).max()))
    _report(
        "criterion 2: spin lifts reproduce the four section curves",
        worst < 1e-10,
        f"worst deviation {worst:.2e} over 80 samples",
    )


def test_criterion_3_orbit_dimensions():
    profiles = {
        "II": ([0.0, np.pi / 2], 10, 13, 11, [0.35, 0.8, 1.2]),
        "III": ([0.0, np.pi / 2], 14, 20, 20, [0.5, 0.9, 1.4]),
        "IV": ([0.0, np.pi], 17, 20, 17, [0.8, 1.6, 2.4]),
        "V": ([0.0, np.pi / 2], 15, 20, 19, [0.4, 0.8, 1.3]),
    }
    ok = True
    details = []
    for ty, (ends, lo_dim, mid_dim, hi_dim, interior) in profiles.items():
        spec = action_spec(ty)
        dims = [orbit_frame(spec, t).orbit_dim for t in ends]
        mids = [orbit_frame(spec, t).orbit_dim for t in interior]
        good = dims == [lo_dim, hi_dim] and mids == [mid_dim] * 3
        ok &= good
        details.append(f"{ty}: ends {dims}, interior {mids}")
    _report("criterion 3: orbit dimensions match the dimension profile", ok,
            "; ".join(details))


def test_criterion_4_spectrum_fidelity():
    rng = np.random.default_rng(4)
    ok = True
    worst = 0.0
    for ty in ALL_TYPES:
        spec = action_spec(ty)
        lo, hi = spec.t_range
        span = hi - lo
        for t in rng.uniform(lo + 0.02 * span, hi - 0.02 * span, size=20):
            deviation = compare_spectra(spec, float(t))
            worst = max(worst, deviation)
            ok &= deviation < 1e-8
            reference = closed_form_spectrum(ty, float(t))
            ok &= sorted(m for _, m in reference) == sorted(
                EXPECTED_MULTIPLICITIES[ty]
            )
    _report(
        "criterion 4: spectra match closed forms with exact multiplicities",
        ok,
        f"worst deviation {worst:.2e} over 80 spectra",
    )


def test_criterion_5_mean_curvature_closed_forms():
    rng = np.random.default_rng(5)
    ok = True
    worst = 0.0
    for ty in ALL_TYPES:
        spec = action_spec(ty)
        lo, hi = spec.t_range
        span = hi - lo
        for t in rng.uniform(lo + 0.02 * span, hi - 0.02 * span, size=20):
            deviation = abs(mean_curvature(spec, float(t)) - MEAN_CURVATURE[ty](float(t)))
            worst = max(worst, deviation)
            ok &= deviation < 1e-8
    identity_worst = max(
        abs(
            (2 / np.sqrt(6.0)) * (-2 / np.tan(t) + np.tan(t) - 2 / np.tan(2 * t))
            - (4 * np.tan(t) - 6 / np.tan(t)) / np.sqrt(6.0)
        )
        for t in rng.uniform(0.1, np.pi / 2 - 0.1, size=20)
    )
    ok &= identity_worst < 1e-8
    _report(
        "criterion 5: mean curvature closed forms (incl. type II identity)",
        ok,
        f"worst engine deviation {worst:.2e}, identity deviation {identity_worst:.2e}",
    )


def test_criterion_6_minimal_parameters():
    ok = True
    details = []
    for ty in ALL_TYPES:
        res = classify_type(ty)
        deviation = abs(res.minimal_t - REFERENCE_MINIMAL_T[ty])
        good = deviation < 1e-8 and res.minimal_austere == REFERENCE_AUSTERE[ty]
        ok &= good
        details.append(f"{ty}: dev {deviation:.1e}, austere {res.minimal_austere}")
    _report("criterion 6: minimal parameters and austere verdicts", ok,
            "; ".join(details))


def test_criterion_7_biharmonic_parameters():
    ok = True
    details = []
    for ty in ALL_TYPES:
        res = classify_type(ty)
        refs = REFERENCE_BIHARMONIC_T[ty]
        good = len(res.biharmonic_t) == len(refs)
        deviation = 0.0
        if good:
            deviation = max(abs(a - b) for a, b in zip(res.biharmonic_t, refs))
            good = deviation < 1e-8
        ok &= good
        details.append(f"{ty}: {len(res.biharmonic_t)} roots, dev {deviation:.1e}")
    res_v = classify_type("V")
    targets = sorted(((16 - np.sqrt(211.0)) / 3, (16 + np.sqrt(211.0)) / 3))
    squared_dev = max(
        abs(np.tan(r) ** 2 - target)
        for r, target in zip(res_v.biharmonic_t, targets)
    )
    note_emitted = any("unsquared" in n for n in res_v.discrepancy_notes)
    ok &= squared_dev < 1e-8 and note_emitted
    _report(
        "criterion 7: biharmonic parameters (V squared reading + note)",
        ok,
        "; ".join(details) + f"; V tan^2 dev {squared_dev:.1e}, note {note_emitted}",
    )


def test_criterion_8_totally_geodesic_and_reflections():
    spec3 = action_spec("III")
    frame = orbit_frame(spec3, 0.0)
    geodesic_worst = max(
        float(np.abs(shape_operator(spec3, 0.0, n, frame=frame)).max())
        for n in frame.normal.basis
    )
    reflections = verify_reflection(spec3) and verify_reflection(action_spec("IV"))
    spec2 = action_spec("II")
    ii_floor = min(
        max(
            float(np.abs(shape_operator(spec2, t, n, frame=fr)).max())
            for n in fr.normal.basis
        )
        for t, fr in ((t, orbit_frame(spec2, t)) for t in (0.0, np.pi / 2))
    )
    ok = geodesic_worst < 1e-9 and reflections and ii_floor > 1e-3
    _report(
        "criterion 8: totally geodesic / reflection / non-geodesic checks",
        ok,
        f"III t=0 max |S| {geodesic_worst:.1e}; reflections {reflections}; "
        f"II singular max entry {ii_floor:.2e}",
    )


def test_criterion_9_rp7_invariant():
    rng = np.random.default_rng(9)
    gen = action_spec("III").geodesic_generator
    worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.0, np.pi / 2))
        point = random_lifted_g2(rng) @ spin_lift_exp(gen, t) @ random_lifted_g2(rng)
        worst = max(worst, abs(rp7_invariant(point) - abs(np.cos(t))))
    _report(
        "criterion 9: RP7 level function constant on type III orbits",
        worst < 1e-10,
        f"worst deviation {worst:.2e} over 100 products",
    )
