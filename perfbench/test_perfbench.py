"""Tests of the benchmark itself: tracing, call counts, gates, metric names."""

import json
import math
import signal
import sys
import time
from types import SimpleNamespace

import pytest

import harness
from tracer import Tracer, _package_modules

engine = harness.load_engine()


def _bindings():
    return {
        (module.__name__, attr): value
        for module in _package_modules()
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_wrappers_cover_copied_names_and_restore_originals():
    before = _bindings()
    tracer = Tracer()
    try:
        wrapped = tracer.install(harness.LAYERS)
        assert sorted(wrapped) == sorted(harness.LAYERS)
        # Names copied by ``from .linalg import ...`` are binding sites too.
        for module, attr in [
            ("orbits", "expm"),
            ("orbits", "orthonormalize"),
            ("linalg", "orthonormalize"),
            ("orbits", "sym_eigen"),
            ("classify", "mean_curvature"),
            ("classify", "shape_norm_sq"),
            ("classify", "orbit_frame"),
        ]:
            name = f"g2orbits.{module}"
            assert getattr(sys.modules[name], attr) is not before[(name, attr)]
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_self_time_is_span_minus_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("op"):  # starts at 0
        with tracer.span("child"):  # 1 .. 2
            pass
        with tracer.span("child"):  # 3 .. 4
            pass
    summary = tracer.summary()  # op ends at 5
    assert summary["op"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert summary["child"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert [record[1] for record in tracer.spans] == [-1, 0, 0]


def _traced_calls(fn):
    tracer = Tracer()
    try:
        tracer.install(harness.LAYERS)
        with tracer.span("op"):
            fn()
    finally:
        tracer.uninstall()
    return {name: entry["calls"] for name, entry in tracer.summary().items()}


@pytest.mark.parametrize(
    "operation",
    [
        lambda: sys.modules["g2orbits.classify"].find_minimal(engine.action_spec("II")),
        lambda: harness.run_op("scan_dense", engine, ("IV", 1.234)),
        lambda: harness.run_op("algebra", engine, 7),
    ],
    ids=["find_minimal_II", "scan_IV", "algebra"],
)
def test_call_counts_repeat_exactly(operation):
    operation()  # fills the lazy spec and subalgebra caches
    first = _traced_calls(operation)
    assert first == _traced_calls(operation)
    assert sum(first.values()) > 1


def test_gates_pass_on_reference_values():
    ref = harness.reference("IV")
    result = SimpleNamespace(
        minimal_t=ref.minimal_t,
        biharmonic_t=ref.biharmonic_t,
        minimal_austere=ref.austere,
        singular_dims=ref.singular_dims,
    )
    outcome = harness.gate_classification(result, ref)
    assert outcome.ok and outcome.roots == 3 and outcome.deviation == 0.0
    assert harness.run_op("scan_dense", engine, ("II", 0.6)).ok
    assert harness.run_op("algebra", engine, 3).ok


def test_gates_report_failure_for_wrong_reference():
    ref = harness.reference("II")
    result = SimpleNamespace(
        minimal_t=ref.minimal_t,
        biharmonic_t=ref.biharmonic_t,
        minimal_austere=ref.austere,
        singular_dims=ref.singular_dims,
    )
    wrong = [
        ref.__class__(ref.minimal_t + 1e-6, ref.biharmonic_t, ref.austere, ref.singular_dims),
        ref.__class__(ref.minimal_t, ref.biharmonic_t[:1], ref.austere, ref.singular_dims),
        ref.__class__(ref.minimal_t, ref.biharmonic_t, not ref.austere, ref.singular_dims),
        ref.__class__(ref.minimal_t, ref.biharmonic_t, ref.austere, (10, 12)),
    ]
    for bad in wrong:
        assert not harness.gate_classification(result, bad).ok

    t = 0.6
    engine_curvatures = engine.spectrum_report(engine.action_spec("II"), t).curvatures
    closed = engine.closed_form_spectrum("II", t)
    shifted = [(v + 1e-6 * (i == 2), m) for i, (v, m) in enumerate(closed)]
    merged = closed[:-2] + [(closed[-1][0], closed[-2][1] + closed[-1][1])]
    assert harness.gate_spectrum(engine_curvatures, closed).ok
    assert not harness.gate_spectrum(engine_curvatures, shifted).ok
    assert not harness.gate_spectrum(engine_curvatures, merged).ok

    checks = engine.verify.run_all(0)
    broken = checks[:-1] + [checks[-1].__class__(checks[-1].name, False, checks[-1].detail)]
    assert not harness.gate_checks(broken).ok
    silent = [check.__class__(check.name, True, "no numbers") for check in checks]
    assert not harness.gate_checks(silent).ok


def test_exceptions_count_as_failed_operations():
    outcome = harness.run_op("scan_dense", engine, ("II", math.pi))
    assert not outcome.ok and "Error" in outcome.note


def test_metric_names_match_benchmark_json():
    declared = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    sample = harness.Sample(
        [0.1, 0.2, 0.3], [harness.Outcome(True, 1e-12)] * 3, 0.6,
        rounds=[3], loop_s=[harness.CALIBRATION_REF_S] * 3,
        setup=[0.2], setup_loop_s=[harness.CALIBRATION_REF_S],
    )
    e2e = harness.end_to_end_metrics(sample)
    layers = harness.layer_metrics({}, roots=0, overhead_share=0.0)
    for section, emitted in (("end_to_end", e2e), ("per_layer", layers)):
        assert {m["name"]: m["unit"] for m in declared[section]} == {
            name: unit for name, (_, unit) in emitted.items()
        }
    assert {w["name"] for w in declared["workloads"]} == set(harness.WORKLOADS)


def test_tail_uses_highest_percentile_with_ten_samples_beyond():
    assert harness.tail(list(range(1000))) == (99.0, 989)
    assert harness.tail(list(range(150))) == (pytest.approx(140 / 1.5), 139)
    assert harness.tail(list(range(60, 0, -1))) == (pytest.approx(50 / 0.6), 50)
    assert harness.tail([1.0, 4.0, 2.0]) == (100.0, 4.0)


def test_times_scale_with_the_calibration_loop_beside_them():
    ref = harness.CALIBRATION_REF_S
    sample = harness.Sample(
        [0.1, 0.3, 0.2, 0.4], [harness.Outcome(True, 1e-12)] * 4, 1.0,
        rounds=[2, 2], loop_s=[ref, 2 * ref, ref, 2 * ref],
        setup=[0.2, 0.4, 0.3], setup_loop_s=[ref, 2 * ref, 3 * ref],
    )
    wall = harness.wall_metrics(sample)
    assert wall["op_p50_s"][0] == pytest.approx(0.25)  # rounds of mean 0.2 and 0.3
    scaled = harness.end_to_end_metrics(sample)
    # Operations at reference speed: 0.1, 0.15, 0.2, 0.2.
    assert scaled["op_p50_s"][0] == pytest.approx((0.125 + 0.2) / 2)
    assert scaled["op_tail_s"][0] == pytest.approx(0.2)
    assert scaled["ops_per_s"][0] == pytest.approx(4 / 0.65)
    assert scaled["setup_s"][0] == pytest.approx(0.2)  # 0.2, 0.2 and 0.1
    assert scaled["peak_rss_mb"] == wall["peak_rss_mb"]


def test_sampler_interrupts_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = harness.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 10 * harness.CALIBRATION_INTERVAL_S
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert 0 < sampler.busy_s < 10 * harness.CALIBRATION_INTERVAL_S
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
