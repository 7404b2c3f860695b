"""Workloads, correctness gates and metrics of the g2orbits benchmark.

The benchmark drives the engine's public API from outside, as a closed
loop: one process, one operation at a time.  Each workload turns the
benchmark seed into a stream of rounds of operation inputs; every
operation is checked against closed forms, and a failed check or a raised
exception counts as a failed operation instead of ending the run.

Workloads, and the layers each one is meant to load:

* ``classify_cold`` -- one ``classify_type(ty)`` with its cache cleared.
  A round is the four types in a seeded order.  About 2,300 frame builds
  per type from the sign scans and bisection: frame construction and the
  root finder.  The eigensolver is under 1% of it.
* ``scan_dense`` -- one ``spectrum_report(spec, t)`` and its comparison
  with ``closed_form_spectrum``.  A round is the four types in a seeded
  order, each at a t drawn uniformly over its clipped principal interval
  (type II spectra take a third of the time of the others, so whole
  rounds keep the type mix fixed).  Each frame is built once and the
  eigensolver dominates, so it moves opposite to ``classify_cold``.
* ``algebra`` -- one ``verify.run_all(seed)``.  The only workload that
  loads the octonion, triality and bracket kernels; no orbit code.

The benchmark runs on a shared host whose speed drifts by itself: the same
operation takes up to 1.9 times as long from one moment to the next, the
two cores differ at the same moment, and the level moves over minutes,
with CPU time equal to wall time (the other tenants slow the core down;
they do not take it away).  So the run stays on one core, and a process
timer interrupts it every CALIBRATION_INTERVAL_S to time one pass of a
fixed calibration loop; set-up probes get samples on either side instead.
Every time is reported at the reference speed: wall time, less the
interruptions, times CALIBRATION_REF_S over the loop's mean time in the
samples taken during it and on either side of it (the mean, because an
operation's time adds up the host's speed over its whole span).  The loop
does the engine's kind of work in four about equal parts: interpreted
float arithmetic, Givens rotations of matrix columns (the Jacobi
eigensolver), Gram-Schmidt steps (orthonormalize) and a conjugating einsum
with a small least-squares solve (the frame lifts).  Timed in 10 s windows
while the host's speed moved by up to 2 times, the engine's time over the
loop's varied 4-6% (standard deviation of the log, for a spectrum round, a
self-check and 30 mean-curvature evaluations), against 11-14% for the
engine alone; a tight float loop alone tracked the engine less well
(5-7%).  The wall times are printed and recorded beside them.
"""

from __future__ import annotations

import math
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TYPES = ("II", "III", "IV", "V")

#: Gate on spectra: |engine - closed form| <= GATE_TOL * max(1, |closed form|).
#: The closed-form curvatures grow like cot(t) towards singular parameters,
#: so the tolerance scales with the value.
GATE_TOL = 1e-8

#: Gate on the distinguished parameters t, all of order one.
ROOT_TOL = 1e-8

#: The tail is the operation time with this many slower operations.
TAIL_MIN_BEYOND = 10

#: Accuracy is taken over the first ACCURACY_OPS operations of a run, so
#: that a faster engine, which runs more operations, is not charged for
#: sampling parameters closer to the singular ends.
ACCURACY_OPS = 500

#: Fresh interpreters started per run to time set-up.  They are spread
#: evenly over the timed part of the run, so that set-up is measured at the
#: same average machine speed as the operations.
SETUP_SAMPLES = 9

#: Fixed inputs of the calibration loop.
_ROTATED = np.random.default_rng(0).standard_normal((9, 9))
_REDUCED = np.random.default_rng(1).standard_normal((20, 64))
_ROTATION = np.linalg.qr(np.random.default_rng(2).standard_normal((8, 8)))[0]
_BASIS = np.random.default_rng(3).standard_normal((14, 8, 8))
_COLUMNS = np.random.default_rng(4).standard_normal((64, 20))
_RHS = np.random.default_rng(5).standard_normal((64, 14))

#: Median time of one calibration sample on the reference host, the 2-core
#: Xeon virtual machine the benchmark was defined on, at its usual load.
#: It only sets the scale of the reported times.
CALIBRATION_REF_S = 1.6e-3

#: Wall time between calibration samples during operations; a sample
#: takes about 1.6 ms.
CALIBRATION_INTERVAL_S = 0.03

#: Calibration time before and after each set-up probe.
SETUP_CALIBRATION_S = 0.02

#: Operations per traced run; fixed so that call counts repeat exactly.
TRACE_OPS = {"classify_cold": 4, "scan_dense": 300, "algebra": 10}

#: Functions traced as layers, named "<module>.<function>" after the module
#: that defines them.
LAYERS = (
    "linalg.orthonormalize",
    "linalg.complement",
    "linalg.expm",
    "linalg.sym_eigen",
    "orbits.orbit_frame",
    "orbits.shape_operator",
    "orbits.spectrum_report",
    "orbits.mean_curvature",
    "orbits.shape_norm_sq",
    "classify.find_minimal",
    "classify.find_biharmonic",
    "classify.closed_form_spectrum",
    "triality.named_subalgebra",
    "triality.bracket_closure_defect",
    "triality.alpha",
    "triality.beta",
    "triality.gamma",
    "octonion.oct_mul",
    "verify.check_cayley_contract",
    "verify.check_composition_law",
    "verify.check_v_bracket_rules",
    "verify.check_zeta_bracket_rules",
    "verify.check_triality_involutions",
    "verify.check_subalgebras",
)


class EngineMissing(RuntimeError):
    """The checkout holds no importable engine under ``src/``."""


def load_engine(root: Path = ROOT):
    """Import ``g2orbits`` from ``root/src`` and return the package."""
    src = (root / "src").resolve()
    if not (src / "g2orbits" / "__init__.py").is_file():
        raise EngineMissing(f"no engine sources under {src}")
    sys.path.insert(0, str(src))
    import g2orbits
    import g2orbits.verify  # noqa: F401  (the algebra workload's entry point)

    if Path(g2orbits.__file__).resolve().parent != src / "g2orbits":
        raise EngineMissing(f"imported g2orbits from {g2orbits.__file__}, not {src}")
    return g2orbits


# --------------------------------------------------------------------------
# Closed-form references

@dataclass(frozen=True)
class Reference:
    minimal_t: float
    biharmonic_t: tuple[float, ...]
    austere: bool
    singular_dims: tuple[int, int]


#: Dimensions of the two singular orbits (the README's results table); the
#: engine exports no table of these.
SINGULAR_DIMS = {"II": (10, 11), "III": (14, 20), "IV": (17, 17), "V": (15, 19)}


def reference(action_type: str) -> Reference:
    """The engine's closed-form classification of ``action_type``."""
    classify_module = sys.modules["g2orbits.classify"]
    return Reference(
        classify_module.REFERENCE_MINIMAL_T[action_type],
        tuple(classify_module.REFERENCE_BIHARMONIC_T[action_type]),
        classify_module.REFERENCE_AUSTERE[action_type],
        SINGULAR_DIMS[action_type],
    )


# --------------------------------------------------------------------------
# Correctness gates

@dataclass(frozen=True)
class Outcome:
    """Verdict on one operation.

    ``deviation`` is the largest scaled deviation from the closed forms
    (None when nothing numeric could be compared); ``roots`` counts the
    distinguished parameters a classification found.
    """

    ok: bool
    deviation: float | None = None
    roots: int = 0
    note: str = ""


def gate_classification(result, ref: Reference) -> Outcome:
    """Minimal and biharmonic t within ROOT_TOL, the root count, the
    austere verdict and the singular orbit dimensions."""
    problems = []
    deviations = [abs(result.minimal_t - ref.minimal_t)]
    found = tuple(result.biharmonic_t)
    if len(found) != len(ref.biharmonic_t):
        problems.append(f"{len(found)} biharmonic roots, expected {len(ref.biharmonic_t)}")
    deviations += [abs(a - b) for a, b in zip(found, ref.biharmonic_t)]
    worst = max(deviations)
    if worst > ROOT_TOL:
        problems.append(f"root deviation {worst:.3e}")
    if bool(result.minimal_austere) != ref.austere:
        problems.append(f"austere verdict {result.minimal_austere}")
    if tuple(result.singular_dims) != ref.singular_dims:
        problems.append(f"singular dims {tuple(result.singular_dims)}")
    return Outcome(not problems, worst, 1 + len(found), "; ".join(problems))


def gate_spectrum(curvatures, reference) -> Outcome:
    """Equal multiplicities and values within GATE_TOL (scaled)."""
    engine_mult = [m for _, m in curvatures]
    ref_mult = [m for _, m in reference]
    if engine_mult != ref_mult:
        return Outcome(False, note=f"multiplicities {engine_mult} vs {ref_mult}")
    worst = max(
        abs(a - b) / max(1.0, abs(b)) for (a, _), (b, _) in zip(curvatures, reference)
    )
    ok = worst <= GATE_TOL
    return Outcome(ok, worst, note="" if ok else f"scaled deviation {worst:.3e}")


_DEFECT = re.compile(r"\d\.\d+e[-+]\d+")


def gate_checks(results) -> Outcome:
    """Every check passed; the deviation is the largest defect the checks
    report in their details.  Details with no defect in them fail the
    operation, so that a change of their wording cannot pass as a loss of
    accuracy."""
    problems = [r.name for r in results if not r.passed]
    defects = [float(x) for r in results for x in _DEFECT.findall(r.detail)]
    if not defects:
        problems.append("no defect found in the check details")
    return Outcome(not problems, max(defects, default=None), note="; ".join(problems))


# --------------------------------------------------------------------------
# Workloads: seeded rounds of inputs, and one operation per input

def _classify_rounds(engine, rng):
    while True:
        yield [TYPES[i] for i in rng.permutation(len(TYPES))]


def _classify_op(engine, action_type):
    engine.classify_type.cache_clear()
    result = engine.classify_type(action_type)
    return gate_classification(result, reference(action_type))


def _scan_rounds(engine, rng):
    classify_module = sys.modules["g2orbits.classify"]
    windows = {ty: classify_module.principal_interval(engine.action_spec(ty)) for ty in TYPES}
    while True:
        order = [TYPES[i] for i in rng.permutation(len(TYPES))]
        yield [(ty, float(rng.uniform(*windows[ty]))) for ty in order]


def _scan_op(engine, arg):
    action_type, t = arg
    report = engine.spectrum_report(engine.action_spec(action_type), t)
    return gate_spectrum(report.curvatures, engine.closed_form_spectrum(action_type, t))


def _algebra_rounds(engine, rng):
    while True:
        yield [int(rng.integers(2**31))]


def _algebra_op(engine, seed):
    return gate_checks(engine.verify.run_all(seed))


WORKLOADS = {
    "classify_cold": (_classify_rounds, _classify_op),
    "scan_dense": (_scan_rounds, _scan_op),
    "algebra": (_algebra_rounds, _algebra_op),
}


def rounds(workload: str, engine, seed: int):
    """Endless stream of rounds (lists of operation inputs) for ``seed``."""
    make, _ = WORKLOADS[workload]
    return make(engine, np.random.default_rng(seed))


def run_op(workload: str, engine, arg) -> Outcome:
    """One operation and its gate; any exception is a failed operation."""
    _, op = WORKLOADS[workload]
    try:
        return op(engine, arg)
    except Exception as exc:  # the loop must keep running; the failure is data
        return Outcome(False, note=f"{type(exc).__name__}: {exc}")


def cold_setup(engine) -> None:
    """Build the four action specs again from empty caches."""
    engine.action_spec.cache_clear()
    sys.modules["g2orbits.triality"]._SUBALGEBRA_CACHE.clear()
    for ty in TYPES:
        engine.action_spec(ty)


def warm_up(engine) -> None:
    """Fill lazy state the timed operations would otherwise pay for once:
    one spectrum per type at an interior parameter."""
    for ty in TYPES:
        lo, hi = engine.action_spec(ty).t_range
        engine.spectrum_report(engine.action_spec(ty), 0.5 * (lo + hi) + 0.1)


# --------------------------------------------------------------------------
# Measurement

@dataclass
class Sample:
    durations: list[float]
    outcomes: list[Outcome]
    elapsed_s: float
    rounds: list[int] = field(default_factory=list)  # operations per round
    loop_s: list[float] = field(default_factory=list)  # calibration during each operation
    setup: list[float] = field(default_factory=list)
    setup_loop_s: list[float] = field(default_factory=list)  # calibration beside each set-up


def calibration_sample() -> float:
    """Seconds one pass of the fixed calibration loop takes now."""
    start = time.perf_counter()
    total = 0.0
    for i in range(4000):
        total += i * 0.5
    a = _ROTATED.copy()
    for p in range(len(a) - 1):
        for q in range(p + 1, len(a)):
            col_p, col_q = a[:, p].copy(), a[:, q].copy()
            a[:, p] = 0.8 * col_p - 0.6 * col_q
            a[:, q] = 0.6 * col_p + 0.8 * col_q
    rows, alive = _REDUCED.copy(), np.ones(len(_REDUCED), dtype=bool)
    for _ in range(12):
        norms = np.where(alive, np.linalg.norm(rows, axis=1), -1.0)
        pivot = int(np.argmax(norms))
        alive[pivot] = False
        unit = rows[pivot] / norms[pivot]
        rows -= np.outer(rows @ unit, unit)
    np.einsum("ba,ibc,cd->iad", _ROTATION, _BASIS, _ROTATION)
    np.linalg.lstsq(_COLUMNS, _RHS, rcond=None)
    return time.perf_counter() - start


def calibrate(seconds: float) -> list[float]:
    """Calibration samples, at least one, until they add up to ``seconds``."""
    samples: list[float] = []
    while not samples or sum(samples) < seconds:
        samples.append(calibration_sample())
    return samples


class Sampler:
    """Calibration samples taken by a process timer (SIGALRM) that
    interrupts the running code every CALIBRATION_INTERVAL_S of wall time.

    ``busy_s`` adds up the time spent in the interruptions, so that it can
    be taken out of the interrupted operation's time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibration_sample())
        self.busy_s += time.perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def _time_setup(sample: Sample) -> None:
    """One set-up probe with calibration samples on either side."""
    before = calibrate(SETUP_CALIBRATION_S)
    sample.setup.append(setup_once())
    after = calibrate(SETUP_CALIBRATION_S)
    sample.setup_loop_s.append(statistics.fmean(before + after))


def measure(workload: str, engine, stream, seconds: float) -> Sample:
    """Run whole rounds until ``seconds`` of operations have passed, under
    the calibration timer.  After every ``seconds / SETUP_SAMPLES`` of
    operations one set-up is timed with the timer stopped; it is not part
    of ``elapsed_s``."""
    sample = Sample([], [], 0.0)
    sampler = Sampler()
    spans = []  # (first, end) indices of the samples taken during each operation
    calibrate(SETUP_CALIBRATION_S)  # warm-up
    sampler.start()
    try:
        for batch in stream:
            for arg in batch:
                first, busy = len(sampler.samples), sampler.busy_s
                t0 = time.perf_counter()
                sample.outcomes.append(run_op(workload, engine, arg))
                duration = time.perf_counter() - t0 - (sampler.busy_s - busy)
                spans.append((first, len(sampler.samples)))
                sample.durations.append(duration)
                sample.elapsed_s += duration
                if sample.elapsed_s >= (len(sample.setup) + 1) * seconds / SETUP_SAMPLES:
                    sampler.stop()
                    _time_setup(sample)
                    sampler.start()
            sample.rounds.append(len(batch))
            if sample.elapsed_s >= seconds:
                break
    finally:
        sampler.stop()
    # One sample after the last operation, so that each has one on either side.
    sampler.samples.append(calibration_sample())
    while len(sample.setup) < SETUP_SAMPLES:
        _time_setup(sample)
    for first, end in spans:
        sample.loop_s.append(statistics.fmean(sampler.samples[max(first - 1, 0):end + 1]))
    return sample


def run_list(workload: str, engine, args, tracer=None) -> Sample:
    """Run a fixed list of operations, each in an ``op`` span when traced."""
    durations: list[float] = []
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    for arg in args:
        t0 = time.perf_counter()
        if tracer is None:
            outcomes.append(run_op(workload, engine, arg))
        else:
            with tracer.span("op"):
                outcomes.append(run_op(workload, engine, arg))
        durations.append(time.perf_counter() - t0)
    return Sample(durations, outcomes, time.perf_counter() - start)


def tail(durations: list[float]) -> tuple[float, float]:
    """(percentile, value): the operation time with TAIL_MIN_BEYOND slower
    ones, at percentile 100 (n - TAIL_MIN_BEYOND) / n, the highest with
    that many samples beyond it; the maximum (100) when there are too few.

    The percentile moves smoothly with the sample count, which the host's
    speed changes from run to run; a fixed ladder of percentiles would
    jump between rungs."""
    n = len(durations)
    if n <= TAIL_MIN_BEYOND:
        return 100.0, max(durations)
    return 100.0 * (n - TAIL_MIN_BEYOND) / n, sorted(durations)[n - TAIL_MIN_BEYOND - 1]


def accuracy_digits(outcomes: list[Outcome]) -> float:
    """-log10 of the largest deviation over the first ACCURACY_OPS
    operations, floored at machine epsilon."""
    deviations = [o.deviation for o in outcomes[:ACCURACY_OPS] if o.deviation is not None]
    if not deviations:
        return 0.0
    return -math.log10(max(max(deviations), np.finfo(float).eps))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def at_reference_speed(times: list[float], loop_s: list[float]) -> list[float]:
    """Each time scaled by CALIBRATION_REF_S over the calibration time
    measured beside it."""
    return [t * CALIBRATION_REF_S / c for t, c in zip(times, loop_s)]


def round_p50(durations: list[float], rounds: list[int]) -> float:
    """Median over the rounds of the mean time per operation in a round.

    A round holds every operation kind once, so this median does not jump
    between the kinds' times as a median over single operations of a mix
    does."""
    means, start = [], 0
    for size in rounds:
        means.append(sum(durations[start:start + size]) / size)
        start += size
    return statistics.median(means)


def _metrics(sample: Sample, durations: list[float], setup: list[float]):
    return {
        "op_p50_s": (round_p50(durations, sample.rounds), "s"),
        "op_tail_s": (tail(durations)[1], "s"),
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "accuracy_digits": (accuracy_digits(sample.outcomes), "digits"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def wall_metrics(sample: Sample) -> dict[str, tuple[float, str]]:
    """The untraced run's metrics in wall time, name -> (value, unit)."""
    return _metrics(sample, sample.durations, sample.setup)


def end_to_end_metrics(sample: Sample) -> dict[str, tuple[float, str]]:
    """The untraced run's metrics, times at the reference speed."""
    return _metrics(
        sample,
        at_reference_speed(sample.durations, sample.loop_s),
        at_reference_speed(sample.setup, sample.setup_loop_s),
    )


def layer_metrics(summary, roots: int, overhead_share: float) -> dict[str, tuple[float, str]]:
    """The traced run's metrics from a span summary, name -> (value, unit).

    Every layer is reported, with zeros where the workload never called it.
    ``classify.evals`` counts the scalar evaluations of the root finder
    (mean curvature and |A|^2), ``roots`` the parameters they located.
    """
    metrics = {}
    for name in ("setup", "op") + LAYERS:
        entry = summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.total_s"] = (entry["total_s"], "s")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
    evals = metrics["orbits.mean_curvature.calls"][0] + metrics["orbits.shape_norm_sq.calls"][0]
    metrics["classify.evals"] = (evals, "count")
    metrics["classify.evals_per_root"] = (evals / roots if roots else 0.0, "count/root")
    metrics["trace.overhead_share"] = (overhead_share, "share")
    return metrics


def setup_once() -> float:
    """Import plus building the four action specs in a fresh interpreter
    (so the subalgebra closure checks run every time)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"), *TYPES],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.split()[-1])


# --------------------------------------------------------------------------
# Run environment

def git_sha() -> str | None:
    """HEAD commit of the checkout, or None outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "loadavg_1m_start": os.getloadavg()[0],
    }
