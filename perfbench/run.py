"""Benchmark of the g2orbits engine: one workload per run, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload scan_dense --seed 1 --seconds 20 --trace 0

Workloads: classify_cold, scan_dense, algebra (see harness.py).

``--trace 0`` runs whole rounds of the workload until ``--seconds`` of
operations have passed and reports the end-to-end metrics: per-operation
median (over rounds) and tail, operations per second, accuracy digits,
peak resident memory, and set-up time measured in fresh interpreters
started at even intervals during the run.  Times are reported at the
reference host speed given by a calibration loop timed beside every
operation and set-up (see harness.py); the wall times are printed under
``wall``.

``--trace 1`` runs a fixed list of operations (harness.TRACE_OPS, so call
counts repeat exactly; ``--seconds`` is not used), each once untraced and
once traced with spans around every layer, and reports calls, total and
self time per layer, the evaluation counts of the root finder and the
tracing overhead.  The spans go to ``perfbench/out/trace-<workload>-seed<n>.jsonl``.

Every operation is checked against closed forms; a failed check or an
exception counts as a failed operation.  Every metric is printed by name
with its unit, a record with the run environment is written to
``perfbench/out/``, and the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import os

# One BLAS thread, set before numpy loads, and one CPU: the host's cores
# run at different speeds at the same moment, and the calibration loop,
# the operations and the set-up probes must all see the same one.  The
# set-up probes inherit both.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT = harness.HERE / "out"


def end_to_end(workload, engine, seed, seconds):
    harness.warm_up(engine)
    sample = harness.measure(workload, engine, harness.rounds(workload, engine, seed), seconds)
    metrics = harness.end_to_end_metrics(sample)
    details = {
        "samples": len(sample.durations),
        "rounds": len(sample.rounds),
        "speed_factor_p50": harness.CALIBRATION_REF_S / statistics.median(sample.loop_s),
        "wall": {k: v for k, (v, u) in harness.wall_metrics(sample).items() if u in ("s", "1/s")},
        "tail_percentile": harness.tail(sample.durations)[0],
        "timed_s": sample.elapsed_s,
        "setup_samples_s": sample.setup,
        "durations_s": sample.durations,
    }
    return metrics, sample.outcomes, details


def traced_op(workload, engine, arg, tracer, setup):
    """One operation with every layer wrapped; ``setup`` first rebuilds the
    action specs from empty caches inside a ``setup`` span."""
    try:
        wrapped = tracer.install(harness.LAYERS)
        if setup:
            with tracer.span("setup"):
                harness.cold_setup(engine)
        return harness.run_list(workload, engine, [arg], tracer), wrapped
    finally:
        tracer.uninstall()


def per_layer(workload, engine, seed):
    args = []
    for batch in harness.rounds(workload, engine, seed):
        args.extend(batch)
        if len(args) >= harness.TRACE_OPS[workload]:
            break
    harness.warm_up(engine)

    # Each operation runs once untraced and once traced, in alternating
    # order, so that drift in machine speed cancels from the overhead.
    tracer = Tracer()
    plain, traced = harness.Sample([], [], 0.0), harness.Sample([], [], 0.0)
    for index, arg in enumerate(args):
        tracer.op = index
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                part, wrapped = traced_op(workload, engine, arg, tracer, setup=index == 0)
                sample = traced
            else:
                part, sample = harness.run_list(workload, engine, [arg]), plain
            sample.outcomes += part.outcomes
            sample.elapsed_s += part.elapsed_s
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl")

    metrics = harness.layer_metrics(
        tracer.summary(),
        roots=sum(o.roots for o in traced.outcomes),
        overhead_share=traced.elapsed_s / plain.elapsed_s - 1.0,
    )
    details = {
        "operations": len(args),
        "untraced_s": plain.elapsed_s,
        "traced_s": traced.elapsed_s,
        "spans": len(tracer.spans),
        "layers_not_found": sorted(set(harness.LAYERS) - set(wrapped)),
    }
    return metrics, plain.outcomes + traced.outcomes, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        engine = harness.load_engine()
    except harness.EngineMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    env = harness.environment()
    if args.trace:
        metrics, outcomes, details = per_layer(args.workload, engine, args.seed)
    else:
        metrics, outcomes, details = end_to_end(args.workload, engine, args.seed, args.seconds)
    env["loadavg_1m_end"] = os.getloadavg()[0]

    attempted = len(outcomes)
    failures = [o.note for o in outcomes if not o.ok]
    details["fail_share"] = len(failures) / attempted
    details["failures"] = failures[:20]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "details": details,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={len(failures)} fail_share={details['fail_share']:.4g}")
    print(f"#   environment: {json.dumps(env)}")
    for key, value in details.items():
        if key not in ("failures", "fail_share", "durations_s"):
            print(f"#   {key}: {value}")
    for note in failures[:20]:
        print(f"#   failure: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
