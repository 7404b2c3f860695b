"""Run every workload untraced and traced; print every metric by name and unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each run is a separate ``perfbench/run.py`` process.  Per-layer rows show
only layers the workload called, with their self time as a share of the
traced operation time.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("classify_cold", "scan_dense", "algebra")


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=HERE.parent,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    for workload in WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        share = plain["failed"] / plain["attempted"]
        print(f"== {workload}  attempted={plain['attempted']} failed={plain['failed']} "
              f"correct={plain['correct'] and traced['correct']}")
        print(f"  {'fail_share':40s} {share:.6g} share")
        for name, m in plain["metrics"].items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
        layers = traced["metrics"]
        op_time = layers["op.total_s"]["value"]
        for name, m in layers.items():
            layer = name.rsplit(".", 1)[0]
            if f"{layer}.calls" in layers and layers[f"{layer}.calls"]["value"] == 0:
                continue
            extra = ""
            if name.endswith(".self_s") and layer not in ("op", "setup"):
                extra = f"  ({m['value'] / op_time:.1%} of op time)"
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
