#!/usr/bin/env python3
"""Print every benchmark metric by name and unit, per workload.

    python3 perfbench/report.py [--seed N]

For every workload this runs run.py twice, each in a fresh process and for
the run_seconds of BENCHMARK.json: with
--trace 0 for the end-to-end metrics and with --trace 1 for the per-layer
metrics.  It prints them from the records run.py leaves under
.perfbench_out/results/, with the failed fraction and the gated statistic,
and closes each workload with the tracing overhead.  Exits 1 when a run
failed its output check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = ROOT / ".perfbench_out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def num(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def spread(timing: dict | None) -> str:
    if timing is None:
        return ""
    tail = timing["tail"]
    if tail is None:
        return f"median of {timing['n']}; too few samples for a tail percentile above it"
    return f"median of {timing['n']}; p{tail['percentile']} {tail['value']:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    failed = 0
    for i, name in enumerate(WORKLOADS):
        e2e = run(name, args.seed, seconds, 0)
        layer = run(name, args.seed, seconds, 1)
        if i == 0:
            print("environment:", json.dumps(e2e["environment"]))
        runs = [e2e["result"], layer["result"]]
        attempted = sum(r["attempted"] for r in runs)
        failed += sum(r["failed"] for r in runs)
        print(f"\n== {name} (seed {args.seed}): {e2e['why']}")
        print("config:", json.dumps(e2e["config"], sort_keys=True))
        print("end-to-end:")
        for m in spec["end_to_end"]:
            value = e2e["result"]["metrics"][m["name"]]["value"]
            timing = e2e["timings"].get(m["name"])
            print(f"  {m['name']:<44} {num(value):>14} {m['unit']:<12} {spread(timing)}")
        print(
            f"  {'failed_frac':<44} {sum(r['failed'] for r in runs) / attempted:>14.6g} "
            f"{'fraction':<12} of {attempted} runs"
        )
        for f in e2e["failures"] + layer["failures"]:
            print(f"  FAILED {f['run']}: {'; '.join(f['problems'])}")
        print("per-layer:")
        for m in spec["per_layer"]:
            if m["name"] not in ("trace.overhead_s", "trace.wrapper_s"):
                value = layer["result"]["metrics"][m["name"]]["value"]
                print(f"  {m['name']:<44} {num(value):>14} {m['unit']}")
        chosen = layer["chosen_for"]
        print(
            f"chosen for {' + '.join(chosen['spans'])}: self {chosen['self_s']:.4g} s; "
            f"largest other span {chosen['largest_other']} {chosen['largest_other_self_s']:.4g} s"
            f" -> {'holds' if chosen['holds'] else 'DOES NOT HOLD'}"
        )
        t = layer["timings"]
        print(
            f"tracing overhead: trace.overhead_s "
            f"{layer['result']['metrics']['trace.overhead_s']['value']:.4g} s "
            f"(traced wall {t['traced_wall_s']['median']:.4g} s, "
            f"untraced {t['untraced_wall_s']['median']:.4g} s); trace.wrapper_s "
            f"{layer['result']['metrics']['trace.wrapper_s']['value']:.4g} s in the wrappers"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
