#!/usr/bin/env python3
"""Benchmark of hermsem's batch command line, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: hermsem is imported from
./src, nothing is installed.  One process issues ``hermsem.cli.run``
calls back to back (a closed loop with one client), all with the workload
config and ``seed=N``; BLAS threads are capped at the number of usable
cores.

--trace 0 measures the end-to-end metrics, from at least MIN_RUNS warm
runs whose wall times add up to at least --seconds:
  setup_s      median time from interpreter start to ``import hermsem.cli``
               plus the config load, over fresh interpreters started
               evenly between the warm runs
  peak_rss_mb  peak resident set size of one run in a fresh process
  wall_s       median wall time of one warm in-process ``cli.run``
  cpu_s        median process CPU time of the same runs
  paths_per_s  median driver paths simulated per wall second
--trace 1 alternates untraced runs with runs traced by spans.py for
--seconds and measures the per-layer metrics, the gated statistic and
the tracing overhead (median traced minus median untraced wall time, and
the time spent in the span wrappers outside the traced calls).

Every run's output is checked (workloads.check_run) and its data CSVs
must be byte-identical to those of the first run, which ran in a fresh
process (trace 0) or untraced (trace 1).  The last line of standard output
is {"correct", "attempted", "failed", "metrics"} with the metrics that
BENCHMARK.json lists for the mode; the full record (environment, resolved
config, every sample, every failed check) goes to
.perfbench_out/results/, and the last traced run's spans to
.perfbench_out/spans/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Modules that load numpy (workloads, spans, hermsem) are imported inside
# functions, after cap_blas_threads() has set the thread limits.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 31   # fresh-interpreter set-up probes per --trace 0 invocation
MIN_RUNS = 5          # timed runs per invocation, even past --seconds
CHILD_TIMEOUT_S = 170
# per-layer metrics that the traced session itself measures, not a span
SESSION_METRICS = (
    "experiments.gate_ratio", "trace.overhead_s", "trace.wrapper_s", "trace.spans",
    "trace.exceptions",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap BLAS and OpenMP threads at nproc; effective only before numpy loads."""
    limit = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_sha() -> str | None:
    """The checkout's commit, read from .git; None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_cap": {
            v: os.environ[v]
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
    }


def summarize(samples: list) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it, when that percentile lies above the median."""
    s = sorted(samples)
    n = len(s)
    k = n - 10  # samples at or below the tail percentile
    tail = None
    if 2 * k > n:
        tail = {"percentile": math.floor(100 * k / n), "value": s[k - 1]}
    return {"median": statistics.median(s), "n": n, "tail": tail, "samples": samples}


class Checks:
    """Output checks of every run in one invocation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.reference = None      # data-CSV digest of the first run
        self.gate_ratio = None
        self.config = None         # resolved config of the first run

    def record(self, label: str, code: int, out_dir: Path, error: str = "") -> None:
        from workloads import check_run

        self.attempted += 1
        chk = check_run(code, out_dir)
        problems = list(chk.problems) + ([error] if error else [])
        if self.reference is None:
            self.reference, self.gate_ratio = chk.digest, chk.gate_ratio
            with contextlib.suppress(OSError, ValueError):
                self.config = json.loads((out_dir / "config_resolved.json").read_text())
        elif chk.digest != self.reference:
            problems.append("data CSVs differ from the first run with the same seed")
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failures.append({"run": label, "problems": problems})


def run_in_process(cfg_path: Path, out_dir: Path, seed: int):
    """One request: hermsem.cli.run; returns (exit code, wall s, cpu s, error)."""
    import hermsem.cli

    error = ""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            code = hermsem.cli.run(str(cfg_path), str(out_dir), seed)
        except Exception:  # a crash is a failed run, not a benchmark error
            code, error = -1, traceback.format_exc()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    return code, wall, cpu, error


@contextlib.contextmanager
def child(*args: str):
    """A child.py process; killed if the block raises, always waited for."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        yield proc
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.communicate()


def time_setup(cfg_path: Path) -> float:
    t0 = time.perf_counter()
    with child("setup", str(cfg_path)) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def fresh_run(cfg_path: Path, out_dir: Path, seed: int) -> tuple[int, float]:
    """One run in a fresh interpreter; returns (exit code, peak RSS in MB)."""
    with child("run", str(cfg_path), str(out_dir), str(seed)) as proc:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh-process run failed with exit code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result["exit"], result["maxrss_kb"] / 1024.0


def timed_session(wl, cfg_path, work, seed, seconds, checks) -> tuple[dict, dict]:
    """At least MIN_RUNS timed runs that add up to ``seconds``, with the
    set-up probes spread evenly between them, so both see the same load."""
    code, rss_mb = fresh_run(cfg_path, work / "fresh", seed)
    checks.record("fresh process", code, work / "fresh")
    setup, walls, cpus = [], [], []
    while len(walls) < MIN_RUNS or sum(walls) < seconds:
        gc.collect()
        out = work / f"run{len(walls)}"
        code, wall, cpu, error = run_in_process(cfg_path, out, seed)
        checks.record(f"run {len(walls)}", code, out, error)
        walls.append(wall)
        cpus.append(cpu)
        due = math.ceil(SETUP_REPEATS * min(1.0, sum(walls) / seconds))
        setup += [time_setup(cfg_path) for _ in range(due - len(setup))]
    timings = {
        "wall_s": summarize(walls),
        "cpu_s": summarize(cpus),
        "paths_per_s": summarize([wl.paths / w for w in walls]),
        "setup_s": summarize(setup),
    }
    values = {name: t["median"] for name, t in timings.items()}
    values["peak_rss_mb"] = rss_mb
    return values, {"timings": timings}


def traced_session(wl, cfg_path, work, seed, seconds, checks, layer_metrics):
    from spans import Tracer, installed, layer_values

    untraced, traced, layers, last = [], [], [], None
    deadline = time.perf_counter() + seconds
    k = 0
    while not traced or time.perf_counter() < deadline:
        gc.collect()
        out = work / f"run{k}"
        if k % 2:
            tr = Tracer()
            with installed(tr):
                code, wall, _, error = run_in_process(cfg_path, out, seed)
            traced.append(wall)
            layers.append(layer_values(tr, layer_metrics))
            layers[-1]["trace.wrapper_s"] = tr.wrapper_seconds()
            layers[-1]["trace.spans"] = len(tr.span_name)
            layers[-1]["trace.exceptions"] = tr.exceptions
            last = tr
        else:
            code, wall, _, error = run_in_process(cfg_path, out, seed)
            untraced.append(wall)
        checks.record(f"run {k} ({'traced' if k % 2 else 'untraced'})", code, out, error)
        k += 1
    values = {m: statistics.median(run[m] for run in layers) for m in layers[0]}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    values["experiments.gate_ratio"] = checks.gate_ratio
    last.save(OUT / "spans" / f"{wl.name}-seed{seed}.npz")

    own, _ = last.self_times()
    others = {n: s for n, s in own.items() if n not in wl.dominant}
    top = max(others, key=others.get)
    group = sum(own.get(n, 0.0) for n in wl.dominant)
    detail = {
        "timings": {"untraced_wall_s": summarize(untraced), "traced_wall_s": summarize(traced)},
        "self_s_by_span": dict(sorted(own.items(), key=lambda kv: -kv[1])),
        "chosen_for": {
            "spans": list(wl.dominant),
            "self_s": group,
            "largest_other": top,
            "largest_other_self_s": others[top],
            "holds": group > others[top],
        },
    }
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "hermsem" / "cli.py").is_file():
        print(f"no hermsem source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == wl.name)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(wl.config(str(work / "out")), indent=2))
    checks = Checks()
    try:
        if args.trace:
            layer_metrics = [m["name"] for m in declared if m["name"] not in SESSION_METRICS]
            values, detail = traced_session(
                wl, cfg_path, work, args.seed, args.seconds, checks, layer_metrics
            )
        else:
            values, detail = timed_session(wl, cfg_path, work, args.seed, args.seconds, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def finite(v):
        return v if v is not None and math.isfinite(v) else None

    metrics = {
        m["name"]: {"value": finite(values[m["name"]]), "unit": m["unit"]} for m in declared
    }
    failed = len(checks.failures)
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": wl.name,
        "why": why,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "config": checks.config,
        "failed_frac": failed / checks.attempted,
        "failures": checks.failures,
        "gate_ratio": finite(checks.gate_ratio),
        "result": result,
        **detail,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, allow_nan=False) + "\n")
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
