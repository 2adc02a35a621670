#!/usr/bin/env python3
"""Check that two hermsem source trees write byte-identical data CSVs.

    python3 tools/same_csvs.py SRC_A SRC_B

SRC_A and SRC_B are source checkouts of hermsem (or their ``src/``
directories).  Every config in CONFIGS runs once per side: all five
experiments at small pinned configs, plus the four benchmark workload
configs at seed 7.  Each run is a fresh ``python -m hermsem.cli`` process
with that side's ``src`` on PYTHONPATH, writing into a new, empty output
directory, so no file of an earlier run can be mistaken for output.  BLAS
and OpenMP run on one thread on both sides.

The script prints one line per config and compares the SHA-256 of every
data CSV (``*.csv``) in the two output directories.  It exits 1 when any
file differs, exists on one side only, or when the two sides exit with
different codes or a run writes no CSV at all; otherwise it exits 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# the jump-diffusion model that the benchmark workloads pin
_PINNED = {"jump_intensity": 1.0, "jump_sd": 0.4}

CONFIGS = {
    "simulate-small": {
        "experiment": "simulate", "jump_intensity": 2.0, "level": 5,
        "replicas": 4, "seed": 5,
    },
    "metrics-small": {
        "experiment": "metrics", "jump_intensity": 1.0, "jump_sd": 0.5,
        "level": 5, "replicas": 10, "seed": 21,
    },
    "riemann-small-jump-refined": {
        "experiment": "riemann-converge", "jump_intensity": 1.0, "jump_sd": 0.5,
        "levels": [3, 4, 5, 6], "replicas": 4, "seed": 6,
    },
    "riemann-small-dyadic": {
        "experiment": "riemann-converge", "jump_intensity": 1.0, "jump_sd": 0.5,
        "partition_kind": "dyadic", "levels": [3, 4, 5, 6], "replicas": 4, "seed": 6,
    },
    "ito-small": {
        "experiment": "ito-verify", **_PINNED, "level": 6, "replicas": 4, "seed": 3,
    },
    "ito-small-hitting": {
        "experiment": "ito-verify", **_PINNED, "partition_kind": "hitting",
        "hitting_levels": [0.5, 1.0, 2.0], "level": 6, "replicas": 4, "seed": 8,
    },
    "probe-small": {
        "experiment": "integrator-probe", **_PINNED, "level": 6, "replicas": 12,
        "seed": 4,
    },
    # the benchmark workloads (perfbench/workloads.py) at seed 7
    "workload-riemann": {"experiment": "riemann-converge", **_PINNED, "seed": 7},
    "workload-ito": {
        "experiment": "ito-verify", **_PINNED, "replicas": 1000, "level": 8, "seed": 7,
    },
    "workload-probe": {"experiment": "integrator-probe", **_PINNED, "level": 11, "seed": 7},
    "workload-simulate": {
        "experiment": "simulate", **_PINNED, "replicas": 400, "level": 10, "seed": 7,
    },
}


def source_dir(arg: str) -> Path:
    root = Path(arg).resolve()
    for src in (root / "src", root):
        if (src / "hermsem" / "cli.py").is_file():
            return src
    raise SystemExit(f"{arg}: no hermsem package under it or under its src/")


def run_side(src: Path, name: str, cfg: dict, workdir: Path):
    """Run one config on one side; return (exit code, {csv name: sha256})."""
    out = workdir / name
    cfg_path = workdir / f"{name}.json"
    cfg_path.write_text(json.dumps({**cfg, "output_dir": str(out)}))
    env = {
        **os.environ,
        "PYTHONPATH": str(src),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-m", "hermsem.cli", "run", "--config", str(cfg_path)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode not in (0, 1):
        print(proc.stderr.rstrip(), file=sys.stderr)
    hashes = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.glob("*.csv"))
    }
    return proc.returncode, hashes


def compare(a, b) -> list[str]:
    (code_a, hashes_a), (code_b, hashes_b) = a, b
    problems = []
    if code_a != code_b:
        problems.append(f"exit codes differ: {code_a} and {code_b}")
    if not hashes_a and not hashes_b:
        problems.append(f"no CSV written (exit {code_a})")
    for csv in sorted(set(hashes_a) | set(hashes_b)):
        if csv not in hashes_a or csv not in hashes_b:
            problems.append(f"{csv}: on one side only")
        elif hashes_a[csv] != hashes_b[csv]:
            problems.append(f"{csv}: bytes differ")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", help="first hermsem checkout or src/ directory")
    parser.add_argument("src_b", help="second hermsem checkout or src/ directory")
    args = parser.parse_args(argv)
    src_a, src_b = source_dir(args.src_a), source_dir(args.src_b)
    differing = 0
    with tempfile.TemporaryDirectory(prefix="same_csvs_") as tmp:
        side_a, side_b = Path(tmp, "a"), Path(tmp, "b")
        side_a.mkdir()
        side_b.mkdir()
        for name, cfg in CONFIGS.items():
            a = run_side(src_a, name, cfg, side_a)
            b = run_side(src_b, name, cfg, side_b)
            problems = compare(a, b)
            if problems:
                differing += 1
                print(f"{name}: DIFFERENT")
                for p in problems:
                    print(f"  {p}")
            else:
                print(f"{name}: {len(a[1])} CSVs identical (exit {a[0]})")
    print(f"{differing} of {len(CONFIGS)} configs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
