"""The four benchmark workloads and the check every run's output must pass.

Each workload is one ``hermsem run`` config: the defaults plus the pinned
jump-diffusion model (``jump_intensity=1.0, jump_sd=0.4``) plus the
overrides below.  The seed is not part of a workload; the benchmark passes
its ``--seed`` argument to ``hermsem.cli.run`` as ``seed``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PINNED_MODEL = {"jump_intensity": 1.0, "jump_sd": 0.4}

# A CSV token that is not a finite number.
_NONFINITE = re.compile(
    rb"(?:^|[,\n])[+-]?(?:nan|inf|infinity)(?=[,\r\n]|$)", re.IGNORECASE
)


@dataclass(frozen=True)
class Workload:
    """One workload; the reason it was chosen is its ``why`` in BENCHMARK.json."""

    name: str
    overrides: dict
    paths: int               # driver paths simulated by one run
    dominant: tuple          # spans whose summed self time should be largest

    def config(self, output_dir: str) -> dict:
        return {**PINNED_MODEL, **self.overrides, "output_dir": output_dir}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "riemann",
            {"experiment": "riemann-converge"},
            paths=100,
            dominant=("paths.values_at",),
        ),
        Workload(
            "ito",
            {"experiment": "ito-verify", "replicas": 1000, "level": 8},
            paths=1000,
            dominant=("dirac_ito.conv_matrix", "basis.hermite_weighted_sum"),
        ),
        Workload(
            "probe",
            {"experiment": "integrator-probe", "level": 11},
            paths=65,  # one probe path plus min(replicas, 64) continuity paths
            dominant=("basis.hermite_matrix", "trajectory.values_at"),
        ),
        Workload(
            "simulate",
            {"experiment": "simulate", "replicas": 400, "level": 10},
            paths=400,
            dominant=("csvio.emit_csv", "paths.to_rows"),
        ),
    )
}


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _gate_riemann(cfg: dict, csvs: dict, problems: list) -> float:
    rows = _rows(csvs["riemann_converge.csv"])
    expected = len(set(cfg["levels"])) - 1
    if len(rows) != expected:
        problems.append(f"riemann_converge.csv: {len(rows)} rows, expected {expected}")
    dump = _rows(csvs["integral_replica0.csv"])
    n = cfg["truncation"]
    times = {r["t"] for r in dump}
    if len(dump) != len(times) * n or len(times) < 2 ** max(cfg["levels"]) + 1:
        problems.append(
            f"integral_replica0.csv: {len(dump)} rows over {len(times)} times, "
            f"expected {n} rows per time on at least 2^{max(cfg['levels'])}+1 times"
        )
    levels = [int(r["level"]) for r in rows]
    diffs = [max(float(r["mean_ucp_dual_diff"]), 1e-300) for r in rows]
    slope = float(np.polyfit(levels, np.log2(diffs), 1)[0])
    slope_max = float(cfg["tolerances"].get("slope_max", -0.4))
    return slope_max / slope if slope < 0 else math.inf


def _gate_ito(cfg: dict, csvs: dict, problems: list) -> float:
    rows = _rows(csvs["ito_residuals.csv"])
    if len(rows) != cfg["replicas"]:
        problems.append(f"ito_residuals.csv: {len(rows)} rows, expected {cfg['replicas']}")
    gate = float(cfg["tolerances"].get("median_residual", 5e-3))
    return float(np.median([float(r["residual"]) for r in rows])) / gate


def _gate_probe(cfg: dict, csvs: dict, problems: list) -> float:
    cases = _rows(csvs["probe_cases.csv"])
    # the standard preset: stopping 2 integrands x 2 taus, linearity 2,
    # localization 3 levels x (3 test functions + 1 pasting), continuity 4
    if len(cases) != 22:
        problems.append(f"probe_cases.csv: {len(cases)} rows, expected 22")
    continuity = _rows(csvs["probe_continuity.csv"])
    if len(continuity) != 6:
        problems.append(f"probe_continuity.csv: {len(continuity)} rows, expected 6")
    return max(float(r["deviation"]) / float(r["tol"]) for r in cases)


def _gate_simulate(cfg: dict, csvs: dict, problems: list) -> float:
    names = sorted(n for n in csvs if n.startswith("path_"))
    if len(names) != cfg["replicas"] or len(csvs) != len(names):
        problems.append(f"{len(csvs)} CSVs, expected {cfg['replicas']} path files")
    grid = 2 ** cfg["level"] + 1
    finals = []
    for name in names:
        lines = csvs[name].rstrip(b"\r\n").split(b"\r\n")[1:]
        jumps = sum(1 for ln in lines if ln.endswith(b",1"))
        if len(lines) != grid + jumps:
            problems.append(f"{name}: {len(lines)} rows, expected {grid} + {jumps} jumps")
        finals.append(float(lines[-1].split(b",")[1]))
    finals = np.array(finals)
    model_mean = (
        cfg["z0"] + cfg["mu"] * cfg["horizon"]
        + cfg["jump_intensity"] * cfg["horizon"] * cfg["jump_mean"]
    )
    se = float(np.std(finals) / np.sqrt(len(finals)))
    dev = abs(float(np.mean(finals)) - model_mean)
    return dev / (4 * se) if se > 0 else (0.0 if dev == 0 else math.inf)


_GATES = {
    "riemann-converge": _gate_riemann,
    "ito-verify": _gate_ito,
    "integrator-probe": _gate_probe,
    "simulate": _gate_simulate,
}


@dataclass(frozen=True)
class RunCheck:
    problems: list       # empty when the run passes every check
    gate_ratio: float    # gated statistic over its gate; <= 1 passes, lower is better
    digest: str          # sha256 over the data CSVs, names and bytes


def check_run(exit_code: int, output_dir: Path) -> RunCheck:
    """Check one finished run from its exit code and the files it wrote."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        cfg = json.loads((output_dir / "config_resolved.json").read_text())
        summary = (output_dir / "summary.txt").read_text().splitlines()
        csvs = {p.name: p.read_bytes() for p in sorted(output_dir.glob("*.csv"))}
    except (OSError, ValueError) as exc:
        return RunCheck(problems + [f"unreadable output: {exc}"], math.inf, "")
    digest = hashlib.sha256()
    for name, data in csvs.items():
        digest.update(name.encode() + b"\0" + data + b"\0")
        if _NONFINITE.search(data):
            problems.append(f"{name}: non-finite value")
    try:
        gate_ratio = _GATES[cfg["experiment"]](cfg, csvs, problems)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        problems.append(f"malformed output: {exc!r}")
        gate_ratio = math.inf
    verdict = f"{cfg['experiment']}: PASS"
    if cfg["experiment"] != "simulate" and verdict not in summary:
        problems.append(f"summary lacks {verdict!r}")
    if not gate_ratio <= 1.0:
        problems.append(f"gate ratio {gate_ratio:.4g} > 1")
    return RunCheck(problems, gate_ratio, digest.hexdigest())
