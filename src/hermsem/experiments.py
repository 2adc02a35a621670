"""The batch experiments behind the command-line runner.

Each experiment consumes an :class:`~hermsem.config.ExperimentConfig`,
produces data tables (written as deterministic CSV) and a list of summary
lines, and reports pass/fail where it has a gate.  Everything is seeded
from the config seed through named spawn keys, so a (config, seed) pair
fixes every output byte.
"""

from __future__ import annotations

import numpy as np

from .basis import HermiteBasis, basis_vector, dual_basis_vector, Distribution
from .config import ConfigError, ExperimentConfig
from .csvio import Table
from .diagnostics import (
    case_table,
    continuity_probe,
    linearity_probe,
    localization_probe,
    standard_probe_preset,
    stopping_probe,
)
from .dirac_ito import DiracSemimartingale, ito_residual
from .metrics import (
    IntegrandDictionary,
    ProcessEnsemble,
    r_em_estimate,
    r_ucp_estimate,
    ucp_tail_bound,
)
from .paths import (
    RandomPartition,
    SemimartingaleSpec,
    dyadic_partition,
    hitting_partition,
    jump_refined_partition,
    simulate,
)
from .vector_integral import TensorIntegrand, vector_integrate

__all__ = ["run_experiment", "EXPERIMENT_RUNNERS"]


def _model(cfg: ExperimentConfig) -> SemimartingaleSpec:
    return SemimartingaleSpec(
        z0=cfg.z0,
        mu=cfg.mu,
        sigma=cfg.sigma,
        jump_intensity=cfg.jump_intensity,
        jump_mean=cfg.jump_mean,
        jump_sd=cfg.jump_sd,
        horizon=cfg.horizon,
    )


def _basis(cfg: ExperimentConfig) -> HermiteBasis:
    return HermiteBasis(cfg.truncation, cfg.quad_order)


def _partition(cfg: ExperimentConfig, level: int, path) -> RandomPartition:
    if cfg.partition_kind == "hitting":
        return hitting_partition(cfg.hitting_levels, path)
    base = dyadic_partition(level, path.horizon)
    if cfg.partition_kind == "dyadic":
        return base
    return jump_refined_partition(base, path)


def _slope(levels, values) -> float:
    return float(np.polyfit(levels, np.log2(np.maximum(values, 1e-300)), 1)[0])


def run_simulate(cfg: ExperimentConfig):
    spec = _model(cfg)
    cells = 2**cfg.level
    tables = {}
    finals = []
    width = len(str(max(cfg.replicas - 1, 0)))
    for i in range(cfg.replicas):
        path = simulate(spec, cells, [cfg.seed, i])
        finals.append(path.value(spec.horizon))
        tables[f"path_{i:0{width}d}.csv"] = path.to_rows()
    finals = np.array(finals)
    se = float(np.std(finals) / np.sqrt(len(finals)))
    summary = [
        f"simulated {cfg.replicas} paths on a 2^{cfg.level}-cell grid",
        f"sample mean z_T = {np.mean(finals):.6g} (SE {se:.3g})",
        f"model mean z_T = {spec.z0 + spec.mu * spec.horizon + spec.jump_intensity * spec.horizon * spec.jump_mean:.6g}",
    ]
    return tables, summary, True


def run_metrics(cfg: ExperimentConfig):
    if cfg.horizon < cfg.n_max:
        raise ConfigError("field 'horizon': must be >= n_max for metrics")
    spec = _model(cfg)
    cells = 2**cfg.level

    def sampler(i):
        return simulate(spec, cells, [cfg.seed, i])

    paths = [sampler(i) for i in range(cfg.replicas)]
    ens = ProcessEnsemble.from_paths(paths)
    rucp = r_ucp_estimate(ens, cfg.n_max)
    dictionary = IntegrandDictionary.default(spec.horizon, seed=cfg.seed)
    rem = r_em_estimate(sampler, dictionary, cfg.replicas, cfg.n_max)
    tail = ucp_tail_bound(cfg.n_max)
    table = Table(
        metric_name=["r_ucp", "r_em_lower_bound"],
        value=[rucp, rem],
        tail_bound=[tail, tail],
        replicas=[cfg.replicas] * 2,
        seed=[cfg.seed] * 2,
    )
    summary = [
        f"r_ucp estimate {rucp:.6g} (series tail <= {tail:.3g})",
        f"Emery dictionary lower bound {rem:.6g} "
        f"({len(dictionary.elements)} dictionary elements)",
    ]
    return {"metrics.csv": table}, summary, True


def _convergence_integrand(basis: HermiteBasis) -> TensorIntegrand:
    decay = 1.0 / (1.0 + np.arange(basis.truncation)) ** 2
    G = Distribution(basis, decay)

    def bounded_level(t, view):
        return float(np.tanh(view.value(t)))

    return TensorIntegrand([(bounded_level, basis_vector(basis, 0), G)])


def run_riemann_converge(cfg: ExperimentConfig):
    if cfg.partition_kind == "hitting":
        raise ConfigError(
            "field 'partition_kind': riemann-converge needs a refining "
            "sequence; use 'dyadic' or 'jump-refined'"
        )
    spec = _model(cfg)
    basis = _basis(cfg)
    X = DiracSemimartingale(basis)
    R = _convergence_integrand(basis)
    levels = sorted(set(cfg.levels))
    if len(levels) < 2:
        raise ConfigError(
            "field 'levels': riemann-converge needs at least two distinct levels"
        )
    cells = 2 ** max(levels)
    diffs = {n: [] for n in levels[:-1]}
    finest_dump = None
    for i in range(cfg.replicas):
        path = simulate(spec, cells, [cfg.seed, i])
        parts = [_partition(cfg, n, path) for n in levels]
        ys = [vector_integrate(R, X, path, p, path.times) for p in parts]
        if i == 0:
            finest_dump = ys[-1].to_rows()
        for n, a, b in zip(levels[:-1], ys[:-1], ys[1:]):
            diffs[n].append(min(1.0, (a - b).dual_sup(1)))
    means = [float(np.mean(diffs[n])) for n in levels[:-1]]
    ses = [float(np.std(diffs[n]) / np.sqrt(len(diffs[n]))) for n in levels[:-1]]
    table = Table(
        level=levels[:-1],
        mean_ucp_dual_diff=means,
        se=ses,
        replicas=[cfg.replicas] * len(means),
        seed=[cfg.seed] * len(means),
    )
    slope = _slope(levels[:-1], means)
    slope_max = cfg.tolerance("slope_max", -0.4)
    ok = slope <= slope_max
    summary = [
        f"successive-refinement UCP-dual differences over levels {levels}",
        f"log2 slope {slope:.3f} (gate: <= {slope_max})",
        f"riemann-converge: {'PASS' if ok else 'FAIL'}",
    ]
    tables = {"riemann_converge.csv": table}
    if finest_dump is not None:
        tables["integral_replica0.csv"] = finest_dump
    return tables, summary, ok


def run_ito_verify(cfg: ExperimentConfig):
    spec = _model(cfg)
    basis = _basis(cfg)
    T = dual_basis_vector(basis, 0)
    phi = basis_vector(basis, 0)
    cells = 2**cfg.level
    residuals = []
    for i in range(cfg.replicas):
        path = simulate(spec, cells, [cfg.seed, i])
        # the verifier requires every jump time in the partition, whatever
        # the configured base kind
        part = jump_refined_partition(_partition(cfg, cfg.level, path), path)
        res = ito_residual(T, path, phi, part)
        residuals.append(res)
    table = Table(
        seed=[f"{cfg.seed}-{i}" for i in range(cfg.replicas)],  # per-replica spawn key
        mesh_level=[cfg.level] * cfg.replicas,
        phi_id=["e0"] * cfg.replicas,
        T_id=["dual_e0"] * cfg.replicas,
        residual=residuals,
    )
    med = float(np.median(residuals))
    gate = cfg.tolerance("median_residual", 5e-3)
    ok = med <= gate
    summary = [
        f"Ito-formula residuals for {cfg.replicas} paths at dyadic level {cfg.level}",
        f"median residual {med:.6g} (gate: <= {gate:g})",
        f"ito-verify: {'PASS' if ok else 'FAIL'}",
    ]
    return {"ito_residuals.csv": table}, summary, ok


def run_integrator_probe(cfg: ExperimentConfig):
    spec = _model(cfg)
    basis = _basis(cfg)
    X = DiracSemimartingale(basis)
    cells = 2**cfg.level
    path = simulate(spec, cells, [cfg.seed, 0])
    part = _partition(cfg, min(cfg.level, 6), path)
    preset = standard_probe_preset(basis, spec, seed=cfg.seed)

    from .paths import first_passage_time

    taus = [spec.horizon / 2, first_passage_time(path, 1.0)]
    reports = [stopping_probe(X, path, preset["integrands"], taus)]
    reports.append(
        linearity_probe(
            X,
            DiracSemimartingale(basis),
            preset["tensor_R"],
            preset["tensor_S"],
            preset["scalar_c"],
            path,
            part,
        )
    )
    reports.append(
        localization_probe(
            X, path, preset["levels"], preset["test_functions"], preset["tensor_R"], part
        )
    )

    probe_paths = [
        simulate(spec, cells, [cfg.seed, 100 + i]) for i in range(min(cfg.replicas, 64))
    ]
    dictionary = IntegrandDictionary.default(spec.horizon, seed=cfg.seed)
    reports.append(
        continuity_probe(
            X,
            probe_paths,
            preset["shrinking"],
            dictionary,
            n_max=cfg.n_max,
            threshold=cfg.tolerance("continuity_threshold", 0.25),
        )
    )

    tables = {"probe_cases.csv": case_table(reports)}
    for rep in reports:
        for name, table in rep.tables.items():
            tables[f"probe_{name}.csv"] = table
    summary = []
    for rep in reports:
        summary.extend(rep.summary_lines())
    ok = all(rep.passed for rep in reports)
    summary.append(f"integrator-probe: {'PASS' if ok else 'FAIL'}")
    return tables, summary, ok


EXPERIMENT_RUNNERS = {
    "simulate": run_simulate,
    "metrics": run_metrics,
    "riemann-converge": run_riemann_converge,
    "ito-verify": run_ito_verify,
    "integrator-probe": run_integrator_probe,
}


def run_experiment(cfg: ExperimentConfig):
    """Dispatch; returns (tables, summary_lines, passed)."""
    return EXPERIMENT_RUNNERS[cfg.experiment](cfg)
