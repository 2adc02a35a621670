"""Empirical probes of the good-integrator property and structural identities.

Exact identities (stopping, linearity, localization pasting) hold pathwise
by telescoping algebra and are checked at tolerance 1e-10 regardless of
Monte-Carlo noise.  Convergence probes (continuity of the integral
mapping) can never certify the good-integrator property, which quantifies
over an infinite-dimensional ball of integrands; they are falsification
tools.  A sequence H_k -> 0 whose integral metrics fail to shrink is a
counterexample certificate; shrinking metrics are merely "consistent with"
the property, and reports word it that way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .basis import Distribution, TestFunction, basis_vector, seminorm
from .csvio import Table
from .metrics import (
    IntegrandDictionary,
    ProcessEnsemble,
    r_ucp_replicas,
)
from .paths import CadlagPath, RandomPartition, stop_path
from .scalar_integral import (
    CylindricalSemimartingale,
    ElementaryScalarIntegrand,
    ElementaryTestFnIntegrand,
    h_dot_z,
    integrate_elementary,
)
from .trajectory import ScalarTrajectory
from .vector_integral import TensorIntegrand, vector_integrate

__all__ = [
    "ProbeCase",
    "ProbeReport",
    "case_table",
    "stopping_probe",
    "continuity_probe",
    "localization_probe",
    "linearity_probe",
    "truncate_elementary",
]

EXACT_TOL = 1e-10


@dataclass(frozen=True)
class ProbeCase:
    label: str
    deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tol


@dataclass
class ProbeReport:
    """Per-case pass/fail plus metric tables for convergence probes."""

    name: str
    cases: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    notes: str = ""

    def add_case(self, label: str, deviation: float, tol: float = EXACT_TOL):
        self.cases.append(ProbeCase(label, float(deviation), tol))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def summary_lines(self) -> list[str]:
        lines = [f"[{self.name}] {'PASS' if self.passed else 'FAIL'}"]
        for c in self.cases:
            lines.append(
                f"  {'pass' if c.passed else 'FAIL'}  {c.label}: "
                f"deviation {c.deviation:.3e} (tol {c.tol:.1e})"
            )
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return lines


def case_table(reports: Sequence[ProbeReport]) -> Table:
    """Columns (probe, case, deviation, tol, passed), one row per case."""
    cases = [(rep.name, c) for rep in reports for c in rep.cases]
    return Table(
        probe=[name for name, _ in cases],
        case=[c.label for _, c in cases],
        deviation=[c.deviation for _, c in cases],
        tol=[c.tol for _, c in cases],
        passed=[c.passed for _, c in cases],
    )


def standard_probe_preset(basis, spec, seed: int = 0) -> dict:
    """The named probe set used by the batch runner ("standard").

    Fixing the test functions, integrands, tensor integrands, shrinking
    sequence, and stopping levels in one place keeps probe reports
    comparable across runs and machines.
    """
    rng = np.random.default_rng([seed, 424242])
    e = [basis_vector(basis, j) for j in range(3)]
    h_plain = ElementaryScalarIntegrand(
        a0=0.5,
        blocks=[(0.0, 1.0), (spec.horizon / 2, -1.0)],
        end=spec.horizon,
        bound=1.0,
    )
    h_adapted = ElementaryScalarIntegrand(
        blocks=[
            (0.0, 1.0),
            (spec.horizon / 4, lambda v: float(np.tanh(v.value(v.t)))),
        ],
        end=spec.horizon,
        bound=1.0,
    )
    G1 = Distribution(basis, 1.0 / (1.0 + np.arange(basis.truncation)))
    G2 = Distribution(basis, rng.normal(size=basis.truncation) / 4)
    return {
        "name": "standard",
        "test_functions": e,
        "integrands": [
            ElementaryTestFnIntegrand([(h_plain, e[0])]),
            ElementaryTestFnIntegrand([(h_plain, e[1]), (h_adapted, e[2])]),
        ],
        "tensor_R": TensorIntegrand([(h_plain, e[0], G1), (0.75, e[1], G2)]),
        "tensor_S": TensorIntegrand([(h_adapted, e[2], G2)]),
        "scalar_c": float(rng.normal()),
        "levels": [1.0, 2.0, 3.0],
        "shrinking": [
            ElementaryTestFnIntegrand(
                [(
                    ElementaryScalarIntegrand(
                        blocks=[(0.0, 1.0 / k)], end=spec.horizon, bound=1.0
                    ),
                    e[0],
                )]
            )
            for k in range(1, 7)
        ],
    }


def truncate_elementary(
    h: ElementaryScalarIntegrand, tau: float
) -> ElementaryScalarIntegrand:
    """h * 1_{[0, tau]}: drop blocks after tau and clip the last one."""
    blocks = [(t, c) for t, c in h.blocks if t < tau]
    end = tau if h.end is None else min(h.end, tau)
    return ElementaryScalarIntegrand(a0=h.a0, blocks=blocks, end=end, bound=h.bound)


def stopping_probe(
    X: CylindricalSemimartingale,
    path: CadlagPath,
    integrands: Sequence[ElementaryTestFnIntegrand],
    taus: Sequence[float],
) -> ProbeReport:
    """(int H dX)^tau = int H 1_{[0,tau]} dX = int H dX^tau, pathwise."""
    report = ProbeReport("stopping")
    times = path.times
    for i, H in enumerate(integrands):
        full = integrate_elementary(H, X, path, times)
        for tau in taus:
            stopped_out = full.stop(tau)
            H_trunc = ElementaryTestFnIntegrand(
                [(truncate_elementary(h, tau), phi) for h, phi in H.terms]
            )
            trunc_in = integrate_elementary(H_trunc, X, path, times)
            stopped_path = integrate_elementary(H, X, stop_path(path, tau), times)
            d1 = np.max(np.abs(stopped_out.values - trunc_in.values))
            d2 = np.max(np.abs(stopped_out.values - stopped_path.values))
            report.add_case(f"H{i} tau={tau:.4g}", max(d1, d2))
    return report


def continuity_probe(
    X: CylindricalSemimartingale,
    paths: Sequence[CadlagPath],
    integrand_sequence: Sequence[ElementaryTestFnIntegrand],
    dictionary: IntegrandDictionary,
    n_max: int = 1,
    threshold: float = 0.05,
    seminorm_level: int = 1,
) -> ProbeReport:
    """Metrics of int H_k dX for H_k -> 0 in the sup-seminorm sense.

    PASS requires the UCP and Emery-dictionary estimates to decrease
    monotonically up to a 2-standard-error noise band and the final values
    to fall below ``threshold``.  A failure is a counterexample
    certificate; success is only consistent with continuity.
    """
    report = ProbeReport("continuity")
    grid = paths[0].base_grid
    sizes, ucps, ses, ems = [], [], [], []
    for H in integrand_sequence:
        trajs = [integrate_elementary(H, X, p, grid) for p in paths]
        ens = ProcessEnsemble.from_trajectories(trajs, grid)
        reps = r_ucp_replicas(ens, n_max)
        ucps.append(float(np.mean(reps)))
        ses.append(float(np.std(reps) / np.sqrt(len(reps))))
        emery = 0.0
        for h in dictionary.elements:
            vals = np.vstack(
                [h_dot_z(h, tr, grid).values for tr in trajs]
            )
            emery = max(
                emery, float(np.mean(r_ucp_replicas(ProcessEnsemble(grid, vals), n_max)))
            )
        ems.append(emery)
        term_sizes = [
            max(abs(v) for v in _coef_bounds(h)) * seminorm(phi, seminorm_level)
            for h, phi in H.terms
        ]
        sizes.append(float(max(term_sizes)) if term_sizes else 0.0)
    report.tables["continuity"] = Table(
        k=np.arange(len(ucps)),
        integrand_size=sizes,
        ucp_estimate=ucps,
        ucp_se=ses,
        emery_lower_bound=ems,
    )
    mono_ucp = all(b <= a + 2 * s for a, b, s in zip(ucps, ucps[1:], ses[1:]))
    mono_em = all(b <= a + 2 * s for a, b, s in zip(ems, ems[1:], ses[1:]))
    report.add_case("ucp monotone within noise", 0.0 if mono_ucp else 1.0, 0.5)
    report.add_case("emery monotone within noise", 0.0 if mono_em else 1.0, 0.5)
    report.add_case("final ucp below threshold", ucps[-1], threshold)
    report.add_case("final emery below threshold", ems[-1], threshold)
    report.notes = (
        "shrinking estimates are consistent with S0-continuity; "
        "a non-shrinking sequence would be a counterexample certificate"
    )
    return report


def _coef_bounds(h: ElementaryScalarIntegrand):
    vals = [c for _, c in h.blocks if not callable(c)]
    if not callable(h.a0):
        vals.append(h.a0)
    return vals or [h.bound if np.isfinite(h.bound) else 1.0]


def localization_probe(
    X: CylindricalSemimartingale,
    path: CadlagPath,
    levels: Sequence[float],
    probes: Sequence[TestFunction],
    R: TensorIntegrand,
    partition: RandomPartition,
) -> ProbeReport:
    """Stopping consistency <X^{tau_n}, phi> = <X, phi>^{tau_n} and pasting."""
    from .paths import first_passage_time

    report = ProbeReport("localization")
    times = path.times
    for n, level in enumerate(levels):
        tau = first_passage_time(path, level)
        stopped = stop_path(path, tau)
        for j, phi in enumerate(probes):
            lhs = X.pair_many(stopped, times, phi)
            rhs = ScalarTrajectory(times, X.pair_many(path, times, phi)).stop(tau)
            report.add_case(
                f"level {level:g} phi{j} pairing", float(np.max(np.abs(lhs - rhs.values)))
            )
        part_tau = partition.refined_with([tau])
        y_direct = vector_integrate(R, X, path, part_tau).stop(tau)
        y_stopped = vector_integrate(
            R, X, stopped, part_tau, times=y_direct.times
        )
        report.add_case(
            f"level {level:g} integral pasting",
            float(np.max(np.abs(y_direct.coeffs - y_stopped.coeffs))),
        )
    return report


def linearity_probe(
    X: CylindricalSemimartingale,
    Y: CylindricalSemimartingale,
    R: TensorIntegrand,
    S: TensorIntegrand,
    c: float,
    path: CadlagPath,
    partition: RandomPartition,
    tol: float = 1e-12,
) -> ProbeReport:
    """Bilinearity: int (cR+S) dX = c int R dX + int S dX and additivity in X."""
    report = ProbeReport("linearity")
    times = np.unique(np.concatenate([path.times, partition.times]))
    comb = R.scale(c) + S
    lhs = vector_integrate(comb, X, path, partition, times)
    rhs = c * vector_integrate(R, X, path, partition, times) + vector_integrate(
        S, X, path, partition, times
    )
    report.add_case(
        "integrand linearity", float(np.max(np.abs(lhs.coeffs - rhs.coeffs))), tol
    )
    lhs2 = vector_integrate(R, X + Y, path, partition, times)
    rhs2 = vector_integrate(R, X, path, partition, times) + vector_integrate(
        R, Y, path, partition, times
    )
    report.add_case(
        "integrator additivity", float(np.max(np.abs(lhs2.coeffs - rhs2.coeffs))), tol
    )
    return report
