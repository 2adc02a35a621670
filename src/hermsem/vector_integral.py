"""Vector-valued stochastic integrals of finite-rank operator integrands.

An integrand R(t, w) f = sum_k h_k(t, w) <f, H_k> G_k acts on distributions
f and produces distributions; its dual action on test functions is
R'(t, w) psi = sum_k h_k(t, w) <G_k, psi> H_k.  The integral against a
cylindrical semimartingale X is constructed coefficientwise: the j-th dual
coefficient of int R dX is the scalar Riemann integral of R'h_j against X,
so the pairing identity

    < int R dX, psi > = int R' psi dX

holds for every psi in the truncated space by linearity.  Localized
integrands are handled by stopping and pasting, and the associativity
identity int H d(int R dX) = int R'(H) dX is exposed for direct numerical
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .basis import DimensionError, Distribution, HermiteBasis, TestFunction
from .csvio import Table
from .paths import CadlagPath, ContractError, HistoryView, RandomPartition, stop_path
from .scalar_integral import (
    CylindricalSemimartingale,
    ElementaryScalarIntegrand,
    ElementaryTestFnIntegrand,
    h_dot_z,
    riemann_scalar,
)
from .trajectory import ScalarTrajectory

__all__ = [
    "TensorIntegrand",
    "LocalizedIntegrand",
    "DistributionPath",
    "dual_apply",
    "vector_integrate",
    "riemann_vector",
    "RiemannRefinementReport",
    "localize_integrate",
    "integrate_then_integrate",
]


class _CoefProcess:
    """Uniform sampling interface over the accepted scalar-coefficient kinds."""

    def __init__(self, raw):
        self.raw = raw

    def resolve(self, path) -> "_ResolvedCoef":
        if isinstance(self.raw, ElementaryScalarIntegrand):
            return _ResolvedCoef(elementary=self.raw.resolve(path))
        if callable(self.raw):
            return _ResolvedCoef(fn=self.raw, path=path)
        return _ResolvedCoef(const=float(self.raw))


class _ResolvedCoef:
    def __init__(self, elementary=None, fn=None, path=None, const=None):
        self.elementary, self.fn, self.path, self.const = elementary, fn, path, const

    def sample_at(self, taus) -> np.ndarray:
        taus = np.asarray(taus, dtype=float)
        if self.elementary is not None:
            return self.elementary.sample_at(taus)
        if self.fn is not None:
            return np.array(
                [self.fn(float(t), HistoryView(self.path, float(t))) for t in taus]
            )
        return np.full(taus.shape, self.const)

    def value_at(self, taus) -> np.ndarray:
        taus = np.asarray(taus, dtype=float)
        if self.elementary is not None:
            return self.elementary.value_at(taus)
        if self.fn is not None:
            return self.sample_at(taus)
        return np.full(taus.shape, self.const)

    def atom(self) -> float:
        if self.elementary is not None:
            return self.elementary.a0
        if self.fn is not None:
            return float(self.fn(0.0, HistoryView(self.path, 0.0)))
        return self.const


@dataclass(frozen=True)
class TensorIntegrand:
    """R(t, w) f = sum_k h_k(t, w) <f, H_k> G_k, finitely many terms.

    Weak predictability holds because each h_k is predictable by
    construction; weak boundedness because each |h_k| is bounded.
    """

    terms: Sequence[tuple[object, TestFunction, Distribution]]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("tensor integrand needs at least one term")
        ns = {H.basis.truncation for _, H, _ in self.terms} | {
            G.basis.truncation for _, _, G in self.terms
        }
        if len(ns) > 1:
            raise ValueError("all tensor factors must share one truncation")

    @property
    def basis(self) -> HermiteBasis:
        return self.terms[0][1].basis

    def __add__(self, other: "TensorIntegrand") -> "TensorIntegrand":
        return TensorIntegrand(tuple(self.terms) + tuple(other.terms))

    def scale(self, c: float) -> "TensorIntegrand":
        return TensorIntegrand(
            tuple((h, H, G * float(c)) for h, H, G in self.terms)
        )

    def project_output(self, n: int) -> "TensorIntegrand":
        """P_n composed with R: zero every output coefficient with index >= n."""
        out = []
        for h, H, G in self.terms:
            f = G.dual_coeffs.copy()
            f[n:] = 0.0
            out.append((h, H, Distribution(G.basis, f, G.regularity_index)))
        return TensorIntegrand(tuple(out))

    def resolve(self, path):
        return [
            (_CoefProcess(h).resolve(path), H, G) for h, H, G in self.terms
        ]


def dual_apply(
    R: TensorIntegrand, t: float, path: CadlagPath, psi: TestFunction
) -> TestFunction:
    """R'(t) psi = sum_k h_k(t) <G_k, psi> H_k, with predictable evaluation."""
    basis = psi.basis
    out = np.zeros(basis.truncation)
    for coef, H, G in R.resolve(path):
        hval = float(coef.value_at(np.array([t]))[0])
        out += hval * float(G.dual_coeffs @ psi.coeffs) * H.coeffs
    return TestFunction(basis, out)


@dataclass(frozen=True)
class DistributionPath:
    """A dual-coefficient trajectory: coeffs[i, j] = <Y_{times[i]}, h_j>."""

    basis: HermiteBasis
    times: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (len(t), self.basis.truncation):
            raise ValueError("coefficient matrix shape mismatch")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "coeffs", c)

    def pair_with(self, psi: TestFunction) -> ScalarTrajectory:
        return ScalarTrajectory(self.times, self.coeffs @ psi.coeffs)

    def at(self, t: float) -> Distribution:
        idx = np.searchsorted(self.times, t, side="right") - 1
        return Distribution(self.basis, self.coeffs[max(idx, 0)].copy())

    def stop(self, tau: float) -> "DistributionPath":
        idx = np.searchsorted(self.times, tau, side="right") - 1
        frozen = self.coeffs[max(idx, 0)]
        rows = np.where(
            (self.times <= tau)[:, None], self.coeffs, frozen[None, :]
        )
        return DistributionPath(self.basis, self.times, rows)

    def __add__(self, other: "DistributionPath") -> "DistributionPath":
        return DistributionPath(self.basis, self.times, self.coeffs + other.coeffs)

    def __sub__(self, other: "DistributionPath") -> "DistributionPath":
        return DistributionPath(self.basis, self.times, self.coeffs - other.coeffs)

    def __mul__(self, a: float) -> "DistributionPath":
        return DistributionPath(self.basis, self.times, self.coeffs * float(a))

    __rmul__ = __mul__

    def dual_sup(self, r: int, upto: float | None = None) -> float:
        """sup over times of the level-r dual seminorm."""
        w = self.basis.seminorm_weights(-r)
        mask = slice(None) if upto is None else self.times <= upto
        return float(np.sqrt(np.max(self.coeffs[mask] ** 2 @ w)))

    def to_rows(self) -> Table:
        """Long-format columns (t, j, f_j) for CSV dumps, one row per (t, j)."""
        n = self.basis.truncation
        return Table(
            t=np.repeat(self.times, n),
            j=np.tile(np.arange(n), len(self.times)),
            f_j=self.coeffs.ravel(),
        )


def _default_times(path: CadlagPath, partition: RandomPartition) -> np.ndarray:
    return np.unique(np.concatenate([path.times, partition.times]))


def _scalar_riemann_values(
    coef_samples: np.ndarray,
    atom: float,
    p_at_taus: np.ndarray,
    p_at_queries: np.ndarray,
    p0: float,
    taus: np.ndarray,
    queries: np.ndarray,
) -> np.ndarray:
    """Riemann-sum trajectory for one scalar coefficient process."""
    incr = coef_samples * np.diff(p_at_taus)
    prefix = np.concatenate([[0.0], np.cumsum(incr)])
    i = np.clip(np.searchsorted(taus, queries, side="right") - 1, 0, len(taus) - 1)
    out = atom * p0 + prefix[i]
    partial = i < len(taus) - 1
    if partial.any():
        out = np.array(out, dtype=float)
        out[partial] += (
            coef_samples[i[partial]]
            * (p_at_queries[partial] - p_at_taus[i[partial]])
        )
    return out


def vector_integrate(
    R: TensorIntegrand,
    X: CylindricalSemimartingale,
    path: CadlagPath,
    partition: RandomPartition,
    times=None,
) -> DistributionPath:
    """int R dX as a dual-coefficient trajectory.

    Coefficientwise this is the left-point Riemann sum of R'h_j against X;
    the tensor structure lets all N coefficients share the per-term scalar
    sums u_k, so the cost is O(terms * (|partition| + |times|) * N).
    """
    if times is None:
        times = _default_times(path, partition)
    queries = np.asarray(times, dtype=float)
    taus = partition.times
    basis = R.basis
    x_basis = getattr(X, "basis", None)
    if x_basis is not None and x_basis.truncation != basis.truncation:
        raise DimensionError(
            f"integrator truncation {x_basis.truncation} does not match "
            f"integrand truncation {basis.truncation}"
        )
    coeffs = np.zeros((len(queries), basis.truncation))
    for coef, H, G in R.resolve(path):
        samples = coef.sample_at(taus[:-1])
        p_taus = X.pair_many(path, taus, H)
        p_queries = X.pair_many(path, queries, H)
        u = _scalar_riemann_values(
            samples, coef.atom(), p_taus, p_queries, p_taus[0], taus, queries
        )
        coeffs += np.outer(u, G.dual_coeffs)
    return DistributionPath(basis, queries, coeffs)


@dataclass(frozen=True)
class RiemannRefinementReport:
    """Successive-refinement diagnostics for one path."""

    levels: np.ndarray
    successive_sup: np.ndarray   # sup_t p'_r(Y_n - Y_{n+1})
    reference_sup: np.ndarray    # sup_t p'_r(Y_n - Y_ref), if a reference was given
    r: int

    def log2_slope(self) -> float:
        y = np.log2(np.maximum(self.successive_sup, 1e-300))
        return float(np.polyfit(self.levels, y, 1)[0])


def riemann_vector(
    R: TensorIntegrand,
    X: CylindricalSemimartingale,
    path: CadlagPath,
    partitions: Sequence[RandomPartition],
    r: int = 1,
    reference: RandomPartition | None = None,
    levels=None,
) -> RiemannRefinementReport:
    """Evaluate int R^{sigma_n} dX along a refining partition sequence.

    Reports the sup-dual-seminorm differences between successive
    refinements (and against a reference partition when given); for
    partitions tending to the identity these must shrink.
    """
    times = np.unique(
        np.concatenate(
            [path.times] + [p.times for p in partitions]
            + ([reference.times] if reference is not None else [])
        )
    )
    ys = [vector_integrate(R, X, path, p, times) for p in partitions]
    succ = np.array(
        [(a - b).dual_sup(r) for a, b in zip(ys[:-1], ys[1:])]
    )
    if reference is not None:
        yref = vector_integrate(R, X, path, reference, times)
        ref = np.array([(y - yref).dual_sup(r) for y in ys])
    else:
        ref = np.full(len(ys), np.nan)
    lv = np.asarray(levels if levels is not None else np.arange(len(partitions)))
    return RiemannRefinementReport(lv[: len(succ)], succ, ref, r)


@dataclass(frozen=True)
class LocalizedIntegrand:
    """A rule for tensor integrands valid on stochastic intervals [0, tau_n].

    ``base(n, tau)`` must return the bounded tensor integrand used on
    [0, tau_n]; rules for different n must agree on overlaps.  Levels are
    either first-passage thresholds for |z| or deterministic times.
    """

    base: Callable[[int, float], TensorIntegrand]
    levels: Sequence[float]
    kind: str = "first-passage"

    def resolve_taus(self, path: CadlagPath) -> np.ndarray:
        if self.kind == "deterministic":
            taus = np.minimum(np.asarray(self.levels, float), path.horizon)
        elif self.kind == "first-passage":
            from .paths import first_passage_time

            taus = np.array(
                [first_passage_time(path, lv) for lv in self.levels]
            )
        else:
            raise ValueError(f"unknown localization kind {self.kind!r}")
        taus = np.maximum.accumulate(taus)
        if taus[-1] < path.horizon:
            raise ContractError(
                "localizing sequence does not exhaust the horizon on this path"
            )
        return taus


def localize_integrate(
    L: LocalizedIntegrand,
    X: CylindricalSemimartingale,
    path: CadlagPath,
    partition: RandomPartition,
    overlap_tol: float = 1e-9,
) -> DistributionPath:
    """Paste stopped integrals of a localized integrand.

    On (tau_{n-1}, tau_n] the output equals the integral of the stopped
    bounded integrand base(n, tau_n); overlap consistency between levels is
    checked and violations raise a ContractError.
    """
    taus = L.resolve_taus(path)
    part = partition.refined_with(taus)
    times = np.unique(np.concatenate([_default_times(path, part), taus]))
    pieces = []
    for n, tau in enumerate(taus):
        R_n = L.base(n, float(tau))
        stopped = stop_path(path, float(tau))
        pieces.append(vector_integrate(R_n, X, stopped, part, times))
        if tau >= path.horizon:
            break
    out = pieces[-1].coeffs.copy()
    prev_tau = 0.0
    for n, piece in enumerate(pieces):
        tau = taus[n]
        seg = (times > prev_tau) & (times <= tau)
        for later in pieces[n + 1 :]:
            overlap = np.max(
                np.abs(piece.coeffs[times <= tau] - later.coeffs[times <= tau]),
                initial=0.0,
            )
            if overlap > overlap_tol:
                raise ContractError(
                    f"localized pieces disagree on [0, {tau}] by {overlap}"
                )
        out[seg] = piece.coeffs[seg]
        if len(times) and times[0] == 0.0 and n == 0:
            out[0] = piece.coeffs[0]
        prev_tau = tau
    return DistributionPath(pieces[-1].basis, times, out)


class _ProductSampler:
    """Sampler for R'(H)(t) = R'(t) H(t) with elementary H and tensor R."""

    def __init__(self, H: ElementaryTestFnIntegrand, R: TensorIntegrand, path):
        self.h_terms = [(h.resolve(path), phi) for h, phi in H.terms]
        self.r_terms = R.resolve(path)
        self.basis = R.basis

    def _combine(self, count, h_vals_list, r_vals_list) -> np.ndarray:
        out = np.zeros((count, self.basis.truncation))
        for (_, phi), h_vals in zip(self.h_terms, h_vals_list):
            for (_, H_l, G_l), r_vals in zip(self.r_terms, r_vals_list):
                pairing = float(G_l.dual_coeffs @ phi.coeffs)
                out += np.outer(h_vals * r_vals * pairing, H_l.coeffs)
        return out

    def sample_many(self, taus, path) -> np.ndarray:
        h_vals = [res.sample_at(taus) for res, _ in self.h_terms]
        r_vals = [coef.sample_at(taus) for coef, _, _ in self.r_terms]
        return self._combine(len(taus), h_vals, r_vals)

    def sample_atom(self, path) -> np.ndarray:
        h_vals = [np.array([res.a0]) for res, _ in self.h_terms]
        r_vals = [np.array([coef.atom()]) for coef, _, _ in self.r_terms]
        return self._combine(1, h_vals, r_vals)[0]


class _DistributionPathDriver:
    """Driver interface for t -> <Y_t, phi> along a DistributionPath."""

    def __init__(self, Y: DistributionPath, phi: TestFunction):
        self.traj = Y.pair_with(phi)

    def values_at(self, ts, left=False):
        return self.traj.values_at(ts, left=left)


def integrate_then_integrate(
    H: ElementaryTestFnIntegrand,
    R: TensorIntegrand,
    X: CylindricalSemimartingale,
    path: CadlagPath,
    partition: RandomPartition,
) -> tuple[ScalarTrajectory, ScalarTrajectory]:
    """Both sides of int H dY = int R'(H) dX, with Y = int R dX.

    The left side integrates H against the computed DistributionPath Y by
    the elementary formula; the right side forms the product integrand
    R'(t)H(t) and Riemann-integrates it against X directly.
    """
    times = _default_times(path, partition)
    Y = vector_integrate(R, X, path, partition, times)
    lhs_vals = np.zeros(len(times))
    for h, phi in H.terms:
        drv = _DistributionPathDriver(Y, phi)
        lhs_vals += h_dot_z(h, drv, times, view_driver=path).values
    lhs = ScalarTrajectory(times, lhs_vals)
    rhs = riemann_scalar(_ProductSampler(H, R, path), X, path, partition, times)
    return lhs, rhs
