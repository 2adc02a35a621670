"""Cadlag semimartingale paths: drift + Brownian + compound Poisson.

A simulated path stores its sampling grid (the uniform grid united with
the jump times, so every stored time carries an exact-in-law sample of the
continuous part), the continuous part itself, and an explicit jump ledger.
Right values z_t and left limits z_{t-} are both exact at stored times;
queries strictly between stored times interpolate the continuous part
linearly, which is only used for convenience plotting / dumping.

Jump times are jittered off dyadic grid points so left limits at jumps are
never ambiguous and partition times never collide with jumps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csvio import Table

__all__ = [
    "SemimartingaleSpec",
    "CadlagPath",
    "RandomPartition",
    "HistoryView",
    "simulate",
    "simulate_ensemble",
    "quadratic_variation",
    "bracket_continuous",
    "make_partition",
    "dyadic_partition",
    "first_passage_time",
    "jump_refined_partition",
    "hitting_partition",
    "stop_path",
]


class ContractError(ValueError):
    """Raised when a documented precondition is violated at runtime."""


@dataclass(frozen=True)
class SemimartingaleSpec:
    """Model parameters: dz = mu dt + sigma dW + compound-Poisson jumps."""

    z0: float = 0.0
    mu: float = 0.0
    sigma: float = 1.0
    jump_intensity: float = 0.0
    jump_mean: float = 0.0
    jump_sd: float = 1.0
    horizon: float = 1.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.jump_intensity < 0:
            raise ValueError("jump_intensity must be nonnegative")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")


@dataclass(frozen=True)
class CadlagPath:
    """One trajectory: grid samples of the continuous part plus a jump ledger."""

    spec: SemimartingaleSpec
    times: np.ndarray          # strictly increasing, times[0]=0, times[-1]=horizon
    cont: np.ndarray           # continuous part (z0 + drift + Brownian) at times
    jump_times: np.ndarray     # sorted, pairwise distinct, in (0, horizon]
    jump_sizes: np.ndarray
    base_grid: np.ndarray      # the uniform grid, a subset of times
    values: np.ndarray = field(init=False, repr=False, compare=False)
    left_values: np.ndarray = field(init=False, repr=False, compare=False)
    _jump_cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cum = np.concatenate([[0.0], np.cumsum(self.jump_sizes)])
        object.__setattr__(self, "_jump_cum", cum)
        # jumps at or before each stored time / strictly before it
        at_or_before = np.searchsorted(self.jump_times, self.times, side="right")
        before = np.searchsorted(self.jump_times, self.times, side="left")
        object.__setattr__(self, "values", self.cont + cum[at_or_before])
        object.__setattr__(self, "left_values", self.cont + cum[before])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def _cont_at(self, t: np.ndarray) -> np.ndarray:
        return np.interp(t, self.times, self.cont)

    def values_at(self, t, left: bool = False) -> np.ndarray:
        """z_t (or z_{t-} with ``left=True``) at arbitrary query times."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t)
        idx = np.clip(idx, 0, len(self.times) - 1)
        stored = self.times[idx] == t
        side = "left" if left else "right"
        cum = self._jump_cum[np.searchsorted(self.jump_times, t, side=side)]
        out = np.where(
            stored,
            (self.left_values if left else self.values)[idx],
            self._cont_at(t) + cum,
        )
        return out

    def value(self, t: float) -> float:
        return float(self.values_at(np.array([t]))[0])

    def left_value(self, t: float) -> float:
        return float(self.values_at(np.array([t]), left=True)[0])

    def jumps_upto(self, t: float):
        """(times, sizes) of ledger jumps with s <= t."""
        k = np.searchsorted(self.jump_times, t, side="right")
        return self.jump_times[:k], self.jump_sizes[:k]

    def to_rows(self) -> Table:
        """Columns (t, z_t, z_tminus, jump_flag) for CSV dumps."""
        return Table(
            t=self.times,
            z_t=self.values,
            z_tminus=self.left_values,
            jump_flag=np.isin(self.times, self.jump_times),
        )


class HistoryView:
    """Read access to a path restricted to [0, t].

    Integrand coefficient functionals receive one of these, which enforces
    the predictable-evaluation convention: nothing after the view time can
    be read.
    """

    __slots__ = ("_path", "t")

    def __init__(self, path: CadlagPath, t: float):
        self._path = path
        self.t = float(t)

    def _check(self, s: float) -> None:
        if s > self.t * (1 + 1e-12) + 1e-15:
            raise ContractError(
                f"history query at {s} exceeds view time {self.t}"
            )

    def value(self, s: float) -> float:
        self._check(s)
        return self._path.value(s)

    def left_value(self, s: float) -> float:
        self._check(s)
        return self._path.left_value(s)


@dataclass(frozen=True)
class RandomPartition:
    """A finite nondecreasing sequence of times starting at 0."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.size == 0 or t[0] != 0.0:
            raise ValueError("partition must start at 0")
        if np.any(np.diff(t) < 0):
            raise ValueError("partition times must be nondecreasing")
        object.__setattr__(self, "times", t)

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.times))) if self.times.size > 1 else 0.0

    def refined_with(self, extra) -> "RandomPartition":
        merged = np.unique(np.concatenate([self.times, np.asarray(extra, float)]))
        return RandomPartition(merged)


def _draw_jump_times(rng, count: int, horizon: float, forbidden: np.ndarray) -> np.ndarray:
    """Uniform jump times, re-drawn if they collide with grid points or each other."""
    times = np.sort(horizon * rng.uniform(size=count))
    for _ in range(100):
        bad = np.isin(times, forbidden) | np.concatenate(
            [[False], np.diff(times) == 0.0]
        ) | (times == 0.0)
        if not bad.any():
            return times
        times[bad] = horizon * rng.uniform(size=int(bad.sum()))
        times = np.sort(times)
    raise RuntimeError("could not jitter jump times off the grid")


def simulate(spec: SemimartingaleSpec, cells: int, seed) -> CadlagPath:
    """Simulate one path on a uniform grid with ``cells`` cells.

    The continuous part is exact in law at every stored time (Gaussian
    increments with mean mu*dt and variance sigma^2*dt, sampled on the
    union of the uniform grid and the jump times).  The same (spec, cells,
    seed) always produces the bit-identical path.
    """
    if cells < 1:
        raise ValueError("cells must be >= 1")
    rng = np.random.default_rng(seed)
    T = spec.horizon
    base = np.arange(cells + 1) * (T / cells)
    base[-1] = T

    n_jumps = rng.poisson(spec.jump_intensity * T) if spec.jump_intensity > 0 else 0
    if n_jumps > 0:
        # forbid collision with every dyadic subdivision a partition may use
        fine = np.arange(4 * cells + 1) * (T / (4 * cells))
        jump_times = _draw_jump_times(rng, n_jumps, T, fine)
        jump_sizes = rng.normal(spec.jump_mean, spec.jump_sd, n_jumps)
    else:
        jump_times = np.empty(0)
        jump_sizes = np.empty(0)

    times = np.unique(np.concatenate([base, jump_times]))
    dt = np.diff(times)
    incr = spec.mu * dt + spec.sigma * np.sqrt(dt) * rng.standard_normal(len(dt))
    cont = spec.z0 + np.concatenate([[0.0], np.cumsum(incr)])
    return CadlagPath(spec, times, cont, jump_times, jump_sizes, base)


def simulate_ensemble(spec: SemimartingaleSpec, cells: int, master_seed, count: int):
    """Independent paths; path i uses the stream seeded by (master_seed, i).

    Seeding per path keeps results independent of any scheduling order.
    """
    return [simulate(spec, cells, [master_seed, i]) for i in range(count)]


def quadratic_variation(path: CadlagPath, t: float) -> float:
    """[z, z]_t = sigma^2 t + sum of squared ledger jumps up to t (model-exact)."""
    _, sizes = path.jumps_upto(t)
    return path.spec.sigma**2 * t + float(np.sum(sizes**2))


def bracket_continuous(spec: SemimartingaleSpec, t: float) -> float:
    """<z^c, z^c>_t = sigma^2 t, the closed form for this model."""
    return spec.sigma**2 * t


def dyadic_partition(n: int, horizon: float) -> RandomPartition:
    """tau_k = k * horizon / 2^n."""
    return RandomPartition(np.arange(2**n + 1) * (horizon / 2**n))


def jump_refined_partition(base: RandomPartition, path: CadlagPath) -> RandomPartition:
    """The base partition merged with every ledger jump time."""
    return base.refined_with(path.jump_times[path.jump_times <= base.times[-1]])


def first_passage_time(path: CadlagPath, level: float) -> float:
    """First stored time with |z_t| >= level, capped at the horizon."""
    hit = np.abs(path.values) >= level
    return float(path.times[np.argmax(hit)]) if hit.any() else path.horizon


def hitting_partition(levels, path: CadlagPath) -> RandomPartition:
    """First-passage times of |z| through increasing levels, capped at T."""
    taus = [first_passage_time(path, lv) for lv in levels]
    times = np.concatenate([[0.0], np.maximum.accumulate(taus), [path.horizon]])
    return RandomPartition(times)


def make_partition(kind: str, params: dict, path: CadlagPath | None = None) -> RandomPartition:
    """Dispatcher used by the experiment runner.

    kind 'dyadic' needs params['level'] and params['horizon'] (or a path);
    'jump-refined' and 'hitting' need a path.
    """
    if kind == "dyadic":
        horizon = params.get("horizon", path.horizon if path else None)
        if horizon is None:
            raise ValueError("dyadic partition needs a horizon")
        return dyadic_partition(int(params["level"]), float(horizon))
    if kind == "jump-refined":
        if path is None:
            raise ValueError("jump-refined partition needs a path")
        base = dyadic_partition(int(params["level"]), path.horizon)
        return jump_refined_partition(base, path)
    if kind == "hitting":
        if path is None:
            raise ValueError("hitting partition needs a path")
        return hitting_partition(params["levels"], path)
    raise ValueError(f"unknown partition kind {kind!r}")


def stop_path(path: CadlagPath, tau: float) -> CadlagPath:
    """The stopped path t -> z_{t wedge tau} on the same horizon.

    Jumps after tau are dropped and all values beyond tau are frozen at
    z_tau.  Stopping is idempotent: stopping at a then b equals stopping
    at min(a, b) as a process.
    """
    if not 0.0 <= tau <= path.horizon:
        raise ValueError(f"tau {tau} outside [0, {path.horizon}]")
    times = path.times
    if tau not in times:
        times = np.unique(np.concatenate([times, [tau]]))
    cont_tau = float(np.interp(tau, path.times, path.cont))
    cont = np.where(times <= tau, np.interp(times, path.times, path.cont), cont_tau)
    keep = path.jump_times <= tau
    return CadlagPath(
        path.spec,
        times,
        cont,
        path.jump_times[keep],
        path.jump_sizes[keep],
        path.base_grid,
    )
