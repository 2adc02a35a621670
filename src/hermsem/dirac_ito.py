"""The Dirac semimartingale delta_{z_t} and the distribution-valued Ito formula.

The pairing-level identity being verified is, for f(a) = <T * delta_a, phi>
= T(phi(. + a)),

    f(z_t) = f(z_0) - A(t) + (1/2) B(t) + C(t),

where A carries the stochastic-integral term (with the minus sign of one
distributional derivative), B the second-derivative bracket term, and C the
jump compensation sum.  Operationally:

    A(t) = - sum_k T(dphi(. + z_{tau_k})) (z_{tau_{k+1} ^ t} - z_{tau_k ^ t})
    B(t) =   sum_k T(d2phi(. + z_{tau_k})) d<z^c, z^c>(cell_k)
    C(t) =   sum_{jumps s <= t} [ f(z_s) - f(z_{s-}) - T(dphi(. + z_{s-})) dz_s ]

with left-point sampling throughout (midpoint rules would break the Ito
correction).  Every partition must be refined by the driver's jump times so
that jump increments sit alone at cell boundaries; the pure-jump telescoping
test then holds exactly, which is what pins all the signs above.

The bracket measure d<z^c, z^c> defaults to the squared compensated
continuous increments ("realized"); the model closed form sigma^2 dt
("model") is also available.  Both converge to the same limit; the realized
form has an O(mesh) pathwise error instead of O(sqrt(mesh)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    Distribution,
    HermiteBasis,
    TestFunction,
    differentiate,
    hermite_matrix,
    hermite_weighted_sum,
    pad_columns,
    pair,
    shift,
    support,
)
from .paths import CadlagPath, ContractError, RandomPartition
from .scalar_integral import CylindricalSemimartingale
from .trajectory import ScalarTrajectory

__all__ = [
    "DiracSemimartingale",
    "ConvolvedDiracSemimartingale",
    "ItoTerms",
    "conv_matrix",
    "dirac_pair",
    "conv_pair",
    "conv_pair_many",
    "ito_terms",
    "ito_residual",
    "ito_terms_distribution",
]


class DiracSemimartingale(CylindricalSemimartingale):
    """X_t = delta_{z_t}: pairing <X_t, phi> = phi(z_t)."""

    def __init__(self, basis: HermiteBasis):
        self.basis = basis

    def pair_pointwise(self, path, ts, coeff_rows, left=False):
        """phi_i(z_{ts[i]}), evaluating h_j only for j < support(coeff_rows).

        The evaluated columns are zero-padded back to N before the einsum,
        so it contracts the same operands in the same order as a full-N
        evaluation and the result keeps its bits.
        """
        z = path.values_at(np.asarray(ts, dtype=float), left=left)
        coeff_rows = np.asarray(coeff_rows)
        H = hermite_matrix(z, support(coeff_rows))
        return np.einsum("ij,ij->i", pad_columns(H, self.basis.truncation), coeff_rows)


def conv_matrix(T: Distribution, a_values, columns: int | None = None) -> np.ndarray:
    """M[s, j] = T(h_j(. + a_values[s])) = <T, shift(h_j, a_s)>.

    T(psi(. + a)) = sum_q c_q psi(x_q + a) with c_q the lifted quadrature
    weights against the kernel of T; this reorders the same finite sums as
    pairing T with the re-expanded shift, so the two agree exactly.

    Only the first ``columns`` columns (default: all N) are computed; pass
    :func:`~hermsem.basis.support` of the coefficients that M will be
    contracted with.  The recurrence runs forward, so those columns are
    bit-equal to a full evaluation's.  The rest are exact zeros: M keeps
    its (S, N) shape, so a later ``M @ c`` contracts the same operands in
    the same order as with a full M and gives the same bits (see
    :func:`~hermsem.basis.pad_columns` for the one caveat).
    """
    basis = T.basis
    n = basis.truncation if columns is None else columns
    if not 0 <= n <= basis.truncation:
        raise ValueError(f"columns {n} out of range [0, {basis.truncation}]")
    a_values = np.asarray(a_values, dtype=float)
    cq = basis.lifted_weights * (basis.node_values @ T.dual_coeffs)
    pts = basis.nodes[None, :] + a_values[:, None]
    return pad_columns(hermite_weighted_sum(pts, cq, n), basis.truncation)


class ConvolvedDiracSemimartingale(CylindricalSemimartingale):
    """X_t = T * delta_{z_t}: pairing <X_t, phi> = T(phi(. + z_t))."""

    def __init__(self, T: Distribution):
        self.T = T

    def pair_pointwise(self, path, ts, coeff_rows, left=False):
        """T(phi_i(. + z_{ts[i]})), with M bounded by support(coeff_rows).

        :func:`conv_matrix` zero-pads M to N columns, so the einsum sees
        the same operands in the same order and the result keeps its bits.
        """
        z = path.values_at(np.asarray(ts, dtype=float), left=left)
        coeff_rows = np.asarray(coeff_rows)
        M = conv_matrix(self.T, z, support(coeff_rows))
        return np.einsum("sj,sj->s", M, coeff_rows)


def dirac_pair(path: CadlagPath, t: float, phi: TestFunction, left: bool = False) -> float:
    """<delta_{z_t}, phi> = phi(z_t), or phi(z_{t-}) with ``left``."""
    z = path.left_value(t) if left else path.value(t)
    return float(phi(z))


def conv_pair(T: Distribution, a: float, phi: TestFunction) -> float:
    """<T * delta_a, phi> = T(phi(. + a)), via shift re-expansion."""
    return pair(T, shift(phi, a))


def conv_pair_many(T: Distribution, a_values, phi: TestFunction) -> np.ndarray:
    """Vectorized :func:`conv_pair` over an array of shift amounts."""
    return conv_matrix(T, a_values) @ phi.coeffs


@dataclass(frozen=True)
class ItoTerms:
    """The three Ito-formula terms paired against a fixed test function.

    All trajectories are evaluated at the partition times.  C is pure-jump
    finite-variation: constant between driver jumps, one increment per
    ledger jump.
    """

    times: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def as_trajectories(self):
        return (
            ScalarTrajectory(self.times, self.A),
            ScalarTrajectory(self.times, self.B),
            ScalarTrajectory(self.times, self.C),
        )


def _require_jump_refined(path: CadlagPath, partition: RandomPartition) -> None:
    horizon = partition.times[-1]
    relevant = path.jump_times[path.jump_times <= horizon]
    missing = np.setdiff1d(relevant, partition.times)
    if missing.size:
        raise ContractError(
            f"partition is missing driver jump times {missing.tolist()}"
        )


def _bracket_increments(path: CadlagPath, taus: np.ndarray, mode: str) -> np.ndarray:
    spec = path.spec
    dt = np.diff(taus)
    if mode == "model":
        return spec.sigma**2 * dt
    if mode == "realized":
        if spec.sigma == 0.0:
            # the continuous martingale part is identically zero; squaring
            # compensated increments would only square rounding residue
            return np.zeros_like(dt)
        dz = np.diff(path.values_at(taus))
        jump_in_cell = np.zeros_like(dz)
        if len(path.jump_times):
            cell = np.searchsorted(taus, path.jump_times, side="left") - 1
            ok = (cell >= 0) & (cell < len(dz))
            np.add.at(jump_in_cell, cell[ok], path.jump_sizes[ok])
        mart = dz - jump_in_cell - spec.mu * dt
        return mart**2
    raise ValueError(f"unknown bracket mode {mode!r}")


def _ito_eval(T, path, phi, partition, bracket):
    """Shared evaluation: terms plus the pairing trajectory f(z_tau)."""
    _require_jump_refined(path, partition)
    taus = partition.times
    dphi = differentiate(phi)
    d2phi = differentiate(dphi)
    # every contraction below reads M through phi, dphi or d2phi only
    cols = support(phi.coeffs, dphi.coeffs, d2phi.coeffs)
    M = conv_matrix(T, path.values_at(taus), cols)  # rows: T(h_j(. + z_tau))

    g1 = M[:-1] @ dphi.coeffs   # T(dphi(. + z_{tau_k})) at cell left ends
    g2 = M[:-1] @ d2phi.coeffs

    dz = np.diff(path.values_at(taus))
    A = np.concatenate([[0.0], -np.cumsum(g1 * dz)])

    db = _bracket_increments(path, taus, bracket)
    B = np.concatenate([[0.0], np.cumsum(g2 * db)])

    C = np.zeros_like(taus)
    jt = path.jump_times[path.jump_times <= taus[-1]]
    if len(jt):
        js = path.jump_sizes[: len(jt)]
        Mb = conv_matrix(T, path.values_at(jt, left=True), cols)
        Ma = conv_matrix(T, path.values_at(jt), cols)
        jump_c = (Ma - Mb) @ phi.coeffs - (Mb @ dphi.coeffs) * js
        idx = np.searchsorted(jt, taus, side="right")
        C = np.concatenate([[0.0], np.cumsum(jump_c)])[idx]
    return ItoTerms(taus, A, B, C), M @ phi.coeffs


def ito_terms(
    T: Distribution,
    path: CadlagPath,
    phi: TestFunction,
    partition: RandomPartition,
    bracket: str = "realized",
) -> ItoTerms:
    """Left-point discretizations of the three Ito terms against phi.

    Requires the partition to contain every ledger jump time up to its
    horizon (jump increments must sit alone at cell boundaries).
    """
    terms, _ = _ito_eval(T, path, phi, partition, bracket)
    return terms


def ito_residual(
    T: Distribution,
    path: CadlagPath,
    phi: TestFunction,
    partition: RandomPartition,
    bracket: str = "realized",
) -> float:
    """sup over partition times of the Ito identity gap.

    Returns sup_t | f(z_t) - f(z_0) + A(t) - B(t)/2 - C(t)| with
    f(a) = <T * delta_a, phi>; zero in exact arithmetic for pure-jump
    drivers on jump-refined partitions.
    """
    terms, f = _ito_eval(T, path, phi, partition, bracket)
    gap = f - f[0] + terms.A - 0.5 * terms.B - terms.C
    return float(np.max(np.abs(gap)))


def ito_terms_distribution(
    T: Distribution,
    path: CadlagPath,
    partition: RandomPartition,
    bracket: str = "realized",
):
    """The three Ito terms as dual-coefficient trajectories.

    Row m, column j of each output holds the term paired against h_j at
    partition time m, so pairing these with any phi reproduces
    :func:`ito_terms` up to matrix-product reordering.  Returned as
    (A, B, C) :class:`~hermsem.vector_integral.DistributionPath` objects.
    """
    from .basis import differentiation_matrix
    from .vector_integral import DistributionPath

    _require_jump_refined(path, partition)
    taus = partition.times
    basis = T.basis
    M = conv_matrix(T, path.values_at(taus))
    D = differentiation_matrix(basis)
    MD = M[:-1] @ D
    MD2 = MD @ D

    dz = np.diff(path.values_at(taus))
    A = np.vstack([np.zeros(basis.truncation), -np.cumsum(MD * dz[:, None], axis=0)])
    db = _bracket_increments(path, taus, bracket)
    B = np.vstack([np.zeros(basis.truncation), np.cumsum(MD2 * db[:, None], axis=0)])

    C = np.zeros((len(taus), basis.truncation))
    jt = path.jump_times[path.jump_times <= taus[-1]]
    if len(jt):
        js = path.jump_sizes[: len(jt)]
        Mb = conv_matrix(T, path.values_at(jt, left=True))
        Ma = conv_matrix(T, path.values_at(jt))
        rows = Ma - Mb - (Mb @ D) * js[:, None]
        cum = np.vstack([np.zeros(basis.truncation), np.cumsum(rows, axis=0)])
        C = cum[np.searchsorted(jt, taus, side="right")]
    return (
        DistributionPath(basis, taus, A),
        DistributionPath(basis, taus, B),
        DistributionPath(basis, taus, C),
    )
