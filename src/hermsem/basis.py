"""Hermite-function model of the Schwartz space and its dual.

The orthonormal Hermite functions h_0, h_1, ... are the eigenfunctions of
L = -d^2/dx^2 + x^2 with eigenvalues 2j + 1.  Test functions are truncated
coefficient vectors in this basis, distributions are truncated dual
coefficient vectors, and the whole graded seminorm scale

    ||phi||_r^2 = sum_j (1 + lambda_j)^(2r) <phi, h_j>^2

is available through :func:`seminorm` / :func:`dual_seminorm`.  All
operations here are pure functions over immutable inputs; the quadrature
tables inside :class:`HermiteBasis` are read-only after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermgauss

__all__ = [
    "HermiteBasis",
    "TestFunction",
    "Distribution",
    "eval_hermite",
    "hermite_matrix",
    "support",
    "analyze",
    "seminorm",
    "dual_seminorm",
    "pair",
    "shift",
    "shift_many",
    "differentiate",
    "position_multiply",
    "basis_vector",
    "dual_basis_vector",
]


class DimensionError(ValueError):
    """Raised when two objects carry incompatible truncations."""


def hermite_matrix(x, n: int) -> np.ndarray:
    """Evaluate h_0 .. h_{n-1} at the points ``x``.

    Uses the stable three-term recurrence

        h_{k+1}(x) = sqrt(2/(k+1)) x h_k(x) - sqrt(k/(k+1)) h_{k-1}(x)

    with h_0(x) = pi^(-1/4) exp(-x^2/2).  Returns an array of shape
    ``x.shape + (n,)``; n = 0 gives a zero-width array.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (n,))
    if n == 0:
        return out
    h0 = np.pi ** (-0.25) * np.exp(-0.5 * x**2)
    out[..., 0] = h0
    if n > 1:
        out[..., 1] = np.sqrt(2.0) * x * h0
    for k in range(1, n - 1):
        out[..., k + 1] = np.sqrt(2.0 / (k + 1)) * x * out[..., k] - np.sqrt(
            k / (k + 1)
        ) * out[..., k - 1]
    return out


def support(*coeff_arrays) -> int:
    """One past the last column that is nonzero in any of the given arrays.

    Each argument is a coefficient vector or a 2-D stack of coefficient
    rows; the result is 0 when every entry is zero.  NaN counts as
    nonzero.  Contracting a Hermite evaluation with these coefficients
    reads only columns ``0 .. support - 1``: the recurrence runs forward,
    so computing just those columns gives them bit for bit, and every
    later column meets a zero coefficient.
    """
    n = 0
    for c in coeff_arrays:
        nz = np.flatnonzero(np.atleast_2d(c).any(axis=0))
        if nz.size:
            n = max(n, int(nz[-1]) + 1)
    return n


def pad_columns(cols: np.ndarray, n: int) -> np.ndarray:
    """Zero-pad the last axis of ``cols`` to width n (no copy if it has it).

    Bounded evaluations (see :func:`support`) are padded back to the full
    truncation before a BLAS or einsum contraction, so the contraction
    sees the same operand shapes in the same order as the full-width
    evaluation.  The padded columns multiply zero coefficients where the
    full ones did, so for finite evaluation points the contraction gives
    the same bits, up to the sign of a result that is exactly zero.
    """
    if cols.shape[-1] == n:
        return cols
    out = np.zeros(cols.shape[:-1] + (n,))
    out[..., : cols.shape[-1]] = cols
    return out


@dataclass(frozen=True)
class HermiteBasis:
    """Truncated Hermite basis with Gauss-Hermite quadrature tables.

    ``truncation`` is the number N of retained basis functions and
    ``quad_order`` the quadrature order Q.  Q >= 2N is enforced so that
    products of in-band functions are integrated exactly (up to the
    Gaussian weight handling).
    """

    truncation: int = 64
    quad_order: int = 160
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    lifted_weights: np.ndarray = field(init=False, repr=False, compare=False)
    node_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation must be a positive integer")
        if self.quad_order < 2 * self.truncation:
            raise ValueError(
                f"quad_order {self.quad_order} must be >= 2*truncation "
                f"({2 * self.truncation})"
            )
        nodes, weights = hermgauss(self.quad_order)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        # hermgauss integrates against exp(-x^2); lifting by exp(x^2)
        # turns it into a plain dx rule for Schwartz-class integrands.
        object.__setattr__(self, "lifted_weights", weights * np.exp(nodes**2))
        object.__setattr__(
            self, "node_values", hermite_matrix(nodes, self.truncation)
        )

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues lambda_j = 2j + 1 of -d^2/dx^2 + x^2."""
        return 2.0 * np.arange(self.truncation) + 1.0

    def seminorm_weights(self, r: int) -> np.ndarray:
        """The multipliers (1 + lambda_j)^(2r) of the level-r inner product."""
        return (1.0 + self.eigenvalues) ** (2 * r)


@dataclass(frozen=True)
class TestFunction:
    """A truncated Schwartz function phi = sum_j coeffs[j] h_j."""

    __test__ = False  # not a pytest class

    basis: HermiteBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.basis.truncation,):
            raise DimensionError(
                f"coefficient vector of length {c.shape} does not match "
                f"truncation {self.basis.truncation}"
            )
        object.__setattr__(self, "coeffs", c)

    def __call__(self, x):
        """Pointwise evaluation via the Hermite recurrence.

        Only the columns up to ``support(coeffs)`` are evaluated; they are
        zero-padded to N before the contraction, so the result's bits do
        not depend on the bound.
        """
        H = hermite_matrix(x, support(self.coeffs))
        return pad_columns(H, self.basis.truncation) @ self.coeffs

    def __add__(self, other: "TestFunction") -> "TestFunction":
        _check_same_basis(self.basis, other.basis)
        return TestFunction(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other: "TestFunction") -> "TestFunction":
        _check_same_basis(self.basis, other.basis)
        return TestFunction(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, a: float) -> "TestFunction":
        return TestFunction(self.basis, self.coeffs * float(a))

    __rmul__ = __mul__


@dataclass(frozen=True)
class Distribution:
    """A truncated tempered distribution, stored by its values on h_j.

    ``dual_coeffs[j] = T(h_j)``.  ``regularity_index`` records the seminorm
    level at which the dual norm of T is meant to be read off; it does not
    constrain the coefficients.
    """

    basis: HermiteBasis
    dual_coeffs: np.ndarray
    regularity_index: int = 1

    def __post_init__(self):
        f = np.asarray(self.dual_coeffs, dtype=float)
        if f.shape != (self.basis.truncation,):
            raise DimensionError(
                f"dual coefficient vector of length {f.shape} does not match "
                f"truncation {self.basis.truncation}"
            )
        object.__setattr__(self, "dual_coeffs", f)

    def __add__(self, other: "Distribution") -> "Distribution":
        _check_same_basis(self.basis, other.basis)
        return Distribution(
            self.basis, self.dual_coeffs + other.dual_coeffs, self.regularity_index
        )

    def __sub__(self, other: "Distribution") -> "Distribution":
        _check_same_basis(self.basis, other.basis)
        return Distribution(
            self.basis, self.dual_coeffs - other.dual_coeffs, self.regularity_index
        )

    def __mul__(self, a: float) -> "Distribution":
        return Distribution(
            self.basis, self.dual_coeffs * float(a), self.regularity_index
        )

    __rmul__ = __mul__

    @property
    def recorded_dual_seminorm(self) -> float:
        return dual_seminorm(self, self.regularity_index)


def _check_same_basis(a: HermiteBasis, b: HermiteBasis) -> None:
    if a.truncation != b.truncation:
        raise DimensionError(
            f"truncation mismatch: {a.truncation} vs {b.truncation}"
        )


def basis_vector(basis: HermiteBasis, j: int) -> TestFunction:
    """The j-th basis function h_j as a TestFunction."""
    c = np.zeros(basis.truncation)
    c[j] = 1.0
    return TestFunction(basis, c)


def dual_basis_vector(basis: HermiteBasis, j: int, regularity_index: int = 1) -> Distribution:
    """The functional f with f(h_i) = delta_{ij} (i.e. <h_j, .> in L^2)."""
    f = np.zeros(basis.truncation)
    f[j] = 1.0
    return Distribution(basis, f, regularity_index)


def hermite_weighted_sum(pts: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """M[s, j] = sum_q weights[q] h_j(pts[s, q]), streamed over j.

    Equivalent to contracting :func:`hermite_matrix` over the q axis but
    never materializes the (S, Q, n) tensor; the recurrence keeps only two
    (S, Q) working arrays.  n = 0 gives an (S, 0) array.
    """
    pts = np.asarray(pts, dtype=float)
    out = np.empty((pts.shape[0], n))
    if n == 0:
        return out
    h_prev = np.pi ** (-0.25) * np.exp(-0.5 * pts**2)
    out[:, 0] = h_prev @ weights
    if n == 1:
        return out
    h_cur = np.sqrt(2.0) * pts * h_prev
    out[:, 1] = h_cur @ weights
    for k in range(1, n - 1):
        h_prev, h_cur = h_cur, np.sqrt(2.0 / (k + 1)) * pts * h_cur - np.sqrt(
            k / (k + 1)
        ) * h_prev
        out[:, k + 1] = h_cur @ weights
    return out


def eval_hermite(basis: HermiteBasis, n: int, x) -> float | np.ndarray:
    """h_n(x) for 0 <= n < truncation."""
    if not 0 <= n < basis.truncation:
        raise IndexError(
            f"basis index {n} out of range [0, {basis.truncation})"
        )
    vals = hermite_matrix(x, n + 1)[..., n]
    return vals if np.ndim(x) else float(vals)


def analyze(basis: HermiteBasis, f) -> TestFunction:
    """Project a pointwise-evaluable function onto span{h_0, ..., h_{N-1}}.

    coeffs[j] is the Gauss-Hermite estimate of int f(x) h_j(x) dx.  Accuracy
    degrades for functions that are rough or far from Schwartz decay; that
    is a documented limitation, not an error.
    """
    vals = np.asarray(f(basis.nodes), dtype=float)
    return TestFunction(basis, basis.node_values.T @ (basis.lifted_weights * vals))


def seminorm(phi: TestFunction, r: int) -> float:
    """The level-r Hilbertian seminorm (sum_j (1+lambda_j)^(2r) c_j^2)^(1/2)."""
    w = phi.basis.seminorm_weights(r)
    return float(np.sqrt(np.sum(w * phi.coeffs**2)))


def dual_seminorm(T: Distribution, r: int) -> float:
    """The dual norm at level r: (sum_j (1+lambda_j)^(-2r) f_j^2)^(1/2)."""
    w = T.basis.seminorm_weights(-r)
    return float(np.sqrt(np.sum(w * T.dual_coeffs**2)))


def pair(T: Distribution, phi: TestFunction) -> float:
    """The canonical pairing <T, phi> = sum_j f_j c_j."""
    _check_same_basis(T.basis, phi.basis)
    return float(T.dual_coeffs @ phi.coeffs)


def shift(phi: TestFunction, a: float) -> TestFunction:
    """The projection of x -> phi(x + a) onto the basis.

    Implemented by quadrature re-expansion: evaluate phi at the shifted
    nodes and re-project.  shift(phi, 0) returns phi itself, exactly.  For
    |a| large relative to what the truncation resolves, accuracy degrades;
    |a| <= ~2 at N = 64 keeps pointwise errors well below 1e-6.
    """
    if a == 0.0:
        return phi
    return shift_many(phi, np.array([a]))[0]


def shift_many(phi: TestFunction, a_values) -> list[TestFunction]:
    """Vectorized :func:`shift` over an array of shift amounts."""
    basis = phi.basis
    a_values = np.asarray(a_values, dtype=float)
    pts = basis.nodes[None, :] + a_values[:, None]
    H = hermite_matrix(pts, support(phi.coeffs))
    vals = pad_columns(H, basis.truncation) @ phi.coeffs
    coeff_rows = (basis.lifted_weights * vals) @ basis.node_values
    return [TestFunction(basis, row) for row in coeff_rows]


def differentiate(phi: TestFunction) -> TestFunction:
    """The derivative via the ladder rule.

    (phi')_j = sqrt((j+1)/2) c_{j+1} - sqrt(j/2) c_{j-1}.  The top
    coefficient c_{N-1} leaks out of the truncation; callers needing k
    derivatives should over-provision the truncation by k.
    """
    c = phi.coeffs
    n = phi.basis.truncation
    j = np.arange(n)
    out = np.zeros(n)
    out[:-1] += np.sqrt((j[:-1] + 1) / 2.0) * c[1:]
    out[1:] -= np.sqrt(j[1:] / 2.0) * c[:-1]
    return TestFunction(phi.basis, out)


def differentiation_matrix(basis: HermiteBasis) -> np.ndarray:
    """Matrix D with differentiate(phi).coeffs = D @ phi.coeffs."""
    n = basis.truncation
    j = np.arange(n - 1)
    D = np.zeros((n, n))
    D[j, j + 1] = np.sqrt((j + 1) / 2.0)
    D[j + 1, j] = -np.sqrt((j + 1) / 2.0)
    return D


def position_multiply(phi: TestFunction) -> TestFunction:
    """The projection of x * phi(x), via x h_j = sqrt(j/2) h_{j-1} + sqrt((j+1)/2) h_{j+1}."""
    c = phi.coeffs
    n = phi.basis.truncation
    j = np.arange(n)
    out = np.zeros(n)
    out[:-1] += np.sqrt((j[:-1] + 1) / 2.0) * c[1:]
    out[1:] += np.sqrt(j[1:] / 2.0) * c[:-1]
    return TestFunction(phi.basis, out)
