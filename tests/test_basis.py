import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermsem.basis import (
    DimensionError,
    Distribution,
    HermiteBasis,
    TestFunction,
    analyze,
    basis_vector,
    differentiate,
    differentiation_matrix,
    dual_basis_vector,
    dual_seminorm,
    eval_hermite,
    hermite_matrix,
    hermite_weighted_sum,
    pad_columns,
    pair,
    position_multiply,
    seminorm,
    shift,
    shift_many,
    support,
)

B = HermiteBasis(64, 160)


def test_basis_invariants():
    assert np.all(np.diff(B.eigenvalues) > 0)
    assert np.array_equal(B.eigenvalues, 2 * np.arange(64) + 1)
    with pytest.raises(ValueError):
        HermiteBasis(64, 100)  # quad_order < 2N
    with pytest.raises(ValueError):
        HermiteBasis(0, 10)


class TestEvalHermite:
    def test_h0_at_zero(self):
        assert eval_hermite(B, 0, 0.0) == pytest.approx(np.pi ** -0.25, abs=1e-12)

    def test_h1_odd(self):
        assert eval_hermite(B, 1, 0.0) == 0.0

    def test_h2_at_zero(self):
        # recurrence oracle: h_2(0) = -sqrt(1/2) h_0(0)
        assert eval_hermite(B, 2, 0.0) == pytest.approx(
            -np.pi ** -0.25 / np.sqrt(2), abs=1e-12
        )

    def test_against_recurrence_oracle(self):
        # independent evaluation of the three-term recurrence on a grid
        xs = np.linspace(-10, 10, 41)
        h_prev, h_cur = np.pi ** -0.25 * np.exp(-xs**2 / 2), None
        h_cur = np.sqrt(2.0) * xs * h_prev
        table = {0: h_prev, 1: h_cur}
        for n in range(1, 64):
            h_prev, h_cur = h_cur, np.sqrt(2 / (n + 1)) * xs * h_cur - np.sqrt(
                n / (n + 1)
            ) * h_prev
            table[n + 1] = h_cur
        for n in (5, 17, 33, 63):
            got = eval_hermite(B, n, xs)
            scale = np.maximum(np.abs(table[n]), 1e-300)
            assert np.max(np.abs(got - table[n]) / scale) <= 1e-10

    def test_index_error(self):
        with pytest.raises(IndexError):
            eval_hermite(B, 64, 0.0)
        with pytest.raises(IndexError):
            eval_hermite(B, -1, 0.0)


class TestAnalyze:
    def test_orthonormality_single(self):
        phi = analyze(B, lambda x: eval_hermite(B, 0, x))
        assert np.max(np.abs(phi.coeffs - np.eye(64)[0])) <= 1e-10

    def test_orthonormality_all(self):
        # quadrature closes the loop for every basis index
        V = B.node_values
        for j in range(64):
            coeffs = V.T @ (B.lifted_weights * V[:, j])
            assert np.max(np.abs(coeffs - np.eye(64)[j])) <= 1e-10

    def test_linearity(self):
        f = lambda x: eval_hermite(B, 0, x) + 2 * eval_hermite(B, 3, x)
        phi = analyze(B, f)
        expect = np.zeros(64)
        expect[0], expect[3] = 1.0, 2.0
        assert np.max(np.abs(phi.coeffs - expect)) <= 1e-10

    def test_gaussian_times_x(self):
        # x e^{-x^2/2} = (pi^{1/4}/sqrt(2)) h_1
        phi = analyze(B, lambda x: np.exp(-x**2 / 2) * x)
        assert phi.coeffs[1] == pytest.approx(np.pi**0.25 / np.sqrt(2), abs=1e-10)
        rest = np.delete(phi.coeffs, 1)
        assert np.max(np.abs(rest)) <= 1e-10


class TestSeminorm:
    def test_examples(self):
        e0, e1 = basis_vector(B, 0), basis_vector(B, 1)
        assert seminorm(e0, 0) == pytest.approx(1.0, abs=1e-14)
        assert seminorm(e0, 1) == pytest.approx(2.0, abs=1e-14)
        assert seminorm(e1, 2) == pytest.approx(16.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 1000))
    def test_monotone_in_level(self, r, s, key):
        lo, hi = min(r, s), max(r, s)
        rng = np.random.default_rng(key)
        phi = TestFunction(B, rng.normal(size=64))
        assert seminorm(phi, lo) <= seminorm(phi, hi) * (1 + 1e-12)

    def test_hilbert_schmidt_summability(self):
        # partial sums of (1+lambda_j)^{-2} at beta = 1
        lam = lambda j: 2 * j + 1
        S = lambda n: sum((1 + lam(j)) ** -2 for j in range(n))
        for n in (8, 16, 32):
            assert S(2 * n) > S(n)
            assert S(2 * n) - S(n) < 1 / (4 * n)


class TestPairing:
    def test_examples(self):
        e0, e1 = basis_vector(B, 0), basis_vector(B, 1)
        d0 = dual_basis_vector(B, 0)
        assert pair(d0, e0) == 1.0
        assert pair(d0, e1) == 0.0
        f = np.zeros(64)
        f[:3] = [1, 2, 3]
        c = np.zeros(64)
        c[0], c[2] = 0.5, -1.0
        assert pair(Distribution(B, f), TestFunction(B, c)) == pytest.approx(-2.5)

    def test_dimension_error(self):
        small = HermiteBasis(16, 40)
        with pytest.raises(DimensionError):
            pair(dual_basis_vector(small, 0), basis_vector(B, 0))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 10_000))
    def test_cauchy_schwarz_duality(self, r, key):
        rng = np.random.default_rng(key)
        T = Distribution(B, rng.normal(size=64))
        phi = TestFunction(B, rng.normal(size=64))
        assert abs(pair(T, phi)) <= dual_seminorm(T, r) * seminorm(phi, r) * (
            1 + 1e-12
        )

    def test_dual_seminorm_nonincreasing(self):
        rng = np.random.default_rng(0)
        T = Distribution(B, rng.normal(size=64))
        vals = [dual_seminorm(T, r) for r in range(5)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_pairing_of_dual_basis_is_coefficient(self):
        rng = np.random.default_rng(1)
        T = Distribution(B, rng.normal(size=64))
        for j in (0, 7, 63):
            assert pair(T, basis_vector(B, j)) == T.dual_coeffs[j]


class TestShift:
    def test_zero_shift_exact(self):
        rng = np.random.default_rng(2)
        phi = TestFunction(B, rng.normal(size=64))
        assert shift(phi, 0.0) is phi

    def test_pointwise_oracle(self):
        e0 = basis_vector(B, 0)
        sh = shift(e0, 1.0)
        assert sh(0.0) == pytest.approx(eval_hermite(B, 0, 1.0), abs=1e-6)
        assert float(sh(0.0)) == pytest.approx(0.45558, abs=1e-4)
        rng = np.random.default_rng(3)
        c = np.zeros(64)
        c[:20] = rng.normal(size=20)
        phi = TestFunction(B, c)
        for a in (-1.0, -0.35, 0.5, 1.0):
            shifted = shift(phi, a)
            for x in (-2.0, -0.7, 0.0, 1.3, 2.0):
                assert float(shifted(x)) == pytest.approx(float(phi(x + a)), abs=1e-6)

    def test_group_law(self):
        e0 = basis_vector(B, 0)
        two_step = shift(shift(e0, 0.3), 0.4)
        one_step = shift(e0, 0.7)
        assert np.max(np.abs(two_step.coeffs - one_step.coeffs)) <= 1e-6

    def test_l2_isometry_up_to_truncation(self):
        rng = np.random.default_rng(4)
        c = np.zeros(64)
        c[:32] = rng.normal(size=32)
        phi = TestFunction(B, c)
        for a in (-1.0, 0.25, 1.0):
            assert abs(seminorm(shift(phi, a), 0) - seminorm(phi, 0)) <= 1e-4

    def test_shift_many_matches_shift(self):
        phi = basis_vector(B, 5)
        batch = shift_many(phi, np.array([-0.4, 0.9]))
        assert np.allclose(batch[0].coeffs, shift(phi, -0.4).coeffs, atol=1e-14)
        assert np.allclose(batch[1].coeffs, shift(phi, 0.9).coeffs, atol=1e-14)


class TestDifferentiate:
    def test_ladder_example(self):
        d = differentiate(basis_vector(B, 0))
        expect = np.zeros(64)
        expect[1] = -np.sqrt(0.5)
        assert np.max(np.abs(d.coeffs - expect)) <= 1e-14

    def test_zero(self):
        z = TestFunction(B, np.zeros(64))
        assert np.all(differentiate(z).coeffs == 0.0)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(5)
        c = np.zeros(64)
        c[:30] = rng.normal(size=30)
        phi = TestFunction(B, c)
        d = differentiate(phi)
        eps = 1e-5
        for x in (-1.0, 0.0, 1.0):
            fd = (float(phi(x + eps)) - float(phi(x - eps))) / (2 * eps)
            assert float(d(x)) == pytest.approx(fd, abs=1e-6)

    def test_eigenrelation(self):
        # -(phi'') + x^2 phi = (2n+1) phi, x^2 via two position ladders
        xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        for n in (0, 3, 10, 20):
            phi = basis_vector(B, n)
            lhs = TestFunction(
                B,
                -differentiate(differentiate(phi)).coeffs
                + position_multiply(position_multiply(phi)).coeffs,
            )
            assert np.max(np.abs(lhs(xs) - (2 * n + 1) * phi(xs))) <= 1e-6

    def test_matrix_matches_function(self):
        rng = np.random.default_rng(6)
        phi = TestFunction(B, rng.normal(size=64))
        D = differentiation_matrix(B)
        assert np.allclose(D @ phi.coeffs, differentiate(phi).coeffs, atol=1e-14)


class TestColumnBound:
    def test_hermite_matrix_zero_columns(self):
        assert hermite_matrix(0.3, 0).shape == (0,)
        assert hermite_matrix(np.zeros((3, 4)), 0).shape == (3, 4, 0)

    def test_weighted_sum_zero_columns(self):
        pts = np.linspace(-1.0, 1.0, 10).reshape(5, 2)
        assert hermite_weighted_sum(pts, np.ones(2), 0).shape == (5, 0)

    def test_leading_columns_do_not_depend_on_width(self):
        x = np.linspace(-3.0, 3.0, 13)
        full = hermite_matrix(x, 64)
        pts = x.reshape(-1, 1) + B.nodes[None, :8]
        w = np.linspace(0.5, 1.5, 8)
        full_sum = hermite_weighted_sum(pts, w, 64)
        for n in (1, 2, 3, 17, 64):
            assert np.array_equal(hermite_matrix(x, n), full[:, :n])
            assert np.array_equal(hermite_weighted_sum(pts, w, n), full_sum[:, :n])

    def test_support(self):
        assert support() == 0
        assert support(np.zeros(64)) == 0
        assert support(np.zeros((3, 64))) == 0
        assert support(np.zeros((0, 64))) == 0
        assert support(basis_vector(B, 0).coeffs) == 1
        assert support(basis_vector(B, 63).coeffs) == 64
        rows = np.zeros((3, 64))
        rows[0, 2] = 1.0
        rows[2, 9] = -0.5
        assert support(rows) == 10
        assert support(rows[:1], basis_vector(B, 4).coeffs) == 5
        nan_row = np.zeros(64)
        nan_row[6] = np.nan
        assert support(nan_row) == 7

    def test_pad_columns(self):
        cols = np.arange(6.0).reshape(2, 3)
        padded = pad_columns(cols, 5)
        assert padded.shape == (2, 5)
        assert np.array_equal(padded[:, :3], cols)
        assert np.all(padded[:, 3:] == 0.0)
        assert pad_columns(cols, 3) is cols
        assert pad_columns(np.empty((4, 0)), 2).shape == (4, 2)

    @pytest.mark.parametrize("kind", ["e0", "e5", "full", "zero"])
    def test_bounded_evaluation_is_bit_equal(self, kind):
        c = np.zeros(64)
        if kind == "e0":
            c[0] = 1.0
        elif kind == "e5":
            c[5] = 1.0
        elif kind == "full":
            c = np.random.default_rng(8).normal(size=64)
        phi = TestFunction(B, c)
        xs = np.linspace(-4.0, 4.0, 33)
        # the full-N evaluation that the bound replaces
        assert np.array_equal(phi(xs), hermite_matrix(xs, 64) @ c)
        assert phi(0.7) == hermite_matrix(0.7, 64) @ c
        a = np.array([-1.1, 0.0, 0.45])
        pts = B.nodes[None, :] + a[:, None]
        vals = hermite_matrix(pts, 64) @ c
        expect = (B.lifted_weights * vals) @ B.node_values
        got = np.array([f.coeffs for f in shift_many(phi, a)])
        assert np.array_equal(got, expect)
