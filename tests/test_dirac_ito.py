import numpy as np
import pytest

from hermsem.basis import (
    Distribution,
    HermiteBasis,
    TestFunction,
    basis_vector,
    differentiate,
    dual_basis_vector,
    hermite_matrix,
    pair,
    shift,
)
from hermsem.dirac_ito import (
    ConvolvedDiracSemimartingale,
    _bracket_increments,
    DiracSemimartingale,
    conv_matrix,
    conv_pair,
    conv_pair_many,
    dirac_pair,
    ito_residual,
    ito_terms,
    ito_terms_distribution,
)
from hermsem.paths import (
    CadlagPath,
    ContractError,
    RandomPartition,
    SemimartingaleSpec,
    dyadic_partition,
    jump_refined_partition,
    simulate,
)

B = HermiteBasis(64, 160)
E0 = basis_vector(B, 0)
T0 = dual_basis_vector(B, 0)

PURE_JUMP = SemimartingaleSpec(
    z0=0.0, mu=0.0, sigma=0.0, jump_intensity=4.0, jump_mean=0.3, jump_sd=0.5, horizon=1.0
)
DRIFT = SemimartingaleSpec(z0=0.0, mu=1.0, sigma=0.0, jump_intensity=0.0, horizon=1.0)
BROWN = SemimartingaleSpec(z0=0.0, mu=0.0, sigma=1.0, jump_intensity=0.0, horizon=1.0)


def single_jump_path(size=1.0, at=0.4):
    return CadlagPath(
        PURE_JUMP,
        np.array([0.0, at, 1.0]),
        np.zeros(3),
        np.array([at]),
        np.array([size]),
        np.array([0.0, 1.0]),
    )


class TestDiracPair:
    def test_h0_at_origin(self):
        p = single_jump_path(at=0.4)
        assert dirac_pair(p, 0.0, E0) == pytest.approx(np.pi ** -0.25, abs=1e-12)

    def test_constant_driver(self):
        spec = SemimartingaleSpec(z0=0.7, mu=0.0, sigma=0.0, jump_intensity=0.0)
        p = simulate(spec, 8, seed=0)
        vals = [dirac_pair(p, t, E0) for t in p.times]
        assert np.max(np.abs(np.array(vals) - float(E0(0.7)))) <= 1e-14

    def test_left_vs_right_at_jump(self):
        p = single_jump_path(size=1.0, at=0.4)
        right = dirac_pair(p, 0.4, E0)
        left = dirac_pair(p, 0.4, E0, left=True)
        assert left == pytest.approx(float(E0(0.0)), abs=1e-14)
        assert right == pytest.approx(float(E0(1.0)), abs=1e-14)
        assert left != right

    def test_cylindrical_pairing_linear(self):
        p = simulate(BROWN, 16, seed=1)
        X = DiracSemimartingale(B)
        phi = TestFunction(B, np.arange(64.0) / 64)
        psi = basis_vector(B, 3)
        ts = p.times[:5]
        lhs = X.pair_many(p, ts, TestFunction(B, 2 * phi.coeffs + psi.coeffs))
        rhs = 2 * X.pair_many(p, ts, phi) + X.pair_many(p, ts, psi)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestConvPair:
    def test_zero_shift(self):
        rng = np.random.default_rng(2)
        T = Distribution(B, rng.normal(size=64))
        phi = TestFunction(B, rng.normal(size=64))
        assert conv_pair(T, 0.0, phi) == pytest.approx(pair(T, phi), abs=1e-12)

    def test_gaussian_autocorrelation(self):
        # <dual e0 * delta_a, e0> = exp(-a^2/4)
        for a in (-1.5, -0.3, 0.5, 1.0):
            assert conv_pair(T0, a, E0) == pytest.approx(np.exp(-a**2 / 4), abs=1e-10)
        assert conv_pair(T0, 1.0, E0) == pytest.approx(0.7788, abs=1e-4)

    def test_linearity_in_T(self):
        rng = np.random.default_rng(3)
        T = Distribution(B, rng.normal(size=64))
        phi = TestFunction(B, rng.normal(size=64) / 8)
        assert conv_pair(2.0 * T, 0.7, phi) == pytest.approx(
            2.0 * conv_pair(T, 0.7, phi), abs=1e-12
        )

    def test_matches_shift_pairing(self):
        rng = np.random.default_rng(4)
        T = Distribution(B, rng.normal(size=64))
        phi = TestFunction(B, rng.normal(size=64) / 8)
        for a in (-0.9, 0.33):
            assert conv_pair(T, a, phi) == pytest.approx(
                pair(T, shift(phi, a)), abs=1e-12
            )

    def test_conv_matrix_rows(self):
        a = np.array([-0.5, 0.0, 1.2])
        M = conv_matrix(T0, a)
        for j in (0, 7, 40):
            hj = basis_vector(B, j)
            for i, ai in enumerate(a):
                assert M[i, j] == pytest.approx(conv_pair(T0, ai, hj), abs=1e-12)

    def test_convolved_semimartingale_pairing(self):
        p = simulate(BROWN, 16, seed=5)
        Xc = ConvolvedDiracSemimartingale(T0)
        ts = p.times[:6]
        got = Xc.pair_many(p, ts, E0)
        expect = conv_pair_many(T0, p.values_at(ts), E0)
        assert np.max(np.abs(got - expect)) <= 1e-13


class TestItoTerms:
    def test_constant_driver_all_zero(self):
        spec = SemimartingaleSpec(z0=0.4, mu=0.0, sigma=0.0, jump_intensity=0.0)
        p = simulate(spec, 16, seed=0)
        terms = ito_terms(T0, p, E0, dyadic_partition(4, 1.0))
        assert np.all(terms.A == 0.0)
        assert np.all(terms.B == 0.0)
        assert np.all(terms.C == 0.0)

    def test_drift_A_matches_closed_form(self):
        # the stochastic-integral term enters the identity with a minus
        # sign, so the stored A(1) is -(e^{-1/4} - 1); magnitude from the
        # antiderivative of d/da exp(-a^2/4)
        p = simulate(DRIFT, 2**10, seed=0)
        terms = ito_terms(T0, p, E0, dyadic_partition(10, 1.0))
        assert terms.A[-1] == pytest.approx(-(np.exp(-0.25) - 1.0), abs=2e-3)

    def test_single_jump_C_closed_form(self):
        p = single_jump_path(size=1.0, at=0.4)
        part = RandomPartition(np.array([0.0, 0.4, 1.0]))
        terms = ito_terms(T0, p, E0, part)
        # T(dphi(.+0)) = 0 for the Gaussian pair, so only the conv difference
        assert terms.C[-1] == pytest.approx(np.exp(-0.25) - 1.0, abs=1e-10)
        assert terms.C[0] == 0.0

    def test_C_constant_between_jumps_one_increment_each(self):
        p = simulate(PURE_JUMP, 16, seed=1)
        part = jump_refined_partition(dyadic_partition(4, 1.0), p)
        terms = ito_terms(T0, p, E0, part)
        changes = np.nonzero(np.diff(terms.C))[0]
        change_times = part.times[changes + 1]
        assert np.isin(change_times, p.jump_times).all()
        relevant = p.jump_times[p.jump_times <= 1.0]
        assert len(change_times) <= len(relevant)

    def test_no_jumps_C_zero_no_sigma_B_zero(self):
        p = simulate(BROWN, 64, seed=2)
        terms = ito_terms(T0, p, E0, dyadic_partition(5, 1.0))
        assert np.all(terms.C == 0.0)
        pj = simulate(PURE_JUMP, 16, seed=3)
        part = jump_refined_partition(dyadic_partition(4, 1.0), pj)
        for bracket in ("realized", "model"):
            t2 = ito_terms(T0, pj, E0, part, bracket=bracket)
            assert np.all(t2.B == 0.0)
        # drift plus jumps still has zero continuous martingale part
        spec = SemimartingaleSpec(
            mu=1.0, sigma=0.0, jump_intensity=3.0, jump_mean=0.2, jump_sd=0.3,
            horizon=1.0,
        )
        pd = simulate(spec, 64, seed=4)
        part_d = jump_refined_partition(dyadic_partition(5, 1.0), pd)
        for bracket in ("realized", "model"):
            t3 = ito_terms(T0, pd, E0, part_d, bracket=bracket)
            assert np.all(t3.B == 0.0)

    def test_missing_jump_time_contract(self):
        p = simulate(PURE_JUMP, 16, seed=4)
        assert len(p.jump_times) > 0
        with pytest.raises(ContractError):
            ito_terms(T0, p, E0, dyadic_partition(2, 1.0))

    def test_distribution_level_assembly(self):
        p = simulate(
            SemimartingaleSpec(
                sigma=1.0, jump_intensity=2.0, jump_sd=0.4, horizon=1.0
            ),
            64,
            seed=5,
        )
        part = jump_refined_partition(dyadic_partition(5, 1.0), p)
        A, Bm, C = ito_terms_distribution(T0, p, part)
        terms = ito_terms(T0, p, E0, part)
        assert np.max(np.abs(A.pair_with(E0).values - terms.A)) <= 1e-12
        assert np.max(np.abs(Bm.pair_with(E0).values - terms.B)) <= 1e-12
        assert np.max(np.abs(C.pair_with(E0).values - terms.C)) <= 1e-12


class TestItoResidual:
    def test_constant_driver(self):
        spec = SemimartingaleSpec(z0=-0.3, mu=0.0, sigma=0.0, jump_intensity=0.0)
        p = simulate(spec, 16, seed=0)
        assert ito_residual(T0, p, E0, dyadic_partition(4, 1.0)) <= 1e-14

    def test_pure_jump_telescopes_exactly(self):
        for seed in range(8):
            p = simulate(PURE_JUMP, 16, seed=seed)
            part = jump_refined_partition(dyadic_partition(4, 1.0), p)
            for bracket in ("realized", "model"):
                assert ito_residual(T0, p, E0, part, bracket=bracket) <= 1e-10

    def test_drift_refinement_slope(self):
        residuals = []
        levels = range(6, 11)
        for n in levels:
            p = simulate(DRIFT, 2**n, seed=0)
            residuals.append(ito_residual(T0, p, E0, dyadic_partition(n, 1.0)))
        slope = np.polyfit(list(levels), np.log2(residuals), 1)[0]
        assert slope <= -0.9

    def test_brownian_per_path_slope_and_median(self):
        levels = list(range(6, 11))
        slopes = []
        finals = []
        for i in range(25):
            p = simulate(BROWN, 2**10, seed=[777, i])
            res = [
                ito_residual(T0, p, E0, dyadic_partition(n, 1.0)) for n in levels
            ]
            slopes.append(np.polyfit(levels, np.log2(res), 1)[0])
            finals.append(res[-1])
        assert np.median(slopes) <= -0.4
        assert np.median(finals) <= 5e-3

    def test_linearity_in_T(self):
        p = simulate(
            SemimartingaleSpec(sigma=1.0, jump_intensity=1.0, jump_sd=0.3, horizon=1.0),
            64,
            seed=9,
        )
        part = jump_refined_partition(dyadic_partition(5, 1.0), p)
        T1 = dual_basis_vector(B, 0)
        T2 = dual_basis_vector(B, 2)
        alpha = 1.7
        r_comb = ito_residual(alpha * T1 + T2, p, E0, part)
        assert r_comb <= alpha * ito_residual(T1, p, E0, part) + ito_residual(
            T2, p, E0, part
        ) + 1e-12

    def test_model_bracket_larger_residual_on_brownian(self):
        p = simulate(BROWN, 2**9, seed=11)
        part = dyadic_partition(9, 1.0)
        r_real = ito_residual(T0, p, E0, part, bracket="realized")
        r_model = ito_residual(T0, p, E0, part, bracket="model")
        assert r_real < r_model


def full_width_ito_residual(T, path, phi, partition, bracket="realized"):
    """ito_residual with every conv_matrix evaluated over all N columns."""
    taus = partition.times
    M = conv_matrix(T, path.values_at(taus))
    dphi = differentiate(phi)
    d2phi = differentiate(dphi)
    g1 = M[:-1] @ dphi.coeffs
    g2 = M[:-1] @ d2phi.coeffs
    dz = np.diff(path.values_at(taus))
    A = np.concatenate([[0.0], -np.cumsum(g1 * dz)])
    db = _bracket_increments(path, taus, bracket)
    Bt = np.concatenate([[0.0], np.cumsum(g2 * db)])
    C = np.zeros_like(taus)
    jt = path.jump_times[path.jump_times <= taus[-1]]
    if len(jt):
        js = path.jump_sizes[: len(jt)]
        Mb = conv_matrix(T, path.values_at(jt, left=True))
        Ma = conv_matrix(T, path.values_at(jt))
        jump_c = (Ma - Mb) @ phi.coeffs - (Mb @ dphi.coeffs) * js
        idx = np.searchsorted(jt, taus, side="right")
        C = np.concatenate([[0.0], np.cumsum(jump_c)])[idx]
    f = M @ phi.coeffs
    gap = f - f[0] + A - 0.5 * Bt - C
    return float(np.max(np.abs(gap)))


MIXED = SemimartingaleSpec(sigma=1.0, jump_intensity=3.0, jump_sd=0.5, horizon=1.0)


def mixed_support_rows(n_rows):
    """Coefficient rows with supports 3, 0 (all zero), 11 and 1, cycled."""
    rng = np.random.default_rng(12)
    rows = np.zeros((n_rows, 64))
    for i in range(n_rows):
        width = (3, 0, 11, 1)[i % 4]
        rows[i, :width] = rng.normal(size=width)
    return rows


class TestColumnBound:
    """Bounded Hermite evaluation reproduces the full-N bits exactly."""

    A_VALUES = np.array([-1.7, -0.5, 0.0, 0.3, 1.2, 2.5])

    @pytest.mark.parametrize("k", [0, 1, 3, 64])
    def test_conv_matrix_columns(self, k):
        rng = np.random.default_rng(13)
        for T in (T0, Distribution(B, rng.normal(size=64))):
            full = conv_matrix(T, self.A_VALUES)
            M = conv_matrix(T, self.A_VALUES, k)
            assert M.shape == full.shape == (len(self.A_VALUES), 64)
            assert np.array_equal(M[:, :k], full[:, :k])
            assert np.all(M[:, k:] == 0.0)

    def test_conv_matrix_columns_out_of_range(self):
        for k in (-1, 65):
            with pytest.raises(ValueError, match="columns"):
                conv_matrix(T0, self.A_VALUES, k)

    def test_dirac_pair_pointwise(self):
        p = simulate(MIXED, 64, seed=14)
        ts = p.times[::3]
        rows = mixed_support_rows(len(ts))
        ref = np.einsum("ij,ij->i", hermite_matrix(p.values_at(ts), 64), rows)
        got = DiracSemimartingale(B).pair_pointwise(p, ts, rows)
        assert np.array_equal(got, ref)
        assert np.all(got[1::4] == 0.0)
        zero = DiracSemimartingale(B).pair_pointwise(p, ts, np.zeros_like(rows))
        assert np.array_equal(zero, np.zeros(len(ts)))

    def test_convolved_pair_pointwise(self):
        p = simulate(MIXED, 64, seed=15)
        ts = p.times[::3]
        rows = mixed_support_rows(len(ts))
        rng = np.random.default_rng(16)
        for T in (T0, Distribution(B, rng.normal(size=64))):
            ref = np.einsum("sj,sj->s", conv_matrix(T, p.values_at(ts)), rows)
            got = ConvolvedDiracSemimartingale(T).pair_pointwise(p, ts, rows, left=False)
            assert np.array_equal(got, ref)
            ref_left = np.einsum(
                "sj,sj->s", conv_matrix(T, p.values_at(ts, left=True)), rows
            )
            got_left = ConvolvedDiracSemimartingale(T).pair_pointwise(p, ts, rows, left=True)
            assert np.array_equal(got_left, ref_left)

    @pytest.mark.parametrize("kind", ["e0", "e5", "full"])
    def test_ito_residual_matches_full_width(self, kind):
        rng = np.random.default_rng(17)
        if kind == "full":
            phi = TestFunction(B, rng.normal(size=64) / 8)
        else:
            phi = basis_vector(B, int(kind[1:]))
        p = simulate(MIXED, 2**7, seed=18)
        assert len(p.jump_times) > 0
        part = jump_refined_partition(dyadic_partition(6, 1.0), p)
        for T in (T0, Distribution(B, rng.normal(size=64))):
            for bracket in ("realized", "model"):
                assert ito_residual(T, p, phi, part, bracket) == full_width_ito_residual(
                    T, p, phi, part, bracket
                )

    def test_no_state_carries_over(self):
        a = np.array([-0.5, 1.2])
        fresh = conv_matrix(T0, a)
        assert np.all(fresh[:, 7] != 0.0)
        p = simulate(MIXED, 64, seed=19)
        part = jump_refined_partition(dyadic_partition(5, 1.0), p)
        ito_residual(T0, p, E0, part)
        ConvolvedDiracSemimartingale(T0).pair_many(p, p.times[:4], E0)
        after = conv_matrix(T0, a)
        assert np.array_equal(after[:, 7], fresh[:, 7])
        assert np.array_equal(after, fresh)
