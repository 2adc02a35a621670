import numpy as np
import pytest

from hermsem.basis import (
    Distribution,
    HermiteBasis,
    TestFunction,
    basis_vector,
    dual_basis_vector,
)
from hermsem.dirac_ito import DiracSemimartingale
from hermsem.paths import (
    ContractError,
    SemimartingaleSpec,
    dyadic_partition,
    jump_refined_partition,
    simulate,
    stop_path,
)
from hermsem.scalar_integral import (
    CylindricalSemimartingale,
    ElementaryScalarIntegrand,
    ElementaryTestFnIntegrand,
    riemann_scalar,
)
from hermsem.vector_integral import (
    DistributionPath,
    LocalizedIntegrand,
    TensorIntegrand,
    dual_apply,
    integrate_then_integrate,
    localize_integrate,
    riemann_vector,
    vector_integrate,
)

B = HermiteBasis(64, 160)
E = [basis_vector(B, j) for j in range(4)]
X = DiracSemimartingale(B)
MIXED = SemimartingaleSpec(
    z0=0.1, mu=0.2, sigma=1.0, jump_intensity=2.0, jump_mean=0.0, jump_sd=0.4, horizon=1.0
)


def unit_block(a0=0.0):
    return ElementaryScalarIntegrand(a0=a0, blocks=[(0.0, 1.0)], end=1.0, bound=1.0)


def rank_one(h=None, H=None, G=None):
    return TensorIntegrand(
        [(h if h is not None else unit_block(), H or E[0], G or dual_basis_vector(B, 0))]
    )


class TestDualApply:
    def test_zero_pairing(self):
        p = simulate(MIXED, 16, seed=0)
        R = rank_one(G=dual_basis_vector(B, 0))
        out = dual_apply(R, 0.5, p, E[1])  # <dual e0, e1> = 0
        assert np.all(out.coeffs == 0.0)

    def test_unit_pairing_returns_stored(self):
        p = simulate(MIXED, 16, seed=0)
        R = rank_one(H=E[2], G=dual_basis_vector(B, 0))
        out = dual_apply(R, 0.5, p, E[0])
        assert np.array_equal(out.coeffs, E[2].coeffs)

    def test_two_equal_terms_double(self):
        p = simulate(MIXED, 16, seed=0)
        R = rank_one() + rank_one()
        single = dual_apply(rank_one(), 0.5, p, E[0])
        assert np.array_equal(
            dual_apply(R, 0.5, p, E[0]).coeffs, 2.0 * single.coeffs
        )


class TestVectorIntegrate:
    def test_truncation_mismatch(self):
        from hermsem.basis import DimensionError

        small = HermiteBasis(16, 40)
        p = simulate(MIXED, 16, seed=0)
        R_small = TensorIntegrand(
            [(1.0, basis_vector(small, 0), dual_basis_vector(small, 0))]
        )
        with pytest.raises(DimensionError):
            vector_integrate(R_small, X, p, dyadic_partition(2, 1.0))

    def test_zero_integrand(self):
        p = simulate(MIXED, 32, seed=1)
        R = rank_one(G=Distribution(B, np.zeros(64)))
        y = vector_integrate(R, X, p, dyadic_partition(3, 1.0))
        assert np.all(y.coeffs == 0.0)

    def test_rank_one_dirac_reduction(self):
        # h = 1 on (0,T]: pairing with psi is <G,psi> (H(z_t) - H(z_0))
        p = simulate(MIXED, 64, seed=2)
        G = Distribution(B, np.linspace(1.0, 0.0, 64))
        R = rank_one(H=E[2], G=G)
        part = jump_refined_partition(dyadic_partition(4, 1.0), p)
        y = vector_integrate(R, X, p, part)
        rng = np.random.default_rng(3)
        psi = TestFunction(B, rng.normal(size=64) / 8)
        expect = float(G.dual_coeffs @ psi.coeffs) * (
            E[2](p.values_at(y.times)) - E[2](p.value(0.0))
        )
        assert np.max(np.abs(y.pair_with(psi).values - expect)) <= 1e-12

    def test_weak_strong_compatibility(self):
        p = simulate(MIXED, 64, seed=4)
        G = Distribution(B, 1.0 / (1.0 + np.arange(64.0)))
        R = TensorIntegrand(
            [
                (unit_block(a0=1.0), E[0], G),
                (
                    lambda t, v: float(np.tanh(v.value(t))),
                    E[1],
                    dual_basis_vector(B, 3),
                ),
            ]
        )
        part = jump_refined_partition(dyadic_partition(5, 1.0), p)
        y = vector_integrate(R, X, p, part)
        rng = np.random.default_rng(5)
        for _ in range(10):
            psi = TestFunction(B, rng.normal(size=64) / 8)

            class Sampler:
                def sample_many(self, taus, path):
                    out = np.zeros((len(taus), 64))
                    for coef, H, Gk in R.resolve(path):
                        w = float(Gk.dual_coeffs @ psi.coeffs)
                        out += np.outer(coef.sample_at(taus) * w, H.coeffs)
                    return out

                def sample_atom(self, path):
                    out = np.zeros(64)
                    for coef, H, Gk in R.resolve(path):
                        out += coef.atom() * float(Gk.dual_coeffs @ psi.coeffs) * H.coeffs
                    return out

            rhs = riemann_scalar(Sampler(), X, p, part, times=y.times)
            assert np.max(np.abs(y.pair_with(psi).values - rhs.values)) <= 1e-12

    def test_weak_strong_for_all_basis_elements(self):
        p = simulate(MIXED, 32, seed=6)
        R = rank_one(G=Distribution(B, np.linspace(0.5, -0.5, 64)))
        part = dyadic_partition(3, 1.0)
        y = vector_integrate(R, X, p, part)

        class DualSampler:
            # right-sampled R'h_j, the sampled process the Riemann sum uses
            def __init__(self, j):
                self.psi = basis_vector(B, j)

            def sample_many(self, taus, path):
                out = np.zeros((len(taus), 64))
                for coef, H, Gk in R.resolve(path):
                    w = float(Gk.dual_coeffs @ self.psi.coeffs)
                    out += np.outer(coef.sample_at(taus) * w, H.coeffs)
                return out

            def sample_atom(self, path):
                out = np.zeros(64)
                for coef, H, Gk in R.resolve(path):
                    out += coef.atom() * float(Gk.dual_coeffs @ self.psi.coeffs) * H.coeffs
                return out

        for j in (0, 5, 31, 63):
            direct = riemann_scalar(DualSampler(j), X, p, part, times=y.times)
            assert np.max(np.abs(y.coeffs[:, j] - direct.values)) <= 1e-12


class TestBilinearityAndStopping:
    def test_bilinear_exact(self):
        p = simulate(MIXED, 32, seed=7)
        part = jump_refined_partition(dyadic_partition(4, 1.0), p)
        G1 = Distribution(B, np.linspace(1, 0, 64))
        G2 = dual_basis_vector(B, 2)
        R = rank_one(G=G1)
        S = rank_one(H=E[1], G=G2)
        c = -1.7
        lhs = vector_integrate(R.scale(c) + S, X, p, part)
        rhs = c * vector_integrate(R, X, p, part) + vector_integrate(S, X, p, part)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12

    def test_integrator_additivity(self):
        p = simulate(MIXED, 32, seed=8)
        part = dyadic_partition(4, 1.0)
        R = rank_one()
        Y = DiracSemimartingale(B)
        lhs = vector_integrate(R, X + Y, p, part)
        rhs = vector_integrate(R, X, p, part) + vector_integrate(R, Y, p, part)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12

    def test_stopping_compatibility(self):
        p = simulate(MIXED, 64, seed=9)
        part = jump_refined_partition(dyadic_partition(4, 1.0), p)
        R = rank_one(h=lambda t, v: float(np.cos(v.value(t))))
        tau = float(part.times[len(part.times) // 2])
        y = vector_integrate(R, X, p, part)
        stopped_path = vector_integrate(R, X, stop_path(p, tau), part, times=y.times)
        assert np.max(np.abs(y.stop(tau).coeffs - stopped_path.coeffs)) <= 1e-10

    def test_continuous_part_jump_split(self):
        # int R dX - int R dX^c = sum of R(s-)(Delta X_s) on jump-refined partitions
        p = simulate(MIXED, 64, seed=10)
        part = jump_refined_partition(dyadic_partition(5, 1.0), p)
        R = rank_one(h=lambda t, v: float(np.tanh(v.value(t))))

        class JumpPart(CylindricalSemimartingale):
            def pair_pointwise(self, path, ts, rows, left=False):
                ts = np.asarray(ts, float)
                rows = np.asarray(rows)
                out = np.zeros(len(ts))
                for s in path.jump_times:
                    right = X.pair_pointwise(path, np.full(len(ts), s), rows)
                    lft = X.pair_pointwise(path, np.full(len(ts), s), rows, left=True)
                    out += np.where(ts >= s, right - lft, 0.0)
                return out

        J = JumpPart()
        Xc = X + (-1.0) * J
        times = np.unique(np.concatenate([p.times, part.times]))
        full = vector_integrate(R, X, p, part, times)
        cont = vector_integrate(R, Xc, p, part, times)
        jump = vector_integrate(R, J, p, part, times)
        assert np.max(np.abs(full.coeffs - cont.coeffs - jump.coeffs)) <= 1e-10
        # with no jumps, X^c integration is literally the same numbers
        p0 = simulate(SemimartingaleSpec(sigma=1.0, horizon=1.0), 32, seed=11)
        f0 = vector_integrate(R, X, p0, dyadic_partition(4, 1.0))
        c0 = vector_integrate(R, Xc, p0, dyadic_partition(4, 1.0))
        assert np.array_equal(f0.coeffs, c0.coeffs)

    def test_schauder_projection_net(self):
        p = simulate(MIXED, 32, seed=12)
        part = dyadic_partition(4, 1.0)
        G = Distribution(B, np.concatenate([np.array([1.0, -2.0, 0.5]), np.zeros(61)]))
        R = rank_one(G=G)
        full = vector_integrate(R, X, p, part)
        sups = []
        for n in (1, 2, 3, 10):
            yn = vector_integrate(R.project_output(n), X, p, part)
            sups.append(float(np.max(np.abs(yn.coeffs - full.coeffs))))
        assert sups[-1] == 0.0          # n beyond the top index of G: exact
        assert sups[2] == 0.0           # top index is 2, so P_3 is already exact
        assert sups[0] >= sups[1] >= sups[2]


class TestRiemannVector:
    def test_constant_integrand_exact_any_partition(self):
        p = simulate(MIXED, 64, seed=13)
        R = rank_one(h=1.0)
        parts = [dyadic_partition(n, 1.0) for n in (2, 5)]
        rep = riemann_vector(R, X, p, parts, r=1, levels=[2, 5])
        assert np.max(rep.successive_sup) <= 1e-12

    def test_aligned_elementary_matches(self):
        p = simulate(MIXED, 64, seed=14)
        h = ElementaryScalarIntegrand(a0=0.2, blocks=[(0.25, 0.8), (0.5, -0.4)], end=1.0, bound=1.0)
        R = rank_one(h=h)
        part = jump_refined_partition(
            dyadic_partition(4, 1.0).refined_with([0.25, 0.5]), p
        )
        y = vector_integrate(R, X, p, part)
        # sampled form evaluated on the same partition is the same sum
        y2 = vector_integrate(R, X, p, part, times=y.times)
        assert np.array_equal(y.coeffs, y2.coeffs)

    def test_refinement_rate_brownian(self):
        # ensemble log2 slope of successive differences over n = 4..9
        spec = SemimartingaleSpec(sigma=1.0, jump_intensity=1.0, jump_sd=0.5, horizon=1.0)
        levels = list(range(4, 10))
        diffs = {n: [] for n in levels[:-1]}
        for i in range(30):
            p = simulate(spec, 2**9, seed=[4040, i])
            R = rank_one(h=lambda t, v: float(np.tanh(v.value(t))))
            parts = [jump_refined_partition(dyadic_partition(n, 1.0), p) for n in levels]
            rep = riemann_vector(R, X, p, parts, r=1, levels=levels)
            for n, d in zip(levels[:-1], rep.successive_sup):
                diffs[n].append(min(1.0, d))
        means = [np.mean(diffs[n]) for n in levels[:-1]]
        slope = np.polyfit(levels[:-1], np.log2(means), 1)[0]
        assert slope <= -0.4

    def test_reference_column(self):
        p = simulate(MIXED, 64, seed=15)
        R = rank_one(h=lambda t, v: float(np.sin(v.value(t))))
        parts = [dyadic_partition(n, 1.0) for n in (3, 4)]
        ref = jump_refined_partition(dyadic_partition(6, 1.0), p)
        rep = riemann_vector(R, X, p, parts, r=1, reference=ref, levels=[3, 4])
        assert np.all(np.isfinite(rep.reference_sup))
        assert rep.reference_sup[1] <= rep.reference_sup[0]


class TestLocalize:
    def test_bounded_case_equals_direct(self):
        p = simulate(MIXED, 32, seed=16)
        part = jump_refined_partition(dyadic_partition(4, 1.0), p)
        R = rank_one()
        L = LocalizedIntegrand(base=lambda n, tau: R, levels=[p.horizon], kind="deterministic")
        y = localize_integrate(L, X, p, part)
        direct = vector_integrate(R, X, p, part.refined_with([p.horizon]), times=y.times)
        assert np.max(np.abs(y.coeffs - direct.coeffs)) <= 1e-12

    def test_two_level_pasting_consistency(self):
        p = simulate(MIXED, 32, seed=17)
        part = jump_refined_partition(dyadic_partition(4, 1.0), p)
        R = rank_one()
        L = LocalizedIntegrand(
            base=lambda n, tau: R,
            levels=[p.horizon / 2, p.horizon],
            kind="deterministic",
        )
        y = localize_integrate(L, X, p, part)
        one = localize_integrate(
            LocalizedIntegrand(base=lambda n, tau: R, levels=[p.horizon], kind="deterministic"),
            X,
            p,
            part.refined_with([p.horizon / 2]),
        )
        mask = y.times <= p.horizon / 2
        assert np.max(np.abs(y.coeffs[mask] - one.coeffs[mask])) <= 1e-12

    def test_path_dependent_unbounded_coefficient(self):
        # R = z_{t-} (H (x) G) with first-passage localization; a path that
        # stays below the top level must match the direct Riemann sum.
        spec = SemimartingaleSpec(sigma=0.5, horizon=1.0)
        p = simulate(spec, 64, seed=18)
        top = float(np.max(np.abs(p.values))) + 1.0
        levels = [top / 2, top]

        def coef(t, view):
            return float(view.left_value(t))

        def base(n, tau):
            return rank_one(h=coef)

        L = LocalizedIntegrand(base=base, levels=levels, kind="first-passage")
        part = dyadic_partition(5, 1.0)
        y = localize_integrate(L, X, p, part)
        direct = vector_integrate(rank_one(h=coef), X, p, part, times=y.times)
        assert np.max(np.abs(y.coeffs - direct.coeffs)) <= 1e-10

    def test_exhaustion_contract(self):
        spec = SemimartingaleSpec(sigma=1.0, horizon=1.0)
        p = simulate(spec, 64, seed=19)
        low = float(np.max(np.abs(p.values))) / 2  # level the path does cross
        L = LocalizedIntegrand(base=lambda n, tau: rank_one(), levels=[low], kind="first-passage")
        with pytest.raises(ContractError):
            localize_integrate(L, X, p, dyadic_partition(3, 1.0))


class TestIntegrateThenIntegrate:
    def test_zero_H(self):
        p = simulate(MIXED, 32, seed=20)
        part = dyadic_partition(3, 1.0)
        H = ElementaryTestFnIntegrand([])
        lhs, rhs = integrate_then_integrate(H, rank_one(), X, p, part)
        assert np.all(lhs.values == 0.0) and np.all(rhs.values == 0.0)

    def test_aligned_elementary_associativity(self):
        p = simulate(MIXED, 64, seed=21)
        hH = ElementaryScalarIntegrand(a0=0.25, blocks=[(0.25, 1.0), (0.5, -0.5)], end=0.75, bound=1.0)
        H = ElementaryTestFnIntegrand([(hH, E[1])])
        G = Distribution(B, np.linspace(1, 0, 64))
        hR = ElementaryScalarIntegrand(a0=1.0, blocks=[(0.0, 1.0), (0.5, 0.5)], end=1.0, bound=1.0)
        R = TensorIntegrand([(hR, E[0], G)])
        part = jump_refined_partition(
            dyadic_partition(4, 1.0).refined_with([0.25, 0.5, 0.75]), p
        )
        lhs, rhs = integrate_then_integrate(H, R, X, p, part)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-10

    def test_rank_one_reduction_to_scalar(self):
        # H = 1_{(0,T]} psi against Y = int h (H1 (x) G) dX reduces to
        # h <G,psi> d<X,H1> integrals on both sides
        p = simulate(MIXED, 64, seed=22)
        psi = E[1]
        G = dual_basis_vector(B, 1)
        hR = unit_block()
        R = TensorIntegrand([(hR, E[2], G)])
        H = ElementaryTestFnIntegrand([(unit_block(), psi)])
        part = jump_refined_partition(dyadic_partition(5, 1.0), p)
        lhs, rhs = integrate_then_integrate(H, R, X, p, part)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-10
        w = float(G.dual_coeffs @ psi.coeffs)
        expect = w * (E[2](p.values_at(lhs.times)) - E[2](p.value(0.0)))
        assert np.max(np.abs(rhs.values - expect)) <= 1e-10


class TestDistributionPath:
    def test_pairing_linearity(self):
        times = np.linspace(0, 1, 5)
        rng = np.random.default_rng(23)
        dp = DistributionPath(B, times, rng.normal(size=(5, 64)))
        a, b = E[0], E[3]
        lhs = dp.pair_with(TestFunction(B, 2.0 * a.coeffs + b.coeffs))
        rhs = 2.0 * dp.pair_with(a).values + dp.pair_with(b).values
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-12

    def test_at_and_stop(self):
        times = np.linspace(0, 1, 5)
        coeffs = np.arange(5)[:, None] * np.ones((5, 64))
        dp = DistributionPath(B, times, coeffs)
        assert dp.at(0.6).dual_coeffs[0] == 2.0
        st = dp.stop(0.5)
        assert np.all(st.coeffs[-1] == 2.0)

    def test_long_format_rows(self):
        times = np.array([0.0, 1.0])
        coeffs = np.vstack([np.arange(64.0), np.arange(64.0) + 100])
        dp = DistributionPath(B, times, coeffs)
        table = dp.to_rows()
        assert len(table) == 2 * 64
        assert list(table.columns) == ["t", "j", "f_j"]
        t, j, f = table["t"], table["j"], table["f_j"]
        assert (t[0], j[0], f[0]) == (0.0, 0, 0.0)
        assert (t[64 + 3], j[64 + 3], f[64 + 3]) == (1.0, 3, 103.0)
        assert j.dtype.kind == "i"
