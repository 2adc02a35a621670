import numpy as np

from hermsem.basis import Distribution, HermiteBasis, basis_vector, dual_basis_vector
from hermsem.diagnostics import (
    case_table,
    continuity_probe,
    linearity_probe,
    localization_probe,
    stopping_probe,
    truncate_elementary,
)
from hermsem.dirac_ito import DiracSemimartingale
from hermsem.metrics import IntegrandDictionary
from hermsem.paths import (
    SemimartingaleSpec,
    dyadic_partition,
    first_passage_time,
    jump_refined_partition,
    simulate,
    simulate_ensemble,
)
from hermsem.scalar_integral import ElementaryScalarIntegrand, ElementaryTestFnIntegrand
from hermsem.vector_integral import TensorIntegrand

B = HermiteBasis(32, 80)
X = DiracSemimartingale(B)
SPEC = SemimartingaleSpec(
    sigma=1.0, jump_intensity=2.0, jump_mean=0.0, jump_sd=0.4, horizon=1.0
)


def make_integrands():
    h1 = ElementaryScalarIntegrand(a0=0.5, blocks=[(0.0, 1.0), (0.5, -1.0)], end=1.0, bound=1.0)
    h2 = ElementaryScalarIntegrand(
        blocks=[(0.0, 0.5), (0.25, lambda v: float(np.tanh(v.value(v.t))))],
        end=1.0,
        bound=1.0,
    )
    return [
        ElementaryTestFnIntegrand([(h1, basis_vector(B, 0))]),
        ElementaryTestFnIntegrand([(h1, basis_vector(B, 1)), (h2, basis_vector(B, 2))]),
    ]


class TestStoppingProbe:
    def test_trivial_and_first_passage(self):
        p = simulate(SPEC, 64, seed=0)
        taus = [1.0, 0.0, 0.5, first_passage_time(p, 1.0)]
        rep = stopping_probe(X, p, make_integrands(), taus)
        assert rep.passed
        assert len(rep.cases) == 2 * len(taus)
        assert all(c.deviation <= 1e-10 for c in rep.cases)

    def test_over_many_seeds(self):
        for seed in range(10):
            p = simulate(SPEC, 64, seed=seed)
            rep = stopping_probe(
                X, p, make_integrands(), [0.5, first_passage_time(p, 0.8)]
            )
            assert rep.passed

    def test_truncation_helper(self):
        h = ElementaryScalarIntegrand(a0=1.0, blocks=[(0.25, 1.0), (0.5, -1.0)], end=1.0, bound=1.0)
        ht = truncate_elementary(h, 0.4)
        assert ht.end == 0.4
        assert [t for t, _ in ht.blocks] == [0.25]


class TestContinuityProbe:
    def test_scaling_sequence(self):
        paths = simulate_ensemble(SPEC, 64, 101, 40)
        seq = [
            ElementaryTestFnIntegrand(
                [
                    (
                        ElementaryScalarIntegrand(
                            blocks=[(0.0, 1.0 / k)], end=1.0, bound=1.0
                        ),
                        basis_vector(B, 0),
                    )
                ]
            )
            for k in (1, 2, 4, 8)
        ]
        d = IntegrandDictionary.default(1.0, seed=2)
        rep = continuity_probe(X, paths, seq, d, n_max=1, threshold=0.2)
        assert rep.passed
        table = rep.tables["continuity"]
        # linear scaling: estimates shrink roughly like 1/k
        assert table["ucp_estimate"][-1] < table["ucp_estimate"][0]
        assert table["integrand_size"][0] > table["integrand_size"][-1]

    def test_shrinking_window(self):
        paths = simulate_ensemble(SPEC, 64, 103, 40)
        seq = [
            ElementaryTestFnIntegrand(
                [
                    (
                        ElementaryScalarIntegrand(
                            blocks=[(0.0, 1.0)], end=1.0 / k, bound=1.0
                        ),
                        basis_vector(B, 0),
                    )
                ]
            )
            for k in (1, 2, 4, 8)
        ]
        d = IntegrandDictionary.default(1.0, seed=3)
        rep = continuity_probe(X, paths, seq, d, n_max=1, threshold=0.5)
        table = rep.tables["continuity"]
        assert table["ucp_estimate"][-1] < table["ucp_estimate"][0]

    def test_zero_sequence(self):
        paths = simulate_ensemble(SPEC, 32, 105, 10)
        z = ElementaryTestFnIntegrand([])
        d = IntegrandDictionary.default(1.0)
        rep = continuity_probe(X, paths, [z, z, z], d, n_max=1, threshold=0.01)
        assert rep.passed
        assert np.all(rep.tables["continuity"]["ucp_estimate"] == 0.0)


class TestLocalizationProbe:
    def test_levels(self):
        p = simulate(SPEC, 64, seed=7)
        G = Distribution(B, 1.0 / (1.0 + np.arange(32.0)))
        R = TensorIntegrand(
            [(ElementaryScalarIntegrand(blocks=[(0.0, 1.0)], end=1.0, bound=1.0),
              basis_vector(B, 0), G)]
        )
        part = jump_refined_partition(dyadic_partition(5, 1.0), p)
        rep = localization_probe(
            X, p, [1.0, 2.0, 3.0], [basis_vector(B, j) for j in range(3)], R, part
        )
        assert rep.passed

    def test_level_beyond_maximum_is_identity(self):
        p = simulate(SPEC, 64, seed=8)
        big = float(np.max(np.abs(p.values))) + 5.0
        assert first_passage_time(p, big) == p.horizon


class TestLinearityProbe:
    def rank(self, j, G=None, coef=1.0):
        return TensorIntegrand(
            [(coef, basis_vector(B, j), G or dual_basis_vector(B, j))]
        )

    def test_zero_scalar_reduces(self):
        p = simulate(SPEC, 32, seed=9)
        part = jump_refined_partition(dyadic_partition(4, 1.0), p)
        rep = linearity_probe(X, DiracSemimartingale(B), self.rank(0), self.rank(1), 0.0, p, part)
        assert rep.passed

    def test_minus_one_cancels(self):
        p = simulate(SPEC, 32, seed=10)
        part = jump_refined_partition(dyadic_partition(4, 1.0), p)
        from hermsem.vector_integral import vector_integrate

        R = self.rank(2)
        comb = R.scale(-1.0) + R
        y = vector_integrate(comb, X, p, part)
        assert np.max(np.abs(y.coeffs)) <= 1e-12

    def test_random_rank_two(self):
        rng = np.random.default_rng(11)
        p = simulate(SPEC, 32, seed=12)
        part = jump_refined_partition(dyadic_partition(4, 1.0), p)
        G1 = Distribution(B, rng.normal(size=32) / 4)
        G2 = Distribution(B, rng.normal(size=32) / 4)
        R = TensorIntegrand(
            [(0.8, basis_vector(B, 0), G1), (-0.3, basis_vector(B, 1), G2)]
        )
        S = TensorIntegrand(
            [(lambda t, v: float(np.cos(v.value(t))), basis_vector(B, 2), G1)]
        )
        rep = linearity_probe(
            X, DiracSemimartingale(B), R, S, float(rng.normal()), p, part
        )
        assert rep.passed
        assert all(c.deviation <= 1e-12 for c in rep.cases)


def test_report_formatting():
    p = simulate(SPEC, 32, seed=13)
    rep = stopping_probe(X, p, make_integrands()[:1], [0.5])
    lines = rep.summary_lines()
    assert lines[0].startswith("[stopping] PASS")
    rows = case_table([rep])
    assert len(rows) == len(rep.cases)
    assert rows["probe"][0] == "stopping"
    assert rows["passed"][0] == 1
