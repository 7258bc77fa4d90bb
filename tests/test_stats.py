import math

import numpy as np
import pytest

from oracles import chi2_divergence_mixture_quadrature, tvd_two_gaussians_1d
from sketchlab import dgauss, stats
from sketchlab.errors import DimensionTooLarge, PreconditionUnmet, TooFewSamples, VarianceTooLarge
from sketchlab.rng import derive
from sketchlab.sketch import IntegerSketch


class TestEmpiricalTvd:
    def test_identical_samples_zero(self):
        rng = derive(61, "same")
        x = rng.standard_normal(5000)
        est = stats.empirical_tvd(x, x, rng=rng)
        assert est.value == 0.0

    def test_null_calibration(self):
        rng = derive(61, "null")
        vals = []
        for i in range(10):
            x = derive(61, "nx", i).standard_normal(100_000)
            y = derive(61, "ny", i).standard_normal(100_000)
            vals.append(stats.empirical_tvd(x, y, rng=rng).value)
        assert max(vals) <= 0.03

    def test_shifted_gaussian_matches_erf_oracle(self):
        truth = tvd_two_gaussians_1d(0.0, 1.0, 1.0, 1.0)
        assert abs(truth - 0.3829) < 1e-3
        x = derive(61, "sx").standard_normal(100_000)
        y = derive(61, "sy").standard_normal(100_000) + 1.0
        est = stats.empirical_tvd(x, y, rng=derive(61, "sb"))
        assert 0.36 <= est.value <= 0.40

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            stats.empirical_tvd(np.zeros(100), np.zeros(100))

    def test_dimension_guard_and_projection(self):
        # past d = TVD_MAX_DIM the caller projects the samples first
        rng = derive(61, "proj")
        X = rng.standard_normal((5000, 5))
        Y = rng.standard_normal((5000, 5))
        with pytest.raises(DimensionTooLarge):
            stats.empirical_tvd(X, Y, rng=rng)
        p = np.ones(5) / np.sqrt(5)
        est = stats.empirical_tvd(X @ p, Y @ p, rng=rng)
        assert est.value <= 0.05 and est.binning["dims"] == 1

    def test_null_bound_follows_sample_size(self):
        # the permutation bound shrinks with n and still catches a 0.1 shift
        bounds = {}
        for n in (2000, 100_000):
            x = derive(61, "bx", n).standard_normal(n)
            y = derive(61, "by", n).standard_normal(n)
            bounds[n] = stats.tvd_null_bound(x, y, rng=derive(61, "bb", n))
            assert stats.empirical_tvd(x, y, rng=derive(61, "bv", n)).value <= bounds[n]
        assert bounds[100_000] <= 0.03 < bounds[2000]
        y = derive(61, "by", 100_000).standard_normal(100_000) + 0.1
        assert stats.empirical_tvd(x, y, rng=derive(61, "bv")).value > \
            stats.tvd_null_bound(x, y, rng=derive(61, "bb"))

    def test_ci_reported(self):
        x = derive(61, "cx").standard_normal(3000)
        y = derive(61, "cy").standard_normal(3000)
        est = stats.empirical_tvd(x, y, rng=derive(61, "cb"))
        assert est.value + est.ci_halfwidth <= 1.05
        assert est.binning["dims"] == 1


class TestPmfRatioCheck:
    def test_desk_parameters(self):
        rep = stats.pmf_ratio_check(10_000.0, 10, 2)
        assert rep["ok"] and rep["max_deviation"] <= 0.01

    def test_deterministic(self):
        a = stats.pmf_ratio_check(10_000.0, 10, 2)
        b = stats.pmf_ratio_check(10_000.0, 10, 2)
        assert a == b

    def test_peak_ratio_is_normalizer_mismatch(self):
        s2, n = 10_000.0, 10
        p0 = dgauss.pmf_dgauss_1d(0, s2)
        sigma = math.sqrt(s2)
        from scipy.stats import norm
        q0 = norm.cdf(0.5 / sigma) - norm.cdf(-0.5 / sigma)
        expected = abs((p0 / q0) ** n - 1.0)
        rep = stats.pmf_ratio_check(s2, n, 2, z_range=0)
        assert abs(rep["max_deviation"] - expected) < 1e-12

    def test_precondition(self):
        with pytest.raises(PreconditionUnmet):
            stats.pmf_ratio_check(500.0, 10, 2)

    @pytest.mark.parametrize("s2", (1e4, 2.5e5, 1e6 + 0.3))
    def test_endpoints_are_the_grid_maximum(self, s2):
        # w/q falls as |z| grows, so the deviation over the whole grid
        # |z| <= 3 sigma peaks at z = 0 or at its end
        z_range = int(math.ceil(3 * math.sqrt(s2)))
        zs = np.arange(-z_range, z_range + 1)
        p1 = dgauss.pmf_dgauss_1d(zs, s2)
        q1 = dgauss._rounded_gaussian_pmf(zs, math.sqrt(s2))
        grid = float(np.max(np.abs(np.expm1(10 * (np.log(p1) - np.log(q1))))))
        assert stats.pmf_ratio_check(s2, 10, 2)["max_deviation"] == grid

    def test_refused_above_the_sampling_ceiling(self):
        with pytest.raises(VarianceTooLarge):
            stats.pmf_ratio_check(1.01 * dgauss.MAX_SIGMA2, 10, 2)


class TestCellLemma:
    def test_one_row_all_ones(self):
        sk = IntegerSketch.from_matrix(np.ones((1, 8), dtype=np.int64))
        rep = stats.cell_lemma_check(sk, 1e8, trials=30_000,
                                     rng=derive(62, "c1"))
        assert rep["pass"], rep
        assert rep["tvd_noise_path"]["value"] <= 0.05
        assert rep["tvd_round_path"]["value"] <= 0.05

    def test_floor_guard(self):
        sk = IntegerSketch.from_matrix(np.ones((1, 8), dtype=np.int64))
        with pytest.raises(PreconditionUnmet):
            stats.cell_lemma_check(sk, 100.0, trials=5000,
                                   rng=derive(62, "c2"))

    def test_rank_guard(self):
        sk = IntegerSketch.from_matrix(np.eye(5, 8, dtype=np.int64))
        with pytest.raises(PreconditionUnmet):
            stats.cell_lemma_check(sk, 1e8, trials=5000,
                                   rng=derive(62, "c3"))

    def test_four_rows_take_the_tvd_path(self):
        # r = TVD_MAX_DIM holds both paths to the permutation null bound of
        # their own samples, as at r <= 3
        sk = stats.cell_lemma_sketch(4, 16, derive(62, "c4-A"), seed=4)
        rep = stats.cell_lemma_check(sk, 1e8, trials=5000, rng=derive(62, "c4"))
        assert rep["r"] == stats.TVD_MAX_DIM == 4
        assert rep["false_fail_rate"] == stats.TVD_NULL_LEVEL
        for path in ("noise", "round"):
            tvd = rep[f"tvd_{path}_path"]
            assert tvd["binning"]["dims"] == 4 and tvd["n1"] == tvd["n2"] == 5000
            assert tvd["value"] <= tvd["null_bound"]
        assert rep["pass_noise_path"] and rep["pass_round_path"] and rep["pass"]


class TestChiSquareMixture:
    def test_point_mass_zero(self):
        # at a = 0 the mixture is the point mass at 0: no divergence, bound 0
        rep = stats.chi_square_mixture_check(0.0, 1.0, 1000, derive(63, "p0"))
        assert rep["lhs_chi2"] == 0.0 and rep["rhs_bound"] == 0.0 and rep["ok"]

    def test_pm_mixture_vs_quadrature_oracle(self):
        a, sigma = 0.5, 1.0
        rep = stats.chi_square_mixture_check(a, sigma**2, 400_000, derive(63, "pm"))
        assert rep["ok"] and rep["mixture"] == ["pm", a]
        truth = chi2_divergence_mixture_quadrature(a, sigma)
        assert abs(rep["lhs_chi2"] - truth) <= 4 * rep["lhs_se"] + 1e-4
        # closed-form RHS: cosh(a^2/sigma^2) - 1, and the bound truly holds
        assert truth <= math.cosh(a * a / sigma**2) - 1.0 + 1e-12


class TestTvdAtFourDimensions:
    def test_null_passes(self):
        rng = derive(64, "en")
        X = rng.standard_normal((3000, 4))
        Y = rng.standard_normal((3000, 4))
        est = stats.empirical_tvd(X, Y, rng=rng)
        assert est.binning["dims"] == 4
        assert est.value <= stats.tvd_null_bound(X, Y, rng=rng)

    def test_shift_detected(self):
        rng = derive(64, "es")
        X = rng.standard_normal((3000, 4))
        Y = rng.standard_normal((3000, 4)) + 0.5
        est = stats.empirical_tvd(X, Y, rng=rng)
        assert est.value > stats.tvd_null_bound(X, Y, rng=rng)
