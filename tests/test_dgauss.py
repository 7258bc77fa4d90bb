import math

import numpy as np
import pytest
from scipy.stats import chisquare, norm

from oracles import (
    ref_centered_envelope,
    ref_offset_envelope,
    ref_sample_dgauss_at_centers,
    ref_sample_rejection_centered,
)
from sketchlab import dgauss
from sketchlab.errors import NonPositiveVariance, VarianceTooSmall
from sketchlab.numerics import OrthonormalBasis
from sketchlab.rng import derive


def gof_pvalue(samples, sigma2, support_radius):
    """Chi-square goodness of fit against the exact pmf; both tails pooled
    into one bucket, sparse cells (expected < 5) dropped."""
    zs = np.arange(-support_radius, support_radius + 1)
    pmf = dgauss.pmf_dgauss_1d(zs, sigma2)
    counts = np.array([np.sum(samples == z) for z in zs], dtype=float)
    tail_count = np.sum(np.abs(samples) > support_radius)
    tail_p = max(1.0 - float(pmf.sum()), 1e-12)
    counts = np.concatenate([[tail_count], counts])
    probs = np.concatenate([[tail_p], pmf])
    keep = probs * len(samples) >= 5
    counts, probs = counts[keep], probs[keep]
    probs = probs / probs.sum()
    res = chisquare(counts, f_exp=probs * counts.sum())
    return float(res.pvalue)


class TestPmf:
    def test_partition_sigma1(self):
        assert abs(dgauss.partition_1d(1.0) - 2.50663) < 1e-4
        assert abs(dgauss.pmf_dgauss_1d(0, 1.0) - 0.39894) < 1e-4

    def test_symmetry(self):
        for s2 in (0.3, 2.0, 77.7):
            for z in (1, 3, 10):
                assert dgauss.pmf_dgauss_1d(z, s2) == dgauss.pmf_dgauss_1d(-z, s2)

    def test_large_sigma_matches_integrated_continuous(self):
        s2 = 1e6
        sigma = math.sqrt(s2)
        for z in (0, 100, 2500, 5000):
            p = dgauss.pmf_dgauss_1d(z, s2)
            q = norm.cdf((z + 0.5) / sigma) - norm.cdf((z - 0.5) / sigma)
            assert abs(p / q - 1.0) <= 1e-3

    def test_normalization_sum(self):
        for s2 in (0.5, 4.0, 100.0):
            K = int(math.ceil(12 * math.sqrt(s2))) + 1
            total = float(np.sum(dgauss.pmf_dgauss_1d(np.arange(-K, K + 1), s2)))
            assert 1.0 - 1e-12 <= total <= 1.0 + 1e-12

    def test_normalization_fact_bracket(self):
        for s2 in (0.5, 1.0, 4.0, 100.0, 1e6):
            rep = dgauss.verify_normalization_fact(s2)
            assert rep["ok"], rep

    def test_nonpositive_variance(self):
        with pytest.raises(NonPositiveVariance):
            dgauss.pmf_dgauss_1d(0, 0.0)
        with pytest.raises(NonPositiveVariance):
            dgauss.sample_dgauss_1d(-1.0, derive(0, "x"))


class TestSample1d:
    def test_moments_sigma2_100(self):
        rng = derive(21, "mom")
        x = dgauss.sample_dgauss_1d(100.0, rng, size=1_000_000)
        assert abs(float(x.mean())) <= 0.05
        assert 99.0 <= float(x.var()) <= 101.0

    def test_concentrated(self):
        rng = derive(21, "conc")
        x = dgauss.sample_dgauss_1d(0.01, rng, size=10_000)
        assert np.all(x == 0)

    def test_gof_sigma2_25(self):
        rng = derive(21, "gof")
        x = dgauss.sample_dgauss_1d(25.0, rng, size=1_000_000)
        assert gof_pvalue(x, 25.0, 30) > 0.001

    def test_gof_table_branch(self):
        rng = derive(21, "gof-small")
        x = dgauss.sample_dgauss_1d(2.5, rng, size=500_000)
        assert gof_pvalue(x, 2.5, 8) > 0.001

    def test_seed_determinism(self):
        a = dgauss.sample_dgauss_1d(50.0, derive(5, "det"), size=1000)
        b = dgauss.sample_dgauss_1d(50.0, derive(5, "det"), size=1000)
        assert np.array_equal(a, b)


PINNED_SIGMA2 = (4.0, 24.65, 50.0, 1e4, 1e8)


class TestRejectionBits:
    """The merged rejection loop with its squeeze is pinned to the plain
    per-proposal ratio loops of tests/oracles.py: same samples, same number
    of draws taken from the generator, same envelope constants."""

    @pytest.mark.parametrize("s2", PINNED_SIGMA2)
    def test_centered_matches_reference(self, s2):
        for seed in (0, 1, 2):
            rng_a, rng_b = derive(seed, "pin", str(s2)), derive(seed, "pin", str(s2))
            a = dgauss.sample_dgauss_1d(s2, rng_a, size=(300, 100))
            b = ref_sample_rejection_centered(s2, rng_b, (300, 100))
            assert np.array_equal(a, b)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
        one = dgauss.sample_dgauss_1d(s2, derive(9, "pin-one"))
        assert isinstance(one, int)
        assert one == ref_sample_rejection_centered(s2, derive(9, "pin-one"), None)

    @pytest.mark.parametrize("s2", PINNED_SIGMA2)
    def test_offset_matches_reference(self, s2):
        gen = np.random.default_rng(17)
        for seed in (0, 1, 2):
            centers = gen.standard_normal((200, 64)) * 40.0 * math.sqrt(s2) \
                + gen.uniform(-0.5, 0.5, (200, 64))
            rng_a, rng_b = derive(seed, "pin-off", str(s2)), derive(seed, "pin-off", str(s2))
            a = dgauss._sample_at_centers(centers, s2, dgauss._offset_envelope(s2), rng_a)
            b = ref_sample_dgauss_at_centers(centers, s2, rng_b)
            assert np.array_equal(a, b)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_support_bound_applies_before_squeeze(self):
        # a support bound of 1.5 sigma rejects ~13% of proposals outright;
        # none of them may slip through the squeeze
        s2 = 24.65
        sigma = math.sqrt(s2)
        c_env, _, _ = dgauss._offset_envelope(s2)
        bound = 1.5 * sigma
        q = dgauss._rounded_gaussian_pmf(bound, sigma)
        squeeze = min(math.exp(-bound * bound / (2.0 * s2)) / (c_env * q), 1.0) * (1.0 - 1e-9)
        centers = np.random.default_rng(18).uniform(-100.0, 100.0, (100, 64))
        rng_a, rng_b = derive(3, "pin-bound"), derive(3, "pin-bound")
        a = dgauss._sample_at_centers(centers, s2, (c_env, bound, squeeze), rng_a)
        b = ref_sample_dgauss_at_centers(centers, s2, rng_b, envelope=(c_env, bound))
        assert np.array_equal(a, b)
        assert np.all(np.abs(a - centers) <= bound)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("s2", PINNED_SIGMA2)
    def test_envelope_constants_unchanged(self, s2):
        c_env, K, _ = dgauss._centered_envelope(s2)
        assert (c_env, K) == ref_centered_envelope(s2)
        c_env, lim, _ = dgauss._offset_envelope(s2)
        assert (c_env, lim) == ref_offset_envelope(s2)

    @pytest.mark.parametrize("s2", PINNED_SIGMA2 + (2.5e6,))
    def test_centered_squeeze_bounds_ratio_on_support(self, s2):
        c_env, K, squeeze = dgauss._centered_envelope(s2)
        z = np.arange(0, K + 1, dtype=float)
        w = np.exp(-z * z / (2.0 * s2))
        q = dgauss._rounded_gaussian_pmf(z, math.sqrt(s2))
        ratio = w / (c_env * q)
        assert 0.0 < squeeze <= float(np.min(ratio))
        assert float(np.max(ratio)) < 1.0

    @pytest.mark.parametrize("n", (8, 64, 128, 256, 4096))
    def test_offset_squeeze_bounds_ratio_on_grid(self, n):
        for s2 in (dgauss.smoothing_r0sq(n), 50.0, 1e4):
            c_env, lim, squeeze = dgauss._offset_envelope(s2)
            u = np.linspace(0.0, lim, 200_001)
            w = np.exp(-u * u / (2.0 * s2))
            q = dgauss._rounded_gaussian_pmf(u, math.sqrt(s2))
            ratio = np.minimum(w / (c_env * q), 1.0)
            assert 0.0 < squeeze <= float(np.min(ratio))

    def test_ratio_falls_with_distance(self):
        # the squeeze rests on w/q decreasing in |u|
        for s2 in (4.0, 24.65, 1e4):
            u = np.linspace(0.0, 8.0 * math.sqrt(s2), 5000)
            w = np.exp(-u * u / (2.0 * s2))
            q = dgauss._rounded_gaussian_pmf(u, math.sqrt(s2))
            ratio = w / q
            assert np.all(np.diff(ratio) <= 1e-12 * ratio[:-1])


def _ratio(u, s2, c_env):
    """min(w/(c_env q), 1) written out, as in the reference loops."""
    w = np.exp(-u * u / (2.0 * s2))
    q = dgauss._rounded_gaussian_pmf(u, math.sqrt(s2))
    return np.minimum(w / (c_env * q), 1.0)


def _ref_subspace_query(n, V, s2, rng, m):
    """sample_subspace_query written out: for empty V the plain centered
    reference loop on the (m, n) product, otherwise the continuous part
    rounded by the plain reference loop at real centers."""
    if not len(V):
        return ref_sample_rejection_centered(s2, rng, (m, n))
    r0sq = dgauss.smoothing_r0sq(n)
    a, b = math.sqrt(s2 - r0sq), math.sqrt(s2 / 4.0 - r0sq)
    G = rng.standard_normal((m, n))
    y = a * G
    y = y - (a - b) * ((G @ V.matrix.T) @ V.matrix)
    return ref_sample_dgauss_at_centers(y, r0sq, rng)


class TestTwoSidedSqueeze:
    """The bucketed squeeze brackets the acceptance ratio in every bucket,
    so it decides as the plain ratio test does; the samplers built on it are
    pinned to the reference loops; and it leaves almost no proposal to the
    exact ratio."""

    @staticmethod
    def assert_brackets(s2, envelope, u):
        c_env, bound, squeeze = envelope
        lo, hi, scale = dgauss._squeeze_buckets(s2, c_env, bound)
        j = (u * scale).astype(np.intp)
        ratio = _ratio(u, s2, c_env)
        assert squeeze <= float(np.min(lo))
        assert np.all(lo[j] <= ratio)
        assert np.all(ratio <= hi[j])

    @pytest.mark.parametrize("s2", PINNED_SIGMA2 + (2.5e6,))
    def test_buckets_bracket_centered_ratio(self, s2):
        envelope = dgauss._centered_envelope(s2)
        self.assert_brackets(s2, envelope, np.arange(0, envelope[1] + 1, dtype=float))

    @pytest.mark.parametrize("n", (8, 64, 128, 256, 4096))
    def test_buckets_bracket_offset_ratio(self, n):
        s2 = dgauss.smoothing_r0sq(n)
        envelope = dgauss._offset_envelope(s2)
        # 64 intervals in each bucket, both edges included
        u = np.linspace(0.0, envelope[1], 64 * dgauss.SQUEEZE_BUCKETS + 1)
        self.assert_brackets(s2, envelope, u)

    def test_buckets_bracket_ratio_under_cut_support(self):
        s2 = 24.65
        sigma = math.sqrt(s2)
        c_env, _, _ = dgauss._offset_envelope(s2)
        bound = 1.5 * sigma
        squeeze = float(_ratio(bound, s2, c_env)) * (1.0 - 1e-9)
        u = np.linspace(0.0, bound, 64 * dgauss.SQUEEZE_BUCKETS + 1)
        self.assert_brackets(s2, (c_env, bound, squeeze), u)

    @pytest.mark.parametrize("k", (0, 8))
    def test_subspace_query_matches_reference(self, k):
        n, m = 128, 2000
        basis = np.linalg.qr(np.random.default_rng(19).standard_normal((n, 8)))[0].T
        V = OrthonormalBasis(n, list(basis[:k])) if k else OrthonormalBasis.empty(n)
        for s2 in (8.0 * dgauss.smoothing_r0sq(n), 1e4):
            spec = dgauss.SubspaceGaussianSpec(n, V, s2)
            rng_a, rng_b = derive(4, "pin-sub", k, str(s2)), derive(4, "pin-sub", k, str(s2))
            a = dgauss.sample_subspace_query(spec, "discrete", rng_a, size=m)
            b = _ref_subspace_query(n, V, s2, rng_b, m)
            assert np.array_equal(a, b)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_ellipsoidal_matches_reference(self):
        n, m = 16, 3000
        Sigma = np.diag(np.linspace(60.0, 900.0, n))
        Q = np.linalg.qr(np.random.default_rng(20).standard_normal((n, n)))[0]
        Sigma = Q @ Sigma @ Q.T
        rng_a, rng_b = derive(4, "pin-ell"), derive(4, "pin-ell")
        a = dgauss.sample_dgauss_ellipsoidal(Sigma, rng_a, size=m)
        r0sq = dgauss.smoothing_r0sq(n)
        vals, vecs = np.linalg.eigh(Sigma)
        y = rng_b.standard_normal((m, n)) @ (vecs @ np.diag(np.sqrt(vals - r0sq)) @ vecs.T)
        b = ref_sample_dgauss_at_centers(y, r0sq, rng_b)
        assert np.array_equal(a, b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @staticmethod
    def count_ratio_points(monkeypatch):
        seen = []
        pmf = dgauss._rounded_gaussian_pmf

        def spy(u, sigma):
            seen.append(np.size(u))
            return pmf(u, sigma)

        monkeypatch.setattr(dgauss, "_rounded_gaussian_pmf", spy)
        return seen

    def test_ratio_evaluated_for_few_proposals(self, monkeypatch):
        # dim V = 1, so the draw goes through the offset sampler at real centers
        n, m = 128, 2000
        V = OrthonormalBasis(n, [np.eye(n)[0]])
        spec = dgauss.SubspaceGaussianSpec(n, V, 8.0 * dgauss.smoothing_r0sq(n))
        dgauss.sample_subspace_query(spec, "discrete", derive(6, "warm"), size=1)
        seen = self.count_ratio_points(monkeypatch)
        dgauss.sample_subspace_query(spec, "discrete", derive(6, "spy"), size=m)
        assert sum(seen) < 0.01 * m * n

    def test_wide_band_goes_through_exact_ratio(self, monkeypatch):
        # buckets 10 sigma wide leave lo[0] ~ 0.81 against hi[0] ~ 0.95, so
        # a seventh of the proposals is decided by the ratio itself
        s2 = 24.65
        c_env, _, _ = dgauss._offset_envelope(s2)
        envelope = (c_env, 1e4 * math.sqrt(s2), 0.0)
        centers = np.random.default_rng(21).uniform(-100.0, 100.0, (200, 64))
        dgauss._squeeze_buckets(s2, c_env, envelope[1])  # cached before the spy
        seen = self.count_ratio_points(monkeypatch)
        rng_a, rng_b = derive(5, "pin-band"), derive(5, "pin-band")
        a = dgauss._sample_at_centers(centers, s2, envelope, rng_a)
        monkeypatch.undo()
        b = ref_sample_dgauss_at_centers(centers, s2, rng_b, envelope=envelope[:2])
        assert sum(seen) > 0.05 * centers.size
        assert np.array_equal(a, b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestEllipsoidal:
    def test_isotropic_per_coordinate_gof(self):
        n, s2 = 16, 1e4
        rng = derive(22, "ell")
        z = dgauss.sample_dgauss_ellipsoidal(s2 * np.eye(n), rng, size=100_000 // n)
        pooled = z.ravel()  # coordinates iid under isotropic covariance
        assert gof_pvalue(pooled, s2, 300) > 0.001

    def test_variance_too_small(self):
        with pytest.raises(VarianceTooSmall):
            dgauss.sample_dgauss_ellipsoidal(np.eye(8), derive(0, "v"), size=4)

    def test_subspace_covariance_structure(self):
        n, s2 = 16, 1e4
        rng = derive(22, "cov")
        V = OrthonormalBasis(n, [np.eye(n)[0], np.eye(n)[1]])
        spec = dgauss.SubspaceGaussianSpec(n, V, s2)
        assert spec.eigenvalue_check()
        X = dgauss.sample_subspace_query(spec, "discrete", rng, size=100_000)
        v_in = float(np.var(X[:, 0]))
        v_out = float(np.var(X[:, 5]))
        assert abs(v_in - s2 / 4) <= 0.05 * (s2 / 4)
        assert abs(v_out - s2) <= 0.05 * s2


class TestSubspaceQuery:
    def test_empty_subspace_is_the_product_sampler(self):
        n, m = 128, 500
        spec = dgauss.SubspaceGaussianSpec(n, OrthonormalBasis.empty(n),
                                           8.0 * dgauss.smoothing_r0sq(n))
        rng_a, rng_b = derive(24, "prod"), derive(24, "prod")
        a = dgauss.sample_subspace_query(spec, "discrete", rng_a, size=m)
        b = dgauss.sample_dgauss_1d(spec.sigma2, rng_b, size=(m, n))
        assert np.array_equal(a, b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        one = dgauss.sample_subspace_query(spec, "discrete", derive(24, "one"))
        assert np.array_equal(one, dgauss.sample_dgauss_1d(spec.sigma2, derive(24, "one"),
                                                           size=(1, n))[0])

    def test_empty_subspace_is_isotropic(self):
        n, s2 = 8, 400.0
        spec = dgauss.SubspaceGaussianSpec(n, OrthonormalBasis.empty(n), s2)
        X = dgauss.sample_subspace_query(spec, "discrete", derive(23, "iso"),
                                         size=200_000 // n)
        assert gof_pvalue(X.ravel(), s2, 70) > 0.001
        # attack scale: n = 128 at the grid's smallest variance 8 r0^2
        n = 128
        s2 = 8.0 * dgauss.smoothing_r0sq(n)
        spec = dgauss.SubspaceGaussianSpec(n, OrthonormalBasis.empty(n), s2)
        X = dgauss.sample_subspace_query(spec, "discrete", derive(24, "gof"), size=4000)
        assert gof_pvalue(X.ravel(), s2, int(5 * math.sqrt(s2))) > 0.001

    def test_continuous_full_projection_kill(self):
        n, s2 = 6, 900.0
        V = OrthonormalBasis(n, list(np.eye(n)))
        spec = dgauss.SubspaceGaussianSpec(n, V, s2)
        X = dgauss.sample_subspace_query(spec, "continuous", derive(23, "kill"),
                                         size=50_000)
        # P_perp kills g1 entirely: covariance sigma^2/4 I
        v = np.var(X, axis=0)
        assert np.all(np.abs(v - s2 / 4) <= 0.06 * s2 / 4)

    def test_discrete_tail_bound(self):
        n, s2 = 16, 1e4
        spec = dgauss.SubspaceGaussianSpec(n, OrthonormalBasis.empty(n), s2)
        X = dgauss.sample_subspace_query(spec, "discrete", derive(23, "tail"),
                                         size=100_000)
        assert int(np.max(np.abs(X))) <= 12 * math.sqrt(s2)

    def test_smoothing_floor_guard(self):
        n = 16
        spec = dgauss.SubspaceGaussianSpec(n, OrthonormalBasis.empty(n), 10.0)
        with pytest.raises(VarianceTooSmall):
            dgauss.sample_subspace_query(spec, "discrete", derive(23, "floor"))

    def test_integer_output(self):
        n, s2 = 8, 1e4
        spec = dgauss.SubspaceGaussianSpec(n, OrthonormalBasis.empty(n), s2)
        X = dgauss.sample_subspace_query(spec, "discrete", derive(23, "int"), size=10)
        assert np.issubdtype(X.dtype, np.integer)
