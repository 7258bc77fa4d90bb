import math

import numpy as np
import pytest
from scipy.stats import chisquare, norm

from oracles import ref_centered_envelope
from sketchlab import dgauss
from sketchlab.errors import NonPositiveVariance, VarianceTooSmall
from sketchlab.numerics import OrthonormalBasis
from sketchlab.rng import derive

# Every chi-square check below passes above this p-value. The samplers are
# exact, so under the target law each p-value is uniform on [0, 1]. The sample
# sizes of the rejection-loop checks are set so that a loop which thins its
# candidates at half the rate, or does not rescale a candidate's uniform into
# [squeeze, 1), gives p-values many orders below it.
GOF_FLOOR = 1e-3


def gof_pvalue(samples, sigma2, support_radius, center=0.0, width=1):
    """Chi-square goodness of fit of integer samples against D(center,
    sigma^2) on Z, over cells of `width` consecutive integers from
    round(center) - support_radius to at least round(center) +
    support_radius; both tails pooled into one bucket, sparse cells
    (expected < 5) dropped."""
    samples = np.asarray(samples).ravel()
    first = int(round(center)) - support_radius
    cells = -(-(2 * support_radius + 1) // width)
    zs = np.arange(first, first + cells * width)
    pmf = dgauss.pmf_dgauss_1d(zs - center, sigma2).reshape(cells, width).sum(axis=1)
    idx = samples - first
    inside = (idx >= 0) & (idx < zs.size)
    counts = np.bincount(idx[inside] // width, minlength=cells).astype(float)
    tail_count = samples.size - np.count_nonzero(inside)
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
        assert gof_pvalue(x, 25.0, 30) > GOF_FLOOR

    def test_gof_table_branch(self):
        rng = derive(21, "gof-small")
        x = dgauss.sample_dgauss_1d(2.5, rng, size=500_000)
        assert gof_pvalue(x, 2.5, 8) > GOF_FLOOR

    def test_seed_determinism(self):
        a = dgauss.sample_dgauss_1d(50.0, derive(5, "det"), size=1000)
        b = dgauss.sample_dgauss_1d(50.0, derive(5, "det"), size=1000)
        assert np.array_equal(a, b)


PINNED_SIGMA2 = (4.0, 24.65, 50.0, 1e4, 1e8)
R0SQ_128 = dgauss.smoothing_r0sq(128)  # the attack's convolution variance at n = 128
OFFSETS = (0.0, 0.3, 0.5, -0.5, 7.77)


def _centered_envelope(s2):
    """The envelope sample_dgauss_1d uses: support ceil(12 sigma) + 1."""
    return dgauss._envelope(s2, int(math.ceil(dgauss.TAIL_SIGMAS * math.sqrt(s2))) + 1)


def _offset_envelope(s2):
    """The envelope the convolution step uses: support 8 sigma."""
    return dgauss._envelope(s2, dgauss.OFFSET_SIGMAS * math.sqrt(s2))


def _ratio(u, s2, c_env):
    """min(w/(c_env q), 1) written out."""
    w = np.exp(-u * u / (2.0 * s2))
    q = dgauss._rounded_gaussian_pmf(u, math.sqrt(s2))
    return np.minimum(w / (c_env * q), 1.0)


class _Recorder:
    """A generator that records what the rejection loop draws from it: each
    batch of normals, one per proposal, and the number of uniforms, one per
    candidate."""

    def __init__(self, rng):
        self.rng, self.normals, self.uniforms = rng, [], 0

    def standard_normal(self, k):
        x = self.rng.standard_normal(k)
        self.normals.append(x.copy())
        return x

    def geometric(self, p, m):
        return self.rng.geometric(p, m)

    def random(self, k):
        self.uniforms += k
        return self.rng.random(k)


def _run_at_center(s2, envelope, center, m, rng):
    """(samples, proposals) of m draws at one real center; with one center a
    proposal is round(center + sigma g) for every normal g drawn, with the
    loop's own floating-point steps."""
    rec = _Recorder(rng)
    out = dgauss._sample_at_centers(np.full(m, center), s2, envelope, rec)
    g = np.concatenate(rec.normals)
    g *= math.sqrt(s2)
    g += center
    return out, np.rint(g).astype(np.int64), rec


def _assert_acceptance_is_ratio(s2, envelope, center, m, rng):
    """At each integer z with 1,000 or more proposals, the fraction of them
    accepted is within 5 binomial standard errors of ratio(z - center), or 0
    beyond the support bound."""
    out, prop, _ = _run_at_center(s2, envelope, center, m, rng)
    first = int(min(prop.min(), out.min()))
    proposed = np.bincount(prop - first)
    accepted = np.bincount(out - first, minlength=proposed.size)
    au = np.abs(np.arange(first, first + proposed.size) - center)
    ratio = np.where(au <= envelope[1], _ratio(au, s2, envelope[0]), 0.0)
    seen = proposed >= 1000
    N, r = proposed[seen], ratio[seen]
    se = np.sqrt(np.maximum(r * (1.0 - r), 1.0 / N) / N)
    assert np.all(np.abs(accepted[seen] / N - r) <= 5.0 * se)
    assert seen.sum() >= 10


class TestRejectionBits:
    """The accept/reject decisions of the one rejection loop: its samples
    follow the target law at the centered and real-offset variances, a
    proposal is a candidate with probability 1 - squeeze, each proposal is
    accepted with probability ratio(u) whatever the squeeze, the support
    bound rejects, and the envelope constants are exact."""

    @pytest.mark.parametrize("s2", PINNED_SIGMA2)
    def test_centered_matches_reference(self, s2):
        # in law: chi-square against the reference pmf D(0, sigma^2)
        x = dgauss.sample_dgauss_1d(s2, derive(0, "law", str(s2)), size=(500, 1000))
        width = max(1, int(math.sqrt(s2)) // 10)
        assert gof_pvalue(x, s2, 5 * int(math.sqrt(s2)), width=width) > GOF_FLOOR
        one = dgauss.sample_dgauss_1d(s2, derive(9, "pin-one"))
        assert isinstance(one, int)

    @pytest.mark.parametrize("s2", PINNED_SIGMA2 + (R0SQ_128,))
    def test_offset_matches_reference(self, s2):
        # in law: chi-square against the reference pmf D(c, sigma^2) at real
        # centers c; at r0^2(128) one proposal in ten is a candidate
        envelope = _offset_envelope(s2)
        width = max(1, int(math.sqrt(s2)) // 10)
        for c in OFFSETS:
            x = dgauss._sample_at_centers(np.full(200_000, c), s2, envelope,
                                          derive(1, "law-off", str(s2), str(c)))
            assert gof_pvalue(x, s2, 5 * int(math.sqrt(s2)), center=c,
                              width=width) > GOF_FLOOR

    def test_support_bound_applies_before_squeeze(self):
        # a support bound of 1.5 sigma rejects ~13% of proposals outright;
        # none of them may slip through the squeeze, and what is accepted
        # follows the target law cut at the bound
        s2, c = 24.65, 0.3
        sigma = math.sqrt(s2)
        c_env = _offset_envelope(s2)[0]
        bound = 1.5 * sigma
        envelope = (c_env, bound, float(_ratio(bound, s2, c_env)) * (1.0 - 1e-9))
        centers = np.random.default_rng(18).uniform(-100.0, 100.0, (100, 64))
        a = dgauss._sample_at_centers(centers, s2, envelope, derive(3, "pin-bound"))
        assert np.all(np.abs(a - centers) <= bound)
        out, prop, _ = _run_at_center(s2, envelope, c, 200_000, derive(4, "pin-bound"))
        assert np.mean(np.abs(prop - c) > bound) > 0.1
        zs = np.arange(math.ceil(c - bound), math.floor(c + bound) + 1)
        probs = dgauss.pmf_dgauss_1d(zs - c, s2)
        counts = np.bincount(out - zs[0], minlength=zs.size)
        assert counts.size == zs.size
        res = chisquare(counts, f_exp=probs / probs.sum() * out.size)
        assert res.pvalue > GOF_FLOOR

    @pytest.mark.parametrize("squeeze", ("forced-0", "envelope"))
    @pytest.mark.parametrize("s2", (4.0, R0SQ_128))
    def test_accepted_fraction_is_ratio(self, s2, squeeze):
        # at sigma^2 = 4 the ratio falls from 1 to 0.28 over the support
        envelope = _offset_envelope(s2)
        if squeeze == "forced-0":
            envelope = envelope[:2] + (0.0,)
        _assert_acceptance_is_ratio(s2, envelope, 0.3, 500_000,
                                    derive(5, "frac", str(s2), squeeze))

    @pytest.mark.parametrize("s2", (4.0, 24.65, R0SQ_128, 8.0 * R0SQ_128, 1e4))
    def test_candidates_are_bernoulli_p(self, s2):
        # one uniform per candidate; the candidates of k proposals number
        # k p within 5 standard errors, p = 1 - squeeze
        for envelope, centers in ((_centered_envelope(s2), None),
                                  (_offset_envelope(s2), np.full(200_000, 0.3))):
            rec = _Recorder(derive(6, "cand", str(s2)))
            dgauss._sample_at_centers(centers, s2, envelope, rec, shape=(200_000,))
            k = sum(g.size for g in rec.normals)
            p = 1.0 - envelope[2]
            assert abs(rec.uniforms - k * p) <= 5.0 * math.sqrt(k * p * (1.0 - p))

    @pytest.mark.parametrize("s2", PINNED_SIGMA2 + (2.5e6,))
    def test_envelope_constants_unchanged(self, s2):
        # the centered c_env = 1/q(0) (1 + 1e-9) is the old full or
        # subsampled scan's maximum; above 1e4 the scan's maximum sits a
        # rounding error of q (< 2e-12 relative) above 1/q(0), at some z != 0
        c_env, K, _ = _centered_envelope(s2)
        ref_c_env, ref_K = ref_centered_envelope(s2)
        assert K == ref_K
        if s2 <= 1e4:
            assert c_env == ref_c_env
        assert abs(c_env / ref_c_env - 1.0) < 2e-12

    @pytest.mark.parametrize("s2", PINNED_SIGMA2 + (2.5e6,))
    def test_centered_squeeze_bounds_ratio_on_support(self, s2):
        c_env, K, squeeze = _centered_envelope(s2)
        z = np.arange(0, K + 1, dtype=float)
        w = np.exp(-z * z / (2.0 * s2))
        q = dgauss._rounded_gaussian_pmf(z, math.sqrt(s2))
        ratio = w / (c_env * q)
        assert 0.0 < squeeze <= float(np.min(ratio))
        assert float(np.max(ratio)) < 1.0

    @pytest.mark.parametrize("n", (8, 64, 128, 256, 4096))
    def test_offset_squeeze_bounds_ratio_on_grid(self, n):
        for s2 in (dgauss.smoothing_r0sq(n), 50.0, 1e4):
            c_env, lim, squeeze = _offset_envelope(s2)
            u = np.linspace(0.0, lim, 200_001)
            w = np.exp(-u * u / (2.0 * s2))
            q = dgauss._rounded_gaussian_pmf(u, math.sqrt(s2))
            ratio = w / (c_env * q)
            assert 0.0 < squeeze <= float(np.min(ratio))
            assert float(np.max(ratio)) < 1.0  # c_env is an envelope

    def test_ratio_falls_with_distance(self):
        # the squeeze rests on w/q decreasing in |u|
        for s2 in (4.0, 24.65, 1e4):
            u = np.linspace(0.0, 8.0 * math.sqrt(s2), 5000)
            w = np.exp(-u * u / (2.0 * s2))
            q = dgauss._rounded_gaussian_pmf(u, math.sqrt(s2))
            ratio = w / q
            assert np.all(np.diff(ratio) <= 1e-12 * ratio[:-1])


class TestTwoSidedSqueeze:
    """The bucketed squeeze brackets the acceptance ratio in every bucket,
    so it decides as the plain ratio test does; the samplers built on it are
    seeded; and it leaves almost no proposal to the exact ratio."""

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
        envelope = _centered_envelope(s2)
        self.assert_brackets(s2, envelope, np.arange(0, envelope[1] + 1, dtype=float))

    @pytest.mark.parametrize("n", (8, 64, 128, 256, 4096))
    def test_buckets_bracket_offset_ratio(self, n):
        s2 = dgauss.smoothing_r0sq(n)
        envelope = _offset_envelope(s2)
        # 64 intervals in each bucket, both edges included
        u = np.linspace(0.0, envelope[1], 64 * dgauss.SQUEEZE_BUCKETS + 1)
        self.assert_brackets(s2, envelope, u)

    def test_buckets_bracket_ratio_under_cut_support(self):
        s2 = 24.65
        sigma = math.sqrt(s2)
        c_env = _offset_envelope(s2)[0]
        bound = 1.5 * sigma
        squeeze = float(_ratio(bound, s2, c_env)) * (1.0 - 1e-9)
        u = np.linspace(0.0, bound, 64 * dgauss.SQUEEZE_BUCKETS + 1)
        self.assert_brackets(s2, (c_env, bound, squeeze), u)

    @staticmethod
    def assert_seeded(draw):
        """draw(rng) gives the same samples and leaves the generator in the
        same state at one seed, and other samples at another."""
        rng_a, rng_b = derive(4, "seeded"), derive(4, "seeded")
        a, b = draw(rng_a), draw(rng_b)
        assert np.array_equal(a, b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert not np.array_equal(a, draw(derive(5, "seeded")))

    @pytest.mark.parametrize("k", (0, 8))
    def test_subspace_query_is_seeded(self, k):
        n, m = 128, 500
        basis = np.linalg.qr(np.random.default_rng(19).standard_normal((n, 8)))[0].T
        V = OrthonormalBasis(n, list(basis[:k])) if k else OrthonormalBasis.empty(n)
        for s2 in (8.0 * dgauss.smoothing_r0sq(n), 1e4):
            spec = dgauss.SubspaceGaussianSpec(n, V, s2)
            self.assert_seeded(lambda rng: dgauss.sample_subspace_query(
                spec, "discrete", rng, size=m))

    def test_ellipsoidal_is_seeded(self):
        n = 16
        Sigma = np.diag(np.linspace(60.0, 900.0, n))
        Q = np.linalg.qr(np.random.default_rng(20).standard_normal((n, n)))[0]
        Sigma = Q @ Sigma @ Q.T
        self.assert_seeded(lambda rng: dgauss.sample_dgauss_ellipsoidal(Sigma, rng, size=3000))

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
        # buckets 10 sigma wide leave lo[0] ~ 0.81 against hi[0] ~ 1, so
        # a seventh of the proposals is decided by the ratio itself, and
        # accepted with probability the ratio
        s2 = 24.65
        c_env = _offset_envelope(s2)[0]
        envelope = (c_env, 1e4 * math.sqrt(s2), 0.0)
        centers = np.random.default_rng(21).uniform(-100.0, 100.0, (200, 64))
        dgauss._squeeze_buckets(s2, c_env, envelope[1])  # cached before the spy
        seen = self.count_ratio_points(monkeypatch)
        dgauss._sample_at_centers(centers, s2, envelope, derive(5, "pin-band"))
        monkeypatch.undo()
        assert sum(seen) > 0.05 * centers.size
        _assert_acceptance_is_ratio(s2, envelope, -0.5, 300_000, derive(6, "pin-band"))


class TestSmoothingSigma2:
    """One formula behind r0^2, the convolution floor 2 r0^2, the sampling
    floor 8 r0^2 and the alpha policy's lattice term; its power-of-two
    scalings hold exactly in floating point."""

    def test_scalings_are_exact(self):
        for n in range(8, 1025):
            log_term = math.log(2 * n * (1 + 1 / dgauss.SMOOTHING_EPS))
            r0sq = dgauss.smoothing_r0sq(n)
            assert r0sq == dgauss.smoothing_sigma2(n, 4) == 4.0 * log_term / math.pi
            assert dgauss.smoothing_sigma2(n, 8) == 2 * r0sq
            assert dgauss.smoothing_sigma2(n, dgauss.SAMPLING_FLOOR_ELL_SQ) == 8 * r0sq
            for ell in (1.0, math.sqrt(31), math.sqrt(32), 17.3):
                assert dgauss.smoothing_sigma2(n, ell**2) == ell**2 * log_term / math.pi

    @pytest.mark.parametrize("n", [8, 128, 1024])
    def test_floor_guard_at_the_boundary(self, n):
        # sigma^2 < 8 r0^2 exactly when sigma^2/4 < 2 r0^2
        floor = dgauss.smoothing_sigma2(n, dgauss.SAMPLING_FLOOR_ELL_SQ)
        below = math.nextafter(floor, 0.0)
        assert below / 4.0 < 2.0 * dgauss.smoothing_r0sq(n) <= floor / 4.0
        empty = OrthonormalBasis.empty(n)
        dgauss.sample_subspace_query(dgauss.SubspaceGaussianSpec(n, empty, floor),
                                     "discrete", derive(25, "at"))
        with pytest.raises(VarianceTooSmall):
            dgauss.sample_subspace_query(dgauss.SubspaceGaussianSpec(n, empty, below),
                                         "discrete", derive(25, "below"))


class TestEllipsoidal:
    def test_isotropic_per_coordinate_gof(self):
        n, s2 = 16, 1e4
        rng = derive(22, "ell")
        z = dgauss.sample_dgauss_ellipsoidal(s2 * np.eye(n), rng, size=100_000 // n)
        pooled = z.ravel()  # coordinates iid under isotropic covariance
        assert gof_pvalue(pooled, s2, 300) > GOF_FLOOR

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
        assert gof_pvalue(X.ravel(), s2, 70) > GOF_FLOOR
        # attack scale: n = 128 at the grid's smallest variance 8 r0^2
        n = 128
        s2 = 8.0 * dgauss.smoothing_r0sq(n)
        spec = dgauss.SubspaceGaussianSpec(n, OrthonormalBasis.empty(n), s2)
        X = dgauss.sample_subspace_query(spec, "discrete", derive(24, "gof"), size=4000)
        assert gof_pvalue(X.ravel(), s2, int(5 * math.sqrt(s2))) > GOF_FLOOR

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
