import hashlib
import math
import os
import select
import sys
import warnings

import numpy as np
import pytest
from scipy.stats import chisquare, norm

from oracles import (
    _ref_rounded_gaussian_pmf,
    ref_centered_envelope,
    ref_partition_1d,
    ref_sample_at_centers,
)
from sketchlab import dgauss
from sketchlab.errors import NonPositiveVariance, VarianceTooLarge, VarianceTooSmall
from sketchlab.numerics import OrthonormalBasis
from sketchlab.rng import children, derive

# Every chi-square check below passes above this p-value. The samplers are
# exact, so under the target law each p-value is uniform on [0, 1]. The sample
# sizes of the rejection-loop checks are set so that a loop which thins its
# candidates at half the rate, or does not rescale a candidate's uniform into
# [squeeze, 1), gives p-values many orders below it.
GOF_FLOOR = 1e-3


def assert_same_state(rng_a, rng_b):
    """Two generators are at the same point of their stream: equal scalar
    fields and equal state arrays (SFC64 holds its state in an array)."""
    a, b = rng_a.bit_generator.state, rng_b.bit_generator.state
    assert a.keys() == b.keys() and a["state"].keys() == b["state"].keys()
    for key in a:
        if key != "state":
            assert a[key] == b[key], key
    for key, value in a["state"].items():
        assert np.array_equal(value, b["state"][key]), key


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

    @pytest.mark.parametrize("s2", (0.3, 1.0, 4.0, 24.65, 1e4, 1e8, 1e12, 1e16))
    def test_partition_matches_mpmath(self, s2):
        # below 1 the direct sum, from 1 up the Poisson form: within two
        # ulps of mpmath's theta function either way
        want = ref_partition_1d(s2)
        assert abs(dgauss.partition_1d(s2) - want) <= 4.5e-16 * want
        assert dgauss.pmf_dgauss_1d(0, s2) == 1.0 / dgauss.partition_1d(s2)

    def test_partition_memory_does_not_grow_with_sigma(self, traced_peak):
        p, peak = traced_peak(dgauss.pmf_dgauss_1d, 0, 1e16)
        assert p == pytest.approx(1.0 / math.sqrt(2e16 * math.pi), rel=1e-15)
        assert peak < 2**20

    def test_normalization_fact_bracket(self):
        for s2 in (0.5, 1.0, 4.0, 100.0, 1e6):
            rep = dgauss.verify_normalization_fact(s2)
            assert rep["ok"], rep

    @pytest.mark.parametrize("s2", [math.nextafter(1e8, math.inf), 1e10, math.inf])
    def test_normalization_fact_refuses_what_it_cannot_check(self, s2):
        # past the ceiling the mpmath sum's own rounding would fail a true
        # bound (a false FAIL at 1e9), and inf has no sum at all; nothing is
        # summed before the refusal
        with pytest.raises(VarianceTooLarge, match="above the normalization ceiling 1e"):
            dgauss.verify_normalization_fact(s2)

    def test_nonpositive_variance(self):
        with pytest.raises(NonPositiveVariance):
            dgauss.pmf_dgauss_1d(0, 0.0)
        # NaN is not positive either
        for s2 in (-1.0, math.nan):
            with pytest.raises(NonPositiveVariance):
                dgauss.sample_dgauss_1d(s2, derive(0, "x"))
        with pytest.raises(NonPositiveVariance):
            dgauss.SubspaceGaussianSpec(2, OrthonormalBasis(2, []), math.nan)


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

    def test_gof_small_variance(self):
        # below sigma^2 = 4 the draws come from the same rejection loop
        for s2, radius in ((0.3, 4), (2.5, 8)):
            rng = derive(21, "gof-small", str(s2))
            x = dgauss.sample_dgauss_1d(s2, rng, size=500_000)
            assert gof_pvalue(x, s2, radius) > GOF_FLOOR, s2

    def test_seed_determinism(self):
        a = dgauss.sample_dgauss_1d(50.0, derive(5, "det"), size=1000)
        b = dgauss.sample_dgauss_1d(50.0, derive(5, "det"), size=1000)
        assert np.array_equal(a, b)


class TestCeiling:
    """Up to MAX_SIGMA2 the proposal's pmf, a difference of float64 tails,
    keeps its relative precision; above it every sampler refuses."""

    def test_pmf_precision_at_the_ceiling(self):
        import mpmath as mp

        sigma = math.sqrt(dgauss.MAX_SIGMA2)
        with mp.workdps(40):
            for k in np.linspace(0.0, dgauss.OFFSET_SIGMAS, 17):
                u = float(round(k * sigma))
                exact = (mp.erfc((u - 0.5) / (sigma * mp.sqrt(2)))
                         - mp.erfc((u + 0.5) / (sigma * mp.sqrt(2)))) / 2
                got = float(dgauss._rounded_gaussian_pmf(u, sigma))
                assert abs(got / float(exact) - 1.0) <= 5e-7, k

    @pytest.mark.parametrize("s2", (1e10, 1e12, 1e13, dgauss.MAX_SIGMA2))
    def test_margin_covers_pmf_error(self, s2):
        # against the exact pmf, at 41 offsets over each support: c_env q
        # bounds w, the squeeze and each bucket's lo stay below the ratio
        # w/(c_env q) and hi above it; a fixed 1e-9 margin fails from 1e12 up
        import mpmath as mp

        with mp.workdps(40):
            root2s = mp.sqrt(2 * mp.mpf(s2))
            for env in (dgauss._envelope(s2), _offset_envelope(s2)):
                us = np.append(np.round(np.linspace(0.0, env.bound, 41)[:-1]), env.bound)
                for u in map(mp.mpf, us):
                    w = mp.exp(-u * u / (2 * mp.mpf(s2)))
                    q = (mp.erfc((u - 0.5) / root2s) - mp.erfc((u + 0.5) / root2s)) / 2
                    cq = env.c_env * q
                    j = int(u * env.scale)
                    assert cq >= w, u
                    assert env.squeeze * cq <= w and env.lo[j] * cq <= w, u
                    assert w <= env.hi[j] * cq, u

    def test_draws_at_the_ceiling(self):
        x = dgauss.sample_dgauss_1d(dgauss.MAX_SIGMA2, derive(21, "ceil"), size=20_000)
        assert abs(float(x.std()) / math.sqrt(dgauss.MAX_SIGMA2) - 1.0) <= 0.03

    def test_above_the_ceiling_raises(self):
        above = math.nextafter(dgauss.MAX_SIGMA2, math.inf)
        # inf is refused before the support's bound is computed from it
        for s2 in (above, 1e32, math.inf):
            with pytest.raises(VarianceTooLarge):
                dgauss.sample_dgauss_1d(s2, derive(21, "above"))
        # a subspace query with V != {} rounds at sigma^2/4
        spec = dgauss.SubspaceGaussianSpec(2, OrthonormalBasis(2, [np.eye(2)[0]]), 4.0 * above)
        with pytest.raises(VarianceTooLarge):
            dgauss.sample_subspace_query(spec, "discrete", derive(21, "above"))


def r0sq(n):
    """Smoothing margin r0^2 of the lattice Z at dimension n."""
    return dgauss.smoothing_sigma2(n, 4)


PINNED_SIGMA2 = (4.0, 24.65, 50.0, 1e4, 1e8)
R0SQ_128 = r0sq(128)  # the smoothing margin at n = 128
OFFSETS = (0.0, 0.3, 0.5, -0.5, 7.77)


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
    block of normals, one per proposal, whether returned or written into
    `out`, and the number of uniforms, one per candidate."""

    def __init__(self, rng):
        self.rng, self.normals, self.uniforms = rng, [], 0

    def standard_normal(self, size=None, out=None):
        x = self.rng.standard_normal(size, out=out)
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
        envelope = dgauss._envelope(s2, 1.5 * math.sqrt(s2))
        bound = envelope[1]
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
            envelope = envelope._replace(squeeze=0.0)
        _assert_acceptance_is_ratio(s2, envelope, 0.3, 500_000,
                                    derive(5, "frac", str(s2), squeeze))

    @pytest.mark.parametrize("s2", (4.0, 24.65, R0SQ_128, 8.0 * R0SQ_128, 1e4))
    def test_candidates_are_bernoulli_p(self, s2):
        # one uniform per candidate; the candidates of k proposals number
        # k p within 5 standard errors, p = 1 - squeeze
        for envelope, centers in ((dgauss._envelope(s2), None),
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
        c_env, K, *_ = dgauss._envelope(s2)
        ref_c_env, ref_K = ref_centered_envelope(s2)
        assert K == ref_K
        if s2 <= 1e4:
            assert c_env == ref_c_env
        assert abs(c_env / ref_c_env - 1.0) < 2e-12

    @pytest.mark.parametrize("s2", PINNED_SIGMA2 + (R0SQ_128, 2.5e6))
    def test_erfc_tails_match_ndtr(self, s2):
        # the math.erfc tails against scipy's ndtr: q(0), and so c_env, is
        # bit-equal; over both squeeze grids every point agrees within 1e-10
        # relative, inside the buckets' 1e-9 slack
        sigma = math.sqrt(s2)
        assert (float(dgauss._rounded_gaussian_pmf(0.0, sigma))
                == float(_ref_rounded_gaussian_pmf(0.0, sigma)))
        for c_env, bound, *_ in (dgauss._envelope(s2), _offset_envelope(s2)):
            assert c_env == 1.0 / float(_ref_rounded_gaussian_pmf(0.0, sigma)) * (1.0 + 1e-9)
            u = np.linspace(0.0, bound, dgauss.SQUEEZE_BUCKETS + 1)
            q, ref = dgauss._rounded_gaussian_pmf(u, sigma), _ref_rounded_gaussian_pmf(u, sigma)
            assert np.all(ref > 0.0)
            assert np.max(np.abs(q / ref - 1.0)) <= 1e-10

    @pytest.mark.parametrize("s2", PINNED_SIGMA2 + (2.5e6,))
    def test_centered_squeeze_bounds_ratio_on_support(self, s2):
        c_env, K, squeeze, *_ = dgauss._envelope(s2)
        z = np.arange(0, K + 1, dtype=float)
        w = np.exp(-z * z / (2.0 * s2))
        q = dgauss._rounded_gaussian_pmf(z, math.sqrt(s2))
        ratio = w / (c_env * q)
        assert 0.0 < squeeze <= float(np.min(ratio))
        assert float(np.max(ratio)) < 1.0

    @pytest.mark.parametrize("n", (8, 64, 128, 256, 4096))
    def test_offset_squeeze_bounds_ratio_on_grid(self, n):
        # 2 r0^2 and 128 r0^2 are the ends of the rounding variance sigma^2/4
        # over a B = 64 grid
        for s2 in (r0sq(n), 2.0 * r0sq(n), 128.0 * r0sq(n), 50.0, 1e4):
            c_env, lim, squeeze, *_ = _offset_envelope(s2)
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


BLOCK_EDGE_SIZES = (1, dgauss._BLOCK - 1, dgauss._BLOCK, dgauss._BLOCK + 1,
                    3 * dgauss._BLOCK + 7)


class TestBlockStream:
    """The rejection loop streams each pass's normals through one buffer of
    _BLOCK floats. At sizes on both sides of the block edges, centered and
    at real centers, it gives the samples of the whole-batch loop it
    replaced and leaves the generator in the same state."""

    @staticmethod
    def assert_same_as_reference(centers, s2, envelope, k, *path):
        rng_new, rng_ref = derive(30, *path), derive(30, *path)
        a = dgauss._sample_at_centers(centers, s2, envelope, rng_new, shape=(k,))
        b = ref_sample_at_centers(centers, s2, envelope, rng_ref, shape=(k,))
        assert np.array_equal(a, b)
        assert_same_state(rng_new, rng_ref)

    @pytest.mark.parametrize("kind", ("centered", "at-centers"))
    @pytest.mark.parametrize("s2", (0.3, 2.5, 400.0, 1e8))
    @pytest.mark.parametrize("k", BLOCK_EDGE_SIZES)
    def test_matches_whole_batch_loop(self, k, s2, kind):
        # the re-passes re-draw entries scattered over every block of the
        # first pass
        if kind == "centered":
            envelope, centers = dgauss._envelope(s2), None
        else:
            envelope = _offset_envelope(s2)
            centers = np.random.default_rng(31).uniform(-100.0, 100.0, k)
        self.assert_same_as_reference(centers, s2, envelope, k, "stream", kind, str(s2), str(k))

    @pytest.mark.parametrize("sigmas", (1.5, 0.5))
    @pytest.mark.parametrize("k", BLOCK_EDGE_SIZES)
    def test_matches_under_narrow_bound(self, k, sigmas):
        # the envelope of test_support_bound_applies_before_squeeze, so
        # beyond-bound rejections fall in every block; a bound of 0.5 sigma
        # rejects ~62 % of proposals outright, so the second pass of the
        # largest size spans blocks of its own
        s2 = 24.65
        envelope = dgauss._envelope(s2, sigmas * math.sqrt(s2))
        centers = np.random.default_rng(18).uniform(-100.0, 100.0, k)
        self.assert_same_as_reference(centers, s2, envelope, k, "narrow", str(sigmas), str(k))
        if k == 3 * dgauss._BLOCK + 7 and sigmas == 0.5:
            rec = _Recorder(derive(30, "narrow", str(sigmas), str(k)))
            ref_sample_at_centers(centers, s2, envelope, rec, shape=(k,))
            assert rec.normals[1].size > dgauss._BLOCK


MB = 2**20


class TestBatchMemory:
    """A 10,000 x 256 batch, what `attack verify` draws at n = 256: the output
    is the only batch-sized array a draw holds, with the centers beside it
    for V != {}. Besides them the loop holds one block of normals and a few
    arrays over the candidates, k p of them (p = 1 - squeeze of the envelope
    used). Those fit in 1 MB at the attack grid's top variance alpha B (B = 8,
    alpha the sampling floor); p grows as the variance falls, so each check
    also allows 6 words per expected candidate."""

    N, M = 256, 10_000
    FLOOR = dgauss.smoothing_sigma2(256, dgauss.SAMPLING_FLOOR_ELL_SQ)

    @pytest.mark.parametrize("mult", (1, 8), ids=["alpha", "alpha-B"])
    def test_centered_draw_holds_the_output(self, traced_peak, mult):
        s2 = mult * self.FLOOR
        dgauss.sample_dgauss_1d(s2, derive(32, "warm"))  # fill the envelope caches
        X, peak = traced_peak(dgauss.sample_dgauss_1d, s2, derive(32, "mem"),
                              size=(self.M, self.N))
        p = 1.0 - dgauss._envelope(s2)[2]
        assert peak <= X.nbytes + MB + 48 * X.size * p

    @pytest.mark.parametrize("mult", (1, 8), ids=["alpha", "alpha-B"])
    def test_subspace_draw_holds_output_and_centers(self, traced_peak, mult):
        s2 = mult * self.FLOOR
        basis = np.linalg.qr(np.random.default_rng(33).standard_normal((self.N, 4)))[0].T
        spec = dgauss.SubspaceGaussianSpec(self.N, OrthonormalBasis(self.N, list(basis)), s2)
        dgauss.sample_subspace_query(spec, "discrete", derive(33, "warm"))
        X, peak = traced_peak(dgauss.sample_subspace_query, spec, "discrete",
                              derive(33, "mem"), size=self.M)
        p = 1.0 - _offset_envelope(s2 / 4.0)[2]  # rounds at sigma^2 / 4
        assert peak <= 2 * X.nbytes + MB + 48 * X.size * p


class TestTwoSidedSqueeze:
    """The bucketed squeeze brackets the acceptance ratio in every bucket,
    so it decides as the plain ratio test does; the samplers built on it are
    seeded; and it leaves almost no proposal to the exact ratio."""

    @staticmethod
    def assert_brackets(s2, envelope, u):
        c_env, bound, squeeze, lo, hi, scale = envelope
        j = (u * scale).astype(np.intp)
        ratio = _ratio(u, s2, c_env)
        assert squeeze <= float(np.min(lo))
        assert np.all(lo[j] <= ratio)
        assert np.all(ratio <= hi[j])

    @pytest.mark.parametrize("s2", PINNED_SIGMA2 + (2.5e6,))
    def test_buckets_bracket_centered_ratio(self, s2):
        envelope = dgauss._envelope(s2)
        self.assert_brackets(s2, envelope, np.arange(0, envelope[1] + 1, dtype=float))

    @pytest.mark.parametrize("n", (8, 64, 128, 256, 4096))
    def test_buckets_bracket_offset_ratio(self, n):
        for s2 in (r0sq(n), 2.0 * r0sq(n), 128.0 * r0sq(n)):
            envelope = _offset_envelope(s2)
            # 64 intervals in each bucket, both edges included
            u = np.linspace(0.0, envelope[1], 64 * dgauss.SQUEEZE_BUCKETS + 1)
            self.assert_brackets(s2, envelope, u)

    def test_buckets_bracket_ratio_under_cut_support(self):
        s2 = 24.65
        envelope = dgauss._envelope(s2, 1.5 * math.sqrt(s2))
        u = np.linspace(0.0, envelope[1], 64 * dgauss.SQUEEZE_BUCKETS + 1)
        self.assert_brackets(s2, envelope, u)

    @staticmethod
    def assert_seeded(draw):
        """draw(rng) gives the same samples and leaves the generator in the
        same state at one seed, and other samples at another."""
        rng_a, rng_b = derive(4, "seeded"), derive(4, "seeded")
        a, b = draw(rng_a), draw(rng_b)
        assert np.array_equal(a, b)
        assert_same_state(rng_a, rng_b)
        assert not np.array_equal(a, draw(derive(5, "seeded")))

    @pytest.mark.parametrize("k", (0, 8))
    def test_subspace_query_is_seeded(self, k):
        n, m = 128, 500
        basis = np.linalg.qr(np.random.default_rng(19).standard_normal((n, 8)))[0].T
        V = OrthonormalBasis(n, list(basis[:k])) if k else OrthonormalBasis.empty(n)
        for s2 in (8.0 * r0sq(n), 1e4):
            spec = dgauss.SubspaceGaussianSpec(n, V, s2)
            self.assert_seeded(lambda rng: dgauss.sample_subspace_query(
                spec, "discrete", rng, size=m))

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
        spec = dgauss.SubspaceGaussianSpec(n, V, 8.0 * r0sq(n))
        dgauss.sample_subspace_query(spec, "discrete", derive(6, "warm"), size=1)
        seen = self.count_ratio_points(monkeypatch)
        dgauss.sample_subspace_query(spec, "discrete", derive(6, "spy"), size=m)
        assert sum(seen) < 0.01 * m * n

    def test_wide_band_goes_through_exact_ratio(self, monkeypatch):
        # buckets 10 sigma wide leave lo[0] ~ 0.81 against hi[0] ~ 1, so
        # a seventh of the proposals is decided by the ratio itself, and
        # accepted with probability the ratio
        s2 = 24.65
        envelope = dgauss._envelope(s2, 1e4 * math.sqrt(s2))  # cached before the spy
        assert envelope.squeeze == 0.0  # q underflows at the bound
        centers = np.random.default_rng(21).uniform(-100.0, 100.0, (200, 64))
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
            r0 = r0sq(n)
            assert r0 == 4.0 * log_term / math.pi
            assert dgauss.smoothing_sigma2(n, 8) == 2 * r0
            assert dgauss.smoothing_sigma2(n, dgauss.SAMPLING_FLOOR_ELL_SQ) == 8 * r0
            for ell in (1.0, math.sqrt(31), math.sqrt(32), 17.3):
                assert dgauss.smoothing_sigma2(n, ell**2) == ell**2 * log_term / math.pi

    @pytest.mark.parametrize("n", [8, 128, 1024])
    def test_floor_guard_at_the_boundary(self, n):
        # sigma^2 < 8 r0^2 exactly when sigma^2/4 < 2 r0^2
        floor = dgauss.smoothing_sigma2(n, dgauss.SAMPLING_FLOOR_ELL_SQ)
        below = math.nextafter(floor, 0.0)
        assert below / 4.0 < 2.0 * r0sq(n) <= floor / 4.0
        empty = OrthonormalBasis.empty(n)
        dgauss.sample_subspace_query(dgauss.SubspaceGaussianSpec(n, empty, floor),
                                     "discrete", derive(25, "at"))
        with pytest.raises(VarianceTooSmall):
            dgauss.sample_subspace_query(dgauss.SubspaceGaussianSpec(n, empty, below),
                                         "discrete", derive(25, "below"))


class TestEllipsoidal:
    """The subspace family's ellipsoidal covariance (3 sigma^2/4) P_perp
    + (sigma^2/4) I."""

    def test_variance_too_small(self):
        # a non-empty V rounds at sigma^2/4, and the sampling floor is
        # checked before the convolution draws anything
        n = 8
        V = OrthonormalBasis(n, [np.eye(n)[0]])
        floor = dgauss.smoothing_sigma2(n, dgauss.SAMPLING_FLOOR_ELL_SQ)
        spec = dgauss.SubspaceGaussianSpec(n, V, math.nextafter(floor, 0.0))
        with pytest.raises(VarianceTooSmall):
            dgauss.sample_subspace_query(spec, "discrete", derive(0, "v"), size=4)

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


def oblique_pvalue(X, s2, theta, cells=12):
    """Chi-square of 2-D integer samples X against the exact pmf of D(Z^2,
    Sigma_{sigma^2}) for V = (cos theta, sin theta), mass prop. to
    exp(-x^T Sigma^{-1} x / 2), over cells x cells cells cut at the exact
    quantiles of <x, v> and <x, v_perp>."""
    v = np.array([math.cos(theta), math.sin(theta)])
    v_perp = np.array([-v[1], v[0]])
    R = int(math.ceil(dgauss.TAIL_SIGMAS * math.sqrt(s2)))
    axis = np.arange(-R, R + 1)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2).astype(float)
    t, u = pts @ v, pts @ v_perp
    pmf = np.exp(-(4.0 * t * t + u * u) / (2.0 * s2))
    pmf /= pmf.sum()

    def quantile_edges(x):
        order = np.argsort(x)
        cdf = np.cumsum(pmf[order])
        return x[order][np.searchsorted(cdf, np.arange(1, cells) / cells)]

    edges_t, edges_u = quantile_edges(t), quantile_edges(u)

    def cell(Y):
        Y = np.asarray(Y, dtype=float)
        return (np.searchsorted(edges_t, Y @ v, side="right") * cells
                + np.searchsorted(edges_u, Y @ v_perp, side="right"))

    expected = np.bincount(cell(pts), weights=pmf, minlength=cells * cells)
    observed = np.bincount(cell(X), minlength=cells * cells)
    return float(chisquare(observed, expected * len(X)).pvalue)


class TestSubspaceLaw:
    """A V != empty draw rounds at sigma^2/4, the covariance's least
    eigenvalue, at centers on V^perp, and its law is D(Z^n, Sigma_{sigma^2})
    at an oblique V."""

    THETA = 0.3

    @pytest.mark.parametrize("s2", (8.0 * r0sq(2), 2000.0))
    def test_oblique_subspace_matches_exact_pmf(self, s2):
        V = OrthonormalBasis(2, [np.array([math.cos(self.THETA), math.sin(self.THETA)])])
        spec = dgauss.SubspaceGaussianSpec(2, V, s2)
        X = dgauss.sample_subspace_query(spec, "discrete", derive(26, "oblique", str(s2)),
                                         size=400_000)
        assert oblique_pvalue(X, s2, self.THETA) > GOF_FLOOR

    def test_rounds_at_quarter_variance_on_v_perp(self, monkeypatch):
        n, s2 = 128, 8.0 * r0sq(128)
        basis = np.linalg.qr(np.random.default_rng(28).standard_normal((n, 4)))[0].T
        V = OrthonormalBasis(n, list(basis))
        seen = []
        inner = dgauss._sample_at_centers

        def spy(centers, sigma2, envelope, rng, *args, **kwargs):
            seen.append((np.array(centers), sigma2, envelope))
            return inner(centers, sigma2, envelope, rng, *args, **kwargs)

        monkeypatch.setattr(dgauss, "_sample_at_centers", spy)
        spec = dgauss.SubspaceGaussianSpec(n, V, s2)
        dgauss.sample_subspace_query(spec, "discrete", derive(28, "spy"), size=500)
        (G, sigma2, envelope), = seen
        assert sigma2 == s2 / 4.0
        assert envelope[1] == dgauss.OFFSET_SIGMAS * math.sqrt(s2 / 4.0)
        assert np.linalg.norm(G @ basis.T) <= 1e-9 * np.linalg.norm(G)


class TestSubspaceQuery:
    def test_empty_subspace_is_the_product_sampler(self):
        n, m = 128, 500
        spec = dgauss.SubspaceGaussianSpec(n, OrthonormalBasis.empty(n),
                                           8.0 * r0sq(n))
        rng_a, rng_b = derive(24, "prod"), derive(24, "prod")
        a = dgauss.sample_subspace_query(spec, "discrete", rng_a, size=m)
        b = dgauss.sample_dgauss_1d(spec.sigma2, rng_b, size=(m, n))
        assert np.array_equal(a, b)
        assert_same_state(rng_a, rng_b)
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
        s2 = 8.0 * r0sq(n)
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


class TestBlocksAcrossThreads:
    """A batch of more than _BLOCK entries is drawn in blocks, each an exact
    draw on its own child stream of the caller's generator, spread over a
    thread pool. The bits and the caller's state afterwards follow from the
    seed and the batch shape alone: one worker and two give the same draws,
    and one worker draws inline, with no pool."""

    @staticmethod
    def assert_same_at_one_and_two_workers(monkeypatch, draw, threaded):
        seen, executor = {}, dgauss._executor
        for workers in (1, 2):
            pools = []
            monkeypatch.setattr(dgauss, "_workers", lambda: workers)
            monkeypatch.setattr(dgauss, "_executor", lambda: pools.append(1) or executor())
            rng = derive(40, "workers")
            seen[workers] = draw(rng), rng
            assert bool(pools) == (threaded and workers == 2)
        (a, rng_a), (b, rng_b) = seen[1], seen[2]
        assert np.array_equal(a, b)
        assert_same_state(rng_a, rng_b)

    @pytest.mark.parametrize("size", (dgauss._BLOCK, dgauss._BLOCK + 1, (250, 32, 32)))
    def test_centered_bits_do_not_follow_the_worker_count(self, monkeypatch, size):
        self.assert_same_at_one_and_two_workers(
            monkeypatch, lambda rng: dgauss.sample_dgauss_1d(400.0, rng, size=size),
            threaded=np.prod(size) > dgauss._BLOCK)

    @pytest.mark.parametrize("n", (128, 256))
    def test_subspace_bits_do_not_follow_the_worker_count(self, monkeypatch, n):
        # m = 2000 rows: 4 blocks of 512 rows at n = 128, 8 of 256 at n = 256
        basis = np.linalg.qr(np.random.default_rng(40).standard_normal((n, 4)))[0].T
        spec = dgauss.SubspaceGaussianSpec(n, OrthonormalBasis(n, list(basis)), 8.0 * r0sq(n))
        self.assert_same_at_one_and_two_workers(
            monkeypatch, lambda rng: dgauss.sample_subspace_query(spec, "discrete", rng,
                                                                  size=2000),
            threaded=True)

    def test_more_threads_than_cores_draw_every_block_once(self, monkeypatch):
        # four threads on a short switch interval take the 7 blocks of an
        # opnorm-eps payload from one shared iterator: a block drawn twice or
        # skipped changes the draw
        size, s2 = (1, 6400, 64), 1e12
        monkeypatch.setattr(dgauss, "_workers", lambda: 1)
        want = dgauss.sample_dgauss_1d(s2, derive(43, "stress"), size=size)
        monkeypatch.setattr(dgauss, "_workers", lambda: 4)
        monkeypatch.setattr(dgauss, "_pool", (None, None))  # a pool of 4 threads
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                got = dgauss.sample_dgauss_1d(s2, derive(43, "stress"), size=size)
                assert np.array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)
            if dgauss._pool[1] is not None:
                dgauss._pool[1].shutdown()

    def test_blocks_are_exact_draws_on_child_streams(self):
        # block b holds flat entries [b _BLOCK, (b + 1) _BLOCK), drawn by the
        # whole-batch loop on child b of the caller's generator
        s2, k = 400.0, 2 * dgauss._BLOCK + 5
        rng, ref = derive(41, "children"), derive(41, "children")
        x = dgauss.sample_dgauss_1d(s2, rng, size=k)
        envelope = dgauss._envelope(s2)
        parts = [ref_sample_at_centers(None, s2, envelope, gen, shape=(size,))
                 for gen, size in zip(children(ref, 3), (dgauss._BLOCK, dgauss._BLOCK, 5))]
        assert np.array_equal(x, np.concatenate(parts))
        assert_same_state(rng, ref)

    def test_forked_child_draws_the_parents_bits(self, monkeypatch):
        # the parent's pool exists before the fork; the child builds its own
        # (a pool whose threads stayed behind would never return the draw)
        monkeypatch.setattr(dgauss, "_workers", lambda: 2)

        def draw_digest():
            x = dgauss.sample_dgauss_1d(400.0, derive(42, "fork"), size=(250, 32, 32))
            return hashlib.sha256(x.tobytes()).hexdigest().encode()

        want = draw_digest()
        read, write = os.pipe()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork beside threads
            pid = os.fork()
        if pid == 0:
            try:
                os.write(write, draw_digest())
            finally:
                os._exit(0)
        os.close(write)
        got = b""
        try:
            ready, _, _ = select.select([read], [], [], 120.0)
            if ready:
                got = os.read(read, 256)
        finally:
            os.close(read)
            if not got:
                os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert got == want
