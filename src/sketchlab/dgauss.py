"""Discrete and continuous Gaussian sampling and pmf evaluation.

Conventions: D(0, Sigma) is the distribution on Z^n with mass proportional to
exp(-x^T Sigma^{-1} x / 2), so Sigma plays the role of a covariance parameter
(measured variances approach Sigma as it grows). In one dimension the weight
is exp(-z^2 / (2 sigma^2)).

Sampling tails are truncated at 12 sigma (mass < 1e-30); the partition
function is summed directly below sigma^2 = 1 and in its Poisson form from
1 up, so it costs the same at any variance. An isotropic D(0, sigma^2 I) is
a product of exact 1-D samples. A subspace query with a non-empty
forbidden subspace V uses a continuous+discrete convolution
(Peikert 2010): a continuous center on V^perp, then coordinatewise rounding
with 1-D discrete Gaussians D(Z - c, s^2) at the center, with s^2 = sigma^2/4,
the covariance's least eigenvalue. The law is eps-close to D(0, Sigma)
whenever s^2 is at least the smoothing margin r0^2 of Z, and the sampler
requires s^2 >= 2 r0^2.

Every draw, at any variance, centered or at real centers, comes from one
exact rejection loop (`_sample_at_centers`) under one envelope per variance
and support bound (`_envelope`, cached): the proposal rounds a continuous
Gaussian, the envelope constant is the exact maximum 1/q(0) of target over
proposal, and a squeeze accepts most proposals outright. Only the
candidates, the proposals the squeeze cannot decide, are drawn as Bernoulli
positions and take a uniform (the squeeze method, Devroye 1986), so a draw
costs about one normal per coordinate. The envelope's one margin,
max(1e-9, PMF_ERROR_ULPS 2^-52 sigma), covers the error of the proposal's
pmf, a difference of float64 tails. The normals stream through one buffer of
_BLOCK floats, each block rounded straight into the int64 output, so the
output is the only batch-sized array a draw holds. A rounding variance above
MAX_SIGMA2 raises VarianceTooLarge.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NonPositiveVariance, VarianceTooLarge, VarianceTooSmall
from .numerics import OrthonormalBasis
from .rng import as_generator

TAIL_SIGMAS = 12.0
# support bound, in sigmas, of the sampler at real centers: the target mass
# beyond it is < 1e-14, far below every statistical tolerance used here
OFFSET_SIGMAS = 8.0
SMOOTHING_EPS = 1e-6
# the attack's sampling floor, sigma^2/4 >= 2 r0^2, is smoothing_sigma2 at
# this squared length: 8 r0^2
SAMPLING_FLOOR_ELL_SQ = 32
# the proposal pmf's relative error in units of 2^-52 sigma: the rounding of
# its tails' arguments bounds it by about 24 on |u| <= 12 sigma, and it reads
# 6-15 against mpmath at sigma^2 = 1e8 ... 1e16 (the margin is 1e-9 to ~2e10)
PMF_ERROR_ULPS = 32
# the samplers' ceiling on a rounding variance: there the pmf's error, 1.8e-7
# relative, lies inside the envelope's margin, 7.1e-7
MAX_SIGMA2 = 1e16
# verify_normalization_fact's ceiling: past it the rounding of its mpmath sum
# fails a true bound (1e8 passes in about 8 s and 90 MB, 1e9 fails)
NORMALIZATION_MAX_SIGMA2 = 1e8
SQUEEZE_BUCKETS = 1024  # buckets of |u| in the two-sided squeeze
_BLOCK = 65_536  # normals per block of a pass's proposal stream (512 KB)
_SQRT_HALF = math.sqrt(0.5)
_erfc = np.vectorize(math.erfc, otypes=[float])


def smoothing_sigma2(n, ell_sq):
    """ell_sq ln(2n(1+1/eps)) / pi at eps = SMOOTHING_EPS: the variance above
    which a lattice in R^n with n independent vectors of squared length at
    most ell_sq is eps-smooth (Micciancio & Regev 2004).

    r0^2 is its value at 4 (the lattice Z), the convolution floor 2 r0^2 at
    8 and the sampling floor 8 r0^2 at SAMPLING_FLOOR_ELL_SQ. These scalings
    are powers of two, so each equality holds exactly in floating point."""
    return ell_sq * math.log(2.0 * n * (1.0 + 1.0 / SMOOTHING_EPS)) / math.pi


def partition_1d(sigma2):
    """Z(sigma^2) = sum_k exp(-k^2/(2 sigma^2)) over the integers k.

    Below sigma^2 = 1 the sum is taken directly, truncated at |k| <=
    ceil(12 sigma)+1. From 1 up it is taken in its Poisson-summation form
    sqrt(2 pi sigma^2) (1 + 2 sum_{k>=1} exp(-2 pi^2 sigma^2 k^2)), whose
    terms past k = 1 are below e^{-8 pi^2} < 1e-34 there, far below float64
    resolution: only k = 1 is kept, so neither time nor memory grows with
    sigma."""
    if sigma2 <= 0:
        raise NonPositiveVariance(f"sigma2={sigma2}")
    if sigma2 >= 1.0:
        tail = math.exp(-2.0 * math.pi**2 * sigma2)
        return math.sqrt(2.0 * math.pi * sigma2) * (1.0 + 2.0 * tail)
    K = int(math.ceil(TAIL_SIGMAS * math.sqrt(sigma2))) + 1
    k = np.arange(1, K + 1, dtype=float)
    return float(1.0 + 2.0 * np.sum(np.exp(-k * k / (2.0 * sigma2))))


def verify_normalization_fact(sigma2):
    """Check max(sqrt(2 pi sigma^2), 1) <= Z(sigma^2) <= sqrt(2 pi sigma^2) + 1
    with mpmath at dps = 50 digits.

    The truncated sum over |k| <= 40 sigma lower-bounds Z and an explicit
    geometric tail bound upper-bounds the remainder, so the upper inequality
    is certified outright. The lower inequality is tight to within the
    Poisson-summation remainder ~ 2 exp(-2 pi^2 sigma^2), which for large
    sigma^2 is below any finite precision; it is therefore certified to
    10^(2-dps) relative. Returns bracketing values and `ok`. Raises
    NonPositiveVariance for sigma2 <= 0, and VarianceTooLarge above
    NORMALIZATION_MAX_SIGMA2 = 1e8 (and for inf), where the sum's own
    rounding would fail a true bound.
    """
    if not sigma2 > 0:
        raise NonPositiveVariance(f"sigma2 must be positive, got {sigma2}")
    if not sigma2 <= NORMALIZATION_MAX_SIGMA2:
        raise VarianceTooLarge(f"sigma2 = {sigma2:g} above the normalization ceiling "
                               f"{NORMALIZATION_MAX_SIGMA2:g}")
    import mpmath as mp

    dps = 50
    with mp.workdps(dps):
        s2 = mp.mpf(sigma2)
        K = int(mp.ceil(40 * mp.sqrt(s2))) + 2
        core = 1 + 2 * mp.nsum(lambda k: mp.e ** (-(k * k) / (2 * s2)), [1, K])
        # tail: sum_{k>K} e^{-k^2/2s2} <= e^{-K^2/2s2} / (1 - e^{-K/s2})
        ratio = mp.e ** (-K / s2)
        tail = (mp.e ** (-(K * K) / (2 * s2))) / (1 - ratio)
        z_lo, z_hi = core, core + 2 * tail
        lo = max(mp.sqrt(2 * mp.pi * s2), mp.mpf(1))
        hi = mp.sqrt(2 * mp.pi * s2) + 1
        precision_slack = lo * mp.mpf(10) ** (2 - dps)
        ok = bool(z_lo >= lo - precision_slack and z_hi <= hi)
        # log10 of the true (Poisson) lower-bound slack, for the report
        log10_poisson_slack = float(-2 * mp.pi**2 * s2 / mp.log(10))
        return {
            "sigma2": float(sigma2),
            "Z_lower": float(z_lo),
            "Z_upper": float(z_hi),
            "bound_lo": float(lo),
            "bound_hi": float(hi),
            "log10_poisson_slack": log10_poisson_slack,
            "ok": ok,
        }


def pmf_dgauss_1d(z, sigma2):
    """Probability mass of the integer z under D(0, sigma^2) on Z."""
    if sigma2 <= 0:
        raise NonPositiveVariance(f"sigma2={sigma2}")
    z = np.asarray(z, dtype=float)
    val = np.exp(-z * z / (2.0 * sigma2)) / partition_1d(sigma2)
    return float(val) if val.ndim == 0 else val


def _rounded_gaussian_pmf(u, sigma):
    """Mass that round(N(0, sigma^2)) puts at offset u from the center.

    Evaluated as a difference of complementary tails, Phi(-x) =
    erfc(x/sqrt 2)/2 with `math.erfc` applied elementwise (the arrays here
    are a squeeze grid or a band of proposals), so the difference stays
    accurate where a plain CDF difference underflows to 0 (beyond ~8 sigma)."""
    au = np.abs(np.asarray(u, dtype=float))
    return 0.5 * (_erfc((au - 0.5) / sigma * _SQRT_HALF)
                  - _erfc((au + 0.5) / sigma * _SQRT_HALF))


def _acceptance_ratio(au, sigma2, c_env):
    """min(w/(c_env q), 1) at offsets |u| = au, 0 where q underflows. It falls
    as |u| grows (q/w ~ int_{-1/2}^{1/2} e^{-s^2/2sigma^2} cosh(us/sigma^2) ds),
    so its value at the support bound, less the envelope's margin, is a
    lower bound over the whole support."""
    w = np.exp(-au * au / (2.0 * sigma2))
    q = _rounded_gaussian_pmf(au, math.sqrt(sigma2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(q > 0, np.minimum(w / (c_env * q), 1.0), 0.0)


_Envelope = namedtuple("_Envelope", "c_env bound squeeze lo hi scale")


@lru_cache(maxsize=256)
def _envelope(sigma2, bound=None):
    """The rejection constants (c_env, bound, squeeze, lo, hi, scale) for
    round(center + N(0, sigma2)) on the support |u| <= bound (None: the
    centered support ceil(12 sigma) + 1). Raises VarianceTooLarge above
    MAX_SIGMA2.

    The ratio w/q falls with |u| (see _acceptance_ratio), so c_env = 1/q(0)
    bounds it at every offset, and its value at the bound, the squeeze,
    bounds it from below on the support. In bucket j = int(|u| scale) of
    SQUEEZE_BUCKETS equal ones (the last j is |u| = bound) it lies between
    lo[j], its value at the right edge, and hi[j], at the left edge. Each
    constant carries one relative margin, max(1e-9, PMF_ERROR_ULPS 2^-52
    sigma), which covers the error of _rounded_gaussian_pmf."""
    if sigma2 > MAX_SIGMA2:
        raise VarianceTooLarge(f"sigma^2 = {sigma2:.4g} above the sampling ceiling {MAX_SIGMA2:g}")
    sigma = math.sqrt(sigma2)
    if bound is None:
        bound = int(math.ceil(TAIL_SIGMAS * sigma)) + 1
    margin = max(1e-9, PMF_ERROR_ULPS * 2.0**-52 * sigma)
    c_env = 1.0 / float(_rounded_gaussian_pmf(0.0, sigma)) * (1.0 + margin)
    r = _acceptance_ratio(np.linspace(0.0, bound, SQUEEZE_BUCKETS + 1), sigma2, c_env)
    lo = np.append(r[1:], r[-1]) * (1.0 - margin)  # lo[-1]: the squeeze
    hi = np.append(r[:-1], r[-1]) * (1.0 + margin)
    lo.flags.writeable = hi.flags.writeable = False
    return _Envelope(c_env, bound, float(lo[-1]), lo, hi, SQUEEZE_BUCKETS / bound)


def _candidates(k, p, rng):
    """The sorted positions in range(k) that hold a candidate when each
    position holds one independently with probability p: partial sums of
    geometric gaps, less one, drawn in chunks until they pass k."""
    m = int(k * p + 6.0 * math.sqrt(k * p)) + 16
    pos = np.cumsum(rng.geometric(p, m))
    pos -= 1
    while pos[-1] < k:
        pos = np.concatenate([pos, pos[-1] + np.cumsum(rng.geometric(p, m))])
    return pos[: np.searchsorted(pos, k)]


def _propose(flat_out, pending, k, centers, sigma, bound, rng):
    """One pass of proposals round(center + sigma g), written into flat_out
    at the k pending positions (None: all of them, in order). The normals g
    stream through one buffer of at most _BLOCK floats: consecutive draws
    into it give the values of one draw of k. Returns the pass positions
    whose proposal lies beyond the support bound."""
    buf = np.empty(min(k, _BLOCK))
    beyond = []
    for start in range(0, k, _BLOCK):
        z = buf[: min(k - start, _BLOCK)]
        rng.standard_normal(out=z)
        z *= sigma
        at = slice(start, start + z.size) if pending is None else pending[start:start + z.size]
        if centers is not None:
            c = centers[at]
            z += c
        np.rint(z, out=z)
        flat_out[at] = z  # a later pass overwrites the rejected entries
        if centers is not None:
            z -= c
        au = np.abs(z, out=z)
        if au.max() > bound:
            beyond.append(start + np.flatnonzero(au > bound))
    return beyond


def _sample_at_centers(centers, sigma2, envelope, rng, shape=None):
    """Exact discrete Gaussians of variance sigma2, one at each real entry of
    `centers` (None: at 0 in `shape`, with no center arithmetic): rejection
    from round(center + N(0, sigma2)) under `_envelope(sigma2, bound)`.

    The plain test draws U ~ U[0, 1) per proposal and accepts a proposal in
    the support if U < ratio(u). As squeeze <= ratio, U < squeeze accepts,
    and that event does not depend on u. So the proposals with U >= squeeze,
    the candidates, are drawn as independent Bernoulli(p) positions, p =
    1 - squeeze (`_candidates`), and only a candidate draws its U, uniform
    on [squeeze, 1); there the bucket of |u| accepts if U < lo[j] and
    rejects if U >= hi[j], and only U in [lo[j], hi[j]) computes the ratio.
    Each decision has the law of the plain test (Devroye 1986, the squeeze
    method). A proposal beyond the bound is rejected.

    A pass proposes at every pending entry, the whole batch first and then
    the rejected, as a stream of blocks rounded straight into the int64
    output (`_propose`). A candidate reads its |u| back as |out - center|,
    exact as the output holds the rounded float. So the output is the only
    batch-sized array: the rest is one block and k p candidates."""
    c_env, bound, squeeze, lo, hi, scale = envelope
    p = 1.0 - squeeze
    if centers is not None:
        shape = np.shape(centers)
        centers = np.asarray(centers, dtype=float).ravel()
    out = np.empty(shape, dtype=np.int64)
    flat_out = out.reshape(-1)
    pending, k = None, out.size  # None: every entry, in order
    while k:
        beyond = _propose(flat_out, pending, k, centers, math.sqrt(sigma2), bound, rng)
        cand = _candidates(k, p, rng)
        at = cand if pending is None else pending[cand]
        a = flat_out[at] if centers is None else flat_out[at] - centers[at]
        a = np.minimum(np.abs(a), bound)  # beyond the bound: rejected below
        U = squeeze + p * rng.random(cand.size)
        j = (a * scale).astype(np.intp)
        accept = U < lo[j]
        band = np.flatnonzero(~accept & (U < hi[j]))
        if band.size:  # most passes leave the band empty
            accept[band] = U[band] < _acceptance_ratio(a[band], sigma2, c_env)
        rejected = cand[~accept]
        if beyond:
            rejected = np.union1d(rejected, np.concatenate(beyond))
        pending = rejected if pending is None else pending[rejected]
        k = pending.size
    return out


def sample_dgauss_1d(sigma2, rng, size=None):
    """Exact sample(s) from D(0, sigma^2) on Z, at every 0 < sigma^2 <=
    MAX_SIGMA2, by rejection from a rounded-continuous proposal on the
    support |z| <= ceil(12 sigma) + 1. The ratio w/q falls with |z| at any
    sigma, so the envelope constant 1/q(0) is exact for small variances too.
    """
    if not sigma2 > 0:  # NaN included
        raise NonPositiveVariance(f"sigma2={sigma2}")
    out = _sample_at_centers(None, sigma2, _envelope(sigma2), as_generator(rng),
                             shape=size if size is not None else ())
    return out if size is not None else int(out)


@dataclass
class SubspaceGaussianSpec:
    """Covariance family Sigma_{sigma^2} = (3 sigma^2/4) P_perp^T P_perp
    + (sigma^2/4) I for a forbidden subspace V: eigenvalue sigma^2/4 on V and
    sigma^2 on its complement."""

    n: int
    V: OrthonormalBasis
    sigma2: float

    def __post_init__(self):
        if self.V.dimension != self.n:
            raise DimensionMismatch("subspace dimension mismatch")
        if not self.sigma2 > 0:  # NaN included
            raise NonPositiveVariance(f"sigma2={self.sigma2}")

    def covariance(self):
        P_v = self.V.matrix.T @ self.V.matrix
        return self.sigma2 * np.eye(self.n) - 0.75 * self.sigma2 * P_v

    def eigenvalue_check(self):
        """The covariance's eigenvalues are sigma^2/4 and sigma^2, to 1e-8
        relative."""
        vals = np.linalg.eigvalsh(self.covariance())
        lo, hi, tol = self.sigma2 / 4.0, self.sigma2, 1e-8
        return bool(np.all((np.abs(vals - lo) < tol * hi) | (np.abs(vals - hi) < tol * hi)))


def sample_subspace_query(spec: SubspaceGaussianSpec, kind, rng, size=None):
    """Sample from D(V^perp, sigma^2) (discrete) or G(V^perp, sigma^2)
    (continuous).

    The discrete kind realizes D(0, Sigma_{sigma^2}) over Z^n. For empty V
    that is D(0, sigma^2 I), a product of 1-D discrete Gaussians, drawn
    exactly (up to the 12 sigma tail cut) by `sample_dgauss_1d`. Otherwise
    it is the convolution sampler's rule with a structured covariance square
    root (no n x n eigendecomposition): it rounds at sigma^2/4, the
    covariance's least eigenvalue, at centers N(0, (3 sigma^2/4) P_perp)
    that live on V^perp only, so the covariances add up to Sigma_{sigma^2}.
    That is eps-close to the target because sigma^2/4 >= 2 r0^2 exceeds the
    smoothing margin r0^2 of Z. Both paths raise VarianceTooSmall below the
    sampling floor sigma^2/4 >= 2 r0^2.
    The continuous kind returns P_perp g1 + g2 with g1 ~ N(0, 3 sigma^2/4 I),
    g2 ~ N(0, sigma^2/4 I).
    """
    rng = as_generator(rng)
    n, s2 = spec.n, float(spec.sigma2)
    m = 1 if size is None else int(size)
    V = spec.V.matrix  # (k, n), possibly k = 0

    if kind == "continuous":
        g1 = rng.standard_normal((m, n)) * math.sqrt(0.75 * s2)
        g2 = rng.standard_normal((m, n)) * math.sqrt(0.25 * s2)
        if len(spec.V):
            g1 = g1 - (g1 @ V.T) @ V
        out = g1 + g2
        return out[0] if size is None else out

    if kind != "discrete":
        raise ValueError(f"unknown kind {kind!r}")
    floor = smoothing_sigma2(n, SAMPLING_FLOOR_ELL_SQ)
    if s2 < floor:
        raise VarianceTooSmall(
            f"sigma^2 = {s2:.3f} below the sampling floor 8 r0^2 = {floor:.3f} at n={n}"
        )
    if not len(spec.V):
        z = sample_dgauss_1d(s2, rng, size=(m, n))
        return z[0] if size is None else z
    G = rng.standard_normal((m, n))
    G -= (G @ V.T) @ V
    G *= math.sqrt(0.75 * s2)
    # the rounding step: D(Z - c, sigma^2/4) at each center, on the support
    # |u| <= OFFSET_SIGMAS sigma/2
    s2 /= 4.0
    z = _sample_at_centers(G, s2, _envelope(s2, OFFSET_SIGMAS * math.sqrt(s2)), rng)
    return z[0] if size is None else z
