"""Discrete and continuous Gaussian sampling and pmf evaluation.

Conventions: D(0, Sigma) is the distribution on Z^n with mass proportional to
exp(-x^T Sigma^{-1} x / 2), so Sigma plays the role of a covariance parameter
(measured variances approach Sigma as it grows). In one dimension the weight
is exp(-z^2 / (2 sigma^2)).

Tails are truncated at 12 sigma everywhere (mass < 1e-30). Ellipsoidal
sampling over Z^n uses a continuous+discrete convolution: draw the continuous
part with covariance Sigma - r0^2 I, then round coordinatewise with 1-D
discrete Gaussians of variance r0^2 at the continuous centers; r0^2 is the
smoothing margin for Z. An isotropic D(0, sigma^2 I) needs no convolution:
it is a product of exact 1-D samples, which is how a subspace query with an
empty forbidden subspace is drawn.

Every draw at variance >= 4, centered or at real centers, comes from one
exact rejection loop (`_sample_at_centers`): the proposal rounds a
continuous Gaussian, the envelope constant is the exact maximum 1/q(0) of
target over proposal, and a squeeze accepts most proposals outright. Only the
candidates, the proposals the squeeze cannot decide, are drawn as Bernoulli
positions and take a uniform (the squeeze method, Devroye 1986), so a draw
costs about one normal per coordinate.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from .errors import NonPositiveVariance, VarianceTooSmall
from .numerics import OrthonormalBasis
from .rng import as_generator

TAIL_SIGMAS = 12.0
# support bound, in sigmas, of the sampler at real centers: the target mass
# beyond it is < 1e-14, far below every statistical tolerance used here
OFFSET_SIGMAS = 8.0
TABLE_SIGMA2_MAX = 4.0  # below this variance, sample by exact table inversion
SMOOTHING_EPS = 1e-6
# the attack's sampling floor, sigma^2/4 >= 2 r0^2, is smoothing_sigma2 at
# this squared length: 8 r0^2
SAMPLING_FLOOR_ELL_SQ = 32
SQUEEZE_BUCKETS = 1024  # buckets of |u| in the two-sided squeeze


def smoothing_sigma2(n, ell_sq):
    """ell_sq ln(2n(1+1/eps)) / pi at eps = SMOOTHING_EPS: the variance above
    which a lattice in R^n with n independent vectors of squared length at
    most ell_sq is eps-smooth (Micciancio & Regev 2004).

    r0^2 is its value at 4 (the lattice Z), the convolution floor 2 r0^2 at
    8 and the sampling floor 8 r0^2 at SAMPLING_FLOOR_ELL_SQ. These scalings
    are powers of two, so each equality holds exactly in floating point."""
    return ell_sq * math.log(2.0 * n * (1.0 + 1.0 / SMOOTHING_EPS)) / math.pi


def smoothing_r0sq(n):
    """Smoothing margin r0^2 for the lattice Z."""
    return smoothing_sigma2(n, 4)


def partition_1d(sigma2):
    """Z(sigma^2) = sum_k exp(-k^2/(2 sigma^2)), truncated at |k| <= ceil(12 sigma)+1."""
    if sigma2 <= 0:
        raise NonPositiveVariance(f"sigma2={sigma2}")
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
    10^(2-dps) relative. Returns bracketing values and `ok`.
    """
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

    Evaluated through complementary tails so the difference stays accurate
    (a plain CDF difference underflows to 0 beyond ~8 sigma)."""
    au = np.abs(np.asarray(u, dtype=float))
    return ndtr(-(au - 0.5) / sigma) - ndtr(-(au + 0.5) / sigma)


def _acceptance_ratio(au, sigma2, c_env):
    """min(w/(c_env q), 1) at offsets |u| = au, 0 where q underflows. It falls
    as |u| grows (q/w ~ int_{-1/2}^{1/2} e^{-s^2/2sigma^2} cosh(us/sigma^2) ds),
    so its value at the support bound less 1e-9 relative, the squeeze, is a
    lower bound over the whole support."""
    w = np.exp(-au * au / (2.0 * sigma2))
    q = _rounded_gaussian_pmf(au, math.sqrt(sigma2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(q > 0, np.minimum(w / (c_env * q), 1.0), 0.0)


@lru_cache(maxsize=256)
def _squeeze_buckets(sigma2, c_env, bound):
    """(lo, hi, scale): |u| in [0, bound] falls in bucket j = int(|u| * scale)
    of SQUEEZE_BUCKETS equal ones (the last j is |u| = bound). As the ratio
    falls with |u|, lo[j] (its value at the right edge, less 1e-9 relative)
    <= ratio(u) <= hi[j] (at the left edge, plus 1e-9 for rounding)."""
    r = _acceptance_ratio(np.linspace(0.0, bound, SQUEEZE_BUCKETS + 1), sigma2, c_env)
    lo = np.append(r[1:], r[-1]) * (1.0 - 1e-9)
    hi = np.append(r[:-1], r[-1]) * (1.0 + 1e-9)
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi, SQUEEZE_BUCKETS / bound


@lru_cache(maxsize=256)
def _envelope(sigma2, bound):
    """(c_env, bound, squeeze) for rejection from round(center + N(0, sigma2))
    on the support |u| <= bound. The ratio w/q falls with |u| (see
    _acceptance_ratio), so its maximum over every offset is 1/q(0), and
    c_env = 1/q(0) plus 1e-9 relative bounds it; the squeeze is the ratio at
    the bound less 1e-9 relative."""
    c_env = 1.0 / float(_rounded_gaussian_pmf(0.0, math.sqrt(sigma2))) * (1.0 + 1e-9)
    return c_env, bound, float(_acceptance_ratio(bound, sigma2, c_env)) * (1.0 - 1e-9)


def _sample_table(sigma2, rng, size):
    """Exact inversion sampling from a truncated pmf table (small variances)."""
    sigma = math.sqrt(sigma2)
    K = max(1, int(math.ceil(TAIL_SIGMAS * sigma)))
    support = np.arange(-K, K + 1)
    w = np.exp(-support.astype(float) ** 2 / (2.0 * sigma2))
    cdf = np.cumsum(w / np.sum(w))
    u = rng.random(size if size is not None else ())
    idx = np.searchsorted(cdf, u, side="right")
    out = support[np.minimum(idx, 2 * K)]
    return out if size is not None else int(out)


def _candidates(k, p, rng):
    """The sorted positions in range(k) that hold a candidate when each
    position holds one independently with probability p: partial sums of
    geometric gaps, less one, drawn in chunks until they pass k."""
    m = int(k * p + 6.0 * math.sqrt(k * p)) + 16
    pos = np.cumsum(rng.geometric(p, m)) - 1
    while pos[-1] < k:
        pos = np.concatenate([pos, pos[-1] + np.cumsum(rng.geometric(p, m))])
    return pos[: np.searchsorted(pos, k)]


def _sample_at_centers(centers, sigma2, envelope, rng, shape=None):
    """Exact discrete Gaussians of variance sigma2, one at each real entry of
    `centers` (None: at 0 in `shape`, with no center arithmetic): rejection
    from round(center + N(0, sigma2)) under envelope = (c_env, support
    bound, squeeze).

    The plain test draws U ~ U[0, 1) per proposal and accepts a proposal in
    the support if U < ratio(u). As squeeze <= ratio, U < squeeze accepts,
    and that event does not depend on u. So the proposals with U >= squeeze,
    the candidates, are drawn as independent Bernoulli(p) positions, p =
    1 - squeeze (`_candidates`), and only a candidate draws its U, uniform
    on [squeeze, 1); there the bucket of |u| accepts if U < lo[j] and
    rejects if U >= hi[j], and only U in [lo[j], hi[j]) computes the ratio.
    Each decision has the law of the plain test (Devroye 1986, the squeeze
    method). A proposal beyond the bound is rejected. The first pass covers
    the whole batch unindexed; later passes re-draw the rejected."""
    c_env, bound, squeeze = envelope
    lo, hi, scale = _squeeze_buckets(sigma2, c_env, bound)
    p = 1.0 - squeeze
    if centers is not None:
        shape = np.shape(centers)
        centers = np.asarray(centers, dtype=float).ravel()
    out = np.empty(shape, dtype=np.int64)
    flat_out = out.reshape(-1)
    pending, k = slice(None), out.size
    while k:
        z = rng.standard_normal(k)
        z *= math.sqrt(sigma2)
        if centers is not None:
            c = centers[pending]
            z += c
        np.rint(z, out=z)
        flat_out[pending] = z  # a later pass overwrites the rejected entries
        if centers is not None:
            z -= c
        au = np.abs(z, out=z)
        cand = _candidates(k, p, rng)
        a = np.minimum(au[cand], bound)  # beyond the bound: rejected below
        U = squeeze + p * rng.random(cand.size)
        j = (a * scale).astype(np.intp)
        accept = U < lo[j]
        band = np.flatnonzero(~accept & (U < hi[j]))
        accept[band] = U[band] < _acceptance_ratio(a[band], sigma2, c_env)
        rejected = cand[~accept]
        if au.max() > bound:
            rejected = np.union1d(rejected, np.flatnonzero(au > bound))
        pending = rejected if isinstance(pending, slice) else pending[rejected]
        k = pending.size
    return out


def sample_dgauss_1d(sigma2, rng, size=None):
    """Exact sample(s) from D(0, sigma^2) on Z.

    Inversion on a truncated table for sigma^2 < 4; otherwise rejection with
    a rounded-continuous proposal and a precomputed envelope constant.
    """
    if sigma2 <= 0:
        raise NonPositiveVariance(f"sigma2={sigma2}")
    rng = as_generator(rng)
    if sigma2 < TABLE_SIGMA2_MAX:
        return _sample_table(sigma2, rng, size)
    K = int(math.ceil(TAIL_SIGMAS * math.sqrt(sigma2))) + 1
    out = _sample_at_centers(None, sigma2, _envelope(sigma2, K), rng,
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
            raise ValueError("subspace dimension mismatch")
        if self.sigma2 <= 0:
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


def sample_dgauss_ellipsoidal(Sigma, rng, size=None):
    """Sample from D(0, Sigma) over Z^n by continuous+discrete convolution.

    Requires the smallest eigenvalue of Sigma to be >= 2 r0^2 where r0^2 is
    the smoothing margin for Z (`smoothing_r0sq`); raises
    VarianceTooSmall otherwise (the caller must rescale).
    """
    rng = as_generator(rng)
    Sigma = np.asarray(Sigma, dtype=float)
    n = Sigma.shape[0]
    r0sq = smoothing_r0sq(n)
    floor = smoothing_sigma2(n, 8)  # 2 r0^2
    vals, vecs = np.linalg.eigh(Sigma)
    if np.min(vals) < floor:
        raise VarianceTooSmall(
            f"min eigenvalue {np.min(vals):.3f} < 2*r0^2 = {floor:.3f}"
        )
    sqrt_cont = vecs @ np.diag(np.sqrt(vals - r0sq)) @ vecs.T
    m = 1 if size is None else int(size)
    y = rng.standard_normal((m, n)) @ sqrt_cont
    z = _sample_at_centers(y, r0sq, _envelope(r0sq, OFFSET_SIGMAS * math.sqrt(r0sq)), rng)
    return z[0] if size is None else z


def sample_subspace_query(spec: SubspaceGaussianSpec, kind, rng, size=None):
    """Sample from D(V^perp, sigma^2) (discrete) or G(V^perp, sigma^2)
    (continuous).

    The discrete kind realizes D(0, Sigma_{sigma^2}) over Z^n. For empty V
    that is D(0, sigma^2 I), a product of 1-D discrete Gaussians, drawn
    exactly (up to the 12 sigma tail cut) by `sample_dgauss_1d`. Otherwise
    it uses the convolution sampler with a structured covariance square
    root (no n x n eigendecomposition), which is eps-close. Both paths
    raise VarianceTooSmall below the sampling floor sigma^2/4 >= 2 r0^2.
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
    r0sq = smoothing_r0sq(n)
    a = math.sqrt(s2 - r0sq)        # continuous std on V^perp
    b = math.sqrt(s2 / 4.0 - r0sq)  # continuous std on V
    G = rng.standard_normal((m, n))
    P = (G @ V.T) @ V
    G *= a
    P *= a - b
    G -= P
    z = _sample_at_centers(G, r0sq, _envelope(r0sq, OFFSET_SIGMAS * math.sqrt(r0sq)), rng)
    return z[0] if size is None else z
