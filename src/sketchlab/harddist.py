"""Generators for the hard-distribution pairs (null side D1 vs planted side
D2), the statistics separating the two sides, gap-event verifiers with
empirically calibrated constants, and sketched-image indistinguishability
estimates.

All Gaussian draws are discrete (module dgauss). Planting is exactly linear:
the D2 payload minus `planted_spike(witness)` is a sample from the D1
construction.
"""

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import dgauss, stats
from .errors import BadParams, DimensionTooLarge
from .fields import OPTIONAL, read_fields
from .rng import as_generator, derive

# each family's params as a key table (fields.read_fields): its defaults in
# the order they fill, then the constants calibration fills (and lp-large's
# C, which it reports), then the spike scale s1 of a matrix family and cs's
# regime flag
_SIZE = ((int,), ((">=", 1),))
_POSITIVE = ((float,), ((">", 0),))
_UNIT = ((float,), ((">", 0), ("<", 1)))  # in (0, 1)
_THIRD = ((float,), ((">", 0), ("<", 1 / 3)))  # in (0, 1/3)
_CONST = ((float,), (), OPTIONAL)  # a calibrated constant
_FIELDS = {
    "lp-small": {"N": (*_POSITIVE, 1_000_000.0), "n": (*_SIZE, 1024),
                 "p": ((float,), ((">=", 1), ("<=", 2)), 1.5), "eps": (*_UNIT, 0.1)},
    "lp-large": {"N": (*_POSITIVE, 1_000_000.0), "n": (*_SIZE, 1024),
                 "p": ((float,), ((">", 2),), 4.0), "eps": (*_UNIT, 0.1),
                 "delta": (*_UNIT, 1.0 / 9.0), "C": _CONST},
    "opnorm-alpha": {"N": (*_POSITIVE, 10_000.0), "n": (*_SIZE, 64),
                     "alpha": ((float,), ((">", 1),), 2.0), "gamma1": _CONST, "s1": _CONST},
    "opnorm-eps": {"N": (*_POSITIVE, 10_000.0), "d": (*_SIZE, 64), "eps": (*_THIRD, 0.1),
                   "a": _CONST, "s1": _CONST},
    "kyfan": {"N": (*_POSITIVE, 10_000.0), "n": (*_SIZE, 64), "s": (*_SIZE, 4),
              "gamma": _CONST, "s1": _CONST},
    "eigen": {"N": (*_POSITIVE, 10_000.0), "d": (*_SIZE, 64), "eps": (*_THIRD, 0.1),
              "c_e": _CONST, "s1": _CONST},
    "psd": {"N": (*_POSITIVE, 10_000.0), "d": (*_SIZE, 64),
            "p": ((float, math.inf), ((">=", 1),), math.inf), "eps": (*_POSITIVE, 0.1),
            "shift": ((int,), (), OPTIONAL), "c_psd": _CONST, "s1": _CONST},
    "cs": {"N": (*_POSITIVE, 1_000_000.0), "n": (*_SIZE, 256), "k": (*_SIZE, 8),
           "eps": (*_POSITIVE, 0.2), "in_asymptotic_regime": ((bool,), (), OPTIONAL)},
}
FAMILY_NAMES = tuple(_FIELDS)

# the families whose payload is a Gaussian matrix block plus a rank-`count`
# spike; psd embeds its block in a shifted symmetric matrix
_MATRIX = ("opnorm-alpha", "opnorm-eps", "kyfan", "eigen", "psd")

# calibration's fixed seed and null-side batch size
_CAL_SEED, _CAL_TRIALS = 23, 40
# the deviation t, in standard deviations, of every Davidson-Szarek edge
# N (sqrt(m) +- sqrt(n) +- t): each edge is crossed with probability at most
# exp(-t^2/2) < 1e-4 (psd's shift, criterion 12's interval)
_SV_TAIL_T = 4.3
# the sketched TVD draws at most _TVD_CHUNK instances at once per side, and
# at most _TVD_CHUNK_ENTRIES payload entries (250 instances of 1024) unless
# one instance is larger, so each of a chunk's arrays stays a few MB
_TVD_CHUNK, _TVD_CHUNK_ENTRIES = 250, 256_000
# float64 spike entries (512 KB) that a plant forms at once
_SPIKE_BLOCK = 65_536


@dataclass
class HardFamily:
    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        name = self.name
        if name not in _FIELDS:
            raise BadParams(f"unknown family {name!r}")
        p = read_fields(self.params, _FIELDS[name], (name,))
        if name == "lp-large" and p["n"] <= _lp_large_t(p):
            raise BadParams(f"lp-large param 'n' must exceed t = {_lp_large_t(p)}, the "
                            f"planted coordinates at delta = {p['delta']!r}, got {p['n']}")
        elif name == "kyfan" and p["s"] > p["n"]:
            raise BadParams(f"kyfan param 's' must be at most n = {p['n']}, got {p['s']}")
        elif name == "cs":
            if p["k"] >= p["n"]:
                raise BadParams(f"cs param 'k' must be below n = {p['n']}, got {p['k']}")
            if math.isqrt(int(p["N"])) ** 2 != p["N"]:
                raise BadParams("cs needs N to be a perfect square (entries +-sqrt(N))")
            noise_var = p["eps"] * p["N"] * p["k"] / p["n"]
            if noise_var < dgauss.smoothing_sigma2(p["n"], 8):  # 2 r0^2
                raise BadParams("cs noise variance below the discrete sampling floor")
            # the asymptotic lower-bound regime; generation works outside it
            p["in_asymptotic_regime"] = bool(
                p["eps"] > math.sqrt(p["k"] * math.log(p["n"]) / p["n"])
            )
        self.params = p

    def spike_scale(self):
        """Per-family planted spike scale (overridable via params['s1'])."""
        p = self.params
        if "s1" in p:
            return float(p["s1"])
        if self.name == "opnorm-alpha":
            return p.get("gamma1", 6.0) * p["alpha"] / math.sqrt(p["n"])
        if self.name == "opnorm-eps":
            return p.get("a", 4.0) * math.sqrt(p["eps"] / p["d"])
        if self.name == "kyfan":
            return p.get("gamma", 6.0) / math.sqrt(p["n"])
        if self.name == "eigen":
            return p.get("c_e", 7.0) * p["eps"]
        if self.name == "psd":
            return p.get("c_psd", 3.0) / math.sqrt(p["d"])
        raise BadParams(f"family {self.name} has no spike scale")


@dataclass
class HardInstance:
    """One labeled instance. Its witness holds, by family and side:

    - lp-small: nothing;
    - lp-large D2: T, the sorted planted coordinates, and mag, the amount
      added to each;
    - opnorm-alpha, opnorm-eps, kyfan, eigen D2: the integer spike factors
      u (count, m) and v (count, n) and the scale s1, from which
      `planted_spike` rebuilds the spike (count is s for kyfan, else 1);
    - psd: shift on both sides, and on D2 the spike factors as above;
    - cs D2: S, the planted support, and z, the planted signed vector.
    """
    family: HardFamily
    side: str                 # "D1" | "D2"
    payload: np.ndarray       # integer vector or matrix
    witness: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.side not in ("D1", "D2"):
            raise BadParams(f"side must be D1 or D2, got {self.side}")
        self.payload = np.asarray(self.payload)
        if not np.issubdtype(self.payload.dtype, np.integer):
            raise BadParams("payload entries must be integers")


# E ||g||_p's trapezoid rules: each grid ends where its integrand falls below
# e^-_QUAD_TAIL of its scale, and each step is 2 pi d / _QUAD_TAIL for d half
# the half-width of the strip where the integrand is analytic, so the rule's
# error is about e^-_QUAD_TAIL as well
_QUAD_TAIL = 37.0
_QUAD_CHUNK = 1 << 17  # float64 values (1 MB) in one block of the inner rule


@lru_cache(maxsize=64)
def expected_p_norm(n, p):
    """E ||g||_p for g ~ N(0, I_n) and 1 <= p < inf, exact up to float64
    rounding (about 1e-14 relative), computed once and cached.

    At p = 1 it is n sqrt(2/pi). Otherwise let S = sum_i |g_i|^p, a = 1/p,
    mu = E|g|^p = 2^(p/2) Gamma((p+1)/2) / sqrt(pi) and L(t) = E e^(-t|g|^p).
    Taking expectations in x^a = a/Gamma(1-a) int_0^inf (1 - e^(-tx))
    t^(-1-a) dt, with E e^(-tS) = L(t)^n, and splitting off 1 - e^(-n mu t),
    whose integral is (n mu)^a Gamma(1-a)/a, gives

        E S^a = (n mu)^a + a/Gamma(1-a) int_0^inf (e^(-n mu t) - L(t)^n) t^(-1-a) dt.

    The remainder is O(t^2) at t = 0, so the split keeps the grid small as
    p -> 1, and L(t) <= c0 t^-a with c0 = sqrt(2/pi) Gamma(1+a) bounds its
    tail. In s = ln t it decays exponentially on both sides and is analytic
    for |Im s| < pi/2, so the trapezoid rule in s converges geometrically.
    L - 1 = E expm1(-t|g|^p) is a trapezoid rule in u = ln|g|, analytic for
    |Im u| < min(pi/4, pi/(2p)), and the difference of exponentials is formed
    from expm1, so nothing cancels.
    """
    if not (1.0 <= p < math.inf):
        raise BadParams(f"expected_p_norm needs 1 <= p < inf, got {p}")
    if p == 1.0:
        return n * math.sqrt(2.0 / math.pi)
    a, tail = 1.0 / p, _QUAD_TAIL
    mu = 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
    c = n * mu
    # the s grid: below -ln(c) the remainder falls as e^((2-a)s); above, past
    # both e^(-c t) and the bound c0^n t^(-a(n+1)) on L^n t^-a
    c0 = math.sqrt(2.0 / math.pi) * math.gamma(1.0 + a)
    s_hi = max(math.log(tail / c), (n * math.log(c0) + tail) / (a * (n + 1)))
    h_s = 2.0 * math.pi * (math.pi / 4.0) / tail
    s = np.arange(-math.log(c) - tail / (2.0 - a), s_hi + h_s, h_s)
    # the u grid: e^(-x^2/2) is below e^-tail past x = sqrt(2 tail); below the
    # largest t's bend at x = t^-a the integrand falls as x^(p+1)
    h_u = 2.0 * math.pi * min(math.pi / 8.0, math.pi / (4.0 * p)) / tail
    u = np.arange(min(0.0, -a * s[-1]) - tail / (p + 1.0), 0.5 * math.log(2.0 * tail) + h_u, h_u)
    w = h_u * math.sqrt(2.0 / math.pi) * np.exp(u - 0.5 * np.exp(2.0 * u))
    pu = p * u
    rows = max(1, _QUAD_CHUNK // u.size)
    total = 0.0
    for i in range(0, s.size, rows):
        si = s[i:i + rows]
        y = np.add.outer(si, pu)
        np.exp(y, out=y)
        np.negative(y, out=y)
        lm1 = np.expm1(y, out=y) @ w  # L(t) - 1
        # e^B - e^A for A = n ln L, B = -c t, as sign(A-B) e^max(A,B) expm1(-|A-B|)
        A, B = n * np.log1p(lm1), -c * np.exp(si)
        diff = np.sign(A - B) * np.exp(np.maximum(A, B)) * np.expm1(-np.abs(A - B))
        total += float(np.sum(diff * np.exp(-a * si)))
    return c ** a + a / math.gamma(1.0 - a) * h_s * total


def _dg_matrix(var, shape, rng):
    return dgauss.sample_dgauss_1d(var, rng, size=shape)


def _singular_values(X):
    """Singular values of the matrix X, descending, as the square roots of
    eigvalsh of its smaller Gram matrix (X^T X or X X^T), formed by one
    float64 BLAS product.

    For an integer X with max(rows, cols) * max|x|^2 < 2^53 every product
    and every partial sum of the Gram matrix is an integer below 2^53, so
    the Gram matrix is exact in float64 and eigvalsh's backward error is the
    only rounding. Every default family meets this: the largest null block,
    opnorm-eps's 6400 x 64 at N = 1e4, gives 6400 (12 N + 1)^2 ~ 9.2e13 at
    the sampler's 12-sigma cut. Past that bound the result is a float64
    approximation, as an SVD's is. Each sigma_i is off by about
    eps sigma_1^2 / sigma_i, so the top values the statistics read keep
    full relative precision and only values far below sigma_1 lose it.
    """
    X = np.asarray(X, dtype=float)
    gram = X.T @ X if X.shape[0] >= X.shape[1] else X @ X.T
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[::-1], 0.0))


def _block_shape(family: HardFamily):
    """The (rows, cols) of a matrix family's Gaussian block."""
    p = family.params
    if family.name == "opnorm-eps":
        return int(round(p["d"] / p["eps"] ** 2)), p["d"]
    side = p["d"] if family.name in ("eigen", "psd") else p["n"]
    return side, side


def _lp_large_t(p):
    """lp-large's number of planted coordinates, log_3(1/sqrt(delta))."""
    return max(1, round(math.log(1.0 / math.sqrt(p["delta"]), 3)))


@lru_cache(maxsize=16)
def support_family(n, k, count):
    """Family of k-subsets of [n] with pairwise |S delta S'| >= k, drawn at
    the fixed seed 11.

    Proposals come from random partitions of [n] into k-blocks (so per-
    coordinate inclusion frequencies stay in a tight band around k/n);
    blocks violating the symmetric-difference constraint are rejected.
    """
    rng = derive(11, "cs-family", n, k)
    usable = (n // k) * k
    kept = []
    masks = np.zeros((count, n), dtype=np.int8)  # row i: kept subset i
    guard = 0
    while len(kept) < count:
        guard += 1
        if guard > 200 * max(1, count * k // n + 1):
            raise BadParams(f"could not build support family of size {count}")
        perm = rng.permutation(n)[:usable].reshape(-1, k)
        for block in perm:
            # |S cap S'| for every kept S', read off the block's columns
            if kept and masks[:len(kept), block].sum(axis=1).max() > k // 2:
                continue
            masks[len(kept), block] = 1
            kept.append(tuple(sorted(int(i) for i in block)))
            if len(kept) == count:
                break
    return tuple(kept)


def default_support_count(n, k):
    return int(2 ** round(k * math.log2(n / k) / 4))


def _draw(family: HardFamily, side, size, rng):
    """`size` instances of one side as (payloads, witness): the payloads and
    each per-instance witness entry (an array or list) have `size` as a
    leading axis; scalar entries (s1, mag, shift) are shared. The witness
    holds what HardInstance lists: T and mag (lp-large D2), S and z (cs D2),
    shift (psd), and the spike factors u (size, count, m), v (size, count, n)
    and s1 of a D2 matrix family, whose spike is `planted_spike(witness)`.
    A matrix family's draws come in one order: the null block, then u and
    v, then the plant, which adds the spike into the block in row blocks, so
    the payload is the one payload-sized array the draw holds."""
    p = family.params
    N = p["N"]
    name = family.name

    if name == "lp-small":
        var = N * N if side == "D1" else (1.0 + 4.0 * p["eps"]) ** 2 * N * N
        return _dg_matrix(var, (size, p["n"]), rng), {}

    if name == "lp-large":
        n, pw, eps = p["n"], p["p"], p["eps"]
        t = _lp_large_t(p)
        x = _dg_matrix(N * N, (size, n), rng)
        if side == "D1":
            return x, {}
        E = expected_p_norm(n - t, pw)
        C = p["C"] if "C" in p else calibrate_family(family)["C"]
        mag = int(round(C * eps ** (1.0 / pw) * N * E / t ** (1.0 / pw)))
        Ts = [sorted(int(i) for i in rng.choice(n, size=t, replace=False))
              for _ in range(size)]
        for row, T in zip(x, Ts):
            row[T] += mag
        return x, {"T": Ts, "mag": mag}

    if name in _MATRIX:
        m, n_cols = _block_shape(family)
        X = _dg_matrix(N * N, (size, m, n_cols), rng)
        wit = {}
        if name == "psd":
            # calibration fills c_psd, so it runs before the spike is sized
            wit["shift"] = p["shift"] if "shift" in p else calibrate_family(family)["shift"]
        if side == "D2":
            # spike factors u_i, v_i with entries from D(0, N); the integer
            # spike is added into the block exactly, in int64
            count = p["s"] if name == "kyfan" else 1
            wit["u"] = _dg_matrix(N, (size, count, m), rng)
            wit["v"] = _dg_matrix(N, (size, count, n_cols), rng)
            wit["s1"] = family.spike_scale()
            for rows, block in _spike_rows(wit):
                X[:, rows] += block.astype(np.int64)
        if name == "psd":
            M = np.zeros((size, 2 * m, 2 * m), dtype=np.int64)
            M[:, :m, m:] = X
            M[:, m:, :m] = X.transpose(0, 2, 1)
            diag = np.arange(2 * m)
            M[:, diag, diag] += wit["shift"]
            X = M
        return X, wit

    # cs
    n, k, eps = p["n"], p["k"], p["eps"]
    w = _dg_matrix(eps * N * k / n, (size, n), rng)
    if side == "D1":
        return w, {}
    fam_sets = support_family(n, k, default_support_count(n, k))
    Ss = [list(fam_sets[j]) for j in rng.integers(0, len(fam_sets), size=size)]
    signs = rng.choice(np.array([-1, 1], dtype=np.int64), size=(size, k))
    z = np.zeros((size, n), dtype=np.int64)
    for row, S, sg in zip(z, Ss, signs):
        row[S] = sg * math.isqrt(int(N))
    return z + w, {"S": Ss, "z": z}


def _spike_rows(witness):
    """The rounded spike rint(s1 sum_i u_i v_i^T) of a D2 matrix witness, as
    (rows, float64 block) pairs over consecutive row ranges of the spike,
    each block of about _SPIKE_BLOCK entries across every leading index.
    Each entry is s1 (u_0 v_0), plus s1 (u_i v_i) for each further i in
    order, then rounded, so the blocks agree bit for bit with the whole
    spike formed at once. Raises BadParams unless every entry is bounded
    below 2^62 by s1 sum_i max|u_i| max|v_i|, so the spike and its sum with
    the null block stay in int64."""
    u, v, s1 = witness["u"], witness["v"], witness["s1"]
    bound = abs(s1) * float(np.max(np.sum(
        np.abs(u).max(axis=-1).astype(float) * np.abs(v).max(axis=-1), axis=-1)))
    if not bound < 2.0**62:
        raise BadParams(f"planted spike bound s1 sum_i max|u_i| max|v_i| = {bound:.4g} "
                        f"is not below 2^62 (int64) at s1 = {s1:.4g}")
    vf = v.astype(float)
    step = max(1, _SPIKE_BLOCK // vf[..., 0, :].size)
    for lo in range(0, u.shape[-1], step):
        rows = slice(lo, lo + step)
        uf = u[..., rows].astype(float)
        block = uf[..., 0, :, None] * vf[..., 0, None, :]
        block *= s1
        for i in range(1, u.shape[-2]):
            block += s1 * (uf[..., i, :, None] * vf[..., i, None, :])
        yield rows, np.rint(block, out=block)


def planted_spike(witness):
    """The int64 spike rint(s1 sum_i u_i v_i^T) that a D2 matrix instance
    plants into its Gaussian block, from its witness's u, v and s1: one
    instance's (m, n) spike, or a `_draw` batch's (size, m, n) spikes. For
    psd the spike is that of the off-diagonal block."""
    u, v = witness["u"], witness["v"]
    out = np.empty(u.shape[:-2] + (u.shape[-1], v.shape[-1]), dtype=np.int64)
    for rows, block in _spike_rows(witness):
        out[..., rows, :] = block
    return out


def gen_hard_instance(family: HardFamily, side, rng) -> HardInstance:
    """Sample one labeled instance: D1 = null construction, D2 = planted."""
    X, wit = _draw(family, side, 1, as_generator(rng))
    return HardInstance(family, side, X[0],
                        {k: v if np.isscalar(v) else v[0] for k, v in wit.items()})


# ---------------------------------------------------------------------------
# calibration: constants that the guarantees leave existential are fit on a
# one-time null-side run and reported with the thresholds
# ---------------------------------------------------------------------------

def calibrate_family(family: HardFamily):
    """Fit the family's existential constants from a null-side batch.

    The batch is drawn at the fixed seed _CAL_SEED, so the fit is a pure
    function of the family's name and params. It is memoized per process,
    keyed by both as they stand before calibration, so an equal family
    reuses it without drawing again. The result is recorded in every gap
    report; each family object keeps its own copy and gets it back on every
    call. Calibration also fills the family's derived spike parameters
    (gamma1, a, gamma, c_e, shift, c_psd) when not explicitly given;
    lp-large's C is reported with the thresholds.
    """
    cached = getattr(family, "_calibration", None)
    if cached is not None:
        return cached
    thresholds, derived = _fit_calibration(family.name, frozenset(family.params.items()))
    for k, v in derived:
        family.params.setdefault(k, v)
    family._calibration = dict(thresholds)
    return family._calibration


@lru_cache(maxsize=64)
def _fit_calibration(name, key):
    """calibrate_family's fit for the params dict(key): the thresholds, and
    the derived parameters as (key, value) pairs in the order they fill."""
    family = HardFamily(name, dict(key))
    given = set(family.params)
    rng = derive(_CAL_SEED, "calibrate", family.name)
    p = family.params
    N = p["N"]
    name = family.name
    trials = _CAL_TRIALS
    out = {"trials": trials, "seed": _CAL_SEED}

    if name == "lp-small":
        n, pw, eps = p["n"], p["p"], p["eps"]
        tau = N * expected_p_norm(n, pw)
        out.update({"tau": tau, "lo": (1 + eps) * tau, "hi": (1 + 3 * eps) * tau})

    elif name == "lp-large":
        n, pw, eps = p["n"], p["p"], p["eps"]
        t = _lp_large_t(p)
        E = expected_p_norm(n - t, pw)
        base = np.empty(trials)
        coordq = []
        for i in range(trials):
            x = _dg_matrix(N * N, (n,), rng).astype(float)
            base[i] = np.sum(np.abs(x) ** pw)
            coordq.append(np.max(np.abs(x)))
        hi_target = ((1 + 4 * eps) * N * E) ** pw
        q01_base = float(np.quantile(base, 0.01))
        interference = float(np.quantile(coordq, 0.5))
        mag = ((max(hi_target - q01_base, 0.0)) / t) ** (1.0 / pw) + interference
        mag *= 1.1
        C = mag * t ** (1.0 / pw) / (eps ** (1.0 / pw) * N * E)
        out.update(
            {
                "C": float(C),
                "E": float(E),
                "t": t,
                "lo": (1 + 2 * eps) * N * E,
                "hi": (1 + 4 * eps) * N * E,
            }
        )

    elif name in _MATRIX:
        shape = _block_shape(family)
        svs = [_singular_values(_dg_matrix(N * N, shape, rng)) for _ in range(trials)]
        tops = np.array([s[0] for s in svs])
        scale = N * math.sqrt(shape[0])
        # top singular values concentrate tightly; max-over-batch plus 4%
        # headroom sits beyond the q999 of the null side
        C_cal = float(np.max(tops) / scale) * 1.04
        # spike factor norms for the planted-side sizing
        m_r, n_c = shape
        uu = _dg_matrix(N, (trials, m_r), rng).astype(float)
        vv = _dg_matrix(N, (trials, n_c), rng).astype(float)
        kappa = float(
            np.quantile(
                np.linalg.norm(uu, axis=1) * np.linalg.norm(vv, axis=1)
                / (N * math.sqrt(m_r * n_c)), 0.01,
            )
        )
        out["C_cal"] = C_cal
        out["kappa"] = kappa

        if name == "opnorm-alpha":
            n, alpha = p["n"], p["alpha"]
            # spec thresholds: D1 <= 3 C N sqrt(n), D2 > 3 alpha C N sqrt(n)
            C = C_cal / 3.0
            gamma1 = 1.3 * C_cal * (alpha + 1.0) / (kappa * alpha)
            p.setdefault("gamma1", float(gamma1))
            out.update({"C": C, "gamma1": p["gamma1"],
                        "lo": 3 * C * N * math.sqrt(n),
                        "hi": 3 * alpha * C * N * math.sqrt(n)})
        elif name == "opnorm-eps":
            d, eps = p["d"], p["eps"]
            C = C_cal * eps * math.sqrt(shape[0]) / math.sqrt(d) / (1 + 2 * eps)
            lo = C * N * (1 + 2 * eps) * math.sqrt(d) / eps
            hi = C * N * (1 + 4 * eps) * math.sqrt(d) / eps
            # triangle sizing: s1 ||u|| ||v|| - sigma1(G) must clear hi
            need = (hi + float(np.quantile(tops, 0.995))) * 1.15
            a = need / (kappa * N * math.sqrt(shape[0] * d) * math.sqrt(eps / d))
            p.setdefault("a", float(max(a, 1.0)))
            out.update({"C": C, "a": p["a"], "lo": lo, "hi": hi})
        elif name == "kyfan":
            n, s_count = p["n"], p["s"]
            fs = np.array([np.sum(sv[:s_count]) for sv in svs])
            C = float(np.max(fs) / (s_count * N * math.sqrt(n))) * 1.04
            gamma = 3.0 * C
            p.setdefault("gamma", float(gamma))
            out.update(
                {
                    "C": C,
                    "gamma": p["gamma"],
                    "lo": C * s_count * N * math.sqrt(n),
                    "hi": 0.9 * p["gamma"] * N * s_count * math.sqrt(n)
                    - C * N * s_count * math.sqrt(n),
                }
            )
        elif name == "eigen":
            d, eps = p["d"], p["eps"]
            fro = np.array(
                [math.sqrt(float(np.sum(s**2))) for s in svs]
            )
            fro99 = float(np.quantile(fro, 0.99))
            lo = C_cal * N * math.sqrt(d)
            # D2 must exceed lo + eps * ||X||_F; size the spike for that
            need = (lo + eps * fro99 * 1.1) * 1.25
            c_e = (need + lo) / (kappa * N * d) / eps
            p.setdefault("c_e", float(c_e))
            out.update({"C1": C_cal, "lo": lo, "fro99": fro99, "c_e": p["c_e"]})
        elif name == "psd":
            d = p["d"]
            eps, pw = p["eps"], p["p"]
            # D1 holds when the shift is at least sigma1(G). For a d x d
            # block of variance-N^2 Gaussian entries E sigma1 <= 2 N sqrt(d)
            # (Davidson-Szarek) and sigma1 is N-Lipschitz in the standardized
            # entries, so it exceeds N (2 sqrt(d) + t) with probability at
            # most exp(-t^2/2); the D(0, N^2) entries are taken as Gaussian
            p.setdefault("shift", int(math.ceil(N * (2.0 * math.sqrt(d) + _SV_TAIL_T))))
            shift = p["shift"]
            # required top singular value of H for the eps-far event, solved
            # by a short fixed point (the Schatten norm of the shifted
            # embedding depends on sigma1 itself); the bulk spectrum is
            # approximated by the median null spectrum
            bulk = np.median(np.vstack(svs), axis=0)[1:]
            sig1 = 2.0 * shift
            for _ in range(30):
                if math.isinf(pw):
                    snorm = sig1 + shift
                else:
                    lams = np.abs(np.concatenate([bulk + shift, shift - bulk]))
                    snorm = float(
                        (np.sum(lams**pw) + (sig1 + shift) ** pw
                         + abs(shift - sig1) ** pw) ** (1.0 / pw)
                    )
                sig1_new = shift + eps * snorm * 1.3
                if abs(sig1_new - sig1) < 1e-9 * max(1.0, sig1):
                    break
                sig1 = sig1_new
            c_psd = (sig1 + C_cal * N * math.sqrt(d)) * math.sqrt(d) / (kappa * N * d)
            p.setdefault("c_psd", float(c_psd))
            out.update({"C1": C_cal, "shift": shift, "c_psd": p["c_psd"],
                        "sigma1_required": float(sig1)})

    elif name == "cs":
        root = math.isqrt(int(N))
        out.update({"detect": root / 2.0})

    return out, tuple((k, v) for k, v in p.items() if k not in given)


# how a statistic meets its threshold when each side's event holds; every
# other family's D1 event is `<=` and its D2 event `>=`
_EVENT_TESTS = {
    "opnorm-alpha": (operator.le, operator.gt),
    "opnorm-eps": (operator.le, operator.gt),
    "psd": (operator.ge, operator.le),  # psd's statistic is the least eigenvalue
    "cs": (operator.lt, operator.gt),
}


def verify_gap_event(instance: HardInstance, thresholds=None):
    """Compute the family's separating statistic exactly and test the side's
    event. Returns {"statistic", "threshold", "event_holds", ...}."""
    fam = instance.family
    if thresholds is None:
        thresholds = calibrate_family(fam)
    p = fam.params
    name = fam.name
    x = instance.payload.astype(float)
    d1 = instance.side == "D1"
    extra, bar = {}, None  # bar: what the statistic is tested against, if not thr

    if name == "psd":
        lam = np.linalg.eigvalsh(x)
        stat = float(lam[0])
        snorm = (float(np.max(np.abs(lam))) if math.isinf(p["p"])
                 else float(np.sum(np.abs(lam) ** p["p"]) ** (1.0 / p["p"])))
        thr = 0.0 if d1 else -p["eps"] * snorm
    elif name == "cs":
        mags = np.abs(x)
        thr = thresholds["detect"]
        if d1:
            stat = float(np.max(mags))
        else:
            S = list(instance.witness["S"])
            stat = float(mags[S].min())
            extra["decoded"] = sorted(int(i) for i in np.argsort(mags)[-p["k"]:])
            # S decodes as the top k by magnitude exactly when its weakest
            # entry is strictly above every other
            bar = float(np.delete(mags, S).max())
    else:
        if name in ("lp-small", "lp-large"):
            stat = float(np.sum(np.abs(x) ** p["p"]) ** (1.0 / p["p"]))
        else:
            sv = _singular_values(x)
            stat = float(np.sum(sv[: p["s"]])) if name == "kyfan" else float(sv[0])
        if name == "eigen" and not d1:
            thr = thresholds["lo"] + p["eps"] * float(np.linalg.norm(x))
        else:
            thr = thresholds["lo" if d1 else "hi"]

    test = _EVENT_TESTS.get(name, (operator.le, operator.ge))[0 if d1 else 1]
    holds = test(stat, thr if bar is None else bar)
    return {"statistic": stat, "threshold": thr, "event_holds": bool(holds), **extra,
            "thresholds": thresholds}


def gap_event_battery(family: HardFamily, pairs, seed=101):
    """Generate `pairs` seeded D1/D2 instance pairs and count how often each
    side's separating event holds."""
    if pairs < 1:
        raise BadParams(f"the gap battery needs at least one pair, got {pairs}")
    thresholds = calibrate_family(family)
    ok = 0
    details = []
    for i in range(pairs):
        rng = derive(seed, "gap", family.name, i)
        r1 = verify_gap_event(gen_hard_instance(family, "D1", rng), thresholds)
        r2 = verify_gap_event(gen_hard_instance(family, "D2", rng), thresholds)
        good = r1["event_holds"] and r2["event_holds"]
        ok += int(good)
        details.append((r1["statistic"], r2["statistic"], good))
    return {"family": family.name, "pairs": pairs, "both_hold": ok,
            "thresholds": thresholds, "details": details}


# ---------------------------------------------------------------------------
# structural lemma checks used by the acceptance battery
# ---------------------------------------------------------------------------


def mgf_cross_term_check(a, sigma2, trials, rng):
    """Monte Carlo E[e^{a x y / sigma^2}] for scalar x, y ~ D(0, sigma^2),
    against its Gaussian limit (1 - a^2)^(-1/2), for 0 <= a < 1/2.

    The estimate passes if it is at most the limit plus 5 standard errors,
    se = std/sqrt(trials), so the rule tightens as trials grow. The
    estimator's k-th moment is (1 - k^2 a^2)^(-1/2) in the Gaussian limit:
    se is itself a trustworthy estimate only while the fourth moment is
    finite, a < 1/4. At a >= 1/2 the second moment diverges and the sample
    std estimates nothing, so no rule that scales with trials exists there
    and such an a raises BadParams."""
    if not (0.0 <= a < 0.5):
        raise BadParams(f"the MGF cross-term check needs 0 <= a < 1/2, got {a}")
    rng = as_generator(rng)
    x = dgauss.sample_dgauss_1d(sigma2, rng, size=trials).astype(float)
    y = dgauss.sample_dgauss_1d(sigma2, rng, size=trials).astype(float)
    vals = np.exp(a * x * y / sigma2)
    est = float(np.mean(vals))
    se = float(np.std(vals) / math.sqrt(trials))
    bound = (1.0 - a * a) ** -0.5 + 5.0 * se
    return {"estimate": est, "bound": bound, "ok": bool(est <= bound), "se": se}


def singular_value_concentration(m, n, N, trials, rng):
    """Fraction of discrete Gaussian m x n matrices (m >= n) whose singular
    values all lie in the Davidson-Szarek interval
    N [sqrt(m) - sqrt(n) - t, sqrt(m) + sqrt(n) + t], t = _SV_TAIL_T.

    sigma_min and sigma_max are N-Lipschitz in the standardized entries, so
    a draw leaves either edge with probability at most exp(-t^2/2)."""
    rng = as_generator(rng)
    lo = N * (math.sqrt(m) - math.sqrt(n) - _SV_TAIL_T)
    hi = N * (math.sqrt(m) + math.sqrt(n) + _SV_TAIL_T)
    good = 0
    worst = []
    for _ in range(trials):
        sv = _singular_values(_dg_matrix(N * N, (m, n), rng))
        inside = bool(sv[-1] >= lo and sv[0] <= hi)
        good += int(inside)
        worst.append((float(sv[-1]), float(sv[0])))
    return {"trials": trials, "all_inside": good, "lo": lo, "hi": hi,
            "extremes": worst}


def sketched_indistinguishability(family: HardFamily, d, trials, rng):
    """Empirical TVD between the d-dimensional sketched images of the two
    sides under a fixed random orthonormal sketch.

    Histogram TVD estimation is only feasible in low dimension
    (d <= stats.TVD_MAX_DIM).
    Both sides are drawn by the one instance generator in chunks of
    min(_TVD_CHUNK, _TVD_CHUNK_ENTRIES // dim) instances, at least one.
    """
    if d < 1:
        raise BadParams(f"sketch dimension d must be at least 1, got {d}")
    if trials < 1:
        raise BadParams(f"trials must be at least 1, got {trials}")
    if d > stats.TVD_MAX_DIM:
        raise DimensionTooLarge(f"histogram TVD estimation needs d <= {stats.TVD_MAX_DIM}")
    rng = as_generator(rng)
    probe = gen_hard_instance(family, "D1", rng)
    dim = probe.payload.size
    Braw = rng.standard_normal((dim, d))
    Bq, _ = np.linalg.qr(Braw)
    B = Bq.T  # (d, dim) orthonormal rows

    chunk = min(_TVD_CHUNK, max(1, _TVD_CHUNK_ENTRIES // dim))

    def images(side):
        out = np.empty((trials, d))
        for done in range(0, trials, chunk):
            c = min(chunk, trials - done)
            X, _ = _draw(family, side, c, rng)
            out[done:done + c] = X.reshape(c, dim).astype(float) @ B.T
        return out

    img1 = images("D1")
    img2 = images("D2")
    est = stats.empirical_tvd(img1, img2, rng=rng)
    return {"family": family.name, "d": d, "trials": trials, "tvd": est.as_dict()}
