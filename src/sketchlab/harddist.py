"""Generators for the hard-distribution pairs (null side D1 vs planted side
D2), the statistics separating the two sides, gap-event verifiers with
empirically calibrated constants, and sketched-image indistinguishability
estimates.

All Gaussian draws are discrete (module dgauss). Planting is exactly linear:
the D2 payload minus its integer witness spike is a sample from the D1
construction.
"""

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import dgauss, stats
from .errors import BadParams, DimensionTooLarge
from .rng import as_generator, derive

# each family's default parameters, in the order they fill a family's params
_DEFAULTS = {
    "lp-small": {"N": 1_000_000.0, "n": 1024, "p": 1.5, "eps": 0.1},
    "lp-large": {"N": 1_000_000.0, "n": 1024, "p": 4.0, "eps": 0.1, "delta": 1.0 / 9.0},
    "opnorm-alpha": {"N": 10_000.0, "n": 64, "alpha": 2.0},
    "opnorm-eps": {"N": 10_000.0, "d": 64, "eps": 0.1},
    "kyfan": {"N": 10_000.0, "n": 64, "s": 4},
    "eigen": {"N": 10_000.0, "d": 64, "eps": 0.1},
    "psd": {"N": 10_000.0, "d": 64, "p": math.inf, "eps": 0.1},
    "cs": {"N": 1_000_000.0, "n": 256, "k": 8, "eps": 0.2},
}
FAMILY_NAMES = tuple(_DEFAULTS)

# the families whose payload is a Gaussian matrix block plus a rank-`count`
# spike; psd embeds its block in a shifted symmetric matrix
_SPIKED = ("opnorm-alpha", "opnorm-eps", "kyfan", "eigen")
_MATRIX = _SPIKED + ("psd",)

# calibration's fixed seed and null-side batch size
_CAL_SEED, _CAL_TRIALS = 23, 40
# psd's shift bounds sigma1 of its null block t = 4.3 standard deviations
# above the mean bound, so a D1 draw fails with probability below 1e-4
_PSD_TAIL_T = 4.3
_TVD_CHUNK = 250  # matrices drawn at once by the sketched-TVD fast path


@dataclass
class HardFamily:
    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        name = self.name
        if name not in _DEFAULTS:
            raise BadParams(f"unknown family {name!r}")
        p = dict(self.params)
        for key, value in _DEFAULTS[name].items():
            p.setdefault(key, value)
        if name == "lp-small":
            if not (1.0 <= p["p"] <= 2.0):
                raise BadParams("lp-small needs p in [1,2]")
            if not (0.0 < p["eps"] < 1.0):
                raise BadParams("lp-small needs eps in (0,1)")
        elif name == "lp-large" and p["p"] <= 2.0:
            raise BadParams("lp-large needs p > 2")
        elif name == "opnorm-alpha" and p["alpha"] <= 1.0:
            raise BadParams("opnorm-alpha needs approximation factor alpha > 1")
        elif name in ("opnorm-eps", "eigen") and not (0.0 < p["eps"] < 1.0 / 3.0):
            raise BadParams(f"{name} needs eps in (0, 1/3)")
        elif name == "cs":
            if p["k"] >= p["n"]:
                raise BadParams("cs needs k < n")
            root = math.isqrt(int(p["N"]))
            if root * root != int(p["N"]):
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


@lru_cache(maxsize=64)
def expected_p_norm(n, p):
    """E ||g||_p for g ~ N(0, I_n), Monte Carlo estimated once (10,000 draws,
    a fixed seed) and cached."""
    trials = 10_000
    rng = derive(7, "Ep", n, int(p * 1000))
    total, chunk = 0.0, 500
    done = 0
    while done < trials:
        c = min(chunk, trials - done)
        g = rng.standard_normal((c, n))
        total += float(np.sum(np.sum(np.abs(g) ** p, axis=1) ** (1.0 / p)))
        done += c
    return total / trials


def _dg_matrix(var, shape, rng):
    return dgauss.sample_dgauss_1d(var, rng, size=shape)


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
def support_family(n, k, count, seed=11):
    """Family of k-subsets of [n] with pairwise |S delta S'| >= k.

    Proposals come from random partitions of [n] into k-blocks (so per-
    coordinate inclusion frequencies stay in a tight band around k/n);
    blocks violating the symmetric-difference constraint are rejected.
    """
    rng = derive(seed, "cs-family", n, k)
    usable = (n // k) * k
    kept = []
    masks = np.zeros((0, n), dtype=np.int8)
    guard = 0
    while len(kept) < count:
        guard += 1
        if guard > 200 * max(1, count * k // n + 1):
            raise BadParams(f"could not build support family of size {count}")
        perm = rng.permutation(n)[:usable].reshape(-1, k)
        for block in perm:
            m = np.zeros(n, dtype=np.int8)
            m[block] = 1
            if masks.shape[0] and np.max(masks @ m) > k // 2:
                continue
            masks = np.vstack([masks, m])
            kept.append(tuple(sorted(int(i) for i in block)))
            if len(kept) == count:
                break
    return tuple(kept)


def default_support_count(n, k):
    return int(2 ** round(k * math.log2(n / k) / 4))


def gen_hard_instance(family: HardFamily, side, rng) -> HardInstance:
    """Sample one labeled instance: D1 = null construction, D2 = planted."""
    rng = as_generator(rng)
    p = family.params
    N = p["N"]
    name = family.name

    if name == "lp-small":
        n = p["n"]
        var = N * N if side == "D1" else (1.0 + 4.0 * p["eps"]) ** 2 * N * N
        x = _dg_matrix(var, (n,), rng)
        return HardInstance(family, side, x)

    if name == "lp-large":
        n, pw, eps = p["n"], p["p"], p["eps"]
        t = _lp_large_t(p)
        x = _dg_matrix(N * N, (n,), rng)
        if side == "D1":
            return HardInstance(family, side, x)
        E = expected_p_norm(n - t, pw)
        C = p["C"] if "C" in p else calibrate_family(family)["C"]
        mag = int(round(C * eps ** (1.0 / pw) * N * E / t ** (1.0 / pw)))
        T = rng.choice(n, size=t, replace=False)
        z = x.copy()
        z[T] += mag
        return HardInstance(family, side, z, {"T": sorted(int(i) for i in T), "mag": mag})

    if name in _MATRIX:
        m, n_cols = _block_shape(family)
        X = _dg_matrix(N * N, (m, n_cols), rng)
        wit = {}
        if name == "psd":
            # calibration fills c_psd, so it runs before the spike is sized
            wit["shift"] = p["shift"] if "shift" in p else calibrate_family(family)["shift"]
        if side == "D2":
            # spike factors u_i, v_i with entries from D(0, N), rounded
            # integer spike round(s1 * sum_i u_i v_i^T)
            s1 = family.spike_scale()
            count = p["s"] if name == "kyfan" else 1
            us = _dg_matrix(N, (count, m), rng)
            vs = _dg_matrix(N, (count, n_cols), rng)
            spike_real = np.zeros((m, n_cols))
            for u, v in zip(us, vs):
                spike_real += s1 * np.outer(u.astype(float), v.astype(float))
            spike = np.rint(spike_real).astype(np.int64)
            X = X + spike
            wit.update({"u": us, "v": vs, "s1": s1, "spike": spike})
        if name == "psd":
            M = np.zeros((2 * m, 2 * m), dtype=np.int64)
            M[:m, m:] = X
            M[m:, :m] = X.T
            M += wit["shift"] * np.eye(2 * m, dtype=np.int64)
            X = M
        return HardInstance(family, side, X, wit)

    # cs
    n, k, eps = p["n"], p["k"], p["eps"]
    noise_var = eps * N * k / n
    w = _dg_matrix(noise_var, (n,), rng)
    if side == "D1":
        return HardInstance(family, side, w)
    count = p.get("family_count", default_support_count(n, k))
    fam_sets = support_family(n, k, count, seed=p.get("family_seed", 11))
    S = fam_sets[rng.integers(0, len(fam_sets))]
    root = math.isqrt(int(N))
    signs = rng.choice(np.array([-1, 1], dtype=np.int64), size=k)
    z = np.zeros(n, dtype=np.int64)
    z[list(S)] = signs * root
    return HardInstance(family, side, z + w, {"S": list(S), "z": z})


# ---------------------------------------------------------------------------
# calibration: constants that the guarantees leave existential are fit on a
# one-time null-side run and reported with the thresholds
# ---------------------------------------------------------------------------

def calibrate_family(family: HardFamily):
    """Fit the family's existential constants from a null-side batch.

    Results are cached on the family object and recorded in every gap report.
    Calibration also fills the family's derived spike parameters (gamma1, a,
    gamma, c_e, c_psd, shift, C) when not explicitly given.
    """
    cached = getattr(family, "_calibration", None)
    if cached is not None:
        return cached
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
        svs = [np.linalg.svd(_dg_matrix(N ** 2, shape, rng).astype(float), compute_uv=False)
               for _ in range(trials)]
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
            shift = int(math.ceil(N * (2.0 * math.sqrt(d) + _PSD_TAIL_T)))
            p.setdefault("shift", shift)
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

    family._calibration = out
    return out


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
            sv = np.linalg.svd(x, compute_uv=False)
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
    compared against (1 - a^2)^(-1/2) with 2% headroom."""
    if not (0.0 <= a < 1.0):
        raise BadParams("need |a| < 1")
    rng = as_generator(rng)
    x = dgauss.sample_dgauss_1d(sigma2, rng, size=trials).astype(float)
    y = dgauss.sample_dgauss_1d(sigma2, rng, size=trials).astype(float)
    vals = np.exp(a * x * y / sigma2)
    est = float(np.mean(vals))
    bound = (1.0 - a * a) ** -0.5 * 1.02
    return {"estimate": est, "bound": bound, "ok": bool(est <= bound),
            "se": float(np.std(vals) / math.sqrt(trials))}


def singular_value_concentration(m, n, N, trials, rng):
    """Fraction of discrete Gaussian m x n matrices whose singular values all
    lie in N [sqrt(m) - 3 sqrt(n), sqrt(m) + 3 sqrt(n)]."""
    rng = as_generator(rng)
    lo = N * (math.sqrt(m) - 3.0 * math.sqrt(n))
    hi = N * (math.sqrt(m) + 3.0 * math.sqrt(n))
    good = 0
    worst = []
    for _ in range(trials):
        G = _dg_matrix(N * N, (m, n), rng).astype(float)
        sv = np.linalg.svd(G, compute_uv=False)
        inside = bool(sv[-1] >= lo and sv[0] <= hi)
        good += int(inside)
        worst.append((float(sv[-1]), float(sv[0])))
    return {"trials": trials, "all_inside": good, "lo": lo, "hi": hi,
            "extremes": worst}


def sketched_indistinguishability(family: HardFamily, d, trials, rng):
    """Empirical TVD between the d-dimensional sketched images of the two
    sides under a fixed random orthonormal sketch.

    Histogram TVD estimation is only feasible in low dimension (d <= 3).
    """
    if d > 3:
        raise DimensionTooLarge("histogram TVD estimation needs d <= 3")
    rng = as_generator(rng)
    probe = gen_hard_instance(family, "D1", rng)
    dim = probe.payload.size
    Braw = rng.standard_normal((dim, d))
    Bq, _ = np.linalg.qr(Braw)
    B = Bq.T  # (d, dim) orthonormal rows

    def images(side):
        out = np.empty((trials, d))
        if family.name not in _SPIKED:  # generic (slower) path
            for i in range(trials):
                inst = gen_hard_instance(family, side, rng)
                out[i] = inst.payload.reshape(-1).astype(float) @ B.T
            return out
        # the spiked families' instances, drawn _TVD_CHUNK at a time
        shape = probe.payload.shape
        N = family.params["N"]
        count = family.params["s"] if family.name == "kyfan" else 1
        for done in range(0, trials, _TVD_CHUNK):
            c = min(_TVD_CHUNK, trials - done)
            G = _dg_matrix(N * N, (c,) + shape, rng)
            if side == "D2":
                s1 = family.spike_scale()
                spike = np.zeros((c,) + shape)
                for _ in range(count):
                    u = _dg_matrix(N, (c, shape[0]), rng).astype(float)
                    v = _dg_matrix(N, (c, shape[1]), rng).astype(float)
                    spike += s1 * u[:, :, None] * v[:, None, :]
                G = G + np.rint(spike).astype(np.int64)
            out[done:done + c] = G.reshape(c, dim).astype(float) @ B.T
        return out

    img1 = images("D1")
    img2 = images("D2")
    est = stats.empirical_tvd(img1, img2, rng=rng)
    return {"family": family.name, "d": d, "trials": trials, "tvd": est.as_dict()}
