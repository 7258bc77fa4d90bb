"""The acceptance battery: one function per criterion, each returning a
record {"id", "name", "ok", "elapsed_s", "detail"}.

tests/test_acceptance.py asserts these records; `sketchlab suite acceptance`
prints one pass/fail line per criterion and exits 2 on any failure. All
tolerances are pinned here, not in the callers.
"""

import math
import time

import numpy as np

from . import dgauss, harddist, stats
from .attack import (
    AttackConfig,
    conditional_gap_estimate,
    run_attack,
    verify_certificate,
)
from .errors import LengthBoundUnachieved, NoExploitFound
from .lattice import (
    IntMatrix,
    pairwise_reduced_kernel,
    preprocess_sketch,
    short_kernel_vector,
)
from .numerics import OrthonormalBasis, top_right_singular_vector
from .rng import derive
from .sketch import ExactNormOracle, GapNormOracle, GapNormParams, build_sketch


def alpha_lattice_term(n, ell, eps=1e-6):
    """The lattice term of the alpha policy: ell^2 ln(2n(1+1/eps))/pi for a
    certified orthogonal-lattice length ell."""
    return ell**2 * math.log(2 * n * (1 + 1 / eps)) / math.pi


def alpha_floor(n):
    """The discrete-sampling floor of the alpha policy, 8 r0^2."""
    return 8.0 * dgauss.smoothing_r0sq(n)


# alpha_floor(n) = 8 r0^2 = alpha_lattice_term(n, sqrt(32)): the floor binds
# exactly when the certified basis has squared length < 32
_FLOOR_LEN_SQ = 32


def auto_alpha(sketch, eps=1e-6):
    """Automatic alpha policy: a certified orthogonal-lattice length ell,
    squared, times ln(2n(1+1/eps))/pi; floored at the discrete-sampling
    requirement 8 r0^2. Returns (alpha, ell).

    The lattice term holds for any n - r independent orthogonal-lattice
    vectors (the lambda_n smoothing bound), not only an LLL basis. So ell
    comes first from the pairwise-reduced HNF kernel basis
    (`lattice.pairwise_reduced_kernel`), kept when every squared length is
    below 32, where the floor binds, and at most n M^2, where pre-processing
    would keep A' = A. Otherwise, and when r > n/4 (TooManyRows), ell is the
    certified length of the pre-processed sketch (`preprocess_sketch`:
    kernel + LLL)."""
    A, n = sketch.A, sketch.n
    M = A.max_abs_entry()
    kb = (pairwise_reduced_kernel(A, min(_FLOOR_LEN_SQ, n * M * M + 1))
          if 4 * A.rows <= n else None)
    if kb is None:
        _, kb = preprocess_sketch(A)
    ell = max(kb.certified_max_len, 1.0)
    return max(alpha_lattice_term(n, ell, eps), alpha_floor(n)), ell


def attack_setup(acfg, seed):
    """The attacked sketch, its GapNormParams and AttackConfig for a config's
    `attack` block (config_schema.json) and sketch seed, and how alpha was
    set: the sampling floor, the lattice term (None for a fixed alpha) and
    which of floor, lattice or fixed binds."""
    n, r, family = acfg["n"], acfg["r"], acfg["family"]
    B = float(acfg["B"])
    fam_params = acfg.get("family_params", {})
    policy = acfg.get("alpha_policy", "auto")
    # projection-threshold is the one family whose build reads alpha (its
    # threshold calibration); any other sketch is final before alpha is set
    calibrated = family == "projection-threshold"

    def build(alpha, **extra):
        params = dict(fam_params, alpha=alpha, B=B, **extra) if calibrated else fam_params
        return build_sketch(family, n, r, params, seed=seed)

    if policy == "auto":
        # auto_alpha reads only A; a projection-threshold probe's cheap
        # calibration (m_cal=16) is discarded with it
        sk = build(1.0, m_cal=16)
        alpha, ell = auto_alpha(sk)
        lattice_term = alpha_lattice_term(n, ell)
        binds = "lattice" if alpha == lattice_term else "floor"
        if calibrated:
            sk = build(alpha)
    else:
        alpha, lattice_term, binds = float(policy), None, "fixed"
        sk = build(alpha)
    alpha_report = {
        "alpha_floor": alpha_floor(n),
        "alpha_lattice_term": lattice_term,
        "alpha_binds": binds,
    }
    params = GapNormParams(B=B, alpha=alpha)
    grid = acfg.get("grid", {})
    cfg = AttackConfig(
        gap=params,
        m=int(acfg.get("m", 2000)),
        grid_points=int(grid.get("points", 16)),
        positive_floor=acfg.get("positive_floor"),
        round_cap=acfg.get("round_cap"),
        zeta=acfg.get("zeta"),
        verify_trials=int(acfg.get("verify_trials", 10_000)),
    )
    return sk, params, cfg, alpha_report


# the attack block of criteria 1, 2 and 9
ATTACK = {"n": 128, "r": 8, "family": "projection-threshold", "B": 8.0,
          "m": 2000, "grid": {"points": 16}}


def criterion_1_attack_end_to_end(fast=False):
    """Certificate + >= 1 verified integer exploit in >= 8/10 seeded runs
    against the projection-threshold sketch (n=128, r=8, B=8, m=2000,
    16-point geometric grid); each run <= 5 minutes."""
    t0 = time.time()
    runs = 3 if fast else 10
    wins = 0
    per_run = []
    for i in range(runs):
        t_run = time.time()
        sk, params, cfg, _ = attack_setup(ATTACK, 1000 + i)
        oracle = GapNormOracle(sk, params)
        out = run_attack(oracle, sk.n, sk.r, cfg, derive(77, "attack", i))
        got = False
        if out.outcome == "certificate":
            try:
                rep = verify_certificate(
                    oracle, out.certificate, trials=10_000,
                    rng=derive(77, "verify", i),
                )
                got = len(rep["exploits"]) >= 1
            except NoExploitFound:
                got = False
        elapsed_run = time.time() - t_run
        per_run.append(
            {"seed": 1000 + i, "win": got, "outcome": out.outcome,
             "elapsed_s": round(elapsed_run, 2)}
        )
        wins += int(got)
    need = 2 if fast else 8
    ok = wins >= need and all(r["elapsed_s"] <= 300 for r in per_run)
    return {
        "id": 1,
        "name": "attack end-to-end (certificate + exploit)",
        "ok": bool(ok),
        "elapsed_s": round(time.time() - t0, 2),
        "detail": {"wins": wins, "runs": runs, "per_run": per_run},
    }


def criterion_2_negative_control(fast=False):
    """Zero verified certificates over 100 seeded runs against the exact
    ground-truth oracle."""
    t0 = time.time()
    runs = 10 if fast else 100
    sk, params, cfg, _ = attack_setup(ATTACK, 4242)
    verified = 0
    certs = 0
    for i in range(runs):
        oracle = ExactNormOracle(sk.n, params)
        out = run_attack(oracle, sk.n, sk.r, cfg, derive(88, "neg", i))
        if out.outcome == "certificate":
            certs += 1
            try:
                verify_certificate(oracle, out.certificate, trials=10_000,
                                   rng=derive(88, "neg-verify", i))
                verified += 1
            except NoExploitFound:
                pass
    return {
        "id": 2,
        "name": "negative control (ground-truth oracle)",
        "ok": verified == 0,
        "elapsed_s": round(time.time() - t0, 2),
        "detail": {"runs": runs, "certificates": certs, "verified": verified},
    }


def criterion_3_siegel(fast=False):
    """1000 random instances (n <= 24, r <= n/2, M <= 100): the short kernel
    vector meets the Siegel bound exactly, zero violations, <= 60 s."""
    t0 = time.time()
    trials = 100 if fast else 1000
    rng = derive(3, "siegel")
    violations = 0
    for _ in range(trials):
        n = int(rng.integers(2, 25))
        r = int(rng.integers(1, max(2, n // 2 + 1)))
        M = int(rng.integers(1, 101))
        A = rng.integers(-M, M + 1, size=(r, n))
        if not np.any(A):
            A[0, 0] = 1
        try:
            short_kernel_vector(IntMatrix.from_rows(A, bound=M))
        except Exception:
            violations += 1
    elapsed = time.time() - t0
    return {
        "id": 3,
        "name": "Siegel short-kernel bound",
        "ok": violations == 0 and elapsed <= 60,
        "elapsed_s": round(elapsed, 2),
        "detail": {"trials": trials, "violations": violations},
    }


def criterion_4_preprocessing(fast=False):
    """100 random A in Z^{3x32} with M=50: certified orthogonal-lattice basis
    length <= sqrt(32)*50 in >= 95 runs."""
    t0 = time.time()
    trials = 20 if fast else 100
    rng = derive(4, "prep")
    target = math.sqrt(32) * 50
    good = 0
    failures = []
    for i in range(trials):
        A = rng.integers(-50, 51, size=(3, 32))
        try:
            _, kb = preprocess_sketch(IntMatrix.from_rows(A, bound=50))
            if kb.certified_max_len <= target:
                good += 1
            else:
                failures.append({"trial": i, "achieved": kb.certified_max_len})
        except LengthBoundUnachieved as exc:
            failures.append({"trial": i, "achieved": exc.achieved})
    need = int(0.95 * trials)
    return {
        "id": 4,
        "name": "pre-processing length bound",
        "ok": good >= need,
        "elapsed_s": round(time.time() - t0, 2),
        "detail": {"good": good, "trials": trials, "target": target,
                   "failures": failures},
    }


def criterion_5_pmf_ratio(fast=False):
    t0 = time.time()
    rep = stats.pmf_ratio_check(sigma2=10_000.0, n=10, C=2)
    return {
        "id": 5,
        "name": "pmf ratio (discrete vs rounded continuous)",
        "ok": rep["ok"],
        "elapsed_s": round(time.time() - t0, 2),
        "detail": rep,
    }


def criterion_6_normalization(fast=False):
    t0 = time.time()
    reports = [dgauss.verify_normalization_fact(s2)
               for s2 in (0.5, 1.0, 4.0, 100.0, 1e6)]
    return {
        "id": 6,
        "name": "normalization constant bracket",
        "ok": all(r["ok"] for r in reports),
        "elapsed_s": round(time.time() - t0, 2),
        "detail": reports,
    }


def criterion_7_cell_lemma(fast=False):
    """r=2, n=8, sigma^2=1e8: both cell-lemma paths at TVD <= 0.05."""
    t0 = time.time()
    rng = derive(7, "cell")
    from .sketch import IntegerSketch
    while True:
        A = rng.integers(-10, 11, size=(2, 8))
        if np.linalg.matrix_rank(A.astype(float)) == 2:
            break
    sk = IntegerSketch.from_matrix(A, seed=7)
    trials = 20_000 if fast else 100_000
    rep = stats.cell_lemma_check(sk, 1e8, trials=trials,
                                 rng=derive(7, "cell-run"))
    return {
        "id": 7,
        "name": "cell lemma (noise path + rounding path)",
        "ok": rep["pass"],
        "elapsed_s": round(time.time() - t0, 2),
        "detail": rep,
    }


def criterion_8_subspace_covariance(fast=False):
    """n=16, dim V = 2, sigma^2=1e4: measured E<w,x>^2 within 5% of
    sigma^2/4 on V and sigma^2 off V."""
    t0 = time.time()
    n, s2 = 16, 1e4
    rng = derive(8, "cov")
    raw = rng.standard_normal((2, n))
    q, _ = np.linalg.qr(raw.T)
    V = OrthonormalBasis(n, [q[:, 0], q[:, 1]])
    spec = dgauss.SubspaceGaussianSpec(n, V, s2)
    m = 20_000 if fast else 100_000
    X = dgauss.sample_subspace_query(spec, "discrete", rng, size=m).astype(float)
    w_in = V.vectors[0]
    w_mid = (V.vectors[0] + V.vectors[1]) / np.linalg.norm(V.vectors[0] + V.vectors[1])
    raw_out = rng.standard_normal(n)
    raw_out -= V.project(raw_out)
    w_out = raw_out / np.linalg.norm(raw_out)
    checks = {
        "in_V": (float(np.mean((X @ w_in) ** 2)), s2 / 4),
        "mid_V": (float(np.mean((X @ w_mid) ** 2)), s2 / 4),
        "perp_V": (float(np.mean((X @ w_out) ** 2)), s2),
    }
    ok = all(abs(got - want) <= 0.05 * want for got, want in checks.values())
    ok = ok and spec.eigenvalue_check()
    return {
        "id": 8,
        "name": "subspace-Gaussian covariance",
        "ok": bool(ok),
        "elapsed_s": round(time.time() - t0, 2),
        "detail": {k: {"measured": g, "target": w} for k, (g, w) in checks.items()},
    }


def criterion_9_conditional_gap(fast=False):
    """Delta-hat for a sketch row exceeds Delta-hat for a random direction
    orthogonal to the rowspan by >= 3 combined standard errors."""
    t0 = time.time()
    sk, params, cfg, _ = attack_setup(ATTACK, 909)
    n = sk.n
    oracle = GapNormOracle(sk, params)
    rng = derive(9, "gap")
    empty = OrthonormalBasis.empty(n)
    # pick the first grid point with positive rate in [0.1, 0.9]
    chosen = None
    for s2 in cfg.grid_for(n):
        spec = dgauss.SubspaceGaussianSpec(n, empty, float(s2))
        X = dgauss.sample_subspace_query(spec, "discrete", rng, size=1500)
        rate = float(np.mean(oracle.query_batch(X)))
        if 0.1 <= rate <= 0.9:
            chosen = (float(s2), rate)
            break
    if chosen is None:
        return {"id": 9, "name": "conditional-gap diagnostic", "ok": False,
                "elapsed_s": round(time.time() - t0, 2),
                "detail": "no grid point with positive rate in [0.1, 0.9]"}
    s2, rate = chosen
    spec = dgauss.SubspaceGaussianSpec(n, empty, s2)
    u_row = sk.Q[0] / np.linalg.norm(sk.Q[0])
    raw = derive(9, "gap-dir").standard_normal(n)
    raw -= (raw @ sk.Q.T) @ sk.Q
    u_rand = raw / np.linalg.norm(raw)
    m = 20_000 if fast else 100_000
    rep_row = conditional_gap_estimate(oracle, spec, u_row, m, derive(9, "gap-row"))
    rep_rand = conditional_gap_estimate(oracle, spec, u_rand, m, derive(9, "gap-rand"))
    sep = rep_row["delta"] - rep_rand["delta"]
    se = math.hypot(rep_row["se"], rep_rand["se"])
    return {
        "id": 9,
        "name": "conditional-gap diagnostic",
        "ok": bool(sep >= 3.0 * se),
        "elapsed_s": round(time.time() - t0, 2),
        "detail": {"sigma2": s2, "rate_probe": rate, "row": rep_row,
                   "random_perp": rep_rand, "separation": sep,
                   "combined_se": se},
    }


class _PlantedOracle:
    """Synthetic oracle: 1 iff <u, x>^2 >= 3 sigma0^2 for a planted unit u."""

    def __init__(self, u, sigma0_sq):
        self.u = np.asarray(u, dtype=float)
        self.n = len(self.u)
        self.thresh = 3.0 * sigma0_sq

    def query_batch(self, X):
        d = np.asarray(X, float) @ self.u
        return (d * d >= self.thresh).astype(np.int8)


def criterion_10_planted_recovery(fast=False):
    """Planted-direction recovery: |<v, u>| >= 0.9 in >= 9/10 seeded runs
    (n=64, m=5000 samples at a grid point with positive rate in [0.05, 0.3])."""
    t0 = time.time()
    n = 64
    runs = 4 if fast else 10
    wins = 0
    rates = []
    for i in range(runs):
        rng = derive(10, "plant", i)
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        s2 = 8.0 * dgauss.smoothing_r0sq(n) * 4.0
        oracle = _PlantedOracle(u, s2)
        spec = dgauss.SubspaceGaussianSpec(n, OrthonormalBasis.empty(n), s2)
        X = dgauss.sample_subspace_query(spec, "discrete", rng, size=5000)
        ans = oracle.query_batch(X)
        rate = float(ans.mean())
        rates.append(rate)
        if not (0.05 <= rate <= 0.3):
            continue
        pos = X[ans == 1].astype(float)
        v, _ = top_right_singular_vector(pos)
        if abs(float(v @ u)) >= 0.9:
            wins += 1
    need = 3 if fast else 9
    return {
        "id": 10,
        "name": "planted-direction recovery",
        "ok": wins >= need,
        "elapsed_s": round(time.time() - t0, 2),
        "detail": {"wins": wins, "runs": runs, "positive_rates": rates},
    }


_DESK_FAMILIES = [
    ("lp-small", {"n": 1024, "eps": 0.1, "p": 1.5}),
    ("lp-large", {"n": 1024, "p": 4.0, "delta": 1.0 / 9.0, "eps": 0.1}),
    ("opnorm-alpha", {"n": 64, "alpha": 2.0}),
    ("opnorm-eps", {"d": 64, "eps": 0.1}),
    ("kyfan", {"n": 64, "s": 4}),
    ("eigen", {"d": 64, "eps": 0.1}),
    ("psd", {"d": 64, "p": math.inf, "eps": 0.1}),
    ("cs", {"n": 256, "k": 8, "eps": 0.2}),
]


def criterion_11_hard_gap_battery(fast=False):
    """Every family's separating event holds on the correct side in at least
    95/100 seeded pairs, full battery <= 10 minutes."""
    t0 = time.time()
    pairs = 20 if fast else 100
    need = int(0.95 * pairs)
    results = {}
    ok = True
    for name, params in _DESK_FAMILIES:
        fam = harddist.HardFamily(name, dict(params))
        rep = harddist.gap_event_battery(fam, pairs=pairs, seed=111)
        results[name] = {"both_hold": rep["both_hold"], "pairs": pairs}
        ok = ok and rep["both_hold"] >= need
    elapsed = time.time() - t0
    return {
        "id": 11,
        "name": "hard-distribution gap events (8 families)",
        "ok": bool(ok and elapsed <= 600),
        "elapsed_s": round(elapsed, 2),
        "detail": results,
    }


def criterion_12_singular_concentration(fast=False):
    t0 = time.time()
    trials = 20 if fast else 100
    rep = harddist.singular_value_concentration(
        400, 100, 1e4, trials, derive(12, "svc")
    )
    need = int(0.95 * trials)
    return {
        "id": 12,
        "name": "singular-value concentration",
        "ok": rep["all_inside"] >= need,
        "elapsed_s": round(time.time() - t0, 2),
        "detail": {"all_inside": rep["all_inside"], "trials": trials,
                   "lo": rep["lo"], "hi": rep["hi"]},
    }


def criterion_13_mgf(fast=False):
    t0 = time.time()
    trials = 200_000 if fast else 1_000_000
    reports = {}
    ok = True
    for a in (0.0, 0.5):
        rep = harddist.mgf_cross_term_check(a, 1e4, trials, derive(13, "mgf", int(a * 10)))
        reports[str(a)] = rep
        ok = ok and rep["ok"]
    return {
        "id": 13,
        "name": "MGF cross-term bound",
        "ok": bool(ok),
        "elapsed_s": round(time.time() - t0, 2),
        "detail": reports,
    }


def criterion_14_sketched_tvd(fast=False):
    """opnorm family, d=1 sketch: small-spike TVD <= 0.15; a decisively
    large spike reads >= 0.5 as the sanity control."""
    t0 = time.time()
    n = 32
    trials = 20_000 if fast else 100_000
    small = harddist.HardFamily(
        "opnorm-alpha", {"n": n, "alpha": 2.0, "s1": 0.1 / math.sqrt(n)}
    )
    big = harddist.HardFamily(
        "opnorm-alpha", {"n": n, "alpha": 2.0, "s1": 40.0 / math.sqrt(n)}
    )
    rep_small = harddist.sketched_indistinguishability(
        small, d=1, trials=trials, rng=derive(14, "tvd-small")
    )
    rep_big = harddist.sketched_indistinguishability(
        big, d=1, trials=trials, rng=derive(14, "tvd-big")
    )
    ok = rep_small["tvd"]["value"] <= 0.15 and rep_big["tvd"]["value"] >= 0.5
    return {
        "id": 14,
        "name": "sketched indistinguishability (small vs large spike)",
        "ok": bool(ok),
        "elapsed_s": round(time.time() - t0, 2),
        "detail": {"small_spike_tvd": rep_small["tvd"],
                   "large_spike_tvd": rep_big["tvd"]},
    }


ALL_CRITERIA = [
    criterion_1_attack_end_to_end,
    criterion_2_negative_control,
    criterion_3_siegel,
    criterion_4_preprocessing,
    criterion_5_pmf_ratio,
    criterion_6_normalization,
    criterion_7_cell_lemma,
    criterion_8_subspace_covariance,
    criterion_9_conditional_gap,
    criterion_10_planted_recovery,
    criterion_11_hard_gap_battery,
    criterion_12_singular_concentration,
    criterion_13_mgf,
    criterion_14_sketched_tvd,
]


def run_battery(fast=False, only=None, printer=print):
    """Run the acceptance battery; returns the list of records."""
    records = []
    for idx, fn in enumerate(ALL_CRITERIA, start=1):
        if only is not None and idx not in only:
            continue
        rec = fn(fast=fast)
        records.append(rec)
        status = "PASS" if rec["ok"] else "FAIL"
        printer(f"[{status}] criterion {rec['id']:2d}: {rec['name']} "
                f"({rec['elapsed_s']}s)")
    return records
