"""The acceptance battery: one function per criterion, each returning a
record {"id", "name", "ok", "elapsed_s", "detail"}.

tests/test_acceptance.py asserts these records; `sketchlab suite acceptance`
prints one pass/fail line per criterion and exits 2 on any failure. All
tolerances are pinned here, not in the callers.
"""

import functools
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
from .sketch import (
    ExactNormOracle,
    GapNormOracle,
    GapNormParams,
    IntegerSketch,
    build_sketch,
)


def auto_alpha(sketch):
    """Automatic alpha policy: the smoothing variance of the sketch's
    orthogonal lattice, `dgauss.smoothing_sigma2(n, ell^2)` for a certified
    length ell, floored at the sampling floor 8 r0^2 (its value at
    SAMPLING_FLOOR_ELL_SQ). Returns (alpha, ell).

    The lattice term holds for any n - r independent orthogonal-lattice
    vectors (the lambda_n smoothing bound), not only an LLL basis. So ell
    comes first from the pairwise-reduced HNF kernel basis
    (`lattice.pairwise_reduced_kernel`), kept when every squared length is
    below SAMPLING_FLOOR_ELL_SQ, where the floor binds, and at most n M^2,
    where pre-processing would keep A' = A. Otherwise, and when r > n/4
    (TooManyRows), ell is the certified length of the pre-processed sketch
    (`preprocess_sketch`: kernel + LLL)."""
    A, n = sketch.A, sketch.n
    M = A.max_abs_entry()
    floor_ell_sq = dgauss.SAMPLING_FLOOR_ELL_SQ
    kb = (pairwise_reduced_kernel(A, min(floor_ell_sq, n * M * M + 1))
          if 4 * A.rows <= n else None)
    if kb is None:
        _, kb = preprocess_sketch(A)
    ell = max(kb.certified_max_len, 1.0)
    floor = dgauss.smoothing_sigma2(n, floor_ell_sq)
    return max(dgauss.smoothing_sigma2(n, ell**2), floor), ell


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
        lattice_term = dgauss.smoothing_sigma2(n, ell**2)
        binds = "lattice" if alpha == lattice_term else "floor"
        if calibrated:
            sk = build(alpha)
    else:
        alpha, lattice_term, binds = float(policy), None, "fixed"
        sk = build(alpha)
    alpha_report = {
        "alpha_floor": dgauss.smoothing_sigma2(n, dgauss.SAMPLING_FLOOR_ELL_SQ),
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


ALL_CRITERIA = []


def criterion(cid, name):
    """Append a criterion to ALL_CRITERIA (criteria are defined in id order,
    so entry i - 1 is criterion i). The criterion returns (ok, detail); the
    registered function times it and returns the record
    {"id", "name", "ok", "elapsed_s", "detail"}."""
    def register(check):
        @functools.wraps(check)
        def run(fast=False):
            t0 = time.time()
            ok, detail = check(fast)
            return {"id": cid, "name": name, "ok": bool(ok),
                    "elapsed_s": round(time.time() - t0, 2), "detail": detail}
        ALL_CRITERIA.append(run)
        return run
    return register


# the attack block of criteria 1, 2 and 9
ATTACK = {"n": 128, "r": 8, "family": "projection-threshold", "B": 8.0,
          "m": 2000, "grid": {"points": 16}}


@criterion(1, "attack end-to-end (certificate + exploit)")
def criterion_1_attack_end_to_end(fast):
    """Certificate + >= 1 verified integer exploit in >= 8/10 seeded runs
    against the projection-threshold sketch (n=128, r=8, B=8, m=2000,
    16-point geometric grid); each run <= 5 minutes."""
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
    return ok, {"wins": wins, "runs": runs, "per_run": per_run}


@criterion(2, "negative control (ground-truth oracle)")
def criterion_2_negative_control(fast):
    """Zero verified certificates over 100 seeded runs against the exact
    ground-truth oracle."""
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
    return verified == 0, {"runs": runs, "certificates": certs, "verified": verified}


@criterion(3, "Siegel short-kernel bound")
def criterion_3_siegel(fast):
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
    ok = violations == 0 and time.time() - t0 <= 60
    return ok, {"trials": trials, "violations": violations}


@criterion(4, "pre-processing length bound")
def criterion_4_preprocessing(fast):
    """100 random A in Z^{3x32} with M=50: certified orthogonal-lattice basis
    length <= sqrt(32)*50 in >= 95 runs."""
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
    ok = good >= int(0.95 * trials)
    return ok, {"good": good, "trials": trials, "target": target, "failures": failures}


@criterion(5, "pmf ratio (discrete vs rounded continuous)")
def criterion_5_pmf_ratio(fast):
    rep = stats.pmf_ratio_check(sigma2=10_000.0, n=10, C=2)
    return rep["ok"], rep


@criterion(6, "normalization constant bracket")
def criterion_6_normalization(fast):
    reports = [dgauss.verify_normalization_fact(s2)
               for s2 in (0.5, 1.0, 4.0, 100.0, 1e6)]
    return all(r["ok"] for r in reports), reports


@criterion(7, "cell lemma (noise path + rounding path)")
def criterion_7_cell_lemma(fast):
    """r=2, n=8, sigma^2=1e8: both cell-lemma paths at TVD <= 0.05."""
    rng = derive(7, "cell")
    while True:
        A = rng.integers(-10, 11, size=(2, 8))
        if np.linalg.matrix_rank(A.astype(float)) == 2:
            break
    sk = IntegerSketch.from_matrix(A, seed=7)
    trials = 20_000 if fast else 100_000
    rep = stats.cell_lemma_check(sk, 1e8, trials=trials,
                                 rng=derive(7, "cell-run"))
    return rep["pass"], rep


@criterion(8, "subspace-Gaussian covariance")
def criterion_8_subspace_covariance(fast):
    """n=16, dim V = 2, sigma^2=1e4: measured E<w,x>^2 within 5% of
    sigma^2/4 on V and sigma^2 off V."""
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
    return ok, {k: {"measured": g, "target": w} for k, (g, w) in checks.items()}


@criterion(9, "conditional-gap diagnostic")
def criterion_9_conditional_gap(fast):
    """Delta-hat for a sketch row exceeds Delta-hat for a random direction
    orthogonal to the rowspan by >= 3 combined standard errors."""
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
        return False, "no grid point with positive rate in [0.1, 0.9]"
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
    return sep >= 3.0 * se, {"sigma2": s2, "rate_probe": rate, "row": rep_row,
                             "random_perp": rep_rand, "separation": sep,
                             "combined_se": se}


class _PlantedOracle:
    """Synthetic oracle: 1 iff <u, x>^2 >= 3 sigma0^2 for a planted unit u."""

    def __init__(self, u, sigma0_sq):
        self.u = np.asarray(u, dtype=float)
        self.n = len(self.u)
        self.thresh = 3.0 * sigma0_sq

    def query_batch(self, X):
        d = np.asarray(X, float) @ self.u
        return (d * d >= self.thresh).astype(np.int8)


@criterion(10, "planted-direction recovery")
def criterion_10_planted_recovery(fast):
    """Planted-direction recovery: |<v, u>| >= 0.9 in >= 9/10 seeded runs
    (n=64, m=5000 samples at a grid point with positive rate in [0.05, 0.3])."""
    n = 64
    runs = 4 if fast else 10
    wins = 0
    rates = []
    for i in range(runs):
        rng = derive(10, "plant", i)
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        s2 = 4.0 * dgauss.smoothing_sigma2(n, dgauss.SAMPLING_FLOOR_ELL_SQ)
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
    return wins >= need, {"wins": wins, "runs": runs, "positive_rates": rates}


@criterion(11, "hard-distribution gap events (8 families)")
def criterion_11_hard_gap_battery(fast):
    """Every family, at its default parameters, has its separating event hold
    on the correct side in at least 95/100 seeded pairs; full battery <= 10
    minutes."""
    t0 = time.time()
    pairs = 20 if fast else 100
    need = int(0.95 * pairs)
    results = {}
    ok = True
    for name in harddist.FAMILY_NAMES:
        rep = harddist.gap_event_battery(harddist.HardFamily(name), pairs=pairs, seed=111)
        results[name] = {"both_hold": rep["both_hold"], "pairs": pairs}
        ok = ok and rep["both_hold"] >= need
    return ok and time.time() - t0 <= 600, results


@criterion(12, "singular-value concentration")
def criterion_12_singular_concentration(fast):
    trials = 20 if fast else 100
    rep = harddist.singular_value_concentration(
        400, 100, 1e4, trials, derive(12, "svc")
    )
    return rep["all_inside"] >= int(0.95 * trials), {
        "all_inside": rep["all_inside"], "trials": trials, "lo": rep["lo"], "hi": rep["hi"]}


@criterion(13, "MGF cross-term bound")
def criterion_13_mgf(fast):
    trials = 200_000 if fast else 1_000_000
    reports = {}
    ok = True
    for a in (0.0, 0.5):
        rep = harddist.mgf_cross_term_check(a, 1e4, trials, derive(13, "mgf", int(a * 10)))
        reports[str(a)] = rep
        ok = ok and rep["ok"]
    return ok, reports


@criterion(14, "sketched indistinguishability (small vs large spike)")
def criterion_14_sketched_tvd(fast):
    """opnorm family, d=1 sketch: small-spike TVD <= 0.15; a decisively
    large spike reads >= 0.5 as the sanity control."""
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
    return ok, {"small_spike_tvd": rep_small["tvd"], "large_spike_tvd": rep_big["tvd"]}


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
