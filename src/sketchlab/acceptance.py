"""The acceptance battery: one function per criterion, each returning a
record {"id", "name", "ok", "elapsed_s", "detail"}.

tests/test_acceptance.py asserts these records; `sketchlab suite acceptance`
prints one pass/fail line per criterion and exits 2 on any failure. All
tolerances are pinned here, not in the callers.
"""

import functools
import math
import sys
import time

import numpy as np

from . import dgauss, harddist, stats
from .attack import KNOBS, AttackConfig, conditional_gap_estimate, run_and_verify
from .errors import BadParams, BoundViolated, LengthBoundUnachieved, TooManyRows
from .fields import REQUIRED, config_error, read_fields, read_value
from .lattice import IntMatrix, preprocess_sketch, short_kernel_vector
from .numerics import OrthonormalBasis, top_right_singular_vector
from .rng import derive
from .sketch import _FIELDS as _SKETCH_FIELDS
from .sketch import (
    FAMILIES,
    ExactNormOracle,
    GapNormOracle,
    GapNormParams,
    build_sketch,
)


def auto_alpha(sketch):
    """Automatic alpha policy, from the public parameters n and M (the
    largest |entry| of A, 1 for the +-1 families): the lattice term
    `dgauss.smoothing_sigma2(n, n M^2)`, floored at the sampling floor
    8 r0^2 (its value at SAMPLING_FLOOR_ELL_SQ). Returns (alpha, report),
    the report holding "alpha_floor", "alpha_lattice_term" and which of the
    two binds, "alpha_binds" ("lattice" where they are equal).

    Pre-processing certifies n - 4r independent vectors of the orthogonal
    lattice, each of length at most sqrt(n) M, and the lambda_n smoothing
    bound holds for any such vectors, so this alpha covers every sketch that
    pre-processing accepts; nothing about the lattice is computed. Raises
    TooManyRows if r > n/4, as pre-processing would."""
    A, n = sketch.A, sketch.n
    if 4 * A.rows > n:
        raise TooManyRows(f"pre-processing requires r <= n/4 (got r={A.rows}, n={n})")
    M = A.max_abs_entry()
    floor = dgauss.smoothing_sigma2(n, dgauss.SAMPLING_FLOOR_ELL_SQ)
    term = dgauss.smoothing_sigma2(n, n * M * M)
    binds = "lattice" if term >= floor else "floor"
    return max(term, floor), {"alpha_floor": floor, "alpha_lattice_term": term,
                              "alpha_binds": binds}


# key -> (kinds, bound, default) for each key of a config block, read by
# fields.read_fields; the attack's own knobs by their attack.KNOBS entries
GRID_FIELDS = {"kind": (("geometric",), (), "geometric"), "points": KNOBS["grid_points"]}
ATTACK_FIELDS = {
    "n": ((int,), ((">=", 8),), REQUIRED),
    "r": ((int,), ((">=", 1),), REQUIRED),
    "family": (FAMILIES, (), REQUIRED),
    "B": ((float,), ((">=", 8),), REQUIRED),
    "family_params": ((dict,), (), {}),  # the family's params but alpha and B
    "alpha_policy": (("auto", float), ((">", 0),), "auto"),
    "m": KNOBS["m"],
    "grid": ((dict,), (), {}),  # read by GRID_FIELDS
    "seeds": ((list,), (), [0]),  # distinct, each read as RUN_SEED
    "round_cap": KNOBS["round_cap"],
    # no rate certifies above 1, which a config refuses and AttackConfig takes
    "zeta": (KNOBS["zeta"][0], KNOBS["zeta"][1] + (("<=", 1),), KNOBS["zeta"][2]),
    "verify_trials": KNOBS["verify_trials"],
    "verify": ((bool,), (), True),
}
# a run seed keys its streams by its low 32 bits (rng._key): 2**32 would rerun 0
RUN_SEED = ((int,), ((">=", 0), ("<", 2**32)))


def read_attack_block(block):
    """A config's `attack` block read by ATTACK_FIELDS, every default filled
    and every integer field a Python int; nothing is built."""
    acfg = read_fields(block, ATTACK_FIELDS, ("attack",))
    acfg["grid"] = read_fields(acfg["grid"], GRID_FIELDS, ("attack", "grid"))
    seeds = acfg["seeds"] = [read_value(s, *RUN_SEED, ("attack", "seeds", i))
                             for i, s in enumerate(acfg["seeds"])]
    if len(set(seeds)) < len(seeds) or not seeds:
        why = "has non-unique elements" if seeds else "should be non-empty"
        raise config_error(("attack", "seeds"), f"{block['seeds']!r} {why}")
    # the block sets alpha and B itself
    own = {k: v for k, v in _SKETCH_FIELDS[acfg["family"]].items() if k not in ("alpha", "B")}
    acfg["family_params"] = read_fields(acfg["family_params"], own, ("attack", "family_params"))
    return acfg


def attack_setup(acfg, seed):
    """The attacked sketch, its GapNormParams and AttackConfig for a config's
    `attack` block (read by read_attack_block) and sketch seed, and how alpha
    was set: the sampling floor, the lattice term smoothing_sigma2(n, n M^2)
    (None for a fixed alpha) and which of floor, lattice or fixed binds."""
    acfg = read_attack_block(acfg)
    n, r, family, B = acfg["n"], acfg["r"], acfg["family"], acfg["B"]
    fam_params, policy = acfg["family_params"], acfg["alpha_policy"]
    if policy == "auto":
        # auto_alpha reads only A's shape and entry bound, so its probe is
        # built without the promise: no tau, and no m_cal, which needs one
        own = {k: v for k, v in fam_params.items() if k != "m_cal"}
        alpha, alpha_report = auto_alpha(build_sketch(family, n, r, own, seed=seed))
    else:
        alpha = policy
        alpha_report = {"alpha_floor": dgauss.smoothing_sigma2(n, dgauss.SAMPLING_FLOOR_ELL_SQ),
                        "alpha_lattice_term": None, "alpha_binds": "fixed"}
    sk = build_sketch(family, n, r, dict(fam_params, alpha=alpha, B=B), seed=seed)
    params = GapNormParams(B=B, alpha=alpha)
    cfg = AttackConfig(gap=params, m=acfg["m"], grid_points=acfg["grid"]["points"],
                       round_cap=acfg["round_cap"], zeta=acfg["zeta"],
                       verify_trials=acfg["verify_trials"])
    return sk, params, cfg, alpha_report


def calibration_vs_zeta(sketch, cfg):
    """The sketch's calibrated promise-side error rates next to the attack's
    termination rate: {"zeta", "false_low", "false_high"}. A rate above zeta
    lets a round certify on the sketch's isotropic error alone, with nothing
    learned, so that case prints one line to stderr (stdout carries the
    CLI's report)."""
    rates = {"zeta": cfg.effective_zeta(sketch.n),
             "false_low": sketch.estimator["false_low"],
             "false_high": sketch.estimator["false_high"]}
    over = [f"{k} {rates[k]:.3g}" for k in ("false_low", "false_high")
            if rates[k] > rates["zeta"]]
    if over:
        print(f"sketchlab: {sketch.family} sketch seed {sketch.seed}: calibration "
              f"{' and '.join(over)} above zeta {rates['zeta']:.3g}; a certificate "
              "needs no learned direction", file=sys.stderr)
    return rates


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


def _end_to_end_run(i):
    """Criterion 1's run i, on its own sketch (seed 1000 + i)."""
    t_run = time.time()
    sk, params, cfg, _ = attack_setup(ATTACK, 1000 + i)
    out, rep = run_and_verify(GapNormOracle(sk, params), sk.r, cfg,
                              derive(77, "attack", i), derive(77, "verify", i))
    return {"seed": 1000 + i, "win": bool(rep and rep["exploit_count"]),
            "outcome": out.outcome, "elapsed_s": round(time.time() - t_run, 2),
            "promise_violations": rep["promise_violations"] if rep else None,
            **calibration_vs_zeta(sk, cfg)}


@criterion(1, "attack end-to-end (certificate + exploit)")
def criterion_1_attack_end_to_end(fast):
    """Certificate + >= 1 verified integer exploit in >= 8/10 seeded runs
    against the projection-threshold sketch (n=128, r=8, B=8, m=2000,
    16-point geometric grid); each run <= 5 minutes."""
    runs = 3 if fast else 10
    per_run = [_end_to_end_run(i) for i in range(runs)]
    wins = sum(r["win"] for r in per_run)
    need = 2 if fast else 8
    ok = wins >= need and all(r["elapsed_s"] <= 300 for r in per_run)
    return ok, {"wins": wins, "runs": runs, "per_run": per_run}


@criterion(2, "negative control (ground-truth oracle)")
def criterion_2_negative_control(fast):
    """Zero verified certificates over 100 seeded runs against the exact
    ground-truth oracle, all on the seed-4242 sketch."""
    runs = 10 if fast else 100
    sk, params, cfg, _ = attack_setup(ATTACK, 4242)
    certs = verified = 0
    for i in range(runs):
        out, rep = run_and_verify(ExactNormOracle(sk.n, params), sk.r, cfg,
                                  derive(88, "neg", i), derive(88, "neg-verify", i))
        certs += out.certificate is not None
        verified += bool(rep and rep["exploit_count"])
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
        except BoundViolated:
            violations += 1
    ok = violations == 0 and time.time() - t0 <= 60
    return ok, {"trials": trials, "violations": violations}


@criterion(4, "pre-processing length bound")
def criterion_4_preprocessing(fast):
    """100 random A in Z^{3x32} with M=50: certified orthogonal-lattice basis
    length <= sqrt(32)*50 in >= 95 runs. Records each run's A' row count and
    entry bound, and the largest bound."""
    trials = 20 if fast else 100
    rng = derive(4, "prep")
    target = math.sqrt(32) * 50
    good = 0
    failures = []
    runs = []
    for i in range(trials):
        A = rng.integers(-50, 51, size=(3, 32))
        try:
            Ap, kb = preprocess_sketch(IntMatrix.from_rows(A, bound=50))
            runs.append({"rows": Ap.rows, "bound": Ap.bound})
            if kb.certified_max_len <= target:
                good += 1
            else:
                failures.append({"trial": i, "achieved": kb.certified_max_len})
        except LengthBoundUnachieved as exc:
            failures.append({"trial": i, "achieved": exc.achieved})
    ok = good >= int(0.95 * trials)
    return ok, {"good": good, "trials": trials, "target": target, "failures": failures,
                "runs": runs, "max_bound": max((run["bound"] for run in runs), default=None)}


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
    """r=2, n=8, sigma^2=1e8: each cell-lemma path's TVD at most the
    permutation null bound of its own samples."""
    sk = stats.cell_lemma_sketch(2, 8, derive(7, "cell"), seed=7)
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
    """At a in {0, 0.2}, below 1/4, where the estimator's standard error is
    trustworthy (see harddist.mgf_cross_term_check)."""
    trials = 200_000 if fast else 1_000_000
    reports = {}
    ok = True
    for a in (0.0, 0.2):
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
    """Run the acceptance battery, or the criteria whose ids are in `only`;
    returns the list of records. Raises BadParams for an unknown id."""
    unknown = sorted(set(only or ()) - set(range(1, len(ALL_CRITERIA) + 1)))
    if unknown:
        raise BadParams(f"unknown criterion id(s) {unknown}; ids run 1-{len(ALL_CRITERIA)}")
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
