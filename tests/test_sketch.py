import math

import numpy as np
import pytest

from sketchlab import dgauss
from sketchlab import sketch as sketch_mod
from sketchlab.attack import AttackConfig
from sketchlab.errors import BadParams, DimensionMismatch
from sketchlab.lattice import integer_kernel_basis
from sketchlab.rng import derive
from sketchlab.intlinalg import FLOAT64_EXACT, INT64_GUARD
from sketchlab.sketch import (
    ExactNormOracle,
    GapNormOracle,
    GapNormParams,
    IntegerSketch,
    build_sketch,
)


def query_one(oracle, x):
    """An oracle's answer to the single query x, as a batch of one row."""
    return int(oracle.query_batch(np.asarray(x)[None, :])[0])


def apply_one(sk, x):
    """The exact product A x, as a batch of one row."""
    return sk.apply_batch(np.asarray(x)[None, :])[0]


class TestApplyAndStreams:
    def test_identity(self):
        sk = IntegerSketch.from_matrix(np.eye(5, dtype=np.int64))
        x = np.array([3, -1, 0, 7, 2])
        assert np.array_equal(apply_one(sk, x), x)

    def test_zero_vector(self):
        sk = build_sketch("sign", 16, 4, seed=1)
        assert np.array_equal(apply_one(sk, np.zeros(16, dtype=int)), np.zeros(4))

    def test_dimension_mismatch(self):
        sk = build_sketch("sign", 16, 4, seed=1)
        with pytest.raises(DimensionMismatch):
            apply_one(sk, np.zeros(15, dtype=int))

    def test_stream_order_invariance(self):
        rng = derive(31, "stream")
        sk = build_sketch("sign", 64, 8, seed=2)
        x = rng.integers(-100, 101, size=64)
        direct = apply_one(sk, x)
        for trial in range(3):
            order = rng.permutation(64)
            st = sk.new_stream()
            # ingest in permuted order, split into uneven chunks
            cuts = sorted(rng.choice(63, size=3, replace=False) + 1)
            for chunk in np.split(order, cuts):
                st.ingest_updates(chunk, x[chunk])
            assert np.array_equal(st.value, direct)
            assert st.update_count == 64

    def test_stream_incremental_updates(self):
        sk = build_sketch("countsketch", 32, 8, {"reps": 2}, seed=3)
        st = sk.new_stream()
        st.update(5, 10)
        st.update(5, -10)
        st.update(7, 3)
        x = np.zeros(32, dtype=int)
        x[7] = 3
        assert np.array_equal(st.value, apply_one(sk, x))

    def test_stream_does_not_wrap(self):
        # x = (2^62, 2^62, 0, ...): rows with equal signs in the first two
        # columns reach 2^63, one past int64
        sk = build_sketch("sign", 16, 4, seed=0)
        x = np.zeros(16, dtype=np.int64)
        x[0] = x[1] = 2**62
        assert 2**63 in np.abs(apply_one(sk, x)).tolist()
        st = sk.new_stream()
        st.ingest_vector(x)
        assert st.value.tolist() == apply_one(sk, x).tolist()
        st = sk.new_stream()
        st.update(0, 2**62)
        st.update(1, 2**62)
        st.update(1, -2**62)
        x[1] = 0
        assert st.value.tolist() == apply_one(sk, x).tolist()
        assert st.update_count == 3

    def test_linearity_exact(self):
        rng = derive(31, "lin")
        sk = build_sketch("rounded-gaussian", 32, 4, seed=4)
        x = rng.integers(-50, 51, size=32)
        y = rng.integers(-50, 51, size=32)
        assert np.array_equal(apply_one(sk, x + y), apply_one(sk, x) + apply_one(sk, y))


class TestBuildFamilies:
    def test_sign_unbiasedness(self):
        rng = derive(32, "sign")
        sk = build_sketch("sign", 256, 16, seed=5)
        ratios = []
        for _ in range(2000):
            x = rng.integers(-10, 11, size=256)
            nrm = float(x @ x)
            if nrm == 0:
                continue
            ratios.append(sk.l2_estimates(sk.apply_batch(x[None, :]))[0] / nrm)
        mean_ratio = float(np.mean(ratios))
        assert 0.9 <= mean_ratio <= 1.1

    def test_countsketch_column_property(self):
        sk = build_sketch("countsketch", 64, 16, {"reps": 4}, seed=6)
        A = sk.A.entries
        for block in sk.estimator["blocks"]:
            sub = A[block]
            nnz = np.count_nonzero(sub, axis=0)
            assert np.all(nnz == 1)
            assert set(np.unique(sub)) <= {-1, 0, 1}

    def test_countsketch_estimates(self):
        rng = derive(32, "cs-est")
        sk = build_sketch("countsketch", 128, 32, {"reps": 4}, seed=7)
        ratios = []
        for _ in range(800):
            x = rng.integers(-10, 11, size=128)
            ratios.append(sk.l2_estimates(sk.apply_batch(x[None, :]))[0] / float(x @ x))
        assert 0.85 <= float(np.mean(ratios)) <= 1.15

    @pytest.mark.parametrize("r", [8, 15])
    def test_one_block_countsketch_correction_is_exactly_one(self, r):
        # one block: the estimator is a plain mean of chi^2 means, unbiased
        # as it stands, so no Monte Carlo correction is drawn
        sk = build_sketch("countsketch", 128, r, seed=17)
        assert len(sk.estimator["blocks"]) == 1
        assert sk.estimator["median_correction"] == 1.0

    def test_rounded_gaussian_estimator(self):
        rng = derive(32, "rg")
        sk = build_sketch("rounded-gaussian", 128, 32, seed=8)
        ratios = []
        for _ in range(500):
            x = rng.integers(-10, 11, size=128)
            ratios.append(sk.l2_estimates(sk.apply_batch(x[None, :]))[0] / float(x @ x))
        assert 0.8 <= float(np.mean(ratios)) <= 1.2

    def test_projection_threshold_zero_answers_zero(self):
        sk = build_sketch("projection-threshold", 64, 4,
                          {"alpha": 2000.0, "B": 8.0}, seed=9)
        params = GapNormParams(B=8.0, alpha=2000.0)
        assert query_one(GapNormOracle(sk, params), np.zeros(64, dtype=int)) == 0

    # tau is fitted between the promise sides of GapNormParams(B, alpha), so
    # half a pair, or a pair that no oracle accepts, is refused before any draw
    @pytest.mark.parametrize("params, why", [
        ({"alpha": 800.0}, r"param \['alpha'\] needs params alpha and B"),
        ({"alpha": 1, "B": 2}, "B must be >= 8, got 2"),
        ({"alpha": -1, "B": 8}, "alpha must be positive, got -1"),
        ({"alpha": 0, "B": 8}, "alpha must be positive, got 0"),
    ], ids=["missing", "B-2", "alpha-negative", "alpha-0"])
    def test_projection_threshold_needs_params(self, params, why):
        with pytest.raises(BadParams, match=why):
            build_sketch("projection-threshold", 64, 4, params, seed=9)

    def test_unknown_family(self):
        with pytest.raises(BadParams):
            build_sketch("fourier", 64, 4)

    @pytest.mark.parametrize("family, params, key", [
        ("sign", {"grops": 2}, "grops"),
        ("rounded-gaussian", {"groups": 2}, "groups"),
        ("countsketch", {"reps": 2, "tau": 1.0}, "tau"),
        ("projection-threshold", {"alpha": 800.0, "B": 8.0, "tau": 1.0}, "tau"),
    ])
    def test_unknown_param_key_named(self, family, params, key):
        # a misspelt or foreign key is refused, not silently left at its default
        with pytest.raises(BadParams, match=f"config error at '{family}': '{key}' is unknown"):
            build_sketch(family, 64, 4, params, seed=9)

    @pytest.mark.parametrize("family, params, why", [
        ("sign", {"groups": 2.5}, "'sign/groups': must be an integer, got 2.5"),
        ("sign", {"groups": True}, "'sign/groups': must be an integer, got True"),
        ("countsketch", {"reps": 2.5}, "'countsketch/reps': must be an integer, got 2.5"),
        ("projection-threshold", {"alpha": 800.0, "B": 8.0, "m_cal": 16.7},
         "'projection-threshold/m_cal': must be an integer, got 16.7"),
        ("sign", {"alpha": True}, "'sign/alpha': must be a finite number, got True"),
        ("rounded-gaussian", {"entry_std": 0.0},
         "'rounded-gaussian/entry_std': must be a finite number > 0, got 0.0"),
    ], ids=["groups-2.5", "groups-true", "reps-2.5", "m_cal-16.7", "alpha-true", "entry_std-0"])
    def test_non_integral_or_bool_params_refused(self, family, params, why):
        # no value is truncated or read as a number by cast: 2.5 groups
        # built 2, True built 1 and m_cal 16.7 calibrated on 16 draws
        with pytest.raises(BadParams) as exc:
            build_sketch(family, 64, 4, params, seed=9)
        assert str(exc.value) == f"config error at {why}"

    @pytest.mark.parametrize("family, given, same", [
        ("sign", {"groups": 2.0}, {"groups": 2}),
        ("countsketch", {"reps": np.int64(2)}, {"reps": 2}),
        ("projection-threshold", {"alpha": 800, "B": 8, "m_cal": np.int32(16)},
         {"alpha": 800.0, "B": 8.0, "m_cal": 16}),
    ])
    def test_integral_numbers_build_the_same_sketch(self, family, given, same):
        # an integral float or a numpy integer reads as the int, an int
        # number as the float, and the params record the values read
        got = build_sketch(family, 64, 4, given, seed=9)
        want = build_sketch(family, 64, 4, same, seed=9)
        assert got.spec_json() == want.spec_json()
        assert np.array_equal(got.A.entries, want.A.entries)
        assert got.estimator.get("tau") == want.estimator.get("tau")
        assert [type(v) for v in got.params.values()] == [type(v) for v in want.params.values()]

    def test_entry_cap(self):
        with pytest.raises(BadParams):
            build_sketch("rounded-gaussian", 8, 2, {"entry_std": 1e6}, seed=1)

    def test_calibration_reports_rates(self):
        sk = build_sketch("projection-threshold", 128, 8,
                          {"alpha": 789.0, "B": 8.0}, seed=10)
        est = sk.estimator
        assert 0.0 <= est["false_low"] <= 1.0
        assert 0.0 <= est["false_high"] <= 1.0
        assert est["tau"] > 0

    def test_calibration_holds_one_side_at_a_time(self, traced_peak):
        # each side's m_cal x n batch is reduced to its statistic before the
        # next is drawn, and the float64 product runs in row blocks: at most
        # the int64 draw at once, besides the statistics, one block and the
        # sampler's buffer
        n, m_cal = 256, 4000
        alpha = dgauss.smoothing_sigma2(n, dgauss.SAMPLING_FLOOR_ELL_SQ)
        params = {"alpha": alpha, "B": 8.0, "m_cal": m_cal}
        build_sketch("projection-threshold", n, 8, params, seed=3)  # fill the sampler's caches
        _, peak = traced_peak(build_sketch, "projection-threshold", n, 8, params, seed=3)
        assert peak <= m_cal * n * 8 + 2**20

    @pytest.mark.parametrize("n, r, seed", [(64, 4, 0), (128, 8, 5), (256, 8, 0)])
    def test_calibration_rates_are_the_oracles_own(self, n, r, seed):
        # for every family, the oracle answering tau's own calibration draws
        # gives the counts the fit recorded: a draw at tau is answered 1 by
        # both. The draws follow the median correction's on one generator.
        alpha, B, m_cal = 197.2, 8.0, 2000
        gap = GapNormParams(B=B, alpha=alpha)
        for family in sketch_mod.FAMILIES:
            sk = build_sketch(family, n, r, {"alpha": alpha, "B": B, "m_cal": m_cal}, seed=seed)
            oracle = GapNormOracle(sk, gap)
            rng = derive(seed, "sketch-cal", family)
            if family in ("sign", "countsketch"):
                parts = sk.estimator["groups" if family == "sign" else "blocks"]
                sketch_mod._median_correction([len(p) for p in parts], rng)
            low, high = [oracle.query_batch(dgauss.sample_dgauss_1d(s2, rng, size=(m_cal, n)))
                         for s2 in gap.edges]
            assert (int(np.count_nonzero(low == 1)), int(np.count_nonzero(high == 0))) == (
                round(sk.estimator["false_low"] * m_cal),
                round(sk.estimator["false_high"] * m_cal)), family

    @pytest.mark.parametrize("family, params, fit", [
        ("sign", None, (None, None)),
        ("projection-threshold", None, (None, None)),
        ("raw", None, (None, None)),
        ("sign", {"alpha": 800.0, "B": 8.0}, (800.0, 8.0)),
        ("projection-threshold", {"alpha": 789.0, "B": 64.0}, (789.0, 64.0)),
    ], ids=["sign-no-promise", "projection-no-promise", "raw", "other-alpha", "other-B"])
    def test_oracle_refuses_a_sketch_fit_for_another_promise(self, family, params, fit):
        # a sketch built without alpha and B has no tau, and one fit for
        # another promise would answer from the wrong tau
        sk = (IntegerSketch.from_matrix(np.eye(4, 64, dtype=np.int64)) if family == "raw"
              else build_sketch(family, 64, 4, params, seed=9))
        with pytest.raises(BadParams) as exc:
            GapNormOracle(sk, GapNormParams(B=8.0, alpha=789.0))
        assert str(exc.value) == (f"the {family} sketch's tau is fit for (alpha, B) = {fit}, "
                                  "not the oracle's promise (789.0, 8.0)")

    @pytest.mark.parametrize("family", ("sign", "projection-threshold", "raw"))
    def test_gap_bits_refuses_a_sketch_without_tau(self, family):
        # the public method, called past the oracle, gives a typed error
        sk = (IntegerSketch.from_matrix(np.eye(2, 16, dtype=np.int64)) if family == "raw"
              else build_sketch(family, 16, 2, seed=1))
        with pytest.raises(BadParams, match=f"the {family} sketch has no tau"):
            sk.gap_bits(np.zeros((1, 2)))


@pytest.mark.parametrize("n", (64, 128, 256))
@pytest.mark.parametrize("family", sketch_mod.FAMILIES)
def test_estimate_does_not_depend_on_the_batch(family, n):
    # a row's estimate is the same in batches of 1, 2, 7 and 300 rows: a
    # lone row would otherwise take numpy's matrix-vector product
    params = {"alpha": 800.0, "B": 8.0} if family == "projection-threshold" else None
    sk = build_sketch(family, n, 8, params, seed=n)
    X = np.rint(derive(36, "batch", n).standard_normal((300, n)) * 30).astype(np.int64)
    Y = sk.apply_batch(X)
    whole = sk.l2_estimates(Y)
    for size in (1, 2, 7, 300):
        parts = [sk.l2_estimates(Y[i:i + size]) for i in range(0, 300, size)]
        assert np.array_equal(np.concatenate(parts), whole), size


class TestGapNormParams:
    def test_sides_meet_their_edges_inclusively(self):
        gap = GapNormParams(B=8.0, alpha=10.0)
        low, high = gap.edges
        assert (low, high) == (20.0, 40.0)
        assert gap.side(low) == "low" and gap.side(high) == "high"
        assert gap.side(np.nextafter(low, np.inf)) is None
        assert gap.side(np.nextafter(high, -np.inf)) is None

    def test_windows_and_violations_on_exact_lengths(self):
        # n = 4: the promise asks for 0 at ||x||^2 <= 40 and 1 at >= 320; at
        # d = 0 the high window is ||x||^2 > 320/3 answered 0, the low one
        # < 120 answered 1
        gap = GapNormParams(B=8.0, alpha=10.0)
        norms = np.array([40, 41, 319, 320])
        answers = np.array([1, 1, 0, 0], dtype=np.int8)
        assert gap.exploits("high", norms, answers, 4).tolist() == [False, False, True, True]
        assert gap.exploits("low", norms, answers, 4).tolist() == [True, True, False, False]
        assert gap.violations(norms, answers, 4) == 2
        assert gap.violations(norms, 1 - answers, 4) == 0


class TestGapNormOracle:
    def setup_method(self):
        self.alpha, self.B = 789.0, 8.0
        self.sk = build_sketch("projection-threshold", 64, 4,
                               {"alpha": self.alpha, "B": self.B}, seed=11)
        self.params = GapNormParams(B=self.B, alpha=self.alpha)
        self.oracle = GapNormOracle(self.sk, self.params)

    def test_kernel_blindness(self):
        kb = integer_kernel_basis(self.sk.A)
        v = np.array(kb.vectors[0], dtype=np.int64)
        # scale to push the true norm past alpha*B: the sketch still sees 0
        target = 2.0 * self.alpha * self.B
        scale = int(math.ceil(math.sqrt(target / float(v @ v))))
        x = scale * v
        assert float(x @ x) >= target
        assert np.array_equal(apply_one(self.sk, x), np.zeros(4, dtype=np.int64))
        assert query_one(self.oracle, x) == 0

    def test_oracle_purity(self):
        rng = derive(33, "pure")
        kb = integer_kernel_basis(self.sk.A)
        k = np.array(kb.vectors[0], dtype=np.int64)
        x = rng.integers(-30, 31, size=64)
        bits = {query_one(self.oracle, x + t * k) for t in range(-2, 3)}
        assert len(bits) == 1  # equal A x implies equal answer

    def test_level_set_invariance(self):
        # the projection-threshold bit depends on y = A x only through ||R y||
        rng = derive(33, "level")
        y = rng.standard_normal(4) * 50
        w = self.sk.working_value(y)
        # rotate the working value, map back through R^{-1}
        theta = 0.7
        rot = np.eye(4)
        rot[:2, :2] = [[math.cos(theta), -math.sin(theta)],
                       [math.sin(theta), math.cos(theta)]]
        y2 = np.linalg.solve(self.sk.R, rot @ w)
        bit, bit2 = (self.sk.gap_bits(v[None, :])[0] for v in (y, y2))
        assert bit == bit2

    def test_measured_spike_rate_reported(self):
        # single spike of squared norm 2 alpha B: measured (not asserted) rate
        rng = derive(33, "spike")
        hits = 0
        trials = 200
        mag = int(math.ceil(math.sqrt(2 * self.alpha * self.B)))
        for _ in range(trials):
            x = np.zeros(64, dtype=np.int64)
            x[rng.integers(0, 64)] = mag
            hits += query_one(self.oracle, x)
        assert 0 <= hits <= trials  # reported, not asserted


@pytest.mark.parametrize("family", ["sign", "countsketch", "rounded-gaussian"])
def test_estimator_families_separate_the_promise_sides(family):
    # isotropic queries at the attack's certificate variances 2 alpha and
    # alpha B / 2: at B = 64 the estimate against its fitted tau answers
    # them right beyond the termination resolution zeta
    n, alpha, m = 128, 200.0, 2000
    params = GapNormParams(B=64.0, alpha=alpha)
    zeta = AttackConfig(params, m=m).effective_zeta(n)
    sk = build_sketch(family, n, 8, {"alpha": alpha, "B": params.B}, seed=3)
    oracle = GapNormOracle(sk, params)
    rng = derive(36, "sides", family)
    low = oracle.query_batch(dgauss.sample_dgauss_1d(2.0 * alpha, rng, size=(m, n)))
    high = oracle.query_batch(dgauss.sample_dgauss_1d(alpha * params.B / 2.0, rng, size=(m, n)))
    assert float(np.mean(low)) < zeta
    assert float(np.mean(high)) > 1.0 - zeta


# each family's own params; the tests build it with the promise PROMISE
FAMILY_PARAMS = (
    ("sign", None),
    ("rounded-gaussian", None),
    ("countsketch", {"reps": 2}),
    ("projection-threshold", {"alpha": 300.0, "B": 8.0}),
)
PROMISE = {"alpha": 300.0, "B": 8.0}


def straddling_queries(sk, k, rng):
    """Integer queries whose estimates spread across the sketch's tau: each
    row is scaled so its estimate lands at a random factor in [1/4, 4] of
    tau."""
    mid = sk.estimator["tau"]
    X = rng.integers(-20, 21, size=(k, sk.n))
    est = np.array([sk.l2_estimates(sk.apply_batch(x[None, :]))[0] for x in X])
    factor = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=k))
    scale = np.sqrt(factor * mid / np.maximum(est, 1.0))
    return np.rint(X * scale[:, None]).astype(np.int64)


def reference_estimate(sk, y):
    """||x||^2 estimate from y = A x, written out per family."""
    y = np.asarray(y, dtype=float)
    est = sk.estimator
    if sk.family == "sign":
        return np.median([np.mean(y[g] ** 2) for g in est["groups"]]) * est["median_correction"]
    if sk.family == "countsketch":
        return np.median([np.sum(y[b] ** 2) for b in est["blocks"]]) * est["median_correction"]
    w = np.linalg.solve(np.linalg.inv(sk.R), y)  # Q x = R y
    scale = sk.n / sk.r if sk.family == "rounded-gaussian" else 1.0
    return scale * float(w @ w)


class TestBatchOracle:
    @pytest.mark.parametrize("family,fam_params", FAMILY_PARAMS)
    def test_batch_matches_stream(self, family, fam_params):
        sk = build_sketch(family, 64, 8, dict(fam_params or {}, **PROMISE), seed=41)
        params = GapNormParams(**PROMISE)
        X = straddling_queries(sk, 400, derive(35, "straddle", family))
        oracle = GapNormOracle(sk, params)
        bits = oracle.query_batch(X)
        assert oracle.query_count == len(X)
        streamed = []
        for x in X:
            st = sk.new_stream()
            st.ingest_vector(x)
            streamed.append(int(sk.gap_bits(st.value[None, :])[0]))
        assert bits.dtype == np.int8
        assert bits.tolist() == streamed
        assert 0.2 <= float(np.mean(bits)) <= 0.8  # the batch straddles the threshold
        mid = sk.estimator["tau"]
        ref = np.array([reference_estimate(sk, apply_one(sk, x)) for x in X])
        differ = bits != (ref >= mid)
        assert np.all(np.abs(ref[differ] - mid) <= 1e-9 * mid)
        assert [query_one(oracle, x) for x in X[:20]] == streamed[:20]
        assert oracle.query_count == len(X) + 20

    def test_projection_bits_match_rowspan_energy(self):
        sk = build_sketch("projection-threshold", 64, 8, {"alpha": 300.0, "B": 8.0}, seed=42)
        params = GapNormParams(B=8.0, alpha=300.0)
        X = straddling_queries(sk, 1000, derive(35, "rowspan"))
        bits = GapNormOracle(sk, params).query_batch(X)
        # ||P_rowspan(A) x||^2 from A alone, by least squares
        A = sk.A.entries.astype(float)
        coef = np.linalg.lstsq(A.T, X.T.astype(float), rcond=None)[0]
        energy = np.sum((A.T @ coef) ** 2, axis=0)
        tau = sk.estimator["tau"]
        exact = (energy >= tau).astype(np.int8)
        differ = bits != exact
        assert np.all(np.abs(energy[differ] - tau) <= 1e-9 * tau)
        assert 0.2 <= float(np.mean(exact)) <= 0.8

    @pytest.mark.parametrize("family,fam_params", FAMILY_PARAMS)
    def test_int64_guard_object_fallback(self, family, fam_params):
        sk = build_sketch(family, 64, 8, dict(fam_params or {}, **PROMISE), seed=43)
        params = GapNormParams(**PROMISE)
        big = 2**62 // (sk.A.max_abs_entry() * sk.n) + 1
        rng = derive(35, "guard", family)
        X = rng.integers(-3, 4, size=(6, sk.n)).astype(object) * big
        X[0] = 0
        X[1, 0] = big  # one large entry trips the guard for the whole batch
        Y = sk.apply_batch(X)
        assert Y.dtype == object and Y.shape == (6, sk.r)
        rows = sk.A.to_lists()
        exact = [[sum(a * int(b) for a, b in zip(row, x)) for row in rows] for x in X]
        assert Y.tolist() == exact
        assert all(isinstance(v, int) for v in Y.ravel())
        oracle = GapNormOracle(sk, params)
        bits = oracle.query_batch(X)
        assert oracle.query_count == 6
        assert bits.tolist() == [sk.gap_bits(np.array([y], dtype=object))[0]
                                for y in exact]
        assert bits[0] == 0
        # below the guard the same rows take the int64 path and agree exactly
        small = X // big
        assert sk.apply_batch(small).dtype == np.int64
        assert (sk.apply_batch(small) * big).tolist() == exact

    @pytest.mark.parametrize("family,fam_params", FAMILY_PARAMS)
    def test_float64_tier_matches_int64_and_python(self, family, fam_params):
        sk = build_sketch(family, 64, 8, fam_params, seed=45)
        rows = sk.A.to_lists()
        rng = derive(35, "tiers", family)
        for x_max in (1, 300, FLOAT64_EXACT // (sk.A.max_abs_entry() * sk.n) - 1):
            X = rng.integers(-x_max, x_max + 1, size=(50, sk.n))
            X[0, :] = x_max  # one row at the largest partial sums of the tier
            Y = sk.apply_batch(X)
            assert Y.dtype == np.int64
            assert np.array_equal(Y, X @ sk.A.entries.T)
            assert Y.tolist() == [[sum(a * int(b) for a, b in zip(row, x)) for row in rows]
                                  for x in X]

    def test_batch_past_float64_guard_is_exact(self):
        sk = IntegerSketch.from_matrix([[1] * 64, [1, -1] * 32])
        # just past the float64 guard (n M max|x| = 2^53 + 64); row 1's first
        # sum, 2^53 + 63, is odd and so has no float64 representation
        x_max = FLOAT64_EXACT // 64 + 1
        assert FLOAT64_EXACT <= 64 * x_max < INT64_GUARD
        X = np.full((3, 64), x_max, dtype=np.int64)
        X[1, 0] = x_max - 1
        X[2, ::2] = -x_max
        Y = sk.apply_batch(X)
        assert Y.dtype == np.int64
        exact = [[sum(a * int(b) for a, b in zip(row, x)) for row in sk.A.to_lists()]
                 for x in X]
        assert Y.tolist() == exact
        assert (X.astype(float) @ sk.A.entries.T.astype(float)).astype(np.int64).tolist() != exact

    def test_one_row_batches_match_the_full_batch(self):
        sk = build_sketch("rounded-gaussian", 32, 4, seed=44)
        X = derive(35, "rows").integers(-50, 51, size=(10, 32))
        Y = sk.apply_batch(X)
        assert Y.shape == (10, 4)
        assert all(np.array_equal(apply_one(sk, x), y) for x, y in zip(X, Y))
        with pytest.raises(DimensionMismatch):
            sk.apply_batch(np.zeros((3, 31), dtype=int))
        assert sk.apply_batch(np.zeros((0, 32), dtype=int)).shape == (0, 4)


class TestExactNormOracle:
    def test_threshold_semantics(self):
        # the threshold is 3 alpha n = 4800, between 69^2 and 70^2
        params = GapNormParams(B=8.0, alpha=100.0)
        oracle = ExactNormOracle(16, params)
        assert oracle.threshold == 4800.0
        assert query_one(oracle, np.array([70] + [0] * 15)) == 1
        assert query_one(oracle, np.array([69] + [0] * 15)) == 0

    def test_batch_matches_single(self):
        params = GapNormParams(B=8.0, alpha=100.0)
        oracle = ExactNormOracle(8, params)
        rng = derive(34, "batch")
        X = rng.integers(-60, 61, size=(50, 8))
        batch = oracle.query_batch(X)
        singles = [query_one(oracle, x) for x in X]
        assert batch.tolist() == singles


class TestSpecSerialization:
    def test_replayable_spec(self):
        import json
        sk = build_sketch("sign", 32, 8, seed=77)
        spec = json.loads(sk.spec_json())
        sk2 = build_sketch(spec["family"], spec["n"], spec["r"],
                           spec["params"], seed=spec["seed"])
        assert np.array_equal(sk.A.entries, sk2.A.entries)
