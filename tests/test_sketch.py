import math

import numpy as np
import pytest

from sketchlab.errors import BadParams, DimensionMismatch
from sketchlab.lattice import integer_kernel_basis
from sketchlab.rng import derive
from sketchlab.intlinalg import INT64_GUARD
from sketchlab.sketch import (
    FLOAT64_EXACT,
    ExactNormOracle,
    GapNormOracle,
    GapNormParams,
    IntegerSketch,
    build_sketch,
)


def query_one(oracle, x):
    """An oracle's answer to the single query x, as a batch of one row."""
    return int(oracle.query_batch(np.asarray(x)[None, :])[0])


class TestApplyAndStreams:
    def test_identity(self):
        sk = IntegerSketch.from_matrix(np.eye(5, dtype=np.int64))
        x = np.array([3, -1, 0, 7, 2])
        assert np.array_equal(sk.apply(x), x)

    def test_zero_vector(self):
        sk = build_sketch("sign", 16, 4, seed=1)
        assert np.array_equal(sk.apply(np.zeros(16, dtype=int)), np.zeros(4))

    def test_dimension_mismatch(self):
        sk = build_sketch("sign", 16, 4, seed=1)
        with pytest.raises(DimensionMismatch):
            sk.apply(np.zeros(15, dtype=int))

    def test_stream_order_invariance(self):
        rng = derive(31, "stream")
        sk = build_sketch("sign", 64, 8, seed=2)
        x = rng.integers(-100, 101, size=64)
        direct = sk.apply(x)
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
        assert np.array_equal(st.value, sk.apply(x))

    def test_stream_does_not_wrap(self):
        # x = (2^62, 2^62, 0, ...): rows with equal signs in the first two
        # columns reach 2^63, one past int64
        sk = build_sketch("sign", 16, 4, seed=0)
        x = np.zeros(16, dtype=np.int64)
        x[0] = x[1] = 2**62
        assert 2**63 in np.abs(sk.apply(x)).tolist()
        st = sk.new_stream()
        st.ingest_vector(x)
        assert st.value.tolist() == sk.apply(x).tolist()
        st = sk.new_stream()
        st.update(0, 2**62)
        st.update(1, 2**62)
        st.update(1, -2**62)
        x[1] = 0
        assert st.value.tolist() == sk.apply(x).tolist()
        assert st.update_count == 3

    def test_linearity_exact(self):
        rng = derive(31, "lin")
        sk = build_sketch("rounded-gaussian", 32, 4, seed=4)
        x = rng.integers(-50, 51, size=32)
        y = rng.integers(-50, 51, size=32)
        assert np.array_equal(sk.apply(x + y), sk.apply(x) + sk.apply(y))


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

    def test_projection_threshold_needs_params(self):
        with pytest.raises(BadParams):
            build_sketch("projection-threshold", 64, 4, seed=9)

    def test_unknown_family(self):
        with pytest.raises(BadParams):
            build_sketch("fourier", 64, 4)

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
        assert np.array_equal(self.sk.apply(x), np.zeros(4, dtype=np.int64))
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
        bit, bit2 = (self.sk.gap_bits(v[None, :], self.params)[0] for v in (y, y2))
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


FAMILY_PARAMS = (
    ("sign", None),
    ("rounded-gaussian", None),
    ("countsketch", {"reps": 2}),
    ("projection-threshold", {"alpha": 300.0, "B": 8.0}),
)


def straddling_queries(sk, params, k, rng):
    """Integer queries whose estimates spread across the family's threshold:
    each row is scaled so its estimate lands at a random factor in
    [1/4, 4] of the threshold."""
    if sk.family == "projection-threshold":
        mid = sk.estimator["tau"]
    else:
        mid = params.alpha * math.sqrt(params.B)
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
        sk = build_sketch(family, 64, 8, fam_params, seed=41)
        params = GapNormParams(B=8.0, alpha=300.0)
        X = straddling_queries(sk, params, 400, derive(35, "straddle", family))
        oracle = GapNormOracle(sk, params)
        bits = oracle.query_batch(X)
        assert oracle.query_count == len(X)
        streamed = []
        for x in X:
            st = sk.new_stream()
            st.ingest_vector(x)
            streamed.append(int(sk.gap_bits(st.value[None, :], params)[0]))
        assert bits.dtype == np.int8
        assert bits.tolist() == streamed
        assert 0.2 <= float(np.mean(bits)) <= 0.8  # the batch straddles the threshold
        mid = sk.estimator["tau"] if family == "projection-threshold" \
            else params.alpha * math.sqrt(params.B)
        ref = np.array([reference_estimate(sk, sk.apply(x)) for x in X])
        differ = bits != (ref >= mid)
        assert np.all(np.abs(ref[differ] - mid) <= 1e-9 * mid)
        assert [query_one(oracle, x) for x in X[:20]] == streamed[:20]
        assert oracle.query_count == len(X) + 20

    def test_projection_bits_match_rowspan_energy(self):
        sk = build_sketch("projection-threshold", 64, 8, {"alpha": 300.0, "B": 8.0}, seed=42)
        params = GapNormParams(B=8.0, alpha=300.0)
        X = straddling_queries(sk, params, 1000, derive(35, "rowspan"))
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
        sk = build_sketch(family, 64, 8, fam_params, seed=43)
        params = GapNormParams(B=8.0, alpha=300.0)
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
        assert bits.tolist() == [sk.gap_bits(np.array([y], dtype=object), params)[0]
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

    def test_apply_is_one_row_of_apply_batch(self):
        sk = build_sketch("rounded-gaussian", 32, 4, seed=44)
        X = derive(35, "rows").integers(-50, 51, size=(10, 32))
        Y = sk.apply_batch(X)
        assert Y.shape == (10, 4)
        assert all(np.array_equal(sk.apply(x), y) for x, y in zip(X, Y))
        with pytest.raises(DimensionMismatch):
            sk.apply_batch(np.zeros((3, 31), dtype=int))
        assert sk.apply_batch(np.zeros((0, 32), dtype=int)).shape == (0, 4)


class TestExactNormOracle:
    def test_threshold_semantics(self):
        params = GapNormParams(B=8.0, alpha=100.0)
        oracle = ExactNormOracle(16, params, threshold=50.0)
        assert query_one(oracle, np.array([8] + [0] * 15)) == 1
        assert query_one(oracle, np.array([7] + [0] * 15)) == 0

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
