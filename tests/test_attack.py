import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from oracles import principal_angle_distance, ref_verify_in_blocks
from sketchlab import attack, dgauss, stats
from sketchlab.attack import (
    EXPLOITS_KEPT,
    AttackConfig,
    AttackState,
    FailureCertificate,
    conditional_gap_estimate,
    invariant_diagnostic,
    round_step,
    run_and_verify,
    run_attack,
    verify_certificate,
)
from sketchlab.errors import (
    BadParams,
    NoPositives,
    OracleFailure,
    VarianceTooSmall,
)
from sketchlab.numerics import OrthonormalBasis
from sketchlab.rng import derive
from sketchlab.sketch import ExactNormOracle, GapNormOracle, GapNormParams, build_sketch

ALPHA = 800.0


class _ParityOracle:
    """Answers the parity of a query's coordinate sum: a function of x alone
    that errs on about half of each promise side's queries."""

    def __init__(self, n):
        self.n = n

    def query_batch(self, X):
        return (np.asarray(X).sum(axis=1) % 2).astype(np.int8)


class _ConstOracle:
    def __init__(self, bit, n):
        self.bit = bit
        self.n = n

    def query_batch(self, X):
        return np.full(len(X), self.bit, dtype=np.int8)


def _params(B=8.0, alpha=ALPHA):
    return GapNormParams(B=B, alpha=alpha)


class TestRunAttackControls:
    def test_constant_zero_oracle_high_side(self):
        n = 32
        cfg = AttackConfig(gap=_params(), m=200, grid_points=8)
        out = run_attack(_ConstOracle(0, n), n, 4, cfg, derive(41, "c0"))
        assert out.outcome == "certificate"
        cert = out.certificate
        assert cert.side == "high"
        assert cert.round == 1
        assert cert.dim == 0
        assert cert.sigma2 >= ALPHA * 8.0 / 2.0
        assert cert.empirical_rate == 0.0

    def test_constant_one_oracle_low_side(self):
        n = 32
        cfg = AttackConfig(gap=_params(), m=200, grid_points=8)
        out = run_attack(_ConstOracle(1, n), n, 4, cfg, derive(41, "c1"))
        assert out.outcome == "certificate"
        assert out.certificate.side == "low"
        assert out.certificate.sigma2 <= 2 * ALPHA

    def test_exact_truth_oracle_exhausts(self):
        n, r = 128, 4
        params = _params()
        cfg = AttackConfig(gap=params, m=600, grid_points=8)
        oracle = ExactNormOracle(n, params)
        out = run_attack(oracle, n, r, cfg, derive(41, "truth"))
        assert out.outcome == "exhausted"
        assert out.state.t == r + 1

    def test_alpha_floor_guard(self):
        # the first draw is at sigma^2 = alpha, so the sampler refuses an
        # alpha below the floor before the oracle sees a query
        cfg = AttackConfig(gap=GapNormParams(B=8.0, alpha=50.0), m=200)
        oracle = ExactNormOracle(64, cfg.gap)
        with pytest.raises(VarianceTooSmall):
            run_attack(oracle, 64, 4, cfg, derive(41, "floor"))
        assert oracle.query_count == 0
        floor = dgauss.smoothing_sigma2(64, dgauss.SAMPLING_FLOOR_ELL_SQ)
        assert cfg.grid_for(64)[0] == 50.0 < floor

    def test_determinism(self):
        n = 32
        sk = build_sketch("projection-threshold", n, 4,
                          {"alpha": ALPHA, "B": 8.0}, seed=13)
        params = _params()
        cfg = AttackConfig(gap=params, m=200, grid_points=8)
        outs = []
        for _ in range(2):
            oracle = GapNormOracle(sk, params)
            outs.append(run_attack(oracle, n, 4, cfg, derive(99, "det")))
        t1 = [(r["sigma2"], r["rate"], r["m_prime"]) for r in outs[0].state.transcript]
        t2 = [(r["sigma2"], r["rate"], r["m_prime"]) for r in outs[1].state.transcript]
        assert t1 == t2

    def test_bad_config(self):
        with pytest.raises(BadParams):
            AttackConfig(gap=_params(), m=50)

    @pytest.mark.parametrize("knob, value", [
        ("zeta", 0.0), ("round_cap", 0), ("grid_points", 1), ("verify_trials", 99),
    ])
    def test_meaningless_knobs_refused(self, knob, value):
        # zeta 0 certifies from one low-side record against the exact oracle,
        # round_cap 0 runs no round and one grid point never draws the high side
        with pytest.raises(BadParams, match=f"'{knob}'"):
            AttackConfig(gap=_params(), m=200, **{knob: value})


class TestRoundStep:
    def test_no_positives_no_progress(self):
        n = 32
        cfg = AttackConfig(gap=_params(), m=200, grid_points=6, zeta=1.1)
        state = AttackState(t=1, V=OrthonormalBasis.empty(n))
        kind, payload = round_step(state, _ConstOracle(0, n), n, 4, cfg,
                                   derive(42, "np"))
        assert kind == "no-progress"
        assert len(state.V) == 0

    def test_planted_direction_recovery(self):
        n = 64
        rng = derive(42, "plant")
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        s2 = ALPHA * 2

        class Planted:
            n_dim = n

            def __init__(self):
                self.n = n

            def query_batch(self, X):
                d = np.asarray(X, float) @ u
                return (d * d >= 3 * s2).astype(np.int8)

        cfg = AttackConfig(gap=_params(B=8.0, alpha=s2), m=5000,
                           grid_points=4, zeta=1.1)
        state = AttackState(t=1, V=OrthonormalBasis.empty(n))
        kind, v_t = round_step(state, Planted(), n, 8, cfg, derive(42, "pr"))
        assert kind == "direction"
        assert abs(float(v_t @ u)) >= 0.9
        assert abs(np.linalg.norm(v_t) - 1.0) <= 1e-9

    def test_accepted_direction_orthogonal_to_basis(self):
        n = 48
        rng = derive(42, "orth")
        base = rng.standard_normal(n)
        base /= np.linalg.norm(base)
        u = rng.standard_normal(n)
        u -= (u @ base) * base
        u /= np.linalg.norm(u)
        s2 = ALPHA * 2

        class Planted:
            def __init__(self):
                self.n = n

            def query_batch(self, X):
                d = np.asarray(X, float) @ u
                return (d * d >= 3 * s2).astype(np.int8)

        cfg = AttackConfig(gap=_params(alpha=s2), m=4000, grid_points=4, zeta=1.1)
        state = AttackState(t=2, V=OrthonormalBasis(n, [base]))
        kind, v_t = round_step(state, Planted(), n, 8, cfg, derive(42, "o2"))
        assert kind == "direction"
        assert abs(float(v_t @ base)) <= 1e-9
        assert len(state.V) == 2


class TestDecidedRoundSkip:
    """Once a round's direction is decided, the grid points with
    2 alpha < sigma^2 < alpha B / 2 get no draw, no query and no record; the
    low and high sides are drawn and tested for a certificate as before."""

    n, B = 32, 64.0  # 16 points: 0-2 low side, 3-12 middle, 13-15 high side

    @pytest.fixture
    def drawn(self, monkeypatch):
        """The sigma^2 of every sample_subspace_query call in round_step."""
        calls = []

        def spy(spec, *args, **kwargs):
            calls.append(spec.sigma2)
            return dgauss.sample_subspace_query(spec, *args, **kwargs)

        monkeypatch.setattr(attack, "sample_subspace_query", spy)
        return calls

    class GridStub:
        """Answers by the sigma^2 of the batch just drawn: one positive at
        `accept` (a lone positive scores ||x||^2 ~ n sigma^2, far above the
        threshold), `high_bit` on the high side, 0 elsewhere."""

        def __init__(self, drawn, accept, high_bit, high_s2):
            self.drawn, self.accept = drawn, accept
            self.high_bit, self.high_s2 = high_bit, high_s2

        def query_batch(self, X):
            bits = np.zeros(len(X), dtype=np.int8)
            s2 = self.drawn[-1]
            if s2 >= self.high_s2:
                bits[:] = self.high_bit
            elif s2 == self.accept:
                bits[0] = 1
            return bits

    def _round(self, drawn, accept_index, high_bit, zeta):
        cfg = AttackConfig(gap=_params(B=self.B), m=200, grid_points=16, zeta=zeta)
        grid = [float(g) for g in cfg.grid_for(self.n)]
        high_s2 = ALPHA * self.B / 2.0
        accept = grid[accept_index] if accept_index is not None else None
        oracle = self.GridStub(drawn, accept, high_bit, high_s2)
        state = AttackState(t=1, V=OrthonormalBasis.empty(self.n))
        kind, payload = round_step(state, oracle, self.n, 4, cfg, derive(48, "skip"))
        return kind, payload, state, grid, high_s2

    @pytest.mark.parametrize("k", [1, 4, 12])
    def test_records_stop_at_the_accepted_point_and_resume_on_the_high_side(self, drawn, k):
        kind, _, state, grid, high_s2 = self._round(drawn, k, 1, zeta=1.1)
        assert kind == "direction"
        assert sum(g <= 2 * ALPHA for g in grid) == 3
        assert sum(g >= high_s2 for g in grid) == 3
        # past k only the sides are drawn: the low side's rest, if any, and
        # every point >= alpha B / 2
        want = grid[:k + 1] + [g for g in grid[k + 1:] if g <= 2 * ALPHA or g >= high_s2]
        assert [rec["sigma2"] for rec in state.transcript] == want
        assert [rec["accepted"] for rec in state.transcript].index(True) == k
        # one sampler call per record, in record order
        assert drawn == want

    def test_round_without_a_direction_draws_every_point(self, drawn):
        kind, _, state, grid, _ = self._round(drawn, None, 0, zeta=1.1)
        assert kind == "no-progress"
        assert [rec["sigma2"] for rec in state.transcript] == grid
        assert drawn == grid

    def test_high_side_certificate_after_the_skip(self, drawn):
        # answers 0 on the high side: rate 0 <= 1 - zeta there, while the low
        # side's rates (0 and 1/200) stay below zeta = 5/sqrt(200)
        kind, cert, state, grid, high_s2 = self._round(drawn, 4, 0, zeta=None)
        assert kind == "certificate"
        assert cert.side == "high" and cert.sigma2 == grid[13] >= high_s2
        assert cert.empirical_rate == 0.0 and cert.dim == 0
        assert [rec["sigma2"] for rec in state.transcript] == grid[:5] + [grid[13]]
        assert drawn == grid[:5] + [grid[13]]


class TestVerifyCertificate:
    def test_constant_zero_high_side_rate(self):
        n = 64
        cert = FailureCertificate(
            subspace=[], sigma2=ALPHA * 4.0, side="high", empirical_rate=0.0,
            sample_count=200, zeta=0.1, alpha=ALPHA, B=8.0, round=1,
        )
        rep = verify_certificate(_ConstOracle(0, n), cert, trials=2000,
                                 rng=derive(43, "v0"))
        assert rep["failure_rate"] >= 0.95
        ex = rep["exploits"][0]
        assert ex.answer == 0 and ex.wrong
        assert ex.norm_sq > ALPHA * 8.0 * n / 3.0

    @pytest.mark.parametrize("bit, side, sigma2", [
        (1, "low", ALPHA), (0, "high", ALPHA * 8.0),
    ], ids=["low-answered-1", "high-answered-0"])
    def test_promise_violations_counted_over_every_query(self, bit, side, sigma2):
        # a constant oracle breaks the promise on exactly the queries past the
        # edge its answer contradicts: ||x||^2 <= alpha n answered 1, or
        # ||x||^2 >= alpha B n answered 0, exploit or not
        n, trials = 64, 3000
        seen = []

        class Recording(_ConstOracle):
            def query_batch(self, X):
                seen.append(np.array(X))
                return super().query_batch(X)

        oracle = Recording(bit, n)
        cert = FailureCertificate(
            subspace=[], sigma2=sigma2, side=side, empirical_rate=0.5,
            sample_count=200, zeta=0.1, alpha=ALPHA, B=8.0, round=1,
        )
        rep = verify_certificate(oracle, cert, trials, derive(46, side))
        norms = [int(x @ x) for X in seen for x in X.astype(object)]
        assert len(norms) == trials
        want = sum(s <= ALPHA * n for s in norms) if bit else \
            sum(s >= ALPHA * 8.0 * n for s in norms)
        assert rep["promise_violations"] == want
        assert 0.3 * trials < want < 0.7 * trials  # about half the draws pass the edge

    def test_truth_oracle_spurious_certificate(self):
        n = 64
        params = _params()
        oracle = ExactNormOracle(n, params)
        cert = FailureCertificate(
            subspace=[], sigma2=2 * ALPHA, side="low", empirical_rate=0.5,
            sample_count=200, zeta=0.1, alpha=ALPHA, B=8.0, round=1,
        )
        rep = verify_certificate(oracle, cert, trials=2000, rng=derive(43, "v1"))
        assert rep == {"failure_rate": 0.0, "exploit_count": 0, "promise_violations": 0,
                       "exploits": []}

    @pytest.mark.parametrize("trials", (0, -5))
    def test_trials_below_one_rejected(self, trials):
        cert = FailureCertificate(
            subspace=[], sigma2=ALPHA * 4.0, side="high", empirical_rate=0.0,
            sample_count=200, zeta=0.1, alpha=ALPHA, B=8.0, round=1,
        )
        with pytest.raises(BadParams, match="trials >= 1"):
            verify_certificate(_ConstOracle(0, 64), cert, trials=trials,
                               rng=derive(43, "v2"))

    @staticmethod
    def _n256_low_side():
        # the set-up of `sketchlab attack run` at n = 256: projection-threshold
        # at the sampling floor, B = 8, whose runs certify the low side at the
        # grid's second point with V = {}
        n = 256
        alpha = dgauss.smoothing_sigma2(n, dgauss.SAMPLING_FLOOR_ELL_SQ)
        params = _params(alpha=alpha)
        sk = build_sketch("projection-threshold", n, 8, {"alpha": alpha, "B": 8.0}, seed=3)
        sigma2 = float(AttackConfig(gap=params).grid_for(n)[1])
        cert = FailureCertificate(
            subspace=[], sigma2=sigma2, side="low", empirical_rate=0.25,
            sample_count=2000, zeta=0.112, alpha=alpha, B=8.0, round=1,
        )
        return GapNormOracle(sk, params), cert

    def test_holds_one_copy_of_the_batch(self, traced_peak):
        # one block of queries at a time, plus the kept exploits as Python
        # lists (at most 36 bytes a coordinate)
        oracle, cert = self._n256_low_side()
        n = oracle.n
        rep, peak = traced_peak(verify_certificate, oracle, cert, 10_000, derive(44, "mem"))
        assert rep["exploit_count"] > EXPLOITS_KEPT == len(rep["exploits"])
        assert peak <= attack._VERIFY_BLOCK * 8 + EXPLOITS_KEPT * n * 36 + 2**20

    def test_memory_does_not_grow_with_trials(self, traced_peak):
        oracle, cert = self._n256_low_side()
        peaks = [traced_peak(verify_certificate, oracle, cert, trials, derive(44, "mem"))[1]
                 for trials in (10_000, 40_000)]
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("dim", (0, 2), ids=("V-empty", "V-dim2"))
    @pytest.mark.parametrize("side", ("high", "low"))
    @pytest.mark.parametrize("trials", (lambda rows: 1, lambda rows: rows - 1,
                                        lambda rows: rows, lambda rows: rows + 1,
                                        lambda rows: 3 * rows + 7),
                             ids=("1", "rows-1", "rows", "rows+1", "3rows+7"))
    def test_blocks_are_a_hand_loop_of_draws(self, trials, side, dim):
        # the same generator, drawn once per block of rows = _VERIFY_BLOCK // n
        # queries: the same count, rate and kept exploits as the hand loop
        n = 64
        rows = attack._VERIFY_BLOCK // n
        trials = trials(rows)
        basis = np.zeros((dim, n))
        if dim:
            basis[0, 0] = 1.0
            basis[1, 1:3] = math.sqrt(0.5)
        cert = FailureCertificate(
            subspace=basis.tolist(), sigma2=ALPHA * (4.0 if side == "high" else 2.0),
            side=side, empirical_rate=0.5, sample_count=200, zeta=0.1, alpha=ALPHA,
            B=8.0, round=1,
        )
        oracle = _ParityOracle(n)
        count, want = ref_verify_in_blocks(oracle, cert, trials, derive(45, side, dim), rows,
                                           EXPLOITS_KEPT)
        rep = verify_certificate(oracle, cert, trials, derive(45, side, dim))
        assert rep["exploit_count"] == count
        assert rep["failure_rate"] == count / trials
        assert [(e.x, e.norm_sq, e.answer, e.wrong) for e in rep["exploits"]] == \
            [(x, s, a, True) for x, s, a in want]
        if trials > rows:
            assert count > EXPLOITS_KEPT  # the cap is exercised

    def test_certificate_side_validation(self):
        with pytest.raises(BadParams):
            FailureCertificate(subspace=[], sigma2=ALPHA, side="high",
                               empirical_rate=0.0, sample_count=1, zeta=0.1,
                               alpha=ALPHA, B=8.0, round=1)

    def test_json_roundtrip(self):
        cert = FailureCertificate(
            subspace=[[1.0] + [0.0] * 7], sigma2=ALPHA * 4, side="high",
            empirical_rate=0.2, sample_count=100, zeta=0.1, alpha=ALPHA,
            B=8.0, round=2,
        )
        # the CLI's path: certificate.json is written from asdict and read
        # back with FailureCertificate(**payload)
        back = FailureCertificate(**json.loads(json.dumps(asdict(cert))))
        assert back == cert


class TestConditionalGap:
    def test_median_style_oracle_strong_gap(self):
        n = 32
        rng = derive(44, "med")
        u = np.eye(n)[0]
        s2 = ALPHA * 2
        med = s2 * 0.455  # median of sigma^2 chi^2_1

        class MedianOracle:
            def __init__(self):
                self.n = n

            def query_batch(self, X):
                d = np.asarray(X, float) @ u
                return (d * d >= med).astype(np.int8)

        spec = dgauss.SubspaceGaussianSpec(n, OrthonormalBasis.empty(n), s2)
        rep = conditional_gap_estimate(MedianOracle(), spec, u, 30_000, rng)
        assert rep["delta"] >= 5 * rep["se"]

    def test_coin_oracle_no_gap(self):
        n = 32

        class Coin:
            def __init__(self):
                self.n = n
                self._rng = derive(44, "coin-int")

            def query_batch(self, X):
                return (self._rng.random(len(X)) < 0.5).astype(np.int8)

        spec = dgauss.SubspaceGaussianSpec(n, OrthonormalBasis.empty(n), ALPHA * 2)
        rep = conditional_gap_estimate(Coin(), spec, np.eye(n)[3], 30_000,
                                       derive(44, "coin"))
        assert abs(rep["delta"]) <= 3 * rep["se"]

    def test_no_positives(self):
        n = 16
        spec = dgauss.SubspaceGaussianSpec(n, OrthonormalBasis.empty(n), ALPHA * 2)
        with pytest.raises(NoPositives):
            conditional_gap_estimate(_ConstOracle(0, n), spec, np.eye(n)[0],
                                     2000, derive(44, "nopos"))

    def test_m_floor(self):
        n = 16
        spec = dgauss.SubspaceGaussianSpec(n, OrthonormalBasis.empty(n), ALPHA * 2)
        with pytest.raises(BadParams):
            conditional_gap_estimate(_ConstOracle(1, n), spec, np.eye(n)[0],
                                     500, derive(44, "floor"))


class TestInvariantDiagnostic:
    def test_inside_rowspan_distance_zero(self):
        sk = build_sketch("sign", 32, 4, seed=21)
        v = sk.Q[0]
        state = AttackState(t=2, V=OrthonormalBasis(32, [v]))
        rep = invariant_diagnostic(state, sk)
        assert rep["sin_theta_max"] <= 1e-9
        assert rep == {"t": 2, "dim": 1, "sin_theta_max": rep["sin_theta_max"]}

    def test_angled_vector_distance_sin_theta(self):
        sk = build_sketch("sign", 32, 4, seed=22)
        inside = sk.Q[0]
        rng = derive(45, "ang")
        outside = rng.standard_normal(32)
        outside -= (outside @ sk.Q.T) @ sk.Q
        outside /= np.linalg.norm(outside)
        theta = 0.3
        v = math.cos(theta) * inside + math.sin(theta) * outside
        state = AttackState(t=2, V=OrthonormalBasis(32, [v]))
        rep = invariant_diagnostic(state, sk)
        assert abs(rep["sin_theta_max"] - math.sin(theta)) <= 1e-8
        # principal-angle oracle agreement
        W = np.array([inside])
        assert abs(rep["sin_theta_max"]
                   - principal_angle_distance(np.array([v]), W)) <= 1e-8

    def test_empty_basis(self):
        sk = build_sketch("sign", 16, 2, seed=23)
        state = AttackState(t=1, V=OrthonormalBasis.empty(16))
        rep = invariant_diagnostic(state, sk)
        assert rep["sin_theta_max"] == 0.0

    def test_random_bases_match_principal_angle_oracle(self):
        # dim V <= r: the projector distance to the closest equal-dimensional
        # subspace of the rowspan, the oracle's ||P_V - P_W|| with W spanned
        # by the rowspan parts of V's principal vectors
        n, r = 32, 4
        sk = build_sketch("sign", n, r, seed=26)
        rng = derive(46, "pa")
        for k in range(1, r + 1):
            mix = sk.Q.T @ rng.standard_normal((r, k)) + 0.3 * rng.standard_normal((n, k))
            V = np.linalg.qr(mix)[0].T
            U, _, _ = np.linalg.svd(V @ sk.Q.T, full_matrices=False)
            W = np.linalg.qr(((U.T @ V) @ sk.Q.T @ sk.Q).T)[0].T
            rep = invariant_diagnostic(AttackState(t=2, V=OrthonormalBasis(n, list(V))), sk)
            assert rep["dim"] == k
            assert abs(rep["sin_theta_max"] - principal_angle_distance(V, W)) <= 1e-10

    def test_more_directions_than_rows_reads_one(self):
        # the attack runs r + 1 rounds, so V can reach dim r + 1; such a V
        # holds a direction orthogonal to the r-dim rowspan
        n, r = 32, 4
        sk = build_sketch("sign", n, r, seed=25)
        V = np.linalg.qr(np.vstack([sk.Q, derive(46, "r+1").standard_normal(n)]).T)[0].T
        rep = invariant_diagnostic(AttackState(t=r + 1, V=OrthonormalBasis(n, list(V))), sk)
        assert rep["dim"] == r + 1
        assert abs(rep["sin_theta_max"] - 1.0) <= 1e-12


class TestInformationBoundary:
    def test_attack_consumes_only_bits(self):
        """Seam: a shim exposing only query/query_batch suffices to attack."""
        n = 32
        sk = build_sketch("projection-threshold", n, 4,
                          {"alpha": ALPHA, "B": 8.0}, seed=24)
        params = _params()
        inner = GapNormOracle(sk, params)

        class BitsOnly:
            n = inner.n

            def query_batch(self, X):
                return inner.query_batch(X)

        cfg = AttackConfig(gap=params, m=300, grid_points=6)
        out = run_attack(BitsOnly(), n, 4, cfg, derive(46, "seam"))
        assert out.outcome in ("certificate", "exhausted")

    def test_query_only_oracle_fails(self):
        """The attack asks in batches only: an oracle without query_batch is
        an oracle failure, not a slower path."""
        n = 32
        inner = ExactNormOracle(n, _params())

        class SingleOnly:
            def __init__(self):
                self.n = n

            def query(self, x):
                return int(inner.query_batch(np.asarray(x)[None, :])[0])

        cfg = AttackConfig(gap=_params(), m=200, grid_points=4)
        with pytest.raises(OracleFailure):
            run_attack(SingleOnly(), n, 4, cfg, derive(46, "single"))


class TestTvdMonotonicitySurrogate:
    def test_planted_subspace_pairs(self):
        n, s2 = 16, 1e4
        m = 60_000
        e1, e2 = np.eye(n)[0], np.eye(n)[1]
        tvds = {}
        for d in (0.0, 0.01, 0.1):
            theta = math.asin(d)
            w = math.cos(theta) * e1 + math.sin(theta) * e2
            sv = dgauss.SubspaceGaussianSpec(n, OrthonormalBasis(n, [e1]), s2)
            sw = dgauss.SubspaceGaussianSpec(n, OrthonormalBasis(n, [w]), s2)
            X = dgauss.sample_subspace_query(sv, "discrete", derive(47, "mv", int(d * 100)), size=m)
            Y = dgauss.sample_subspace_query(sw, "discrete", derive(47, "mw", int(d * 100)), size=m)
            est = stats.empirical_tvd(X[:, :2].astype(float), Y[:, :2].astype(float),
                                      rng=derive(47, "bins", int(d * 100)))
            tvds[d] = est.value
        assert tvds[0.0] <= 0.03
        assert tvds[0.1] >= tvds[0.0]
        assert tvds[0.1] >= 0.04  # visible signal at d = 0.1


class TestRunAndVerify:
    def test_is_run_attack_then_verify_certificate(self):
        # the same streams give the same outcome and the same report as the
        # two calls made by hand
        n = 32
        cfg = AttackConfig(gap=_params(), m=200, grid_points=8, verify_trials=700)
        out, rep = run_and_verify(_ConstOracle(0, n), 4, cfg, derive(48, "a"), derive(48, "v"))
        ref = run_attack(_ConstOracle(0, n), n, 4, cfg, derive(48, "a"))
        assert out.certificate == ref.certificate and out.certificate.side == "high"
        assert out.state.transcript == ref.state.transcript
        assert rep == verify_certificate(_ConstOracle(0, n), ref.certificate, 700,
                                         derive(48, "v"))
        assert rep["exploit_count"] > 600

    def test_no_report_without_a_certificate_or_a_verify_stream(self):
        n = 32
        cfg = AttackConfig(gap=_params(), m=200, grid_points=8)
        out, rep = run_and_verify(_ConstOracle(0, n), 4, cfg, derive(48, "a"), None)
        assert out.outcome == "certificate" and rep is None
        truth = ExactNormOracle(128, _params())
        out, rep = run_and_verify(truth, 4, AttackConfig(gap=_params(), m=600, grid_points=8),
                                  derive(41, "truth"), derive(48, "v"))
        assert out.outcome == "exhausted" and rep is None

    def test_spurious_certificate_reports_zero(self):
        oracle = ExactNormOracle(64, _params())
        cert = FailureCertificate(
            subspace=[], sigma2=2 * ALPHA, side="low", empirical_rate=0.5,
            sample_count=200, zeta=0.1, alpha=ALPHA, B=8.0, round=1,
        )
        rep = verify_certificate(oracle, cert, 2000, derive(43, "v1"))
        assert rep == {"failure_rate": 0.0, "exploit_count": 0, "promise_violations": 0,
                       "exploits": []}


class TestGridKinds:
    def test_geometric_grid_spans_range(self):
        cfg = AttackConfig(gap=_params(), m=200, grid_points=16)
        g = cfg.grid_for(64)
        assert len(g) == 16
        assert abs(g[0] - ALPHA) < 1e-9
        assert abs(g[-1] - 8.0 * ALPHA) < 1e-6
        assert np.all(np.diff(g) > 0)
