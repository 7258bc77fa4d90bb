import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from oracles import principal_angle_distance
from sketchlab import dgauss, stats
from sketchlab.attack import (
    AttackConfig,
    AttackState,
    FailureCertificate,
    conditional_gap_estimate,
    invariant_diagnostic,
    round_step,
    run_attack,
    verify_certificate,
)
from sketchlab.errors import (
    BadParams,
    NoExploitFound,
    NoPositives,
    OracleFailure,
    VarianceTooSmall,
)
from sketchlab.numerics import OrthonormalBasis
from sketchlab.rng import derive
from sketchlab.sketch import ExactNormOracle, GapNormOracle, GapNormParams, build_sketch

ALPHA = 800.0


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


class TestVerifyCertificate:
    def test_constant_zero_high_side_rate(self):
        n = 64
        cert = FailureCertificate(
            subspace=[], sigma2=ALPHA * 4.0, side="high", empirical_rate=0.0,
            sample_count=200, zeta=0.1, alpha=ALPHA, B=8.0, round=1,
        )
        rep = verify_certificate(_ConstOracle(0, n), cert, trials=2000,
                                 rng=derive(43, "v0"), n=n)
        assert rep["failure_rate"] >= 0.95
        ex = rep["exploits"][0]
        assert ex.answer == 0 and ex.wrong
        assert ex.norm_sq > ALPHA * 8.0 * n / 3.0

    def test_truth_oracle_spurious_certificate(self):
        n = 64
        params = _params()
        oracle = ExactNormOracle(n, params)
        cert = FailureCertificate(
            subspace=[], sigma2=2 * ALPHA, side="low", empirical_rate=0.5,
            sample_count=200, zeta=0.1, alpha=ALPHA, B=8.0, round=1,
        )
        with pytest.raises(NoExploitFound):
            verify_certificate(oracle, cert, trials=2000, rng=derive(43, "v1"), n=n)

    def test_certificate_side_validation(self):
        with pytest.raises(ValueError):
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
        assert rep["distance"] <= 1e-9
        assert rep["dim"] == 1

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
        assert abs(rep["distance"] - math.sin(theta)) <= 1e-8
        # principal-angle oracle agreement
        W = np.array([inside])
        assert abs(rep["distance"]
                   - principal_angle_distance(np.array([v]), W)) <= 1e-8

    def test_empty_basis(self):
        sk = build_sketch("sign", 16, 2, seed=23)
        state = AttackState(t=1, V=OrthonormalBasis.empty(16))
        rep = invariant_diagnostic(state, sk)
        assert rep["distance"] == 0.0

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
            assert rep["distance"] == rep["sin_theta_max"]
            assert abs(rep["distance"] - principal_angle_distance(V, W)) <= 1e-10

    def test_more_directions_than_rows_reads_one(self):
        # the attack runs r + 1 rounds, so V can reach dim r + 1; such a V
        # holds a direction orthogonal to the r-dim rowspan
        n, r = 32, 4
        sk = build_sketch("sign", n, r, seed=25)
        V = np.linalg.qr(np.vstack([sk.Q, derive(46, "r+1").standard_normal(n)]).T)[0].T
        rep = invariant_diagnostic(AttackState(t=r + 1, V=OrthonormalBasis(n, list(V))), sk)
        assert rep["dim"] == r + 1
        assert abs(rep["sin_theta_max"] - 1.0) <= 1e-12
        assert rep["distance"] == rep["sin_theta_max"]


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


class TestGridKinds:
    def test_geometric_grid_spans_range(self):
        cfg = AttackConfig(gap=_params(), m=200, grid_points=16)
        g = cfg.grid_for(64)
        assert len(g) == 16
        assert abs(g[0] - ALPHA) < 1e-9
        assert abs(g[-1] - 8.0 * ALPHA) < 1e-6
        assert np.all(np.diff(g) > 0)
