import math
import re
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from oracles import jacobi_svd, ref_expected_p_norm, ref_planted_spike, ref_support_family

from sketchlab import harddist, stats
from sketchlab.errors import BadParams, DimensionTooLarge
from sketchlab.harddist import (
    FAMILY_NAMES,
    HardFamily,
    calibrate_family,
    default_support_count,
    expected_p_norm,
    gap_event_battery,
    gen_hard_instance,
    mgf_cross_term_check,
    planted_spike,
    singular_value_concentration,
    sketched_indistinguishability,
    support_family,
    verify_gap_event,
)
from sketchlab.rng import derive


class TestFamilies:
    def test_unknown_family(self):
        with pytest.raises(BadParams):
            HardFamily("lp-huge")

    def test_param_validation(self):
        with pytest.raises(BadParams):
            HardFamily("lp-small", {"p": 3.0})
        with pytest.raises(BadParams):
            HardFamily("lp-large", {"p": 1.5})
        for bad in (math.inf, math.nan):
            with pytest.raises(BadParams):
                HardFamily("lp-large", {"p": bad})
        with pytest.raises(BadParams):
            HardFamily("cs", {"n": 256, "k": 8, "N": 1_000_001})
        for bad in ([64], {"n": 64}, "64", None):
            with pytest.raises(BadParams, match="'opnorm-alpha/n': must be an integer, got"):
                HardFamily("opnorm-alpha", {"n": bad})

    @pytest.mark.parametrize("name, params, key", [
        ("opnorm-alpha", {"alpah": 3.0}, "alpah"),
        ("lp-small", {"n": 64, "d": 8}, "d"),
        ("cs", {"family_count": 4}, "family_count"),
        ("cs", {"family_seed": 12}, "family_seed"),
    ])
    def test_unknown_param_key_named(self, name, params, key):
        with pytest.raises(BadParams, match=f"config error at '{name}': '{key}' is unknown"):
            HardFamily(name, params)

    def test_filled_params_accepted(self):
        # calibration's derived constants, s1 and cs's regime flag are params
        # a family takes besides its defaults
        assert HardFamily("psd", {"d": 16, "shift": 99, "c_psd": 2.0, "s1": 0.5}).params["shift"] == 99
        assert HardFamily("opnorm-alpha", {"gamma1": 5.0}).spike_scale() == 5.0 * 2.0 / 8.0
        for name in FAMILY_NAMES:
            fam = HardFamily(name)
            again = HardFamily(name, dict(fam.params))
            assert again.params == fam.params

    @pytest.mark.parametrize("name, params, why", [
        ("opnorm-alpha", {"n": 0}, "param 'n' must be an integer >= 1, got 0"),
        ("opnorm-alpha", {"n": 16.5}, "param 'n' must be an integer, got 16.5"),
        ("kyfan", {"s": 2.5}, "param 's' must be an integer, got 2.5"),
        ("kyfan", {"s": 0}, "param 's' must be an integer >= 1, got 0"),
        ("kyfan", {"n": 4, "s": 5}, "param 's' must be at most n = 4, got 5"),
        ("opnorm-eps", {"d": 0}, "param 'd' must be an integer >= 1, got 0"),
        ("lp-small", {"n": -4}, "param 'n' must be an integer >= 1, got -4"),
        ("lp-large", {"n": 1, "delta": 1e-4}, "param 'n' must exceed t = 4"),
        ("lp-large", {"delta": 0.0}, "param 'delta' must be a finite number > 0 and < 1, got 0.0"),
        ("cs", {"k": True}, "param 'k' must be an integer, got True"),
        ("cs", {"n": 8, "k": 8}, "param 'k' must be below n = 8, got 8"),
        ("eigen", {"N": -5}, "param 'N' must be a finite number > 0, got -5"),
        ("psd", {"N": math.inf}, "param 'N' must be a finite number, got inf"),
        ("psd", {"N": math.nan}, "param 'N' must be a finite number, got nan"),
        ("lp-large", {"eps": -0.1}, "param 'eps' must be a finite number > 0 and < 1, got -0.1"),
        ("lp-large", {"eps": 1.0}, "param 'eps' must be a finite number > 0 and < 1, got 1.0"),
        ("psd", {"p": 0}, "param 'p' must be a finite number >= 1, got 0"),
        ("psd", {"p": 0.5}, "param 'p' must be a finite number >= 1, got 0.5"),
        ("psd", {"p": math.nan}, "param 'p' must be a finite number or inf, got nan"),
    ])
    def test_bad_sizes_name_the_key(self, name, params, why):
        # the key table's refusal reads "config error at '<family>/<key>':
        # <reason>"; a cross-field rule's names the family and key its own way
        key, reason = re.fullmatch(r"param '(\w+)' (.*)", why).groups()
        with pytest.raises(BadParams) as exc:
            HardFamily(name, params)
        msg = str(exc.value)
        assert msg == f"config error at '{name}/{key}': {reason}" or msg.startswith(f"{name} {why}")

    @pytest.mark.parametrize("name, params, why", [
        ("opnorm-alpha", {"N": True}, "'opnorm-alpha/N': must be a finite number, got True"),
        ("opnorm-alpha", {"gamma1": True},
         "'opnorm-alpha/gamma1': must be a finite number, got True"),
        ("psd", {"d": 4, "shift": 99.5}, "'psd/shift': must be an integer, got 99.5"),
        ("lp-small", {"s1": 0.5}, "'lp-small': 's1' is unknown; it takes ['N', 'eps', 'n', 'p']"),
    ], ids=["N-true", "gamma1-true", "shift-99.5", "s1-without-spike"])
    def test_bools_and_fractions_refused(self, name, params, why):
        with pytest.raises(BadParams) as exc:
            HardFamily(name, params)
        assert str(exc.value) == f"config error at {why}"

    def test_integral_floats_read_as_ints(self):
        # 16.0 reads as 16 and 99.0 as 99: the same params, calibration and
        # instance bytes as the all-int family
        for name, floats, ints in [("opnorm-alpha", {"n": 16.0}, {"n": 16}),
                                   ("psd", {"d": 4, "shift": 99.0}, {"d": 4, "shift": 99})]:
            fams = [HardFamily(name, dict(p)) for p in (floats, ints)]
            assert fams[0].params == fams[1].params
            assert [calibrate_family(f) for f in fams][0] == calibrate_family(fams[1])
            insts = [gen_hard_instance(f, "D2", derive(54, "int", name)) for f in fams]
            assert insts[0].payload.dtype == insts[1].payload.dtype == np.int64
            assert insts[0].payload.tobytes() == insts[1].payload.tobytes()
            assert type(fams[0].params[next(iter(ints))]) is int

    def test_sizes_take_any_integer_type(self):
        fam = HardFamily("kyfan", {"n": np.int64(8), "s": 8})
        assert fam.params["n"] == fam.params["s"] == 8

    def test_default_params_in_fill_order(self):
        inf = math.inf
        want = {
            "lp-small": [("N", 1e6), ("n", 1024), ("p", 1.5), ("eps", 0.1)],
            "lp-large": [("N", 1e6), ("n", 1024), ("p", 4.0), ("eps", 0.1),
                         ("delta", 1.0 / 9.0)],
            "opnorm-alpha": [("N", 1e4), ("n", 64), ("alpha", 2.0)],
            "opnorm-eps": [("N", 1e4), ("d", 64), ("eps", 0.1)],
            "kyfan": [("N", 1e4), ("n", 64), ("s", 4)],
            "eigen": [("N", 1e4), ("d", 64), ("eps", 0.1)],
            "psd": [("N", 1e4), ("d", 64), ("p", inf), ("eps", 0.1)],
            "cs": [("N", 1e6), ("n", 256), ("k", 8), ("eps", 0.2),
                   ("in_asymptotic_regime", False)],
        }
        assert list(FAMILY_NAMES) == list(want)
        for name, items in want.items():
            assert list(HardFamily(name).params.items()) == items, name

    def test_cs_regime_flag_recorded(self):
        fam = HardFamily("cs", {"n": 256, "k": 8, "eps": 0.2})
        assert fam.params["in_asymptotic_regime"] is False  # desk eps below the bound

    def test_payloads_are_integers(self):
        for name, params in [
            ("lp-small", {"n": 64}),
            ("lp-large", {"n": 64}),
            ("opnorm-alpha", {"n": 16}),
            ("kyfan", {"n": 16, "s": 2}),
            ("eigen", {"d": 16}),
            ("psd", {"d": 16}),
            ("cs", {"n": 64, "k": 4, "eps": 0.4}),
        ]:
            fam = HardFamily(name, params)
            for side in ("D1", "D2"):
                inst = gen_hard_instance(fam, side, derive(51, name, side))
                assert np.issubdtype(inst.payload.dtype, np.integer), name

    def test_exact_linear_planting(self):
        fam = HardFamily("opnorm-alpha", {"n": 16})
        rng = derive(51, "plant")
        inst = gen_hard_instance(fam, "D2", rng)
        base = inst.payload - planted_spike(inst.witness)
        # payload minus the integer planted spike is exactly a null-side draw
        assert np.issubdtype(base.dtype, np.integer)
        # distributional check: pooled entries of many reconstructed bases
        # match a fresh null batch
        recon, fresh = [], []
        for i in range(40):
            r = derive(51, "plant2", i)
            d2 = gen_hard_instance(fam, "D2", r)
            recon.append((d2.payload - planted_spike(d2.witness)).ravel())
            fresh.append(gen_hard_instance(fam, "D1", derive(51, "plant3", i)).payload.ravel())
        est = stats.empirical_tvd(np.concatenate(recon).astype(float),
                                  np.concatenate(fresh).astype(float),
                                  rng=derive(51, "plant-bins"))
        assert est.value <= 0.03

    def test_opnorm_alpha_reconstruction(self):
        fam = HardFamily("opnorm-alpha", {"n": 64, "alpha": 2.0})
        thr = calibrate_family(fam)
        inst = gen_hard_instance(fam, "D2", derive(51, "rec"))
        residual = (inst.payload - planted_spike(inst.witness)).astype(float)
        sv = np.linalg.svd(residual, compute_uv=False)
        C1 = thr["C_cal"]
        N, n = fam.params["N"], fam.params["n"]
        assert sv[0] <= C1 * N * math.sqrt(n) * 1.05

    def test_lp_large_witness(self):
        fam = HardFamily("lp-large", {"n": 256, "p": 4.0, "delta": 1.0 / 9.0})
        inst = gen_hard_instance(fam, "D2", derive(51, "lpl"))
        assert len(inst.witness["T"]) == 1  # t = log_3(3) = 1
        assert inst.witness["mag"] > 0

    def test_lp_small_concentration(self):
        # ||x||^2/(N^2 n) has relative std sqrt(2/n) = 4.4% per draw at
        # n=1024, so the 1% band is checked on a 50-draw mean
        fam = HardFamily("lp-small", {"n": 1024, "p": 2.0, "eps": 0.1})
        N = fam.params["N"]
        ratios = []
        for i in range(50):
            inst = gen_hard_instance(fam, "D1", derive(51, "lps", i))
            ratios.append(float(inst.payload @ inst.payload) / (N * N * 1024))
        assert 0.99 <= float(np.mean(ratios)) <= 1.01


class TestExpectedPNorm:
    def test_closed_form_at_p1(self):
        for n in (1, 7, 1024):
            want = n * math.sqrt(2.0 / math.pi)
            assert abs(expected_p_norm(n, 1.0) - want) <= 1e-12 * want
            # the quadrature just above p = 1, where a/Gamma(1 - a) -> 0:
            # ||g||_p falls as p grows, and only by O(p - 1)
            near = expected_p_norm(n, 1.0 + 1e-7)
            assert want * (1.0 - 1e-5) < near <= want * (1.0 + 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 16, 1021, 1024])
    def test_chi_mean_at_p2(self, n):
        with mp.workdps(30):
            want = float(mp.sqrt(2) * mp.gamma(mp.mpf(n + 1) / 2) / mp.gamma(mp.mpf(n) / 2))
        assert abs(expected_p_norm(n, 2.0) - want) <= 1e-12 * want

    @pytest.mark.parametrize("n, p, dps", [(1024, 1.5, 20), (1021, 4.0, 40)])
    def test_matches_mpmath_quadrature(self, n, p, dps):
        # p = 4 needs the digits: M(t)'s Bessel terms cancel to 1/z^2 at small t
        want = ref_expected_p_norm(n, p, dps)
        assert abs(expected_p_norm(n, p) - want) <= 1e-10 * want

    @pytest.mark.parametrize("n, p", [(64, 1.5), (16, 3.0)])
    def test_matches_seeded_monte_carlo(self, n, p):
        rng = derive(53, "Ep", n, str(p))
        norms = np.concatenate([
            np.sum(np.abs(rng.standard_normal((20_000, n))) ** p, axis=1) ** (1.0 / p)
            for _ in range(10)
        ])
        se = float(np.std(norms)) / math.sqrt(norms.size)
        assert abs(expected_p_norm(n, p) - float(np.mean(norms))) <= 5.0 * se

    @pytest.mark.parametrize("p", [1.0, 1.001, 1.01, 1.5, 3.0, 8.0])
    def test_fast_and_quiet(self, p):
        uncached = expected_p_norm.__wrapped__
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                value = uncached(1024, p)
                best = min(best, time.perf_counter() - t0)
        assert math.isfinite(value) and value > 0.0
        assert best < 0.05

    @pytest.mark.parametrize("p", [0.5, math.inf, math.nan])
    def test_rejects_p_outside_range(self, p):
        with pytest.raises(BadParams):
            expected_p_norm.__wrapped__(16, p)


class TestSupportFamily:
    def test_pairwise_symmetric_difference(self):
        n, k = 256, 8
        count = default_support_count(n, k)
        fam_sets = support_family(n, k, count)
        assert len(fam_sets) == count == 1024
        masks = np.zeros((count, n), dtype=np.int8)
        for i, S in enumerate(fam_sets):
            masks[i, list(S)] = 1
        inter = masks @ masks.T
        np.fill_diagonal(inter, 0)
        assert int(inter.max()) <= k // 2  # |S delta S'| >= k

    @pytest.mark.parametrize("n, k, count", [
        (256, 8, default_support_count(256, 8)),
        (512, 8, default_support_count(512, 8)),
        (24, 4, 80),  # dense: many proposals overlap a kept subset in 3 > k/2
    ])
    def test_matches_the_mask_loop(self, n, k, count):
        # the per-coordinate index keeps the subsets the old loop kept, which
        # checked each proposal against a mask of every kept subset
        assert support_family.__wrapped__(n, k, count) == ref_support_family(n, k, count)

    def test_inclusion_frequency_band(self):
        n, k = 256, 8
        fam_sets = support_family(n, k, 1024)
        freq = np.zeros(n)
        for S in fam_sets:
            freq[list(S)] += 1
        freq /= len(fam_sets)
        assert np.all(freq >= 0.5 * k / n)
        assert np.all(freq <= 2.0 * k / n)


class TestGapEvents:
    def test_psd_d1_is_psd(self):
        fam = HardFamily("psd", {"d": 32})
        rep = verify_gap_event(gen_hard_instance(fam, "D1", derive(52, "psd")))
        assert rep["event_holds"]
        assert rep["statistic"] >= 0.0

    def test_psd_events_over_1000_pairs(self):
        # the shift is the tail bound N (2 sqrt(d) + 4.3) on sigma1 of the
        # null block, so a D1 draw fails with probability below 1e-4
        fam = HardFamily("psd")
        d, N = fam.params["d"], fam.params["N"]
        assert calibrate_family(fam)["shift"] == math.ceil(N * (2 * math.sqrt(d) + 4.3))
        d1 = d2 = 0
        for i in range(1000):
            rng = derive(5, "psd-rate", i)
            d1 += verify_gap_event(gen_hard_instance(fam, "D1", rng))["event_holds"]
            d2 += verify_gap_event(gen_hard_instance(fam, "D2", rng))["event_holds"]
        assert d1 >= 999
        assert d2 >= 999

    def test_battery_needs_a_pair(self):
        with pytest.raises(BadParams):
            gap_event_battery(HardFamily("eigen", {"d": 16}), pairs=0)

    def test_eigen_pairs(self):
        fam = HardFamily("eigen", {"d": 32, "eps": 0.1})
        rep = gap_event_battery(fam, pairs=30, seed=52)
        assert rep["both_hold"] >= 29

    def test_cs_decoding(self):
        fam = HardFamily("cs", {"n": 256, "k": 8, "eps": 0.2})
        inst = gen_hard_instance(fam, "D2", derive(52, "cs"))
        rep = verify_gap_event(inst)
        assert rep["event_holds"]
        assert rep["decoded"] == sorted(inst.witness["S"])

    def test_thresholds_recorded(self):
        fam = HardFamily("kyfan", {"n": 32, "s": 2})
        rep = verify_gap_event(gen_hard_instance(fam, "D1", derive(52, "ky")))
        assert "C" in rep["thresholds"]

    def test_side_tests_at_the_threshold(self):
        # thresholds equal to the instance's own statistic: D1 events are
        # `<=` for every family whose null side is low; D2 events are strict
        # `>` for the operator-norm families and `>=` for the others
        small = {"lp-small": {"n": 64}, "lp-large": {"n": 64},
                 "opnorm-alpha": {"n": 16}, "opnorm-eps": {"d": 8, "eps": 0.2},
                 "kyfan": {"n": 16, "s": 2}, "eigen": {"d": 16}}
        d2_holds = {"lp-small": True, "lp-large": True, "kyfan": True,
                    "opnorm-alpha": False, "opnorm-eps": False}
        for name, params in small.items():
            fam = HardFamily(name, params)
            sides = ("D1", "D2") if name in d2_holds else ("D1",)
            for side in sides:
                inst = gen_hard_instance(fam, side, derive(52, "at-thr", name, side))
                stat = verify_gap_event(inst, {"lo": 0.0, "hi": 0.0})["statistic"]
                rep = verify_gap_event(inst, {"lo": stat, "hi": stat})
                assert rep["threshold"] == rep["statistic"] == stat, (name, side)
                want = True if side == "D1" else d2_holds[name]
                assert rep["event_holds"] is want, (name, side)

    def test_calibration_cached_and_deterministic(self):
        fam = HardFamily("opnorm-alpha", {"n": 32})
        a = calibrate_family(fam)
        b = calibrate_family(fam)
        assert a is b
        fam2 = HardFamily("opnorm-alpha", {"n": 32})
        c = calibrate_family(fam2)
        assert c["C_cal"] == a["C_cal"]


class TestCalibrationMemo:
    # each case's params and the derived parameters calibration fills
    CASES = [("opnorm-alpha", {"n": 16}, ["gamma1"]),
             ("psd", {"d": 16}, ["shift", "c_psd"]),
             ("lp-large", {"n": 64}, [])]

    @pytest.mark.parametrize("name, params, derived", CASES)
    def test_equal_family_draws_nothing(self, name, params, derived, monkeypatch):
        harddist._fit_calibration.cache_clear()
        first = HardFamily(name, dict(params))
        keys = list(first.params)
        want = calibrate_family(first)
        assert list(first.params) == keys + derived

        def no_draw(*args, **kwargs):
            raise AssertionError("calibration drew again")

        monkeypatch.setattr(harddist.dgauss, "sample_dgauss_1d", no_draw)
        # an equal family that gives every default explicitly
        fam = HardFamily(name, {**HardFamily(name).params, **params})
        keys = list(fam.params)
        got = calibrate_family(fam)
        assert got == want and got is not want
        assert calibrate_family(fam) is got
        assert fam.params == first.params
        assert list(fam.params) == keys + derived

    @pytest.mark.parametrize("name, params, key, value", [
        ("opnorm-alpha", {"n": 16}, "gamma1", 9.0),
        ("psd", {"d": 16}, "shift", 123_456),
    ])
    def test_given_derived_constant_is_kept(self, name, params, key, value):
        filled = HardFamily(name, dict(params))
        calibrate_family(filled)
        assert filled.params[key] != value
        fam = HardFamily(name, {**params, key: value})
        thresholds = calibrate_family(fam)
        assert fam.params[key] == value
        # the thresholds are fit for the given value, not read from the
        # default entry; psd sizes its spike for the matrix it shifts
        assert thresholds[key] == value
        if key == "shift":
            assert thresholds["c_psd"] == fam.params["c_psd"] != filled.params["c_psd"]
            assert thresholds["sigma1_required"] > value
        again = HardFamily(name, dict(params))
        calibrate_family(again)
        assert again.params[key] == filled.params[key]

    def test_edits_stay_with_their_object(self):
        a = HardFamily("eigen", {"d": 16})
        thresholds = calibrate_family(a)
        want_thr, want_params = dict(thresholds), dict(a.params)
        thresholds["lo"] = -1.0
        a.params["c_e"] = 0.0
        b = HardFamily("eigen", {"d": 16})
        assert calibrate_family(b) == want_thr
        assert b.params == want_params


class TestStructuralChecks:
    def test_mgf_zero_coupling(self):
        rep = mgf_cross_term_check(0.0, 1e4, 50_000, derive(53, "m0"))
        assert rep["ok"] and abs(rep["estimate"] - 1.0) < 0.01
        assert 0.0 <= rep["se"] < math.inf

    def test_mgf_rule_scales_with_trials(self):
        # below a = 1/4 the bound is the limit plus 5 standard errors
        a, trials = 0.2, 200_000
        rep = mgf_cross_term_check(a, 1e4, trials, derive(53, "m2"))
        limit = (1.0 - a * a) ** -0.5
        assert rep["ok"] and 0.0 < rep["se"] < 1e-3
        assert rep["bound"] == limit + 5.0 * rep["se"]

    def test_mgf_rule_rejects_inflated_variance(self, monkeypatch):
        # mutation: y drawn at 1.5 sigma^2 moves the mean to
        # (1 - 1.5 a^2)^(-1/2) = 1.0314 at a = 0.2, inside the old 2%
        # headroom (1.0410) but 20 standard errors above the limit 1.0206
        a, s2 = 0.2, 1e4
        draws = []
        sample = harddist.dgauss.sample_dgauss_1d

        def inflated(sigma2, rng, size=None):
            draws.append(sigma2)
            return sample(sigma2 * (1.5 if len(draws) == 2 else 1.0), rng, size=size)

        monkeypatch.setattr(harddist.dgauss, "sample_dgauss_1d", inflated)
        rep = mgf_cross_term_check(a, s2, 200_000, derive(53, "m2"))
        assert draws == [s2, s2]
        assert rep["estimate"] <= 1.02 * (1.0 - a * a) ** -0.5
        assert not rep["ok"]

    def test_mgf_half(self):
        # the estimator's second moment (1 - 4a^2)^(-1/2) diverges at a = 1/2
        # in the Gaussian limit: no pass rule there scales with trials
        for a in (0.5, 0.9):
            with pytest.raises(BadParams, match="needs 0 <= a < 1/2"):
                mgf_cross_term_check(a, 1e4, 1000, derive(53, "m5"))

    def test_mgf_bad_a(self):
        with pytest.raises(BadParams):
            mgf_cross_term_check(1.5, 1e4, 1000, derive(53, "mb"))

    def test_singular_concentration_continuous_oracle(self):
        # pre-validate the Davidson-Szarek edges sqrt(m) -+ (sqrt(n) + 4.3)
        # on continuous Gaussians with LAPACK's SVD, then check the discrete
        # run; both edges bind (lo > 0)
        rng = derive(53, "svc")
        m, n, N = 400, 100, 1e4
        lo = math.sqrt(m) - math.sqrt(n) - 4.3
        hi = math.sqrt(m) + math.sqrt(n) + 4.3
        assert lo > 0
        inside = 0
        for _ in range(10):
            G = rng.standard_normal((m, n)) * N
            sv = np.linalg.svd(G, compute_uv=False)
            inside += int(sv[-1] >= N * lo and sv[0] <= N * hi)
        assert inside == 10
        rep = singular_value_concentration(m, n, N, 10, derive(53, "svc-d"))
        assert rep["lo"] == N * lo and rep["hi"] == N * hi
        assert rep["all_inside"] == 10


class TestGramSpectrum:
    @pytest.mark.parametrize("shape", [(400, 16), (64, 64), (16, 400)])
    def test_matches_jacobi_on_integer_matrices(self, shape):
        X = derive(55, "gram", *shape).integers(-1000, 1001, size=shape)
        _assert_jacobi_spectrum(X)

    @pytest.mark.parametrize("name, params", [
        ("opnorm-eps", {"d": 32, "eps": 0.2}),
        ("kyfan", {}),
    ])
    def test_matches_jacobi_on_calibrated_d2_payloads(self, name, params):
        fam = HardFamily(name, params)
        calibrate_family(fam)
        _assert_jacobi_spectrum(gen_hard_instance(fam, "D2", derive(55, name)).payload)

    def test_float_gram_is_exact_at_the_tail_cut(self):
        # opnorm-eps's null block: 6400 x 64 with every entry at the
        # sampler's 12-sigma cut, sigma = 1e4; 6400 (12 sigma + 1)^2 < 2^53,
        # so the float64 product equals the exact integer Gram matrix
        c = 12 * 10_000 + 1
        X = c * derive(55, "signs").choice(np.array([-1, 1]), size=(6400, 64))
        assert 6400 * c * c < 2**53
        exact = X.T @ X  # int64, exact: every partial sum is below 2^63
        G = X.astype(float).T @ X.astype(float)
        assert [int(v) for v in G.ravel()] == exact.ravel().tolist()

    def test_no_svd_on_the_hard_family_paths(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        # an earlier test's memoized calibration would skip the fit
        harddist._fit_calibration.cache_clear()
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        small = {"opnorm-alpha": {"n": 16}, "opnorm-eps": {"d": 8, "eps": 0.2},
                 "kyfan": {"n": 16, "s": 2}, "eigen": {"d": 16}, "psd": {"d": 16}}
        assert set(small) == set(harddist._MATRIX)
        for name, params in small.items():
            fam = HardFamily(name, params)
            thresholds = calibrate_family(fam)
            rng = derive(55, "no-svd", name)
            for side in ("D1", "D2"):
                verify_gap_event(gen_hard_instance(fam, side, rng), thresholds)
        singular_value_concentration(40, 10, 1e4, 2, derive(55, "no-svd-svc"))


def _assert_jacobi_spectrum(X):
    """harddist's Gram-matrix spectrum against the Jacobi oracle: every value
    within 1e-12 of sigma_1, and the top four, which the statistics read,
    within 1e-12 relative."""
    got = harddist._singular_values(X)
    ref, _ = jacobi_svd(X if X.shape[0] >= X.shape[1] else X.T)
    assert got.shape == ref.shape == (min(X.shape),)
    assert np.all(np.diff(got) <= 0)
    assert np.max(np.abs(got - ref)) <= 1e-12 * ref[0]
    assert np.all(np.abs(got[:4] - ref[:4]) <= 1e-12 * ref[:4])


# every family at a small size: a TVD chunk of 250 default opnorm-eps
# instances (6400 x 64 each) would take gigabytes
SMALL_FAMILIES = {
    "lp-small": {"n": 64},
    "lp-large": {"n": 64},
    "opnorm-alpha": {"n": 16},
    "opnorm-eps": {"d": 8, "eps": 0.2},
    "kyfan": {"n": 16, "s": 2},
    "eigen": {"d": 16},
    "psd": {"d": 16},
    "cs": {"n": 64, "k": 4},
}


class TestSketchedIndistinguishability:
    def test_dimension_guard(self):
        fam = HardFamily("opnorm-alpha", {"n": 16})
        with pytest.raises(DimensionTooLarge):
            sketched_indistinguishability(fam, d=5, trials=2000, rng=derive(54, "d"))
        for d in (0, -1):
            with pytest.raises(BadParams):
                sketched_indistinguishability(fam, d=d, trials=2000, rng=derive(54, "d"))
        for trials in (0, -3):
            with pytest.raises(BadParams, match="trials must be at least 1"):
                sketched_indistinguishability(fam, d=1, trials=trials, rng=derive(54, "d"))

    @pytest.mark.parametrize("name, params, d", [
        ("lp-large", {"n": 2}, 3),   # d above the payload size 2
        ("psd", {"d": 1}, 5),        # the payload (2d)^2 is never below the cap 4
        ("psd", {"d": 1}, 0),
    ])
    def test_refused_d_draws_and_calibrates_nothing(self, name, params, d, monkeypatch):
        calibrations = []
        monkeypatch.setattr(harddist, "calibrate_family",
                            lambda family: calibrations.append(family))
        fam = HardFamily(name, params)
        rng, untouched = derive(54, "refused"), derive(54, "refused")
        with pytest.raises((BadParams, DimensionTooLarge)):
            sketched_indistinguishability(fam, d=d, trials=2000, rng=rng)
        # the next raw words are equal: the refusal advanced no stream
        assert np.array_equal(rng.bit_generator.random_raw(4),
                              untouched.bit_generator.random_raw(4))
        assert calibrations == []

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_every_family_draws_through_the_generator(self, name, monkeypatch):
        # both sides come from the one instance generator, with no probe
        # draw (the params size the sketch), in chunks of 250 instances or 256,000
        # entries, whichever is fewer: opnorm-eps's 1600-entry blocks come
        # 160 at a time
        calls = []
        draw = harddist._draw

        def spy(family, side, size, rng):
            X, wit = draw(family, side, size, rng)
            calls.append((side, size, X[0].size))
            return X, wit

        monkeypatch.setattr(harddist, "_draw", spy)
        fam = HardFamily(name, SMALL_FAMILIES[name])
        trials = 1100
        rep = sketched_indistinguishability(fam, d=2, trials=trials, rng=derive(54, "all", name))
        dim = calls[0][2]
        chunk = min(250, 256_000 // dim)
        chunks = [chunk] * (trials // chunk) + [trials % chunk] * (trials % chunk > 0)
        assert dim == harddist._payload_size(fam)
        assert calls == [("D1", c, dim) for c in chunks] + [("D2", c, dim) for c in chunks]
        assert (chunk < 250) == (name == "opnorm-eps")
        tvd = rep["tvd"]
        assert tvd["n1"] == tvd["n2"] == trials and 0.0 <= tvd["value"] <= 1.0

    def test_chunks_stay_within_the_entry_budget(self, monkeypatch):
        # at opnorm-eps's defaults one instance is a 6400 x 64 block, so the
        # TVD draws one instance at a time, not 250 (some GB per chunk)
        fam = HardFamily("opnorm-eps")
        shape = harddist._block_shape(fam)
        assert shape == (6400, 64)
        sizes = []

        def zeros(family, side, size, rng):
            sizes.append(size)
            return np.zeros((size, *shape), dtype=np.int64), {}

        monkeypatch.setattr(harddist, "_draw", zeros)
        rep = sketched_indistinguishability(fam, d=1, trials=1000, rng=derive(54, "budget"))
        assert rep["tvd"]["n1"] == rep["tvd"]["n2"] == 1000
        # 409,600 entries each: past the 256,000-entry budget, so one per call,
        # and no probe instance besides them
        assert sizes == [1] * 2000

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_every_batched_row_is_planted(self, name):
        # each row of a batch carries its own plant: at the defaults every
        # row of a D2 batch meets the D2 event, and every row's payload minus
        # its own plant is the null row drawn from the same seed (lp-small's
        # D2 draws at another variance and plants nothing)
        fam = HardFamily(name)
        X, wit = harddist._draw(fam, "D2", 3, derive(54, "batch", name))
        assert X.shape[0] == 3
        for i in range(3):
            row = {k: v if np.isscalar(v) else v[i] for k, v in wit.items()}
            assert verify_gap_event(harddist.HardInstance(fam, "D2", X[i], row))["event_holds"]
        if name == "lp-small":
            return
        null, _ = harddist._draw(fam, "D1", 3, derive(54, "batch", name))
        base = unplant(name, X, wit)
        assert base.dtype == np.int64 and np.array_equal(base, null)

    def test_plant_is_exact_past_float64(self):
        # planted entries near 5e16 are not all float64 integers, so only an
        # int64 addition of the rounded spike leaves exactly the null block
        fam = HardFamily("kyfan", {"N": 1e6, "n": 8, "s": 3, "s1": 1e10})
        X, wit = harddist._draw(fam, "D2", 2, derive(54, "wide"))
        null, _ = harddist._draw(fam, "D1", 2, derive(54, "wide"))
        assert np.abs(X).max() > 2**53
        assert np.array_equal(X - planted_spike(wit), null)
        assert not np.array_equal(X.astype(float) - planted_spike(wit).astype(float), null)

    def test_spike_past_int64_is_refused(self):
        # |s1| sum_i max|u_i| max|v_i| bounds every spike entry; at 2^62 or
        # past it (or not finite) the int64 plant could wrap
        why = re.escape("is not below 2^62 (int64)")
        with pytest.raises(BadParams, match=why):
            gen_hard_instance(HardFamily("opnorm-alpha", {"alpha": 1e300, "n": 8}), "D2",
                              derive(54, "huge"))
        with pytest.raises(BadParams, match=why):
            harddist._draw(HardFamily("kyfan", {"N": 1e6, "n": 8, "s": 3, "s1": 1e12}),
                           "D2", 2, derive(54, "wide"))
        one = np.ones((1, 1), dtype=np.int64)
        below = math.nextafter(2.0**62, 0.0)
        assert planted_spike({"u": one, "v": one, "s1": -below})[0, 0] == -int(below)
        for s1 in (2.0**62, -(2.0**62), math.inf, math.nan):
            with pytest.raises(BadParams, match=why):
                planted_spike({"u": one, "v": one, "s1": s1})

    @pytest.mark.parametrize("name", harddist._MATRIX)
    def test_planted_spike_matches_reference(self, name):
        # one instance and a 3-row batch at the defaults (kyfan sums 4 spikes)
        fam = HardFamily(name)
        inst = gen_hard_instance(fam, "D2", derive(54, "spike", name))
        w = inst.witness
        assert set(w) == {"u", "v", "s1"} | ({"shift"} if name == "psd" else set())
        want = ref_planted_spike(w["u"][None], w["v"][None], w["s1"])[0]
        assert planted_spike(w).dtype == np.int64
        assert np.array_equal(planted_spike(w), want)
        _, wit = harddist._draw(fam, "D2", 3, derive(54, "spikes", name))
        assert np.array_equal(planted_spike(wit), ref_planted_spike(wit["u"], wit["v"], wit["s1"]))

    @pytest.mark.parametrize("params, size", [
        ({"n": 32, "s1": 40.0 / math.sqrt(32)}, 250),  # a sketched-TVD chunk
        ({"n": 5, "s1": 0.37}, 7),
    ], ids=["tvd-chunk", "odd"])
    def test_planted_spike_in_row_blocks(self, params, size, monkeypatch):
        # blocks of a few rows, and blocks that do not divide the rows
        fam = HardFamily("opnorm-alpha", params)
        _, wit = harddist._draw(fam, "D2", size, derive(54, "blocks", size))
        want = ref_planted_spike(wit["u"], wit["v"], wit["s1"])
        for block in (harddist._SPIKE_BLOCK, 3 * size * params["n"], 1):
            monkeypatch.setattr(harddist, "_SPIKE_BLOCK", block)
            assert np.array_equal(planted_spike(wit), want)

    def test_null_and_spiked(self):
        n = 16
        zero = HardFamily("opnorm-alpha", {"n": n, "s1": 0.0})
        rep0 = sketched_indistinguishability(zero, d=1, trials=6000,
                                             rng=derive(54, "z"))
        assert rep0["tvd"]["value"] <= 0.05
        big = HardFamily("opnorm-alpha", {"n": n, "s1": 40.0 / math.sqrt(n)})
        rep1 = sketched_indistinguishability(big, d=1, trials=6000,
                                             rng=derive(54, "b"))
        assert rep1["tvd"]["value"] >= 0.4


def unplant(name, X, wit):
    """A D2 batch's payloads minus their plants."""
    base = X.copy()
    if name == "lp-large":
        for row, T in zip(base, wit["T"]):
            row[T] -= wit["mag"]
    elif name == "cs":
        base -= wit["z"]
    elif name == "psd":
        spike = planted_spike(wit)
        m = spike.shape[1]
        base[:, :m, m:] -= spike
        base[:, m:, :m] -= spike.transpose(0, 2, 1)
    else:
        base -= planted_spike(wit)
    return base


MB = 1 << 20


class TestPlantMemory:
    """A planted draw holds its payload, the plant's bounded float blocks and
    the sampler's own workspace, and a D2 matrix witness only the spike
    factors."""

    def test_single_instance_draw(self, traced_peak):
        fam = HardFamily("opnorm-eps")  # a 6400 x 64 block, 3.3 MB
        harddist._draw(fam, "D2", 1, derive(55, "warm"))  # fill the envelope caches
        (X, _), peak = traced_peak(harddist._draw, fam, "D2", 1, derive(55, "mem"))
        assert peak <= X.nbytes + X.size * 8 + MB

    def test_tvd_chunk_draw(self, traced_peak):
        fam = HardFamily("opnorm-alpha", {"n": 32, "s1": 40.0 / math.sqrt(32)})
        harddist._draw(fam, "D2", 1, derive(55, "warm"))
        (X, _), peak = traced_peak(harddist._draw, fam, "D2", 250, derive(55, "chunk"))
        assert peak <= X.nbytes + X.size * 8 + MB

    @pytest.mark.parametrize("name", harddist._MATRIX)
    def test_witness_holds_the_factors(self, name):
        inst = gen_hard_instance(HardFamily(name), "D2", derive(55, "witness", name))
        held = sum(v.nbytes for v in inst.witness.values() if isinstance(v, np.ndarray))
        assert 0 < held <= inst.payload.nbytes / 8
