"""Acceptance gate: every criterion from the battery must pass at its stated
tolerance. One pass/fail line is printed per criterion.

Set SKETCHLAB_FAST_ACCEPTANCE=1 to run the reduced-size smoke variant during
development; the default is the full battery.
"""

import os

import pytest
from scipy.stats import binom, chi2

from sketchlab import acceptance
from sketchlab.attack import run_attack
from sketchlab.errors import BoundViolated
from sketchlab.rng import derive
from sketchlab.sketch import GapNormOracle

FAST = os.environ.get("SKETCHLAB_FAST_ACCEPTANCE", "0") == "1"

_RESULTS = {}


def _run(criterion_id):
    if criterion_id not in _RESULTS:
        fn = acceptance.ALL_CRITERIA[criterion_id - 1]
        rec = fn(fast=FAST)
        status = "PASS" if rec["ok"] else "FAIL"
        print(f"[{status}] criterion {rec['id']:2d}: {rec['name']} "
              f"({rec['elapsed_s']}s)")
        _RESULTS[criterion_id] = rec
    return _RESULTS[criterion_id]


@pytest.mark.parametrize("cid", range(1, 15))
def test_acceptance_criterion(cid):
    rec = _run(cid)
    assert rec["ok"], f"criterion {cid} failed: {rec['detail']}"
    if cid == 1:
        detail = rec["detail"]
        assert detail["runs"] == len(detail["per_run"]) == (3 if FAST else 10)


def test_criteria_registered_in_id_order():
    ids = [int(fn.__name__.split("_")[1]) for fn in acceptance.ALL_CRITERIA]
    assert ids == list(range(1, 15))
    rec = _run(5)
    assert list(rec) == ["id", "name", "ok", "elapsed_s", "detail"]
    assert rec["id"] == 5 and rec["ok"] is True


def test_preprocessing_rows_and_entries():
    # criterion 4's A' on every run: 4r = 12 rows, every entry within
    # sqrt(32) * 50, checked in integers
    detail = _run(4)["detail"]
    assert detail["good"] == detail["trials"]
    assert all(run["rows"] == 12 for run in detail["runs"])
    assert detail["max_bound"] ** 2 <= 32 * 50**2


def test_rates_follow_chi2_at_empty_subspace():
    # at V = {} a projection-threshold estimate ||Q x||^2 is sigma^2 chi^2_r
    # (Q has orthonormal rows), so chi2 predicts every answer rate of
    # criterion 1's sketches: the calibration's false_low and false_high at
    # the promise edges, and each round-1 record of criterion 1's runs. Each
    # count lies in its exact binomial band, at a 1% false-fail rate split
    # over the counts (Bonferroni)
    counts = []  # (count, trials, predicted rate)
    for i in range(10):
        sk, params, cfg, _ = acceptance.attack_setup(acceptance.ATTACK, 1000 + i)
        tau, r, m_cal = sk.estimator["tau"], sk.r, sk.estimator["m_cal"]
        low, high = params.edges
        counts.append((round(sk.estimator["false_low"] * m_cal), m_cal, chi2.sf(tau / low, r)))
        counts.append((round(sk.estimator["false_high"] * m_cal), m_cal, chi2.cdf(tau / high, r)))
        out = run_attack(GapNormOracle(sk, params), sk.n, sk.r, cfg, derive(77, "attack", i))
        counts += [(rec["m_prime"], cfg.m, chi2.sf(tau / rec["sigma2"], r))
                   for rec in out.state.transcript if rec["round"] == 1]
    assert len(counts) >= 30
    level = 0.01 / len(counts)
    for k, m, p in counts:
        lo, hi = binom.interval(1 - level, m, p)
        assert lo <= k <= hi, f"{k} of {m} outside [{lo}, {hi}] at predicted rate {p:.4f}"


def test_siegel_counts_only_bound_violations(monkeypatch):
    # a BoundViolated is a violation; any other exception is a crash and
    # propagates
    def raises(exc):
        def short_kernel_vector(A):
            raise exc
        return short_kernel_vector

    monkeypatch.setattr(acceptance, "short_kernel_vector", raises(BoundViolated("over")))
    rec = acceptance.criterion_3_siegel(fast=True)
    assert not rec["ok"] and rec["detail"]["violations"] == rec["detail"]["trials"] == 100
    monkeypatch.setattr(acceptance, "short_kernel_vector", raises(TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        acceptance.criterion_3_siegel(fast=True)
