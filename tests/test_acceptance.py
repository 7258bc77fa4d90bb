"""Acceptance gate: every criterion from the battery must pass at its stated
tolerance. One pass/fail line is printed per criterion.

Set SKETCHLAB_FAST_ACCEPTANCE=1 to run the reduced-size smoke variant during
development; the default is the full battery.
"""

import os

import pytest

from sketchlab import acceptance

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
