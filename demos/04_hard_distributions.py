"""Hard-distribution pairs: null vs planted constructions whose separating
statistics look identical through a low-dimensional sketch.

Run: python demos/04_hard_distributions.py      (about a minute)
"""

import math

from sketchlab.harddist import (
    HardFamily,
    calibrate_family,
    gap_event_battery,
    gen_hard_instance,
    sketched_indistinguishability,
    verify_gap_event,
)
from sketchlab.rng import derive

# --- one pair, up close -----------------------------------------------------
fam = HardFamily("opnorm-alpha", {"n": 64, "alpha": 2.0})
thr = calibrate_family(fam)
print(f"opnorm-alpha calibration: C={thr['C']:.3f} (null-side 99.9th pct), "
      f"spike gamma1={thr['gamma1']:.2f}")

rng = derive(99, "demo4")
null = gen_hard_instance(fam, "D1", rng)
planted = gen_hard_instance(fam, "D2", rng)
r1 = verify_gap_event(null, thr)
r2 = verify_gap_event(planted, thr)
print(f"null    side op-norm {r1['statistic']:.3e} <= {r1['threshold']:.3e}: "
      f"{r1['event_holds']}")
print(f"planted side op-norm {r2['statistic']:.3e} >  {r2['threshold']:.3e}: "
      f"{r2['event_holds']}")

# --- event rates per family --------------------------------------------------
print("\nseparating-event rates over 25 seeded pairs, at default parameters:")
for name in ("lp-small", "lp-large", "kyfan", "eigen", "psd", "cs"):
    rep = gap_event_battery(HardFamily(name), pairs=25, seed=5)
    print(f"  {name:13s} {rep['both_hold']}/25")

# --- indistinguishability through a 1-row sketch -----------------------------
# A tiny spike leaves the sketched image statistically flat; a huge one is
# plainly visible. This is the mechanism behind the dimension lower bounds.
n = 32
for label, s1 in (("tiny spike", 0.1 / math.sqrt(n)),
                  ("huge spike", 40.0 / math.sqrt(n))):
    f = HardFamily("opnorm-alpha", {"n": n, "alpha": 2.0, "s1": s1})
    rep = sketched_indistinguishability(f, d=1, trials=30_000,
                                        rng=derive(99, label))
    print(f"{label}: empirical TVD of sketched images = {rep['tvd']['value']:.3f}")
