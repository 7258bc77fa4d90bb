"""The adaptive attack end to end: build a GapNorm sketch, interrogate it
with discrete Gaussian queries shaped around the learned subspace, terminate
on a rate contradiction, and extract concrete integer exploit queries.

Run: python demos/03_adaptive_attack.py        (a few seconds)
"""

from sketchlab.acceptance import attack_setup
from sketchlab.attack import invariant_diagnostic, run_attack, verify_certificate
from sketchlab.rng import derive
from sketchlab.sketch import ExactNormOracle, GapNormOracle

# the attack block of a config (its keys: acceptance.ATTACK_FIELDS);
# alpha_policy "auto" sets alpha from n and the entry bound M alone: n M^2,
# the squared length pre-processing certifies for the sketch's orthogonal
# lattice, times ln(2n(1+1/eps))/pi, floored at the sampling margin
sketch, params, config, how = attack_setup(
    {"n": 128, "r": 8, "family": "projection-threshold", "B": 8.0,
     "alpha_policy": "auto", "m": 2000, "grid": {"points": 16}},
    seed=1,
)
n, r, alpha = sketch.n, sketch.r, params.alpha
print(f"lattice term at ell^2 = n M^2 = {n * sketch.A.max_abs_entry() ** 2}: "
      f"{how['alpha_lattice_term']:.1f}, sampling floor "
      f"{how['alpha_floor']:.1f}  ->  alpha = {alpha:.1f} ({how['alpha_binds']} binds)")

est = sketch.estimator
print(f"threshold calibration: tau={est['tau']:.0f}, "
      f"false rates low/high = {est['false_low']:.3f}/{est['false_high']:.3f}")

oracle = GapNormOracle(sketch, params)

out = run_attack(oracle, n, r, config, derive(7, "attack"))
print(f"\noutcome: {out.outcome} after {oracle.query_count} queries")

if out.certificate is not None:
    c = out.certificate
    print(f"certificate: side={c.side}, sigma^2={c.sigma2:.1f}, "
          f"rate={c.empirical_rate:.3f} (zeta={c.zeta:.3f}), round={c.round}")
    rep = verify_certificate(oracle, c, trials=10_000, rng=derive(7, "verify"))
    ex = rep["exploits"][0]
    print(f"verified: {rep['exploit_count']} exploits "
          f"({rep['failure_rate']:.1%} of fresh queries); "
          f"{rep['promise_violations']} answers break the promise")
    print(f"example exploit: integer vector with ||x||^2 = {ex.norm_sq:.0f}, "
          f"oracle answered {ex.answer}")

# white-box diagnostic: how close is the learned basis to the rowspan?
diag = invariant_diagnostic(out.state, sketch)
print(f"\nlearned subspace: dim {diag['dim']}, "
      f"sin theta_max to rowspan {diag['sin_theta_max']:.4f}")

# negative control: an oracle that answers from the true norm admits no
# certificate at these rates
truth = ExactNormOracle(n, params)
out2 = run_attack(truth, n, r, config, derive(7, "control"))
print(f"\nground-truth oracle outcome: {out2.outcome} "
      f"(a correct f admits no rate contradiction)")
