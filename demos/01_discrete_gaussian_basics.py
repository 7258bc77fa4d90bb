"""Discrete Gaussians over Z and Z^n: pmfs, exact samplers, and the
subspace-shaped covariance family the attack queries with.

Run: python demos/01_discrete_gaussian_basics.py
"""

import numpy as np

from sketchlab import dgauss
from sketchlab.numerics import OrthonormalBasis
from sketchlab.rng import derive

rng = derive(2024, "demo1")

# --- the 1-D pmf and its normalization ------------------------------------
# Mass at z is exp(-z^2 / 2 sigma^2) / Z(sigma^2). The partition function is
# bracketed by [max(sqrt(2 pi sigma^2), 1), sqrt(2 pi sigma^2) + 1]; the
# verifier below certifies this with 50-digit arithmetic.
for sigma2 in (0.5, 1.0, 100.0):
    rep = dgauss.verify_normalization_fact(sigma2)
    print(f"sigma^2={sigma2:>6}: Z in [{rep['Z_lower']:.6f}, {rep['Z_upper']:.6f}]"
          f"  bracket [{rep['bound_lo']:.6f}, {rep['bound_hi']:.6f}]  ok={rep['ok']}")

# --- exact sampling --------------------------------------------------------
# Every variance uses one exact rejection sampler whose proposal is a rounded
# continuous Gaussian.
x = dgauss.sample_dgauss_1d(100.0, rng, size=200_000)
print(f"\nsigma^2=100 draws: mean {x.mean():+.4f}, variance {x.var():.2f} (target 100)")

x = dgauss.sample_dgauss_1d(0.01, rng, size=10_000)
print(f"sigma^2=0.01 draws: all zero? {bool(np.all(x == 0))}")

# --- the attack's query distribution D(V^perp, sigma^2) --------------------
# Covariance (3 sigma^2/4) P_{V^perp} + (sigma^2/4) I: variance sigma^2/4
# along the learned subspace V, sigma^2 across it. Discrete sampling uses a
# continuous + 1-D-discrete convolution: continuous centres on V^perp only,
# rounded at sigma^2/4, the covariance's least eigenvalue, which sits above
# the smoothing margin.
n, sigma2 = 16, 10_000.0
V = OrthonormalBasis(n, [np.eye(n)[0]])
spec = dgauss.SubspaceGaussianSpec(n, V, sigma2)
X = dgauss.sample_subspace_query(spec, "discrete", rng, size=50_000)
print(f"\nsubspace query, n={n}, dim(V)=1, sigma^2={sigma2}:")
print(f"  var along V      = {X[:, 0].var():9.1f}  (target {sigma2 / 4})")
print(f"  var across V     = {X[:, 5].var():9.1f}  (target {sigma2})")
print(f"  entries integer? {np.issubdtype(X.dtype, np.integer)},"
      f" max |entry| = {np.abs(X).max()}")
