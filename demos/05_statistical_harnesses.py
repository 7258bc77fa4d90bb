"""Statistical harnesses: the cell-lemma closeness check (discrete image plus
cell noise vs the continuous Gaussian image), exact pmf ratios, and the
chi-square mixture bound.

Run: python demos/05_statistical_harnesses.py
"""

from sketchlab import stats
from sketchlab.rng import derive

rng = derive(77, "demo5")

# --- cell lemma --------------------------------------------------------------
# For an integer sketch A and a discrete Gaussian x with variance far above
# the lattice scale, A x plus uniform cell noise is statistically close to
# N(0, sigma^2 I) in the orthonormal row basis; and the cell-rounded image of
# a continuous Gaussian is close to the exact discrete image.
sk = stats.cell_lemma_sketch(2, 8, rng, seed=0)
rep = stats.cell_lemma_check(sk, 1e8, trials=50_000, rng=rng)
print("cell lemma, r=2, n=8, sigma^2=1e8:")
print(f"  certified kernel length: {rep['certified_kernel_length']:.2f}")
print(f"  TVD(discrete image + cell noise, continuous image) = "
      f"{rep['tvd_noise_path']['value']:.4f}  (null bound "
      f"{rep['tvd_noise_path']['null_bound']:.4f})")
print(f"  TVD(rounded continuous image, discrete image)      = "
      f"{rep['tvd_round_path']['value']:.4f}  (null bound "
      f"{rep['tvd_round_path']['null_bound']:.4f})")

# --- exact pmf ratio ----------------------------------------------------------
rep = stats.pmf_ratio_check(sigma2=10_000.0, n=10, C=2)
print(f"\npmf ratio, n=10, C=2, sigma^2=1e4: max |ratio - 1| = "
      f"{rep['max_deviation']:.2e} <= 1/n^C = {rep['bound']}")

# --- chi-square mixture bound ---------------------------------------------------
rep = stats.chi_square_mixture_check(0.5, 1.0, 200_000, derive(77, "chi2"))
print(f"\nchi^2 mixture bound (mu = +-0.5 e1, sigma=1):")
print(f"  chi^2 estimate {rep['lhs_chi2']:.5f} +- {rep['lhs_se']:.5f} vs "
      f"bound {rep['rhs_bound']:.5f} (cosh form; equality case): ok={rep['ok']}")

# --- empirical TVD tooling -----------------------------------------------------
x = derive(77, "a").standard_normal(100_000)
y = derive(77, "b").standard_normal(100_000) + 1.0
est = stats.empirical_tvd(x, y, rng=derive(77, "c"))
print(f"\nempirical TVD N(0,1) vs N(1,1): {est.value:.4f} "
      f"+- {est.ci_halfwidth:.4f}  (closed form 0.3829)")
