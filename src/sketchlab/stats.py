"""Statistical verification harnesses: empirical total variation distance
and its label-permutation null bound, cell-lemma closeness checks at an
isotropic D(0, sigma^2 I), exact pmf-ratio checks, and the chi-square
mixture bound at the mixture of +-a e1.

A histogram TVD check passes while its value is at most the permutation
bound `tvd_null_bound` of its own samples, so its false-fail rate is
TVD_NULL_LEVEL at every sample size; the pmf-ratio check compares against
its exact 1/n^C bound. Each report records the bound it was held to.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dgauss
from .errors import (BadParams, DimensionTooLarge, NonPositiveVariance, PreconditionUnmet,
                     TooFewSamples, VarianceTooLarge)
from .lattice import CellRounder, fundamental_cell_uniform, reduced_kernel_basis
from .rng import as_generator
from .sketch import IntegerSketch

TVD_BOOTSTRAP = 200  # multinomial resamples behind empirical_tvd's CI
TVD_NULL_LEVEL = 0.01  # tvd_null_bound's false-fail rate under the null
TVD_NULL_PERMS = 999  # relabellings behind tvd_null_bound
TVD_MAX_DIM = 4  # the most dimensions the histogram TVD bins
TVD_MIN_SAMPLES = 1000  # the fewest samples per side the histogram TVD bins


def require_tvd_samples(*counts):
    """Raise TooFewSamples unless each sample holds at least TVD_MIN_SAMPLES."""
    if min(counts) < TVD_MIN_SAMPLES:
        raise TooFewSamples(f"need >= {TVD_MIN_SAMPLES} samples per side, got "
                            f"{', '.join(map(str, counts))}")


@dataclass
class TvdEstimate:
    value: float
    ci_halfwidth: float
    n1: int
    n2: int
    binning: dict

    def as_dict(self):
        return {
            "value": self.value,
            "ci_halfwidth": self.ci_halfwidth,
            "n1": self.n1,
            "n2": self.n2,
            "binning": self.binning,
        }


def _bin_counts(X, Y, cells_per_axis):
    """Equal-mass product binning from pooled per-axis quantiles."""
    d = X.shape[1]
    pooled = np.vstack([X, Y])
    edge_list = []
    for ax in range(d):
        qs = np.quantile(pooled[:, ax], np.linspace(0, 1, cells_per_axis + 1)[1:-1])
        edge_list.append(np.unique(qs))
    def cell_index(Z):
        idx = np.zeros(len(Z), dtype=np.int64)
        mult = 1
        for ax in range(d):
            k = np.searchsorted(edge_list[ax], Z[:, ax], side="right")
            idx += k * mult
            mult *= len(edge_list[ax]) + 1
        return idx, mult
    ix, total = cell_index(X)
    iy, _ = cell_index(Y)
    cx = np.bincount(ix, minlength=total).astype(float)
    cy = np.bincount(iy, minlength=total).astype(float)
    return cx, cy, total


def _binned(samples1, samples2):
    """Both samples' counts in empirical_tvd's equal-mass cells, and the
    binning: the total cell budget is ceil(min(n1,n2)^(1/3)), split evenly
    across axes; dimensions above TVD_MAX_DIM raise DimensionTooLarge (a
    caller projects first)."""
    X = np.asarray(samples1, dtype=float)
    Y = np.asarray(samples2, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if Y.ndim == 1:
        Y = Y[:, None]
    d = X.shape[1]
    if d > TVD_MAX_DIM:
        raise DimensionTooLarge(
            f"histogram mode handles d <= {TVD_MAX_DIM} (got {d}); project the samples first"
        )
    n1, n2 = len(X), len(Y)
    require_tvd_samples(n1, n2)
    total_cells = int(math.ceil(min(n1, n2) ** (1 / 3)))
    per_axis = max(2, int(math.ceil(total_cells ** (1 / d))))
    cx, cy, ncells = _bin_counts(X, Y, per_axis)
    return cx, cy, {"cells_per_axis": per_axis, "dims": d, "total_cells": int(ncells)}


def empirical_tvd(samples1, samples2, rng=None):
    """Histogram TVD with equal-mass adaptive bins and a bootstrap CI.

    Bins as `_binned`. Bootstrap CIs come from TVD_BOOTSTRAP multinomial
    resamples of the binned counts (equivalent to resampling the samples at
    fixed bin edges).
    """
    cx, cy, binning = _binned(samples1, samples2)
    n1, n2 = int(cx.sum()), int(cy.sum())
    value = 0.5 * float(np.sum(np.abs(cx / n1 - cy / n2)))

    rng = as_generator(rng)
    boots = np.empty(TVD_BOOTSTRAP)
    px, py = cx / n1, cy / n2
    for b in range(TVD_BOOTSTRAP):
        rx = rng.multinomial(n1, px) / n1
        ry = rng.multinomial(n2, py) / n2
        boots[b] = 0.5 * float(np.sum(np.abs(rx - ry)))
    ci = 1.96 * float(np.std(boots))
    return TvdEstimate(value=value, ci_halfwidth=ci, n1=n1, n2=n2, binning=binning)


def tvd_null_bound(samples1, samples2, rng=None):
    """The permutation bound on empirical_tvd's value for these samples.

    Under the null that both samples share one law, every relabelling of
    the pooled samples is equally likely. The cell edges depend only on the
    pool, so a relabelling keeps the binning, and the first sample's counts
    are multivariate hypergeometric in the pooled counts. The bound is the
    ceil((P + 1)(1 - level))-th smallest of P = TVD_NULL_PERMS relabelled
    TVDs, so under the null the observed value exceeds it with probability
    at most level = TVD_NULL_LEVEL: that is a check's false-fail rate.
    """
    cx, cy, _ = _binned(samples1, samples2)
    n1, n2 = int(cx.sum()), int(cy.sum())
    pooled = (cx + cy).astype(np.int64)
    rx = as_generator(rng).multivariate_hypergeometric(pooled, n1, size=TVD_NULL_PERMS)
    null = 0.5 * np.sum(np.abs(rx / n1 - (pooled - rx) / n2), axis=1)
    k = math.ceil((TVD_NULL_PERMS + 1) * (1.0 - TVD_NULL_LEVEL))
    return float(np.sort(null)[k - 1])


def pmf_ratio_check(sigma2, n, C, z_range=None):
    """Exact 1-D rendering of the discrete-vs-rounded-continuous pmf ratio.

    Computes the n-dimensional ratio at the worst constant vector
    (z, z, ..., z) over |z| <= z_range (default 3 sigma) as the n-th power of
    the per-coordinate ratio, and compares against 1/n^C. The ratio w/q
    falls as |z| grows (see dgauss), so the deviation peaks at z = 0 or at
    |z| = z_range, the only points evaluated: time and memory do not grow
    with sigma. Deterministic. Raises VarianceTooLarge above
    dgauss.MAX_SIGMA2, where the rounded pmf loses its precision.
    """
    if n < 1:
        raise BadParams(f"pmf ratio needs n >= 1, got {n}")
    if not (math.isfinite(sigma2) and math.isfinite(C)):
        raise BadParams(f"pmf ratio needs a finite sigma2 and C, got {sigma2}, {C}")
    if C <= 0:  # the bound 1/n^C would be at least 1, which every ratio meets
        raise BadParams(f"pmf ratio needs C > 0, got {C}")
    if sigma2 <= n ** (C + 1):
        raise PreconditionUnmet(
            f"need sigma^2 > n^(C+1) = {n ** (C + 1)}, got {sigma2}"
        )
    if sigma2 > dgauss.MAX_SIGMA2:
        raise VarianceTooLarge(f"sigma^2 = {sigma2:.4g} above {dgauss.MAX_SIGMA2:g}")
    if z_range is None:
        z_range = int(math.ceil(3 * math.sqrt(sigma2)))
    zs = np.array([0, int(z_range)])
    p1 = dgauss.pmf_dgauss_1d(zs, sigma2)
    q1 = dgauss._rounded_gaussian_pmf(zs, math.sqrt(sigma2))
    log_ratio_nd = n * (np.log(p1) - np.log(q1))
    dev = float(np.max(np.abs(np.expm1(log_ratio_nd))))
    bound = 1.0 / n**C
    return {
        "max_deviation": dev,
        "bound": bound,
        "ok": bool(dev <= bound),
        "sigma2": sigma2,
        "n": n,
        "C": C,
        "z_range": int(z_range),
    }


def cell_lemma_sketch(r, n, rng, seed):
    """IntegerSketch of an r x n matrix with entries uniform on [-10, 10],
    redrawn from rng until it has full row rank: the matrix the cell-lemma
    check runs on. Raises BadParams unless 1 <= r <= n."""
    if not 1 <= r <= n:
        raise BadParams(f"cell-lemma sketch needs 1 <= r <= n, got r={r}, n={n}")
    while True:
        A = rng.integers(-10, 11, size=(r, n))
        if np.linalg.matrix_rank(A.astype(float)) == r:
            return IntegerSketch.from_matrix(A, seed=seed)


def cell_lemma_check(sketch, sigma2, trials, rng):
    """Distributional check that the sketch of a discrete Gaussian plus
    fundamental-cell noise matches the continuous image N(0, sigma^2 I_r).

    Draws x ~ D(0, sigma^2 I_n), forms Q x + R eta with eta uniform over the
    fundamental cell of the column lattice, and compares against
    N(0, sigma^2 I_r), the image under Q's orthonormal rows, via histogram
    TVD. Also runs the rounding-path variant: the cell-rounded image of a
    continuous Gaussian versus the exact discrete image.

    sigma2 must be positive, else NonPositiveVariance; trials below
    TVD_MIN_SAMPLES raise TooFewSamples before any draw. Preconditions
    (PreconditionUnmet): r <= TVD_MAX_DIM and sigma >= certified kernel
    length * 10 ln(n). A path passes while its TVD is at most
    `tvd_null_bound` of its own samples (recorded as its "null_bound"), so
    each path false-fails with probability at most TVD_NULL_LEVEL whatever
    `trials` is.
    """
    rng = as_generator(rng)
    A = sketch.A
    r, n = A.rows, A.cols
    if r > TVD_MAX_DIM:
        raise PreconditionUnmet(
            f"the cell lemma's two-sample tests need r <= {TVD_MAX_DIM}, got {r}")
    sigma2 = float(sigma2)
    if not sigma2 > 0:
        raise NonPositiveVariance(
            f"Sigma = sigma2 I: its least eigenvalue must be positive, got {sigma2}")
    m = int(trials)
    require_tvd_samples(m)
    lam = reduced_kernel_basis(A).certified_max_len
    floor = lam * 10.0 * math.log(n)
    if math.sqrt(sigma2) < floor:
        raise PreconditionUnmet(
            f"sigma_min = {math.sqrt(sigma2):.1f} below lattice floor {floor:.1f}"
        )

    rounder = CellRounder(A.entries)
    Af = A.entries.T.astype(float)

    # path 1: discrete image plus cell noise vs continuous image
    X = dgauss.sample_dgauss_1d(sigma2, rng, size=(m, n)).astype(float)
    ref = rng.standard_normal((m, r)) * math.sqrt(sigma2)
    Y_disc = X @ Af                                   # exact lattice points
    eta = fundamental_cell_uniform(rounder, rng, size=m)
    obs = (Y_disc + eta) @ sketch.R.T

    report = {
        "r": r,
        "n": n,
        "sigma2": sigma2,
        "min_eig": sigma2,
        "trials": m,
        "certified_kernel_length": lam,
    }
    report["tvd_noise_path"] = empirical_tvd(obs, ref, rng=rng).as_dict()

    # path 2: cell-rounded continuous image vs exact discrete image
    G = rng.standard_normal((m, n)) * math.sqrt(sigma2)
    Y_round = rounder.cell_base_batch(G @ Af).astype(float)
    report["tvd_round_path"] = empirical_tvd(Y_round, Y_disc, rng=rng).as_dict()
    # the bounds draw after both estimates, so the paths' samples and TVDs do
    # not depend on them
    for path, a, b in (("noise", obs, ref), ("round", Y_round, Y_disc)):
        tvd = report[f"tvd_{path}_path"]
        tvd["null_bound"] = tvd_null_bound(a, b, rng=rng)
        report[f"pass_{path}_path"] = bool(tvd["value"] <= tvd["null_bound"])
    report["false_fail_rate"] = TVD_NULL_LEVEL

    report["pass"] = bool(report["pass_noise_path"] and report["pass_round_path"])
    return report


def chi_square_mixture_check(a, sigma2, trials, rng):
    """Monte Carlo check of chi^2(N(0, sigma^2) * mu || N(0, sigma^2))
    <= E[e^{z z'/sigma^2}] - 1 for z, z' ~ mu independent, at the mixture
    mu = (1/2)(delta_a + delta_{-a}), whose right side is
    cosh(a^2/sigma^2) - 1 in closed form. Asserts LHS <= RHS + 3 SE. In any
    dimension the mixture along e1 gives the same: the density ratio reads
    the first coordinate only.
    """
    if not (math.isfinite(a) and math.isfinite(sigma2)):
        raise BadParams(f"chi^2 mixture check needs a finite a and sigma2, got {a}, {sigma2}")
    if not sigma2 > 0:
        raise NonPositiveVariance(f"sigma2 must be positive, got {sigma2}")
    m = int(trials)
    if m < 2:
        raise TooFewSamples(f"chi^2 mixture check needs >= 2 trials, got {m}")
    rng = as_generator(rng)
    af = float(a)
    signs = rng.choice([-1.0, 1.0], size=m)
    t = rng.standard_normal(m) * math.sqrt(sigma2) + signs * af
    ratio = 0.5 * (
        np.exp((2 * af * t - af * af) / (2 * sigma2))
        + np.exp((-2 * af * t - af * af) / (2 * sigma2))
    )
    vals = ratio - 1.0
    lhs = float(np.mean(vals))
    lhs_se = float(np.std(vals) / math.sqrt(m))
    rhs = float(np.cosh(af * af / sigma2) - 1.0)
    return {
        "lhs_chi2": lhs,
        "lhs_se": lhs_se,
        "rhs_bound": rhs,
        "rhs_se": 0.0,
        "ok": bool(lhs <= rhs + 3.0 * lhs_se + 1e-12),
        "mixture": ["pm", a],
        "sigma2": sigma2,
        "trials": m,
    }
