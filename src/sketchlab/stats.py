"""Statistical verification harnesses: empirical total variation distance,
cell-lemma closeness checks, exact pmf-ratio checks, and the chi-square
mixture bound.

Asymptotic 1/poly(n) closeness bounds are rendered as fixed desk-scale
thresholds (0.05 TVD, 0.01 ratio) recorded in the reports.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dgauss
from .errors import DimensionTooLarge, PreconditionUnmet, TooFewSamples
from .lattice import CellRounder, fundamental_cell_uniform, reduced_kernel_basis
from .rng import as_generator

TVD_BOOTSTRAP = 200  # multinomial resamples behind empirical_tvd's CI
CELL_LEMMA_TVD = 0.05  # each cell-lemma path passes at TVD <= this


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


def empirical_tvd(samples1, samples2, rng=None, projection=None):
    """Histogram TVD with equal-mass adaptive bins and a bootstrap CI.

    The total cell budget is ceil(min(n1,n2)^(1/3)), split evenly across
    axes; dimensions above 3 require a 1-D `projection` vector. Bootstrap
    CIs come from TVD_BOOTSTRAP multinomial resamples of the binned counts
    (equivalent to resampling the samples at fixed bin edges).
    """
    X = np.asarray(samples1, dtype=float)
    Y = np.asarray(samples2, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if Y.ndim == 1:
        Y = Y[:, None]
    if projection is not None:
        p = np.asarray(projection, dtype=float)
        X = (X @ p)[:, None]
        Y = (Y @ p)[:, None]
    d = X.shape[1]
    if d > 3:
        raise DimensionTooLarge(
            f"histogram mode handles d <= 3 (got {d}); pass a projection"
        )
    n1, n2 = len(X), len(Y)
    if min(n1, n2) < 1000:
        raise TooFewSamples(f"need >= 1000 samples per side, got {n1}, {n2}")
    total_cells = int(math.ceil(min(n1, n2) ** (1 / 3)))
    per_axis = max(2, int(math.ceil(total_cells ** (1 / d))))

    cx, cy, ncells = _bin_counts(X, Y, per_axis)
    value = 0.5 * float(np.sum(np.abs(cx / n1 - cy / n2)))

    rng = as_generator(rng)
    boots = np.empty(TVD_BOOTSTRAP)
    px, py = cx / n1, cy / n2
    for b in range(TVD_BOOTSTRAP):
        rx = rng.multinomial(n1, px) / n1
        ry = rng.multinomial(n2, py) / n2
        boots[b] = 0.5 * float(np.sum(np.abs(rx - ry)))
    ci = 1.96 * float(np.std(boots))
    return TvdEstimate(
        value=value,
        ci_halfwidth=ci,
        n1=n1,
        n2=n2,
        binning={"cells_per_axis": per_axis, "dims": d, "total_cells": int(ncells)},
    )


def energy_two_sample(X, Y, sub=2000, perms=60, rng=None):
    """Multivariate energy-distance two-sample test on subsamples, with a
    permutation reference. Returns the statistic and its permutation q95."""
    rng = as_generator(rng)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if len(X) > sub:
        X = X[rng.choice(len(X), sub, replace=False)]
    if len(Y) > sub:
        Y = Y[rng.choice(len(Y), sub, replace=False)]

    def mean_dist(A, B):
        d2 = (
            np.sum(A * A, axis=1)[:, None]
            + np.sum(B * B, axis=1)[None, :]
            - 2.0 * A @ B.T
        )
        return float(np.mean(np.sqrt(np.maximum(d2, 0.0))))

    def energy(A, B):
        return 2 * mean_dist(A, B) - mean_dist(A, A) - mean_dist(B, B)

    stat = energy(X, Y)
    pooled = np.vstack([X, Y])
    nx = len(X)
    ref = np.empty(perms)
    for i in range(perms):
        perm = rng.permutation(len(pooled))
        ref[i] = energy(pooled[perm[:nx]], pooled[perm[nx:]])
    return {"stat": stat, "perm_q95": float(np.quantile(ref, 0.95)),
            "pass": bool(stat <= float(np.quantile(ref, 0.95)))}


def pmf_ratio_check(sigma2, n, C, z_range=None):
    """Exact 1-D rendering of the discrete-vs-rounded-continuous pmf ratio.

    Computes the n-dimensional ratio at the worst constant vector
    (z, z, ..., z) over |z| <= z_range (default 3 sigma) as the n-th power of
    the per-coordinate ratio, and compares against 1/n^C. Deterministic.
    """
    if sigma2 <= n ** (C + 1):
        raise PreconditionUnmet(
            f"need sigma^2 > n^(C+1) = {n ** (C + 1)}, got {sigma2}"
        )
    if z_range is None:
        z_range = int(math.ceil(3 * math.sqrt(sigma2)))
    zs = np.arange(-int(z_range), int(z_range) + 1)
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


def cell_lemma_check(sketch, Sigma, trials, rng):
    """Distributional check that the sketch of a discrete Gaussian plus
    fundamental-cell noise matches the continuous image N(0, Q Sigma Q^T).

    Draws x ~ D(0, Sigma), forms Q x + R eta with eta uniform over the
    fundamental cell of the column lattice, and compares against
    N(0, Q Sigma Q^T) via histogram TVD (r <= 3) or an energy test (r = 4).
    Also runs the rounding-path variant: the cell-rounded image of a
    continuous Gaussian versus the exact discrete image.

    Sigma may be a scalar (isotropic sigma^2 I, the fast path) or a full
    covariance matrix. Preconditions (PreconditionUnmet): r <= 4 and
    sqrt(min eig Sigma) >= certified kernel length * 10 ln(n). Each path
    passes at TVD <= CELL_LEMMA_TVD.
    """
    rng = as_generator(rng)
    A = sketch.A
    r, n = A.rows, A.cols
    if r > 4:
        raise PreconditionUnmet(f"exact cell rounding needs r <= 4, got {r}")
    isotropic = np.isscalar(Sigma)
    if isotropic:
        sigma2 = float(Sigma)
        min_eig = sigma2
    else:
        Sigma = np.asarray(Sigma, dtype=float)
        min_eig = float(np.min(np.linalg.eigvalsh(Sigma)))
    lam = reduced_kernel_basis(A).certified_max_len
    floor = lam * 10.0 * math.log(n)
    if math.sqrt(min_eig) < floor:
        raise PreconditionUnmet(
            f"sigma_min = {math.sqrt(min_eig):.1f} below lattice floor {floor:.1f}"
        )

    rounder = CellRounder(A.entries)
    m = int(trials)
    Af = A.entries.T.astype(float)

    # path 1: discrete image plus cell noise vs continuous image
    if isotropic:
        X = dgauss.sample_dgauss_1d(sigma2, rng, size=(m, n)).astype(float)
        ref = rng.standard_normal((m, r)) * math.sqrt(sigma2)
    else:
        X = dgauss.sample_dgauss_ellipsoidal(Sigma, rng, size=m).astype(float)
        img_cov = sketch.Q @ Sigma @ sketch.Q.T
        ref = rng.multivariate_normal(np.zeros(r), img_cov, size=m)
    Y_disc = X @ Af                                   # exact lattice points
    eta = fundamental_cell_uniform(rounder, rng, size=m)
    obs = (Y_disc + eta) @ sketch.R.T

    report = {
        "r": r,
        "n": n,
        "sigma2": sigma2 if isotropic else None,
        "min_eig": min_eig,
        "trials": m,
        "certified_kernel_length": lam,
        "threshold": CELL_LEMMA_TVD,
    }
    if r <= 3:
        est = empirical_tvd(obs, ref, rng=rng)
        report["tvd_noise_path"] = est.as_dict()
        report["pass_noise_path"] = bool(est.value <= CELL_LEMMA_TVD)
    else:
        res = energy_two_sample(obs, ref, rng=rng)
        report["energy_noise_path"] = res
        report["pass_noise_path"] = res["pass"]

    # path 2: cell-rounded continuous image vs exact discrete image
    if isotropic:
        G = rng.standard_normal((m, n)) * math.sqrt(sigma2)
    else:
        G = rng.multivariate_normal(np.zeros(n), Sigma, size=m)
    Y_round = rounder.cell_base_batch(G @ Af).astype(float)
    if r <= 3:
        est2 = empirical_tvd(Y_round, Y_disc.astype(float), rng=rng)
        report["tvd_round_path"] = est2.as_dict()
        report["pass_round_path"] = bool(est2.value <= CELL_LEMMA_TVD)
    else:
        res2 = energy_two_sample(Y_round, Y_disc.astype(float), rng=rng)
        report["energy_round_path"] = res2
        report["pass_round_path"] = res2["pass"]

    report["pass"] = bool(report["pass_noise_path"] and report["pass_round_path"])
    return report


def chi_square_mixture_check(mixture, sigma2, d, trials, rng):
    """Monte Carlo check of chi^2(N(0, sigma^2 I_d) * mu || N(0, sigma^2 I_d))
    <= E[e^{<z,z'>/sigma^2}] - 1 for z, z' ~ mu independent.

    `mixture` is ("point0",), ("pm", a) for (1/2)(delta_{a e1} + delta_{-a e1}),
    or ("gauss", s) for N(0, s^2 I_d). Asserts LHS <= RHS + 3 combined SE.
    """
    if d > 2:
        raise DimensionTooLarge("density-ratio estimation limited to d <= 2")
    rng = as_generator(rng)
    m = int(trials)
    kind = mixture[0]
    sig = math.sqrt(sigma2)

    if kind == "point0":
        lhs, lhs_se = 0.0, 0.0
        rhs, rhs_se = 0.0, 0.0
    elif kind == "pm":
        a = float(mixture[1])
        e1 = np.zeros(d)
        e1[0] = a
        signs = rng.choice([-1.0, 1.0], size=m)
        x = rng.standard_normal((m, d)) * sig + signs[:, None] * e1[None, :]
        # p(x)/q(x) depends on the first coordinate only
        t = x[:, 0]
        ratio = 0.5 * (
            np.exp((2 * a * t - a * a) / (2 * sigma2))
            + np.exp((-2 * a * t - a * a) / (2 * sigma2))
        )
        vals = ratio - 1.0
        lhs = float(np.mean(vals))
        lhs_se = float(np.std(vals) / math.sqrt(m))
        rhs = float(np.cosh(a * a / sigma2) - 1.0)
        rhs_se = 0.0
    elif kind == "gauss":
        s = float(mixture[1])
        if s * s >= sigma2:
            raise PreconditionUnmet("gauss mixture needs s^2 < sigma^2 for a finite bound")
        z = rng.standard_normal((m, d)) * s
        x = z + rng.standard_normal((m, d)) * sig
        tot = sigma2 + s * s
        # p = N(0, tot I), q = N(0, sigma2 I): closed-form density ratio
        log_ratio = (
            d / 2 * math.log(sigma2 / tot)
            + np.sum(x * x, axis=1) * (1 / sigma2 - 1 / tot) / 2
        )
        vals = np.exp(log_ratio) - 1.0
        lhs = float(np.mean(vals))
        lhs_se = float(np.std(vals) / math.sqrt(m))
        z1 = rng.standard_normal((m, d)) * s
        z2 = rng.standard_normal((m, d)) * s
        rv = np.exp(np.sum(z1 * z2, axis=1) / sigma2)
        rhs = float(np.mean(rv) - 1.0)
        rhs_se = float(np.std(rv) / math.sqrt(m))
    else:
        raise ValueError(f"unknown mixture {mixture!r}")

    combined_se = math.sqrt(lhs_se**2 + rhs_se**2)
    ok = lhs <= rhs + 3.0 * combined_se + 1e-12
    return {
        "lhs_chi2": lhs,
        "lhs_se": lhs_se,
        "rhs_bound": rhs,
        "rhs_se": rhs_se,
        "ok": bool(ok),
        "mixture": list(mixture),
        "sigma2": sigma2,
        "d": d,
        "trials": m,
    }
