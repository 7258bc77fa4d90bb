"""Independent oracles used by the tests: Jacobi SVD, brute-force lattice
enumeration, closed-form TVD, quadrature, the plain rejection loops of the
discrete Gaussian sampler (no squeeze), the all-integer LLL with its
inner products on Python integers, and the HNF kernel and canonical HNF with
row operations on Python integer lists. These deliberately avoid the code
paths they check."""

import itertools
import math

import numpy as np
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import norm


def jacobi_svd(M, sweeps=60, tol=1e-14):
    """One-sided Jacobi SVD: returns (singular_values, V) with columns of V
    the right singular vectors, sorted descending."""
    A = np.array(M, dtype=float)
    n = A.shape[1]
    V = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                ap = A[:, p]
                aq = A[:, q]
                apq = ap @ aq
                app = ap @ ap
                aqq = aq @ aq
                off = max(off, abs(apq) / math.sqrt(app * aqq + 1e-300))
                if abs(apq) <= tol * math.sqrt(app * aqq):
                    continue
                # rotation that diagonalizes the 2x2 Gram block
                _, U = np.linalg.eigh(np.array([[app, apq], [apq, aqq]]))
                A[:, [p, q]] = A[:, [p, q]] @ U
                V[:, [p, q]] = V[:, [p, q]] @ U
        if off < tol:
            break
    svals = np.linalg.norm(A, axis=0)
    order = np.argsort(-svals)
    return svals[order], V[:, order]


def enumerate_integer_kernel(rows, bound):
    """All nonzero integer kernel vectors of A with entries in [-bound, bound]
    (exact arithmetic). Exponential; use only for tiny n."""
    rows = [list(map(int, r)) for r in rows]
    n = len(rows[0])
    out = []
    for cand in itertools.product(range(-bound, bound + 1), repeat=n):
        if not any(cand):
            continue
        if all(sum(a * x for a, x in zip(r, cand)) == 0 for r in rows):
            out.append(cand)
    return out


def brute_shortest_lattice_vector(basis, coeff_bound=3):
    """Shortest nonzero vector over integer combinations with coefficients in
    [-coeff_bound, coeff_bound]."""
    basis = [list(map(int, b)) for b in basis]
    k = len(basis)
    best = None
    for coeffs in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=k):
        if not any(coeffs):
            continue
        v = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(len(basis[0]))]
        norm_sq = sum(x * x for x in v)
        if norm_sq and (best is None or norm_sq < best):
            best = norm_sq
    return math.sqrt(best)


def brute_closest_lattice_point(basis, y, coeff_radius=4, center_coeffs=None):
    """Exhaustive CVP over an integer-coefficient box around center_coeffs."""
    B = np.asarray(basis, dtype=float)
    k = B.shape[0]
    if center_coeffs is None:
        center_coeffs = np.rint(np.linalg.lstsq(B.T, np.asarray(y, float), rcond=None)[0])
    best, best_d = None, np.inf
    ranges = [range(int(c) - coeff_radius, int(c) + coeff_radius + 1)
              for c in center_coeffs]
    for coeffs in itertools.product(*ranges):
        p = np.asarray(coeffs, float) @ B
        d = float(np.linalg.norm(p - y))
        if d < best_d:
            best_d, best = d, p
    return best, best_d


def tvd_two_gaussians_1d(mu1, s1, mu2, s2):
    """Closed-form-ish TVD via numerically locating density crossings."""
    f = lambda x: norm.pdf(x, mu1, s1) - norm.pdf(x, mu2, s2)
    val, _ = integrate.quad(lambda x: 0.5 * abs(f(x)), -60, 60, limit=400)
    return val


def chi2_divergence_mixture_quadrature(a, sigma):
    """chi^2( N(0, sigma^2)*mu || N(0, sigma^2) ) by quadrature, for
    mu = (1/2)(delta_a + delta_{-a}) in 1-D. Works in log space so the far
    tail does not underflow to 0/0."""
    def integrand(x):
        lp = np.logaddexp(norm.logpdf(x, a, sigma),
                          norm.logpdf(x, -a, sigma)) + math.log(0.5)
        lq = norm.logpdf(x, 0, sigma)
        return math.exp(2.0 * lp - lq)

    val, _ = integrate.quad(integrand, -20 * sigma - a, 20 * sigma + a, limit=800)
    return val - 1.0


def principal_angle_distance(B_v, B_w):
    """||P_V - P_W||_2 from orthonormal row bases."""
    Pv = B_v.T @ B_v
    Pw = B_w.T @ B_w
    return float(np.linalg.norm(Pv - Pw, 2))


# -- reference rejection samplers --------------------------------------------
# The two rejection loops of the discrete Gaussian sampler as they were before
# the squeeze step and their merge into one loop: the centered loop for
# D(0, sigma^2) and the loop at real centers used by the convolution sampler.
# Each evaluates the acceptance ratio for every proposal. They draw the same
# normals and uniforms in the same order, so at one seed they must give the
# same samples and leave the generator in the same state.

def _ref_rounded_gaussian_pmf(u, sigma):
    au = np.abs(np.asarray(u, dtype=float))
    return ndtr(-(au - 0.5) / sigma) - ndtr(-(au + 0.5) / sigma)


def ref_centered_envelope(sigma2):
    sigma = math.sqrt(sigma2)
    K = int(math.ceil(12.0 * sigma)) + 1
    if K <= 20000:
        z = np.arange(0, K + 1, dtype=float)
    else:
        z = np.unique(np.concatenate([
            np.arange(0, 2001, dtype=float),
            np.round(np.linspace(2000.0, float(K), 8192)),
        ]))
    w = np.exp(-z * z / (2.0 * sigma2))
    q = _ref_rounded_gaussian_pmf(z, sigma)
    return float(np.max(w / q)) * (1.0 + 1e-9), K


def ref_offset_envelope(sigma2):
    sigma = math.sqrt(sigma2)
    lim = 8.0 * sigma
    u = np.linspace(0.0, lim, 4096)
    w = np.exp(-u * u / (2.0 * sigma2))
    q = _ref_rounded_gaussian_pmf(u, sigma)
    return float(np.max(w / q)) * 1.05, lim


def ref_sample_rejection_centered(sigma2, rng, size):
    sigma = math.sqrt(sigma2)
    c_env, K = ref_centered_envelope(sigma2)
    m = int(np.prod(size)) if size is not None else 1
    out = np.empty(m, dtype=np.int64)
    pending = np.arange(m)
    while pending.size:
        z = np.rint(sigma * rng.standard_normal(pending.size))
        w = np.exp(-z * z / (2.0 * sigma2))
        q = _ref_rounded_gaussian_pmf(z, sigma)
        ok = np.abs(z) <= K
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.where(q > 0, w / (c_env * q), 0.0)
        accept = ok & (rng.random(pending.size) < a)
        out[pending[accept]] = z[accept].astype(np.int64)
        pending = pending[~accept]
    if size is None:
        return int(out[0])
    return out.reshape(size)


def ref_sample_dgauss_at_centers(centers, r0sq, rng, envelope=None):
    sigma = math.sqrt(r0sq)
    c_env, lim = envelope or ref_offset_envelope(r0sq)
    flat = np.asarray(centers, dtype=float).ravel()
    out = np.empty(flat.shape, dtype=np.int64)
    pending = np.arange(flat.size)
    while pending.size:
        c = flat[pending]
        z = np.rint(c + sigma * rng.standard_normal(pending.size))
        u = z - c
        w = np.exp(-u * u / (2.0 * r0sq))
        q = _ref_rounded_gaussian_pmf(u, sigma)
        ok = np.abs(u) <= lim
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.where(q > 0, np.minimum(w / (c_env * q), 1.0), 0.0)
        accept = ok & (rng.random(pending.size) < a)
        out[pending[accept]] = z[accept].astype(np.int64)
        pending = pending[~accept]
    return out.reshape(np.asarray(centers).shape)


def ref_lll_reduce_int(basis, delta=(99, 100)):
    """All-integer LLL (Cohen, Alg. 2.6.3) with every inner product a Python
    integer sum; the reference for sketchlab.intlinalg.lll_reduce_int."""

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def iround_div(a, b):
        if b < 0:
            a, b = -a, -b
        return (2 * a + b) // (2 * b)

    b = [list(map(int, v)) for v in basis]
    kn = len(b)
    if kn == 0:
        return []
    p, q = int(delta[0]), int(delta[1])
    d = [0] * (kn + 1)
    d[0] = 1
    lam = [[0] * kn for _ in range(kn)]

    def incremental_gram(k):
        for j in range(k + 1):
            u = dot(b[k], b[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                if u == 0:
                    raise ValueError("LLL input vectors are linearly dependent")
                d[k + 1] = u

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            m = iround_div(lam[k][l], d[l + 1])
            b[k] = [x - m * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= m * d[l + 1]
            for i in range(l):
                lam[k][i] -= m * lam[l][i]

    def swap(k, k_max):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lam_ = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + lam_ * lam_) // d[k]
        for i in range(k + 1, k_max + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_ * t) // d[k]
            lam[i][k - 1] = (B * t + lam_ * lam[i][k]) // d[k + 1]
        d[k] = B

    d[1] = dot(b[0], b[0])
    if d[1] == 0:
        raise ValueError("LLL input contains the zero vector")
    k = 1
    k_max = 0
    while k < kn:
        if k > k_max:
            k_max = k
            incremental_gram(k)
        red(k, k - 1)
        if q * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < p * d[k] ** 2:
            swap(k, k_max)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return b


def _ref_gcd_eliminate_column(W, col, start_row, n_rows):
    """Zero column `col` of the list rows W[start_row:n_rows] except one pivot
    row, one Python-integer row operation at a time; returns the pivot index
    or None."""

    def iround_div(a, b):
        if b < 0:
            a, b = -a, -b
        return (2 * a + b) // (2 * b)

    while True:
        idxs = [i for i in range(start_row, n_rows) if W[i][col] != 0]
        if not idxs:
            return None
        if len(idxs) == 1:
            return idxs[0]
        i0 = min(idxs, key=lambda i: abs(W[i][col]))
        p = W[i0][col]
        for i in idxs:
            if i == i0:
                continue
            q = iround_div(W[i][col], p)
            if q:
                W[i] = [a - q * b for a, b in zip(W[i], W[i0])]


def ref_kernel_basis_int(rows):
    """Integer kernel basis by HNF elimination on [A^T | I_n] over Python
    integer lists; the reference for sketchlab.intlinalg.kernel_basis_int."""
    r, n = len(rows), len(rows[0])
    W = [[int(rows[i][j]) for i in range(r)] + [1 if t == j else 0 for t in range(n)]
         for j in range(n)]
    row = 0
    for col in range(r):
        piv = _ref_gcd_eliminate_column(W, col, row, n)
        if piv is not None:
            W[row], W[piv] = W[piv], W[row]
            row += 1
    return [W[i][r:] for i in range(row, n)]


def ref_row_hnf(rows):
    """Canonical row HNF over Python integer lists; the reference for
    sketchlab.intlinalg.row_hnf."""
    W = [list(map(int, v)) for v in rows if any(v)]
    if not W:
        return ()
    m, n = len(W), len(W[0])
    row = 0
    for col in range(n):
        piv = _ref_gcd_eliminate_column(W, col, row, m)
        if piv is None:
            continue
        W[row], W[piv] = W[piv], W[row]
        if W[row][col] < 0:
            W[row] = [-x for x in W[row]]
        p = W[row][col]
        for i in range(row):
            q = W[i][col] // p
            if q:
                W[i] = [a - q * b for a, b in zip(W[i], W[row])]
        row += 1
        if row == m:
            break
    return tuple(tuple(v) for v in W[:row])
