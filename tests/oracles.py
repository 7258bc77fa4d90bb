"""Independent oracles used by the tests: Jacobi SVD, brute-force lattice
enumeration, closed-form TVD, quadrature, the 1-D partition function as an
mpmath theta function, the scanned envelope constant of
the discrete Gaussian sampler, its rejection loop, the float64 integer
product and a planted hard instance's spike as whole-batch passes,
certificate verification as a per-query loop over its blocks, row
orthonormalization by Cholesky QR2, the all-integer LLL with its inner
products on Python integers, and the HNF kernel, canonical HNF and lattice
equality with row operations on Python integer lists, and E ||g||_p by
mpmath quadrature. These deliberately avoid the code paths they check."""

import itertools
import math

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import norm

from sketchlab import dgauss


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


# -- reference envelope ---------------------------------------------------------
# The centered sampler's envelope constant as it was first computed: the
# maximum of w/q over a scan of the integer support (subsampled past 20,000).

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


# -- reference rejection loop and integer product ------------------------------
# The discrete Gaussian rejection loop and the float64 tier of the exact
# integer product as they were before they streamed through fixed-size
# blocks: each pass draws all its normals as one batch-sized float array, and
# the product converts the whole batch to float64 at once. The loop takes the
# sampler's own envelope record and candidate helper, so a difference in
# output or generator state can only come from the loop itself.

def ref_sample_at_centers(centers, sigma2, envelope, rng, shape=None):
    c_env, bound, squeeze, lo, hi, scale = envelope
    p = 1.0 - squeeze
    if centers is not None:
        shape = np.shape(centers)
        centers = np.asarray(centers, dtype=float).ravel()
    out = np.empty(shape, dtype=np.int64)
    flat_out = out.reshape(-1)
    pending, k = slice(None), out.size
    while k:
        z = rng.standard_normal(k)
        z *= math.sqrt(sigma2)
        if centers is not None:
            c = centers[pending]
            z += c
        np.rint(z, out=z)
        flat_out[pending] = z
        if centers is not None:
            z -= c
        au = np.abs(z, out=z)
        cand = dgauss._candidates(k, p, rng)
        a = np.minimum(au[cand], bound)
        U = squeeze + p * rng.random(cand.size)
        j = (a * scale).astype(np.intp)
        accept = U < lo[j]
        band = np.flatnonzero(~accept & (U < hi[j]))
        if band.size:
            accept[band] = U[band] < dgauss._acceptance_ratio(a[band], sigma2, c_env)
        rejected = cand[~accept]
        if au.max() > bound:
            rejected = np.union1d(rejected, np.flatnonzero(au > bound))
        pending = rejected if isinstance(pending, slice) else pending[rejected]
        k = pending.size
    return out


def ref_exact_product_float(X, Y):
    """X Y^T for int64 X, Y whose partial sums are all below 2^53, from one
    float64 copy of each."""
    return (np.asarray(X).astype(float) @ np.asarray(Y).T.astype(float)).astype(np.int64)


def ref_planted_spike(us, vs, s1):
    """rint(s1 sum_i u_i v_i^T) for a batch of spike factors us (size,
    count, m) and vs (size, count, n), as int64 from one float64 array of
    every spike at once: s1 (u_0 v_0), then + s1 (u_i v_i) for each further
    i in order, then rounded."""
    uf, vf = us.astype(float), vs.astype(float)
    spike = uf[:, 0, :, None] * vf[:, 0, None, :]
    spike *= s1
    for i in range(1, us.shape[1]):
        spike += s1 * (uf[:, i, :, None] * vf[:, i, None, :])
    return np.rint(spike, out=spike).astype(np.int64)


def ref_partition_1d(sigma2, dps=50):
    """Z(sigma^2) = theta_3(0, e^{-1/(2 sigma^2)}) by mpmath at `dps` digits:
    the theta series itself up to sigma^2 = 1e4, and past it its Jacobi
    transform sqrt(2 pi sigma^2) theta_3(0, e^{-2 pi^2 sigma^2}), an exact
    identity, as mpmath's series needs |q| well below 1."""
    with mp.workdps(dps):
        s2 = mp.mpf(sigma2)
        if sigma2 <= 1e4:
            return mp.jtheta(3, 0, mp.exp(-1 / (2 * s2)))
        return mp.sqrt(2 * mp.pi * s2) * mp.jtheta(3, 0, mp.exp(-2 * mp.pi**2 * s2))


def ref_verify_in_blocks(oracle, cert, trials, rng, rows, kept):
    """Certificate verification as a hand loop: one subspace-query draw on
    `rng` per block of `rows` queries, then, query by query, the oracle's
    answer and the exact squared length as a Python integer, tested against
    the certificate's side window. Returns (exploit count, the first `kept`
    exploits as (x, norm_sq, answer) in draw order)."""
    n, d = oracle.n, cert.dim
    spec = dgauss.SubspaceGaussianSpec(n, cert.basis(n), cert.sigma2)
    count, exploits = 0, []
    for start in range(0, trials, rows):
        X = dgauss.sample_subspace_query(spec, "discrete", rng, size=min(rows, trials - start))
        for x, answer in zip(X.tolist(), oracle.query_batch(X).tolist()):
            s = sum(v * v for v in x)
            if cert.side == "high":
                wrong = answer == 0 and s > cert.alpha * cert.B * (n - d) / 3.0
            else:
                wrong = answer == 1 and s < 3.0 * cert.alpha * (n - d)
            if wrong:
                count += 1
                if len(exploits) < kept:
                    exploits.append((x, float(s), answer))
    return count, exploits


# -- reference row orthonormalization -----------------------------------------
# Cholesky QR run twice, with its own forward substitution: the way
# sketchlab.numerics.orthonormalize_rows first computed (Q, R).

def _forward_solve(L, X):
    """L^{-1} X for a lower-triangular L with a nonzero diagonal."""
    Y = np.empty_like(X)
    for k in range(L.shape[0]):
        Y[k] = (X[k] - L[k, :k] @ Y[:k]) / L[k, k]
    return Y


def ref_cholesky_qr2(A, pivot_rel=1e-10):
    """(Q, R) with R A = Q and orthonormal rows Q, by Cholesky QR plus one
    refinement pass. Raises ValueError when a squared pivot is
    <= (pivot_rel ||A||_2)^2."""
    A = np.asarray(A, dtype=float)
    r = A.shape[0]
    pivot_floor = (pivot_rel * np.linalg.norm(A, 2)) ** 2

    def cholesky_transform(X):
        G = X @ X.T
        L = np.zeros((r, r))
        for k in range(r):
            pivot = G[k, k] - L[k, :k] @ L[k, :k]
            if pivot <= pivot_floor:
                raise ValueError(f"pivot {pivot:.3e} below threshold at row {k}")
            L[k, k] = np.sqrt(pivot)
            L[k + 1:, k] = (G[k + 1:, k] - L[k + 1:, :k] @ L[k, :k]) / L[k, k]
        return _forward_solve(L, X), L

    Q, L1 = cholesky_transform(A)
    Q2, L2 = cholesky_transform(Q)
    return Q2, _forward_solve(L1 @ L2, np.eye(r))


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


def same_lattice(rows_a, rows_b):
    """Whether two integer row sets span the same lattice: equal canonical
    HNF by ref_row_hnf."""
    return ref_row_hnf(rows_a) == ref_row_hnf(rows_b)


def _abs_normal_moment(q):
    """E |g|^q for g ~ N(0, 1), in mpmath."""
    return 2 ** (q / 2) * mp.gamma((q + 1) / 2) / mp.sqrt(mp.pi)


def _abs_normal_laplace(p):
    """(L, M) with L(t) = E e^(-t|g|^p) and M(t) = E |g|^p e^(-t|g|^p) = -L'(t),
    from closed forms: power series in t for p < 2, where both converge for
    every t, and Bessel K for p = 4."""
    if p < 2:
        def series(t, shift):
            total, j, term = mp.mpf(0), 0, mp.mpf(1)
            while True:
                tj = term * _abs_normal_moment((j + shift) * p)
                total += tj
                if j > 3 and abs(tj) < mp.eps * abs(total):
                    return total
                j += 1
                term *= -t / j
        return (lambda t: series(t, 0)), (lambda t: series(t, 1))
    if p != 4:
        raise ValueError("closed forms for p < 2 and p = 4 only")
    # int_0^inf e^(-t x^4 - x^2/2) dx = sqrt(1/(2t))/4 e^z K_1/4(z), z = 1/(32t),
    # and its t-derivative from K_nu'(z) = -K_(nu-1)(z) - nu K_nu(z)/z
    c = mp.sqrt(2 / mp.pi) / (4 * mp.sqrt(2))

    def L(t):
        z = 1 / (32 * t)
        return c * t ** -0.5 * mp.exp(z) * mp.besselk(0.25, z)

    def M(t):
        z = 1 / (32 * t)
        return (c * t ** -1.5 * mp.exp(z)
                * ((mp.mpf(1) / 4 + z) * mp.besselk(0.25, z) - z * mp.besselk(0.75, z)))
    return L, M


def ref_expected_p_norm(n, p, dps):
    """E ||g||_p for g ~ N(0, I_n), 1 < p < 2 or p = 4, by mpmath quadrature of
    E S^a = 1/Gamma(1-a) int_0^inf n L(t)^(n-1) M(t) t^-a dt (S = sum |g_i|^p,
    a = 1/p): the Laplace identity for S^a integrated by parts, so it shares
    no split and no grid with the program's rule. Below s = ln t = lo the
    integrand is n mu e^((1-a)s) up to a factor 1 + O(n mu t), integrated in
    closed form; above s_c + ln 300 it is below e^-200 of its peak."""
    with mp.workdps(dps):
        p = mp.mpf(p)
        a = 1 / p
        L, M = _abs_normal_laplace(p)
        mu = _abs_normal_moment(p)
        s_c = -mp.log(n * mu)
        lo = s_c - 25

        def f(s):
            t = mp.exp(s)
            return n * L(t) ** (n - 1) * M(t) * mp.exp((1 - a) * s)

        total = mp.quad(f, [lo, s_c - 3, s_c, s_c + 2, s_c + mp.log(300)])
        total += n * mu * mp.exp((1 - a) * lo) / (1 - a)
        return float(total / mp.gamma(1 - a))
