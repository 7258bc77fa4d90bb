"""Exact integer linear algebra: Hermite-normal-form elimination, integer
kernel bases, and LLL reduction in all-integer (de Weger) arithmetic.

Everything here is exact integer arithmetic; nothing is floating point, so
results feed the certified length bounds directly. Squared lengths run as one
int64 product where `int64_rows` shows no sum can overflow, and HNF row
operations as int64 array steps while entries stay below `_ELIM_GUARD`; both
run on Python big integers otherwise. LLL runs on Python integers
throughout: its cost is the bigint Gram-Schmidt recurrence, not the inner
products.
"""

import numpy as np

from .errors import DependentInput

# A sum of n integer products, each at most M in magnitude, is exact in int64
# while n * M stays below this guard.
INT64_GUARD = 2**62


def iround_div(a: int, b: int) -> int:
    """Nearest integer to a/b (ties toward +inf), exact."""
    if b < 0:
        a, b = -a, -b
    return (2 * a + b) // (2 * b)


def dot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v))


def norm_sq(v) -> int:
    return sum(x * x for x in v)


def int64_rows(rows):
    """`rows` as an (k, n) int64 array when every inner product between them
    is exact in int64 (n * max|x|^2 < INT64_GUARD); None otherwise."""
    try:
        arr = np.array(rows, dtype=np.int64)
    except OverflowError:
        return None
    if arr.ndim != 2 or arr.size == 0:
        return None
    m = max(int(arr.max()), -int(arr.min()))
    return arr if arr.shape[1] * m * m < INT64_GUARD else None


def norms_sq(rows):
    """Exact squared lengths of integer vectors, as Python ints."""
    arr = int64_rows(rows)
    if arr is None:
        return [norm_sq(v) for v in rows]
    return np.einsum("ij,ij->i", arr, arr).tolist()


# Row operations run in int64 while every entry stays below this guard, so
# that 2a + b in a nearest quotient cannot overflow; on Python integers
# (dtype object) from then on.
_ELIM_GUARD = 2**61


def _gcd_eliminate_column(W, col, start):
    """Zero out column `col` of the (m, k) integer array W in rows >= start
    except one pivot row.

    Each step takes the first row of least nonzero |W[i, col]| as pivot p and
    subtracts iround_div(W[i, col], p) times it from every other row, so
    entries stay small. Returns W, widened to dtype object once an int64 step
    could reach _ELIM_GUARD, and the index of the surviving nonzero row, or
    None if the column is already zero.
    """
    while True:
        c = W[start:, col]
        nz = np.flatnonzero(c)
        if nz.size <= 1:
            return W, (start + int(nz[0]) if nz.size else None)
        k = nz[np.argmin(np.abs(c[nz]))]
        p = c[k]
        # iround_div(a, p) for every a in the column at once
        q = (2 * c[nz] * (1 if p > 0 else -1) + abs(p)) // (2 * abs(p))
        q[nz == k] = 0
        todo = start + nz[q != 0]
        q = q[q != 0][:, None]
        if W.dtype != object:
            reach = (int(np.max(np.abs(W[todo]))) + int(np.max(np.abs(q)))
                     * int(np.max(np.abs(W[start + k]))))
            if reach >= _ELIM_GUARD:
                W = W.astype(object)
                continue
        W[todo] -= q * W[start + k]


def kernel_basis_int(rows):
    """Basis of the integer kernel lattice {x in Z^n : A x = 0}.

    `rows` is the r x n matrix A as a list of int lists. Row-reduces
    [A^T | I_n] with unimodular operations; the transform rows whose left
    block vanishes form a (saturated) basis of ker(A) over Z.
    """
    A = np.array(rows, dtype=object)
    if max(abs(x) for x in A.flat) < _ELIM_GUARD:
        A = A.astype(np.int64)
    r, n = A.shape
    W = np.concatenate([A.T, np.eye(n, dtype=A.dtype)], axis=1)
    row = 0
    for col in range(r):
        W, piv = _gcd_eliminate_column(W, col, row)
        if piv is not None:
            W[[row, piv]] = W[[piv, row]]
            row += 1
    assert not np.any(W[row:, :r])
    return W[row:, r:].tolist()


def row_hnf(rows):
    """Canonical row-style Hermite normal form of the lattice spanned by `rows`.

    Unique per lattice: pivots positive, entries above each pivot reduced into
    [0, pivot), zero rows dropped. Used as a lattice-equality certificate.
    """
    W = np.array([list(map(int, v)) for v in rows if any(v)], dtype=object)
    if not W.size:
        return ()
    m, n = W.shape
    row = 0
    for col in range(n):
        W, piv = _gcd_eliminate_column(W, col, row)
        if piv is None:
            continue
        W[[row, piv]] = W[[piv, row]]
        if W[row, col] < 0:
            W[row] = -W[row]
        W[:row] -= (W[:row, col] // W[row, col])[:, None] * W[row]
        row += 1
        if row == m:
            break
    return tuple(map(tuple, W[:row].tolist()))


def same_lattice(rows_a, rows_b) -> bool:
    return row_hnf(rows_a) == row_hnf(rows_b)


LLL_DELTA = (99, 100)  # the Lovasz parameter delta = p/q of every reduction


def lll_reduce_int(basis):
    """LLL-reduce an independent integer basis with parameter delta = p/q =
    LLL_DELTA.

    All-integer variant (Cohen, Alg. 2.6.3): Gram-Schmidt data is carried as
    integers lambda[i][j] and subdeterminants d[i], so the reduction is exact.
    Raises DependentInput if the vectors are dependent.
    """
    b = [list(map(int, v)) for v in basis]
    kn = len(b)
    if kn == 0:
        return []
    p, q = LLL_DELTA
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
                    raise DependentInput("LLL input vectors are linearly dependent")
                d[k + 1] = u

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            m = iround_div(lam[k][l], d[l + 1])
            bk, bl = b[k], b[l]
            b[k] = [x - m * y for x, y in zip(bk, bl)]
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
        raise DependentInput("LLL input contains the zero vector")
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
