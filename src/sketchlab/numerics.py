"""Dense real vector/matrix kernels: projections, orthonormalization,
Gram-Schmidt residuals, and the top eigenpair of a symmetric matrix by
`np.linalg.eigh` (behind the top right singular vector of M, via M^T M).

All functions are pure and safe for concurrent invocation.
"""

import numpy as np

from .errors import DegenerateResidual, RankDeficient

ORTHO_TOL = 1e-10       # pairwise dot / unit-norm tolerance for a valid basis
RESIDUAL_TOL = 1e-9     # below this residual norm a vector counts as in-span
RANK_PIVOT_REL = 1e-10  # pivot threshold relative to ||A||_2


class OrthonormalBasis:
    """An ordered set of orthonormal vectors in R^n (possibly empty)."""

    def __init__(self, dimension, vectors=()):
        self.dimension = int(dimension)
        self.vectors = [np.asarray(v, dtype=float) for v in vectors]
        self.validate()

    @classmethod
    def empty(cls, dimension):
        return cls(dimension, ())

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    @property
    def matrix(self):
        """Basis vectors stacked as rows, shape (k, n); k may be 0."""
        if not self.vectors:
            return np.zeros((0, self.dimension))
        return np.vstack(self.vectors)

    def validate(self):
        B = self.matrix
        if B.shape[1] != self.dimension:
            raise ValueError("basis vector dimension mismatch")
        if B.shape[0] == 0:
            return
        G = B @ B.T
        err = np.max(np.abs(G - np.eye(len(self.vectors))))
        if err > ORTHO_TOL:
            raise ValueError(f"basis not orthonormal: max Gram deviation {err:.3e}")

    def project(self, x):
        """Orthogonal projection of x (vector or batch of rows) onto span(basis)."""
        if not self.vectors:
            return np.zeros_like(np.asarray(x, dtype=float))
        B = self.matrix
        x = np.asarray(x, dtype=float)
        return (x @ B.T) @ B

    def project_complement(self, x):
        x = np.asarray(x, dtype=float)
        return x - self.project(x)

    def extended(self, v):
        """New basis with unit vector v appended (validated)."""
        return OrthonormalBasis(self.dimension, self.vectors + [np.asarray(v, dtype=float)])


def gram_schmidt_residual(v, basis: OrthonormalBasis):
    """Unit-normalized residual of v against an orthonormal basis.

    Returns normalize(v - sum_b b<b,v>). Raises DegenerateResidual when the
    residual norm is <= 1e-9 (v lies in the span of the basis).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (basis.dimension,):
        raise ValueError("vector dimension does not match basis")
    r = basis.project_complement(v)
    # one re-orthogonalization pass; classical "twice is enough"
    r = basis.project_complement(r)
    nrm = np.linalg.norm(r)
    if nrm <= RESIDUAL_TOL:
        raise DegenerateResidual(f"residual norm {nrm:.3e} <= {RESIDUAL_TOL}")
    return r / nrm


def top_eigenpair(S):
    """Largest algebraic eigenvalue of a symmetric S (S may be indefinite)
    and a unit eigenvector, by `np.linalg.eigh`. Sign rule: the entry of
    largest magnitude is positive, the first such entry on a tie."""
    w, U = np.linalg.eigh(np.asarray(S, dtype=float))
    v = U[:, -1]
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return float(w[-1]), v


def top_right_singular_vector(M):
    """Top right singular vector v and value s = ||M v|| of M, as the top
    eigenpair of M^T M (sign rule of `top_eigenpair`)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or not np.any(M):
        raise ValueError("M must be a nonzero 2-d matrix")
    _, v = top_eigenpair(M.T @ M)
    return v, float(np.linalg.norm(M @ v))


def _forward_solve(L, X):
    """L^{-1} X for a lower-triangular L with a nonzero diagonal, by forward
    substitution over its rows."""
    Y = np.empty_like(X)
    for k in range(L.shape[0]):
        Y[k] = (X[k] - L[k, :k] @ Y[:k]) / L[k, k]
    return Y


def orthonormalize_rows(A):
    """Orthonormalize the rows of A, returning (Q, R) with R @ A = Q.

    Q has orthonormal rows spanning the rowspan of A; R records the change of
    basis so sketched values transform as Q x = R (A x). Raises RankDeficient
    when the numerical rank (pivot threshold 1e-10 * ||A||_2) is below the
    row count.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("A must be a nonempty 2-d matrix")
    r = A.shape[0]
    norm_a = np.linalg.norm(A, 2)
    if norm_a == 0.0:
        raise RankDeficient("zero matrix")
    pivot_floor = (RANK_PIVOT_REL * norm_a) ** 2

    def cholesky_transform(X):
        G = X @ X.T
        L = np.zeros((r, r))
        for k in range(r):
            pivot = G[k, k] - L[k, :k] @ L[k, :k]
            if pivot <= pivot_floor:
                raise RankDeficient(
                    f"pivot {max(pivot, 0.0):.3e} below threshold at row {k}"
                )
            L[k, k] = np.sqrt(pivot)
            if k + 1 < r:
                L[k + 1:, k] = (G[k + 1:, k] - L[k + 1:, :k] @ L[k, :k]) / L[k, k]
        Q = _forward_solve(L, X)
        return Q, L

    Q, L1 = cholesky_transform(A)
    # refinement pass tightens orthogonality to ~1e-12 for ill-conditioned rows
    Q2, L2 = cholesky_transform(Q)
    # Q2 = L2^{-1} L1^{-1} A, so R = (L1 L2)^{-1}
    R = _forward_solve(L1 @ L2, np.eye(r))
    return Q2, R
