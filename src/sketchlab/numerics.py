"""Dense real vector/matrix kernels: projections, orthonormalization,
Gram-Schmidt residuals, and the top eigenpair of a symmetric matrix by
`np.linalg.eigh` (behind the top right singular vector of M, via M^T M).

All functions are pure and safe for concurrent invocation.
"""

import numpy as np

from .errors import BadParams, DegenerateResidual, DimensionMismatch, RankDeficient

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
        """DimensionMismatch unless every vector has shape (dimension,),
        BadParams unless the vectors are orthonormal to ORTHO_TOL."""
        if any(v.shape != (self.dimension,) for v in self.vectors):
            raise DimensionMismatch(f"basis vector dimension mismatch: need {self.dimension}")
        if not self.vectors:
            return
        B = self.matrix
        err = np.max(np.abs(B @ B.T - np.eye(len(B))))
        if not err <= ORTHO_TOL:  # a NaN entry fails too
            raise BadParams(f"basis not orthonormal: max Gram deviation {err:.3e}")

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
        raise DimensionMismatch("vector dimension does not match basis")
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


def orthonormalize_rows(A):
    """Orthonormalize the rows of A, returning (Q, R) with R @ A = Q.

    Q has orthonormal rows spanning the rowspan of A; R records the change of
    basis so sketched values transform as Q x = R (A x). Q comes from
    `np.linalg.qr(A.T)`, signed so that L in A = L Q is lower triangular with
    a positive diagonal (the Cholesky factor of A A^T), and R = L^{-1}.
    Raises RankDeficient when r > n or a diagonal entry of L is
    <= 1e-10 * ||A||_2 (the numerical rank is below the row count).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("A must be a nonempty 2-d matrix")
    r, n = A.shape
    if r > n:
        raise RankDeficient(f"{r} rows in R^{n}")
    norm_a = np.linalg.norm(A, 2)
    if norm_a == 0.0:
        raise RankDeficient("zero matrix")
    Qt, U = np.linalg.qr(A.T)
    signs = np.where(np.diag(U) < 0.0, -1.0, 1.0)
    L = (U * signs[:, None]).T
    low = np.flatnonzero(np.diag(L) <= RANK_PIVOT_REL * norm_a)
    if low.size:
        k = int(low[0])
        raise RankDeficient(f"diagonal {L[k, k]:.3e} of L below threshold at row {k}")
    return Qt.T * signs[:, None], np.linalg.inv(L)
