"""Integer lattice machinery: kernel bases, Siegel-style short kernel vectors,
sketch pre-processing, LLL reduction, and rounding in the column lattice.

All kernel/HNF arithmetic is exact (int64 under a guard, Python big integers
past it); A @ v = 0 holds exactly, never within tolerance. Floating point
appears only in the geometric rounding helpers, where cell sizes dwarf
representation error, and in picking the multipliers of the pairwise
reduction, whose results are exact.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import intlinalg
from .errors import (
    BoundViolated,
    DegenerateLattice,
    FullRank,
    Int64Overflow,
    LengthBoundUnachieved,
    TooManyRows,
)
from .rng import as_generator


@dataclass
class IntMatrix:
    """Integer matrix with a recorded entry bound.

    entries is an (r, n) numpy int64 array; exact routines convert to Python
    ints internally, so int64 here is storage, not an arithmetic limit.
    """

    entries: np.ndarray
    bound: int

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.int64)
        if self.entries.ndim != 2 or self.entries.size == 0:
            raise ValueError("entries must be a nonempty 2-d integer array")
        actual = int(np.max(np.abs(self.entries))) if self.entries.size else 0
        if actual > self.bound:
            raise ValueError(f"entry magnitude {actual} exceeds declared bound {self.bound}")

    @classmethod
    def from_rows(cls, rows, bound=None):
        try:
            arr = np.asarray(rows, dtype=np.int64)
        except OverflowError as exc:
            raise Int64Overflow("entries exceed IntMatrix's int64 storage (|x| < 2^63)") from exc
        if bound is None:
            bound = max(1, int(np.max(np.abs(arr))))
        return cls(arr, int(bound))

    @property
    def rows(self):
        return self.entries.shape[0]

    @property
    def cols(self):
        return self.entries.shape[1]

    def to_lists(self):
        return [[int(x) for x in row] for row in self.entries]

    def max_abs_entry(self):
        return int(np.max(np.abs(self.entries)))


@dataclass
class KernelBasis:
    """Independent integer vectors in the kernel of a source matrix."""

    ambient: int
    vectors: list  # list of lists of Python ints
    certified_max_len: float

    def __post_init__(self):
        self.vectors = [[int(x) for x in v] for v in self.vectors]

    def __len__(self):
        return len(self.vectors)

    def check_against(self, A: IntMatrix):
        """Exact check that every vector is annihilated by A."""
        V = intlinalg.int64_rows(self.vectors)
        W = intlinalg.int64_rows(A.entries)
        if V is not None and W is not None:
            # exact: every |<a, v>| <= n max(|a|, |v|)^2 < INT64_GUARD
            annihilated = not np.any(W @ V.T)
        else:
            V = np.array(self.vectors, dtype=object).reshape(len(self), A.cols)
            annihilated = not np.any(A.entries.astype(object) @ V.T)
        if not annihilated:
            raise AssertionError("kernel vector not annihilated exactly")


def integer_kernel_basis(A: IntMatrix) -> KernelBasis:
    """Exact basis of ker(A) ∩ Z^n, via HNF elimination on [A^T | I].

    Raises FullRank when the kernel is trivial.
    """
    vecs = intlinalg.kernel_basis_int(A.to_lists())
    if not vecs:
        raise FullRank("matrix has full column rank; integer kernel is trivial")
    max_len = math.sqrt(max(intlinalg.norms_sq(vecs)))
    kb = KernelBasis(A.cols, vecs, max_len)
    kb.check_against(A)
    return kb


def pairwise_reduced_kernel(A: IntMatrix, max_len_sq: int):
    """A certified basis of ker(A) ∩ Z^n whose squared lengths all lie below
    max_len_sq, or None.

    One exact pairwise size-reduction pass over the HNF kernel basis, longest
    vector first: v_i <- v_i - m v_j with m = round(<v_i, v_j>/<v_j, v_j>),
    the single step that shortens v_i most, while one does. The steps are
    unimodular, so the lattice is unchanged. Floats only pick m; every kept
    vector and every length is exact int64 under `intlinalg.int64_rows`'
    guard. Returns None as soon as a vector ends its reduction at squared
    length >= max_len_sq, or when a vector leaves the guard.
    """
    V = intlinalg.int64_rows(integer_kernel_basis(A).vectors)
    if V is None:
        return None
    n = V.shape[1]
    norms = np.einsum("ij,ij->i", V, V)
    for i in np.argsort(-norms, kind="stable"):
        while True:
            g = V @ V[i]
            m = np.rint(g / norms)
            m[i] = 0.0
            j = int(np.argmax(m * (2.0 * g - m * norms)))  # float estimate of the gain
            if m[j] == 0.0:
                break
            w = V[i] - int(m[j]) * V[j]
            w_max = int(np.max(np.abs(w)))
            if n * w_max * w_max >= intlinalg.INT64_GUARD:
                return None
            s = int(w @ w)
            if s >= norms[i]:
                break
            V[i], norms[i] = w, s
        if norms[i] >= max_len_sq:
            return None
    kb = KernelBasis(n, V.tolist(), math.sqrt(int(norms.max())))
    kb.check_against(A)
    return kb


def reduce_basis(basis):
    """LLL-reduce independent integer vectors (exact arithmetic), sorted by norm."""
    reduced = intlinalg.lll_reduce_int(basis)
    keys = intlinalg.norms_sq(reduced)
    return [reduced[i] for i in sorted(range(len(reduced)), key=keys.__getitem__)]


def reduced_kernel_basis(A: IntMatrix) -> KernelBasis:
    """ker(A) ∩ Z^n as an LLL-reduced basis, shortest first; its certified
    length is the longest vector's, exact up to the final square root.

    Raises FullRank when the kernel is trivial."""
    reduced = reduce_basis(integer_kernel_basis(A).vectors)
    return KernelBasis(A.cols, reduced, math.sqrt(intlinalg.norm_sq(reduced[-1])))


def _linf(v):
    return max(abs(x) for x in v)


def short_kernel_vector(A: IntMatrix):
    """Nonzero integer x with A x = 0 and max|x_i| <= (nM)^{r/(n-r)}: the
    shortest member in l-infinity of the LLL-reduced kernel basis.

    The Siegel bound is checked in exact integer arithmetic; a violation
    raises BoundViolated (a reduction bug, never seen on a reduced basis).
    """
    r, n = A.rows, A.cols
    if r >= n:
        raise FullRank("need r < n for a kernel vector")
    M = max(1, A.max_abs_entry())
    best = min(reduced_kernel_basis(A).vectors, key=_linf)
    if _linf(best) ** (n - r) > (n * M) ** r:
        raise BoundViolated(
            f"shortest vector linf={_linf(best)} exceeds (nM)^(r/(n-r)) "
            f"with n={n}, M={M}, r={r}"
        )
    return best


def preprocess_sketch(A: IntMatrix, short_circuit=True):
    """Pre-process a sketch so its orthogonal lattice has a short certified basis.

    Returns (A', kernel_basis) where A' contains A's rows plus at most 3r
    Siegel-style rows, and kernel_basis holds >= n - 4r independent integer
    vectors orthogonal to every row of A', each of length <= sqrt(n) * M
    (certified_max_len records the realized maximum).

    With short_circuit=True (default), if the full reduced kernel of A already
    meets the bound, A' = A and the full kernel is returned.

    Raises TooManyRows if r > 0.25 n, LengthBoundUnachieved when even the
    n - 4r shortest reduced kernel vectors exceed the target (surfaced with
    the best achieved length, never hidden), and Int64Overflow when the
    stacked Siegel rows outgrow IntMatrix's int64 storage.
    """
    r, n = A.rows, A.cols
    if r > 0.25 * n:
        raise TooManyRows(f"pre-processing requires r <= n/4 (got r={r}, n={n})")
    M = max(1, A.max_abs_entry())
    target = math.sqrt(n) * M

    full = reduced_kernel_basis(A)
    if short_circuit and full.certified_max_len <= target:
        return A, full

    keep = n - 4 * r
    short_set = full.vectors[:keep]
    achieved = math.sqrt(intlinalg.norm_sq(short_set[-1])) if short_set else 0.0
    if achieved > target:
        raise LengthBoundUnachieved(
            f"best {keep} kernel vectors reach length {achieved:.3f} > target {target:.3f}",
            achieved=achieved,
            target=target,
        )

    # iterated Siegel rows: each orthogonal to A's rows, the short set, and
    # the rows added so far
    added = []
    base_rows = A.to_lists()
    for _ in range(3 * r):
        stacked = base_rows + short_set + added
        S = IntMatrix.from_rows(stacked)
        if S.rows >= n:
            break
        y = short_kernel_vector(S)
        added.append(y)

    new_rows = base_rows + added
    A_prime = IntMatrix.from_rows(new_rows)
    result = KernelBasis(n, short_set, achieved)
    result.check_against(A_prime)
    return A_prime, result


@dataclass
class CellRounder:
    """Rounding and fundamental-cell structure for the column lattice A Z^n.

    Fields: the generating columns, an LLL-reduced integer basis of the
    lattice, per-axis unit distances (gcd of each row of A), and cached
    Gram-Schmidt data for Babai rounding.
    """

    generators: np.ndarray          # (r, n) int64, the sketch matrix A
    basis: np.ndarray = field(init=False)       # (r, r) int64 reduced basis rows
    unit_distances: np.ndarray = field(init=False)
    exact_cvp: bool = field(init=False)
    _gs: tuple = field(init=False, repr=False)

    def __post_init__(self):
        A = np.asarray(self.generators, dtype=np.int64)
        r, n = A.shape
        # columns of A generate the lattice; a basis is the row HNF of A^T
        hnf = intlinalg.row_hnf([list(map(int, col)) for col in A.T])
        if len(hnf) < r:
            raise DegenerateLattice(
                f"column lattice has rank {len(hnf)} < r={r}"
            )
        reduced = reduce_basis([list(v) for v in hnf])
        self.basis = np.asarray(reduced, dtype=np.int64)
        self.unit_distances = np.asarray(
            [math.gcd(*[int(x) for x in row]) if np.any(row) else 0 for row in A],
            dtype=np.int64,
        )
        self.exact_cvp = r <= 4
        B = self.basis.astype(float)
        # Gram-Schmidt of the basis rows for nearest-plane rounding
        Bstar = np.zeros_like(B)
        mu = np.zeros((r, r))
        for i in range(r):
            Bstar[i] = B[i]
            for j in range(i):
                mu[i, j] = (B[i] @ Bstar[j]) / (Bstar[j] @ Bstar[j])
                Bstar[i] = Bstar[i] - mu[i, j] * Bstar[j]
        self._gs = (B, Bstar)

    @property
    def rank(self):
        return self.basis.shape[0]

    def _babai_coeffs(self, y):
        B, Bstar = self._gs
        r = self.rank
        resid = np.asarray(y, dtype=float).copy()
        coeffs = np.zeros(r, dtype=np.int64)
        for j in range(r - 1, -1, -1):
            c = round(float(resid @ Bstar[j]) / float(Bstar[j] @ Bstar[j]))
            coeffs[j] = c
            resid -= c * B[j]
        return coeffs

    def round(self, y):
        """Nearest lattice point to y (exact for r <= 4 via candidate
        enumeration around the Babai plane solution; Babai approximation,
        flagged by .exact_cvp, above that).

        Returns (coeffs, point): point = coeffs @ basis.
        """
        coeffs = self._babai_coeffs(y)
        B = self.basis.astype(float)
        if self.exact_cvp:
            r = self.rank
            grids = np.meshgrid(*([np.array([-1, 0, 1])] * r), indexing="ij")
            offsets = np.stack([g.ravel() for g in grids], axis=1)
            cands = coeffs[None, :] + offsets
            pts = cands.astype(float) @ B
            d2 = np.sum((pts - np.asarray(y, dtype=float)) ** 2, axis=1)
            best = int(np.argmin(d2))
            coeffs = cands[best].astype(np.int64)
        point = coeffs @ self.basis
        return coeffs, point

    def cell_base(self, y):
        """Lattice point of y's unit cell: floor of y in reduced-basis
        coordinates. Exact inverse of adding fundamental_cell_uniform noise."""
        B = self.basis.astype(float)
        coords = np.linalg.solve(B.T, np.asarray(y, dtype=float))
        coeffs = np.floor(coords + 1e-12).astype(np.int64)
        return coeffs, coeffs @ self.basis

    def cell_base_batch(self, Y):
        """Vectorized cell_base over rows of Y; returns lattice points."""
        B = self.basis.astype(float)
        coords = np.linalg.solve(B.T, np.asarray(Y, dtype=float).T).T
        coeffs = np.floor(coords + 1e-12).astype(np.int64)
        return coeffs @ self.basis


def fundamental_cell_uniform(rounder: CellRounder, rng, size=None):
    """Uniform sample(s) from the fundamental parallelepiped of the reduced
    basis: eta = sum_i u_i b_i with u_i ~ U[0,1).

    cell_base(point + eta) recovers point for cell-interior samples.
    """
    rng = as_generator(rng)
    r = rounder.rank
    B = rounder.basis.astype(float)
    if size is None:
        return rng.random(r) @ B
    return rng.random((int(size), r)) @ B
