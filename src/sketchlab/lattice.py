"""Integer lattice machinery: kernel bases, Siegel-style short kernel vectors,
sketch pre-processing from two LLL-reduced kernel bases, LLL reduction, and
the fundamental cells of the column lattice.

All kernel/HNF arithmetic is exact (int64 under a guard, Python big integers
past it); A @ v = 0 holds exactly, never within tolerance. Floating point
appears only in the cell floor and cell noise, where cell sizes dwarf
representation error.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import intlinalg
from .errors import (
    BoundViolated,
    DegenerateLattice,
    FullRank,
    LengthBoundUnachieved,
    TooManyRows,
)
from .rng import as_generator


@dataclass
class IntMatrix:
    """Integer matrix with a recorded entry bound.

    entries is an (r, n) numpy array (`intlinalg.int_array`): int64, or
    Python integers (dtype object) once an entry passes int64.
    """

    entries: np.ndarray
    bound: int

    def __post_init__(self):
        self.entries = intlinalg.int_array(self.entries)
        if self.entries.ndim != 2 or self.entries.size == 0:
            raise ValueError("entries must be a nonempty 2-d integer array")
        actual = self.max_abs_entry()
        if actual > self.bound:
            raise ValueError(f"entry magnitude {actual} exceeds declared bound {self.bound}")

    @classmethod
    def from_rows(cls, rows, bound=None):
        arr = intlinalg.int_array(rows)
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
        V = intlinalg.int_array(self.vectors).reshape(len(self), A.cols)
        if np.any(intlinalg.exact_product(A.entries, V)):
            raise AssertionError("kernel vector not annihilated exactly")


def _length(norm_sq):
    """The length of a vector, as a float, from its exact integer squared
    length: math.sqrt's correctly rounded value while norm_sq is exact in
    float64 (below 2^53), and past that ceil(sqrt(norm_sq)) from math.isqrt,
    rounded up to a float (inf from 2^1023 on), so a long vector's length
    neither overflows nor is understated."""
    if norm_sq < 2**53:
        return math.sqrt(norm_sq)
    root = math.isqrt(norm_sq - 1) + 1
    f = float(root) if root.bit_length() <= 1023 else math.inf
    return f if f >= root else math.nextafter(f, math.inf)


def integer_kernel_basis(A: IntMatrix) -> KernelBasis:
    """Exact basis of ker(A) ∩ Z^n, via HNF elimination on [A^T | I].

    Raises FullRank when the kernel is trivial.
    """
    vecs = intlinalg.kernel_basis_int(A.to_lists())
    if not vecs:
        raise FullRank("matrix has full column rank; integer kernel is trivial")
    kb = KernelBasis(A.cols, vecs, _length(max(intlinalg.norms_sq(vecs))))
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
    return KernelBasis(A.cols, reduced, _length(intlinalg.norm_sq(reduced[-1])))


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


def preprocess_sketch(A: IntMatrix):
    """The paper's pre-processing: A' = [A; Y], whose orthogonal lattice has a
    short certified basis.

    S is the n - 4r shortest vectors of the LLL-reduced kernel of A, each of
    length <= sqrt(n) * M; Y is the LLL-reduced basis of ker([A; S]) ∩ Z^n,
    3r vectors for a full-row-rank A, so A' has 4r rows, A's first. Returns
    (A', S) with S checked exactly against A' and certified_max_len S's
    longest length.

    Raises TooManyRows if r > 0.25 n, LengthBoundUnachieved when the n - 4r
    shortest reduced kernel vectors exceed the target (surfaced with the best
    achieved length, never hidden).
    """
    r, n = A.rows, A.cols
    if r > 0.25 * n:
        raise TooManyRows(f"pre-processing requires r <= n/4 (got r={r}, n={n})")
    M = max(1, A.max_abs_entry())
    target = math.sqrt(n) * M

    keep = n - 4 * r
    short_set = reduced_kernel_basis(A).vectors[:keep]
    achieved = _length(intlinalg.norm_sq(short_set[-1])) if short_set else 0.0
    if achieved > target:
        raise LengthBoundUnachieved(
            f"best {keep} kernel vectors reach length {achieved:.3f} > target {target:.3f}",
            achieved=achieved, target=target)

    rows = A.to_lists()
    A_prime = IntMatrix.from_rows(
        rows + reduced_kernel_basis(IntMatrix.from_rows(rows + short_set)).vectors)
    result = KernelBasis(n, short_set, achieved)
    result.check_against(A_prime)
    return A_prime, result


@dataclass
class CellRounder:
    """Fundamental cells of the column lattice A Z^n: the generating columns
    and an LLL-reduced integer basis of the lattice they span, whose
    parallelepiped is the cell the cell lemma adds noise from."""

    generators: np.ndarray          # (r, n) int64, the sketch matrix A
    basis: np.ndarray = field(init=False)       # (r, r) int64 reduced basis rows

    def __post_init__(self):
        A = np.asarray(self.generators, dtype=np.int64)
        r = A.shape[0]
        # columns of A generate the lattice; a basis is the row HNF of A^T
        hnf = intlinalg.row_hnf([list(map(int, col)) for col in A.T])
        if len(hnf) < r:
            raise DegenerateLattice(
                f"column lattice has rank {len(hnf)} < r={r}"
            )
        self.basis = np.asarray(reduce_basis([list(v) for v in hnf]), dtype=np.int64)

    @property
    def rank(self):
        return self.basis.shape[0]

    def cell_base_batch(self, Y):
        """Lattice points of the unit cells of the rows of Y: the floor of
        each row in reduced-basis coordinates. Exact inverse of adding
        fundamental_cell_uniform noise."""
        B = self.basis.astype(float)
        coords = np.linalg.solve(B.T, np.asarray(Y, dtype=float).T).T
        coeffs = np.floor(coords + 1e-12).astype(np.int64)
        return coeffs @ self.basis


def fundamental_cell_uniform(rounder: CellRounder, rng, size=None):
    """Uniform sample(s) from the fundamental parallelepiped of the reduced
    basis: eta = sum_i u_i b_i with u_i ~ U[0,1).

    cell_base_batch(point + eta) recovers point for cell-interior samples.
    """
    rng = as_generator(rng)
    r = rounder.rank
    B = rounder.basis.astype(float)
    if size is None:
        return rng.random(r) @ B
    return rng.random((int(size), r)) @ B
