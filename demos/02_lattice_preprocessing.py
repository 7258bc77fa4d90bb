"""Integer-lattice machinery: exact kernels, Siegel-style short vectors, the
row-adding pre-processing that makes a sketch's orthogonal lattice short (its
3r rows one LLL-reduced kernel basis), and the fundamental-cell structure used
to blur sketched values.

Run: python demos/02_lattice_preprocessing.py
"""

import math

import numpy as np

from sketchlab.lattice import (
    CellRounder,
    IntMatrix,
    fundamental_cell_uniform,
    integer_kernel_basis,
    preprocess_sketch,
    short_kernel_vector,
)
from sketchlab.rng import derive

rng = derive(2024, "demo2")

# --- exact integer kernels -------------------------------------------------
A = IntMatrix.from_rows([[2, 3, 5]])
kb = integer_kernel_basis(A)
print("kernel of [2 3 5]:", kb.vectors, " (A v = 0 exactly)")

# --- Siegel's lemma, realized ----------------------------------------------
# A nonzero integer kernel vector with max|x_i| <= (nM)^{r/(n-r)}. The bound
# is asserted in exact integer arithmetic inside short_kernel_vector.
M = 100
B = rng.integers(-M, M + 1, size=(3, 12))
v = short_kernel_vector(IntMatrix.from_rows(B, bound=M))
bound = (12 * M) ** (3 / 9)
print(f"\nSiegel vector for a random 3x12 matrix (M={M}):")
print(f"  linf = {max(abs(x) for x in v)}, bound (nM)^(r/(n-r)) = {bound:.2f}")

# --- pre-processing: short basis for the orthogonal lattice -----------------
C = rng.integers(-50, 51, size=(3, 32))
Ap, basis = preprocess_sketch(IntMatrix.from_rows(C, bound=50))
print(f"\npre-processing a 3x32 sketch (M=50):")
print(f"  rows after: {Ap.rows} (4r = 12)")
print(f"  largest A' entry: {Ap.max_abs_entry()} (added rows: "
      f"{int(np.max(np.abs(Ap.entries[3:])))})  M = 50, sqrt(n) M = {math.sqrt(32) * 50:.2f}")
print(f"  certified orthogonal-basis length: {basis.certified_max_len:.2f}"
      f"  target sqrt(n) M = {math.sqrt(32) * 50:.2f}")

# --- cells of the column lattice -------------------------------------------
# Sketched values A x live on the column lattice A Z^n. Adding uniform noise
# from a fundamental cell makes the image continuous; flooring in the
# reduced-basis coordinates recovers the lattice point exactly.
D = rng.integers(-5, 6, size=(2, 8))
while np.linalg.matrix_rank(D.astype(float)) < 2:
    D = rng.integers(-5, 6, size=(2, 8))
rounder = CellRounder(D)
z = rng.integers(-3, 4, size=(5, 8))
points = (z @ D.T).astype(float)
eta = fundamental_cell_uniform(rounder, rng, size=5)
recovered = rounder.cell_base_batch(points + eta)
print(f"\ncolumn-lattice cells for a random 2x8 sketch:")
print(f"  reduced basis rows: {rounder.basis.tolist()}")
print(f"  cell_base_batch(point + eta) == point for all 5 samples? "
      f"{bool(np.all(recovered == points))}")
