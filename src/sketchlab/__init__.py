"""sketchlab: a laboratory for adversarial robustness of integer linear
sketches.

Subpackages map to the pieces of the construction: exact integer lattice
machinery (lattice), discrete Gaussian sampling (dgauss), sketches and
GapNorm oracles (sketch), the adaptive rowspace-learning attack (attack),
hard-distribution generators (harddist), statistical harnesses (stats), and
the acceptance battery (acceptance).
"""

from .attack import (
    AttackConfig,
    AttackState,
    Exploit,
    FailureCertificate,
    conditional_gap_estimate,
    invariant_diagnostic,
    run_and_verify,
    run_attack,
    round_step,
    verify_certificate,
)
from .dgauss import (
    SubspaceGaussianSpec,
    pmf_dgauss_1d,
    sample_dgauss_1d,
    sample_subspace_query,
)
from .harddist import (
    HardFamily,
    HardInstance,
    gen_hard_instance,
    sketched_indistinguishability,
    verify_gap_event,
)
from .lattice import (
    CellRounder,
    IntMatrix,
    KernelBasis,
    fundamental_cell_uniform,
    integer_kernel_basis,
    preprocess_sketch,
    reduce_basis,
    short_kernel_vector,
)
from .numerics import (
    OrthonormalBasis,
    gram_schmidt_residual,
    orthonormalize_rows,
    top_right_singular_vector,
)
from .sketch import (
    ExactNormOracle,
    GapNormOracle,
    GapNormParams,
    IntegerSketch,
    StreamState,
    build_sketch,
)
from .stats import TvdEstimate, cell_lemma_check, chi_square_mixture_check, empirical_tvd, pmf_ratio_check

__version__ = "0.1.0"
