"""weaklab: a numerical laboratory for weighted weak-type inequalities.

Dyadic grids and meshes, Muckenhoupt-type weight characteristics, maximal
and singular operators in multiplier form, Calderon-Zygmund decompositions,
sparse averaging operators, matrix weights with reducing operators, and the
explicit endpoint lower-bound construction on the line.
"""

from .grid import Cube, DyadicGrid, Mesh, MeshFunction, average, shifted_grids
from .weights import (
    CharacteristicReport,
    DegenerateWeightError,
    NonIntegrableError,
    PowerLogWeight,
    SampledWeight,
    SearchSpace,
    a1_characteristic,
    a1q_characteristic,
    ainfty_characteristic,
    ap_characteristic,
    apq_characteristic,
    dual_exponent,
    rh_characteristic,
    sharp_rh_exponent,
)
from .operators import (
    DistributionCurve,
    distribution,
    dyadic_maximal,
    fractional_integral,
    fractional_maximal,
    hilbert_to_mesh,
    hl_maximal,
    multiplier_apply,
    weak_lp_norm,
)
from .sparse import (
    CZDecomposition,
    covering_roots,
    SparseFamily,
    build_sparse_family,
    cz_decompose,
    exceptional_set,
    sparse_apply,
    verify_sparseness,
)
from .matrix import (
    EllipsoidFitError,
    MatrixWeight,
    ReducingMatrix,
    ainfty_scalar_characteristic,
    alt_norm_sum,
    christ_goldberg_maximal,
    dominating_scalar_sparse,
    dual_reducing_matrix,
    matrix_a1_characteristic,
    matrix_a1q_characteristic,
    matrix_ap_characteristic,
    matrix_apq_characteristic,
    op_norm,
    random_matrix_weight,
    reducing_matrix,
    scalar_restriction,
    scalar_restriction_characteristic,
    sharp_rhi_matrix_bound,
    unit_directions,
)
from .weaktype import (
    BoundCheckReport,
    ProofConstants,
    bound_check,
    dual_weak_estimate,
    proof_constants,
    quotient_from_output,
    weak_quotient,
)
from .lowerbound import (
    GradedMesh,
    LowerBoundReport,
    delta_sweep,
    exact_a1_interval_average,
    lower_bound_experiment,
    mu,
    nu,
    w_delta,
)

__version__ = "0.1.0"
