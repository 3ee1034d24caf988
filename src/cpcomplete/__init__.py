"""Low-rank CP tensor completion with the l1 scaling-vector penalty tuned
per iteration by a flexible Golub-Kahan hybrid method with weighted GCV."""

from .completion import (
    CompletionConfig,
    CompletionTrace,
    complete,
    make_random_mask,
    relative_error,
)
from .cp_model import CPModel, CPScalingOperator, build_q, reconstruct, truncate_rank
from .exceptions import DataError, NumericalRankError, PixmapParseError
from .factor_updates import (
    gradient,
    lipschitz_estimate,
    mm_update,
    regularized_als_step,
)
from .hybrid_l1 import (
    FGKState,
    HybridConfig,
    fgk_expand,
    fgk_init,
    irn_weights,
    ista_alpha_step,
    projected_tikhonov,
    soft_threshold,
    solve_l1_hybrid,
    wgcv_select,
)
from .mor import (
    DiffusionProblem,
    ReducedBasis,
    assemble_snapshots,
    cheb_diff,
    compression_ratio,
    cp_reduced_basis,
    parameter_grid,
    pod_basis,
    project_error,
    run_mor_demo,
    solve_diffusion,
)
from .tensor_ops import (
    Mask,
    as_tensor,
    frobenius_norm,
    khatri_rao,
    masked_copy,
    matricize,
)

__version__ = "0.1.0"
