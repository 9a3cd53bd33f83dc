"""identikit: can the parameters of a deterministic time-series model be
learned from data, and how well?

Local structural identifiability via the Fisher information matrix, practical
identifiability via confidence ellipsoids and profile likelihood, global
importance via Sobol indices, and global practical identifiability via
synthetic-data recovery experiments.
"""

from .estimation import (
    EstimateResult,
    cluster_optima,
    fit,
    latin_hypercube_starts,
    log_likelihood,
    multi_start_fit,
)
from .fim import (
    Ellipsoid,
    FimReport,
    RankDeficientFimWarning,
    SloppinessStats,
    assemble_fim,
    combination_variance,
    confidence_ellipsoid,
    design_score,
    fim_report,
)
from .models import (
    Dataset,
    Design,
    EvaluationError,
    Model,
    OdeSystem,
    OutOfBoundsError,
    ParameterSpace,
    UnknownModelError,
    biexponential_model,
    builtin_registry,
    evaluate,
    generate_data,
    get_model,
    linear_model,
    load_dataset,
    logistic_model,
    reciprocal_model,
    redundant_exponential_model,
    save_dataset,
)
from .profile import ProfileCurve, ProfileInterval, profile_parameter
from .recovery import RecoveryReport, RecoveryTrial, global_recovery, recover_once
from .sensitivity import (
    SensitivityMatrix,
    fd_jacobian,
    forward_ode_jacobian,
    forward_ode_solve,
    sensitivity_matrix,
)
from .sobol import Prior, SobolReport, screen_unidentifiable, sobol_indices

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
