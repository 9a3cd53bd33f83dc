"""identikit: can the parameters of a deterministic time-series model be
learned from data, and how well?

Local structural identifiability via the Fisher information matrix, practical
identifiability via confidence ellipsoids and profile likelihood, global
importance via Sobol indices, and global practical identifiability via
synthetic-data recovery experiments.  The package exports the README quick
start's names and two errors; import every other name from its module.
"""

from .estimation import cluster_optima, multi_start_fit
from .fim import confidence_ellipsoid, fim_report
from .models import Design, EvaluationError, OutOfBoundsError, generate_data, get_model
from .profile import profile_parameter
from .recovery import global_recovery
from .sobol import Prior, sobol_indices

__version__ = "0.1.0"

__all__ = ["get_model", "Design", "generate_data", "multi_start_fit", "cluster_optima", "fim_report",
           "confidence_ellipsoid", "profile_parameter", "Prior", "sobol_indices", "global_recovery",
           "EvaluationError", "OutOfBoundsError"]
