"""Fisher information analysis: the matrix, its eigen-structure and what they
answer, variance queries and design scores.

One :class:`FimReport` holds every local verdict: ``rank`` and
``classification``, the null directions ``eigenvectors[:, rank:]``, and
``sloppiness`` (``None`` for a singular matrix).

The information matrix is sigma^-2 V^T V for a sensitivity matrix V; replicated
observations enter as an exact integer multiplier so that doubling replicates
doubles the information bitwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .models import _FRACTION, DESIGN_RULES, Design, Model, _checked, _integer, _rule, _scipy_extension
from .sensitivity import SensitivityMatrix, sensitivity_matrix

DEFAULT_RANK_TOL = 1e-10

IDENTIFIABLE = "identifiable"
RANK_DEFICIENT = "rank-deficient"

DESIGN_CRITERIA = ("D", "A", "E")


# rank_tolerance, sigma and replicates of assemble_fim, level of chi2_quantile, criterion of FimReport.score
FIM_RULES = {"rank_tolerance": _FRACTION, "level": _FRACTION, "criterion": _rule(
    lambda c: isinstance(c, str) and c in DESIGN_CRITERIA, f"must be one of {DESIGN_CRITERIA}"),
    "sigma": DESIGN_RULES["noise_sd"], "replicates": DESIGN_RULES["replicates"]}


class RankDeficientFimWarning(UserWarning):
    """A query on a rank-deficient information matrix used the pseudo-inverse."""


@dataclass(frozen=True)
class SloppinessStats:
    """Least-squares fit of log10 eigenvalues against their index.

    ``sloppy`` requires the spectrum to span at least three decades and to be
    close to linear on the log scale (R^2 >= 0.9).  Both raw statistics are
    reported so users can re-threshold.
    """

    spread_decades: float
    slope: float
    intercept: float
    r_squared: float
    residual_ss: float
    sloppy: bool

    SPREAD_DECADES_MIN = 3.0
    R_SQUARED_MIN = 0.9


@dataclass(eq=False)
class FimReport:
    """Information matrix with its eigen-expansion and classification."""

    sigma: float
    replicates: int
    fim: np.ndarray
    eigenvalues: np.ndarray       # descending
    eigenvectors: np.ndarray      # orthonormal columns, matching order
    rank: int
    classification: str
    rank_tolerance: float
    sloppiness: SloppinessStats | None

    @property
    def dimension(self) -> int:
        return self.fim.shape[0]

    def score(self, criterion: str) -> float:
        """Design score of this matrix for ``criterion``, one of ``DESIGN_CRITERIA``; see :func:`design_score`."""
        (criterion,) = _checked(FIM_RULES, criterion=criterion)
        if self.classification != IDENTIFIABLE:
            # a singular matrix has determinant and smallest eigenvalue 0; the computed
            # null eigenvalue is round-off whose sign and size move with theta
            return 0.0 if criterion in ("D", "E") else float("inf")
        if criterion == "D":
            # eigenvalue product == determinant for the symmetrized matrix, and
            # it scales exactly under replicate doubling
            return float(np.prod(self.eigenvalues))
        if criterion == "E":
            return float(self.eigenvalues[-1])
        return float(np.sum(1.0 / self.eigenvalues))


def _log_linear_fit(eigenvalues: np.ndarray) -> SloppinessStats:
    logs = np.log10(eigenvalues)
    spread = float(logs[0] - logs[-1])
    idx = np.arange(logs.size, dtype=float)
    if logs.size < 2:
        slope, intercept = 0.0, float(logs[0])
        residual_ss, r_squared = 0.0, 1.0
    else:
        slope, intercept = np.polyfit(idx, logs, 1)
        fitted = slope * idx + intercept
        residual_ss = float(np.sum((logs - fitted) ** 2))
        total_ss = float(np.sum((logs - logs.mean()) ** 2))
        r_squared = 1.0 if total_ss == 0.0 else 1.0 - residual_ss / total_ss
    sloppy = (
        spread >= SloppinessStats.SPREAD_DECADES_MIN
        and r_squared >= SloppinessStats.R_SQUARED_MIN
    )
    return SloppinessStats(spread, float(slope), float(intercept), float(r_squared),
                           float(residual_ss), bool(sloppy))


def assemble_fim(
    sensitivity: SensitivityMatrix | np.ndarray,
    sigma: float,
    replicates: int = 1,
    rank_tolerance: float = DEFAULT_RANK_TOL,
) -> FimReport:
    """I = replicates * sigma^-2 V^T V (sigma and replicates as in a Design), with eigen-decomposition and rank.

    The rank counts eigenvalues at least ``rank_tolerance`` (in (0, 1)) times
    the largest (0 if none is positive); the matrix is rank-deficient below full
    rank.  Accepts either a :class:`SensitivityMatrix` or a plain array with one
    row per unique design time.
    """
    rank_tolerance, sigma, replicates = _checked(FIM_RULES, rank_tolerance=rank_tolerance, sigma=sigma,
                                                 replicates=replicates)
    V = sensitivity.values if isinstance(sensitivity, SensitivityMatrix) else np.asarray(sensitivity, dtype=float)
    if not np.all(np.isfinite(V)):
        raise ValueError("sensitivity matrix has non-finite entries")
    fim = (replicates / sigma**2) * (V.T @ V)
    fim = 0.5 * (fim + fim.T)  # suppress rounding asymmetry before the symmetric solver
    lam, vecs = np.linalg.eigh(fim)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vecs = vecs[:, order]
    rank = int(np.sum(lam >= rank_tolerance * lam[0])) if lam[0] > 0 else 0
    classification = IDENTIFIABLE if rank == lam.size else RANK_DEFICIENT
    sloppiness = _log_linear_fit(lam) if np.all(lam > 0) else None
    return FimReport(
        sigma=sigma,
        replicates=replicates,
        fim=fim,
        eigenvalues=lam,
        eigenvectors=vecs,
        rank=rank,
        classification=classification,
        rank_tolerance=rank_tolerance,
        sloppiness=sloppiness,
    )


def fim_report(
    model: Model,
    design: Design,
    theta,
    rank_tolerance: float = DEFAULT_RANK_TOL,
) -> FimReport:
    """Assemble the information matrix of a design at theta, on the model's own route.

    sigma is the design's noise level; replicates enter as the exact
    multiplier on V^T V; ``rank_tolerance`` as in :func:`assemble_fim`.
    """
    V = sensitivity_matrix(model, design, theta)
    return assemble_fim(V, design.noise_sd, design.replicates, rank_tolerance)


def combination_variance(report: FimReport, a) -> float:
    """Asymptotic variance a^T I^{-1} a of the linear combination a . theta_hat.

    On a rank-deficient matrix the variance is infinite whenever ``a`` has a
    component in the null space; otherwise the pseudo-inverse value is
    returned under a :class:`RankDeficientFimWarning`.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (report.dimension,) or not np.any(a):
        raise ValueError("direction must be a nonzero vector of length p")
    coeffs = report.eigenvectors.T @ a
    lam = report.eigenvalues
    rank = report.rank
    if rank < lam.size:
        null_mass = np.linalg.norm(coeffs[rank:])
        if null_mass > report.rank_tolerance * np.linalg.norm(a):
            return float("inf")
        warnings.warn(
            "direction lies in the row space of a rank-deficient information "
            "matrix; returning the pseudo-inverse variance",
            RankDeficientFimWarning,
            stacklevel=2,
        )
    return float(np.sum(coeffs[:rank] ** 2 / lam[:rank]))


@dataclass(eq=False)
class Ellipsoid:
    """Confidence region: center, orthonormal axes, and semi-axis lengths."""

    level: float
    center: np.ndarray
    axes: np.ndarray              # columns are the eigenvector directions
    semi_axis_lengths: np.ndarray


def chi2_quantile(level: float, df: int) -> float:
    """Chi-square(df) quantile: 2 gammaincinv(df / 2, level), the expression scipy's
    ``chi2.ppf`` evaluates, with the same compiled ufunc.

    ``gammaincinv`` is read from scipy's ``special/_special_ufuncs`` extension,
    loaded from its file; the one module that enters ``sys.modules`` is
    ``scipy.special._special_ufuncs`` itself, never ``scipy`` or ``scipy.special``.
    ``level`` is a number in (0, 1), ``df`` an integer >= 1.
    """
    (level,) = _checked(FIM_RULES, level=level)
    _checked({"df": _integer(1)}, df=df)
    return float(2.0 * _scipy_extension("special", "_special_ufuncs").gammaincinv(df / 2, level))


def confidence_ellipsoid(report: FimReport, theta_hat, level: float) -> Ellipsoid:
    """Chi-square ellipsoid about theta_hat (finite, length p): semi-axes sqrt(chi2_p(level) / lambda_i)."""
    center = np.asarray(theta_hat, dtype=float)
    if center.shape != (report.dimension,) or not np.all(np.isfinite(center)):
        raise ValueError("theta_hat must be a finite vector of length p")
    if report.classification != IDENTIFIABLE:
        raise ValueError("confidence ellipsoid requires a full-rank information matrix")
    q = chi2_quantile(level, report.dimension)
    lengths = np.sqrt(q / report.eigenvalues)
    return Ellipsoid(
        level=float(level),
        center=center,
        axes=report.eigenvectors.copy(),
        semi_axis_lengths=lengths,
    )


def design_score(model: Model, design: Design, theta, criterion: str) -> float:
    """Scalar design quality at theta.

    D: det(I), larger is better.  A: trace(I^-1), lower is better.  E: smallest
    eigenvalue, larger is better.  On a rank-deficient matrix D and E are
    exactly 0.0 and A is infinite.
    """
    return fim_report(model, design, theta).score(criterion)
