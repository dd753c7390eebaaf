"""Logistic treatment-model fitting by IRLS, and propensity-score features.

The treatment model is a plain Bernoulli-logit GLM fitted by Newton's
method (iteratively reweighted least squares).  On top of the fit this
module derives the two propensity features the estimators need: the fitted
probabilities themselves, and the equal-frequency quantile dummy coding used
for doubly robust augmentation.  The fit only reports its scores: the
estimators that form inverse weights from them warn when a score comes
close to 0 or 1.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .errors import (
    DegenerateBinsWarning,
    InvalidArgumentError,
    NoVariationInOutcomeError,
    NonBinaryTreatmentError,
    RankDeficientDesignError,
    SeparationError,
)
from .panel_data import ps_design

__all__ = [
    "PSFit",
    "PSDummies",
    "fit_logistic",
    "fit_propensity",
    "ps_quantile_dummies",
]

_COEF_BOUND = 30.0
_PROB_EDGE = 1e-10
# Any unit the fitted predictor misclassifies (or leaves on the boundary)
# contributes at least 2*log(2) ~ 1.386 to the deviance, so a deviance below
# this line is only reachable when a predictor strictly separates the
# classes, i.e. when the MLE does not exist.
_SEPARATED_DEVIANCE = 1.0
_MAX_ITER = 100
_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PSFit:
    """Fitted logistic treatment model.

    ``alpha_hat`` is aligned to the design columns (``columns`` carries the
    labels when fitted through :func:`fit_propensity`); ``fitted_ps`` holds
    one probability per unit, strictly inside (0, 1).  ``cov_alpha`` is the
    inverse observed information at the optimum, used for Wald p-values in
    backward elimination.
    """

    alpha_hat: np.ndarray
    fitted_ps: np.ndarray
    n_iter: int
    converged: bool
    deviance: float
    columns: tuple = None
    cov_alpha: np.ndarray = None


def _deviance(eta, y):
    # -2 log L for the Bernoulli-logit model, in overflow-safe form.
    return 2.0 * float(np.sum(np.logaddexp(0.0, eta) - y * eta))


def fit_logistic(design, outcome):
    """Maximize the Bernoulli-logit likelihood by Newton/IRLS.

    Parameters
    ----------
    design : ndarray, shape (n, p)
        Full column rank model matrix.
    outcome : ndarray
        Binary responses with both classes present.

    Returns
    -------
    PSFit

    Raises
    ------
    RankDeficientDesignError
        ``design`` has linearly dependent columns.
    NoVariationInOutcomeError
        Only one outcome class present.
    SeparationError
        The likelihood has no finite maximizer: coefficients ran past 30 in
        absolute value, the deviance collapsed below the 2*log(2) floor
        that any non-separated sample must respect, or the fit stalled with
        fitted probabilities pinned to 0 or 1.

    Notes
    -----
    Convergence is declared when the deviance changes by less than 1e-10
    between iterations; the loop is capped at 100 iterations.  At
    convergence the score equations ``design.T @ (outcome - fitted_ps) = 0``
    hold to high accuracy.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(outcome, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise InvalidArgumentError("design must be (n, p) with outcome of length n")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise InvalidArgumentError("design and outcome must be finite")
    if np.any((y != 0.0) & (y != 1.0)):
        raise NonBinaryTreatmentError("outcome must be coded 0/1")
    if y.min() == y.max():
        raise NoVariationInOutcomeError("outcome has a single class; cannot fit")
    n, p = X.shape
    if n < p or np.linalg.matrix_rank(X) < p:
        raise RankDeficientDesignError(
            f"design has rank below its {p} columns; drop redundant terms"
        )

    alpha = np.zeros(p)
    eta = np.zeros(n)
    dev_old = _deviance(eta, y)
    converged = False
    n_iter = 0
    for n_iter in range(1, _MAX_ITER + 1):
        prob = expit(eta)
        w = prob * (1.0 - prob)
        H = (X.T * w) @ X
        g = X.T @ (y - prob)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            # Full-rank design with a singular information matrix means the
            # IRLS weights collapsed, which only happens on the way to a
            # boundary solution.
            raise SeparationError(
                "information matrix became singular; data are separated"
            ) from None
        alpha = alpha + step
        if np.max(np.abs(alpha)) > _COEF_BOUND:
            raise SeparationError(
                f"coefficient magnitude exceeded {_COEF_BOUND:g}; data are "
                "(quasi-)separated and the MLE does not exist"
            )
        eta = X @ alpha
        dev = _deviance(eta, y)
        if abs(dev - dev_old) < _TOL:
            converged = True
            break
        dev_old = dev
    prob = expit(eta)
    if _deviance(eta, y) < _SEPARATED_DEVIANCE:
        # Newton can plateau (tiny deviance changes) while walking out to
        # infinity on separated data, declaring convergence before the
        # coefficient bound trips; a collapsed deviance is unambiguous.
        raise SeparationError(
            "deviance collapsed to zero; the classes are strictly separated "
            "and the MLE does not exist"
        )
    if not converged and np.any((prob < _PROB_EDGE) | (prob > 1.0 - _PROB_EDGE)):
        raise SeparationError(
            "fit stalled with fitted probabilities at the boundary; data are separated"
        )
    w = prob * (1.0 - prob)
    H = (X.T * w) @ X
    try:
        cov = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        cov = None
    return PSFit(
        alpha_hat=alpha,
        fitted_ps=prob,
        n_iter=n_iter,
        converged=converged,
        deviance=_deviance(eta, y),
        cov_alpha=cov,
    )


def fit_propensity(data, spec):
    """Fit the treatment model of ``spec`` on pre-intervention covariates.

    Thin wrapper over :func:`fit_logistic` that builds the t=0 design from
    ``spec.ps_terms`` and attaches the column labels to the result.  Scores
    near 0 or 1 are not flagged here: the estimators that form inverse
    weights from them warn.
    """
    X, labels = ps_design(data, spec)
    return replace(fit_logistic(X, data.d1.astype(float)), columns=labels)


@dataclass(frozen=True, eq=False)
class PSDummies:
    """Equal-frequency propensity bins as a dummy matrix.

    ``dummies`` has one 0/1 column per occupied bin above the reference
    (lowest) bin, so at most one entry per row is 1.  ``bin_edges`` are the
    effective cut points after collapsing duplicates; ``collapsed`` flags
    that fewer than K-1 dummy columns survived.
    """

    bin_edges: np.ndarray
    dummies: np.ndarray
    K: int
    bins: np.ndarray
    collapsed: bool


def ps_quantile_dummies(ps, K=5):
    """Cut fitted propensity scores into K equal-frequency bins.

    Cut points are the 1/K, 2/K, ... sample quantiles.  A score equal to a
    cut point goes to the lower bin.  Ties can merge cut points; merged or
    empty bins drop their dummy column and set the ``collapsed`` flag, with
    a :class:`DegenerateBinsWarning`.

    Parameters
    ----------
    ps : ndarray
        Probabilities, one per unit.
    K : int
        Number of bins, between 2 and the number of units.

    Returns
    -------
    PSDummies
    """
    ps = np.asarray(ps, dtype=float)
    if ps.ndim != 1:
        raise InvalidArgumentError("ps must be one-dimensional")
    K = int(K)
    if K < 2:
        raise InvalidArgumentError(f"K must be at least 2, got {K}")
    if ps.shape[0] < K:
        raise InvalidArgumentError(f"need at least K={K} units, got {ps.shape[0]}")
    edges = np.quantile(ps, np.arange(1, K) / K)
    uniq = np.unique(edges)
    bins = np.searchsorted(uniq, ps, side="left")
    occupied = np.unique(bins)
    cols = [(bins == b).astype(float) for b in occupied[1:]]
    dummies = np.column_stack(cols) if cols else np.zeros((ps.shape[0], 0))
    collapsed = dummies.shape[1] < K - 1
    if collapsed:
        warnings.warn(
            f"propensity quantile bins collapsed: {dummies.shape[1]} dummy "
            f"columns instead of {K - 1}",
            DegenerateBinsWarning,
            stacklevel=2,
        )
    return PSDummies(
        bin_edges=uniq,
        dummies=dummies,
        K=K,
        bins=bins,
        collapsed=collapsed,
    )
