"""Logistic treatment-model fitting by IRLS, and propensity-score features.

The treatment model is a plain Bernoulli-logit GLM fitted by Newton's
method (iteratively reweighted least squares).  On top of the fit this
module derives the two propensity features the estimators need: the fitted
probabilities themselves, and the equal-frequency quantile dummy coding used
for doubly robust augmentation.  The fit only reports its scores: the
estimators that form inverse weights from them warn when a score comes
close to 0 or 1.

Each of the two models has one kernel, which handles a batch of fits at
once, each fit weighting its units by a vector of counts (the resamples of
one dataset share its design; a study's draws each have their own):
:func:`_fit_logistic_batch` runs the IRLS with a masked Newton step per
fit, and :func:`_quantile_bins_batch` is the count-weighted binning rule.
:func:`fit_logistic` and :func:`ps_quantile_dummies` are those kernels on
one fit that counts every unit once: they check their input and turn the
logistic fit's status into the result, its covariance by
``lmm_fit._covariance``, or the typed error of ``lmm_fit._FAILURES``, where
every kernel's statuses are numbered, and the bins into the dummies and the
warning.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateBinsWarning,
    InvalidArgumentError,
    NonBinaryTreatmentError,
    _as_int,
    _warn,
)
from .lmm_fit import (_COEF_BOUND, _NOT_PD, _OK, _ONE_CLASS, _RANK_DEFICIENT, _SEPARATED,
                      _SINGULAR, _STALLED, _UNBOUNDED, _covariance, _dot, _each, _Fits,
                      _full_rank, _raise_failure, _Rows, _solve)
from .panel_data import ps_design

__all__ = [
    "PSFit",
    "PSDummies",
    "fit_logistic",
    "fit_propensity",
    "ps_quantile_dummies",
]

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
    backward elimination; None where the information matrix is singular in
    floating point.
    """

    alpha_hat: np.ndarray
    fitted_ps: np.ndarray
    n_iter: int
    converged: bool
    deviance: float
    columns: tuple = None
    cov_alpha: np.ndarray = None


def expit(x):
    """The plain logistic ``1 / (1 + exp(-x))``: 0 below about x = -709."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


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
    InvalidArgumentError
        ``design`` is not (n, p), ``outcome`` is not of length n, or either
        holds a non-finite value.
    NonBinaryTreatmentError
        ``outcome`` is not coded 0/1.
    RankDeficientDesignError
        ``design`` has linearly dependent columns.
    NonFiniteLikelihoodError
        The columns are nearly collinear: full rank, but the first Newton
        step, at equal weights, finds the design's Gram matrix singular in
        floating point.
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
    hold to high accuracy.  The scores are the result: a fit whose
    information matrix is singular in floating point returns, with
    ``cov_alpha`` None.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(outcome, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise InvalidArgumentError("design must be (n, p) with outcome of length n")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise InvalidArgumentError("design and outcome must be finite")
    if np.any((y != 0.0) & (y != 1.0)):
        raise NonBinaryTreatmentError("outcome must be coded 0/1")
    rows = _Rows(X[None], y[None])
    with np.errstate(all="ignore"):
        fits = _fit_logistic_batch(rows, np.ones((1, X.shape[0])))
    _raise_failure(fits.status[0], "ps", X.shape[1])
    prob = fits.prob[0]
    return PSFit(
        alpha_hat=fits.alpha[0],
        fitted_ps=prob,
        n_iter=int(fits.n_iter[0]),
        converged=bool(fits.converged[0]),
        deviance=float(fits.deviance[0]),
        cov_alpha=_covariance(rows.gram(prob[None] * (1.0 - prob))[0]),
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


def _check_k_bins(k_bins, units=None, name="k_bins"):
    """``k_bins`` as an int, once checked: 2 <= k_bins <= units (if given)."""
    k = _as_int(k_bins, name)
    if k < 2:
        raise InvalidArgumentError(f"{name} must be at least 2, got {k_bins}")
    if units is not None and k > units:
        raise InvalidArgumentError(
            f"{name} must not exceed the {units} units, got {k_bins}")
    return k


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
    if not np.all(np.isfinite(ps)):
        raise InvalidArgumentError("ps must be finite")
    K = _check_k_bins(K, ps.shape[0], name="K")
    fits = _quantile_bins_batch(ps[None], np.ones((1, ps.shape[0])), K)
    bins = fits.bins[0]
    cols = [(bins == b).astype(float) for b in np.flatnonzero(fits.occupied[0])[1:]]
    dummies = np.column_stack(cols) if cols else np.zeros((ps.shape[0], 0))
    collapsed = not fits.occupied[0].all()
    if collapsed:
        _warn(_collapsed_message(dummies.shape[1], K), DegenerateBinsWarning)
    return PSDummies(
        bin_edges=fits.edges[0][fits.distinct[0]],
        dummies=dummies,
        K=K,
        bins=bins,
        collapsed=collapsed,
    )


def _collapsed_message(columns, K):
    """The :class:`DegenerateBinsWarning` of binning into K bins that left
    ``columns`` dummy columns."""
    return f"propensity quantile bins collapsed: {columns} dummy columns instead of {K - 1}"


def _logistic_terms(eta, y, C, prob, work):
    """Fitted probabilities at ``eta``, written into ``prob``, and the
    count-weighted deviance over the last axis (a single fit counts 1.0),
    returned; both from one exponential: ``logaddexp(0, eta)`` is
    ``max(eta, 0) + log1p(exp(-|eta|))``.  ``work`` is two scratch arrays
    of ``eta``'s shape.

    The numerator of the probability, 1 where ``eta >= 0`` and ``exp(eta)``
    elsewhere, is ``max(exp(-|eta|), eta >= 0)``: the floats of
    ``np.where(eta >= 0, 1, exp(-|eta|))``, NaN included, without a branch
    per element (21 against 129 us on a (25, 1000) array of mixed signs).
    The steps write into arrays the caller allocates once per kernel call.
    One fresh (25, 1000) array costs little (``np.exp`` took 25.5 us into a
    fresh array and 29.5 us into a reused one), but an expression that
    holds two at once does: ``p * (1.0 - p)`` took 112 us, against 22 us
    for the same floats computed into one array (2-vCPU x86-64, numpy 2.4).
    """
    e, buf = work
    np.abs(eta, out=e)
    np.exp(np.negative(e, out=e), out=e)
    np.add(1.0, e, out=buf)
    np.maximum(e, eta >= 0.0, out=prob)
    prob /= buf
    terms = np.log1p(e, out=e)
    terms += np.maximum(eta, 0.0, out=buf)
    terms -= np.multiply(y, eta, out=buf)
    terms *= C
    return 2.0 * terms.sum(axis=-1)


def _fit_logistic_batch(rows, C):
    """:func:`fit_logistic` on a batch of fits.

    ``rows`` is the ``lmm_fit._Rows`` of the design and the 0/1 outcome,
    shared by the batch (the resamples of one dataset) or one per replicate
    (the draws of a study).  Row r of the ``(k, n)`` count matrix ``C``
    weights the units of fit r: unit i enters it ``C[r, i]`` times.  Every
    fit runs the IRLS from zero and stops on its own deviance test, or when
    it fails; a step solves all active fits together, their information
    matrices being the Gram matrices of the counts times the IRLS weights.
    Convergence is declared when the deviance changes by less than 1e-10
    between iterations; the loop is capped at 100 iterations.

    The start at zero is known without computing it: every probability is
    1/2 and every unit adds ``log(2)`` times its count to half the deviance.
    While every fit is active a step reads and writes the batch's arrays in
    place; after the first fit stops it gathers the active ones.  Every
    step works in one scratch block allocated per call (see
    :func:`_logistic_terms`).  Only an unconverged fit is tested for
    probabilities at the edge.

    Returns
    -------
    _Fits
        Per fit: fitted probabilities ``prob`` ``(k, n)``, coefficients
        ``alpha``, ``n_iter``, ``converged``, ``deviance`` and ``status``:
        ``_ONE_CLASS`` (nothing fitted), else ``_RANK_DEFICIENT`` where
        ``lmm_fit._full_rank`` finds the design rank deficient on the fit's
        rows, else ``_NOT_PD`` where the first Newton step cannot be solved
        (nearly collinear columns), else one of the four ways separation
        shows (``_SINGULAR``, ``_UNBOUNDED``, ``_SEPARATED``, ``_STALLED``;
        see ``lmm_fit._FAILURES``).
    """
    k, n = C.shape
    units = C.sum(axis=1)
    treated = _dot(C, rows.y)
    full = _full_rank(rows.gram(C), C, (rows.X,))
    status = np.where((treated > 0.0) & (treated < units), _OK, _ONE_CLASS)
    alpha = np.zeros((k, rows.X.shape[-1]))
    # _logistic_terms at eta = 0, float for float.
    prob = np.full((k, n), 0.5)
    dev = 2.0 * (C * np.log1p(1.0)).sum(axis=-1)
    n_iter = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    active = status == _OK
    work = np.empty((2, k, n))
    for it in range(1, _MAX_ITER + 1):
        a = np.flatnonzero(active)
        if a.size == 0:
            break
        gathered = a.size < k
        if gathered:
            ra = rows.take(a)
        else:
            a, ra = slice(None), rows
        Ca, pa = C[a], prob[a]
        # The scratch rows of the active fits; the first holds the IRLS
        # weights, then the residuals.
        wa = work[:, :len(Ca)]
        r = np.subtract(1.0, pa, out=wa[0])
        r *= pa
        r *= Ca
        info = ra.gram(r)
        r = np.subtract(ra.y, pa, out=wa[0])
        r *= Ca
        step = _each(_solve, info, ra.cross(r))
        alpha[a] += step
        # The new probabilities overwrite pa: prob itself, or a gathered copy.
        dev_a = _logistic_terms(ra.fitted(alpha[a]), ra.y, Ca, pa, wa)
        if gathered:
            prob[a] = pa
        singular = np.any(np.isnan(step), axis=1)
        unbounded = ~np.all(np.abs(alpha[a]) <= _COEF_BOUND, axis=1)
        done = np.abs(dev_a - dev[a]) < _TOL
        dev[a] = dev_a
        n_iter[a] = it
        # At step 1 every weight is 1/4: an unsolvable step there means the
        # design's own Gram matrix is singular in floating point.
        status[a] = np.select([singular, unbounded],
                              [_NOT_PD if it == 1 else _SINGULAR, _UNBOUNDED], _OK)
        converged[a] = done & (status[a] == _OK)
        active[a] = ~done & (status[a] == _OK)
    status[(status == _OK) & (dev < _SEPARATED_DEVIANCE)] = _SEPARATED
    u = np.flatnonzero((status == _OK) & ~converged)
    pu = prob[u]
    edge = np.any((C[u] > 0.0) & ((pu < _PROB_EDGE) | (pu > 1.0 - _PROB_EDGE)), axis=1)
    status[u[edge]] = _STALLED
    # A single class leaves nothing fitted, so it outranks the rank verdict.
    status[(status != _ONE_CLASS) & ~full] = _RANK_DEFICIENT
    return _Fits(prob=prob, alpha=alpha, n_iter=n_iter, converged=converged,
                 deviance=dev, status=status)


def _quantile_bins_batch(ps, C, K):
    """:func:`ps_quantile_dummies`'s bins on a batch of fits at once.

    Row r of ``ps`` (``(k, n)``) holds the scores of the n distinct units
    of fit r, and row r of ``C`` their counts.  The cut points are
    ``np.quantile``'s default linear rule on the expanded sample (each score
    repeated by its count): the two order statistics around each cut are
    found by a cumulative sum of the counts in score order and interpolated
    by the formula of numpy's ``_lerp``, so the edges are the floats
    ``np.quantile(np.repeat(ps[r], C[r]), ...)`` gives.

    Order statistic j of row r sits at the first position whose cumulative
    count exceeds j.  One ``searchsorted`` finds every row's positions at
    once in the rows' cumulative counts laid end to end, row r shifted up by
    r (max N + 1), N being a row's total count: each row then lies below the
    next even when counts sum above n (a count matrix need not be a
    resample), and an all-zero row's positions (-1) find its own first unit.

    Returns
    -------
    _Fits
        Per fit: ``bins`` ``(k, n)``, the bin of each unit, numbered as
        :func:`ps_quantile_dummies` numbers them (0 is the reference bin);
        the cut points ``edges`` ``(k, K - 1)`` and the mask ``distinct``
        of those above the cut before; and the mask ``occupied`` ``(k, K)``
        of bins that hold a counted unit.  Binning is not a fit: there is
        no status, and a bin that holds no unit shows in ``occupied``.
    """
    k, n = ps.shape
    # The order among equal scores does not matter: the expanded sample's
    # sorted values are the same either way.  Row r's flat indices start
    # at r n.
    order = (np.argsort(ps, axis=1) + n * np.arange(k)[:, None]).ravel()
    s = ps.ravel()[order]
    cum = np.cumsum(C.ravel()[order].reshape(k, n), axis=1)
    N = cum[:, -1:]
    virtual = (N - 1) * (np.arange(1, K) / K)
    prev = np.floor(virtual)
    gamma = virtual - prev
    pos = np.minimum(np.concatenate([prev, prev + 1], axis=1), N - 1)
    shift = (N.max() + 1.0) * np.arange(k)[:, None]
    at = np.searchsorted((cum + shift).ravel(), (pos + shift).ravel(), side="right")
    a, b = np.split(s[at].reshape(k, -1), 2, axis=1)
    diff = b - a
    edges = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    distinct = np.concatenate(
        [np.ones((k, 1), dtype=bool), edges[:, 1:] > edges[:, :-1]], axis=1)
    bins = np.zeros((k, n), dtype=np.intp)
    for j in range(K - 1):
        bins += distinct[:, j, None] & (edges[:, j, None] < ps)
    counted = np.bincount((bins + K * np.arange(k)[:, None])[C > 0.0], minlength=k * K)
    return _Fits(bins=bins, edges=edges, distinct=distinct,
                 occupied=counted.reshape(k, K) > 0)
