"""Bootstrap inference, specification diagnostics, and model pruning.

Uncertainty comes from the cluster bootstrap: units are resampled with
replacement, each carrying both of its rows, and the whole pipeline
(propensity fit, outcome fit, estimate) is repeated per replicate.  Replicate r
draws its n unit indices from the random stream keyed by ``(seed, r)``, so
results are bit-identical for a fixed seed.

One engine, :func:`_replicate_values`, runs a suite of ``(method, spec)``
entries over replicates a chunk at a time: the bootstrap runs a
suite of one over resamples, the DR test a suite of three over shared
resamples, and a simulation study (:mod:`simlab`) its suite over fresh
draws.  A chunk is a :class:`~panel_causal.estimators._Batch` and a
``(k, n)`` count matrix: every design column is a function of one unit's
own data, so a resample is the full-sample design with unit i counted as
often as it was drawn (its resampling vector), and a chunk of draws is
their designs stacked, each unit counted once.  The batch is the route of
every estimate, a point estimate being its batch of one draw (see
:mod:`estimators`): it fits every entry on the whole chunk and reads each
fit's failure status, so no overlap, a kernel's failure or a rank-deficient
design makes a (replicate, entry) pair NaN, and the pair raises the
extreme-weight or collapsed-bin warning of its point estimate.  A draw's
values are its own estimates bit for bit; a resample's agree with the
estimates on its ``take()`` copy to about 1e-12 relative.  All runs on the
calling thread.

The diagnostics are a doubly-robust specification test (compare the DR
estimate against the pure weighting and pure outcome-model estimates on
shared bootstrap replicates), a propensity balance check (does adding the
covariates back improve a treatment model that already has the fitted score
and its powers?), and backward elimination of weak terms from both the
outcome and treatment models.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BootstrapFailureError,
    BootstrapFailureWarning,
    DegenerateVarianceWarning,
    EmptyModelWarning,
    InvalidArgumentError,
    SeparationError,
    _as_int,
    _warn,
)
from .estimators import (
    ESTIMANDS,
    METHOD_TABLE,
    _Batch,
    _check_estimand,
    _fitted_scores,
    estimate_effects,
    method_info,
)
from .glm_fit import _check_k_bins, fit_logistic, fit_propensity
from .lmm_fit import _NOT_PD, _fit_one, _raise_failure
from .panel_data import ModelSpec, build_design, ps_design
from .rng import substream

__all__ = [
    "EstimatorConfig",
    "BootstrapResult",
    "DRTestResult",
    "BalanceReport",
    "evaluate_estimator",
    "relative_effect",
    "cluster_bootstrap",
    "dr_specification_test",
    "balance_check",
    "backward_eliminate",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run, and with what models.

    ``spec`` supplies the terms of the models the method fits (see
    :data:`~panel_causal.estimators.METHOD_TABLE`); DID needs none.
    ``k_bins``, the propensity bin count of DRGLMM, must be at least 2.
    """

    method: str
    estimand: str
    spec: ModelSpec = None
    k_bins: int = 5

    def __post_init__(self):
        info = method_info(self.method)
        estimand = _check_estimand(self.estimand)
        object.__setattr__(self, "method", info.name)
        object.__setattr__(self, "estimand", estimand)
        if estimand not in info.estimands:
            raise InvalidArgumentError(
                f"{info.name} estimates the {'/'.join(info.estimands)} only"
            )
        missing = info.missing_model(self.spec)
        if missing:
            raise InvalidArgumentError(f"{info.name} needs its {missing}, which spec lacks")
        object.__setattr__(self, "k_bins", _check_k_bins(self.k_bins))


def evaluate_estimator(config, data, ps_fit=None):
    """Run the configured estimator on ``data`` and return its point value.

    ``ps_fit`` can inject an already-fitted propensity model; without it
    the method fits its own.
    """
    out = estimate_effects(config.method, data, config.spec, ps_fit,
                           k_bins=config.k_bins)
    return out[config.estimand].value


def _baseline(data):
    """The mean pre-period response, once checked to be nonzero: the base
    of :func:`relative_effect`."""
    base = float(np.mean(data.y0))
    if base == 0.0:
        raise InvalidArgumentError(
            "relative effect undefined: mean pre-period response is zero"
        )
    return base


def relative_effect(value, data):
    """Express an absolute effect as a percentage of the mean pre-period
    response, the conventional scale for reporting traffic-count effects."""
    return 100.0 * float(value) / _baseline(data)


def _check_B(B, name="B"):
    """``B`` as an int, once checked: at least 2 bootstrap replicates."""
    B = _as_int(B, name)
    if B < 2:
        raise InvalidArgumentError(f"{name} must be at least 2, got {B}")
    return B


def _check_alpha(alpha, name="alpha"):
    """``alpha`` as a float, once checked: a p-value cutoff in (0, 1]."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise InvalidArgumentError(f"{name} must be in (0, 1], got {alpha}")
    return alpha


# Replicates fitted as one batch: as many as keep a (replicates, n) array
# within _CHUNK_CELLS values (200 kB), which spreads a batch's fixed cost
# and keeps peak memory flat in n.  A study's DRGLMM entries that share an
# outcome design fit in one call (estimators._Batch.values), whose arrays
# hold a row per entry and replicate: two such (replicates, n) blocks for
# DEFAULT_SUITE, on one copy of the chunk's designs.  A draw's values do
# not depend on its batch or on the entries fitted with it, to the last
# bit; a resample's agree across batches to rounding only, because GEMM
# picks its kernel by the row count.
_CHUNK_CELLS = 25_000


def _chunk_size(n):
    """Replicates of n units each that are fitted as one batch."""
    return max(1, _CHUNK_CELLS // n)


def _replicate_values(suite, chunks):
    """Values of each ``(method, spec)`` entry of ``suite`` on every
    replicate, ``(R, entries, len(ESTIMANDS))``: the one replicate engine
    of the bootstrap, the DR test and the simulation study.

    ``chunks`` yields ``(batch, C)`` per chunk of k replicates: a
    :class:`_Batch` and its ``(k, n)`` count matrix.  :meth:`_Batch.values`
    fits every entry on the whole chunk; a pair it finds not ok is NaN.  The
    pairs' warnings are raised chunk by chunk, each pointing at the line
    that called the bootstrap, the DR test or the study.
    """
    out = []
    for batch, C in chunks:
        vals, ok, notes = batch.values(suite, C)
        vals[~ok] = np.nan
        for note in notes:
            _warn(*note)
        out.append(vals)
    return np.concatenate(out)


def _resamples(data, k_bins, B, seed):
    """The B cluster-bootstrap resamples of ``data`` as chunks of
    :func:`_replicate_values`.  Replicate r draws its n unit indices from the
    ``(seed, r)`` stream, and their bincount is its row of the count matrix."""
    n = data.n
    batch = _Batch(data, k_bins)
    chunk = _chunk_size(n)
    for start in range(0, B, chunk):
        C = np.array([np.bincount(substream(seed, r).integers(0, n, size=n), minlength=n)
                      for r in range(start, min(start + chunk, B))], dtype=float)
        yield batch, C


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimate plus percentile bootstrap summaries.

    ``n_failed`` counts replicates on which the estimator failed (no
    overlap after resampling, separation, rank problems); they are excluded
    from the summaries and a warning fires if they reach 5 percent of B.
    """

    point: float
    boot_mean: float
    se: float
    ci_lower: float
    ci_upper: float
    B: int
    n_failed: int


def cluster_bootstrap(data, config, B, seed):
    """Nonparametric cluster bootstrap of one estimator.

    Replicate r resamples n units with replacement from the ``(seed, r)``
    stream and fits the whole estimator again: the estimator is a suite of
    one for the replicate engine (module docstring), which gives each
    replicate the value, failure and warnings of its resample evaluated
    alone.

    Parameters
    ----------
    data : PanelDataset
    config : EstimatorConfig
    B : int
        Replicate count, at least 2.
    seed : int
        Stream family; replicate r uses the ``(seed, r)`` stream.

    Returns
    -------
    BootstrapResult
    """
    B = _check_B(B)
    point = evaluate_estimator(config, data)
    vals = _replicate_values([(config.method, config.spec)],
                             _resamples(data, config.k_bins, B, seed))
    vals = vals[:, 0, ESTIMANDS.index(config.estimand)]
    ok = vals[np.isfinite(vals)]
    n_failed = int(B - ok.size)
    if n_failed >= 0.05 * B:
        _warn(f"{n_failed} of {B} bootstrap replicates failed to fit",
              BootstrapFailureWarning)
    if ok.size == 0:
        return BootstrapResult(point, np.nan, np.nan, np.nan, np.nan, B, n_failed)
    lo, hi = np.percentile(ok, [2.5, 97.5])
    se = float(np.std(ok, ddof=1)) if ok.size > 1 else 0.0
    return BootstrapResult(
        point=point,
        boot_mean=float(ok.mean()),
        se=se,
        ci_lower=float(lo),
        ci_upper=float(hi),
        B=B,
        n_failed=n_failed,
    )


@dataclass(frozen=True)
class DRTestResult:
    """Specification z-tests built from shared bootstrap replicates.

    ``z_ps`` compares the doubly robust ATE against the weighting-only
    estimate (large values indict the propensity model, whose correctness
    is what makes the two agree); ``z_or`` compares it against the
    outcome-model estimate.  Rejections are at the 1.96 critical value.
    """

    z_ps: float
    z_or: float
    reject_ps: bool
    reject_or: bool
    sigma_ps: float
    sigma_or: float
    B: int
    n_failed: int


# Two estimates that coincide by construction (the doubly robust and
# mixed-model ones under a constant treatment model) are equal only up to
# rounding in general: a spread below _ROUNDING times the size of the
# estimates is no bootstrap variance.
_ROUNDING = 1e-9


def _guarded_z(num, sigma, scale):
    if not np.isfinite(sigma) or sigma <= _ROUNDING * scale:
        _warn("difference statistic has degenerate bootstrap variance; z set to 0",
              DegenerateVarianceWarning)
        return 0.0
    return float(abs(num) / sigma)


def dr_specification_test(data, spec, B=500, seed=0, k_bins=5):
    """Test the propensity and outcome models through their DR agreement.

    On the original data and on each of B shared cluster resamples, compute
    the doubly robust, weighted-DID, and mixed-model ATE estimates.  The
    bootstrap standard deviations of the pairwise differences scale the
    observed point differences into z statistics.

    The three estimators are one suite of the replicate engine (module
    docstring) on the resamples of :func:`cluster_bootstrap`: one
    treatment-model fit per chunk serves the doubly robust and the
    weighted-DID estimate.  A replicate in which any of the three fails is
    left out of the statistics.

    Parameters
    ----------
    data : PanelDataset
    spec : ModelSpec
        Outcome and propensity terms.
    """
    missing = METHOD_TABLE["DRGLMM"].missing_model(spec)
    if missing:
        raise InvalidArgumentError(f"dr_specification_test needs its {missing}, which spec lacks")
    B = _check_B(B)
    k_bins = _check_k_bins(k_bins, data.n)
    suite = [(method, spec) for method in ("DRGLMM", "IPWDID", "GLMM")]
    ps_fit = fit_propensity(data, spec)
    point_dr, point_ipwdid, point_glmm = (
        estimate_effects(method, data, spec, ps_fit, k_bins=k_bins)["ATE"].value
        for method, _ in suite)
    vals = _replicate_values(suite, _resamples(data, k_bins, B, seed))
    vals = vals[..., ESTIMANDS.index("ATE")]
    ok = vals[np.all(np.isfinite(vals), axis=1)]
    n_failed = int(B - ok.shape[0])
    if ok.shape[0] < 2:
        raise BootstrapFailureError(
            "too few successful bootstrap replicates for the DR test"
        )
    sigma_ps = float(np.std(ok[:, 0] - ok[:, 1], ddof=1))
    sigma_or = float(np.std(ok[:, 0] - ok[:, 2], ddof=1))
    scale = float(np.max(np.abs(ok)))
    z_ps = _guarded_z(point_dr - point_ipwdid, sigma_ps, scale)
    z_or = _guarded_z(point_dr - point_glmm, sigma_or, scale)
    return DRTestResult(
        z_ps=z_ps,
        z_or=z_or,
        reject_ps=bool(z_ps > 1.96),
        reject_or=bool(z_or > 1.96),
        sigma_ps=sigma_ps,
        sigma_or=sigma_or,
        B=B,
        n_failed=n_failed,
    )


@dataclass(frozen=True)
class BalanceReport:
    """Outcome of the propensity balance regression comparison.

    The two adjusted pseudo-R-squared values come from logistic fits of the
    treatment on (a) the fitted score and its square and cube, and (b) the
    same plus all dataset covariates.  ``balanced`` is true when the
    covariates fail to improve (b) over (a); it is None when either fit was
    separated, which leaves the check inconclusive.
    """

    r2_ps_only: float
    r2_with_covariates: float
    balanced: object
    note: str = ""


def _conditioned_design(columns):
    """Well-conditioned design spanning the given columns: (matrix, rank).

    Gram-Schmidt with a relative residual threshold drops dependent
    columns; the surviving orthonormal basis is rescaled so every column
    has norm sqrt(n).  Powers of a propensity score concentrated on a
    short interval are nearly collinear, and a logistic fit on the raw
    monomials needs coefficients large enough to trip the separation
    detector; on the re-basis they stay O(1).  Fitted probabilities (and
    hence the balance statistics) depend only on the span, which is
    unchanged.  The intercept column survives as the first basis vector.
    """
    basis = []
    for c in columns:
        v = c.astype(float)
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            continue
        for b in basis:
            v = v - (b @ v) * b
        nv = np.linalg.norm(v)
        if nv > 1e-8 * norm0:
            basis.append(v / nv)
    rootn = np.sqrt(columns[0].shape[0])
    return np.column_stack(basis) * rootn, len(basis)


def _adjusted_pseudo_r2(d, fitted, n_predictors):
    n = d.shape[0]
    sd_f = np.std(fitted)
    if sd_f == 0.0 or np.std(d) == 0.0:
        r2 = 0.0
    else:
        r = np.corrcoef(d, fitted)[0, 1]
        r2 = float(r * r)
    denom = n - n_predictors - 1
    if denom <= 0:
        return float("-inf")
    return 1.0 - (1.0 - r2) * (n - 1) / denom


def balance_check(data, ps_fit):
    """Check covariate balance through the fitted propensity score.

    If the treatment model is adequate, the score and its low powers carry
    all the information the covariates have about treatment, so refitting
    with the covariates added cannot improve the (complexity-adjusted) fit.

    Returns
    -------
    BalanceReport

    Raises
    ------
    InvalidArgumentError
        ``ps_fit`` does not hold one score strictly inside (0, 1) per unit
        of ``data``, as the estimators require of it too.
    """
    d = data.d1.astype(float)
    ps = _fitted_scores(data, ps_fit)
    n = data.n
    base_cols = [np.ones(n), ps, ps**2, ps**3]
    # Regression (b) adds every dataset covariate at t=0, not just the ones
    # the treatment model used: a confounder the model omitted has to be able
    # to show up here.
    cov_cols = [data.x0[:, j] for j in range(len(data.covariate_names))]
    A, rank_a = _conditioned_design(base_cols)
    Bmat, rank_b = _conditioned_design(base_cols + cov_cols)
    try:
        fit_a = fit_logistic(A, d)
        fit_b = fit_logistic(Bmat, d)
    except SeparationError as exc:
        return BalanceReport(
            r2_ps_only=float("nan"),
            r2_with_covariates=float("nan"),
            balanced=None,
            note=f"inconclusive: {exc}",
        )
    # Intercept never counts as a predictor; it is kept first in both sets.
    r2_a = _adjusted_pseudo_r2(d, fit_a.fitted_ps, rank_a - 1)
    r2_b = _adjusted_pseudo_r2(d, fit_b.fitted_ps, rank_b - 1)
    return BalanceReport(
        r2_ps_only=r2_a,
        r2_with_covariates=r2_b,
        balanced=bool(r2_b <= r2_a),
    )


def _wald_pvalues(coef, se):
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, np.abs(coef) / se, np.inf)
    return np.array([math.erfc(v / math.sqrt(2.0)) for v in z])


_FORCED_OUTCOME = ("intercept", "time", "treatment")


def backward_eliminate(data, full_spec, alpha=0.10):
    """Drop the weakest model terms one at a time until all survive ``alpha``.

    The outcome model and the treatment model are pruned independently, each
    by refitting after removing the single candidate term with the largest
    Wald p-value, as long as that p-value exceeds ``alpha``.  Intercept,
    time and treatment terms are never candidates.  Ties break toward the
    earliest term in spec order.  If every candidate is eliminated, the
    forced-terms-only model is returned with an :class:`EmptyModelWarning`.

    Returns
    -------
    ModelSpec

    Raises
    ------
    InvalidArgumentError
        ``alpha`` is not in (0, 1].
    NonFiniteLikelihoodError
        A fit has no covariance to test with: an outcome model with nearly
        collinear columns, or a treatment model whose information matrix
        is singular in floating point.
    PanelCausalError
        Any other typed error of an outcome or treatment fit, such as
        :class:`RankDeficientDesignError` or :class:`SeparationError`.
    """
    alpha = _check_alpha(alpha)

    def prune(terms, forced_kinds, pvalue_fn):
        terms = list(terms)
        had_candidates = any(t.kind not in forced_kinds for t in terms)
        while True:
            candidates = [i for i, t in enumerate(terms) if t.kind not in forced_kinds]
            if not candidates:
                break
            pvals = pvalue_fn(terms)
            worst = max(candidates, key=lambda i: (pvals[i], -i))
            if pvals[worst] > alpha:
                del terms[worst]
            else:
                break
        if had_candidates and not any(t.kind not in forced_kinds for t in terms):
            _warn("backward elimination removed every candidate term", EmptyModelWarning)
        return tuple(terms)

    def outcome_pvalues(terms):
        design = build_design(data, terms, pre_period=True)
        fit = _fit_one(design.X0, design.X, data.y0, data.y1,
                       full_spec.random_effect == "unit_intercept")
        return _wald_pvalues(fit.fixed_effects, fit.se_fixed)

    def ps_pvalues(terms):
        X, _ = ps_design(data, tuple(terms))
        fit = fit_logistic(X, data.d1.astype(float))
        if fit.cov_alpha is None:
            _raise_failure(_NOT_PD, "ps", X.shape[1])
        return _wald_pvalues(fit.alpha_hat, np.sqrt(np.diag(fit.cov_alpha)))

    outcome_terms = prune(full_spec.outcome_terms, _FORCED_OUTCOME, outcome_pvalues)
    if full_spec.ps_terms:
        ps_terms = prune(full_spec.ps_terms, ("intercept",), ps_pvalues)
    else:
        ps_terms = ()
    return ModelSpec(
        outcome_terms=outcome_terms,
        random_effect=full_spec.random_effect,
        ps_terms=ps_terms,
    )
