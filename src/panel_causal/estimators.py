"""ATE and ATT estimators for two-period panel data.

Six methods share one dataset and term language:

- OR: post-period outcome regression, counterfactual-mean contrast.
- GLMM: two-period mixed-model fit, population-averaged contrast over the
  random intercept.
- IPW: Horvitz-Thompson inverse propensity weighting of the post period.
- DID: the classic difference of group mean differences (ATT only).
- IPWDID: the propensity-weighted difference-in-differences, the post-period
  weighted contrast minus the same contrast in the pre period.
- DRGLMM: the doubly robust combination, a GLMM refit after augmenting the
  design with propensity quantile dummies.

ATE averages each estimator's unit-level contrast over everyone; ATT over
treated units only (with the matching treated-normalized weights for the
inverse-probability methods).

The estimand arithmetic lives here and only here: every weighted mean,
group mean and contrast average is a sum over units with unit i counted
``C[i]`` times.  A point estimate uses ``C = 1.0``; the cluster bootstrap
(:mod:`inference`) fits its resamples in batches and passes each batch's
``(k, n)`` count matrix to the same functions, and a simulation study
passes a chunk of draws, each response a ``(k, n)`` array, with all-ones
counts.  The fits behind a point estimate and behind a batch are the same
model kernels, called with the same arguments on a batch of one fit.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBinsWarning, ExtremeWeightsWarning, InvalidArgumentError, _warn
from .glm_fit import _collapsed_message, _ps_dummies, fit_propensity
from .lmm_fit import _fit_one, fit_or
from .panel_data import ModelSpec, build_design

__all__ = [
    "MethodInfo",
    "EffectEstimate",
    "estimate_effects",
    "estimate_or",
    "estimate_glmm",
    "estimate_ipw",
    "estimate_did",
    "estimate_ipwdid",
    "estimate_drglmm",
]


@dataclass(frozen=True)
class MethodInfo:
    """What one estimation method needs and what it reports.

    ``outcome`` is the outcome model the method fits: ``"post"`` (OLS on the
    post-period rows), ``"mixed"`` (the two-period mixed model) or None.
    ``uses_ps`` says whether it needs a fitted treatment model, and
    :attr:`bins_ps` whether it cuts the scores into bins for its outcome model.
    ``estimands`` lists the effects it estimates, and ``label`` prefixes the
    labels of its study rows.
    """

    name: str
    label: str
    outcome: str = None
    uses_ps: bool = False
    estimands: tuple = ("ATE", "ATT")

    @property
    def bins_ps(self):
        """True for a method whose outcome model takes propensity bin
        dummies (the doubly robust DRGLMM)."""
        return self.uses_ps and self.outcome is not None

    def missing_model(self, spec):
        """The model this method fits that ``spec`` has no terms for:
        ``"outcome model"``, ``"treatment model"`` or None."""
        if self.outcome and (spec is None or not spec.outcome_terms):
            return "outcome model"
        if self.uses_ps and (spec is None or not spec.ps_terms):
            return "treatment model"
        return None


METHOD_TABLE = {m.name: m for m in (
    MethodInfo("OR", "or", outcome="post"),
    MethodInfo("GLMM", "glmm", outcome="mixed"),
    MethodInfo("IPW", "ipw", uses_ps=True),
    MethodInfo("DID", "did", estimands=("ATT",)),
    MethodInfo("IPWDID", "ipwdid", uses_ps=True),
    MethodInfo("DRGLMM", "dr", outcome="mixed", uses_ps=True),
)}
METHODS = tuple(METHOD_TABLE)
ESTIMANDS = tuple(dict.fromkeys(e for m in METHOD_TABLE.values() for e in m.estimands))


def method_info(method):
    """The :data:`METHOD_TABLE` row of ``method``, matched in any case."""
    info = METHOD_TABLE.get(str(method).upper())
    if info is None:
        raise InvalidArgumentError(f"method must be one of {METHODS}, got {method!r}")
    return info


def _check_estimand(estimand):
    """``estimand`` upper-cased, once checked to be one of :data:`ESTIMANDS`."""
    if str(estimand).upper() not in ESTIMANDS:
        raise InvalidArgumentError(f"estimand must be one of {ESTIMANDS}, got {estimand!r}")
    return str(estimand).upper()


@dataclass(frozen=True)
class EffectEstimate:
    """A single point estimate with method-specific intermediates.

    ``components`` holds the building blocks the estimate is assembled
    from.  For IPWDID/ATE these are the four weighted period means
    ``delta{t}_{treated,control}`` and the identity
    ``value == (delta1_treated - delta1_control) - (delta0_treated -
    delta0_control)`` holds exactly, because the value is computed from
    them.
    """

    method: str
    estimand: str
    value: float
    components: dict = field(default_factory=dict)


# Inverse weights 1/ps and 1/(1 - ps) are unstable for scores outside
# [_EXTREME_EPS, 1 - _EXTREME_EPS].
_EXTREME_EPS = 0.01


def _fitted_scores(data, ps_fit):
    ps = np.asarray(ps_fit.fitted_ps, dtype=float)
    if ps.shape != (data.n,):
        raise InvalidArgumentError(
            f"ps_fit has {ps.shape[0]} fitted scores for {data.n} units"
        )
    # Written so that a NaN score fails it too.
    if not np.all((ps > 0.0) & (ps < 1.0)):
        raise InvalidArgumentError("fitted propensity scores must lie strictly in (0, 1)")
    return ps


def _ps_warnings(info, ps, occupied, k_bins):
    """The warning that each fit of the method ``info`` raises for its
    treatment model, as ``(message, category)`` or None: DRGLMM's when its
    scores fill only ``occupied`` (one count per fit) of ``k_bins`` bins,
    IPW's and IPWDID's when a score of the fit (a row of ``ps``) gives an
    extreme inverse weight.  The one rule of the point estimates and of the
    replicate engine."""
    if info.bins_ps:
        return [(_collapsed_message(m - 1, k_bins), DegenerateBinsWarning) if m < k_bins
                else None for m in occupied]
    message = (f"propensity scores outside [{_EXTREME_EPS:g}, {1 - _EXTREME_EPS:g}]; "
               "inverse weights may be unstable")
    extreme = np.any((ps < _EXTREME_EPS) | (ps > 1.0 - _EXTREME_EPS), axis=1)
    return [(message, ExtremeWeightsWarning) if e else None for e in extreme]


def _check_ps(method, data, ps_fit):
    """The fitted scores, for the estimators that invert them: warns once
    per estimate when any score would give an extreme inverse weight."""
    ps = _fitted_scores(data, ps_fit)
    note, = _ps_warnings(METHOD_TABLE[method], ps[None], None, None)
    if note:
        _warn(*note)
    return ps


# The estimand arithmetic (see the module docstring): sums over the last axis
# of unit terms times the counts C.  Each returns {estimand: (value, components)}.

def _counted(data, C):
    """The 0/1 treatment as floats, and the counted units and treated units."""
    d = data.d1.astype(float)
    return d, np.sum(C * np.ones_like(d), axis=-1), np.sum(C * d, axis=-1)


def _ht_terms(data, y, ps, C):
    """Horvitz-Thompson means of treated and control responses, and the
    ATT contrast: weight 1 for treated units, the odds ``ps / (1 - ps)`` for controls."""
    d, units, treated = _counted(data, C)
    ht_treated = np.sum(C * d * y / ps, axis=-1) / units
    ht_control = np.sum(C * (1.0 - d) * y / (1.0 - ps), axis=-1) / units
    w = C * (d - (1.0 - d) * ps / (1.0 - ps))
    return ht_treated, ht_control, np.sum(w * y, axis=-1) / treated


def _ipw_values(data, ps, C=1.0):
    ht_treated, ht_control, att = _ht_terms(data, data.y1, ps, C)
    return {"ATE": (ht_treated - ht_control,
                    {"ht_treated": ht_treated, "ht_control": ht_control}),
            "ATT": (att, {})}


def _ipwdid_values(data, ps, C=1.0):
    delta1_treated, delta1_control, post = _ht_terms(data, data.y1, ps, C)
    delta0_treated, delta0_control, pre = _ht_terms(data, data.y0, ps, C)
    return {"ATE": ((delta1_treated - delta1_control) - (delta0_treated - delta0_control),
                    {"delta1_treated": delta1_treated, "delta1_control": delta1_control,
                     "delta0_treated": delta0_treated, "delta0_control": delta0_control}),
            "ATT": (post - pre, {"post": post, "pre": pre})}


def _did_values(data, ps=None, C=1.0):
    """The difference of group mean differences; ``ps`` is not used."""
    d, units, treated = _counted(data, C)
    post, pre = (np.sum(C * d * y, axis=-1) / treated
                 - np.sum(C * (1.0 - d) * y, axis=-1) / (units - treated)
                 for y in (data.y1, data.y0))
    return {"ATT": (post - pre, {"post_diff": post, "pre_diff": pre})}


_WEIGHTING_VALUES = {"IPW": _ipw_values, "IPWDID": _ipwdid_values, "DID": _did_values}


def _contrast_values(data, design, beta, C=1.0):
    """ATE and ATT averages of the unit contrasts of the counterfactual
    predictions.  ``beta`` (one fit, or a row per fit of a batch) may carry
    the coefficients of unit-constant columns after the design's p; they
    cancel.  The design is one ``(n, p)`` block, or ``(k, n, p)`` with a
    block per fit."""
    diff = design.cf_treated - design.cf_control
    p = diff.shape[-1]
    if diff.ndim == 2:
        contrasts = (diff @ beta[..., :p].T).T
    else:
        contrasts = (diff @ beta[:, :p, None])[..., 0]
    d, units, treated = _counted(data, C)
    return {"ATE": (np.sum(C * contrasts, axis=-1) / units, {}),
            "ATT": (np.sum(C * d * contrasts, axis=-1) / treated, {})}


def _estimates(method, values, extra=None):
    """The point estimates of ``values`` computed with C = 1.0."""
    return {
        e: EffectEstimate(method, e, float(v),
                          {**{k: float(c) for k, c in comps.items()}, **(extra or {})})
        for e, (v, comps) in values.items()
    }


def estimate_or(data, spec):
    """Post-period outcome regression estimates of ATE and ATT.

    Fits ordinary least squares on the n post-period rows and contrasts the
    fitted counterfactual means with treatment forced to 1 versus 0.  The
    spec should not contain time terms: in the post period they are
    collinear with the intercept (a time-interaction covariate equals its
    main effect there).

    Returns
    -------
    dict
        ``{"ATE": EffectEstimate, "ATT": EffectEstimate}``.
    """
    design = build_design(data, spec, pre_period=False)
    fit = fit_or(design.X, data.y1)
    return _estimates("OR", _contrast_values(data, design, fit.fixed_effects))


def _glmm_fit(data, spec, dummies=None):
    """Fit the two-period outcome model by a replicate's kernel call, on the
    t=0 and t=1 designs as two aligned n-row blocks.  The bins of
    ``dummies`` (a :class:`~panel_causal.glm_fit.PSDummies`) go in as labels
    of the occupied bins, so the lowest stays the reference.  Without a
    random effect the variance ratio is 0: least squares on the blocks
    stacked.  Returns (fit, design)."""
    if not isinstance(spec, ModelSpec):
        spec = ModelSpec(outcome_terms=tuple(spec))
    design = build_design(data, spec, pre_period=True)
    bins, n_bins = None, 0
    if dummies is not None:
        occupied, bins = np.unique(dummies.bins, return_inverse=True)
        n_bins = len(occupied)
    fit = _fit_one(design.X0, design.X, data.y0, data.y1, bins, n_bins,
                   random_intercept=spec.random_effect == "unit_intercept")
    return fit, design


def _mixed_estimates(method, data, spec, dummies=None):
    """GLMM and DRGLMM estimates: fit the mixed model, contrast its
    counterfactual post-period predictions.

    With the identity link, averaging the contrast over the random intercept
    leaves ``eta1 - eta0`` exactly, so no quadrature is needed.
    """
    fit, design = _glmm_fit(data, spec, dummies)
    comps = {"sigma_u2": fit.sigma_u2, "sigma_e2": fit.sigma_e2}
    if dummies is not None:
        comps["n_dummy_columns"] = dummies.dummies.shape[1]
        comps["bins_collapsed"] = dummies.collapsed
    return _estimates(method, _contrast_values(data, design, fit.fixed_effects), comps)


def estimate_glmm(data, spec):
    """Mixed-model estimates of ATE and ATT via marginalized contrasts.

    Fits the two-period model with a unit random intercept (or
    without one, if ``spec.random_effect == "none"``), builds both
    counterfactual post-period linear predictors, and averages the
    population-level contrast over units.  The outcome family is Gaussian
    with identity link, so marginalizing over the random intercept leaves
    the difference of the linear predictors exactly.
    """
    return _mixed_estimates("GLMM", data, spec)


def estimate_ipw(data, ps_fit):
    """Horvitz-Thompson inverse propensity weighting of the post period.

    ATE is the mean of ``d y1 / ps - (1 - d) y1 / (1 - ps)``; ATT reweights
    controls by the odds ``ps / (1 - ps)`` and normalizes by the treated
    count.  Scores near 0 or 1 raise an :class:`ExtremeWeightsWarning`.
    """
    return _estimates("IPW", _ipw_values(data, _check_ps("IPW", data, ps_fit)))


def estimate_did(data):
    """Difference-in-differences estimate of the ATT.

    (treated post mean - control post mean) minus the same difference in
    the pre period.  Returns a single :class:`EffectEstimate`.
    """
    return _estimates("DID", _did_values(data))["ATT"]


def estimate_ipwdid(data, ps_fit):
    """Propensity-weighted difference-in-differences for ATE and ATT.

    The ATE subtracts the pre-period Horvitz-Thompson contrast from the
    post-period one; the four weighted means are recorded as components and
    the value is assembled from them, so the decomposition identity is
    exact.  The ATT applies the treated-normalized weights to the response
    change ``y1 - y0``.  Scores near 0 or 1 raise an
    :class:`ExtremeWeightsWarning`.
    """
    return _estimates("IPWDID", _ipwdid_values(data, _check_ps("IPWDID", data, ps_fit)))


def estimate_drglmm(data, spec, ps_fit, k_bins=5):
    """Doubly robust estimates: GLMM augmented with propensity bin dummies.

    The fitted propensity scores are cut into ``k_bins`` equal-frequency
    bins; the bin dummies enter both period designs (constant within unit)
    and both counterfactual designs, so with the identity link their
    coefficients cancel from every contrast and act purely as a bias
    correction on the refitted treatment terms.  The fit takes the bins as
    labels, like its replicates.  A constant propensity collapses all bins
    and reproduces :func:`estimate_glmm` exactly.
    """
    dummies = _ps_dummies(_fitted_scores(data, ps_fit), k_bins)
    note, = _ps_warnings(METHOD_TABLE["DRGLMM"], None, [dummies.dummies.shape[1] + 1],
                         dummies.K)
    if note:
        _warn(*note)
    return _mixed_estimates("DRGLMM", data, spec, dummies)


def estimate_effects(method, data, spec=None, ps_fit=None, *, k_bins=5):
    """Run any method of :data:`METHOD_TABLE` on ``data``.

    ``spec`` supplies the outcome terms of methods with an outcome model.
    Methods that use the propensity score take ``ps_fit`` if given, else fit
    ``spec.ps_terms`` here.  ``k_bins`` goes to DRGLMM.

    Returns
    -------
    dict
        ``{estimand: EffectEstimate}`` for each estimand of the method.
    """
    info = method_info(method)
    if info.uses_ps and ps_fit is None:
        ps_fit = fit_propensity(data, spec)
    if info.name == "OR":
        return estimate_or(data, spec)
    if info.name == "GLMM":
        return estimate_glmm(data, spec)
    if info.name == "IPW":
        return estimate_ipw(data, ps_fit)
    if info.name == "DID":
        return {"ATT": estimate_did(data)}
    if info.name == "IPWDID":
        return estimate_ipwdid(data, ps_fit)
    return estimate_drglmm(data, spec, ps_fit, k_bins=k_bins)
