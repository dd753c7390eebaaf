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

One route, :class:`_Batch`, leads from a method, its models and a ``(k, n)``
count matrix C to values: fit r counts unit i ``C[r, i]`` times.  The
cluster bootstrap (:mod:`inference`) passes its resamples' count vectors, a
simulation study (:mod:`simlab`) a chunk of draws stacked with all-ones
counts, and a point estimate (:func:`estimate_effects`) is the batch of one
draw.  The batch follows the method's :data:`METHOD_TABLE` row to the
kernels of :mod:`glm_fit` and :mod:`lmm_fit`, reads each fit's status, and
hands the fits to the estimand arithmetic, where every mean is a sum over
units with unit i counted ``C[r, i]`` times.  A failed fit raises its
status's error (``lmm_fit._FAILURES``) in a point estimate, and is NaN in a
replicate.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBinsWarning, ExtremeWeightsWarning, InvalidArgumentError, _warn
from .glm_fit import (_check_k_bins, _collapsed_message, _fit_logistic_batch,
                      _quantile_bins_batch)
from .lmm_fit import (_NO_OVERLAP, _OK, _PS_UNUSABLE, _fit_lmm_batch, _fit_or_batch,
                      _raise_failure, _rotated_rows, _Rows)
from .panel_data import ModelSpec, build_design, ps_design

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
        _raise_failure(_PS_UNUSABLE, "ps", ps.size)
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


# The estimand arithmetic (see the module docstring): sums over the last axis
# of unit terms times the counts C.  Each returns {estimand: (value, components)}.

def _counted(data, C):
    """The 0/1 treatment as floats, and the counted units and treated units."""
    d = data.d1.astype(float)
    return d, C.sum(axis=-1), np.sum(C * d, axis=-1)


def _ht_terms(data, y, ps, C):
    """Horvitz-Thompson means of treated and control responses, and the
    ATT contrast: weight 1 for treated units, the odds ``ps / (1 - ps)`` for controls."""
    d, units, treated = _counted(data, C)
    ht_treated = np.sum(C * d * y / ps, axis=-1) / units
    ht_control = np.sum(C * (1.0 - d) * y / (1.0 - ps), axis=-1) / units
    w = C * (d - (1.0 - d) * ps / (1.0 - ps))
    return ht_treated, ht_control, np.sum(w * y, axis=-1) / treated


def _ipw_values(data, ps, C):
    ht_treated, ht_control, att = _ht_terms(data, data.y1, ps, C)
    return {"ATE": (ht_treated - ht_control,
                    {"ht_treated": ht_treated, "ht_control": ht_control}),
            "ATT": (att, {})}


def _ipwdid_values(data, ps, C):
    delta1_treated, delta1_control, post = _ht_terms(data, data.y1, ps, C)
    delta0_treated, delta0_control, pre = _ht_terms(data, data.y0, ps, C)
    return {"ATE": ((delta1_treated - delta1_control) - (delta0_treated - delta0_control),
                    {"delta1_treated": delta1_treated, "delta1_control": delta1_control,
                     "delta0_treated": delta0_treated, "delta0_control": delta0_control}),
            "ATT": (post - pre, {"post": post, "pre": pre})}


def _did_values(data, ps, C):
    """The difference of group mean differences; ``ps`` is not used."""
    d, units, treated = _counted(data, C)
    post, pre = (np.sum(C * d * y, axis=-1) / treated
                 - np.sum(C * (1.0 - d) * y, axis=-1) / (units - treated)
                 for y in (data.y1, data.y0))
    return {"ATT": (post - pre, {"post_diff": post, "pre_diff": pre})}


_WEIGHTING_VALUES = {"IPW": _ipw_values, "IPWDID": _ipwdid_values, "DID": _did_values}


def _contrast_values(data, diff, beta, C):
    """ATE and ATT averages of the unit contrasts of the counterfactual
    predictions, ``diff`` being the treated minus the control design: one
    ``(n, p)`` block, or ``(k, n, p)`` with a block per fit.  ``beta`` (a
    row per fit) may carry the coefficients of unit-constant columns after
    the p; they cancel."""
    p = diff.shape[-1]
    if diff.ndim == 2:
        contrasts = (diff @ beta[:, :p].T).T
    else:
        contrasts = (diff @ beta[:, :p, None])[..., 0]
    d, units, treated = _counted(data, C)
    return {"ATE": (np.sum(C * contrasts, axis=-1) / units, {}),
            "ATT": (np.sum(C * d * contrasts, axis=-1) / treated, {})}


def _bins(ps, C, k_bins):
    """The propensity bins of each fit of a batch: every unit's bin
    renumbered among the fit's occupied bins, the lowest (always occupied)
    staying the reference, and the count of occupied bins per fit.  The new
    numbers are read by one flat gather from the rows of renumbered bins."""
    cut = _quantile_bins_batch(ps, C, k_bins)
    renumbered = np.cumsum(cut.occupied, axis=1) - 1
    labels = renumbered.ravel()[cut.bins + k_bins * np.arange(ps.shape[0])[:, None]]
    return labels, cut.occupied.sum(axis=1)


def _ps_terms(spec):
    """The treatment terms of ``spec``: a :class:`ModelSpec`, or the terms
    alone (a point estimate's bare spec, whose terms serve every model)."""
    return spec.ps_terms if isinstance(spec, ModelSpec) else tuple(spec)


@dataclass(frozen=True, eq=False)
class _Responses:
    """The columns the estimand functions read, with a leading replicate axis."""

    d1: np.ndarray
    y0: np.ndarray
    y1: np.ndarray


class _Batch:
    """Estimates of every method on a batch of fits: the resamples of one
    dataset, a chunk of draws, or the one fit of a point estimate.

    A batch of k fits is given as a ``(k, n)`` count matrix ``C``: fit r
    counts unit i ``C[r, i]`` times.  With ``reps`` None every fit is a
    resample of the dataset ``data`` and shares its designs.  With ``reps``
    equal to k, ``data`` stacks k datasets of n units (dataset r in rows
    ``r n`` to ``r n + n - 1``) and fit r is dataset r, counted with ones;
    every design column is a function of one unit's own data, so each design
    is built once on the stacked rows and split into one per dataset.  A
    point estimate is ``reps`` 1.

    The designs of a spec are built on first use.  Which kernels run follows
    the method's :data:`METHOD_TABLE` row: the logistic fit and its scores
    when it uses the propensity score, the count-weighted bins when it also
    has an outcome model (DRGLMM), and OLS on the post period or the
    two-period mixed model for its outcome kind.
    """

    def __init__(self, data, k_bins, reps=None):
        self.data = data
        self.k_bins = k_bins
        self.reps = reps
        self.responses = data if reps is None else _Responses(
            self._split(data.d1), self._split(data.y0), self._split(data.y1))
        self._designs = {}

    def _split(self, a):
        """A row-wise array of ``data`` with a leading replicate axis, if
        ``data`` stacks datasets."""
        if self.reps is None:
            return a
        return a.reshape(self.reps, -1, *a.shape[1:])

    def _design(self, kind, spec):
        """The kernel input of one model of ``spec``: for ``"ps"`` the
        :class:`~panel_causal.lmm_fit._Rows` of the treatment model; for
        ``"post"`` and ``"mixed"`` the difference of the outcome design's
        counterfactual t=1 blocks, and the rows its kernel fits: the t=1
        block, or the sum and difference rows of the t=0 and t=1 blocks."""
        key = (kind, _ps_terms(spec) if kind == "ps" else spec.outcome_terms)
        if key not in self._designs:
            if kind == "ps":
                X, _ = ps_design(self.data, spec)
                self._designs[key] = _Rows(self._split(X), self.responses.d1.astype(float))
            else:
                design = build_design(self.data, spec, pre_period=kind == "mixed")
                blocks = [self._split(b) for b in (design.X0, design.X) if b is not None]
                diff = self._split(design.cf_treated - design.cf_control)
                # Only their difference is used: dropping the counterfactual
                # blocks first lowers the peak memory of a large estimate.
                del design
                y0, y1 = self.responses.y0, self.responses.y1
                rows = (_Rows(blocks[0], y1) if kind == "post"
                        else _rotated_rows(*blocks, y0, y1))
                self._designs[key] = diff, rows
        return self._designs[key]

    @np.errstate(all="ignore")
    def propensity(self, spec, C):
        """Fitted scores ``(k, n)`` of the treatment model of ``spec``, 0.5
        for the units a fit does not count, and the status of each fit: the
        logistic kernel's (which includes the rank verdict on the fit's own
        rows), else ``_PS_UNUSABLE`` where a counted score is not strictly
        inside (0, 1).  An estimator can use the fits whose status is
        ``_OK``."""
        fits = _fit_logistic_batch(self._design("ps", spec), C)
        ps = np.where(C > 0.0, fits.prob, 0.5)
        status = fits.status
        status[(status == _OK) & ~np.all((ps > 0.0) & (ps < 1.0), axis=1)] = _PS_UNUSABLE
        return ps, status

    @np.errstate(all="ignore")
    def effects(self, info, spec, C, propensity=None, binned=None):
        """Estimates of the method ``info`` with the models of ``spec`` on
        each fit of ``C``, given if need be the :meth:`propensity` and
        :func:`_bins` of the same counts.  The outcome fits are grouped by
        their count of occupied bins, one kernel call a group, each taking
        the dummies of its own occupied bins.  A failed fit computes
        meaningless floats silently; its status speaks for it.

        Returns ``({estimand: (values, components)}, status)``: ``(k,)``
        values, the :class:`EffectEstimate` components as ``(k,)`` arrays,
        and each fit's ``lmm_fit`` status.  Values mean nothing where the
        status is not ``_OK``: ``_NO_OVERLAP``, ``_PS_UNUSABLE`` (a
        treatment model the estimator cannot use), or the outcome kernel's
        status, which includes its rank verdict.
        """
        k = C.shape[0]
        _, units, treated = _counted(self.responses, C)
        status = np.where((treated > 0.0) & (treated < units), _OK, _NO_OVERLAP)
        ps = None
        if info.uses_ps:
            ps, ps_status = propensity or self.propensity(spec, C)
            status[(status == _OK) & (ps_status != _OK)] = _PS_UNUSABLE
        if info.outcome is None:
            return _WEIGHTING_VALUES[info.name](self.responses, ps, C), status
        diff, rows = self._design(info.outcome, spec)
        bins, n_bins = None, np.zeros(k, dtype=int)
        if info.bins_ps:
            bins, n_bins = binned or _bins(ps, C, self.k_bins)
        sel = np.flatnonzero(status == _OK)
        coef = np.zeros((k, diff.shape[-1]))
        lam, sigma_e2 = np.zeros(k), np.zeros(k)
        for m in np.unique(n_bins[sel]):
            group = sel[n_bins[sel] == m]
            if info.outcome == "post":
                fits = _fit_or_batch(rows.take(group), C[group])
            else:
                fits = _fit_lmm_batch(
                    tuple(r.take(group) for r in rows), C[group],
                    None if bins is None else bins[group], m,
                    random_intercept=spec.random_effect == "unit_intercept",
                )
                lam[group] = fits.lam
                sigma_e2[group] = fits.rss / (2 * units[group])
            status[group] = fits.status
            coef[group] = fits.beta[:, :coef.shape[1]]
        comps = {}
        if info.outcome == "mixed":
            comps = {"sigma_u2": lam * sigma_e2, "sigma_e2": sigma_e2}
        if info.bins_ps:
            comps.update(n_dummy_columns=n_bins - 1, bins_collapsed=n_bins < self.k_bins)
        values = _contrast_values(self.responses, diff, coef, C)
        return {e: (v, comps) for e, (v, _) in values.items()}, status

    def values(self, suite, C):
        """Estimates of each ``(method, spec)`` entry of ``suite`` on each
        fit of ``C``: ``(k, entries, len(ESTIMANDS))`` values, NaN where
        the method lacks the estimand, ``(k, entries)`` ok flags, and the
        warnings of the pairs as ``(message, category)`` in fit-then-entry
        order.  A pair warns as its point estimate would on the fit's own
        dataset: once a usable treatment model gives IPW or IPWDID an
        extreme score, or leaves DRGLMM with collapsed bins.  Entries with
        the same treatment terms share one treatment-model fit and its bins."""
        vals = np.full((C.shape[0], len(suite), len(ESTIMANDS)), np.nan)
        ok = np.empty((C.shape[0], len(suite)), dtype=bool)
        notes, scores, cuts = {}, {}, {}
        with np.errstate(all="ignore"):
            for i, (method, spec) in enumerate(suite):
                info = METHOD_TABLE[method]
                propensity = binned = occupied = None
                if info.uses_ps:
                    key = spec.ps_terms
                    if key not in scores:
                        scores[key] = self.propensity(spec, C)
                    propensity = ps, ps_status = scores[key]
                    if info.bins_ps:
                        if key not in cuts:
                            cuts[key] = _bins(ps, C, self.k_bins)
                        binned = _, occupied = cuts[key]
                    for r, note in enumerate(_ps_warnings(info, ps, occupied, self.k_bins)):
                        if note and ps_status[r] == _OK:
                            notes[r, i] = note
                estimates, status = self.effects(info, spec, C, propensity, binned)
                ok[:, i] = status == _OK
                for j, estimand in enumerate(ESTIMANDS):
                    if estimand in estimates:
                        vals[:, i, j] = estimates[estimand][0]
        return vals, ok, [notes[pair] for pair in sorted(notes)]


def estimate_effects(method, data, spec=None, ps_fit=None, *, k_bins=5):
    """Run any method of :data:`METHOD_TABLE` on ``data``.

    ``spec`` supplies the outcome terms of methods with an outcome model (a
    :class:`ModelSpec`, or the terms alone).  Methods that use the
    propensity score take ``ps_fit`` if given, else fit ``spec.ps_terms``
    (or the terms alone) here, by :meth:`_Batch.propensity` as every
    replicate does; a failed fit raises the error of its status, as
    :func:`~panel_causal.glm_fit.fit_propensity` would.  Scores near 0 or 1
    raise an
    :class:`ExtremeWeightsWarning` where the method inverts them, collapsed
    bins a :class:`DegenerateBinsWarning` where it bins them.  ``k_bins``
    goes to DRGLMM.  A method without the terms of a model it fits (by
    :meth:`MethodInfo.missing_model`, ``ps_fit`` counting as the treatment
    model) raises :class:`InvalidArgumentError`.

    The estimate is the batch of one draw (module docstring), whose failed
    fit raises the error of its status.

    Returns
    -------
    dict
        ``{estimand: EffectEstimate}`` for each estimand of the method.
    """
    info = method_info(method)
    bare = spec is not None and not isinstance(spec, ModelSpec)
    if bare and (info.outcome or info.uses_ps):
        spec = tuple(spec)
    # The terms alone are the terms of every model fitted here, and a given
    # ps_fit is the treatment model.
    missing = None if bare and spec else info.missing_model(None if bare else spec)
    if missing == "treatment model" and ps_fit is not None:
        missing = None
    if missing:
        ps_note = " and no ps_fit gives" if missing == "treatment model" else ""
        raise InvalidArgumentError(f"{info.name} needs its {missing}, which spec lacks{ps_note}")
    C = np.ones((1, data.n))
    propensity = binned = occupied = None
    if info.uses_ps:
        if ps_fit is None:
            # A batch of its own, so that the treatment design is freed
            # before the outcome design is built.
            propensity = ps, ps_status = _Batch(data, k_bins, reps=1).propensity(spec, C)
            _raise_failure(ps_status[0], "ps", len(_ps_terms(spec)))
        else:
            ps = _fitted_scores(data, ps_fit)[None]
            propensity = ps, np.full(1, _OK)
        if info.bins_ps:
            k_bins = _check_k_bins(k_bins, data.n, name="K")
            binned = _, occupied = _bins(ps, C, k_bins)
        note, = _ps_warnings(info, ps, occupied, k_bins)
        if note:
            _warn(*note)
    if info.outcome and bare:
        spec = ModelSpec(outcome_terms=spec)
    values, status = _Batch(data, k_bins, reps=1).effects(info, spec, C, propensity, binned)
    if info.outcome:
        _raise_failure(status[0], info.outcome, len(spec.outcome_terms))
    return {e: EffectEstimate(info.name, e, float(v[0]),
                              {c: x[0].item() for c, x in comps.items()})
            for e, (v, comps) in values.items()}


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
    return estimate_effects("OR", data, spec)


def estimate_glmm(data, spec):
    """Mixed-model estimates of ATE and ATT via marginalized contrasts.

    Fits the two-period model with a unit random intercept (or
    without one, if ``spec.random_effect == "none"``), builds both
    counterfactual post-period linear predictors, and averages the
    population-level contrast over units.  The outcome family is Gaussian
    with identity link, so marginalizing over the random intercept leaves
    the difference of the linear predictors exactly: no quadrature is
    needed.
    """
    return estimate_effects("GLMM", data, spec)


def estimate_ipw(data, ps_fit):
    """Horvitz-Thompson inverse propensity weighting of the post period.

    ATE is the mean of ``d y1 / ps - (1 - d) y1 / (1 - ps)``; ATT reweights
    controls by the odds ``ps / (1 - ps)`` and normalizes by the treated
    count.  Scores near 0 or 1 raise an :class:`ExtremeWeightsWarning`.
    """
    return estimate_effects("IPW", data, ps_fit=ps_fit)


def estimate_did(data):
    """Difference-in-differences estimate of the ATT.

    (treated post mean - control post mean) minus the same difference in
    the pre period.  Returns a single :class:`EffectEstimate`.
    """
    return estimate_effects("DID", data)["ATT"]


def estimate_ipwdid(data, ps_fit):
    """Propensity-weighted difference-in-differences for ATE and ATT.

    The ATE subtracts the pre-period Horvitz-Thompson contrast from the
    post-period one; the four weighted means are recorded as components and
    the value is assembled from them, so the decomposition identity is
    exact.  The ATT applies the treated-normalized weights to the response
    change ``y1 - y0``.  Scores near 0 or 1 raise an
    :class:`ExtremeWeightsWarning`.
    """
    return estimate_effects("IPWDID", data, ps_fit=ps_fit)


def estimate_drglmm(data, spec, ps_fit, k_bins=5):
    """Doubly robust estimates: GLMM augmented with propensity bin dummies.

    The fitted propensity scores are cut into ``k_bins`` equal-frequency
    bins; the bin dummies enter both period designs (constant within unit)
    and both counterfactual designs, so with the identity link their
    coefficients cancel from every contrast and act purely as a bias
    correction on the refitted treatment terms.  The fit takes the bins as
    labels of the occupied bins, the lowest staying the reference.  A
    constant propensity collapses all bins and reproduces
    :func:`estimate_glmm` exactly.
    """
    return estimate_effects("DRGLMM", data, spec, ps_fit, k_bins=k_bins)
