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

One route, :meth:`_Batch.run`, leads from a suite of ``(method, spec)``
entries and a ``(k, n)`` count matrix C to values: fit r counts unit i
``C[r, i]`` times.  The cluster bootstrap (:mod:`inference`) passes its
resamples' count vectors, a simulation study (:mod:`simlab`) a chunk of
draws stacked with all-ones counts, and a point estimate is the batch of
one draw (:func:`_point_estimates`): :func:`estimate_effects`, whose front
door turns bare terms into the ``ModelSpec`` of its models, runs a suite of
one, and the DR test (:func:`~panel_causal.inference.dr_specification_test`)
its suite of three, which share one treatment fit.  The run follows each
entry's :data:`METHOD_TABLE` row: the treatment model's scores, fitted once
per set of treatment terms, and DRGLMM's bins; each pair's warning; then
the kernels of :mod:`glm_fit` and :mod:`lmm_fit` and the estimand
arithmetic, where every mean is a sum over units with unit i counted
``C[r, i]`` times, over the counted units or treated units, which are
summed once per run.  DRGLMM's bins are numbered once, by
``glm_fit._quantile_bins_batch``, whose ``labels`` and ``n_bins`` each entry
reads.  The entries with one outcome model (kind, outcome terms and random
effect) fit together, one kernel call per bin count, so the DRGLMM entries
of a suite that share an outcome design and a bin count make one
mixed-model call.  A fit on a design of its own does not depend on its
batch, to the last bit, so each entry's values are those it gets alone.
The run has two readers: :meth:`_Batch.values`, where a failed fit is NaN
in a replicate, and :func:`_point_estimates`, where it raises its status's
error (``lmm_fit._FAILURES``).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBinsWarning, ExtremeWeightsWarning, InvalidArgumentError, _warn
from .glm_fit import (_check_k_bins, _collapsed_message, _fit_logistic_batch,
                      _quantile_bins_batch)
from .lmm_fit import (_NO_OVERLAP, _OK, _PS_UNUSABLE, _fit_lmm_batch, _fit_or_batch,
                      _raise_failure, _rotate, _Rows)
from .panel_data import ModelSpec, _coerce_terms, _contrast, _matrix, _term_column, ps_design

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
            f"ps_fit has fitted scores of shape {ps.shape}; the {data.n} units "
            f"need shape ({data.n},)"
        )
    # Written so that a NaN score fails it too.
    if not np.all((ps > 0.0) & (ps < 1.0)):
        _raise_failure(_PS_UNUSABLE, "ps", ps.size)
    return ps


def _ps_warnings(info, ps, binned, k_bins):
    """The warning that each fit of the method ``info`` raises for its
    treatment model, as ``(message, category)`` or None: DRGLMM's when its
    bins ``binned`` (of :func:`_quantile_bins_batch`) fill only ``n_bins``
    of ``k_bins``, IPW's and IPWDID's when a score of the fit (a row of
    ``ps``) gives an extreme inverse weight.  The one rule of the point
    estimates and of the replicate engine."""
    if info.bins_ps:
        return [(_collapsed_message(m - 1, k_bins), DegenerateBinsWarning) if m < k_bins
                else None for m in binned.n_bins]
    message = (f"propensity scores outside [{_EXTREME_EPS:g}, {1 - _EXTREME_EPS:g}]; "
               "inverse weights may be unstable")
    extreme = np.any((ps < _EXTREME_EPS) | (ps > 1.0 - _EXTREME_EPS), axis=1)
    return [(message, ExtremeWeightsWarning) if e else None for e in extreme]


# The estimand arithmetic (see the module docstring): sums over the last axis
# of unit terms times the counts C and their _counted sums.  Each returns
# {estimand: (value, components)}.

def _counted(d1, C):
    """The 0/1 treatment ``d1`` as floats, and the counted units and treated units."""
    d = d1.astype(float)
    return d, C.sum(axis=-1), np.sum(C * d, axis=-1)


def _ht_terms(y, ps, C, counted):
    """Horvitz-Thompson means of treated and control responses, and the
    ATT contrast: weight 1 for treated units, the odds ``ps / (1 - ps)`` for controls."""
    d, units, treated = counted
    ht_treated = np.sum(C * d * y / ps, axis=-1) / units
    ht_control = np.sum(C * (1.0 - d) * y / (1.0 - ps), axis=-1) / units
    w = C * (d - (1.0 - d) * ps / (1.0 - ps))
    return ht_treated, ht_control, np.sum(w * y, axis=-1) / treated


def _ipw_values(y0, y1, ps, C, counted):
    ht_treated, ht_control, att = _ht_terms(y1, ps, C, counted)
    return {"ATE": (ht_treated - ht_control,
                    {"ht_treated": ht_treated, "ht_control": ht_control}),
            "ATT": (att, {})}


def _ipwdid_values(y0, y1, ps, C, counted):
    delta1_treated, delta1_control, post = _ht_terms(y1, ps, C, counted)
    delta0_treated, delta0_control, pre = _ht_terms(y0, ps, C, counted)
    return {"ATE": ((delta1_treated - delta1_control) - (delta0_treated - delta0_control),
                    {"delta1_treated": delta1_treated, "delta1_control": delta1_control,
                     "delta0_treated": delta0_treated, "delta0_control": delta0_control}),
            "ATT": (post - pre, {"post": post, "pre": pre})}


def _did_values(y0, y1, ps, C, counted):
    """The difference of group mean differences; ``ps`` is not used."""
    d, units, treated = counted
    post, pre = (np.sum(C * d * y, axis=-1) / treated
                 - np.sum(C * (1.0 - d) * y, axis=-1) / (units - treated)
                 for y in (y1, y0))
    return {"ATT": (post - pre, {"post_diff": post, "pre_diff": pre})}


_WEIGHTING_VALUES = {"IPW": _ipw_values, "IPWDID": _ipwdid_values, "DID": _did_values}


def _contrast_values(diff, beta, C, counted):
    """ATE and ATT averages of the unit contrasts of the counterfactual
    predictions, ``diff`` being the treated minus the control design: one
    ``(n, p)`` block, or ``(k, n, p)`` with a block per fit.  ``beta`` (a
    row per fit) may carry the coefficients of unit-constant columns after
    the p; they cancel.  ``counted`` is :func:`_counted` of the counts C."""
    p = diff.shape[-1]
    if diff.ndim == 2:
        contrasts = (diff @ beta[:, :p].T).T
    else:
        contrasts = (diff @ beta[:, :p, None])[..., 0]
    d, units, treated = counted
    return {"ATE": (np.sum(C * contrasts, axis=-1) / units, {}),
            "ATT": (np.sum(C * d * contrasts, axis=-1) / treated, {})}


def _of_fits(a, fits):
    """The rows ``fits`` (sorted indices) of a per-fit array, or the array
    itself when they are all of its rows."""
    return a if len(fits) == len(a) else a[fits]


def _stack(arrays):
    """The arrays concatenated, or the one array itself."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class _Entry:
    """One ``(method, spec)`` entry of :meth:`_Batch.run` on a batch of k
    fits: the method ``info`` with the models of ``spec``, each fit's
    ``status``, the labels and ``n_bins`` of its bins (DRGLMM's; no bins
    count 0), and its ``estimates``, ``{estimand: (values, components)}``
    with ``(k,)`` values and the :class:`EffectEstimate` components as
    ``(k,)`` arrays.  An outcome-model entry also holds, once fitted, the
    coefficients and variance components of each fit.

    Values mean nothing where the status is not ``_OK``: ``_NO_OVERLAP``,
    ``_PS_UNUSABLE`` (a treatment model the estimator cannot use), or the
    outcome kernel's status, which includes its rank verdict."""

    def __init__(self, info, spec, status, binned):
        k = len(status)
        self.info, self.spec, self.status = info, spec, status
        self.labels, self.n_bins = ((binned.labels, binned.n_bins) if info.bins_ps
                                    else (None, np.zeros(k, dtype=int)))
        self.coef, self.lam, self.sigma_e2 = None, np.zeros(k), np.zeros(k)
        self.estimates = None

    def contrast(self, diff, C, counted, k_bins):
        """The estimates of the fitted outcome entry, ``diff`` being its
        model's counterfactual design difference."""
        comps = {}
        if self.info.outcome == "mixed":
            comps = {"sigma_u2": self.lam * self.sigma_e2, "sigma_e2": self.sigma_e2}
        if self.info.bins_ps:
            comps.update(n_dummy_columns=self.n_bins - 1, bins_collapsed=self.n_bins < k_bins)
        values = _contrast_values(diff, self.coef, C, counted)
        self.estimates = {e: (v, comps) for e, (v, _) in values.items()}


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
    point estimate is ``reps`` 1.  The treatment and the responses are
    split onto the batch once.

    The designs of a :class:`ModelSpec` are built on use, and kept only
    for a batch of resamples, whose later chunks of counts reuse them.
    :meth:`run` takes every step of a suite of ``(method, spec)`` entries:
    the treatment models' :meth:`propensity` scores, DRGLMM's bins and each
    pair's warning, then OLS on the post period or the two-period mixed
    model for each outcome kind.  Its two readers are :meth:`values`, the
    replicates, and :func:`_point_estimates`.
    """

    def __init__(self, data, k_bins, reps=None):
        self.data = data
        self.k_bins = k_bins
        self.reps = reps
        self.d1, self.y0, self.y1 = (self._split(a) for a in (data.d1, data.y0, data.y1))
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
        block, or the sum and difference rows of the t=0 and t=1 blocks.

        Each block is written from the term columns (``panel_data``'s one
        builder) and nothing else is held: the t=1 block at the observed
        treatment, which raises for a term the data cannot give; the
        contrast term by term (``panel_data._contrast``); and for the mixed
        model the t=0 columns one at a time, each rotated with its t=1
        column into the sum block and, in place, the difference block.  So
        the counterfactual blocks and the two period blocks are never held
        together, and the rows carry the bits of :func:`build_design`'s.

        A shared design is kept for the batch's later chunks of counts.  A
        batch of draws is fitted once and asks for each model's design once
        (:meth:`run`), so it keeps none: each is freed after its use."""
        key = (kind, spec.ps_terms if kind == "ps" else spec.outcome_terms)
        if key in self._designs:
            return self._designs[key]
        if kind == "ps":
            X, _ = ps_design(self.data, spec)
            made = _Rows(self._split(X), self.d1.astype(float))
        else:
            terms, data = spec.outcome_terms, self.data
            X1 = _matrix(terms, data, 1, data.d1)
            diff = self._split(_contrast(terms, data))
            if kind == "post":
                rows = _Rows(self._split(X1), self.y1)
            else:
                Xs, zeros = np.empty_like(X1), np.zeros(data.n)
                for j, term in enumerate(terms):
                    # Column j of X1 becomes the difference rows' in place.
                    _rotate(_term_column(term, data, 0, zeros), X1[:, j], Xs[:, j], X1[:, j])
                ys, yd = _rotate(self.y0, self.y1)
                rows = _Rows(self._split(Xs), ys), _Rows(self._split(X1), yd)
            made = diff, rows
        if self.reps is None:
            self._designs[key] = made
        return made

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

    def run(self, suite, C, given=None):
        """Every step of each ``(method, spec)`` entry of ``suite`` on each
        fit of ``C``, as a list of :class:`_Entry`: the one route of the
        replicates (:meth:`values`) and of the point estimates
        (:func:`_point_estimates`).

        The steps follow each entry's :data:`METHOD_TABLE` row.  An entry
        that uses the propensity score takes its treatment model's scores,
        fitted by :meth:`propensity` once per set of treatment terms, or
        ``given`` as ``(ps, status)``, which is how a ``ps_fit`` enters; a
        DRGLMM entry takes their bins, cut once per set of treatment terms.
        Each pair then warns as its point estimate would
        (:func:`_ps_warnings`), unless its treatment model failed: in
        fit-then-entry order, before any outcome design is built.  The
        counted units and treated units are summed once, for the overlap
        check and every estimand.

        Last come the outcome fits, grouped by outcome model (kind, outcome
        terms and random effect) and, within one, by their ``n_bins``: one
        kernel call a group, over the usable fits of every entry of the
        model with that bin count, each taking the labels of its own entry's
        occupied bins.  So the DRGLMM entries of a suite that share an
        outcome design fit together, while a GLMM (no bins) or an entry of
        another design fits alone.  Every fit is batch-independent on a
        design per draw, so an entry's values are its own as a suite of
        one, to the last bit; on a shared design they agree to rounding.  A
        group that is one entry's whole batch (every fit usable, with the
        same count) takes ``C`` and the labels as they are.  A failed fit
        computes meaningless floats silently; its status speaks for it.
        """
        counted = _, units, treated = _counted(self.d1, C)
        overlap = np.where((treated > 0.0) & (treated < units), _OK, _NO_OVERLAP)
        entries, fitted, bins, notes, models = [], {}, {}, {}, {}
        # A with block, not a decorator: a decorator's numpy frame would stop
        # _warn short of the caller's line.
        with np.errstate(all="ignore"):
            for i, (method, spec) in enumerate(suite):
                info, status = METHOD_TABLE[method], overlap.copy()
                ps = binned = None
                if info.uses_ps:
                    key = None if spec is None else spec.ps_terms
                    if key not in fitted:
                        fitted[key] = self.propensity(spec, C) if given is None else given
                    ps, ps_status = fitted[key]
                    if info.bins_ps and key not in bins:
                        bins[key] = _quantile_bins_batch(ps, C, self.k_bins)
                    binned = bins.get(key)
                    status[(status == _OK) & (ps_status != _OK)] = _PS_UNUSABLE
                    notes.update(((r, i), note) for r, note
                                 in enumerate(_ps_warnings(info, ps, binned, self.k_bins))
                                 if note and ps_status[r] == _OK)
                entry = _Entry(info, spec, status, binned)
                entries.append(entry)
                if info.outcome is None:
                    entry.estimates = _WEIGHTING_VALUES[info.name](self.y0, self.y1, ps, C,
                                                                   counted)
                else:
                    key = info.outcome, spec.outcome_terms, spec.random_effect
                    models.setdefault(key, []).append(entry)
            for pair in sorted(notes):
                _warn(*notes[pair])
            for model in models.values():
                self._fit_outcomes(model, C, counted)
        return entries

    def _fit_outcomes(self, entries, C, counted):
        """Fit the :class:`_Entry` entries of one outcome model, one kernel
        call per bin count (:meth:`run`), and contrast their predictions."""
        kind, spec, units = entries[0].info.outcome, entries[0].spec, counted[1]
        diff, rows = self._design(kind, spec)
        p = diff.shape[-1]
        usable = [np.flatnonzero(entry.status == _OK) for entry in entries]
        for entry in entries:
            entry.coef = np.zeros((C.shape[0], p))
        for m in np.unique(_stack([e.n_bins[sel] for e, sel in zip(entries, usable)])):
            # Each entry's usable fits with m bins, in entry order.
            groups = [(e, sel[e.n_bins[sel] == m]) for e, sel in zip(entries, usable)]
            groups = [(e, g) for e, g in groups if g.size]
            draws = _stack([g for _, g in groups])
            Cg = _stack([_of_fits(C, g) for _, g in groups])
            if kind == "post":
                result = _fit_or_batch(rows.take(draws), Cg)
            else:
                labels = (None if groups[0][0].labels is None
                          else _stack([_of_fits(e.labels, g) for e, g in groups]))
                result = _fit_lmm_batch(
                    tuple(r.take(draws) for r in rows), Cg, labels, m,
                    random_intercept=spec.random_effect == "unit_intercept",
                )
            at = 0
            for entry, g in groups:
                mine = slice(at, at + g.size)
                at += g.size
                entry.status[g] = result.status[mine]
                entry.coef[g] = result.beta[mine, :p]
                if kind == "mixed":
                    entry.lam[g] = result.lam[mine]
                    entry.sigma_e2[g] = result.rss[mine] / (2 * units[g])
        for entry in entries:
            entry.contrast(diff, C, counted, self.k_bins)

    def values(self, suite, C):
        """The replicates of :meth:`run`: each entry's values on each fit of
        ``C``, ``(k, entries, len(ESTIMANDS))``, NaN where the method lacks
        the estimand or the pair is not ok, and the ``(k, entries)`` ok
        flags.  On a chunk of draws each entry's values, ok flags and
        warnings are bit for bit those of the entry as a suite of one.  The
        bootstrap's and the DR test's suites hold one DRGLMM entry, so on a
        batch of resamples nothing fuses."""
        vals = np.full((C.shape[0], len(suite), len(ESTIMANDS)), np.nan)
        entries = self.run(suite, C)
        for i, entry in enumerate(entries):
            for estimand, (v, _) in entry.estimates.items():
                vals[:, i, ESTIMANDS.index(estimand)] = v
        ok = np.stack([entry.status == _OK for entry in entries], axis=1)
        vals[~ok] = np.nan
        return vals, ok


def _point_estimates(data, suite, k_bins, given=None):
    """The estimates of each ``(method, spec)`` entry of ``suite`` on
    ``data``, as ``{estimand: EffectEstimate}`` in entry order: the
    :meth:`_Batch.run` of one draw, every unit counted once.

    The entries that use the propensity score share one treatment model:
    ``given`` as ``(ps, status)``, else the treatment terms of the first
    such entry, fitted here by :meth:`_Batch.propensity` as every replicate
    fits them.  A failed treatment model raises the error of its status
    first, as :func:`~panel_causal.glm_fit.fit_propensity` would, before
    ``k_bins`` is checked for DRGLMM and before any outcome design is
    built.  Then the run warns, and a failed fit raises the error of its
    status, entry by entry.
    """
    batch, C = _Batch(data, k_bins, reps=1), np.ones((1, data.n))
    ps_spec = next((spec for method, spec in suite if METHOD_TABLE[method].uses_ps), None)
    if given is None and ps_spec is not None:
        given = batch.propensity(ps_spec, C)
        _raise_failure(given[1][0], "ps", len(ps_spec.ps_terms))
    if any(METHOD_TABLE[method].bins_ps for method, _ in suite):
        batch.k_bins = _check_k_bins(k_bins, data.n)
    out = []
    for entry in batch.run(suite, C, given):
        if entry.info.outcome:
            # The mixed kernel judges the rank of the terms and of DRGLMM's
            # dummies, one for each occupied bin but the reference.
            dummies = entry.n_bins[0] - 1 if entry.info.bins_ps else 0
            _raise_failure(entry.status[0], entry.info.outcome,
                           len(entry.spec.outcome_terms) + dummies)
        out.append({e: EffectEstimate(entry.info.name, e, float(v[0]),
                                      {c: x[0].item() for c, x in comps.items()})
                    for e, (v, comps) in entry.estimates.items()})
    return out


def estimate_effects(method, data, spec=None, ps_fit=None, *, k_bins=5):
    """Run any method of :data:`METHOD_TABLE` on ``data``.

    ``spec`` is a :class:`ModelSpec`, or terms alone that stand for every
    model fitted here (the treatment model only if no ``ps_fit`` is given).
    A method without the terms of a model it fits (by
    :meth:`MethodInfo.missing_model`, ``ps_fit`` counting as the treatment
    model) raises :class:`InvalidArgumentError`.  ``k_bins`` goes to
    DRGLMM.

    The estimate is :func:`_point_estimates` of a suite of one, the batch
    of one draw (module docstring).  A method that uses the propensity
    score takes ``ps_fit`` if given, else fits ``spec.ps_terms`` as every
    replicate does; a failed fit raises the error of its status, as
    :func:`~panel_causal.glm_fit.fit_propensity` would.  The treatment step
    then warns, before the outcome design is built: scores near 0 or 1 with
    an :class:`ExtremeWeightsWarning` where the method inverts them,
    collapsed bins a :class:`DegenerateBinsWarning` where it bins them.

    Returns
    -------
    dict
        ``{estimand: EffectEstimate}`` for each estimand of the method.
    """
    info = method_info(method)
    if spec is not None and not isinstance(spec, ModelSpec):
        # The terms alone are the terms of every model fitted here; a given
        # ps_fit is the treatment model.
        terms = _coerce_terms(spec)
        spec = ModelSpec(outcome_terms=terms if info.outcome else (),
                         ps_terms=terms if info.uses_ps and ps_fit is None else ())
    missing = info.missing_model(spec)
    if missing == "treatment model" and ps_fit is not None:
        missing = None
    if missing:
        ps_note = " and no ps_fit gives" if missing == "treatment model" else ""
        raise InvalidArgumentError(f"{info.name} needs its {missing}, which spec lacks{ps_note}")
    given = None
    if info.uses_ps and ps_fit is not None:
        given = _fitted_scores(data, ps_fit)[None], np.full(1, _OK)
    return _point_estimates(data, [(info.name, spec)], k_bins, given)[0]


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
