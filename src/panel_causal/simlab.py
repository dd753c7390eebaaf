"""Synthetic two-period scenarios and the bias/variance study harness.

Six named scenarios share one covariate-and-assignment design and differ in
the response surface.  Per unit, ``(x1 at t=0, x1 at t=1)`` is bivariate
normal, ``x2`` is exponential and time-invariant, ``v`` is normal and
time-invariant, and treatment turns on at t=1 with probability
``expit(-3 + 0.2 x1 + 0.1 x2 + 0.3 v)`` evaluated at t=0.  Responses add a
unit random intercept (variance 30) and period noise (variance 20) to a
linear surface:

========================  ====================================================
id                        response surface
========================  ====================================================
HOM          homogeneous effect 15; x2 enters both periods (2 x2 + log x2)
HOM_TI       like HOM but the linear x2 term enters the post period only
HET          effect 15 + x1 at t=1 (treatment interacts with x1); 3 x2
HET_TI       like HET with the x2 term in the post period only
RANDCOEF     HET surface with unit-level Gaussian coefficients (sd = 10% of
             the mean) on every surface term
RANDCOEF_TI  the same, with the x2 term post-period only
========================  ====================================================

A study draws R independent datasets, runs a suite of estimator and model
combinations on each, and reports bias (x100), variance and MSE per cell
against the scenario's true effects.  Replicate r draws from the stream
keyed by (seed, r), so studies reproduce bit for bit.  The suite runs on
the replicate engine of the cluster bootstrap
(:func:`~panel_causal.inference._replicate_values`), a chunk of draws at a
time: a chunk is drawn in one pass into one stacked dataset, and every
entry is fitted on all of its draws at once, with the values (bit for
bit), failures and warnings of replicates evaluated one at a time.  A
study silences extreme-weight warnings and reports failures per cell
instead.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ExtremeWeightsWarning,
    InvalidArgumentError,
    ReplicateFailureWarning,
    _as_int,
    _warn,
)
from .estimators import ESTIMANDS, _Batch, _check_estimand, method_info
from .glm_fit import _check_k_bins, expit
from .inference import _check_B, _chunk_size, _replicate_values
from .panel_data import ModelSpec, PanelDataset
from .rng import substream

__all__ = [
    "SCENARIO_IDS",
    "Scenario",
    "TrueEffects",
    "SuiteEntry",
    "DEFAULT_SUITE",
    "StudyCell",
    "StudyResult",
    "generate_scenario",
    "true_effects",
    "scenario_specs",
    "run_study",
    "render_table",
    "parse_table",
]

SCENARIO_IDS = ("HOM", "HOM_TI", "HET", "HET_TI", "RANDCOEF", "RANDCOEF_TI")

_COMMON_PARAMS = dict(
    x1_mean=(15.0, 20.0),
    x1_cov=((6.0, 5.5), (5.5, 6.0)),
    x2_mean=2.0,
    v_mean=1.0,
    v_sd=1.0,
    u_var=30.0,
    eps_var=20.0,
    ps_coef=(-3.0, 0.2, 0.1, 0.3),
)

# Response-surface coefficients.  x2_post_only moves the linear x2 term out
# of the pre period (a confounder acting through the time trend): each _TI
# scenario is its base with it set.  coef_cv>0 replaces every surface
# coefficient with a unit-level Gaussian draw whose sd is coef_cv times the
# mean: RANDCOEF is HET with it set.
_RESPONSE_PARAMS = {
    "HOM": dict(intercept=10.0, trend=3.0, treat=15.0, x1=1.0, x2=2.0,
                log_x2=1.0, x1_treat=0.0, x2_post_only=False, coef_cv=0.0),
    "HET": dict(intercept=10.0, trend=2.0, treat=15.0, x1=1.0, x2=3.0,
                log_x2=0.0, x1_treat=1.0, x2_post_only=False, coef_cv=0.0),
}
_RESPONSE_PARAMS["RANDCOEF"] = {**_RESPONSE_PARAMS["HET"], "coef_cv": 0.1}
_RESPONSE_PARAMS.update({f"{sid}_TI": {**params, "x2_post_only": True}
                         for sid, params in _RESPONSE_PARAMS.items()})


def default_params(scenario_id):
    """The full constant set of a named scenario, as a fresh dict."""
    if scenario_id not in SCENARIO_IDS:
        raise InvalidArgumentError(
            f"unknown scenario {scenario_id!r}; choose from {SCENARIO_IDS}"
        )
    return {**_COMMON_PARAMS, **_RESPONSE_PARAMS[scenario_id]}


@dataclass(frozen=True)
class Scenario:
    """A named data-generating process at a given sample size.

    ``dgp_params`` defaults to the named scenario's constants; overriding
    entries is allowed (the generator honors them) but
    :func:`true_effects` only answers for the unmodified named sets.
    """

    id: str
    n: int
    dgp_params: dict = None

    def __post_init__(self):
        sid = str(self.id).upper()
        object.__setattr__(self, "id", sid)
        object.__setattr__(self, "n", _as_int(self.n, "scenario n"))
        if self.n < 2:
            raise InvalidArgumentError(f"scenario needs n >= 2, got {self.n}")
        params = default_params(sid)
        if self.dgp_params is not None:
            extra = set(self.dgp_params) - set(params)
            if extra:
                raise InvalidArgumentError(f"unknown dgp_params: {sorted(extra)}")
            params.update(self.dgp_params)
        object.__setattr__(self, "dgp_params", params)


_COVARIATES = ("x1", "x2", "v")
_TIME_INVARIANT = ("x2", "v")


# The unit-level surface coefficients of a scenario with coef_cv > 0, in the
# order their draws follow assignment in each replicate's stream.
_UNIT_COEFS = ("intercept", "x1", "x2", "x1_treat", "trend", "treat")


def _draw(scenario, seed, replicates):
    """The random draws of the datasets ``replicates`` as arrays ``(x1, x2,
    v, d, y0, y1)`` with a leading replicate axis; x1 is ``(k, n, 2)``, with
    a column per period.

    Each replicate's stream is pulled, in one fixed order, into the stacked
    arrays; the arithmetic then runs once on the stack, elementwise (and
    the covariance factor's product design by design), so a replicate's
    arrays do not depend on the others drawn with it, to the last bit.
    """
    # The tests' HET truth oracle (tests/helpers.py: treated_x1_mean)
    # repeats this draw order up to the uniforms of assignment, a block of
    # units at a time; keep the two in step.
    p = scenario.dgp_params
    n, k = scenario.n, len(replicates)
    cv = p["coef_cv"]
    z, eps = np.empty((k, n, 2)), np.empty((k, n, 2))
    x2, v, u, uniform = (np.empty((k, n)) for _ in range(4))
    coefs = np.empty((len(_UNIT_COEFS), k, n)) if cv > 0.0 else None
    for i, r in enumerate(replicates):
        rng = substream(seed, r)
        z[i] = rng.standard_normal((n, 2))
        x2[i] = rng.exponential(p["x2_mean"], n)
        v[i] = rng.normal(p["v_mean"], p["v_sd"], n)
        u[i] = rng.normal(0.0, np.sqrt(p["u_var"]), n)
        eps[i] = rng.normal(0.0, np.sqrt(p["eps_var"]), (n, 2))
        uniform[i] = rng.random(n)
        if cv > 0.0:
            for j, name in enumerate(_UNIT_COEFS):
                coefs[j, i] = rng.normal(p[name], cv * abs(p[name]), n)
    chol = np.linalg.cholesky(np.asarray(p["x1_cov"], dtype=float))
    x1 = np.asarray(p["x1_mean"], dtype=float) + z @ chol.T
    x10, x11 = x1[..., 0], x1[..., 1]
    a0, a1, a2, a3 = p["ps_coef"]
    lin = a0 + a1 * x10 + a2 * x2 + a3 * v
    d = (uniform < expit(lin)).astype(np.int64)
    if cv > 0.0:
        th0, th1, th2, th3, gam, bet = coefs
    else:
        th0, th1, th2, th3, gam, bet = (p[name] for name in _UNIT_COEFS)
    df = d.astype(float)
    y0 = th0 + th1 * x10 + u + eps[..., 0]
    y1 = th0 + gam + bet * df + th1 * x11 + th2 * x2 + th3 * df * x11 + u + eps[..., 1]
    if not p["x2_post_only"]:
        y0 = y0 + th2 * x2
    if p["log_x2"]:
        lx2 = p["log_x2"] * np.log(x2)
        y0 = y0 + lx2
        y1 = y1 + lx2
    return x1, x2, v, d, y0, y1


def _unit_ids(n):
    return np.array([f"u{i:07d}" for i in range(n)], dtype=object)


def _dataset(draw, unit_ids):
    """The PanelDataset of :func:`_draw` arrays, their replicates stacked:
    replicate r in rows ``r n`` to ``r n + n - 1``."""
    x1, x2, v, d, y0, y1 = (a.reshape(-1, *a.shape[2:]) for a in draw)
    return PanelDataset(
        covariate_names=_COVARIATES,
        unit_ids=unit_ids,
        y0=y0,
        y1=y1,
        d1=d,
        x0=np.column_stack([x1[:, 0], x2, v]),
        x1=np.column_stack([x1[:, 1], x2, v]),
    )


def generate_scenario(scenario, seed, replicate=0):
    """Draw one deterministic dataset for ``(scenario, seed, replicate)``.

    Parameters
    ----------
    scenario : Scenario
    seed : int
        Stream family.
    replicate : int
        Index within the family; replicate r of a study uses ``(seed, r)``.

    Returns
    -------
    PanelDataset
        Covariates ``("x1", "x2", "v")``; x1 is time-varying.
    """
    if not isinstance(scenario, Scenario):
        raise InvalidArgumentError("scenario must be a Scenario instance")
    return _dataset(_draw(scenario, seed, [replicate]), _unit_ids(scenario.n))


# ---------------------------------------------------------------------------
# true effects
# ---------------------------------------------------------------------------

ORACLE_SEED = 987654321
ORACLE_UNITS = 1_000_000

# The mean of x1 at t=1 over the treated units of
# _draw(Scenario("HET", ORACLE_UNITS), ORACLE_SEED, [0]), and its Monte Carlo
# standard error.  The named scenarios share their covariate and treatment
# models, so these serve every heterogeneous-effect scenario.  The tests
# re-draw the units and check both floats bit for bit
# (tests/helpers.py: treated_x1_mean).
_TREATED_X1_MEAN = 20.390535850335294
_TREATED_X1_MEAN_SE = 0.003073705617306642


@dataclass(frozen=True)
class TrueEffects:
    """Scenario ground truth.  ``att_mc_se`` is the Monte Carlo standard
    error of a simulated ATT, and 0 for analytic values."""

    ate: float
    att: float
    att_mc_se: float = 0.0


def true_effects(scenario):
    """True ATE and ATT of a named scenario.

    The ATE is analytic: the treatment coefficient, plus any treatment
    interaction coefficient times the population mean of its covariate.
    With an x1 interaction the ATT also involves the covariate distribution
    among the treated, which has no closed form here.  Its value is the
    stored mean over the treated of 1 000 000 units drawn once from a fixed
    stream, reported with its Monte Carlo standard error; scoring a study
    draws nothing.
    Unit-level coefficient draws are independent of assignment and of the
    covariates, so only their means enter either effect.

    Parameters
    ----------
    scenario : Scenario or str
        A Scenario with unmodified named parameters, or a scenario id.
    """
    if isinstance(scenario, Scenario):
        sid = scenario.id
        if scenario.dgp_params != default_params(sid):
            raise InvalidArgumentError(
                "true effects are known for the named parameter sets only"
            )
    else:
        sid = str(scenario).upper()
    p = default_params(sid)
    if p["x1_treat"] == 0.0:
        return TrueEffects(ate=p["treat"], att=p["treat"])
    ate = p["treat"] + p["x1_treat"] * p["x1_mean"][1]
    return TrueEffects(
        ate=float(ate),
        att=float(p["treat"] + p["x1_treat"] * _TREATED_X1_MEAN),
        att_mc_se=float(abs(p["x1_treat"]) * _TREATED_X1_MEAN_SE),
    )


# ---------------------------------------------------------------------------
# model specs per scenario
# ---------------------------------------------------------------------------

# Two-period ("mixed") term sets, full and reduced.  The reduced sets drop
# every term derived from x2, the time-invariant confounder; that is the
# canonical misspecification the studies probe.
_MIXED_TERMS = {
    "HOM": (("1", "time", "treat", "x1", "x2", "log(x2)"),
            ("1", "time", "treat", "x1")),
    "HOM_TI": (("1", "time", "treat", "x1", "x2:time", "log(x2)"),
               ("1", "time", "treat", "x1")),
    "HET": (("1", "time", "treat", "x1", "x2", "x1:treat"),
            ("1", "time", "treat", "x1", "x1:treat")),
    "HET_TI": (("1", "time", "treat", "x1", "x2:time", "x1:treat"),
               ("1", "time", "treat", "x1", "x1:treat")),
}
_MIXED_TERMS["RANDCOEF"] = _MIXED_TERMS["HET"]
_MIXED_TERMS["RANDCOEF_TI"] = _MIXED_TERMS["HET_TI"]


def _post_terms(terms):
    """A two-period term set at t = 1, the post-period outcome model's:
    ``time`` is constant there and goes, and ``x:time`` is ``x``."""
    return tuple(t.removesuffix(":time") for t in terms if t != "time")


_PS_TERMS = {
    "full": ("1", "x1", "x2", "v"),
    "reduced": ("1", "x1", "v"),
}


def scenario_specs(scenario_id):
    """Model specs the default suite uses on a scenario.

    Returns a dict of :class:`ModelSpec` under the keys ``mixed_full``,
    ``mixed_reduced`` (two-period outcome models), ``post_full``,
    ``post_reduced`` (post-period outcome models, no time terms), and
    ``ps_full``, ``ps_reduced`` (treatment models).  Reduced means every
    x2-derived term is dropped.
    """
    sid = str(scenario_id).upper()
    if sid not in SCENARIO_IDS:
        raise InvalidArgumentError(
            f"unknown scenario {scenario_id!r}; choose from {SCENARIO_IDS}"
        )
    mixed_full, mixed_red = _MIXED_TERMS[sid]
    post_full, post_red = map(_post_terms, _MIXED_TERMS[sid])
    return {
        "mixed_full": ModelSpec(outcome_terms=mixed_full, ps_terms=_PS_TERMS["full"]),
        "mixed_reduced": ModelSpec(outcome_terms=mixed_red, ps_terms=_PS_TERMS["reduced"]),
        "post_full": ModelSpec(outcome_terms=post_full, ps_terms=_PS_TERMS["full"]),
        "post_reduced": ModelSpec(outcome_terms=post_red, ps_terms=_PS_TERMS["reduced"]),
        "ps_full": ModelSpec(ps_terms=_PS_TERMS["full"]),
        "ps_reduced": ModelSpec(ps_terms=_PS_TERMS["reduced"]),
    }


# ---------------------------------------------------------------------------
# study harness
# ---------------------------------------------------------------------------

_MODEL_CHOICES = (None, "full", "reduced")


@dataclass(frozen=True)
class SuiteEntry:
    """One estimator row of a study: a method plus model choices.

    ``outcome_model`` and ``ps_model`` select the full or reduced term sets
    of :func:`scenario_specs`; whichever of the two the method does not use
    stays None.
    """

    method: str
    outcome_model: str = None
    ps_model: str = None
    label: str = field(default=None)

    def __post_init__(self):
        info = method_info(self.method)
        object.__setattr__(self, "method", info.name)
        if self.outcome_model not in _MODEL_CHOICES or self.ps_model not in _MODEL_CHOICES:
            raise InvalidArgumentError("model choices are None, 'full' or 'reduced'")
        if (info.outcome is not None) != (self.outcome_model is not None):
            raise InvalidArgumentError(
                f"{info.name}: outcome_model must be set iff the method has an outcome model"
            )
        if info.uses_ps != (self.ps_model is not None):
            raise InvalidArgumentError(
                f"{info.name}: ps_model must be set iff the method has a treatment model"
            )
        if self.label is None:
            parts = (info.label, self.outcome_model, self.ps_model)
            object.__setattr__(self, "label", "-".join(p for p in parts if p))


DEFAULT_SUITE = (
    SuiteEntry("OR", outcome_model="full"),
    SuiteEntry("OR", outcome_model="reduced"),
    SuiteEntry("GLMM", outcome_model="full"),
    SuiteEntry("GLMM", outcome_model="reduced"),
    SuiteEntry("IPW", ps_model="full"),
    SuiteEntry("IPW", ps_model="reduced"),
    SuiteEntry("IPWDID", ps_model="full"),
    SuiteEntry("IPWDID", ps_model="reduced"),
    SuiteEntry("DRGLMM", outcome_model="full", ps_model="full"),
    SuiteEntry("DRGLMM", outcome_model="full", ps_model="reduced"),
    SuiteEntry("DRGLMM", outcome_model="reduced", ps_model="full"),
    SuiteEntry("DRGLMM", outcome_model="reduced", ps_model="reduced"),
)


@dataclass(frozen=True)
class StudyCell:
    """Aggregated performance of one suite entry for one estimand."""

    label: str
    method: str
    outcome_model: str
    ps_model: str
    estimand: str
    bias100: float
    var: float
    mse: float
    r_used: int
    mc_se_bias100: float


@dataclass(frozen=True)
class StudyResult:
    """All cells of one study run, plus the truths they were scored against."""

    scenario_id: str
    n: int
    R: int
    seed: int
    true_ate: float
    true_att: float
    cells: tuple

    def cell(self, label, estimand):
        estimand = str(estimand).upper()
        for c in self.cells:
            if c.label == label and c.estimand == estimand:
                return c
        raise KeyError(f"no cell ({label!r}, {estimand!r})")


def _entry_spec(entry, specs):
    """The one ModelSpec of a suite entry: the outcome terms of its outcome
    model plus the terms of its treatment model, from ``specs``
    (:func:`scenario_specs`)."""
    outcome = method_info(entry.method).outcome
    return ModelSpec(
        outcome_terms=specs[f"{outcome}_{entry.outcome_model}"].outcome_terms if outcome else (),
        ps_terms=specs[f"ps_{entry.ps_model}"].ps_terms if entry.ps_model else (),
    )


def _draw_chunks(scenario, seed, replicates, k_bins):
    """The draws ``replicates`` as chunks of the replicate engine: each
    chunk drawn in one pass of :func:`_draw` and built into one dataset of
    its stacked replicates, fitted with all-ones counts.  A draw gets a
    dataset of its own only when it has no overlap, to raise the error its
    own dataset raises."""
    n = scenario.n
    unit_ids = _unit_ids(n)
    size = _chunk_size(n)
    for start in range(0, len(replicates), size):
        draw = _draw(scenario, seed, replicates[start:start + size])
        treated = draw[3].sum(axis=1)
        for r in np.flatnonzero((treated == 0) | (treated == n)):
            _dataset([a[r:r + 1] for a in draw], unit_ids)
        k = len(treated)
        yield _Batch(_dataset(draw, np.tile(unit_ids, k)), k_bins, reps=k), np.ones((k, n))


def _unit_constant_columns(spec):
    """Columns of the two-period outcome design of ``spec`` that take the
    same value in both rows of a unit: the intercept, and the main effects
    and logs of the covariates that do not vary over time (x2 and v)."""
    return sum(t.kind == "intercept"
               or (t.kind in ("covariate", "log") and t.name in _TIME_INVARIANT)
               for t in spec.outcome_terms)


def run_study(scenario, suite=DEFAULT_SUITE, R=1000, seed=0, *,
              k_bins=5):
    """Monte Carlo performance study of an estimator suite on one scenario.

    Draws R datasets (replicate r from stream ``(seed, r)``), evaluates the
    suite on each, and aggregates bias x100, variance (population formula)
    and MSE per (entry, estimand) against :func:`true_effects`.  Each entry
    resolves to one model spec; the suite runs on the bootstrap's replicate
    engine over chunks of draws (module docstring), which gives the values
    of replicates evaluated one at a time.  A draw without overlap raises
    :class:`~panel_causal.errors.NoOverlapError`.

    Parameters
    ----------
    scenario : Scenario
    suite : sequence of SuiteEntry
    R : int
        Replicates, at least 2.
    seed : int
    k_bins : int
        Propensity bins of the doubly robust estimator, from 2 to the
        scenario's unit count.  The doubly robust outcome design takes
        ``k_bins - 1`` bin dummies on top of its unit-constant terms, and
        their total may not exceed the unit count either: past it, every
        fit would be rank deficient.

    Returns
    -------
    StudyResult

    Warns
    -----
    ReplicateFailureWarning
        Some entry failed on more than 1 percent of replicates.
    """
    if not isinstance(scenario, Scenario):
        raise InvalidArgumentError("scenario must be a Scenario instance")
    R = _check_B(R, name="R")
    seed = _as_int(seed, "seed")
    suite = tuple(suite)
    specs = scenario_specs(scenario.id)
    entries = [(e.method, _entry_spec(e, specs)) for e in suite]
    binned = [(e, spec) for e, (method, spec) in zip(suite, entries)
              if method_info(method).bins_ps]
    k_bins = _check_k_bins(k_bins, scenario.n if binned else None)
    labels = [e.label for e in suite]
    if len(set(labels)) != len(labels):
        raise InvalidArgumentError("suite labels must be unique")
    for e, spec in binned:
        width = _unit_constant_columns(spec) + k_bins - 1
        if width > scenario.n:
            raise InvalidArgumentError(
                f"k_bins = {k_bins} gives the {e.label} outcome model {width} "
                f"unit-constant columns, more than the {scenario.n} units"
            )
    truths = true_effects(scenario)

    # Extreme-weight warnings are silenced for the replicates: across
    # thousands of draws they would only drown the study-level failure
    # accounting below.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtremeWeightsWarning)
        stack = _replicate_values(entries, _draw_chunks(scenario, seed, range(R), k_bins))
    return _summarize(scenario, suite, seed, truths, stack)


def _summarize(scenario, suite, seed, truths, stack):
    """The StudyResult of the ``(R, entries, 2)`` replicate values."""
    R = stack.shape[0]
    truth_by_estimand = {"ATE": truths.ate, "ATT": truths.att}
    cells = []
    flaky = []
    for i, e in enumerate(suite):
        n_bad = int(np.sum(~np.isfinite(stack[:, i, 1])))
        if n_bad > 0.01 * R:
            flaky.append(f"{e.label} ({n_bad}/{R})")
        for j, estimand in enumerate(ESTIMANDS):
            if estimand not in method_info(e.method).estimands:
                continue
            v = stack[:, i, j]
            ok = v[np.isfinite(v)]
            truth = truth_by_estimand[estimand]
            bias100 = var = mse = mc_se = np.nan
            if ok.size:
                bias100 = 100.0 * float(ok.mean() - truth)
                var = float(ok.var())
                mse = float(np.mean((ok - truth) ** 2))
            if ok.size > 1:
                mc_se = float(100.0 * ok.std(ddof=1) / np.sqrt(ok.size))
            cells.append(StudyCell(e.label, e.method, e.outcome_model, e.ps_model,
                                   estimand, bias100, var, mse, int(ok.size), mc_se))
    if flaky:
        _warn("estimator failure rate above 1%: " + ", ".join(flaky),
              ReplicateFailureWarning)
    return StudyResult(
        scenario_id=scenario.id,
        n=scenario.n,
        R=R,
        seed=seed,
        true_ate=truths.ate,
        true_att=truths.att,
        cells=tuple(cells),
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_CSV_COLUMNS = (
    "scenario", "n", "R", "seed", "true_ate", "true_att", "label", "method",
    "outcome_model", "ps_model", "estimand", "bias100", "var", "mse",
    "r_used", "mc_se_bias100",
)


def render_table(results, estimand="ATE", fmt="text"):
    """Format study results as an aligned text table or CSV.

    Text shows one estimand of ``ESTIMANDS`` (any case) with the bias x100
    / Var / MSE triple of each result side by side (results must share a
    suite); CSV emits every cell of every result with full-precision floats, so
    ``parse_table(render_table(r, fmt="csv"))`` reproduces ``r`` exactly.
    """
    if isinstance(results, StudyResult):
        results = [results]
    results = list(results)
    if not results:
        raise InvalidArgumentError("no results to render")
    estimand = _check_estimand(estimand)
    if fmt == "csv":
        return _render_csv(results)
    if fmt != "text":
        raise InvalidArgumentError(f"fmt must be 'text' or 'csv', got {fmt!r}")
    return _render_text(results, estimand)


def _render_csv(results):
    import csv as _csv
    import io

    buf = io.StringIO()
    w = _csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_COLUMNS)
    for res in results:
        for c in res.cells:
            w.writerow([
                res.scenario_id, res.n, res.R, res.seed,
                repr(res.true_ate), repr(res.true_att),
                c.label, c.method,
                c.outcome_model or "", c.ps_model or "", c.estimand,
                repr(c.bias100), repr(c.var), repr(c.mse),
                c.r_used, repr(c.mc_se_bias100),
            ])
    return buf.getvalue()


def _render_text(results, estimand):
    rows_of = []
    for res in results:
        rows_of.append([c for c in res.cells if c.estimand == estimand])
    keys = [[(c.label) for c in rows] for rows in rows_of]
    if any(k != keys[0] for k in keys):
        raise InvalidArgumentError("results do not share a suite; render separately")
    head = results[0]
    truth = head.true_ate if estimand == "ATE" else head.true_att
    lines = [
        f"scenario {head.scenario_id}  estimand {estimand}  "
        f"truth {truth:.6f}  R={head.R}  seed={head.seed}"
    ]
    label_w = max([len("estimator")] + [len(c.label) for c in rows_of[0]])
    spec_w = max(7, label_w)
    header = f"{'estimator':<{spec_w}} {'outcome':<8} {'ps':<8}"
    for res in results:
        header += f" | {'n=' + str(res.n):>10} {'Var':>8} {'MSE':>8}"
    sub = f"{'':<{spec_w}} {'':<8} {'':<8}"
    for _ in results:
        sub += f" | {'bias x100':>10} {'':>8} {'':>8}"
    lines.append(header)
    lines.append(sub)
    for i in range(len(rows_of[0])):
        c0 = rows_of[0][i]
        line = (f"{c0.label:<{spec_w}} {c0.outcome_model or '-':<8} "
                f"{c0.ps_model or '-':<8}")
        for rows in rows_of:
            c = rows[i]
            line += f" | {c.bias100:>10.3f} {c.var:>8.3f} {c.mse:>8.3f}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_table(text):
    """Parse :func:`render_table` CSV output back into StudyResult objects.

    Cells are grouped by their (scenario, n, R, seed) header fields, in
    first-appearance order.
    """
    import csv as _csv
    import io

    reader = _csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidArgumentError("empty table") from None
    if tuple(header) != _CSV_COLUMNS:
        raise InvalidArgumentError("not a study CSV: unexpected header")
    groups = {}
    order = []
    for row in reader:
        if not row:
            continue
        rec = dict(zip(_CSV_COLUMNS, row))
        key = (rec["scenario"], int(rec["n"]), int(rec["R"]), int(rec["seed"]),
               float(rec["true_ate"]), float(rec["true_att"]))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(StudyCell(
            label=rec["label"],
            method=rec["method"],
            outcome_model=rec["outcome_model"] or None,
            ps_model=rec["ps_model"] or None,
            estimand=rec["estimand"],
            bias100=float(rec["bias100"]),
            var=float(rec["var"]),
            mse=float(rec["mse"]),
            r_used=int(rec["r_used"]),
            mc_se_bias100=float(rec["mc_se_bias100"]),
        ))
    return [
        StudyResult(
            scenario_id=key[0], n=key[1], R=key[2], seed=key[3],
            true_ate=key[4], true_att=key[5], cells=tuple(groups[key]),
        )
        for key in order
    ]
