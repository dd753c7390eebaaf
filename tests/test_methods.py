"""The method table: every consumer agrees with it, and every method obeys
the properties the table's facts imply."""

import argparse
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from panel_causal import (
    ESTIMANDS,
    METHOD_TABLE,
    METHODS,
    EstimatorConfig,
    InvalidArgumentError,
    InvalidTermError,
    ModelSpec,
    NonFiniteLikelihoodError,
    PanelCausalError,
    PanelCausalWarning,
    RankDeficientDesignError,
    Scenario,
    SeparationError,
    SuiteEntry,
    build_design,
    estimate_did,
    estimate_drglmm,
    estimate_effects,
    estimate_glmm,
    estimate_ipw,
    estimate_ipwdid,
    estimate_or,
    evaluate_estimator,
    fit_lmm,
    fit_propensity,
    generate_scenario,
    scenario_specs,
)
from panel_causal.cli import build_parser, run
from panel_causal.estimators import _Batch
from panel_causal.inference import _replicate_values, _resamples

from helpers import shift_responses

# The models each method fits and the effects it estimates, as the
# estimator docstrings define them; the table must say the same.
EXPECTED = {
    "OR": ("post", False, ("ATE", "ATT")),
    "GLMM": ("mixed", False, ("ATE", "ATT")),
    "IPW": (None, True, ("ATE", "ATT")),
    "DID": (None, False, ("ATT",)),
    "IPWDID": (None, True, ("ATE", "ATT")),
    "DRGLMM": ("mixed", True, ("ATE", "ATT")),
}

# Direct calls of each public estimator, for comparison with the dispatch.
DIRECT = {
    "OR": lambda data, spec, ps: estimate_or(data, spec),
    "GLMM": lambda data, spec, ps: estimate_glmm(data, spec),
    "IPW": lambda data, spec, ps: estimate_ipw(data, ps),
    "DID": lambda data, spec, ps: {"ATT": estimate_did(data)},
    "IPWDID": lambda data, spec, ps: estimate_ipwdid(data, ps),
    "DRGLMM": lambda data, spec, ps: estimate_drglmm(data, spec, ps),
}

MISSING = [(m, "outcome model") for m, e in EXPECTED.items() if e[0]] + [
    (m, "treatment model") for m, e in EXPECTED.items() if e[1]
]


@pytest.fixture(scope="module")
def hom():
    return generate_scenario(Scenario("HOM", 300), 21)


def _spec(method):
    """The full HOM spec of the method's outcome kind, with ps terms."""
    kind = METHOD_TABLE[method].outcome or "mixed"
    return scenario_specs("HOM")[f"{kind}_full"]


def _method_choices(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == "method")


def test_table_states_each_methods_models_and_estimands():
    assert METHODS == tuple(EXPECTED)
    assert ESTIMANDS == ("ATE", "ATT")
    for name, info in METHOD_TABLE.items():
        assert info.name == name
        assert (info.outcome, info.uses_ps, info.estimands) == EXPECTED[name]
    # Only the doubly robust method bins its propensity scores.
    assert [m for m, info in METHOD_TABLE.items() if info.bins_ps] == ["DRGLMM"]


@pytest.mark.parametrize("command", ["estimate", "bootstrap"])
def test_cli_method_choices_are_the_table(command):
    assert tuple(_method_choices(command)) == tuple(m.lower() for m in METHODS)


@pytest.mark.parametrize("method,missing", MISSING)
def test_missing_model_rejected_everywhere(method, missing, hom, tmp_path, capsys):
    full = _spec(method)
    if missing == "outcome model":
        spec = ModelSpec(ps_terms=full.ps_terms)
        suite_models = {"ps_model": "full"} if EXPECTED[method][1] else {}
        flags = ["--ps-covariates", "x1,x2,v"] if EXPECTED[method][1] else []
    else:
        spec = ModelSpec(outcome_terms=full.outcome_terms)
        suite_models = {"outcome_model": "full"} if EXPECTED[method][0] else {}
        flags = ["--covariates", "x1,x2"] if EXPECTED[method][0] else []
    with pytest.raises(InvalidArgumentError, match=missing):
        EstimatorConfig(method=method, estimand="ATT", spec=spec)
    with pytest.raises(InvalidArgumentError):
        SuiteEntry(method, **suite_models)
    with pytest.raises(InvalidArgumentError, match=missing):
        estimate_effects(method, hom, spec)

    path = tmp_path / "panel.csv"
    assert run(["simulate", "--scenario", "HOM", "--n", "40", "--output", str(path)]) == 0
    rc = run(["estimate", "--input", str(path), "--method", method.lower(),
              "--estimand", "att", *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("ERROR:InvalidArgument:")
    assert missing in err


def test_point_estimate_names_the_model_it_lacks(hom):
    # No spec, or a spec without the terms of a model the method fits,
    # fails by the rule of EstimatorConfig; a given ps_fit is the
    # treatment model, and terms alone serve every model.
    spec = _spec("DRGLMM")
    outcome_only = ModelSpec(outcome_terms=spec.outcome_terms)
    for call, missing in [
        (lambda: estimate_ipw(hom, None), "treatment model"),
        (lambda: estimate_ipwdid(hom, None), "treatment model"),
        (lambda: estimate_effects("IPW", hom), "treatment model"),
        (lambda: estimate_effects("GLMM", hom), "outcome model"),
        (lambda: estimate_effects("OR", hom, None), "outcome model"),
        (lambda: estimate_effects("OR", hom, ()), "outcome model"),
        (lambda: estimate_drglmm(hom, outcome_only, None), "treatment model"),
    ]:
        with pytest.raises(InvalidArgumentError, match=missing):
            call()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PanelCausalWarning)
        ps = fit_propensity(hom, spec)
        assert estimate_drglmm(hom, outcome_only, ps) == estimate_drglmm(hom, spec, ps)
        terms = ("1", "x1", "x2")
        assert (estimate_effects("IPW", hom, terms)
                == estimate_effects("IPW", hom, ModelSpec(ps_terms=terms)))


@pytest.mark.parametrize("method,estimand", [
    (m, e) for m, exp in EXPECTED.items() for e in exp[2]
])
def test_evaluate_estimator_equals_direct_call(method, estimand, hom):
    spec = _spec(method)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PanelCausalWarning)
        ps = fit_propensity(hom, spec)
        direct = DIRECT[method](hom, spec, ps)[estimand].value
        config = EstimatorConfig(method=method, estimand=estimand, spec=spec)
        assert evaluate_estimator(config, hom) == direct
        assert evaluate_estimator(config, hom, ps_fit=ps) == direct


# Datasets for the property tests: a scenario draw of moderate size, so that
# every method's models are identified on every example.
_panels = st.builds(
    lambda scenario, n, seed: generate_scenario(Scenario(scenario, n), seed),
    st.sampled_from(["HOM", "HET"]),
    st.integers(150, 400),
    st.integers(0, 2**31 - 1),
)


def _effects(method, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PanelCausalWarning)
        return {k: v.value for k, v in estimate_effects(method, data, _spec(method)).items()}


@pytest.mark.parametrize("method", METHODS)
@given(data=_panels,
       a=st.floats(-1e3, 1e3).filter(lambda v: abs(v) >= 1e-3))
def test_response_scale_multiplies_every_effect(method, data, a):
    base = _effects(method, data)
    scaled = _effects(method, replace(data, y0=a * data.y0, y1=a * data.y1))
    for estimand, value in base.items():
        assert abs(scaled[estimand] - a * value) <= 1e-9 * abs(a) * (abs(value) + 1.0)


@pytest.mark.parametrize("method", METHODS)
@given(data=_panels, perm_seed=st.integers(0, 2**31 - 1))
def test_unit_order_changes_no_effect(method, data, perm_seed):
    order = np.random.default_rng(perm_seed).permutation(data.n)
    base = _effects(method, data)
    permuted = _effects(method, data.take(order))
    for estimand, value in base.items():
        assert abs(permuted[estimand] - value) <= 1e-9 * (abs(value) + 1.0)


@pytest.mark.parametrize("method", METHODS)
@given(data=_panels, c=st.floats(-1e8, 1e8))
@example(data=generate_scenario(Scenario("HOM", 300), 21), c=1000.0)
def test_response_shift_moves_effects_only_by_weight_imbalance(method, data, c):
    # Every method but IPW differences the shift away (an intercept, the
    # pre period, or both).  IPW is linear in the response with weights
    # fixed by the covariates, so it moves by c times its estimate on a
    # unit response: the Horvitz-Thompson weights need not balance.
    # Each estimate composes at most four count-weighted means of n terms
    # of size at most max|y| + |c|, and summing n terms rounds by at most
    # n eps times the sum of their sizes; so every estimate moves from its
    # exact shift by at most 4 n eps (max|y| + |c|).
    base = _effects(method, data)
    shifted = _effects(method, shift_responses(data, c))
    drift = dict.fromkeys(base, 0.0)
    if method == "IPW":
        ones = np.ones(data.n)
        drift = {k: c * v for k, v in _effects(method, replace(data, y0=ones, y1=ones)).items()}
    bound = 4 * data.n * np.finfo(float).eps * (
        max(np.abs(data.y0).max(), np.abs(data.y1).max()) + abs(c))
    assert set(base) == set(EXPECTED[method][2])
    for estimand, value in base.items():
        assert abs(shifted[estimand] - value - drift[estimand]) <= bound, estimand


# Term lists for the front door: the intercept and a few terms the scenarios
# use.  The time and treatment terms are ones a treatment model rejects.
_REJECTED_BY_PS = {"time", "treat", "x1:treat", "x2:time"}
_term_lists = st.lists(
    st.sampled_from(["x1", "x2", "v", "log(x2)", *sorted(_REJECTED_BY_PS)]),
    max_size=4, unique=True,
).map(lambda terms: ("1", *terms))


def _outcome(call):
    """The values and components a point estimate gives, as their repr (so
    that equal means bit-identical), or its typed error; and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = repr({e: (v.value, v.components) for e, v in call().items()})
        except PanelCausalError as exc:
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("method", METHODS)
@given(data=_panels, terms=_term_lists)
def test_terms_alone_are_the_spec_they_stand_for(method, data, terms):
    # Terms alone stand for every model the method fits, and fail or warn
    # as that ModelSpec does; a term the treatment model rejects fails as
    # in fit_propensity.
    info = METHOD_TABLE[method]
    bare = _outcome(lambda: estimate_effects(method, data, terms))
    spec = _outcome(lambda: estimate_effects(method, data, ModelSpec(
        outcome_terms=terms if info.outcome else (), ps_terms=terms if info.uses_ps else ())))
    assert bare == spec
    if info.uses_ps and _REJECTED_BY_PS & set(terms):
        with pytest.raises(InvalidTermError) as public:
            fit_propensity(data, terms)
        assert bare == ((InvalidTermError, str(public.value)), [])


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("bad", ["1", "x1", 5])
def test_terms_alone_are_a_sequence(method, bad, hom):
    # A bare string is not the terms of its characters: the front door
    # rejects it, as ModelSpec and the public treatment fit do.
    with pytest.raises(InvalidTermError, match=f"got {bad!r}"):
        estimate_effects(method, hom, bad)
    with pytest.raises(InvalidTermError, match=f"got {bad!r}"):
        fit_propensity(hom, bad)


# Resamples of a panel, as kinds of rows of a count matrix: at least one
# resample of every unit, and at least one that counts only treated or only
# control units.
_resample_kinds = st.builds(
    lambda both, one_class: ["both"] * both + one_class,
    st.integers(1, 3),
    st.lists(st.sampled_from(["treated", "control"]), min_size=1, max_size=3),
)


@given(data=_panels, kinds=_resample_kinds, tied=st.booleans(),
       seed=st.integers(0, 2**31 - 1))
def test_one_class_resamples_fail_alone(data, kinds, tied, seed):
    # A resample with one treatment class has nothing to contrast: every
    # method marks it not ok, and it adds no warning to its batch.  A
    # constant treatment model (tied) makes DRGLMM warn on the others.
    rng = np.random.default_rng(seed)
    kinds = rng.permutation(kinds)
    units = {"both": np.arange(data.n), "treated": np.flatnonzero(data.d1 == 1),
             "control": np.flatnonzero(data.d1 == 0)}
    C = np.stack([np.bincount(rng.choice(units[k], data.n), minlength=data.n)
                  for k in kinds]).astype(float)
    one_class = kinds != "both"
    suite = [(method, replace(_spec(method), ps_terms=("1",)) if tied else _spec(method))
             for method in METHODS]
    _, ok, notes = _Batch(data, 5).values(suite, C)
    _, _, notes_without = _Batch(data, 5).values(suite, C[~one_class])
    np.testing.assert_array_equal(ok, np.broadcast_to(~one_class[:, None], ok.shape))
    assert notes == notes_without
    assert len(notes) >= tied * np.sum(~one_class)


# Panels without a unit effect (sigma_u² = 0), with the term sets of their
# own scenario: the mixed models' variance estimate lies on or near its
# boundary.
_no_unit_effect_panels = st.builds(
    lambda scenario, n, seed: (
        scenario, generate_scenario(Scenario(scenario, n, dgp_params={"u_var": 0.0}), seed)),
    st.sampled_from(["HOM", "HET"]),
    st.integers(40, 300),
    st.integers(0, 2**31 - 1),
)


def test_no_unit_effect_panels_reach_the_boundary():
    # Six of these ten panels put the mixed-model fit at sigma_u² = 0
    # exactly, so the property below exercises the boundary.
    at_boundary = 0
    for scenario in ("HOM", "HET"):
        for seed in range(5):
            data = generate_scenario(Scenario(scenario, 100, dgp_params={"u_var": 0.0}), seed)
            design = build_design(data, scenario_specs(scenario)["mixed_full"], pre_period=True)
            at_boundary += fit_lmm(design.X0, design.X, data.y0, data.y1).sigma_u2 == 0.0
    assert at_boundary >= 3


@pytest.mark.parametrize("method", METHODS)
@given(panel=_no_unit_effect_panels)
def test_no_unit_effect_gives_finite_estimates_or_a_typed_error(method, panel):
    scenario, data = panel
    kind = METHOD_TABLE[method].outcome or "mixed"
    spec = scenario_specs(scenario)[f"{kind}_full"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PanelCausalWarning)
        try:
            effects = estimate_effects(method, data, spec)
        except PanelCausalError:
            return
    assert set(effects) == set(EXPECTED[method][2])
    assert all(np.isfinite(e.value) for e in effects.values())


# Panels at a boundary of some model: tied scores that collapse DRGLMM's
# propensity bins into one, an outcome model with a duplicated term or with
# a term that x1 perturbed by 1e-9 nearly duplicates (full rank by
# matrix_rank, often singular in floating point), or a treatment that a
# threshold on x1 separates.
_boundary_panels = st.builds(
    lambda scenario, n, seed, boundary: (scenario, boundary,
                                         generate_scenario(Scenario(scenario, n), seed)),
    st.sampled_from(["HOM", "HET"]),
    st.integers(30, 300),
    st.integers(0, 2**31 - 1),
    st.sampled_from(["tied", "duplicate", "near_duplicate", "separated"]),
)


@pytest.mark.parametrize("method", METHODS)
@given(panel=_boundary_panels)
def test_boundaries_give_finite_values_or_a_typed_error(method, panel):
    scenario, boundary, data = panel
    info = METHOD_TABLE[method]
    spec = scenario_specs(scenario)[f"{info.outcome or 'mixed'}_full"]
    if boundary == "tied":
        spec = replace(spec, ps_terms=("1",))
    elif boundary == "duplicate":
        spec = replace(spec, outcome_terms=spec.outcome_terms + ("x1",))
    elif boundary == "near_duplicate":
        i = data.covariate_names.index("x1")
        wiggle = 1e-9 * np.cos(np.arange(data.n))
        data = replace(data, covariate_names=data.covariate_names + ("x1_near",),
                       x0=np.column_stack([data.x0, data.x0[:, i] + wiggle]),
                       x1=np.column_stack([data.x1, data.x1[:, i] + wiggle]))
        spec = replace(spec, outcome_terms=spec.outcome_terms + ("x1_near",))
    else:
        x1 = data.x0[:, data.covariate_names.index("x1")]
        data = replace(data, d1=(x1 > np.median(x1)).astype(np.int64))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PanelCausalWarning)
        try:
            effects = estimate_effects(method, data, spec)
        except PanelCausalError as exc:
            error = exc
        else:
            error = None
            assert set(effects) == set(EXPECTED[method][2])
            assert all(np.isfinite(e.value) for e in effects.values())
        # Each replicate is finite, or NaN where its fit reports a failure.
        suite = [(method, spec)]
        columns = [ESTIMANDS.index(e) for e in info.estimands]
        (batch, C), = _resamples(data, 5, 20, 0)
        values, ok, _ = batch.values(suite, C)
        replicates = _replicate_values(suite, _resamples(data, 5, 20, 0))
    assert np.all(np.isfinite(values[..., columns]) | ~ok[..., None])
    np.testing.assert_array_equal(np.isnan(replicates[..., columns]),
                                  np.broadcast_to(~ok[..., None], (20, 1, len(columns))))
    # Each boundary is reached: the duplicated term and the separation fail
    # every estimate that fits the model they break.  The nearly duplicated
    # term is no rank deficiency, but it may leave no Gram factor.
    if boundary == "duplicate" and info.outcome:
        assert isinstance(error, RankDeficientDesignError)
    elif boundary == "separated" and info.uses_ps:
        assert isinstance(error, SeparationError)
    elif boundary == "near_duplicate" and info.outcome:
        assert error is None or isinstance(error, NonFiniteLikelihoodError)
    else:
        assert error is None
