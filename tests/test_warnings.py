"""Package warnings point at the line of the caller that led to them."""

import warnings

import numpy as np
import pytest

from panel_causal import (
    BootstrapFailureWarning,
    ColumnMapping,
    DegenerateBinsWarning,
    DegenerateVarianceWarning,
    EmptyModelWarning,
    EstimatorConfig,
    ExtremeWeightsWarning,
    ModelSpec,
    ReplicateFailureWarning,
    Scenario,
    SuiteEntry,
    TimeVaryingDowngradeWarning,
    backward_eliminate,
    cluster_bootstrap,
    dr_specification_test,
    estimate_drglmm,
    estimate_effects,
    estimate_ipw,
    estimate_ipwdid,
    evaluate_estimator,
    fit_propensity,
    generate_scenario,
    load_csv,
    run_study,
    substream,
    write_csv,
)

from helpers import extreme_ps_dataset, make_dataset, tiny_panel


def _noise_panel():
    """Three covariates that explain neither treatment nor response."""
    rng = substream(999, 0)
    n = 500
    z = rng.standard_normal((3, n))
    d = (rng.random(n) < 0.5).astype(np.int64)
    u = rng.normal(0.0, 5.0, n)
    return make_dataset(10.0 + u + rng.standard_normal(n),
                        13.0 + 15.0 * d + u + rng.standard_normal(n), d,
                        covariates=list(z), names=("z1", "z2", "z3"))


def _bootstrap_failures(tmp_path):
    cluster_bootstrap(tiny_panel(6), EstimatorConfig("DID", "ATT"), B=50, seed=0)


def _degenerate_variance(tmp_path):
    # With a constant treatment model the doubly robust fit is the mixed
    # model, so their difference has no bootstrap variance.
    spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1"), ps_terms=("1",))
    dr_specification_test(generate_scenario(Scenario("HOM", 60), 1), spec, B=10, seed=0)


def _replicate_failures(tmp_path):
    run_study(Scenario("HOM", 30), (SuiteEntry("IPW", ps_model="full"),), R=50, seed=2)


def _empty_model(tmp_path):
    backward_eliminate(_noise_panel(),
                       ModelSpec(outcome_terms=("1", "time", "treat", "z1", "z2", "z3"),
                                 ps_terms=("1", "z1", "z2", "z3")))


def _time_varying_downgrade(tmp_path):
    path = tmp_path / "panel.csv"
    write_csv(generate_scenario(Scenario("HOM", 20), 0), path)
    load_csv(path, schema=ColumnMapping(time_invariant=("x1",)))


@pytest.mark.parametrize("category,call", [
    (BootstrapFailureWarning, _bootstrap_failures),
    (DegenerateVarianceWarning, _degenerate_variance),
    (ReplicateFailureWarning, _replicate_failures),
    (EmptyModelWarning, _empty_model),
    (TimeVaryingDowngradeWarning, _time_varying_downgrade),
], ids=lambda v: getattr(v, "__name__", None))
def test_warning_names_the_calling_line(category, call, tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(tmp_path)
    hits = [w for w in caught if w.category is category]
    assert hits
    assert [w.filename for w in hits] == [__file__] * len(hits)


def _extreme_scores():
    """IPW's, IPWDID's and the DR test's extreme-weight case."""
    return extreme_ps_dataset(), ModelSpec(outcome_terms=("1", "time", "treat", "x1"),
                                           ps_terms=("1", "x1"))


def _constant_scores():
    """A constant treatment model: every DRGLMM estimate collapses its bins."""
    return generate_scenario(Scenario("HOM", 60), 1), ModelSpec(
        outcome_terms=("1", "time", "treat", "x1"), ps_terms=("1",))


_POINT_WARNING = {
    "IPW": (ExtremeWeightsWarning, _extreme_scores),
    "IPWDID": (ExtremeWeightsWarning, _extreme_scores),
    "DRGLMM": (DegenerateBinsWarning, _constant_scores),
}


def _route(route, method, data, spec):
    if route == "direct":
        ps_fit = fit_propensity(data, spec)
        if method == "DRGLMM":
            estimate_drglmm(data, spec, ps_fit)
        else:
            {"IPW": estimate_ipw, "IPWDID": estimate_ipwdid}[method](data, ps_fit)
    elif route == "estimate_effects":
        estimate_effects(method, data, spec)
    elif route == "evaluate_estimator":
        evaluate_estimator(EstimatorConfig(method, "ATE", spec=spec), data)
    elif route == "cluster_bootstrap":
        cluster_bootstrap(data, EstimatorConfig(method, "ATE", spec=spec), B=10, seed=0)
    else:
        dr_specification_test(data, spec, B=10, seed=0)


@pytest.mark.parametrize("method,route", [
    (method, route) for method in _POINT_WARNING
    for route in ("direct", "estimate_effects", "evaluate_estimator", "cluster_bootstrap")
] + [("IPWDID", "dr_specification_test"), ("DRGLMM", "dr_specification_test")])
def test_point_estimate_warning_names_the_calling_line(method, route):
    # However deep in the package a point estimate warns, the warning names
    # this file: through estimate_effects too, and next to the replicates'
    # own warnings in the bootstrap and in the DR test, whose IPWDID and
    # DRGLMM estimates warn.
    category, panel = _POINT_WARNING[method]
    data, spec = panel()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _route(route, method, data, spec)
    hits = [w for w in caught if w.category is category]
    assert hits
    assert [w.filename for w in hits] == [__file__] * len(hits)
