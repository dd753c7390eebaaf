"""Bootstrap, specification diagnostics, balance check, term pruning."""

import warnings
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panel_causal import (
    BootstrapFailureError,
    BootstrapFailureWarning,
    DegenerateBinsWarning,
    DegenerateVarianceWarning,
    EmptyModelWarning,
    EstimatorConfig,
    ExtremeWeightsWarning,
    InvalidArgumentError,
    METHOD_TABLE,
    ModelSpec,
    NonFiniteLikelihoodError,
    PanelDataset,
    PSFit,
    Scenario,
    backward_eliminate,
    balance_check,
    cluster_bootstrap,
    dr_specification_test,
    estimate_did,
    estimate_effects,
    estimate_glmm,
    estimate_ipw,
    evaluate_estimator,
    fit_propensity,
    generate_scenario,
    relative_effect,
    scenario_specs,
    substream,
    term_label,
)

from panel_causal import inference
from panel_causal.estimators import _Batch
from panel_causal.glm_fit import _quantile_bins_batch
from panel_causal.inference import _replicate_values, _resamples
from panel_causal.lmm_fit import _OK

from helpers import (
    cluster_bootstrap_reference,
    dr_specification_test_reference,
    extreme_ps_dataset,
    make_dataset,
    near_collinear_treatment,
    tiny_panel,
)

def _hom(seed, n=300):
    return generate_scenario(Scenario("HOM", n), seed)


def _run_alone(batch, method, spec, C, given=None):
    """The entry of ``method`` run as a suite of one on the fits of ``C``
    (``batch.run``), with its treatment model's scores ``given`` or fitted
    by the run.  The run's warnings are not what its callers check."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtremeWeightsWarning)
        warnings.simplefilter("ignore", DegenerateBinsWarning)
        (entry,) = batch.run([(method, spec)], C, given)
    return entry


class TestEstimatorConfig:
    def test_case_is_normalized(self):
        cfg = EstimatorConfig(method="glmm", estimand="ate",
                              spec=ModelSpec(outcome_terms=("1", "time", "treat")))
        assert cfg.method == "GLMM"
        assert cfg.estimand == "ATE"

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidArgumentError):
            EstimatorConfig(method="TWFE", estimand="ATE")

    def test_unknown_estimand_rejected(self):
        with pytest.raises(InvalidArgumentError):
            EstimatorConfig(method="DID", estimand="LATE")

    def test_did_is_att_only(self):
        with pytest.raises(InvalidArgumentError):
            EstimatorConfig(method="DID", estimand="ATE")
        EstimatorConfig(method="DID", estimand="ATT")

    def test_outcome_model_required_where_used(self):
        with pytest.raises(InvalidArgumentError):
            EstimatorConfig(method="OR", estimand="ATE")
        with pytest.raises(InvalidArgumentError):
            EstimatorConfig(method="GLMM", estimand="ATE",
                            spec=ModelSpec(ps_terms=("1", "x1")))

    def test_k_bins_below_two_rejected(self):
        spec = ModelSpec(outcome_terms=("1", "time", "treat"), ps_terms=("1", "x1"))
        with pytest.raises(InvalidArgumentError):
            EstimatorConfig(method="DRGLMM", estimand="ATE", spec=spec, k_bins=1)

    def test_k_bins_is_kept_as_checked(self):
        spec = ModelSpec(outcome_terms=("1", "time", "treat"), ps_terms=("1", "x1"))
        for k_bins in (5.0, np.int64(5)):
            cfg = EstimatorConfig(method="DRGLMM", estimand="ATE", spec=spec, k_bins=k_bins)
            assert type(cfg.k_bins) is int and cfg.k_bins == 5
        with pytest.raises(InvalidArgumentError, match="integer"):
            EstimatorConfig(method="DRGLMM", estimand="ATE", spec=spec, k_bins=2.5)

    def test_ps_model_required_where_used(self):
        with pytest.raises(InvalidArgumentError):
            EstimatorConfig(method="IPW", estimand="ATE")
        with pytest.raises(InvalidArgumentError):
            EstimatorConfig(method="DRGLMM", estimand="ATE",
                            spec=ModelSpec(outcome_terms=("1", "time", "treat")))


class TestEvaluateEstimator:
    def test_matches_did(self):
        data = _hom(500)
        cfg = EstimatorConfig(method="DID", estimand="ATT")
        assert evaluate_estimator(cfg, data) == estimate_did(data).value

    def test_matches_direct_calls_with_injected_ps(self):
        data = _hom(501)
        spec = ModelSpec(
            outcome_terms=("1", "time", "treat", "x1", "x2"),
            ps_terms=("1", "x1", "x2", "v"),
        )
        ps = fit_propensity(data, spec)
        cfg = EstimatorConfig(method="IPW", estimand="ATT", spec=spec)
        want = estimate_ipw(data, ps)["ATT"].value
        assert evaluate_estimator(cfg, data, ps_fit=ps) == want

    def test_refits_ps_when_not_injected(self):
        data = _hom(502)
        spec = ModelSpec(ps_terms=("1", "x1", "x2", "v"))
        cfg = EstimatorConfig(method="IPW", estimand="ATE", spec=spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            auto = evaluate_estimator(cfg, data)
            manual = evaluate_estimator(cfg, data, ps_fit=fit_propensity(data, spec))
        assert auto == manual

    def test_extreme_scores_warn_once_where_weights_are_formed(self):
        # One extreme-score event gives one warning, from the estimator that
        # inverts the scores; the doubly robust fit only bins them, and the
        # treatment-model fit only reports them.
        data = extreme_ps_dataset()
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1"),
                         ps_terms=("1", "x1"))
        calls = {
            method: (lambda m=method: evaluate_estimator(
                EstimatorConfig(method=m, estimand="ATE", spec=spec), data))
            for method in ("IPW", "IPWDID", "DRGLMM")
        }
        calls["fit_propensity"] = lambda: fit_propensity(data, spec)
        counts = {}
        for name, call in calls.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            counts[name] = sum(w.category is ExtremeWeightsWarning for w in caught)
        assert counts == {"IPW": 1, "IPWDID": 1, "DRGLMM": 0, "fit_propensity": 0}

    def test_glmm_value(self):
        data = _hom(503)
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1", "x2"))
        cfg = EstimatorConfig(method="GLMM", estimand="ATE", spec=spec)
        assert evaluate_estimator(cfg, data) == estimate_glmm(data, spec)["ATE"].value


class TestRelativeEffect:
    def test_percent_of_baseline_mean(self):
        data = make_dataset(np.array([2.0, 4.0]), np.array([3.0, 5.0]),
                            np.array([1, 0]))
        assert relative_effect(1.5, data) == pytest.approx(50.0, abs=1e-12)

    def test_zero_baseline_rejected(self):
        data = make_dataset(np.array([-1.0, 1.0]), np.array([3.0, 5.0]),
                            np.array([1, 0]))
        with pytest.raises(InvalidArgumentError):
            relative_effect(1.0, data)


class TestClusterBootstrap:
    def test_requires_two_replicates(self):
        data = _hom(510, n=60)
        cfg = EstimatorConfig(method="DID", estimand="ATT")
        with pytest.raises(InvalidArgumentError):
            cluster_bootstrap(data, cfg, B=1, seed=0)

    def test_non_integral_replicate_count_rejected(self):
        data = _hom(510, n=60)
        cfg = EstimatorConfig(method="DID", estimand="ATT")
        for B in (2.9, "3", float("inf")):
            with pytest.raises(InvalidArgumentError, match="integer"):
                cluster_bootstrap(data, cfg, B=B, seed=0)
        with pytest.raises(InvalidArgumentError, match="integer"):
            cluster_bootstrap(data, cfg, B=3, seed=0.5)
        assert cluster_bootstrap(data, cfg, B=3.0, seed=0) == cluster_bootstrap(
            data, cfg, B=3, seed=0)

    def test_point_is_full_sample_estimate(self):
        data = _hom(511, n=80)
        cfg = EstimatorConfig(method="DID", estimand="ATT")
        res = cluster_bootstrap(data, cfg, B=10, seed=0)
        assert res.point == estimate_did(data).value

    def test_seed_determinism_and_thread_independence(self):
        data = _hom(512, n=100)
        cfg = EstimatorConfig(method="DID", estimand="ATT")
        a = cluster_bootstrap(data, cfg, B=24, seed=7)
        b = cluster_bootstrap(data, cfg, B=24, seed=7)
        assert a == b
        other = cluster_bootstrap(data, cfg, B=24, seed=8)
        assert other.boot_mean != a.boot_mean

    def test_summaries_describe_resamples(self):
        data = _hom(513, n=200)
        cfg = EstimatorConfig(method="DID", estimand="ATT")
        res = cluster_bootstrap(data, cfg, B=400, seed=4)
        assert res.B == 400
        assert res.n_failed == 0
        assert res.ci_lower < res.point < res.ci_upper
        assert res.se > 0.0
        assert abs(res.boot_mean - res.point) < res.se

    def test_all_replicates_failing_returns_nan_summaries(self):
        data = tiny_panel(2)
        cfg = EstimatorConfig(method="DID", estimand="ATT")
        with pytest.warns(BootstrapFailureWarning):
            res = cluster_bootstrap(data, cfg, B=2, seed=0)
        assert res.n_failed == 2
        assert np.isfinite(res.point)
        assert np.isnan(res.boot_mean) and np.isnan(res.se)
        assert np.isnan(res.ci_lower) and np.isnan(res.ci_upper)

    def test_failed_replicates_are_counted_and_warned(self):
        data = tiny_panel(6)
        cfg = EstimatorConfig(method="DID", estimand="ATT")
        with pytest.warns(BootstrapFailureWarning):
            res = cluster_bootstrap(data, cfg, B=50, seed=0)
        assert res.n_failed >= 18
        assert np.isfinite(res.boot_mean)


_METHOD_ESTIMANDS = [(m, e) for m, info in METHOD_TABLE.items() for e in info.estimands]


def _config(method, estimand, specs):
    kind = METHOD_TABLE[method].outcome
    return EstimatorConfig(method, estimand,
                           spec=specs["post_full" if kind == "post" else "mixed_full"])


def _recording_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, Counter(w.category.__name__ for w in caught)


def _assert_same_bootstrap(data, config, B, seed):
    """The batched bootstrap against the one-replicate-at-a-time reference:
    every field within 1e-9 relative, equal failure counts, and the same
    warnings."""
    got, got_warnings = _recording_warnings(cluster_bootstrap, data, config, B, seed)
    want, want_warnings = _recording_warnings(
        cluster_bootstrap_reference, data, config, B, seed)
    assert got_warnings == want_warnings
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name in ("B", "n_failed"):
            assert a == b
        else:
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9, err_msg=f.name)


def _assert_same_dr_test(data, spec, B, seed, k_bins):
    """The batched DR test against the one-replicate-at-a-time reference:
    every float within 1e-9 relative, the other fields equal, and the same
    warnings."""
    got, got_warnings = _recording_warnings(
        dr_specification_test, data, spec, B, seed, k_bins)
    want, want_warnings = _recording_warnings(
        dr_specification_test_reference, data, spec, B, seed, k_bins)
    assert got_warnings == want_warnings
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, float):
            np.testing.assert_allclose(a, b, rtol=1e-9, err_msg=f.name)
        else:
            assert a == b, f.name


class TestBatchedReplicates:
    """cluster_bootstrap fits chunks of count-weighted resamples; each must
    give what a take() resample refitted on its own gives."""

    @pytest.mark.parametrize("method,estimand", _METHOD_ESTIMANDS)
    @settings(max_examples=4)
    @given(scenario=st.sampled_from(["HOM", "HET", "RANDCOEF"]),
           n=st.integers(30, 300), B=st.integers(2, 60),
           data_seed=st.integers(0, 10_000), seed=st.integers(0, 2**32 - 1))
    def test_matches_take_loop(self, method, estimand, scenario, n, B, data_seed, seed):
        data = generate_scenario(Scenario(scenario, n), data_seed)
        config = _config(method, estimand, scenario_specs(scenario))
        _assert_same_bootstrap(data, config, B, seed)

    @staticmethod
    def _boundary_panel(kind):
        if kind == "separable":
            # Treated exactly when x1 > 0, but for one unit: every resample
            # that misses it is separated.
            x = np.linspace(-1.0, 1.0, 30)
            d = (x > 0.0).astype(int)
            d[3] = 1
            y0 = 10.0 + np.cos(7.0 * x)
            return make_dataset(y0, y0 + 2.0 + 5.0 * d + np.sin(5.0 * x), d,
                                covariates=[x], names=("x1",)), ("1", "x1")
        n, treated = {"tiny6": (6, (0,)), "tiny12": (12, (0, 1, 2))}[kind]
        return tiny_panel(n, treated), ("1",)

    @classmethod
    def _boundary_config(cls, kind, method, estimand):
        """A boundary panel and the smallest models of the method on it."""
        data, ps_terms = cls._boundary_panel(kind)
        post = METHOD_TABLE[method].outcome == "post"
        spec = ModelSpec(outcome_terms=("1", "treat") if post else ("1", "time", "treat"),
                         ps_terms=ps_terms)
        return data, EstimatorConfig(method, estimand, spec=spec, k_bins=2)

    @pytest.mark.parametrize("method,estimand", _METHOD_ESTIMANDS)
    @pytest.mark.parametrize("kind", ["tiny6", "tiny12", "separable"])
    def test_fallback_replicates_match_take_loop(self, method, estimand, kind):
        # Resamples without treated units, separated treatment models and
        # collapsed bins stay in the batch, which must fail and warn as
        # their take() copies do.
        _assert_same_bootstrap(*self._boundary_config(kind, method, estimand), 40, 3)

    @pytest.mark.parametrize("method,estimand", _METHOD_ESTIMANDS)
    @pytest.mark.parametrize("kind", ["hom40", "tiny12"])
    def test_matches_take_loop_across_chunks(self, method, estimand, kind, monkeypatch):
        # Small panels fit every resample in one chunk by default; chunks of
        # 7 split B = 40 into six, and on the 12-unit panel resamples fail
        # in several of them.
        if kind == "hom40":
            data, config = _hom(533, n=40), _config(method, estimand, scenario_specs("HOM"))
        else:
            data, config = self._boundary_config(kind, method, estimand)
        monkeypatch.setattr(inference, "_CHUNK_CELLS", 7 * data.n)
        assert len(list(_resamples(data, config.k_bins, 40, 3))) == 6
        _assert_same_bootstrap(data, config, 40, 3)

    @staticmethod
    def _rank_guard_panel():
        """HOM, n = 40, with a covariate z equal to x1 on every unit but
        unit 0, where it is x1 + 1: in a resample without unit 0, z and x1
        are one column twice."""
        data = generate_scenario(Scenario("HOM", 40), 3)
        shift = (np.arange(data.n) == 0).astype(float)
        return PanelDataset(
            covariate_names=data.covariate_names + ("z",), unit_ids=data.unit_ids,
            y0=data.y0, y1=data.y1, d1=data.d1,
            x0=np.column_stack([data.x0, data.x0[:, 0] + shift]),
            x1=np.column_stack([data.x1, data.x1[:, 0] + shift]))

    @pytest.mark.parametrize("method,estimand", _METHOD_ESTIMANDS)
    def test_rank_deficient_resamples_fail_as_alone(self, method, estimand):
        # The treatment model and both outcome models lose rank on about a
        # third of the resamples; each must fail as its take() copy does.
        post = METHOD_TABLE[method].outcome == "post"
        spec = ModelSpec(outcome_terms=("1", "treat", "x1", "z") if post
                         else ("1", "time", "treat", "x1", "z"),
                         ps_terms=("1", "x1", "z"))
        _assert_same_bootstrap(self._rank_guard_panel(),
                               EstimatorConfig(method, estimand, spec=spec), 60, 0)

    def test_rank_deficient_resamples_fail_in_the_dr_test(self):
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1", "z"),
                         ps_terms=("1", "x1", "z"))
        _assert_same_dr_test(self._rank_guard_panel(), spec, 60, 0, 5)

    def test_extreme_scores_go_to_the_estimator(self):
        data = extreme_ps_dataset()
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1"),
                         ps_terms=("1", "x1"))
        for method in ("IPW", "IPWDID", "DRGLMM"):
            _assert_same_bootstrap(data, EstimatorConfig(method, "ATE", spec=spec), 30, 1)

    @pytest.mark.parametrize("method", ["GLMM", "DRGLMM"])
    def test_outcome_model_without_random_intercept(self, method):
        spec = replace(scenario_specs("HOM")["mixed_full"], random_effect="none")
        _assert_same_bootstrap(_hom(531, n=150), EstimatorConfig(method, "ATE", spec=spec),
                               30, 2)

    def test_large_panel_is_fitted_in_smaller_stacks(self):
        # At n = 2600 a stack holds 9 replicates, so B = 12 spans two.
        config = _config("DRGLMM", "ATT", scenario_specs("HOM"))
        _assert_same_bootstrap(_hom(532, n=2600), config, 12, 5)

    @pytest.mark.parametrize("method", list(METHOD_TABLE))
    def test_value_does_not_depend_on_position_in_chunk(self, method):
        data = _hom(530, n=200)
        config = _config(method, "ATT", scenario_specs("HOM"))
        resamples = _Batch(data, config.k_bins)
        C = np.array([np.bincount(substream(4, r).integers(0, data.n, size=data.n),
                                  minlength=data.n) for r in range(25)], dtype=float)
        forward = _run_alone(resamples, method, config.spec, C)
        backward = _run_alone(resamples, method, config.spec, C[::-1])
        alone = [_run_alone(resamples, method, config.spec, C[r:r + 1]).estimates["ATT"][0][0]
                 for r in (0, 11, 24)]
        assert np.all(forward.status == _OK) and np.all(backward.status == _OK)
        np.testing.assert_allclose(forward.estimates["ATT"][0],
                                   backward.estimates["ATT"][0][::-1], rtol=1e-12)
        np.testing.assert_allclose(forward.estimates["ATT"][0][[0, 11, 24]], alone, rtol=1e-12)


class TestReplicateEngine:
    """One chunk loop runs a suite of estimators over the resamples for the
    bootstrap and the DR test; an entry's values must not depend on the
    other entries it shares the treatment model with."""

    @pytest.mark.parametrize("kind", ["hom150", "tiny6", "tiny12", "separable"])
    def test_entry_does_not_depend_on_the_rest_of_its_suite(self, kind):
        if kind == "hom150":
            data = generate_scenario(Scenario("HOM", 150), 8)
            specs = scenario_specs("HOM")
            spec = ModelSpec(outcome_terms=specs["mixed_full"].outcome_terms,
                             ps_terms=specs["ps_full"].ps_terms)
            k_bins = 5
        else:
            data, ps_terms = TestBatchedReplicates._boundary_panel(kind)
            spec = ModelSpec(outcome_terms=("1", "time", "treat"), ps_terms=ps_terms)
            k_bins = 2
        suite = [(method, spec) for method in ("DRGLMM", "IPWDID", "GLMM")]

        def values(entries):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return _replicate_values(entries, _resamples(data, k_bins, 40, 3))

        together = values(suite)
        assert together.shape == (40, 3, 2)
        for i, entry in enumerate(suite):
            np.testing.assert_array_equal(values([entry])[:, 0], together[:, i],
                                          err_msg=entry[0])
        if kind == "separable":
            # Separated resamples lose their weighting entries only.
            ate = np.isfinite(together[:, :, 0])
            assert np.any(ate[:, 2] & ~ate[:, 0])


class TestDuplicatedUnit:
    """A unit counted twice is two copies of that unit: a batched fit that
    counts it 2 times must give what the public estimator gives on the data
    with its rows repeated, and DRGLMM's bins must be the bins of the
    repeated scores."""

    @pytest.mark.parametrize("method", list(METHOD_TABLE))
    @given(scenario=st.sampled_from(["HOM", "HET", "RANDCOEF"]), n=st.integers(60, 200),
           data_seed=st.integers(0, 10_000), draw=st.data())
    def test_count_of_two_is_a_repeated_unit(self, method, scenario, n, data_seed, draw):
        data = generate_scenario(Scenario(scenario, n), data_seed)
        unit = draw.draw(st.integers(0, n - 1), label="unit")
        info = METHOD_TABLE[method]
        spec = _config(method, info.estimands[0], scenario_specs(scenario)).spec
        C = np.ones((1, n))
        C[0, unit] = 2.0
        repeated = data.take(np.append(np.arange(n), unit))
        entry = _run_alone(_Batch(data, 5), method, spec, C)
        values, status = entry.estimates, entry.status
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtremeWeightsWarning)
            want = estimate_effects(method, repeated, spec)
        assert status[0] == _OK
        assert set(values) == set(want) == set(info.estimands)
        for estimand, estimate in want.items():
            np.testing.assert_allclose(values[estimand][0][0], estimate.value, rtol=1e-12,
                                       err_msg=estimand)
        if info.bins_ps:
            ones = np.ones((1, n + 1))
            copy_ps, _ = _Batch(repeated, 5, reps=1).propensity(spec, ones)
            copy = _quantile_bins_batch(copy_ps, ones, 5)
            labels = entry.labels[0]
            np.testing.assert_array_equal(np.append(labels, labels[unit]), copy.labels[0])
            assert entry.n_bins[0] == copy.n_bins[0]


class TestOneArithmetic:
    """A replicate that counts every unit once is the data as given: its
    batched estimate goes through the point estimate's arithmetic."""

    @pytest.mark.parametrize("scenario", ["HOM", "HET", "RANDCOEF"])
    @pytest.mark.parametrize("method", list(METHOD_TABLE))
    def test_all_ones_replicate_is_the_point_estimate(self, method, scenario):
        data = generate_scenario(Scenario(scenario, 300), 1)
        info = METHOD_TABLE[method]
        spec = scenario_specs(scenario)["post_full" if info.outcome == "post"
                                        else "mixed_full"]
        ps_fit = fit_propensity(data, spec) if info.uses_ps else None
        point = estimate_effects(method, data, spec, ps_fit)
        # The point fit's scores, so that the weighting methods see the
        # same floats on both paths.
        given = None if ps_fit is None else (ps_fit.fitted_ps[None, :], np.full(1, _OK))
        entry = _run_alone(_Batch(data, 5), method, spec, np.ones((1, data.n)), given)
        values, status = entry.estimates, entry.status
        assert np.all(status == _OK)
        assert set(values) == set(point) == set(info.estimands)
        for estimand, estimate in point.items():
            got, want = float(values[estimand][0][0]), estimate.value
            if info.outcome is None:
                assert got == want, (estimand, got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-9, err_msg=estimand)


class TestDrSpecificationTest:
    def test_needs_propensity_terms(self):
        data = _hom(520, n=60)
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1"))
        with pytest.raises(InvalidArgumentError):
            dr_specification_test(data, spec, B=4, seed=0)

    def test_structure_and_determinism(self):
        data = _hom(521, n=120)
        specs = scenario_specs("HOM")
        spec = ModelSpec(
            outcome_terms=specs["mixed_full"].outcome_terms,
            ps_terms=specs["ps_full"].ps_terms,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = dr_specification_test(data, spec, B=6, seed=2)
            b = dr_specification_test(data, spec, B=6, seed=2)
        assert a == b
        assert a.B == 6
        assert np.isfinite(a.z_ps) and np.isfinite(a.z_or)
        assert a.sigma_ps >= 0.0 and a.sigma_or >= 0.0
        assert a.reject_ps == (a.z_ps > 1.96)
        assert a.reject_or == (a.z_or > 1.96)

    @pytest.mark.parametrize("n,k_bins", [(150, 5), (150, 3), (25, 3)])
    def test_matches_take_loop(self, n, k_bins):
        # At n = 25 some resamples separate or warn of extreme weights.
        data = generate_scenario(Scenario("HOM", n), 8)
        specs = scenario_specs("HOM")
        spec = ModelSpec(outcome_terms=specs["mixed_full"].outcome_terms,
                         ps_terms=specs["ps_full"].ps_terms)
        _assert_same_dr_test(data, spec, 40, 9, k_bins)

    def test_correct_models_are_not_rejected(self):
        data = generate_scenario(Scenario("HOM", 500), seed=100, replicate=0)
        specs = scenario_specs("HOM")
        correct = ModelSpec(
            outcome_terms=specs["mixed_full"].outcome_terms,
            ps_terms=specs["ps_full"].ps_terms,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = dr_specification_test(data, correct, B=500, seed=300)
        assert res.reject_ps is False
        assert res.reject_or is False
        assert res.n_failed == 0

    def test_misspecified_outcome_model_is_caught(self):
        data = generate_scenario(Scenario("HOM", 500), seed=200, replicate=10)
        specs = scenario_specs("HOM")
        wrong_or = ModelSpec(
            outcome_terms=specs["mixed_reduced"].outcome_terms,
            ps_terms=specs["ps_full"].ps_terms,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = dr_specification_test(data, wrong_or, B=300, seed=410)
        assert res.reject_or is True
        assert res.z_or > 2.5
        assert res.reject_ps is False

    @staticmethod
    def _no_fit(monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a propensity model was fitted before validation")

        # Every treatment-model fit of the DR test, its point estimates' and
        # its replicates', is a call of the batch kernel.
        monkeypatch.setattr("panel_causal.estimators._fit_logistic_batch", no_fit)

    @pytest.mark.parametrize("k_bins", [1, 0, -3])
    def test_too_few_bins_rejected_before_any_fit(self, k_bins, monkeypatch):
        self._no_fit(monkeypatch)
        data = _hom(523, n=60)
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1"), ps_terms=("1", "x1"))
        with pytest.raises(InvalidArgumentError, match="k_bins"):
            dr_specification_test(data, spec, B=4, seed=0, k_bins=k_bins)

    @pytest.mark.parametrize("spec,missing", [
        (None, "outcome model"),
        (ModelSpec(ps_terms=("1", "x1")), "outcome model"),
        (ModelSpec(outcome_terms=("1", "time", "treat", "x1")), "treatment model"),
    ])
    def test_missing_model_rejected_before_any_fit(self, spec, missing, monkeypatch):
        self._no_fit(monkeypatch)
        with pytest.raises(InvalidArgumentError, match=missing):
            dr_specification_test(_hom(523, n=60), spec, B=4, seed=0)

    def test_constant_treatment_model_has_no_outcome_model_variance(self):
        # Under a constant treatment model every propensity bin collapses,
        # so the doubly robust estimate is the mixed-model estimate on each
        # resample: the difference has no spread beyond rounding.
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1"), ps_terms=("1",))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            warnings.simplefilter("always", DegenerateVarianceWarning)
            with pytest.warns(DegenerateVarianceWarning):
                res = dr_specification_test(_hom(524, n=60), spec, B=10, seed=0)
        assert res.z_or == 0.0 and res.reject_or is False
        assert res.sigma_or < 1e-12
        assert res.sigma_ps > 0.01

    def test_too_few_successes_is_an_error(self):
        data = tiny_panel(6)
        spec = ModelSpec(outcome_terms=("1", "time", "treat"), ps_terms=("1",))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(BootstrapFailureError, match="too few"):
                dr_specification_test(data, spec, B=2, seed=21, k_bins=2)


class TestBalanceCheck:
    @staticmethod
    def _randomized(seed):
        rng = substream(777, seed)
        n = 500
        z = rng.standard_normal((n, 2))
        chol = np.linalg.cholesky([[6.0, 5.5], [5.5, 6.0]])
        x1 = np.array([15.0, 20.0]) + z @ chol.T
        x2 = rng.exponential(2.0, n)
        v = rng.normal(1.0, 1.0, n)
        d = (rng.random(n) < 0.5).astype(np.int64)
        x0 = np.column_stack([x1[:, 0], x2, v])
        return PanelDataset(
            unit_ids=[f"u{i}" for i in range(n)],
            y0=rng.standard_normal(n),
            y1=rng.standard_normal(n),
            d1=d,
            x0=x0,
            x1=x0.copy(),
            covariate_names=("x1", "x2", "v"),
        )

    def test_randomized_treatment_is_balanced(self):
        data = self._randomized(0)
        ps = fit_propensity(data, ModelSpec(ps_terms=("1", "x1", "x2", "v")))
        rep = balance_check(data, ps)
        assert rep.balanced is True
        assert rep.note == ""
        assert rep.balanced == (rep.r2_with_covariates <= rep.r2_ps_only)

    def test_correct_model_is_balanced(self):
        data = _hom(600, n=500)
        ps = fit_propensity(data, ModelSpec(ps_terms=("1", "x1", "x2", "v")))
        assert balance_check(data, ps).balanced is True

    def test_omitted_confounder_is_flagged(self):
        data = _hom(600, n=500)
        ps = fit_propensity(data, ModelSpec(ps_terms=("1", "x2", "v")))
        rep = balance_check(data, ps)
        assert rep.balanced is False
        assert rep.r2_with_covariates > rep.r2_ps_only

    def test_separated_check_is_inconclusive(self):
        n = 40
        rng = substream(4321, 0)
        d = np.repeat([1, 0], n // 2)
        y0 = rng.normal(size=n)
        data = make_dataset(y0, y0 + d, d)
        ps = PSFit(
            alpha_hat=np.array([0.0]),
            fitted_ps=np.where(d == 1, 0.9, 0.1),
            n_iter=1,
            converged=True,
            deviance=0.0,
        )
        rep = balance_check(data, ps)
        assert rep.balanced is None
        assert "inconclusive" in rep.note
        assert np.isnan(rep.r2_ps_only) and np.isnan(rep.r2_with_covariates)

    @pytest.mark.parametrize("scores", ["other_panel", "nan"])
    def test_scores_must_belong_to_the_panel(self, scores):
        # Scores fitted on another panel, or no scores at all, are rejected
        # like the estimators reject them, not reported on.
        data = _hom(602, n=200)
        if scores == "other_panel":
            ps = fit_propensity(_hom(603, n=150), ModelSpec(ps_terms=("1", "x1", "x2", "v")))
        else:
            ps = PSFit(np.zeros(1), np.full(data.n, np.nan), 1, True, 0.0)
        with pytest.raises(InvalidArgumentError):
            balance_check(data, ps)

    def test_affine_covariate_maps_leave_verdict_alone(self):
        # Rescaling and shifting covariate columns changes the logistic
        # coefficients but not the fitted scores or their span, so both
        # pseudo-R2 values should match to rounding.
        data = _hom(21, n=400)
        spec = ModelSpec(ps_terms=("1", "x1", "x2", "v"))
        rep1 = balance_check(data, fit_propensity(data, spec))
        shift = np.array([5.0, -2.0, 100.0])
        scale = np.array([0.5, 40.0, 3.0])
        mapped = PanelDataset(
            covariate_names=data.covariate_names,
            unit_ids=data.unit_ids.copy(),
            y0=data.y0.copy(),
            y1=data.y1.copy(),
            d1=data.d1.copy(),
            x0=shift + scale * data.x0,
            x1=shift + scale * data.x1,
        )
        rep2 = balance_check(mapped, fit_propensity(mapped, spec))
        assert abs(rep1.r2_ps_only - rep2.r2_ps_only) < 1e-10
        assert abs(rep1.r2_with_covariates - rep2.r2_with_covariates) < 1e-10
        assert rep1.balanced == rep2.balanced


class TestBackwardEliminate:
    def test_alpha_validation(self):
        data = _hom(530, n=80)
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1"))
        for alpha in (0.0, -0.2, 1.5):
            with pytest.raises(InvalidArgumentError):
                backward_eliminate(data, spec, alpha=alpha)

    def test_forced_terms_only_passes_through(self):
        data = _hom(531, n=80)
        spec = ModelSpec(outcome_terms=("1", "time", "treat"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", EmptyModelWarning)
            out = backward_eliminate(data, spec)
        assert [term_label(t) for t in out.outcome_terms] == ["1", "time", "treat"]
        assert out.ps_terms == ()

    def test_strong_signals_survive(self):
        data = _hom(600, n=500)
        full = ModelSpec(
            outcome_terms=("1", "time", "treat", "x1", "x2", "v"),
            ps_terms=("1", "x1", "x2", "v"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = backward_eliminate(data, full)
        out_labels = [term_label(t) for t in out.outcome_terms]
        ps_labels = [term_label(t) for t in out.ps_terms]
        assert "x1" in out_labels
        assert "x1" in ps_labels
        for forced in ("1", "time", "treat"):
            assert forced in out_labels

    def test_spec_order_of_survivors_is_preserved(self):
        data = _hom(532, n=400)
        full = ModelSpec(outcome_terms=("1", "time", "treat", "x2", "x1"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = backward_eliminate(data, full)
        labels = [term_label(t) for t in out.outcome_terms]
        assert labels[:3] == ["1", "time", "treat"]
        assert labels == sorted(labels, key=("1", "time", "treat", "x2", "x1").index)

    def test_pure_noise_terms_can_all_be_eliminated(self):
        rng = substream(999, 0)
        n = 500
        z1, z2, z3 = (rng.standard_normal(n) for _ in range(3))
        d = (rng.random(n) < 0.5).astype(np.int64)
        u = rng.normal(0.0, np.sqrt(30.0), n)
        e0 = rng.normal(0.0, np.sqrt(20.0), n)
        e1 = rng.normal(0.0, np.sqrt(20.0), n)
        data = make_dataset(
            10.0 + u + e0,
            13.0 + 15.0 * d + u + e1,
            d,
            covariates=[z1, z2, z3],
            names=("z1", "z2", "z3"),
        )
        full = ModelSpec(
            outcome_terms=("1", "time", "treat", "z1", "z2", "z3"),
            ps_terms=("1", "z1", "z2", "z3"),
        )
        with pytest.warns(EmptyModelWarning):
            out = backward_eliminate(data, full, alpha=0.10)
        assert [term_label(t) for t in out.outcome_terms] == ["1", "time", "treat"]
        assert [term_label(t) for t in out.ps_terms] == ["1"]

    @pytest.mark.parametrize("seed", [33, 98, 131, 140])
    def test_treatment_model_without_covariance_fails_typed(self, seed):
        # The treatment model (1, x, w) leaves no covariance to test x and w
        # with: a NaN standard error would read as p = 0 and keep both.
        x, w, d = near_collinear_treatment(seed)
        data = make_dataset(np.zeros(40), d, d, covariates=[x, w], names=("x", "w"))
        spec = ModelSpec(outcome_terms=("1", "time", "treat"), ps_terms=("1", "x", "w"))
        with pytest.raises(NonFiniteLikelihoodError, match="nearly collinear"):
            backward_eliminate(data, spec)

    def test_random_effect_choice_is_kept(self):
        data = _hom(533, n=300)
        full = ModelSpec(
            outcome_terms=("1", "time", "treat", "x1", "x2"),
            random_effect="none",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = backward_eliminate(data, full)
        assert out.random_effect == "none"
        assert [term_label(t) for t in out.outcome_terms][:3] == ["1", "time", "treat"]
