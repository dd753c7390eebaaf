"""Estimator algebra: hand-computable values, exact identities, components."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from panel_causal import (
    DegenerateBinsWarning,
    ExtremeWeightsWarning,
    InvalidArgumentError,
    ModelSpec,
    NonFiniteLikelihoodError,
    NonPositiveLogError,
    PSFit,
    RankDeficientDesignError,
    Scenario,
    SeparationError,
    build_design,
    estimate_did,
    estimate_drglmm,
    estimate_effects,
    estimate_glmm,
    estimate_ipw,
    estimate_ipwdid,
    estimate_or,
    fit_lmm,
    fit_or,
    fit_propensity,
    generate_scenario,
    ps_quantile_dummies,
    scenario_specs,
    substream,
    true_effects,
)

from panel_causal import glm_fit

from helpers import did_toy, extreme_ps_dataset, ipw_toy, make_dataset, shift_responses


def _const_ps(data, p):
    return PSFit(
        alpha_hat=np.array([np.log(p / (1.0 - p))]),
        fitted_ps=np.full(data.n, p),
        n_iter=1,
        converged=True,
        deviance=0.0,
    )


def _nan_ps(data):
    """The fitted treatment model of ``data`` with one score set to NaN."""
    fit = fit_propensity(data, ModelSpec(ps_terms=("1", "x1", "x2", "v")))
    ps = fit.fitted_ps.copy()
    ps[7] = np.nan
    return PSFit(fit.alpha_hat, ps, fit.n_iter, fit.converged, fit.deviance)


def _hom(seed, n=300):
    return generate_scenario(Scenario("HOM", n), seed)


class TestEstimateOr:
    def test_no_interaction_ate_att_equal_coefficient(self):
        data = _hom(400)
        spec = ModelSpec(outcome_terms=("1", "treat", "x1", "x2", "v"))
        out = estimate_or(data, spec)
        design = build_design(data, spec, pre_period=False)
        from panel_causal import fit_or
        beta = fit_or(design.X, data.y1).fixed_effects[list(design.columns).index("treat")]
        assert abs(out["ATE"].value - beta) < 1e-12
        assert abs(out["ATT"].value - beta) < 1e-12

    def test_noise_free_interaction_is_exact(self):
        rng = substream(401, 0)
        n = 120
        x = rng.normal(2.0, 1.0, n)
        d = (rng.random(n) < 0.5).astype(np.int64)
        d[0], d[1] = 1, 0
        y1 = 4.0 + 1.5 * x + (15.0 + x) * d
        y0 = np.zeros(n)
        data = make_dataset(y0, y1, d, covariates=[x], names=("x1",))
        out = estimate_or(data, ModelSpec(outcome_terms=("1", "treat", "x1", "x1:treat")))
        assert abs(out["ATE"].value - (15.0 + x.mean())) < 1e-10
        assert abs(out["ATT"].value - (15.0 + x[d == 1].mean())) < 1e-10

    def test_log_term_non_positive_only_at_baseline(self):
        # OR reads the post period only, so a covariate that is positive at
        # t=1 fits under log() whatever its t=0 values; the mixed model
        # needs both periods and must refuse it.
        rng = substream(403, 0)
        n = 80
        x1 = rng.uniform(1.0, 3.0, n)
        x0 = x1 - 2.0
        assert np.any(x0 <= 0.0)
        d = (rng.random(n) < 0.5).astype(np.int64)
        d[0], d[1] = 1, 0
        y1 = 4.0 + 2.0 * np.log(x1) + 5.0 * d + rng.normal(0.0, 0.1, n)
        data = make_dataset(rng.normal(0.0, 1.0, n), y1, d, covariates=[x0],
                            covariates_post=[x1], names=("x1",))
        spec = ModelSpec(outcome_terms=("1", "treat", "log(x1)"))
        out = estimate_or(data, spec)
        assert abs(out["ATE"].value - 5.0) < 0.1
        with pytest.raises(NonPositiveLogError):
            estimate_glmm(data, ModelSpec(outcome_terms=("1", "time", "treat", "log(x1)")))

    @pytest.mark.parametrize("terms", [("1", "time", "treat", "x1"),
                                       ("1", "treat", "x1", "x1")], ids=["time", "duplicate"])
    def test_collinear_terms_are_rank_deficient(self, terms):
        # A time term is collinear with the intercept in the post period.
        data = _hom(402)
        with pytest.raises(RankDeficientDesignError,
                           match="^design has rank below its 4 columns$"):
            estimate_or(data, ModelSpec(outcome_terms=terms))

    def test_full_model_recovers_effect(self):
        # Band is 3 Monte Carlo SDs (0.634, measured once over 400
        # replicates of this fit at n=500); this seed came out at 15.01.
        data = _hom(3, n=500)
        out = estimate_or(data, scenario_specs("HOM")["post_full"])
        assert abs(out["ATE"].value - 15.0) < 1.9

    def test_omitting_confounder_biases_upward(self):
        # Treatment probability rises with x2, and x2 raises the response
        # both directly and through log(x2).  Dropping every x2 term leaves
        # that lift in the treatment coefficient: at n=5000 the reduced
        # model lands at 15.96 while the full model on the same data gives
        # 15.03.
        specs = scenario_specs("HOM")
        data = generate_scenario(Scenario("HOM", 5000), 0)
        bias = estimate_or(data, specs["post_reduced"])["ATE"].value - 15.0
        assert 0.5 < bias < 1.4
        assert abs(estimate_or(data, specs["post_full"])["ATE"].value - 15.0) < 0.5

    def test_location_equivariance(self):
        data = _hom(403)
        spec = ModelSpec(outcome_terms=("1", "treat", "x1", "x2"))
        a = estimate_or(data, spec)
        b = estimate_or(shift_responses(data, 1000.0), spec)
        assert abs(a["ATE"].value - b["ATE"].value) < 1e-9
        assert abs(a["ATT"].value - b["ATT"].value) < 1e-9


class TestEstimateGlmm:
    def test_no_interaction_ate_att_equal_coefficient(self):
        data = _hom(410)
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1", "x2", "v"))
        out = estimate_glmm(data, spec)
        design = build_design(data, spec, pre_period=True)
        fit = fit_lmm(design.X0, design.X, data.y0, data.y1)
        beta = fit.fixed_effects[list(design.columns).index("treat")]
        assert abs(out["ATE"].value - beta) < 1e-12
        assert abs(out["ATT"].value - beta) < 1e-12
        assert out["ATE"].components["sigma_u2"] == fit.sigma_u2

    def test_location_equivariance(self):
        data = _hom(412)
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1", "x2"))
        a = estimate_glmm(data, spec)
        b = estimate_glmm(shift_responses(data, -500.0), spec)
        assert abs(a["ATE"].value - b["ATE"].value) < 1e-9
        assert abs(a["ATT"].value - b["ATT"].value) < 1e-9

    def test_without_random_effect(self):
        data = _hom(413, n=500)
        spec = ModelSpec(
            outcome_terms=("1", "time", "treat", "x1", "x2", "v"),
            random_effect="none",
        )
        out = estimate_glmm(data, spec)
        assert out["ATE"].components["sigma_u2"] == 0.0
        assert abs(out["ATE"].value - 15.0) < 3.0

    def test_exact_fit_without_random_effect(self):
        # A noise-free response: least squares on the two blocks stacked
        # recovers the effect exactly, and the residual variance is only
        # round-off (the random-intercept kernel's verdict, not a floor).
        rng = substream(414, 0)
        n = 120
        x = rng.normal(2.0, 1.0, n)
        d = (rng.random(n) < 0.5).astype(np.int64)
        d[0], d[1] = 1, 0
        y0 = 4.0 + 1.5 * x
        y1 = y0 + 3.0 + 15.0 * d
        data = make_dataset(y0, y1, d, covariates=[x], names=("x1",))
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1"), random_effect="none")
        out = estimate_glmm(data, spec)
        assert abs(out["ATE"].value - 15.0) < 1e-10
        assert abs(out["ATT"].value - 15.0) < 1e-10
        assert out["ATE"].components["sigma_u2"] == 0.0
        assert 0.0 <= out["ATE"].components["sigma_e2"] < 1e-20

    def test_recovers_heterogeneous_effects(self):
        # HET makes the effect 15 + x1(post), so ATE and ATT truths differ.
        # Bands are 3 Monte Carlo SDs (0.535 ATE, 0.534 ATT, measured once
        # over 400 replicates at n=500); this seed: 35.42 and 35.92.
        data = generate_scenario(Scenario("HET", 500), 3)
        truth = true_effects(Scenario("HET", 500))
        out = estimate_glmm(data, scenario_specs("HET")["mixed_full"])
        assert abs(out["ATE"].value - truth.ate) < 1.61
        assert abs(out["ATT"].value - truth.att) < 1.61


class TestMixedModelFailures:
    """The errors of the mixed-model point estimates, with their messages."""

    @pytest.mark.parametrize("random_effect", ["unit_intercept", "none"])
    @pytest.mark.parametrize("method", ["GLMM", "DRGLMM"])
    def test_duplicated_term_is_rank_deficient(self, method, random_effect):
        data = _hom(404, n=200)
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1", "x1"),
                         random_effect=random_effect, ps_terms=("1", "x1", "x2", "v"))
        with pytest.raises(RankDeficientDesignError,
                           match="^the two design blocks stacked have rank below their 5 "
                                 "columns$"):
            estimate_effects(method, data, spec)

    @pytest.mark.parametrize("random_effect,message", [
        ("unit_intercept",
         r"^profiled likelihood is degenerate everywhere \(zero residual variance\?\)$"),
        ("none", "^degenerate residual variance at the optimum$"),
    ], ids=["unit_intercept", "none"])
    @pytest.mark.parametrize("method", ["GLMM", "DRGLMM"])
    def test_zero_response_has_no_residual_variance(self, method, random_effect, message):
        data = _hom(405, n=200)
        zero = make_dataset(np.zeros(data.n), np.zeros(data.n), data.d1,
                            covariates=list(data.x0.T), names=data.covariate_names)
        spec = replace(scenario_specs("HOM")["mixed_full"], random_effect=random_effect)
        with pytest.raises(NonFiniteLikelihoodError, match=message):
            estimate_effects(method, zero, spec)
        # Outcome regression fits the zero response exactly.
        out = estimate_effects("OR", zero, scenario_specs("HOM")["post_full"])
        assert out["ATE"].value == out["ATT"].value == 0.0


class TestEstimateIpw:
    def test_toy_hand_value(self):
        data = ipw_toy()
        out = estimate_ipw(data, _const_ps(data, 0.5))
        assert abs(out["ATE"].value - 3.0) < 1e-12
        c = out["ATE"].components
        assert abs(c["ht_treated"] - 7.0) < 1e-12
        assert abs(c["ht_control"] - 4.0) < 1e-12

    def test_att_collapses_to_mean_difference_at_sample_share(self):
        data = _hom(420)
        p = data.d1.mean()
        out = estimate_ipw(data, _const_ps(data, p))
        want = data.y1[data.d1 == 1].mean() - data.y1[data.d1 == 0].mean()
        assert abs(out["ATT"].value - want) < 1e-10

    def test_extreme_scores_warn(self):
        data = ipw_toy()
        ps = _const_ps(data, 0.5)
        bad = PSFit(ps.alpha_hat, np.array([0.001, 0.5, 0.5, 0.5]), 1, True, 0.0)
        with pytest.warns(ExtremeWeightsWarning) as caught:
            estimate_ipw(data, bad)
        assert len(caught) == 1

    def test_ps_validation(self):
        data = ipw_toy()
        short = PSFit(np.zeros(1), np.full(3, 0.5), 1, True, 0.0)
        with pytest.raises(InvalidArgumentError):
            estimate_ipw(data, short)
        pinned = PSFit(np.zeros(1), np.array([0.0, 0.5, 0.5, 0.5]), 1, True, 0.0)
        with pytest.raises(InvalidArgumentError):
            estimate_ipw(data, pinned)

    def test_nan_score_rejected(self):
        data = _hom(443, n=200)
        with pytest.raises(InvalidArgumentError):
            estimate_ipw(data, _nan_ps(data))


class TestOwnTreatmentModel:
    """A method that fits its own treatment model fits it by the batch
    kernel, as a replicate does, with the scores, errors and warnings of
    fitting it by fit_propensity first."""

    SPEC = ModelSpec(outcome_terms=("1", "time", "treat", "x1", "x2"),
                     ps_terms=("1", "x1", "x2", "v"))

    @staticmethod
    def _outcome(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = call()
            except Exception as exc:
                out = (type(exc), str(exc))
            else:
                out = {e: (v.value, v.components) for e, v in out.items()}
        return out, [(w.category, str(w.message)) for w in caught]

    def _assert_as_if_fitted_first(self, data, spec, methods=("IPW", "IPWDID", "DRGLMM")):
        for method in methods:
            own = self._outcome(lambda: estimate_effects(method, data, spec))
            first = self._outcome(
                lambda: estimate_effects(method, data, spec, fit_propensity(data, spec)))
            assert own == first, method
        return own

    def test_scores_are_the_public_fit(self):
        data = _hom(451)
        self._assert_as_if_fitted_first(data, self.SPEC)
        # Bare terms serve both models of DRGLMM.
        self._assert_as_if_fitted_first(data, ("1", "x1", "x2"))

    def test_failures_are_the_public_fit(self):
        rng = substream(452, 0)
        n = 200
        x = rng.standard_normal(n)
        y0 = rng.standard_normal(n)
        d = (x > 0.0).astype(int)
        separated = make_dataset(y0, y0 + d, d, covariates=[x], names=("x1",))
        out, _ = self._assert_as_if_fitted_first(separated, ("1", "x1"))
        assert out[0] is SeparationError
        d = (rng.random(n) < 0.5).astype(int)
        duplicated = make_dataset(y0, y0 + d, d, covariates=[x, x], names=("x1", "x2"))
        out, _ = self._assert_as_if_fitted_first(duplicated, ("1", "x1", "x2"))
        assert out[0] is RankDeficientDesignError
        # A bare treatment term is not a propensity term.
        out, _ = self._assert_as_if_fitted_first(duplicated, ("1", "treat", "x1"))
        assert "not allowed in a propensity model" in out[1]

    def test_score_of_exactly_one_is_rejected(self):
        # One treated unit far out on x1 gets a score of exactly 1.0 from a
        # fit that converged: no inverse weight exists for it.
        rng = substream(453, 0)
        n = 200
        x = rng.standard_normal(n)
        x[0] = 100.0
        d = (rng.random(n) < 1.0 / (1.0 + np.exp(-x))).astype(int)
        d[0] = 1
        y0 = rng.standard_normal(n)
        data = make_dataset(y0, y0 + d, d, covariates=[x], names=("x1",))
        assert fit_propensity(data, ("1", "x1")).fitted_ps[0] == 1.0
        out, _ = self._assert_as_if_fitted_first(data, ("1", "x1"))
        assert out == (InvalidArgumentError,
                       "fitted propensity scores must lie strictly in (0, 1)")

    def test_extreme_scores_warn_as_before(self):
        data, spec = extreme_ps_dataset(), ("1", "x1")
        _, caught = self._assert_as_if_fitted_first(data, spec, methods=("IPW", "IPWDID"))
        assert [c for c, _ in caught] == [ExtremeWeightsWarning]

    def test_no_covariance_is_computed(self, monkeypatch):
        # Only backward elimination reads the public fit's covariance.
        def covariance(*args):
            raise AssertionError("covariance computed")

        monkeypatch.setattr(glm_fit, "_covariance", covariance)
        for method in ("IPW", "IPWDID", "DRGLMM"):
            estimate_effects(method, _hom(454), self.SPEC)


class TestEstimateDid:
    def test_toy_hand_value(self):
        assert abs(estimate_did(did_toy()).value - 4.0) < 1e-12

    def test_components(self):
        est = estimate_did(did_toy())
        assert abs(est.components["post_diff"] - 3.0) < 1e-12
        assert abs(est.components["pre_diff"] - (-1.0)) < 1e-12
        assert est.estimand == "ATT"

    def test_identical_periods_give_zero(self):
        data = did_toy()
        same = make_dataset(data.y0, data.y0.copy(), data.d1)
        assert estimate_did(same).value == 0.0

    def test_common_post_shift_cancels(self):
        data = did_toy()
        shifted = make_dataset(data.y0, data.y1 + 50.0, data.d1)
        assert abs(estimate_did(shifted).value - 4.0) < 1e-12


class TestEstimateIpwdid:
    def test_exact_sample_share_equals_did(self):
        data = did_toy()
        out = estimate_ipwdid(data, _const_ps(data, 0.5))
        assert abs(out["ATE"].value - 4.0) < 1e-12
        assert abs(out["ATT"].value - 4.0) < 1e-12

    def test_intercept_only_fit_equals_did(self):
        data = _hom(430)
        ps = fit_propensity(data, ModelSpec(ps_terms=("1",)))
        out = estimate_ipwdid(data, ps)
        did = estimate_did(data).value
        assert abs(out["ATE"].value - did) < 1e-10
        assert abs(out["ATT"].value - did) < 1e-10

    def test_value_assembled_from_components(self):
        data = _hom(431)
        ps = fit_propensity(data, ModelSpec(ps_terms=("1", "x1", "x2", "v")))
        out = estimate_ipwdid(data, ps)
        c = out["ATE"].components
        assembled = (c["delta1_treated"] - c["delta1_control"]) - (
            c["delta0_treated"] - c["delta0_control"]
        )
        assert out["ATE"].value == assembled

    def test_att_matches_direct_formula(self):
        data = _hom(432)
        ps = fit_propensity(data, ModelSpec(ps_terms=("1", "x1", "x2", "v")))
        out = estimate_ipwdid(data, ps)
        d = data.d1.astype(float)
        w = d - (1.0 - d) * ps.fitted_ps / (1.0 - ps.fitted_ps)
        want = np.sum(w * (data.y1 - data.y0)) / d.sum()
        assert abs(out["ATT"].value - want) < 1e-10

    def test_location_equivariance_with_covariate_ps(self):
        data = _hom(433)
        spec = ModelSpec(ps_terms=("1", "x1", "x2", "v"))
        ps = fit_propensity(data, spec)
        shifted = shift_responses(data, 250.0)
        ps2 = fit_propensity(shifted, spec)
        a = estimate_ipwdid(data, ps)
        b = estimate_ipwdid(shifted, ps2)
        assert abs(a["ATE"].value - b["ATE"].value) < 1e-9
        assert abs(a["ATT"].value - b["ATT"].value) < 1e-9


class TestEstimateDrglmm:
    def test_constant_ps_reduces_to_glmm(self):
        data = _hom(440)
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1", "x2"))
        with pytest.warns(DegenerateBinsWarning):
            dr = estimate_drglmm(data, spec, _const_ps(data, 0.4))
        plain = estimate_glmm(data, spec)
        assert dr["ATE"].value == plain["ATE"].value
        assert dr["ATT"].value == plain["ATT"].value
        assert dr["ATE"].components["n_dummy_columns"] == 0
        assert dr["ATE"].components["bins_collapsed"] is True

    def test_nan_score_rejected(self):
        # A NaN score must not fall into a bin and leave a plain GLMM fit
        # labelled DRGLMM.
        data = _hom(443, n=200)
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1", "x2"))
        with pytest.raises(InvalidArgumentError):
            estimate_drglmm(data, spec, _nan_ps(data))

    def test_components_record_augmentation(self):
        data = _hom(441, n=400)
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1", "x2", "v"))
        ps = fit_propensity(data, ModelSpec(ps_terms=("1", "x1", "x2", "v")))
        out = estimate_drglmm(data, spec, ps)
        assert out["ATE"].components["n_dummy_columns"] == 4
        assert out["ATE"].components["bins_collapsed"] is False

    def test_no_interaction_ate_att_equal(self):
        data = _hom(442, n=400)
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1", "x2"))
        ps = fit_propensity(data, ModelSpec(ps_terms=("1", "x1", "x2", "v")))
        out = estimate_drglmm(data, spec, ps)
        assert abs(out["ATE"].value - out["ATT"].value) < 1e-12

    def test_location_equivariance(self):
        data = _hom(443, n=400)
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1", "x2"))
        ps_spec = ModelSpec(ps_terms=("1", "x1", "x2", "v"))
        a = estimate_drglmm(data, spec, fit_propensity(data, ps_spec))
        shifted = shift_responses(data, 777.0)
        b = estimate_drglmm(shifted, spec, fit_propensity(shifted, ps_spec))
        assert abs(a["ATE"].value - b["ATE"].value) < 1e-9
        assert abs(a["ATT"].value - b["ATT"].value) < 1e-9

    @pytest.mark.parametrize("random_effect", ["unit_intercept", "none"])
    @pytest.mark.parametrize("collapsed", [False, True])
    def test_matches_the_dense_dummy_fit(self, random_effect, collapsed):
        # The fit takes the bins as labels; the dense dummies appended to
        # both period blocks (fit_lmm, or fit_or on the blocks stacked) are
        # the oracle.  Two score levels, 200 units each, fill bins 0 and 2
        # of 4 only: the labels must skip the empty bin.
        data = _hom(445, n=400)
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1", "x2", "x1:treat"),
                         random_effect=random_effect)
        ps = fit_propensity(data, ModelSpec(ps_terms=("1", "x1", "x2", "v")))
        if collapsed:
            high = np.argsort(np.argsort(ps.fitted_ps)) >= 200
            ps = PSFit(ps.alpha_hat, np.where(high, 0.6, 0.3), ps.n_iter, ps.converged,
                       ps.deviance)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateBinsWarning)
            out = estimate_drglmm(data, spec, ps, k_bins=4)
            dummies = ps_quantile_dummies(ps.fitted_ps, K=4)
        assert dummies.collapsed == collapsed
        if collapsed:
            assert set(dummies.bins) == {0, 2}
        assert 0 < dummies.dummies.shape[1] == out["ATE"].components["n_dummy_columns"]
        des = build_design(data, spec, pre_period=True)
        X0, X1 = np.hstack([des.X0, dummies.dummies]), np.hstack([des.X, dummies.dummies])
        if random_effect == "none":
            fit = fit_or(np.vstack([X0, X1]), np.concatenate([data.y0, data.y1]))
        else:
            fit = fit_lmm(X0, X1, data.y0, data.y1)
        contrasts = (des.cf_treated - des.cf_control) @ fit.fixed_effects[:des.X.shape[1]]
        want = {"ATE": contrasts.mean(), "ATT": contrasts[data.d1 == 1].mean()}
        for estimand, value in want.items():
            assert abs(out[estimand].value - value) <= 1e-10 * abs(value), estimand
        comps = out["ATE"].components
        assert abs(comps["sigma_e2"] - fit.sigma_e2) <= 1e-10 * fit.sigma_e2
        assert abs(comps["sigma_u2"] - fit.sigma_u2) <= 1e-8 * fit.sigma_e2

    def test_dummy_coefficients_insignificant_under_correct_model(self):
        # When the outcome model already holds, the quantile-dummy block
        # should carry no signal: its joint Wald statistic is compared to
        # the chi-square(4) 95% cutoff.  Measured over ten seeds, nine fall
        # below (one at 10.8, consistent with the nominal 5% size); this
        # seed gives W = 2.68.
        specs = scenario_specs("HOM")
        data = generate_scenario(Scenario("HOM", 500), 0)
        ps = fit_propensity(data, specs["ps_full"])
        dmm = ps_quantile_dummies(ps.fitted_ps, K=5)
        des = build_design(data, specs["mixed_full"], pre_period=True)
        fit = fit_lmm(np.hstack([des.X0, dmm.dummies]), np.hstack([des.X, dmm.dummies]),
                      data.y0, data.y1)
        p0 = des.X.shape[1]
        zeta = fit.fixed_effects[p0:]
        cov = fit.cov_fixed[p0:, p0:]
        wald = float(zeta @ np.linalg.solve(cov, zeta))
        assert zeta.shape == (4,)
        assert wald < 9.488


class TestEstimateShapes:
    def test_every_estimator_labels_its_output(self):
        data = _hom(450)
        spec = ModelSpec(
            outcome_terms=("1", "time", "treat", "x1", "x2"),
            ps_terms=("1", "x1", "x2", "v"),
        )
        ps = fit_propensity(data, spec)
        pairs = {
            "OR": estimate_or(data, ModelSpec(outcome_terms=("1", "treat", "x1"))),
            "GLMM": estimate_glmm(data, spec),
            "IPW": estimate_ipw(data, ps),
            "IPWDID": estimate_ipwdid(data, ps),
            "DRGLMM": estimate_drglmm(data, spec, ps),
        }
        for method, out in pairs.items():
            assert set(out) == {"ATE", "ATT"}
            for estimand, est in out.items():
                assert est.method == method
                assert est.estimand == estimand
                assert np.isfinite(est.value)
        did = estimate_did(data)
        assert did.method == "DID"
        assert did.estimand == "ATT"
