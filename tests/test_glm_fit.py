"""Treatment-model fitting by IRLS and the propensity features built on it."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from panel_causal import (
    DegenerateBinsWarning,
    ExtremeWeightsWarning,
    InvalidArgumentError,
    ModelSpec,
    NonBinaryTreatmentError,
    NonFiniteLikelihoodError,
    NoVariationInOutcomeError,
    RankDeficientDesignError,
    SeparationError,
    fit_logistic,
    fit_propensity,
    ps_quantile_dummies,
    substream,
)
from panel_causal import glm_fit
from panel_causal.glm_fit import _check_k_bins, _fit_logistic_batch, _quantile_bins_batch
from panel_causal.lmm_fit import _NOT_PD, _OK, _ONE_CLASS, _SINGULAR, _STALLED, _Rows

from helpers import (
    assert_same_bits,
    bins_reference,
    check_rank_verdict,
    extreme_ps_dataset,
    fit_logistic_batch_reference,
    make_dataset,
    near_collinear_treatment,
    quantile_bins_batch_reference,
    quantile_bins_reference,
    rank_probe_designs,
)


def _neg_loglik(alpha, X, y):
    eta = X @ alpha
    return float(np.sum(np.logaddexp(0.0, eta) - y * eta))


def _neg_score(alpha, X, y):
    return -X.T @ (y - expit(X @ alpha))


def _sim_logit(seed, n=300, beta=(0.3, -0.5, 0.8)):
    rng = substream(seed, 0)
    x = rng.standard_normal((n, len(beta) - 1))
    X = np.column_stack([np.ones(n), x])
    y = (rng.random(n) < expit(X @ np.asarray(beta))).astype(float)
    return X, y


class TestFitLogistic:
    def test_intercept_only_half_treated(self):
        X = np.ones((10, 1))
        y = np.array([1.0] * 5 + [0.0] * 5)
        fit = fit_logistic(X, y)
        assert fit.alpha_hat[0] == 0.0
        np.testing.assert_array_equal(fit.fitted_ps, np.full(10, 0.5))
        assert fit.converged

    def test_matches_direct_minimizer(self):
        X, y = _sim_logit(202)
        fit = fit_logistic(X, y)
        res = minimize(
            _neg_loglik, np.zeros(X.shape[1]), args=(X, y),
            jac=_neg_score, method="BFGS",
            options={"gtol": 1e-12, "maxiter": 500},
        )
        np.testing.assert_allclose(fit.alpha_hat, res.x, atol=1e-7)
        assert abs(fit.deviance - 2.0 * res.fun) < 1e-8

    def test_score_equations_hold(self):
        X, y = _sim_logit(203)
        fit = fit_logistic(X, y)
        score = X.T @ (y - fit.fitted_ps)
        assert np.max(np.abs(score)) < 1e-8

    def test_deviance_matches_formula(self):
        X, y = _sim_logit(204)
        fit = fit_logistic(X, y)
        p = fit.fitted_ps
        dev = -2.0 * np.sum(y * np.log(p) + (1.0 - y) * np.log1p(-p))
        assert abs(fit.deviance - dev) < 1e-9

    def test_unit_reordering_invariance(self):
        X, y = _sim_logit(205)
        perm = substream(205, 1).permutation(len(y))
        a = fit_logistic(X, y)
        b = fit_logistic(X[perm], y[perm])
        np.testing.assert_allclose(a.alpha_hat, b.alpha_hat, atol=1e-10)
        np.testing.assert_allclose(a.fitted_ps[perm], b.fitted_ps, atol=1e-10)

    def test_covariate_rescaling(self):
        X, y = _sim_logit(206)
        c = 40.0
        X2 = X.copy()
        X2[:, 1] *= c
        a = fit_logistic(X, y)
        b = fit_logistic(X2, y)
        np.testing.assert_allclose(b.alpha_hat[1], a.alpha_hat[1] / c, rtol=1e-8)
        np.testing.assert_allclose(b.alpha_hat[[0, 2]], a.alpha_hat[[0, 2]], rtol=1e-8)
        np.testing.assert_allclose(b.fitted_ps, a.fitted_ps, atol=1e-10)

    def test_perfect_separation(self):
        x = np.array([-2.0, -1.0, 1.0, 2.0])
        X = np.column_stack([np.ones(4), x])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(SeparationError):
            fit_logistic(X, y)

    def test_one_outcome_class(self):
        X = np.ones((6, 1))
        with pytest.raises(NoVariationInOutcomeError):
            fit_logistic(X, np.ones(6))

    def test_nonbinary_outcome(self):
        X = np.ones((4, 1))
        with pytest.raises(NonBinaryTreatmentError):
            fit_logistic(X, np.array([0.0, 1.0, 2.0, 0.0]))

    def test_rank_deficient_design(self):
        X, y = _sim_logit(207)
        X2 = np.column_stack([X, X[:, 1]])
        with pytest.raises(RankDeficientDesignError):
            fit_logistic(X2, y)
        # Around matrix_rank's threshold the verdict is matrix_rank's.
        for (X3,) in rank_probe_designs(X):
            check_rank_verdict(lambda A: fit_logistic(A, y), X3)

    def test_collinear_columns_at_the_first_step_fail_typed(self):
        # (1, x, x + 1e-9 cos i) is full rank by matrix_rank, and no
        # predictor separates the classes.  At the first Newton step every
        # weight is 1/4, so a step that cannot be solved there means the
        # design's own Gram matrix is singular in floating point: nearly
        # collinear columns, not separation.  (Most of these fits trip the
        # coefficient bound instead, which still reports separation.)
        collinear = 0
        for seed in range(60, 120):
            rng = substream(seed, 0)
            d = (rng.random(150) < 0.4).astype(float)
            x = rng.standard_normal(150)
            _, (X,), _ = rank_probe_designs(np.column_stack([np.ones(150), x]))
            with np.errstate(all="ignore"):
                fits = _fit_logistic_batch(_Rows(X[None], d[None]), np.ones((1, 150)))
            status, steps = fits.status[0], fits.n_iter[0]
            assert status != _SINGULAR or steps > 1
            if status == _NOT_PD:
                assert steps == 1
                collinear += 1
                with pytest.raises(NonFiniteLikelihoodError, match="nearly collinear"):
                    fit_logistic(X, d)
        assert collinear > 0

    @pytest.mark.parametrize("seed", [33, 98, 131, 140])
    def test_singular_information_leaves_no_covariance(self, seed):
        # The fit converges, but its information matrix is singular in
        # floating point: its inverse has a negative variance (seeds 33
        # and 98) or does not exist (131 and 140).  The scores are the
        # result; there is no covariance.
        x, w, d = near_collinear_treatment(seed)
        fit = fit_logistic(np.column_stack([np.ones(40), x, w]), d)
        assert fit.converged and np.all((fit.fitted_ps > 0.0) & (fit.fitted_ps < 1.0))
        assert fit.cov_alpha is None

    def test_shape_validation(self):
        with pytest.raises(InvalidArgumentError):
            fit_logistic(np.ones(5), np.zeros(5))
        with pytest.raises(InvalidArgumentError):
            fit_logistic(np.ones((5, 1)), np.zeros(4))

    def test_nonfinite_rejected(self):
        X, y = _sim_logit(208)
        X2 = X.copy()
        X2[0, 1] = np.nan
        with pytest.raises(InvalidArgumentError):
            fit_logistic(X2, y)

    def test_converges_quickly(self):
        X, y = _sim_logit(209)
        fit = fit_logistic(X, y)
        assert fit.converged
        assert 1 <= fit.n_iter <= 25

    def test_covariance_is_inverse_information(self):
        X, y = _sim_logit(210)
        fit = fit_logistic(X, y)
        w = fit.fitted_ps * (1.0 - fit.fitted_ps)
        H = (X.T * w) @ X
        np.testing.assert_allclose(fit.cov_alpha, np.linalg.inv(H), rtol=1e-8)


class TestFitPropensity:
    def _dataset(self, seed, n=200, ps_coef=(0.2, 0.6, -0.4)):
        rng = substream(seed, 0)
        x = rng.standard_normal((n, 2))
        eta = ps_coef[0] + x @ np.asarray(ps_coef[1:])
        d = (rng.random(n) < expit(eta)).astype(np.int64)
        if d.min() == d.max():
            raise AssertionError("degenerate draw; pick another seed")
        y0 = rng.normal(10.0, 2.0, n)
        return make_dataset(y0, y0 + 3.0 + 2.0 * d, d,
                            covariates=[x[:, 0], x[:, 1]], names=("x1", "x2"))

    def test_matches_manual_design(self):
        data = self._dataset(301)
        spec = ModelSpec(ps_terms=("1", "x1", "x2"))
        fit = fit_propensity(data, spec)
        X = np.column_stack([np.ones(data.n), data.x0])
        ref = fit_logistic(X, data.d1.astype(float))
        np.testing.assert_array_equal(fit.alpha_hat, ref.alpha_hat)
        np.testing.assert_array_equal(fit.fitted_ps, ref.fitted_ps)
        assert fit.columns == ("1", "x1", "x2")
        assert fit.cov_alpha is not None

    def test_extreme_probability_warning(self):
        # Extreme scores are the weighting estimators' concern: the fit
        # itself reports them without a warning.
        data = extreme_ps_dataset()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ExtremeWeightsWarning)
            fit = fit_propensity(data, ModelSpec(ps_terms=("1", "x1")))
        assert fit.fitted_ps.min() < 0.01 or fit.fitted_ps.max() > 0.99

    def test_probabilities_strictly_inside_unit_interval(self):
        data = self._dataset(303)
        fit = fit_propensity(data, ModelSpec(ps_terms=("1", "x1", "x2")))
        assert np.all(fit.fitted_ps > 0.0)
        assert np.all(fit.fitted_ps < 1.0)
        assert fit.fitted_ps.shape == (data.n,)


class TestPsQuantileDummies:
    def test_ten_units_five_bins(self):
        ps = np.arange(1, 11) / 10.0
        out = ps_quantile_dummies(ps, K=5)
        np.testing.assert_allclose(out.bin_edges, [0.28, 0.46, 0.64, 0.82])
        assert out.dummies.shape == (10, 4)
        np.testing.assert_array_equal(out.dummies.sum(axis=0), [2, 2, 2, 2])
        # lowest bin is the reference: no dummy for the first two units
        np.testing.assert_array_equal(out.dummies[:2].sum(axis=1), [0, 0])
        assert np.all(out.dummies.sum(axis=1) <= 1)
        assert not out.collapsed

    def test_constant_scores_collapse(self):
        with pytest.warns(DegenerateBinsWarning):
            out = ps_quantile_dummies(np.full(20, 0.5), K=5)
        assert out.dummies.shape == (20, 0)
        assert out.collapsed

    def test_tie_at_cut_point_goes_to_lower_bin(self):
        ps = np.array([0.1, 0.2, 0.2, 0.3])
        out = ps_quantile_dummies(ps, K=2)
        np.testing.assert_array_equal(out.bins, [0, 0, 0, 1])
        np.testing.assert_array_equal(out.dummies[:, 0], [0, 0, 0, 1])

    def test_equal_frequency_without_ties(self):
        ps = substream(44, 0).uniform(0.05, 0.95, 100)
        out = ps_quantile_dummies(ps, K=5)
        counts = np.bincount(out.bins, minlength=5)
        assert np.all((counts == 20) | (counts == 21) | (counts == 19))
        assert out.dummies.shape[1] == 4
        assert np.all(out.dummies.sum(axis=1) <= 1)
        assert not out.collapsed

    def test_membership_exhaustive(self):
        ps = substream(45, 0).uniform(0.1, 0.9, 37)
        out = ps_quantile_dummies(ps, K=4)
        in_reference = out.dummies.sum(axis=1) == 0
        assert np.all((out.bins == 0) == in_reference)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ps_quantile_dummies(np.linspace(0.1, 0.9, 10), K=1)
        with pytest.raises(InvalidArgumentError):
            ps_quantile_dummies(np.array([0.2, 0.4]), K=5)
        with pytest.raises(InvalidArgumentError):
            ps_quantile_dummies(np.full((4, 2), 0.5), K=2)

    def test_non_integral_bin_count_rejected(self):
        ps = np.linspace(0.1, 0.9, 10)
        for K in (2.5, np.float64(4.2), "3"):
            with pytest.raises(InvalidArgumentError, match="integer"):
                ps_quantile_dummies(ps, K=K)
            with pytest.raises(InvalidArgumentError, match="integer"):
                _check_k_bins(K)
        assert _check_k_bins(3.0) == _check_k_bins(np.int32(3)) == 3
        np.testing.assert_array_equal(ps_quantile_dummies(ps, K=2.0).bins,
                                      ps_quantile_dummies(ps, K=2).bins)

    @pytest.mark.parametrize("ps", [substream(46, 0).uniform(0.1, 0.9, 30),
                                    np.array([0.1, 0.1, 0.1, 0.1, 0.4, 0.4, 0.7, 0.9])])
    def test_dummies_are_the_kernels_labels(self, ps):
        # The dummies and the batch fits read one bin numbering: column j
        # is the indicator of label j + 1.  The tied scores fill bins 0, 1
        # and 3 of 5, so their labels renumber bin 3 as 2.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateBinsWarning)
            out = ps_quantile_dummies(ps, K=5)
        cut = _quantile_bins_batch(ps[None], np.ones((1, ps.size)), 5)
        labels, n_bins = cut.labels[0], cut.n_bins[0]
        assert out.collapsed == (n_bins < 5) == (not np.array_equal(labels, cut.bins[0]))
        assert_same_bits(out.dummies,
                         np.stack([labels == j for j in range(1, n_bins)], axis=1).astype(float))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_rejected(self, bad):
        ps = np.linspace(0.1, 0.9, 10)
        ps[3] = bad
        with pytest.raises(InvalidArgumentError):
            ps_quantile_dummies(ps, K=2)

    @pytest.mark.parametrize("ps", [np.arange(1, 11) / 10.0,
                                    np.array([0.1, 0.2, 0.2, 0.3, 0.5, 0.5, 0.5, 0.9]),
                                    np.repeat([0.3, 0.6], 5)])
    def test_matches_the_reference_rule(self, ps):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateBinsWarning)
            out = ps_quantile_dummies(ps, K=4)
        bins, edges = quantile_bins_reference(ps, 4)
        np.testing.assert_array_equal(out.bins, bins)
        np.testing.assert_array_equal(out.bin_edges, edges)
        assert out.dummies.shape[1] == len(np.unique(bins)) - 1


class TestCountWeightedBins:
    """The bins of a resample from its unit counts must be the bins numpy's
    quantile rule gives the expanded sample, bin for bin and cut for cut."""

    @staticmethod
    def _assert_expanded(ps, C, K):
        fits = _quantile_bins_batch(np.tile(ps, (C.shape[0], 1)), C, K)
        for r in range(C.shape[0]):
            c = C[r].astype(int)
            bins, edges = quantile_bins_reference(np.repeat(ps, c), K)
            np.testing.assert_array_equal(np.repeat(fits.bins[r], c), bins)
            np.testing.assert_array_equal(fits.edges[r][fits.distinct[r]], edges)
            assert fits.occupied.all(axis=1)[r] == (len(np.unique(bins)) == K)

    @given(
        base=st.lists(st.sampled_from([0.1, 0.25, 0.25, 0.4, 0.6, 0.9]) | st.floats(0.01, 0.99),
                      min_size=2, max_size=30),
        counts=st.lists(st.lists(st.integers(0, 3), min_size=30, max_size=30),
                        min_size=1, max_size=4),
        K=st.integers(2, 6),
    )
    def test_bins_of_the_expanded_sample(self, base, counts, K):
        ps = np.array(base)
        C = np.array(counts, dtype=float)[:, :ps.size]
        C[:, 0] += K  # every resample has at least K units
        self._assert_expanded(ps, C, K)

    def test_ties_and_zero_counts(self):
        ps = np.array([0.1, 0.2, 0.2, 0.3, 0.5, 0.5, 0.7, 0.9])
        C = np.array([[1, 2, 0, 1, 1, 0, 2, 1],
                      [0, 1, 1, 1, 0, 3, 1, 1],
                      [1, 1, 1, 1, 1, 1, 1, 1]], dtype=float)
        self._assert_expanded(ps, C, 4)


class TestKernelsAreTheirFirstFormulation:
    """The logistic and binning kernels return the arrays of their first
    formulations (``tests/helpers.py``) bit for bit: a rewrite for speed
    must not move an output byte."""

    @given(
        pool=st.lists(st.sampled_from([0.1, 0.25, 0.4, 0.6, 0.9]) | st.floats(0.01, 0.99),
                      min_size=1, max_size=25),
        counts=st.lists(st.lists(st.integers(0, 4), min_size=25, max_size=25),
                        min_size=1, max_size=5),
        zero=st.lists(st.booleans(), min_size=5, max_size=5),
        failed=st.lists(st.booleans(), min_size=5, max_size=5),
        K=st.integers(2, 6),
    )
    # Counts that sum far above n (a row laid at n + 1 past the one
    # before would overlap it), an all-zero row, and a failed fit's NaN
    # scores between them.
    @example(pool=[0.1, 0.2, 0.3], counts=[[9, 9, 9], [0, 0, 0], [1, 4, 1], [2, 2, 2]],
             zero=[False] * 5, failed=[False, False, True, False, False], K=4)
    # Every row summing to n, as in a chunk of resamples: one sort.
    @example(pool=[0.4, 0.1, 0.25, 0.9, 0.25, 0.6],
             counts=[[1, 1, 1, 1, 1, 1], [2, 0, 1, 0, 3, 0], [0, 0, 6, 0, 0, 0],
                     [1, 2, 0, 1, 1, 1]],
             zero=[False] * 5, failed=[False] * 5, K=3)
    # One row of ones, as in a point estimate.
    @example(pool=[0.3, 0.1, 0.9, 0.5, 0.7], counts=[[1, 1, 1, 1, 1]],
             zero=[False] * 5, failed=[False] * 5, K=5)
    # Two totals and an all-zero row in one batch.
    @example(pool=[0.2, 0.6, 0.4, 0.8], counts=[[1, 1, 1, 1], [0, 0, 0, 0], [3, 0, 2, 1],
                                                [1, 1, 1, 1]],
             zero=[False] * 5, failed=[False] * 5, K=2)
    def test_bins(self, pool, counts, zero, failed, K):
        n = len(pool)
        C = np.array(counts, dtype=float)[:, :n]
        k = C.shape[0]
        C[np.array(zero[:k])] = 0.0
        # Each fit ranks the units its own way, ties included.
        ps = np.array([np.roll(pool, r) for r in range(k)])
        ps[np.array(failed[:k])] = np.nan
        with np.errstate(all="ignore"):
            got = _quantile_bins_batch(ps, C, K)
            want = quantile_bins_batch_reference(ps, C, K)
            for name, value in want.items():
                assert_same_bits(getattr(got, name), value)
            labels, n_bins = bins_reference(ps, C, K)
            assert_same_bits(got.labels, labels)
            assert_same_bits(got.n_bins, n_bins)

    @pytest.mark.parametrize("collapsed", [False, True])
    def test_bins_kept_or_renumbered(self, collapsed):
        # A batch in which every fit fills every bin keeps the bins as cut;
        # one fit with tied scores collapses a bin, and the batch's bins
        # are renumbered.
        ps = np.array([[0.1, 0.5, 0.2, 0.4, 0.3, 0.6],
                       [0.1, 0.1, 0.1, 0.1, 0.5, 0.6] if collapsed
                       else [0.6, 0.5, 0.4, 0.3, 0.2, 0.1]])
        C = np.array([[1, 1, 1, 1, 1, 1], [2, 0, 1, 1, 1, 1]], dtype=float)
        got = _quantile_bins_batch(ps, C, 3)
        assert got.occupied.all() != collapsed
        labels, n_bins = bins_reference(ps, C, 3)
        assert_same_bits(got.labels, labels)
        assert_same_bits(got.n_bins, n_bins)

    @staticmethod
    def _batch(seed, k, n, shared, strength, one_class, outlier):
        """Treatment fits on a design shared by k count rows, or one design
        per fit; a row of ``one_class`` 0 or 1 counts only that class, and
        ``outlier`` puts one treated unit far out on x."""
        rng = substream(seed, 0)
        x = rng.standard_normal((1 if shared else k, n))
        d = (rng.random(x.shape) < expit(strength * x)).astype(float)
        X = np.stack([np.ones_like(x), x], axis=-1)
        C = rng.integers(0, 3, (k, n)).astype(float)
        if outlier:
            X[:, 0, 1], d[:, 0], C[:, 0] = 400.0, 1.0, C[:, 0] + 1.0
        for r, cls in enumerate(one_class[:k]):
            if cls is not None:
                C[r, d[0 if shared else r] != cls] = 0.0
        rows = _Rows(X[0], d[0]) if shared else _Rows(X, d)
        return rows, C

    _ENDINGS = dict(seed=1, k=6, n=30, shared=True, strength=2.0,
                    one_class=[None, 1, None, 0, None, None], outlier=True)

    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 6),
        n=st.integers(8, 40),
        shared=st.booleans(),
        strength=st.floats(0.0, 4.0),
        one_class=st.lists(st.sampled_from([None, None, None, 0, 1]), min_size=6, max_size=6),
        outlier=st.booleans(),
        max_iter=st.sampled_from([100, 100, 5]),
    )
    @example(max_iter=5, **_ENDINGS)
    @example(max_iter=100, **_ENDINGS)
    def test_logistic(self, seed, k, n, shared, strength, one_class, outlier, max_iter):
        rows, C = self._batch(seed, k, n, shared, strength, one_class, outlier)
        # A cap of 5 steps stops some fits unconverged, and the outlier's
        # probability at the edge then marks them stalled.
        with mock.patch.object(glm_fit, "_MAX_ITER", max_iter), np.errstate(all="ignore"):
            got = _fit_logistic_batch(rows, C)
            want = fit_logistic_batch_reference(rows, C)
        for name, value in want.items():
            assert_same_bits(getattr(got, name), value)

    def test_logistic_examples_reach_every_ending(self):
        # The explicit examples of test_logistic: one-class rows, fits that
        # converge at different steps, and, under the 5-step cap, fits
        # stalled at the edge next to fits that still count as running.
        rows, C = self._batch(**self._ENDINGS)
        with np.errstate(all="ignore"):
            fits = _fit_logistic_batch(rows, C)
            with mock.patch.object(glm_fit, "_MAX_ITER", 5):
                capped = _fit_logistic_batch(rows, C)
        assert {1, 3} <= set(np.flatnonzero(fits.status == _ONE_CLASS))
        assert len(set(fits.n_iter[fits.converged])) > 1
        assert _STALLED in capped.status and _OK in capped.status[fits.status == _OK]
