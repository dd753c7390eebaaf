"""Mixed-model fitting against closed-form oracles, plus the OLS companion."""

import gc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from panel_causal import (
    InvalidArgumentError,
    ModelSpec,
    NonFiniteLikelihoodError,
    PanelCausalWarning,
    PSFit,
    RankDeficientDesignError,
    Scenario,
    build_design,
    estimate_drglmm,
    fit_lmm,
    fit_or,
    fit_propensity,
    generate_scenario,
    profile_loglik,
    ps_quantile_dummies,
    scenario_specs,
    substream,
)
from panel_causal.glm_fit import _fit_logistic_batch
from panel_causal.lmm_fit import (
    _GRID_POINTS,
    _LOG_LAMBDA_HI,
    _LOG_LAMBDA_LO,
    _ONE_CLASS,
    _RANK_DEFICIENT,
    _ROOT_STEPS,
    _XATOL,
    _find_roots,
    _fit_blocks,
    _fit_lmm_batch,
    _fit_or_batch,
    _loglik_of,
    _profile_terms,
    _rotated_rows,
    _Rows,
    _score_of,
)

from helpers import (
    anova_oracle,
    assert_same_bits,
    check_rank_verdict,
    dense_lmm_oracle,
    find_roots_reference,
    make_dataset,
    rank_probe_designs,
)


def _interleave(rows0, rows1):
    out = np.zeros((2 * rows0.shape[0],) + rows0.shape[1:])
    out[0::2] = rows0
    out[1::2] = rows1
    return out


def _oracle_rows(X0, X1, y0, y1):
    """The blocks as the dense oracle reads them: interleaved rows plus
    cluster labels."""
    n = X0.shape[0]
    return _interleave(X0, X1), _interleave(y0, y1), np.repeat(np.arange(n), 2)


def _clustered(seed, n=150, su2=4.0, se2=1.0, coef=(10.0, 3.0, 15.0, 2.0)):
    """Two-period blocks ``(X0, X1, y0, y1)`` for a (1, time, treat, x) design."""
    rng = substream(seed, 0)
    d = (rng.random(n) < 0.4).astype(float)
    x = rng.standard_normal(n)
    X0 = np.column_stack([np.ones(n), np.zeros(n), np.zeros(n), x])
    X1 = np.column_stack([np.ones(n), np.ones(n), d, x])
    u = rng.normal(0.0, np.sqrt(su2), n) if su2 > 0.0 else np.zeros(n)
    e = rng.normal(0.0, np.sqrt(se2), 2 * n)
    coef = np.asarray(coef)
    return X0, X1, X0 @ coef + u + e[0::2], X1 @ coef + u + e[1::2]


def _assert_rejected(X0, X1, y0, y1):
    with pytest.raises(InvalidArgumentError):
        fit_lmm(X0, X1, y0, y1)
    with pytest.raises(InvalidArgumentError):
        profile_loglik(X0, X1, y0, y1, 0.0)


class TestFitLmm:
    def test_matches_anova_oracle(self):
        rng = substream(60, 0)
        n = 80
        u = rng.normal(0.0, 2.0, n)
        y0 = 5.0 + u + rng.normal(0.0, 1.0, n)
        y1 = 5.0 + u + rng.normal(0.0, 1.0, n)
        mu, su2, se2, ll = anova_oracle(y0, y1)
        X = np.ones((n, 1))
        fit = fit_lmm(X, X, y0, y1)
        assert abs(fit.fixed_effects[0] - mu) < 1e-6
        assert abs(fit.sigma_u2 - su2) < 1e-6
        assert abs(fit.sigma_e2 - se2) < 1e-6
        assert abs(fit.loglik - ll) < 1e-6

    def test_matches_anova_oracle_at_boundary(self):
        # Strong negative within-pair dependence drives the between-cluster
        # variance below the within estimate; ML clamps sigma_u2 at zero.
        rng = substream(61, 0)
        n = 60
        y0 = rng.normal(0.0, 1.0, n)
        y1 = -y0 + rng.normal(0.0, 0.1, n)
        mu, su2, se2, ll = anova_oracle(y0, y1)
        assert su2 == 0.0
        fit = fit_lmm(np.ones((n, 1)), np.ones((n, 1)), y0, y1)
        assert fit.sigma_u2 == 0.0
        assert abs(fit.fixed_effects[0] - mu) < 1e-6
        assert abs(fit.sigma_e2 - se2) < 1e-6
        assert abs(fit.loglik - ll) < 1e-6

    def test_no_random_intercept_reduces_to_ols(self):
        X0, X1, y0, y1 = _clustered(1, su2=0.0)
        fit = fit_lmm(X0, X1, y0, y1)
        ols = np.linalg.lstsq(np.vstack([X0, X1]), np.concatenate([y0, y1]), rcond=None)[0]
        assert fit.sigma_u2 == 0.0
        np.testing.assert_allclose(fit.fixed_effects, ols, atol=1e-6)

    def test_profile_gradient_zero_at_optimum(self):
        blocks = _clustered(62)
        fit = fit_lmm(*blocks)
        assert -12.0 < fit.log_lambda < 12.0
        h = 1e-5
        up = profile_loglik(*blocks, fit.log_lambda + h)
        dn = profile_loglik(*blocks, fit.log_lambda - h)
        assert abs((up - dn) / (2.0 * h)) < 1e-4

    def test_loglik_matches_profile_curve(self):
        blocks = _clustered(63)
        fit = fit_lmm(*blocks)
        assert abs(fit.loglik - profile_loglik(*blocks, fit.log_lambda)) < 1e-9
        for step in (-0.3, 0.3):
            assert fit.loglik >= profile_loglik(*blocks, fit.log_lambda + step)

    def test_nested_model_likelihood_ordering(self):
        X0, X1, y0, y1 = _clustered(64)
        full = fit_lmm(X0, X1, y0, y1)
        reduced = fit_lmm(X0[:, :3], X1[:, :3], y0, y1)
        assert full.loglik >= reduced.loglik - 1e-8

    def test_response_shift_equivariance(self):
        X0, X1, y0, y1 = _clustered(65)
        a = fit_lmm(X0, X1, y0, y1)
        b = fit_lmm(X0, X1, y0 + 100.0, y1 + 100.0)
        assert abs(b.fixed_effects[0] - a.fixed_effects[0] - 100.0) < 1e-8
        np.testing.assert_allclose(b.fixed_effects[1:], a.fixed_effects[1:], atol=1e-10)
        assert abs(b.sigma_u2 - a.sigma_u2) < 1e-10
        assert abs(b.sigma_e2 - a.sigma_e2) < 1e-10

    def test_swapping_the_period_blocks_is_irrelevant(self):
        # The two rows of a unit are exchangeable under the random-intercept
        # covariance, so which block comes first does not matter.
        X0, X1, y0, y1 = _clustered(66)
        a = fit_lmm(X0, X1, y0, y1)
        b = fit_lmm(X1, X0, y1, y0)
        np.testing.assert_allclose(a.fixed_effects, b.fixed_effects, atol=1e-10)
        assert abs(a.sigma_u2 - b.sigma_u2) < 1e-10
        assert abs(a.sigma_e2 - b.sigma_e2) < 1e-10
        assert abs(a.loglik - b.loglik) < 1e-10

    def test_variance_component_signs(self):
        fit = fit_lmm(*_clustered(67))
        assert fit.sigma_u2 >= 0.0
        assert fit.sigma_e2 > 0.0
        assert fit.converged
        assert fit.se_fixed.shape == fit.fixed_effects.shape
        np.testing.assert_allclose(
            fit.se_fixed, np.sqrt(np.diag(fit.cov_fixed)), atol=1e-12
        )

    def test_rank_deficient_design(self):
        X0, X1, y0, y1 = _clustered(70)
        with pytest.raises(RankDeficientDesignError):
            fit_lmm(np.column_stack([X0, X0[:, 0]]), np.column_stack([X1, X1[:, 0]]),
                    y0, y1)
        # Around matrix_rank's threshold the verdict is matrix_rank's.
        for blocks in rank_probe_designs(X0, X1):
            check_rank_verdict(lambda A0, A1: fit_lmm(A0, A1, y0, y1), *blocks)

    def test_nearly_collinear_columns_fail_typed(self):
        # matrix_rank calls the probe's 1e-9-perturbed duplicate full rank,
        # but on about half of these seeds its Gram matrix has no Cholesky
        # factor.  The fit raises NonFiniteLikelihoodError then, and
        # otherwise returns positive standard errors, without a warning.
        failed = 0
        for seed in range(60, 120):
            X0, X1, y0, y1 = _clustered(seed)
            _, (A0, A1), _ = rank_probe_designs(X0, X1)
            assert np.linalg.matrix_rank(np.vstack([A0, A1])) == A0.shape[1]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    fit = fit_lmm(A0, A1, y0, y1)
                except NonFiniteLikelihoodError:
                    failed += 1
                    continue
            assert np.all(fit.se_fixed > 0.0) and np.all(np.isfinite(fit.se_fixed))
        assert 20 <= failed <= 40

    def test_non_positive_variance_fails_typed(self):
        # Seed 79's fit succeeds, but its GLS covariance has variances that
        # are not positive: a standard error would be NaN, and a NaN
        # standard error gives backward elimination a p-value of 0.
        X0, X1, y0, y1 = _clustered(79)
        _, (A0, A1), _ = rank_probe_designs(X0, X1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteLikelihoodError, match="nearly collinear"):
                fit_lmm(A0, A1, y0, y1)

    def test_rank_verdict_with_bin_labels(self):
        # The bins enter the fit as labels.  Where the Gram certificate
        # fails, the verdict is matrix_rank's on the blocks with the dense
        # dummies: an extra column equal to bin 1's indicator, nearly equal,
        # or independent but 1e6 times larger.  The fit is a DRGLMM point
        # estimate whose scores fill three bins of equal size.
        X0, X1, y0, y1 = _clustered(72)
        bins = np.arange(len(y0)) % 3
        dummies = np.eye(3)[bins, 1:]
        wiggle = np.cos(np.arange(len(y0)))
        ps = PSFit(np.zeros(1), 0.2 + 0.2 * bins, 1, True, 0.0)
        assert np.array_equal(ps_quantile_dummies(ps.fitted_ps, K=3).bins, bins)
        spec = ModelSpec(outcome_terms=("1", "time", "treat", "x1", "x2"))

        def fit(B0, B1):
            # The panel whose design is the blocks without their dummies.
            data = make_dataset(y0, y1, B1[:, 2], covariates=[B0[:, 3], B0[:, 4]])
            design = build_design(data, spec, pre_period=True)
            assert np.array_equal(design.X0, B0[:, :-2])
            assert np.array_equal(design.X, B1[:, :-2])
            return estimate_drglmm(data, spec, ps, k_bins=3)

        verdicts = []
        for probe in (dummies[:, 0], dummies[:, 0] + 1e-9 * wiggle, 1e6 * wiggle):
            blocks = [np.column_stack([X, probe, dummies]) for X in (X0, X1)]
            check_rank_verdict(fit, *blocks)
            verdicts.append(np.linalg.matrix_rank(np.vstack(blocks)) < blocks[0].shape[1])
        assert verdicts[0] and not verdicts[-1]

    def test_nonfinite_inputs(self):
        X0, X1, y0, y1 = _clustered(71)
        y2 = y0.copy()
        y2[0] = np.nan
        with pytest.raises(NonFiniteLikelihoodError):
            fit_lmm(X0, X1, y2, y1)

    def test_unbalanced_clusters_rejected(self):
        # A unit observed in one period only leaves one block a row short.
        X0, X1, y0, y1 = _clustered(68, n=10)
        _assert_rejected(X0, X1[:-1], y0, y1[:-1])
        _assert_rejected(X0[1:], X1, y0[1:], y1)

    def test_quadruple_cluster_rejected(self):
        # A unit with two rows in one period leaves that block a row long.
        X0, X1, y0, y1 = _clustered(69, n=10)
        _assert_rejected(X0, np.vstack([X1, X1[:1]]), y0, np.append(y1, y1[0]))
        _assert_rejected(np.vstack([X0, X0[:1]]), X1, np.append(y0, y0[0]), y1)

    def test_mismatched_cluster_length(self):
        # A response whose length differs from its design block's rows.
        X0, X1, y0, y1 = _clustered(73, n=20)
        _assert_rejected(X0, X1, y0[:-2], y1)
        _assert_rejected(X0, X1, y0, np.append(y1, 0.0))

    def test_mismatched_block_shapes(self):
        X0, X1, y0, y1 = _clustered(73, n=20)
        _assert_rejected(X0, X1[:, :-1], y0, y1)          # X1 short a column
        _assert_rejected(X0[:, 0], X1[:, 0], y0, y1)      # one-dimensional designs
        _assert_rejected(X0, X1, y0, y1[:, None])         # two-dimensional response

    def test_fit_leaves_no_n_row_array_in_reference_cycles(self):
        # Objects caught in a reference cycle live until the cyclic collector
        # runs, which a fit that allocates little may not trigger for a long
        # time; an n-row design block held by one would inflate peak memory
        # across many refits.  NumPy arrays are not tracked by the collector,
        # so look for them among the referents of the cyclic garbage.
        n = 1000
        blocks = _clustered(74, n=n)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            fit_lmm(*blocks)
            gc.collect()
            held = []
            for obj in gc.garbage:
                refs = list(gc.get_referents(obj))
                if hasattr(obj, "__dict__") and not callable(obj):
                    refs.extend(vars(obj).values())
                held += [r.shape for r in refs
                         if isinstance(r, np.ndarray) and r.ndim and r.shape[0] >= n]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert held == []

    def test_recovers_generating_parameters(self):
        # HOM at n=500 generates y from time 3, treat 15, sigma_u2 30,
        # sigma_e2 20.  The bands are 3 Monte Carlo SDs, measured once from
        # 400 independent replicates of this exact fit (means came out
        # [2.99, 14.95, 29.67, 20.03], so the fit is unbiased at this n).
        from panel_causal import (
            Scenario,
            build_design,
            generate_scenario,
            scenario_specs,
        )

        data = generate_scenario(Scenario("HOM", 500), 0)
        des = build_design(data, scenario_specs("HOM")["mixed_full"], pre_period=True)
        fit = fit_lmm(des.X0, des.X, data.y0, data.y1)
        cols = list(des.columns)
        est = np.array([
            fit.fixed_effects[cols.index("time")],
            fit.fixed_effects[cols.index("treat")],
            fit.sigma_u2,
            fit.sigma_e2,
        ])
        truth = np.array([3.0, 15.0, 30.0, 20.0])
        mc_sd = np.array([0.65636, 0.480765, 2.733709, 1.352979])
        assert np.all(np.abs(est - truth) < 3.0 * mc_sd)


def _dr_design(scenario, seed, n=250):
    """The DRGLMM blocks ``(X0, X1, y0, y1)``: full mixed spec plus
    propensity bin dummies."""
    data = generate_scenario(Scenario(scenario, n), seed)
    spec = scenario_specs(scenario)["mixed_full"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PanelCausalWarning)
        bins = ps_quantile_dummies(fit_propensity(data, spec).fitted_ps, K=5)
    des = build_design(data, spec, pre_period=True)
    return (np.hstack([des.X0, bins.dummies]), np.hstack([des.X, bins.dummies]),
            data.y0, data.y1)


class TestDenseOracle:
    """fit_lmm against brute-force ML with explicit per-cluster covariances.

    Each quantity is compared in its own units, to 1e-8 of the response's
    spread: a coefficient times its column's root mean square, the variance
    components against var(y), the log-likelihood relative to itself.
    """

    @staticmethod
    def _assert_matches(fit, X, y, oracle, offset=0.0):
        beta, su2, se2, ll = oracle
        beta = beta.copy()
        beta[0] += offset  # column 0 is the intercept
        coef_units = np.std(y) / np.sqrt(np.mean(X ** 2, axis=0))
        assert np.all(np.abs(fit.fixed_effects - beta) <= 1e-8 * coef_units)
        assert abs(fit.sigma_u2 - su2) <= 1e-8 * np.var(y)
        assert abs(fit.sigma_e2 - se2) <= 1e-8 * np.var(y)
        assert abs(fit.loglik - ll) <= 1e-8 * abs(ll)

    @pytest.mark.parametrize("scenario,seed", [("HOM", 11), ("HET", 12)])
    @pytest.mark.parametrize("offset", [0.0, 1e8])
    def test_matches_with_dr_dummies(self, scenario, seed, offset):
        X0, X1, y0, y1 = _dr_design(scenario, seed)
        assert np.all(X0[:, 0] == 1.0) and np.all(X1[:, 0] == 1.0)
        shifted0, shifted1 = y0 + offset, y1 + offset
        X, y, ids = _oracle_rows(X0, X1, y0, y1)
        # The oracle sees the response exactly as the shifted doubles hold it.
        oracle = dense_lmm_oracle(X, _interleave(shifted0, shifted1) - offset, ids)
        assert oracle[1] > 0.0
        fit = fit_lmm(X0, X1, shifted0, shifted1)
        self._assert_matches(fit, X, y, oracle, offset)

    def test_matches_at_the_boundary(self):
        # Within-pair errors of opposite sign push the between-cluster
        # variance below the within one, so ML puts sigma_u2 at zero.
        X0, X1, _, _ = _dr_design("HOM", 13)
        rng = substream(13, 1)
        e0 = rng.standard_normal(X0.shape[0])
        e1 = -e0 + 0.1 * rng.standard_normal(e0.shape[0])
        beta = np.linspace(1.0, 2.0, X0.shape[1])
        y0, y1 = X0 @ beta + e0, X1 @ beta + e1
        X, y, ids = _oracle_rows(X0, X1, y0, y1)
        oracle = dense_lmm_oracle(X, y, ids)
        fit = fit_lmm(X0, X1, y0, y1)
        assert oracle[1] == 0.0
        assert fit.sigma_u2 == 0.0
        self._assert_matches(fit, X, y, oracle)


def _search(f, a, b, fa, fb):
    """:func:`_find_roots` on a batch of one member, the scalar function
    ``f``; returns ``(x, converged, the points f was evaluated at)``."""
    calls = []

    def batch(x, i):
        calls.extend(x.tolist())
        return np.array([f(v) for v in x])

    x, converged = _find_roots(batch, [a], [b], [fa], [fb])
    return float(x[0]), bool(converged[0]), calls


class TestRootFinder:
    """The score's root search: against scipy's brentq on fit_lmm's own
    bracket, and on functions built to hit each way the search can end."""

    @pytest.mark.parametrize("scenario,seed", [("HOM", 21), ("HET", 22), ("RANDCOEF", 23)])
    @pytest.mark.parametrize("offset", [0.0, 1e8])
    def test_matches_brentq_on_the_grid_bracket(self, scenario, seed, offset):
        X0, X1, y0, y1 = _dr_design(scenario, seed)
        y0, y1 = y0 + offset, y1 + offset
        stats = _fit_blocks(X0, X1, y0, y1).stats
        grid = np.linspace(_LOG_LAMBDA_LO, _LOG_LAMBDA_HI, _GRID_POINTS)
        terms = _profile_terms(grid, stats)
        j = int(np.argmax(_loglik_of(terms, stats[-1])[0]))
        score = _score_of(terms, stats[-1])[0]
        assert 0 < j < _GRID_POINTS - 1 and score[j - 1] > 0.0 > score[j + 1]
        root = brentq(lambda x: _score_of(_profile_terms(np.full((1, 1), x), stats),
                                          stats[-1])[0, 0],
                      grid[j - 1], grid[j + 1], xtol=_XATOL)
        fit = fit_lmm(X0, X1, y0, y1)
        assert fit.converged
        assert abs(fit.log_lambda - root) <= 1e-12

    @staticmethod
    def _flat_zero(x):
        return 1.0 if x < 0.2 else (-1.0 if x > 0.8 else 0.0)

    @staticmethod
    def _lopsided(x):
        return 1e300 if x < 0.5 else -1.0

    def test_exact_zero_is_the_root(self):
        # The first secant step lands on a flat zero, far wider than _XATOL.
        assert _search(self._flat_zero, 0.0, 1.0, 1.0, -1.0) == (0.5, True, [0.5])

    def test_bracket_not_closed_within_the_cap_is_unconverged(self):
        # The far end's value dwarfs the near one's, so every secant step
        # lands on the near end, and halving the far value at each step does
        # not bring it level within the step cap.
        x, converged, calls = _search(self._lopsided, 0.0, 1.0, 1e300, -1.0)
        assert not converged
        assert len(calls) == _ROOT_STEPS
        assert 0.0 <= x <= 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_stops_the_search(self, bad):
        x, converged, calls = _search(lambda v: bad, 0.0, 1.0, 1.0, -1.0)
        assert not converged
        assert calls == [x]

    def test_members_of_a_batch_end_as_they_would_alone(self):
        # Each member stops on its own; the others go on with their steps.
        fs = [self._flat_zero, self._lopsided, lambda v: np.nan, lambda v: 0.3 - v]
        ends = [(0.0, 1.0, 1.0, -1.0), (0.0, 1.0, 1e300, -1.0),
                (0.0, 1.0, 1.0, -1.0), (0.0, 1.0, 0.3, -0.7)]
        seen = [[] for _ in fs]

        def f(x, i):
            for v, r in zip(x, i):
                seen[r].append(float(v))
            return np.array([fs[r](v) for v, r in zip(x, i)])

        x, converged = _find_roots(f, *np.array(ends).T)
        for r, (g, end) in enumerate(zip(fs, ends)):
            assert (float(x[r]), bool(converged[r]), seen[r]) == _search(g, *end)
        assert converged.tolist() == [True, False, False, True]

    # Members of the property: how each one's function ends its search.
    _ENDINGS = {
        "linear": lambda r: (lambda v: r - v),
        "cubic": lambda r: (lambda v: (r - v) ** 3),
        "tanh": lambda r: (lambda v: np.tanh(5.0 * (r - v))),
        "flat zero": lambda r: (lambda v: 1.0 if v < r - 0.01 else (-1.0 if v > r + 0.01 else 0.0)),
        "nan inside": lambda r: (lambda v: 1.0 if v <= r else (-1.0 if v == 1.0 else np.nan)),
        "inf inside": lambda r: (lambda v: 1.0 if v <= r else (-1.0 if v == 1.0 else -np.inf)),
        "step cap": lambda r: (lambda v: 1e300 if v < r else -1.0),
    }

    @given(members=st.lists(st.tuples(st.sampled_from(sorted(_ENDINGS)), st.floats(0.05, 0.95)),
                            min_size=1, max_size=8))
    @example(members=[(name, 0.4) for name in sorted(_ENDINGS)])
    def test_batch_is_the_first_formulation(self, members):
        # Members that stop at different steps, on an exact zero, on a
        # non-finite value or at the step cap: the compacted search gives
        # every member the points and the verdict of the search that
        # indexes every bracket array at every step, bit for bit.
        fs = [self._ENDINGS[name](r) for name, r in members]
        ends = np.array([(0.0, 1.0, f(0.0), f(1.0)) for f in fs]).T

        def recorded(seen):
            def f(x, i):
                for v, r in zip(x, i):
                    seen[r].append(float(v).hex())
                return np.array([fs[r](v) for v, r in zip(x, i)])
            return f

        got_seen, want_seen = [[] for _ in fs], [[] for _ in fs]
        with np.errstate(all="ignore"):
            got = _find_roots(recorded(got_seen), *ends)
            want = find_roots_reference(recorded(want_seen), *ends)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
        assert got_seen == want_seen


class TestFitOr:
    def test_exact_fit_has_zero_residual_variance(self):
        rng = substream(80, 0)
        x = rng.standard_normal(50)
        X = np.column_stack([np.ones(50), x])
        y = 2.0 + 3.0 * x
        fit = fit_or(X, y)
        np.testing.assert_allclose(fit.fixed_effects, [2.0, 3.0], atol=1e-10)
        assert fit.sigma_e2 == 0.0
        assert fit.sigma_u2 == 0.0
        assert fit.loglik == np.inf

    def test_residual_variance_survives_a_large_response_offset(self):
        data = generate_scenario(Scenario("HOM", 250), 0)
        X = build_design(data, scenario_specs("HOM")["post_full"], pre_period=False).X
        base = fit_or(X, data.y1)
        shifted = fit_or(X, data.y1 + 1e8)
        assert abs(shifted.sigma_e2 / base.sigma_e2 - 1.0) < 1e-6

    def test_matches_lstsq(self):
        rng = substream(81, 0)
        X = np.column_stack([np.ones(120), rng.standard_normal((120, 3))])
        y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.normal(0.0, 1.5, 120)
        fit = fit_or(X, y)
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        np.testing.assert_allclose(fit.fixed_effects, ols, atol=1e-10)
        resid = y - X @ ols
        assert abs(fit.sigma_e2 - resid @ resid / 120.0) < 1e-10
        # Gaussian ML log-likelihood at the OLS solution
        ll = -0.5 * 120 * (np.log(2.0 * np.pi) + 1.0 + np.log(fit.sigma_e2))
        assert abs(fit.loglik - ll) < 1e-8
        assert fit.converged

    def test_rank_deficient(self):
        X = np.ones((10, 2))
        with pytest.raises(RankDeficientDesignError):
            fit_or(X, np.zeros(10))
        # Around matrix_rank's threshold the verdict is matrix_rank's.
        X0, X1, y0, y1 = _clustered(82)
        for (X,) in rank_probe_designs(X1):
            check_rank_verdict(lambda A: fit_or(A, y1), X)
        # X1's first two columns are both ones, so those probes are all rank
        # deficient; a post design (no time column) is full rank.
        X0, X1, y0, y1 = _clustered(60)
        for (X,) in rank_probe_designs(X1[:, [0, 2, 3]]):
            check_rank_verdict(lambda A: fit_or(A, y1), X)

    def test_nearly_collinear_columns_fail_typed(self):
        # As for fit_lmm: on the probe's 1e-9-perturbed duplicate about
        # half of these Gram matrices leave no solution or no covariance
        # (a variance that is not positive).  The fit raises
        # NonFiniteLikelihoodError then, and otherwise returns positive
        # standard errors, without a warning.
        failed = 0
        for seed in range(60, 120):
            X0, X1, y0, y1 = _clustered(seed)
            _, (A1,), _ = rank_probe_designs(X1[:, [0, 2, 3]])
            assert np.linalg.matrix_rank(A1) == A1.shape[1]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    fit = fit_or(A1, y1)
                except NonFiniteLikelihoodError:
                    failed += 1
                    continue
            assert np.all(fit.se_fixed > 0.0) and np.all(np.isfinite(fit.se_fixed))
        assert 20 <= failed <= 45

    def test_nonfinite(self):
        X = np.ones((5, 1))
        y = np.array([1.0, 2.0, np.inf, 0.0, 1.0])
        with pytest.raises(NonFiniteLikelihoodError):
            fit_or(X, y)

    def test_shape_validation(self):
        with pytest.raises(InvalidArgumentError):
            fit_or(np.ones(5), np.zeros(5))
        with pytest.raises(InvalidArgumentError):
            fit_or(np.ones((5, 1)), np.zeros(6))


def _deficient(C, blocks, bins=None, n_bins=0):
    """matrix_rank's verdict on each fit of a batch: the blocks stacked in
    the period basis, unit i repeated ``C[r, i]`` times, with the dense
    dummies of bins 1 to ``n_bins - 1`` appended to every block, have rank
    below their column count."""
    out = []
    for r in range(C.shape[0]):
        units = np.repeat(np.arange(C.shape[1]), C[r].astype(int))
        X = [(b if b.ndim == 2 else b[r])[units] for b in blocks]
        if bins is not None:
            X = [np.hstack([x, np.eye(n_bins)[bins[r, units], 1:]]) for x in X]
        X = np.vstack(X)
        out.append(np.linalg.matrix_rank(X) < X.shape[1])
    return np.array(out)


def _shared_batch():
    """One design shared by six resamples with counts.  Column z is nonzero
    on units 0 to 2 only, so a resample without them is rank deficient;
    fits 4 and 5 count only treated units (one outcome class)."""
    n = 40
    rng = substream(90, 0)
    i = np.arange(n)
    d = (i % 2).astype(float)
    x = rng.standard_normal(n)
    z = np.where(i < 3, 1.0 + rng.random(n), 0.0)
    C = np.ones((6, n))
    C[1, :3] = 0.0
    C[2] = rng.multinomial(n, np.full(n, 1.0 / n))
    C[2, :3] = 0.0
    C[3] = rng.multinomial(n, np.full(n, 1.0 / n))
    C[3, 1] += 1.0
    C[4] = d
    C[5] = d
    C[5, 1] = 0.0
    zero, one = np.zeros(n), np.ones(n)
    X0 = np.column_stack([one, zero, zero, x, z])
    X1 = np.column_stack([one, one, d, x, z])
    y0, y1 = rng.standard_normal(n), rng.standard_normal(n) + d
    return C, np.column_stack([one, x, z]), d, X0, X1, y0, y1


def _stacked_batch():
    """Four draws, each with a design of its own: an extra column that is
    independent, an exact duplicate of x, x perturbed by 1e-9 (full rank
    by matrix_rank, but not provably so from the Gram matrix), and an
    independent column scaled by 1e6."""
    ps, X0s, X1s, y0s, y1s, ds = [], [], [], [], [], []
    for r in range(4):
        X0, X1, y0, y1 = _clustered(91 + r)
        n = len(y0)
        x = X0[:, 3]
        extra = [substream(95, r).standard_normal(n), x,
                 x + 1e-9 * np.cos(np.arange(n)), 1e6 * np.cos(np.arange(n))][r]
        ps.append(np.column_stack([X0[:, 0], x, extra]))
        X0s.append(np.column_stack([X0, extra]))
        X1s.append(np.column_stack([X1, extra]))
        y0s.append(y0)
        y1s.append(y1)
        ds.append(X1[:, 2])
    stack = [np.stack(a) for a in (ps, ds, X0s, X1s, y0s, y1s)]
    return (np.ones((4, stack[0].shape[1])), *stack)


class TestKernelStatusesAreFinal:
    """Each kernel gives the rank verdict of its fits: _RANK_DEFICIENT
    exactly where matrix_rank on the fit's own rows in the period basis
    finds the rank below the column count.  A single outcome class
    outranks the verdict in the logistic kernel."""

    @pytest.mark.parametrize("batch", [_shared_batch, _stacked_batch])
    def test_treatment_and_outcome_kernels(self, batch):
        C, X, d, X0, X1, y0, y1 = batch()
        post = X1[..., [0, 2, 3, 4]]  # no time column in the post period
        with np.errstate(all="ignore"):
            logistic = _fit_logistic_batch(_Rows(X, d), C).status
            ols = _fit_or_batch(_Rows(post, y1), C).status
            mixed = _fit_lmm_batch(_rotated_rows(X0, X1, y0, y1), C).status
        one_class = logistic == _ONE_CLASS
        for status, blocks in ((logistic, (X,)), (ols, (post,)), (mixed, (X0, X1))):
            expected = _deficient(C, blocks)
            assert expected.any() and not expected.all()
            skip = one_class if status is logistic else np.zeros_like(one_class)
            np.testing.assert_array_equal(status[~skip] == _RANK_DEFICIENT, expected[~skip])
        if batch is _shared_batch:
            # Fit 5 has one class and no z: the class outranks the verdict.
            assert one_class.tolist() == [False] * 4 + [True] * 2
            assert _deficient(C, (X,))[5]

    @pytest.mark.parametrize("shared", [True, False])
    def test_mixed_kernel_with_bin_labels(self, shared):
        # A column z equal to one bin's indicator, in fits whose bins make
        # it so and in fits whose bins do not; unshared, z is also nearly
        # equal to the indicator, or independent and 1e6 times larger.
        X0, X1, y0, y1 = _clustered(92)
        n = len(y0)
        i = np.arange(n)
        wiggle = np.cos(i)
        thirds, cyclic = (3 * i) // n, i % 3
        z = (cyclic == 1).astype(float)
        C = np.ones((4, n))
        if shared:
            C[2:] = substream(96, 0).multinomial(n, np.full(n, 1.0 / n), size=2)
            bins = np.stack([cyclic, thirds, cyclic, (cyclic + 1) % 3])
            X0, X1 = (np.column_stack([X, z]) for X in (X0, X1))
        else:
            bins = np.stack([cyclic, cyclic, thirds, cyclic])
            Z = np.stack([z, z + 1e-9 * wiggle, z, 1e6 * wiggle])
            X0, X1 = (np.concatenate([np.broadcast_to(X, (4, n, 4)), Z[:, :, None]], axis=2)
                      for X in (X0, X1))
            y0, y1 = np.tile(y0, (4, 1)), np.tile(y1, (4, 1))
        with np.errstate(all="ignore"):
            status = _fit_lmm_batch(_rotated_rows(X0, X1, y0, y1), C, bins, 3).status
        expected = _deficient(C, (X0, X1), bins, 3)
        assert expected.any() and not expected.all()
        np.testing.assert_array_equal(status == _RANK_DEFICIENT, expected)
