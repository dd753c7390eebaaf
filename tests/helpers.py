"""Shared builders and oracles for the test suite."""

import csv
import os
import warnings
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.special import expit

from panel_causal import (
    BootstrapFailureError,
    BootstrapFailureWarning,
    BootstrapResult,
    ColumnMapping,
    DEFAULT_SUITE,
    DegenerateVarianceWarning,
    DRTestResult,
    ExtremeWeightsWarning,
    LMMFit,
    METHOD_TABLE,
    PanelCausalError,
    PanelDataset,
    PSFit,
    RankDeficientDesignError,
    estimate_drglmm,
    estimate_effects,
    estimate_glmm,
    estimate_ipwdid,
    evaluate_estimator,
    fit_propensity,
    generate_scenario,
    scenario_specs,
    substream,
    true_effects,
)
from panel_causal import glm_fit, lmm_fit, panel_data, simlab

# Fixed seed used by the desk-scale study tests.  Chosen once; every
# expected band below was verified against this seed before being frozen.
ACCEPT_SEED = 3


def source_env():
    """The environment with the package's source directory first on
    ``PYTHONPATH``, so that a subprocess imports the package under test
    whether or not it is installed."""
    src = str(Path(simlab.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def make_dataset(y0, y1, d1, covariates=None, covariates_post=None, names=None,
                 unit_ids=None):
    """Build a PanelDataset from plain lists.

    ``covariates`` maps to t=0 values; ``covariates_post`` defaults to the
    same values (time-invariant covariates).
    """
    y0 = np.asarray(y0, dtype=float)
    n = y0.shape[0]
    if covariates is None:
        x0 = np.empty((n, 0))
        names = ()
    else:
        x0 = np.column_stack([np.asarray(c, dtype=float) for c in covariates])
        if names is None:
            names = tuple(f"x{j + 1}" for j in range(x0.shape[1]))
    if covariates_post is None:
        x1 = x0.copy()
    else:
        x1 = np.column_stack([np.asarray(c, dtype=float) for c in covariates_post])
    if unit_ids is None:
        unit_ids = np.array([f"u{i}" for i in range(n)], dtype=object)
    return PanelDataset(
        covariate_names=tuple(names),
        unit_ids=np.asarray(unit_ids, dtype=object),
        y0=y0,
        y1=np.asarray(y1, dtype=float),
        d1=np.asarray(d1, dtype=int),
        x0=x0,
        x1=x1,
    )


def extreme_ps_dataset():
    """300 units whose treatment follows ``expit(5 x)``: a logistic fit on
    ``("1", "x1")`` puts some scores outside [0.01, 0.99]."""
    rng = substream(302, 0)
    n = 300
    x = rng.standard_normal(n)
    d = (rng.random(n) < expit(5.0 * x)).astype(np.int64)
    y0 = rng.normal(0.0, 1.0, n)
    return make_dataset(y0, y0 + d, d, covariates=[x], names=("x1",))


def tiny_panel(n, treated_idx=(0,)):
    """Deterministic small dataset: the treated set is handed in directly."""
    rng = substream(424242, n)
    d = np.zeros(n, dtype=np.int64)
    d[list(treated_idx)] = 1
    y0 = rng.normal(10.0, 2.0, n)
    y1 = y0 + 3.0 + 15.0 * d + rng.normal(0.0, 1.0, n)
    return make_dataset(y0, y1, d)


def ipw_toy():
    """A, B treated with y1 = 6, 8; C, D control with y1 = 3, 5."""
    return make_dataset(
        y0=[0.0, 0.0, 0.0, 0.0],
        y1=[6.0, 8.0, 3.0, 5.0],
        d1=[1, 1, 0, 0],
    )


def did_toy():
    """A(1->6), B(3->8) treated; C(2->3), D(4->5) control; DID = 4."""
    return make_dataset(
        y0=[1.0, 3.0, 2.0, 4.0],
        y1=[6.0, 8.0, 3.0, 5.0],
        d1=[1, 1, 0, 0],
    )


def shift_responses(data, c):
    """Copy of ``data`` with ``c`` added to both period responses."""
    return PanelDataset(
        covariate_names=data.covariate_names,
        unit_ids=data.unit_ids.copy(),
        y0=data.y0 + c,
        y1=data.y1 + c,
        d1=data.d1.copy(),
        x0=data.x0.copy(),
        x1=data.x1.copy(),
    )


def anova_oracle(y0, y1):
    """Closed-form balanced-ANOVA ML solution for the intercept-only LMM.

    For two observations per cluster and a shared mean, maximum likelihood
    has the closed form below (within/between mean squares); the boundary
    case pools both sums of squares.  Returns (mu, sigma_u2, sigma_e2,
    loglik).
    """
    y0 = np.asarray(y0, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    n = y0.shape[0]
    mu = float(np.mean((y0 + y1) / 2.0))
    ssw = float(np.sum((y1 - y0) ** 2) / 2.0)
    ssb = float(2.0 * np.sum(((y0 + y1) / 2.0 - mu) ** 2))
    se2 = ssw / n
    su2 = (ssb / n - se2) / 2.0
    if su2 < 0.0:
        su2 = 0.0
        se2 = (ssw + ssb) / (2.0 * n)
    ll = 0.0
    var_w = se2
    var_b = se2 + 2.0 * su2
    for a, b in zip(y0, y1):
        resid = np.array([a - mu, b - mu])
        quad_form = (
            resid @ resid / var_w
            - (2.0 * su2 / (var_w * var_b)) * (resid.sum() / np.sqrt(2.0)) ** 2
        )
        ll += -0.5 * (2.0 * np.log(2.0 * np.pi) + np.log(var_w * var_b) + quad_form)
    return mu, su2, se2, float(ll)


def quantile_bins_reference(ps, K):
    """Reference for the equal-frequency binning rule on one sample: cut
    points at ``np.quantile``'s 1/K, ..., (K-1)/K quantiles, merged by
    ``np.unique``, and each score in the bin ``np.searchsorted`` finds on
    its left side, so a score equal to a cut goes to the lower bin.
    Returns ``(bins, edges)``."""
    edges = np.unique(np.quantile(ps, np.arange(1, K) / K))
    return np.searchsorted(edges, ps, side="left"), edges


def dense_lmm_oracle(X, y, cluster_ids, lo=-12.0, hi=12.0):
    """Brute-force ML fit of the two-row random-intercept model.

    Every cluster gets its explicit 2x2 covariance ``sigma_e2 (I + lam 11')``
    with ``lam = sigma_u2 / sigma_e2``.  For a given ``lam``, the fixed
    effects come from the GLS normal equations built with
    ``np.linalg.solve`` on those blocks, and ``sigma_e2`` from the GLS
    quadratic form.  A fine grid over ``log lam in [lo, hi]`` finds the best
    bracket; bisection on the sign of the generic ML score
    ``-tr(V^-1 dV) / 2 + r' V^-1 dV V^-1 r / 2`` narrows it to 1e-13.  A
    best grid point at ``lo`` with a falling score there is the boundary,
    ``sigma_u2 = 0``.  Returns (beta, sigma_u2, sigma_e2, loglik).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    rows = {}
    for i, c in enumerate(np.asarray(cluster_ids).tolist()):
        rows.setdefault(c, []).append(i)
    pairs = np.array(list(rows.values()))
    assert pairs.shape[1] == 2
    Xc, yc = X[pairs], y[pairs][..., None]
    n = pairs.shape[0]
    J = np.ones((2, 2))

    def gls(lam):
        C = np.eye(2) + lam * J
        A = np.einsum("cij,cik->jk", Xc, np.linalg.solve(C, Xc))
        b = np.einsum("cij,cik->j", Xc, np.linalg.solve(C, yc))
        beta = np.linalg.solve(A, b)
        r = yc - Xc @ beta[:, None]
        Cir = np.linalg.solve(C, r)
        s2e = float(np.sum(r * Cir)) / (2 * n)
        return beta, s2e, C, Cir

    def loglik(lam):
        _, s2e, C, _ = gls(lam)
        logdet = np.linalg.slogdet(s2e * C)[1]
        return -0.5 * (2 * n * np.log(2.0 * np.pi) + n * logdet + 2 * n)

    def score(lam):
        # dV/dlam = s2e J; beta and s2e are profiled out, so by the envelope
        # theorem their dependence on lam drops from the derivative.
        _, s2e, C, Cir = gls(lam)
        trace = n * np.trace(np.linalg.solve(C, J))
        return -0.5 * trace + 0.5 * float(np.sum(Cir * (J @ Cir))) / s2e

    grid = np.linspace(lo, hi, 241)
    vals = [loglik(np.exp(u)) for u in grid]
    j = int(np.argmax(vals))
    if j == 0 and score(np.exp(lo)) <= 0.0:
        lam = 0.0
    else:
        a, b = grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]
        while b - a > 1e-13:
            mid = 0.5 * (a + b)
            if score(np.exp(mid)) > 0.0:
                a = mid
            else:
                b = mid
        lam = float(np.exp(0.5 * (a + b)))
    beta, s2e, _, _ = gls(lam)
    return beta, lam * s2e, s2e, float(loglik(lam))


def adaptive_contrast(eta1, eta0, sigma_u2):
    """Adaptive-quadrature oracle for the logit-link marginal contrast."""
    if sigma_u2 == 0.0:
        return float(expit(eta1) - expit(eta0))
    sd = np.sqrt(sigma_u2)

    def integrand(u):
        return (expit(eta1 + u) - expit(eta0 + u)) * np.exp(
            -0.5 * (u / sd) ** 2
        ) / (sd * np.sqrt(2.0 * np.pi))

    val, _ = quad(integrand, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12)
    return float(val)


def write_csv_rows(data, path, schema=None):
    """Reference writer for ``write_csv``: one ``csv.writer`` row at a time."""
    schema = schema or ColumnMapping()
    header = [schema.unit_id, schema.time, schema.treat, schema.y, *data.covariate_names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            uid = str(data.unit_ids[i])
            writer.writerow(
                [uid, 0, 0, repr(float(data.y0[i]))]
                + [repr(float(v)) for v in data.x0[i]]
            )
            writer.writerow(
                [uid, 1, int(data.d1[i]), repr(float(data.y1[i]))]
                + [repr(float(v)) for v in data.x1[i]]
            )


def cluster_bootstrap_reference(data, config, B, seed):
    """Reference for ``cluster_bootstrap``: each replicate a ``take()``
    resample refitted on its own, failures as NaN, summarized as the
    library summarizes."""
    point = evaluate_estimator(config, data)
    n = data.n

    def one(r):
        idx = substream(seed, r).integers(0, n, size=n)
        try:
            return evaluate_estimator(config, data.take(idx))
        except PanelCausalError:
            return np.nan

    vals = np.array([one(r) for r in range(B)], dtype=float)
    ok = vals[np.isfinite(vals)]
    n_failed = int(B - ok.size)
    if n_failed >= 0.05 * B:
        warnings.warn(f"{n_failed} of {B} bootstrap replicates failed to fit",
                      BootstrapFailureWarning, stacklevel=2)
    if ok.size == 0:
        return BootstrapResult(point, np.nan, np.nan, np.nan, np.nan, B, n_failed)
    lo, hi = np.percentile(ok, [2.5, 97.5])
    se = float(np.std(ok, ddof=1)) if ok.size > 1 else 0.0
    return BootstrapResult(point, float(ok.mean()), se, float(lo), float(hi), B, n_failed)


def dr_specification_test_reference(data, spec, B, seed, k_bins=5):
    """Reference for ``dr_specification_test``: the DRGLMM, IPWDID and GLMM
    ATEs of each ``take()`` resample, one shared propensity fit per
    replicate, a failed replicate as a row of NaN, summarized as the
    library summarizes."""
    n = data.n

    def triple(d):
        ps = fit_propensity(d, spec)
        return (estimate_drglmm(d, spec, ps, k_bins=k_bins)["ATE"].value,
                estimate_ipwdid(d, ps)["ATE"].value,
                estimate_glmm(d, spec)["ATE"].value)

    def one(r):
        idx = substream(seed, r).integers(0, n, size=n)
        try:
            return triple(data.take(idx))
        except PanelCausalError:
            return (np.nan, np.nan, np.nan)

    def guarded_z(num, sigma):
        if sigma == 0.0 or not np.isfinite(sigma):
            warnings.warn("degenerate bootstrap variance", DegenerateVarianceWarning)
            return 0.0
        return float(abs(num) / sigma)

    point_dr, point_ipwdid, point_glmm = triple(data)
    vals = np.array([one(r) for r in range(B)], dtype=float)
    ok = vals[np.all(np.isfinite(vals), axis=1)]
    if ok.shape[0] < 2:
        raise BootstrapFailureError("too few successful bootstrap replicates")
    sigma_ps = float(np.std(ok[:, 0] - ok[:, 1], ddof=1))
    sigma_or = float(np.std(ok[:, 0] - ok[:, 2], ddof=1))
    z_ps = guarded_z(point_dr - point_ipwdid, sigma_ps)
    z_or = guarded_z(point_dr - point_glmm, sigma_or)
    return DRTestResult(z_ps, z_or, bool(z_ps > 1.96), bool(z_or > 1.96),
                        sigma_ps, sigma_or, B, int(B - ok.shape[0]))


def study_values_reference(scenario, suite=DEFAULT_SUITE, R=1000, seed=0, k_bins=5):
    """The ``(R, entries, 2)`` replicate values behind
    ``run_study_reference``: each replicate drawn by ``generate_scenario``
    and every entry evaluated on it alone by the public estimators, in
    replicate order, each treatment model fitted once per replicate and
    shared, a failed fit as NaN.  Raises the estimators' warnings."""
    suite = tuple(suite)
    specs = scenario_specs(scenario.id)

    def one(data):
        vals = np.full((len(suite), 2), np.nan)
        ps_fits = {}
        for i, e in enumerate(suite):
            info = METHOD_TABLE[e.method]
            spec = specs[f"{info.outcome}_{e.outcome_model}"] if info.outcome else None
            ps_fit = None
            if info.uses_ps:
                if e.ps_model not in ps_fits:
                    try:
                        ps_fits[e.ps_model] = fit_propensity(data, specs["ps_" + e.ps_model])
                    except PanelCausalError:
                        ps_fits[e.ps_model] = None
                ps_fit = ps_fits[e.ps_model]
                if ps_fit is None:
                    continue
            try:
                out = estimate_effects(e.method, data, spec, ps_fit, k_bins=k_bins)
            except PanelCausalError:
                continue
            for j, estimand in enumerate(("ATE", "ATT")):
                if estimand in out:
                    vals[i, j] = out[estimand].value
        return vals

    return np.stack([one(generate_scenario(scenario, seed, replicate=r)) for r in range(R)])


def run_study_reference(scenario, suite=DEFAULT_SUITE, R=1000, seed=0, *, k_bins=5):
    """Reference for ``run_study``: :func:`study_values_reference` without
    its extreme-weight warnings, summarized by the library's summary.
    Takes valid arguments only."""
    truths = true_effects(scenario)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtremeWeightsWarning)
        stack = study_values_reference(scenario, suite, R, seed, k_bins)
    return simlab._summarize(scenario, tuple(suite), seed, truths, stack)


def draw_reference(scenario, seed, replicate):
    """``simlab._draw`` of the one replicate, as first formulated: its
    stream pulled and its arithmetic done on its own ``(n,)`` arrays, x1
    ``(n, 2)``."""
    p = scenario.dgp_params
    n = scenario.n
    rng = substream(seed, replicate)
    chol = np.linalg.cholesky(np.asarray(p["x1_cov"], dtype=float))
    z = rng.standard_normal((n, 2))
    x1 = np.asarray(p["x1_mean"], dtype=float) + z @ chol.T
    x10, x11 = x1[:, 0], x1[:, 1]
    x2 = rng.exponential(p["x2_mean"], n)
    v = rng.normal(p["v_mean"], p["v_sd"], n)
    u = rng.normal(0.0, np.sqrt(p["u_var"]), n)
    eps = rng.normal(0.0, np.sqrt(p["eps_var"]), (n, 2))
    a0, a1, a2, a3 = p["ps_coef"]
    lin = a0 + a1 * x10 + a2 * x2 + a3 * v
    d = (rng.random(n) < glm_fit.expit(lin)).astype(np.int64)
    cv = p["coef_cv"]
    if cv > 0.0:
        th0 = rng.normal(p["intercept"], cv * abs(p["intercept"]), n)
        th1 = rng.normal(p["x1"], cv * abs(p["x1"]), n)
        th2 = rng.normal(p["x2"], cv * abs(p["x2"]), n)
        th3 = rng.normal(p["x1_treat"], cv * abs(p["x1_treat"]), n)
        gam = rng.normal(p["trend"], cv * abs(p["trend"]), n)
        bet = rng.normal(p["treat"], cv * abs(p["treat"]), n)
    else:
        th0, th1, th2, th3 = p["intercept"], p["x1"], p["x2"], p["x1_treat"]
        gam, bet = p["trend"], p["treat"]
    df = d.astype(float)
    y0 = th0 + th1 * x10 + u + eps[:, 0]
    y1 = th0 + gam + bet * df + th1 * x11 + th2 * x2 + th3 * df * x11 + u + eps[:, 1]
    if not p["x2_post_only"]:
        y0 = y0 + th2 * x2
    if p["log_x2"]:
        lx2 = p["log_x2"] * np.log(x2)
        y0 = y0 + lx2
        y1 = y1 + lx2
    return x1, x2, v, d, y0, y1


ORACLE_BLOCK = 65_536


def treated_x1_mean(units=simlab.ORACLE_UNITS, block=ORACLE_BLOCK):
    """The HET truth oracle: E[x1 at t=1 | treated] under the shared
    assignment design, with its Monte Carlo standard error, from the units
    of ``simlab._draw(Scenario("HET", units), simlab.ORACLE_SEED, [0])``.

    The stream is pulled in ``_draw``'s order, ``block`` units at a time,
    and only what assignment needs is kept: x1 at t=1, the linear predictor
    and the treated mask, 17 bytes a unit.  For the 1 000 000 units
    tracemalloc sees a peak of about 20 MB, against 120 MB for the whole
    draw.  The result is the whole draw's, bit for bit; at the defaults it
    is the pair ``simlab.true_effects`` stores.
    """
    p = simlab.default_params("HET")
    rng = substream(simlab.ORACLE_SEED, 0)
    mean = np.asarray(p["x1_mean"], dtype=float)
    chol = np.linalg.cholesky(np.asarray(p["x1_cov"], dtype=float))
    a0, a1, a2, a3 = p["ps_coef"]
    blocks = [(slice(i, i + block), min(block, units - i))
              for i in range(0, units, block)]
    x11 = np.empty(units)
    lin = np.empty(units)
    for b, m in blocks:
        x1 = mean + rng.standard_normal((m, 2)) @ chol.T
        x11[b] = x1[:, 1]
        lin[b] = a0 + a1 * x1[:, 0]
    for b, m in blocks:
        lin[b] += a2 * rng.exponential(p["x2_mean"], m)
    for b, m in blocks:
        lin[b] += a3 * rng.normal(p["v_mean"], p["v_sd"], m)
    # u, then eps with a column per period: three normals a unit that
    # only move the stream on to the uniforms of assignment.
    for _, m in blocks:
        rng.standard_normal(3 * m)
    treated = np.empty(units, dtype=bool)
    for b, m in blocks:
        treated[b] = rng.random(m) < glm_fit.expit(lin[b])
    del lin
    x11 = x11[treated]
    return float(x11.mean()), float(x11.std(ddof=1) / np.sqrt(x11.size))


def rank_probe_designs(*blocks):
    """Designs on both sides of ``np.linalg.matrix_rank``'s threshold, built
    from the given design blocks by changing their last column the same way
    in each: the column duplicated exactly, duplicated with a 1e-9
    perturbation, and the column scaled by 1e6.  Yields block tuples."""
    wiggle = 1e-9 * np.cos(np.arange(blocks[0].shape[0]))
    yield tuple(np.column_stack([X, X[:, -1]]) for X in blocks)
    yield tuple(np.column_stack([X, X[:, -1] + wiggle]) for X in blocks)
    yield tuple(np.column_stack([X[:, :-1], 1e6 * X[:, -1]]) for X in blocks)


def check_rank_verdict(fit, *blocks):
    """Fit ``blocks`` and check the rank verdict against ``matrix_rank`` on
    the blocks stacked: RankDeficientDesignError exactly when it finds the
    rank below the column count (any other outcome means full rank).  A
    model fit that returns reports only finite, positive variances: its
    ``se_fixed``, or the diagonal of its ``cov_alpha`` if it has one."""
    X = np.vstack(blocks)
    deficient = np.linalg.matrix_rank(X) < X.shape[1]
    try:
        result = fit(*blocks)
    except RankDeficientDesignError:
        assert deficient
    except PanelCausalError:
        assert not deficient
    else:
        assert not deficient
        if isinstance(result, LMMFit):
            variances = result.se_fixed
        elif isinstance(result, PSFit) and result.cov_alpha is not None:
            variances = np.diag(result.cov_alpha)
        else:
            return
        assert np.all(np.isfinite(variances) & (variances > 0.0))


def near_collinear_treatment(seed, n=40):
    """Covariates ``x`` and ``w = 1.4 x + 1e-10 z`` and a fair-coin
    treatment ``d`` of n units: the treatment design ``(1, x, w)`` is full
    rank by ``matrix_rank``, but on some seeds its information matrix at the
    logistic optimum is singular in floating point."""
    rng = substream(seed, 0)
    x = 30.0 * rng.standard_normal(n)
    z = rng.standard_normal(n)
    d = (rng.random(n) < 0.5).astype(float)
    return x, 1.4 * x + 1e-10 * z, d


# The replicate kernels as they were first written, kept as references for
# the rewritten kernels, which must return the same arrays bit for bit.
# Each reads the kernel module's constants when it is called.

def assert_same_bits(got, want):
    """The arrays hold the same bytes: the same dtype and shape, and every
    float the same, NaN and the sign of zero included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, (got, want)
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), (
        got, want)


def _logistic_terms_reference(eta, y, C):
    e = np.abs(eta)
    np.exp(np.negative(e, out=e), out=e)
    buf = 1.0 + e
    prob = np.where(eta >= 0.0, 1.0, e)
    prob /= buf
    terms = np.log1p(e, out=e)
    terms += np.maximum(eta, 0.0, out=buf)
    terms -= np.multiply(y, eta, out=buf)
    terms *= C
    return prob, 2.0 * terms.sum(axis=-1)


def fit_logistic_batch_reference(rows, C):
    """``glm_fit._fit_logistic_batch``: the IRLS from ``_logistic_terms`` at
    zero, every active fit gathered at every step, and every fit tested for
    probabilities at the edge."""
    g, L = glm_fit, lmm_fit
    k, n = C.shape
    y = rows.y
    units = C.sum(axis=1)
    treated = L._dot(C, y)
    full = L._full_rank(rows.gram(C), C, (rows.X,))
    status = np.where((treated > 0.0) & (treated < units), L._OK, L._ONE_CLASS)
    alpha = np.zeros((k, rows.X.shape[-1]))
    prob, dev = _logistic_terms_reference(np.zeros((k, n)), y, C)
    n_iter = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    active = status == L._OK
    for it in range(1, g._MAX_ITER + 1):
        a = np.flatnonzero(active)
        if a.size == 0:
            break
        ra, Ca, pa = rows.take(a), C[a], prob[a]
        step = L._each(L._solve, ra.gram(Ca * (pa * (1.0 - pa))), ra.cross(Ca * (ra.y - pa)))
        alpha[a] += step
        prob[a], dev_a = _logistic_terms_reference(ra.fitted(alpha[a]), ra.y, Ca)
        singular = np.any(np.isnan(step), axis=1)
        unbounded = ~np.all(np.abs(alpha[a]) <= L._COEF_BOUND, axis=1)
        done = np.abs(dev_a - dev[a]) < g._TOL
        dev[a] = dev_a
        n_iter[a] = it
        status[a] = np.select([singular, unbounded],
                              [L._NOT_PD if it == 1 else L._SINGULAR, L._UNBOUNDED], L._OK)
        converged[a] = done & (status[a] == L._OK)
        active[a] = ~done & (status[a] == L._OK)
    status[(status == L._OK) & (dev < g._SEPARATED_DEVIANCE)] = L._SEPARATED
    edge = np.any((C > 0.0) & ((prob < g._PROB_EDGE) | (prob > 1.0 - g._PROB_EDGE)), axis=1)
    status[(status == L._OK) & ~converged & edge] = L._STALLED
    status[(status != L._ONE_CLASS) & ~full] = L._RANK_DEFICIENT
    return dict(prob=prob, alpha=alpha, n_iter=n_iter, converged=converged, deviance=dev,
                status=status)


def quantile_bins_batch_reference(ps, C, K):
    """``glm_fit._quantile_bins_batch``: the order statistics found by a
    ``(k, 2 (K - 1), n)`` comparison with the cumulative counts, and the
    occupied bins by one pass per bin."""
    k, n = ps.shape
    order = np.argsort(ps, axis=1)
    s = np.take_along_axis(ps, order, axis=1)
    cum = np.cumsum(np.take_along_axis(C, order, axis=1), axis=1)
    N = cum[:, -1:]
    virtual = (N - 1) * (np.arange(1, K) / K)
    prev = np.floor(virtual)
    gamma = virtual - prev
    pos = np.minimum(np.concatenate([prev, prev + 1], axis=1), N - 1)
    at = np.sum(cum[:, None, :] <= pos[:, :, None], axis=2)
    a, b = np.split(np.take_along_axis(s, at, axis=1), 2, axis=1)
    diff = b - a
    edges = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    distinct = np.concatenate(
        [np.ones((k, 1), dtype=bool), edges[:, 1:] > edges[:, :-1]], axis=1)
    bins = np.zeros((k, n), dtype=np.intp)
    for j in range(K - 1):
        bins += distinct[:, j, None] & (edges[:, j, None] < ps)
    occupied = np.stack([(C * (bins == j)).sum(axis=1) > 0 for j in range(K)], axis=1)
    return dict(bins=bins, edges=edges, distinct=distinct, occupied=occupied)


def bins_reference(ps, C, k_bins):
    """The ``labels`` and ``n_bins`` of ``glm_fit._quantile_bins_batch``:
    each unit's bin renumbered among its fit's occupied bins of
    :func:`quantile_bins_batch_reference`, and their count."""
    cut = quantile_bins_batch_reference(ps, C, k_bins)
    labels = np.take_along_axis(np.cumsum(cut["occupied"], axis=1) - 1, cut["bins"], axis=1)
    return labels, cut["occupied"].sum(axis=1)


def find_roots_reference(f, a, b, fa, fb):
    """``lmm_fit._find_roots``: ``f(x, i)`` evaluates the active members
    ``i`` (sorted indices), every bracket array indexed by them at every
    step."""
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    x = np.full(a.shape, np.nan)
    converged = np.zeros(a.shape, dtype=bool)
    active = np.ones(a.shape, dtype=bool)
    for _ in range(lmm_fit._ROOT_STEPS):
        i = np.flatnonzero(active)
        if i.size == 0:
            break
        x[i] = b[i] - fb[i] * (b[i] - a[i]) / (fb[i] - fa[i])
        fx = f(x[i], i)
        kept = (fx > 0.0) == (fb[i] > 0.0)
        fa[i] = np.where(kept, 0.5 * fa[i], fb[i])
        a[i] = np.where(kept, a[i], b[i])
        b[i], fb[i] = x[i], fx
        finite = np.isfinite(fx)
        converged[i] = finite & ((fx == 0.0) | (np.abs(b[i] - a[i]) <= lmm_fit._XATOL))
        active[i] = finite & ~converged[i]
    return x, converged


def fit_lmm_batch_reference(rows, C, bins=None, n_bins=0, random_intercept=True):
    """``lmm_fit._fit_lmm_batch``: fresh arrays for the fitted values and
    residuals of both row blocks at once, and each ``np.sum(C * r * r)``
    formed with its two products."""
    L = lmm_fit
    s, d = rows
    k = C.shape[0]
    units = C.sum(axis=1)
    p = s.X.shape[-1]
    q = 0 if bins is None else n_bins - 1
    m = p + q
    if q:
        labels = (bins + n_bins * np.arange(k)[:, None]).ravel()

    def bin_sums(v):
        sums = np.bincount(labels, weights=v.ravel(), minlength=k * n_bins)
        return sums.reshape(k, n_bins)[:, 1:]

    Gd = np.zeros((k, m, m))
    Gs = np.zeros((k, m, m))
    Gd[:, :p, :p] = d.gram(C)
    Gs[:, :p, :p] = s.gram(C)
    if q:
        cross = L._RT2 * np.stack([bin_sums(v) for v in s.columns(C)], axis=2)
        Gs[:, p:, :p] = cross
        Gs[:, :p, p:] = np.swapaxes(cross, 1, 2)
        Gs[:, np.arange(p, m), np.arange(p, m)] = 2.0 * bin_sums(C)
    G = Gd + Gs
    full = L._full_rank(G, C, (s.X, d.X), bins)
    chol = L._each(np.linalg.cholesky, G)
    status = np.where(np.all(np.isfinite(chol), axis=(1, 2)), L._OK, L._NOT_PD)
    chol[status == L._NOT_PD] = np.eye(m)

    def residuals(ed, es, b):
        fd = d.fitted(b[:, :p])
        fs = s.fitted(b[:, :p])
        if q:
            per_bin = np.concatenate([np.zeros((k, 1)), b[:, p:]], axis=1)
            fs += L._RT2 * per_bin.ravel()[labels].reshape(k, -1)
        return np.subtract(ed, fd, out=fd), np.subtract(es, fs, out=fs)

    def crossprod(vd, vs):
        gd = np.zeros((k, m))
        gs = np.empty((k, m))
        gd[:, :p] = d.cross(C * vd)
        gs[:, :p] = s.cross(C * vs)
        if q:
            gs[:, p:] = L._RT2 * bin_sums(C * vs)
        return gd, gs

    V, mu = L._simultaneous_basis(chol, Gs)
    Vt = np.swapaxes(V, 1, 2)
    gd, gs = crossprod(d.y, s.y)
    beta0 = (V @ (Vt @ (gd + gs)[:, :, None]))[:, :, 0]
    rd, rs = residuals(d.y, s.y, beta0)
    gd, gs = crossprod(rd, rs)
    stats = (
        np.sum(C * rd * rd, axis=1)[:, None],
        np.sum(C * rs * rs, axis=1)[:, None],
        (Vt @ gd[:, :, None])[:, None, :, 0],
        (Vt @ gs[:, :, None])[:, None, :, 0],
        mu[:, None, :],
        units[:, None],
    )
    log_lambda = np.full(k, L._LOG_LAMBDA_LO)
    converged = np.ones(k, dtype=bool)
    if random_intercept:
        at = np.arange(k)
        grid = np.linspace(L._LOG_LAMBDA_LO, L._LOG_LAMBDA_HI, L._GRID_POINTS)
        terms = L._profile_terms(grid, stats)
        ll, score = L._loglik_of(terms, stats[-1]), L._score_of(terms, stats[-1])
        j = np.argmax(ll, axis=1)
        a = np.maximum(j - 1, 0)
        b = np.minimum(j + 1, L._GRID_POINTS - 1)
        bracket = (score[at, a] > 0.0) & (score[at, b] < 0.0)
        log_lambda = grid[j]
        best = ll[at, j]
        converged = (((j == 0) & (score[:, 0] <= 0.0))
                     | ((j == L._GRID_POINTS - 1) & (score[:, -1] >= 0.0)))
        i = np.flatnonzero(bracket)
        if i.size:
            sub = tuple(v[i] for v in stats)
            log_lambda[i], converged[i] = L._find_roots(
                lambda x, *live: L._score_of(L._profile_terms(x[:, None], live), live[-1])[:, 0],
                grid[a[i]], grid[b[i]], score[i, a[i]], score[i, b[i]], sub)
            best[i] = L._loglik_of(L._profile_terms(log_lambda[i, None], sub), sub[-1])[:, 0]
        status[(status == L._OK) & ~np.isfinite(ll).any(axis=1)] = L._FLAT
        boundary = ll[:, 0] >= best
        log_lambda[boundary] = L._LOG_LAMBDA_LO
        converged |= boundary
    lam = np.where(log_lambda <= L._LOG_LAMBDA_LO + 1e-8, 0.0, np.exp(log_lambda))
    w = 1.0 / (1.0 + 2.0 * lam)
    A = Gd + w[:, None, None] * Gs
    delta = L._each(L._solve, A, gd + w[:, None] * gs)
    rd, rs = residuals(rd, rs, delta)
    rss = np.sum(C * rd * rd, axis=1) + w * np.sum(C * rs * rs, axis=1)
    status[(status == L._OK) & ~(np.isfinite(rss) & (rss > 0.0))] = L._DEGENERATE
    status[~full] = L._RANK_DEFICIENT
    return dict(beta=beta0 + delta, log_lambda=log_lambda, lam=lam, converged=converged,
                rss=rss, A=A, status=status, stats=stats)


def outcome_design_reference(batch, kind, spec):
    """``estimators._Batch._design`` of an outcome model: the counterfactual
    blocks built whole from the term columns, the observed t=1 block picked
    from them by treatment, their difference, and for the mixed model the
    t=0 block and the sum and difference rows of the two blocks."""
    data, terms = batch.data, spec.outcome_terms
    n = data.n

    def block(t, d):
        return np.column_stack([panel_data._term_column(term, data, t, d) for term in terms])

    cf_treated, cf_control = block(1, np.ones(n)), block(1, np.zeros(n))
    X1 = batch._split(np.where((data.d1 == 1)[:, None], cf_treated, cf_control))
    diff = batch._split(cf_treated - cf_control)
    if kind == "post":
        return diff, lmm_fit._Rows(X1, batch.y1)
    X0 = batch._split(block(0, np.zeros(n)))
    rt2 = lmm_fit._RT2
    return diff, (lmm_fit._Rows((X0 + X1) / rt2, (batch.y0 + batch.y1) / rt2),
                  lmm_fit._Rows((X1 - X0) / rt2, (batch.y1 - batch.y0) / rt2))
