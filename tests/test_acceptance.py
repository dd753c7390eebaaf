"""End-to-end acceptance battery.

One test per shipping requirement, in order: desk-scale study bias bands,
the time-varying-confounder pattern, ATT bands under heterogeneous
effects, 1/n variance scaling, exact algebraic identities, numerical
oracles, large-sample parameter recovery, and bootstrap coverage plus
thread-count reproducibility.  Each test prints a one-line verdict with
the measured numbers; the studies behind the first four arrive through
session fixtures so they are built once.
"""

import warnings

import numpy as np
import pytest

from panel_causal import (
    LOGIT_LINK,
    EstimatorConfig,
    ModelSpec,
    PanelCausalWarning,
    PanelDataset,
    Scenario,
    SuiteEntry,
    build_design,
    cluster_bootstrap,
    estimate_did,
    estimate_drglmm,
    estimate_glmm,
    estimate_ipw,
    estimate_ipwdid,
    estimate_or,
    fit_lmm,
    fit_propensity,
    generate_scenario,
    population_average_contrast,
    ps_design,
    render_table,
    run_study,
    scenario_specs,
    substream,
)

from helpers import ACCEPT_SEED, adaptive_contrast, anova_oracle, shift_responses


def _verdict(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_desk_study_bias_bands_and_runtime(hom250_study):
    result, elapsed = hom250_study
    bias = {lab: result.cell(lab, "ATE").bias100
            for lab in ("glmm-full", "glmm-reduced", "or-reduced", "ipwdid-full")}
    var = result.cell("glmm-full", "ATE").var
    ok = (
        -2.0 <= bias["glmm-full"] <= 3.0
        and 19.0 <= bias["glmm-reduced"] <= 28.0
        and 87.0 <= bias["or-reduced"] <= 99.0
        and -3.0 <= bias["ipwdid-full"] <= 4.0
        and 0.45 <= var <= 0.66
        and elapsed < 300.0
    )
    _verdict(
        "desk study bias bands and runtime",
        ok,
        f"bias100 glmm-full={bias['glmm-full']:.3f} in [-2,3], "
        f"glmm-reduced={bias['glmm-reduced']:.3f} in [19,28], "
        f"or-reduced={bias['or-reduced']:.3f} in [87,99], "
        f"ipwdid-full={bias['ipwdid-full']:.3f} in [-3,4]; "
        f"var glmm-full={var:.4f} in [0.45,0.66]; {elapsed:.0f}s < 300s",
    )


def test_time_varying_confounder_bias_and_mse_ordering(homti500_study):
    res = homti500_study
    b = res.cell("ipwdid-reduced", "ATE").bias100
    m1 = res.cell("ipwdid-full", "ATE").mse
    m2 = res.cell("dr-reduced-full", "ATE").mse
    m3 = res.cell("glmm-reduced", "ATE").mse
    ok = 68.0 <= b <= 80.0 and m1 < m2 < m3
    _verdict(
        "time-varying confounder pattern",
        ok,
        f"bias100 ipwdid-reduced={b:.3f} in [68,80]; "
        f"mse ipwdid-full={m1:.4f} < dr-reduced-full={m2:.4f} "
        f"< glmm-reduced={m3:.4f}",
    )


def test_att_bias_bands_under_heterogeneous_effects(het250_study):
    res = het250_study
    b_or = res.cell("or-reduced", "ATT").bias100
    b_glmm = res.cell("glmm-full", "ATT").bias100
    ok = 101.0 <= b_or <= 117.0 and abs(b_glmm) < 3.0
    _verdict(
        "heterogeneous-effect ATT bands",
        ok,
        f"bias100 or-reduced={b_or:.3f} in [101,117]; "
        f"|glmm-full|={abs(b_glmm):.3f} < 3",
    )


def test_variance_scales_inversely_with_sample_size(hom250_study, hom1000_ipwdid_study):
    small, _ = hom250_study
    big = hom1000_ipwdid_study
    parts = []
    ok = True
    for estimand in ("ATE", "ATT"):
        c250 = small.cell("ipwdid-full", estimand)
        c1000 = big.cell("ipwdid-full", estimand)
        ratio = c1000.var / c250.var
        ok = ok and 0.2 <= ratio <= 0.35 and abs(c1000.bias100) <= abs(c250.bias100)
        parts.append(
            f"{estimand}: var ratio={ratio:.4f} in [0.2,0.35], "
            f"|bias100| {abs(c250.bias100):.3f}->{abs(c1000.bias100):.3f}"
        )
    _verdict("inverse-n variance scaling", ok, "; ".join(parts))


def test_exact_algebraic_identities():
    tol = 1e-10
    specs = scenario_specs("HOM")
    data = generate_scenario(Scenario("HOM", 400), 52)
    gaps = {}

    # A flat treatment model makes the weighted and plain time differences
    # coincide.
    flat = fit_propensity(data, ModelSpec(ps_terms=("1",)))
    did = estimate_did(data).value
    iw = estimate_ipwdid(data, flat)
    gaps["ipwdid==did ATE"] = abs(iw["ATE"].value - did)
    gaps["ipwdid==did ATT"] = abs(iw["ATT"].value - did)

    # Without interaction terms the mixed-model contrast is the treatment
    # coefficient itself, for both estimands.
    mix = specs["mixed_full"]
    out = estimate_glmm(data, mix)
    des = build_design(data, mix, pre_period=True)
    fit = fit_lmm(des.X0, des.X, data.y0, data.y1)
    beta = fit.fixed_effects[list(des.columns).index("treat")]
    gaps["glmm ATE==beta"] = abs(out["ATE"].value - beta)
    gaps["glmm ATT==beta"] = abs(out["ATT"].value - beta)

    # A constant score puts every unit in one bin, so the augmentation
    # vanishes.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PanelCausalWarning)
        aug = estimate_drglmm(data, mix, flat)
    gaps["drglmm==glmm ATE"] = abs(aug["ATE"].value - out["ATE"].value)
    gaps["drglmm==glmm ATT"] = abs(aug["ATT"].value - out["ATT"].value)

    # Adding a constant to both periods' responses moves no estimate.  The
    # post-period weighting estimator is exercised at the flat score, where
    # its inverse-weight sums cancel.
    shifted = shift_responses(data, 1000.0)
    ps, ps_sh = (fit_propensity(d, specs["ps_full"])
                 for d in (data, shifted))
    flat_sh = fit_propensity(shifted, ModelSpec(ps_terms=("1",)))
    pairs = {
        "or": (estimate_or(data, specs["post_full"]),
               estimate_or(shifted, specs["post_full"])),
        "glmm": (out, estimate_glmm(shifted, mix)),
        "ipw": (estimate_ipw(data, flat),
                estimate_ipw(shifted, flat_sh)),
        "ipwdid": (estimate_ipwdid(data, ps),
                   estimate_ipwdid(shifted, ps_sh)),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PanelCausalWarning)
        pairs["drglmm"] = (estimate_drglmm(data, mix, ps),
                           estimate_drglmm(shifted, mix, ps_sh))
    for name, (a, b) in pairs.items():
        for estimand in ("ATE", "ATT"):
            gaps[f"shift {name} {estimand}"] = abs(
                a[estimand].value - b[estimand].value
            )
    gaps["shift did"] = abs(did - estimate_did(shifted).value)

    worst = max(gaps.values())
    _verdict(
        "exact algebraic identities",
        worst < tol,
        f"worst gap {worst:.2e} < 1e-10 over {len(gaps)} identities",
    )


def test_numerical_oracles():
    # Marginalization against adaptive integration, over the whole domain.
    etas = (-10.0, -4.0, -1.0, 0.0, 0.7, 3.0, 10.0)
    worst_gh = 0.0
    for s2 in (0.5, 2.0, 10.0, 30.0, 50.0):
        for e1 in etas:
            for e0 in etas:
                got = population_average_contrast(
                    np.array([e1]), np.array([e0]), s2, LOGIT_LINK, K=512
                )[0]
                worst_gh = max(worst_gh, abs(got - adaptive_contrast(e1, e0, s2)))

    # Intercept-only mixed model against the balanced-ANOVA closed form.
    rng = substream(606, 0)
    n = 80
    u = rng.normal(0.0, 2.0, n)
    y0 = 5.0 + u + rng.normal(0.0, 1.0, n)
    y1 = 5.0 + u + rng.normal(0.0, 1.0, n)
    fit = fit_lmm(np.ones((n, 1)), np.ones((n, 1)), y0, y1)
    mu, su2, se2, ll = anova_oracle(y0, y1)
    worst_lmm = max(
        abs(fit.fixed_effects[0] - mu),
        abs(fit.sigma_u2 - su2),
        abs(fit.sigma_e2 - se2),
        abs(fit.loglik - ll),
    )

    # Score equations at the logistic solution on a large fit.
    data = generate_scenario(Scenario("HOM", 5000), ACCEPT_SEED)
    spec = scenario_specs("HOM")["ps_full"]
    ps = fit_propensity(data, spec)
    M, _ = ps_design(data, spec.ps_terms)
    score = float(np.max(np.abs(M.T @ (data.d1 - ps.fitted_ps))))

    ok = worst_gh < 1e-8 and worst_lmm < 1e-6 and score < 1e-8
    _verdict(
        "numerical oracles",
        ok,
        f"quadrature vs adaptive {worst_gh:.2e} < 1e-8; "
        f"mixed model vs closed form {worst_lmm:.2e} < 1e-6; "
        f"logistic score {score:.2e} < 1e-8",
    )


def test_large_sample_parameter_recovery():
    # Bands are 3 Monte Carlo SDs, each measured once from 400 independent
    # replicates of the same fit at n=5000 and then frozen.
    specs = scenario_specs("HOM")
    data = generate_scenario(Scenario("HOM", 5000), ACCEPT_SEED)

    ps = fit_propensity(data, specs["ps_full"])
    ps_truth = np.array([-3.0, 0.2, 0.1, 0.3])
    ps_sd = np.array([0.202116, 0.013025, 0.015944, 0.030502])
    z_ps = np.abs(ps.alpha_hat - ps_truth) / ps_sd

    des = build_design(data, specs["mixed_full"], pre_period=True)
    fit = fit_lmm(des.X0, des.X, data.y0, data.y1)
    cols = list(des.columns)
    est = np.array([
        fit.fixed_effects[cols.index("time")],
        fit.fixed_effects[cols.index("treat")],
        fit.sigma_u2,
        fit.sigma_e2,
    ])
    lmm_truth = np.array([3.0, 15.0, 30.0, 20.0])
    lmm_sd = np.array([0.210231, 0.165615, 0.804805, 0.41873])
    z_lmm = np.abs(est - lmm_truth) / lmm_sd

    ok = bool(np.all(z_ps < 3.0) and np.all(z_lmm < 3.0))
    _verdict(
        "large-sample parameter recovery",
        ok,
        f"treatment-model |z|={np.round(z_ps, 2).tolist()} all < 3; "
        f"outcome-model |z|={np.round(z_lmm, 2).tolist()} all < 3",
    )


def test_bootstrap_coverage_and_thread_reproducibility():
    # Coverage: 200 independent datasets, one percentile interval each.
    cfg = EstimatorConfig("GLMM", "ATE", spec=scenario_specs("HOM")["mixed_full"])
    covered = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PanelCausalWarning)
        for j in range(200):
            data = generate_scenario(Scenario("HOM", 250), ACCEPT_SEED, replicate=j)
            br = cluster_bootstrap(data, cfg, B=400, seed=j)
            covered += int(br.ci_lower <= 15.0 <= br.ci_upper)

    # Reproducibility: a second run must not change a single byte.
    suite = (SuiteEntry("IPWDID", ps_model="full"),
             SuiteEntry("GLMM", outcome_model="full"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PanelCausalWarning)
        study_a = run_study(Scenario("HOM", 60), suite, R=8, seed=5)
        study_b = run_study(Scenario("HOM", 60), suite, R=8, seed=5)
        data = generate_scenario(Scenario("HOM", 120), 9)
        boot_a = cluster_bootstrap(data, cfg, B=40, seed=7)
        boot_b = cluster_bootstrap(data, cfg, B=40, seed=7)
    same_bytes = (
        study_a == study_b
        and render_table([study_a], fmt="csv") == render_table([study_b], fmt="csv")
        and boot_a == boot_b
    )

    ok = 180 <= covered <= 200 and same_bytes
    _verdict(
        "bootstrap coverage and run-to-run reproducibility",
        ok,
        f"interval covered 15 in {covered}/200 datasets (>=180); "
        f"identical reruns: {same_bytes}",
    )
