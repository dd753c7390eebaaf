"""Causal effect estimation from two-period panel data.

Estimators for average treatment effects (population and treated) that
combine outcome regression, inverse propensity weighting,
difference-in-differences, linear mixed models with marginalized contrasts,
and their doubly robust composition; cluster-bootstrap inference and
specification diagnostics; and a reproducible simulation lab for studying
estimator bias and variance under known data-generating processes.
"""

__version__ = "0.1.0"

from .errors import (
    BootstrapFailureError,
    BootstrapFailureWarning,
    DegenerateBinsWarning,
    DegenerateVarianceWarning,
    EmptyModelWarning,
    ExtremeWeightsWarning,
    InvalidArgumentError,
    InvalidTermError,
    InvalidVarianceError,
    MalformedValueError,
    MissingRowError,
    MissingValueError,
    NoOverlapError,
    NonBinaryTreatmentError,
    NonFiniteLikelihoodError,
    NonFiniteLinearPredictorError,
    NonPositiveLogError,
    NoVariationInOutcomeError,
    PanelCausalError,
    PanelCausalWarning,
    RankDeficientDesignError,
    ReplicateFailureWarning,
    SeparationError,
    TimeVaryingDowngradeWarning,
    TreatedAtBaselineError,
    UnknownCovariateError,
    ValidationError,
)
from .rng import substream
from .panel_data import (
    ColumnMapping,
    DesignMatrices,
    ModelSpec,
    PanelDataset,
    Term,
    build_design,
    load_csv,
    parse_term,
    ps_design,
    term_label,
    write_csv,
)
from .glm_fit import (
    PSDummies,
    PSFit,
    fit_logistic,
    fit_propensity,
    ps_quantile_dummies,
)
from .lmm_fit import LMMFit, fit_lmm, fit_or, profile_loglik
from .marginalize import (
    IDENTITY_LINK,
    LOGIT_LINK,
    LinkFunction,
    QuadratureRule,
    gauss_hermite_rule,
    link_function,
    population_average_contrast,
)
from .estimators import (
    ESTIMANDS,
    METHOD_TABLE,
    METHODS,
    EffectEstimate,
    MethodInfo,
    estimate_did,
    estimate_effects,
    estimate_drglmm,
    estimate_glmm,
    estimate_ipw,
    estimate_ipwdid,
    estimate_or,
)
from .inference import (
    BalanceReport,
    BootstrapResult,
    DRTestResult,
    EstimatorConfig,
    backward_eliminate,
    balance_check,
    cluster_bootstrap,
    dr_specification_test,
    evaluate_estimator,
    relative_effect,
)
from .simlab import (
    DEFAULT_SUITE,
    SCENARIO_IDS,
    Scenario,
    StudyCell,
    StudyResult,
    SuiteEntry,
    TrueEffects,
    generate_scenario,
    parse_table,
    render_table,
    run_study,
    scenario_specs,
    true_effects,
)

__all__ = [
    "__version__",
    # errors and warnings
    "PanelCausalError", "ValidationError", "MissingRowError",
    "NonBinaryTreatmentError", "TreatedAtBaselineError", "MissingValueError",
    "MalformedValueError", "NoOverlapError", "UnknownCovariateError",
    "NonPositiveLogError", "InvalidTermError", "InvalidArgumentError",
    "RankDeficientDesignError", "SeparationError", "NoVariationInOutcomeError",
    "NonFiniteLikelihoodError", "InvalidVarianceError",
    "NonFiniteLinearPredictorError", "BootstrapFailureError",
    "PanelCausalWarning", "TimeVaryingDowngradeWarning",
    "ExtremeWeightsWarning", "DegenerateBinsWarning",
    "BootstrapFailureWarning", "ReplicateFailureWarning",
    "DegenerateVarianceWarning", "EmptyModelWarning",
    # rng
    "substream",
    # panel data
    "PanelDataset", "ColumnMapping", "ModelSpec", "Term",
    "DesignMatrices", "parse_term", "term_label", "build_design", "ps_design",
    "load_csv", "write_csv",
    # model fitting
    "PSFit", "PSDummies", "fit_logistic", "fit_propensity",
    "ps_quantile_dummies", "LMMFit", "fit_lmm", "fit_or", "profile_loglik",
    # marginalization
    "LinkFunction", "IDENTITY_LINK", "LOGIT_LINK", "link_function",
    "QuadratureRule", "gauss_hermite_rule", "population_average_contrast",
    # estimators
    "METHODS", "ESTIMANDS", "METHOD_TABLE", "MethodInfo", "EffectEstimate",
    "estimate_effects", "estimate_or", "estimate_glmm", "estimate_ipw",
    "estimate_did", "estimate_ipwdid", "estimate_drglmm",
    # inference
    "EstimatorConfig", "BootstrapResult", "DRTestResult", "BalanceReport",
    "evaluate_estimator", "relative_effect", "cluster_bootstrap",
    "dr_specification_test", "balance_check", "backward_eliminate",
    # simulation lab
    "SCENARIO_IDS", "Scenario", "TrueEffects", "SuiteEntry", "DEFAULT_SUITE",
    "StudyCell", "StudyResult", "generate_scenario", "true_effects",
    "scenario_specs", "run_study", "render_table", "parse_table",
]
