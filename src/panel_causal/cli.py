"""Command-line surface: simulate, estimate, bootstrap, diagnose, study.

Every command validates its inputs before computing, writes its primary
output to stdout (or ``--output``), and exits 0 on success, 2 on a
validation problem, 1 on a computation failure.  Failures print a single
``ERROR:<kind>:<message>`` line to stderr.  Outputs are byte-identical for
identical arguments and seed.  ``bootstrap`` exits 1 when no replicate
fits.  ``--threads`` is accepted and ignored, so that scripts passing it
keep working: replicates run in order on one thread, and the library
functions take no thread count.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .errors import BootstrapFailureError, InvalidArgumentError, PanelCausalError
from .estimators import ESTIMANDS, METHOD_TABLE, METHODS
from .glm_fit import _check_k_bins, fit_propensity
from .inference import (
    EstimatorConfig,
    backward_eliminate,
    balance_check,
    cluster_bootstrap,
    dr_specification_test,
    evaluate_estimator,
    relative_effect,
)
from .panel_data import ModelSpec, load_csv, parse_term, term_label, write_csv
from .simlab import (
    DEFAULT_SUITE,
    SCENARIO_IDS,
    Scenario,
    generate_scenario,
    render_table,
    run_study,
)

__all__ = ["RunConfig", "build_parser", "run", "main"]

_METHOD_CHOICES = tuple(m.lower() for m in METHODS)
_MODEL_FLAGS = {"outcome model": "--covariates", "treatment model": "--ps-covariates"}


@dataclass(frozen=True)
class RunConfig:
    """Validated arguments of one CLI invocation."""

    command: str
    input: str = None
    output: str = None
    spec: ModelSpec = None
    method: str = None
    estimand: str = "ATE"
    scenario: str = None
    n: int = 250
    replicate: int = 0
    seed: int = 0
    B: int = 500
    R: int = 1000
    k_bins: int = 5
    fmt: str = "text"
    alpha: float = 0.10
    check: str = "all"
    relative: bool = False


def build_parser():
    parser = argparse.ArgumentParser(
        prog="panel-causal",
        description="Causal effect estimation from two-period panel data.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        return sub.add_parser(
            name, help=help_text, description=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )

    def add_model_flags(p):
        p.add_argument("--spec", metavar="FILE", default=None,
                       help="JSON model spec with outcome_terms/ps_terms arrays "
                            "(terms like '1', 'time', 'treat', 'x1', 'x1:time', "
                            "'x1:treat', 'log(x2)')")
        p.add_argument("--covariates", metavar="LIST", default=None,
                       help="comma-separated outcome covariates for a "
                            "main-effects spec (alternative to --spec)")
        p.add_argument("--ps-covariates", metavar="LIST", default=None,
                       help="comma-separated treatment-model covariates for a "
                            "main-effects spec (alternative to --spec)")
        p.add_argument("--k-bins", type=int, default=5,
                       help="propensity quantile bins for the doubly robust fit")

    def add_common(p, threaded=True):
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--output", metavar="FILE", default=None,
                       help="write the primary output here instead of stdout")
        p.add_argument("--format", dest="fmt", choices=("text", "csv", "json"),
                       default="text", help="output format")
        if threaded:
            p.add_argument("--threads", type=int, default=1,
                           help="ignored; replicates run in order on one thread")

    p = add("simulate", "Draw a synthetic scenario dataset and write it as CSV.")
    p.add_argument("--scenario", required=True, choices=SCENARIO_IDS)
    p.add_argument("--n", type=int, default=250, help="number of units")
    p.add_argument("--replicate", type=int, default=0,
                   help="replicate index within the seed's stream family")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--output", metavar="FILE", required=True,
                   help="destination CSV path")

    p = add("estimate", "Run one estimator on a panel CSV.")
    p.add_argument("--input", metavar="FILE", required=True, help="panel CSV path")
    p.add_argument("--method", required=True, choices=_METHOD_CHOICES)
    p.add_argument("--estimand", choices=("ate", "att"), default="ate")
    p.add_argument("--relative", action="store_true",
                   help="also report the effect as a percentage of the mean "
                        "pre-period response")
    add_model_flags(p)
    add_common(p, threaded=False)

    p = add("bootstrap", "Cluster-bootstrap confidence interval for one estimator.")
    p.add_argument("--input", metavar="FILE", required=True, help="panel CSV path")
    p.add_argument("--method", required=True, choices=_METHOD_CHOICES)
    p.add_argument("--estimand", choices=("ate", "att"), default="ate")
    p.add_argument("--B", type=int, default=500, help="bootstrap replicates")
    p.add_argument("--relative", action="store_true",
                   help="also report the point estimate as a percentage of the "
                        "mean pre-period response")
    add_model_flags(p)
    add_common(p)

    p = add("diagnose", "Balance check, DR specification tests, backward elimination.")
    p.add_argument("--input", metavar="FILE", required=True, help="panel CSV path")
    p.add_argument("--check", choices=("balance", "dr-test", "eliminate", "all"),
                   default="all", help="which diagnostics to run")
    p.add_argument("--B", type=int, default=500,
                   help="bootstrap replicates for the DR tests")
    p.add_argument("--alpha", type=float, default=0.10,
                   help="p-value cutoff for backward elimination")
    add_model_flags(p)
    add_common(p)

    p = add("study", "Monte Carlo bias/variance study of the estimator suite.")
    p.add_argument("--scenario", required=True, choices=SCENARIO_IDS)
    p.add_argument("--n", type=int, default=250, help="units per replicate")
    p.add_argument("--reps", dest="R", type=int, default=1000,
                   help="study replicates")
    p.add_argument("--estimand", choices=("ate", "att", "both"), default="both",
                   help="which estimand the text table shows")
    p.add_argument("--k-bins", type=int, default=5,
                   help="propensity quantile bins for the doubly robust fit")
    add_common(p)

    return parser


def _split_list(raw):
    if raw is None:
        return ()
    items = tuple(s.strip() for s in str(raw).split(",") if s.strip())
    if not items:
        raise InvalidArgumentError("empty covariate list")
    return items


def _load_spec_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InvalidArgumentError(f"--spec: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"--spec: {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise InvalidArgumentError(f"--spec: {path} must hold a JSON object")
    return ModelSpec.from_dict(payload)


def _build_spec(args, post_period=False):
    """Resolve --spec / --covariates / --ps-covariates into a ModelSpec."""
    inline = (getattr(args, "covariates", None) is not None
              or getattr(args, "ps_covariates", None) is not None)
    if args.spec is not None and inline:
        raise InvalidArgumentError(
            "pass either --spec or the inline covariate flags, not both"
        )
    if args.spec is not None:
        return _load_spec_file(args.spec)
    if not inline:
        return None
    covs = _split_list(getattr(args, "covariates", None))
    ps_covs = _split_list(getattr(args, "ps_covariates", None)) \
        if getattr(args, "ps_covariates", None) is not None else ()
    for item in (*covs, *ps_covs):
        if parse_term(item).kind not in ("covariate", "log"):
            raise InvalidArgumentError(
                f"inline flags take plain covariates or log(...) only, got "
                f"{item!r}; use --spec for interaction terms"
            )
    outcome = ()
    if covs:
        outcome = ("1", "treat", *covs) if post_period else ("1", "time", "treat", *covs)
    ps_terms = ("1", *ps_covs) if ps_covs else ()
    return ModelSpec(outcome_terms=outcome, ps_terms=ps_terms)


def _config_from_args(args):
    """Build the validated RunConfig for one invocation.

    Model specs are resolved here (file read, inline flags expanded), so
    every later failure is a computation error, not a validation one.
    """
    kw = {"command": args.command}
    for name in ("input", "output", "method", "estimand", "scenario", "n",
                 "replicate", "seed", "B", "R", "k_bins", "fmt", "alpha",
                 "check", "relative"):
        if hasattr(args, name):
            kw[name] = getattr(args, name)
    if "method" in kw and kw["method"]:
        kw["method"] = kw["method"].upper()
    if "estimand" in kw:
        kw["estimand"] = kw["estimand"].upper()
    if args.command in ("estimate", "bootstrap"):
        post_period = METHOD_TABLE[kw["method"]].outcome == "post"
        kw["spec"] = _build_spec(args, post_period=post_period)
    elif args.command == "diagnose":
        kw["spec"] = _build_spec(args)
    return RunConfig(**kw)


def _estimator_config(cfg):
    missing = METHOD_TABLE[cfg.method].missing_model(cfg.spec)
    if missing:
        raise InvalidArgumentError(
            f"--method {cfg.method.lower()} needs its {missing}: "
            f"pass --spec or {_MODEL_FLAGS[missing]}"
        )
    return EstimatorConfig(
        method=cfg.method,
        estimand=cfg.estimand,
        spec=cfg.spec,
        k_bins=cfg.k_bins,
    )


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _fmt_scalar(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _payload_text(payload):
    return "".join(f"{k} {_fmt_scalar(v)}\n" for k, v in payload.items())


def _payload_csv(payload):
    import csv as _csv
    import io

    buf = io.StringIO()
    w = _csv.writer(buf, lineterminator="\n")
    w.writerow(list(payload))
    w.writerow([_fmt_scalar(v) for v in payload.values()])
    return buf.getvalue()


def _json_value(v):
    # JSON has no NaN or infinity; an undefined number is written as null.
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return v


def _json_text(obj):
    return json.dumps(_json_value(obj), sort_keys=True, allow_nan=False) + "\n"


def _emit(payload, fmt, output):
    if fmt == "json":
        text = _json_text(payload)
    elif fmt == "csv":
        text = _payload_csv(payload)
    else:
        text = _payload_text(payload)
    _write_out(text, output)


def _write_out(text, output):
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg):
    scenario = Scenario(cfg.scenario, cfg.n)
    data = generate_scenario(scenario, cfg.seed, replicate=cfg.replicate)
    write_csv(data, cfg.output)
    return 0


def _load(cfg, binned):
    """The input CSV; for a ``binned`` (doubly robust) command, checked
    to hold at least ``--k-bins`` units before anything is fitted."""
    data = load_csv(cfg.input)
    if binned:
        _check_k_bins(cfg.k_bins, data.n, name="--k-bins")
    return data


def _cmd_estimate(cfg):
    config = _estimator_config(cfg)
    data = _load(cfg, config.method == "DRGLMM")
    value = evaluate_estimator(config, data)
    payload = {"method": config.method, "estimand": config.estimand, "value": value}
    if cfg.relative:
        payload["relative_pct"] = relative_effect(value, data)
    _emit(payload, cfg.fmt, cfg.output)
    return 0


def _check_B(B):
    if B < 2:
        raise InvalidArgumentError(f"--B must be at least 2, got {B}")


def _cmd_bootstrap(cfg):
    config = _estimator_config(cfg)
    _check_B(cfg.B)
    data = _load(cfg, config.method == "DRGLMM")
    res = cluster_bootstrap(data, config, cfg.B, cfg.seed)
    if res.n_failed == res.B:
        # Every summary would be undefined: there is nothing to report.
        raise BootstrapFailureError(f"all {res.B} bootstrap replicates failed to fit")
    payload = {
        "method": config.method,
        "estimand": config.estimand,
        "point": res.point,
        "boot_mean": res.boot_mean,
        "se": res.se,
        "ci_lower": res.ci_lower,
        "ci_upper": res.ci_upper,
        "B": res.B,
        "n_failed": res.n_failed,
    }
    if cfg.relative:
        payload["relative_pct"] = relative_effect(res.point, data)
    _emit(payload, cfg.fmt, cfg.output)
    return 0


def _cmd_diagnose(cfg):
    spec = cfg.spec
    if spec is None:
        raise InvalidArgumentError("diagnose needs --spec or the inline covariate flags")
    run_balance = cfg.check in ("balance", "all")
    run_dr = cfg.check in ("dr-test", "all")
    run_elim = cfg.check in ("eliminate", "all")
    if (run_balance or run_dr) and not spec.ps_terms:
        raise InvalidArgumentError(f"check '{cfg.check}' needs a treatment model "
                                   "(ps_terms or --ps-covariates)")
    if (run_dr or run_elim) and not spec.outcome_terms:
        raise InvalidArgumentError(f"check '{cfg.check}' needs an outcome model "
                                   "(outcome_terms or --covariates)")
    if run_dr:
        _check_B(cfg.B)
        _check_k_bins(cfg.k_bins, name="--k-bins")
    if run_elim and not 0.0 < cfg.alpha <= 1.0:
        raise InvalidArgumentError(f"--alpha must be in (0, 1], got {cfg.alpha}")
    data = _load(cfg, run_dr)
    payload = {}
    if run_balance:
        report = balance_check(data, fit_propensity(data, spec))
        payload["balance.r2_ps_only"] = report.r2_ps_only
        payload["balance.r2_with_covariates"] = report.r2_with_covariates
        payload["balance.balanced"] = report.balanced
        if report.note:
            payload["balance.note"] = report.note
    if run_dr:
        res = dr_specification_test(data, spec, B=cfg.B, seed=cfg.seed,
                                    k_bins=cfg.k_bins)
        payload["dr_test.z_ps"] = res.z_ps
        payload["dr_test.z_or"] = res.z_or
        payload["dr_test.reject_ps"] = res.reject_ps
        payload["dr_test.reject_or"] = res.reject_or
        payload["dr_test.B"] = res.B
        payload["dr_test.n_failed"] = res.n_failed
    if run_elim:
        selected = backward_eliminate(data, spec, alpha=cfg.alpha)
        payload["eliminate.outcome_terms"] = ",".join(
            term_label(t) for t in selected.outcome_terms
        )
        payload["eliminate.ps_terms"] = ",".join(
            term_label(t) for t in selected.ps_terms
        )
    _emit(payload, cfg.fmt, cfg.output)
    return 0


def _cmd_study(cfg):
    scenario = Scenario(cfg.scenario, cfg.n)
    result = run_study(scenario, DEFAULT_SUITE, R=cfg.R, seed=cfg.seed,
                       k_bins=cfg.k_bins)
    if cfg.fmt == "json":
        text = _json_text(asdict(result))
    elif cfg.fmt == "csv":
        text = render_table(result, fmt="csv")
    else:
        estimands = ESTIMANDS if cfg.estimand == "BOTH" else (cfg.estimand,)
        text = "\n".join(render_table(result, estimand=e, fmt="text") for e in estimands)
    _write_out(text, cfg.output)
    return 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "bootstrap": _cmd_bootstrap,
    "diagnose": _cmd_diagnose,
    "study": _cmd_study,
}


def run(argv=None):
    """Parse ``argv`` and execute; returns the process exit code."""
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)
    try:
        cfg = _config_from_args(args)
        return _DISPATCH[cfg.command](cfg)
    except PanelCausalError as exc:
        print(f"ERROR:{exc.kind}:{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"ERROR:IO:{exc}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:
        print(f"ERROR:LinearAlgebra:{exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
