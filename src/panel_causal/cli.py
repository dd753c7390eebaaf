"""Command-line surface: simulate, estimate, bootstrap, diagnose, study.

Each command reads its arguments from the parsed namespace, which
:func:`run` normalizes once (method and estimand upper-cased, the model
spec resolved).  Every check runs before the input is used: argument
checks before the CSV is read, and the checks that need the data
(``--k-bins`` against the unit count, ``--relative`` against a zero
pre-period mean) right after it is loaded, before any fit.

A command writes its primary output to stdout (or ``--output``), and exits
0 on success, 2 on a validation problem, 1 on a computation failure.
Failures print a single ``ERROR:<kind>:<message>`` line to stderr, and
:func:`main` prints each warning shown as one ``WARNING:<kind>:<message>``
line there (:func:`run` leaves warnings to the caller).  Outputs
are byte-identical for identical arguments and seed.  ``bootstrap`` exits 1
when no replicate fits.  ``--threads`` is accepted and ignored, so that
scripts passing it keep working: replicates run in order on one thread, and
the library functions take no thread count.
"""

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import BootstrapFailureError, InvalidArgumentError, PanelCausalError
from .estimators import ESTIMANDS, METHOD_TABLE, METHODS
from .glm_fit import _check_k_bins, fit_propensity
from .inference import (
    EstimatorConfig,
    _baseline,
    _check_alpha,
    _check_B,
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

__all__ = ["build_parser", "run", "main"]

_METHOD_CHOICES = tuple(m.lower() for m in METHODS)
_ESTIMAND_CHOICES = tuple(e.lower() for e in ESTIMANDS)
_MODEL_FLAGS = {"outcome model": "--covariates", "treatment model": "--ps-covariates"}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="panel-causal",
        description="Causal effect estimation from two-period panel data.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler):
        p = sub.add_parser(
            name, help=help_text, description=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        p.set_defaults(handler=handler)
        return p

    def add_input(p, estimator=False):
        p.add_argument("--input", metavar="FILE", required=True, help="panel CSV path")
        if estimator:
            p.add_argument("--method", required=True, choices=_METHOD_CHOICES)
            p.add_argument("--estimand", choices=_ESTIMAND_CHOICES, default="ate")

    def add_B(p, help_text):
        p.add_argument("--B", type=int, default=500, help=help_text)

    def add_relative(p, what):
        p.add_argument("--relative", action="store_true",
                       help=f"also report {what} as a percentage of the mean "
                            "pre-period response")

    def add_k_bins(p):
        p.add_argument("--k-bins", type=int, default=5,
                       help="propensity quantile bins for the doubly robust fit")

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
        add_k_bins(p)

    def add_scenario(p, n_help):
        p.add_argument("--scenario", required=True, choices=SCENARIO_IDS)
        p.add_argument("--n", type=int, default=250, help=n_help)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0, help="random seed")

    def add_common(p, threaded=True):
        add_seed(p)
        p.add_argument("--output", metavar="FILE", default=None,
                       help="write the primary output here instead of stdout")
        p.add_argument("--format", dest="fmt", choices=("text", "csv", "json"),
                       default="text", help="output format")
        if threaded:
            p.add_argument("--threads", type=int, default=1,
                           help="ignored; replicates run in order on one thread")

    p = add("simulate", "Draw a synthetic scenario dataset and write it as CSV.", _cmd_simulate)
    add_scenario(p, "number of units")
    p.add_argument("--replicate", type=int, default=0,
                   help="replicate index within the seed's stream family, 0 to 2**64-1")
    add_seed(p)
    p.add_argument("--output", metavar="FILE", required=True,
                   help="destination CSV path")

    p = add("estimate", "Run one estimator on a panel CSV.", _cmd_estimate)
    add_input(p, estimator=True)
    add_relative(p, "the effect")
    add_model_flags(p)
    add_common(p, threaded=False)

    p = add("bootstrap", "Cluster-bootstrap confidence interval for one estimator.",
            _cmd_bootstrap)
    add_input(p, estimator=True)
    add_B(p, "bootstrap replicates")
    add_relative(p, "the point estimate")
    add_model_flags(p)
    add_common(p)

    p = add("diagnose", "Balance check, DR specification tests, backward elimination.",
            _cmd_diagnose)
    add_input(p)
    p.add_argument("--check", choices=("balance", "dr-test", "eliminate", "all"),
                   default="all", help="which diagnostics to run")
    add_B(p, "bootstrap replicates for the DR tests")
    p.add_argument("--alpha", type=float, default=0.10,
                   help="p-value cutoff for backward elimination")
    add_model_flags(p)
    add_common(p)

    p = add("study", "Monte Carlo bias/variance study of the estimator suite.",
            _cmd_study)
    add_scenario(p, "units per replicate")
    p.add_argument("--reps", dest="R", type=int, default=1000,
                   help="study replicates")
    p.add_argument("--estimand", choices=(*_ESTIMAND_CHOICES, "both"), default="both",
                   help="which estimand the text table shows")
    add_k_bins(p)
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
    except (UnicodeDecodeError, RecursionError) as exc:
        raise InvalidArgumentError(f"--spec: {path} is not readable JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise InvalidArgumentError(f"--spec: {path} must hold a JSON object")
    return ModelSpec.from_dict(payload)


def _build_spec(args, post_period=False):
    """Resolve --spec / --covariates / --ps-covariates into a ModelSpec."""
    inline = args.covariates is not None or args.ps_covariates is not None
    if args.spec is not None and inline:
        raise InvalidArgumentError(
            "pass either --spec or the inline covariate flags, not both"
        )
    if args.spec is not None:
        return _load_spec_file(args.spec)
    if not inline:
        return None
    covs = _split_list(args.covariates)
    ps_covs = _split_list(args.ps_covariates)
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


def _normalize(args):
    """Upper-case the method and estimand, and resolve the spec flags into
    a ModelSpec (file read, inline flags expanded) before any command runs."""
    for name in ("method", "estimand"):
        if name in args:
            setattr(args, name, getattr(args, name).upper())
    if "spec" in args:
        post_period = "method" in args and METHOD_TABLE[args.method].outcome == "post"
        args.spec = _build_spec(args, post_period=post_period)


def _estimator_config(args):
    missing = METHOD_TABLE[args.method].missing_model(args.spec)
    if missing:
        raise InvalidArgumentError(
            f"--method {args.method.lower()} needs its {missing}: "
            f"pass --spec or {_MODEL_FLAGS[missing]}"
        )
    _check_k_bins(args.k_bins, name="--k-bins")
    return EstimatorConfig(
        method=args.method,
        estimand=args.estimand,
        spec=args.spec,
        k_bins=args.k_bins,
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

def _cmd_simulate(args):
    scenario = Scenario(args.scenario, args.n)
    data = generate_scenario(scenario, args.seed, replicate=args.replicate)
    write_csv(data, args.output)
    return 0


def _load(args, binned):
    """The input CSV, checked against the arguments that depend on it
    before anything is fitted: at least ``--k-bins`` units for a
    ``binned`` (doubly robust) command, and a nonzero pre-period mean for
    ``--relative``."""
    data = load_csv(args.input)
    if binned:
        _check_k_bins(args.k_bins, data.n, name="--k-bins")
    if getattr(args, "relative", False):
        _baseline(data)
    return data


def _cmd_estimate(args):
    config = _estimator_config(args)
    data = _load(args, METHOD_TABLE[config.method].bins_ps)
    value = evaluate_estimator(config, data)
    payload = {"method": config.method, "estimand": config.estimand, "value": value}
    if args.relative:
        payload["relative_pct"] = relative_effect(value, data)
    _emit(payload, args.fmt, args.output)
    return 0


def _cmd_bootstrap(args):
    config = _estimator_config(args)
    _check_B(args.B, name="--B")
    data = _load(args, METHOD_TABLE[config.method].bins_ps)
    res = cluster_bootstrap(data, config, args.B, args.seed)
    if res.n_failed == res.B:
        # Every summary would be undefined: there is nothing to report.
        raise BootstrapFailureError(f"all {res.B} bootstrap replicates failed to fit")
    payload = {"method": config.method, "estimand": config.estimand, **asdict(res)}
    if args.relative:
        payload["relative_pct"] = relative_effect(res.point, data)
    _emit(payload, args.fmt, args.output)
    return 0


def _cmd_diagnose(args):
    spec = args.spec
    if spec is None:
        raise InvalidArgumentError("diagnose needs --spec or the inline covariate flags")
    run_balance = args.check in ("balance", "all")
    run_dr = args.check in ("dr-test", "all")
    run_elim = args.check in ("eliminate", "all")
    if (run_balance or run_dr) and not spec.ps_terms:
        raise InvalidArgumentError(f"check '{args.check}' needs a treatment model "
                                   "(ps_terms or --ps-covariates)")
    if (run_dr or run_elim) and not spec.outcome_terms:
        raise InvalidArgumentError(f"check '{args.check}' needs an outcome model "
                                   "(outcome_terms or --covariates)")
    if run_dr:
        _check_B(args.B, name="--B")
        _check_k_bins(args.k_bins, name="--k-bins")
    if run_elim:
        _check_alpha(args.alpha, name="--alpha")
    data = _load(args, run_dr)
    payload = {}
    if run_balance:
        report = balance_check(data, fit_propensity(data, spec))
        payload["balance.r2_ps_only"] = report.r2_ps_only
        payload["balance.r2_with_covariates"] = report.r2_with_covariates
        payload["balance.balanced"] = report.balanced
        if report.note:
            payload["balance.note"] = report.note
    if run_dr:
        res = dr_specification_test(data, spec, B=args.B, seed=args.seed,
                                    k_bins=args.k_bins)
        for name in ("z_ps", "z_or", "reject_ps", "reject_or", "B", "n_failed"):
            payload[f"dr_test.{name}"] = getattr(res, name)
    if run_elim:
        selected = backward_eliminate(data, spec, alpha=args.alpha)
        payload["eliminate.outcome_terms"] = ",".join(
            term_label(t) for t in selected.outcome_terms
        )
        payload["eliminate.ps_terms"] = ",".join(
            term_label(t) for t in selected.ps_terms
        )
    _emit(payload, args.fmt, args.output)
    return 0


def _cmd_study(args):
    scenario = Scenario(args.scenario, args.n)
    _check_k_bins(args.k_bins, scenario.n, name="--k-bins")
    _check_B(args.R, name="--reps")
    result = run_study(scenario, DEFAULT_SUITE, R=args.R, seed=args.seed,
                       k_bins=args.k_bins)
    if args.fmt == "json":
        text = _json_text(asdict(result))
    elif args.fmt == "csv":
        text = render_table(result, fmt="csv")
    else:
        estimands = ESTIMANDS if args.estimand == "BOTH" else (args.estimand,)
        text = "\n".join(render_table(result, estimand=e, fmt="text") for e in estimands)
    _write_out(text, args.output)
    return 0


def run(argv=None):
    """Parse ``argv`` and execute; returns the process exit code."""
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)
    try:
        _normalize(args)
        return args.handler(args)
    except PanelCausalError as exc:
        print(f"ERROR:{exc.kind}:{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"ERROR:IO:{exc}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:
        print(f"ERROR:LinearAlgebra:{exc}", file=sys.stderr)
        return 1


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Print a warning as one ``WARNING:<kind>:<message>`` line, the kind
    being the class name without ``Warning``, as error kinds drop ``Error``."""
    print(f"WARNING:{category.__name__.removesuffix('Warning')}:{message}", file=sys.stderr)


def main():
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        code = run()
    sys.exit(code)


if __name__ == "__main__":
    main()
