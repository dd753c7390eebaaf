"""End-to-end CLI behavior: outputs, formats, exit codes, determinism."""

import argparse
import functools
import gzip
import ast
import inspect
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import panel_causal
from panel_causal import (
    EstimatorConfig,
    ExtremeWeightsWarning,
    ModelSpec,
    backward_eliminate,
    cluster_bootstrap,
    dr_specification_test,
    estimate_did,
    estimate_or,
    load_csv,
    parse_table,
    run_study,
    write_csv,
)
from panel_causal.cli import build_parser, run

from helpers import extreme_ps_dataset, make_dataset, source_env, tiny_panel


def _simulate(tmp_path, name="panel.csv", scenario="HOM", n=120, seed=0, replicate=0):
    out = tmp_path / name
    rc = run([
        "simulate", "--scenario", scenario, "--n", str(n),
        "--seed", str(seed), "--replicate", str(replicate),
        "--output", str(out),
    ])
    assert rc == 0
    return out


def _text_payload(text):
    payload = {}
    for line in text.strip().split("\n"):
        key, _, value = line.partition(" ")
        payload[key] = value
    return payload


class TestParsing:
    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert "panel-causal" in capsys.readouterr().out

    def test_missing_command_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_unknown_choice_is_usage_error(self, tmp_path, capsys):
        rc = run(["simulate", "--scenario", "LONDON",
                  "--output", str(tmp_path / "x.csv")])
        assert rc == 2


class TestDefaults:
    # A parser default restates the default of the library function the
    # flag feeds; the two must not drift apart.
    @pytest.mark.parametrize("command,dest,function,parameter", [
        ("estimate", "k_bins", EstimatorConfig, "k_bins"),
        ("bootstrap", "k_bins", EstimatorConfig, "k_bins"),
        ("diagnose", "k_bins", dr_specification_test, "k_bins"),
        ("study", "k_bins", run_study, "k_bins"),
        ("diagnose", "B", dr_specification_test, "B"),
        ("diagnose", "seed", dr_specification_test, "seed"),
        ("diagnose", "alpha", backward_eliminate, "alpha"),
        ("study", "R", run_study, "R"),
        ("study", "seed", run_study, "seed"),
    ])
    def test_parser_default_is_the_library_default(self, command, dest,
                                                   function, parameter):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        want = inspect.signature(function).parameters[parameter].default
        assert sub.choices[command].get_default(dest) == want


class TestSimulate:
    def test_writes_a_loadable_panel(self, tmp_path):
        path = _simulate(tmp_path, n=150, seed=4)
        data = load_csv(str(path))
        assert data.n == 150
        assert data.covariate_names == ("x1", "x2", "v")

    def test_bytes_depend_on_seed_and_replicate_only(self, tmp_path):
        a = _simulate(tmp_path, "a.csv", seed=1).read_bytes()
        b = _simulate(tmp_path, "b.csv", seed=1).read_bytes()
        c = _simulate(tmp_path, "c.csv", seed=1, replicate=3).read_bytes()
        d = _simulate(tmp_path, "d.csv", seed=2).read_bytes()
        assert a == b
        assert a != c
        assert a != d

    @pytest.mark.parametrize("replicate", ["-1", str(2**64)])
    def test_replicate_outside_the_stream_range_is_a_validation_problem(
            self, tmp_path, capsys, replicate):
        out = tmp_path / "x.csv"
        rc = run(["simulate", "--scenario", "HOM", "--n", "50",
                  "--replicate", replicate, "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ERROR:InvalidArgument:")
        assert not out.exists()

    def test_largest_replicate_index_is_drawn(self, tmp_path):
        path = _simulate(tmp_path, n=50, replicate=2**64 - 1)
        assert load_csv(str(path)).n == 50


class TestEstimate:
    def test_did_text_output(self, tmp_path, capsys):
        path = _simulate(tmp_path)
        rc = run(["estimate", "--input", str(path), "--method", "did",
                  "--estimand", "att"])
        assert rc == 0
        payload = _text_payload(capsys.readouterr().out)
        assert payload["method"] == "DID"
        assert payload["estimand"] == "ATT"
        want = estimate_did(load_csv(str(path))).value
        assert float(payload["value"]) == want

    def test_did_does_not_answer_ate(self, tmp_path, capsys):
        path = _simulate(tmp_path)
        rc = run(["estimate", "--input", str(path), "--method", "did",
                  "--estimand", "ate"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ERROR:InvalidArgument:")

    def test_inline_covariates_build_a_main_effects_model(self, tmp_path, capsys):
        path = _simulate(tmp_path)
        rc = run(["estimate", "--input", str(path), "--method", "or",
                  "--covariates", "x1,x2"])
        assert rc == 0
        payload = _text_payload(capsys.readouterr().out)
        data = load_csv(str(path))
        spec = ModelSpec(outcome_terms=("1", "treat", "x1", "x2"))
        assert float(payload["value"]) == estimate_or(data, spec)["ATE"].value

    def test_json_format_and_relative_effect(self, tmp_path, capsys):
        path = _simulate(tmp_path)
        rc = run(["estimate", "--input", str(path), "--method", "did",
                  "--estimand", "att", "--relative", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        data = load_csv(str(path))
        assert payload["relative_pct"] == pytest.approx(
            100.0 * payload["value"] / float(np.mean(data.y0)), abs=1e-12
        )

    def test_spec_file_and_inline_flags_are_exclusive(self, tmp_path, capsys):
        path = _simulate(tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text('{"outcome_terms": ["1", "treat", "x1"]}')
        rc = run(["estimate", "--input", str(path), "--method", "or",
                  "--spec", str(spec), "--covariates", "x1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ERROR:InvalidArgument:")

    def test_inline_flags_reject_interactions(self, tmp_path, capsys):
        path = _simulate(tmp_path)
        rc = run(["estimate", "--input", str(path), "--method", "or",
                  "--covariates", "x1:treat"])
        assert rc == 2
        assert "use --spec" in capsys.readouterr().err

    def test_spec_file_supports_interactions(self, tmp_path, capsys):
        path = _simulate(tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "outcome_terms": ["1", "time", "treat", "x1", "x1:treat"],
            "random_effect": "unit_intercept",
        }))
        rc = run(["estimate", "--input", str(path), "--method", "glmm",
                  "--estimand", "att", "--spec", str(spec)])
        assert rc == 0
        assert "value" in _text_payload(capsys.readouterr().out)

    def test_broken_spec_file(self, tmp_path, capsys):
        path = _simulate(tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text("{not json")
        rc = run(["estimate", "--input", str(path), "--method", "or",
                  "--spec", str(spec)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ERROR:InvalidArgument:")

    @pytest.mark.parametrize("content", [
        pytest.param('{"outcome_terms": ["1", "treat", "\u00e9"]}'.encode("latin-1"),
                     id="latin1"),
        pytest.param(b"[" * 100_000, id="deeply_nested"),
    ])
    def test_unreadable_spec_file(self, tmp_path, capsys, content):
        path = _simulate(tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_bytes(content)
        rc = run(["estimate", "--input", str(path), "--method", "or",
                  "--spec", str(spec)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("ERROR:InvalidArgument:")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("terms", ['"1"', "5", "null", '{"1": 0, "time": 0, "treat": 0}',
                                       '[1, "time", "treat"]', '["1", null, "time", "treat"]'])
    def test_spec_file_term_list_is_a_list(self, tmp_path, capsys, terms):
        path = _simulate(tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text('{"outcome_terms": %s}' % terms)
        rc = run(["estimate", "--input", str(path), "--method", "glmm",
                  "--spec", str(spec)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("ERROR:InvalidTerm:")
        assert captured.err.count("\n") == 1

    def test_missing_outcome_model(self, tmp_path, capsys):
        path = _simulate(tmp_path)
        rc = run(["estimate", "--input", str(path), "--method", "glmm"])
        assert rc == 2
        assert "outcome model" in capsys.readouterr().err

    def test_missing_input_file_is_io_failure(self, tmp_path, capsys):
        rc = run(["estimate", "--input", str(tmp_path / "absent.csv"),
                  "--method", "did", "--estimand", "att"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR:IO:")

    @pytest.mark.parametrize("name,encode", [
        ("panel.csv.gz", gzip.compress),
        ("latin1.csv", lambda text: text.replace(b'"a"', b'"caf\xe9"')),
    ], ids=["gzip", "latin1_id"])
    def test_input_that_is_not_utf8_is_a_malformed_value(self, tmp_path, capsys,
                                                          name, encode):
        path = tmp_path / name
        path.write_bytes(encode(b'unit_id,time,treat,y\r\n"a",0,0,1.0\r\n"a",1,1,2.0\r\n'
                                b'b,0,0,1.5\r\nb,1,0,1.0\r\n'))
        rc = run(["estimate", "--input", str(path), "--method", "did",
                  "--estimand", "att"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("ERROR:MalformedValue:")
        assert captured.err.count("\n") == 1

    def test_empty_covariate_list_is_a_validation_problem(self, tmp_path, capsys):
        path = _simulate(tmp_path)
        rc = run(["estimate", "--input", str(path), "--method", "glmm",
                  "--covariates", ""])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ERROR:InvalidArgument:")

    def test_computation_failure_exits_one(self, tmp_path, capsys):
        n = 30
        d = np.repeat([1, 0], n // 2)
        s = d - 0.5  # separates the classes perfectly
        rng_y = np.linspace(0.0, 1.0, n)
        data = make_dataset(rng_y, rng_y + d, d, covariates=[s], names=("s",))
        path = tmp_path / "separated.csv"
        write_csv(data, str(path))
        rc = run(["estimate", "--input", str(path), "--method", "ipw",
                  "--ps-covariates", "s"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR:Separation:")


class TestBootstrap:
    def test_matches_library_call(self, tmp_path, capsys):
        path = _simulate(tmp_path, n=90)
        rc = run(["bootstrap", "--input", str(path), "--method", "did",
                  "--estimand", "att", "--B", "25", "--seed", "11",
                  "--format", "json", "--threads", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        data = load_csv(str(path))
        cfg = EstimatorConfig(method="DID", estimand="ATT")
        res = cluster_bootstrap(data, cfg, B=25, seed=11)
        assert payload["point"] == res.point
        assert payload["boot_mean"] == res.boot_mean
        assert payload["se"] == res.se
        assert payload["ci_lower"] == res.ci_lower
        assert payload["ci_upper"] == res.ci_upper
        assert payload["B"] == 25
        assert payload["n_failed"] == res.n_failed

    def test_threads_leave_bytes_unchanged(self, tmp_path):
        path = _simulate(tmp_path, n=90)
        outs = []
        for tag, threads in (("t1", "1"), ("t3", "3")):
            out = tmp_path / f"{tag}.json"
            rc = run(["bootstrap", "--input", str(path), "--method", "did",
                      "--estimand", "att", "--B", "30", "--seed", "2",
                      "--format", "json", "--threads", threads,
                      "--output", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


    def test_too_few_replicates_is_a_validation_problem(self, tmp_path, capsys):
        # The input path does not exist: validation must fail before reading it.
        rc = run(["bootstrap", "--input", str(tmp_path / "never-read.csv"),
                  "--method", "did", "--estimand", "att", "--B", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ERROR:InvalidArgument:")

    def test_every_replicate_failing_is_a_computation_failure(self, tmp_path, capsys):
        # Three units, one treated: both resamples of seed 17 miss the
        # treated unit, so no replicate has both groups.
        path = tmp_path / "three.csv"
        write_csv(tiny_panel(3), str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = run(["bootstrap", "--input", str(path), "--method", "did",
                      "--estimand", "att", "--B", "2", "--seed", "17",
                      "--format", "json"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR:BootstrapFailure:")


class TestDiagnose:
    def test_balance_only(self, tmp_path, capsys):
        path = _simulate(tmp_path, n=200)
        rc = run(["diagnose", "--input", str(path), "--check", "balance",
                  "--ps-covariates", "x1,x2,v"])
        assert rc == 0
        payload = _text_payload(capsys.readouterr().out)
        assert payload["balance.balanced"] in ("true", "false")
        assert "dr_test.z_ps" not in payload

    def test_dr_test_needs_an_outcome_model(self, tmp_path, capsys):
        path = _simulate(tmp_path)
        rc = run(["diagnose", "--input", str(path), "--check", "dr-test",
                  "--ps-covariates", "x1,x2,v"])
        assert rc == 2
        assert "outcome model" in capsys.readouterr().err

    def test_eliminate_reports_term_lists(self, tmp_path, capsys):
        path = _simulate(tmp_path, n=200, seed=3)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "outcome_terms": ["1", "time", "treat", "x1", "x2"],
            "ps_terms": ["1", "x1", "x2", "v"],
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = run(["diagnose", "--input", str(path), "--check", "eliminate",
                      "--spec", str(spec)])
        assert rc == 0
        payload = _text_payload(capsys.readouterr().out)
        kept = payload["eliminate.outcome_terms"].split(",")
        assert kept[:3] == ["1", "time", "treat"]
        assert payload["eliminate.ps_terms"].startswith("1")

    def test_needs_some_model(self, tmp_path, capsys):
        path = _simulate(tmp_path)
        rc = run(["diagnose", "--input", str(path)])
        assert rc == 2

    @pytest.mark.parametrize("check", ["dr-test", "all"])
    def test_too_few_bins_is_a_validation_problem(self, check, tmp_path, capsys):
        # The input path does not exist: validation must fail before reading it.
        rc = run(["diagnose", "--input", str(tmp_path / "never-read.csv"),
                  "--check", check, "--covariates", "x1,x2",
                  "--ps-covariates", "x1,x2,v", "--k-bins", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ERROR:InvalidArgument:")


    @pytest.mark.parametrize("check,flag,value", [
        ("dr-test", "--B", "1"), ("all", "--B", "1"),
        ("eliminate", "--alpha", "0"), ("all", "--alpha", "0"),
        ("all", "--alpha", "1.5"),
    ])
    def test_bad_B_or_alpha_is_a_validation_problem(self, check, flag, value,
                                                    tmp_path, capsys):
        # The input path does not exist: validation must fail before reading it.
        rc = run(["diagnose", "--input", str(tmp_path / "never-read.csv"),
                  "--check", check, "--covariates", "x1,x2",
                  "--ps-covariates", "x1,x2,v", flag, value])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ERROR:InvalidArgument:")

    def test_too_few_dr_replicates_is_a_typed_failure(self, tmp_path, capsys):
        path = tmp_path / "six.csv"
        write_csv(tiny_panel(6), str(path))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"outcome_terms": ["1", "time", "treat"],
                                    "ps_terms": ["1"]}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = run(["diagnose", "--input", str(path), "--check", "dr-test",
                      "--spec", str(spec), "--B", "2", "--seed", "21",
                      "--k-bins", "2"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR:BootstrapFailure:")


    def test_json_writes_undefined_numbers_as_null(self, tmp_path, capsys):
        # Covariate s separates the treatment, so the balance fits are
        # inconclusive and both pseudo-R2 values are NaN.
        rng = np.random.default_rng(0)
        d = np.array([1] * 10 + [0] * 20)
        z = rng.normal(size=30)
        s = d + rng.uniform(0.1, 0.5, size=30)
        path = tmp_path / "separated.csv"
        write_csv(make_dataset(rng.normal(size=30), rng.normal(size=30), d,
                               covariates=[z, s], names=("z", "s")), str(path))
        argv = ["diagnose", "--input", str(path), "--check", "balance",
                "--ps-covariates", "z"]

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        assert run(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["balance.r2_ps_only"] is None
        assert payload["balance.r2_with_covariates"] is None
        assert payload["balance.balanced"] is None
        assert payload["balance.note"].startswith("inconclusive")
        # Text output still spells the value out.
        assert run(argv) == 0
        assert _text_payload(capsys.readouterr().out)["balance.r2_ps_only"] == "nan"


class TestBinsAgainstUnits:
    @pytest.mark.parametrize("argv", [
        ["estimate", "--method", "drglmm"],
        ["bootstrap", "--method", "drglmm", "--B", "4"],
        ["diagnose", "--check", "dr-test"],
        ["diagnose", "--check", "all"],
    ])
    def test_more_bins_than_units_fails_before_any_fit(self, argv, tmp_path,
                                                       capsys, monkeypatch):
        calls = []

        def spy(fit, *args, **kwargs):
            calls.append(args)
            return fit(*args, **kwargs)

        # Every treatment-model fit of these commands goes through one of
        # these: the estimators fit theirs by the batch kernel.
        for module, name in (("cli", "fit_propensity"), ("estimators", "_fit_logistic_batch")):
            fit = getattr(getattr(panel_causal, module), name)
            monkeypatch.setattr(f"panel_causal.{module}.{name}", functools.partial(spy, fit))
        path = _simulate(tmp_path, n=120)
        rc = run(argv + ["--input", str(path), "--covariates", "x1,x2",
                         "--ps-covariates", "x1,x2,v", "--k-bins", "121"])
        assert rc == 2
        assert calls == []
        assert capsys.readouterr().err.startswith("ERROR:InvalidArgument:")


class TestKBinsFlag:
    @pytest.mark.parametrize("k_bins", ["1", "121"])
    @pytest.mark.parametrize("argv", [
        ["estimate", "--method", "drglmm"],
        ["bootstrap", "--method", "drglmm", "--B", "4"],
        ["diagnose", "--check", "dr-test"],
        ["study", "--scenario", "HOM", "--n", "120", "--reps", "2"],
    ])
    def test_bound_errors_name_the_flag(self, argv, k_bins, tmp_path, capsys):
        if argv[0] != "study":
            argv = argv + ["--input", str(_simulate(tmp_path, n=120)),
                           "--covariates", "x1,x2", "--ps-covariates", "x1,x2,v"]
        rc = run(argv + ["--k-bins", k_bins])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ERROR:InvalidArgument:--k-bins ")


class TestRelativeBeforeFit:
    @pytest.mark.parametrize("argv", [
        ["estimate", "--method", "drglmm"],
        ["bootstrap", "--method", "drglmm", "--B", "400"],
    ])
    def test_zero_baseline_fails_before_any_fit(self, argv, tmp_path, capsys,
                                                monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("estimated before --relative was checked")

        for name in ("evaluate_estimator", "cluster_bootstrap"):
            monkeypatch.setattr(f"panel_causal.cli.{name}", never)
        data = load_csv(str(_simulate(tmp_path, n=300)))
        path = tmp_path / "zero-baseline.csv"
        write_csv(make_dataset(np.zeros(data.n), data.y1, data.d1,
                               covariates=data.x0.T, covariates_post=data.x1.T,
                               names=data.covariate_names),
                  str(path))
        rc = run(argv + ["--input", str(path), "--covariates", "x1,x2",
                         "--ps-covariates", "x1,x2,v", "--relative"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "ERROR:InvalidArgument:relative effect undefined")


class TestStudy:
    def test_text_shows_both_estimands(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = run(["study", "--scenario", "HOM", "--n", "80", "--reps", "2",
                      "--seed", "0", "--threads", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "estimand ATE" in out and "estimand ATT" in out
        assert "glmm-full" in out and "ipwdid-reduced" in out

    def test_csv_round_trips(self, tmp_path):
        out = tmp_path / "study.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = run(["study", "--scenario", "HOM", "--n", "80", "--reps", "2",
                      "--seed", "0", "--format", "csv", "--threads", "2",
                      "--output", str(out)])
        assert rc == 0
        results = parse_table(out.read_text())
        assert len(results) == 1
        assert results[0].scenario_id == "HOM"
        assert results[0].R == 2
        assert len(results[0].cells) == 24  # 12 suite entries x 2 estimands

    @pytest.mark.parametrize("k_bins", ["1", "0", "-3"])
    def test_too_few_bins_is_a_validation_problem(self, k_bins, capsys):
        rc = run(["study", "--scenario", "HOM", "--n", "80", "--reps", "2",
                  "--k-bins", k_bins])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ERROR:InvalidArgument:")

    @pytest.mark.parametrize("reps", ["1", "0", "-3"])
    def test_too_few_replicates_name_the_flag(self, reps, capsys, monkeypatch):
        # As --B does for the bootstrap and the DR test, before anything is
        # drawn.
        def no_study(*args, **kwargs):
            raise AssertionError("a study ran before validation")

        monkeypatch.setattr("panel_causal.cli.run_study", no_study)
        rc = run(["study", "--scenario", "HOM", "--n", "80", "--reps", reps])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"ERROR:InvalidArgument:--reps must be at least 2, got {reps}\n")

    def test_more_bins_than_units_is_a_validation_problem(self, capsys):
        # Every doubly robust fit of a 20-unit draw would fail with 25 bins.
        rc = run(["study", "--scenario", "HOM", "--n", "20", "--reps", "3",
                  "--k-bins", "25"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("ERROR:InvalidArgument:")
        assert captured.out == ""

    def test_json_is_valid(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = run(["study", "--scenario", "HOM", "--n", "80", "--reps", "2",
                      "--seed", "1", "--format", "json", "--threads", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario_id"] == "HOM"
        assert isinstance(payload["cells"], list)


class TestEntryPoint:
    def test_installed_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "panel_causal.cli", "--version"],
            capture_output=True, text=True, env=source_env(),
        )
        assert proc.returncode == 0
        assert "panel-causal" in proc.stdout

    def test_error_kind_is_the_class_name_without_error(self):
        # The <kind> of ERROR:<kind>:<message>, for every exported error
        # and for a subclass defined elsewhere; the base class says "Error".
        class ExampleError(panel_causal.InvalidArgumentError):
            pass

        base = panel_causal.PanelCausalError
        errors = [getattr(panel_causal, name) for name in panel_causal.__all__]
        errors = [e for e in errors if isinstance(e, type) and issubclass(e, base)]
        assert len(errors) == 19 and base.kind == "Error"
        for error in [e for e in errors if e is not base] + [ExampleError]:
            assert error.kind == error.__name__.removesuffix("Error")
        assert (panel_causal.ValidationError.kind, ExampleError.kind) == ("Validation", "Example")

    def test_warnings_print_as_one_tagged_line(self, tmp_path):
        # Like an error's ERROR:<kind>:<message>, with no file location or
        # source line, which mean nothing to a CLI user.
        panel = tmp_path / "panel.csv"
        write_csv(extreme_ps_dataset(), str(panel))
        proc = subprocess.run(
            [sys.executable, "-m", "panel_causal.cli", "bootstrap", "--input", str(panel),
             "--method", "ipw", "--ps-covariates", "x1", "--B", "5", "--seed", "0"],
            capture_output=True, text=True, env=source_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            "WARNING:ExtremeWeights:propensity scores outside [0.01, 0.99]; "
            "inverse weights may be unstable"
        ]

    def test_run_leaves_warnings_to_the_caller(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        write_csv(extreme_ps_dataset(), str(panel))
        with pytest.warns(ExtremeWeightsWarning):
            rc = run(["bootstrap", "--input", str(panel), "--method", "ipw",
                      "--ps-covariates", "x1", "--B", "5", "--seed", "0"])
        assert rc == 0
        assert "WARNING:" not in capsys.readouterr().err

    def test_import_leaves_scipy_stats_out(self):
        # scipy.stats costs about half a second of every CLI start, and
        # nothing in the package needs it.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, panel_causal.cli; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True, env=source_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; SciPy serves the tests'
        # independent oracles alone.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, panel_causal, panel_causal.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, env=source_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_no_source_file_imports_scipy(self):
        # A syntax-tree scan also sees imports inside functions, which an
        # import of the package does not run.
        found = []
        for path in sorted(Path(panel_causal.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "scipy"]
        assert found == []


class TestThreadCount:
    """Outputs are bit-identical for a fixed seed at any BLAS thread count."""

    @staticmethod
    def _outputs(tmp_path, threads):
        env = {**source_env(), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        panel = str(tmp_path / "panel.csv")
        model = ["--method", "drglmm", "--estimand", "att",
                 "--covariates", "x1,x2", "--ps-covariates", "x1,x2,v", "--format", "json"]
        commands = {
            "study": ["study", "--scenario", "HET", "--n", "200", "--reps", "30",
                      "--seed", "3", "--format", "csv"],
            "bootstrap": ["bootstrap", "--input", panel, *model, "--B", "30", "--seed", "4"],
            "estimate": ["estimate", "--input", panel, *model],
        }
        outs = {}
        for name, argv in commands.items():
            out = tmp_path / f"{name}-{threads}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "panel_causal.cli", *argv, "--output", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs[name] = out.read_bytes()
        return outs

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        _simulate(tmp_path, n=600, seed=5)
        one = self._outputs(tmp_path, "1")
        assert one == self._outputs(tmp_path, "4")
