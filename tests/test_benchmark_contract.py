"""The benchmark's view of the package must match the package.

The benchmark's tracer times ``<module>.<function>`` by wrapping the
functions in each module's ``__all__`` (plus ``PanelDataset.take``), and
its workloads call the CLI with fixed arguments.  A metric whose function
was renamed or dropped from ``__all__``, or a flag the CLI no longer takes,
would fail only when the benchmark runs; these tests catch it with the
suite.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from panel_causal import PanelDataset
from panel_causal.cli import build_parser, run

_BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
_SPAN_FIELDS = ("calls", "s", "failed")


def _span_metrics():
    names = [m["name"] for m in json.loads(_BENCHMARK.read_text())["per_layer"]]
    return [n for n in names if n.count(".") == 2 and n.rsplit(".", 1)[1] in _SPAN_FIELDS]


@pytest.mark.parametrize("metric", _span_metrics())
def test_span_metric_names_a_traced_function(metric):
    module_name, function, _ = metric.split(".")
    if (module_name, function) == ("panel_data", "take"):
        assert inspect.isfunction(PanelDataset.__dict__["take"])
        return
    module = importlib.import_module(f"panel_causal.{module_name}")
    assert function in module.__all__
    assert inspect.isfunction(getattr(module, function))


def test_package_functions_are_traced_where_they_are_defined():
    # The tracer wraps the names in each defining module's __all__ and
    # rebinds them in the package too; a function the package exports but
    # its module does not list is never traced.
    import panel_causal

    for name in panel_causal.__all__:
        obj = getattr(panel_causal, name)
        if inspect.isfunction(obj):
            module = sys.modules[obj.__module__]
            assert name in module.__all__, f"{obj.__module__}.__all__ lacks {name}"


def _load_workloads():
    path = _BENCHMARK.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Leave no bytecode cache in the benchmark's directory.
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


_BENCH = _load_workloads()
_WORKLOADS = _BENCH.WORKLOADS


@pytest.mark.parametrize("name", sorted(_WORKLOADS))
@pytest.mark.parametrize("threads", [1, 2])
def test_workload_argv_parses(name, threads, tmp_path):
    # The benchmark drives the CLI only; every flag it passes, --threads
    # included, must stay part of the command line.
    argv = _WORKLOADS[name].argv(0, str(tmp_path), str(tmp_path / "out"),
                                 threads=threads)
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_bootstrap_workload_output_holds_its_invariants(tmp_path):
    # The batched bootstrap must still give the benchmark's bootstrap call
    # an output its seed-independent checks accept.
    workload = _WORKLOADS["bootstrap-drglmm"]
    workload.prepare(0, str(tmp_path))
    out = tmp_path / "out.json"
    assert run(workload.argv(0, str(tmp_path), str(out))) == 0
    numbers, counts = workload.parse(out.read_text(encoding="utf-8"))
    assert workload.invariants(numbers, counts, 0) == []


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(_WORKLOADS))
def test_workload_output_matches_the_reference(name, seed, tmp_path):
    # The benchmark's correctness check: counts exactly, and every number
    # within the tolerances recorded with the reference outputs.
    workload = _WORKLOADS[name]
    workload.prepare(seed, str(tmp_path))
    out = tmp_path / "out"
    assert run(workload.argv(seed, str(tmp_path), str(out))) == 0
    problems, _ = _BENCH.check_output(workload, out.read_bytes(), seed,
                                      _BENCH.load_reference())
    assert problems == []
