"""The per-layer metrics BENCHMARK.json names must name real functions.

The benchmark's tracer times ``<module>.<function>`` by wrapping the
functions in each module's ``__all__`` (plus ``PanelDataset.take``).  A
metric whose function was renamed or dropped from ``__all__`` would fail
only when the traced benchmark runs; this test catches it with the suite.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from panel_causal import PanelDataset

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
