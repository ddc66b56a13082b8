"""The per-layer metrics of BENCHMARK.json name floqlab functions.

The benchmark's tracer records a function only if it is a public function
defined in its layer module (`floqlab.<layer>.<function>`), and reports a
metric whose function is missing as null.  So renaming or deleting a traced
function has to travel with a change to the benchmark.
"""

import importlib
import json
import types
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
FUNCTION_METRICS = [
    metric["name"]
    for metric in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    if metric["name"].count(".") == 2
]


def test_benchmark_declares_function_metrics():
    assert FUNCTION_METRICS


@pytest.mark.parametrize("metric", FUNCTION_METRICS)
def test_metric_names_a_public_layer_function(metric):
    layer, function, _ = metric.split(".")
    module = importlib.import_module(f"floqlab.{layer}")
    fn = getattr(module, function, None)
    assert not function.startswith("_")
    assert isinstance(fn, types.FunctionType), f"floqlab.{layer}.{function} is gone"
    assert fn.__module__ == module.__name__
