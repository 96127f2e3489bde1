"""The benchmark traces fbpinn functions by name (perfbench/spans.py's
LAYERS). A layer whose functions are all gone is reported as missing and
drops its metrics from the result line, so every layer must still name at
least one function of the package."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize("layer", sorted(spans.LAYERS))
def test_every_traced_layer_names_a_function_of_fbpinn(layer):
    found = [path for path in spans.LAYERS[layer] if spans._resolve("fbpinn", path)]
    assert found, f"no function of {spans.LAYERS[layer]} exists in fbpinn"
