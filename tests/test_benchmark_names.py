import importlib.util
import json
import re
from pathlib import Path

import ringconv

ROOT = Path(__file__).resolve().parents[1]


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_function_metric_names_a_traced_span():
    # A metric named after a deleted or unexported function would otherwise
    # only surface as a KeyError from `perfbench/run.py --trace 1`.
    tracer_module = load_tracer_module()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        names = set(tracer.names)
    finally:
        tracer.uninstall()
    layers = "|".join(tracer_module.LAYERS)
    pattern = re.compile(rf"^((?:{layers})\..+)\.(?:self_s|calls|points)$")
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    spans = [match.group(1) for match in map(pattern.match, metrics) if match]
    assert spans, "no per-layer metric names a function"
    assert sorted(set(spans) - names) == []
    assert not hasattr(ringconv.special.bessel_j0, "__wrapped__")  # uninstall put the originals back
