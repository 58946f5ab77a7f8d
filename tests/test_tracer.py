"""The benchmark tracer wraps library attributes by name; they must exist."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_and_counters_resolve():
    # only reads the tracer's tables: nothing is wrapped or installed
    tracer = load_tracer()
    modules = tracer._modules()
    for name, module, path, _ in tracer.SPANS:
        owner = modules[module]
        for part in path.split("."):
            assert hasattr(owner, part), f"span {name}: {module}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner), name
    element = modules["base_rings"].BaseElement
    for name, attr in tracer.COUNTED_OPERATORS:
        assert callable(getattr(element, attr, None)), f"counter {name}: {attr}"
