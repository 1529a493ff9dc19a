"""Every span behind a declared per-layer metric names code that exists in ``qsann``.

The benchmark's tracer (``perfbench/tracing.py``) wraps the functions of its
``FUNCTIONS`` list and the engine methods of its ``ENGINE_METHODS`` map, and
skips a target that is missing; a refactor that renames or drops one loses a
metric that ``BENCHMARK.json`` declares.  This reads both tables from the
tracer's source, without importing or running it, and resolves each span.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def tracer_table(name):
    """The literal value the tracer's module assigns to ``name``."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"perfbench/tracing.py assigns no {name}")


FUNCTION_SPANS = {f"{module}.{function}" for module, function in tracer_table("FUNCTIONS")}
ENGINE_SPANS = tracer_table("ENGINE_METHODS")
# spans behind the declared self-time and call-count metrics
SPANS = sorted({m.rsplit(".", 1)[0] for m in PER_LAYER if m.endswith((".self_ms", ".calls"))})


@pytest.mark.parametrize("span", SPANS)
def test_declared_span_resolves(span):
    module, function = span.split(".")
    home = importlib.import_module(f"qsann.{module}")
    if span in FUNCTION_SPANS:
        assert callable(getattr(home, function, None)), f"qsann.{span} is gone"
        return
    methods = [method for method, name in ENGINE_SPANS.items() if name == span]
    assert methods, f"{span} is neither a traced function nor an engine method span"
    engines = [
        cls for cls in vars(home).values()
        if isinstance(cls, type) and cls.__module__ == home.__name__
        and cls.__name__.endswith("Engine")
    ]
    assert any(callable(cls.__dict__.get(m)) for cls in engines for m in methods), span
