"""Every span of the per-layer benchmark metrics still finds its function.

perfbench/spans.py wraps msindex functions by (module, attribute) and
silently skips a name that no longer exists, so a rename would drop
the metrics built on it.  SPANS is read from the source with ast,
without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

_SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# integrate_tail was folded into integrate; the benchmark still lists it
_DEAD = {("msindex.families", "integrate_tail")}


def _spans():
    tree = ast.parse(_SPANS_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no SPANS in perfbench/spans.py")


def test_every_span_resolves_to_a_callable():
    spans = _spans()
    assert spans
    missing = {(module, attr) for module, attr, _ in spans
               if not callable(getattr(importlib.import_module(module), attr, None))}
    assert missing <= _DEAD
