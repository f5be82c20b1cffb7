"""Every span of the per-layer benchmark metrics still finds its function,
and the functions that a sweep (stacked grid included) and a cold
one-point analyze run through fire.

perfbench/spans.py wraps msindex functions by (module, attribute) and
silently skips a name that no longer exists, so a rename would drop
the metrics built on it, and a layer that the stacked grid reaches
without looking up that attribute would drop them as silently.  SPANS
is read from the source with ast, without importing the benchmark.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

from msindex import SurfaceParam, moduli
from msindex.sweep import DEFAULT_WINDOWS, SweepConfig

_SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# integrate_tail was folded into integrate; the benchmark still lists it
_DEAD = {("msindex.families", "integrate_tail")}

# the spans of perfbench's per-layer metrics that every workload reaches;
# eigenvalue solves count apart by matrix size
_CORE = {
    "quadrature.integrate", "families.integral_set", "families.period_frame",
    "families.deformation_data", "moduli.tangent_frame", "moduli.key_matrices",
    "moduli.spectral_report", "moduli.analyze", "linalg.solve",
    "linalg.eig_selfadjoint.n3", "linalg.eig_selfadjoint.n9", "linalg.eig_selfadjoint.n18",
}


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


def _counted(fn, name, calls):
    def span(*args, **kwargs):
        shape = getattr(args[0], "shape", None) if args else None
        calls[name + (".n%d" % shape[-1] if name == "linalg.eig_selfadjoint" and shape else "")] += 1
        return fn(*args, **kwargs)
    return span


def _count_spans(monkeypatch):
    calls = Counter()
    for module_name, attr, name in _spans():
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is not None:
            monkeypatch.setattr(module, attr, _counted(fn, name, calls))
    return calls


def test_a_sweep_of_each_family_fires_every_core_span(monkeypatch):
    calls = _count_spans(monkeypatch)
    sweep_module = importlib.import_module("msindex.sweep")
    moduli._analyze_cached.cache_clear()
    for family, (lo, hi) in DEFAULT_WINDOWS.items():
        sweep_module.sweep(family, SweepConfig(lo, hi, steps=16))
    assert calls["sweep.sweep"] == len(DEFAULT_WINDOWS)
    assert {span for span in _CORE if not calls[span]} == set()


@pytest.mark.parametrize("family", sorted(DEFAULT_WINDOWS))
def test_a_cold_one_point_analyze_fires_every_core_span(family, monkeypatch):
    # the path of the analyze_cold workload: one point, a cache miss
    lo, hi = DEFAULT_WINDOWS[family]
    calls = _count_spans(monkeypatch)
    moduli._analyze_cached.cache_clear()
    moduli.analyze(SurfaceParam(family, 0.5 * (lo + hi)))
    assert moduli._analyze_cached.cache_info().misses == 1
    assert {span for span in _CORE if not calls[span]} == set()
    # one solve (tau) and one 3x3 eigendecomposition (Im tau) per surface
    assert calls["linalg.solve"] == calls["linalg.eig_selfadjoint.n3"] == 1
