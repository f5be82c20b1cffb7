"""Spans around the public functions of each msindex module, from outside.

The benchmark never edits the package.  It replaces module attributes
with timing wrappers for the length of one repetition and puts the
originals back afterwards.  A wrapper is installed where the caller
looks the name up, which is not always the defining module:

- ``families`` binds ``integrate`` and ``integrate_tail`` by
  from-import, so quadrature is wrapped on ``msindex.families``;
- ``cli`` binds ``sweep`` and ``classify_at`` by from-import, so those
  are wrapped on ``msindex.cli`` as well as on ``msindex.sweep``;
- ``msindex.sweep`` on the package is the function that ``__init__``
  re-exports, so the module comes from ``importlib.import_module``.

An attribute that no longer exists is skipped; its span then records
no calls and the metrics built on it are reported as missing.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from calibrate import chunk_ms

# (module, attribute, span name)
SPANS = (
    ("msindex.cli", "main", "cli.main"),
    ("msindex.cli", "_run_sweep", "sweep.sweep"),
    ("msindex.cli", "_classify_at", "sweep.classify_at"),
    ("msindex.sweep", "sweep", "sweep.sweep"),
    ("msindex.sweep", "classify_at", "sweep.classify_at"),
    ("msindex.moduli", "analyze", "moduli.analyze"),
    ("msindex.moduli", "tangent_frame", "moduli.tangent_frame"),
    ("msindex.moduli", "key_matrices", "moduli.key_matrices"),
    ("msindex.moduli", "spectral_report", "moduli.spectral_report"),
    ("msindex.families", "integral_set", "families.integral_set"),
    ("msindex.families", "period_frame", "families.period_frame"),
    ("msindex.families", "deformation_data", "families.deformation_data"),
    ("msindex.families", "integrate", "quadrature.integrate"),
    ("msindex.families", "integrate_tail", "quadrature.integrate"),
    ("msindex.linalg", "eig_selfadjoint", "linalg.eig_selfadjoint"),
    ("msindex.linalg", "solve", "linalg.solve"),
)


@contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples, restoring them on exit."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def _size_suffix(args) -> str:
    shape = getattr(args[0], "shape", None) if args else None
    return ".n%d" % shape[-1] if shape else ""


class Tracer:
    """Calls and self time per span name, kept in memory.

    Self time is a span's duration minus the durations of the wrapped
    spans it directly encloses.  Eigen solves are split by matrix size.
    Sweep results are inspected on return for their grid size and
    transition count, and analyze calls made while a sweep span is
    open are counted apart from the others.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.top_level_s = 0.0
        self.analyze_in_sweep = 0
        self.grid_evals = 0
        self.transitions = 0
        self._stack: list[list] = []
        self._sweeps_open = 0

    def _wrap(self, fn, name: str):
        sized = name == "linalg.eig_selfadjoint"
        is_sweep = name == "sweep.sweep"

        def span(*args, **kwargs):
            key = name + _size_suffix(args) if sized else name
            if self._sweeps_open and name == "moduli.analyze":
                self.analyze_in_sweep += 1
            frame = [0.0]
            self._stack.append(frame)
            self._sweeps_open += is_sweep
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._sweeps_open -= is_sweep
                self._stack.pop()
                self.calls[key] += 1
                self.self_s[key] += dt - frame[0]
                if self._stack:
                    self._stack[-1][0] += dt
                else:
                    self.top_level_s += dt
            if is_sweep:
                self.grid_evals += len(result.samples)
                self.transitions += len(result.transitions)
            return result

        return span

    def replacements(self):
        out = []
        for mod_name, attr, name in SPANS:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                out.append((module, attr, self._wrap(fn, name)))
        return out


class LatencyProbe:
    """Latency of each analyze call that missed the analysis cache.

    With ``calibrate``, each such call is followed by one calibration
    chunk (calibrate.py), timed apart.  This is the only wrapper present
    in an untraced run: two clock reads and two cache_info reads per
    call, plus the chunk, against tens of milliseconds of work per cold
    evaluation.  A traced repetition runs without chunks, because the
    spans around an analyze call would count a chunk as their own time.
    """

    def __init__(self, moduli, calibrate: bool = True) -> None:
        self._moduli = moduli
        self._calibrate = calibrate
        self.cold_ms: list[float] = []
        self.cal_ms: list[float] = []

    def replacements(self):
        moduli = self._moduli
        inner = moduli.analyze
        info = moduli._analyze_cached.cache_info
        cold, cal = self.cold_ms, self.cal_ms
        calibrate = self._calibrate

        def analyze(*args, **kwargs):
            misses = info().misses
            t0 = time.perf_counter()
            result = inner(*args, **kwargs)
            dt = time.perf_counter() - t0
            if info().misses != misses:
                cold.append(dt * 1e3)
                if calibrate:
                    cal.append(chunk_ms())
            return result

        return [(moduli, "analyze", analyze)]
