#!/usr/bin/env python3
"""Time analyses of two source trees in one process, layer by layer.

    python3 tools/pair_layers.py PARENT_SRC CHANGE_SRC [--rounds R] [--calls C]

PARENT_SRC and CHANGE_SRC are directories holding an ``msindex``
package, such as the ``src`` directory of two checkouts.  Each package
is copied under a private name (``msindex_parent``, ``msindex_change``)
into a temporary directory and imported from there; the package imports
its own modules relatively, so both load side by side.

For each point of POINTS, every round times ``moduli._analyze_stack``
on that one canonical parameter on both sides, and then on one stack of
STACK_POINTS points spread evenly over the default sweep window of
STACK_FAMILY, both ends included, as sweeps and ``reproduce`` run them;
the side that goes first
alternating from round to round, so that a drift of the host speed falls
on both alike.  A timed call is the mean of C calls, and the result per
side is the minimum over the R rounds; the analysis line also gives the
median over the rounds of the ratio of the two sides' times within a
round, which a drift of the host speed moves less.  A second, traced call per side
and round wraps each layer function of LAYERS that the tree has and
records its inclusive time within the analysis (minimum over rounds),
counting only the outermost call of a layer that calls itself; the
wrappers add their own cost to those figures, alike on both sides.

Prints one table per point and one for the stack, in microseconds, with
the relative change of each line, then whether each case's analyses are
bit for bit identical, record by record: every field of the two
SurfaceAnalysis records, arrays by dtype, shape and bytes, floats by
their hex form.  Exits 1 if one is not.
"""

from __future__ import annotations

import argparse
import importlib
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# one or two points of every family; tD folds onto tP, so tP stands for it.
# The last four refine past the fused block: H 0.05 and tP 3 in one
# table, rPD 0.1 in its unit and tail rows, and rPD 0.02, whose tail rows
# go on to level 7
POINTS = (("H", 0.3), ("rPD", 0.4), ("tP", 10.0), ("tCLP", 0.5), ("H", 0.05), ("tP", 3.0),
          ("rPD", 0.1), ("rPD", 0.02))

# the stacked case: this many points of this family's default sweep window
STACK_FAMILY, STACK_POINTS = "H", 24

# (module, attribute) of each layer timed inside one analysis; an
# attribute that a tree lacks is shown as "-"
LAYERS = (
    ("families", "integral_set"),
    ("families", "integrate"),
    ("families", "period_frame"),
    ("linalg", "solve"),
    ("linalg", "norms"),
    ("families", "deformation_data"),
    ("moduli", "tangent_frame"),
    ("moduli", "key_matrices"),
    ("moduli", "spectral_report"),
    ("linalg", "eig_selfadjoint"),
    ("moduli", "_row"),
)


def load(src: Path, name: str, into: Path):
    """The msindex package of src imported as the top-level package name,
    in place of any package imported under that name before."""
    for mod in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[mod]
    shutil.copytree(src / "msindex", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {mod: importlib.import_module("%s.%s" % (name, mod))
            for mod in ("families", "linalg", "moduli", "sweep")}


def _cases(pkg) -> list:
    """(label, canonical parameters) of each timed case: every point of
    POINTS alone, then the stack."""
    fam = pkg["families"]
    cases = [("%s %r" % (f, a), [fam.canonical_param(fam.SurfaceParam(f, a))]) for f, a in POINTS]
    lo, hi = pkg["sweep"].DEFAULT_WINDOWS[STACK_FAMILY]
    n = STACK_POINTS - 1
    grid = [lo + (hi - lo) * k / n for k in range(n)] + [hi]
    cases.append(("%s, %d points over (%r, %r)" % (STACK_FAMILY, STACK_POINTS, lo, hi),
                  [fam.SurfaceParam(STACK_FAMILY, a) for a in grid]))
    return cases


def _timed(fn, calls: int) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


class _Layers:
    """Inclusive time per layer over one traced call, by wrapping module
    attributes.  Only the outermost call of a layer is timed: a layer
    that calls itself through its module, as deformation_data of one
    parameter calls it on the list of that one, counts its time once."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.names = [(mod, attr) for mod, attr in LAYERS if hasattr(pkg[mod], attr)]
        self.spent: dict = {}
        self.open: set = set()

    def _wrap(self, key, fn):
        def layer(*args, **kwargs):
            if key in self.open:
                return fn(*args, **kwargs)
            self.open.add(key)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spent[key] = self.spent.get(key, 0.0) + time.perf_counter() - t0
                self.open.discard(key)
        return layer

    def run(self, call) -> dict:
        saved = [(mod, attr, getattr(self.pkg[mod], attr)) for mod, attr in self.names]
        self.spent = {}
        self.open = set()
        try:
            for mod, attr, fn in saved:
                setattr(self.pkg[mod], attr, self._wrap("%s.%s" % (mod, attr), fn))
            call()
        finally:
            for mod, attr, fn in saved:
                setattr(self.pkg[mod], attr, fn)
        return self.spent


def _fields(record, prefix=""):
    """(path, value) of every leaf field of a slotted record, recursively."""
    for name in record.__slots__:
        value = getattr(record, name)
        if hasattr(value, "__slots__") and not isinstance(value, np.ndarray):
            yield from _fields(value, prefix + name + ".")
        elif hasattr(value, "__dataclass_fields__"):  # SurfaceParam has no slots
            yield from ((prefix + name + "." + k, getattr(value, k))
                        for k in value.__dataclass_fields__)
        else:
            yield prefix + name, value


def _key(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return value.hex()
    return value


def differing(x, y) -> list:
    """The fields in which two analyses from different trees differ."""
    fx, fy = dict(_fields(x)), dict(_fields(y))
    return sorted(k for k in fx.keys() | fy.keys()
                  if k not in fx or k not in fy or _key(fx[k]) != _key(fy[k]))


def pair(parent_src: Path, change_src: Path, rounds: int, calls: int, out=sys.stdout) -> bool:
    """Run the comparison and print it to out; True if every case's analyses are identical."""
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            sides = {"parent": load(parent_src, "msindex_parent", Path(tmp)),
                     "change": load(change_src, "msindex_change", Path(tmp))}
        finally:
            sys.path.remove(tmp)
    config = {side: pkg["families"].QuadConfig() for side, pkg in sides.items()}
    cases = {side: _cases(pkg) for side, pkg in sides.items()}
    labels = [label for label, _ in cases["parent"]]
    layers = {side: _Layers(pkg) for side, pkg in sides.items()}
    best = {side: [dict(analyze=math.inf) for _ in labels] for side in sides}
    ratios: list = [[] for _ in labels]
    order = list(sides)
    for _ in range(rounds):
        order.reverse()
        for i in range(len(labels)):
            spent = {}
            for side in order:
                stack = sides[side]["moduli"]._analyze_stack
                ps, cfg = cases[side][i][1], config[side]
                mins = best[side][i]
                spent[side] = _timed(lambda: stack(ps, cfg), calls)
                mins["analyze"] = min(mins["analyze"], spent[side])
                for key, dt in layers[side].run(lambda: stack(ps, cfg)).items():
                    mins[key] = min(mins.get(key, math.inf), dt)
            ratios[i].append(spent["change"] / spent["parent"])
    same = True
    keys = ["analyze"] + ["%s.%s" % name for name in LAYERS]
    for i, label in enumerate(labels):
        print("%s (us; min of %d rounds x %d calls)" % (label, rounds, calls), file=out)
        print("  %-26s %10s %10s %8s" % ("", "parent", "change", "change"), file=out)
        for key in keys:
            x, y = best["parent"][i].get(key), best["change"][i].get(key)
            show = ["%10.1f" % (1e6 * v) if v is not None else "%10s" % "-" for v in (x, y)]
            rel = "%+7.1f%%" % (100.0 * (y / x - 1.0)) if x and y else "%8s" % ""
            print("  %-26s %s %s %s" % (key, *show, rel), file=out)
            if key == "analyze":
                print("  %-26s %30s" % ("analyze, median ratio", "%+7.1f%%" % (
                    100.0 * (statistics.median(ratios[i]) - 1.0))), file=out)
        px, cx = (sides[side]["moduli"]._analyze_stack(cases[side][i][1], config[side])
                  for side in ("parent", "change"))
        diff = [("[%d] " % j if len(px) > 1 else "") + key
                for j, (x, y) in enumerate(zip(px, cx)) for key in differing(x, y)]
        if len(px) != len(cx):
            diff.append("record count")
        same &= not diff
        print("  outputs: %s" % ("bit-identical" if not diff else "differ in " + ", ".join(diff)),
              file=out)
    return same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    ap.add_argument("--rounds", type=int, default=200)
    ap.add_argument("--calls", type=int, default=3)
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.calls < 1:
        ap.error("--rounds and --calls must be at least 1")
    return 0 if pair(args.parent_src, args.change_src, args.rounds, args.calls) else 1


if __name__ == "__main__":
    sys.exit(main())
