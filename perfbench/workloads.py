"""The benchmark's workloads: inputs drawn from the seed, the timed call
into msindex, and the checks of every output against the shipped
reference tables.

Each workload runs in repetitions.  ``inputs(rng)`` draws one
repetition's inputs, ``run(inputs)`` is the timed part, and
``check(inputs, outputs, info, tally)`` compares the outputs with the
reference after the clock has stopped.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from spans import patched

# one analyze outside every workload window, to fill the node cache
WARMUP = ("H", 0.995)

# dimension of the key matrix W: p + q + nullity_E
_KEY_DIM = 9


def setup(src: Path):
    """Import msindex from src, load the reference tables, warm up once.

    Returns the reference tables.  Raises SystemExit when src holds no
    msindex package, so the benchmark never measures another copy.
    """
    pkg = src / "msindex"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit("no msindex package under %s" % src)
    sys.path.insert(0, str(src))
    import msindex

    if Path(msindex.__file__).resolve().parent != pkg.resolve():
        raise SystemExit("msindex imported from %s, not %s"
                         % (msindex.__file__, pkg))
    text = resources.files("msindex.data").joinpath(
        "reference_tables.json").read_text(encoding="utf-8")
    reference = json.loads(text)
    msindex.analyze(msindex.SurfaceParam(*WARMUP))
    return reference


@dataclass
class Tally:
    """Operations attempted and failed, plus the accuracy figures.

    An operation is one analyze call, one sweep window, or one
    reproduced family.  ``misclassified`` counts analyze_cold points
    whose class differs from the reference; those the program itself
    flags as degenerate are the documented small-a defect of H and rPD
    and are reported without failing the operation.
    ``degenerate_flanks`` counts refine_roots transitions whose
    flanking grid point fell inside the root's zero band, so that the
    flank reports a class with nullity.
    """

    attempted: int = 0
    failed: int = 0
    classified: int = 0
    misclassified: int = 0
    degenerate_flanks: int = 0
    root_dev: list = field(default_factory=list)
    eig_dev: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


class Reference:
    """Interval classes and roots of the reference tables, with tD
    mirrored from tP."""

    def __init__(self, data: dict) -> None:
        self.data = data

    def _entry(self, family: str) -> tuple[dict, float]:
        entry = self.data["families"][family]
        if "delegates_to" in entry:
            return self.data["families"][entry["delegates_to"]], -1.0
        return entry, 1.0

    def roots(self, family: str) -> list[dict]:
        entry, sign = self._entry(family)
        return [dict(r, a=sign * r["a"]) for r in entry.get("roots", [])]

    def class_at(self, family: str, a: float) -> tuple[int, int, int]:
        entry, sign = self._entry(family)
        x = sign * a
        edge = {r["name"]: r["a"] for r in entry.get("roots", [])}
        edge.update(min=-math.inf, max=math.inf)
        for iv in entry["intervals"]:
            if edge[iv["from"]] < x < edge[iv["to"]]:
                return (iv["p"], iv["q"], iv["index_E"])
        raise ValueError("%s a=%r lies on a reference root" % (family, a))

    def near_root(self, family: str, a: float) -> bool:
        return any(abs(a - r["a"]) <= r["tol"] for r in self.roots(family))


def _eig_dev(ref: list, got: list, tol: dict) -> float:
    """Worst deviation over sorted eigenvalues, in units of the allowance."""
    if len(ref) != len(got):
        return math.inf
    pairs = zip(sorted(ref, reverse=True), sorted(got, reverse=True))
    return max(abs(g - r) / max(tol["abs"], tol["rel"] * abs(r))
               for r, g in pairs)


class AnalyzeCold:
    """moduli.analyze on distinct uniform points in all five families."""

    name = "analyze_cold"
    spans = frozenset()
    points_per_rep = 40

    def __init__(self, msindex, reference: Reference) -> None:
        self.msindex = msindex
        self.reference = reference
        self.moduli = importlib.import_module("msindex.moduli")

    def inputs(self, rng) -> list[tuple[str, float]]:
        m = self.msindex
        windows = m.DEFAULT_WINDOWS
        families = list(windows)
        points, seen = [], set()
        while len(points) < self.points_per_rep:
            family = families[len(points) % len(families)]
            p = m.SurfaceParam(family, rng.uniform(*windows[family]))
            key = m.canonical_param(p)
            if key not in seen:
                seen.add(key)
                points.append((p.family, p.a))
        return points

    def run(self, points):
        m = self.msindex
        out = []
        for family, a in points:
            try:
                out.append(self.moduli.analyze(m.SurfaceParam(family, a)).report)
            except m.MsindexError as exc:
                out.append(exc)
        return out

    def check(self, points, reports, info, tally: Tally) -> None:
        tally.attempted += len(points)
        if info.hits:
            tally.errors.append("analyze_cold: %d cache hits, expected 0"
                                % info.hits)
        for (family, a), r in zip(points, reports):
            if isinstance(r, Exception):
                tally.fail("%s a=%r raised %r" % (family, a, r))
                continue
            if self.reference.near_root(family, a):
                continue
            tally.classified += 1
            want = self.reference.class_at(family, a)
            got = (r.p, r.q, r.index_E)
            if got != want:
                tally.misclassified += 1
                if not r.degenerate:
                    tally.fail("%s a=%r class %s, reference %s"
                               % (family, a, got, want))


class RefineRoots:
    """sweep at 16 steps over narrow windows around each reference root."""

    name = "refine_roots"
    spans = frozenset({"sweep.sweep"})
    families = ("H", "rPD", "tP", "tD")
    steps = 16
    width = 0.01

    def __init__(self, msindex, reference: Reference) -> None:
        self.msindex = msindex
        self.reference = reference
        self.sweep = importlib.import_module("msindex.sweep")

    def inputs(self, rng) -> list[tuple[str, dict, float, float]]:
        windows = []
        for family in self.families:
            lo, hi = self.msindex.DEFAULT_WINDOWS[family]
            width = self.width * (hi - lo)
            for root in self.reference.roots(family):
                start = root["a"] - rng.uniform(0.2, 0.8) * width
                windows.append((family, root, start, start + width))
        return windows

    def run(self, windows):
        m = self.msindex
        out = []
        for family, _, lo, hi in windows:
            cfg = self.sweep.SweepConfig(a_min=lo, a_max=hi, steps=self.steps)
            try:
                out.append(self.sweep.sweep(family, cfg))
            except m.MsindexError as exc:
                out.append(exc)
        return out

    def check(self, windows, reports, info, tally: Tally) -> None:
        tally.attempted += len(windows)
        for (family, root, lo, hi), rep in zip(windows, reports):
            where = "%s %s window [%r, %r]" % (family, root["name"], lo, hi)
            if isinstance(rep, Exception):
                tally.fail("%s raised %r" % (where, rep))
                continue
            if len(rep.transitions) != 1:
                tally.fail("%s: %d transitions, expected 1"
                           % (where, len(rep.transitions)))
                continue
            t = rep.transitions[0]
            dev = abs(t.a_star - root["a"]) / root["tol"]
            tally.root_dev.append(dev)
            side = 2.0 * root["tol"]
            want = (self.reference.class_at(family, root["a"] - side),
                    self.reference.class_at(family, root["a"] + side))
            intervals = tuple((iv.p, iv.q, iv.index_E) for iv in rep.intervals)
            # a flank grid point inside the root's zero band reports a
            # class with nullity (p + q < 9); only clean flanks compare
            flanks = (t.left_class, t.right_class)
            clean = [(got, ref) for got, ref in zip(flanks, want)
                     if got[0] + got[1] == _KEY_DIM]
            tally.degenerate_flanks += 2 - len(clean)
            if dev > 1.0 or intervals != want \
                    or any(got != ref for got, ref in clean):
                tally.fail("%s: root %r (%.2g tol), intervals %s, flanks %s, "
                           "reference %s" % (where, t.a_star, dev, intervals,
                                             flanks, want))


class ReproduceAll:
    """cli.main(["reproduce", "--all", "--steps", "64"]) in process."""

    name = "reproduce_all"
    spans = frozenset({"sweep.sweep", "sweep.classify_at", "cli.main"})
    argv = ("reproduce", "--all", "--steps", "64")

    def __init__(self, msindex, reference: Reference) -> None:
        self.msindex = msindex
        self.reference = reference
        self.cli = importlib.import_module("msindex.cli")
        self.moduli = importlib.import_module("msindex.moduli")

    def inputs(self, rng) -> tuple[str, ...]:
        return self.argv

    def run(self, argv):
        """Exit code, captured output, and each sweep report by family."""
        sweeps = []
        inner = self.cli._run_sweep

        def capture(family, cfg):
            report = inner(family, cfg)
            sweeps.append((family, report))
            return report

        out = io.StringIO()
        with patched([(self.cli, "_run_sweep", capture)]), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            code = self.cli.main(list(argv))
        return code, out.getvalue(), sweeps

    def check(self, argv, outputs, info, tally: Tally) -> None:
        code, text, sweeps = outputs
        data = self.reference.data
        families = list(data["families"])
        tally.attempted += len(families)
        lines = text.splitlines()
        for family in families:
            if "[%s] PASS" % family not in lines:
                tally.fail("reproduce: [%s] did not pass" % family)
        summary = "families passing: %d/%d" % (len(families), len(families))
        if code != 0 or summary not in lines:
            tally.errors.append("reproduce: exit code %d, %r expected"
                                % (code, summary))

        for family, report in sweeps:
            roots = self.reference.roots(family)
            if len(report.transitions) == len(roots):
                tally.root_dev.extend(
                    abs(t.a_star - r["a"]) / r["tol"]
                    for t, r in zip(report.transitions, roots))

        # the reproduce run cached every point compared here
        m = self.msindex
        tol = data["eig_tolerance"]
        zeros = [0.0] * data["wdiff_zero_count"]
        for family, entry in data["families"].items():
            for sample in entry.get("samples", []):
                rep = self.moduli.analyze(m.SurfaceParam(family, sample["a"])).report
                tally.eig_dev.append(_eig_dev(sample["eig_w"], rep.eig_w, tol))
                tally.eig_dev.append(_eig_dev(
                    sample["eig_wdiff_nonzero"] + zeros, rep.eig_wdiff, tol))
            for root in entry.get("roots", []):
                rep = self.moduli.analyze(m.SurfaceParam(family, root["a"])).report
                tally.eig_dev.append(_eig_dev(root["eig_w"], rep.eig_w, tol))


WORKLOADS = {w.name: w for w in (AnalyzeCold, RefineRoots, ReproduceAll)}
