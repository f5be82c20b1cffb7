"""msindex benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload analyze_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One caller in one thread drives the public API in a closed loop: each
call waits for the previous one.  The workload repeats whole
repetitions until the next one would overrun ``--seconds``; the
analysis cache is cleared before each.  Every output is checked against
the shipped reference tables.  Times are reported at a reference host
speed, calibrated beside each cold evaluation (see calibrate.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions of the same inputs and prints the
per-layer metrics, measured by wrapping each module's public functions
from outside (see spans.py).  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# one BLAS thread for this process and the set-up probes it starts;
# set before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import importlib
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from calibrate import chunk_ms, factors, speed
from spans import LatencyProbe, Tracer, patched
from workloads import WORKLOADS, Reference, Tally, setup

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 9
# calibration chunks timed on each side of a set-up probe
SETUP_CHUNKS = 20


def _rng(seed: int, rep: int) -> random.Random:
    return random.Random(seed * 1_000_003 + rep)


def setup_seconds() -> tuple[float, float]:
    """Median time from a fresh interpreter to ready, over several starts,
    at reference host speed and as measured."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        cal = [chunk_ms() for _ in range(SETUP_CHUNKS)]
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py")],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            raw.append(time.perf_counter() - t0)
            proc.communicate()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit("set-up probe failed with exit code %d"
                             % proc.returncode)
        cal += [chunk_ms() for _ in range(SETUP_CHUNKS)]
        scaled.append(raw[-1] * speed(cal))
    return statistics.median(scaled), statistics.median(raw)


@dataclass
class Rep:
    """One timed repetition: wall time without the calibration chunks,
    outputs, cache counters."""

    wall: float
    outputs: object
    info: object
    probe: LatencyProbe
    tracer: Optional[Tracer]

    @property
    def speed(self) -> float:
        """Host speed over the reference during the repetition."""
        return speed(self.probe.cal_ms)

    def scaled(self) -> tuple[list[float], float]:
        """Cold-call latencies in ms and wall time in s at reference
        host speed; each call is scaled by the chunks around it."""
        cold = self.probe.cold_ms
        latencies = [ms * f for ms, f in zip(cold, factors(self.probe.cal_ms))]
        rest = self.wall - 1e-3 * sum(cold)
        return latencies, 1e-3 * sum(latencies) + rest * self.speed


def measure(workload, inputs, moduli, tracer=None) -> Rep:
    """Time workload.run(inputs) from an empty analysis cache."""
    cache = moduli._analyze_cached
    cache.cache_clear()
    probe = LatencyProbe(moduli, calibrate=tracer is None)
    with patched(probe.replacements()), \
            patched(tracer.replacements() if tracer else ()):
        t0 = time.perf_counter()
        outputs = workload.run(inputs)
        wall = time.perf_counter() - t0 - 1e-3 * sum(probe.cal_ms)
    return Rep(wall, outputs, cache.cache_info(), probe, tracer)


def repeat(seconds: float, one) -> None:
    """Call one(k) for k = 0, 1, ... while the next call still fits."""
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        one(k)
        k += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def _quantile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(reps: list[Rep], setup_s: float) -> dict:
    scaled = [r.scaled() for r in reps]
    latencies = [ms for lat, _ in scaled for ms in lat]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(wall for _, wall in scaled), "s"),
        "evals_per_s": (statistics.median(r.info.misses / wall
                                          for r, (_, wall) in zip(reps, scaled)),
                        "1/s"),
        "analyze_p50_ms": (statistics.median(latencies), "ms"),
        "analyze_p90_ms": (_quantile90(latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, span it is built on, exact, value from tracer t and
# repetition r); exact metrics are counts or ratios of counts, taken
# from the first traced repetition so that they repeat for a seed
LAYER_METRICS = (
    ("quadrature.integrate.calls_per_eval", "1", "quadrature.integrate", True,
     lambda t, r: _ratio(t.calls["quadrature.integrate"], r.info.misses)),
    ("quadrature.integrate.self_s", "s", "quadrature.integrate", False,
     lambda t, r: t.self_s["quadrature.integrate"]),
    ("quadrature.integrate.us_per_call", "us", "quadrature.integrate", False,
     lambda t, r: 1e6 * _ratio(t.self_s["quadrature.integrate"],
                               t.calls["quadrature.integrate"])),
    ("quadrature.share", "1", "quadrature.integrate", False,
     lambda t, r: t.self_s["quadrature.integrate"] / r.wall),
    *((f"linalg.eig_selfadjoint.calls.n{n}", "count",
       f"linalg.eig_selfadjoint.n{n}", True,
       lambda t, r, k=f"linalg.eig_selfadjoint.n{n}": t.calls[k])
      for n in (3, 9, 18)),
    *((f"linalg.eig_selfadjoint.self_s.n{n}", "s",
       f"linalg.eig_selfadjoint.n{n}", False,
       lambda t, r, k=f"linalg.eig_selfadjoint.n{n}": t.self_s[k])
      for n in (3, 9, 18)),
    ("linalg.solve.calls", "count", "linalg.solve", True,
     lambda t, r: t.calls["linalg.solve"]),
    ("linalg.solve.self_s", "s", "linalg.solve", False,
     lambda t, r: t.self_s["linalg.solve"]),
    ("linalg.share", "1", "linalg.solve", False,
     lambda t, r: sum(v for k, v in t.self_s.items()
                      if k.startswith("linalg.")) / r.wall),
    *((f"{span}.self_s", "s", span, False, lambda t, r, k=span: t.self_s[k])
      for span in ("families.integral_set", "families.period_frame",
                   "families.deformation_data", "moduli.tangent_frame",
                   "moduli.key_matrices", "moduli.spectral_report")),
    ("moduli.analyze.calls", "count", "moduli.analyze", True,
     lambda t, r: t.calls["moduli.analyze"]),
    ("moduli.analyze.cold_evals", "count", "moduli.analyze", True,
     lambda t, r: r.info.misses),
    ("moduli.analyze.cache_hit_ratio", "1", "moduli.analyze", True,
     lambda t, r: _ratio(r.info.hits, r.info.hits + r.info.misses)),
    ("sweep.sweep.calls", "count", "sweep.sweep", True,
     lambda t, r: t.calls["sweep.sweep"]),
    ("sweep.grid_evals", "count", "sweep.sweep", True,
     lambda t, r: t.grid_evals),
    ("sweep.refine_evals", "count", "sweep.sweep", True,
     lambda t, r: t.analyze_in_sweep - t.grid_evals),
    ("sweep.evals_per_transition", "1", "sweep.sweep", True,
     lambda t, r: _ratio(t.analyze_in_sweep - t.grid_evals,
                         t.transitions)),
    ("sweep.sweep.self_s", "s", "sweep.sweep", False,
     lambda t, r: t.self_s["sweep.sweep"]),
    ("sweep.classify_at.calls", "count", "sweep.classify_at", True,
     lambda t, r: t.calls["sweep.classify_at"]),
    ("sweep.classify_at.self_s", "s", "sweep.classify_at", False,
     lambda t, r: t.self_s["sweep.classify_at"]),
    ("cli.main.self_s", "s", "cli.main", False,
     lambda t, r: t.self_s["cli.main"]),
    ("trace.covered_share", "1", "moduli.analyze", False,
     lambda t, r: sum(t.self_s.values()) / r.wall),
)

# spans every workload reaches; each workload adds its own
CORE_SPANS = frozenset(span for _, _, span, _, _ in LAYER_METRICS
                       if not span.startswith(("sweep.", "cli.")))


def per_layer(pairs: list[tuple[Rep, Rep]], workload, tally: Tally) -> dict:
    """Counts from the first traced repetition, times as medians at
    reference host speed.  A traced repetition runs no calibration
    chunks, so that none falls inside a span; its times are scaled by
    the speed of the untraced repetition run just before it.

    A metric whose span should fire on this workload but recorded no
    call is left out, never reported as zero.
    """
    traced = [t for _, t in pairs]
    expected = CORE_SPANS | workload.spans
    first = traced[0].tracer
    out = {}
    for name, unit, span, exact, value in LAYER_METRICS:
        if span in expected and not first.calls[span]:
            print("# missing %s: span %s recorded no calls" % (name, span))
        elif exact:
            out[name] = (value(first, traced[0]), unit)
        else:
            timed = unit in ("s", "us")
            out[name] = (statistics.median(
                value(t.tracer, t) * (u.speed if timed else 1.0)
                for u, t in pairs), unit)
    out["trace.overhead_frac"] = (
        statistics.median(t.wall / u.wall for u, t in pairs) - 1.0, "1")

    for rep in traced:
        t = rep.tracer
        attributed = sum(t.self_s.values())
        if abs(attributed - t.top_level_s) > 1e-6 * rep.wall \
                or t.top_level_s > rep.wall:
            tally.errors.append(
                "span self times sum to %.6f s, top-level spans cover %.6f s "
                "of %.6f s" % (attributed, t.top_level_s, rep.wall))
    return out


def machine(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "seed": seed,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def _fmt(v) -> str:
    return "n/a" if v is None else "%.4g" % v


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    reference = Reference(setup(SRC))
    import msindex

    moduli = importlib.import_module("msindex.moduli")
    workload = WORKLOADS[args.workload](msindex, reference)
    tally = Tally()
    print("# machine %s" % json.dumps(machine(args.seed), sort_keys=True))

    def timed(k: int, tracer=None) -> Rep:
        inputs = workload.inputs(_rng(args.seed, k))
        rep = measure(workload, inputs, moduli, tracer)
        workload.check(inputs, rep.outputs, rep.info, tally)
        return rep

    if args.trace:
        pairs = []
        repeat(args.seconds,
               lambda k: pairs.append((timed(k), timed(k, Tracer()))))
        metrics = per_layer(pairs, workload, tally)
        reps = [u for u, _ in pairs]
    else:
        setup_s, setup_raw = setup_seconds()
        reps = []
        repeat(args.seconds, lambda k: reps.append(timed(k)))
        metrics = end_to_end(reps, setup_s)

    print("# %s: %d repetitions, closed loop, one caller, one thread; "
          "last repetition cache hits %d misses %d"
          % (workload.name, len(reps), reps[-1].info.hits,
             reps[-1].info.misses))
    speeds = [r.speed for r in reps]
    print("# host speed over the reference: median %.3f, range %.3f-%.3f "
          "over repetitions" % (statistics.median(speeds), min(speeds),
                                max(speeds)))
    if not args.trace:
        latencies = [ms for r in reps for ms in r.scaled()[0]]
        p90 = metrics["analyze_p90_ms"][0]
        print("# analyze latency over %d cold calls, %d beyond p90"
              % (len(latencies), sum(ms > p90 for ms in latencies)))
        raw = [ms for r in reps for ms in r.probe.cold_ms]
        print("# as measured: setup_s %.4g, wall_s %.4g, analyze_p50_ms %.4g, "
              "analyze_p90_ms %.4g" % (
                  setup_raw, statistics.median(r.wall for r in reps),
                  statistics.median(raw), _quantile90(raw)))
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    print("# error_frac %d/%d = %s" % (
        tally.failed, tally.attempted, _fmt(tally.failed / tally.attempted)))
    print("# misclassified_frac %d/%d = %s" % (
        tally.misclassified, tally.classified,
        _fmt(tally.misclassified / tally.classified if tally.classified else None)))
    print("# root_dev_max %s (deviation over reference tol, %d roots); "
          "%d transition flanks in a root's zero band" % (
              _fmt(max(tally.root_dev, default=None)), len(tally.root_dev),
              tally.degenerate_flanks))
    print("# eig_dev_max %s (deviation over eig_tolerance, %d tables)" % (
        _fmt(max(tally.eig_dev, default=None)), len(tally.eig_dev)))
    for message in tally.errors[:20]:
        print("# FAILED %s" % message)

    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
