#!/usr/bin/env python3
"""Run perfbench on two checkouts in alternating pairs and record the results.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --out FILE

Each directory is the root of a checkout with its own ``perfbench/`` and
``src/``; the benchmark script is run unmodified from there,

    python3 perfbench/run.py --workload W --seed SEED --seconds S --trace T

one process at a time, with S the ``run_seconds`` of CHANGE_DIR's
``BENCHMARK.json``.  Pair i uses seed SEED + i for both sides; the
parent runs first in the even pairs and the change in the odd ones, so
a drift of the host speed falls on both sides alike.  A failed run
stops the script, and so does a run whose last line is not a JSON
result or whose result lacks a metric that CHANGE_DIR's
``BENCHMARK.json`` declares for its mode (``end_to_end`` for --trace 0,
``per_layer`` for --trace 1); the message names the run and the
missing metrics.

FILE is written in the layout of the repository's ``BENCH_<n>.json``:
the command, the parent revision (``git rev-parse HEAD`` in PARENT_DIR),
the ``# machine`` line, a summary per workload and trace setting, and
every run's result line with its repetition count (from perfbench's
``# <workload>: N repetitions`` line) and its ``# host speed over the
reference`` line, which shows a run whose scaling sets it apart.  The
summary gives each metric's median and IQR per side, the pairs in
which the change is lower, the pairs in which it is better by the
metric's ``better`` in CHANGE_DIR's ``BENCHMARK.json``, and whether it
meets each acceptance rule: better in at least 9 of 10 pairs, better in
the median by more than the parent's IQR, and no worse in the median
than the metric's ``bound``.  perfbench keeps every repetition's
outputs, so ``peak_rss_mb`` grows with the count; the summary gives the
median count per side beside the metrics, which tells a change in what
perfbench retains from one in the program's own memory.  perfbench
scales each run's times by its host speed, so the summary also names
the pairs whose two runs' host speed medians differ by more than the
``wall_s`` bound: one such run can move its pair's ``wall_s`` by more
than the bound.  If FILE
exists, its runs are kept and the new ones added, so one file can
collect several workloads and trace settings; the script stops if FILE
records another parent or already holds a run of this workload and
trace setting with one of the new seeds.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SCRIPT = "python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds SECONDS --trace TRACE"
HOST_SPEED = "# host speed over the reference:"
WHAT = ("perfbench end-to-end (--trace 0) and per-layer (--trace 1) results for the "
        "parent commit and this change, measured on the same machine in alternating pairs")


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int,
             required: tuple = ()):
    """One perfbench run in root; returns (machine line, result dict,
    repetition count, host speed line), the count or line None if
    perfbench did not print it.  Stops, naming the run, if it fails, if
    its last line is not a JSON result, or if the result lacks one of
    the metrics named in required."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    run = "%s in %s (seed %d, --trace %d)" % (workload, root, seed, trace)
    if proc.returncode != 0 or not lines:
        raise SystemExit("perfbench failed: %s (exit %d):\n%s"
                         % (run, proc.returncode, proc.stderr[-2000:]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        raise SystemExit("perfbench ended without a JSON result: %s; its last line is %r"
                         % (run, lines[-1][:200]))
    missing = [name for name in required if name not in result["metrics"]]
    if missing:
        raise SystemExit("perfbench result lacks %d declared metrics: %s: %s"
                         % (len(missing), run, ", ".join(missing)))
    machine = next((line for line in lines if line.startswith("# machine ")), None)
    counted = re.compile(r"# %s: (\d+) repetitions" % re.escape(workload))
    reps = next((int(m.group(1)) for m in map(counted.match, lines) if m), None)
    speed = next((line for line in lines if line.startswith(HOST_SPEED)), None)
    return machine, result, reps, speed


def host_speed_median(line) -> float | None:
    """The median of a ``# host speed over the reference`` line, None
    for a run without one."""
    match = re.match(re.escape(HOST_SPEED) + r" median ([0-9.]+)", line or "")
    return float(match.group(1)) if match else None


def _machine_without_seed(line: str) -> str:
    info = json.loads(line[len("# machine "):])
    info.pop("seed", None)
    return "# machine " + json.dumps(info, sort_keys=True)


def _iqr(values: list):
    """Distance between the upper and lower quartile (inclusive method),
    None for fewer than two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def directions(benchmark: dict) -> dict:
    """Each metric's ``better`` ("lower" or "higher") from a BENCHMARK.json."""
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer")
            for m in benchmark.get(key, [])}


def bounds(benchmark: dict) -> dict:
    """Each end-to-end metric's ``bound`` from a BENCHMARK.json: the
    largest relative change for the worse that it accepts."""
    return {m["name"]: m["bound"] for m in benchmark.get("end_to_end", []) if "bound" in m}


def summarize(runs: list, better: dict, bound: dict = None) -> dict:
    """Medians per (workload, trace) group and metric, parent against change.

    Runs pair up by seed; a second run of one side with the same seed
    raises ValueError, and so does a run that lacks a metric another run
    of its group has, naming the run and the metrics.  A run's
    repetition count is summarized as the metric ``repetitions``,
    higher being better: a faster side fits
    more repetitions into the run's time.  Each metric also gets each
    side's IQR and ``pairs_change_better``, the pairs in which the
    change is strictly better by its direction in better (metric name
    to "lower" or "higher", see directions), and the three rules by
    which a claimed or a bounded metric is judged:

    wins_nine_tenths   the change is better in at least 9 of 10 pairs
    beyond_parent_iqr  the change median is better than the parent
                       median by more than the parent's IQR (None for
                       one pair)
    within_bound       the change median is worse than the parent
                       median by no more than the metric's bound (metric
                       name to bound, see bounds); None without a bound

    With a bound on wall_s, a group also gets ``host_speed_apart``: that
    bound and the seeds of the pairs whose runs' host speed medians (see
    host_speed_median) differ by more than it, relative to the parent's.
    """
    better = dict(better, repetitions="higher")
    bound = bound or {}
    groups: dict = {}
    for run in runs:
        groups.setdefault((run["workload"], run["trace"]), []).append(run)
    summary = {}
    for (workload, trace), group in groups.items():
        have = {name for run in group for name in run["result"]["metrics"]}
        for run in group:
            missing = sorted(have - set(run["result"]["metrics"]))
            if missing:
                raise ValueError("the %s run of %s --trace %d with seed %d lacks %s"
                                 % (run["side"], workload, trace, run["seed"], ", ".join(missing)))
        by_seed: dict = {}
        speeds: dict = {}
        for run in group:
            pair = by_seed.setdefault(run["seed"], {})
            if run["side"] in pair:
                raise ValueError("two %s runs of %s --trace %d with seed %d"
                                 % (run["side"], workload, trace, run["seed"]))
            pair[run["side"]] = dict(run["result"]["metrics"],
                                     repetitions={"value": run.get("repetitions")})
            speeds.setdefault(run["seed"], {})[run["side"]] = host_speed_median(
                run.get("host_speed"))
        pairs = [p for p in by_seed.values() if len(p) == 2]
        names = [n for n in pairs[0]["parent"] if n in pairs[0]["change"]] if pairs else []
        table = {}
        for name in names:
            vals = [(p["parent"][name]["value"], p["change"][name]["value"]) for p in pairs]
            vals = [(x, y) for x, y in vals if x is not None and y is not None]
            if not vals:
                continue
            sign = 1 if better[name] == "higher" else -1
            parent = statistics.median(x for x, _ in vals)
            change = statistics.median(y for _, y in vals)
            parent_iqr = _iqr([x for x, _ in vals])
            wins = sum(sign * (y - x) > 0 for x, y in vals)
            # the relative change for the worse, negative for a gain
            worse = -sign * (change / parent - 1.0) if parent else None
            table[name] = {
                "parent_median": parent,
                "change_median": change,
                "rel_change": change / parent - 1.0 if parent else None,
                "parent_iqr": parent_iqr,
                "change_iqr": _iqr([y for _, y in vals]),
                "pairs_change_lower": sum(y < x for x, y in vals),
                "pairs_change_better": wins,
                "wins_nine_tenths": 10 * wins >= 9 * len(vals),
                "beyond_parent_iqr": (None if parent_iqr is None
                                      else sign * (change - parent) > parent_iqr),
                "within_bound": (None if name not in bound or worse is None
                                 else worse <= bound[name]),
            }
        if "wall_s" in bound:
            apart = [seed for seed, pair in speeds.items() if len(pair) == 2
                     and pair["parent"] and pair["change"] is not None
                     and abs(pair["change"] / pair["parent"] - 1.0) > bound["wall_s"]]
            table["host_speed_apart"] = {"bound": bound["wall_s"], "seeds": apart}
        summary["%s --trace %d (%d pairs)" % (workload, trace, len(pairs))] = table
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--host", default="not described",
                    help="a description of the machine, kept in FILE")
    args = ap.parse_args(argv)

    git = subprocess.run(["git", "-C", str(args.parent_dir), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    if git.returncode != 0:
        raise SystemExit("cannot read the revision of %s:\n%s" % (args.parent_dir, git.stderr))
    rev = git.stdout.strip()
    doc = (json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists()
           else {"what": WHAT, "script": SCRIPT, "parent": rev, "machine": None,
                 "host": args.host, "summary": {}, "runs": []})
    if doc["parent"] != rev:
        raise SystemExit("%s records parent %s, but %s is at %s"
                         % (args.out, doc["parent"], args.parent_dir, rev))
    seeds = range(args.seed, args.seed + args.pairs)
    taken = sorted({run["seed"] for run in doc["runs"] if run["seed"] in seeds
                    and (run["workload"], run["trace"]) == (args.workload, args.trace)})
    if taken:
        raise SystemExit("%s already has %s --trace %d runs with seeds %s"
                         % (args.out, args.workload, args.trace, taken))
    benchmark = json.loads((args.change_dir / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    required = tuple(m["name"] for m in benchmark["end_to_end" if args.trace == 0 else "per_layer"])
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            machine, result, reps, speed = run_once(sides[side], args.workload, seed, seconds,
                                                    args.trace, required)
            if machine is not None:
                doc["machine"] = _machine_without_seed(machine)
            doc["runs"].append({"workload": args.workload, "trace": args.trace, "seed": seed,
                                "side": side, "pair_runs_first": order[0],
                                "repetitions": reps, "host_speed": speed, "result": result})
            print("%s %s seed %d: %s" % (args.workload, side, seed,
                                         json.dumps(result["metrics"].get("wall_s"))), flush=True)
        doc["summary"] = summarize(doc["runs"], directions(benchmark), bounds(benchmark))
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
