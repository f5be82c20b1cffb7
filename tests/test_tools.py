"""Tests for the digest comparison, benchmark pairing and layer timing scripts in tools/."""

import dataclasses
import importlib.util
import io
import json
import shutil
import subprocess
import types
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest_diff = _load("digest_diff")
bench_pairs = _load("bench_pairs")
pair_layers = _load("pair_layers")


def _diff(a: str, b: str):
    out = io.StringIO()
    code = digest_diff.diff(a.splitlines(), b.splitlines(), out)
    return code, out.getvalue()


def test_identical_files_pass():
    text = "## msindex sweep\n0.5,1,5,4,2\n## exit 0\n"
    code, out = _diff(text, text)
    assert code == 0
    assert out == ("0 differing lines\n"
                   "eigenvalue lines: 0, largest |x - y| / max|eig| 0.000e+00\n"
                   "other lines: 0, largest deviation 0.000e+00, relative 0.000e+00\n")


def test_float_changes_are_reported_with_their_deviation():
    a = "## msindex sweep\n0.4947,1,5,4,2\nroot 28.5 dev 1e-10\n## exit 0\n"
    b = "## msindex sweep\n0.4949,1,5,4,2\nroot 28.75 dev 2e-10\n## exit 0\n"
    code, out = _diff(a, b)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "## msindex sweep"
    assert "- 0.4947,1,5,4,2" in lines
    assert lines[-4] == "2 differing lines"
    assert lines[-2] == ("other lines: 2, largest deviation 2.500e-01 in msindex sweep, "
                         "relative 5.000e-01 in msindex sweep")
    assert lines[-1] == "by block: msindex sweep (2)"


def test_relative_deviation_is_scaled_by_the_larger_magnitude():
    a = "det -1.48e21 min 5.0e-10\nroot 0.5\nzero 0.0 1.0\n"
    b = "det -1.4800000000000002e21 min 6.0e-10\nroot 0.5\nzero -0.0 1.0\n"
    code, out = _diff(a, b)
    assert code == 0
    lines = out.splitlines()
    # |5e-10 - 6e-10| / 6e-10 beats the det line's 1.3e-16 relative,
    # though its absolute deviation 2.6e5 is the largest
    assert lines[2] == "  max deviation 2.621e+05, relative 1.667e-01"
    # 0.0 and -0.0 differ as text only
    assert lines[5] == "  max deviation 0.000e+00, relative 0.000e+00"
    # outside any block, no block is named
    assert lines[-2] == "other lines: 2, largest deviation 2.621e+05, relative 1.667e-01"
    assert lines[-1] == "by block: outside any block (2)"


def test_integer_or_text_changes_fail():
    assert _diff("0.5,1,5,4,2\n", "0.5,1,4,5,2\n")[0] == 1
    assert _diff("ok 0.5\n", "FAIL 0.5\n")[0] == 1
    assert _diff("a 1.0\n", "a 1.0 2.0\n")[0] == 1
    assert _diff("a 1.0\n", "a 1.0\nb\n")[0] == 1
    assert _diff("a nan\n", "a 1.0\n")[0] == 1


def _analyze_record(wdiff):
    return ("## msindex analyze --family H --a 0.3 --json\n{\n"
            '  "degenerate": false,\n'
            '  "eig_wdiff": [\n' + ",\n".join("    %r" % x for x in wdiff) + "\n  ],\n"
            '  "tau_asymmetry": 1.25e-16\n}\n## exit 0\n')


def test_eigenvalue_lines_are_scaled_by_their_spectrum():
    a = _analyze_record([17.5, 1.5e-14, -1.75])
    # a kernel eigenvalue moves by its own size, a diagnostic by half of its own
    b = _analyze_record([17.5, 3e-14, -1.75]).replace("1.25e-16", "2.5e-16")
    code, out = _diff(a, b)
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "+     3e-14,"
    assert lines[3] == "  max deviation 1.500e-14, relative 8.571e-16 of max|eig| 1.750e+01"
    # other lines keep their own size as the scale
    assert lines[6] == "  max deviation 1.250e-16, relative 5.000e-01"
    # each class closes with its own largest deviation
    assert lines[-4:-1] == [
        "2 differing lines",
        "eigenvalue lines: 1, largest |x - y| / max|eig| 8.571e-16 in msindex analyze "
        "--family H --a 0.3 --json",
        "other lines: 1, largest deviation 1.250e-16 in msindex analyze --family H --a 0.3 "
        "--json, relative 5.000e-01 in msindex analyze --family H --a 0.3 --json"]
    assert lines[-1] == "by block: msindex analyze --family H --a 0.3 --json (2)"
    # the exact-integer rule is unchanged inside a record
    assert _diff(a, a.replace("false", "true"))[0] == 1


def test_closing_lines_bound_eigenvalues_apart_and_name_each_block():
    # a spectrum that moves in its last bits beside a reproduce deviation
    # text, a difference of nearly equal numbers, that moves by a third
    a = (_analyze_record([17.5, 1.5e-14, -1.75]) + _analyze_record([2.0, -1.0]).replace(
        "0.3", "0.7") + "## msindex reproduce --all\n  deviation 3.06e-10\n## exit 0\n")
    b = (_analyze_record([17.5, 1.5e-14, -1.75]) + _analyze_record([2.0 + 4.4e-16, -1.0]).replace(
        "0.3", "0.7") + "## msindex reproduce --all\n  deviation 1.94e-10\n## exit 0\n")
    code, out = _diff(a, b)
    assert code == 0
    assert out.splitlines()[-4:-1] == [
        "2 differing lines",
        "eigenvalue lines: 1, largest |x - y| / max|eig| 2.220e-16 in msindex analyze "
        "--family H --a 0.7 --json",
        "other lines: 1, largest deviation 1.120e-10 in msindex reproduce --all, "
        "relative 3.660e-01 in msindex reproduce --all"]
    assert out.splitlines()[-1] == ("by block: msindex analyze --family H --a 0.7 --json (1), "
                                    "msindex reproduce --all (1)")


def test_identity_lines_report_lhs_rhs_apart_from_their_residual():
    a = ("## msindex verify --family H --a 0.5\n"
         "H-identity-1: lhs 1.5880237557756423  rhs 1.5880237557756418  residual 4.441e-16\n"
         "H-identity-2: lhs 1.4193089593188954  rhs 1.4193089593188954  residual 0.000e+00\n"
         "2 identities, largest residual 4.441e-16, tolerance 1.0e-08: pass\n## exit 0\n")
    b = ("## msindex verify --family H --a 0.5\n"
         "H-identity-1: lhs 1.5880237557756418  rhs 1.5880237557756418  residual 0.000e+00\n"
         "H-identity-2: lhs 1.4193089593188954  rhs 1.4193089593188957  residual 2.220e-16\n"
         "2 identities, largest residual 2.220e-16, tolerance 1.0e-08: pass\n## exit 0\n")
    code, out = _diff(a, b)
    assert code == 0
    lines = out.splitlines()
    # a residual from 0 to 2.2e-16 reads as that change, not as relative 1
    assert lines[3] == "  lhs/rhs relative 2.796e-16, residual change 4.441e-16"
    assert lines[6] == "  lhs/rhs relative 1.564e-16, residual change 2.220e-16"
    assert lines[9] == "  lhs/rhs relative 0.000e+00, residual change 2.221e-16"
    assert lines[-5:-1] == [
        "3 differing lines",
        "eigenvalue lines: 0, largest |x - y| / max|eig| 0.000e+00",
        "other lines: 0, largest deviation 0.000e+00, relative 0.000e+00",
        "identity lines: 3, largest lhs/rhs change 2.796e-16 relative in msindex verify "
        "--family H --a 0.5, largest residual change 4.441e-16 in msindex verify --family H "
        "--a 0.5"]
    assert lines[-1] == "by block: msindex verify --family H --a 0.5 (3)"
    # the identity class keeps the exact rule for text
    assert _diff(a, a.replace(": pass", ": FAIL"))[0] == 1


def test_the_last_line_counts_the_differing_lines_of_each_block():
    # two blocks move, one of them twice, and the block between them not at all
    a = ("## msindex analyze --family H --a 0.3 --json\n  1.5,\n  2.5\n## exit 0\n"
         "## msindex analyze --family rPD --a 0.5 --json\n  3.5\n## exit 0\n"
         "## msindex reproduce --all\n  root 0.25\n## exit 0\n")
    b = a.replace("1.5", "1.75").replace("2.5", "2.75").replace("0.25", "0.5")
    code, out = _diff(a, b)
    assert code == 0
    assert out.splitlines()[-1] == ("by block: msindex analyze --family H --a 0.3 --json (2), "
                                    "msindex reproduce --all (1)")
    # a line that fails the exact rule counts in its block too
    code, out = _diff(a, a.replace("3.5", "three"))
    assert code == 1
    assert out.splitlines()[-1] == "by block: msindex analyze --family rPD --a 0.5 --json (1)"


# each metric's direction, as the repository's BENCHMARK.json gives it
_BETTER = bench_pairs.directions(json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()))


def _run(workload, seed, side, wall, rss=None):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"workload": workload, "trace": 0, "seed": seed, "side": side,
            "pair_runs_first": "parent", "result": {"metrics": metrics}}


def test_bench_summary_pairs_runs_by_seed():
    runs = [_run("w", 1, "parent", 1.0, 40.0), _run("w", 1, "change", 0.5, 41.0),
            _run("w", 2, "change", 0.9, 42.0), _run("w", 2, "parent", 0.8, 40.0),
            _run("w", 3, "parent", 0.7, 40.0), _run("w", 3, "change", 0.6),
            # an unpaired run is left out
            _run("w", 4, "parent", 9.0, 99.0)]
    summary = bench_pairs.summarize(runs, _BETTER)
    assert list(summary) == ["w --trace 0 (3 pairs)"]
    wall = summary["w --trace 0 (3 pairs)"]["wall_s"]
    assert wall["parent_median"] == 0.8 and wall["change_median"] == 0.6
    assert abs(wall["rel_change"] + 0.25) < 1e-15
    assert wall["pairs_change_lower"] == 2
    # a missing value drops its pair from that metric only
    rss = summary["w --trace 0 (3 pairs)"]["peak_rss_mb"]
    assert rss["parent_median"] == 40.0 and rss["change_median"] == 41.5
    assert rss["pairs_change_lower"] == 0
    # a second run of one side with a seed already used is refused, not overwritten
    with pytest.raises(ValueError, match="two change runs of w --trace 0 with seed 2"):
        bench_pairs.summarize(runs + [_run("w", 2, "change", 0.1)], _BETTER)
    # the same seed in another workload is a separate pair
    assert "v --trace 0 (1 pairs)" in bench_pairs.summarize(
        runs + [_run("v", 2, "change", 0.1), _run("v", 2, "parent", 0.2)], _BETTER)


def _rate_run(seed, side, wall, rate):
    run = _run("w", seed, side, wall)
    run["result"]["metrics"]["evals_per_s"] = {"value": rate, "unit": "1/s"}
    return run


def test_bench_summary_counts_better_pairs_by_each_metrics_direction():
    # the change is faster in every pair: lower wall_s, higher evals_per_s
    runs = [_rate_run(seed, side, wall, rate) for seed, pair in enumerate(
        [((1.0, 10.0), (0.9, 11.0)), ((1.2, 8.0), (1.1, 9.0)), ((0.8, 12.0), (0.8, 13.0)),
         ((1.4, 7.0), (1.3, 7.5)), ((1.1, 9.0), (1.0, 9.5))], start=1)
        for side, (wall, rate) in zip(("parent", "change"), pair)]
    assert _BETTER["wall_s"] == "lower" and _BETTER["evals_per_s"] == "higher"
    table = bench_pairs.summarize(runs, _BETTER)["w --trace 0 (5 pairs)"]
    assert table["evals_per_s"]["pairs_change_lower"] == 0
    assert table["evals_per_s"]["pairs_change_better"] == 5
    # a tie is not better
    assert table["wall_s"]["pairs_change_lower"] == table["wall_s"]["pairs_change_better"] == 4
    # each side's spread: quartiles by the inclusive method
    assert table["wall_s"]["parent_iqr"] == pytest.approx(1.2 - 1.0)
    assert table["wall_s"]["change_iqr"] == pytest.approx(1.1 - 0.9)
    assert table["evals_per_s"]["parent_iqr"] == pytest.approx(10.0 - 8.0)
    # one pair has no spread
    one = bench_pairs.summarize(runs[:2], _BETTER)["w --trace 0 (1 pairs)"]["wall_s"]
    assert one["parent_iqr"] is None and one["change_iqr"] is None


def test_bench_pairs_records_and_summarizes_repetition_counts(tmp_path):
    # a stand-in for perfbench/run.py that prints the lines bench_pairs reads
    fake = tmp_path / "perfbench" / "run.py"
    fake.parent.mkdir()
    fake.write_text(
        "import json\n"
        "print('# machine {\"nproc\": 2, \"seed\": 5}')\n"
        "print('# other_workload: 7 repetitions, closed loop')\n"
        "print('# w: 412 repetitions, closed loop, one caller, one thread')\n"
        "print('# host speed over the reference: median 0.912, range 0.850-1.020 "
        "over repetitions')\n"
        "print(json.dumps({'correct': True, 'metrics': {}}))\n")
    machine, result, reps, speed = bench_pairs.run_once(tmp_path, "w", 5, 1.0, 0)
    assert machine.startswith("# machine ") and result["correct"] is True
    assert reps == 412
    assert speed == ("# host speed over the reference: median 0.912, range 0.850-1.020 "
                     "over repetitions")
    assert bench_pairs.run_once(tmp_path, "v", 5, 1.0, 0)[2] is None

    runs = [dict(_run("w", seed, side, 1.0, 50.0), repetitions=count)
            for seed, side, count in [(1, "parent", 400), (1, "change", 480),
                                      (2, "parent", 410), (2, "change", 470),
                                      (3, "parent", 390), (3, "change", 500)]]
    table = bench_pairs.summarize(runs, _BETTER)["w --trace 0 (3 pairs)"]
    assert table["repetitions"]["parent_median"] == 400
    assert table["repetitions"]["change_median"] == 480
    assert table["repetitions"]["pairs_change_lower"] == 0
    # more repetitions in the run's time is better
    assert table["repetitions"]["pairs_change_better"] == 3
    # runs recorded without a count get no repetitions row
    assert "repetitions" not in bench_pairs.summarize(
        [_run("w", 1, "parent", 1.0), _run("w", 1, "change", 0.9)],
        _BETTER)["w --trace 0 (1 pairs)"]


def _paired(values):
    """Runs of workload w, one pair per (parent, change) wall_s value."""
    return [_run("w", seed, side, wall) for seed, pair in enumerate(values, start=1)
            for side, wall in zip(("parent", "change"), pair)]


def test_bench_summary_states_each_acceptance_rule():
    # ten pairs: the change is faster in nine, by 6 % in the median
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    change = [0.94, 0.96, 0.92, 0.95, 0.93, 0.97, 0.91, 0.94, 0.95, 1.00]
    table = bench_pairs.summarize(_paired(zip(parent, change)), _BETTER,
                                  {"wall_s": 0.15})["w --trace 0 (10 pairs)"]["wall_s"]
    assert table["pairs_change_better"] == 9 and table["wins_nine_tenths"] is True
    # the parent's IQR is 0.02, and the medians differ by 0.06
    assert table["parent_iqr"] == pytest.approx(0.02)
    assert table["beyond_parent_iqr"] is True and table["within_bound"] is True
    # eight wins of ten fall short of the rule
    eight = change[:8] + [1.02, 1.00]
    table = bench_pairs.summarize(_paired(zip(parent, eight)), _BETTER,
                                  {"wall_s": 0.15})["w --trace 0 (10 pairs)"]["wall_s"]
    assert table["pairs_change_better"] == 8 and table["wins_nine_tenths"] is False
    # a gain inside the parent's spread wins every pair but not the IQR rule
    close = [x - 0.005 for x in parent]
    table = bench_pairs.summarize(_paired(zip(parent, close)), _BETTER)[
        "w --trace 0 (10 pairs)"]["wall_s"]
    assert table["wins_nine_tenths"] is True and table["beyond_parent_iqr"] is False
    # without a bound there is no bound rule
    assert table["within_bound"] is None


def test_bench_summary_bound_follows_the_metrics_direction():
    # wall_s 10 % and 20 % slower; evals_per_s 10 % and 20 % lower
    for worse, within in ((0.1, True), (0.2, False)):
        runs = [_rate_run(seed, side, 1.0 + worse * (side == "change"),
                          100.0 * (1.0 - worse * (side == "change")))
                for seed in (1, 2, 3) for side in ("parent", "change")]
        table = bench_pairs.summarize(runs, _BETTER, bench_pairs.bounds(json.loads(
            (_TOOLS.parent / "BENCHMARK.json").read_text())))["w --trace 0 (3 pairs)"]
        assert table["wall_s"]["within_bound"] is within
        assert table["evals_per_s"]["within_bound"] is within
        assert table["wall_s"]["wins_nine_tenths"] is False
        assert table["wall_s"]["beyond_parent_iqr"] is False
    # one pair has no IQR to beat
    one = bench_pairs.summarize(runs[:2], _BETTER)["w --trace 0 (1 pairs)"]["wall_s"]
    assert one["beyond_parent_iqr"] is None


def test_bench_summary_names_the_pairs_whose_host_speeds_differ_beyond_the_bound():
    line = ("# host speed over the reference: median %.3f, range 0.500-1.200 "
            "over repetitions")
    assert bench_pairs.host_speed_median(line % 0.668) == 0.668
    assert bench_pairs.host_speed_median(None) is None
    assert bench_pairs.host_speed_median("# machine {}") is None
    # pairs 2 and 4 are 20 % apart, the change side faster in one and slower
    # in the other; pairs 1 and 3 are within the bound, pair 5 lacks a line
    speeds = {1: (1.00, 1.05), 2: (0.80, 0.96), 3: (1.00, 0.90), 4: (1.00, 0.80), 5: (1.0, None)}
    runs = []
    for seed, pair in speeds.items():
        for side, speed in zip(("parent", "change"), pair):
            run = _run("w", seed, side, 1.0)
            run["host_speed"] = None if speed is None else line % speed
            runs.append(run)
    table = bench_pairs.summarize(runs, _BETTER, {"wall_s": 0.15})["w --trace 0 (5 pairs)"]
    assert table["host_speed_apart"] == {"bound": 0.15, "seeds": [2, 4]}
    # the metrics are summarized as before; without a wall_s bound there is no such entry
    assert table["wall_s"]["pairs_change_better"] == 0
    assert "host_speed_apart" not in bench_pairs.summarize(runs, _BETTER)["w --trace 0 (5 pairs)"]


def _fake_perfbench(root, last_line):
    """A stand-in for perfbench/run.py in root that ends with last_line."""
    fake = root / "perfbench" / "run.py"
    fake.parent.mkdir(parents=True, exist_ok=True)
    fake.write_text("print('# w: 3 repetitions')\nprint(%r)\n" % last_line)


def test_bench_pairs_stops_on_a_run_without_a_result(tmp_path):
    for last in ("# missing linalg.solve.calls: span linalg.solve recorded no calls",
                 "[1, 2]", '{"correct": true}'):
        _fake_perfbench(tmp_path, last)
        with pytest.raises(SystemExit) as stop:
            bench_pairs.run_once(tmp_path, "w", 7, 1.0, 1)
        message = str(stop.value)
        assert "without a JSON result" in message
        assert "w in %s (seed 7, --trace 1)" % tmp_path in message
        assert repr(last[:200]) in message


def test_bench_pairs_stops_on_a_result_missing_a_declared_metric(tmp_path):
    metrics = {"wall_s": {"value": 1.0}, "linalg.share": {"value": 0.3}}
    _fake_perfbench(tmp_path, json.dumps({"correct": True, "metrics": metrics}))
    # present metrics pass, and the undeclared extra one is kept
    _, result, reps, speed = bench_pairs.run_once(tmp_path, "w", 7, 1.0, 0, ("wall_s",))
    assert set(result["metrics"]) == set(metrics) and reps == 3
    # a run without the host speed line records none
    assert speed is None
    declared = ("wall_s", "linalg.solve.calls", "linalg.eig_selfadjoint.calls.n3")
    with pytest.raises(SystemExit) as stop:
        bench_pairs.run_once(tmp_path, "w", 8, 1.0, 1, declared)
    message = str(stop.value)
    assert "lacks 2 declared metrics" in message and "(seed 8, --trace 1)" in message
    assert message.endswith("linalg.solve.calls, linalg.eig_selfadjoint.calls.n3")


def test_bench_summary_refuses_a_run_missing_a_metric():
    runs = [_run("w", 1, "parent", 1.0, 40.0), _run("w", 1, "change", 0.9, 40.0),
            _run("w", 2, "parent", 1.0, 40.0), _run("w", 2, "change", 0.9, 40.0)]
    del runs[3]["result"]["metrics"]["peak_rss_mb"]
    with pytest.raises(ValueError, match="the change run of w --trace 0 with seed 2 lacks "
                                         "peak_rss_mb"):
        bench_pairs.summarize(runs, _BETTER)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_pairs_refuses_to_extend_a_file_it_would_corrupt(tmp_path):
    parent = tmp_path / "parent"
    parent.mkdir()
    git = ["git", "-C", str(parent), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"], check=True)
    rev = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True,
                         text=True).stdout.strip()
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"parent": rev, "runs": [_run("w", 3, "parent", 1.0)]}))
    args = [str(parent), str(tmp_path / "missing"), "--workload", "w", "--out", str(out)]
    # each refusal comes before any run, so no perfbench is needed
    with pytest.raises(SystemExit, match=r"w --trace 0 runs with seeds \[3\]"):
        bench_pairs.main(args + ["--pairs", "2", "--seed", "2"])
    out.write_text(json.dumps({"parent": "0" * 40, "runs": []}))
    with pytest.raises(SystemExit, match="records parent 0000"):
        bench_pairs.main(args + ["--pairs", "1"])
    with pytest.raises(SystemExit, match="cannot read the revision"):
        bench_pairs.main([str(tmp_path)] + args[1:] + ["--pairs", "1"])


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_pairs_checks_each_mode_against_its_declared_metrics(tmp_path):
    parent = tmp_path / "parent"
    parent.mkdir()
    git = ["git", "-C", str(parent), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"], check=True)
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower"}],
        "per_layer": [{"name": "linalg.share", "better": "lower"}]}))
    end_to_end = json.dumps({"correct": True, "metrics": {"wall_s": {"value": 1.0}}})
    for root in (parent, change):
        _fake_perfbench(root, end_to_end)
    out = tmp_path / "BENCH.json"
    args = [str(parent), str(change), "--workload", "w", "--pairs", "1", "--out", str(out)]
    assert bench_pairs.main(args) == 0
    # the same result is one per-layer metric short under --trace 1
    with pytest.raises(SystemExit, match=r"lacks 1 declared metrics: .*--trace 1\): linalg.share$"):
        bench_pairs.main(args + ["--trace", "1"])


def test_pair_layers_times_a_tree_against_itself():
    # one round of one call: every point and the stack are timed on both
    # sides, the layers are found, and a tree's analyses equal its own bit
    # for bit, the stack's record by record
    src = _TOOLS.parent / "src"
    out = io.StringIO()
    assert pair_layers.pair(src, src, rounds=1, calls=1, out=out)
    text = out.getvalue()
    for family, a in pair_layers.POINTS:
        assert "%s %r (us; min of 1 rounds x 1 calls)" % (family, a) in text
    assert "H, 24 points over (0.01, 0.99) (us; min of 1 rounds x 1 calls)" in text
    cases = len(pair_layers.POINTS) + 1
    assert text.count("outputs: bit-identical") == cases
    for line in ("  analyze ", "  families.integral_set ", "  moduli.spectral_report "):
        assert text.count(line) == cases, line


def test_pair_layers_names_each_differing_field():
    from msindex import moduli
    from msindex.families import SurfaceParam

    res = moduli.analyze(SurfaceParam("tP", 7.0))
    assert pair_layers.differing(res, res) == []
    moved = dataclasses.replace(res, integrals=dataclasses.replace(
        res.integrals, A=res.integrals.A * (1.0 + 2.0 ** -52)))
    assert pair_layers.differing(res, moved) == ["integrals.A"]
    flipped = dataclasses.replace(res, report=dataclasses.replace(
        res.report, eig_w=-res.report.eig_w))
    assert pair_layers.differing(res, flipped) == ["report.eig_w"]


def test_pair_layers_counts_a_layer_that_calls_itself_once(monkeypatch):
    # deformation_data of one parameter calls itself through its module on
    # the list of that one; a clock that only the layer advances shows
    # whether the inner call's time is added to the outer one's
    clock = [0.0]
    monkeypatch.setattr(pair_layers.time, "perf_counter", lambda: clock[0])
    families = types.SimpleNamespace()

    def deformation_data(p):
        clock[0] += 1.0
        if not isinstance(p, list):
            return families.deformation_data([p])
        clock[0] += 2.0
        return p

    families.deformation_data = deformation_data
    pkg = {"families": families, "linalg": types.SimpleNamespace(),
           "moduli": types.SimpleNamespace()}
    layers = pair_layers._Layers(pkg)
    assert layers.names == [("families", "deformation_data")]
    spent = layers.run(lambda: families.deformation_data(7))
    # 4 s in all, of which the inner call's 3 would be counted again
    assert spent == {"families.deformation_data": 4.0}
    # the module attribute is restored, and a second run starts afresh
    assert families.deformation_data is deformation_data
    assert layers.run(lambda: families.deformation_data([7])) == {
        "families.deformation_data": 3.0}
