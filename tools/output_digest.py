#!/usr/bin/env python3
"""Write the byte-stable outputs of the msindex command line to one file.

The file holds, in order:

  1. ``analyze --json`` for every reference sample and every reference
     root, including the tD mirror of each tP sample and root, then at
     the points of ANALYZE_EXTRA, near the ends of the H and rPD ranges,
     where a table's rows are singular at 1;
  2. ``verify`` for H and rPD on a fixed parameter grid;
  3. the ``sweep`` CSV for the five default windows at 64 steps;
  4. the stdout of ``reproduce --all --steps 64``.

Each block starts with a header line naming the command and ends with
its exit code.  Running the script on two revisions and comparing the
files (``cmp``) shows whether a change left every output bit-for-bit
as it was.  The msindex package is imported from the ``src`` directory
next to this script, so a checkout digests its own code.

Usage: python3 tools/output_digest.py OUT_PATH
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from msindex import DEFAULT_WINDOWS  # noqa: E402
from msindex.cli import main  # noqa: E402

VERIFY_GRID = {
    "H": (1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
          0.9999, 0.999999),
    "rPD": (1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
            1.0),
}
# H and rPD points near the ends of their ranges, beyond the reference ones
ANALYZE_EXTRA = (("H", 1e-3), ("H", 0.999999), ("rPD", 1e-4), ("rPD", 0.999999), ("rPD", 1.0))
SWEEP_STEPS = 64


def _run(argv: list, out) -> None:
    """Run one command, appending its stdout and exit code to out."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(io.StringIO()):
        code = main(argv)
    out.write("## msindex %s\n" % " ".join(argv))
    out.write(buf.getvalue())
    out.write("## exit %d\n" % code)


def _analyze_points(reference: dict) -> list:
    points = []
    for family, entry in reference["families"].items():
        for sample in entry.get("samples", []):
            points.append((family, sample["a"]))
        for root in entry.get("roots", []):
            points.append((family, root["a"]))
    mirrored = [("tD", -a) for family, a in points if family == "tP"]
    return points + mirrored


def digest(out) -> None:
    text = resources.files("msindex.data").joinpath(
        "reference_tables.json").read_text()
    reference = json.loads(text)
    for family, a in _analyze_points(reference) + list(ANALYZE_EXTRA):
        _run(["analyze", "--family", family, "--a", repr(a), "--json"], out)
    for family, grid in VERIFY_GRID.items():
        for a in grid:
            _run(["verify", "--family", family, "--a", repr(a)], out)
    for family, (lo, hi) in DEFAULT_WINDOWS.items():
        _run(["sweep", "--family", family, "--min", repr(lo), "--max", repr(hi),
              "--steps", str(SWEEP_STEPS)], out)
    _run(["reproduce", "--all", "--steps", str(SWEEP_STEPS)], out)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.rstrip().rsplit("\n", 1)[-1])
    with open(sys.argv[1], "w", newline="\n") as fh:
        digest(fh)
