"""Tests for the digest comparison script in tools/."""

import importlib.util
import io
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "digest_diff.py"
_spec = importlib.util.spec_from_file_location("digest_diff", _PATH)
digest_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest_diff)


def _diff(a: str, b: str):
    out = io.StringIO()
    code = digest_diff.diff(a.splitlines(), b.splitlines(), out)
    return code, out.getvalue()


def test_identical_files_pass():
    text = "## msindex sweep\n0.5,1,5,4,2\n## exit 0\n"
    code, out = _diff(text, text)
    assert code == 0
    assert out == ("0 differing lines, largest numeric deviation 0.000e+00, "
                   "relative 0.000e+00\n")


def test_float_changes_are_reported_with_their_deviation():
    a = "## msindex sweep\n0.4947,1,5,4,2\nroot 28.5 dev 1e-10\n## exit 0\n"
    b = "## msindex sweep\n0.4949,1,5,4,2\nroot 28.75 dev 2e-10\n## exit 0\n"
    code, out = _diff(a, b)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "## msindex sweep"
    assert "- 0.4947,1,5,4,2" in lines
    assert lines[-1] == ("2 differing lines, largest numeric deviation "
                         "2.500e-01, relative 5.000e-01")


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
    assert lines[-1] == ("2 differing lines, largest numeric deviation "
                         "2.621e+05, relative 1.667e-01")


def test_integer_or_text_changes_fail():
    assert _diff("0.5,1,5,4,2\n", "0.5,1,4,5,2\n")[0] == 1
    assert _diff("ok 0.5\n", "FAIL 0.5\n")[0] == 1
    assert _diff("a 1.0\n", "a 1.0 2.0\n")[0] == 1
    assert _diff("a 1.0\n", "a 1.0\nb\n")[0] == 1
    assert _diff("a nan\n", "a 1.0\n")[0] == 1
