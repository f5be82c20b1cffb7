#!/usr/bin/env python3
"""Compare two files written by tools/output_digest.py.

Each line that differs is printed under the ``## msindex ...`` header
of its block, the line from A prefixed with ``-`` and the line from B
with ``+``, followed by the largest absolute deviation between its
floating-point numbers and the largest relative one, |x - y| divided by
max(|x|, |y|).  An eigenvalue line, one number of an ``"eig_..."``
array of an ``analyze --json`` record, is divided by that spectrum's
largest |value| in either file instead, so that a structural zero of
Wdiff that moves by its own size reads as the small change it is
against its matrix.  An identity line of ``verify``
(``H-identity-1: lhs ... rhs ... residual ...``), or its closing
``N identities, largest residual ...`` line, gives the largest
relative change of its lhs and rhs and the absolute change of its
residual, which is a difference of nearly equal numbers: one that
moves from 0 to 2.2e-16 has moved by rounding, not by all its size.
The closing lines give the number of differing lines, then for the
eigenvalue lines and for the other lines apart, and for the identity
lines where any differ, their count and largest deviations, each
naming the block that holds it: for eigenvalue lines |x - y| over
their spectrum's max|value|, a bound on how far the spectra moved; for
identity lines the largest relative change of a lhs or rhs and the
largest change of a residual; for the other lines the largest
absolute deviation and the largest relative one, which for a
difference of nearly equal numbers (a ``deviation`` text of
``reproduce``) can be large though the inputs moved in their last bits.
Where any line differs, the last line names every block that holds
one, in file order, each with its count of differing lines.

A floating-point number is a literal with a decimal point or an
exponent, or inf/nan.  Everything else, including integers such as
counts, signature classes and exit codes, must match exactly.

Exit status: 0 when every difference is numeric (or there is none),
1 when any other token differs or the files have different line counts.

Usage: python3 tools/digest_diff.py A B
"""

import math
import re
import sys

# a float literal, split out of the surrounding text
_FLOAT = re.compile(
    r"([-+]?(?:(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+"
    r"|\binf\b|\bnan\b))")


# the opening line of a spectrum in analyze --json output
_EIG_OPEN = re.compile(r'^\s*"eig_\w+": \[$')


def _eigen_scales(lines: list) -> dict:
    """Line index -> largest |value| of its spectrum, for eigenvalue lines."""
    scales = {}
    members = None
    for i, line in enumerate(lines):
        if members is None:
            if _EIG_OPEN.match(line):
                members = {}
        elif line.strip().startswith("]"):
            scale = max(members.values(), default=0.0)
            scales.update(dict.fromkeys(members, scale))
            members = None
        else:
            members[i] = max((abs(float(x)) for x in _FLOAT.findall(line)), default=0.0)
    return scales


# an identity line of verify, and the line that closes its block
_IDENTITY = re.compile(r"^\S+-identity-\d+: lhs (\S+)\s+rhs (\S+)\s+residual (\S+)$")
_IDENTITIES = re.compile(r"^\d+ identities, largest residual (\S+), ")


def _identity_deviation(a: str, b: str):
    """(largest relative change of lhs and rhs, absolute change of the
    residual) of a pair of identity lines, or None for other lines."""
    for pattern in (_IDENTITY, _IDENTITIES):
        ma, mb = pattern.match(a), pattern.match(b)
        if ma and mb:
            x = [float(v) for v in ma.groups()]
            y = [float(v) for v in mb.groups()]
            rel = max((abs(p - q) / max(abs(p), abs(q))
                       for p, q in zip(x[:-1], y[:-1]) if p != q), default=0.0)
            return rel, abs(x[-1] - y[-1])
    return None


def _deviation(a: str, b: str, scale: float = 0.0):
    """Largest absolute and relative float deviations, or None if other
    text differs.  A positive scale replaces max(|x|, |y|) as the
    denominator of the relative one."""
    ta, tb = _FLOAT.split(a), _FLOAT.split(b)
    if len(ta) != len(tb) or ta[0::2] != tb[0::2]:
        return None
    worst = worst_rel = 0.0
    for x, y in zip(ta[1::2], tb[1::2]):
        if x == y:
            continue
        fx, fy = float(x), float(y)
        dev = abs(fx - fy)
        if not math.isfinite(dev):
            return None
        worst = max(worst, dev)
        if dev > 0.0:
            worst_rel = max(worst_rel, dev / (scale or max(abs(fx), abs(fy))))
    return worst, worst_rel


def diff(lines_a: list, lines_b: list, out) -> int:
    """Print the differing lines; return the exit status."""
    status = 0
    if len(lines_a) != len(lines_b):
        out.write("line counts differ: %d vs %d\n" % (len(lines_a), len(lines_b)))
        status = 1
    scales_a, scales_b = _eigen_scales(lines_a), _eigen_scales(lines_b)
    header = None
    shown = None
    count = 0
    # differing lines per block, in file order
    blocks: dict = {}
    # per class: [lines, (largest deviation, its block), (largest relative, its block)];
    # for identity lines the largest relative lhs/rhs change, then residual change
    classes = {name: [0, (0.0, None), (0.0, None)] for name in ("eigenvalue", "other", "identity")}
    for i, (a, b) in enumerate(zip(lines_a, lines_b)):
        if a.startswith("## ") and a == b:
            header = a
        if a == b:
            continue
        count += 1
        blocks[header] = blocks.get(header, 0) + 1
        if header is not None and header != shown:
            out.write("%s\n" % header)
            shown = header
        out.write("- %s\n+ %s\n" % (a, b))
        scale = 0.0
        if i in scales_a and i in scales_b:
            scale = max(scales_a[i], scales_b[i])
        dev = _deviation(a, b, scale)
        identity = None if dev is None else _identity_deviation(a, b)
        if dev is None:
            out.write("  non-numeric difference\n")
            status = 1
        else:
            if identity:
                dev = identity
                out.write("  lhs/rhs relative %.3e, residual change %.3e\n" % dev)
            elif scale:
                out.write("  max deviation %.3e, relative %.3e of max|eig| %.3e\n" % (dev + (scale,)))
            else:
                out.write("  max deviation %.3e, relative %.3e\n" % dev)
            entry = classes["identity" if identity else "eigenvalue" if scale else "other"]
            entry[0] += 1
            for k in (1, 2):
                if dev[k - 1] > entry[k][0]:
                    entry[k] = (dev[k - 1], header)
    out.write("%d differing lines\n" % count)
    for name, (lines, (worst, at), (worst_rel, at_rel)) in classes.items():
        if name == "identity" and not lines:
            continue
        out.write("%s lines: %d" % (name, lines))
        if name == "eigenvalue":
            out.write(", largest |x - y| / max|eig| %.3e%s\n" % (worst_rel, _block(at_rel)))
        elif name == "identity":
            out.write(", largest lhs/rhs change %.3e relative%s, largest residual change %.3e%s\n"
                      % (worst, _block(at), worst_rel, _block(at_rel)))
        else:
            out.write(", largest deviation %.3e%s, relative %.3e%s\n"
                      % (worst, _block(at), worst_rel, _block(at_rel)))
    if blocks:
        out.write("by block: %s\n" % ", ".join(
            "%s (%d)" % (header[3:] if header else "outside any block", lines)
            for header, lines in blocks.items()))
    return status


def _block(header) -> str:
    """' in <header>' for the block of a largest deviation, '' if none."""
    return " in %s" % header[3:] if header else ""


def main(argv: list) -> int:
    if len(argv) != 3:
        sys.stderr.write(__doc__.rstrip().rsplit("\n", 1)[-1] + "\n")
        return 2
    with open(argv[1], encoding="utf-8") as fa, open(argv[2], encoding="utf-8") as fb:
        lines_a = fa.read().splitlines()
        lines_b = fb.read().splitlines()
    return diff(lines_a, lines_b, sys.stdout)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
