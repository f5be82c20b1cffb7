"""Command line front end.

Four subcommands: analyze (one parameter), sweep (interval
classification), verify (integral identities), reproduce (compare
against the stored reference tables).  Exit codes: 0 success, 1 usage,
2 domain error, 3 numerical failure or reference mismatch, 4 output
I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from . import families, moduli
from .sweep import SweepConfig, SweepReport
from .sweep import classify_at as _classify_at
from .sweep import sweep as _run_sweep
from .errors import DomainError, MsindexError, UsageError
from .families import QuadConfig, SurfaceParam

_SCHEMA_VERSION = "1"
_IDENTITY_TOL = 1e-8

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage problems; this project
    reserves 2 for domain errors, so usage failures are re-raised."""

    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    """Shortest decimal string that round-trips the float."""
    return repr(float(x))


def _quad_config(args) -> QuadConfig:
    if args.quad_tol is None:
        return QuadConfig()
    try:
        return QuadConfig(target_rel_tol=args.quad_tol)
    except ValueError as exc:
        raise UsageError("quadrature tolerance must be a positive real") from exc


# ---------------------------------------------------------------- analyze

def _analysis_record(p: SurfaceParam, res: moduli.SurfaceAnalysis, quad: QuadConfig) -> dict:
    """The record of request p; res is the analysis of its folded parameter."""
    r = res.report
    tau = res.frame.tau
    w = res.key.w
    return {
        "schema_version": _SCHEMA_VERSION,
        "command": "analyze",
        "family": p.family,
        "a": p.a,
        "canonical_family": res.param.family,
        "canonical_a": res.param.a,
        "tolerances": {
            "quad_rel_tol": quad.target_rel_tol,
            "zero_tol_w": r.zero_tol_w,
            "zero_tol_wdiff": r.zero_tol_wdiff,
        },
        "diagnostics": {
            "quad_err_max": res.integrals.err_max,
            "w_hermitian_defect": float(abs(w - w.conj().T).max()),
            "tau_asymmetry": float(abs(tau - tau.T).max()),
        },
        "eig_w": r.eig_w.tolist(),
        "eig_wdiff": r.eig_wdiff.tolist(),
        "p": r.p,
        "q": r.q,
        "nullity_E": r.nullity_E,
        "kernel_dim_wdiff": r.kernel_dim_wdiff,
        "index_E": r.index_E,
        "index_A": r.index_A,
        "nullity_A": r.nullity_A,
        "degenerate": r.degenerate,
    }


def _print_analysis_text(rec: dict, out) -> None:
    out.write("family %s  a %s\n" % (rec["family"], _fmt(rec["a"])))
    if (rec["canonical_family"], rec["canonical_a"]) != (rec["family"], rec["a"]):
        out.write("computed as %s  a %s\n"
                  % (rec["canonical_family"], _fmt(rec["canonical_a"])))
    out.write("eigenvalues of the key matrix:\n")
    for v in rec["eig_w"]:
        out.write("  % .6g\n" % v)
    out.write("eigenvalues of the period comparison:\n")
    for v in rec["eig_wdiff"]:
        out.write("  % .6g\n" % v)
    out.write("(p, q) = (%d, %d)   nullity_E = %d\n"
              % (rec["p"], rec["q"], rec["nullity_E"]))
    out.write("index_E = %d   index_A = %d   nullity_A = %d\n"
              % (rec["index_E"], rec["index_A"], rec["nullity_A"]))
    out.write("comparison kernel dimension %d   degenerate: %s\n"
              % (rec["kernel_dim_wdiff"],
                 "yes" if rec["degenerate"] else "no"))
    d = rec["diagnostics"]
    out.write("quadrature err max %.3e   hermitian defect %.3e   "
              "tau asymmetry %.3e\n"
              % (d["quad_err_max"], d["w_hermitian_defect"],
                 d["tau_asymmetry"]))


def _print_analysis_csv(rec: dict, out) -> None:
    cols = ["family", "a", "p", "q", "nullity_E", "kernel_dim_wdiff",
            "index_E", "index_A", "nullity_A", "degenerate"]
    cols += ["eig_w_%d" % (k + 1) for k in range(9)]
    cols += ["eig_wdiff_%d" % (k + 1) for k in range(18)]
    vals = [rec["family"], _fmt(rec["a"]), str(rec["p"]), str(rec["q"]),
            str(rec["nullity_E"]), str(rec["kernel_dim_wdiff"]),
            str(rec["index_E"]), str(rec["index_A"]), str(rec["nullity_A"]),
            "1" if rec["degenerate"] else "0"]
    vals += [_fmt(v) for v in rec["eig_w"]]
    vals += [_fmt(v) for v in rec["eig_wdiff"]]
    out.write(",".join(cols) + "\n")
    out.write(",".join(vals) + "\n")


def cmd_analyze(args) -> int:
    quad = _quad_config(args)
    p = SurfaceParam(args.family, args.a)
    rec = _analysis_record(p, moduli.analyze(p, config=quad), quad)
    if args.json:
        sys.stdout.write(json.dumps(rec, indent=2, sort_keys=True) + "\n")
    elif args.csv:
        _print_analysis_csv(rec, sys.stdout)
    else:
        _print_analysis_text(rec, sys.stdout)
    return EXIT_OK


# ------------------------------------------------------------------ sweep

def _sweep_csv(rep: SweepReport) -> str:
    lines = ["a,det_w,min_abs_eig_w,p,q,nullity_E,index_E"]
    for s in rep.samples:
        lines.append(",".join([
            _fmt(s.a), _fmt(s.det_w), _fmt(s.min_abs_eig_w),
            str(s.p), str(s.q), str(s.nullity_E), str(s.index_E)]))
    lines.append("")
    lines.append("transitions")
    lines.append("a_star,nullity_at,left_p,left_q,left_index_E,"
                 "right_p,right_q,right_index_E")
    for t in rep.transitions:
        lp, lq, li = t.left_class
        rp, rq, ri = t.right_class
        lines.append(",".join([
            _fmt(t.a_star), str(t.nullity_at),
            str(lp), str(lq), str(li), str(rp), str(rq), str(ri)]))
    return "\n".join(lines) + "\n"


def _sweep_summary(rep: SweepReport, out) -> None:
    cfg = rep.config
    out.write("family %s  window [%s, %s]  steps %d\n"
              % (rep.family, _fmt(cfg.a_min), _fmt(cfg.a_max), cfg.steps))
    for t in rep.transitions:
        out.write("transition a = %s  nullity %d  (%d,%d) index %d -> "
                  "(%d,%d) index %d\n"
                  % (_fmt(t.a_star), t.nullity_at,
                     t.left_class[0], t.left_class[1], t.left_class[2],
                     t.right_class[0], t.right_class[1], t.right_class[2]))
    if not rep.transitions:
        out.write("no transitions\n")
    for iv in rep.intervals:
        out.write("interval (%s, %s): (p,q)=(%d,%d) index_E=%d index_A=%d "
                  "nullity_A=%d\n"
                  % (_fmt(iv.lo), _fmt(iv.hi), iv.p, iv.q, iv.index_E,
                     iv.index_A, iv.nullity_A))


def cmd_sweep(args) -> int:
    cfg = SweepConfig(
        a_min=args.min,
        a_max=args.max,
        steps=args.steps,
        refine_tol=args.refine_tol,
        quad=_quad_config(args),
    )
    rep = _run_sweep(args.family, cfg)
    csv_text = _sweep_csv(rep)
    if args.out is not None:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(csv_text)
        _sweep_summary(rep, sys.stdout)
    else:
        sys.stdout.write(csv_text)
        _sweep_summary(rep, sys.stderr)
    return EXIT_OK


# ----------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    quad = _quad_config(args)
    rows = families.verify_identities(SurfaceParam(args.family, args.a), quad)
    worst = 0.0
    for name, lhs, rhs, residual in rows:
        worst = max(worst, residual)
        sys.stdout.write("%s: lhs %s  rhs %s  residual %.3e\n"
                         % (name, _fmt(lhs), _fmt(rhs), residual))
    ok = worst <= _IDENTITY_TOL
    sys.stdout.write("%d identities, largest residual %.3e, tolerance %.1e: "
                     "%s\n" % (len(rows), worst, _IDENTITY_TOL,
                               "pass" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_NUMERIC


# -------------------------------------------------------------- reproduce

def _load_reference() -> dict:
    path = resources.files("msindex.data").joinpath("reference_tables.json")
    return json.loads(path.read_text())


def _eig_ok(ref: float, got: float, tol: dict) -> bool:
    return abs(got - ref) <= max(tol["abs"], tol["rel"] * abs(ref))


def _compare_table(label: str, ref_vals: list, got_vals: list, tol: dict,
                   out) -> bool:
    ref_sorted = sorted(ref_vals, reverse=True)
    got_sorted = sorted(got_vals, reverse=True)
    worst = 0.0
    ok = len(ref_sorted) == len(got_sorted)
    if ok:
        for r, g in zip(ref_sorted, got_sorted):
            worst = max(worst, abs(g - r))
            if not _eig_ok(r, g, tol):
                ok = False
    out.write("  %s: %d values, max deviation %.2e: %s\n"
              % (label, len(ref_sorted), worst, "ok" if ok else "MISMATCH"))
    return ok


def _reproduce_family(family: str, data: dict, steps: int,
                      quad: QuadConfig, out) -> bool:
    entry = data["families"][family]
    tol = data["eig_tolerance"]
    ok = True
    out.write("[%s]\n" % family)

    if "delegates_to" in entry:
        target = entry["delegates_to"]
        for sample in data["families"][target]["samples"]:
            a = sample["a"]
            mirrored = moduli.analyze(SurfaceParam(family, -a), config=quad)
            direct = moduli.analyze(SurfaceParam(target, a), config=quad)
            same = mirrored.report is direct.report
            ok &= same
            out.write("  a=%s equals %s a=%s: %s\n"
                      % (_fmt(-a), target, _fmt(a),
                         "ok" if same else "MISMATCH"))

    samples = entry.get("samples", [])
    params = [SurfaceParam(family, sample["a"]) for sample in samples]
    try:
        analyses = moduli.analyze_many(params, config=quad)
    except MsindexError:
        # one at a time, so the report stops at the failing sample with its error
        analyses = (moduli.analyze(p, config=quad) for p in params)
    for sample, res in zip(samples, analyses):
        a = sample["a"]
        ok &= _compare_table("a=%s key matrix" % _fmt(a), sample["eig_w"],
                             res.report.eig_w.tolist(), tol, out)
        ref_wdiff = list(sample["eig_wdiff_nonzero"]) + [0.0] * data["wdiff_zero_count"]
        ok &= _compare_table("a=%s comparison" % _fmt(a), ref_wdiff,
                             res.report.eig_wdiff.tolist(), tol, out)
        kernel_ok = res.report.kernel_dim_wdiff == data["wdiff_zero_count"]
        ok &= kernel_ok
        if not kernel_ok:
            out.write("  a=%s comparison kernel %d, expected %d: MISMATCH\n"
                      % (_fmt(a), res.report.kernel_dim_wdiff,
                         data["wdiff_zero_count"]))

    roots = entry.get("roots", [])
    intervals = entry.get("intervals", [])
    if roots or intervals:
        lo, hi = entry["window"]
        cfg = SweepConfig(
            a_min=lo, a_max=hi,
            steps=steps,
            quad=quad)
        rep = _run_sweep(family, cfg)

        count_ok = len(rep.transitions) == len(roots)
        ok &= count_ok
        out.write("  transitions found %d, expected %d: %s\n"
                  % (len(rep.transitions), len(roots),
                     "ok" if count_ok else "MISMATCH"))
        if count_ok:
            for ref_root, t in zip(roots, rep.transitions):
                dev = abs(t.a_star - ref_root["a"])
                root_ok = dev <= ref_root["tol"]
                ok &= root_ok
                out.write("  root %s: computed %s reference %s deviation "
                          "%.2e tolerance %.0e: %s\n"
                          % (ref_root["name"], _fmt(t.a_star),
                             _fmt(ref_root["a"]), dev, ref_root["tol"],
                             "ok" if root_ok else "MISMATCH"))
                report, limit_index = _classify_at(
                    family, ref_root["a"], config=quad)
                point_ok = (
                    report.p == ref_root["p"]
                    and report.q == ref_root["q"]
                    and report.nullity_E == ref_root["nullity_E"]
                    and limit_index == ref_root["index_E"])
                ok &= point_ok
                out.write("  root %s point: (p,q)=(%d,%d) nullity_E=%d "
                          "limit index %d: %s\n"
                          % (ref_root["name"], report.p, report.q,
                             report.nullity_E, limit_index,
                             "ok" if point_ok else "MISMATCH"))
                ok &= _compare_table(
                    "root %s key matrix" % ref_root["name"],
                    ref_root["eig_w"], report.eig_w.tolist(), tol, out)

        got_cls = [(iv.p, iv.q, iv.index_E) for iv in rep.intervals]
        ref_cls = [(iv["p"], iv["q"], iv["index_E"]) for iv in intervals]
        cls_ok = got_cls == ref_cls
        ok &= cls_ok
        out.write("  interval classes %s, expected %s: %s\n"
                  % (got_cls, ref_cls, "ok" if cls_ok else "MISMATCH"))

    out.write("[%s] %s\n" % (family, "PASS" if ok else "FAIL"))
    return ok


def cmd_reproduce(args) -> int:
    data = _load_reference()
    quad = _quad_config(args)
    if args.all:
        targets = list(data["families"].keys())
    else:
        targets = [args.family]
    passed = 0
    for family in targets:
        if _reproduce_family(family, data, args.steps, quad, sys.stdout):
            passed += 1
    if len(targets) > 1:
        sys.stdout.write("families passing: %d/%d\n"
                         % (passed, len(targets)))
    return EXIT_OK if passed == len(targets) else EXIT_NUMERIC


# ------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="msindex",
                     description="Morse index and nullity of five families "
                                 "of triply periodic minimal surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify one parameter value")
    pa.add_argument("--family", required=True, choices=families.FAMILIES)
    pa.add_argument("--a", required=True, type=float)
    mode = pa.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true")
    mode.add_argument("--csv", action="store_true")
    pa.add_argument("--quad-tol", type=float, default=None)
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("sweep", help="classify a parameter window")
    ps.add_argument("--family", required=True, choices=families.FAMILIES)
    ps.add_argument("--min", required=True, type=float)
    ps.add_argument("--max", required=True, type=float)
    ps.add_argument("--steps", type=int, default=200)
    ps.add_argument("--refine-tol", type=float, default=1e-9)
    ps.add_argument("--out", default=None)
    ps.add_argument("--quad-tol", type=float, default=None)
    ps.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("verify", help="check the exact integral relations")
    pv.add_argument("--family", required=True, choices=("H", "rPD"))
    pv.add_argument("--a", required=True, type=float)
    pv.add_argument("--quad-tol", type=float, default=None)
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser("reproduce",
                        help="recompute the stored reference tables")
    which = pr.add_mutually_exclusive_group(required=True)
    which.add_argument("--family", choices=families.FAMILIES)
    which.add_argument("--all", action="store_true")
    pr.add_argument("--steps", type=int, default=200)
    pr.add_argument("--quad-tol", type=float, default=None)
    pr.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return EXIT_USAGE
    except DomainError as exc:
        sys.stderr.write("domain error: %s\n" % exc)
        return EXIT_DOMAIN
    except MsindexError as exc:
        sys.stderr.write("numerical failure: %s\n" % exc)
        return EXIT_NUMERIC
    except OSError as exc:
        sys.stderr.write("i/o error: %s\n" % exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
