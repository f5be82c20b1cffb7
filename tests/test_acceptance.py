"""Acceptance gate for the deliverable.

One test per shipped claim, named by criterion number; a verbose run
reads as a checklist, and each test prints a single summary line with
the measured margins.
"""

import math

import numpy as np

from msindex import linalg
from msindex.families import SurfaceParam, integral_set, verify_identities
from msindex.moduli import analyze
from msindex.sweep import classify_at

INTERVAL_CLASSES = {
    "H": [(5, 4, 2), (4, 5, 1), (6, 3, 3)],
    "rPD": [(5, 4, 2), (4, 5, 1)],
    "tP": [(5, 4, 2), (4, 5, 1), (5, 4, 2)],
    "tD": [(5, 4, 2), (4, 5, 1), (5, 4, 2)],
    "tCLP": [(6, 3, 3)],
}

# away from the small-a ends of H and rPD, where the spectrum spread
# makes the comparison kernel genuinely ambiguous
INVARIANT_GRIDS = {
    "H": np.linspace(0.1, 0.95, 21),
    "rPD": np.linspace(0.1, 1.0, 21),
    "tP": np.linspace(2.2, 39.0, 21),
    "tD": -np.linspace(2.2, 39.0, 21),
    "tCLP": np.linspace(-1.9, 1.9, 21),
}


def _stamp(n, label, ok, detail):
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n} ({label}): {detail}"


def _eig_dev(got, want, abs_tol, rel_tol):
    """Worst deviation as a fraction of the per-value allowance."""
    got = sorted(got, reverse=True)
    want = sorted(want, reverse=True)
    if len(got) != len(want):
        return math.inf
    return max(
        abs(g - w) / max(abs_tol, rel_tol * abs(w))
        for g, w in zip(got, want)
    )


def test_criterion_1_eigenvalue_tables(reference):
    abs_tol = reference["eig_tolerance"]["abs"]
    rel_tol = reference["eig_tolerance"]["rel"]
    zeros = [0.0] * reference["wdiff_zero_count"]
    worst = 0.0
    where = ""
    bad = []
    for fam, entry in reference["families"].items():
        for sample in entry.get("samples", []):
            rep = analyze(SurfaceParam(fam, sample["a"])).report
            dev = max(
                _eig_dev(rep.eig_w, sample["eig_w"], abs_tol, rel_tol),
                _eig_dev(rep.eig_wdiff, list(sample["eig_wdiff_nonzero"]) + zeros,
                         abs_tol, rel_tol),
            )
            if dev > worst:
                worst, where = dev, f"{fam} a={sample['a']}"
            if rep.kernel_dim_wdiff != reference["wdiff_zero_count"]:
                bad.append(f"{fam} a={sample['a']} kernel {rep.kernel_dim_wdiff}")
    _stamp(1, "eigenvalue tables", worst <= 1.0 and not bad,
           f"worst deviation {worst:.3f} of allowance at {where}; kernel misses: {bad or 'none'}")


def test_criterion_2_transition_roots(reference, family_sweeps):
    notes = []
    ok = True
    for fam in ("H", "rPD", "tP"):
        roots = reference["families"][fam]["roots"]
        trans = family_sweeps[fam].transitions
        if len(trans) != len(roots):
            ok = False
            notes.append(f"{fam}: {len(trans)} transitions, expected {len(roots)}")
            continue
        for t, r in zip(trans, roots):
            dev = abs(t.a_star - r["a"])
            notes.append(f"{fam}.{r['name']} dev {dev:.1e} (tol {r['tol']:g})")
            if dev > r["tol"]:
                ok = False
    n_clp = len(family_sweeps["tCLP"].transitions)
    notes.append(f"tCLP transitions {n_clp}")
    ok = ok and n_clp == 0
    mirrored = sorted(-t.a_star for t in family_sweeps["tD"].transitions)
    direct = sorted(t.a_star for t in family_sweeps["tP"].transitions)
    if len(mirrored) != len(direct) or any(
            abs(x - y) > 1e-6 for x, y in zip(mirrored, direct)):
        ok = False
        notes.append("tD roots do not mirror tP")
    _stamp(2, "transition roots", ok, "; ".join(notes))


def test_criterion_3_interval_tables(reference, family_sweeps):
    ok = True
    notes = []
    for fam, expected in INTERVAL_CLASSES.items():
        got = [(b.p, b.q, b.index_E) for b in family_sweeps[fam].intervals]
        if got != expected:
            ok = False
            notes.append(f"{fam} intervals {got} != {expected}")
        for b in family_sweeps[fam].intervals:
            if b.index_A != b.index_E or b.nullity_A != 3:
                ok = False
                notes.append(f"{fam} interval [{b.lo:.4g}, {b.hi:.4g}] actual-problem fields")
    for fam in ("H", "rPD", "tP"):
        for r in reference["families"][fam]["roots"]:
            rep, limit = classify_at(fam, r["a"])
            want = (r["p"], r["q"], r["nullity_E"], r["nullity_E"] + 3, r["index_E"])
            have = (rep.p, rep.q, rep.nullity_E, rep.nullity_A, limit)
            if have != want:
                ok = False
                notes.append(f"{fam}.{r['name']} point {have} != {want}")
    detail = "; ".join(notes) if notes else "all interval and point classes verbatim"
    _stamp(3, "classification tables", ok, detail)


def test_criterion_4_structural_invariants(family_sweeps):
    checked = 0
    bad = []
    for fam, grid in INVARIANT_GRIDS.items():
        boxes = family_sweeps[fam].intervals
        for a in (float(x) for x in grid):
            res = analyze(SurfaceParam(fam, a))
            tau = res.frame.tau
            r = res.report
            if linalg.frobenius(tau - tau.T) > 1e-9 * linalg.frobenius(tau):
                bad.append(f"{fam} a={a:.4g} tau asymmetry")
            if min(linalg.eig_selfadjoint(tau.imag)) <= 0.0:
                bad.append(f"{fam} a={a:.4g} Im tau not positive")
            if not np.array_equal(res.key.w, res.key.w.conj().T):
                bad.append(f"{fam} a={a:.4g} pairing defect")
            if r.p + r.q + r.nullity_E != 9 or r.index_E < 1:
                bad.append(f"{fam} a={a:.4g} counts")
            if r.degenerate or r.kernel_dim_wdiff != 8:
                bad.append(f"{fam} a={a:.4g} kernel {r.kernel_dim_wdiff}")
            box = next((b for b in boxes if b.lo <= a <= b.hi), None)
            if box is not None and min(a - box.lo, box.hi - a) > 1e-3:
                if (r.p, r.q) != (box.p, box.q):
                    bad.append(f"{fam} a={a:.4g} class ({r.p},{r.q}) off interval")
            checked += 1
    _stamp(4, "structural invariants", not bad,
           f"{checked} parameter points; violations: {bad or 'none'}")


def test_criterion_5_integral_identities():
    worst = 0.0
    count = 0
    bad = []
    for fam, grid, expect_rows in (
        ("H", np.linspace(0.05, 0.95, 21), 2),
        ("rPD", np.linspace(0.05, 1.0, 21), 4),
    ):
        for a in (float(x) for x in grid):
            rows = verify_identities(SurfaceParam(fam, a))
            if len(rows) != expect_rows:
                bad.append(f"{fam} a={a:.4g} rows {len(rows)}")
            worst = max(worst, max(r[3] for r in rows))
            count += 1
    _stamp(5, "integral identities", worst <= 1e-8 and not bad,
           f"{count} parameter sets, worst residual {worst:.2e}")


def test_criterion_6_symmetry_and_delegation():
    bad = []
    for a in (0.25, 0.4, 0.55, 0.7, 0.85):
        s1 = integral_set(SurfaceParam("H", a)).as_dict()
        s2 = integral_set(SurfaceParam("H", 1.0 / a)).as_dict()
        dev = max(abs(s1[k] - s2[k]) for k in s1)
        if dev > 1e-10:
            bad.append(f"H a={a} reciprocal dev {dev:.2e}")
    for a in (-7.0, -14.0, -30.0):
        if analyze(SurfaceParam("tD", a)).report is not analyze(SurfaceParam("tP", -a)).report:
            bad.append(f"tD a={a} not delegated")
    for a in (0.3, 1.1):
        if analyze(SurfaceParam("tCLP", -a)).report is not analyze(SurfaceParam("tCLP", a)).report:
            bad.append(f"tCLP a={a} not folded")
    _stamp(6, "symmetry and delegation", not bad, f"violations: {bad or 'none'}")


def test_criterion_7_schwarz_p_cross_family():
    seen = {}
    for fam, a in (("rPD", 1.0 / math.sqrt(2.0)), ("tP", 14.0)):
        r = analyze(SurfaceParam(fam, a)).report
        seen[fam] = (r.index_A, r.nullity_A, r.p, r.q)
    ok = all(v == (1, 3, 4, 5) for v in seen.values())
    _stamp(7, "cross-family shared surface", ok, f"{seen}")


def test_criterion_8_oracle_equivalence(oracle):
    worst = 0.0
    where = ""
    for fam, by_a in oracle["integral_sets"].items():
        for key, want in by_a.items():
            got = integral_set(SurfaceParam(fam, float(key))).as_dict()
            for name, ref in want.items():
                rel = abs(got[name] - ref) / abs(ref)
                if rel > worst:
                    worst, where = rel, f"{fam} a={key} {name}"
    _stamp(8, "oracle equivalence", worst <= 1e-10,
           f"worst relative deviation {worst:.2e} at {where}")
