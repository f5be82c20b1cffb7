"""Tests for grid scans, root refinement, and interval classing."""

import bisect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msindex import moduli
from msindex.errors import DomainError
from msindex.families import FAMILIES, MARGIN, SurfaceParam, admissible_range, validate_param
from msindex.sweep import (
    _MAX_REFINE_EVALS,
    DEFAULT_WINDOWS,
    Interval,
    SweepConfig,
    SweepSample,
    Transition,
    _brent,
    _grid,
    classify_at,
    sweep,
)

RPD_ROOT = 0.494722327827355


def test_config_validation():
    with pytest.raises(DomainError):
        SweepConfig(a_min=1.0, a_max=0.5)
    with pytest.raises(DomainError):
        SweepConfig(a_min=0.1, a_max=0.9, steps=8)
    with pytest.raises(DomainError):
        SweepConfig(a_min=0.1, a_max=0.9, refine_tol=0.0)
    with pytest.raises(DomainError):
        SweepConfig(a_min=math.nan, a_max=0.9)


def test_config_steps_must_be_integral():
    with pytest.raises(DomainError, match="integer"):
        SweepConfig(a_min=0.4, a_max=0.45, steps=16.0)
    cfg = SweepConfig(a_min=0.4, a_max=0.45, steps=np.int64(16))
    assert cfg.steps == 16 and type(cfg.steps) is int
    assert _grid("H", cfg) == _grid("H", SweepConfig(a_min=0.4, a_max=0.45, steps=16))


@pytest.mark.parametrize("family", FAMILIES)
def test_wide_window_grid_ends_on_the_admissible_range(family):
    lo, hi = admissible_range(family)
    a_min = lo - 1.0 if math.isfinite(lo) else hi - 50.0
    a_max = hi + 1.0 if math.isfinite(hi) else lo + 50.0
    grid = _grid(family, SweepConfig(a_min=a_min, a_max=a_max, steps=16))
    assert grid[0] == (lo if math.isfinite(lo) else a_min)
    assert grid[-1] == (hi if math.isfinite(hi) else a_max)
    for end, outward in ((lo, -math.inf), (hi, math.inf)):
        if math.isfinite(end):
            validate_param(SurfaceParam(family, end))
            with pytest.raises(DomainError):
                validate_param(SurfaceParam(family, math.nextafter(end, outward)))


def test_default_windows_cover_all_families():
    assert set(DEFAULT_WINDOWS) == {"H", "rPD", "tP", "tD", "tCLP"}


def test_window_outside_domain_rejected():
    with pytest.raises(DomainError):
        sweep("tP", SweepConfig(a_min=-3.0, a_max=-2.5, steps=16))


def test_window_clamped_to_domain():
    rep = sweep("tCLP", SweepConfig(a_min=-5.0, a_max=5.0, steps=16))
    assert rep.samples[0].a == -2.0 + MARGIN
    assert rep.samples[-1].a == 2.0 - MARGIN


def test_quiet_window_single_interval():
    rep = sweep("H", SweepConfig(a_min=0.4, a_max=0.45, steps=16))
    assert rep.family == "H"
    assert len(rep.samples) == 17
    assert rep.transitions == ()
    assert len(rep.intervals) == 1
    box = rep.intervals[0]
    assert (box.lo, box.hi) == (0.4, 0.45)
    assert (box.p, box.q, box.index_E) == (5, 4, 2)
    assert box.index_A == 2
    assert box.nullity_A == 3


def test_sample_fields_are_consistent():
    rep = sweep("H", SweepConfig(a_min=0.4, a_max=0.45, steps=16))
    for s in rep.samples:
        assert s.p + s.q + s.nullity_E == 9
        assert s.signature_class == (s.p, s.q, s.index_E)
        assert s.min_abs_eig_w > 0.0
    a_vals = [s.a for s in rep.samples]
    assert a_vals == sorted(a_vals)


def test_crossing_is_found_and_refined():
    rep = sweep("rPD", SweepConfig(a_min=0.45, a_max=0.55, steps=16))
    assert len(rep.transitions) == 1
    t = rep.transitions[0]
    assert abs(t.a_star - RPD_ROOT) <= 1e-6
    assert t.nullity_at == 1
    assert t.left_class == (5, 4, 2)
    assert t.right_class == (4, 5, 1)

    assert len(rep.intervals) == 2
    lo_box, hi_box = rep.intervals
    assert lo_box.hi == t.a_star
    assert hi_box.lo == t.a_star
    assert (lo_box.p, lo_box.q, lo_box.index_E) == (5, 4, 2)
    assert (hi_box.p, hi_box.q, hi_box.index_E) == (4, 5, 1)


def test_refinement_tolerance_is_honored():
    tight = sweep("rPD", SweepConfig(a_min=0.45, a_max=0.55, steps=16, refine_tol=1e-11))
    loose = sweep("rPD", SweepConfig(a_min=0.45, a_max=0.55, steps=16, refine_tol=1e-6))
    assert abs(tight.transitions[0].a_star - loose.transitions[0].a_star) <= 1e-6


def test_classify_at_transition_point():
    report, limit_index = classify_at("rPD", RPD_ROOT)
    assert (report.p, report.q) == (4, 4)
    assert report.nullity_E == 1
    assert report.nullity_A == 4
    assert limit_index == 1


def test_classify_at_generic_point():
    report, limit_index = classify_at("H", 0.42)
    assert (report.p, report.q) == (5, 4)
    assert report.nullity_E == 0
    assert limit_index == report.index_E == 2


def test_classify_at_closed_endpoint_uses_one_flank():
    report, limit_index = classify_at("rPD", 1.0)
    assert limit_index == report.index_E


def test_classify_at_validation():
    with pytest.raises(DomainError):
        classify_at("H", 2.0)


def test_default_window_sweeps_structure(family_sweeps):
    for fam, rep in family_sweeps.items():
        assert rep.family == fam
        assert len(rep.samples) == 65
        lo, hi = DEFAULT_WINDOWS[fam]
        assert rep.intervals[0].lo == max(rep.samples[0].a, lo)
        assert rep.intervals[-1].hi == rep.samples[-1].a
        for t in rep.transitions:
            assert rep.samples[0].a < t.a_star < rep.samples[-1].a
        stars = [t.a_star for t in rep.transitions]
        assert stars == sorted(stars)


def test_config_rejects_non_finite_refine_tol():
    for tol in (math.inf, math.nan):
        with pytest.raises(DomainError):
            SweepConfig(a_min=0.45, a_max=0.55, refine_tol=tol)


# synthetic functions for the root finder, each with its sign change at r
SYNTHETIC = {
    "linear": lambda x, r: x - r,
    "cubic_flat": lambda x, r: (x - r) ** 3,
    # max(x, 2x) - c with c chosen so that the root is r; kinked at 0
    "kinked": lambda x, r: max(x, 2.0 * x) - max(r, 2.0 * r),
    "step": lambda x, r: 1.0 if x >= r else -1.0,
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(-10.0, 10.0),
    left=st.floats(1e-3, 10.0),
    right=st.floats(1e-3, 10.0),
    tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
    orient=st.sampled_from([1.0, -1.0]),
)
def test_brent_shrinks_bracket_to_tol(name, r, left, right, tol, orient):
    g = SYNTHETIC[name]
    calls = []

    def f(x):
        calls.append(x)
        return orient * g(x, r)

    a0, b0 = r - left, r + right
    lo, f_lo, hi, f_hi = _brent(f, a0, f(a0), b0, f(b0), tol, _MAX_REFINE_EVALS)
    evals = len(calls) - 2
    assert lo < hi
    assert hi - lo <= tol
    assert (f_lo < 0.0) != (f_hi < 0.0)
    assert f_lo == f(lo) and f_hi == f(hi)
    # the midpoint, which a sweep reports as the root, is within tol of r
    assert abs(0.5 * (lo + hi) - r) <= tol
    assert evals < _MAX_REFINE_EVALS


def test_brent_stops_at_the_cap_with_a_valid_bracket():
    def f(x):
        return 1.0 if x >= 0.3 else -1.0

    lo, f_lo, hi, f_hi = _brent(f, 0.0, f(0.0), 1.0, f(1.0), 1e-9, 3)
    assert hi - lo > 1e-9
    assert lo < 0.3 <= hi
    assert (f_lo, f_hi) == (-1.0, 1.0)


def test_brent_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError):
        _brent(lambda x: x, 1.0, 1.0, 2.0, 2.0, 1e-9, _MAX_REFINE_EVALS)


def test_refinement_needs_few_cold_evaluations():
    moduli._analyze_cached.cache_clear()
    rep = sweep("rPD", SweepConfig(a_min=0.45, a_max=0.55, steps=16))
    # every grid point is a miss on a cleared cache; the rest refine
    refine = moduli._analyze_cached.cache_info().misses - len(rep.samples)
    assert len(rep.transitions) == 1
    assert refine <= 10 * len(rep.transitions)


def _bisect_raw_count(family, lo, hi, tol):
    """Reference root: bisection on the raw negative count of W."""
    def raw(a):
        eig = moduli.analyze(SurfaceParam(family, a)).report.eig_w
        return sum(1 for v in eig if v < 0.0)

    q_lo = raw(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if raw(mid) == q_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("family, lo, hi, qs", [
    ("H", 0.70, 0.73, {5, 3}),
    ("rPD", 0.45, 0.55, {4, 5}),
])
def test_refined_root_matches_bisection_reference(family, lo, hi, qs):
    rep = sweep(family, SweepConfig(a_min=lo, a_max=hi, steps=16))
    (t,) = rep.transitions
    assert {t.left_class[1], t.right_class[1]} == qs
    grid = [s.a for s in rep.samples]
    k = bisect.bisect(grid, t.a_star)
    ref = _bisect_raw_count(family, grid[k - 1], grid[k], 1e-12)
    assert abs(t.a_star - ref) <= 2e-9


def test_td_roots_mirror_tp_roots(family_sweeps):
    tp = [t.a_star for t in family_sweeps["tP"].transitions]
    td = [t.a_star for t in family_sweeps["tD"].transitions]
    tol = family_sweeps["tP"].config.refine_tol
    assert len(tp) == len(td) == 2
    for a_p, a_d in zip(tp, reversed(td)):
        assert abs(a_p + a_d) <= tol


def test_retained_sweep_reports_are_compact():
    # what a caller keeps per grid point of a sweep whose analyses are
    # cached: its row of the sample columns (three floats, four small
    # counts) and its share of the report, transitions and intervals;
    # about 185 B as one slotted SweepSample per point
    for record in (SweepSample, Transition, Interval):
        assert not hasattr(record(*[0] * len(record.__slots__)), "__dict__")
    cfg = SweepConfig(a_min=0.2, a_max=0.8, steps=64)
    sweep("H", cfg)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = [sweep("H", cfg) for _ in range(5)]
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    samples = sum(len(r.samples) for r in reports)
    assert samples == 5 * 65
    assert (after - before) / samples <= 80


def test_an_interval_without_a_clean_grid_sample_is_classed_at_its_midpoint():
    # every grid point of a window 1e-8 wide around the root has nullity
    rep = sweep("rPD", SweepConfig(a_min=RPD_ROOT - 1e-8, a_max=RPD_ROOT + 1e-8, steps=16))
    assert all(s.nullity_E > 0 for s in rep.samples)
    (iv,) = rep.intervals
    mid = moduli.analyze(SurfaceParam("rPD", 0.5 * (iv.lo + iv.hi))).report
    assert (iv.p, iv.q, iv.index_E, iv.nullity_A) == (mid.p, mid.q, mid.index_E,
                                                      mid.nullity_E + 3)
    assert iv.nullity_A == 4
