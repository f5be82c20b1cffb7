"""The stacked grid: sweep analyzes the grid points that miss the cache as
stacks, and every point must come out as a fresh one-point analysis does."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from msindex import cli, families, moduli
from msindex.errors import NonConvergence
from msindex.families import SurfaceParam, canonical_param
from msindex.sweep import DEFAULT_WINDOWS, SweepConfig, _grid, sweep

# one window per family as refine_roots draws them: 1 % of the default
# window around a transition, 16 steps
_NARROW = {"H": (0.7, 0.7098), "rPD": (0.49, 0.4999), "tP": (14.0, 14.379),
           "tD": (-14.379, -14.0), "tCLP": (0.5, 0.5398)}


def _windows():
    for family, (lo, hi) in DEFAULT_WINDOWS.items():
        yield family, SweepConfig(lo, hi, steps=64)
    for family, (lo, hi) in _NARROW.items():
        yield family, SweepConfig(lo, hi, steps=16)


def _same(x, y) -> bool:
    # equal, and bit for bit so, signed zeros included
    return np.array_equal(x, y) and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("family, cfg", list(_windows()),
                         ids=[f"{f}-{c.steps}" for f, c in _windows()])
def test_stacked_grid_equals_fresh_one_point_analyses(family, cfg):
    params = [canonical_param(SurfaceParam(family, a)) for a in _grid(family, cfg)]
    # more points than one stack holds, so block boundaries are crossed
    assert len(params) > moduli._STACK_POINTS or cfg.steps == 16
    moduli._analyze_cached.cache_clear()
    stacked = moduli.analyze_many(params, cfg.quad)
    for p, res in zip(params, stacked):
        (alone,) = moduli._analyze_stack([p], cfg.quad)
        assert res.param == p
        assert res.integrals == alone.integrals
        assert _same(res.frame.omega, alone.frame.omega)
        assert _same(res.frame.tau, alone.frame.tau)
        assert _same(res.key.w, alone.key.w)
        assert _same(res.key.wdiff, alone.key.wdiff)
        assert _same(res.report.eig_w, alone.report.eig_w)
        assert _same(res.report.eig_wdiff, alone.report.eig_wdiff)
        for field in ("p", "q", "nullity_E", "kernel_dim_wdiff", "index_E", "degenerate",
                      "zero_tol_w", "zero_tol_wdiff"):
            assert getattr(res.report, field) == getattr(alone.report, field), field


def test_stacked_records_own_their_arrays():
    moduli._analyze_cached.cache_clear()
    res = moduli.analyze_many([SurfaceParam("tP", a) for a in (3.0, 4.0, 5.0)])[1]
    for arr in (res.frame.omega, res.frame.tau, res.key.w, res.key.wdiff,
                res.report.eig_w, res.report.eig_wdiff):
        assert arr.base is None
    assert not res.report.eig_w.flags.writeable


def test_reproduce_counts_each_computed_point_once():
    moduli._analyze_cached.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["reproduce", "--all", "--steps", "64"]) == 0
    info = moduli._analyze_cached.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (300, 22, 4096)
    assert info.currsize == 300


def test_folded_repeats_in_a_stack_are_hits():
    moduli._analyze_cached.cache_clear()
    cached = moduli.analyze(SurfaceParam("tP", 3.0))
    got = moduli.analyze_many([SurfaceParam("tCLP", 0.5), SurfaceParam("tCLP", -0.5),
                               SurfaceParam("tD", -3.0), SurfaceParam("tP", 4.0),
                               SurfaceParam("tP", 4.0)])
    info = moduli._analyze_cached.cache_info()
    # one miss each for tP 3, tCLP 0.5 and tP 4; the folds and the repeat hit
    assert (info.misses, info.hits) == (3, 3)
    assert got[0] is got[1] and got[3] is got[4] and got[2] is cached


def test_the_cache_drops_the_least_recently_used(monkeypatch):
    cache = moduli._AnalysisCache(maxsize=3)
    monkeypatch.setattr(moduli, "_analyze_cached", cache)
    params = [SurfaceParam("tP", a) for a in (3.0, 4.0, 5.0, 6.0)]
    first = moduli.analyze_many(params[:3])
    moduli.analyze(params[0])
    moduli.analyze(params[3])
    assert cache.cache_info().currsize == 3
    assert moduli.analyze(params[0]) is first[0]
    assert moduli.analyze(params[1]) is not first[1]
    assert cache.cache_info().misses == 5


def test_a_failing_grid_point_fails_the_sweep_as_alone():
    # row A2 of tP does not converge this close to a = 2; the stack fails
    # as the first grid point does alone, and names the row and the point
    with pytest.raises(NonConvergence) as alone:
        moduli.analyze(SurfaceParam("tP", 2.00001))
    moduli._analyze_cached.cache_clear()
    with pytest.raises(NonConvergence) as stacked:
        sweep("tP", SweepConfig(2.00001, 2.1, steps=16))
    assert str(stacked.value) == str(alone.value)
    assert "row 'A2'" in str(stacked.value) and "2.00001" in str(stacked.value)
    # as one by one: the failing first point counts its miss, nothing is cached
    info = moduli._analyze_cached.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 0, 0)


def test_a_failing_point_inside_a_stack_counts_what_was_computed(monkeypatch):
    # the third of five points fails: the two before it are computed and
    # cached, and it counts its own miss, as one analyze call after another
    real = families.deformation_data

    def failing(p):
        if p.a == 5.0:
            raise NonConvergence("deliberate")
        return real(p)

    monkeypatch.setattr(families, "deformation_data", failing)
    moduli._analyze_cached.cache_clear()
    params = [SurfaceParam("tP", a) for a in (3.0, 4.0, 5.0, 6.0, 7.0)]
    with pytest.raises(NonConvergence, match="deliberate"):
        moduli.analyze_many(params)
    info = moduli._analyze_cached.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 0, 2)
    moduli.analyze(params[1])
    assert moduli._analyze_cached.cache_info().hits == 1
    moduli._analyze_cached.cache_clear()


def _transient_peak(cfg):
    moduli._analyze_cached.cache_clear()
    tracemalloc.start()
    try:
        sweep("tP", cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        moduli._analyze_cached.cache_clear()
    return peak - held


def test_a_long_grid_has_bounded_transient_memory():
    # the grid is stacked in blocks of at most _STACK_POINTS points, so
    # what a sweep holds beyond its results does not grow with its length
    short = _transient_peak(SweepConfig(2.1, 40.0, steps=64))
    long = _transient_peak(SweepConfig(2.1, 40.0, steps=1024))
    assert long <= 1.5e6
    assert long <= 1.1 * short
