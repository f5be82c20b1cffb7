"""The stacked grid: sweep analyzes the grid points that miss the cache as
stacks, and every point must come out as a fresh one-point analysis does.
classify_at and reproduce stack the points they know in advance, with the
results, errors and cache counts of one analyze call after another."""

import contextlib
import gc
import io
import re
import tracemalloc

import numpy as np
import pytest
from sign_counts import count_signs

from msindex import cli, families, moduli
from msindex.errors import DomainError, NonConvergence
from msindex.families import SurfaceParam, admissible_range, canonical_param
from msindex.sweep import (_FLANK_OFFSET, DEFAULT_WINDOWS, SweepConfig, _grid, _raw_negatives,
                           classify_at, sweep)

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


# the shape and dtype of one surface's row of each array a cached analysis holds
_ROWS = {"omega": ((6, 6), complex), "tau": ((3, 3), complex), "im_tau_inv": ((3, 3), float),
         "w": ((9, 9), complex), "wdiff": ((18, 18), float), "eig_w": ((9,), float),
         "eig_wdiff": ((18,), float)}


def _arrays(record):
    """(field name, array) of every array field of a slotted record and
    of the slotted records it holds."""
    for name in record.__slots__:
        value = getattr(record, name)
        if isinstance(value, np.ndarray):
            yield name, value
        elif hasattr(value, "__slots__"):
            yield from _arrays(value)


def test_stacked_records_own_their_arrays():
    # a one-point analyze and a point of a 3-point stack: every array of
    # the cached analysis owns its data, which is its own row's alone
    moduli._analyze_cached.cache_clear()
    alone = moduli.analyze(SurfaceParam("tP", 6.0))
    stacked = moduli.analyze_many([SurfaceParam("tP", a) for a in (3.0, 4.0, 5.0)])[1]
    for res in (alone, stacked):
        arrays = dict(_arrays(res))
        assert sorted(arrays) == sorted(_ROWS)
        for name, arr in arrays.items():
            shape, dtype = _ROWS[name]
            assert arr.base is None, name
            assert arr.shape == shape and arr.dtype == dtype, name
            assert arr.nbytes == np.dtype(dtype).itemsize * int(np.prod(shape)), name
        assert not res.report.eig_w.flags.writeable
    moduli._analyze_cached.cache_clear()


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


def _as(p):
    # the parameter values of a deformation_data call, one point or a stack
    return [p.a] if isinstance(p, SurfaceParam) else [q.a for q in p]


def test_a_failing_point_inside_a_stack_counts_what_was_computed(monkeypatch):
    # the third of five points fails: the two before it are computed and
    # cached, and it counts its own miss, as one analyze call after another
    real = families.deformation_data

    def failing(p):
        if 5.0 in _as(p):
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


# the admitted ends and the tCLP fold, where powers of the branch points
# spread widest; rPD is closed at 1
_BRANCH_ENDS = {"H": (1e-6, 1.0 - 1e-6), "rPD": (1e-6, 1.0 - 1e-6, 1.0),
                "tP": (2.0 + 1e-6, 1e12), "tCLP": (1e-6, 1.999999, 0.0)}


@pytest.mark.parametrize("n", [1, 2, 3, 24, 65])
@pytest.mark.parametrize("family", list(_BRANCH_ENDS))
def test_stacked_deformation_data_is_each_point_alone(family, n):
    lo, hi = DEFAULT_WINDOWS[family]
    values = np.linspace(max(lo, 0.0), hi, n).tolist()
    # the range ends at positions spread over the stack
    for i, a in zip(range(n - 1, -1, -max(1, n // 3)), _BRANCH_ENDS[family]):
        values[i] = a
    params = [SurfaceParam(family, a) for a in values]
    stack = families.deformation_data(params)
    assert stack.shape == (n, 5, 3, 6) and not stack.flags.writeable
    for p, row in zip(params, stack):
        alone = families.deformation_data(p)
        assert alone.shape == (5, 3, 6) and not alone.flags.writeable
        assert _same(row, alone), p


@pytest.mark.parametrize("family, values, folded", [
    ("tCLP", (0.5, -0.7, 0.9), -0.7), ("tD", (-14.0, -20.0), -14.0)])
def test_stacked_deformation_data_refuses_a_folded_parameter(family, values, folded):
    with pytest.raises(DomainError, match=re.escape(f"a={folded!r}") + ".*apply canonical_param"):
        families.deformation_data([SurfaceParam(family, a) for a in values])


def _fails_as_one_by_one(params, error, text):
    """analyze_many on params raises as analyze on each in turn does, with
    the same cache counts and cached parameters; returns the counts."""
    moduli._analyze_cached.cache_clear()
    with pytest.raises(error, match=text):
        moduli.analyze_many(params)
    stacked = _info(), list(moduli._analyze_cached._entries)
    moduli._analyze_cached.cache_clear()
    with pytest.raises(error, match=text):
        for p in params:
            moduli.analyze(p)
    assert (_info(), list(moduli._analyze_cached._entries)) == stacked
    moduli._analyze_cached.cache_clear()
    return stacked[0]


def test_colliding_branch_points_fail_the_stack_as_one_by_one(monkeypatch):
    # H's closest branch points are min(a sqrt(3), 1/a - a) apart: 0.10 at
    # a = 0.95, 0.21 or more at the other four
    monkeypatch.setattr(families, "_POINT_SEPARATION", 0.15)
    params = [SurfaceParam("H", a) for a in (0.3, 0.5, 0.95, 0.7, 0.9)]
    info = _fails_as_one_by_one(params, DomainError, r"branch points .* collide at a = 0\.95$")
    # (hits, misses, cached): the two points before it are cached
    assert info == (0, 3, 2)


@pytest.mark.parametrize("column, error, text", [
    (8, NonConvergence, "has residual nan"),  # x^0: each point's curve
    (9, DomainError, "collide"),  # x^1: the points themselves
])
def test_a_nan_in_the_powers_fails_naming_the_parameter(monkeypatch, column, error, text):
    # a nan fails every comparison, so each check is written to fail on it
    real = families._power_row

    def with_nan(fam, a):
        row = real(fam, a).copy()
        row[-1, column] = np.nan
        return row

    monkeypatch.setattr(families, "_power_row", with_nan)
    for values in ([10.0], [3.0, 10.0]):
        with pytest.raises(error, match=text + r".* at a = 10\.0$"):
            families.deformation_data([SurfaceParam("tP", a) for a in values])


@pytest.mark.parametrize("family, a, other", [
    ("tP", 10.0, 3.0), ("tCLP", 0.5, 0.2), ("H", 0.3, 0.6), ("rPD", 0.4, 0.7)])
def test_a_nan_in_any_power_fails_naming_the_parameter(monkeypatch, family, a, other):
    # every column of _power_row, at one point and at the second point of
    # a stack: one that an entry reads, if only a P_ai entry, fails naming
    # a, and one that none reads leaves P_ai as it is
    read = set(families._TABLES[family][0].ravel().tolist())
    real = families._power_row
    column = [0]

    def with_nan(fam, values):
        row = real(fam, values).copy()
        row[-1, column[0]] = np.nan
        return row

    for values in ([a], [other, a]):
        params = [SurfaceParam(family, x) for x in values]
        clean = families.deformation_data(params).tobytes()
        monkeypatch.setattr(families, "_power_row", with_nan)
        for column[0] in range(real(family, np.array(values)).shape[1]):
            if column[0] in read:
                with pytest.raises((NonConvergence, DomainError), match=f" at a = {a!r}$"):
                    families.deformation_data(params)
            else:
                assert families.deformation_data(params).tobytes() == clean, column[0]
        monkeypatch.setattr(families, "_power_row", real)


def _largest_residual(monkeypatch, p):
    # raise the tolerance past each residual that deformation_data reports
    # until it reports none: the last one reported is p's largest
    tol, largest = -1.0, None
    while True:
        monkeypatch.setattr(families, "_ROOT_RESIDUAL_TOL", tol)
        try:
            families.deformation_data(p)
        except NonConvergence as exc:
            largest = float(re.search(r"residual (\S+) at a = ", str(exc)).group(1))
            tol = 1.01 * largest
        else:
            return largest


def test_a_branch_point_off_its_curve_fails_the_stack_as_one_by_one(monkeypatch):
    # residuals of rounding size, the middle point's the largest here
    params = [SurfaceParam("H", a) for a in (0.35, 0.4, 0.6, 0.5, 0.25)]
    largest = [_largest_residual(monkeypatch, p) for p in params]
    k = int(np.argmax(largest))
    rest = max(largest[:k] + largest[k + 1:])
    # the ratchet steps 1 % at a time, so it may miss a residual within 1 %
    assert largest[k] > 1.1 * rest
    # a tolerance that only the k-th point's curve residual exceeds
    monkeypatch.setattr(families, "_ROOT_RESIDUAL_TOL", 0.5 * (largest[k] + rest))
    info = _fails_as_one_by_one(
        params, NonConvergence, r"branch point .* has residual .* at a = %s$" % re.escape(
            repr(params[k].a)))
    assert info == (0, k + 1, k)


def _transient_peak(cfg):
    # a full collection empties CPython's free lists, which would
    # otherwise keep freed objects counted as held
    moduli._analyze_cached.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        sweep("tP", cfg)
        gc.collect()
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


def _reference_points():
    data = cli._load_reference()
    roots = [(family, r["a"]) for family, e in data["families"].items()
             for r in e.get("roots", [])]
    return roots + [("rPD", 1.0), ("H", 0.42)]


def _flanks(family, a):
    lo, hi = admissible_range(family)
    return [x for x in (a - _FLANK_OFFSET, a + _FLANK_OFFSET) if lo <= x <= hi]


def _info():
    info = moduli._analyze_cached.cache_info()
    return info.hits, info.misses, info.currsize


@pytest.mark.parametrize("family, a", _reference_points())
def test_classify_at_is_its_three_analyze_calls(family, a):
    moduli._analyze_cached.cache_clear()
    report, limit = classify_at(family, a)
    stacked_info = _info()
    # the report is the cached one, and the flanks are cached too
    assert moduli.analyze(SurfaceParam(family, a)).report is report
    flanks = [moduli.analyze(SurfaceParam(family, x)).report for x in _flanks(family, a)]
    assert len(flanks) == (1 if a == 1.0 else 2)
    assert limit == min(r.index_E for r in flanks)

    moduli._analyze_cached.cache_clear()
    alone = moduli.analyze(SurfaceParam(family, a)).report
    alone_flanks = [moduli.analyze(SurfaceParam(family, x)).report for x in _flanks(family, a)]
    assert _info() == stacked_info
    assert limit == min(r.index_E for r in alone_flanks)
    for got, want in zip([report] + flanks, [alone] + alone_flanks):
        assert _same(got.eig_w, want.eig_w) and _same(got.eig_wdiff, want.eig_wdiff)
        assert (got.p, got.q, got.nullity_E, got.index_E, got.degenerate) == (
            want.p, want.q, want.nullity_E, want.index_E, want.degenerate)
    moduli._analyze_cached.cache_clear()


@pytest.mark.parametrize("side", [-1, 1])
def test_a_failing_flank_fails_classify_at_as_one_by_one(monkeypatch, side):
    real = families.deformation_data
    a = 0.42
    bad = a + side * _FLANK_OFFSET

    def failing(p):
        if bad in _as(p):
            raise NonConvergence("deliberate")
        return real(p)

    monkeypatch.setattr(families, "deformation_data", failing)
    moduli._analyze_cached.cache_clear()
    with pytest.raises(NonConvergence, match="deliberate"):
        classify_at("H", a)
    stacked_info = _info()
    moduli._analyze_cached.cache_clear()
    with pytest.raises(NonConvergence, match="deliberate"):
        for x in [a] + _flanks("H", a):
            moduli.analyze(SurfaceParam("H", x))
    assert _info() == stacked_info
    # the left flank fails second, the right one third
    assert stacked_info[1:] == ((2, 1) if side < 0 else (3, 2))
    moduli._analyze_cached.cache_clear()


def _reproduce(capsys, *argv):
    moduli._analyze_cached.cache_clear()
    code = cli.main(["reproduce", *argv])
    out, err = capsys.readouterr()
    moduli._analyze_cached.cache_clear()
    return code, out, err


@pytest.mark.parametrize("failing", [0.3, 0.5])
def test_a_failing_reference_sample_stops_reproduce_where_it_did(monkeypatch, capsys, failing):
    # a sample that fails stops the report before its lines, as one
    # analyze call per sample did: stdout is the passing run's up to it
    _, clean, _ = _reproduce(capsys, "--family", "H", "--steps", "16")
    real = families.deformation_data

    def failing_at(p):
        if failing in _as(p):
            raise NonConvergence("deliberate")
        return real(p)

    monkeypatch.setattr(families, "deformation_data", failing_at)
    code, out, err = _reproduce(capsys, "--family", "H", "--steps", "16")
    assert (code, err) == (cli.EXIT_NUMERIC, "numerical failure: deliberate\n")
    assert out == clean[:clean.index("  a=%r key matrix" % failing)]
    assert out.startswith("[H]\n")


def test_stacked_reports_equal_the_one_point_report_row_by_row():
    rng = np.random.default_rng(14)
    rows_w, rows_d = [], []
    for _ in range(40):
        w = rng.standard_normal(9) * 10.0 ** rng.integers(-8, 8, size=9)
        d = rng.standard_normal(18) * 10.0 ** rng.integers(-8, 8, size=18)
        d[rng.permutation(18)[:8]] = rng.standard_normal(8) * 1e-20
        rows_w.append(w)
        rows_d.append(d)
    # eigenvalues exactly at +-zero_tol of spectra whose largest is 1: the
    # two at the Wdiff tolerance make its kernel 8 in the first row, 10 in
    # the second, which counts the W eigenvalues at +-zero_tol as zeros
    tol = moduli.ZERO_TOL_FACTOR
    at_tol_w = np.array([1.0, tol, tol, 0.5, 0.0, -0.0, -tol, -tol, -0.25])
    for zeros in (6, 8):
        rest = [0.5, -0.5, 2 * tol, -2 * tol, 0.3, -0.3, -1.0, 0.7, -0.7][:15 - zeros]
        rows_w.append(at_tol_w)
        rows_d.append(np.array([1.0, tol, -tol] + [0.0] * zeros + rest))
    # an all-zero spectrum, and a clean one beside a degenerate Wdiff kernel
    rows_w.append(np.zeros(9))
    rows_d.append(np.zeros(18))
    clean_d = np.array([3.0, 2.0, 1.0, 0.5, 0.25] + [1e-12] * 8 + [-0.25, -0.5, -1.0, -2.0, -3.0])
    for zeros in (8, 9):
        d = clean_d.copy()
        d[5:5 + zeros] = 1e-12
        rows_w.append(np.array([2.0, 1.0, 1e-9, -1e-9, -1.0, 0.5, -0.5, 4.0, -4.0]))
        rows_d.append(d)
    # diagonal key matrices, so that each spectrum is its rows' entries
    w_mats = np.stack([np.diag(w) for w in rows_w]).astype(complex)
    d_mats = np.stack([np.diag(d) for d in rows_d])
    stacked = moduli.spectral_report(moduli.KeyMatrices(w=w_mats, wdiff=d_mats))
    assert [r.degenerate for r in stacked[-5:]] == [False, True, True, False, True]
    assert [r.nullity_E for r in stacked[-5:]] == [2, 6, 9, 0, 2]
    for w, d, got in zip(w_mats, d_mats, stacked):
        want = moduli.spectral_report(moduli.KeyMatrices(w=w, wdiff=d))
        assert _same(got.eig_w, want.eig_w) and _same(got.eig_wdiff, want.eig_wdiff)
        assert got.eig_w.base is None and not got.eig_w.flags.writeable
        for field in moduli.SpectralReport.__slots__:
            if field.startswith("eig_"):
                continue
            g, v = getattr(got, field), getattr(want, field)
            assert type(g) is type(v) and (g == v), field
            if isinstance(v, float):
                assert g.hex() == v.hex(), field
        # the counts by bisection of the sorted spectra equal the reference counts
        assert (got.kernel_dim_wdiff, got.index_E) == (
            count_signs(got.eig_wdiff, got.zero_tol_wdiff)[2],
            1 + count_signs(got.eig_wdiff, got.zero_tol_wdiff)[1])
        tol_w = got.zero_tol_w if got.degenerate else 0.0
        assert (got.p, got.q, got.nullity_E) == count_signs(got.eig_w, tol_w)


def test_grid_samples_equal_the_per_sample_arithmetic(family_sweeps):
    for family, rep in family_sweeps.items():
        for s in rep.samples:
            eig = moduli.analyze(SurfaceParam(family, s.a)).report.eig_w.tolist()
            det = 1.0
            for v in eig:
                det *= v
            assert s.det_w.hex() == det.hex()
            assert s.min_abs_eig_w.hex() == min(abs(v) for v in eig).hex()
            assert int(_raw_negatives(eig)) == count_signs(eig, 0.0)[1]
