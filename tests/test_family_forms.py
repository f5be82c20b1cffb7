"""The families' forms on cached node features against the same forms
written inline, and the node cache those features live in.

The reference forms below compute every subexpression in the nodes and
their distances to 1 at each call, in the operation order the feature
forms keep, so the two must agree bit for bit on every node set: the
fused block with its midpoint and the refine levels past it, at one
point and on a stack.
"""

import dataclasses

import numpy as np
import pytest

from msindex import families, moduli, quadrature
from msindex.families import SurfaceParam
from quad_reference import per_level_reference


# ---------------------------------------------------------------------------
# the forms written inline


def _near0(t, a, a3, ia3):
    tt = t * t
    t3 = t ** 3
    rad = (t3 + a3) * (t3 + ia3)
    root = np.sqrt(t * rad)
    rad15 = rad ** 1.5
    t25 = t ** 2.5
    return ((1.0 + tt) / root, (1.0 - tt) / root, t / root,
            t25 * (1.0 + tt) / rad15, t25 * (1.0 - tt) / rad15, t ** 3.5 / rad15)


def _cap_rows(x, pol, span):
    root = np.sqrt(pol * span)
    den = pol ** 1.5 * np.sqrt(span)
    return x / root, 1.0 / root, x / den, 1.0 / den


def _cap_rise(s):
    # a^3 + 1/a^3 + 6x - 8x^3 less c at x = 1 - s
    return s * (18.0 - s * (24.0 - 8.0 * s))


def _cap(s, a, c, scale=1.0):
    # the cap rows at x = 1 - s; scale multiplies 1 - x^2
    return _cap_rows(1.0 - s, c + _cap_rise(s), scale * (s * (2.0 - s)))


def _h(t, d, a, a3, ia3, c):
    # the cap rows at x = (1 + t) / 2, 1 - x = d / 2, each halved through
    # 4 (1 - x^2)
    return _near0(t, a, a3, ia3) + _cap(0.5 * d, a, c, 4.0)


def _quartic(t4, a):
    quartic = t4 * t4 + a * t4 + 1.0
    return np.sqrt(quartic), quartic ** 1.5


def _tp(t, d, a):
    tt = t * t
    t4 = t ** 4
    root, cube = _quartic(t4, a)
    ridge = 16.0 * (tt - 0.5) ** 2 + (a - 2.0)
    flat = (2.0 + a) * tt * tt + (2.0 * a - 12.0) * tt + (2.0 + a)
    return ((1.0 - tt) / root, (1.0 + tt) / root, t / root,
            t4 * (1.0 - tt) / cube, t4 * (1.0 + tt) / cube, t ** 5 / cube,
            1.0 / np.sqrt(ridge), 1.0 / np.sqrt(flat),
            1.0 / ridge ** 1.5, (1.0 + tt) ** 2 / flat ** 1.5)


def _tclp(t, d, a, b):
    tt = t * t
    t4 = t ** 4
    t5 = t ** 5
    root_p, cube_p = _quartic(t4, b)
    root_m, cube_m = _quartic(t4, -b)
    even = t4 * (1.0 + tt)
    return ((1.0 + tt) / root_m, (1.0 + tt) / root_p, t / root_p, t / root_m,
            even / cube_m, even / cube_p, t5 / cube_p, t5 / cube_m)


def _bare(t, d, a, a3, d0):
    # 1 - t^3 = d (3 - 3d + d^2)
    return (((1.0 - a) + a * d) * (1.0 + a * t)
            / np.sqrt(t * d * (3.0 - d * (3.0 - d)) * (d0 + a3 * (d * (1.0 + t * (1.0 + t))))),)


def _mid(v, d, a, d2, w):
    s = w * v
    t = a + s
    down = w * d
    rest = d2 + down * (1.0 + t * (1.0 + t))
    return (down * (1.0 + t) / np.sqrt(t * s * (t * t + a * t + a * a) * rest),)


def _upper_cap_x(s, a, c):
    # 1 / sqrt(c + rise) on x in (0.5, 1), at x = 1 - s
    return (1.0 / np.sqrt(c + _cap_rise(s)),)


def _upper_cap(t, d, a, c):
    # at x = (1 + t) / 2, 1 - x = d / 2, as _h reads the cap rows; halved,
    # as dx = dt / 2
    return (0.5 / np.sqrt(c + _cap_rise(0.5 * d)),)


def _rpd_rows(c, numerators, base, t3, alt):
    root = None if all(alt) else np.sqrt(base * (c.a3 * t3 + c.ia3))
    alt_root = np.sqrt(base * (c.ia3 * t3 + c.a3)) if any(alt) else None
    return quadrature._as_rows(
        [n / (alt_root if swap else root) for n, swap in zip(numerators, alt)])


def _rpd_table(alt, unit_nums, tail_nums):
    """An rPD table inline: the unit rows at t = x, d = 1 - t, then the
    tail rows folded by t = 1/x = 1 + e, e = d / x, over x^2."""
    def f(x, d, *cols):
        c = families._RPDCurve(*cols)
        t3 = x ** 3
        e = d / x
        u = 1.0 + e
        u3 = u ** 3
        nums = tail_nums(c, u, u3, e)
        tail_rows = _rpd_rows(c, nums, u * e * (e * (e + 3.0) + 3.0), u3, (False,) * len(nums))
        unit_rows = _rpd_rows(c, unit_nums(c, x, t3, d), x * d * (3.0 - d * (3.0 - d)), t3, alt)
        return np.concatenate([unit_rows, tail_rows / (x * x)])

    return f


def _unit_nums(c, t, t3, d):
    at2 = (c.a * t) ** 2
    cubic = c.cubic(t3)
    return (1.0 + at2, t, cubic * (5.0 * at2 + 1.0), cubic * (5.0 * at2 - 1.0),
            t * c.alt_cubic(t3), t * cubic)


def _identity_nums(c, t, t3, d):
    tt = t * t
    cubic, alt_cubic = c.cubic(t3), c.alt_cubic(t3)
    return (((1.0 - c.a) + c.a * d) * (1.0 + c.a * t), tt * cubic, cubic, alt_cubic,
            tt * alt_cubic)


def _tail_minus(c, t, t3, d):
    return (((1.0 - c.a) - c.a * d) * (1.0 + c.a * t),)


# the inline forms of each table, by family and table key
_INLINE = {
    "H": {"periods": _h, "bare": _bare, "mid": _mid, "upper_cap": _upper_cap},
    "rPD": {
        "periods": _rpd_table((False, False, False, False, True, False), _unit_nums,
                              lambda c, t, t3, d: (1.0 + (c.a * t) ** 2, t)),
        "identities": _rpd_table((False, False, False, True, True), _identity_nums, _tail_minus),
    },
    "tP": {"periods": _tp},
    "tCLP": {"periods": _tclp},
}


# ---------------------------------------------------------------------------


def _identity_tables(fam, a):
    """The tables that only verify_identities reads, at a where it takes
    a (H: a < 1), else none."""
    if fam == "rPD":
        return families._identity_integrands_rPD(a)
    if fam == "H" and np.all(np.asarray(a) < 1.0):
        return families._identity_integrands_H(a)
    return {}


def _tables(fam, a):
    return {**{"H": families._integrands_H, "rPD": families._integrands_rPD,
               "tP": families._integrands_tP, "tCLP": families._integrands_tCLP}[fam](a),
            **_identity_tables(fam, a)}


def _node_and_distance(x, d):
    return x, d


def _distance(x, d):
    return d


def _inline(f, form):
    """f with its inline form, form(x, d, *params), in place of its
    feature form."""
    return dataclasses.replace(f, evaluator=lambda nodes, *cols: form(*nodes, *cols),
                               features=_node_and_distance)


def _bits(result):
    """A result, each row's value and error estimate by its bytes."""
    rows = result.items() if isinstance(result, dict) else [(None, result)]
    return {name: tuple(np.asarray(x, dtype=float).tobytes() for x in pair) for name, pair in rows}


def _same(x, y):
    if x is None or y is None:
        return x is None and y is None
    return x.shape == y.shape and x.tobytes() == y.tobytes()


# one point of each family, and a 3-point stack with both ends of its range
_POINTS = [
    ("H", 0.3), ("H", 0.01), ("H", 1.7), ("H", [0.01, 0.3, 0.99]),
    ("rPD", 0.4), ("rPD", 1.0), ("rPD", [0.01, 0.6, 1.0]),
    ("tP", 10.0), ("tP", 2.1), ("tP", [2.1, 3.0, 40.0]),
    ("tCLP", 0.5), ("tCLP", 1.999999), ("tCLP", [0.0, 1.0, -1.99]),
]


@pytest.mark.parametrize("fam, a", _POINTS)
def test_feature_forms_equal_the_inline_forms_bit_for_bit(fam, a):
    a = np.array(a) if isinstance(a, list) else a
    tables = _tables(fam, a)
    # every table has its inline forms; H at a > 1 has no identity tables
    unverified = {"bare", "mid", "upper_cap"} if (fam, np.all(a < 1.0)) == ("H", False) else set()
    assert set(tables) == set(_INLINE[fam]) - unverified
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        for key, f in tables.items():
            _, cols = quadrature._prepare(f)
            ref = _inline(f, _INLINE[fam][key])
            assert f.features is not None, key
            # the fused block with its midpoint, then three refine levels
            for level in (None, 6, 7, 8):
                got = quadrature._sides(f, level, cols)
                want = quadrature._sides(ref, level, cols)
                assert all(_same(x, y) for x, y in zip(got, want)), (key, level)
            # and the results, rows and stack points alike
            assert _bits(quadrature.integrate(f)) == _bits(quadrature.integrate(ref)), key


def _h_references(a):
    """H's rows as two tables, their forms inline: those near t = 0 on
    (0, 1), and the cap's on x in (0.5, 1), in the distances to 1."""
    a, a3, ia3, c = families._integrands_H(a)["periods"].params
    near0 = quadrature.Integrand(_near0, names=("A", "B1", "D", "E", "F1", "I"),
                                 params=(a, a3, ia3))
    cap = quadrature.Integrand(_cap, names=("B2", "C", "F2", "H"), params=(a, c),
                               features=_distance)
    return near0, cap


def _on_the_cap(f, a):
    """Each row of the table f integrated on x in (0.5, 1) by
    per_level_reference, as integrate's {name: (value, err)}: at the
    parameter a, or at each point of the stack a, as arrays."""
    got = {}
    for row, name in enumerate(f.names):
        if isinstance(a, np.ndarray):
            pairs = [per_level_reference(f, 0.5, 1.0, row, j) for j in range(len(a))]
            got[name] = tuple(np.array(x) for x in zip(*pairs))
        else:
            got[name] = per_level_reference(f, 0.5, 1.0, row)
    return got


@pytest.mark.parametrize("a", [1e-3, 0.05, 0.3, 0.99999, 1.7, [1e-3, 0.05, 0.3, 0.99999, 1.7]])
def test_h_table_equals_its_two_reference_tables_bit_for_bit(a):
    # the cap rows on (0, 1) at x = (1 + t) / 2 take the nodes of (0.5, 1)
    # and come out exactly halved, so each row's value, error estimate and
    # stopping level are those of the cap on (0.5, 1)
    a = np.array(a) if isinstance(a, list) else a
    near0, cap = _h_references(a)
    want = {**_bits(quadrature.integrate(near0)), **_bits(_on_the_cap(cap, a))}
    assert _bits(quadrature.integrate(families._integrands_H(a)["periods"])) == want


_UPPER_CAP_POINTS = [1e-6, 1e-3, 0.05, 0.3, 0.9999, 0.999999]


@pytest.mark.parametrize("a", _UPPER_CAP_POINTS + [_UPPER_CAP_POINTS])
def test_upper_cap_equals_its_form_on_the_cap_bit_for_bit(a):
    # the upper_cap table of H's second identity, read on (0, 1) at
    # x = (1 + t) / 2 on H's features and halved, against 1 / sqrt(c + rise)
    # on x in (0.5, 1), in the distances to 1
    a = np.array(a) if isinstance(a, list) else a
    f = families._identity_integrands_H(a)["upper_cap"]
    on_x = quadrature.Integrand(_upper_cap_x, names=("upper_cap",), params=f.params,
                                features=_distance)
    assert _bits(quadrature.integrate(f)) == _bits(_on_the_cap(on_x, a))


def _arrays(x):
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, tuple):
        for item in x:
            yield from _arrays(item)


@pytest.mark.parametrize("fam, a", [("H", 0.3), ("rPD", 0.4), ("tP", 10.0), ("tCLP", 0.5)])
def test_node_features_are_read_only(fam, a):
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        for f in _tables(fam, a).values():
            for level in (None, 6):
                taken = quadrature._arguments(level, f.features)
                arrays = list(_arrays(taken))
                assert arrays
                for arr in arrays:
                    assert not arr.flags.writeable
                    with pytest.raises(ValueError):
                        arr[0] = 0.0


def test_the_fold_keys_the_cache_by_the_tail_features():
    # the rPD identity table is built once, at import, on the feature
    # functions of the periods table, which fold the tail rows onto (0, 1),
    # and every call binds it
    tables = families._identity_integrands_rPD
    f, g = tables(0.4)["identities"], tables(0.7)["identities"]
    assert g.params[0] == 0.7
    assert f.evaluator is g.evaluator and f.features is g.features
    periods = families._PERIODS
    assert f.features is periods.features
    # whose last component folds the tail: its features at t = 1/x = 1 + d/x
    # beside x^2, at the nodes x and their distances d to 1
    s = 0.5 * quadrature._distances(None)
    x = np.concatenate([1.0 - s, s, [0.5]])
    d = np.concatenate([s, 1.0 - s, [0.5]])
    with np.errstate(over="ignore"):  # t^3 at the smallest x
        (t, *_), square = quadrature._arguments(None, f.features)[-1]
    assert t.tobytes() == (1.0 + d / x).tobytes()
    assert square.tobytes() == (x * x).tobytes()


def test_a_second_verify_adds_no_integrand_and_no_node_cache_miss(monkeypatch):
    # the identity tables are templates made at import, so once the node
    # sets are cached a verify at a new parameter builds nothing
    built = []
    check = quadrature.Integrand.__post_init__
    monkeypatch.setattr(quadrature.Integrand, "__post_init__",
                        lambda self: built.append(self) or check(self))
    for a_h, a_rpd in ((0.3, 0.4), (0.6, 0.7)):
        before = quadrature._arguments.cache_info().misses
        families.verify_identities(SurfaceParam("H", a_h))
        families.verify_identities(SurfaceParam("rPD", a_rpd))
    assert quadrature._arguments.cache_info().misses == before
    assert built == []


def test_a_second_analyze_pass_adds_no_node_cache_miss(monkeypatch):
    # every table is bound from a template made at import, so an analysis
    # builds no Integrand
    built = []
    check = quadrature.Integrand.__post_init__
    monkeypatch.setattr(quadrature.Integrand, "__post_init__",
                        lambda self: built.append(self) or check(self))
    points = [SurfaceParam(fam, a) for fam, a in (
        ("H", 0.3), ("rPD", 0.4), ("tP", 10.0), ("tCLP", 0.5), ("H", 0.05), ("tP", 3.0),
        ("rPD", 0.1))]
    stacks = [[SurfaceParam(fam, a) for a in grid] for fam, grid in (
        ("H", (0.04, 0.5, 0.9)), ("rPD", (0.12, 0.6, 1.0)), ("tP", (2.5, 3.5, 40.0)),
        ("tCLP", (-1.5, 0.2, 1.9)))]
    caches = (quadrature._arguments,)
    seen = []
    for _ in range(2):
        moduli._analyze_cached.cache_clear()
        for p in points:
            moduli.analyze(p)
        for stack in stacks:
            moduli.analyze_many(stack)
        assert moduli._analyze_cached.cache_info().misses == len(points) + 3 * len(stacks)
        seen.append([(c.cache_info().misses, c.cache_info().currsize) for c in caches])
    assert built == []
    assert seen[1] == seen[0]
