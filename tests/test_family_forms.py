"""The families' forms on cached node features against the same forms
written inline, and the node cache those features live in.

The reference forms below compute every subexpression in the nodes at
each call, in the operation order the feature forms keep, so the two
must agree bit for bit on every node set: the fused block with its
midpoint and the refine levels past it, at one point and on a stack.
A table whose one form takes the hi side's distances has two inline
forms, one in the nodes and one in those distances.
"""

import dataclasses

import numpy as np
import pytest

from msindex import families, moduli, quadrature
from msindex.families import SurfaceParam


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


def _cap_hi(s, a, c, scale=1.0):
    # scale multiplies 1 - x^2
    return _cap_rows(1.0 - s, c + _cap_rise(s), scale * (s * (2.0 - s)))


def _cap(x, a, c, scale=1.0):
    # 1 - x is exact on [0.5, 1]
    return _cap_hi(1.0 - x, a, c, scale)


def _h(t, a, a3, ia3, c):
    # the cap rows at x = (1 + t) / 2, each halved through 4 (1 - x^2)
    return _near0(t, a, a3, ia3) + _cap(0.5 + 0.5 * t, a, c, 4.0)


def _h_hi(s, a, a3, ia3, c):
    return _near0(1.0 - s, a, a3, ia3) + _cap_hi(0.5 * s, a, c, 4.0)


def _quartic(t4, a):
    quartic = t4 * t4 + a * t4 + 1.0
    return np.sqrt(quartic), quartic ** 1.5


def _tp(t, a):
    tt = t * t
    t4 = t ** 4
    root, cube = _quartic(t4, a)
    ridge = 16.0 * (tt - 0.5) ** 2 + (a - 2.0)
    flat = (2.0 + a) * tt * tt + (2.0 * a - 12.0) * tt + (2.0 + a)
    return ((1.0 - tt) / root, (1.0 + tt) / root, t / root,
            t4 * (1.0 - tt) / cube, t4 * (1.0 + tt) / cube, t ** 5 / cube,
            1.0 / np.sqrt(ridge), 1.0 / np.sqrt(flat),
            1.0 / ridge ** 1.5, (1.0 + tt) ** 2 / flat ** 1.5)


def _tclp(t, a, b):
    tt = t * t
    t4 = t ** 4
    t5 = t ** 5
    root_p, cube_p = _quartic(t4, b)
    root_m, cube_m = _quartic(t4, -b)
    even = t4 * (1.0 + tt)
    return ((1.0 + tt) / root_m, (1.0 + tt) / root_p, t / root_p, t / root_m,
            even / cube_m, even / cube_p, t5 / cube_p, t5 / cube_m)


def _bare(t, a, a3, d0):
    return (((1.0 - a) + a * (1.0 - t)) * (1.0 + a * t)
            / np.sqrt(t * (1.0 - t ** 3) * (d0 + a3 * ((1.0 - t) * (1.0 + t * (1.0 + t))))))


def _bare_hi(s, a, a3, d0):
    t = 1.0 - s
    return (((1.0 - a) + a * s) * (1.0 + a * t)
            / np.sqrt(t * s * (3.0 - s * (3.0 - s)) * (d0 + a3 * (s * (1.0 + t * (1.0 + t))))))


def _mid(v, a, d2, w):
    s = w * v
    t = a + s
    down = w * (1.0 - v)
    rest = d2 + down * (1.0 + t * (1.0 + t))
    return down * (1.0 + t) / np.sqrt(t * s * (t * t + a * t + a * a) * rest)


def _upper_cap_hi(s, a, c):
    return 1.0 / np.sqrt(c + _cap_rise(s))


def _upper_cap(x, a, c):
    return _upper_cap_hi(1.0 - x, a, c)


def _rpd_rows(c, numerators, base, t3, alt):
    root = None if all(alt) else np.sqrt(base * (c.a3 * t3 + c.ia3))
    alt_root = np.sqrt(base * (c.ia3 * t3 + c.a3)) if any(alt) else None
    return quadrature._as_rows(
        [n / (alt_root if swap else root) for n, swap in zip(numerators, alt)])


def _rpd_table(alt, unit_nums, tail_nums):
    """An rPD table's two halves inline: the unit rows at t, then the tail
    rows folded by t = 1/u, over u^2; near t = 1 the unit rows at
    t = 1 - s and the tail rows at t = 1 + s / (1 - s), over (1 - s)^2."""
    def f(x, *cols):
        c = families._RPDCurve(*cols)
        t3 = x ** 3
        u = 1.0 / x
        u3 = u ** 3
        nums = tail_nums(c, u, u3, u - 1.0)
        tail_rows = _rpd_rows(c, nums, u * (u3 - 1.0), u3, (False,) * len(nums))
        return np.concatenate([_rpd_rows(c, unit_nums(c, x, t3, 1.0 - x), x * (1.0 - t3), t3, alt),
                               tail_rows / (x * x)])

    def f_hi(s, *cols):
        c = families._RPDCurve(*cols)
        t = 1.0 - s
        t3 = t ** 3
        sigma = s / t
        u = 1.0 + sigma
        u3 = u ** 3
        nums = tail_nums(c, u, u3, sigma)
        tail_rows = _rpd_rows(c, nums, u * sigma * (sigma * (sigma + 3.0) + 3.0), u3,
                              (False,) * len(nums))
        unit_rows = _rpd_rows(c, unit_nums(c, t, t3, s), t * s * (3.0 - s * (3.0 - s)), t3, alt)
        return np.concatenate([unit_rows, tail_rows / (t * t)])

    return f, f_hi


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
    "H": {"periods": (_h, _h_hi), "bare": (_bare, _bare_hi), "mid": (_mid,),
          "upper_cap": (_upper_cap, _upper_cap_hi)},
    "rPD": {
        "periods": _rpd_table((False, False, False, False, True, False), _unit_nums,
                              lambda c, t, t3, d: (1.0 + (c.a * t) ** 2, t)),
        "identities": _rpd_table((False, False, False, True, True), _identity_nums, _tail_minus),
    },
    "tP": {"periods": (_tp,)},
    "tCLP": {"periods": (_tclp,)},
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


def _nodes_marked(x):
    return x, np.zeros(x.shape, dtype=bool)


def _distances_marked(s):
    return s, np.ones(s.shape, dtype=bool)


def _one_form(at_x, at_s):
    """The inline form at_x at the nodes joined with at_s at the hi
    side's distances, each element taken from the form its mark names."""
    def form(nodes, *cols):
        arg, hi = nodes
        return np.where(hi, quadrature._as_rows(at_s(arg, *cols)),
                        quadrature._as_rows(at_x(arg, *cols)))
    return form


def _inline(f, forms):
    """f with its inline forms in place of its feature forms: the form in
    the nodes alone, or for a table with features_hi both forms, called
    as one on the nodes and the distances, each marked."""
    if f.features_hi is None:
        return dataclasses.replace(f, evaluator=forms[0], features=None)
    return dataclasses.replace(f, evaluator=_one_form(*forms), features=_nodes_marked,
                               features_hi=_distances_marked)


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
    (0, 1), and the cap's on x in (0.5, 1), one form in the nodes and one
    in the distances to 1."""
    a, a3, ia3, c = families._integrands_H(a)["periods"].params
    near0 = quadrature.Integrand(_near0, 0.0, 1.0, singular_lo=True,
                                 names=("A", "B1", "D", "E", "F1", "I"), params=(a, a3, ia3))
    cap = quadrature.Integrand(_one_form(_cap, _cap_hi), 0.5, 1.0, singular_hi=True,
                               names=("B2", "C", "F2", "H"), params=(a, c),
                               features=_nodes_marked, features_hi=_distances_marked)
    return near0, cap


@pytest.mark.parametrize("a", [1e-3, 0.05, 0.3, 0.99999, 1.7, [1e-3, 0.05, 0.3, 0.99999, 1.7]])
def test_h_table_equals_its_two_reference_tables_bit_for_bit(a):
    # the cap rows on (0, 1) at x = (1 + t) / 2 take the nodes of (0.5, 1)
    # and come out exactly halved, so each row's value, error estimate and
    # stopping level are those of the cap on (0.5, 1)
    a = np.array(a) if isinstance(a, list) else a
    near0, cap = _h_references(a)
    want = {**_bits(quadrature.integrate(near0)), **_bits(quadrature.integrate(cap))}
    assert _bits(quadrature.integrate(families._integrands_H(a)["periods"])) == want


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
                taken = quadrature._arguments(f.lo, f.hi, level, f.features, f.features_hi)
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
    assert (f.lo, f.hi, g.params[0]) == (0.0, 1.0, 0.7)
    assert f.evaluator is g.evaluator and f.features is g.features
    periods = families._PERIODS
    assert f.features is periods.features and f.features_hi is periods.features_hi
    # whose last component folds the tail: its features at t = 1/x beside
    # x^2 at the nodes x, and at t = 1 + s / (1 - s) beside (1 - s)^2 at
    # the hi side's distances s, first
    s = 0.5 * quadrature._distances(None)
    x = np.concatenate([s, [0.5]])
    with np.errstate(over="ignore"):  # t^3 at the smallest x
        (t, *_), square = quadrature._arguments(0.0, 1.0, None, f.features, f.features_hi)[-1]
    assert t.tobytes() == np.concatenate([1.0 + s / (1.0 - s), 1.0 / x]).tobytes()
    assert square.tobytes() == np.concatenate([(1.0 - s) ** 2, x * x]).tobytes()


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


def test_a_feature_function_needs_its_form():
    # features_hi feeds the evaluator beside features, never alone
    with pytest.raises(ValueError, match="features_hi needs features"):
        quadrature.Integrand(np.sqrt, 0.0, 1.0, features_hi=np.sqrt)
