"""The families' forms on cached node features against the same forms
written inline, and the node cache those features live in.

The reference forms below compute every subexpression in the nodes at
each call, in the operation order the feature forms keep, so the two
must agree bit for bit on every node set: the fused block with its
midpoint and the refine levels past it, at one point and on a stack.
"""

import dataclasses
import math

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


def _cap(x, a, a3, ia3, c):
    return _cap_rows(x, a3 + ia3 + 6.0 * x - 8.0 * x ** 3, 1.0 - x * x)


def _cap_hi(s, a, a3, ia3, c):
    return _cap_rows(1.0 - s, c + s * (18.0 - s * (24.0 - 8.0 * s)), s * (2.0 - s))


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


def _rpd_unit(alt, nums, nums_hi=None):
    if nums_hi is None:
        def nums_hi(c, s, t, t3):
            return nums(c, t, t3)

    def rows(c, numerators, base, t3):
        root = None if all(alt) else np.sqrt(base * (c.a3 * t3 + c.ia3))
        alt_root = np.sqrt(base * (c.ia3 * t3 + c.a3)) if any(alt) else None
        return tuple(n / (alt_root if swap else root) for n, swap in zip(numerators, alt))

    def f(t, *cols):
        c = families._RPDCurve(*cols)
        t3 = t ** 3
        return rows(c, nums(c, t, t3), t * (1.0 - t3), t3)

    def f_hi(s, *cols):
        c = families._RPDCurve(*cols)
        t = 1.0 - s
        t3 = t ** 3
        return rows(c, nums_hi(c, s, t, t3), t * s * (3.0 - s * (3.0 - s)), t3)

    return {"evaluator": f, "from_hi": f_hi}


def _rpd_tail(nums, nums_lo=None):
    if nums_lo is None:
        def nums_lo(c, s, t, t3):
            return nums(c, t, t3)

    def f(t, *cols):
        c = families._RPDCurve(*cols)
        t3 = t ** 3
        root = np.sqrt(t * (t3 - 1.0) * (c.a3 * t3 + c.ia3))
        return tuple(n / root for n in nums(c, t, t3))

    def f_lo(s, *cols):
        c = families._RPDCurve(*cols)
        t = 1.0 + s
        t3 = t ** 3
        root = np.sqrt(t * s * (s * (s + 3.0) + 3.0) * (c.a3 * t3 + c.ia3))
        return tuple(n / root for n in nums_lo(c, s, t, t3))

    # the table comes folded onto (0, 1); these forms are on the tail's own interval
    return {"evaluator": f, "from_lo": f_lo, "lo": 1.0, "hi": math.inf, "singular_hi": False,
            "from_hi": None}


def _unit_nums(c, t, t3):
    at2 = (c.a * t) ** 2
    cubic = c.cubic(t3)
    return (1.0 + at2, t, cubic * (5.0 * at2 + 1.0), cubic * (5.0 * at2 - 1.0),
            t * c.alt_cubic(t3), t * cubic)


def _minus(c, t, t3):
    return ((1.0 - c.a * t) * (1.0 + c.a * t),)


def _powers(c, t, t3):
    tt = t * t
    cubic, alt_cubic = c.cubic(t3), c.alt_cubic(t3)
    return tt * cubic, cubic, alt_cubic, tt * alt_cubic


def _folded_forms(evaluator, from_lo):
    """A tail's evaluator and from_lo folded onto (0, 1) inline: the
    evaluator at t = 1/u over u^2, and from_lo, the folded from_hi, at
    s = sigma / (1 - sigma) over (1 - sigma)^2 (None without from_lo)."""
    def folded(u, *cols):
        t = 1.0 / u
        return quadrature._as_rows(evaluator(t, *cols)) / (u * u)

    folded_from_hi = None
    if from_lo is not None:
        def folded_from_hi(sigma, *cols):
            r = 1.0 - sigma
            return quadrature._as_rows(from_lo(sigma / r, *cols)) / (r * r)

    return folded, folded_from_hi


def _rpd_periods():
    """The unit forms and the inline-folded tail forms, their rows concatenated."""
    unit = _rpd_unit((False, False, False, False, True, False), _unit_nums)
    tail = _rpd_tail(lambda c, t, t3: (1.0 + (c.a * t) ** 2, t))
    tail_at, tail_near_one = _folded_forms(tail["evaluator"], tail["from_lo"])

    def joined(unit_form, tail_form):
        def f(x, *cols):
            return np.concatenate([quadrature._as_rows(unit_form(x, *cols)),
                                   tail_form(x, *cols)])
        return f

    return {"evaluator": joined(unit["evaluator"], tail_at),
            "from_hi": joined(unit["from_hi"], tail_near_one)}


# the inline forms of each table, by family and table key
_INLINE = {
    "H": {"near0": {"evaluator": _near0}, "cap": {"evaluator": _cap, "from_hi": _cap_hi}},
    "rPD": {
        "periods": _rpd_periods(),
        "unit_minus": _rpd_unit(
            (False, False, False, True, True),
            lambda c, t, t3: _minus(c, t, t3) + _powers(c, t, t3),
            nums_hi=lambda c, s, t, t3: (((1.0 - c.a) + c.a * s) * (1.0 + c.a * (1.0 - s)),)
            + _powers(c, t, t3)),
        "tail_minus": _rpd_tail(
            _minus,
            nums_lo=lambda c, s, t, t3: (((1.0 - c.a) - c.a * s) * (1.0 + c.a * (1.0 + s)),)),
    },
    "tP": {"periods": {"evaluator": _tp}},
    "tCLP": {"periods": {"evaluator": _tclp}},
}


def _fold(f):
    """The tail fold written inline."""
    folded, folded_from_hi = _folded_forms(f.evaluator, f.from_lo)
    return quadrature.Integrand(evaluator=folded, lo=0.0, hi=1.0, singular_lo=True,
                                singular_hi=f.singular_lo, from_hi=folded_from_hi,
                                names=f.names, params=f.params)


# ---------------------------------------------------------------------------


def _tables(fam, a):
    if fam == "rPD":
        return {**families._integrands_rPD(a), **families._identity_integrands_rPD(a)}
    return {"H": families._integrands_H, "tP": families._integrands_tP,
            "tCLP": families._integrands_tCLP}[fam](a)


def _inline(f, forms):
    """f with its inline forms in place of its feature forms, folded
    inline if they are a tail's."""
    plain = dataclasses.replace(f, features=None, features_lo=None, features_hi=None, **forms)
    return _fold(plain) if math.isinf(plain.hi) else plain


def _bits(result):
    """A table's result, each value and error estimate by its bytes."""
    return {name: tuple(np.asarray(x, dtype=float).tobytes() for x in pair)
            for name, pair in result.items()}


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
    assert set(tables) == set(_INLINE[fam])
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        for key, f in tables.items():
            g, stack, cols = quadrature._prepare(f)
            ref = _inline(f, _INLINE[fam][key])
            assert g.features is not None, key
            # the fused block with its midpoint, then three refine levels
            for level in (None, 6, 7, 8):
                got = quadrature._sides(g, level, cols)
                want = quadrature._sides(ref, level, cols)
                assert all(_same(x, y) for x, y in zip(got, want)), (key, level)
            # and the results, rows and stack points alike
            assert _bits(quadrature.integrate(f)) == _bits(quadrature.integrate(ref)), key


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
            g = quadrature._prepare(f)[0]
            for level in (None, 6):
                taken = quadrature._arguments(
                    g.lo, g.hi, level, g.from_hi is not None, g.from_lo is not None,
                    (g.features, g.features_hi, g.features_lo), g.from_hi is g.evaluator)
                arrays = list(_arrays(taken))
                # s and the plain nodes, and at least one feature per form
                assert len(arrays) > 3
                for arr in arrays:
                    assert not arr.flags.writeable
                    with pytest.raises(ValueError):
                        arr[0] = 0.0


def test_the_fold_keys_the_cache_by_the_tail_features():
    # the rPD tail is folded once, at import, and every call binds that fold
    tails = families._identity_integrands_rPD
    f, g = tails(0.4)["tail_minus"], tails(0.7)["tail_minus"]
    assert (f.lo, f.hi, g.params[0]) == (0.0, 1.0, 0.7)
    assert f.evaluator is g.evaluator and f.features is g.features
    # two folds of one tail, built apart, take the same cached features
    inline = _INLINE["rPD"]["tail_minus"]
    tail = quadrature.Integrand(inline["evaluator"], 1.0, math.inf, singular_lo=True,
                                from_lo=inline["from_lo"], features=families._rpd_tail_features,
                                features_lo=families._rpd_tail_lo_features)
    g, h = quadrature.fold(tail), quadrature.fold(tail)
    assert g.features is h.features is f.features and g.features_hi is h.features_hi
    assert g.evaluator is not h.evaluator


def test_a_second_analyze_pass_adds_no_node_cache_miss(monkeypatch):
    # every table is bound from a template made at import, the rPD tails
    # folded there, so an analysis builds no Integrand and folds no tail
    built, folded = [], []
    check, fold = quadrature.Integrand.__post_init__, quadrature.fold
    monkeypatch.setattr(quadrature.Integrand, "__post_init__",
                        lambda self: built.append(self) or check(self))
    monkeypatch.setattr(quadrature, "fold", lambda f: folded.append(f) or fold(f))
    points = [SurfaceParam(fam, a) for fam, a in (
        ("H", 0.3), ("rPD", 0.4), ("tP", 10.0), ("tCLP", 0.5), ("H", 0.05), ("tP", 3.0),
        ("rPD", 0.1))]
    stacks = [[SurfaceParam(fam, a) for a in grid] for fam, grid in (
        ("H", (0.04, 0.5, 0.9)), ("rPD", (0.12, 0.6, 1.0)), ("tP", (2.5, 3.5, 40.0)),
        ("tCLP", (-1.5, 0.2, 1.9)))]
    caches = (quadrature._arguments, quadrature._folded)
    seen = []
    for _ in range(2):
        moduli._analyze_cached.cache_clear()
        for p in points:
            moduli.analyze(p)
        for stack in stacks:
            moduli.analyze_many(stack)
        assert moduli._analyze_cached.cache_info().misses == len(points) + 3 * len(stacks)
        seen.append([(c.cache_info().misses, c.cache_info().currsize) for c in caches])
    assert built == [] and folded == []
    assert seen[1] == seen[0]


def test_a_feature_function_needs_its_form():
    with pytest.raises(ValueError, match="features_hi"):
        quadrature.Integrand(np.sqrt, 0.0, 1.0, features_hi=np.sqrt)
    with pytest.raises(ValueError, match="features_lo"):
        quadrature.Integrand(np.sqrt, 0.0, 1.0, features_lo=np.sqrt)
