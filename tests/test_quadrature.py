"""Unit tests for the double-exponential quadrature core."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msindex import families, quadrature
from msindex.errors import DomainError, NonConvergence
from msindex.quadrature import Integrand, QuadConfig, _fused_nodes, _nodes, integrate


def test_cubic_polynomial_exact():
    f = Integrand(lambda x: 4.0 * x ** 3 - 2.0 * x + 1.0, 0.0, 2.0)
    value, err = integrate(f)
    assert abs(value - 14.0) < 1e-12
    assert err < 1e-10


def test_gaussian_bump():
    f = Integrand(lambda x: np.exp(-x * x), -4.0, 4.0)
    value, _ = integrate(f)
    assert abs(value - math.sqrt(math.pi) * math.erf(4.0)) < 1e-12


def test_inverse_sqrt_endpoint():
    # at lo = 0 the plain nodes lo + s are the exact distances
    f = Integrand(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, singular_lo=True)
    value, _ = integrate(f)
    assert abs(value - 2.0) < 1e-12


def _arcsine(nodes):
    x, rest = nodes
    return 1.0 / np.sqrt(x * rest)


def test_double_endpoint_singularity():
    # arcsine weight, integral is pi; the form takes (x, 1 - x), on the hi
    # side from the exact distances s = 1 - x
    f = Integrand(
        _arcsine, 0.0, 1.0, singular_lo=True, singular_hi=True,
        features=lambda x: (x, 1.0 - x), features_hi=lambda s: (1.0 - s, s),
    )
    value, _ = integrate(f)
    assert abs(value - math.pi) < 1e-12


def test_log_endpoint():
    f = Integrand(lambda x: -np.log(x), 0.0, 1.0, singular_lo=True)
    value, _ = integrate(f)
    assert abs(value - 1.0) < 1e-12


def test_offset_form_beats_cancellation():
    # near x = 1 the naive 1 - x*x cancels; 1 - x^2 formed from the
    # distance s = 1 - x does not
    f = Integrand(
        lambda span: 1.0 / np.sqrt(span), 0.0, 1.0, singular_hi=True,
        features=lambda x: 1.0 - x * x, features_hi=lambda s: s * (2.0 - s),
    )
    value, _ = integrate(f)
    assert abs(value - math.pi / 2.0) < 1e-13


def test_scalar_only_integrand_raises_type_error():
    # math.* rejects arrays; integrands must be vectorized
    f = Integrand(lambda x: math.exp(-x) * math.cos(x), 0.0, 2.0)
    with pytest.raises(TypeError):
        integrate(f)


def test_constant_scalar_integrand_raises_type_error():
    # a bare float does not have the shape of the node array
    with pytest.raises(TypeError):
        integrate(Integrand(lambda x: 3.0, -1.0, 2.0))


def test_singular_endpoint_away_from_zero_needs_its_offset_form():
    with pytest.raises(ValueError, match="needs features_hi"):
        Integrand(lambda x: 1.0 / np.sqrt(1.0 - x), 0.5, 1.0, singular_hi=True)
    # a singular lo must be 0, with feature functions or without
    with pytest.raises(ValueError, match="lo must be 0"):
        Integrand(lambda x: 1.0 / np.sqrt(x + 1.0), -1.0, 0.0, singular_lo=True)
    with pytest.raises(ValueError, match="lo must be 0"):
        Integrand(np.sqrt, 0.5, 1.0, singular_lo=True, features=np.negative,
                  features_hi=np.negative)


def test_singular_endpoint_at_zero_or_with_offset_form_is_accepted():
    Integrand(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, singular_lo=True)
    Integrand(lambda x: 1.0 / np.sqrt(-x), -1.0, 0.0, singular_hi=True)
    Integrand(
        lambda d: 1.0 / np.sqrt(d), 0.5, 1.0, singular_hi=True,
        features=lambda x: 1.0 - x, features_hi=lambda s: s,
    )


def test_tail_with_finite_end_singularity():
    # int_1^inf dt / (t^2 sqrt(t-1)) = pi/2; t = 1/u folds it onto (0, 1)
    # as sqrt(u / (1 - u)), the fold done in the features as the rPD
    # tables do theirs, with 1 - u from the exact distance on the hi side
    f = Integrand(
        lambda nodes: np.sqrt(nodes[0] / nodes[1]), 0.0, 1.0, singular_hi=True,
        features=lambda u: (u, 1.0 - u), features_hi=lambda s: (1.0 - s, s),
    )
    value, _ = integrate(f)
    assert abs(value - math.pi / 2.0) < 1e-12


def test_error_estimate_bounds_true_error():
    f = Integrand(lambda x: np.cos(3.0 * x), 0.0, 1.0)
    value, err = integrate(f)
    exact = math.sin(3.0) / 3.0
    assert abs(value - exact) <= max(10.0 * err, 1e-14)


def test_level_budget_does_not_change_converged_result(monkeypatch):
    f = Integrand(lambda x: np.exp(x) * np.cos(2.0 * x), 0.0, 1.5)
    v12, _ = integrate(f)
    monkeypatch.setattr(quadrature, "_MAX_LEVEL", 8)
    v8, _ = integrate(f)
    assert v8 == v12


def test_interval_validation():
    with pytest.raises(DomainError):
        integrate(Integrand(lambda x: x, 1.0, 1.0))
    # every infinite interval is refused: a tail is folded onto (0, 1) by
    # its own features
    for lo, hi in ((1.0, math.inf), (0.0, math.inf), (2.0, math.inf), (-math.inf, 0.0),
                   (-math.inf, math.inf)):
        with pytest.raises(DomainError):
            integrate(Integrand(lambda x: 1.0 / (1.0 + x * x), lo, hi))


def test_nonfinite_integrand_rejected():
    bad = Integrand(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0)
    with pytest.raises(DomainError):
        integrate(bad)


def _rough(x):
    # interior kink: not converged at level 3 under the default tolerance
    return np.abs(x - 1.0 / 3.0) ** 0.1


def test_nonfinite_value_first_at_level_two_rejected():
    _, d_near = _nodes(2)
    bad_x = 1.0 - 0.5 * d_near[0]
    f = Integrand(lambda x: np.where(x == bad_x, np.inf, _rough(x)), 0.0, 1.0)
    with pytest.raises(DomainError):
        integrate(f)


def test_nonfinite_value_only_at_level_four_rejected(monkeypatch):
    _, d_near = _nodes(4)
    bad_x = 0.0 + 0.5 * d_near[0]
    f = Integrand(lambda x: np.where(x == bad_x, np.nan, _rough(x)), 0.0, 1.0)
    with pytest.raises(DomainError):
        integrate(f)
    # level 4 is reached: without the bad node it is evaluated and still unconverged
    monkeypatch.setattr(quadrature, "_MAX_LEVEL", 4)
    with pytest.raises(NonConvergence):
        integrate(Integrand(_rough, 0.0, 1.0))


def test_budget_exhaustion_raises(monkeypatch):
    # interior kink, far too slow for four levels at 1e-15
    rough = Integrand(lambda x: np.abs(x - 1.0 / 3.0) ** 0.1, 0.0, 1.0)
    monkeypatch.setattr(quadrature, "_MAX_LEVEL", 4)
    with pytest.raises(NonConvergence, match="by level 4"):
        integrate(rough, QuadConfig(target_rel_tol=1e-15))


def test_config_validation():
    for tol in (0.0, -1e-12, math.nan, math.inf):
        with pytest.raises(ValueError):
            QuadConfig(target_rel_tol=tol)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    c0=st.floats(-5, 5), c1=st.floats(-5, 5), c2=st.floats(-5, 5),
    alpha=st.floats(-3, 3), beta=st.floats(-3, 3),
)
def test_linearity(c0, c1, c2, alpha, beta):
    f = Integrand(lambda x: c0 + c1 * x + c2 * x * x, 0.0, 1.0)
    g = Integrand(lambda x: np.sin(x) - c1 * x, 0.0, 1.0)
    combo = Integrand(
        lambda x: alpha * f.evaluator(x) + beta * g.evaluator(x), 0.0, 1.0,
    )
    vf, _ = integrate(f)
    vg, _ = integrate(g)
    vc, _ = integrate(combo)
    scale = 1.0 + abs(alpha) * abs(vf) + abs(beta) * abs(vg)
    assert abs(vc - (alpha * vf + beta * vg)) <= 1e-10 * scale


def _per_level_reference(f, row=0, point=None):
    """One row of f, level by level: its own evaluator call per side, on the
    features of that side's nodes where it has them (features_hi of the
    exact distances on the hi side of a one-form table), one np.dot per side
    per level.

    For a stack, the row at one point, the forms called with that point's params alone.
    """
    half = 0.5 * (f.hi - f.lo)
    params = list(f.params) if point is None else [float(c[point]) for c in f.params]

    def call(fn, features, arg):
        out = np.asarray(fn(arg if features is None else features(arg), *params), dtype=float)
        return out[row] if f.names else out

    def side(d_near, upper):
        s = half * d_near
        if upper and f.features_hi is not None:
            return call(f.evaluator, f.features_hi, s)
        return call(f.evaluator, f.features, f.hi - s if upper else f.lo + s)

    def level_sum(level):
        w, d_near = _nodes(level)
        return float(np.dot(w, side(d_near, True))) + float(np.dot(w, side(d_near, False)))

    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        centre = call(f.evaluator, f.features, np.array([f.lo + half]))
        trapezoid = level_sum(0) + 0.5 * math.pi * float(centre[0])
        value = half * trapezoid
        for level in range(1, quadrature._MAX_LEVEL + 1):
            trapezoid = 0.5 * trapezoid + 0.5 ** level * level_sum(level)
            new_value = half * trapezoid
            err = abs(new_value - value)
            value = new_value
            if level >= 3 and err <= max(QuadConfig().target_rel_tol * abs(value), quadrature._ABS_FLOOR):
                return value, err
    raise AssertionError("reference did not converge")


@pytest.mark.parametrize("table, a", [
    (families._integrands_H, 0.3),
    (families._integrands_H, 0.01),
    (families._integrands_H, 0.99),
    (families._integrands_rPD, 0.6),
    (families._integrands_rPD, 0.01),
    (families._integrands_rPD, 0.99),
    (families._integrands_tP, 10.0),
    (families._integrands_tP, 2.1),
    (families._integrands_tP, 40.0),
    (families._integrands_tCLP, 1.0),
    (families._integrands_tCLP, 1.99),
    (families._integrands_tCLP, -1.99),
    (families._identity_integrands_H, 0.3),
    (families._identity_integrands_H, 0.01),
    (families._identity_integrands_H, 0.99),
    (families._identity_integrands_rPD, 0.6),
    (families._identity_integrands_rPD, 0.01),
    (families._identity_integrands_rPD, 0.99),
])
def test_sums_equal_the_per_level_reference_exactly(table, a):
    seen = 0
    for key, f in table(a).items():
        got = integrate(f)
        for row, name in enumerate(f.names or (key,)):
            want = _per_level_reference(f, row)
            have = got[name] if f.names else got
            assert have[0] == want[0], name
            assert have[1] == want[1], name
            seen += 1
    assert seen >= 3


# stacks of the families' own tables: tP points that need levels 6-7 near
# a = 2.1 among points that stop by level 5, and H, rPD and tCLP grids
# with both ends of their ranges
_STACKS = [
    (families._integrands_tP, [2.1, 2.101, 2.5, 10.0, 40.0, 2.1004]),
    (families._integrands_H, [0.01, 0.3, 0.5, 0.99]),
    (families._integrands_rPD, [0.01, 0.6, 1.0]),
    (families._integrands_tCLP, [0.0, 1.0, 1.99, 1.999999]),
]


@pytest.mark.parametrize("table, points", _STACKS)
def test_stacked_rows_equal_the_one_point_references_exactly(table, points):
    stack = np.array(points)
    for key, f in table(stack).items():
        got = integrate(f)
        for row, name in enumerate(f.names or (key,)):
            values, errs = got[name] if f.names else got
            assert values.shape == errs.shape == (len(points),)
            for j, a in enumerate(points):
                alone = integrate(table(a)[key])
                alone = alone[name] if f.names else alone
                assert (values[j], errs[j]) == alone, (name, a)
                assert alone == _per_level_reference(f, row, j), (name, a)


def test_stacked_table_evaluates_only_the_points_still_active():
    # a bump at x = 1/2: the wide ones stop by level 5, the narrow ones
    # need later levels, where only their columns come back
    seen = []

    def bump(x, width):
        seen.append(np.shape(width))
        return 1.0 / (1.0 + (x - 0.5) ** 2 / width)

    widths = np.array([1.0, 2e-3, 1.0, 1.0, 2e-3])
    values, errs = integrate(Integrand(bump, 0.0, 1.0, params=(widths,)))
    assert seen[0] == (5, 1) and len(seen) > 1
    assert all(shape == (2, 1) for shape in seen[1:])
    for j, width in enumerate(widths):
        assert (values[j], errs[j]) == integrate(Integrand(bump, 0.0, 1.0, params=(width,)))


def test_non_convergence_in_a_stack_names_the_row_and_the_parameter(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_LEVEL", 6)
    f = Integrand(lambda x, c: (np.sqrt(x) + 0.0 * c, _rough(x) * (1.0 + 0.0 * c)), 0.0, 1.0,
                  names=("sqrt", "rough"), params=(np.array([0.25, 0.75]),))
    with pytest.raises(NonConvergence, match=r"row 'rough' at parameter 0\.25"):
        integrate(f)


# rows that stop at levels 3, 5 and 6 under the default tolerance
_STOPS = {
    "sqrt": (3, np.sqrt),
    "cos": (5, lambda x: np.cos(20.0 * x)),
    "bump": (6, lambda x: 1.0 / (1.0 + 20.0 * (x - 0.5) ** 2)),
}


def _counted(fn, calls):
    def g(x):
        calls.append(len(x))
        return fn(x)
    return g


def _table(rows, **kw):
    names = tuple(rows)
    return Integrand(lambda x: tuple(rows[n](x) for n in names), 0.0, 1.0, names=names, **kw)


def test_table_rows_equal_their_one_row_integrations():
    rows = {name: fn for name, (_, fn) in _STOPS.items()}
    for name, (level, fn) in _STOPS.items():
        calls = []
        single = integrate(Integrand(_counted(fn, calls), 0.0, 1.0))
        # one call for levels 0-5 and the midpoint, one per later level
        assert len(calls) == 1 + max(0, level - 5), name
        assert calls[0] == 2 * len(_fused_nodes()[0]) + 1
        assert calls[1:] == [2 * len(_nodes(k)[1]) for k in range(6, level + 1)]
        got = integrate(_table(rows))[name]
        assert got[0] == single[0] and got[1] == single[1], name
    calls = []
    integrate(_table({name: _counted(fn, calls) for name, fn in rows.items()}))
    # the table is called for the block and for level 6; the rows in each call
    assert len(calls) == 3 * 2


def _upper_features(x):
    return x, 1.0 - x


def _counted_on_features(fn, calls):
    # _counted for a form that takes (x, 1 - x)
    def g(nodes):
        calls.append(len(nodes[0]))
        return fn(nodes)
    return g


def _upper_hi_features(s):
    return 1.0 - s, s


def test_table_with_offset_forms_calls_each_form_once_per_level():
    # one form on both halves of (0.5, 1), the hi side's from the exact
    # distances: a blowup at 1 and a wave that stops inside the block
    calls = []
    f = Integrand(
        _counted_on_features(lambda nodes: (1.0 / np.sqrt(nodes[1]), np.cos(20.0 * nodes[0])),
                             calls),
        0.5, 1.0, singular_hi=True, names=("blowup", "wave"),
        features=_upper_features, features_hi=_upper_hi_features,
    )
    got = integrate(f)
    assert abs(got["blowup"][0] - 2.0 * math.sqrt(0.5)) < 1e-12
    assert abs(got["wave"][0] - (math.sin(20.0) - math.sin(10.0)) / 20.0) < 1e-13
    # both sides and the midpoint of levels 0-5 in one call, and both
    # rows stop inside the block
    n = len(_fused_nodes()[0])
    assert calls == [2 * n + 1]

    # a narrow bump stops at level 7: one more call per level
    calls.clear()
    bump = lambda x: 1.0 / (1.0 + 400.0 * (x - 0.75) ** 2)  # noqa: E731
    f = Integrand(
        _counted_on_features(lambda nodes: (1.0 / np.sqrt(nodes[1]), bump(nodes[0])), calls),
        0.5, 1.0, singular_hi=True, names=("blowup", "bump"),
        features=_upper_features, features_hi=_upper_hi_features,
    )
    got = integrate(f)
    assert abs(got["bump"][0] - math.atan(5.0) / 10.0) < 1e-13
    assert calls == [2 * n + 1] + [2 * len(_nodes(k)[1]) for k in (6, 7)]
    for row, name in enumerate(f.names):
        assert got[name] == _per_level_reference(f, row), name


# one form on both halves of (0, 1): it takes x and (1 - x, its root), the
# hi half's from the exact distances; a blowup at 1, a wave that stops at
# level 5 and a bump that stops at level 7
def _joined_features(x):
    d = 1.0 - x
    return x, (d, np.sqrt(d))


def _joined_hi_features(s):
    return 1.0 - s, (s, np.sqrt(s))


def _joined_form(nodes, c):
    x, (_, root) = nodes
    return c / root, c * np.cos(20.0 * x), c / (1.0 + 400.0 * (x - 0.75) ** 2)


def _joined_table(c, form=_joined_form):
    return Integrand(form, 0.0, 1.0, singular_hi=True, names=("blowup", "wave", "bump"),
                     params=(c,),
                     features=_joined_features, features_hi=_joined_hi_features)


@pytest.mark.parametrize("c", [1.5, np.array([0.5, 1.0, 2.0])])
def test_an_evaluator_that_is_its_own_from_hi_is_called_once_per_level(c):
    calls = []

    def form(nodes, c):
        calls.append(len(nodes[0]))
        return _joined_form(nodes, c)

    got = integrate(_joined_table(c, form))
    assert abs(got["blowup"][0] - 2.0 * np.asarray(c)).max() < 1e-12
    # both halves and the midpoint of the block in one call, then both
    # halves of each level until the bump stops at level 7
    n = len(_fused_nodes()[0])
    assert calls == [2 * n + 1] + [2 * len(_nodes(k)[1]) for k in (6, 7)]


@pytest.mark.parametrize("level", [None, 6])
def test_joined_features_are_read_only_and_the_hi_half_first(level):
    taken = quadrature._arguments(0.0, 1.0, level, _joined_features, _joined_hi_features)
    s = 0.5 * quadrature._distances(level)
    plain = np.concatenate([s] + ([np.array([0.5])] if level is None else []))
    x, (d, root) = taken
    hi_x, (hi_d, hi_root) = _joined_hi_features(s)
    lo_x, (lo_d, lo_root) = _joined_features(plain)
    for got, hi, lo in ((x, hi_x, lo_x), (d, hi_d, lo_d), (root, hi_root, lo_root)):
        assert not got.flags.writeable
        assert got.tobytes() == np.concatenate([hi, lo]).tobytes()
        with pytest.raises(ValueError):
            got[0] = 0.0


def test_an_evaluator_that_is_its_own_from_hi_needs_both_feature_functions():
    # the one form of a singular hi other than 0 takes features_hi of the
    # hi side's distances, and features of the other nodes
    with pytest.raises(ValueError, match="needs features_hi"):
        Integrand(_joined_form, 0.0, 1.0, singular_hi=True, features=_joined_features)
    with pytest.raises(ValueError, match="features_hi needs features"):
        Integrand(_joined_form, 0.0, 1.0, singular_hi=True, features_hi=_joined_hi_features)


def _bad_at(level, fn, upper=False):
    # non-finite at the first node of that level in one half, fine elsewhere
    _, d_near = _nodes(level)
    bad_x = float(1.0 - 0.5 * d_near[0] if upper else 0.5 * d_near[0])
    return bad_x, lambda x: np.where(x == bad_x, np.inf, fn(x))


def test_nonfinite_value_in_a_stopped_row_is_ignored():
    _, sqrt_bad = _bad_at(4, np.sqrt)
    # alone, the row stops at level 3 and never sees the bad node
    alone = integrate(Integrand(sqrt_bad, 0.0, 1.0))
    got = integrate(_table({"sqrt": sqrt_bad, "cos": _STOPS["cos"][1]}))
    assert got["sqrt"] == alone == integrate(Integrand(np.sqrt, 0.0, 1.0))


def test_nonfinite_value_in_an_active_row_raises():
    _, cos_bad = _bad_at(4, _STOPS["cos"][1])
    with pytest.raises(DomainError):
        integrate(Integrand(cos_bad, 0.0, 1.0))
    with pytest.raises(DomainError):
        integrate(_table({"sqrt": np.sqrt, "cos": cos_bad}))


@pytest.mark.parametrize("level", [4, 5])
def test_nonfinite_value_in_the_block_after_the_table_stopped_is_ignored(level):
    # every row stops at level 3; the block still evaluates levels 4 and 5
    mirror = lambda x: np.sqrt(1.0 - x)  # noqa: E731
    _, sqrt_bad = _bad_at(level, np.sqrt)
    _, mirror_bad = _bad_at(level, mirror, upper=True)
    assert integrate(Integrand(sqrt_bad, 0.0, 1.0)) == integrate(Integrand(np.sqrt, 0.0, 1.0))
    got = integrate(_table({"sqrt": sqrt_bad, "mirror": mirror_bad}))
    assert got == integrate(_table({"sqrt": np.sqrt, "mirror": mirror}))


def test_nonfinite_value_at_level_five_in_a_stopped_row_is_ignored():
    # the sqrt row stops at level 3 while the cos row reads level 5
    _, sqrt_bad = _bad_at(5, np.sqrt)
    cos = _STOPS["cos"][1]
    got = integrate(_table({"sqrt": sqrt_bad, "cos": cos}))
    assert got == integrate(_table({"sqrt": np.sqrt, "cos": cos}))


@pytest.mark.parametrize("level, upper", [(4, False), (5, True), (6, False)])
def test_nonfinite_value_in_an_active_row_names_its_node(level, upper):
    bad_x, bump_bad = _bad_at(level, _STOPS["bump"][1], upper)
    where = re.escape(f"near x = {bad_x!r}")
    with pytest.raises(DomainError, match=where):
        integrate(Integrand(bump_bad, 0.0, 1.0))
    with pytest.raises(DomainError, match=where):
        integrate(_table({"sqrt": np.sqrt, "bump": bump_bad}))


def test_one_unconverged_row_raises_non_convergence(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_LEVEL", 6)
    rows = {"sqrt": np.sqrt, "rough": _rough, "cos": _STOPS["cos"][1]}
    with pytest.raises(NonConvergence, match="rough"):
        integrate(_table(rows))


def test_wrong_row_count_raises_type_error():
    with pytest.raises(TypeError):
        integrate(Integrand(lambda x: (x, x, x), 0.0, 1.0, names=("a", "b")))
    with pytest.raises(TypeError):
        integrate(Integrand(lambda x: x, 0.0, 1.0, names=("a", "b")))
    with pytest.raises(TypeError):
        integrate(Integrand(lambda x: (x, x), 0.0, 1.0))
    with pytest.raises(TypeError):
        integrate(Integrand(lambda x: (x, 1.0), 0.0, 1.0, names=("a", "b")))


def test_table_row_names_are_distinct():
    with pytest.raises(ValueError):
        Integrand(lambda x: (x, x), 0.0, 1.0, names=("a", "a"))


# every integral set that integral_set and verify_identities hand to one
# families._integrate_all call
def _identity_set_H(a):
    return {**families._integrands_H(a), **families._identity_integrands_H(a)}


def _identity_set_rPD(a):
    return {**families._integrands_rPD(a), **families._identity_integrands_rPD(a)}


_SETS = [
    (families._integrands_H, [0.01, 0.3, 0.99]),
    (families._integrands_rPD, [0.01, 0.6, 1.0]),
    (families._integrands_tP, [2.1, 2.1004, 10.0, 40.0]),
    (families._integrands_tCLP, [0.0, 1.0, 1.999999]),
    (_identity_set_H, [0.01, 0.3, 0.99]),
    (_identity_set_rPD, [0.01, 0.6, 1.0]),
]


def _set_rows(tables):
    """Each row of a set's tables integrated alone, by its name, and the
    largest error estimate among them."""
    rows = {}
    for key, f in tables.items():
        got = integrate(f)
        rows.update(got if f.names else {key: got})
    return rows, np.maximum.reduce([err for _, err in rows.values()])


@pytest.mark.parametrize("tables, points", _SETS)
def test_one_call_on_a_set_equals_each_table_alone(tables, points):
    # no two tables of a set share a row name, and the set's values and
    # largest error are each table's own
    for a in points:
        fs = tables(a)
        values, err = families._integrate_all(fs, QuadConfig())
        rows, err_max = _set_rows(fs)
        assert sum(len(f.names) or 1 for f in fs.values()) == len(rows)
        assert values == {name: v for name, (v, _) in rows.items()}, a
        assert err == err_max, a


@pytest.mark.parametrize("tables, points", _SETS[:4])
def test_one_call_on_a_stacked_set_equals_each_table_alone(tables, points):
    fs = tables(np.array(points))
    values, err = families._integrate_all(fs, QuadConfig())
    rows, err_max = _set_rows(fs)
    assert set(values) == set(rows)
    for name, (v, _) in rows.items():
        assert values[name].tobytes() == v.tobytes(), name
    assert err.tobytes() == err_max.tobytes()


# ---------------------------------------------------------------------------
# the stopping test of one surface on Python floats against the whole-array
# test of a stack


def _on_a_stack(f):
    """f on a one-point stack: each of its params an array of that one value."""
    return f.bind(tuple(np.array([c]) for c in f.params))


def _point_bits(result):
    """Each row's (value, err) by its bytes, a float or a one-point stack's array alike."""
    rows = result.items() if isinstance(result, dict) else [(None, result)]
    return {name: tuple(np.asarray(x, dtype=float).reshape(-1).tobytes() for x in pair)
            for name, pair in rows}


def _surface_tables(fam, a):
    if fam == "H":
        return {**families._integrands_H(a), **families._identity_integrands_H(a)}
    if fam == "rPD":
        return {**families._integrands_rPD(a), **families._identity_integrands_rPD(a)}
    return {"tP": families._integrands_tP, "tCLP": families._integrands_tCLP}[fam](a)


_RNG = np.random.default_rng(2307)
# random admissible points of each family, then points where a table
# refines past the block
_ONE_SURFACE = (
    [("H", a) for a in _RNG.uniform(0.01, 0.99, 3)]
    + [("rPD", a) for a in _RNG.uniform(0.01, 1.0, 3)]
    + [("tP", a) for a in _RNG.uniform(2.05, 60.0, 3)]
    + [("tCLP", a) for a in _RNG.uniform(-1.99, 1.99, 3)]
    + [("rPD", 0.1), ("H", 0.05), ("tP", 3.0)]
)


@pytest.mark.parametrize("fam, a", _ONE_SURFACE)
def test_one_surface_equals_its_one_point_stack_bit_for_bit(fam, a, monkeypatch):
    refined = []
    refine = quadrature._refine
    monkeypatch.setattr(quadrature, "_refine", lambda *args: refined.append(1) or refine(*args))
    for f in _surface_tables(fam, float(a)).values():
        assert _point_bits(integrate(f)) == _point_bits(integrate(_on_a_stack(f)))
    if (fam, a) in _ONE_SURFACE[-3:]:
        assert refined, (fam, a)


def test_the_float_stopping_test_equals_the_array_test():
    tol = 2.0 ** -40
    step = 2.0 ** -40
    nan = math.nan
    # (levels 0-5) of each row, and the index of the level it stops at
    rows = [
        # a change of exactly tol * |value| at level 3 passes by <=
        ([0.0, 0.5, 1.0 - step, 1.0, 1.0, 1.0], 0),
        # and one of exactly the floor, where that exceeds it
        ([0.0, 0.0, 0.0, 1e-15, 1e-15, 1e-15], 0),
        # one ulp over the threshold waits for level 4
        ([0.0, 0.5, 1.0 - step - 2.0 ** -53, 1.0, 1.0, 1.0], 1),
        # never passes inside the block
        ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], 3),
        # stops at level 4; the nan at level 5 is never read
        ([0.0, 1.0, 2.0, 3.0, 3.0, nan], 1),
        # a nan it reads never passes
        ([0.0, 1.0, nan, nan, nan, nan], 3),
        # inf at level 3 after a finite level 2 passes, as inf <= inf
        ([0.0, 1.0, 2.0, math.inf, math.inf, math.inf], 0),
    ]
    value = np.array([r for r, _ in rows]).T
    got = quadrature._stop_floats(value, tol)
    with np.errstate(invalid="ignore"):
        want = quadrature._stop_arrays(value, tol)
    assert got[2] == want[2].tolist() == [stop for _, stop in rows]
    for x, y in zip(got[:2], want[:2]):
        assert all(type(v) is float for v in x)
        assert np.array(x).tobytes() == y.tobytes()


def _with_param(rows):
    """_table of rows, each times a parameter that is 1: float, or a one-point stack."""
    names = tuple(rows)
    return [Integrand(lambda x, c: tuple(rows[n](x) * c for n in names), 0.0, 1.0,
                      names=names, params=(c,)) for c in (1.0, np.array([1.0]))]


def test_both_paths_refine_a_row_past_the_block_alike():
    one, stack = _with_param({"sqrt": np.sqrt, "bump": _STOPS["bump"][1]})
    got, want = integrate(one), integrate(stack)
    assert _point_bits(got) == _point_bits(want)
    assert got == integrate(_table({"sqrt": np.sqrt, "bump": _STOPS["bump"][1]}))


def test_both_paths_ignore_a_nonfinite_value_a_stopped_row_does_not_read():
    # the sqrt row stops at level 3, the cos row reads level 5
    _, sqrt_bad = _bad_at(5, np.sqrt)
    cos = _STOPS["cos"][1]
    want = integrate(_table({"sqrt": np.sqrt, "cos": cos}))
    one, stack = _with_param({"sqrt": sqrt_bad, "cos": cos})
    assert integrate(one) == want
    assert _point_bits(integrate(stack)) == _point_bits(want)


@pytest.mark.parametrize("level, upper", [(4, False), (5, True), (6, False)])
def test_both_paths_name_the_node_of_a_nonfinite_value_a_row_reads(level, upper):
    bad_x, bump_bad = _bad_at(level, _STOPS["bump"][1], upper)
    for f in _with_param({"sqrt": np.sqrt, "bump": bump_bad}):
        with pytest.raises(DomainError, match=re.escape(f"near x = {bad_x!r}")):
            integrate(f)
