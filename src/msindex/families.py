"""The five surface families: domains, period integrals, period frames
and the deformation data of the branch points.

Every family is described by one real parameter a, admitted in
admissible_range and folded by canonical_param (tD onto tP, negative
tCLP onto positive).  The quantities A..I are singular integrals over
branch-point data; an IntegralSet records them with their family, and
period_frame feeds them into that family's 6x6 matrix of periods,
whose top half determines the lattice and the period ratio tau.  All
integrands are written so that each endpoint singularity sits at
offset zero of the quadrature engine's distance coordinate, with
cancellation-prone factors expanded by hand.  Every table, the
identities' among them, is built once, at import, as a quadrature table
with named rows that share their radicands, and with no params: a
template that each call binds to its parameter columns
(``Integrand.bind``), so no call builds an Integrand.  Each family's
eight integrals are one table and one integrate call: rPD's holds its
rows on (0, 1) and those on (1, inf), folded onto (0, 1) by t = 1/x in
its feature functions, and H's its rows near t = 0 and those of the
cap on (0.5, 1), read at x = (1 + t) / 2.  Every table is one form on
both halves of its interval; one with a singular end at 1 (rPD's,
H's, and the identities' ``bare`` and ``upper_cap``) takes there the
features of the exact distance to it (``features_hi``), so one call
per level covers both halves.  The identities take a family's table
and integrate their own beside it, one call per table.
What a form needs of the nodes alone (powers of t, 1 -+ t^2, the
radicand factors without a, the distance to t = 1) comes from a
feature function at module level, which the quadrature computes once
per node set and keeps, so a form call does only the arithmetic that
depends on a, in the order the form written inline would.  A table
takes one float or an (N,) array, a stack of N surfaces; the
constants that depend on a alone are formed point by point in Python
floats, so every point of a stack is bit for bit the surface alone,
and so are its integral set, held in Python floats like every
IntegralSet, and its period frame.  deformation_data is
one numpy path for one surface and for a stack: every P_ai entry is a
sum of at most three terms over the powers x^-8 .. x^8 of one number
x per surface, added elementwise, so each stack row is bit for bit
its point alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import linalg
from .errors import DomainError, NonConvergence, RiemannMatrixViolation, SingularMatrix
from .quadrature import Integrand, QuadConfig, integrate

FAMILIES = ("H", "rPD", "tP", "tD", "tCLP")

# open-endpoint guard: parameters must keep this distance from the boundary
MARGIN = 1e-6

_SQ3 = math.sqrt(3.0)
_SQ2 = math.sqrt(2.0)

# a value at one surface, or one per surface of a stack as an (N,) array
Values = Union[float, np.ndarray]


@dataclass(frozen=True)
class SurfaceParam:
    family: str
    a: float


def domain_bounds(family: str) -> tuple[float, float, bool, bool]:
    """(lo, hi, closed_lo, closed_hi) for the admissible parameter range."""
    table = {
        "H": (0.0, 1.0, False, False),
        "rPD": (0.0, 1.0, False, True),
        "tP": (2.0, math.inf, False, False),
        "tD": (-math.inf, -2.0, False, False),
        "tCLP": (-2.0, 2.0, False, False),
    }
    if family not in table:
        raise DomainError(f"unknown family {family!r}, expected one of {FAMILIES}")
    return table[family]


def admissible_range(family: str) -> tuple[float, float]:
    """The closed range of admitted parameters: the domain with MARGIN
    taken off each open end.  An unbounded end stays infinite."""
    lo, hi, closed_lo, closed_hi = domain_bounds(family)
    return (lo if closed_lo else lo + MARGIN, hi if closed_hi else hi - MARGIN)


def validate_param(p: SurfaceParam) -> None:
    """Refuse a non-finite parameter or one outside admissible_range."""
    a_lo, a_hi = admissible_range(p.family)
    a = p.a
    if not math.isfinite(a):
        raise DomainError(f"parameter must be finite, got {a!r}")
    if not a_lo <= a <= a_hi:
        lo, hi, closed_lo, closed_hi = domain_bounds(p.family)
        lo_b = "[" if closed_lo else "("
        hi_b = "]" if closed_hi else ")"
        raise DomainError(
            f"family {p.family} needs a in {lo_b}{lo}, {hi}{hi_b} "
            f"with margin {MARGIN:g} at open ends; got {a!r}"
        )


def canonical_param(p: SurfaceParam) -> SurfaceParam:
    """Fold parameter symmetries onto the representative families.

    tD surfaces are conjugate to tP at the negated parameter, and the
    negative tCLP half-range repeats the positive one.
    """
    if p.family == "tD":
        return SurfaceParam("tP", -p.a)
    if p.family == "tCLP" and p.a < 0.0:
        return SurfaceParam("tCLP", -p.a)
    return p


@dataclass(frozen=True, slots=True)
class IntegralSet:
    """The eight period integrals of one surface, plus provenance, in
    Python floats."""

    A: float
    B: float
    C: float
    D: float
    E: float
    F: float
    H: float
    I: float
    family: str
    a: float
    err_max: float

    def as_dict(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in "ABCDEFHI"}


def _each(fn: Callable[[float], float], a: Values) -> Values:
    """fn at the parameter a, or at each parameter of a stack, by Python
    float arithmetic.

    numpy's power differs from Python's in the last bit for about one
    input in twenty, so the constants that depend on a alone are formed
    point by point, exactly as for one surface.
    """
    return np.array([fn(x) for x in a.tolist()]) if isinstance(a, np.ndarray) else fn(a)


def _integrate_all(tables: dict[str, Integrand],
                   config: QuadConfig) -> tuple[dict[str, Values], Values]:
    """Integrate every entry of a dict of integrand tables, one integrate
    call each.

    Returns the values by row name and the largest error estimate, as
    floats for one surface and arrays for a stack.  A table contributes
    one value per named row, a single integrand one value under its key.
    """
    values: dict[str, np.ndarray] = {}
    errs = []
    for key, f in tables.items():
        result = integrate(f, config)
        for name, (value, err) in (result.items() if f.names else [(key, result)]):
            values[name] = value
            errs.append(err)
    return values, (np.maximum.reduce(errs) if isinstance(errs[0], np.ndarray) else max(errs))


def _near0_features(t):
    tt = t * t
    t25 = t ** 2.5
    return t, t ** 3, 1.0 + tt, 1.0 - tt, t25 * (1.0 + tt), t25 * (1.0 - tt), t ** 3.5


def _cap_near_one(s):
    # x, then a^3 + 1/a^3 + 6x - 8x^3 less c, and 4 (1 - x^2) and its
    # root, at x = 1 - s
    span = 4.0 * (s * (2.0 - s))
    return 1.0 - s, s * (18.0 - s * (24.0 - 8.0 * s)), span, np.sqrt(span)


def _cap_features(x):
    # 1 - x is exact on [0.5, 1] (Sterbenz)
    return _cap_near_one(1.0 - x)


def _h_features(t):
    # near t = 0 at t, the cap at x = (1 + t) / 2
    return _near0_features(t), _cap_features(0.5 + 0.5 * t)


def _h_near_one(s):
    # the same at t = 1 - s, where the cap's distance to x = 1 is s / 2
    return _near0_features(1.0 - s), _cap_near_one(0.5 * s)


def _h(nodes, a, a3, ia3, c):
    (t, t3, plus, minus, plus25, minus25, t35), (x, rise, span, root_span) = nodes
    rad = (t3 + a3) * (t3 + ia3)
    root = np.sqrt(t * rad)
    rad15 = rad ** 1.5
    # the cap's x and 1 over sqrt(pol (1 - x^2)), then over pol^1.5
    # sqrt(1 - x^2), each halved exactly, as dx = dt / 2, by span = 4 (1 - x^2)
    pol = c + rise
    cap_root = np.sqrt(pol * span)
    den = pol ** 1.5 * root_span
    return (plus / root, minus / root, t / root, plus25 / rad15, minus25 / rad15, t35 / rad15,
            x / cap_root, 1.0 / cap_root, x / den, 1.0 / den)


# the rows singular at t = 0, then the cap's, singular at t = 1 (x = 1)
_H = Integrand(_h, 0.0, 1.0, True, True,
               names=("A", "B1", "D", "E", "F1", "I", "B2", "C", "F2", "H"),
               features=_h_features, features_hi=_h_near_one)


def _integrands_H(a: Values) -> dict[str, Integrand]:
    a3 = _each(lambda x: x ** 3, a)
    # (a^3 - 1)^2 / a^3 in a form that survives a -> 1
    c = _each(lambda x: ((x - 1.0) * (x * x + x + 1.0)) ** 2 / x ** 3, a)
    return {"periods": _H.bind((a, a3, 1.0 / a3, c))}


def _integrals_H(a: Values, config: QuadConfig) -> tuple[dict[str, Values], Values]:
    v, err = _integrate_all(_integrands_H(a), config)
    return {
        "A": v["A"],
        "B": _SQ3 * v["B1"] + 4.0 * v["B2"],
        "C": 4.0 * v["C"],
        "D": 8.0 * v["D"],
        "E": v["E"],
        "F": _SQ3 * v["F1"] + 4.0 * v["F2"],
        "H": 2.0 * v["H"],
        "I": 4.0 * v["I"],
    }, err


class _RPDCurve:
    """The rPD radicands at a stack of parameters.

    R(t) = t (1 - t^3) (a^3 t^3 + a^-3) on (0, 1), or, where alt, with
    a^3 and a^-3 swapped, and t (t^3 - 1) (a^3 t^3 + a^-3) on (1, inf).
    columns(a) gives the parameter columns of its tables, and a curve
    is built on those columns as the forms receive them.
    """

    def __init__(self, a, a3, ia3, a6, q):
        self.a, self.a3, self.ia3, self.a6, self.q = a, a3, ia3, a6, q

    @staticmethod
    def columns(a: Values) -> tuple:
        a3 = _each(lambda x: x ** 3, a)
        # 1 - a^6, factored so it survives a -> 1
        q = _each(lambda x: (1.0 - x) * (1.0 + x) * (1.0 + x * x + x ** 4), a)
        return a, a3, 1.0 / a3, _each(lambda x: x ** 6, a), q

    def cubic(self, t3):
        return 2.0 * self.a6 * t3 + self.q

    def alt_cubic(self, t3):
        return self.q - 2.0 * t3


def _rpd_unit_features(t):
    t3 = t ** 3
    return t, t3, t * (1.0 - t3), 1.0 - t


def _rpd_unit_near_one(s):
    # 1 - t^3 = s (3 - 3s + s^2) at t = 1 - s, and the distance s itself
    t = 1.0 - s
    t3 = t ** 3
    return t, t3, t * s * (3.0 - s * (3.0 - s)), s


def _rpd_rows(c, numerators, base, t3, alt):
    """num_i / sqrt(R_i) on the curve c, R = base (a^3 t^3 + a^-3), or
    base (a^-3 t^3 + a^3) for the rows marked in alt."""
    root = None if all(alt) else np.sqrt(base * (c.a3 * t3 + c.ia3))
    alt_root = np.sqrt(base * (c.ia3 * t3 + c.a3)) if any(alt) else None
    return tuple(n / (alt_root if swap else root) for n, swap in zip(numerators, alt))


def _rpd_tail_features(t):
    t3 = t ** 3
    return t, t3, t * (t3 - 1.0), t - 1.0


def _rpd_tail_near_one(s):
    # t^3 - 1 = s (s^2 + 3s + 3) at t = 1 + s, and the distance s itself
    t = 1.0 + s
    t3 = t ** 3
    return t, t3, t * s * (s * (s + 3.0) + 3.0), s


def _rpd_features(x):
    # the unit features at x, then the tail's at t = 1/x beside x^2, by
    # which the form divides its tail rows: dt = -dx / x^2
    return _rpd_unit_features(x) + ((_rpd_tail_features(1.0 / x), x * x),)


def _rpd_hi_features(s):
    # at t = 1 - s, then the tail's at t = 1 / (1 - s) = 1 + s / (1 - s)
    # beside (1 - s)^2
    r = 1.0 - s
    return _rpd_unit_near_one(s) + ((_rpd_tail_near_one(s / r), r * r),)


def _rpd_table(names, alt, unit_nums, tail_nums) -> Integrand:
    """The template of a table of num_i(t) / sqrt(R_i(t)): the rows of
    unit_nums on (0, 1), on the swapped curve where alt marks them, then
    those of tail_nums on (1, inf), folded onto (0, 1) in its features.
    Each nums(c, t, t3, d) gives the numerators on the curve c at t, with
    t3 = t**3 and d = |1 - t|, exact near t = 1, where the evaluator
    takes the features of the exact distance: one call per level covers
    both halves.
    """
    tail_alt = (False,) * (len(names) - len(alt))

    def f(nodes, *cols):
        t, t3, base, d, ((u, u3, u_base, u_d), square) = nodes
        c = _RPDCurve(*cols)
        tail = _rpd_rows(c, tail_nums(c, u, u3, u_d), u_base, u3, tail_alt)
        return (_rpd_rows(c, unit_nums(c, t, t3, d), base, t3, alt)
                + tuple(n / square for n in tail))

    return Integrand(f, 0.0, 1.0, True, True, names=names,
                     features=_rpd_features, features_hi=_rpd_hi_features)


def _unit_nums(c, t, t3, d):
    at2 = (c.a * t) ** 2
    cubic = c.cubic(t3)
    return (1.0 + at2, t, cubic * (5.0 * at2 + 1.0), cubic * (5.0 * at2 - 1.0),
            t * c.alt_cubic(t3), t * cubic)


# the rows on (0, 1), H's on the swapped curve, then the tail rows
_PERIODS = _rpd_table(("A", "D", "Ep", "Em", "H", "I", "TA", "TC"),
                      (False, False, False, False, True, False), _unit_nums,
                      lambda c, t, t3, d: (1.0 + (c.a * t) ** 2, t))


def _integrands_rPD(a: Values) -> dict[str, Integrand]:
    return {"periods": _PERIODS.bind(_RPDCurve.columns(a))}


def _integrals_rPD(a: Values, config: QuadConfig) -> tuple[dict[str, Values], Values]:
    v, err = _integrate_all(_integrands_rPD(a), config)
    frac = _each(lambda x: x * x / (3.0 * (x ** 6 + 1.0) ** 2), a)
    edge = _each(lambda x: 2.0 * x ** 3 / (x ** 6 + 1.0) ** 2, a)
    return {
        "A": v["A"] / (_SQ3 * a),
        "B": v["TA"] / (_SQ3 * a),
        "C": 4.0 * v["TC"],
        "D": 4.0 * v["D"],
        "E": frac / _SQ3 * v["Ep"],
        "F": frac * v["Em"],
        "H": edge * v["H"],
        "I": edge * v["I"],
    }, err


def _quartic(t8, t4, a):
    """t^8 + a t^4 + 1 from t8 = t4 * t4 and t4 = t**4, and its square
    root and 1.5 power."""
    quartic = t8 + a * t4 + 1.0
    return np.sqrt(quartic), quartic ** 1.5


def _tp_features(t):
    tt = t * t
    t4 = t ** 4
    plus, minus = 1.0 + tt, 1.0 - tt
    return (t, tt, t4 * t4, t4, plus, minus, t4 * minus, t4 * plus, t ** 5,
            16.0 * (tt - 0.5) ** 2, plus ** 2)


def _tp(nodes, a):
    t, tt, t8, t4, plus, minus, minus4, plus4, t5, ridge0, plus_sq = nodes
    root, cube = _quartic(t8, t4, a)
    # 16 t^4 - 16 t^2 + 2 + a, grouped around its minimum
    ridge = ridge0 + (a - 2.0)
    flat = (2.0 + a) * tt * tt + (2.0 * a - 12.0) * tt + (2.0 + a)
    return (minus / root, plus / root, t / root, minus4 / cube, plus4 / cube, t5 / cube,
            1.0 / np.sqrt(ridge), 1.0 / np.sqrt(flat), 1.0 / ridge ** 1.5, plus_sq / flat ** 1.5)


_TP = Integrand(_tp, 0.0, 1.0, features=_tp_features,
                names=("A1", "B", "C", "E1", "F", "H", "A2", "D", "E2", "I"))


def _integrands_tP(a: Values) -> dict[str, Integrand]:
    return {"periods": _TP.bind((a,))}


def _integrals_tP(a: Values, config: QuadConfig) -> tuple[dict[str, Values], Values]:
    v, err = _integrate_all(_integrands_tP(a), config)
    return {
        "A": 2.0 * v["A1"] + 4.0 * v["A2"],
        "B": 2.0 * v["B"],
        "C": 8.0 * v["C"],
        "D": 8.0 * v["D"],
        "E": 2.0 * v["E1"] + 4.0 * v["E2"],
        "F": 2.0 * v["F"],
        "H": 4.0 * v["H"],
        "I": 4.0 * v["I"],
    }, err


def _tclp_features(t):
    tt = t * t
    t4 = t ** 4
    plus = 1.0 + tt
    return t, t4 * t4, t4, plus, t4 * plus, t ** 5


def _tclp(nodes, a, b):
    # tP's B, C, F and H rows over the quartic at +|a| and at -|a|;
    # the latter is t^8 - |a| t^4 + 1 bit for bit
    t, t8, t4, plus, even, t5 = nodes
    root_p, cube_p = _quartic(t8, t4, b)
    root_m, cube_m = _quartic(t8, t4, -b)
    return (plus / root_m, plus / root_p, t / root_p, t / root_m,
            even / cube_m, even / cube_p, t5 / cube_p, t5 / cube_m)


_TCLP = Integrand(_tclp, 0.0, 1.0, features=_tclp_features,
                  names=("A", "B", "C", "D", "E", "F", "H", "I"))


def _integrands_tCLP(a: Values) -> dict[str, Integrand]:
    return {"periods": _TCLP.bind((a, abs(a)))}


def _integrals_tCLP(a: Values, config: QuadConfig) -> tuple[dict[str, Values], Values]:
    v, err = _integrate_all(_integrands_tCLP(a), config)
    return {
        "A": 2.0 * _SQ2 * v["A"],
        "B": 2.0 * v["B"],
        "C": 8.0 * v["C"],
        "D": 8.0 * v["D"],
        "E": 2.0 * _SQ2 * v["E"],
        "F": 2.0 * v["F"],
        "H": 4.0 * v["H"],
        "I": 4.0 * v["I"],
    }, err


_INTEGRALS = {
    "H": _integrals_H,
    "rPD": _integrals_rPD,
    "tP": _integrals_tP,
    "tCLP": _integrals_tCLP,
}


def _stack(params: Sequence[SurfaceParam], caller: str) -> tuple[tuple[SurfaceParam, ...], str]:
    """params as a tuple, and their one family."""
    params = tuple(params)
    if not params:
        raise DomainError(f"{caller} needs at least one parameter")
    fam = params[0].family
    for q in params:
        if q.family != fam:
            raise DomainError(f"a stack of parameters must share one family, got {fam} and {q.family}")
    return params, fam


def integral_set(p: Union[SurfaceParam, Sequence[SurfaceParam]],
                 config: QuadConfig = QuadConfig()) -> Union[IntegralSet, list[IntegralSet]]:
    """Compute the eight period integrals of one surface, or of a stack.

    p is one parameter, which gives its IntegralSet, or a sequence of
    parameters of one family, which gives the list of their sets,
    integrated as one stack, every point bit for bit the set of that
    parameter alone.  tD must be folded onto tP by canonical_param
    first.  For H the parameter may sit on either side of 1 (the two
    sides describe the same surface and give the same integrals); the
    other families are validated against their strict domains.
    """
    single = isinstance(p, SurfaceParam)
    params, fam = _stack([p] if single else p, "integral_set")
    for q in params:
        if fam == "tD":
            raise DomainError("tD shares its integrals with tP; apply canonical_param first")
        if fam == "H":
            a = q.a
            if not (math.isfinite(a) and a >= MARGIN and abs(a - 1.0) >= MARGIN):
                raise DomainError(
                    f"H integrals need a > 0 with a != 1, margin {MARGIN:g}; got {a!r}")
        else:
            validate_param(q)
    a = p.a if single else np.array([q.a for q in params])
    vals, err = _INTEGRALS[fam](a, config)
    if single:
        return IntegralSet(family=fam, a=a, err_max=err, **vals)
    # each point's values as Python floats, in the field order of IntegralSet
    points = np.array([vals[k] for k in "ABCDEFHI"] + [a, err]).T.tolist()
    return [IntegralSet(*x[:8], fam, *x[8:]) for x in points]


# ---------------------------------------------------------------------------
# period frame


@dataclass(frozen=True, slots=True)
class PeriodFrame:
    """The 6x6 period matrix, the period ratio tau = C1^-1 C2 of its top
    3x6 block [C1 | C2], and (Im tau)^-1; stacked, each with a leading
    parameter axis."""

    omega: np.ndarray
    tau: np.ndarray
    im_tau_inv: np.ndarray


# The rows of each family's period matrix at one surface, from its eight
# integrals as Python floats; H and rPD take the rows times i.


def _omega_H(A, B, C, D, E, F, H, I) -> list:
    r = _SQ3
    return [
        [0.0, (r / 2.0) * (A + 1j * B), 0.0, -r * A, -2.0 * r * A, -r * A],
        [2.0 * A, (-3.0 * A + 1j * B) / 2.0, A - 1j * B, 1j * B, 0.0, A],
        [-1j * D, -C, 2.0 * C + 1j * D, C, 0.0, 1j * D],
        [0.0, -(r / 2.0) * (E + 1j * F), 0.0, r * E, 2.0 * r * E, r * E],
        [-2.0 * E, (3.0 * E - 1j * F) / 2.0, -E + 1j * F, -1j * F, 0.0, -E],
        [1j * I, H, -2.0 * H - 1j * I, -H, 0.0, -1j * I],
    ]


def _omega_rPD(A, B, C, D, E, F, H, I) -> list:
    r = _SQ3
    return [
        [2j * B, -2.0 * (A + 1j * B), -(A + 1j * B), 2.0 * A, 3.0 * (A - 1j * B), 2.0 * (A - 1j * B)],
        [-2.0 * r * A, 0.0, r * (A + 1j * B), -2j * r * B, r * (A - 1j * B), 0.0],
        [1j * D, C - 1j * D, -C + 1j * D, -C, 0.0, -(C + 1j * D)],
        [-2j * F, 2.0 * (-E + 1j * F), -E + 1j * F, 2.0 * E, 3.0 * (E + 1j * F), 2.0 * (E + 1j * F)],
        [-2.0 * r * E, 0.0, r * (E - 1j * F), 2j * r * F, r * (E + 1j * F), 0.0],
        [1j * I, H - 1j * I, -H + 1j * I, -H, 0.0, -(H + 1j * I)],
    ]


def _omega_tP(A, B, C, D, E, F, H, I) -> list:
    return [
        [-1j * B, -A, 1j * B, -1j * B, -2j * B, -1j * B],
        [A, 1j * B, -A, 1j * B, 0.0, -1j * B],
        [-1j * D, 1j * D, -1j * D, C, 0.0, C],
        [-1j * F, -E, 1j * F, -1j * F, -2j * F, -1j * F],
        [E, 1j * F, -E, 1j * F, 0.0, -1j * F],
        [-1j * I, 1j * I, -1j * I, H, 0.0, H],
    ]


def _omega_tCLP(A, B, C, D, E, F, H, I) -> list:
    return [
        [-1j * B, 1j * B, 1j * B, 0.0, -A, -A],
        [-1j * B, -1j * B, 1j * B, A, A, 0.0],
        [-C, C, -C, -1j * D, 0.0, -1j * D],
        [-1j * F, 1j * F, 1j * F, 0.0, E, E],
        [-1j * F, -1j * F, 1j * F, -E, -E, 0.0],
        [-H, H, -H, 1j * I, 0.0, 1j * I],
    ]


# (rows, whether the matrix is i times them)
_OMEGA_BUILDERS = {
    "H": (_omega_H, True),
    "rPD": (_omega_rPD, True),
    "tP": (_omega_tP, False),
    "tCLP": (_omega_tCLP, False),
}

_TAU_SYM_TOL = 1e-9

# (Im tau)^-1 is refused wherever linalg.solve(Im tau, I) would be (see the
# linalg docstring), and its residual held to solve's tolerance times |I|_F
_IM_TAU_FLOOR = math.sqrt(3.0) * linalg.pivot_bound(3)
_IM_TAU_RESIDUAL = math.sqrt(3.0) * linalg.RESIDUAL_TOL
_EYE3 = np.broadcast_to(np.eye(3), (3, 3))  # read-only


def period_frame(integrals: Union[IntegralSet, Sequence[IntegralSet]]) -> PeriodFrame:
    """Assemble the 6x6 period matrix and the period ratio tau from the
    integrals of one surface, in the period table of integrals.family;
    the list of integral sets of a stack, of one family, gives a stacked
    frame, (N, 6, 6) and (N, 3, 3).

    Raises SingularMatrix, naming the parameter, if linalg.solve refuses
    C1, and RiemannMatrixViolation, naming it too, if tau comes out
    non-symmetric or its imaginary part is not positive definite.
    sym(Im tau) = V diag(lambda) V^t, decomposed once, also gives X =
    (Im tau)^-1 = V diag(1/lambda) V^t; SingularMatrix, naming the
    parameter, refuses X if lambda_min < _IM_TAU_FLOOR * (sum lambda^2 +
    |tau - tau^t|_F^2 / 4)^(1/2) >= _IM_TAU_FLOOR * |Im tau|_F, or if
    |Im tau X - I|_F > _IM_TAU_RESIDUAL.
    """
    one = isinstance(integrals, IntegralSet)
    sets = [integrals] if one else integrals
    fams = {s.family for s in sets}
    if len(fams) != 1:
        raise DomainError(f"period_frame needs integral sets of one family, got {sorted(fams)}")
    rows, times_i = _OMEGA_BUILDERS[fams.pop()]
    # each point's rows from its Python floats, then one array
    points = [rows(s.A, s.B, s.C, s.D, s.E, s.F, s.H, s.I) for s in sets]
    omega = np.array(points[0] if one else points, dtype=complex)
    if times_i:
        omega = 1j * omega
    try:
        tau = linalg.solve(omega[..., :3, :3], omega[..., :3, 3:])
    except SingularMatrix:
        # the first point that solve refuses alone, named
        for s, m in zip(sets, omega.reshape(-1, 6, 6)):
            try:
                linalg.solve(m[:3, :3], m[:3, 3:])
            except SingularMatrix as exc:
                raise SingularMatrix(f"{exc} at a = {s.a!r}") from exc
        raise
    im = tau.imag
    lam, vec = linalg.eig_selfadjoint(0.5 * (im + im.swapaxes(-1, -2)), vectors=True)
    im_inv = (vec / lam[..., None, :]) @ vec.swapaxes(-1, -2)
    checks = zip([s.a for s in sets], linalg.norms(tau - tau.swapaxes(-1, -2)),
                 linalg.norms(tau), lam.reshape(-1, 3).tolist(), linalg.norms(im @ im_inv - _EYE3))
    for a, defect, norm, eigs, resid in checks:
        if defect > _TAU_SYM_TOL * max(norm, 1e-300):
            raise RiemannMatrixViolation(f"tau asymmetry {defect:.3e} at a = {a!r}")
        if eigs[-1] <= 0.0:
            raise RiemannMatrixViolation(
                f"Im tau not positive definite at a = {a!r}, eigenvalues {eigs}")
        floor = _IM_TAU_FLOOR * math.hypot(*eigs, 0.5 * defect)
        if not (eigs[-1] >= floor and resid <= _IM_TAU_RESIDUAL):
            raise SingularMatrix(f"Im tau is not safely invertible at a = {a!r}: lambda_min "
                                 f"{eigs[-1]:.3e}, floor {floor:.3e}, residual {resid:.3e}")
    return PeriodFrame(omega=omega, tau=tau, im_tau_inv=im_inv)


# ---------------------------------------------------------------------------
# deformation data

P1 = np.array([
    [1.0, 0.0, -1.0],
    [1j, 0.0, 1j],
    [0.0, 2.0, 0.0],
], dtype=complex)

P2 = np.array([
    [0.5, -0.5j, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.5, 0.0, 0.0, 0.0],
    [-0.5, -0.5j, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.5, -0.5j, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 0.0, -0.5, -0.5j, 0.0],
], dtype=complex)
P1.flags.writeable = False
P2.flags.writeable = False


# Each branch point is c x^e with c = e^(i deg pi / 180), given as (deg, e);
# x is a for H and rPD, alpha for tP and e^(i theta / 4) for tCLP (_power_row)
_BRANCH_POINTS = {
    "H": ((0, 1), (120, 1), (240, 1), (0, -1), (120, -1)),
    "rPD": ((0, 1), (120, 1), (240, 1), (180, -1), (300, -1)),
    "tP": ((45, 1), (135, 1), (315, 1), (225, 1), (45, -1)),
    "tCLP": ((0, 1), (90, 1), (180, 1), (270, 1), (0, -1)),
}
# cos on [0, 180] degrees at the angles that powers of those c reach
_COS = {0: 1.0, 30: 0.5 * _SQ3, 45: math.sqrt(0.5), 60: 0.5, 90: 0.0,
        120: -0.5, 135: -math.sqrt(0.5), 150: -0.5 * _SQ3, 180: -1.0}
_PAIRS = tuple((i, j) for i in range(5) for j in range(i + 1, 5))
# the exponents -8 .. 8, and them over 2 and times i/4
_EXPONENTS = np.arange(-8.0, 9.0)
_HALF_EXPONENTS, _QUARTER_TURNS = 0.5 * _EXPONENTS, 0.25j * _EXPONENTS


def _gather_table(fam: str) -> tuple[np.ndarray, np.ndarray]:
    """(E, 3) indices into the row of _power_row and (E, 3) coefficients:
    E entries of three terms, P_ai at each branch point p_j row after row,
    the curve at each point (z^7 - m z^4 + sign z for H and rPD, z^8 +
    m z^4 + 1 for tP and tCLP), the points and their ten differences.
    A term c p_j^k is c c_j^k, each part exact or correctly rounded,
    times x^(e_j k) or m x^(e_j k)."""
    hexagonal, sign = fam in ("H", "rPD"), (-1.0 if fam == "rPD" else 1.0)
    # entry (i, j) of P_ai's first three columns is this times p^(i - j - 1)
    first = (((-5 / 6, -0.5, -1 / 6), (1 / 6, -0.5, -1 / 6), (1 / 6, 0.5, -1 / 6)) if hexagonal
             else ((-0.75, -0.5, -0.25), (0.25, -0.5, -0.25), (0.25, 0.5, -0.25)))

    def term(c, j, k, times_m=0):
        deg, e = _BRANCH_POINTS[fam][j]
        cis = complex(*(_COS[min(d % 360, -d % 360)] for d in (deg * k, deg * k - 90)))
        return 8 + e * k + 17 * times_m, c * cis

    entries = []
    for j in range(5):
        for i in range(3):
            entries += [[term(c, j, i - col - 1)] for col, c in enumerate(first[i])]
            # columns 3 + i - s; on z^8 + a z^4 + 1, p^(s+3) = -a p^(s-1) - p^(s-5)
            entries += [[term(0.5, j, s + 2), term(-0.5 * sign, j, s - 4)] if hexagonal else
                        [term(0.5, j, s - 1, 1), term(1.0, j, s + 3)] if s <= 0 else
                        [term(-0.5, j, s - 1, 1), term(-1.0, j, s - 5)] for s in (i, i - 1, i - 2)]
    curve = (((1.0, 7, 0), (-1.0, 4, 1), (sign, 1, 0)) if hexagonal
             else ((1.0, 8, 0), (1.0, 4, 1), (1.0, 0, 0)))
    entries += [[term(c, j, k, t) for c, k, t in curve] for j in range(5)]
    entries += [[term(1.0, j, 1)] for j in range(5)]
    entries += [[term(1.0, i, 1), term(-1.0, j, 1)] for i, j in _PAIRS]
    # a missing term is 0 times x^0 = 1
    table = np.array([e + [(8, 0j)] * (3 - len(e)) for e in entries])
    return table[..., 0].real.astype(int), table[..., 1]


_TABLES = {fam: _gather_table(fam) for fam in _BRANCH_POINTS}


def _power_row(fam: str, a: np.ndarray) -> np.ndarray:
    """x^-8 .. x^8 at each parameter of a (column 8 + k holds x^k), then m
    times them, as (N, 34): m is a, or a^3 + a^-3 for H, a^3 - a^-3 for rPD."""
    m = a
    if fam == "tCLP":
        # theta, the angle of -a + i sqrt(4 - a^2), gives x^k = e^(i theta k/4)
        theta = np.arctan2(np.sqrt((2.0 - a) * (2.0 + a)), -a)
        powers = np.exp(theta[:, None] * _QUARTER_TURNS)
    elif fam == "tP":
        # alpha^2 = (sqrt(a + 2) + sqrt(a - 2)) / 2
        powers = (0.5 * (np.sqrt(a + 2.0) + np.sqrt(a - 2.0)))[:, None] ** _HALF_EXPONENTS
    else:
        powers = a[:, None] ** _EXPONENTS
        m = powers[:, 11] + powers[:, 5] if fam == "H" else powers[:, 11] - powers[:, 5]
    return np.concatenate([powers, m[:, None] * powers], axis=1)


_ROOT_RESIDUAL_TOL = 1e-10
_POINT_SEPARATION = 1e-8


def deformation_data(p: Union[SurfaceParam, Sequence[SurfaceParam]]) -> np.ndarray:
    """Derivatives of the period integrands in the five branch points.

    p is a sequence of canonical parameters of one family, or one of
    them.  Checks that each branch point lies on its curve, that no two
    collide and that P_ai is finite, naming the parameter where one
    fails, then returns the 3x6 matrix P_ai of every point as one
    read-only (N, 5, 3, 6) array, or (5, 3, 6) for one parameter, the
    row of its stack of one; tangent_frame maps it through P1 and P2.
    One gather from the powers of x, one product and two sums compute a
    whole stack elementwise (_gather_table), so each row is bit for bit
    its point alone.
    """
    if isinstance(p, SurfaceParam):
        return deformation_data([p])[0]
    params, fam = _stack(p, "deformation_data")
    for q in params:
        validate_param(q)
        if canonical_param(q) is not q:
            raise DomainError(f"{q} folds onto {canonical_param(q)}; apply canonical_param first")
    idx, coef = _TABLES[fam]
    terms = _power_row(fam, np.array([q.a for q in params]))[:, idx] * coef
    vals = terms[..., 0] + terms[..., 1] + terms[..., 2]
    # |curve| at each point, |point| and |difference|; a residual is |curve|
    # over the size of its terms where that exceeds 1, so at most |curve|.
    # Each test is written so that a nan fails it.
    mags = np.abs(vals[:, 90:])
    if not ((mags[:, :5] <= _ROOT_RESIDUAL_TOL).all() and (mags[:, 10:] > _POINT_SEPARATION).all()):
        res = mags[:, :5] / np.maximum(1.0, np.abs(terms[:, 90:95]).sum(axis=-1))
        for q, pts, r, g in zip(params, vals[:, 95:100].tolist(), res.tolist(),
                                mags[:, 10:].tolist()):
            for z, rz in zip(pts, r):
                if not rz <= _ROOT_RESIDUAL_TOL:
                    raise NonConvergence(f"branch point {z!r} has residual {rz:.3e} at a = {q.a!r}")
            for (i, j), gap in zip(_PAIRS, g):
                if not gap > _POINT_SEPARATION:
                    raise DomainError(f"branch points {pts[i]!r} and {pts[j]!r} collide "
                                      f"at a = {q.a!r}")
    # P_ai reads powers that no check above reads
    bad = ~np.isfinite(vals[:, :90]).all(axis=1)
    if bad.any():
        raise NonConvergence(f"P_ai is not finite at a = {params[int(bad.argmax())].a!r}")
    p_ai = vals[:, :90].reshape(-1, 5, 3, 6)
    p_ai.flags.writeable = False
    return p_ai


# ---------------------------------------------------------------------------
# integral identities


def _bare(nodes, a, a3, d0):
    # (1 - a^2 t^2) / sqrt(t (1 - t^3) (a^-3 - a^3 t^3)) on rPD's unit
    # features, d = 1 - t: a^-3 - a^3 t^3 = d0 + a^3 d (1 + t + t^2)
    t, t3, base, d = nodes
    return (((1.0 - a) + a * d) * (1.0 + a * t)
            / np.sqrt(base * (d0 + a3 * (d * (1.0 + t * (1.0 + t))))))


def _mid_features(v):
    return v, 1.0 - v


def _mid(nodes, a, d2, w):
    # (1 - t^2) / sqrt(t (t^3 - a^3) (a^-3 - t^3)) at t = a + w v, w = 1 - a,
    # t - a = w v, 1 - t = w (1 - v): w times its integral is that over (a, 1)
    v, rest_v = nodes
    s = w * v
    t = a + s
    down = w * rest_v
    rest = d2 + down * (1.0 + t * (1.0 + t))
    return down * (1.0 + t) / np.sqrt(t * s * (t * t + a * t + a * a) * rest)


_BARE = Integrand(_bare, 0.0, 1.0, True, True, features=_rpd_unit_features,
                  features_hi=_rpd_unit_near_one)
_MID = Integrand(_mid, 0.0, 1.0, singular_lo=True, features=_mid_features)
# cap's rise, 2 (1 - t) (2t + 1)^2, is its second feature
_UPPER_CAP = Integrand(lambda nodes, a, c: 1.0 / np.sqrt(c + nodes[1]), 0.5, 1.0,
                       singular_hi=True, features=_cap_features, features_hi=_cap_near_one)


def _identity_integrands_H(a: Values) -> dict[str, Integrand]:
    """The integrands that only the H identities use."""
    a3 = _each(lambda x: x ** 3, a)
    # 1/a^3 - a^3 = (1 - a^6)/a^3 and 1/a^3 - 1, both factored
    d0 = _each(lambda x: (1.0 - x) * (1.0 + x) * (1.0 + x * x + x ** 4) / x ** 3, a)
    d2 = _each(lambda x: (1.0 - x) * (1.0 + x + x * x) / x ** 3, a)
    c = _each(lambda x: ((x - 1.0) * (x * x + x + 1.0)) ** 2 / x ** 3, a)
    return {"bare": _BARE.bind((a, a3, d0)), "mid": _MID.bind((a, d2, 1.0 - a)),
            "upper_cap": _UPPER_CAP.bind((a, c))}


def _identities_H(a: float, config: QuadConfig):
    v, _ = _integrate_all({**_integrands_H(a), **_identity_integrands_H(a)}, config)
    return [
        ("H-identity-1", v["bare"] / a, 0.5 * _SQ3 * v["A"]),
        ("H-identity-2", v["B1"], 2.0 * (1.0 - a) * v["mid"] + 4.0 * v["upper_cap"]),
    ]


def _identity_unit_nums(c, t, t3, d):
    tt = t * t
    cubic, alt_cubic = c.cubic(t3), c.alt_cubic(t3)
    return (((1.0 - c.a) + c.a * d) * (1.0 + c.a * t), tt * cubic, cubic, alt_cubic,
            tt * alt_cubic)


# 1 - a^2 t^2 on (0, 1) and on the tail, and the powers on both curves
_IDENTITIES = _rpd_table(("bare_minus", "j5", "j3", "k3", "k5", "tail_minus"),
                         (False, False, False, True, True), _identity_unit_nums,
                         lambda c, t, t3, d: (((1.0 - c.a) - c.a * d) * (1.0 + c.a * t),))


def _identity_integrands_rPD(a: Values) -> dict[str, Integrand]:
    """The integrands that only the rPD identities use."""
    return {"identities": _IDENTITIES.bind(_RPDCurve.columns(a))}


def _identities_rPD(a: float, config: QuadConfig):
    v, _ = _integrate_all({**_integrands_rPD(a), **_identity_integrands_rPD(a)}, config)
    a2 = a * a
    return [
        ("rPD-identity-1", _SQ3 * v["bare_minus"], v["TA"]),
        ("rPD-identity-2", _SQ3 * v["tail_minus"], -v["A"]),
        ("rPD-identity-3", -2.5 / _SQ3 * a2 * v["j5"] + v["j3"] / _SQ3, 0.5 * a2 * v["k3"]),
        ("rPD-identity-4", -10.0 / _SQ3 * a2 * v["j5"] + v["j3"] / _SQ3, 5.0 * v["k5"]),
    ]


def verify_identities(p: SurfaceParam, config: QuadConfig = QuadConfig()):
    """Independently evaluate both sides of the family's exact relations.

    Returns a list of (name, lhs, rhs, |lhs - rhs|).  Only H and rPD
    have such relations; other families raise DomainError.
    """
    validate_param(p)
    if p.family not in ("H", "rPD"):
        raise DomainError(f"no integral identities for family {p.family}")
    rows = (_identities_H if p.family == "H" else _identities_rPD)(p.a, config)
    return [(name, lhs, rhs, abs(lhs - rhs)) for name, lhs, rhs in rows]
