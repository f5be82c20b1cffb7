"""The five surface families: domains, period integrals, period frames.

Every family is described by one real parameter a, admitted in
admissible_range and folded by canonical_param (tD onto tP, negative
tCLP onto positive).  The quantities A..I are singular integrals over
branch-point data; an IntegralSet records them with their family, and
period_frame feeds them into that family's 6x6 matrix of periods,
whose top half determines the lattice and the period ratio tau.  All
integrands are written so that each endpoint singularity sits at
offset zero of the quadrature engine's distance coordinate, with
cancellation-prone factors expanded by hand.  Each family defines its
integrands once, as quadrature tables: one ``Integrand`` with named
rows per interval and set of endpoint forms (H: ``near0`` and
``cap``; rPD: ``unit`` and ``tail``; tP and tCLP: ``periods``).  Each
table computes the radicands its rows share once per node array, and
all the tables of one integral set go to one integrate call;
integral_set and verify_identities read the same tables, the
identities adding their own integrands beside them in their call.  A
table takes its parameter as one float or as an array of N, a stack
of N surfaces integrated together; the constants that depend on a
alone are formed point by point in Python floats, so every point of a
stack is bit for bit the surface alone, and so are its integral set
and period frame.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import linalg
from .errors import DomainError, NonConvergence, RiemannMatrixViolation
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
    """The eight period integrals of one surface, plus provenance.

    A stacked set, from integral_set on a sequence of parameters, holds
    one value per parameter in each numeric field, as (N,) arrays.
    """

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

    def points(self) -> list["IntegralSet"]:
        """The set of each point of a stacked set, in Python floats."""
        rows = np.array([self.A, self.B, self.C, self.D, self.E, self.F, self.H, self.I,
                         self.a, self.err_max]).T.tolist()
        return [IntegralSet(*row[:8], self.family, *row[8:]) for row in rows]


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
    """Integrate every entry of a dict of integrand tables, all in one
    integrate call.

    Returns the values by row name and the largest error estimate, as
    floats for one surface and arrays for a stack.  A table contributes
    one value per named row, a single integrand one value under its key.
    """
    values: dict[str, np.ndarray] = {}
    errs = []
    for (key, f), result in zip(tables.items(), integrate(tables.values(), config)):
        for name, (value, err) in (result.items() if f.names else [(key, result)]):
            values[name] = value
            errs.append(err)
    return values, (np.maximum.reduce(errs) if isinstance(errs[0], np.ndarray) else max(errs))


def _integrands_H(a: Values) -> dict[str, Integrand]:
    a3 = _each(lambda x: x ** 3, a)
    # (a^3 - 1)^2 / a^3 in a form that survives a -> 1
    c = _each(lambda x: ((x - 1.0) * (x * x + x + 1.0)) ** 2 / x ** 3, a)

    def near0(t, a, a3, ia3):
        tt = t * t
        t3 = t ** 3
        rad = (t3 + a3) * (t3 + ia3)
        root = np.sqrt(t * rad)
        rad15 = rad ** 1.5
        t25 = t ** 2.5
        return ((1.0 + tt) / root, (1.0 - tt) / root, t / root,
                t25 * (1.0 + tt) / rad15, t25 * (1.0 - tt) / rad15, t ** 3.5 / rad15)

    def cap_rows(x, pol, span):
        # x and 1 over sqrt(pol span), then over pol^1.5 sqrt(span); span = 1 - x^2
        root = np.sqrt(pol * span)
        den = pol ** 1.5 * np.sqrt(span)
        return x / root, 1.0 / root, x / den, 1.0 / den

    def cap(x, a, a3, ia3, c):
        return cap_rows(x, a3 + ia3 + 6.0 * x - 8.0 * x ** 3, 1.0 - x * x)

    def cap_hi(s, a, a3, ia3, c):
        # a^3 + 1/a^3 + 6x - 8x^3 and 1 - x^2 at x = 1 - s
        return cap_rows(1.0 - s, c + s * (18.0 - s * (24.0 - 8.0 * s)), s * (2.0 - s))

    return {
        "near0": Integrand(near0, 0.0, 1.0, singular_lo=True,
                           names=("A", "B1", "D", "E", "F1", "I"), params=(a, a3, 1.0 / a3)),
        "cap": Integrand(cap, 0.5, 1.0, singular_hi=True, from_hi=cap_hi,
                         names=("B2", "C", "F2", "H"), params=(a, a3, 1.0 / a3, c)),
    }


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


def _rpd_unit(params, names, alt, nums, nums_hi=None) -> Integrand:
    """The table of num_i(t) / sqrt(R_i(t)) on (0, 1), singular at both ends.

    nums(c, t, t3) returns the numerators at the nodes t on the curve c,
    with t3 = t**3.  The offset form near t = 1 expands 1 - t^3 in
    s = 1 - t; nums_hi(c, s, t, t3) replaces the numerators there where
    nums(c, 1 - s, ...) would cancel.
    """
    if nums_hi is None:
        def nums_hi(c, s, t, t3):
            return nums(c, t, t3)

    def rows(c, numerators, base, t3):
        root = None if all(alt) else np.sqrt(base * (c.a3 * t3 + c.ia3))
        alt_root = np.sqrt(base * (c.ia3 * t3 + c.a3)) if any(alt) else None
        return tuple(n / (alt_root if swap else root) for n, swap in zip(numerators, alt))

    def f(t, *cols):
        c = _RPDCurve(*cols)
        t3 = t ** 3
        return rows(c, nums(c, t, t3), t * (1.0 - t3), t3)

    def f_hi(s, *cols):
        # 1 - t^3 = s (3 - 3s + s^2) at t = 1 - s
        c = _RPDCurve(*cols)
        t = 1.0 - s
        t3 = t ** 3
        return rows(c, nums_hi(c, s, t, t3), t * s * (3.0 - s * (3.0 - s)), t3)

    return Integrand(f, 0.0, 1.0, True, True, from_hi=f_hi, names=names, params=params)


def _rpd_tail(params, names, nums, nums_lo=None) -> Integrand:
    """The table of num_i(t) / sqrt(R(t)) on (1, inf), offset s = t - 1,
    with nums_lo(c, s, t, t3) in place of nums at t = 1 + s."""
    if nums_lo is None:
        def nums_lo(c, s, t, t3):
            return nums(c, t, t3)

    def f(t, *cols):
        c = _RPDCurve(*cols)
        t3 = t ** 3
        root = np.sqrt(t * (t3 - 1.0) * (c.a3 * t3 + c.ia3))
        return tuple(n / root for n in nums(c, t, t3))

    def f_lo(s, *cols):
        # t^3 - 1 = s (s^2 + 3s + 3) at t = 1 + s
        c = _RPDCurve(*cols)
        t = 1.0 + s
        t3 = t ** 3
        root = np.sqrt(t * s * (s * (s + 3.0) + 3.0) * (c.a3 * t3 + c.ia3))
        return tuple(n / root for n in nums_lo(c, s, t, t3))

    return Integrand(f, 1.0, math.inf, singular_lo=True, from_lo=f_lo, names=names,
                     params=params)


def _integrands_rPD(a: Values) -> dict[str, Integrand]:
    cols = _RPDCurve.columns(a)

    def unit(c, t, t3):
        at2 = (c.a * t) ** 2
        cubic = c.cubic(t3)
        return (1.0 + at2, t, cubic * (5.0 * at2 + 1.0), cubic * (5.0 * at2 - 1.0),
                t * c.alt_cubic(t3), t * cubic)

    return {
        "unit": _rpd_unit(cols, ("A", "D", "Ep", "Em", "H", "I"),
                          (False, False, False, False, True, False), unit),
        "tail": _rpd_tail(cols, ("TA", "TC"), lambda c, t, t3: (1.0 + (c.a * t) ** 2, t)),
    }


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


def _quartic(t4, a):
    """t^8 + a t^4 + 1 from t4 = t**4, and its square root and 1.5 power."""
    quartic = t4 * t4 + a * t4 + 1.0
    return np.sqrt(quartic), quartic ** 1.5


def _integrands_tP(a: Values) -> dict[str, Integrand]:
    def periods(t, a):
        tt = t * t
        t4 = t ** 4
        root, cube = _quartic(t4, a)
        # 16 t^4 - 16 t^2 + 2 + a, grouped around its minimum
        ridge = 16.0 * (tt - 0.5) ** 2 + (a - 2.0)
        flat = (2.0 + a) * tt * tt + (2.0 * a - 12.0) * tt + (2.0 + a)
        return ((1.0 - tt) / root, (1.0 + tt) / root, t / root,
                t4 * (1.0 - tt) / cube, t4 * (1.0 + tt) / cube, t ** 5 / cube,
                1.0 / np.sqrt(ridge), 1.0 / np.sqrt(flat),
                1.0 / ridge ** 1.5, (1.0 + tt) ** 2 / flat ** 1.5)

    return {"periods": Integrand(periods, 0.0, 1.0, params=(a,),
                                 names=("A1", "B", "C", "E1", "F", "H", "A2", "D", "E2", "I"))}


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


def _integrands_tCLP(a: Values) -> dict[str, Integrand]:
    def periods(t, a, b):
        # tP's B, C, F and H rows over the quartic at +|a| and at -|a|;
        # the latter is t^8 - |a| t^4 + 1 bit for bit
        tt = t * t
        t4 = t ** 4
        t5 = t ** 5
        root_p, cube_p = _quartic(t4, b)
        root_m, cube_m = _quartic(t4, -b)
        even = t4 * (1.0 + tt)
        return ((1.0 + tt) / root_m, (1.0 + tt) / root_p, t / root_p, t / root_m,
                even / cube_m, even / cube_p, t5 / cube_p, t5 / cube_m)

    return {"periods": Integrand(periods, 0.0, 1.0, params=(a, abs(a)),
                                 names=("A", "B", "C", "D", "E", "F", "H", "I"))}


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


def integral_set(p: Union[SurfaceParam, Sequence[SurfaceParam]],
                 config: QuadConfig = QuadConfig()) -> IntegralSet:
    """Compute the eight period integrals of one surface, or of a stack.

    p is one parameter or a sequence of parameters of one family; a
    sequence gives one stacked IntegralSet, each numeric field an (N,)
    array, every point bit for bit the set of that parameter alone.
    tD must be folded onto tP by canonical_param first.  For H the
    parameter may sit on either side of 1 (the two sides describe the
    same surface and give the same integrals); the other families are
    validated against their strict domains.
    """
    single = isinstance(p, SurfaceParam)
    params = (p,) if single else tuple(p)
    if not params:
        raise DomainError("integral_set needs at least one parameter")
    fam = params[0].family
    for q in params:
        if q.family != fam:
            raise DomainError(f"a stack of parameters must share one family, got {fam} and {q.family}")
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
    return IntegralSet(family=fam, a=a, err_max=err, **vals)


# ---------------------------------------------------------------------------
# period frame


@dataclass(frozen=True, slots=True)
class PeriodFrame:
    """The 6x6 period matrix and the period ratio tau = C1^-1 C2 of its
    top 3x6 block [C1 | C2]; stacked, each with a leading parameter axis."""

    omega: np.ndarray
    tau: np.ndarray


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


def _listed(x) -> list:
    """A value per surface as a list: one float, or the entries of an array."""
    return x.tolist() if isinstance(x, np.ndarray) else [x]


def period_frame(integrals: IntegralSet) -> PeriodFrame:
    """Assemble the 6x6 period matrix and the period ratio tau from the
    integrals of one surface, in the period table of integrals.family;
    a stacked set gives a stacked frame, (N, 6, 6) and (N, 3, 3).

    Raises RiemannMatrixViolation, naming the parameter, if tau comes
    out non-symmetric or its imaginary part is not positive definite.
    """
    rows, times_i = _OMEGA_BUILDERS[integrals.family]
    s = integrals
    fields = (s.A, s.B, s.C, s.D, s.E, s.F, s.H, s.I)
    if isinstance(s.a, np.ndarray):
        # each point's rows from Python floats, as for one surface, then one array
        params = s.a.tolist()
        points = np.array(fields).T.tolist()
        shape = (len(params), 6, 6)
    else:
        params, points, shape = [s.a], [fields], (6, 6)
    omega = np.array([x for v in points for row in rows(*v) for x in row], dtype=complex)
    omega = omega.reshape(shape)
    if times_i:
        omega = 1j * omega
    tau = linalg.solve(omega[..., :3, :3], omega[..., :3, 3:])
    im = tau.imag
    im_eigs = linalg.eig_selfadjoint(0.5 * (im + im.swapaxes(-1, -2)))
    checks = zip(params, _listed(linalg.frobenius(tau - tau.swapaxes(-1, -2))),
                 _listed(linalg.frobenius(tau)), im_eigs.reshape(-1, 3).tolist())
    for a, defect, norm, eigs in checks:
        if defect > _TAU_SYM_TOL * max(norm, 1e-300):
            raise RiemannMatrixViolation(f"tau asymmetry {defect:.3e} at a = {a!r}")
        if eigs[-1] <= 0.0:
            raise RiemannMatrixViolation(
                f"Im tau not positive definite at a = {a!r}, eigenvalues {eigs}")
    return PeriodFrame(omega=omega, tau=tau)


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


_ONE = complex(1.0, 0.0)


def _powers(p: complex) -> tuple[list, list]:
    """p ** k and p ** -k for k = 2 .. 6, indexed by k.

    Bit for bit what Python's complex power gives for these exponents:
    square and multiply from 1 (p ** 3 is (1 p) (p p)), and a negative
    power as 1 over the positive one; here the squares are shared.
    """
    p2 = p * p
    p4 = p2 * p2
    s1, s2 = _ONE * p, _ONE * p2
    up = [None, None, s2, s1 * p2, _ONE * p4, s1 * p4, s2 * p4]
    return up, [None, None] + [_ONE / v for v in up[2:]]


def _p_ai_hexagonal(p: complex, sign: float) -> list:
    """P_ai at the branch point p of z (z^3 - a^3) (z^3 - sign a^-3), its
    three rows of six one after the other.

    The last three columns shift by one from row to row, so each of
    their five distinct entries is formed once."""
    up, down = _powers(p)
    e2 = 0.5 * (up[2] - sign * down[4])
    e1 = 0.5 * (p - sign * down[5])
    e3 = 0.5 * (up[3] - sign * down[3])
    return [
        -5.0 / (6.0 * p), -0.5 / up[2], -1.0 / (6.0 * up[3]), e2, e1, 0.5 * (1.0 - sign * down[6]),
        1.0 / 6.0, -0.5 / p, -1.0 / (6.0 * up[2]), e3, e2, e1,
        p / 6.0, 0.5, -1.0 / (6.0 * p), 0.5 * (up[4] - sign * down[2]), e3, e2,
    ]


def _p_ai_tetragonal(p: complex, a: float) -> list:
    """P_ai at the branch point p of z^8 + a z^4 + 1, row after row, each
    distinct entry formed once."""
    up, down = _powers(p)
    t1 = 0.5 * a / p + up[3]
    t2 = 0.5 * a / up[2] + up[2]
    t4 = -0.5 * a - down[4]
    return [
        -0.75 / p, -0.5 / up[2], -0.25 / up[3], t1, t2, 0.5 * a / up[3] + p,
        0.25, -0.5 / p, -0.25 / up[2], t4, t1, t2,
        0.25 * p, 0.5, -0.25 / p, -0.5 * a * p - down[3], t4, t1,
    ]


# H and rPD lie on y^2 = z (z^3 - a^3) (z^3 - sign a^-3) with this sign
_HEX_SIGN = {"H": 1.0, "rPD": -1.0}


def _branch_points(fam: str, a: float) -> tuple[complex, ...]:
    if fam in _HEX_SIGN:
        sign = _HEX_SIGN[fam]
        w = cmath.exp(2j * math.pi / 3.0)
        return (a + 0j, a * w, a * w.conjugate(), sign / a + 0j, sign * w / a)
    if fam == "tP":
        alpha = math.sqrt(0.5 * (math.sqrt(a + 2.0) + math.sqrt(a - 2.0)))
        e = cmath.exp(0.25j * math.pi)
        return (e * alpha, 1j * e * alpha, e.conjugate() * alpha,
                -1j * e.conjugate() * alpha, e / alpha)
    # tCLP: angle of -a/2 + i sqrt(4 - a^2)/2, a point on the unit circle
    angle = math.atan2(0.5 * math.sqrt((2.0 - a) * (2.0 + a)), -0.5 * a)
    z = cmath.exp(0.25j * angle)
    return (z, 1j * z, -z, -1j * z, z.conjugate())


def _residual_scale(fam: str, a: float, z: complex) -> float:
    r = abs(z)
    if fam in ("tP", "tCLP"):
        return max(1.0, r ** 8 + abs(a) * r ** 4 + 1.0)
    a3 = a ** 3
    return max(1.0, r * (r ** 3 + a3) * (r ** 3 + 1.0 / a3))


def _curve_poly(fam: str, a: float, z: complex) -> complex:
    if fam in _HEX_SIGN:
        return z * (z ** 3 - a ** 3) * (z ** 3 - _HEX_SIGN[fam] * a ** -3)
    return z ** 8 + a * z ** 4 + 1.0


_ROOT_RESIDUAL_TOL = 1e-10
_POINT_SEPARATION = 1e-8


def deformation_data(p: SurfaceParam) -> np.ndarray:
    """Derivatives of the period integrands in the five branch points.

    p must be canonical.  Checks that each branch point lies on the
    curve and that no two collide, then returns the 3x6 matrix P_ai of
    every point as one read-only (5, 3, 6) array; the tangent frame
    maps it through the constant matrices P1 and P2.
    """
    validate_param(p)
    if canonical_param(p) is not p:
        raise DomainError(f"{p} folds onto {canonical_param(p)}; apply canonical_param first")
    fam, a = p.family, p.a
    pts = _branch_points(fam, a)

    for z in pts:
        res = abs(_curve_poly(fam, a, z)) / _residual_scale(fam, a, z)
        if res > _ROOT_RESIDUAL_TOL:
            raise NonConvergence(f"branch point {z!r} has residual {res:.3e}")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) <= _POINT_SEPARATION:
                raise DomainError(f"branch points {pts[i]!r} and {pts[j]!r} collide")

    sign = _HEX_SIGN.get(fam)
    entries = [x for z in pts
               for x in (_p_ai_tetragonal(z, a) if sign is None else _p_ai_hexagonal(z, sign))]
    p_ai = np.array(entries, dtype=complex).reshape(len(pts), 3, 6)
    p_ai.flags.writeable = False
    return p_ai


# ---------------------------------------------------------------------------
# integral identities


def _identity_integrands_H(a: float) -> dict[str, Integrand]:
    """The integrands that only the H identities use, at one surface:
    the interval of "mid" starts at a."""
    a3 = _each(lambda x: x ** 3, a)
    # 1/a^3 - a^3 = (1 - a^6)/a^3 and 1/a^3 - 1, both factored
    d0 = _each(lambda x: (1.0 - x) * (1.0 + x) * (1.0 + x * x + x ** 4) / x ** 3, a)
    d2 = _each(lambda x: (1.0 - x) * (1.0 + x + x * x) / x ** 3, a)
    c = _each(lambda x: ((x - 1.0) * (x * x + x + 1.0)) ** 2 / x ** 3, a)

    def bare(t, a, a3, d0):
        return (1.0 - (a * t) ** 2) / np.sqrt(t * (1.0 - t ** 3) * (1.0 / a3 - a3 * t ** 3))

    def bare_hi(s, a, a3, d0):
        return (1.0 - a + a * s) * (1.0 + a - a * s) / np.sqrt(
            (1.0 - s) * s * (3.0 - s * (3.0 - s)) * (d0 + a3 * s * (3.0 - s * (3.0 - s))))

    def mid_plain(t, a, a3, d2):
        rest = d2 + (1.0 - t) * (1.0 + t * (1.0 + t))
        return (1.0 - t) * (1.0 + t) / np.sqrt(t * (t ** 3 - a3) * rest)

    def mid_lo(s, a, a3, d2):
        t = a + s
        rest = d2 + (1.0 - a - s) * (1.0 + t * (1.0 + t))
        return (1.0 - a - s) * (1.0 + a + s) / np.sqrt(t * s * (t * t + a * t + a * a) * rest)

    return {
        "bare": Integrand(bare, 0.0, 1.0, True, True, from_hi=bare_hi, params=(a, a3, d0)),
        "mid": Integrand(mid_plain, a, 1.0, singular_lo=True, from_lo=mid_lo,
                         params=(a, a3, d2)),
        "cap": Integrand(lambda t, a, c: 1.0 / np.sqrt(c + 2.0 * (1.0 - t) * (2.0 * t + 1.0) ** 2),
                         0.5, 1.0, params=(a, c)),
    }


def _identities_H(a: float, config: QuadConfig):
    v, _ = _integrate_all({"near0": _integrands_H(a)["near0"], **_identity_integrands_H(a)},
                          config)
    rows = [
        ("H-identity-1", v["bare"] / a, 0.5 * _SQ3 * v["A"]),
        ("H-identity-2", v["B1"], 2.0 * v["mid"] + 4.0 * v["cap"]),
    ]
    return [(name, lhs, rhs, abs(lhs - rhs)) for name, lhs, rhs in rows]


def _identity_integrands_rPD(a: float) -> dict[str, Integrand]:
    """The integrands that only the rPD identities use."""
    def minus(c, t, t3):
        return ((1.0 - c.a * t) * (1.0 + c.a * t),)

    def powers(c, t, t3):
        tt = t * t
        cubic, alt_cubic = c.cubic(t3), c.alt_cubic(t3)
        return tt * cubic, cubic, alt_cubic, tt * alt_cubic

    cols = _RPDCurve.columns(a)
    return {
        "unit_minus": _rpd_unit(
            cols, ("bare_minus", "j5", "j3", "k3", "k5"), (False, False, False, True, True),
            lambda c, t, t3: minus(c, t, t3) + powers(c, t, t3),
            nums_hi=lambda c, s, t, t3: (((1.0 - c.a) + c.a * s) * (1.0 + c.a * (1.0 - s)),)
            + powers(c, t, t3)),
        "tail_minus": _rpd_tail(
            cols, ("tail_minus",), minus,
            nums_lo=lambda c, s, t, t3: (((1.0 - c.a) - c.a * s) * (1.0 + c.a * (1.0 + s)),)),
    }


def _identities_rPD(a: float, config: QuadConfig):
    v, _ = _integrate_all({**_integrands_rPD(a), **_identity_integrands_rPD(a)}, config)
    a2 = a * a
    rows = [
        ("rPD-identity-1", _SQ3 * v["bare_minus"], v["TA"]),
        ("rPD-identity-2", _SQ3 * v["tail_minus"], -v["A"]),
        ("rPD-identity-3", -2.5 / _SQ3 * a2 * v["j5"] + v["j3"] / _SQ3, 0.5 * a2 * v["k3"]),
        ("rPD-identity-4", -10.0 / _SQ3 * a2 * v["j5"] + v["j3"] / _SQ3, 5.0 * v["k5"]),
    ]
    return [(name, lhs, rhs, abs(lhs - rhs)) for name, lhs, rhs in rows]


def verify_identities(p: SurfaceParam, config: QuadConfig = QuadConfig()):
    """Independently evaluate both sides of the family's exact relations.

    Returns a list of (name, lhs, rhs, |lhs - rhs|).  Only H and rPD
    have such relations; other families raise DomainError.
    """
    validate_param(p)
    if p.family == "H":
        return _identities_H(p.a, config)
    if p.family == "rPD":
        return _identities_rPD(p.a, config)
    raise DomainError(f"no integral identities for family {p.family}")
