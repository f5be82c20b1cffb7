"""Tanh-sinh quadrature for integrands with endpoint singularities.

The substitution x = tanh((pi/2) sinh t) maps (-1, 1) to the real line
and turns inverse-square-root endpoint blowups into integrands that
decay double-exponentially in t, so the trapezoid rule converges at
spectral rate.  Levels halve the step; abscissas of earlier levels are
reused.

Accuracy near a singular endpoint is limited by how precisely the
distance to that endpoint is known.  The node distance

    1 - u = 2 / (1 + exp(2g)),   g = (pi/2) sinh t

is computed directly, never as a subtraction, and each half of the
interval is measured from its own endpoint.  An integrand that accepts
the distance as its argument (the ``from_lo`` / ``from_hi`` forms of
``Integrand``) therefore sees it to full relative precision.  The plain
``evaluator(x)`` path sees x = lo + s or x = hi - s, which is exact
only where the endpoint is 0; so a singular endpoint anywhere else must
come with its offset form, and ``Integrand`` refuses it otherwise.

Integrands are vectorized: each form is called on a 1-D array of n
nodes and returns an array of shape (n,), or ``integrate`` raises
TypeError.  An ``Integrand`` with ``names`` is a table of k integrands
that share the interval and the forms; its forms return k rows, shape
(k, n), and compute the subexpressions the rows share once per call.
A single integrand is the table of one unnamed row.

The stopping test first runs at level 3, so levels 0-3 are always
needed; their nodes form one cached block.  Each distinct form is
called once per level on the nodes of every side that uses it: a table
without offset forms is evaluated on both halves of levels 0-3 and the
midpoint in a single call, and on both halves of each later level in
one more.  Each row keeps its own trapezoid sum, one dot product per
side per level over its slice of the block, and its own stopping
level, so every row's (value, err) is bit for bit what integrating it
alone level by level gives.  A row that has stopped is no longer read:
a non-finite value it produces at a later level is ignored, while one
in a row still being refined raises DomainError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, NonConvergence

# Node abscissas beyond this |t| contribute below 1e-38 even against an
# inverse-square-root blowup, and every intermediate stays finite.
_T_MAX = 4.85

# The first level at which the stopping test runs; every level up to
# and including it is evaluated in one block.
_FIRST_TEST_LEVEL = 3

# (value, err_estimate) of one integrand, or of each named row of a table
Result = Union[tuple[float, float], dict[str, tuple[float, float]]]


@functools.cache
def _nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights and endpoint distances for the positive abscissas new at this level.

    Returns (w, d_near) where for a node at t > 0 mapped to
    u = tanh((pi/2) sinh t), d_near = 1 - u.  The mirror node at -t
    lies at the same distance from the other endpoint.  t = 0 (level 0
    only) is handled by the caller.
    """
    h = 0.5 ** level
    if level == 0:
        js = np.arange(1, int(_T_MAX / h) + 1)
    else:
        js = np.arange(1, int(_T_MAX / h) + 1, 2)
    t = js * h
    g = 0.5 * math.pi * np.sinh(t)
    w = 0.5 * math.pi * np.cosh(t) / np.cosh(g) ** 2
    d_near = 2.0 / (1.0 + np.exp(2.0 * g))
    # cached and shared by every caller
    w.flags.writeable = d_near.flags.writeable = False
    return w, d_near


@functools.cache
def _fused_nodes() -> tuple[np.ndarray, tuple[tuple[np.ndarray, slice], ...]]:
    """The distances of levels 0 .. _FIRST_TEST_LEVEL in one array.

    Returns (d_near, levels) where levels[k] = (w, sl) holds the
    weights of level k and the slice of d_near that carries its nodes.
    """
    parts = [_nodes(level) for level in range(_FIRST_TEST_LEVEL + 1)]
    levels = []
    start = 0
    for w, d in parts:
        levels.append((w, slice(start, start + len(d))))
        start += len(d)
    d_near = np.concatenate([d for _, d in parts])
    d_near.flags.writeable = False
    return d_near, tuple(levels)


@dataclass(frozen=True)
class Integrand:
    """An integrand, or a table of integrands, on (lo, hi) with optional endpoint-offset forms.

    evaluator   plain f(x); called on a 1-D array of nodes, returns an
                array of the same shape, or for a table one row per name
                (shape (len(names), nodes), e.g. a tuple of row arrays)
    lo, hi      interval endpoints; hi may be math.inf for tails
    singular_lo / singular_hi
                whether f blows up at the endpoint (at worst like an
                inverse square root)
    from_lo     f expressed in the distance s = x - lo, exact for all
                s in (0, hi - lo); used for nodes in the lower half
    from_hi     f expressed in s = hi - x; used for the upper half
    names       row names of a table; empty for a single integrand

    The offset forms take and return arrays as the evaluator does.  A
    singular endpoint other than 0 requires its offset form: the plain
    path cannot resolve the distance to it, and construction raises
    ValueError without one.  The rows of a table share the interval,
    the flags and the forms, so their common subexpressions can be
    computed once per call.
    """

    evaluator: Callable
    lo: float
    hi: float
    singular_lo: bool = False
    singular_hi: bool = False
    from_lo: Optional[Callable] = None
    from_hi: Optional[Callable] = None
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.singular_lo and self.lo != 0.0 and self.from_lo is None:
            raise ValueError(f"singular endpoint lo = {self.lo!r} needs its from_lo form")
        if self.singular_hi and self.hi != 0.0 and self.from_hi is None:
            raise ValueError(f"singular endpoint hi = {self.hi!r} needs its from_hi form")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"row names must be distinct, got {self.names!r}")


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budget for one integration."""

    target_rel_tol: float = 1e-12
    max_level: int = 12
    abs_floor: float = 1e-15

    def __post_init__(self) -> None:
        if not (self.target_rel_tol > 0.0):
            raise ValueError("target_rel_tol must be positive")
        if self.max_level < 4:
            raise ValueError("max_level must be at least 4")
        if not (self.abs_floor > 0.0):
            raise ValueError("abs_floor must be positive")


def _as_rows(out) -> np.ndarray:
    """A form's value as a float array; rows of unequal shapes raise TypeError."""
    try:
        return np.asarray(out, dtype=float)
    except ValueError as exc:
        raise TypeError(f"integrand rows must each map the node array: {exc}") from exc


def _apply(f: Integrand, fn: Callable, arg: np.ndarray) -> np.ndarray:
    """fn (a form of f) at the nodes arg, as a (rows, nodes) array."""
    out = _as_rows(fn(arg))
    want = (len(f.names), len(arg)) if f.names else arg.shape
    if out.shape != want:
        raise TypeError(
            f"integrand must map an array of shape {arg.shape} to one of shape {want}, "
            f"got shape {out.shape}"
        )
    return out.reshape(-1, len(arg))


def _sides(f: Integrand, half: float, d_near: np.ndarray, active: Optional[list] = None,
           mid: Optional[float] = None) -> list[np.ndarray]:
    """Evaluate f at the distances half * d_near from each endpoint, and at mid.

    Returns [hi_vals, lo_vals] (and the midpoint column if mid is given),
    each of shape (rows, nodes).  An offset form is called on its own
    side; the evaluator is called once, on the nodes of every other
    part.  A non-finite value in an active row (every row when active
    is None) raises DomainError; the other rows are not read.
    """
    s = half * d_near
    xs = [f.hi - s, f.lo + s] + ([np.array([mid])] if mid is not None else [])
    forms = [f.from_hi, f.from_lo]
    calls = [(form, s, [i]) for i, form in enumerate(forms) if form is not None]
    plain = [i for i in range(len(xs)) if i == 2 or forms[i] is None]
    if plain:
        calls.append((f.evaluator, np.concatenate([xs[i] for i in plain]), plain))
    blocks: list = [None] * len(xs)
    for fn, arg, parts in calls:
        vals = _apply(f, fn, arg)
        start = 0
        for i in parts:
            blocks[i] = vals[:, start:start + len(xs[i])]
            start += len(xs[i])
        if not np.isfinite(vals).all():
            for i in parts:
                rows = blocks[i] if active is None else blocks[i][active]
                bad = ~np.isfinite(rows).all(axis=0)
                if bad.any():
                    raise DomainError(
                        f"integrand returned a non-finite value near x = {float(xs[i][bad][0])!r}")
    return blocks


def _level_sum(w: np.ndarray, hi_vals: np.ndarray, lo_vals: np.ndarray) -> float:
    return float(np.dot(w, hi_vals)) + float(np.dot(w, lo_vals))


def integrate(f: Integrand, config: QuadConfig = QuadConfig()) -> Result:
    """Integrate f over its finite interval.

    Returns (value, err_estimate) for a plain integrand and a dict
    {name: (value, err_estimate)} for a table; the estimate is the
    change at the last level refinement of that row.  Raises
    NonConvergence if any row exhausts the budget, DomainError on a bad
    interval or a non-finite value in a row still being refined, and
    TypeError if a form does not map a node array to the expected shape.
    """
    lo, hi = f.lo, f.hi
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integrate requires a finite interval; use integrate_tail")
    if not lo < hi:
        raise DomainError(f"empty interval ({lo}, {hi})")
    half = 0.5 * (hi - lo)
    rows = range(len(f.names) or 1)

    # Overflow in intermediates is tolerated (a blown-up radicand under
    # a square root yields a clean zero); non-finite results are still
    # rejected by _sides.
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        d_fused, fused = _fused_nodes()
        hi_vals, lo_vals, centre = _sides(f, half, d_fused, mid=lo + half)
        w, sl = fused[0]
        trapezoid = [_level_sum(w, hi_vals[r, sl], lo_vals[r, sl])
                     + 0.5 * math.pi * float(centre[r, 0]) for r in rows]
        value = [half * t for t in trapezoid]
        err = [math.inf] * len(rows)
        active = list(rows)
        for level in range(1, config.max_level + 1):
            if level <= _FIRST_TEST_LEVEL:
                w, sl = fused[level]
            else:
                w, d_near = _nodes(level)
                hi_vals, lo_vals = _sides(f, half, d_near, active)
                sl = slice(None)
            step = 0.5 ** level
            for r in active:
                term = _level_sum(w, hi_vals[r, sl], lo_vals[r, sl])
                trapezoid[r] = 0.5 * trapezoid[r] + step * term
                new_value = half * trapezoid[r]
                err[r] = abs(new_value - value[r])
                value[r] = new_value
            if level >= _FIRST_TEST_LEVEL:
                tol, floor = config.target_rel_tol, config.abs_floor
                active = [r for r in active if not err[r] <= max(tol * abs(value[r]), floor)]
                if not active:
                    results = list(zip(value, err))
                    return dict(zip(f.names, results)) if f.names else results[0]
    r = active[0]
    row = f" in row {f.names[r]!r}" if f.names else ""
    raise NonConvergence(
        f"tanh-sinh did not reach tolerance by level {config.max_level}{row}: "
        f"value {value[r]!r}, last change {err[r]!r}"
    )


def integrate_tail(f: Integrand, config: QuadConfig = QuadConfig()) -> Result:
    """Integrate f, a single integrand or a table, over (1, inf) by folding with t = 1/u.

    Returns what integrate returns.  The integrand must decay at least
    like t**-3/2; a singularity at the finite end is supported through
    the usual flags and offset form.  The fold maps from_lo, expressed
    in s = t - 1, onto the transformed upper endpoint exactly.
    """
    if not (f.lo == 1.0 and math.isinf(f.hi)):
        raise DomainError("integrate_tail expects the interval (1, inf)")

    ev = f.evaluator

    def folded(u):
        t = 1.0 / u
        return _as_rows(ev(t)) / (u * u)

    folded_from_hi = None
    if f.from_lo is not None:
        base = f.from_lo

        def folded_from_hi(sigma):
            r = 1.0 - sigma
            return _as_rows(base(sigma / r)) / (r * r)

    inner = Integrand(
        evaluator=folded,
        lo=0.0,
        hi=1.0,
        singular_lo=True,
        singular_hi=f.singular_lo,
        from_hi=folded_from_hi,
        names=f.names,
    )
    return integrate(inner, config)
