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

An integrand on (1, inf) is folded onto (0, 1) by t = 1/u inside
``integrate``; every other infinite interval is refused.

Integrands are vectorized: each form is called on a 1-D array of n
nodes and returns an array of shape (n,), or ``integrate`` raises
TypeError.  An ``Integrand`` with ``names`` is a table of k integrands
that share the interval and the forms; its forms return k rows, shape
(k, n), and compute the subexpressions the rows share once per call.
A single integrand is the table of one unnamed row.

The stopping test first runs at level 3, and most integrals in this
package stop at level 4 or 5, so the nodes of levels 0-5 form one
cached block.  Each distinct form is called once on the nodes of every
side that uses it for that block, and once more for each later level:
a table without offset forms is evaluated on both halves of levels 0-5
and the midpoint in a single call.  Each row keeps its own trapezoid
sum and its own stopping level; the rows still active at a level are
summed in one stacked dot product per side, which runs each row
through the same BLAS dot as ``np.dot``, so every row's (value, err)
is bit for bit what integrating it alone level by level gives.  A row
that has stopped is no longer read: a non-finite value it produces at
a later level, inside the block or after it, is ignored, while one in
a row still being refined raises DomainError.
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

# The first level at which the stopping test runs.
_FIRST_TEST_LEVEL = 3

# Levels 0 .. _FUSED_LEVEL are evaluated in one block, 155 nodes per side.
_FUSED_LEVEL = 5

# The last level refined before NonConvergence, and the absolute error
# that passes the stopping test whatever the value.
_MAX_LEVEL = 12
_ABS_FLOOR = 1e-15

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
    """The distances of levels 0 .. _FUSED_LEVEL in one array.

    Returns (d_near, levels) where levels[k] = (w, sl) holds the
    weights of level k and the slice of d_near that carries its nodes.
    """
    parts = [_nodes(level) for level in range(_FUSED_LEVEL + 1)]
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
    lo, hi      interval endpoints; (1, math.inf) is a tail, which
                integrate folds onto (0, 1)
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
    """The relative tolerance of one integration."""

    target_rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.target_rel_tol > 0.0 and math.isfinite(self.target_rel_tol)):
            raise ValueError("target_rel_tol must be positive and finite")


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


def _sides(f: Integrand, half: float, d_near: np.ndarray,
           mid: Optional[float] = None) -> list[np.ndarray]:
    """Evaluate f at the distances half * d_near from each endpoint, and at mid.

    Returns [hi_vals, lo_vals] (and the midpoint column if mid is given),
    each of shape (rows, nodes).  An offset form is called on its own
    side; the evaluator is called once, on the nodes of every other
    part.  The values are not checked here: integrate reads each level
    of a row only while the row is active, and checks what it reads.
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
    return blocks


def _level_sums(w: np.ndarray, hi_vals: np.ndarray, lo_vals: np.ndarray) -> np.ndarray:
    """Each row's weighted sum over both sides, one stacked dot product per side.

    (k, 1, n) @ (n, 1) runs every row through the same BLAS dot as
    np.dot(w, row), so each sum is bit for bit the one-row sum.
    """
    col = w[:, None]
    return (hi_vals[:, None, :] @ col)[:, 0, 0] + (lo_vals[:, None, :] @ col)[:, 0, 0]


def _raise_nonfinite(f: Integrand, half: float, d_near: np.ndarray,
                     parts: tuple[np.ndarray, ...]) -> None:
    """Raise DomainError at the first node where a row of parts is not finite.

    parts are the hi and lo values (and the midpoint column) of the
    rows being read.  Returns if every value is finite: a sum that
    overflowed is not a domain error.
    """
    s = half * d_near
    for vals, x in zip(parts, (f.hi - s, f.lo + s, [f.lo + half])):
        bad = ~np.isfinite(vals).all(axis=0)
        if bad.any():
            raise DomainError(
                f"integrand returned a non-finite value near x = {float(np.asarray(x)[bad][0])!r}")


def _fold(f: Integrand) -> Integrand:
    """f on (1, inf) as an integrand on (0, 1), by t = 1/u.

    The integrand must decay at least like t**-3/2; a singularity at
    t = 1 is supported through the usual flag and offset form, and the
    fold maps from_lo, expressed in s = t - 1, onto the upper endpoint
    exactly.
    """
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

    return Integrand(evaluator=folded, lo=0.0, hi=1.0, singular_lo=True,
                     singular_hi=f.singular_lo, from_hi=folded_from_hi, names=f.names)


def integrate(f: Integrand, config: QuadConfig = QuadConfig()) -> Result:
    """Integrate f over its interval, finite or (1, inf).

    Returns (value, err_estimate) for a plain integrand and a dict
    {name: (value, err_estimate)} for a table; the estimate is the
    change at the last level refinement of that row.  Raises
    NonConvergence if any row exhausts the budget, DomainError on a bad
    interval or a non-finite value in a row still being refined, and
    TypeError if a form does not map a node array to the expected shape.
    """
    if f.lo == 1.0 and f.hi == math.inf:
        f = _fold(f)
    lo, hi = f.lo, f.hi
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"integrate requires a finite interval or (1, inf), got ({lo}, {hi})")
    if not lo < hi:
        raise DomainError(f"empty interval ({lo}, {hi})")
    half = 0.5 * (hi - lo)
    tol = config.target_rel_tol

    # Overflow in intermediates is tolerated (a blown-up radicand under
    # a square root yields a clean zero); a non-finite value in a row
    # being read is still rejected.
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        d_fused, fused = _fused_nodes()
        hi_block, lo_block, centre = _sides(f, half, d_fused, mid=lo + half)
        w, sl = fused[0]
        hi_vals, lo_vals = hi_block[:, sl], lo_block[:, sl]
        # a non-finite value makes its row's sum non-finite, so the
        # values are searched only when a sum is
        trapezoid = _level_sums(w, hi_vals, lo_vals) + 0.5 * math.pi * centre[:, 0]
        if not np.isfinite(trapezoid).all():
            _raise_nonfinite(f, half, d_fused[sl], (hi_vals, lo_vals, centre))
        value = half * trapezoid
        n_rows = len(value)
        err = np.full(n_rows, math.inf)
        active = np.arange(n_rows)
        for level in range(1, _MAX_LEVEL + 1):
            if level <= _FUSED_LEVEL:
                w, sl = fused[level]
                d_near = d_fused[sl]
                hi_vals, lo_vals = hi_block[:, sl], lo_block[:, sl]
            else:
                w, d_near = _nodes(level)
                hi_vals, lo_vals = _sides(f, half, d_near)
            if len(active) < n_rows:
                hi_vals, lo_vals = hi_vals[active], lo_vals[active]
            term = _level_sums(w, hi_vals, lo_vals)
            if not np.isfinite(term).all():
                _raise_nonfinite(f, half, d_near, (hi_vals, lo_vals))
            t = 0.5 * trapezoid[active] + 0.5 ** level * term
            new_value = half * t
            err[active] = np.abs(new_value - value[active])
            trapezoid[active] = t
            value[active] = new_value
            if level >= _FIRST_TEST_LEVEL:
                done = err[active] <= np.maximum(tol * np.abs(new_value), _ABS_FLOOR)
                active = active[~done]
                if not len(active):
                    results = list(zip(value.tolist(), err.tolist()))
                    return dict(zip(f.names, results)) if f.names else results[0]
    r = int(active[0])
    row = f" in row {f.names[r]!r}" if f.names else ""
    raise NonConvergence(
        f"tanh-sinh did not reach tolerance by level {_MAX_LEVEL}{row}: "
        f"value {float(value[r])!r}, last change {float(err[r])!r}"
    )

