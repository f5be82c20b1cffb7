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

Integrands are vectorized: each is called on a 1-D array of nodes and
must return an array of the same shape, or ``integrate`` raises
TypeError.  The stopping test first runs at level 3, so levels 0-3 are
always needed; their nodes form one cached block, each side of the
interval is evaluated on it in one call, and each level is summed by
its own dot product over its slice of the block, exactly as if the
levels had been evaluated one by one.  Levels 4 and up take one call
per side each.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NonConvergence

# Node abscissas beyond this |t| contribute below 1e-38 even against an
# inverse-square-root blowup, and every intermediate stays finite.
_T_MAX = 4.85

# The first level at which the stopping test runs; every level up to
# and including it is evaluated in one block.
_FIRST_TEST_LEVEL = 3


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
    """An integrand on (lo, hi) with optional endpoint-offset forms.

    evaluator   plain f(x); called on a 1-D array of nodes, returns an
                array of the same shape
    lo, hi      interval endpoints; hi may be math.inf for tails
    singular_lo / singular_hi
                whether f blows up at the endpoint (at worst like an
                inverse square root)
    from_lo     f expressed in the distance s = x - lo, exact for all
                s in (0, hi - lo); used for nodes in the lower half
    from_hi     f expressed in s = hi - x; used for the upper half

    The offset forms take and return arrays as the evaluator does.  A
    singular endpoint other than 0 requires its offset form: the plain
    path cannot resolve the distance to it, and construction raises
    ValueError without one.
    """

    evaluator: Callable
    lo: float
    hi: float
    singular_lo: bool = False
    singular_hi: bool = False
    from_lo: Optional[Callable] = None
    from_hi: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.singular_lo and self.lo != 0.0 and self.from_lo is None:
            raise ValueError(f"singular endpoint lo = {self.lo!r} needs its from_lo form")
        if self.singular_hi and self.hi != 0.0 and self.from_hi is None:
            raise ValueError(f"singular endpoint hi = {self.hi!r} needs its from_hi form")


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


def _apply(fn: Callable, arg: np.ndarray) -> np.ndarray:
    out = np.asarray(fn(arg), dtype=float)
    if out.shape != arg.shape:
        raise TypeError(
            f"integrand must map an array of shape {arg.shape} to one of the same shape, "
            f"got shape {out.shape}"
        )
    return out


def _reject_nonfinite(vals: np.ndarray, x: np.ndarray) -> None:
    bad = float(x[~np.isfinite(vals)][0])
    raise DomainError(f"integrand returned a non-finite value near x = {bad!r}")


def _side_values(f: Integrand, half: float, d_near: np.ndarray, upper: bool) -> np.ndarray:
    """Evaluate f at the nodes at distances half * d_near from one endpoint."""
    s = half * d_near
    form = f.from_hi if upper else f.from_lo
    vals = _apply(f.evaluator, f.hi - s if upper else f.lo + s) if form is None else _apply(form, s)
    if not np.isfinite(vals).all():
        _reject_nonfinite(vals, f.hi - s if upper else f.lo + s)
    return vals


def _level_sum(w: np.ndarray, hi_vals: np.ndarray, lo_vals: np.ndarray) -> float:
    return float(np.dot(w, hi_vals)) + float(np.dot(w, lo_vals))


def integrate(f: Integrand, config: QuadConfig = QuadConfig()) -> tuple[float, float]:
    """Integrate f over its finite interval.

    Returns (value, err_estimate) where the estimate is the change at
    the last level refinement.  Raises NonConvergence if the budget is
    exhausted, DomainError on a bad interval or a non-finite integrand
    value, and TypeError if the integrand does not map a node array to
    an array of the same shape.
    """
    lo, hi = f.lo, f.hi
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integrate requires a finite interval; use integrate_tail")
    if not lo < hi:
        raise DomainError(f"empty interval ({lo}, {hi})")
    half = 0.5 * (hi - lo)

    # Overflow in intermediates is tolerated (a blown-up radicand under
    # a square root yields a clean zero); non-finite results are still
    # rejected by _side_values.
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        d_fused, fused = _fused_nodes()
        hi_fused = _side_values(f, half, d_fused, upper=True)
        lo_fused = _side_values(f, half, d_fused, upper=False)
        mid = np.array([lo + half])
        centre = _apply(f.evaluator, mid)
        if not np.isfinite(centre).all():
            _reject_nonfinite(centre, mid)
        sums = [_level_sum(w, hi_fused[sl], lo_fused[sl]) for w, sl in fused]

        trapezoid = sums[0] + 0.5 * math.pi * float(centre[0])
        value = half * trapezoid
        err = math.inf
        for level in range(1, config.max_level + 1):
            if level <= _FIRST_TEST_LEVEL:
                term = sums[level]
            else:
                w, d_near = _nodes(level)
                term = _level_sum(w, _side_values(f, half, d_near, upper=True),
                                  _side_values(f, half, d_near, upper=False))
            trapezoid = 0.5 * trapezoid + 0.5 ** level * term
            new_value = half * trapezoid
            err = abs(new_value - value)
            value = new_value
            if level >= _FIRST_TEST_LEVEL and err <= max(config.target_rel_tol * abs(value), config.abs_floor):
                return value, err
    raise NonConvergence(
        f"tanh-sinh did not reach tolerance by level {config.max_level}: "
        f"value {value!r}, last change {err!r}"
    )


def integrate_tail(f: Integrand, config: QuadConfig = QuadConfig()) -> tuple[float, float]:
    """Integrate f over (1, inf) by folding with t = 1/u.

    The integrand must decay at least like t**-3/2; a singularity at
    the finite end is supported through the usual flags and offset
    form.  The fold maps from_lo, expressed in s = t - 1, onto the
    transformed upper endpoint exactly.
    """
    if not (f.lo == 1.0 and math.isinf(f.hi)):
        raise DomainError("integrate_tail expects the interval (1, inf)")

    ev = f.evaluator

    def folded(u):
        t = 1.0 / u
        return ev(t) / (u * u)

    folded_from_hi = None
    if f.from_lo is not None:
        base = f.from_lo

        def folded_from_hi(sigma):
            r = 1.0 - sigma
            return base(sigma / r) / (r * r)

    inner = Integrand(
        evaluator=folded,
        lo=0.0,
        hi=1.0,
        singular_lo=True,
        singular_hi=f.singular_lo,
        from_hi=folded_from_hi,
    )
    return integrate(inner, config)
