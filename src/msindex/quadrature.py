"""Tanh-sinh quadrature for integrands with endpoint singularities.

The substitution x = tanh((pi/2) sinh t) maps (-1, 1) to the real line
and turns inverse-square-root endpoint blowups into integrands that
decay double-exponentially in t, so the trapezoid rule converges at
spectral rate.  Levels halve the step; abscissas of earlier levels are
reused.

Accuracy near a singular endpoint is limited by how precisely the
distance to that endpoint is known.  The node distances

    1 - u = 2 / (1 + exp(2g)),   1 + u = 2 / (1 + exp(-2g)),
    g = (pi/2) sinh t

are computed directly, never as a subtraction, so an integrand that
accepts the distance as its argument (the ``from_lo`` / ``from_hi``
forms below) sees it to full relative precision.  The plain
``evaluator(x)`` path clips x off a singular endpoint and is accurate
to roughly sqrt(eps) in absolute terms, which is fine for integrands
that are singular only at 0 where x itself equals the distance.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NonConvergence

# Node abscissas beyond this |t| contribute below 1e-38 even against an
# inverse-square-root blowup, and every intermediate stays finite.
_T_MAX = 4.85

_node_lock = threading.Lock()
_node_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _build_level(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights and endpoint distances for the positive abscissas new at this level.

    Returns (w, d_near, d_far) where for a node at t > 0 mapped to
    u = tanh((pi/2) sinh t), d_near = 1 - u and d_far = 1 + u.  The
    mirror node at -t swaps the two distances.  t = 0 (level 0 only)
    is handled by the caller.
    """
    h = 0.5 ** level
    if level == 0:
        js = np.arange(1, int(_T_MAX / h) + 1)
    else:
        js = np.arange(1, int(_T_MAX / h) + 1, 2)
    t = js * h
    g = 0.5 * math.pi * np.sinh(t)
    w = 0.5 * math.pi * np.cosh(t) / np.cosh(g) ** 2
    e2g = np.exp(2.0 * g)
    d_near = 2.0 / (1.0 + e2g)
    d_far = 2.0 / (1.0 + 1.0 / e2g)
    return w, d_near, d_far


def _nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with _node_lock:
        block = _node_cache.get(level)
        if block is None:
            block = _build_level(level)
            _node_cache[level] = block
    return block


@dataclass(frozen=True)
class Integrand:
    """An integrand on (lo, hi) with optional endpoint-offset forms.

    evaluator   plain f(x); must accept numpy arrays or scalars
    lo, hi      interval endpoints; hi may be math.inf for tails
    singular_lo / singular_hi
                whether f blows up at the endpoint (at worst like an
                inverse square root)
    from_lo     f expressed in the distance s = x - lo, exact for all
                s in (0, hi - lo); used for nodes in the lower half
    from_hi     f expressed in s = hi - x; used for the upper half
    """

    evaluator: Callable
    lo: float
    hi: float
    singular_lo: bool = False
    singular_hi: bool = False
    from_lo: Optional[Callable] = None
    from_hi: Optional[Callable] = None


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
    """Call fn on an array of points, falling back to a scalar loop.

    Overflow in intermediates is tolerated (a blown-up radicand under a
    square root yields a clean zero); non-finite results are still
    rejected by the caller's finiteness check.
    """
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        try:
            out = np.asarray(fn(arg), dtype=float)
            if out.shape != arg.shape:
                raise TypeError
        except (TypeError, ValueError):
            out = np.array([float(fn(float(v))) for v in arg])
    return out


def _check_finite(vals: np.ndarray, where: np.ndarray) -> None:
    bad = ~np.isfinite(vals)
    if bad.any():
        x = float(np.asarray(where)[bad][0])
        raise DomainError(f"integrand returned a non-finite value near x = {x!r}")


def _side_values(f: Integrand, half: float, d_near: np.ndarray, upper: bool) -> tuple[np.ndarray, float]:
    """Evaluate f at the nodes on one side of the interval midpoint.

    Returns the values plus an estimate of the mass hidden inside the
    last representable gap at a singular endpoint when nodes had to be
    clipped onto it.  That mass bounds the accuracy of the plain
    evaluator path; the offset forms never clip and report zero.
    """
    s = half * d_near
    if upper:
        if f.from_hi is not None:
            vals = _apply(f.from_hi, s)
            _check_finite(vals, f.hi - s)
            return vals, 0.0
        edge = np.nextafter(f.hi, f.lo)
        x = f.hi - s
        clipped = f.singular_hi and bool((x > edge).any())
        if f.singular_hi:
            x = np.minimum(x, edge)
        gap = abs(f.hi - edge)
    else:
        if f.from_lo is not None:
            vals = _apply(f.from_lo, s)
            _check_finite(vals, f.lo + s)
            return vals, 0.0
        edge = np.nextafter(f.lo, f.hi)
        x = f.lo + s
        clipped = f.singular_lo and bool((x < edge).any())
        if f.singular_lo:
            x = np.maximum(x, edge)
        gap = abs(edge - f.lo)
    vals = _apply(f.evaluator, x)
    _check_finite(vals, x)
    floor = 0.0
    if clipped:
        # a ~ C / sqrt(s) blowup holds mass 2 C sqrt(gap) inside the gap
        floor = 2.0 * float(np.max(np.abs(vals))) * gap
    return vals, floor


def _level_sum(f: Integrand, half: float, level: int) -> tuple[float, float]:
    w, d_near, _ = _nodes(level)
    hi_vals, hi_floor = _side_values(f, half, d_near, upper=True)
    lo_vals, lo_floor = _side_values(f, half, d_near, upper=False)
    total = float(np.dot(w, hi_vals)) + float(np.dot(w, lo_vals))
    if level == 0:
        mid = np.array([f.lo + half])
        v = _apply(f.evaluator, mid)
        _check_finite(v, mid)
        total += 0.5 * math.pi * float(v[0])
    return total, hi_floor + lo_floor


def integrate(f: Integrand, config: QuadConfig = QuadConfig()) -> tuple[float, float]:
    """Integrate f over its finite interval.

    Returns (value, err_estimate) where the estimate is the change at
    the last level refinement.  Raises NonConvergence if the budget is
    exhausted, DomainError on a bad interval or a non-finite integrand
    value.
    """
    lo, hi = f.lo, f.hi
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integrate requires a finite interval; use integrate_tail")
    if not lo < hi:
        raise DomainError(f"empty interval ({lo}, {hi})")
    half = 0.5 * (hi - lo)

    trapezoid, clip_floor = _level_sum(f, half, 0)
    value = half * trapezoid
    err = math.inf
    for level in range(1, config.max_level + 1):
        h = 0.5 ** level
        term, floor = _level_sum(f, half, level)
        clip_floor = max(clip_floor, floor)
        trapezoid = 0.5 * trapezoid + h * term
        new_value = half * trapezoid
        err = abs(new_value - value)
        value = new_value
        if level < 3:
            continue
        if err <= max(config.target_rel_tol * abs(value), config.abs_floor):
            return value, max(err, clip_floor)
        if clip_floor > 0.0 and err <= 0.5 * clip_floor:
            # refinement noise is below the irreducible endpoint-gap
            # ambiguity; further levels cannot improve the result
            return value, max(err, clip_floor)
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
