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
interval is measured from its own endpoint.  The evaluator sees the
nodes x = lo + s and x = hi - s, which carry that distance exactly only
where the endpoint is 0.  So a singular lo must be 0, and a singular hi
other than 0 needs ``features_hi``: the evaluator takes its value at
the exact distances s on the hi side, as it takes ``features`` at the
nodes elsewhere, and sees the distance to full relative precision.
Every interval is finite, and ``integrate`` refuses any other: a table
with rows on an infinite range maps them onto a finite one in its own
feature functions, as the rPD tables in ``families`` do.

Integrands are vectorized: the evaluator is called on a 1-D array of n
nodes and returns an array of shape (n,), or ``integrate`` raises
TypeError.  An ``Integrand`` with ``names`` is a table of k integrands
that share the interval and the evaluator; it returns k rows, shape
(k, n), and computes the subexpressions the rows share once per call.
A single integrand is the table of one unnamed row.  The subexpressions
in the nodes alone are computed once per node set: an evaluator with
feature functions (``features``, ``features_hi``) is called on their
value at the nodes instead of the nodes, and the value is formed on
first use and kept read-only beside the nodes, per interval and level.

A table can also depend on a parameter: an ``Integrand`` with
``params``, the parameter itself and any constants derived from it, has
its evaluator called as ``fn(x, *cols)``, x being the nodes or their
features.  For one surface each is a float.  For a stack of N surfaces
each is a 1-D array of N values, and the evaluator gets them as (M, 1)
columns over the M points being evaluated and returns each row with
that leading axis, shape (k, M, n); a single point gets its values as
floats, which numpy takes by its scalar path, and returns rows of
shape (k, n).  The N points by k rows are k * N rows to
``integrate``, each with its own trapezoid sum and stopping level, and
each (row, point) pair is bit for bit what integrating the table at
that one parameter gives.  A table integrated at many parameters is
defined once, at module level and without params, as a template, and
``Integrand.bind`` gives it the params of each call without running
the checks of construction again, which read no params.  Its evaluator
and feature functions so stay the same objects from call to call, and
the caches they key do not grow.

The stopping test first runs at level 3, and most integrals in this
package stop at level 4 or 5, so the nodes of levels 0-5 form one
cached block.  A table is evaluated on both halves of levels 0-5 and
the midpoint in a single call, and once more for each later level; one
with ``features_hi`` takes the features of the hi side's distances
joined with those of its other nodes.  Each row keeps its own trapezoid
sum and its own stopping level.  The values of every row on the block
sit in one (rows, 2, nodes) array, the evaluator's own output, and its
two sides are summed per level in one ``np.vecdot`` call, which runs
each row's side through the same BLAS dot as ``np.dot``; the sums of
levels 0-5 go into one array, and four whole-array steps give each
row's value at every level there.  For one surface, whose table takes
float params, the stopping test at levels 3-5 and the results then run
on Python floats, row by row: for its eight to ten rows that measured
faster, inside an analysis, than the dozen numpy calls of the
whole-array test, which a stack keeps.  Both give the same bits.  Past
the block, the rows still active are refined level by level, and the
evaluator is called only at the parameter points that still have an
active row.  So every row's (value, err) is bit for bit what
integrating it alone level by level gives.  A row that has stopped is
no longer read: a non-finite value it produces at a later level,
inside the block or after it, is ignored, while one in a row still
being refined raises DomainError.  The node arrays of each level, and
their features there, are formed once per interval and kept.
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


def _distances(level: Optional[int]) -> np.ndarray:
    """d_near of one level, or of the fused block for level None."""
    return _fused_nodes()[0] if level is None else _nodes(level)[1]


@dataclass(frozen=True)
class Integrand:
    """An integrand, or a table of integrands, on a finite interval (lo, hi).

    evaluator   plain f(x); called on a 1-D array of nodes, returns an
                array of the same shape, or for a table one row per name
                (shape (len(names), nodes), e.g. a tuple of row arrays)
    lo, hi      finite interval endpoints
    singular_lo / singular_hi
                whether f blows up at the endpoint (at worst like an
                inverse square root); a singular lo must be 0
    names       row names of a table; empty for a single integrand
    params      the parameter of a table and the constants derived from
                it, handed to the evaluator after the nodes: floats, or
                1-D arrays of N values for a stack of N surfaces, which
                the evaluator sees as (M, 1) columns over the M points
                evaluated (as floats when M = 1) and which give each
                row a leading axis of M
    features    a function of the nodes alone that the evaluator takes
                in their place: called once per node set and cached, so
                the work that does not depend on the params is done once
                and not at every call; its value, read-only, is the
                evaluator's first argument
    features_hi the same on the hi half, as a function of the exact
                distances s = hi - x, so that the evaluator is one form
                on both halves; its value must have the structure of
                features' (an array, or nested tuples of arrays), and it
                needs features

    bind(params) gives the integrand at other params.  A family's table
    is built once, with no params, as a template; each call binds it.

    A singular hi other than 0 requires features_hi: the plain nodes
    hi - s cannot resolve the distance to it, and construction raises
    ValueError without one, as it does for a singular lo other than 0.
    The rows of a table share the interval, the flags and the
    evaluator, so their common subexpressions can be computed once per
    call, and those in the nodes alone once per node set.  A feature
    function keys that cache, so it must be defined once, at module
    level, not rebuilt with each table.
    """

    evaluator: Callable
    lo: float
    hi: float
    singular_lo: bool = False
    singular_hi: bool = False
    names: tuple[str, ...] = ()
    params: tuple = ()
    features: Optional[Callable] = None
    features_hi: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.singular_lo and self.lo != 0.0:
            raise ValueError(f"a singular endpoint lo must be 0, got {self.lo!r}")
        if self.singular_hi and self.hi != 0.0 and self.features_hi is None:
            raise ValueError(f"singular endpoint hi = {self.hi!r} needs features_hi")
        if self.features_hi is not None and self.features is None:
            raise ValueError("features_hi needs features, the evaluator's argument on the "
                             "other nodes")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"row names must be distinct, got {self.names!r}")

    def bind(self, params: tuple) -> Integrand:
        """This integrand with params in place of its own.

        No check of construction reads the params, so none is run
        again: a table defined once, as a template with no params, is
        bound at each parameter for a fraction of a construction's cost.
        """
        bound = object.__new__(Integrand)
        bound.__dict__.update(self.__dict__, params=params)
        return bound


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


def _columns(f: Integrand, stack: int, pts=slice(None)) -> list:
    """The params of f at the points pts of its stack, as (M, 1) columns,
    or as floats for one point or one surface (stack 0).  numpy then
    takes its scalar path, and a form's subexpressions in the params
    alone stay Python arithmetic: a tP form call on floats takes about
    two fifths less time than on (1, 1) columns."""
    if not stack:
        return list(f.params)
    cols = [c[pts, None] for c in f.params]
    return [float(c[0, 0]) for c in cols] if len(cols[0]) == 1 else cols


def _lead(f: Integrand, cols: list) -> tuple:
    """The shape of a form's value at the parameter columns cols before
    its node axis: (k,) for a table of k rows, then (M,) for M points."""
    points = (len(cols[0]),) if cols and isinstance(cols[0], np.ndarray) else ()
    return ((len(f.names),) if f.names else ()) + points


def _read_only(x):
    """x with every array in it, through nested tuples, made read-only."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, tuple):
        for item in x:
            _read_only(item)
    return x


@functools.lru_cache(maxsize=64)
def _arguments(lo: float, hi: float, level: Optional[int], features: Optional[Callable],
               features_hi: Optional[Callable]) -> tuple:
    """What the evaluator of an integrand on (lo, hi) is called on at one
    level, or at the fused block and the midpoint for level None.

    That is the nodes hi - s, lo + s and then the midpoint, s = half *
    d_near being each node's distance to its side's endpoint, or
    features of those nodes.  With features_hi, it is features_hi(s)
    for the hi side followed by features of the other nodes, joined
    componentwise through nested tuples.  Cached per interval, level and
    feature functions, read-only, so a fixed interval forms them once.
    """
    half = 0.5 * (hi - lo)
    s = half * _distances(level)
    mid = [np.array([lo + half])] if level is None else []
    if features_hi is None:
        x = np.concatenate([hi - s, lo + s] + mid)
        return _read_only(x if features is None else features(x))
    return _read_only(_joined(features_hi(s), features(np.concatenate([lo + s] + mid))))


def _joined(first, then):
    """Two features of one structure, arrays or nested tuples of them,
    as one: each array of first followed by its match in then."""
    if isinstance(first, tuple):
        return tuple(map(_joined, first, then))
    return np.concatenate([first, then])


def _sides(f: Integrand, level: Optional[int], cols: list) -> tuple:
    """Evaluate f at the nodes of one level from each endpoint, or at the
    fused block and the midpoint for level None, in one evaluator call.

    Returns (vals, centre): the values at the hi and lo sides as one
    (rows, 2, nodes) view of the evaluator's output, and the midpoint
    column (None past the block).  Row i * M + j is row i of the table
    at point j.  The values are not checked here: integrate reads each
    level of a row only while the row is active, and checks what it
    reads.
    """
    n = len(_distances(level))
    m = 2 * n + (level is None)
    got = _as_rows(f.evaluator(_arguments(f.lo, f.hi, level, f.features, f.features_hi), *cols))
    want = _lead(f, cols) + (m,)
    if got.shape != want:
        raise TypeError(f"integrand must map an array of shape {(m,)} to one of shape {want}, "
                        f"got shape {got.shape}")
    got = got.reshape(-1, m)
    return got[:, :2 * n].reshape(len(got), 2, n), (got[:, -1:] if level is None else None)


def _side_sums(w: np.ndarray, vals: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Each row's weighted sum on each side of vals (rows, 2, nodes), as
    (rows, 2), written into out if given.

    np.vecdot (numpy 2.0 on) runs every row and side through the same
    inner loop as np.dot(w, side), the BLAS dot, so each sum is bit for
    bit the one-row sum.
    """
    return np.vecdot(vals, w, out=out)


def _level_sums(w: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Each row's weighted sum over both sides of vals (rows, 2, nodes),
    the hi side's plus the lo side's."""
    sums = _side_sums(w, vals)
    return sums[:, 0] + sums[:, 1]


def _raise_nonfinite(f: Integrand, half: float, d_near: np.ndarray, vals: np.ndarray,
                     centre: Optional[np.ndarray] = None) -> None:
    """Raise DomainError at the first node where a row of vals (or of the
    midpoint column centre) is not finite.

    vals are the hi and lo values of the rows being read.  Returns if
    every value is finite: a sum that overflowed is not a domain error.
    """
    s = half * d_near
    parts = [(vals[:, 0], f.hi - s), (vals[:, 1], f.lo + s)]
    for part, x in parts + ([(centre, [f.lo + half])] if centre is not None else []):
        bad = ~np.isfinite(part).all(axis=0)
        if bad.any():
            raise DomainError(
                f"integrand returned a non-finite value near x = {float(np.asarray(x)[bad][0])!r}")


def _prepare(f: Integrand) -> tuple:
    """f's stack size and the parameter columns of all its points,
    (stack, cols), once its interval is checked."""
    lo, hi = f.lo, f.hi
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"integrate requires a finite interval, got ({lo}, {hi})")
    if not lo < hi:
        raise DomainError(f"empty interval ({lo}, {hi})")
    # a stack has k * stack rows, row i * stack + j being row i at point j
    stack = len(f.params[0]) if f.params and isinstance(f.params[0], np.ndarray) else 0
    return stack, _columns(f, stack)


def _check_block(f: Integrand, block: np.ndarray, centre: np.ndarray, sums: np.ndarray,
                 stop: np.ndarray) -> None:
    """Raise the DomainError that reading the block level by level raises.

    sums are the rows' (levels, rows) terms of the block, level 0 with
    its midpoint, and stop each row's last level read.  A level is read
    by the rows that have not stopped before it, and its first node
    where one of them is not finite is named.
    """
    d_fused, fused = _fused_nodes()
    half = 0.5 * (f.hi - f.lo)
    bad = ~np.isfinite(sums)
    for level in np.flatnonzero(bad.any(axis=1)).tolist():
        read = stop >= level
        if not (bad[level] & read).any():
            continue
        sl = fused[level][1]
        if level == 0:
            _raise_nonfinite(f, half, d_fused[sl], block[:, :, sl], centre)
        else:
            _raise_nonfinite(f, half, d_fused[sl], block[read][:, :, sl])


def _refine(f: Integrand, stack: int, trapezoid: np.ndarray, value: np.ndarray,
            err: np.ndarray, active: np.ndarray, tol: float, first: int) -> None:
    """Refine the active rows of f level by level from level first on,
    updating trapezoid, value and err in place until every row passes
    the stopping test.

    Only the points with an active row are evaluated.  Raises DomainError
    on a non-finite value in an active row, and NonConvergence if a row
    is still active after _MAX_LEVEL.
    """
    half = 0.5 * (f.hi - f.lo)
    for level in range(first, _MAX_LEVEL + 1):
        w, d_near = _nodes(level)
        rows, pts = active, slice(None)
        if stack:
            point = active % stack
            keep = np.zeros(stack, dtype=bool)
            keep[point] = True
            pts = np.flatnonzero(keep)
            rows = active // stack * len(pts) + (np.cumsum(keep) - 1)[point]
        vals, _ = _sides(f, level, _columns(f, stack, pts))
        if len(rows) < len(vals):
            vals = vals[rows]
        term = _level_sums(w, vals)
        if not np.isfinite(term).all():
            _raise_nonfinite(f, half, d_near, vals)
        t = 0.5 * trapezoid[active] + 0.5 ** level * term
        new_value = half * t
        err[active] = np.abs(new_value - value[active])
        trapezoid[active] = t
        value[active] = new_value
        done = err[active] <= np.maximum(tol * np.abs(new_value), _ABS_FLOOR)
        active = active[~done]
        if not len(active):
            return
    r, point = divmod(int(active[0]), stack or 1)
    row = f" in row {f.names[r]!r}" if f.names else ""
    at = f" at parameter {float(np.reshape(f.params[0], -1)[point])!r}" if f.params else ""
    raise NonConvergence(
        f"tanh-sinh did not reach tolerance by level {_MAX_LEVEL}{row}{at}: "
        f"value {float(value[active[0]])!r}, last change {float(err[active[0]])!r}"
    )


# 0.5 ** level for the levels of the fused block, as a column
_HALVINGS = (0.5 ** np.arange(_FUSED_LEVEL + 1.0))[:, None]
_HALVINGS.flags.writeable = False


def _stop_arrays(value: np.ndarray, tol: float) -> tuple:
    """The stopping test of the fused block for every row at once.

    value holds each row's values at levels 0 .. the top of the block,
    as (levels, rows).  Returns each row's value and change at its first
    passing level, or at the top level for a row that passes at none,
    and the index of that level among the tested ones, their number for
    a row still active: (value, change, first), each an array.
    """
    tested = value[_FIRST_TEST_LEVEL:]
    change = np.abs(tested - value[_FIRST_TEST_LEVEL - 1:-1])
    # the stopping test at each tested level, then a row every row passes
    passed = np.empty((len(tested) + 1, value.shape[1]), dtype=bool)
    passed[-1] = True
    np.less_equal(change, np.maximum(tol * np.abs(tested), _ABS_FLOOR), out=passed[:-1])
    first = passed.argmax(axis=0)
    last = np.minimum(first, len(tested) - 1)
    cols = np.arange(value.shape[1])
    return tested[last, cols], change[last, cols], first


def _stop_floats(value: np.ndarray, tol: float) -> tuple:
    """_stop_arrays on Python floats, row by row, each list entry bit
    for bit its array entry: the test's subtraction, abs, product and
    comparison round as numpy's do, and max(x, floor) is x when x is a
    nan, as np.maximum gives.  For the few rows of one surface it
    measured faster inside an analysis, though not when timed alone.
    """
    values, changes, first = [], [], []
    for row in value[_FIRST_TEST_LEVEL - 1:].T.tolist():
        prev, at = row[0], 0
        for v in row[1:]:
            change = abs(v - prev)
            if change <= max(tol * abs(v), _ABS_FLOOR):
                break
            prev, at = v, at + 1
        values.append(v)
        changes.append(change)
        first.append(at)
    return values, changes, first


def integrate(f: Integrand, config: QuadConfig = QuadConfig()) -> Result:
    """Integrate f over its interval.

    Returns (value, err_estimate) for a plain integrand and a dict
    {name: (value, err_estimate)} for a table; the estimate is the
    change at the last level refinement of that row.  For a stack each
    value and estimate is an array with one entry per surface.  Raises
    NonConvergence, naming the row and the parameter, if any row
    exhausts the budget, DomainError on a bad interval or a non-finite
    value in a row still being refined, and TypeError if the evaluator
    does not map the nodes to the expected shape.

    The evaluator is called on the fused block first, and the rows take
    levels 0 .. _FUSED_LEVEL together: one _side_sums call per level
    sums every row's two sides into one (levels, rows) array, and four
    whole-array steps (the two sides' sum, the midpoint,
    np.add.accumulate and the scale) give every row's value at each of
    those levels.  The trapezoid sum of level k, t_k = t_(k-1) / 2 +
    s_k / 2**k, is 2**-k times the running sum t_0 + s_1 + ... + s_k,
    added left to right; scaling by a power of two commutes with
    rounding, so the two, and the values half * t_k, agree bit for bit
    for every sum above the subnormal range and below 2**-5 of the
    largest float.  The stopping test at the tested levels and the
    results run on Python floats for float params or none (one
    surface), and as whole-array operations on a stack; both give the
    same bits.  The rows still active after the block are refined.
    """
    tol = config.target_rel_tol
    top = min(_FUSED_LEVEL, _MAX_LEVEL)
    fused = _fused_nodes()[1]
    stack, cols = _prepare(f)
    # Overflow in intermediates is tolerated (a blown-up radicand under
    # a square root yields a clean zero); a non-finite value in a row
    # being read is still rejected.
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        block, centre = _sides(f, None, cols)
        # the hi and lo side sums of every row at every level of the block,
        # as _level_sums forms them
        sides = np.empty((top + 1, len(block), 2))
        for level in range(top + 1):
            w, sl = fused[level]
            _side_sums(w, block[:, :, sl], out=sides[level])
        sums = sides[..., 0] + sides[..., 1]
        sums[0] += centre[:, 0] * (0.5 * math.pi)
        # 2**level times each row's trapezoid sum at each level
        running = np.add.accumulate(sums)
        value = running * (_HALVINGS[:top + 1] * (0.5 * (f.hi - f.lo)))
        value, err, first = (_stop_arrays if stack else _stop_floats)(value, tol)
        # A row that reads a non-finite sum ends on a non-finite value: the
        # sums and np.add.accumulate carry inf and nan on.  Where finite
        # values overflow their sum, _check_block finds no bad sum.
        if not (np.isfinite(sums).all() if stack else math.isfinite(sum(value))):
            _check_block(f, block, centre, sums, np.add(first, _FIRST_TEST_LEVEL))
        # the first of a row still active
        still = top + 1 - _FIRST_TEST_LEVEL
        if still in first:
            v, e = np.array(value), np.array(err)
            _refine(f, stack, running[top] * 0.5 ** top, v, e,
                    np.flatnonzero(np.equal(first, still)), tol, top + 1)
            value, err = (v, e) if stack else (v.tolist(), e.tolist())

    if stack:
        value, err = value.reshape(-1, stack), err.reshape(-1, stack)
    rows = list(zip(value, err))
    return dict(zip(f.names, rows)) if f.names else rows[0]
