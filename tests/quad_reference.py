"""One row of an integrand table integrated level by level on an interval
(lo, hi), the reference that msindex.quadrature.integrate is checked
against bit for bit on (0, 1), and that the families' folds onto (0, 1)
are checked against on the intervals they fold."""

import math

import numpy as np

from msindex import quadrature
from msindex.quadrature import QuadConfig


def per_level_reference(f, lo, hi, row=0, point=None):
    """One row of the table f on (lo, hi), level by level: its own
    evaluator call per side, on the features of that side's nodes and
    their distances to hi where it has them (the nodes hi - s with the
    exact distances s on the hi side, lo + s with (hi - lo) - s on the
    lo side), one np.dot per side per level.

    For a stack, the row at one point, the form called with that point's
    params alone.  Returns (value, err) as floats.
    """
    half = 0.5 * (hi - lo)
    params = list(f.params) if point is None else [float(c[point]) for c in f.params]

    def call(x, d):
        out = f.evaluator(x if f.features is None else f.features(x, d), *params)
        return np.asarray(out, dtype=float)[row]

    def side(d_near, upper):
        s = half * d_near
        return call(hi - s, s) if upper else call(lo + s, (hi - lo) - s)

    def level_sum(level):
        w, d_near = quadrature._nodes(level)
        return float(np.dot(w, side(d_near, True))) + float(np.dot(w, side(d_near, False)))

    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        centre = call(np.array([lo + half]), np.array([half]))
        trapezoid = level_sum(0) + 0.5 * math.pi * float(centre[0])
        value = half * trapezoid
        for level in range(1, quadrature._MAX_LEVEL + 1):
            trapezoid = 0.5 * trapezoid + 0.5 ** level * level_sum(level)
            new_value = half * trapezoid
            err = abs(new_value - value)
            value = new_value
            if level >= 3 and err <= max(QuadConfig().target_rel_tol * abs(value),
                                         quadrature._ABS_FLOOR):
                return value, err
    raise AssertionError("reference did not converge")
