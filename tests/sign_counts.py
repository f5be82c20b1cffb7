"""Sign counts of an eigenvalue list by whole-array comparison, the
reference that the bisection counts of a sorted spectrum in
msindex.moduli are checked against."""

import numpy as np


def count_signs(eigenvalues, zero_tol: float) -> tuple[int, int, int]:
    """The numbers of eigenvalues above zero_tol, below -zero_tol, and between."""
    vals = np.asarray(eigenvalues, dtype=float)
    pos = int(np.count_nonzero(vals > zero_tol))
    neg = int(np.count_nonzero(vals < -zero_tol))
    return pos, neg, len(vals) - pos - neg
