"""Host-speed calibration: a fixed chunk of work timed beside the program.

Other tenants of a shared host slow this process by up to 2x, in spells
of seconds to minutes, and a spell can cover a whole run.  The CPU has
no usable counters inside the guest, so the benchmark times a fixed
chunk of work right after each cold evaluation and reports the
program's times at a reference host speed::

    time * REF_MS / (mean chunk time around it)

The chunk resembles the program's hot path (Jacobi rotations on a small
symmetric matrix: interpreter work around small numpy row and column
updates) and does not depend on msindex, so a change to the program
moves the reported times in full.  It costs about 0.5 ms against tens
of milliseconds per cold evaluation.
"""

from __future__ import annotations

import time

import numpy as np

# mean chunk time in ms on an uncontended 2-vCPU Xeon KVM guest
# (Python 3.11, numpy 2.4); reported times are scaled to this speed
REF_MS = 0.43

# chunks on each side of a call that its calibration averages over
HALF_WINDOW = 5

_N = 18
_MATRIX = np.random.default_rng(0).standard_normal((_N, _N))
_MATRIX = _MATRIX + _MATRIX.T


def _chunk() -> float:
    a = _MATRIX.copy()
    for p in range(0, _N - 1, 3):
        for q in range(p + 1, _N, 2):
            apq = a[p, q]
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = (1.0 if theta >= 0 else -1.0) / (abs(theta)
                                                 + np.sqrt(theta * theta + 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            rp, rq = a[p, :].copy(), a[q, :].copy()
            a[p, :], a[q, :] = c * rp - s * rq, s * rp + c * rq
            cp, cq = a[:, p].copy(), a[:, q].copy()
            a[:, p], a[:, q] = c * cp - s * cq, s * cp + c * cq
    return float(a[0, 0])


def chunk_ms() -> float:
    """Run one calibration chunk; its wall time in ms."""
    t0 = time.perf_counter()
    _chunk()
    return (time.perf_counter() - t0) * 1e3


def speed(cal_ms: list[float]) -> float:
    """Host speed over the reference: REF_MS over the mean chunk time."""
    return REF_MS * len(cal_ms) / sum(cal_ms)


def factors(cal_ms: list[float]) -> list[float]:
    """The speed over the chunks within HALF_WINDOW of each chunk."""
    return [speed(cal_ms[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1])
            for i in range(len(cal_ms))]
