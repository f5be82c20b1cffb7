"""Interval classification of a surface family.

A sweep samples the admissible parameter range on a uniform grid,
analyzed as one stack (moduli.analyze_many), counts the negative
eigenvalues of the key matrix, and brackets every parameter where the
spectrum degenerates.  Each bracket is
refined by Brent's method on the eigenvalue of the key matrix that
crosses zero in it, and the refined roots cut the window into intervals
of constant signature.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import moduli
from .errors import DomainError, UnresolvedTransition
from .families import QuadConfig, SurfaceParam, admissible_range

_MIN_STEPS = 16
_MAX_REFINE_EVALS = 80
# root refinement bisects once its bracket is this many halvings behind
# plain bisection
_BRENT_SLACK = 8

# a refined root must pull an eigenvalue at least this far toward zero
# relative to the largest one
_ROOT_DEPTH_FACTOR = 1e-5

# distance of the two flanking evaluations of classify_at
_FLANK_OFFSET = 1e-4

# windows used by the reproduction command; the unbounded families are
# cut off past the last known transition
DEFAULT_WINDOWS = {
    "H": (0.01, 0.99),
    "rPD": (0.01, 1.0),
    "tP": (2.1, 40.0),
    "tD": (-40.0, -2.1),
    "tCLP": (-1.99, 1.99),
}


@dataclass(frozen=True)
class SweepConfig:
    a_min: float
    a_max: float
    steps: int = 200
    refine_tol: float = 1e-9
    quad: QuadConfig = field(default_factory=QuadConfig)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a_min) and math.isfinite(self.a_max)):
            raise DomainError("sweep window must be finite")
        if not self.a_min < self.a_max:
            raise DomainError(
                f"empty sweep window [{self.a_min}, {self.a_max}]")
        try:
            steps = operator.index(self.steps)
        except TypeError:
            raise DomainError(f"steps must be an integer, got {self.steps!r}") from None
        if steps < _MIN_STEPS:
            raise DomainError(f"steps must be at least {_MIN_STEPS}")
        object.__setattr__(self, "steps", steps)
        if not (self.refine_tol > 0.0 and math.isfinite(self.refine_tol)):
            raise DomainError("refine_tol must be positive and finite")


@dataclass(frozen=True, slots=True)
class SweepSample:
    """Pipeline output at one grid point, reduced to sweep currency."""

    a: float
    det_w: float
    min_abs_eig_w: float
    p: int
    q: int
    nullity_E: int
    index_E: int

    @property
    def signature_class(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.index_E)


class SweepSamples(Sequence):
    """The grid samples of a sweep, kept as columns: a read-only sequence
    of SweepSample records, built as they are read."""

    __slots__ = ("_floats", "_counts")

    def __init__(self, floats: np.ndarray, counts: np.ndarray):
        # (a, det_w, min_abs_eig_w) and (p, q, nullity_E, index_E) per sample
        self._floats = np.array(floats, dtype=float).reshape(-1, 3)
        self._counts = np.array(counts, dtype=np.int8).reshape(-1, 4)
        self._floats.flags.writeable = self._counts.flags.writeable = False

    def __len__(self) -> int:
        return len(self._floats)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        return SweepSample(*self._floats[k].tolist(), *self._counts[k].tolist())

    def __iter__(self):
        for floats, counts in zip(self._floats.tolist(), self._counts.tolist()):
            yield SweepSample(*floats, *counts)

    def __eq__(self, other):
        if not isinstance(other, SweepSamples):
            return NotImplemented
        return (np.array_equal(self._floats, other._floats)
                and np.array_equal(self._counts, other._counts))

    def __hash__(self):
        return hash((self._floats.tobytes(), self._counts.tobytes()))


@dataclass(frozen=True, slots=True)
class Transition:
    a_star: float
    nullity_at: int
    left_class: tuple[int, int, int]
    right_class: tuple[int, int, int]


@dataclass(frozen=True, slots=True)
class Interval:
    lo: float
    hi: float
    p: int
    q: int
    index_E: int
    index_A: int
    nullity_A: int


@dataclass(frozen=True)
class SweepReport:
    family: str
    config: SweepConfig
    samples: SweepSamples
    transitions: tuple[Transition, ...]
    intervals: tuple[Interval, ...]


def _report_at(family: str, a: float, cfg: SweepConfig) -> moduli.SpectralReport:
    """The report of one analyze call at a."""
    return moduli.analyze(SurfaceParam(family, a), config=cfg.quad).report


def _samples(a: Sequence[float],
             reports: Sequence[moduli.SpectralReport]) -> tuple[SweepSamples, np.ndarray]:
    """The samples of the reports at the parameters a, and their key
    matrix spectra as one (N, 9) array.

    det_w multiplies the columns in order into ones, so each is bit for
    bit the left-to-right product of its spectrum's floats from 1.0.
    """
    eig_w = np.array([r.eig_w for r in reports])
    det = np.ones(len(eig_w))
    for column in eig_w.T:
        det *= column
    floats = np.column_stack([a, det, abs(eig_w).min(axis=1)])
    counts = [(r.p, r.q, r.nullity_E, r.index_E) for r in reports]
    return SweepSamples(floats, counts), eig_w


def _raw_negatives(eig_w):
    """Count of strictly negative eigenvalues of a spectrum, or of each
    spectrum of a stack (..., 9).

    The raw count ignores the zero threshold entirely, so it jumps
    exactly where an eigenvalue crosses zero and nowhere else.
    """
    return np.count_nonzero(np.less(eig_w, 0.0), axis=-1)


def _grid(family: str, cfg: SweepConfig) -> list[float]:
    # lo < hi inside the admissible range admits both ends
    lo_b, hi_b = admissible_range(family)
    lo = max(cfg.a_min, lo_b)
    hi = min(cfg.a_max, hi_b)
    if not lo < hi:
        raise DomainError(
            f"window [{cfg.a_min}, {cfg.a_max}] misses the {family} domain")
    n = cfg.steps
    pts = [lo + (hi - lo) * k / n for k in range(n + 1)]
    # the affine form can overshoot hi by one ulp, which would put the
    # last probe outside a clamped domain edge
    pts[-1] = hi
    return pts


def _brent(f: Callable[[float], float], lo: float, f_lo: float,
           hi: float, f_hi: float, tol: float,
           max_iter: int) -> tuple[float, float, float, float]:
    """Shrink a sign-change bracket [lo, hi] of f to width tol.

    Brent's zeroin (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4): secant or inverse quadratic steps from the
    end with the smaller value, a bisection step whenever those would
    not shrink the bracket fast enough, and no step shorter than tol/2.
    One safeguard is added: once the bracket is more than _BRENT_SLACK
    halvings behind plain bisection, the step bisects, so a flat
    (multiple) root costs at most that many evaluations more than
    bisection.  The sign test is v < 0, so a zero value sits on the
    non-negative side.  Evaluates f at most max_iter times and returns
    the last bracket as (lo, f_lo, hi, f_hi) with lo < hi and f_lo,
    f_hi on different sides; it is wider than tol only when max_iter
    ran out.
    """
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise ValueError(f"f does not change sign over [{lo}, {hi}]")
    half_tol = 0.5 * tol
    # b is the best end, c the other end of the bracket, a the previous b
    a, fa = lo, f_lo
    b, fb = hi, f_hi
    c, fc = a, fa
    d = e = b - a
    width0 = b - a
    for evals in range(max_iter + 1):
        if abs(fc) < abs(fb):
            a, fa = b, fb
            b, fb = c, fc
            c, fc = a, fa
        xm = 0.5 * (c - b)
        if abs(c - b) <= tol or evals == max_iter:
            break
        if fb == 0.0:
            # b is an exact zero, on the non-negative side: the shortest
            # step toward c closes the bracket unless f is zero there
            # too, and then e = 0 makes the next step bisect
            d = e = 0.0
        elif (abs(c - b) <= width0 * 0.5 ** (evals - _BRENT_SLACK)
              and abs(e) >= half_tol and abs(fa) > abs(fb)):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(half_tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > half_tol else math.copysign(half_tol, xm)
        fb = f(b)
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a
    return (b, fb, c, fc) if b < c else (c, fc, b, fb)


def _refine(family: str, cfg: SweepConfig,
            s_lo: SweepSample, eig_lo: list[float],
            s_hi: SweepSample, eig_hi: list[float]) -> Transition:
    """Shrink one bracket to refine_tol with Brent's method.

    With m the larger raw negative count of the two ends, the raw count
    is at least m exactly where the descending eigenvalue number 9 - m
    is negative.  That eigenvalue is continuous in a and changes sign
    across the bracket, so Brent's method runs on it, and the ends of
    the final bracket have different raw counts.
    """
    k = len(eig_lo) - int(_raw_negatives([eig_lo, eig_hi]).max())
    seen = {s_lo.a: eig_lo, s_hi.a: eig_hi}

    def crossing(a: float) -> float:
        seen[a] = _report_at(family, a, cfg).eig_w.tolist()
        return seen[a][k]

    lo, _, hi, _ = _brent(crossing, s_lo.a, eig_lo[k], s_hi.a, eig_hi[k],
                          cfg.refine_tol, _MAX_REFINE_EVALS)
    if hi - lo > cfg.refine_tol:
        raise UnresolvedTransition(
            f"{family}: bracket [{s_lo.a}, {s_hi.a}] did not narrow to "
            f"{cfg.refine_tol} in {_MAX_REFINE_EVALS} evaluations")
    assert _raw_negatives(seen[lo]) != _raw_negatives(seen[hi])

    a_star = 0.5 * (lo + hi)
    at = _report_at(family, a_star, cfg)
    depth = min(abs(v) for v in at.eig_w)
    scale = max(abs(v) for v in at.eig_w)
    if depth > _ROOT_DEPTH_FACTOR * scale:
        raise UnresolvedTransition(
            f"{family}: sign counts change over [{s_lo.a}, {s_hi.a}] but "
            f"no eigenvalue of the key matrix reaches zero near {a_star} "
            f"(smallest {depth:.3e} vs scale {scale:.3e}); rerun with "
            f"more steps")
    return Transition(
        a_star=a_star,
        nullity_at=at.nullity_E,
        left_class=s_lo.signature_class,
        right_class=s_hi.signature_class,
    )


def sweep(family: str, cfg: SweepConfig) -> SweepReport:
    """Classify one family over a window.

    A transition bracket opens between adjacent grid points where both
    the raw negative count and the signature class change, as they do
    at a real crossing.  Where only one changes, the bracket is
    spurious and is not refined: the class alone changes when an
    eigenvalue drifts across the zero band without a sign change
    (extreme parameters, wide spectra), and the count alone when the
    zero threshold absorbs the sign change.
    """
    grid = _grid(family, cfg)
    analyses = moduli.analyze_many([SurfaceParam(family, a) for a in grid], config=cfg.quad)
    grid_samples, eig_w = _samples(grid, [res.report for res in analyses])
    samples = list(grid_samples)
    q_raw = _raw_negatives(eig_w).tolist()

    transitions: list[Transition] = []
    for k in range(len(samples) - 1):
        s0, s1 = samples[k], samples[k + 1]
        if q_raw[k] != q_raw[k + 1] and s0.signature_class != s1.signature_class:
            t = _refine(family, cfg, s0, eig_w[k].tolist(), s1, eig_w[k + 1].tolist())
            # roots come sorted, each from its bracket in grid order; one
            # landing on a grid point refines from both flanking cells
            if not transitions or t.a_star - transitions[-1].a_star > 10.0 * cfg.refine_tol:
                transitions.append(t)

    cuts = [grid[0]] + [t.a_star for t in transitions] + [grid[-1]]
    intervals: list[Interval] = []
    for k in range(len(cuts) - 1):
        lo, hi = cuts[k], cuts[k + 1]
        inside = [s for s in samples if lo < s.a < hi and s.nullity_E == 0]
        if not inside:
            mid = 0.5 * (lo + hi)
            inside, _ = _samples([mid], [_report_at(family, mid, cfg)])
        (p, q, index_e), _ = Counter(s.signature_class for s in inside).most_common(1)[0]
        intervals.append(Interval(
            lo=lo,
            hi=hi,
            p=p,
            q=q,
            index_E=index_e,
            index_A=index_e,
            # the grid samples in inside have nullity 0, a midpoint probe may not
            nullity_A=inside[0].nullity_E + 3,
        ))

    return SweepReport(
        family=family,
        config=cfg,
        samples=grid_samples,
        transitions=tuple(transitions),
        intervals=tuple(intervals),
    )


def classify_at(
    family: str,
    a: float,
    config: QuadConfig = QuadConfig(),
) -> tuple[moduli.SpectralReport, int]:
    """Report at one parameter plus the index inferred by continuity.

    At a degeneration the constrained index drops by the incoming
    nullity; evaluations _FLANK_OFFSET to either side recover the
    limiting value, taken as the smaller of the two one-sided indices
    (they agree away from a transition).  a and its admissible flanks
    are analyzed as one stack, a validated first: the results, errors
    and cache counts are those of one analyze call after another.
    """
    lo, hi = admissible_range(family)
    sides = [side for side in (a - _FLANK_OFFSET, a + _FLANK_OFFSET) if lo <= side <= hi]
    report, *flanks = (res.report for res in moduli.analyze_many(
        [SurfaceParam(family, x) for x in [a, *sides]], config=config))
    if not flanks:
        raise DomainError(
            f"no admissible flanking parameter within {_FLANK_OFFSET} of {a}")
    return report, min(r.index_E for r in flanks)
