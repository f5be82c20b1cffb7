"""Second-variation spectra over the moduli of flat three-tori.

A nine-dimensional deformation space is spanned by five branch-point
motions and four lattice motions, held as one (9, 3, 6) array of
period derivatives.  The Hermitian pairing eta of period data gives a
9x9 key matrix whose signature classifies the surface, and an 18x18
real comparison of actual against admissible periods decides whether
the classification is clean (kernel of dimension exactly eight) or
sits at a degeneration.  Each Gram matrix of eta is one contraction m
taken to -i (m - m^H), so both key matrices are Hermitian exactly.
tangent_frame, key_matrices and spectral_report also take a stack of
surfaces along a leading axis.  analyze validates and folds its
parameter once, then returns the cached analysis of the folded
parameter; analyze_many does so for a list, and computes the points
that miss the cache as stacks, analyze being its case of one point.
"""

from __future__ import annotations

import bisect
import operator
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import families, linalg
from .errors import MsindexError
from .families import P1, P2, IntegralSet, PeriodFrame, QuadConfig, SurfaceParam

# relative factor fixing what counts as a zero eigenvalue
ZERO_TOL_FACTOR = 1e-7

# a clean spectrum has exactly this many zero directions in the
# 18x18 comparison matrix
_EXPECTED_KERNEL = 8


# generators of the three rotations of the lattice, stacked (3, 3, 3)
_ROT_GENERATORS = np.array([
    [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
    [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
])


def tangent_frame(omega: np.ndarray, p_ai: np.ndarray) -> np.ndarray:
    """The nine tangent directions of the deformation space as one
    read-only (9, 3, 6) array: five branch-point motions from the
    derivatives p_ai of deformation_data, then the lattice motion (the
    top 3x6 block of the period matrix omega) and its three rotations.
    Stacks (N, 6, 6) and (N, 5, 3, 6), one call each, give (N, 9, 3, 6)."""
    top = omega[..., None, :3, :]
    # P1 times every point's P_ai as one (3, 3) @ (3, ... 5 * 6) product,
    # then every row of the results through P2 and omega at once
    swapped = p_ai.swapaxes(0, -2)
    moved = (P1 @ swapped.reshape(3, -1)).reshape(swapped.shape).swapaxes(0, -2)
    rows = moved.reshape(p_ai.shape[:-3] + (15, 6)) @ P2 @ omega
    mats = np.concatenate([
        0.5 * rows.reshape(p_ai.shape),
        top,
        _ROT_GENERATORS @ top,
    ], axis=-3)
    mats.flags.writeable = False
    return mats


@dataclass(frozen=True, slots=True)
class KeyMatrices:
    w: np.ndarray          # 9x9 Hermitian
    wdiff: np.ndarray      # 18x18 real symmetric, admissible minus actual


def _pair_all(cs: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Gram matrix of eta over stacked direction halves.

    eta pairs the splits (Z1, Z2) and (W1, W2) of two directions as
    -i tr(Z2^t conj(W1) - Z1^t conj(W2)).  tr(A^t conj(B)) is the plain
    elementwise sum of A * conj(B), and the second trace is the
    conjugate of the first with the directions swapped, so one
    contraction m gives the full matrix -i (m - m^H), Hermitian exactly.
    """
    m = np.einsum("...iab,...jab->...ij", ds, cs.conj())
    return -1j * (m - m.conj().swapaxes(-1, -2))


def key_matrices(mats: np.ndarray, frame: PeriodFrame) -> KeyMatrices:
    """The 9x9 pairing matrix and the 18x18 period comparison of the
    tangent directions mats, a (9, 3, 6) array from tangent_frame, or
    of each surface of a stack (N, 9, 3, 6) with a stacked frame.

    Each direction splits into 3x3 halves (C, D) and projects to the
    admissible K = Re C + i (Re C Re tau - Re D) (Im tau)^-1 paired with
    K tau; the second batch projects the directions rotated by i, with
    real halves -Im C and -Im D.  W1 pairs the 18 directions and W2
    their projections; Wdiff = W2 - W1.  Rotation by i scales a row of
    eta by i and a column by -i, so W1 = [[Re W, Im W], [-Im W, Re W]],
    and W2 = Im m2 + (Im m2)^t for the contraction m2 of the projections.
    W is Hermitian and W1, W2 symmetric by construction.  tau and
    (Im tau)^-1 come from frame, which inverted Im tau and checked it.
    """
    cs = np.ascontiguousarray(mats[..., :3])
    ds = np.ascontiguousarray(mats[..., 3:])
    w = _pair_all(cs, ds)
    # the 18 directions' 3x3 halves as 54 rows of 3, one product each per surface
    c_re = np.concatenate([cs.real, -cs.imag], axis=-3)
    d_re = np.concatenate([ds.real, -ds.imag], axis=-3)
    shape = c_re.shape
    rows = shape[:-3] + (54, 3)
    k_all = np.empty(rows, dtype=complex)
    k_all.real = c_re.reshape(rows)
    k_all.imag = (k_all.real @ frame.tau.real - d_re.reshape(rows)) @ frame.im_tau_inv
    m2 = np.einsum("...iab,...jab->...ij", (k_all @ frame.tau).reshape(shape),
                   k_all.conj().reshape(shape)).imag
    w1 = np.concatenate([np.concatenate([w.real, w.imag], -1),
                         np.concatenate([-w.imag, w.real], -1)], -2)
    return KeyMatrices(w=w, wdiff=m2 + m2.swapaxes(-1, -2) - w1)


@dataclass(frozen=True, eq=False, slots=True)
class SpectralReport:
    """Signature data of one surface.

    eig_w and eig_wdiff are the descending spectra of the key matrix
    and the comparison matrix as read-only float64 arrays; reports
    compare by identity.  index_E / nullity_E count constrained
    directions; the unconstrained (actual) problem adds three
    translations to the nullity and keeps the index.  degenerate means
    the 18x18 comparison kernel did not have the expected dimension, so
    the index formula is heuristic at this parameter.
    """

    eig_w: np.ndarray
    eig_wdiff: np.ndarray
    p: int
    q: int
    nullity_E: int
    kernel_dim_wdiff: int
    index_E: int
    index_A: int
    nullity_A: int
    degenerate: bool
    zero_tol_w: float
    zero_tol_wdiff: float


def _signs(desc: list, zero_tol: float) -> tuple[int, int, int]:
    """The numbers of entries of a descending list above zero_tol, below
    -zero_tol, and between, by bisection."""
    pos = bisect.bisect_left(desc, -zero_tol, key=operator.neg)
    neg = len(desc) - bisect.bisect_right(desc, zero_tol, key=operator.neg)
    return pos, neg, len(desc) - pos - neg


def _report(ew: np.ndarray, ed: np.ndarray) -> SpectralReport:
    """The report of one surface from its two read-only spectra."""
    w, d = ew.tolist(), ed.tolist()
    zero_w = ZERO_TOL_FACTOR * max(abs(w[0]), abs(w[-1]))
    zero_d = ZERO_TOL_FACTOR * max(abs(d[0]), abs(d[-1]))
    d_pos, d_neg, d_zero = _signs(d, zero_d)

    degenerate = d_zero != _EXPECTED_KERNEL
    p, q, nullity = _signs(w, zero_w if degenerate else 0.0)
    index_e = 1 + d_neg
    return SpectralReport(
        eig_w=ew,
        eig_wdiff=ed,
        p=p,
        q=q,
        nullity_E=nullity,
        kernel_dim_wdiff=d_zero,
        index_E=index_e,
        index_A=index_e,
        nullity_A=nullity + 3,
        degenerate=degenerate,
        zero_tol_w=zero_w,
        zero_tol_wdiff=zero_d,
    )


def _own(row: np.ndarray) -> np.ndarray:
    """A read-only copy of one row of a stack, so that what a caller
    keeps does not hold the whole stack."""
    row = row.copy()
    row.flags.writeable = False
    return row


def spectral_report(km: KeyMatrices):
    """Classify a surface from its key matrices; a stack of key matrices
    gives a list of reports, one per surface, from spectra computed as
    one stack.

    Genuine nullity always comes with extra zero directions in the
    18x18 comparison, so a small 9x9 eigenvalue only counts as zero
    when that kernel exceeds its structural dimension.  Without the
    corroboration the relative threshold misfires near parameter range
    ends, where the spectrum spreads over many orders of magnitude and
    stable eigenvalues dip below any fixed fraction of the largest.
    """
    # max|eigenvalue| sits at one end of each sorted spectrum
    ew = linalg.eig_selfadjoint(km.w)
    ed = linalg.eig_selfadjoint(km.wdiff)
    if ew.ndim == 1:
        return _report(ew, ed)
    return [_report(_own(w), _own(d)) for w, d in zip(ew, ed)]


@dataclass(frozen=True, slots=True)
class SurfaceAnalysis:
    """Everything computed for one canonical (family, a) pair."""

    param: SurfaceParam
    integrals: IntegralSet
    frame: PeriodFrame
    key: KeyMatrices
    report: SpectralReport


# most points evaluated as one stack: bounds the transient memory of a
# long grid, about 0.1 MB per point
_STACK_POINTS = 24


def _analyze_stack(params: list[SurfaceParam], config: QuadConfig) -> list[SurfaceAnalysis]:
    """The analyses of canonical parameters of one family, as one stack.

    A stack of one surface drops its stack axis: its matrices are
    plain, which numpy handles fastest, and its records hold them with
    no copy.  Run as a (1, ...) stack, the bookkeeping of the rows and
    the copies of each row took about 8 % longer per analysis; every
    layer takes both shapes, deformation_data by one code path.
    """
    (one,) = params if len(params) == 1 else (None,)
    integrals = families.integral_set(one or params, config)
    frame = families.period_frame(integrals)
    p_ai = families.deformation_data(one or params)
    km = key_matrices(tangent_frame(frame.omega, p_ai), frame)
    reports = spectral_report(km)
    if one:
        return [SurfaceAnalysis(param=one, integrals=integrals, frame=frame, key=km, report=reports)]
    return [SurfaceAnalysis(param=p, integrals=point, frame=_row(frame, j), key=_row(km, j),
                            report=report)
            for j, (p, point, report) in enumerate(zip(params, integrals, reports))]


def _row(record, j: int):
    """Record j of a stacked record, owning its arrays: a cached analysis keeps no stack."""
    return type(record)(*[getattr(record, name)[j].copy() for name in record.__slots__])


CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class _AnalysisCache:
    """Analyses by canonical parameter and QuadConfig, least recently
    used dropped first, with functools.lru_cache's cache_info() and
    cache_clear().

    A lookup takes a list of parameters and reads it in order.  A
    parameter already cached, or waiting to be computed in the same
    list, counts a hit.  The others wait with the other misses of their
    family and are computed as one stack when _STACK_POINTS of them
    wait, and the rest of each family after the list is read, each
    counting one miss as it is computed; so what a lookup keeps beside
    its results does not grow with the list.  A stack that raises is
    computed again point by point, so the first failing point counts
    its miss and raises its own error, and the points before it are
    cached, as one by one.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self._hits = self._misses = 0

    def __call__(self, params: list[SurfaceParam], config: QuadConfig) -> list[SurfaceAnalysis]:
        entries = self._entries
        out: list = [None] * len(params)
        # per family, the parameters waiting to be computed and their positions in params
        waiting: dict[str, dict[SurfaceParam, list[int]]] = {}
        for i, p in enumerate(params):
            res = entries.get((p, config))
            if res is not None:
                self._hits += 1
                entries.move_to_end((p, config))
                out[i] = res
                continue
            block = waiting.setdefault(p.family, {})
            if p in block:
                self._hits += 1
                block[p].append(i)
                continue
            block[p] = [i]
            if len(block) == _STACK_POINTS:
                self._compute(waiting.pop(p.family), config, out)
        for block in waiting.values():
            self._compute(block, config, out)
        return out

    def _compute(self, block: dict[SurfaceParam, list[int]], config: QuadConfig,
                 out: list) -> None:
        """Compute, cache and place at their positions in out the
        analyses of one family's waiting parameters, as one stack."""
        entries = self._entries
        points = list(block)
        try:
            done = _analyze_stack(points, config)
        except MsindexError:
            if len(points) == 1:
                self._misses += 1
                raise
            # again point by point, each cached before the next is computed
            done = (self._alone(p, config) for p in points)
        else:
            self._misses += len(points)
        for p, res in zip(points, done):
            entries[p, config] = res
            if len(entries) > self.maxsize:
                entries.popitem(last=False)
            for i in block[p]:
                out[i] = res

    def _alone(self, p: SurfaceParam, config: QuadConfig) -> SurfaceAnalysis:
        self._misses += 1
        return _analyze_stack([p], config)[0]

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, self.maxsize, len(self._entries))

    def cache_clear(self) -> None:
        self._entries.clear()
        self._hits = self._misses = 0


_analyze_cached = _AnalysisCache(maxsize=4096)


def analyze(p: SurfaceParam, config: QuadConfig = QuadConfig()) -> SurfaceAnalysis:
    """Full pipeline for one surface: p is validated and folded once,
    and the result is the analysis of the folded parameter, cached on
    it and the full QuadConfig.  So tD at -a returns the very object of
    tP at a, and tCLP at -a that of tCLP at a.  The same code as
    analyze_many, on a stack of one."""
    families.validate_param(p)
    return _analyze_cached([families.canonical_param(p)], config)[0]


def analyze_many(params: Sequence[SurfaceParam],
                 config: QuadConfig = QuadConfig()) -> list[SurfaceAnalysis]:
    """analyze at each parameter, in order; the parameters that miss the
    cache are evaluated as stacks, each point bit for bit its analyze."""
    for p in params:
        families.validate_param(p)
    return _analyze_cached([families.canonical_param(p) for p in params], config)
