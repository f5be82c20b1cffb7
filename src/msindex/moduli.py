"""Second-variation spectra over the moduli of flat three-tori.

A nine-dimensional deformation space is spanned by five branch-point
motions and four lattice motions, held as one (9, 3, 6) array of
period derivatives.  The Hermitian pairing eta of period data gives a
9x9 key matrix whose signature classifies the surface, and an 18x18
real comparison of actual against admissible periods decides whether
the classification is clean (kernel of dimension exactly eight) or
sits at a degeneration.  Each Gram matrix of eta is one contraction m
taken to -i (m - m^H), so both key matrices are Hermitian exactly.
analyze validates and folds its parameter once, then returns the
cached analysis of the folded parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import families, linalg
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
    stacked derivatives p_ai of deformation_data, then the lattice
    motion (the top 3x6 block of the period matrix omega) and its three
    rotations."""
    top = omega[:3, :]
    mats = np.concatenate([
        0.5 * (P1 @ p_ai @ P2 @ omega),
        top[None],
        _ROT_GENERATORS @ top,
    ])
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
    m = np.einsum("iab,jab->ij", ds, cs.conj())
    return -1j * (m - m.conj().T)


def key_matrices(mats: np.ndarray, tau: np.ndarray) -> KeyMatrices:
    """The 9x9 pairing matrix and the 18x18 period comparison of the
    tangent directions mats, a (9, 3, 6) array from tangent_frame.

    Each direction splits into 3x3 halves (C, D) and projects to the
    admissible K = Re C + i (Re C Re tau - Re D) (Im tau)^-1 paired with
    K tau; the second batch projects the directions rotated by i, with
    real halves -Im C and -Im D.  W1 pairs the 18 directions and W2
    their projections; Wdiff = W2 - W1.  Rotation by i scales a row of
    eta by i and a column by -i, so W1 = [[Re W, Im W], [-Im W, Re W]],
    and W2 = Im m2 + (Im m2)^t for the contraction m2 of the projections.
    W is Hermitian and W1, W2 symmetric by construction.
    """
    cs = np.ascontiguousarray(mats[:, :, :3])
    ds = np.ascontiguousarray(mats[:, :, 3:])
    w = _pair_all(cs, ds)
    im_inv = linalg.solve(tau.imag, np.eye(3))
    c_re = np.concatenate([cs.real, -cs.imag])
    k_all = np.empty(c_re.shape, dtype=complex)
    k_all.real = c_re
    k_all.imag = (c_re @ tau.real - np.concatenate([ds.real, -ds.imag])) @ im_inv
    m2 = np.einsum("iab,jab->ij", k_all @ tau, k_all.conj()).imag
    w1 = np.concatenate([np.concatenate([w.real, w.imag], 1), np.concatenate([-w.imag, w.real], 1)])
    return KeyMatrices(w=w, wdiff=m2 + m2.T - w1)


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


def spectral_report(km: KeyMatrices) -> SpectralReport:
    """Classify a surface from its key matrices.

    Genuine nullity always comes with extra zero directions in the
    18x18 comparison, so a small 9x9 eigenvalue only counts as zero
    when that kernel exceeds its structural dimension.  Without the
    corroboration the relative threshold misfires near parameter range
    ends, where the spectrum spreads over many orders of magnitude and
    stable eigenvalues dip below any fixed fraction of the largest.
    """
    # max|eigenvalue| sits at one end of each sorted spectrum
    ew = linalg.eig_selfadjoint(km.w)
    zero_w = ZERO_TOL_FACTOR * float(max(abs(ew[0]), abs(ew[-1])))

    ed = linalg.eig_selfadjoint(km.wdiff)
    zero_d = ZERO_TOL_FACTOR * float(max(abs(ed[0]), abs(ed[-1])))
    d_pos, d_neg, d_zero = linalg.count_signs(ed, zero_d)

    degenerate = d_zero != _EXPECTED_KERNEL
    p, q, nullity = linalg.count_signs(ew, zero_w if degenerate else 0.0)
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


@dataclass(frozen=True, slots=True)
class SurfaceAnalysis:
    """Everything computed for one canonical (family, a) pair."""

    param: SurfaceParam
    integrals: IntegralSet
    frame: PeriodFrame
    key: KeyMatrices
    report: SpectralReport


@lru_cache(maxsize=4096)
def _analyze_cached(p: SurfaceParam, config: QuadConfig) -> SurfaceAnalysis:
    integrals = families.integral_set(p, config)
    frame = families.period_frame(integrals)
    mats = tangent_frame(frame.omega, families.deformation_data(p))
    km = key_matrices(mats, frame.tau)
    return SurfaceAnalysis(param=p, integrals=integrals, frame=frame, key=km,
                           report=spectral_report(km))


def analyze(p: SurfaceParam, config: QuadConfig = QuadConfig()) -> SurfaceAnalysis:
    """Full pipeline for one surface: p is validated and folded once,
    and the result is the analysis of the folded parameter, cached on
    it and the full QuadConfig.  So tD at -a returns the very object of
    tP at a, and tCLP at -a that of tCLP at a."""
    families.validate_param(p)
    return _analyze_cached(families.canonical_param(p), config)
