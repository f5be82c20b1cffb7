"""Second-variation spectra over the moduli of flat three-tori.

A nine-dimensional deformation space is spanned by five branch-point
motions and four lattice motions, held as one (9, 3, 6) array of
period derivatives.  The Hermitian pairing eta of period data gives a
9x9 key matrix whose signature classifies the surface, and an 18x18
real comparison of actual against admissible periods decides whether
the classification is clean (kernel of dimension exactly eight) or
sits at a degeneration.
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
    hermitian_defect: float


def _pair_all(cs: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Gram matrix of eta over stacked direction halves.

    eta pairs the splits (Z1, Z2) and (W1, W2) of two directions as
    -i tr(Z2^t conj(W1) - Z1^t conj(W2)).  tr(A^t conj(B)) is the plain
    elementwise sum of A * conj(B), so the full matrix reduces to two
    contractions.
    """
    return -1j * (
        np.einsum("iab,jab->ij", ds, cs.conj())
        - np.einsum("iab,jab->ij", cs, ds.conj())
    )


def key_matrices(mats: np.ndarray, tau: np.ndarray) -> KeyMatrices:
    """The 9x9 pairing matrix and the 18x18 period comparison of the
    tangent directions mats, a (9, 3, 6) array from tangent_frame.

    Each direction splits into 3x3 halves (C, D).  The admissible
    projection of a direction with halves (C, D) is
    K = Re C + i (Re C Re tau - Re D) (Im tau)^-1 paired with K tau;
    the second batch applies the same projection to the direction
    rotated by i.  W1 pairs the 18 directions themselves and W2 their
    projections; only Wdiff = W2 - W1 is kept.
    """
    cs = np.ascontiguousarray(mats[:, :, :3])
    ds = np.ascontiguousarray(mats[:, :, 3:])

    w = _pair_all(cs, ds)
    defect = linalg.frobenius(w - w.conj().T)
    w = 0.5 * (w + w.conj().T)

    re_tau = tau.real
    im_inv = linalg.solve(tau.imag, np.eye(3))

    cu = np.concatenate([cs, 1j * cs])
    du = np.concatenate([ds, 1j * ds])
    k_all = cu.real + 1j * ((cu.real @ re_tau - du.real) @ im_inv)
    cv = k_all
    dv = k_all @ tau

    w1 = _pair_all(cu, du).real
    w2 = _pair_all(cv, dv).real
    w1 = 0.5 * (w1 + w1.T)
    w2 = 0.5 * (w2 + w2.T)
    return KeyMatrices(w=w, wdiff=w2 - w1, hermitian_defect=defect)


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
    ew = linalg.eig_selfadjoint(km.w)
    zero_w = ZERO_TOL_FACTOR * float(np.max(np.abs(ew)))

    ed = linalg.eig_selfadjoint(km.wdiff)
    zero_d = ZERO_TOL_FACTOR * float(np.max(np.abs(ed)))
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
    """Everything computed for one (family, a) pair."""

    param: SurfaceParam
    canonical: SurfaceParam
    integrals: IntegralSet
    frame: PeriodFrame
    key: KeyMatrices
    report: SpectralReport


@lru_cache(maxsize=4096)
def _analyze_cached(family: str, a: float, config: QuadConfig) -> SurfaceAnalysis:
    p = SurfaceParam(family, a)
    integrals = families.integral_set(p, config)
    frame = families.period_frame(p, integrals)
    mats = tangent_frame(frame.omega, families.deformation_data(p))
    km = key_matrices(mats, frame.tau)
    report = spectral_report(km)
    return SurfaceAnalysis(param=p, canonical=p, integrals=integrals,
                           frame=frame, key=km, report=report)


def analyze(p: SurfaceParam, config: QuadConfig = QuadConfig()) -> SurfaceAnalysis:
    """Full pipeline for one surface, cached on canonical parameters.

    The cache is keyed on the canonical family and parameter and the
    full QuadConfig.  tD and negative-parameter
    tCLP requests are folded first; they get a new SurfaceAnalysis that
    records the requested parameter and shares the cached integrals,
    frame, key matrices and report of the folded one.
    """
    families.validate_param(p)
    q = families.canonical_param(p)
    result = _analyze_cached(q.family, q.a, config)
    if q != p:
        result = SurfaceAnalysis(param=p, canonical=q, integrals=result.integrals,
                                 frame=result.frame, key=result.key,
                                 report=result.report)
    return result
