"""Tests for the tangent directions, pairing matrices, and reports."""

import json
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from msindex import linalg, moduli
from msindex.errors import DomainError, NonConvergence
from msindex.families import (
    P1,
    QuadConfig,
    SurfaceParam,
    deformation_data,
    integral_set,
    period_frame,
)
from msindex.moduli import (
    ZERO_TOL_FACTOR,
    KeyMatrices,
    _pair_all,
    analyze,
    spectral_report,
    tangent_frame,
)
from msindex.sweep import DEFAULT_WINDOWS


def _cmat(data):
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _halves(rng, k):
    """Random halves (C, D) of k directions, as two (k, 3, 3) stacks."""
    z = rng.standard_normal((2, k, 3, 3)) + 1j * rng.standard_normal((2, k, 3, 3))
    return z[0], z[1]


@pytest.fixture(scope="module")
def h_mid():
    return analyze(SurfaceParam("H", 0.5))


def test_p1_inverse_matches_fixture(oracle):
    inv = linalg.solve(P1, np.eye(3))
    assert np.allclose(inv, _cmat(oracle["p1_inverse"]), atol=1e-13)


def test_first_tangent_direction_matches_fixture(oracle, h_mid):
    p = SurfaceParam("H", 0.5)
    mats = tangent_frame(h_mid.frame.omega, deformation_data(p))
    want = _cmat(oracle["t1_H_a0.5"])
    got = mats[0]
    assert got.shape == (3, 6)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_tangent_frame_has_nine_directions(h_mid):
    p_ai = deformation_data(SurfaceParam("H", 0.5))
    assert p_ai.shape == (5, 3, 6) and not p_ai.flags.writeable
    mats = tangent_frame(h_mid.frame.omega, p_ai)
    assert mats.shape == (9, 3, 6) and not mats.flags.writeable
    # the sixth direction is the top period block itself
    assert np.array_equal(mats[5], h_mid.frame.omega[:3, :])


def test_eta_hermitian_symmetry():
    rng = np.random.default_rng(7)
    gram = _pair_all(*_halves(rng, 10))
    assert np.max(np.abs(gram - gram.conj().T)) <= 1e-12
    assert np.max(np.abs(np.diag(gram).imag)) <= 1e-12


def test_eta_sesquilinear():
    # directions x, y, s x, s y: eta(s x, y) = s eta(x, y) and
    # eta(x, s y) = conj(s) eta(x, y)
    rng = np.random.default_rng(11)
    s = 0.8 - 1.7j
    cs, ds = _halves(rng, 2)
    gram = _pair_all(np.concatenate([cs, s * cs]), np.concatenate([ds, s * ds]))
    assert abs(gram[2, 1] - s * gram[0, 1]) <= 1e-12
    assert abs(gram[0, 3] - np.conj(s) * gram[0, 1]) <= 1e-12


def test_key_matrix_structure(h_mid):
    km = h_mid.key
    assert km.w.shape == (9, 9)
    assert km.wdiff.shape == (18, 18)
    assert km.hermitian_defect == 0.0
    assert linalg.frobenius(km.w - km.w.conj().T) == 0.0
    assert np.array_equal(km.wdiff, km.wdiff.T)
    assert not np.iscomplexobj(km.wdiff)


def test_report_counts_and_relations(h_mid):
    r = h_mid.report
    assert r.p + r.q + r.nullity_E == 9
    assert r.kernel_dim_wdiff == 8
    assert not r.degenerate
    assert r.index_A == r.index_E
    assert r.nullity_A == r.nullity_E + 3
    assert r.index_E >= 1
    assert list(r.eig_w) == sorted(r.eig_w, reverse=True)
    assert list(r.eig_wdiff) == sorted(r.eig_wdiff, reverse=True)
    assert r.zero_tol_w == ZERO_TOL_FACTOR * max(abs(v) for v in r.eig_w)


def test_zero_tolerances_are_recorded():
    r = analyze(SurfaceParam("tP", 14.0)).report
    assert r.zero_tol_w == ZERO_TOL_FACTOR * max(abs(v) for v in r.eig_w)
    assert r.zero_tol_wdiff == ZERO_TOL_FACTOR * max(abs(v) for v in r.eig_wdiff)


def test_analyze_is_cached():
    assert analyze(SurfaceParam("H", 0.5)) is analyze(SurfaceParam("H", 0.5))


def test_analyze_keys_its_cache_on_the_whole_quad_config():
    # a looser tolerance must not reuse the default analysis
    p = SurfaceParam("tP", 14.0)
    loose = QuadConfig(target_rel_tol=1e-4)
    assert analyze(p).integrals == integral_set(p)
    assert analyze(p, config=loose).integrals == integral_set(p, loose)
    assert analyze(p, config=loose).integrals != analyze(p).integrals


def test_delegation_shares_the_analysis():
    td = analyze(SurfaceParam("tD", -14.0))
    tp = analyze(SurfaceParam("tP", 14.0))
    assert td.report is tp.report
    assert td.key is tp.key
    assert td.param == SurfaceParam("tD", -14.0)
    assert td.canonical == SurfaceParam("tP", 14.0)

    neg = analyze(SurfaceParam("tCLP", -0.7))
    pos = analyze(SurfaceParam("tCLP", 0.7))
    assert neg.report is pos.report


def test_report_spectra_are_read_only(h_mid):
    r = h_mid.report
    for vals, n in ((r.eig_w, 9), (r.eig_wdiff, 18)):
        assert vals.dtype == np.float64 and vals.shape == (n,)
        with pytest.raises(ValueError):
            vals[0] = 0.0
    assert not hasattr(r, "__dict__")


def test_retained_reports_are_compact(h_mid):
    # what a caller keeps per report: the slotted record, two float64
    # arrays of 9 and 18 values, and two floats; as tuples of boxed
    # floats a report took about 1.3 KB
    count = 50
    spectral_report(h_mid.key)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = [spectral_report(h_mid.key) for _ in range(count)]
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(reports) == count
    assert (after - before) / count <= 800


def test_cached_analyses_are_compact():
    # what the analysis cache frees per entry: the integrals, the period
    # frame (omega and tau), the 9x9 and 18x18 key matrices, the report
    # and the cache key, about 6.5 KB in slotted records; the bound
    # leaves no room for a __dict__ per record or for a tau that keeps
    # the whole [tau | C1^-1] array of its solve alive
    count = 30
    rng = np.random.default_rng(30)
    windows = [DEFAULT_WINDOWS[fam] + (fam,) for fam in ("H", "rPD", "tP", "tCLP")]
    points = [SurfaceParam(fam, rng.uniform(lo, hi))
              for lo, hi, fam in windows * (count // len(windows) + 1)][:count]
    moduli._analyze_cached.cache_clear()
    tracemalloc.start()
    try:
        for p in points:
            analyze(p)
        assert moduli._analyze_cached.cache_info().currsize == count
        held = tracemalloc.get_traced_memory()[0]
        moduli._analyze_cached.cache_clear()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed / count <= 7000


@pytest.mark.xfail(strict=True, raises=NonConvergence,
                   reason="row A2 of tP peaks at t = 1/sqrt(2) with width about "
                          "sqrt(a - 2), which tanh-sinh does not resolve by level 12")
@pytest.mark.parametrize("family, a", [("tP", 2.00001), ("tP", 2.000002), ("tD", -2.00001)])
def test_analyze_near_the_tp_boundary(family, a):
    # inside the admitted domain a >= 2 + MARGIN
    r = analyze(SurfaceParam(family, a)).report
    assert r.eig_w.shape == (9,) and r.eig_wdiff.shape == (18,)


def test_analyze_rejects_bad_parameters():
    with pytest.raises(DomainError):
        analyze(SurfaceParam("H", 2.0))
    with pytest.raises(DomainError):
        analyze(SurfaceParam("tP", 1.0))


def test_pipeline_pieces_agree_with_analyze(h_mid):
    # rebuilding by hand from the same integrals reproduces tau exactly
    p = SurfaceParam("H", 0.5)
    frame = period_frame(p, integral_set(p))
    assert np.array_equal(frame.tau, h_mid.frame.tau)


def _pipeline_points():
    path = resources.files("msindex.data").joinpath("reference_tables.json")
    with path.open(encoding="utf-8") as fh:
        families = json.load(fh)["families"]
    samples = [(fam, s["a"]) for fam, entry in families.items()
               for s in entry.get("samples", [])]
    ends = [("H", 0.01), ("H", 0.99), ("rPD", 0.01), ("rPD", 0.99), ("tP", 40.0)]
    return samples + ends


@pytest.mark.parametrize("family,a", _pipeline_points())
def test_key_matrix_spectra_match_mpmath(family, a):
    # an oracle independent of LAPACK: mpmath's Hermitian and symmetric
    # eigensolvers at 32 digits on the same float64 matrices
    mpmath = pytest.importorskip("mpmath")
    res = analyze(SurfaceParam(family, a))
    for mat, got in ((res.key.w, res.report.eig_w),
                     (res.key.wdiff, res.report.eig_wdiff)):
        solver = mpmath.eighe if np.iscomplexobj(mat) else mpmath.eigsy
        with mpmath.workdps(32):
            ref = solver(mpmath.matrix(mat.tolist()), eigvals_only=True)
            ref = np.sort(np.array([float(v) for v in ref]))[::-1]
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("family,a", _pipeline_points())
def test_key_matrix_spectra_match_numpy(family, a):
    # the report's spectra are those of its own key matrices, in
    # descending order; numpy is also the library's solver, so this
    # checks the wiring, and the mpmath test above the accuracy
    res = analyze(SurfaceParam(family, a))
    for mat, got in ((res.key.w, res.report.eig_w),
                     (res.key.wdiff, res.report.eig_wdiff)):
        ref = np.linalg.eigvalsh(mat)[::-1]
        assert np.max(np.abs(np.array(got) - ref)) <= 1e-13 * np.max(np.abs(ref))


def _six_contraction_key_matrices(mats, tau):
    """W and Wdiff by the reference formula: every Gram matrix from two
    einsum contractions, the directions rotated by i formed as complex
    products, and each result symmetrized."""
    def pair(cs, ds):
        return -1j * (np.einsum("iab,jab->ij", ds, cs.conj())
                      - np.einsum("iab,jab->ij", cs, ds.conj()))

    cs = np.ascontiguousarray(mats[:, :, :3])
    ds = np.ascontiguousarray(mats[:, :, 3:])
    w = pair(cs, ds)
    w = 0.5 * (w + w.conj().T)
    im_inv = linalg.solve(tau.imag, np.eye(3))
    cu = np.concatenate([cs, 1j * cs])
    du = np.concatenate([ds, 1j * ds])
    k_all = cu.real + 1j * ((cu.real @ tau.real - du.real) @ im_inv)
    w1 = pair(cu, du).real
    w2 = pair(k_all, k_all @ tau).real
    return w, 0.5 * (w2 + w2.T) - 0.5 * (w1 + w1.T)


def _key_matrix_points():
    """Every reference sample and root, the tD mirror of each tP one,
    and both ends of each family's default window."""
    path = resources.files("msindex.data").joinpath("reference_tables.json")
    with path.open(encoding="utf-8") as fh:
        families = json.load(fh)["families"]
    points = [(fam, entry["a"]) for fam, table in families.items()
              for key in ("samples", "roots") for entry in table.get(key, [])]
    points += [("tD", -a) for fam, a in points if fam == "tP"]
    points += [(fam, a) for fam, window in DEFAULT_WINDOWS.items() for a in window]
    return points


def test_key_matrices_equal_the_six_contraction_reference():
    # one contraction per Gram matrix and the realification of W give
    # the reference's bits: each product and each summation order match
    for family, a in _key_matrix_points():
        res = analyze(SurfaceParam(family, a))
        mats = tangent_frame(res.frame.omega, deformation_data(res.canonical))
        km = res.key
        w_ref, wdiff_ref = _six_contraction_key_matrices(mats, res.frame.tau)
        assert np.array_equal(km.w, w_ref), (family, a)
        assert np.array_equal(km.wdiff, wdiff_ref), (family, a)
        assert km.hermitian_defect == 0.0
        assert np.array_equal(km.w, km.w.conj().T)
        assert np.array_equal(km.wdiff, km.wdiff.T)


@pytest.mark.parametrize("family,a", _key_matrix_points())
def test_zero_tolerances_scale_with_the_largest_eigenvalue(family, a):
    r = analyze(SurfaceParam(family, a)).report
    assert r.zero_tol_w == ZERO_TOL_FACTOR * float(np.max(np.abs(r.eig_w)))
    assert r.zero_tol_wdiff == ZERO_TOL_FACTOR * float(np.max(np.abs(r.eig_wdiff)))


@pytest.mark.parametrize("w_diag", [
    [9.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.01, 1e-3],
    [-1e-3, -0.01, -0.1, -0.25, -0.5, -1.0, -2.0, -4.0, -9.0],
    [3.0, 1.0, 0.0, 0.0, 0.0, 0.0, -1.0, -2.0, -7.5],
    [0.0] * 9,
], ids=["positive", "negative", "mixed", "zero"])
def test_zero_tolerances_on_synthetic_spectra(w_diag):
    wdiff_diag = np.concatenate([w_diag, -2.0 * np.array(w_diag)])
    km = KeyMatrices(w=np.diag(w_diag).astype(complex), wdiff=np.diag(wdiff_diag),
                     hermitian_defect=0.0)
    r = spectral_report(km)
    assert r.zero_tol_w == ZERO_TOL_FACTOR * float(np.max(np.abs(w_diag)))
    assert r.zero_tol_wdiff == ZERO_TOL_FACTOR * float(np.max(np.abs(wdiff_diag)))
    assert np.copysign(1.0, r.zero_tol_w) == 1.0
