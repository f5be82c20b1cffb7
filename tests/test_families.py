"""Tests for parameter domains, period integrals, and scalar identities."""

import math

import numpy as np
import pytest

from msindex import families, linalg
from msindex.errors import DomainError, RiemannMatrixViolation, SingularMatrix
from msindex.families import (
    FAMILIES,
    MARGIN,
    QuadConfig,
    SurfaceParam,
    admissible_range,
    canonical_param,
    domain_bounds,
    integral_set,
    period_frame,
    validate_param,
    verify_identities,
)
from msindex.sweep import DEFAULT_WINDOWS


def test_domain_bounds_table():
    assert domain_bounds("H") == (0.0, 1.0, False, False)
    assert domain_bounds("rPD") == (0.0, 1.0, False, True)
    assert domain_bounds("tP") == (2.0, math.inf, False, False)
    assert domain_bounds("tD") == (-math.inf, -2.0, False, False)
    assert domain_bounds("tCLP") == (-2.0, 2.0, False, False)
    with pytest.raises(DomainError):
        domain_bounds("gyroid")


@pytest.mark.parametrize("fam,a", [
    ("H", 0.5), ("H", MARGIN), ("H", 1.0 - MARGIN),
    ("rPD", 1.0), ("rPD", MARGIN),
    ("tP", 2.0 + MARGIN), ("tP", 1e6),
    ("tD", -14.0), ("tCLP", 0.0),
    ("tCLP", 2.0 - MARGIN), ("tCLP", -2.0 + MARGIN),
])
def test_validate_accepts_interior(fam, a):
    validate_param(SurfaceParam(fam, a))


@pytest.mark.parametrize("fam,a", [
    ("H", 0.0), ("H", 1.0), ("H", MARGIN / 2), ("H", 1.5),
    ("rPD", 0.0), ("rPD", 1.0 + 1e-12),
    ("tP", 2.0), ("tP", -3.0), ("tD", 3.0), ("tD", -2.0),
    ("tCLP", 2.0), ("tCLP", -2.0),
    ("H", math.nan), ("tP", math.inf),
])
def test_validate_rejects_boundary_and_outside(fam, a):
    with pytest.raises(DomainError):
        validate_param(SurfaceParam(fam, a))


def test_admissible_range_takes_the_margin_off_open_ends():
    assert admissible_range("H") == (MARGIN, 1.0 - MARGIN)
    assert admissible_range("rPD") == (MARGIN, 1.0)
    assert admissible_range("tP") == (2.0 + MARGIN, math.inf)
    assert admissible_range("tD") == (-math.inf, -2.0 - MARGIN)
    assert admissible_range("tCLP") == (-2.0 + MARGIN, 2.0 - MARGIN)
    with pytest.raises(DomainError, match="unknown family 'gyroid'"):
        admissible_range("gyroid")


@pytest.mark.parametrize("fam,a,text", [
    ("tP", 2.0, "family tP needs a in (2.0, inf) with margin 1e-06 at open ends; got 2.0"),
    ("rPD", 1.5, "family rPD needs a in (0.0, 1.0] with margin 1e-06 at open ends; got 1.5"),
    ("tD", -1.0, "family tD needs a in (-inf, -2.0) with margin 1e-06 at open ends; got -1.0"),
    ("H", math.nan, "parameter must be finite, got nan"),
])
def test_validate_error_text(fam, a, text):
    with pytest.raises(DomainError) as info:
        validate_param(SurfaceParam(fam, a))
    assert str(info.value) == text


def test_canonical_param():
    assert canonical_param(SurfaceParam("tD", -14.0)) == SurfaceParam("tP", 14.0)
    assert canonical_param(SurfaceParam("tCLP", -0.5)) == SurfaceParam("tCLP", 0.5)
    assert canonical_param(SurfaceParam("tCLP", 0.5)) == SurfaceParam("tCLP", 0.5)
    assert canonical_param(SurfaceParam("H", 0.3)) == SurfaceParam("H", 0.3)


def test_integral_set_matches_oracle_spot_checks(oracle):
    for fam, key, a in [("H", "0.5", 0.5), ("rPD", "0.7", 0.7), ("tP", "14.0", 14.0)]:
        want = oracle["integral_sets"][fam][key]
        got = integral_set(SurfaceParam(fam, a)).as_dict()
        for name, ref in want.items():
            assert abs(got[name] - ref) <= 1e-10 * max(1.0, abs(ref)), (fam, name)


def test_integral_set_of_a_stack_is_each_point_alone_in_floats():
    params = [SurfaceParam("rPD", a) for a in (0.2, 0.6, 1.0)]
    sets = integral_set(params)
    assert isinstance(sets, list) and len(sets) == len(params)
    for p, got in zip(params, sets):
        alone = integral_set(p)
        for name in type(alone).__slots__:
            g, want = getattr(got, name), getattr(alone, name)
            assert type(g) is type(want) and g == want, name
            if isinstance(want, float):
                assert g.hex() == want.hex(), name


def test_period_frame_refuses_a_stack_of_mixed_or_no_families():
    mixed = integral_set([SurfaceParam("tP", 3.0), SurfaceParam("tP", 4.0)])
    mixed.append(integral_set(SurfaceParam("H", 0.3)))
    with pytest.raises(DomainError, match=r"one family, got \['H', 'tP'\]$"):
        period_frame(mixed)
    with pytest.raises(DomainError, match=r"one family, got \[\]$"):
        period_frame([])


def test_integral_set_rejects_td():
    with pytest.raises(DomainError):
        integral_set(SurfaceParam("tD", -14.0))


def test_h_reciprocal_symmetry():
    for a in (0.3, 0.5, 0.8):
        s1 = integral_set(SurfaceParam("H", a)).as_dict()
        s2 = integral_set(SurfaceParam("H", 1.0 / a)).as_dict()
        for name in s1:
            assert abs(s1[name] - s2[name]) <= 1e-10 * max(1.0, abs(s1[name]))


def test_rpd_self_conjugate_point_pairs_up():
    # at a = 1 the two period blocks coincide and the mixed pair is odd
    s = integral_set(SurfaceParam("rPD", 1.0))
    assert s.B == pytest.approx(s.A, rel=1e-12)
    assert s.D == pytest.approx(s.C, rel=1e-12)
    assert s.F == pytest.approx(s.E, rel=1e-12)
    assert s.I == pytest.approx(-s.H, rel=1e-12)


def test_tclp_even_in_a():
    lhs = integral_set(SurfaceParam("tCLP", -0.5)).as_dict()
    rhs = integral_set(SurfaceParam("tCLP", 0.5)).as_dict()
    assert lhs == rhs


@pytest.mark.parametrize("fam,a", [
    ("H", 0.3), ("H", 0.7), ("rPD", 0.5), ("rPD", 1.0),
    ("tP", 7.0), ("tP", 30.0), ("tCLP", 0.0), ("tCLP", 1.5),
])
def test_period_frame_riemann_conditions(fam, a):
    p = SurfaceParam(fam, a)
    frame = period_frame(integral_set(p))
    tau = frame.tau
    assert frame.omega.shape == (6, 6)
    assert tau.shape == (3, 3)
    scale = linalg.frobenius(tau)
    assert linalg.frobenius(tau - tau.T) <= 1e-9 * scale
    im_eigs = linalg.eig_selfadjoint(tau.imag)
    assert min(im_eigs) > 0.0


@pytest.mark.parametrize("fam,a", [
    ("H", 0.01), ("H", 0.99), ("rPD", 0.01), ("rPD", 0.99),
    ("tP", 2.1), ("tP", 40.0), ("tCLP", -1.99), ("tCLP", 1.99),
])
def test_period_frame_at_the_range_ends(fam, a):
    # the linear solve for tau meets its worst-conditioned c1 here
    p = SurfaceParam(fam, a)
    tau = period_frame(integral_set(p)).tau
    assert linalg.frobenius(tau - tau.T) <= 1e-9 * linalg.frobenius(tau)
    assert min(linalg.eig_selfadjoint(0.5 * (tau.imag + tau.imag.T))) > 0.0


def _frame_with_tau(monkeypatch, integrals, tau):
    """period_frame of integrals with the tau of its solve replaced by tau."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "solve", lambda a, b: tau)
        return period_frame(integrals)


@pytest.mark.parametrize("fam", ["H", "rPD", "tP", "tCLP"])
def test_the_frames_inverse_of_im_tau_is_solves(fam):
    # (Im tau)^-1 from sym(Im tau)'s eigendecomposition against the guarded
    # gesv solve over the default window, stacked and point by point
    lo, hi = DEFAULT_WINDOWS[fam]
    params = [canonical_param(SurfaceParam(fam, a)) for a in np.linspace(lo, hi, 33)]
    stacked = period_frame(integral_set(params))
    assert stacked.im_tau_inv.shape == (33, 3, 3)
    for p, inv in zip(params, stacked.im_tau_inv):
        frame = period_frame(integral_set(p))
        assert frame.im_tau_inv.tobytes() == inv.tobytes()
        ref = linalg.solve(frame.tau.imag, np.eye(3))
        assert linalg.frobenius(inv - ref) <= 1e-14 * linalg.frobenius(ref), p


def _near_singular(rng, im):
    """im with its smallest symmetric eigenvalue moved to |im|_F times
    10^-15 .. 10^-4: from below solve's singularity floor pivot_bound(3)
    |im|_F, through the condition numbers near 10^6 where solve's
    residual check starts to refuse, to matrices that both accept."""
    lam_min = np.linalg.eigvalsh(0.5 * (im + im.T))[0]
    target = 10.0 ** rng.uniform(-15.0, -4.0) * np.linalg.norm(im)
    return im - (lam_min - target) * np.eye(3)


def test_the_im_tau_refusal_is_at_least_as_strict_as_solve(monkeypatch):
    # near-singular random SPD matrices and each family's own Im tau moved
    # near singular: wherever solve refuses to invert Im tau (its
    # singularity test or its residual check), period_frame refuses too,
    # naming the parameter
    rng = np.random.default_rng(18)
    cases = []
    for _ in range(300):
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        spd = (q * (10.0 ** rng.uniform(-3, 3, 3))) @ q.T
        re = rng.standard_normal((3, 3))
        cases.append((re + re.T, _near_singular(rng, 0.5 * (spd + spd.T))))
    for fam, a in [("H", 0.01), ("H", 0.5), ("rPD", 0.3), ("rPD", 1.0), ("tP", 2.1),
                   ("tP", 40.0), ("tCLP", 0.0), ("tCLP", 1.99)]:
        tau = period_frame(integral_set(SurfaceParam(fam, a))).tau
        cases += [(tau.real, _near_singular(rng, tau.imag)) for _ in range(40)]
    integrals = integral_set(SurfaceParam("tP", 10.0))
    tally = {(True, True): 0, (False, True): 0, (False, False): 0}
    singular = 0
    for re, im in cases:
        try:
            linalg.solve(im, np.eye(3))
            solve_refuses = False
        except SingularMatrix as exc:
            solve_refuses = True
            if "smallest singular value" in str(exc):
                # the singularity test alone: the eigenvalue floor refuses as well
                singular += 1
                lam = np.linalg.eigvalsh(0.5 * (im + im.T))
                defect = np.linalg.norm(im - im.T)
                floor = math.sqrt(3.0) * linalg.pivot_bound(3) * math.sqrt(
                    float(lam @ lam) + 0.25 * defect ** 2)
                assert lam[0] < floor
        try:
            _frame_with_tau(monkeypatch, integrals, re + 1j * im)
            frame_refuses = False
        except (SingularMatrix, RiemannMatrixViolation) as exc:
            frame_refuses = True
            assert str(exc).find("at a = 10.0") > 0
        assert frame_refuses or not solve_refuses, (re, im)
        tally[solve_refuses, frame_refuses] += 1
    # both refuse, only period_frame refuses, and both accept, each often
    assert min(tally.values()) >= 20 and singular >= 20, (tally, singular)


def test_period_frame_names_the_parameter_of_each_refusal(monkeypatch):
    p = SurfaceParam("tP", 10.0)
    integrals = integral_set(p)
    tau = period_frame(integrals).tau
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    lam, vec = np.linalg.eigh(tau.imag)
    singular = (vec * np.array([1e-16 * lam[-1], lam[1], lam[2]])) @ vec.T
    for fake, error, message in [
            (tau + 1e-6 * skew, RiemannMatrixViolation, r"tau asymmetry .* at a = 10\.0$"),
            (tau.conj(), RiemannMatrixViolation, r"Im tau not positive definite at a = 10\.0, "),
            (tau.real + 1j * singular, SingularMatrix,
             r"Im tau is not safely invertible at a = 10\.0: lambda_min \S+, floor")]:
        with pytest.raises(error, match=message):
            _frame_with_tau(monkeypatch, integrals, fake)
    # a stack names its failing point
    params = [SurfaceParam("tP", a) for a in (5.0, 10.0, 15.0)]
    stack = period_frame(integral_set(params)).tau.copy()
    stack[1] = tau.real + 1j * singular
    with pytest.raises(SingularMatrix, match=r"at a = 10\.0: "):
        _frame_with_tau(monkeypatch, integral_set(params), stack)
    # eigenvectors off by 1e-8 leave a residual that only its own check refuses
    exact = linalg.eig_selfadjoint

    def perturbed(m, vectors=False):
        vals, vecs = exact(m, vectors=vectors)
        return vals, vecs * (1.0 + 1e-8)

    monkeypatch.setattr(linalg, "eig_selfadjoint", perturbed)
    with pytest.raises(SingularMatrix, match=r"at a = 10\.0: .* residual [34]\.\d+e-08$"):
        period_frame(integrals)


def test_a_refused_tau_solve_names_the_parameter():
    # at tP a = 1e60 solve refuses C1 as near-singular
    with pytest.raises(SingularMatrix, match=r"^smallest singular value .* at a = 1e\+60$"):
        period_frame(integral_set(SurfaceParam("tP", 1e60)))
    # a stack names its first point that solve refuses alone
    params = [SurfaceParam("tP", a) for a in (10.0, 1e60, 1e70)]
    with pytest.raises(SingularMatrix, match=r"\) at a = 1e\+60$"):
        period_frame(integral_set(params))


def test_identities_h_count_and_residuals():
    rows = verify_identities(SurfaceParam("H", 0.5))
    assert len(rows) == 2
    for name, lhs, rhs, resid in rows:
        assert name.startswith("H-identity-")
        assert resid <= 1e-8
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_identities_rpd_count_and_residuals():
    rows = verify_identities(SurfaceParam("rPD", 0.7))
    assert len(rows) == 4
    assert all(r[3] <= 1e-8 for r in rows)


@pytest.mark.parametrize("fam, a", [
    ("H", 1e-4), ("H", 1e-3), ("H", 0.999), ("H", 0.9999),
    ("rPD", 1e-3), ("rPD", 0.01), ("rPD", 0.999), ("rPD", 1.0)])
def test_identities_hold_to_relative_precision_at_the_range_ends(fam, a):
    # the absolute tolerance of verify cannot see a relative loss where
    # both sides are small; each side here is held to the other's size
    for name, lhs, rhs, resid in verify_identities(SurfaceParam(fam, a)):
        assert resid <= 1e-12 * max(abs(lhs), abs(rhs)), (name, lhs, rhs)


def test_identities_unsupported_family():
    with pytest.raises(DomainError):
        verify_identities(SurfaceParam("tP", 14.0))


def test_identity_fixture_value_at_closed_end(oracle):
    # both sides of the second balance relation at a = 1, frozen from
    # the independent adaptive oracle; our row stores the same pair
    # with the opposite overall sign convention on row one
    want = oracle["rpd101_at_a1"]
    rows = {name: (lhs, rhs) for name, lhs, rhs, _ in verify_identities(SurfaceParam("rPD", 1.0))}
    lhs, rhs = rows["rPD-identity-2"]
    assert abs(lhs - want["lhs"]) <= 1e-12 * abs(want["lhs"])
    assert abs(rhs - want["rhs"]) <= 1e-12 * abs(want["rhs"])


def test_rpd_tail_piece_matches_oracle(oracle):
    # the slowest-decaying bare tail integral, the TA row of the program's
    # own rPD table (its tail folded onto (0, 1) in its features), against
    # the frozen value of the independent adaptive oracle
    from msindex.quadrature import integrate

    value, _ = integrate(families._integrands_rPD(0.5)["periods"])["TA"]
    want = oracle["rpd_tail_bare"]["0.5"]
    assert abs(value - want) <= 1e-14 * want


@pytest.mark.parametrize("a", [1e-3, 0.01, 0.05, 0.3, 0.7, 0.9, 0.99, 0.999, 0.9999, 0.99999])
def test_h_cap_rows_match_high_precision(a):
    # the cap rows of H's table, on x in (0.5, 1), against 40-digit
    # mpmath.quad in s = 1 - x:
    # x and 1 over sqrt(pol span), then over pol^1.5 sqrt(span), with
    # pol = c + s (18 - s (24 - 8s)) and span = s (2 - s).  As a -> 1,
    # c = (a^3 - 1)^2 / a^3 -> 0 and pol rises from c over a width of
    # about c / 18 at s = 0, where the quadrature is cut.
    mpmath = pytest.importorskip("mpmath")
    from msindex.quadrature import integrate

    got = integrate(families._integrands_H(a)["periods"])
    with mpmath.workdps(40):
        am = mpmath.mpf(a)
        c = (am ** 3 - 1) ** 2 / am ** 3
        memo = {}

        def parts(s):
            # x, sqrt(pol span) and pol^1.5 sqrt(span) at x = 1 - s
            if s not in memo:
                pol = c + s * (18 - s * (24 - 8 * s))
                root = mpmath.sqrt(pol * s * (2 - s))
                memo[s] = (1 - s, root, pol * root)
            return memo[s]

        cuts = [0] + ([c / 18] if c / 18 < 0.5 else []) + [0.5]
        for name, over_x, den in (("B2", True, 1), ("C", False, 1), ("F2", True, 2),
                                  ("H", False, 2)):
            want = mpmath.quad(lambda s: (parts(s)[0] if over_x else 1) / parts(s)[den], cuts)
            assert abs(got[name][0] - want) <= 1e-15 * abs(want), name


@pytest.mark.parametrize("a", [0.9999, 0.999999])
def test_h_upper_cap_matches_high_precision_near_one(a):
    # the upper_cap table of H's second identity, 1 / sqrt(c + rise) on
    # (0.5, 1), against 40-digit mpmath.quad in s = 1 - x; it peaks over a
    # width of about c / 18 at s = 0, which its features resolve there
    mpmath = pytest.importorskip("mpmath")
    from msindex.quadrature import integrate

    got, _ = integrate(families._identity_integrands_H(a)["upper_cap"])
    with mpmath.workdps(40):
        am = mpmath.mpf(a)
        c = (am ** 3 - 1) ** 2 / am ** 3
        want = mpmath.quad(lambda s: 1 / mpmath.sqrt(c + s * (18 - s * (24 - 8 * s))),
                           [0, c / 18, 0.5])
    assert abs(got - want) <= 1e-15 * abs(want)


def test_families_tuple_is_stable():
    assert FAMILIES == ("H", "rPD", "tP", "tD", "tCLP")


def test_every_public_name_resolves():
    import msindex

    assert all(hasattr(msindex, name) for name in msindex.__all__)
    assert len(set(msindex.__all__)) == len(msindex.__all__)
