"""Unit tests for the double-exponential quadrature core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msindex import families, quadrature
from msindex.errors import DomainError, NonConvergence
from msindex.quadrature import Integrand, QuadConfig, _nodes, integrate, integrate_tail


def test_cubic_polynomial_exact():
    f = Integrand(lambda x: 4.0 * x ** 3 - 2.0 * x + 1.0, 0.0, 2.0)
    value, err = integrate(f)
    assert abs(value - 14.0) < 1e-12
    assert err < 1e-10


def test_gaussian_bump():
    f = Integrand(lambda x: np.exp(-x * x), -4.0, 4.0)
    value, _ = integrate(f)
    assert abs(value - math.sqrt(math.pi) * math.erf(4.0)) < 1e-12


def test_inverse_sqrt_endpoint():
    f = Integrand(
        lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
        singular_lo=True, from_lo=lambda s: 1.0 / np.sqrt(s),
    )
    value, _ = integrate(f)
    assert abs(value - 2.0) < 1e-12


def test_double_endpoint_singularity():
    # arcsine weight, integral is pi
    f = Integrand(
        lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 1.0,
        singular_lo=True, singular_hi=True,
        from_lo=lambda s: 1.0 / np.sqrt(s * (1.0 - s)),
        from_hi=lambda s: 1.0 / np.sqrt(s * (1.0 - s)),
    )
    value, _ = integrate(f)
    assert abs(value - math.pi) < 1e-12


def test_log_endpoint():
    f = Integrand(
        lambda x: -np.log(x), 0.0, 1.0,
        singular_lo=True, from_lo=lambda s: -np.log(s),
    )
    value, _ = integrate(f)
    assert abs(value - 1.0) < 1e-12


def test_offset_form_beats_cancellation():
    # near x = 1 the naive 1 - x*x cancels; the offset form does not
    f = Integrand(
        lambda x: 1.0 / np.sqrt(1.0 - x * x), 0.0, 1.0,
        singular_hi=True, from_hi=lambda s: 1.0 / np.sqrt(s * (2.0 - s)),
    )
    value, _ = integrate(f)
    assert abs(value - math.pi / 2.0) < 1e-13


def test_scalar_only_integrand_raises_type_error():
    # math.* rejects arrays; integrands must be vectorized
    f = Integrand(lambda x: math.exp(-x) * math.cos(x), 0.0, 2.0)
    with pytest.raises(TypeError):
        integrate(f)


def test_constant_scalar_integrand_raises_type_error():
    # a bare float does not have the shape of the node array
    with pytest.raises(TypeError):
        integrate(Integrand(lambda x: 3.0, -1.0, 2.0))


def test_singular_endpoint_away_from_zero_needs_its_offset_form():
    with pytest.raises(ValueError):
        Integrand(lambda x: 1.0 / np.sqrt(1.0 - x), 0.5, 1.0, singular_hi=True)
    with pytest.raises(ValueError):
        Integrand(lambda t: 1.0 / (t * np.sqrt(t - 1.0)), 1.0, math.inf, singular_lo=True)
    with pytest.raises(ValueError):
        Integrand(lambda x: 1.0 / np.sqrt(x + 1.0), -1.0, 0.0, singular_lo=True)


def test_singular_endpoint_at_zero_or_with_offset_form_is_accepted():
    Integrand(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, singular_lo=True)
    Integrand(lambda x: 1.0 / np.sqrt(-x), -1.0, 0.0, singular_hi=True)
    Integrand(
        lambda x: 1.0 / np.sqrt(1.0 - x), 0.5, 1.0,
        singular_hi=True, from_hi=lambda s: 1.0 / np.sqrt(s),
    )
    Integrand(
        lambda t: 1.0 / (t * np.sqrt(t - 1.0)), 1.0, math.inf,
        singular_lo=True, from_lo=lambda s: 1.0 / ((1.0 + s) * np.sqrt(s)),
    )


def test_tail_inverse_square():
    f = Integrand(lambda t: 1.0 / t ** 2, 1.0, math.inf)
    value, _ = integrate_tail(f)
    assert abs(value - 1.0) < 1e-12


def test_tail_with_finite_end_singularity():
    # int_1^inf dt / (t^2 sqrt(t-1)) = pi/2
    f = Integrand(
        lambda t: 1.0 / (t * t * np.sqrt(t - 1.0)), 1.0, math.inf,
        singular_lo=True,
        from_lo=lambda s: 1.0 / ((1.0 + s) ** 2 * np.sqrt(s)),
    )
    value, _ = integrate_tail(f)
    assert abs(value - math.pi / 2.0) < 1e-12


def test_error_estimate_bounds_true_error():
    f = Integrand(lambda x: np.cos(3.0 * x), 0.0, 1.0)
    value, err = integrate(f)
    exact = math.sin(3.0) / 3.0
    assert abs(value - exact) <= max(10.0 * err, 1e-14)


def test_level_budget_does_not_change_converged_result():
    f = Integrand(lambda x: np.exp(x) * np.cos(2.0 * x), 0.0, 1.5)
    v8, _ = integrate(f, QuadConfig(max_level=8))
    v12, _ = integrate(f, QuadConfig(max_level=12))
    assert v8 == v12


def test_interval_validation():
    with pytest.raises(DomainError):
        integrate(Integrand(lambda x: x, 1.0, 1.0))
    with pytest.raises(DomainError):
        integrate(Integrand(lambda x: x, 0.0, math.inf))
    with pytest.raises(DomainError):
        integrate_tail(Integrand(lambda x: x, 0.0, 1.0))


def test_nonfinite_integrand_rejected():
    bad = Integrand(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0)
    with pytest.raises(DomainError):
        integrate(bad)


def _rough(x):
    # interior kink: not converged at level 3 under the default tolerance
    return np.abs(x - 1.0 / 3.0) ** 0.1


def test_nonfinite_value_first_at_level_two_rejected():
    _, d_near = _nodes(2)
    bad_x = 1.0 - 0.5 * d_near[0]
    f = Integrand(lambda x: np.where(x == bad_x, np.inf, _rough(x)), 0.0, 1.0)
    with pytest.raises(DomainError):
        integrate(f)


def test_nonfinite_value_only_at_level_four_rejected():
    _, d_near = _nodes(4)
    bad_x = 0.0 + 0.5 * d_near[0]
    f = Integrand(lambda x: np.where(x == bad_x, np.nan, _rough(x)), 0.0, 1.0)
    with pytest.raises(DomainError):
        integrate(f)
    # level 4 is reached: without the bad node it is evaluated and still unconverged
    with pytest.raises(NonConvergence):
        integrate(Integrand(_rough, 0.0, 1.0), QuadConfig(max_level=4))


def test_budget_exhaustion_raises():
    # interior kink, far too slow for four levels at 1e-15
    rough = Integrand(lambda x: np.abs(x - 1.0 / 3.0) ** 0.1, 0.0, 1.0)
    with pytest.raises(NonConvergence):
        integrate(rough, QuadConfig(target_rel_tol=1e-15, max_level=4))


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(target_rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadConfig(max_level=3)
    with pytest.raises(ValueError):
        QuadConfig(abs_floor=0.0)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    c0=st.floats(-5, 5), c1=st.floats(-5, 5), c2=st.floats(-5, 5),
    alpha=st.floats(-3, 3), beta=st.floats(-3, 3),
)
def test_linearity(c0, c1, c2, alpha, beta):
    f = Integrand(lambda x: c0 + c1 * x + c2 * x * x, 0.0, 1.0)
    g = Integrand(lambda x: np.sin(x) - c1 * x, 0.0, 1.0)
    combo = Integrand(
        lambda x: alpha * f.evaluator(x) + beta * g.evaluator(x), 0.0, 1.0,
    )
    vf, _ = integrate(f)
    vg, _ = integrate(g)
    vc, _ = integrate(combo)
    scale = 1.0 + abs(alpha) * abs(vf) + abs(beta) * abs(vg)
    assert abs(vc - (alpha * vf + beta * vg)) <= 1e-10 * scale


def _per_level_reference(f, config=QuadConfig()):
    """The tanh-sinh sum level by level: one np.dot per side per level."""
    half = 0.5 * (f.hi - f.lo)

    def side(d_near, upper):
        s = half * d_near
        form = f.from_hi if upper else f.from_lo
        if form is not None:
            return np.asarray(form(s), dtype=float)
        return np.asarray(f.evaluator(f.hi - s if upper else f.lo + s), dtype=float)

    def level_sum(level):
        w, d_near = _nodes(level)
        return float(np.dot(w, side(d_near, True))) + float(np.dot(w, side(d_near, False)))

    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        centre = np.asarray(f.evaluator(np.array([f.lo + half])), dtype=float)
        trapezoid = level_sum(0) + 0.5 * math.pi * float(centre[0])
        value = half * trapezoid
        for level in range(1, config.max_level + 1):
            trapezoid = 0.5 * trapezoid + 0.5 ** level * level_sum(level)
            new_value = half * trapezoid
            err = abs(new_value - value)
            value = new_value
            if level >= 3 and err <= max(config.target_rel_tol * abs(value), config.abs_floor):
                return value, err
    raise AssertionError("reference did not converge")


@pytest.mark.parametrize("table, a", [
    (families._integrands_H, 0.3),
    (families._integrands_rPD, 0.6),
    (families._integrands_tP, 10.0),
    (families._integrands_tCLP, 1.0),
])
def test_sums_equal_the_per_level_reference_exactly(monkeypatch, table, a):
    for name, f in table(a).items():
        if math.isinf(f.hi):
            got = integrate_tail(f)
            # integrate_tail folds onto (0, 1) and calls the module's integrate
            monkeypatch.setattr(quadrature, "integrate", _per_level_reference)
            want = integrate_tail(f)
            monkeypatch.undo()
        else:
            got = integrate(f)
            want = _per_level_reference(f)
        assert got[0] == want[0], name
        assert got[1] == want[1], name
