import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nlsv.model import (
    dampening,
    diffusion_det,
    drift_p,
    excess_drift_f,
    gamma_transform,
    iv_to_v,
    market_price_of_risk,
    price_drift,
    swap_coefficients,
    v_to_iv,
    variance_drift,
)
from nlsv.params import DomainViolation, Measure, ParamVector

from conftest import LN, LN_PARAMS, NL, NL_PARAMS, RW

TENOR = 22 / 262


# ---------------------------------------------------------------- drifts


def _drift_q(v, params):
    """Pricing-measure drift vector (price component, variance component)."""
    return np.stack(
        [price_drift(v, params, Measure.Q), variance_drift(v, params, None, Measure.Q)]
    )


def test_drift_q_table_values():
    p = dataclasses.replace(NL_PARAMS, r=0.05)
    mu = _drift_q(0.04, p)
    assert mu[0] == pytest.approx(0.03, abs=1e-15)
    assert mu[1] == pytest.approx(0.50304, abs=1e-12)


def test_drift_q_limits():
    p = dataclasses.replace(NL_PARAMS, r=0.0)
    mu = _drift_q(1e-14, p)
    assert mu[1] == pytest.approx(p.b0_q, rel=1e-9)
    assert mu[0] == pytest.approx(0.0, abs=1e-14)


def test_drift_p_nl_table_value():
    mu = drift_p(0.02, NL_PARAMS, NL)
    expected = -0.1064 + 8.9591 * 0.02 - 180.7473 * 0.02**2 + 0.00068 / 0.02
    assert mu[1] == pytest.approx(expected, abs=1e-12)
    assert mu[1] == pytest.approx(0.0344831, abs=1e-6)


def test_drift_p_ln_intercept_is_b0q():
    mu = drift_p(1e-300, LN_PARAMS, LN)
    assert mu[1] == pytest.approx(LN_PARAMS.b0_q, rel=1e-12)


def test_drift_p_rejects_rw():
    with pytest.raises(DomainViolation):
        drift_p(0.04, LN_PARAMS, RW)


def test_nl_nests_ln():
    nested = dataclasses.replace(
        LN_PARAMS, b0=LN_PARAMS.b0_q, b1=LN_PARAMS.b1, b2=0.0, b3=0.0
    )
    v = np.linspace(0.005, 0.3, 64)
    assert np.allclose(drift_p(v, nested, NL), drift_p(v, nested, LN), rtol=1e-14)


@given(v=st.floats(1e-4, 1.0))
@settings(max_examples=80, deadline=None)
def test_measure_change_identity(v):
    for params, spec in ((LN_PARAMS, LN), (NL_PARAMS, NL)):
        lhs = np.array([params.r - v / 2, params.b0_q + params.b1_q * v])
        lhs = lhs + excess_drift_f(v, params, spec)
        rhs = drift_p(v, params, spec)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_excess_f_ln_variance_component():
    v = np.array([0.01, 0.05, 0.2])
    f = excess_drift_f(v, LN_PARAMS, LN)
    assert np.allclose(f[1], (LN_PARAMS.b1 - LN_PARAMS.b1_q) * v, rtol=1e-14)


def test_excess_f_vanishes_when_p_equals_q():
    p = dataclasses.replace(
        NL_PARAMS, a0=NL_PARAMS.r, a1=-0.5, b0=NL_PARAMS.b0_q, b1=NL_PARAMS.b1_q, b2=0.0, b3=0.0
    )
    f = excess_drift_f(np.linspace(0.01, 0.1, 7), p, NL)
    assert np.allclose(f, 0.0, atol=1e-15)


# ------------------------------------------------------------ dampening


def test_dampening_range_on_compact_set():
    # Grid oracle: the largest c keeping D in (0.9, 1) on V in [0.01, 0.1]
    # at the NL anchor values is about 1.6e-4; c = 1e-4 satisfies it.
    v = np.linspace(0.01, 0.1, 200)
    d = dampening(v, NL_PARAMS, NL, c=1e-4)
    assert np.all(d > 0.9) and np.all(d < 1.0)


def test_dampening_c001_values_match_direct_formula():
    v = np.array([0.01, 0.04, 0.1])
    f = excess_drift_f(v, NL_PARAMS, NL)
    expected = np.exp(-0.01 / diffusion_det(v, NL_PARAMS) - 0.01 * np.abs(f).sum(axis=0))
    assert np.allclose(dampening(v, NL_PARAMS, NL, c=0.01), expected, rtol=1e-14)


def test_dampening_to_one_as_c_vanishes():
    v = np.linspace(0.01, 0.2, 50)
    prev = np.zeros_like(v)
    for c in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        d = dampening(v, NL_PARAMS, NL, c=c)
        assert np.all(d >= prev)  # monotone non-increasing in c
        prev = d
    assert np.all(1.0 - prev < 1e-4)


def test_dampening_vanishes_at_zero_boundary():
    assert dampening(1e-12, NL_PARAMS, NL, c=1e-6) < 1e-300


def test_dampening_in_unit_interval():
    v = np.exp(np.random.default_rng(0).uniform(np.log(1e-6), np.log(10.0), 500))
    d = dampening(v, NL_PARAMS, NL, c=1e-6)
    assert np.all(d > 0.0) and np.all(d <= 1.0)


# ------------------------------------------------- market price of risk


def test_ln_premium_constant_and_value():
    v = np.linspace(0.005, 0.5, 101)
    lam = market_price_of_risk(v, LN_PARAMS, LN)
    premium = (LN_PARAMS.b1 - LN_PARAMS.b1_q) / LN_PARAMS.sigma
    assert np.max(lam[1]) - np.min(lam[1]) < 1e-12
    assert lam[1][0] == pytest.approx(premium, rel=1e-12)
    assert lam[1][0] == pytest.approx(-5.7833, abs=1e-4)


def test_market_price_solves_linear_system():
    # Oracle: numerical solve of Sigma(V) Lambda = D f at several V.
    rng = np.random.default_rng(42)
    for params, spec in ((LN_PARAMS, LN), (NL_PARAMS, NL)):
        for v in rng.uniform(0.005, 0.4, 25):
            for damp in (False, True):
                lam = market_price_of_risk(v, params, spec, apply_dampening=damp)
                sq = np.sqrt(v)
                root = np.sqrt(1.0 - params.rho**2)
                sig = np.array([[root * sq, params.rho * sq], [0.0, params.sigma * v]])
                target = excess_drift_f(v, params, spec)
                if damp:
                    target = target * dampening(v, params, spec)
                oracle = np.linalg.solve(sig, target)
                assert np.allclose(lam, oracle, rtol=1e-11, atol=1e-13)


def test_market_price_zero_when_f_zero():
    p = dataclasses.replace(
        LN_PARAMS, a0=LN_PARAMS.r, a1=-0.5, b1=LN_PARAMS.b1_q
    )
    lam = market_price_of_risk(np.linspace(0.01, 0.3, 9), p, LN)
    assert np.allclose(lam, 0.0, atol=1e-15)


def test_dampened_matches_undampened_for_tiny_c():
    v = np.linspace(0.02, 0.2, 11)
    lam0 = market_price_of_risk(v, NL_PARAMS, NL, apply_dampening=False)
    lam1 = market_price_of_risk(v, NL_PARAMS, NL, apply_dampening=True, c=1e-13)
    assert np.allclose(lam0, lam1, rtol=1e-9)


# ----------------------------------------------------- gamma transform


def test_gamma_fixed_points():
    assert gamma_transform(1.0, 2.7) == pytest.approx(0.0, abs=1e-15)
    assert gamma_transform(np.exp(2.2047), 2.2047) == pytest.approx(1.0, rel=1e-13)


@given(v=st.floats(1e-8, 1e6), sigma=st.floats(0.05, 10.0))
@settings(max_examples=120, deadline=None)
def test_gamma_round_trip(v, sigma):
    assert np.exp(sigma * gamma_transform(v, sigma)) == pytest.approx(v, rel=1e-12)


def test_gamma_rejects_nonpositive():
    with pytest.raises(DomainViolation):
        gamma_transform(0.0, 1.0)
    with pytest.raises(DomainViolation):
        gamma_transform(-0.1, 1.0)


# ------------------------------------------------------- swap relation


def _quad_oracle_ab(params, delta):
    """(A, B) via quadrature of the expected-variance ODE solution."""

    def avg_expected_v(v0):
        mean = lambda s: -params.b0_q / params.b1_q + (
            v0 + params.b0_q / params.b1_q
        ) * np.exp(params.b1_q * s)
        return quad(mean, 0.0, delta, epsabs=1e-14, epsrel=1e-12)[0] / delta

    v1, v2 = 0.02, 0.06
    b = (avg_expected_v(v2) - avg_expected_v(v1)) / (v2 - v1)
    a = avg_expected_v(v1) - b * v1
    return a, b


def test_swap_coefficients_match_quadrature_oracle():
    a, b = swap_coefficients(LN_PARAMS, TENOR)
    a_ref, b_ref = _quad_oracle_ab(LN_PARAMS, TENOR)
    assert b == pytest.approx(b_ref, rel=1e-10)
    assert a == pytest.approx(a_ref, rel=1e-9)
    # frozen oracle values
    assert b == pytest.approx(1.6428692, abs=5e-7)
    assert a == pytest.approx(0.0034040, abs=5e-7)


def test_swap_coefficients_small_slope_limits():
    p = dataclasses.replace(LN_PARAMS, b1_q=0.0)
    a, b = swap_coefficients(p, TENOR)
    assert b == pytest.approx(1.0, abs=1e-12)
    assert a == pytest.approx(p.b0_q * TENOR / 2, rel=1e-10)


def test_swap_coefficients_short_tenor_limit():
    a, b = swap_coefficients(LN_PARAMS, 1e-12)
    assert b == pytest.approx(1.0, abs=1e-9)
    assert a == pytest.approx(0.0, abs=1e-12)


def test_swap_series_switch_continuous():
    # Either side of the series switch at |b1_q * delta| = 1e-3.
    delta = 1.0
    for z in (1e-3, -1e-3):
        closed = dataclasses.replace(LN_PARAMS, b1_q=z * (1 + 1e-9))
        series = dataclasses.replace(LN_PARAMS, b1_q=z * (1 - 1e-9))
        a_closed, b_closed = swap_coefficients(closed, delta)
        a_series, b_series = swap_coefficients(series, delta)
        assert abs(b_closed - b_series) < 1e-10
        assert abs(a_closed - a_series) < 1e-10


def test_swap_intercept_matches_series_at_small_slope():
    # A = b0_q * delta * sum_k z^k/(k+2)!: the direct form
    # -(b0_q/b1_q) * (1 - B) loses about 2e-16/z to cancellation, 1.5e-12
    # relative at z = 1e-5.
    z = 1e-5
    p = dataclasses.replace(LN_PARAMS, b1_q=z)
    a, _ = swap_coefficients(p, 1.0)
    series = p.b0_q * sum(z**k / math.factorial(k + 2) for k in range(6))
    assert a == pytest.approx(series, rel=1e-13, abs=0.0)


@given(b1q=st.floats(-50.0, 50.0))
@settings(max_examples=100, deadline=None)
def test_swap_b_positive(b1q):
    p = dataclasses.replace(LN_PARAMS, b1_q=b1q)
    _, b = swap_coefficients(p, TENOR)
    assert b > 0.0


# ----------------------------------------------------------- IV <-> V


def test_iv_to_v_near_identity_when_a0_b1():
    p = dataclasses.replace(LN_PARAMS, b0_q=1e-12, b1_q=1e-12)
    assert iv_to_v(0.04, p, TENOR) == pytest.approx(0.04, rel=1e-10)


def test_iv_v_round_trip():
    rng = np.random.default_rng(3)
    iv = rng.uniform(0.01, 0.3, 50)
    v = iv_to_v(iv, LN_PARAMS, TENOR)
    assert np.allclose(v_to_iv(v, LN_PARAMS, TENOR), iv, rtol=1e-12)


def test_iv_to_v_table_anchor():
    a, b = swap_coefficients(LN_PARAMS, TENOR)
    expected = (0.04 - a) / b
    v = iv_to_v(0.04, LN_PARAMS, TENOR)
    assert v == pytest.approx(expected, rel=1e-14)
    assert v == pytest.approx(0.0222757, abs=5e-7)


def test_iv_to_v_rejects_nonpositive_result():
    with pytest.raises(DomainViolation):
        iv_to_v(1e-6, LN_PARAMS, TENOR)  # below A, maps to negative V


def test_param_validation():
    with pytest.raises(DomainViolation):
        ParamVector(sigma=-1.0, rho=0.0, b0_q=0.05, b1_q=1.0).validate()
    with pytest.raises(DomainViolation):
        ParamVector(sigma=1.0, rho=1.0, b0_q=0.05, b1_q=1.0).validate()
    with pytest.raises(DomainViolation):
        ParamVector(sigma=1.0, rho=0.0, b0_q=0.0, b1_q=1.0).validate()
