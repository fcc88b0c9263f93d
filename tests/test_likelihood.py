import dataclasses
import functools
import math
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate
from scipy.special import logsumexp

from nlsv import eml, likelihood
from nlsv.likelihood import (
    LikelihoodConfig,
    _euler_log_norm,
    _euler_quad,
    _log_mean_weight,
    _rel_se,
    _sml_batch,
    fit,
    moment_init,
    sandwich_errors,
    series_to_lattice_coords,
    total_loglik,
)
from nlsv.model import drift_p, gamma_transform, iv_to_v, swap_coefficients, v_to_iv
from nlsv.params import DomainViolation, ParamVector
from nlsv.rng import RngStream

from conftest import LN, LN_PARAMS, NL, NL_PARAMS, bridge_points, make_series, step_major

DELTA = 1 / 262

# Zero-drift unit-diffusion configuration: vanishing vol-of-vol makes
# V = exp(sigma*y) constant at 1, all drifts off.
BROWNIAN = ParamVector(sigma=1e-9, rho=0.0, b0_q=0.0, b1_q=0.0, a0=0.0, a1=0.0, b1=0.0, r=0.0)


def _drifts(y, params, spec):
    """Reference drifts of the price and of Y = log(V)/sigma at
    V = exp(sigma*y), from the real-world drift vector:
    (a0 + a1*V, mu_V/(sigma V) - sigma/2)."""
    v = np.exp(params.sigma * np.asarray(y, dtype=float))
    mu_x, mu_v = drift_p(v, params, spec)
    return mu_x, mu_v / (params.sigma * v) - 0.5 * params.sigma


def _cfg(**kw):
    base = dict(aug_steps=4, mc_draws=16, min_obs=2, seed=0)
    base.update(kw)
    return LikelihoodConfig(**base)


def _sml_logw(u_from, u_to, params, spec, cfg, rng, eps=None):
    """Log importance weights of the simulated transition density, on
    ``eps`` (step-major, as the walk reads it) or, without it, on N(0, delta)
    draws from ``rng.generator()`` of shape (..., S, M-1, 2)."""
    u_from = np.asarray(u_from, dtype=float)
    u_to = np.asarray(u_to, dtype=float)
    if eps is None:
        shape = (
            np.broadcast_shapes(u_from.shape, u_to.shape)[:-1]
            + (cfg.mc_draws, cfg.aug_steps - 1, 2)
        )
        eps = step_major(
            rng.generator().standard_normal(shape) * math.sqrt(cfg.delta_obs / cfg.aug_steps)
        )
    return _sml_batch(u_from, u_to, params, spec, cfg, eps)


def _sml_logdensity(u_from, u_to, params, spec, cfg, rng, eps=None):
    """Simulated log transition density: the log mean importance weight."""
    return _log_mean_weight(_sml_logw(u_from, u_to, params, spec, cfg, rng, eps))


def _gauss2_logpdf(rx, ry, v, sq, rho: float, scale) -> np.ndarray:
    """Log-density of a centered bivariate normal with covariance
    scale * [[v, rho*sqrt(v)], [rho*sqrt(v), 1]]."""
    one_m_r2 = 1.0 - rho**2
    det = scale**2 * v * one_m_r2
    quad = (rx * rx - 2.0 * rho * sq * rx * ry + v * ry * ry) / (scale * v * one_m_r2)
    return -math.log(2.0 * math.pi) - 0.5 * np.log(det) - 0.5 * quad


def proposal_density_q(u_next, u_curr, u_end, params, m: int, aug_steps: int, delta: float):
    """Reference: log-density of the modified-bridge proposal for lattice
    step m.

    The proposal pulls toward the interval endpoint: mean
    u_curr + (u_end - u_curr)/(M - m), covariance
    (M-m-1)/(M-m) * Sigma Sigma' * delta.  The final lattice point
    (m = M-1) is deterministic and has no density.
    """
    if not 0 <= m < aug_steps - 1:
        raise DomainViolation(f"m must be in [0, {aug_steps - 1}), got {m}")
    u_next = np.asarray(u_next, dtype=float)
    u_curr = np.asarray(u_curr, dtype=float)
    u_end = np.asarray(u_end, dtype=float)
    remain = aug_steps - m
    fac = (remain - 1) / remain
    y0 = u_curr[..., 1]
    v = np.exp(params.sigma * y0)
    sq = np.exp(0.5 * params.sigma * y0)
    mean = u_curr + (u_end - u_curr) / remain
    rx = u_next[..., 0] - mean[..., 0]
    ry = u_next[..., 1] - mean[..., 1]
    return _gauss2_logpdf(rx, ry, v, sq, params.rho, fac * delta)


# -------------------------------------------------------- euler density


def euler_density(u_next, u_curr, params, spec, delta):
    """Reference: log-density of one Euler step in (x, y) coordinates.

    The increment has mean (price drift, y drift) * delta and covariance
    delta * Sigma Sigma' evaluated at the departing state; broadcasting
    over leading dimensions is supported.
    """
    u_next = np.asarray(u_next, dtype=float)
    u_curr = np.asarray(u_curr, dtype=float)
    y0 = u_curr[..., 1]
    s = np.exp(0.5 * params.sigma * y0)
    dx, dy = u_next[..., 0] - u_curr[..., 0], u_next[..., 1] - y0
    quad = _euler_quad(dx, dy, s, params, spec, delta)
    return _euler_log_norm(params, delta) - 0.5 * params.sigma * y0 - 0.5 * quad


def test_euler_density_at_mode():
    u0 = np.array([0.0, -1.5])
    p = LN_PARAMS
    v = math.exp(p.sigma * u0[1])
    mean = np.array(_drifts(u0[1], p, LN)) * DELTA
    ld = euler_density(u0 + mean, u0, p, LN, DELTA)
    det = v * (1 - p.rho**2) * DELTA**2
    assert ld == pytest.approx(-math.log(2 * math.pi) - 0.5 * math.log(det), rel=1e-12)


def test_euler_density_factorizes_at_rho_zero():
    p = dataclasses.replace(LN_PARAMS, rho=0.0)
    from scipy.stats import norm

    u0 = np.array([0.3, -1.2])
    u1 = np.array([0.35, -1.1])
    v = math.exp(p.sigma * u0[1])
    mu_x, mu_y = _drifts(u0[1], p, LN)
    ld = euler_density(u1, u0, p, LN, DELTA)
    lx = norm.logpdf(u1[0] - u0[0], loc=mu_x * DELTA, scale=math.sqrt(v * DELTA))
    ly = norm.logpdf(u1[1] - u0[1], loc=mu_y * DELTA, scale=math.sqrt(DELTA))
    assert ld == pytest.approx(lx + ly, rel=1e-12)


def test_euler_density_integrates_to_one():
    # 2-d quadrature over a wide increment grid.
    p = LN_PARAMS
    u0 = np.array([0.0, -1.4])
    v = math.exp(p.sigma * u0[1])
    sx = math.sqrt(v * DELTA)
    sy = math.sqrt(DELTA)
    gx = np.linspace(-8 * sx, 8 * sx, 401)
    gy = np.linspace(-8 * sy, 8 * sy, 401)
    xx, yy = np.meshgrid(gx, gy, indexing="ij")
    pts = np.stack([u0[0] + xx, u0[1] + yy], axis=-1)
    dens = np.exp(euler_density(pts, u0, p, LN, DELTA))
    integral = np.trapezoid(np.trapezoid(dens, gy, axis=1), gx)
    assert integral == pytest.approx(1.0, abs=1e-4)


# ------------------------------------------------------------- proposal


def test_proposal_scores_bridge_draws_finite():
    p = LN_PARAMS
    aug = 8
    delta = DELTA / aug
    u0 = np.array([0.0, -1.3])
    u1 = np.array([0.02, -1.2])
    n = 10_000
    eps = RngStream(31).generator().standard_normal((n, aug - 1, 2)) * math.sqrt(delta)
    aux = bridge_points(np.broadcast_to(u0, (n, 2)), u1, p, eps)[:, 1:-1]
    prev = np.broadcast_to(u0, (n, 2))
    for m in range(aug - 1):
        ld = proposal_density_q(aux[:, m, :], prev, u1, p, m, aug, delta)
        assert np.all(np.isfinite(ld))
        prev = aux[:, m, :]


def test_proposal_rejects_final_step():
    with pytest.raises(DomainViolation):
        proposal_density_q(
            np.zeros(2), np.zeros(2), np.ones(2), LN_PARAMS, 7, 8, DELTA / 8
        )


def test_proposal_symmetric_points_equal_density():
    p = dataclasses.replace(LN_PARAMS, rho=0.0)
    u = np.array([0.1, -1.0])
    delta = DELTA / 6
    off = np.array([0.004, 0.02])
    ld_plus = proposal_density_q(u + off, u, u, p, 1, 6, delta)
    ld_minus = proposal_density_q(u - off, u, u, p, 1, 6, delta)
    assert ld_plus == pytest.approx(ld_minus, rel=1e-13)


def test_proposal_approaches_driftless_euler_for_many_steps():
    # With many remaining steps the pull vanishes and the covariance
    # factor approaches 1: the proposal converges to the zero-drift
    # Euler density on a grid of evaluation points.
    p = LN_PARAMS
    delta = DELTA / 24
    u0 = np.array([0.0, -1.1])
    u_end = np.array([0.5, -0.5])
    v = math.exp(p.sigma * u0[1])
    grid = np.stack(
        [
            np.linspace(-3, 3, 9) * math.sqrt(v * delta),
            np.linspace(-3, 3, 9) * math.sqrt(delta),
        ],
        axis=-1,
    )
    zero_drift = dataclasses.replace(
        p, a0=0.0, a1=0.0, b0_q=1e-300, b1=p.sigma**2 / 2
    )
    # y drift of zero_drift: (b1*V)/(sigma*V) - sigma/2 = sigma/2 - sigma/2 = 0
    ld_e = euler_density(u0 + grid, u0, zero_drift, LN, delta)
    gaps = []
    for k in (100, 10_000, 1_000_000):
        ld_q = proposal_density_q(u0 + grid, u0, u_end, p, 0, k, delta)
        gaps.append(np.max(np.abs(ld_q - ld_e)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 2e-3


# ------------------------------------------------------ sml estimator


def test_sml_reduces_to_euler_at_m1():
    cfg = _cfg(aug_steps=1, mc_draws=1)
    u0, u1 = np.array([0.0, -1.4]), np.array([0.01, -1.35])
    ld = _sml_logdensity(u0, u1, LN_PARAMS, LN, cfg, RngStream(1))
    assert ld == pytest.approx(float(euler_density(u1, u0, LN_PARAMS, LN, DELTA)), rel=1e-14)


def test_sml_exact_in_pure_brownian_case():
    # Zero drift, unit diffusion: the proposal factorization is exact, so
    # every importance weight equals the true Gaussian transition density
    # and the estimate is exact up to rounding.
    cfg = _cfg(aug_steps=24, mc_draws=64)
    gen = RngStream(5).generator()
    u0 = gen.standard_normal((50, 2)) * 0.2
    u1 = u0 + gen.standard_normal((50, 2)) * math.sqrt(DELTA)
    ld = _sml_logdensity(u0, u1, BROWNIAN, LN, cfg, RngStream(6))
    exact = -np.log(2 * np.pi * DELTA) - 0.5 * np.sum((u1 - u0) ** 2, axis=1) / DELTA
    assert np.max(np.abs(ld - exact)) < 1e-9


def test_sml_unbiased_with_state_dependent_diffusion():
    # Standardized errors against a converged reference behave like
    # N(0, 1) across independent streams.
    p = LN_PARAMS
    u0 = np.array([0.0, gamma_transform(0.033, p.sigma)])
    u1 = np.array([0.01, gamma_transform(0.040, p.sigma)])
    ref_cfg = _cfg(aug_steps=8, mc_draws=200_000)
    ref = _sml_logdensity(u0, u1, p, LN, ref_cfg, RngStream(777))
    cfg = _cfg(aug_steps=8, mc_draws=256)
    zs = []
    for k in range(100):
        logw = _sml_logw(u0, u1, p, LN, cfg, RngStream(800).substream(k))
        logdensity = _log_mean_weight(logw)
        z = (math.exp(float(logdensity)) - math.exp(float(ref))) / (
            math.exp(float(logdensity)) * float(_rel_se(logw))
        )
        zs.append(z)
    zs = np.array(zs)
    assert abs(zs.mean()) < 0.35
    assert 0.6 < zs.std() < 1.6


def test_sml_spread_shrinks_with_sample_size():
    # Increasing S by 10x shrinks the estimator spread by about sqrt(10).
    p = LN_PARAMS
    u0 = np.array([0.0, gamma_transform(0.033, p.sigma)])
    u1 = np.array([0.012, gamma_transform(0.036, p.sigma)])
    spreads = []
    for s_draws in (576, 5760):
        cfg = _cfg(aug_steps=24, mc_draws=s_draws)
        vals = [
            float(_sml_logdensity(u0, u1, p, LN, cfg, RngStream(901).substream(k)))
            for k in range(24)
        ]
        spreads.append(np.std(vals, ddof=1))
    ratio = spreads[0] / spreads[1]
    assert 2.0 < ratio < 5.0


def _gauss(z, mean, var):
    return math.exp(-0.5 * (z - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def _m2_density(u0, u1, params, spec, delta):
    """Euler transition density of one interval at M = 2, in (x, y), by
    quadrature over the midpoint Y.

    Given the midpoint Y_m, the two Y steps are N(mu_Y*delta, delta) and
    the two X steps Gaussian, with the leverage term rho*s*e_y of each
    step's Y innovation e_y in their means, so the price integral over the
    midpoint X is closed form:

        p_2 = int N(y_m; y0 + mu_Y(y0) delta, delta)
                  N(y1; y_m + mu_Y(y_m) delta, delta)
                  N(x1; x0 + sum (a0 + a1 V) delta + rho sum s e_y,
                        (1 - rho^2)(V0 + V_m) delta) dy_m.
    """
    (x0, y0), (x1, y1) = u0, u1
    rho, sigma = params.rho, params.sigma
    mx0, my0 = (float(d) for d in _drifts(y0, params, spec))

    def integrand(ym):
        mxm, mym = (float(d) for d in _drifts(ym, params, spec))
        e0, e1 = ym - y0 - my0 * delta, y1 - ym - mym * delta
        s0, sm = math.exp(0.5 * sigma * y0), math.exp(0.5 * sigma * ym)
        mean = x0 + (mx0 + mxm) * delta + rho * (s0 * e0 + sm * e1)
        var = (1.0 - rho**2) * (s0 * s0 + sm * sm) * delta
        return (
            _gauss(ym, y0 + my0 * delta, delta) * _gauss(y1, ym + mym * delta, delta)
            * _gauss(x1, mean, var)
        )

    centre, width = 0.5 * (y0 + y1), 20.0 * math.sqrt(delta)
    lo, hi = centre - width, centre + width
    return integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-10, limit=200)[0]


@pytest.mark.parametrize("rho", [-0.9, 0.0, 0.9])
@pytest.mark.parametrize("spec, params", [(LN, LN_PARAMS), (NL, NL_PARAMS)], ids=["LN", "NL"])
def test_sml_density_matches_quadrature_oracle_at_m2(spec, params, rho):
    # At M = 2 the transition density is a 1-D integral over the midpoint
    # Y: the density-scale mean of the importance weights at S = 200,000
    # must lie within 4 standard errors of it, on three intervals of a
    # simulated NL path, in each model's (x, log V/sigma).
    p = dataclasses.replace(params, rho=rho)
    series = make_series(NL_PARAMS, NL, 61, 4242)
    y = gamma_transform(iv_to_v(series.iv, NL_PARAMS), p.sigma)
    u = np.stack([series.x, y], axis=-1)
    intervals = np.array([3, 17, 41])
    cfg = _cfg(aug_steps=2, mc_draws=200_000)
    delta = cfg.delta_obs / 2
    eps = eml.draw_bridge_eps(RngStream(10, 2), intervals, cfg.mc_draws, 2, delta)
    w = np.exp(_sml_batch(u[intervals], u[intervals + 1], p, spec, cfg, eps))
    mean, se = w.mean(axis=-1), w.std(axis=-1, ddof=1) / math.sqrt(cfg.mc_draws)
    oracle = np.array([_m2_density(u[i], u[i + 1], p, spec, delta) for i in intervals])
    assert np.all(np.abs(mean - oracle) < 4.0 * se)


@pytest.mark.parametrize("aug", [2, 24])
@pytest.mark.parametrize("spec, params", [(LN, LN_PARAMS), (NL, NL_PARAMS)])
def test_sml_weight_is_euler_over_proposal_along_the_bridge(spec, params, aug):
    # With one draw the estimate is the single importance weight: the
    # Euler densities along the modified-bridge path over the proposal
    # densities of its auxiliary points.
    cfg = _cfg(aug_steps=aug, mc_draws=1)
    delta = DELTA / aug
    u0 = np.array([0.0, gamma_transform(0.033, params.sigma)])
    u1 = np.array([0.01, gamma_transform(0.040, params.sigma)])
    eps = RngStream(41).generator().standard_normal((1, aug - 1, 2)) * math.sqrt(delta)
    ld = _sml_logdensity(u0, u1, params, spec, cfg, RngStream(0), eps=step_major(eps))
    points = bridge_points(u0, u1, params, eps[0])
    explicit = sum(
        float(euler_density(points[m + 1], points[m], params, spec, delta))
        - float(proposal_density_q(points[m + 1], points[m], u1, params, m, aug, delta))
        for m in range(aug - 1)
    ) + float(euler_density(u1, points[-2], params, spec, delta))
    assert ld == pytest.approx(explicit, rel=0.0, abs=1e-10)


def test_sml_underflow_reported():
    # Every weight vanishes: the log-density is -inf, which total_loglik
    # reports as a log-likelihood of -inf.
    cfg = _cfg(aug_steps=2, mc_draws=4)
    u0 = np.array([0.0, -1.0])
    u1 = np.array([1e6, 1e6])
    assert _sml_logdensity(u0, u1, LN_PARAMS, LN, cfg, RngStream(2)) == -np.inf


# ------------------------------------------------------- total loglik


def test_total_loglik_reduction_to_density_sum():
    # sigma = 1 (log sigma = 0), b1_q ~ 0 (B ~ 1), constant V = 1 so all
    # Y terms vanish: the log-likelihood is the bare sum of transition
    # log-densities.
    p = ParamVector(sigma=1.0, rho=0.0, b0_q=1e-12, b1_q=1e-12, a0=0.0, a1=0.0, b1=0.0, r=0.0)
    n = 40
    dates = np.busday_offset(np.datetime64("2000-01-03"), np.arange(n), roll="forward")
    x = 0.001 * np.arange(n, dtype=float)
    iv = np.full(n, float(v_to_iv(1.0, p)))
    from nlsv.data_io import ObservedSeries

    series = ObservedSeries(dates, x, iv)
    cfg = _cfg(aug_steps=2, mc_draws=8)
    total, contrib = total_loglik(
        series, p, LN, cfg, RngStream(3, 2), return_contributions=True
    )
    u = np.stack([x, np.zeros(n)], axis=-1)
    eps = eml.draw_bridge_eps(
        RngStream(3, 2), range(n - 1), cfg.mc_draws, cfg.aug_steps, cfg.delta_obs / cfg.aug_steps
    )
    direct = _sml_logdensity(u[:-1], u[1:], p, LN, cfg, RngStream(3, 2), eps=eps)
    assert total == pytest.approx(float(direct.sum()), rel=1e-10)


def test_jacobian_bookkeeping_v_vs_y_space():
    # Same density estimates expressed against V-observations must give
    # the identical likelihood: l_V = sum(log p_Y - log sigma - sigma*Y)
    # - N log B equals the Y-space form to rounding.
    series = make_series(LN_PARAMS, LN, 60, 77)
    cfg = _cfg(aug_steps=2, mc_draws=8)
    rng = RngStream(9, 2)
    total_y, contrib = total_loglik(
        series, LN_PARAMS, LN, cfg, rng, return_contributions=True
    )
    x = np.asarray(series.x)
    v = iv_to_v(series.iv, LN_PARAMS, cfg.swap_tenor)
    y = gamma_transform(v, LN_PARAMS.sigma)
    u = np.stack([x, y], axis=-1)
    eps = eml.draw_bridge_eps(
        rng, range(len(x) - 1), cfg.mc_draws, cfg.aug_steps, cfg.delta_obs / cfg.aug_steps
    )
    logp_y = _sml_logdensity(u[:-1], u[1:], LN_PARAMS, LN, cfg, rng, eps=eps)
    _, b_coef = swap_coefficients(LN_PARAMS, cfg.swap_tenor)
    logp_v = logp_y - math.log(LN_PARAMS.sigma) - LN_PARAMS.sigma * y[1:]
    total_v = float(logp_v.sum()) - (len(x) - 1) * math.log(b_coef)
    assert total_v == pytest.approx(total_y, abs=1e-8)


def test_total_loglik_infeasible_transform_is_minus_inf():
    series = make_series(LN_PARAMS, LN, 50, 91)
    bad = dataclasses.replace(LN_PARAMS, b0_q=5.0)  # A above every IV
    out = total_loglik(series, bad, LN, _cfg(), RngStream(1))
    assert out == -np.inf
    assert total_loglik(series, bad, LN, _cfg(), RngStream(1), return_contributions=True) == (
        -np.inf, None
    )


def test_score_matches_analytic_euler_score():
    # At M = 1 the likelihood is the exact Euler density: the central
    # finite difference in a0 must match the analytic score.
    series = make_series(LN_PARAMS, LN, 120, 55)
    cfg = _cfg(aug_steps=1, mc_draws=1)
    rng = RngStream(0)

    def ll(a0):
        p = dataclasses.replace(LN_PARAMS, a0=a0)
        return total_loglik(series, p, LN, cfg, rng)

    h = 1e-5
    fd = (ll(LN_PARAMS.a0 + h) - ll(LN_PARAMS.a0 - h)) / (2 * h)
    x = np.asarray(series.x)
    v = iv_to_v(series.iv, LN_PARAMS, cfg.swap_tenor)
    y = gamma_transform(v, LN_PARAMS.sigma)
    v0, y0 = v[:-1], y[:-1]
    mu_x, mu_y = _drifts(y0, LN_PARAMS, LN)
    rx = np.diff(x) - mu_x * DELTA
    ry = np.diff(y) - mu_y * DELTA
    rho = LN_PARAMS.rho
    # d logpdf / d mean_x * d mean_x / d a0, with the bivariate inverse
    score = np.sum(
        (rx - rho * np.sqrt(v0) * ry) / (DELTA * v0 * (1 - rho**2)) * DELTA
    )
    assert fd == pytest.approx(score, rel=1e-4)


def test_total_loglik_stable_in_draw_count():
    series = make_series(LN_PARAMS, LN, 80, 66)
    lls = []
    for s_draws in (64, 128):
        cfg = _cfg(aug_steps=4, mc_draws=s_draws)
        lls.append(total_loglik(series, LN_PARAMS, LN, cfg, RngStream(4, 2)))
    # doubling the draws moves the total by a small amount relative to
    # the per-observation scale
    assert abs(lls[0] - lls[1]) < 0.05 * len(series.iv)


@functools.cache
def _unchunked_loglik():
    """The series of the chunking tests and its log-likelihood in one chunk."""
    series = make_series(LN_PARAMS, LN, 70, 13)
    cfg = _cfg(aug_steps=3, mc_draws=8)
    return series, total_loglik(series, LN_PARAMS, LN, cfg, RngStream(8, 2))


@given(chunk=st.integers(1, 69))
@example(chunk=7)
@example(chunk=512)
@settings(max_examples=25, deadline=None)
def test_total_loglik_invariant_to_chunking(chunk):
    # Intervals draw from their own substreams and the densities are summed
    # in index order, so any chunk length gives the value bitwise.
    series, whole = _unchunked_loglik()
    cfg = _cfg(aug_steps=3, mc_draws=8)
    with mock.patch.object(eml, "CHUNK_POINTS", chunk * 8 * 4):
        assert eml.chunk_intervals(8, 3) == chunk
        assert total_loglik(series, LN_PARAMS, LN, cfg, RngStream(8, 2)) == whole


def test_total_loglik_default_chunking_matches_explicit(monkeypatch):
    series = make_series(LN_PARAMS, LN, 70, 13)
    cfg = _cfg(aug_steps=3, mc_draws=8)
    with mock.patch.object(eml, "CHUNK_POINTS", 7 * 8 * 4):
        explicit = total_loglik(series, LN_PARAMS, LN, cfg, RngStream(8, 2))
    assert total_loglik(series, LN_PARAMS, LN, cfg, RngStream(8, 2)) == explicit
    # A points budget of 11 intervals: several default chunks, none larger.
    monkeypatch.setattr(eml, "CHUNK_POINTS", 11 * 8 * 4)
    sizes = []
    drawer = eml.draw_bridge_eps

    def recorder(rng, indices, *args):
        sizes.append(len(indices))
        return drawer(rng, indices, *args)

    monkeypatch.setattr(eml, "draw_bridge_eps", recorder)
    assert total_loglik(series, LN_PARAMS, LN, cfg, RngStream(8, 2)) == explicit
    assert len(sizes) == -(-69 // 11) and max(sizes) == 11


@pytest.mark.parametrize(
    "stage, chunks",
    [pytest.param(stage, 1, id=stage) for stage in ("variance", "stock", "sml")]
    + [pytest.param(stage, 2, id=f"{stage}-pool") for stage in ("variance", "stock", "sml")],
)
def test_paper_chunk_peak_memory_is_bounded(stage, chunks, monkeypatch):
    # One full chunk at the paper's budgets M = 24, S = 576, innovations
    # drawn before tracing: each stage walks the chunk step by step, so
    # its arrays are (B, R) per step, not a (B, L, R, M) lattice basis.
    # Two chunks on two pool threads walk blocks of half a chunk, so the
    # blocks in flight hold one chunk's points between them.
    if chunks > 1:
        monkeypatch.setattr(eml, "WORKERS", 2)
    cfg = LikelihoodConfig(aug_steps=24, mc_draws=576)
    chunk = chunks * eml.chunk_intervals(cfg.mc_draws, cfg.aug_steps)
    delta = cfg.delta_obs / cfg.aug_steps
    series = make_series(NL_PARAMS, NL, chunk + 2, 17)
    if stage == "sml":
        series = dataclasses.replace(
            series, dates=series.dates[:-1], x=series.x[:-1], iv=series.iv[:-1]
        )
        eps = eml.draw_bridge_eps(
            RngStream(0, 2), np.arange(chunk), cfg.mc_draws, cfg.aug_steps, delta
        )

        def run():
            return total_loglik(series, NL_PARAMS, NL, cfg, RngStream(0, 2), eps=eps)
    else:
        solver = eml.solve_variance_drift if stage == "variance" else eml.solve_stock_drift
        x, y = series_to_lattice_coords(series, NL_PARAMS, cfg.swap_tenor)
        eps = eml.draw_bridge_eps(
            RngStream(0, 1), np.arange(1, chunk + 1), cfg.bridge_draws, cfg.aug_steps, delta
        )

        def run():
            return solver(
                x, y, NL_PARAMS, NL, cfg.delta_obs, cfg.aug_steps, cfg.bridge_draws,
                RngStream(0, 1), eps=eps,
            )

    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def _pool_on(monkeypatch, workers):
    """Map every call on ``workers`` threads, in blocks of
    7 // ``workers`` intervals at M = 3, S = 8."""
    monkeypatch.setattr(eml, "WORKERS", workers)
    monkeypatch.setattr(eml, "POOL_POINTS", 1)
    monkeypatch.setattr(eml, "CHUNK_POINTS", 7 * 8 * 4)


@pytest.mark.parametrize("workers", [2, 3])
def test_total_loglik_on_the_pool_is_bitwise_serial(monkeypatch, workers):
    # On innovations drawn block by block or pre-drawn, the pool threads'
    # log-likelihood and its contributions equal the serial ones bitwise.
    series, whole = _unchunked_loglik()
    cfg = _cfg(aug_steps=3, mc_draws=8)
    serial = total_loglik(series, LN_PARAMS, LN, cfg, RngStream(8, 2), return_contributions=True)
    eps = eml.draw_bridge_eps(RngStream(8, 2), np.arange(69), 8, 3, cfg.delta_obs / 3)
    _pool_on(monkeypatch, workers)
    names, batch = set(), likelihood._sml_batch

    def recorded(*args):
        names.add(threading.current_thread().name)
        return batch(*args)

    monkeypatch.setattr(likelihood, "_sml_batch", recorded)
    for kw in ({}, {"eps": eps}):
        assert total_loglik(series, LN_PARAMS, LN, cfg, RngStream(8, 2), **kw) == whole
        total, contrib = total_loglik(
            series, LN_PARAMS, LN, cfg, RngStream(8, 2), return_contributions=True, **kw
        )
        assert total == serial[0] and np.array_equal(contrib, serial[1])
    assert names and all(n.startswith("nlsv-chunks") for n in names)


def test_total_loglik_one_worker_never_creates_the_pool(monkeypatch):
    def no_pool(workers):
        raise AssertionError("pool created")

    series, whole = _unchunked_loglik()
    _pool_on(monkeypatch, 1)
    monkeypatch.setattr(eml, "_pool", no_pool)
    cfg = _cfg(aug_steps=3, mc_draws=8)
    assert total_loglik(series, LN_PARAMS, LN, cfg, RngStream(8, 2)) == whole


def test_pool_underflow_in_a_late_block_is_minus_inf_and_the_pool_goes_on(monkeypatch):
    # A price jump of 1e200 at observation 50 overflows the Euler quadratic
    # form of intervals 49 and 50, in the block of intervals 48 .. 50: every
    # weight of theirs is zero, so the log-likelihood is -inf, as serially,
    # and the pool serves the next call.
    series, whole = _unchunked_loglik()
    cfg = _cfg(aug_steps=3, mc_draws=8)
    x = series.x.copy()
    x[50] += 1e200
    jumped = dataclasses.replace(series, x=x)
    assert total_loglik(jumped, LN_PARAMS, LN, cfg, RngStream(8, 2)) == -np.inf
    _pool_on(monkeypatch, 2)
    assert total_loglik(jumped, LN_PARAMS, LN, cfg, RngStream(8, 2)) == -np.inf
    assert total_loglik(
        jumped, LN_PARAMS, LN, cfg, RngStream(8, 2), return_contributions=True
    ) == (-np.inf, None)
    assert total_loglik(series, LN_PARAMS, LN, cfg, RngStream(8, 2)) == whole


@given(
    n=st.integers(1, 69),
    chunk=st.integers(1, 20),
    n_draws=st.sampled_from([1, 8]),
    workers=st.sampled_from([2, 3]),
)
@example(n=3, chunk=1, n_draws=1, workers=2)
@settings(max_examples=15, deadline=None)
def test_total_loglik_on_the_pool_is_bitwise_serial_at_any_size(n, chunk, n_draws, workers):
    # Whatever the number of intervals and the blocks they fall into, the
    # log-likelihood and its contributions on the pool threads equal the
    # serial ones bitwise, on innovations drawn block by block or pre-drawn;
    # with one draw, a block of one interval sums e'e over a single point.
    series, _ = _unchunked_loglik()
    series = dataclasses.replace(
        series, dates=series.dates[: n + 1], x=series.x[: n + 1], iv=series.iv[: n + 1]
    )
    cfg = _cfg(aug_steps=3, mc_draws=n_draws)
    serial = total_loglik(series, LN_PARAMS, LN, cfg, RngStream(8, 2), return_contributions=True)
    eps = eml.draw_bridge_eps(RngStream(8, 2), np.arange(n), n_draws, 3, cfg.delta_obs / 3)
    with mock.patch.multiple(
        eml, WORKERS=workers, POOL_POINTS=1, CHUNK_POINTS=chunk * n_draws * 4
    ):
        for kw in ({}, {"eps": eps}):
            total, contrib = total_loglik(
                series, LN_PARAMS, LN, cfg, RngStream(8, 2), return_contributions=True, **kw
            )
            assert total == serial[0] and np.array_equal(contrib, serial[1])


def test_total_loglik_rejects_innovations_of_another_shape():
    # Pre-drawn innovations are (M-1, 2, N, S); in the per-walk layout, or
    # with another draw or interval count, they are refused, not misread.
    series, _ = _unchunked_loglik()
    cfg = _cfg(aug_steps=3, mc_draws=8)
    eps = eml.draw_bridge_eps(RngStream(8, 2), np.arange(69), 8, 3, cfg.delta_obs / 3)
    for bad in (np.moveaxis(eps, (0, 1), (-2, -1)), eps[..., :4], eps[:, :, 1:]):
        with pytest.raises(DomainViolation, match="innovations have shape"):
            total_loglik(series, LN_PARAMS, LN, cfg, RngStream(8, 2), eps=bad)


class _SlabReads(np.ndarray):
    """Innovations that record, for every slab read from them by integer
    indices alone, such as a walk step's ``eps[m, k]``, its indices and
    whether it is C-contiguous.  Views share the record."""

    def __array_finalize__(self, obj):
        self.reads = getattr(obj, "reads", None)

    def __getitem__(self, key):
        out = super().__getitem__(key)
        keys = key if isinstance(key, tuple) else (key,)
        if all(isinstance(k, int) for k in keys):
            self.reads.append((keys, out.flags.c_contiguous))
        return out


@pytest.mark.parametrize("stage", ["stock", "sml"])
def test_every_step_reads_contiguous_innovations(stage, monkeypatch):
    # The layout guard: each block of pre-drawn innovations is a slice of
    # the drawn array, and every (intervals, draws) slab a step of its
    # walks reads is C-contiguous, so no step strides through the block.
    monkeypatch.setattr(eml, "CHUNK_POINTS", 7 * 8 * 5)
    series, _ = _unchunked_loglik()
    cfg = _cfg(aug_steps=4, mc_draws=8)
    delta = cfg.delta_obs / cfg.aug_steps
    if stage == "sml":
        eps = eml.draw_bridge_eps(RngStream(8, 2), np.arange(69), 8, 4, delta).view(_SlabReads)
        eps.reads = []
        total_loglik(series, LN_PARAMS, LN, cfg, RngStream(8, 2), eps=eps)
    else:
        eps = eml.draw_bridge_eps(RngStream(8, 1), np.arange(1, 69), 8, 4, delta).view(_SlabReads)
        eps.reads = []
        x, y = series_to_lattice_coords(series, LN_PARAMS, cfg.swap_tenor)
        eml.solve_stock_drift(
            x, y, LN_PARAMS, LN, cfg.delta_obs, cfg.aug_steps, 8, RngStream(8, 1), eps=eps
        )
    # Every block of at most 7 intervals reads at least the walk's 2(M-1) slabs.
    assert len(eps.reads) >= 2 * 3 * -(-68 // 7)
    assert all(contiguous for _, contiguous in eps.reads)


@pytest.mark.parametrize("spec, params", [(LN, LN_PARAMS), (NL, NL_PARAMS)], ids=["LN", "NL"])
def test_variance_solve_reads_no_price_innovation(spec, params, monkeypatch):
    # The variance system walks the Y bridge alone: of each step's two
    # slabs it reads the variance innovation eps[m, 1], contiguous, and
    # never the price innovation eps[m, 0].
    monkeypatch.setattr(eml, "CHUNK_POINTS", 7 * 8 * 5)
    series, _ = _unchunked_loglik()
    cfg = _cfg(aug_steps=4, mc_draws=8)
    delta = cfg.delta_obs / cfg.aug_steps
    eps = eml.draw_bridge_eps(RngStream(8, 1), np.arange(1, 69), 8, 4, delta).view(_SlabReads)
    eps.reads = []
    x, y = series_to_lattice_coords(series, params, cfg.swap_tenor)
    eml.solve_variance_drift(
        x, y, params, spec, cfg.delta_obs, cfg.aug_steps, 8, RngStream(8, 1), eps=eps
    )
    # Every block of at most 7 intervals reads the walk's M-1 variance slabs.
    assert len(eps.reads) == 3 * -(-68 // 7)
    assert all(keys[1] == 1 and contiguous for keys, contiguous in eps.reads)


_LOG_WEIGHT = st.one_of(st.floats(-800.0, 800.0), st.just(-np.inf))


@given(
    logw=hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12), elements=_LOG_WEIGHT
    ),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_log_mean_weight_is_scipy_logsumexp(logw, data):
    # Bitwise, not to a tolerance: ties at the maximum and rows whose
    # weights all vanish take the same steps as scipy.
    ties = data.draw(hnp.arrays(np.bool_, logw.shape))
    logw = np.where(ties, logw.max(axis=-1, keepdims=True), logw)
    logw[data.draw(hnp.arrays(np.bool_, logw.shape[:1]))] = -np.inf
    expected = logsumexp(logw, axis=-1) - math.log(logw.shape[-1])
    got = _log_mean_weight(logw)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


# ------------------------------------------------------------- fitting


def test_fit_deterministic():
    series = make_series(LN_PARAMS, LN, 260, 17)
    cfg = _cfg(aug_steps=2, mc_draws=4, n_bridges=8, max_iter=40, restarts=2, min_obs=50, seed=5)
    r1 = fit(series, LN, cfg)
    r2 = fit(series, LN, cfg)
    assert r1.loglik == r2.loglik
    assert r1.params == r2.params
    assert np.array_equal(r1.covariance, r2.covariance)


def test_fit_without_cached_draws_matches_cached(monkeypatch):
    # Over the cache limit the EML and SML innovations are drawn chunk by
    # chunk from the same substreams, so the fit is exactly the cached one.
    import nlsv.likelihood as lik

    series = make_series(NL_PARAMS, NL, 160, 19)
    cfg = _cfg(aug_steps=2, mc_draws=4, max_iter=30, restarts=1, min_obs=50)
    monkeypatch.setattr(eml, "CHUNK_POINTS", 64 * 4 * 3)  # chunks of 64 intervals
    cached = fit(series, NL, cfg)
    monkeypatch.setattr(lik, "_EPS_CACHE_LIMIT", 0)
    assert lik._maybe_cache_eps(series, cfg, RngStream(0, 1), RngStream(0, 2)) == (None, None)
    uncached = fit(series, NL, cfg)
    assert uncached.loglik == cached.loglik
    assert uncached.params == cached.params
    assert uncached.n_evaluations == cached.n_evaluations
    assert np.array_equal(uncached.covariance, cached.covariance)


def test_fit_recovers_ln_parameters():
    series = make_series(LN_PARAMS, LN, 2500, 1717, v0=0.033)
    cfg = _cfg(
        aug_steps=2, mc_draws=4, n_bridges=16, max_iter=200, restarts=1, min_obs=100, seed=5
    )
    res = fit(
        series, LN, cfg,
        init={"sigma": 2.0, "rho": -0.6, "b0_q": 0.05, "b1_q": 10.0},
    )
    truth = {
        "sigma": LN_PARAMS.sigma, "rho": LN_PARAMS.rho, "b0_q": LN_PARAMS.b0_q,
        "b1_q": LN_PARAMS.b1_q, "a0": LN_PARAMS.a0, "a1": LN_PARAMS.a1, "b1": LN_PARAMS.b1,
    }
    for name, true_val in truth.items():
        err = abs(getattr(res.params, name) - true_val)
        assert err <= 3 * res.std_errors[name], (name, getattr(res.params, name), true_val, res.std_errors[name])


def test_fit_rejects_short_series():
    series = make_series(LN_PARAMS, LN, 50, 3)
    with pytest.raises(DomainViolation):
        fit(series, LN, _cfg(min_obs=200))


def test_fit_enforces_positive_b0q():
    series = make_series(LN_PARAMS, LN, 300, 23)
    cfg = _cfg(aug_steps=1, mc_draws=1, max_iter=60, restarts=1, min_obs=50, seed=2)
    res = fit(series, LN, cfg)
    assert res.params.b0_q > 0.0


def test_moment_init_sane():
    series = make_series(LN_PARAMS, LN, 400, 29)
    start = moment_init(series, _cfg())
    assert 0.2 <= start["sigma"] <= 10.0
    assert -0.95 <= start["rho"] <= 0.95
    assert start["b0_q"] > 0.0


# ------------------------------------------------------------ sandwich


def test_sandwich_properties_and_rate():
    cfg = _cfg(aug_steps=1, mc_draws=1, min_obs=50)
    ses = {}
    for n in (1000, 4000):
        series = make_series(LN_PARAMS, LN, n, 2029, v0=0.033)
        names, cov, se = sandwich_errors(series, LN_PARAMS, LN, cfg)
        assert np.max(np.abs(cov - cov.T)) < 1e-10
        assert np.all(np.isfinite(se)) and np.all(se > 0)
        ses[n] = dict(zip(names, se))
    for name in ("sigma", "b1"):
        ratio = ses[1000][name] / ses[4000][name]
        assert 1.3 < ratio < 3.1  # ~ sqrt(4) = 2
