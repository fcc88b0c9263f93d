import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

from nlsv import eml
from nlsv.likelihood import (
    DensityUnderflow,
    LikelihoodConfig,
    _log_mean_weight,
    euler_density,
    fit,
    moment_init,
    proposal_density_q,
    sandwich_errors,
    sml_transition_logdensity,
    total_loglik,
)
from nlsv.model import gamma_transform, iv_to_v, swap_coefficients, v_to_iv
from nlsv.params import DomainViolation, Measure, ParamVector
from nlsv.rng import RngStream
from nlsv.simulate import modified_bridge_fill

from conftest import LN, LN_PARAMS, NL, NL_PARAMS, make_series

DELTA = 1 / 262

# Zero-drift unit-diffusion configuration: vanishing vol-of-vol makes
# V = exp(sigma*y) constant at 1, all drifts off.
BROWNIAN = ParamVector(sigma=1e-9, rho=0.0, b0_q=0.0, b1_q=0.0, a0=0.0, a1=0.0, b1=0.0, r=0.0)


def _cfg(**kw):
    base = dict(aug_steps=4, mc_draws=16, min_obs=2, seed=0)
    base.update(kw)
    return LikelihoodConfig(**base)


# -------------------------------------------------------- euler density


def test_euler_density_at_mode():
    u0 = np.array([0.0, -1.5])
    p = LN_PARAMS
    from nlsv.model import price_drift, y_drift

    v = math.exp(p.sigma * u0[1])
    mean = np.array(
        [
            price_drift(v, p, Measure.P) * DELTA,
            y_drift(u0[1], p, LN, Measure.P) * DELTA,
        ]
    )
    ld = euler_density(u0 + mean, u0, p, LN, DELTA)
    det = v * (1 - p.rho**2) * DELTA**2
    assert ld == pytest.approx(-math.log(2 * math.pi) - 0.5 * math.log(det), rel=1e-12)


def test_euler_density_factorizes_at_rho_zero():
    p = dataclasses.replace(LN_PARAMS, rho=0.0)
    from nlsv.model import price_drift, y_drift
    from scipy.stats import norm

    u0 = np.array([0.3, -1.2])
    u1 = np.array([0.35, -1.1])
    v = math.exp(p.sigma * u0[1])
    ld = euler_density(u1, u0, p, LN, DELTA)
    lx = norm.logpdf(
        u1[0] - u0[0], loc=price_drift(v, p, Measure.P) * DELTA, scale=math.sqrt(v * DELTA)
    )
    ly = norm.logpdf(
        u1[1] - u0[1], loc=y_drift(u0[1], p, LN, Measure.P) * DELTA, scale=math.sqrt(DELTA)
    )
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
    aux = modified_bridge_fill(
        np.broadcast_to(u0, (n, 2)), u1, aug, delta, p, rng=RngStream(31)
    )
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
    ld = sml_transition_logdensity(u0, u1, LN_PARAMS, LN, cfg, RngStream(1))
    assert ld == pytest.approx(float(euler_density(u1, u0, LN_PARAMS, LN, DELTA)), rel=1e-14)


def test_sml_exact_in_pure_brownian_case():
    # Zero drift, unit diffusion: the proposal factorization is exact, so
    # every importance weight equals the true Gaussian transition density
    # and the estimate is exact up to rounding.
    cfg = _cfg(aug_steps=24, mc_draws=64)
    gen = RngStream(5).generator()
    u0 = gen.standard_normal((50, 2)) * 0.2
    u1 = u0 + gen.standard_normal((50, 2)) * math.sqrt(DELTA)
    ld = sml_transition_logdensity(u0, u1, BROWNIAN, LN, cfg, RngStream(6))
    exact = -np.log(2 * np.pi * DELTA) - 0.5 * np.sum((u1 - u0) ** 2, axis=1) / DELTA
    assert np.max(np.abs(ld - exact)) < 1e-9


def test_sml_unbiased_with_state_dependent_diffusion():
    # Standardized errors against a converged reference behave like
    # N(0, 1) across independent streams.
    p = LN_PARAMS
    u0 = np.array([0.0, gamma_transform(0.033, p.sigma)])
    u1 = np.array([0.01, gamma_transform(0.040, p.sigma)])
    ref_cfg = _cfg(aug_steps=8, mc_draws=200_000)
    ref = sml_transition_logdensity(
        u0, u1, p, LN, ref_cfg, RngStream(777), return_diagnostics=True
    )
    cfg = _cfg(aug_steps=8, mc_draws=256)
    zs = []
    for k in range(100):
        diag = sml_transition_logdensity(
            u0, u1, p, LN, cfg, RngStream(800).substream(k), return_diagnostics=True
        )
        z = (math.exp(float(diag.logdensity)) - math.exp(float(ref.logdensity))) / (
            math.exp(float(diag.logdensity)) * float(diag.rel_se)
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
            float(
                sml_transition_logdensity(u0, u1, p, LN, cfg, RngStream(901).substream(k))
            )
            for k in range(24)
        ]
        spreads.append(np.std(vals, ddof=1))
    ratio = spreads[0] / spreads[1]
    assert 2.0 < ratio < 5.0


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
    ld = sml_transition_logdensity(u0, u1, params, spec, cfg, RngStream(0), eps=eps)
    aux = modified_bridge_fill(u0, u1, aug, delta, params, eps=eps[0])
    points = np.concatenate([u0[None], aux, u1[None]])
    explicit = sum(
        float(euler_density(points[m + 1], points[m], params, spec, delta))
        - float(proposal_density_q(points[m + 1], points[m], u1, params, m, aug, delta))
        for m in range(aug - 1)
    ) + float(euler_density(u1, points[-2], params, spec, delta))
    assert ld == pytest.approx(explicit, rel=0.0, abs=1e-10)


def test_sml_underflow_reported():
    cfg = _cfg(aug_steps=2, mc_draws=4)
    u0 = np.array([0.0, -1.0])
    u1 = np.array([1e6, 1e6])
    with pytest.raises(DensityUnderflow):
        sml_transition_logdensity(u0, u1, LN_PARAMS, LN, cfg, RngStream(2))


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
    direct = sml_transition_logdensity(u[:-1], u[1:], p, LN, cfg, RngStream(3, 2), eps=eps)
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
    logp_y = sml_transition_logdensity(u[:-1], u[1:], LN_PARAMS, LN, cfg, rng, eps=eps)
    _, b_coef = swap_coefficients(LN_PARAMS, cfg.swap_tenor)
    logp_v = logp_y - math.log(LN_PARAMS.sigma) - LN_PARAMS.sigma * y[1:]
    total_v = float(logp_v.sum()) - (len(x) - 1) * math.log(b_coef)
    assert total_v == pytest.approx(total_y, abs=1e-8)


def test_total_loglik_infeasible_transform_is_minus_inf():
    series = make_series(LN_PARAMS, LN, 50, 91)
    bad = dataclasses.replace(LN_PARAMS, b0_q=5.0)  # A above every IV
    diag = {}
    out = total_loglik(series, bad, LN, _cfg(), RngStream(1), diagnostics=diag)
    assert out == -np.inf
    assert diag["n_failed_intervals"] > 0


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
    from nlsv.model import price_drift, y_drift

    v0, y0 = v[:-1], y[:-1]
    rx = np.diff(x) - price_drift(v0, LN_PARAMS, Measure.P) * DELTA
    ry = np.diff(y) - y_drift(y0, LN_PARAMS, LN, Measure.P) * DELTA
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


def test_total_loglik_invariant_to_chunking():
    series = make_series(LN_PARAMS, LN, 70, 13)
    cfg1 = _cfg(aug_steps=3, mc_draws=8, chunk_size=7)
    cfg2 = _cfg(aug_steps=3, mc_draws=8, chunk_size=512)
    a = total_loglik(series, LN_PARAMS, LN, cfg1, RngStream(8, 2))
    b = total_loglik(series, LN_PARAMS, LN, cfg2, RngStream(8, 2))
    assert a == b


def test_total_loglik_default_chunking_matches_explicit(monkeypatch):
    series = make_series(LN_PARAMS, LN, 70, 13)
    explicit = total_loglik(
        series, LN_PARAMS, LN, _cfg(aug_steps=3, mc_draws=8, chunk_size=7), RngStream(8, 2)
    )
    cfg = _cfg(aug_steps=3, mc_draws=8)
    assert cfg.chunk_size is None
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


def test_chunk_size_below_one_rejected():
    with pytest.raises(DomainViolation, match="chunk_size"):
        _cfg(chunk_size=0)


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
    cfg = _cfg(aug_steps=2, mc_draws=4, max_iter=30, restarts=1, min_obs=50, chunk_size=64)
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
