import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsv.model import gamma_transform
from nlsv.params import DomainViolation, Measure, ParamVector, State
from nlsv.rng import RngStream
from nlsv.simulate import euler_step, modified_bridge_walk, simulate_paths

from conftest import LN, LN_PARAMS, NL, NL_PARAMS, bridge_points, step_major


class _ZeroStream:
    """Duck-typed stream whose generator returns zero draws."""

    def generator(self):
        class _G:
            def standard_normal(self, size):
                return np.zeros(size)

        return _G()


# ------------------------------------------------------------ euler_step


def test_euler_step_pure_ito_correction():
    # All drift coefficients zero: the y update is only -sigma/2 * dt.
    p = ParamVector(sigma=1.7, rho=0.0, b0_q=0.0, b1_q=0.0, a0=0.0, a1=0.0, b1=0.0, r=0.0)
    x, y = euler_step(0.0, 0.3, p, LN, 0.01, np.zeros(2))
    assert y == pytest.approx(0.3 - 0.5 * 1.7 * 0.01, rel=1e-14)


def test_euler_step_zero_dt_identity():
    x, y = euler_step(1.23, -0.4, LN_PARAMS, LN, 0.0, np.zeros(2))
    assert x == 1.23 and y == -0.4


def test_euler_step_q_measure_price_drift():
    # The step is always under the real-world measure: with zero shocks x
    # moves by the price drift a0 + a1*V at the departing variance.
    v0 = 0.05
    y0 = gamma_transform(v0, NL_PARAMS.sigma)
    x, _ = euler_step(0.0, y0, NL_PARAMS, NL, 0.01, np.zeros(2))
    assert x == pytest.approx((NL_PARAMS.a0 + NL_PARAMS.a1 * v0) * 0.01, rel=1e-10)


def test_q_long_run_mean_matches_ode_steady_state():
    # Stable pricing-measure drift (negative slope, anchor magnitudes):
    # the ODE steady state is -b0_q/b1_q.  V has that law under P in the
    # LN family with b1 = b1_q.
    p = dataclasses.replace(NL_PARAMS, b1_q=-11.326, b1=-11.326)
    target = -p.b0_q / p.b1_q
    ens = simulate_paths(
        State(0.0, target), p, LN, Measure.P, dt=1 / 262, n_steps=50 * 262,
        n_paths=64, rng=RngStream(11), record_every=262,
    )
    time_means = ens.v[:, 1:].mean(axis=1)  # per-path 50y time average
    se = time_means.std(ddof=1) / np.sqrt(len(time_means))
    assert abs(time_means.mean() - target) < 3 * se + 0.02 * target  # small Euler bias allowance


def test_simulate_paths_terminal_v_matches_ode():
    # Pricing-measure LN anchor values over one month: E[V] solves the
    # linear ODE; positive slope is fine at short horizon.  V has the
    # pricing-measure law under P in the LN family with b1 = b1_q.
    tau_days = 22
    v0 = 0.03
    p = dataclasses.replace(LN_PARAMS, b1=LN_PARAMS.b1_q)
    closed = -p.b0_q / p.b1_q + (v0 + p.b0_q / p.b1_q) * np.exp(p.b1_q * tau_days / 262)
    ens = simulate_paths(
        State(0.0, v0), p, LN, Measure.P, dt=1 / (262 * 8), n_steps=tau_days * 8,
        n_paths=20000, rng=RngStream(21),
    )
    terminal = ens.v[:, -1]
    se = terminal.std(ddof=1) / np.sqrt(len(terminal))
    assert abs(terminal.mean() - closed) < 3 * se + 2e-4  # 3 MC se plus small Euler bias


def test_simulate_paths_deterministic():
    a = simulate_paths(State(0.0, 0.04), LN_PARAMS, LN, Measure.P, 1 / 262, 30, 5, RngStream(9))
    b = simulate_paths(State(0.0, 0.04), LN_PARAMS, LN, Measure.P, 1 / 262, 30, 5, RngStream(9))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)


def test_simulate_paths_zero_noise_degenerate():
    ens = simulate_paths(
        State(0.0, 0.04), LN_PARAMS, LN, Measure.P, 1 / 262, 10, 4, _ZeroStream()
    )
    for k in range(1, 4):
        assert np.array_equal(ens.x[0], ens.x[k])
        assert np.array_equal(ens.v[0], ens.v[k])


def test_simulated_variance_stays_positive():
    ens = simulate_paths(
        State(0.0, 0.02), NL_PARAMS, NL, Measure.P, 1 / (262 * 8), 2000, 16, RngStream(3)
    )
    assert np.all(ens.v > 0.0)


def test_paper_scale_forecast_configuration():
    from nlsv.forecasting import EvalConfig

    cfg = EvalConfig()
    assert cfg.n_paths == 20000
    assert cfg.dt == pytest.approx(1.0 / (262 * 8))


def test_euler_weak_convergence_under_refinement():
    # Couple refinements through shared Brownian increments: finest-grid
    # draws aggregate to the coarser grids, so successive differences in
    # the 26-week expected variance shrink monotonically.
    p = dataclasses.replace(LN_PARAMS, b1_q=-10.9858, b1=-10.9858)
    horizon = 131 / 262
    n_paths = 4000
    base_steps = 131  # half-daily baseline times refinement factor
    gen = RngStream(17).generator()
    eps_fine = gen.standard_normal((n_paths, base_steps * 8, 2)) * np.sqrt(horizon / (base_steps * 8))
    estimates = []
    for factor in (1, 2, 4, 8):
        steps = base_steps * factor
        dt = horizon / steps
        group = base_steps * 8 // steps
        eps = eps_fine.reshape(n_paths, steps, group, 2).sum(axis=2)
        x = np.zeros(n_paths)
        y = np.full(n_paths, gamma_transform(0.04, p.sigma))
        for k in range(steps):
            x, y = euler_step(x, y, p, LN, dt, eps[:, k, :])
        estimates.append(np.exp(p.sigma * y).mean())
    gaps = np.abs(np.diff(estimates))
    assert gaps[0] > gaps[1] > gaps[2]


# --------------------------------------------------------------- bridges


# Unit diffusion: a vanishing vol-of-vol keeps V = exp(sigma*y) at 1, so
# the modified bridge is the plain Brownian bridge in both coordinates.
UNIT = ParamVector(sigma=1e-10, rho=0.0, b0_q=0.01, b1_q=0.0)


def _unit_fill(u0, u1, aug, delta, seed):
    """Auxiliary points of the modified-bridge walk at unit diffusion on
    N(0, delta) draws from ``RngStream(seed)``, shape (..., M-1, 2)."""
    u0, u1 = np.asarray(u0, dtype=float), np.asarray(u1, dtype=float)
    shape = np.broadcast_shapes(u0.shape, u1.shape)[:-1] + (aug - 1, 2)
    eps = RngStream(seed).generator().standard_normal(shape) * np.sqrt(delta)
    return bridge_points(u0, u1, UNIT, eps)[..., 1:-1, :]


def _closed_form(u0, u1, aug: int, noise: np.ndarray) -> np.ndarray:
    """Reference: the M-1 auxiliary points of one bridge coordinate,

        U_k = U_0 + (k/M)(U_M - U_0) + (M-k) * sum_{m<k} n_m / sqrt((M-m)(M-m-1)),

    the recursion's cumulative sum once the linear interpolation of the
    endpoints is taken out.  ``noise`` holds n_0 .. n_{M-2} along its last
    axis."""
    m = np.arange(aug - 1)
    remain = aug - m
    path = np.cumsum(noise / np.sqrt(remain * (remain - 1.0)), axis=-1) * (remain - 1)
    u0 = np.asarray(u0, dtype=float)[..., None]
    u1 = np.asarray(u1, dtype=float)[..., None]
    return path + u0 + (u1 - u0) * ((m + 1) / aug)


def _closed_form_fill(u0, u1, aug, params, eps):
    """Reference: the modified-bridge fill in closed form, shape
    (..., M-1, 2).  Y is the plain bridge of e_y; X takes the noise
    exp(sigma*Y_m/2) * (sqrt(1-rho^2)*e_x + rho*e_y) at each departing
    point Y_m."""
    y = _closed_form(u0[..., 1], u1[..., 1], aug, eps[..., 1])
    start = np.broadcast_to(u0[..., 1, None], y.shape[:-1] + (1,))
    y_from = np.concatenate([start, y[..., :-1]], axis=-1)
    noise = np.exp(0.5 * params.sigma * y_from) * (
        np.sqrt(1.0 - params.rho**2) * eps[..., 0] + params.rho * eps[..., 1]
    )
    return np.stack([_closed_form(u0[..., 0], u1[..., 0], aug, noise), y], axis=-1)


def test_bridge_empty_for_single_step():
    out = _unit_fill(np.zeros(2), np.ones(2), 1, 0.01, 1)
    assert out.shape == (0, 2)


def test_bridge_last_step_deterministic():
    # With M = 2 the single auxiliary point is random, but the recursion's
    # final coefficient sqrt(0/1) pins the next point at the endpoint: the
    # walk's last step is the increment to the endpoint.
    u0, u1 = np.array([0.0, 0.0]), np.array([1.0, 2.0])
    eps = RngStream(4).generator().standard_normal((1, 1, 2)) * np.sqrt(0.01)
    aux = bridge_points(u0, u1, UNIT, eps[0])[1:-1]
    *_, last = modified_bridge_walk(u0, u1, UNIT, step_major(eps))
    final = aux[-1] + np.concatenate([last.dx, last.dy])
    assert np.array_equal(final, u1)


def test_bridge_mean_is_linear_interpolant():
    u0, u1 = np.array([0.0, 1.0]), np.array([2.0, -1.0])
    n = 100_000
    aug = 4
    delta = 0.01
    aux = _unit_fill(np.broadcast_to(u0, (n, 2)), u1, aug, delta, 5)
    mid = aux[:, 1, :]  # lattice point at fraction 1/2
    expected = u0 + (u1 - u0) * 2 / 4
    se = mid.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(mid.mean(axis=0) - expected) < 4 * se)


def test_bridge_variance_profile():
    u0 = np.zeros(2)
    u1 = np.zeros(2)
    n = 100_000
    aug = 8
    delta = 0.02
    aux = _unit_fill(np.broadcast_to(u0, (n, 2)), u1, aug, delta, 6)
    for m in (1, 3, 5, 7):
        s = m / aug
        expected = delta * aug * s * (1 - s)
        sample = aux[:, m - 1, 0].var(ddof=1)
        # variance of a variance estimate: relative se ~ sqrt(2/n)
        assert sample == pytest.approx(expected, rel=5 * np.sqrt(2 / n))


def test_modified_bridge_reduces_to_plain_when_diffusion_is_identity():
    u0, u1 = np.array([0.1, -0.2]), np.array([0.4, 0.3])
    eps = RngStream(8).generator().standard_normal((64, 5, 2)) * 0.1
    plain = np.stack([_closed_form(u0[i], u1[i], 6, eps[..., i]) for i in range(2)], axis=-1)
    scaled = bridge_points(u0, u1, UNIT, eps)[..., 1:-1, :]
    assert np.allclose(plain, scaled, atol=1e-9)


def test_modified_bridge_y_component_matches_plain():
    # The diffusion matrix's second row is (0, 1): the y walk is the plain
    # bridge of e_y, bitwise, whatever the parameters, which the variance
    # system of the drift solver relies on.
    eps = RngStream(9).generator().standard_normal((32, 7, 2)) * 0.05
    u0, u1 = np.array([0.0, -1.4]), np.array([0.05, -1.1])
    plain = bridge_points(u0, u1, UNIT, eps)[..., 1]
    for params in (LN_PARAMS, NL_PARAMS):
        scaled = bridge_points(u0, u1, params, eps)
        assert np.array_equal(plain, scaled[..., 1])


_coord = st.floats(-3.0, 3.0)


@given(
    u0=st.tuples(_coord, _coord),
    u1=st.tuples(_coord, _coord),
    aug=st.integers(1, 30),
    sigma=st.floats(0.05, 3.0),
    rho=st.floats(-0.99, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_closed_form_fill_matches_recursion(u0, u1, aug, sigma, rho, seed):
    # The walk's running sums match the closed form in both coordinates,
    # its Y path ignores sigma and rho, and its last step lands exactly on
    # u1: the increment from the point the walk reached (at M = 1, with no
    # innovations, the whole interval).
    p = dataclasses.replace(LN_PARAMS, sigma=sigma, rho=rho)
    u0, u1 = np.array(u0), np.array(u1)
    delta = 1 / (262 * aug)
    eps = np.random.default_rng(seed).standard_normal((3, aug - 1, 2)) * np.sqrt(delta)
    points = bridge_points(u0, u1, p, eps)
    assert points.shape == (3, aug + 1, 2)
    np.testing.assert_allclose(
        points[:, 1:-1], _closed_form_fill(u0, u1, aug, p, eps), rtol=1e-12, atol=1e-12
    )
    # y has unit diffusion: its walk ignores sigma and rho entirely.
    assert np.array_equal(bridge_points(u0, u1, UNIT, eps)[..., 1], points[..., 1])
    *_, last = modified_bridge_walk(u0, u1, p, step_major(eps[:, None]))
    assert last.dx.shape == (3, 1)
    reached = points[:, -2]
    assert np.array_equal(last.dx[:, 0], u1[0] - reached[:, 0])
    assert np.array_equal(last.dy[:, 0], u1[1] - reached[:, 1])
