import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsv import forecasting
from nlsv.data_io import ObservedSeries
from nlsv.forecasting import (
    CW_PAIRS,
    EvalConfig,
    ForecastReport,
    HorizonGrid,
    clark_west,
    direction_hits,
    forecast_targets,
    metrics,
    realized_variance,
    risk_premium_series,
    rolling_evaluation,
)
from nlsv.likelihood import LikelihoodConfig
from nlsv.model import SWAP_TENOR_YEARS, iv_to_v, swap_coefficients, v_to_iv
from nlsv.params import DomainViolation, Family, Measure, ModelSpec, ParamVector, State
from nlsv.rng import RngStream
from nlsv.simulate import simulate_paths

from conftest import LN, LN_PARAMS, NL, NL_PARAMS, RW, make_series


# ------------------------------------------------------ realized variance


def test_realized_variance_constant_increments():
    d = 0.004
    x = np.cumsum(np.full(40, d))
    assert realized_variance(x, 30, 22) == pytest.approx(262 * d * d, rel=1e-12)


def test_realized_variance_zero_increments():
    x = np.full(30, 1.7)
    assert realized_variance(x, 20, 5) == 0.0


def test_realized_variance_against_naive_loop():
    rng = np.random.default_rng(8)
    x = np.cumsum(rng.standard_normal(60) * 0.01)
    i, n = 47, 22
    total = 0.0
    for j in range(i - n + 1, i + 1):
        total += (x[j] - x[j - 1]) ** 2
    assert realized_variance(x, i, n) == pytest.approx(262 / n * total, rel=1e-12)


def test_realized_variance_needs_history():
    with pytest.raises(DomainViolation):
        realized_variance(np.zeros(10), 4, 5)


# ------------------------------------------------------- point forecasts


def test_rw_forecasts_are_current_values():
    grid = HorizonGrid()
    out = forecast_targets(4.2, 0.053, {"RW": (None, RW)}, grid, dt=1 / (262 * 8))
    for h in grid.returns_iv:
        assert out["RW"]["x"][h] == 4.2
        assert out["RW"]["iv"][h] == 0.053
    for h in grid.rv:
        assert out["RW"]["rv"][h] == 0.053


@pytest.mark.parametrize(
    "returns_iv, rv",
    [((0, 1), (5,)), ((1, 5), (0,)), ((1, 5, 5), (5,)), ((1,), (5, 22, 5)), ((), (5,))],
    ids=["zero", "zero-rv", "repeat", "repeat-rv", "empty"],
)
def test_horizon_grid_rejects_zero_repeated_or_no_horizons(returns_iv, rv):
    # A horizon of 0 would read an NL chain row that no step fills, and a
    # repeated one would record every origin twice.
    with pytest.raises(DomainViolation, match="horizons"):
        HorizonGrid(returns_iv=returns_iv, rv=rv)


def test_common_random_numbers_across_models():
    # Two entries with identical dynamics share one chain and forecast alike.
    out = forecast_targets(
        0.0, 0.045, {"LN": (NL_PARAMS, NL), "NL": (NL_PARAMS, NL)},
        HorizonGrid(returns_iv=(5, 22), rv=(5, 22)), dt=1 / 262,
    )
    assert out["LN"] == out["NL"]


def test_ln_iv_forecast_matches_linear_ode():
    p = LN_PARAMS
    tau_days = 22
    tau = tau_days / 262
    v0 = 0.04
    closed_v = -p.b0_q / p.b1 + (v0 + p.b0_q / p.b1) * np.exp(p.b1 * tau)
    a_c, b_c = swap_coefficients(p, 22 / 262)
    closed_iv = a_c + b_c * closed_v
    iv0 = float(v_to_iv(v0, p))
    grid = HorizonGrid(returns_iv=(tau_days,), rv=(tau_days,))
    out = forecast_targets(0.0, iv0, {"LN": (p, LN)}, grid, 1 / (262 * 4))
    assert out["LN"]["iv"][tau_days] == pytest.approx(closed_iv, rel=1e-12)


def test_rv_forecast_matches_integrated_ode():
    p = LN_PARAMS
    h = 22
    v0 = 0.05
    days = np.arange(1, h + 1) / 262
    closed = np.mean(-p.b0_q / p.b1 + (v0 + p.b0_q / p.b1) * np.exp(p.b1 * days))
    iv0 = float(v_to_iv(v0, p))
    grid = HorizonGrid(returns_iv=(h,), rv=(h,))
    out = forecast_targets(0.0, iv0, {"LN": (p, LN)}, grid, 1 / (262 * 4))
    assert out["LN"]["rv"][h] == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("b1", [LN_PARAMS.b1, 1e-3, -1e-3])
def test_ln_forecasts_match_integrated_moments(b1):
    # E[V_s] = v0 e^{b1 s} + b0_q (e^{b1 s} - 1)/b1, and
    # E[X_t] = x + a0 t + a1 int_0^t E[V], the integral by the midpoint
    # rule on a fine grid.  |b1| = 1e-3 takes the Taylor-series branch.
    p = dataclasses.replace(LN_PARAMS, b1=b1)
    h, v0, n = 66, 0.035, 200_000
    t = h / 262

    def mean_v(s):
        return v0 * np.exp(b1 * s) + p.b0_q * np.expm1(b1 * s) / b1

    integral = mean_v((np.arange(n) + 0.5) * (t / n)).sum() * (t / n)
    a_c, b_c = swap_coefficients(p, 22 / 262)
    grid = HorizonGrid(returns_iv=(h,), rv=(h,))
    out = forecast_targets(
        1.5, float(v_to_iv(v0, p)), {"LN": (p, LN)}, grid, 1 / 262
    )["LN"]
    assert out["x"][h] == pytest.approx(1.5 + p.a0 * t + p.a1 * integral, rel=1e-12)
    assert out["iv"][h] == pytest.approx(a_c + b_c * mean_v(t), rel=1e-12)
    assert out["rv"][h] == pytest.approx(mean_v(np.arange(1, h + 1) / 262).mean(), rel=1e-12)


@pytest.mark.parametrize("b1", [1e-9, -1e-9])
def test_ln_closed_form_continuous_across_zero_slope(b1):
    grid = HorizonGrid()
    iv0 = float(v_to_iv(0.04, LN_PARAMS))

    def forecasts(slope):
        p = dataclasses.replace(LN_PARAMS, b1=slope)
        return forecast_targets(5.0, iv0, {"LN": (p, LN)}, grid, 1 / 262)["LN"]

    at_zero, near_zero = forecasts(0.0), forecasts(b1)
    for target in ("x", "iv", "rv"):
        for h in grid.for_target(target):
            assert near_zero[target][h] == pytest.approx(at_zero[target][h], rel=1e-9)


def test_ln_closed_form_overflow_raises():
    p = dataclasses.replace(LN_PARAMS, b1=5000.0)
    with pytest.raises(DomainViolation):
        forecast_targets(5.0, float(v_to_iv(0.04, p)), {"LN": (p, LN)}, HorizonGrid(), 1 / 262)


def _exp_averages_per_day(z):
    """The scalar phi/psi formula that LN forecasts applied day by day."""
    if abs(z) < 1e-3:
        return (
            1.0 + z / 2.0 + z * z / 6.0 + z**3 / 24.0 + z**4 / 120.0,
            0.5 + z / 6.0 + z * z / 24.0 + z**3 / 120.0 + z**4 / 720.0,
        )
    em1 = np.expm1(z)
    return em1 / z, (em1 - z) / (z * z)


@pytest.mark.parametrize(
    "b1, b1_q", [(LN_PARAMS.b1, LN_PARAMS.b1_q), (1e-3, 0.01), (0.2, -0.005), (0.0, 0.0)]
)
def test_ln_forecasts_are_bitwise_the_per_day_scalar_formula(b1, b1_q):
    # The array phi/psi equal the scalar formula's bit for bit, on both
    # branches (b1 = 1e-3 and b1_q = 0.01 take the series, b1 = 0.2 both),
    # so LN forecasts and the swap coefficients are those of a day-by-day
    # loop over the scalar formula.
    p = dataclasses.replace(LN_PARAMS, b1=b1, b1_q=b1_q)
    grid, x0, iv0 = HorizonGrid(), 5.7, 0.045
    phi_q, psi_q = _exp_averages_per_day(b1_q * SWAP_TENOR_YEARS)
    a_c, b_c = p.b0_q * SWAP_TENOR_YEARS * psi_q, phi_q
    assert swap_coefficients(p, SWAP_TENOR_YEARS) == (a_c, b_c)
    v0 = (iv0 - a_c) / b_c
    days = np.arange(grid.max_horizon + 1)
    years = days / 262
    z = p.b1 * years
    phi, psi = np.array([_exp_averages_per_day(zi) for zi in z]).T
    mean_v = v0 * np.exp(z) + p.b0_q * years * phi
    int_v = v0 * years * phi + p.b0_q * years * years * psi
    daily = {
        "x": x0 + p.a0 * years + p.a1 * int_v,
        "iv": np.concatenate(([iv0], a_c + b_c * mean_v[1:])),
        "rv": np.concatenate(([iv0], np.cumsum(mean_v[1:]) / days[1:])),
    }
    got = forecast_targets(x0, iv0, {"LN": (p, LN)}, grid, 1 / (262 * 8))
    for target in ("x", "iv", "rv"):
        assert got["LN"][target] == {
            h: float(daily[target][h]) for h in grid.for_target(target)
        }, target


def test_nl_reduced_to_ln_matches_closed_form():
    # NL with b2 = b3 = 0 and b0 = b0_q is LN.  Its Euler forecasts at
    # hourly steps differ from the exact LN forecasts by the Euler bias,
    # which at weak order one is twice the gap to half-hourly steps; the
    # chain has no sampling noise, so that holds to a quarter of the bias.
    p = dataclasses.replace(LN_PARAMS, b0=LN_PARAMS.b0_q, b2=0.0, b3=0.0)
    grid = HorizonGrid(returns_iv=(1, 5, 22), rv=(5, 22))
    iv0 = float(v_to_iv(0.04, p))
    hour = 1 / (262 * 8)

    def forecasts(spec, dt):
        return forecast_targets(5.0, iv0, {"M": (p, spec)}, grid, dt)["M"]

    exact, coarse, fine = forecasts(LN, hour), forecasts(NL, hour), forecasts(NL, hour / 2)
    for target in ("x", "iv", "rv"):
        for h in grid.for_target(target):
            bias = 2 * (coarse[target][h] - fine[target][h])
            error = coarse[target][h] - exact[target][h]
            assert abs(error - bias) < 0.25 * abs(bias), (target, h)


def test_nl_forecast_matches_joint_euler_simulation():
    # An independent joint (X, Y) simulation follows the same Euler chain:
    # its mean V agrees with the forecast's E[V] within 4 of its standard
    # errors at every horizon, and the X forecast, the Euler X drift term's
    # mean, lies within 4 standard errors of the simulated X mean.  The
    # forecast has no sampling error of its own.
    grid = HorizonGrid(returns_iv=(1, 5, 22), rv=(5, 22))
    x0, iv0, n_sim, steps = 5.7, 0.045, 20000, 8
    dt = 1 / (262 * steps)
    got = forecast_targets(x0, iv0, {"NL": (NL_PARAMS, NL)}, grid, dt)["NL"]
    v0 = float(iv_to_v(iv0, NL_PARAMS))
    ens = simulate_paths(
        State(x0, v0), NL_PARAMS, NL, Measure.P, dt, 22 * steps, n_sim, RngStream(401),
        record_every=steps,
    )
    a_c, b_c = swap_coefficients(NL_PARAMS, 22 / 262)
    for h in grid.returns_iv:
        v_end = ens.v[:, h]
        se_v = v_end.std(ddof=1) / np.sqrt(n_sim)
        assert abs((got["iv"][h] - a_c) / b_c - v_end.mean()) < 4 * se_v, h
        x_end = ens.x[:, h]
        se_x = x_end.std(ddof=1) / np.sqrt(n_sim)
        assert abs(got["x"][h] - x_end.mean()) < 4 * se_x, h


def test_nl_x_and_rv_forecasts_sum_the_chain_means_step_by_step():
    # At daily steps every day is one step, so the IV forecasts give E[V_k]
    # at every step k: the X drift integral is dt times the left sum
    # v0 + E[V_1] + ... + E[V_{h-1}], and RV averages E[V_1], ..., E[V_h].
    p, x0, iv0, dt = NL_PARAMS, 5.7, 0.045, 1 / 262
    hs = tuple(range(1, 23))
    grid = HorizonGrid(returns_iv=hs, rv=hs[1:])
    out = forecast_targets(x0, iv0, {"NL": (p, NL)}, grid, dt)["NL"]
    a_c, b_c = swap_coefficients(p, SWAP_TENOR_YEARS)
    mean_v = np.array([float(iv_to_v(iv0, p))] + [(out["iv"][h] - a_c) / b_c for h in hs])
    for h in hs:
        left_sum = x0 + p.a0 * h * dt + p.a1 * dt * mean_v[:h].sum()
        assert out["x"][h] == pytest.approx(left_sum, rel=1e-12), h
    for h in grid.rv:
        assert out["rv"][h] == pytest.approx(mean_v[1 : h + 1].mean(), rel=1e-12), h


def test_nl_forecast_decays_to_the_bottom_bin_when_the_drift_absorbs_at_zero():
    # With b3 < 0 (one rolling window's fit) the drift b3/V drives the
    # Euler chain to V = 0, where explicit Euler paths stop being defined.
    # The chain's bottom bin absorbs that mass: every forecast is finite,
    # and E[V] falls towards the bottom of the grid.
    p = dataclasses.replace(NL_PARAMS, b3=-0.0097)
    grid = HorizonGrid(returns_iv=(1, 5, 22, 66, 131), rv=(5, 22))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = forecast_targets(0.0, 0.045, {"NL": (p, NL)}, grid, 1 / (262 * 8))["NL"]
    a_c, b_c = swap_coefficients(p, SWAP_TENOR_YEARS)
    mean_v = np.array([(out["iv"][h] - a_c) / b_c for h in grid.returns_iv])
    assert all(np.isfinite(out[t][h]) for t in out for h in out[t])
    assert np.all(np.diff(mean_v) < 0)
    v_lo = forecasting.CHAIN_V_RANGE[0]
    assert v_lo < mean_v[-1] < 3 * v_lo


def test_explosive_nl_forecast_origin_is_recorded_in_the_top_bin_without_a_warning():
    # An NL fit with b2 > 0 and b3 < 0 (one rolling window's) overflows an
    # explicit Euler path of Y within hours.  The chain's top bin holds
    # that mass instead: the origin is recorded for every target and
    # horizon, E[V] stays at the top of the grid, and no RuntimeWarning
    # escapes on the way.
    p = dataclasses.replace(NL_PARAMS, b2=4954.0, b3=-0.0012)
    series = make_series(NL_PARAMS, NL, 40, 3)
    report = ForecastReport()
    config = EvalConfig(horizons=HorizonGrid(returns_iv=(1, 5), rv=(5,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forecasting.forecast_origin(
            report, series, "in", 10, {"NL": (p, NL)}, config, None, 39, SWAP_TENOR_YEARS
        )
    assert sorted(report.cells) == ["in|NL|iv|1", "in|NL|iv|5", "in|NL|rv|5", "in|NL|x|1",
                                    "in|NL|x|5"]
    a_c, b_c = swap_coefficients(p, SWAP_TENOR_YEARS)
    v_hi = forecasting.CHAIN_V_RANGE[1]
    assert 0.9 * v_hi < (report.cell("in", "NL", "iv", 5)["forecast"][0] - a_c) / b_c <= v_hi



@pytest.mark.parametrize("models", [("NL",), ("RW", "LN", "NL")])
def test_each_realized_variance_is_computed_once_per_origin(models, monkeypatch):
    # The realized and trailing RV of a (target, h) are shared by every
    # model's record: two calls per RV horizon whose window fits, however
    # many models forecast.  At origin 30 of 60 days the 5- and 22-day
    # windows fit and the 66-day one does not.
    calls = []
    real = forecasting.realized_variance

    def counted(x, i, n_days):
        calls.append((i, n_days))
        return real(x, i, n_days)

    monkeypatch.setattr(forecasting, "realized_variance", counted)
    series = make_series(NL_PARAMS, NL, 60, 5)
    params = {"RW": (None, RW), "LN": (LN_PARAMS, LN), "NL": (NL_PARAMS, NL)}
    config = EvalConfig(horizons=HorizonGrid(returns_iv=(1, 5), rv=(5, 22, 66)))
    report = ForecastReport()
    forecasting.forecast_origin(
        report, series, "in", 30, {m: params[m] for m in models}, config, None, 59,
        SWAP_TENOR_YEARS,
    )
    assert sorted(calls) == [(30, 5), (30, 22), (35, 5), (52, 22)]
    assert sorted(report.cells) == sorted(
        f"in|{m}|{t}|{h}" for m in models for t, h in
        (("x", 1), ("x", 5), ("iv", 1), ("iv", 5), ("rv", 5), ("rv", 22))
    )

@given(
    sigma=st.floats(0.5, 4.0),
    b2=st.floats(-500.0, 5000.0),
    b3=st.floats(-0.02, 0.002),
)
@settings(max_examples=25, deadline=None)
def test_every_row_of_the_chain_kernel_sums_to_one(sigma, b2, b3):
    # The end bins absorb the tails, so no mass leaves the grid, whatever
    # the drift.
    p = dataclasses.replace(NL_PARAMS, sigma=sigma, b2=b2, b3=b3)
    _, _, _, kernel = forecasting._transition(p, NL, 1 / (262 * 8))
    assert np.all(kernel.data >= 0.0)
    assert np.max(np.abs(kernel.sum(axis=1) - 1.0)) < 1e-12


def _nl_forecast(params, horizons=HorizonGrid()):
    return forecast_targets(
        5.7, 0.045, {"NL": (params, NL)}, horizons, 1 / (262 * 8)
    )["NL"]


def test_cached_chain_forecasts_equal_a_cold_build():
    forecasting._euler_chain.cache_clear()
    cold = _nl_forecast(NL_PARAMS)
    assert forecasting._euler_chain.cache_info().misses == 1
    warm = _nl_forecast(NL_PARAMS)
    assert forecasting._euler_chain.cache_info().hits == 1
    assert warm == cold


@pytest.mark.parametrize("field", ["sigma", "b0", "b1", "b2", "b3"])
def test_changing_one_drift_coefficient_changes_the_forecast(field):
    base = _nl_forecast(NL_PARAMS)
    moved = dataclasses.replace(NL_PARAMS, **{field: getattr(NL_PARAMS, field) * 1.01})
    changed = _nl_forecast(moved)
    assert changed["iv"][22] != base["iv"][22] and changed["x"][22] != base["x"][22]


def test_cached_chain_rows_are_read_only():
    chain = forecasting._euler_chain(NL_PARAMS, NL, 1 / (262 * 8), HorizonGrid())
    for rows in (chain.mean_rows, chain.int_rows, chain.rv_rows, chain.edges):
        with pytest.raises(ValueError):
            rows[0] = 0.0


def test_nl_chain_build_memory_stays_at_the_kernel():
    # 131 days of hourly steps: K takes about 1.2 MB at 67 entries per row,
    # and only 14 grid rows outlive the backward recursion.
    forecasting._euler_chain.cache_clear()
    tracemalloc.start()
    try:
        forecasting._euler_chain(NL_PARAMS, NL, 1 / (262 * 8), HorizonGrid())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3e6


# --------------------------------------------------------------- metrics


def test_metrics_perfect_forecasts():
    m = metrics(np.zeros(10), np.linspace(1, 2, 10), np.ones(10, dtype=bool))
    assert m.mae == 0.0 and m.rmse == 0.0 and m.dir == 1.0


def test_metrics_unit_residuals():
    m = metrics(np.array([1.0, -1.0]), np.array([3.0, 1.0]), np.array([True, False]))
    assert m.mae == 1.0 and m.rmse == 1.0 and m.dir == 0.5


def test_nmse_of_mean_forecast_is_one():
    rng = np.random.default_rng(4)
    realized = rng.standard_normal(200)
    residuals = realized - realized.mean()
    m = metrics(residuals, realized, np.ones(200, dtype=bool))
    assert m.nmse == pytest.approx(1.0, rel=1e-12)


def test_metrics_empty_rejected():
    with pytest.raises(DomainViolation):
        metrics(np.array([]), np.array([]), np.array([]))


def test_direction_convention():
    # zero predicted change counts as correct only when realized change
    # is exactly zero
    hits = direction_hits(
        forecast=np.array([1.0, 1.0, 2.0, 0.5]),
        realized=np.array([1.0, 2.0, 3.0, 0.2]),
        current=np.array([1.0, 1.0, 1.0, 1.0]),
    )
    assert hits.tolist() == [True, False, True, True]


# ------------------------------------------------------------ clark-west


def test_clark_west_identical_models_degenerate():
    e = np.random.default_rng(5).standard_normal(100)
    yhat = np.zeros(100)
    res = clark_west(e, e, yhat, yhat, 5)
    assert res.degenerate and res.p_value == 1.0


def test_clark_west_strictly_better_nesting_model():
    rng = np.random.default_rng(6)
    n = 500
    signal = rng.standard_normal(n)
    noise = 0.5 * rng.standard_normal(n)
    y = signal + noise
    yhat_small = np.zeros(n)
    yhat_big = signal
    res = clark_west(y - yhat_small, y - yhat_big, yhat_small, yhat_big, 1)
    assert res.p_value < 0.05


def test_clark_west_adjustment_dominates_naive_difference():
    rng = np.random.default_rng(7)
    n = 300
    e_s = rng.standard_normal(n)
    e_b = rng.standard_normal(n)
    ys = rng.standard_normal(n)
    yb = ys + 0.3 * rng.standard_normal(n)
    fhat = e_s**2 - e_b**2 + (ys - yb) ** 2
    naive = e_s**2 - e_b**2
    assert np.all(fhat >= naive)


def test_clark_west_size_smoke():
    # Null: nested model is the DGP and the big model adds fitted noise.
    rng = np.random.default_rng(8)
    rejections = 0
    reps = 120
    for _ in range(reps):
        n = 400
        eps = rng.standard_normal(n)
        z = rng.standard_normal(n)
        c = 0.3
        res = clark_west(eps, eps - c * z, np.zeros(n), c * z, 1)
        rejections += res.p_value < 0.05
    assert rejections / reps < 0.15


# ------------------------------------------------------ report + rolling


def _quick_eval_config(**kw):
    base = dict(
        horizons=HorizonGrid(returns_iv=(1, 5), rv=(5,)),
        dt=1 / 262,
        refit_every=20,
    )
    base.update(kw)
    return EvalConfig(**base)


@pytest.mark.parametrize(
    "kw",
    [
        dict(n_paths=0),
        dict(dt=3 / (262 * 8)),
        dict(dt=0.0),
        dict(window_width=-1),
        dict(refit_every=0),
    ],
)
def test_eval_config_rejects_bad_settings(kw):
    with pytest.raises(DomainViolation):
        _quick_eval_config(**kw)


def _quick_lik_config(**kw):
    base = dict(
        aug_steps=1, mc_draws=1, max_iter=30, restarts=1, min_obs=40, seed=9
    )
    base.update(kw)
    return LikelihoodConfig(**base)


def test_rolling_split_at_end_gives_empty_out_sample():
    series = make_series(LN_PARAMS, LN, 120, 19, v0=0.033)
    report, paths, fits = rolling_evaluation(
        series, series.dates[-1], [LN], _quick_lik_config(), _quick_eval_config(),
        init={"LN": {"sigma": 2.2, "rho": -0.68, "b0_q": 0.058, "b1_q": 11.0}},
    )
    assert "out" not in report.samples()
    assert paths == []
    assert any(cell["origin"] for cell in report.cells.values())  # in-sample records exist


def test_rolling_bookkeeping_and_determinism():
    series = make_series(LN_PARAMS, LN, 120, 19, v0=0.033)
    split_date = series.dates[89]
    init = {"LN": {"sigma": 2.2, "rho": -0.68, "b0_q": 0.058, "b1_q": 11.0}}
    args = (series, split_date, [LN])
    r1, p1, f1 = rolling_evaluation(*args, _quick_lik_config(), _quick_eval_config(), init=init)
    r2, p2, f2 = rolling_evaluation(*args, _quick_lik_config(), _quick_eval_config(), init=init)
    assert r1.to_dict() == r2.to_dict()
    assert p1 == p2
    # out-of-sample x-residual count at horizon 1: origins 90..118 realize
    cell = r1.cell("out", "LN", "x", 1)
    assert len(cell["origin"]) == 29
    # RW cells exist without any fit
    assert r1.cell("out", "RW", "iv", 5) is not None
    # every record has matched forecast/realized/current lengths
    for c in r1.cells.values():
        assert len(c["origin"]) == len(c["forecast"]) == len(c["realized"]) == len(c["current"])


def test_rolling_window_width_sets_the_refit_window(monkeypatch):
    # window_width = W alone refits on the W observations that end at each
    # refit date (origins 90 and 110 at refit_every = 20).
    real_fit = forecasting.fit
    windows = []

    def spy(series, *args, **kw):
        windows.append((series.dates[0], len(series)))
        return real_fit(series, *args, **kw)

    monkeypatch.setattr(forecasting, "fit", spy)
    series = make_series(LN_PARAMS, LN, 120, 19, v0=0.033)
    init = {"LN": {"sigma": 2.2, "rho": -0.68, "b0_q": 0.058, "b1_q": 11.0}}
    rolling_evaluation(
        series, series.dates[89], [LN], _quick_lik_config(),
        _quick_eval_config(window_width=60), init=init,
    )
    assert windows == [
        (series.dates[0], 90), (series.dates[31], 60), (series.dates[51], 60)
    ]


def test_rolling_records_typed_refit_failures(monkeypatch):
    _, paths, _ = _rolling_with_failing_refits(monkeypatch, DomainViolation("window infeasible"))
    assert paths
    assert all(p["error"].startswith("DomainViolation") for p in paths)
    assert all("params" not in p for p in paths)


def test_rolling_refits_skip_the_sandwich(monkeypatch):
    # Refits compute no standard errors, and their estimates and
    # log-likelihoods are those of the full fit; the in-sample fit keeps
    # its errors.
    real_fit = forecasting.fit
    calls = []

    def spy(*args, **kw):
        calls.append((args, kw, real_fit(*args, **kw)))
        return calls[-1][2]

    monkeypatch.setattr(forecasting, "fit", spy)
    series = make_series(LN_PARAMS, LN, 120, 19, v0=0.033)
    init = {"LN": {"sigma": 2.2, "rho": -0.68, "b0_q": 0.058, "b1_q": 11.0}}
    _, paths, fits = rolling_evaluation(
        series, series.dates[89], [LN], _quick_lik_config(),
        _quick_eval_config(refit_every=15), init=init,
    )
    (_, _, in_sample), *refits = calls
    assert in_sample is fits["LN"] and set(in_sample.std_errors) == set(LN.param_names)
    assert len(refits) == len(paths) == 2
    for (args, kw, res), entry in zip(refits, paths):
        assert res.std_errors == {} and res.covariance.shape == (0, 0)
        full = real_fit(*args, **{**kw, "errors": True})
        assert full.params == res.params and full.loglik == res.loglik
        assert entry["loglik"] == res.loglik and set(full.std_errors) == set(LN.param_names)


def test_rolling_refit_bug_propagates(monkeypatch):
    with pytest.raises(ValueError, match="a bug"):
        _rolling_with_failing_refits(monkeypatch, ValueError("a bug"))


def _rolling_with_failing_refits(monkeypatch, exc):
    """Rolling evaluation whose in-sample fit succeeds and whose every
    out-of-sample refit raises ``exc``."""
    real_fit = forecasting.fit
    calls = []

    def fit_then_fail(*args, **kw):
        calls.append(args)
        if len(calls) > 1:
            raise exc
        return real_fit(*args, **kw)

    monkeypatch.setattr(forecasting, "fit", fit_then_fail)
    series = make_series(LN_PARAMS, LN, 120, 19, v0=0.033)
    init = {"LN": {"sigma": 2.2, "rho": -0.68, "b0_q": 0.058, "b1_q": 11.0}}
    return rolling_evaluation(
        series, series.dates[89], [LN], _quick_lik_config(), _quick_eval_config(), init=init
    )


def test_report_round_trip_and_summary():
    report = ForecastReport()
    rng = np.random.default_rng(11)
    for model in ("RW", "LN"):
        for k in range(30):
            f = float(rng.standard_normal())
            r = f + float(rng.standard_normal()) * (1.0 if model == "RW" else 0.3)
            report.add("in", model, "iv", 5, k, f, r, 0.0)
    payload = report.to_dict()
    back = ForecastReport.from_dict(payload)
    assert back.to_dict() == payload
    summary = payload["summary"]
    assert "in|LN|iv|5" in summary["metrics"]
    assert "in|LN_vs_RW|iv|5" in summary["clark_west"]


# ----------------------------------------------------------- risk premium


def test_risk_premium_ln_constant_negative():
    series = make_series(LN_PARAMS, LN, 80, 21)
    prem = risk_premium_series(series, LN_PARAMS, LN)
    expected = (LN_PARAMS.b1 - LN_PARAMS.b1_q) / LN_PARAMS.sigma
    assert np.max(prem) - np.min(prem) < 1e-12
    assert prem[0] == pytest.approx(expected, rel=1e-12)
    assert np.all(prem < 0)


def test_risk_premium_zero_when_excess_drift_vanishes():
    p = dataclasses.replace(LN_PARAMS, a0=LN_PARAMS.r, a1=-0.5, b1=LN_PARAMS.b1_q)
    series = make_series(LN_PARAMS, LN, 50, 22)
    prem = risk_premium_series(series, p, LN)
    assert np.allclose(prem, 0.0, atol=1e-14)


def test_risk_premium_nl_varies_with_state():
    series = make_series(NL_PARAMS, NL, 150, 23)
    prem = risk_premium_series(series, NL_PARAMS, NL)
    assert np.std(prem) > 0.0
