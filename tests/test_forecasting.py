import dataclasses

import numpy as np
import pytest

from nlsv import forecasting
from nlsv.data_io import ObservedSeries
from nlsv.eml import IllConditionedSystem
from nlsv.forecasting import (
    CW_PAIRS,
    EvalConfig,
    ForecastReport,
    HorizonGrid,
    clark_west,
    direction_hits,
    forecast_targets,
    metrics,
    model_realized_variance,
    realized_variance,
    risk_premium_series,
    rolling_evaluation,
)
from nlsv.likelihood import DensityUnderflow, LikelihoodConfig
from nlsv.model import iv_to_v, swap_coefficients, v_to_iv
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


def test_model_realized_variance_constant():
    v = np.full(30, 0.042)
    assert model_realized_variance(v, 25, 22) == pytest.approx(0.042, rel=1e-14)


def test_model_realized_variance_ramp():
    v = np.arange(30, dtype=float)
    # window j = i-n+1..i of a linear ramp averages to the midpoint
    assert model_realized_variance(v, 28, 5) == pytest.approx(np.mean(v[24:29]), rel=1e-14)


# ------------------------------------------------------- point forecasts


def test_rw_forecasts_are_current_values():
    grid = HorizonGrid()
    out = forecast_targets(
        4.2, 0.053, {"RW": (None, RW)}, grid, n_paths=10, dt=1 / (262 * 8),
        rng=RngStream(1),
    )
    for h in grid.returns_iv:
        assert out["RW"]["x"][h] == 4.2
        assert out["RW"]["iv"][h] == 0.053
    for h in grid.rv:
        assert out["RW"]["rv"][h] == 0.053


def test_zero_horizon_returns_current_state():
    out = forecast_targets(
        1.0, 0.04, {"LN": (LN_PARAMS, LN), "RW": (None, RW)},
        HorizonGrid(returns_iv=(1,), rv=(5,)), n_paths=16, dt=1 / 262, rng=RngStream(2),
    )
    for model in ("LN", "RW"):
        assert out[model]["x"][0] == 1.0
        assert out[model]["iv"][0] == 0.04


def test_common_random_numbers_across_models():
    # Two entries with identical dynamics consume identical draws.
    out = forecast_targets(
        0.0, 0.045, {"LN": (NL_PARAMS, NL), "NL": (NL_PARAMS, NL)},
        HorizonGrid(returns_iv=(5, 22), rv=(5, 22)), n_paths=64, dt=1 / 262,
        rng=RngStream(3),
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
    out = forecast_targets(
        0.0, iv0, {"LN": (p, LN)}, grid, n_paths=4000, dt=1 / (262 * 4), rng=RngStream(100)
    )
    assert out["LN"]["iv"][tau_days] == pytest.approx(closed_iv, rel=1e-12)


def test_rv_forecast_matches_integrated_ode():
    p = LN_PARAMS
    h = 22
    v0 = 0.05
    days = np.arange(1, h + 1) / 262
    closed = np.mean(-p.b0_q / p.b1 + (v0 + p.b0_q / p.b1) * np.exp(p.b1 * days))
    iv0 = float(v_to_iv(v0, p))
    grid = HorizonGrid(returns_iv=(h,), rv=(h,))
    out = forecast_targets(
        0.0, iv0, {"LN": (p, LN)}, grid, n_paths=4000, dt=1 / (262 * 4), rng=RngStream(200)
    )
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
        1.5, float(v_to_iv(v0, p)), {"LN": (p, LN)}, grid, n_paths=1, dt=1 / 262,
        rng=RngStream(0),
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
        return forecast_targets(5.0, iv0, {"LN": (p, LN)}, grid, 1, 1 / 262, RngStream(0))["LN"]

    at_zero, near_zero = forecasts(0.0), forecasts(b1)
    for target in ("x", "iv", "rv"):
        for h in grid.for_target(target):
            assert near_zero[target][h] == pytest.approx(at_zero[target][h], rel=1e-9)


def test_ln_closed_form_overflow_raises():
    p = dataclasses.replace(LN_PARAMS, b1=5000.0)
    with pytest.raises(DomainViolation):
        forecast_targets(
            5.0, float(v_to_iv(0.04, p)), {"LN": (p, LN)}, HorizonGrid(), 1, 1 / 262,
            RngStream(0),
        )


def test_nl_reduced_to_ln_matches_closed_form():
    # NL with b2 = b3 = 0 and b0 = b0_q is LN.  Its Euler forecasts at
    # hourly steps differ from the exact LN forecasts by the Euler bias,
    # estimated as twice the gap to half-hourly steps (weak order one),
    # plus Monte Carlo error.
    p = dataclasses.replace(LN_PARAMS, b0=LN_PARAMS.b0_q, b2=0.0, b3=0.0)
    grid = HorizonGrid(returns_iv=(1, 5, 22), rv=(5, 22))
    iv0 = float(v_to_iv(0.04, p))
    hour = 1 / (262 * 8)
    exact = forecast_targets(5.0, iv0, {"LN": (p, LN)}, grid, 1, hour, RngStream(0))["LN"]

    def replicates(dt):
        return [
            forecast_targets(
                5.0, iv0, {"NL": (p, NL)}, grid, 2000, dt, RngStream(300).substream(k)
            )["NL"]
            for k in range(8)
        ]

    coarse, fine = replicates(hour), replicates(hour / 2)
    for target in ("x", "iv", "rv"):
        for h in grid.for_target(target):
            c = np.array([r[target][h] for r in coarse])
            f = np.array([r[target][h] for r in fine])
            se = np.std(c, ddof=1) / np.sqrt(len(c))
            bias = 2 * abs(c.mean() - f.mean())
            assert abs(c.mean() - exact[target][h]) < bias + 3 * se, (target, h)


def test_nl_forecast_matches_joint_euler_simulation():
    # NL V paths are those of the joint (X, Y) simulation on the same
    # stream; the X forecast is the Euler X drift term's mean, which lies
    # within Monte Carlo error of the simulated X mean.
    grid = HorizonGrid(returns_iv=(1, 5, 22), rv=(5, 22))
    x0, iv0, n_paths, steps = 5.7, 0.045, 2000, 8
    dt = 1 / (262 * steps)
    rng = RngStream(400).substream(7)
    got = forecast_targets(x0, iv0, {"NL": (NL_PARAMS, NL)}, grid, n_paths, dt, rng)["NL"]
    v0 = float(iv_to_v(iv0, NL_PARAMS))
    ens = simulate_paths(
        State(x0, v0), NL_PARAMS, NL, Measure.P, dt, 22 * steps, n_paths, rng
    )
    mean_v = ens.v.mean(axis=0)
    a_c, b_c = swap_coefficients(NL_PARAMS, 22 / 262)
    for h in grid.returns_iv:
        n = h * steps
        assert got["iv"][h] == pytest.approx(a_c + b_c * mean_v[n], rel=1e-12)
        drift_mean = x0 + NL_PARAMS.a0 * h / 262 + NL_PARAMS.a1 * dt * mean_v[:n].sum()
        assert got["x"][h] == pytest.approx(drift_mean, rel=1e-12)
        x_end = ens.x[:, n]
        se = x_end.std(ddof=1) / np.sqrt(n_paths)
        assert abs(got["x"][h] - x_end.mean()) < 3 * se
    for h in grid.rv:
        assert got["rv"][h] == pytest.approx(mean_v[steps : (h + 1) * steps : steps].mean(), rel=1e-12)


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
        n_paths=48,
        dt=1 / 262,
        refit_every=20,
    )
    base.update(kw)
    return EvalConfig(**base)


@pytest.mark.parametrize("kw", [dict(n_paths=0), dict(dt=3 / (262 * 8)), dict(dt=0.0)])
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
    assert report.n_records() > 0  # in-sample records exist


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


@pytest.mark.parametrize(
    "exc",
    [DomainViolation("window infeasible"), IllConditionedSystem(1e13), DensityUnderflow(3)],
)
def test_rolling_records_typed_refit_failures(monkeypatch, exc):
    _, paths, _ = _rolling_with_failing_refits(monkeypatch, exc)
    assert paths
    assert all(p["error"].startswith(type(exc).__name__) for p in paths)
    assert all("params" not in p for p in paths)


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
