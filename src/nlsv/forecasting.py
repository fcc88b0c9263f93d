"""Forecast production and evaluation: realized/implied variance and log
price forecasts over the standard horizon grid, error metrics, the
Clark-West nested-model comparison and the rolling re-estimation protocol.

Targets and conventions
-----------------------
realized variance over n days at index i:   (262/n) * sum (X_j - X_{j-1})^2
model realized variance (annualized):       (1/n) * sum V_j
implied variance forecast:                  A + B * E[V], by linearity
log price forecast:                         x + a0*t + a1 * int_0^t E[V]
random walk benchmark:                      every future value equals the
                                            current value; its variance
                                            level is the observed implied
                                            variance itself (it has no swap
                                            transform of its own), so its
                                            forecast of future realized or
                                            implied variance is IV_t.

LN forecasts are exact: its affine variance drift gives E[V] and its
integral in closed form.  NL forecasts are Monte Carlo means over Euler
paths of the log variance, drawn on variance shocks only: X needs just E[V].

A directional forecast is correct when sign(forecast - current) equals
sign(realized - current), where "current" is X_t, IV_t, or the trailing
realized variance over the same window for the RV target.  A predicted
change of exactly zero counts as incorrect unless the realized change is
exactly zero.  This convention is fixed and documented rather than
recovered from any published benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

from .data_io import ObservedSeries, split
from .likelihood import FitResult, LikelihoodConfig, fit
from .model import (
    DAYS_PER_YEAR,
    SWAP_TENOR_YEARS,
    exp_averages,
    iv_to_v,
    swap_coefficients,
    variance_drift,
    variance_drift_over_v,
)
from .params import OUTER, DomainViolation, Family, Measure, ModelSpec, ParamVector
from .rng import RngStream

#: Stream id offset for forecast innovation draws.
STREAM_FORECAST = 4

TARGETS = ("x", "iv", "rv")

#: Forecasting models by report name: parameters (None for RW) and family.
Models = dict[str, tuple[ParamVector | None, ModelSpec]]


@dataclass(frozen=True)
class HorizonGrid:
    """Forecast horizons in trading days.

    Returns and implied variance are forecast from one day to half a
    trading year; realized variance starts at one week because it needs a
    window.
    """

    returns_iv: tuple[int, ...] = (1, 5, 22, 66, 131)
    rv: tuple[int, ...] = (5, 22, 66, 131)

    def for_target(self, target: str) -> tuple[int, ...]:
        return self.rv if target == "rv" else self.returns_iv

    @property
    def max_horizon(self) -> int:
        return max(self.returns_iv + self.rv)


@dataclass(frozen=True)
class EvalConfig:
    """Monte Carlo and protocol settings for forecast evaluation; NL alone
    draws, ``n_paths`` variance shocks per step of ``dt``."""

    horizons: HorizonGrid = HorizonGrid()
    n_paths: int = 20000
    dt: float = 1.0 / (262 * 8)  # hourly steps, 8 trading hours per day
    refit_every: int = 1
    window_width: int = 0  # observations per refit window; 0 = expanding

    def __post_init__(self):
        if self.n_paths < 1:
            raise DomainViolation("n_paths must be >= 1")
        if self.window_width < 0:
            raise DomainViolation("window_width must be >= 0")
        if self.refit_every < 1:
            raise DomainViolation("refit_every must be >= 1")
        _steps_per_day(self.dt)


def _steps_per_day(dt: float) -> int:
    """Number of steps of length ``dt`` (years) in one trading day;
    raises :class:`DomainViolation` unless they tile the day."""
    steps = round((1.0 / DAYS_PER_YEAR) / dt) if dt > 0 else 0
    if steps < 1 or abs(steps * dt * DAYS_PER_YEAR - 1.0) > 1e-9:
        raise DomainViolation("dt must divide one trading day")
    return steps


def realized_variance(x, i: int, n_days: int) -> float:
    """Annualized realized variance of log-price increments over the
    n-day window ending at index i."""
    x = np.asarray(x, dtype=float)
    if n_days < 1:
        raise DomainViolation("n_days must be >= 1")
    if i < n_days:
        raise DomainViolation(f"need {n_days} days of history before index {i}")
    diffs = np.diff(x[i - n_days : i + 1])
    return float(DAYS_PER_YEAR / n_days * np.sum(diffs * diffs))


def forecast_targets(
    x_now: float,
    iv_now: float,
    models: Models,
    horizons: HorizonGrid,
    n_paths: int,
    dt: float,
    rng: RngStream,
    swap_tenor: float | None = None,
) -> dict[str, dict[str, dict[int, float]]]:
    """Per-model conditional expectations of (X, IV, RV) at each horizon.

    The targets need only the daily E[V_t] and int_0^t E[V]: IV is
    A + B*E[V], RV averages E[V] over days 1..h and E[X_t] is
    x + a0*t + a1*int_0^t E[V].  LN has both in closed form; NL estimates
    them from ``n_paths`` Euler paths of Y on steps of ``dt``, drawing only
    their variance shocks from ``rng``, the same draws for every NL entry.
    RW returns current values at every horizon.
    """
    tenor = SWAP_TENOR_YEARS if swap_tenor is None else swap_tenor
    steps_per_day = _steps_per_day(dt)
    max_h = horizons.max_horizon
    days = np.arange(max_h + 1)
    years = days / DAYS_PER_YEAR

    out: dict[str, dict[str, dict[int, float]]] = {}
    for name, (params, spec) in models.items():
        if spec.family is Family.RW:
            daily = {"x": np.full(max_h + 1, x_now), "iv": np.full(max_h + 1, iv_now)}
            daily["rv"] = daily["iv"]
        else:
            v0 = float(iv_to_v(iv_now, params, tenor))
            if spec.family is Family.LN:
                mean_v, int_v = _ln_variance_moments(v0, params, years)
            else:
                mean_v, int_v = _euler_variance_moments(
                    v0, params, spec, dt, steps_per_day, max_h, n_paths, rng
                )
            a_c, b_c = swap_coefficients(params, tenor)
            daily = {
                "x": x_now + params.a0 * years + params.a1 * int_v,
                "iv": np.concatenate(([iv_now], a_c + b_c * mean_v[1:])),
                "rv": np.concatenate(([iv_now], np.cumsum(mean_v[1:]) / days[1:])),
            }
        out[name] = {
            t: {h: float(daily[t][h]) for h in (0,) + horizons.for_target(t)} for t in TARGETS
        }
    return out


def _ln_variance_moments(v0: float, params: ParamVector, t: np.ndarray):
    """E[V_t] and int_0^t E[V_s] ds under the LN drift b0_q + b1*V:

        E[V_t] = v0*e^z + b0_q*t*phi(z),  int_0^t E[V] = v0*t*phi(z) + b0_q*t^2*psi(z)

    with z = b1*t and phi, psi from :func:`nlsv.model.exp_averages`.
    Raises :class:`DomainViolation` when a moment overflows.
    """
    z = params.b1 * t
    with np.errstate(over="ignore", invalid="ignore"):
        phi, psi = np.array([exp_averages(zi) for zi in z]).T
        mean_v = v0 * np.exp(z) + params.b0_q * t * phi
        int_v = v0 * t * phi + params.b0_q * t * t * psi
    if not (np.all(np.isfinite(mean_v)) and np.all(np.isfinite(int_v))):
        raise DomainViolation("LN variance moments overflow; the drift is explosive")
    return mean_v, int_v


def _euler_variance_moments(
    v0: float, params: ParamVector, spec: ModelSpec, dt: float, steps_per_day: int,
    max_h: int, n_paths: int, rng: RngStream,
):
    """Daily Monte Carlo means of V and their Euler integrals dt * sum_{k<n} E[V_k].

    Only Y = log(V)/sigma is stepped, in place, on ``n_paths`` N(0, dt)
    variance shocks drawn per step, and V = exp(sigma*Y) is taken once per
    step, for its mean and the next drift.  The integral is the Euler X
    drift term: x + a0*t + a1*integral is the Euler X mean without its
    noise term.  An explosive drift raises DomainViolation at the first
    step whose mean is not finite or whose V is 0 on a path."""
    if n_paths < 1:
        raise DomainViolation("n_paths must be >= 1")
    gen = rng.generator()
    sigma, sqrt_dt = params.sigma, math.sqrt(dt)
    y = np.full(n_paths, math.log(v0) / sigma)
    v = np.exp(sigma * y)
    sums = np.empty(max_h * steps_per_day + 1)
    sums[0] = v.sum()
    with np.errstate(all="ignore"):
        for step in range(1, len(sums)):
            y += (variance_drift_over_v(v, params, spec) / sigma - 0.5 * sigma) * dt
            y += gen.standard_normal(n_paths) * sqrt_dt
            v = np.exp(sigma * y)
            sums[step] = v.sum()
            if not (math.isfinite(sums[step]) and v.min() > 0.0):
                raise DomainViolation("NL variance leaves (0, inf); the drift is explosive")
    means = sums / n_paths
    integrals = dt * np.concatenate(([0.0], np.cumsum(means[:-1])))
    return means[::steps_per_day], integrals[::steps_per_day]


@dataclass
class Metrics:
    mae: float
    rmse: float
    nmse: float
    dir: float

    def to_dict(self) -> dict:
        return {"mae": self.mae, "rmse": self.rmse, "nmse": self.nmse, "dir": self.dir}


def direction_hits(forecast, realized, current) -> np.ndarray:
    """Directional correctness per observation under the fixed convention."""
    forecast = np.asarray(forecast, dtype=float)
    realized = np.asarray(realized, dtype=float)
    current = np.asarray(current, dtype=float)
    pred = forecast - current
    real = realized - current
    return np.where(pred == 0.0, real == 0.0, np.sign(pred) == np.sign(real))


def metrics(residuals, realized, direction_flags) -> Metrics:
    """MAE, RMSE, NMSE and directional accuracy of one residual set.

    NMSE normalizes the squared-error sum by the squared deviation of the
    realized target from its sample mean, so the unconditional-mean
    forecast scores exactly 100%.
    """
    residuals = np.asarray(residuals, dtype=float)
    realized = np.asarray(realized, dtype=float)
    if residuals.size == 0:
        raise DomainViolation("empty residual vector")
    mae = float(np.mean(np.abs(residuals)))
    rmse = float(np.sqrt(np.mean(residuals**2)))
    denom = float(np.sum((realized - realized.mean()) ** 2))
    nmse = float(np.sum(residuals**2) / denom) if denom > 0 else math.inf
    dir_share = float(np.mean(np.asarray(direction_flags, dtype=bool)))
    return Metrics(mae=mae, rmse=rmse, nmse=nmse, dir=dir_share)


@dataclass
class CWResult:
    statistic: float
    p_value: float
    degenerate: bool

    def to_dict(self) -> dict:
        return {"statistic": self.statistic, "p_value": self.p_value, "degenerate": self.degenerate}


def clark_west(
    e_small,
    e_big,
    yhat_small,
    yhat_big,
    horizon_days: int,
) -> CWResult:
    """MSPE-adjusted comparison of nested forecasting models.

    Per period f = e_small^2 - e_big^2 + (yhat_small - yhat_big)^2; the
    statistic is the t-ratio of mean(f) against its HAC standard error
    (Bartlett kernel, lag window horizon_days - 1), with a one-sided
    upper-tail normal p-value.  A zero-variance f series (identical
    forecasts) is degenerate and reported as p = 1 by convention.
    """
    e_small = np.asarray(e_small, dtype=float)
    e_big = np.asarray(e_big, dtype=float)
    yhat_small = np.asarray(yhat_small, dtype=float)
    yhat_big = np.asarray(yhat_big, dtype=float)
    if not (len(e_small) == len(e_big) == len(yhat_small) == len(yhat_big)):
        raise DomainViolation("residual and forecast series must be aligned")
    fhat = e_small**2 - e_big**2 + (yhat_small - yhat_big) ** 2
    n = len(fhat)
    if n < 2:
        raise DomainViolation("need at least 2 forecast observations")
    fbar = float(fhat.mean())
    centered = fhat - fbar
    gamma0 = float(centered @ centered) / n
    if gamma0 <= 0.0 or not np.isfinite(gamma0):
        return CWResult(statistic=0.0, p_value=1.0, degenerate=True)
    lags = max(int(horizon_days) - 1, 0)
    lrv = gamma0
    for lag in range(1, min(lags, n - 1) + 1):
        cov = float(centered[lag:] @ centered[:-lag]) / n
        lrv += 2.0 * (1.0 - lag / (lags + 1.0)) * cov
    if lrv <= 0.0:
        lrv = gamma0
    stat = fbar / math.sqrt(lrv / n)
    return CWResult(statistic=float(stat), p_value=float(ndtr(-stat)), degenerate=False)


# ----------------------------------------------------------------------
# Report container
# ----------------------------------------------------------------------

CW_PAIRS = (("RW", "LN"), ("RW", "NL"), ("LN", "NL"))  # (nested small, nesting big)


def _cell_key(sample: str, model: str, target: str, horizon: int) -> str:
    return f"{sample}|{model}|{target}|{horizon}"


@dataclass
class ForecastReport:
    """Long-format forecast records with metric and test accessors."""

    cells: dict[str, dict[str, list]] = field(default_factory=dict)

    def add(
        self,
        sample: str,
        model: str,
        target: str,
        horizon: int,
        origin: int,
        forecast: float,
        realized: float,
        current: float,
    ) -> None:
        cell = self.cells.setdefault(
            _cell_key(sample, model, target, horizon),
            {"origin": [], "forecast": [], "realized": [], "current": []},
        )
        cell["origin"].append(int(origin))
        cell["forecast"].append(float(forecast))
        cell["realized"].append(float(realized))
        cell["current"].append(float(current))

    def cell(self, sample: str, model: str, target: str, horizon: int) -> dict | None:
        return self.cells.get(_cell_key(sample, model, target, horizon))

    def samples(self) -> list[str]:
        return sorted({key.split("|")[0] for key in self.cells})

    def models(self) -> list[str]:
        return sorted({key.split("|")[1] for key in self.cells})

    def horizons(self, sample: str, target: str) -> list[int]:
        out = set()
        for key in self.cells:
            s, _, t, h = key.split("|")
            if s == sample and t == target:
                out.add(int(h))
        return sorted(out)

    def metrics_for(self, sample: str, model: str, target: str, horizon: int) -> Metrics | None:
        cell = self.cell(sample, model, target, horizon)
        if cell is None or not cell["origin"]:
            return None
        forecast = np.array(cell["forecast"])
        realized = np.array(cell["realized"])
        current = np.array(cell["current"])
        return metrics(realized - forecast, realized, direction_hits(forecast, realized, current))

    def clark_west_for(
        self, sample: str, small: str, big: str, target: str, horizon: int
    ) -> CWResult | None:
        cs = self.cell(sample, small, target, horizon)
        cb = self.cell(sample, big, target, horizon)
        if cs is None or cb is None:
            return None
        common = sorted(set(cs["origin"]) & set(cb["origin"]))
        if len(common) < 2:
            return None
        idx_s = {o: k for k, o in enumerate(cs["origin"])}
        idx_b = {o: k for k, o in enumerate(cb["origin"])}
        fs = np.array([cs["forecast"][idx_s[o]] for o in common])
        rs = np.array([cs["realized"][idx_s[o]] for o in common])
        fb = np.array([cb["forecast"][idx_b[o]] for o in common])
        rb = np.array([cb["realized"][idx_b[o]] for o in common])
        return clark_west(rs - fs, rb - fb, fs, fb, horizon)

    def summary(self) -> dict:
        """Metric and test tables for every populated cell."""
        out: dict = {"metrics": {}, "clark_west": {}}
        for key in sorted(self.cells):
            sample, model, target, horizon = key.split("|")
            m = self.metrics_for(sample, model, target, int(horizon))
            if m is not None:
                out["metrics"][key] = m.to_dict()
        for sample in self.samples():
            for target in TARGETS:
                for horizon in self.horizons(sample, target):
                    for small, big in CW_PAIRS:
                        cw = self.clark_west_for(sample, small, big, target, horizon)
                        if cw is not None:
                            out["clark_west"][f"{sample}|{big}_vs_{small}|{target}|{horizon}"] = (
                                cw.to_dict()
                            )
        return out

    def to_dict(self) -> dict:
        return {"kind": "forecast_report", "cells": self.cells, "summary": self.summary()}

    @classmethod
    def from_dict(cls, payload: dict) -> "ForecastReport":
        report = cls()
        for key, cell in payload["cells"].items():
            report.cells[key] = {
                "origin": [int(v) for v in cell["origin"]],
                "forecast": [float(v) for v in cell["forecast"]],
                "realized": [float(v) for v in cell["realized"]],
                "current": [float(v) for v in cell["current"]],
            }
        return report


def risk_premium_series(
    series: ObservedSeries, params: ParamVector, spec: ModelSpec
) -> np.ndarray:
    """Variance risk premium along the implied instantaneous-variance path.

    The variance component of the market price of risk,
    (mu_P - mu_Q)/(sigma V), at each date's implied V: constant
    (b1 - b1_q)/sigma for LN, state-dependent for NL.
    """
    v = iv_to_v(series.iv, params)
    excess = variance_drift(v, params, spec, Measure.P) - variance_drift(v, params, None, Measure.Q)
    return excess / (params.sigma * v)


# ----------------------------------------------------------------------
# Rolling protocol
# ----------------------------------------------------------------------


def forecast_origin(
    report: ForecastReport,
    series: ObservedSeries,
    sample: str,
    origin: int,
    models: Models,
    eval_config: EvalConfig,
    rng: RngStream,
    last_index: int,
    swap_tenor: float,
) -> None:
    """Forecast all targets/horizons from one origin and record residuals."""
    horizons = eval_config.horizons
    try:
        forecasts = forecast_targets(
            float(series.x[origin]),
            float(series.iv[origin]),
            models,
            horizons,
            eval_config.n_paths,
            eval_config.dt,
            rng.substream(origin),
            swap_tenor=swap_tenor,
        )
    except DomainViolation:
        # Estimated dynamics can be explosive on pathological windows;
        # the origin is skipped rather than aborting the protocol.
        return
    for model, per_target in forecasts.items():
        for target in TARGETS:
            for h in horizons.for_target(target):
                if origin + h > last_index:
                    continue
                if target == "x":
                    realized = float(series.x[origin + h])
                    current = float(series.x[origin])
                elif target == "iv":
                    realized = float(series.iv[origin + h])
                    current = float(series.iv[origin])
                else:
                    if origin < h:
                        continue
                    realized = realized_variance(series.x, origin + h, h)
                    current = realized_variance(series.x, origin, h)
                report.add(
                    sample, model, target, h, origin, per_target[target][h], realized, current
                )


def evaluate_origins(
    series: ObservedSeries, n_in: int, in_models: Models, out_models: Callable[[int], Models],
    eval_config: EvalConfig, rng: RngStream, swap_tenor: float,
) -> ForecastReport:
    """Forecasts from every origin into one report: in-sample origins with
    ``in_models``, realized within the in-sample window, then each
    out-of-sample origin in date order with ``out_models(origin)``, in
    which a caller may re-estimate."""
    report = ForecastReport()
    for origin in range(max(eval_config.horizons.rv, default=0), n_in):
        forecast_origin(report, series, "in", origin, in_models, eval_config, rng, n_in - 1,
                        swap_tenor)
    for origin in range(n_in, len(series)):
        forecast_origin(report, series, "out", origin, out_models(origin), eval_config, rng,
                        len(series) - 1, swap_tenor)
    return report


def rolling_evaluation(
    series: ObservedSeries,
    split_date,
    specs: Sequence[ModelSpec],
    lik_config: LikelihoodConfig,
    eval_config: EvalConfig,
    init: dict[str, dict[str, float]] | None = None,
) -> tuple[ForecastReport, list[dict], dict[str, FitResult]]:
    """Full forecast-evaluation protocol.

    Fits each model once on the in-sample window and produces in-sample
    forecasts at every feasible origin; then walks the out-of-sample dates
    re-estimating every ``refit_every`` dates on the window that ends at
    the date: the last ``eval_config.window_width`` observations, or all
    of them when that is 0 (an expanding window with anchored start),
    warm-starting from the previous estimates.
    Returns the report, the per-date parameter paths, and the in-sample
    fits.  Refits skip the sandwich, as only their estimates and
    log-likelihoods are read.  A refit that raises DomainViolation (too
    few observations or no feasible parameter point) is recorded in its
    parameter path entry and the previous estimates are carried forward;
    any other exception propagates.
    """
    sp = split(series, split_date)
    n_in = sp.split_index
    rng = RngStream(lik_config.seed, STREAM_FORECAST)

    diffusive = {spec.family.value: spec for spec in specs if spec.family is not Family.RW}
    fits = {
        name: fit(sp.in_sample, spec, lik_config, init=(init or {}).get(name))
        for name, spec in diffusive.items()
    }

    def model_map(params: dict[str, ParamVector]) -> Models:
        return {"RW": (None, ModelSpec(Family.RW))} | {
            name: (params[name], spec) for name, spec in diffusive.items()
        }

    current_params = {name: fits[name].params for name in diffusive}
    param_paths: list[dict] = []

    def out_models(origin: int) -> Models:
        if (origin - n_in) % eval_config.refit_every == 0:
            width = eval_config.window_width or origin + 1
            window = series.window(max(0, origin + 1 - width), origin + 1)
            for name, spec in diffusive.items():
                warm = {k: getattr(current_params[name], k) for k in OUTER}
                entry = {"date": str(series.dates[origin]), "model": name}
                try:
                    res = fit(window, spec, lik_config, init=warm, errors=False)
                    current_params[name] = res.params
                    entry["params"] = {
                        k: getattr(res.params, k) for k in res.param_names
                    }
                    entry["loglik"] = res.loglik
                except DomainViolation as exc:
                    # The window admits no estimate: carry forward, record.
                    entry["error"] = f"{type(exc).__name__}: {exc}"
                param_paths.append(entry)
        return model_map(current_params)

    report = evaluate_origins(
        series, n_in, model_map(current_params), out_models, eval_config, rng,
        lik_config.swap_tenor,
    )
    return report, param_paths, fits
