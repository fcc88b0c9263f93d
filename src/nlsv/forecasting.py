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
integral in closed form.  NL forecasts are means of the Euler chain of the
log variance Y = log(V)/sigma on steps of dt (hourly by default), taken from
the chain's law on a fixed Y grid rather than from sampled paths (the
Markov-chain approximation of a diffusion, Kushner & Dupuis 2001): X needs
just E[V], and Y has unit diffusion, so the chain is one-dimensional.  They
are deterministic, and finite for every fit, explosive drifts included.

A directional forecast is correct when sign(forecast - current) equals
sign(realized - current), where "current" is X_t, IV_t, or the trailing
realized variance over the same window for the RV target.  A predicted
change of exactly zero counts as incorrect unless the realized change is
exactly zero.  This convention is fixed and documented rather than
recovered from any published benchmark.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.special import ndtr

from .data_io import ObservedSeries, csv_text, split
from .likelihood import FitResult, LikelihoodConfig, fit
from .model import (
    DAYS_PER_YEAR,
    HOURS_PER_DAY,
    SWAP_TENOR_YEARS,
    drift_p,
    exp_averages,
    iv_to_v,
    log_variance_drift,
    swap_coefficients,
)
from .params import OUTER, DomainViolation, Family, ModelSpec, ParamVector

#: Stream id offset that forecasts once drew from.  Nothing reads it; it is
#: kept only because the benchmark's forecast workload spells it, until the
#: next benchmark change deletes it.
STREAM_FORECAST = 4

TARGETS = ("x", "iv", "rv")

#: Forecasting models by report name: parameters (None for RW) and family.
Models = dict[str, tuple[ParamVector | None, ModelSpec]]


@dataclass(frozen=True)
class HorizonGrid:
    """Forecast horizons in trading days.

    Returns and implied variance are forecast from one day to half a
    trading year; realized variance starts at one week because it needs a
    window.  Each tuple holds distinct horizons >= 1, and ``returns_iv``
    at least one: a horizon of 0 would read a chain row no step fills, and
    a repeated one would record every origin twice.
    """

    returns_iv: tuple[int, ...] = (1, 5, 22, 66, 131)
    rv: tuple[int, ...] = (5, 22, 66, 131)

    def __post_init__(self):
        for hs in (self.returns_iv, self.rv):
            if any(h < 1 for h in hs) or len(set(hs)) < len(hs):
                raise DomainViolation(f"horizons must be distinct and >= 1, got {hs}")
        if not self.returns_iv:
            raise DomainViolation("horizons: need at least one return and IV horizon")

    def for_target(self, target: str) -> tuple[int, ...]:
        return self.rv if target == "rv" else self.returns_iv

    @property
    def max_horizon(self) -> int:
        return max(self.returns_iv + self.rv)


@dataclass(frozen=True)
class EvalConfig:
    """Protocol settings for forecast evaluation.  NL forecasts follow the
    Euler chain of Y on steps of ``dt``.  ``n_paths`` is unread: it is
    kept, with its check, only because the benchmark sets it, until the
    next benchmark change deletes it."""

    horizons: HorizonGrid = HorizonGrid()
    n_paths: int = 20000
    dt: float = 1.0 / (DAYS_PER_YEAR * HOURS_PER_DAY)  # hourly steps
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
    dt: float,
) -> dict[str, dict[str, dict[int, float]]]:
    """Per-model conditional expectations of (X, IV, RV) at each horizon.

    The targets need only E[V_h], int_0^h E[V] and the daily sum
    E[V_1] + ... + E[V_h]: IV is A + B*E[V] at the swap tenor
    ``SWAP_TENOR_YEARS``, RV is the daily sum over h and E[X_h] is
    x + a0*h + a1*int_0^h E[V].  LN has them in closed form; NL reads them
    from the law of the Euler chain of Y on steps of ``dt``
    (:func:`_euler_chain`), whose X integral is dt times the sum of E[V]
    over the steps before h.  RW returns current values at every horizon.
    """
    hs, rv_hs = horizons.returns_iv, horizons.rv
    out: dict[str, dict[str, dict[int, float]]] = {}
    for name, (params, spec) in models.items():
        if spec.family is Family.RW:
            current = {"x": x_now, "iv": iv_now, "rv": iv_now}
            out[name] = {
                t: {h: current[t] for h in horizons.for_target(t)} for t in TARGETS
            }
            continue
        v0 = float(iv_to_v(iv_now, params))
        if spec.family is Family.LN:
            mean_v, int_v, sum_v = _ln_variance_moments(v0, params, horizons)
        else:
            mean_v, int_v, sum_v = _euler_chain(params, spec, dt, horizons).moments(v0)
        a_c, b_c = swap_coefficients(params, SWAP_TENOR_YEARS)
        out[name] = {
            "x": {
                h: float(x_now + params.a0 * (h / DAYS_PER_YEAR) + params.a1 * i)
                for h, i in zip(hs, int_v)
            },
            "iv": {h: float(a_c + b_c * m) for h, m in zip(hs, mean_v)},
            "rv": {h: float(sv / h) for h, sv in zip(rv_hs, sum_v)},
        }
    return out


def _ln_variance_moments(v0: float, params: ParamVector, horizons: HorizonGrid):
    """E[V_h] and int_0^h E[V_s] ds at ``horizons.returns_iv``, and the
    daily sums E[V_1] + ... + E[V_h] at ``horizons.rv``, under the LN drift
    b0_q + b1*V:

        E[V_t] = v0*e^z + b0_q*t*phi(z),  int_0^t E[V] = v0*t*phi(z) + b0_q*t^2*psi(z)

    with z = b1*t and phi, psi from :func:`nlsv.model.exp_averages`.
    Raises :class:`DomainViolation` when a moment overflows.
    """
    t = np.arange(horizons.max_horizon + 1) / DAYS_PER_YEAR
    z = params.b1 * t
    with np.errstate(over="ignore", invalid="ignore"):
        phi, psi = exp_averages(z)
        mean_v = v0 * np.exp(z) + params.b0_q * t * phi
        int_v = v0 * t * phi + params.b0_q * t * t * psi
    if not (np.all(np.isfinite(mean_v)) and np.all(np.isfinite(int_v))):
        raise DomainViolation("LN variance moments overflow; the drift is explosive")
    hs = list(horizons.returns_iv)
    sum_v = np.cumsum(mean_v[1:])[[h - 1 for h in horizons.rv]]
    return mean_v[hs], int_v[hs], sum_v


# ----------------------------------------------------------------------
# NL: the law of the Euler chain of Y on a fixed grid
# ----------------------------------------------------------------------

#: V range that the chain's Y grid covers.  Fixed, never tuned per fit: the
#: two end bins absorb the mass that an explosive drift pushes beyond it.
CHAIN_V_RANGE = (1e-6, 1e2)
#: Y-grid spacing in Euler-step standard deviations.
_GRID_PER_SD = 0.25
#: Bins on either side of a step mean's bin that its kernel covers: 8 SD.
_KERNEL_HALF = math.ceil(8.0 / _GRID_PER_SD) + 1
#: Grid rows per block of the transition-matrix build.
_BUILD_ROWS = 128


@dataclass(frozen=True)
class EulerChain:
    """Rows of the backward recursion of the Euler chain of Y.

    Bin j of the grid is [edges[j], edges[j+1]), around the centre
    y_lo + j*h; the outer edges are -inf and +inf, so the end bins absorb
    the tails.  With u_0 = V at the centres and u_k = K u_{k-1}, u_k[j]
    is E[V] after k steps from bin j.  For n = d*steps_per_day steps, the
    rows are u_{n-1} for each horizon d of ``returns_iv`` (``mean_rows``),
    u_0 + ... + u_{n-2} for the same horizons (``int_rows``) and the sum of
    u_{n-1} over the days up to each horizon of ``rv`` (``rv_rows``).
    Cached and shared, so the rows are read-only.
    """

    params: ParamVector
    spec: ModelSpec
    dt: float
    edges: np.ndarray
    sd: float
    mean_rows: np.ndarray
    int_rows: np.ndarray
    rv_rows: np.ndarray

    def moments(self, v0: float):
        """E[V_h] and dt * sum_{k<n} E[V_k] at ``returns_iv``, and the
        daily sums at ``rv``, for the chain started exactly at ``v0``: the
        first step's bin probabilities dotted with the rows."""
        y0 = np.array([math.log(v0) / self.params.sigma])
        probs, cols = _kernel(_step_means(y0, self.params, self.spec, self.dt), self.edges, self.sd)
        probs, cols = probs[0], cols[0]
        mean_v = self.mean_rows[:, cols] @ probs
        int_v = self.dt * (v0 + self.int_rows[:, cols] @ probs)
        return mean_v, int_v, self.rv_rows[:, cols] @ probs


def _step_means(y, params: ParamVector, spec: ModelSpec, dt: float) -> np.ndarray:
    """Mean of one Euler step of Y from each ``y``: y + mu_Y*dt."""
    return y + log_variance_drift(np.exp(params.sigma * y), params, spec) * dt


def _kernel(means, edges: np.ndarray, sd: float):
    """Bin probabilities of N(mean, sd^2) for each of ``means``, on the
    window of 2*_KERNEL_HALF + 1 bins around the mean's bin, and the bins'
    columns, both shaped (len(means), window).

    The window's outer edges are taken as -inf and +inf, so every row sums
    to one: beyond 8 SD that moves less than 1e-15 of mass, and at the
    grid's ends it is the end bins' absorption.  Window bins that fall off
    the grid repeat an end column with probability zero.  A mean more than
    16 SD beyond the grid's inner edges lands in the end bin either way, so
    it is clipped to that distance, which also keeps an infinite mean from
    meeting an infinite edge.
    """
    n = len(edges) - 1
    means = np.clip(means, edges[1] - 16.0 * sd, edges[-2] + 16.0 * sd)
    centre = np.clip(np.searchsorted(edges, means, side="right") - 1, 0, n - 1)
    first = centre[:, None] - _KERNEL_HALF
    k = np.arange(2 * _KERNEL_HALF + 2)
    cdf = ndtr((edges[np.clip(first + k, 0, n)] - means[:, None]) / sd)
    cdf[:, 0], cdf[:, -1] = 0.0, 1.0
    return np.diff(cdf, axis=1), np.clip(first + k[:-1], 0, n - 1).astype(np.int32)


def _transition(params: ParamVector, spec: ModelSpec, dt: float):
    """The Y grid of the Euler chain, as bin centres ``y`` and ``edges``,
    the kernel's step SD and the sparse transition matrix K.

    The grid spans ``CHAIN_V_RANGE`` at spacing h = 0.25*sqrt(dt).  The
    chain moves between bin centres, and rounding to a centre adds
    variance h^2/12 per step, so the kernel uses the step variance
    dt - h^2/12 (Sheppard's correction) and the binned chain keeps the
    Euler step's variance.  K is built in blocks of rows into preallocated
    arrays, with a fixed number of entries per row.
    """
    h = _GRID_PER_SD * math.sqrt(dt)
    y_lo, y_hi = (math.log(v) / params.sigma for v in CHAIN_V_RANGE)
    y = y_lo + h * np.arange(round((y_hi - y_lo) / h) + 1)
    n, width = len(y), 2 * _KERNEL_HALF + 1
    edges = np.concatenate(([-np.inf], y[1:] - 0.5 * h, [np.inf]))
    sd = math.sqrt(dt - h * h / 12.0)
    data = np.empty(n * width)
    cols = np.empty(n * width, dtype=np.int32)
    for start in range(0, n, _BUILD_ROWS):
        block = slice(start * width, min(start + _BUILD_ROWS, n) * width)
        probs, c = _kernel(_step_means(y[start : start + _BUILD_ROWS], params, spec, dt), edges, sd)
        data[block], cols[block] = probs.ravel(), c.ravel()
    indptr = np.arange(0, n * width + 1, width, dtype=np.int32)
    return y, edges, sd, sparse.csr_array((data, cols, indptr), shape=(n, n))


@functools.lru_cache(maxsize=4)
def _euler_chain(
    params: ParamVector, spec: ModelSpec, dt: float, horizons: HorizonGrid
) -> EulerChain:
    """The Euler chain of Y for one parameter vector, reduced by the
    backward recursion to the rows its forecasts read at ``horizons``;
    K itself does not outlive the call."""
    y, edges, sd, kernel = _transition(params, spec, dt)
    n = len(y)
    hs, rv_hs = horizons.returns_iv, horizons.rv
    mean_rows, int_rows = np.empty((len(hs), n)), np.empty((len(hs), n))
    rv_rows = np.empty((len(rv_hs), n))
    u = np.exp(params.sigma * y)
    running, daily = np.zeros(n), np.zeros(n)  # sums of u_k over k < step, and at days' ends
    steps_per_day = _steps_per_day(dt)
    n_steps = horizons.max_horizon * steps_per_day
    for step in range(n_steps):
        day, rest = divmod(step + 1, steps_per_day)
        if rest == 0:
            daily += u
            for k, horizon in enumerate(hs):
                if horizon == day:
                    mean_rows[k], int_rows[k] = u, running
            for k, horizon in enumerate(rv_hs):
                if horizon == day:
                    rv_rows[k] = daily
        running += u
        if step + 1 < n_steps:
            u = kernel @ u
    for rows in (edges, mean_rows, int_rows, rv_rows):
        rows.flags.writeable = False
    return EulerChain(params, spec, dt, edges, sd, mean_rows, int_rows, rv_rows)


@dataclass
class Metrics:
    mae: float
    rmse: float
    nmse: float
    dir: float


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
#: The columns of a report cell, one entry per origin, and their types.
_CELL_COLUMNS = (("origin", int), ("forecast", float), ("realized", float), ("current", float))


def _cell_key(sample: str, name: str, target: str, horizon: int) -> str:
    """``name`` is a model, or ``big_vs_small`` for a Clark-West test."""
    return f"{sample}|{name}|{target}|{horizon}"


def _split_key(key: str) -> tuple[str, str, str, int]:
    sample, name, target, horizon = key.split("|")
    return sample, name, target, int(horizon)


@dataclass
class ForecastReport:
    """Long-format forecast records with metric and test accessors.

    This class owns the report's format: the cell keys
    ``sample|model|target|h`` and test keys ``sample|big_vs_small|target|h``
    of :meth:`summary`, and the rows and columns of the metrics tables of
    :meth:`metrics_tables`, whose cells :func:`nlsv.data_io.csv_text`
    formats.  Callers write what these return and parse no key.
    """

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
            _cell_key(sample, model, target, horizon), {name: [] for name, _ in _CELL_COLUMNS}
        )
        for (name, kind), value in zip(_CELL_COLUMNS, (origin, forecast, realized, current)):
            cell[name].append(kind(value))

    def cell(self, sample: str, model: str, target: str, horizon: int) -> dict | None:
        return self.cells.get(_cell_key(sample, model, target, horizon))

    def samples(self) -> list[str]:
        return sorted({_split_key(key)[0] for key in self.cells})

    def models(self) -> list[str]:
        return sorted({_split_key(key)[1] for key in self.cells})

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
        common, i_s, i_b = np.intersect1d(cs["origin"], cb["origin"], return_indices=True)
        if len(common) < 2:
            return None
        fs, rs = np.array(cs["forecast"])[i_s], np.array(cs["realized"])[i_s]
        fb, rb = np.array(cb["forecast"])[i_b], np.array(cb["realized"])[i_b]
        return clark_west(rs - fs, rb - fb, fs, fb, horizon)

    def summary(self) -> dict:
        """Metric and test tables for every populated cell."""
        out: dict = {"metrics": {}, "clark_west": {}}
        for key in sorted(self.cells):
            m = self.metrics_for(*_split_key(key))
            if m is not None:
                out["metrics"][key] = asdict(m)
        tested = sorted({(s, t, h) for s, _, t, h in map(_split_key, self.cells)})
        for sample, target, horizon in tested:
            for small, big in CW_PAIRS:
                cw = self.clark_west_for(sample, small, big, target, horizon)
                if cw is not None:
                    key = _cell_key(sample, f"{big}_vs_{small}", target, horizon)
                    out["clark_west"][key] = asdict(cw)
        return out

    def metrics_tables(self, summary: dict) -> dict[str, str]:
        """The metrics CSV files by name, ``metrics_<target>.csv``, from
        ``summary``, this report's :meth:`summary`.

        A table has one column per horizon with metrics for the target.
        Per sample come RMSE, NMSE, MAE and DIR rows by model, then the
        Clark-West p-value rows in ``CW_PAIRS`` order; a value that is
        missing leaves its cell empty, and a row without values is left
        out.  A target without metrics has no table.
        """
        tables, samples, models = {}, self.samples(), self.models()
        scores, tests = summary["metrics"], summary["clark_west"]
        blocks = [
            (b.upper(), m, scores, b) for b in ("rmse", "nmse", "mae", "dir") for m in models
        ]
        blocks += [("CW", f"{big}_vs_{small}", tests, "p_value") for small, big in CW_PAIRS]
        for target in TARGETS:
            keys = map(_split_key, scores)
            horizons = sorted({h for _, _, t, h in keys if t == target})
            if not horizons:
                continue
            rows = []
            for sample in samples:
                for block, name, table, column in blocks:
                    found = [table.get(_cell_key(sample, name, target, h)) for h in horizons]
                    values = [value[column] if value else None for value in found]
                    if any(value is not None for value in values):
                        rows.append((sample, block, name, *values))
            header = ("sample", "block", "name", *(f"h{h}" for h in horizons))
            tables[f"metrics_{target}.csv"] = csv_text(header, rows)
        return tables

    def to_dict(self) -> dict:
        return {"kind": "forecast_report", "cells": self.cells, "summary": self.summary()}

    @classmethod
    def from_dict(cls, payload: dict) -> "ForecastReport":
        return cls({
            key: {name: [kind(v) for v in cell[name]] for name, kind in _CELL_COLUMNS}
            for key, cell in payload["cells"].items()
        })


def risk_premium_series(
    series: ObservedSeries, params: ParamVector, spec: ModelSpec
) -> np.ndarray:
    """Variance risk premium along the implied instantaneous-variance path.

    The variance component of the market price of risk,
    (mu_P - mu_Q)/(sigma V), at each date's implied V: constant
    (b1 - b1_q)/sigma for LN, state-dependent for NL.
    """
    v = iv_to_v(series.iv, params)
    excess = drift_p(v, params, spec)[1] - (params.b0_q + params.b1_q * v)
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
    rng: object,
    last_index: int,
    swap_tenor: float,
) -> None:
    """Forecast every target and horizon from one origin into ``report``.

    A (target, h) whose realized value lies beyond ``last_index``, or whose
    RV window before the origin is shorter than h, is skipped; otherwise
    its realized and current values are computed once for every model.
    :class:`ForecastReport` keys the records and builds the tables.

    ``rng`` and ``swap_tenor`` are unread: forecasts draw nothing and map
    IV at ``SWAP_TENOR_YEARS``.  They stay only because the benchmark
    passes them by position, until the next benchmark change deletes them.
    """
    horizons = eval_config.horizons
    try:
        forecasts = forecast_targets(
            float(series.x[origin]), float(series.iv[origin]), models, horizons, eval_config.dt
        )
    except DomainViolation:
        # An explosive LN drift overflows its closed-form moments; the
        # origin is skipped rather than aborting the protocol.
        return
    for target in TARGETS:
        for h in horizons.for_target(target):
            if origin + h > last_index or (target == "rv" and origin < h):
                continue
            if target == "rv":
                realized = realized_variance(series.x, origin + h, h)
                current = realized_variance(series.x, origin, h)
            else:
                path = series.x if target == "x" else series.iv
                realized, current = float(path[origin + h]), float(path[origin])
            for model, per_target in forecasts.items():
                report.add(
                    sample, model, target, h, origin, per_target[target][h], realized, current
                )


def evaluate_origins(
    series: ObservedSeries, n_in: int, in_models: Models, out_models: Callable[[int], Models],
    eval_config: EvalConfig,
) -> ForecastReport:
    """Forecasts from every origin, in date order, into one report.  An
    in-sample origin, from the longest RV window on, forecasts with
    ``in_models`` and is realized within the in-sample window.  An
    out-of-sample origin, from ``n_in`` on, forecasts with
    ``out_models(origin)``, in which a caller may re-estimate, and is
    realized within the whole series."""
    report = ForecastReport()
    n = len(series)
    for origin in range(min(max(eval_config.horizons.rv, default=0), n_in), n):
        if origin < n_in:
            sample, models, last_index = "in", in_models, n_in - 1
        else:
            sample, models, last_index = "out", out_models(origin), n - 1
        forecast_origin(report, series, sample, origin, models, eval_config, None, last_index,
                        SWAP_TENOR_YEARS)
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

    report = evaluate_origins(series, n_in, model_map(current_params), out_models, eval_config)
    return report, param_paths, fits
