"""Command-line driver wiring the pipeline: simulate, estimate, forecast,
rolling evaluation and report rendering.

Each subcommand yields its output files as ``(name, content)`` pairs and
writes nothing itself.  :func:`main` writes each file into the output
directory as soon as it is yielded (a ``str`` as text, anything else
through :func:`~nlsv.data_io.save_results`), and after the last one
writes ``manifest.json`` with the fully resolved configuration and the
file names.  A command that fails keeps the files it wrote before the
failure and writes no manifest.  Re-running the same subcommand with
``--config manifest.json`` reproduces the data outputs byte for byte.
Seed resolution order: --seed flag, then NLSV_SEED, then config file.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from . import data_io, forecasting
from .data_io import DataError, ObservedSeries, load_config, load_csv, save_results
from .forecasting import (
    EvalConfig,
    ForecastReport,
    HorizonGrid,
    risk_premium_series,
    rolling_evaluation,
)
from .likelihood import FitResult, LikelihoodConfig, fit
from .model import DAYS_PER_YEAR, HOURS_PER_DAY, drift_p, iv_to_v, v_to_iv
from .params import DomainViolation, Family, Measure, ModelSpec, ParamVector, State
from .rng import RngStream
from .simulate import simulate_paths


@dataclass
class RunConfig:
    """Flat run configuration; every key may appear in the config file."""

    # data
    vxo_unit: str = "decimal"
    price_is_log: bool = False
    input: str = ""
    # model
    model: str = "both"  # LN | NL | both
    # estimation budgets
    M: int = 24
    S: int = 576
    seed: int = 0
    max_iter: int = 400
    restarts: int = 3
    min_obs: int = 200
    split_date: str = "1999-12-31"
    # forecasting; ``paths`` is unread (NL forecasts follow the Euler
    # chain's law, not sampled paths) and kept only because the benchmark's
    # rolling config sets it, until the next benchmark change deletes it
    paths: int = 20000
    dt_hours: float = 1.0
    horizons: str = "1,5,22,66,131"
    refit_every: int = 1
    window_width: int = 0  # 0 means an expanding window
    # simulation of synthetic data
    n_obs: int = 1000
    start_date: str = "1990-01-02"
    x0: float = 5.7
    v0: float = 0.03
    sigma: float = 2.0
    rho: float = -0.7
    b0_q: float = 0.05
    b1_q: float = 11.0
    a0: float = 0.05
    a1: float = 3.0
    b0: float = -0.1
    b1: float = 9.0
    b2: float = -180.0
    b3: float = 0.0007

    @classmethod
    def resolve(cls, config_path: str | None, overrides: dict) -> "RunConfig":
        values: dict = {}
        if config_path:
            raw = load_config(config_path)
            known = {f.name: f.type for f in fields(cls)}
            for key, value in raw.items():
                if key not in known:
                    raise DataError(f"unknown config key {key!r}")
                values[key] = _coerce(key, value, getattr(cls, key))
        env_seed = os.environ.get("NLSV_SEED")
        if env_seed is not None:
            values["seed"] = _coerce("seed", env_seed, cls.seed)
        for key, value in overrides.items():
            if value is not None:
                values[key] = value
        return cls(**values)

    def horizon_grid(self) -> HorizonGrid:
        try:
            hs = tuple(int(h) for h in str(self.horizons).replace(" ", "").split(",") if h)
        except ValueError:
            raise DataError(f"config key 'horizons': invalid horizons {self.horizons!r}") from None
        return HorizonGrid(returns_iv=hs, rv=tuple(h for h in hs if h > 1))

    def likelihood_config(self) -> LikelihoodConfig:
        return LikelihoodConfig(
            aug_steps=self.M,
            mc_draws=self.S,
            seed=self.seed,
            max_iter=self.max_iter,
            restarts=self.restarts,
            min_obs=self.min_obs,
        )

    def eval_config(self) -> EvalConfig:
        dt = self.dt_hours / (DAYS_PER_YEAR * HOURS_PER_DAY)
        return EvalConfig(
            horizons=self.horizon_grid(),
            n_paths=self.paths,
            dt=dt,
            refit_every=self.refit_every,
            window_width=self.window_width,
        )

    def param_vector(self) -> ParamVector:
        names = ModelSpec(Family.NL).param_names
        return ParamVector(**{name: getattr(self, name) for name in names}).validate()

    def families(self) -> list[Family]:
        if self.model == "both":
            return [Family.LN, Family.NL]
        try:
            family = Family(self.model)
        except ValueError:
            raise DataError(f"model must be LN, NL or both, got {self.model!r}") from None
        if family is Family.RW:
            raise DataError("model must be LN, NL or both")
        return [family]


def _coerce(key: str, value, default):
    if isinstance(value, str):
        value = value.strip()
    if isinstance(default, bool):
        if not isinstance(value, str):
            return bool(value)
        low = value.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise DataError(f"config key {key!r}: expected boolean, got {value!r}")
    kind = type(default)  # int, float or str
    try:
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError("not an integer")
        return kind(value)
    except (TypeError, ValueError):
        raise DataError(f"config key {key!r}: expected {kind.__name__}, got {value!r}") from None


def _load_series(config: RunConfig) -> ObservedSeries:
    if not config.input:
        raise DataError("an input CSV is required (--input or config key 'input')")
    return load_csv(config.input, vxo_unit=config.vxo_unit, price_is_log=config.price_is_log)


def _load_artifact(path: str, kind):
    """The ``kind`` saved at ``path``; a file that holds none is a DataError."""
    payload = data_io.load_results(path)
    try:
        return kind.from_dict(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"artifact {path} is not a {kind.__name__}: {exc!r}") from None


def _trading_dates(start: str, n: int) -> np.ndarray:
    try:
        start_day = np.datetime64(start, "D")
    except ValueError:
        raise DataError(f"config key 'start_date': not a date, got {start!r}") from None
    # Roll forward to a business day, then take n consecutive business days.
    offsets = np.arange(n)
    return np.busday_offset(start_day, offsets, roll="forward")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


#: The files of one command: ``(name, content)`` pairs, in writing order.
Files = Iterator[tuple[str, object]]


def cmd_simulate(config: RunConfig) -> Files:
    """Generate a synthetic observed series under the configured family."""
    families = config.families()
    if len(families) != 1:
        raise DataError("simulate needs a single model family (model = LN or NL)")
    n = config.n_obs
    if n < 2:
        raise DataError(f"config key 'n_obs': need at least 2 observations, got {n}")
    family = families[0]
    params = config.param_vector()
    spec = ModelSpec(family)
    dt = 1.0 / (DAYS_PER_YEAR * HOURS_PER_DAY)
    ens = simulate_paths(
        State(config.x0, config.v0),
        params,
        spec,
        Measure.P,
        dt,
        (n - 1) * HOURS_PER_DAY,
        1,
        RngStream(config.seed),
        record_every=HOURS_PER_DAY,
    )
    x = ens.x[0][:n]
    v = ens.v[0][:n]
    iv = v_to_iv(v, params)
    series = ObservedSeries(_trading_dates(config.start_date, n), x, iv)
    yield "series.csv", data_io.series_csv(series, config.vxo_unit)


def cmd_estimate(config: RunConfig) -> Files:
    """Fit the selected models and write results plus a parameter table."""
    series = _load_series(config)
    lik = config.likelihood_config()
    results: dict[str, FitResult] = {}
    for family in config.families():
        results[family.value] = res = fit(series, ModelSpec(family), lik)
        yield f"fit_{family.value}.json", res
    yield "estimates.txt", _parameter_table(results)


def _parameter_table(results: dict[str, FitResult]) -> str:
    models = list(results)
    std_errors = {m: results[m].std_errors for m in models}
    lines = ["parameter" + "".join(f"{m:>16s}" for m in models)]
    for name in ModelSpec(Family.NL).param_names:
        if not any(name in std_errors[m] for m in models):
            continue
        row = f"{name:<9s}"
        serow = " " * 9
        for m in models:
            if name in std_errors[m]:
                row += f"{getattr(results[m].params, name):>16.5f}"
                serow += f"{'(' + format(std_errors[m][name], '.5f') + ')':>16s}"
            else:
                row += f"{'':>16s}"
                serow += f"{'':>16s}"
        lines.append(row)
        lines.append(serow)
    lines.append("")
    lines.append("loglik   " + "".join(f"{results[m].loglik:>16.3f}" for m in models))
    return "\n".join(lines) + "\n"


def _report_files(report: ForecastReport) -> Files:
    """``report.json`` and the metrics CSVs, from one summary of ``report``."""
    payload = report.to_dict()
    yield "report.json", payload
    yield from report.metrics_tables(payload["summary"]).items()


def cmd_forecast(config: RunConfig, fit_paths: list[str]) -> Files:
    """Forecast evaluation with fixed (previously estimated) parameters."""
    series = _load_series(config)
    if not fit_paths:
        raise DataError("forecast requires at least one --fit artifact")
    sp = data_io.split(series, config.split_date)
    eval_config = config.eval_config()
    models: forecasting.Models = {"RW": (None, ModelSpec(Family.RW))}
    for path in fit_paths:
        res = _load_artifact(path, FitResult)
        models[res.spec.family.value] = (res.params, res.spec)
    report = forecasting.evaluate_origins(
        series, sp.split_index, models, lambda origin: models, eval_config
    )
    yield from _report_files(report)


def cmd_rolling(config: RunConfig) -> Files:
    """Full protocol: in-sample fit + out-of-sample refits."""
    series = _load_series(config)
    specs = [ModelSpec(f) for f in config.families()]
    report, param_paths, fits = rolling_evaluation(
        series, config.split_date, specs, config.likelihood_config(), config.eval_config()
    )
    for name, res in fits.items():
        yield f"fit_{name}.json", res
    yield "parameter_paths.json", {"kind": "parameter_paths", "entries": param_paths}
    yield from _report_files(report)


def _parameter_path_rows(path: str) -> list[tuple]:
    """The (date, model, parameter, value) rows of the parameter paths
    saved at ``path``; an entry that holds only an ``error`` has none."""
    payload = data_io.load_results(path)
    try:
        if payload["kind"] != "parameter_paths":
            raise ValueError(f"kind {payload['kind']!r}")
        return [
            (entry["date"], entry["model"], name, value)
            for entry in payload["entries"] if "params" in entry
            for name, value in entry["params"].items()
        ]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"artifact {path} is not a parameter paths file: {exc!r}") from None


def cmd_report(
    config: RunConfig,
    fit_paths: list[str],
    report_path: str | None,
    param_paths_path: str | None,
) -> Files:
    """Render plot-ready CSVs from saved artifacts; no recomputation."""
    if not (fit_paths or report_path or param_paths_path):
        raise DataError("report: no artifacts given (need --fit, --report or --param-paths)")
    fits = [_load_artifact(p, FitResult) for p in fit_paths]
    names = [r.spec.family.value for r in fits]
    if fits:
        grid = np.linspace(0.005, 0.25, 200)
        drifts = [mu for r in fits for mu in drift_p(grid, r.params, r.spec)]
        header = ["v"] + [f"{kind}_drift_{m}" for m in names for kind in ("price", "variance")]
        yield "drift_grid.csv", data_io.csv_text(header, zip(grid, *drifts))
    if fits and config.input:
        series = _load_series(config)
        columns = []
        for r in fits:
            columns += [iv_to_v(series.iv, r.params), risk_premium_series(series, r.params, r.spec)]
        header = ["date", "iv"] + [f"{kind}_{m}" for m in names for kind in ("v", "premium")]
        rows = zip(series.dates, series.iv, *columns)
        yield "premium_series.csv", data_io.csv_text(header, rows)
    if report_path:
        report = _load_artifact(report_path, ForecastReport)
        yield from report.metrics_tables(report.summary()).items()
    if param_paths_path:
        header = ["date", "model", "parameter", "value"]
        rows = _parameter_path_rows(param_paths_path)
        yield "parameter_paths.csv", data_io.csv_text(header, rows)


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlsv",
        description="Stochastic volatility estimation, simulation and forecast evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="config file or a previous manifest.json")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--model", default=None, help="LN, NL or both")

    p_sim = sub.add_parser("simulate", help="generate a synthetic series CSV")
    common(p_sim)

    p_est = sub.add_parser("estimate", help="fit models to an observed series")
    common(p_est)
    p_est.add_argument("--input", default=None, help="input CSV (date,price,vxo)")

    p_fc = sub.add_parser("forecast", help="fixed-parameter forecast evaluation")
    common(p_fc)
    p_fc.add_argument("--input", default=None)
    p_fc.add_argument("--fit", action="append", default=[], help="fit artifact JSON (repeatable)")

    p_roll = sub.add_parser("rolling", help="rolling re-estimation evaluation")
    common(p_roll)
    p_roll.add_argument("--input", default=None)

    p_rep = sub.add_parser("report", help="render plot-ready CSVs from artifacts")
    common(p_rep)
    p_rep.add_argument("--input", default=None)
    p_rep.add_argument("--fit", action="append", default=[])
    p_rep.add_argument("--report", default=None, help="forecast report JSON")
    p_rep.add_argument("--param-paths", default=None, help="parameter paths JSON")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {"seed": args.seed, "model": args.model}
        if getattr(args, "input", None):
            overrides["input"] = args.input
        config = RunConfig.resolve(args.config, overrides)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            files = cmd_simulate(config)
        elif args.command == "estimate":
            files = cmd_estimate(config)
        elif args.command == "forecast":
            files = cmd_forecast(config, args.fit)
        elif args.command == "rolling":
            files = cmd_rolling(config)
        elif args.command == "report":
            files = cmd_report(config, args.fit, args.report, args.param_paths)
        else:  # pragma: no cover
            raise DataError(f"unknown command {args.command}")
        outputs = []
        for name, content in files:
            if isinstance(content, str):
                (out_dir / name).write_text(content)
            else:
                save_results(content, out_dir / name)
            outputs.append(name)
        manifest = {"kind": "manifest", "command": args.command, "config": asdict(config)}
        save_results(manifest | {"outputs": sorted(outputs)}, out_dir / "manifest.json")
        return 0
    except (DataError, DomainViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
