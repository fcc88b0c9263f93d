"""Command-line driver wiring the pipeline: simulate, estimate, forecast,
rolling evaluation and report rendering.

Every run writes ``manifest.json`` into the output directory with the
fully resolved configuration; re-running the same subcommand with
``--config manifest.json`` reproduces the data outputs byte for byte.
Seed resolution order: --seed flag, then NLSV_SEED, then config file.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

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


def _write_manifest(out_dir: Path, command: str, config: RunConfig, outputs: list[str]) -> None:
    payload = {
        "kind": "manifest",
        "command": command,
        "config": asdict(config),
        "outputs": sorted(outputs),
    }
    save_results(payload, out_dir / "manifest.json")


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


def cmd_simulate(config: RunConfig, out_dir: Path) -> list[str]:
    """Generate a synthetic observed series under the configured family."""
    families = config.families()
    if len(families) != 1:
        raise DataError("simulate needs a single model family (model = LN or NL)")
    family = families[0]
    params = config.param_vector()
    spec = ModelSpec(family)
    n = config.n_obs
    dt = 1.0 / (DAYS_PER_YEAR * HOURS_PER_DAY)
    ens = simulate_paths(
        State(config.x0, config.v0),
        params,
        spec,
        Measure.P,
        dt,
        max(n - 1, 0) * HOURS_PER_DAY,
        1,
        RngStream(config.seed),
        record_every=HOURS_PER_DAY,
    )
    x = ens.x[0][:n]
    v = ens.v[0][:n]
    iv = v_to_iv(v, params)
    series = ObservedSeries(_trading_dates(config.start_date, n), x, iv)
    data_io.write_series_csv(series, out_dir / "series.csv", vxo_unit=config.vxo_unit)
    return ["series.csv"]


def cmd_estimate(config: RunConfig, out_dir: Path) -> list[str]:
    """Fit the selected models and write results plus a parameter table."""
    series = _load_series(config)
    lik = config.likelihood_config()
    outputs = []
    results: dict[str, FitResult] = {}
    for family in config.families():
        res = fit(series, ModelSpec(family), lik)
        results[family.value] = res
        name = f"fit_{family.value}.json"
        save_results(res, out_dir / name)
        outputs.append(name)
    table = _parameter_table(results)
    (out_dir / "estimates.txt").write_text(table)
    outputs.append("estimates.txt")
    return outputs


def _parameter_table(results: dict[str, FitResult]) -> str:
    models = list(results)
    lines = ["parameter" + "".join(f"{m:>16s}" for m in models)]
    for name in ModelSpec(Family.NL).param_names:
        if not any(name in results[m].std_errors for m in models):
            continue
        row = f"{name:<9s}"
        serow = " " * 9
        for m in models:
            if name in results[m].std_errors:
                row += f"{getattr(results[m].params, name):>16.5f}"
                serow += f"{'(' + format(results[m].std_errors[name], '.5f') + ')':>16s}"
            else:
                row += f"{'':>16s}"
                serow += f"{'':>16s}"
        lines.append(row)
        lines.append(serow)
    lines.append("")
    lines.append("loglik   " + "".join(f"{results[m].loglik:>16.3f}" for m in models))
    return "\n".join(lines) + "\n"


def _write_files(files: dict[str, str], out_dir: Path) -> list[str]:
    for name, text in files.items():
        (out_dir / name).write_text(text)
    return list(files)


def _save_report(report: ForecastReport, out_dir: Path) -> list[str]:
    """``report.json`` and the metrics CSVs, from one summary of ``report``."""
    payload = report.to_dict()
    save_results(payload, out_dir / "report.json")
    return ["report.json"] + _write_files(report.metrics_tables(payload["summary"]), out_dir)


def cmd_forecast(config: RunConfig, out_dir: Path, fit_paths: list[str]) -> list[str]:
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
    return _save_report(report, out_dir)


def cmd_rolling(config: RunConfig, out_dir: Path) -> list[str]:
    """Full protocol: in-sample fit + out-of-sample refits."""
    series = _load_series(config)
    specs = [ModelSpec(f) for f in config.families()]
    report, param_paths, fits = rolling_evaluation(
        series, config.split_date, specs, config.likelihood_config(), config.eval_config()
    )
    outputs = []
    for name, res in fits.items():
        fname = f"fit_{name}.json"
        save_results(res, out_dir / fname)
        outputs.append(fname)
    save_results({"kind": "parameter_paths", "entries": param_paths}, out_dir / "parameter_paths.json")
    outputs.append("parameter_paths.json")
    return outputs + _save_report(report, out_dir)


def cmd_report(
    config: RunConfig,
    out_dir: Path,
    fit_paths: list[str],
    report_path: str | None,
    param_paths_path: str | None,
) -> list[str]:
    """Render plot-ready CSVs from saved artifacts; no recomputation."""
    outputs = []
    fits = [_load_artifact(p, FitResult) for p in fit_paths]
    if fits:
        grid = np.linspace(0.005, 0.25, 200)
        lines = ["v," + ",".join(
            f"price_drift_{r.spec.family.value},variance_drift_{r.spec.family.value}"
            for r in fits
        )]
        cols = [drift_p(grid, r.params, r.spec) for r in fits]
        for i, v in enumerate(grid):
            row = [repr(float(v))]
            for mu in cols:
                row.append(repr(float(mu[0][i])))
                row.append(repr(float(mu[1][i])))
            lines.append(",".join(row))
        (out_dir / "drift_grid.csv").write_text("\n".join(lines) + "\n")
        outputs.append("drift_grid.csv")
    if fits and config.input:
        series = _load_series(config)
        lines = ["date,iv," + ",".join(
            f"v_{r.spec.family.value},premium_{r.spec.family.value}" for r in fits
        )]
        per_fit = []
        for r in fits:
            v = iv_to_v(series.iv, r.params)
            prem = risk_premium_series(series, r.params, r.spec)
            per_fit.append((v, prem))
        for i, date in enumerate(series.dates):
            row = [str(date), repr(float(series.iv[i]))]
            for v, prem in per_fit:
                row.append(repr(float(v[i])))
                row.append(repr(float(prem[i])))
            lines.append(",".join(row))
        (out_dir / "premium_series.csv").write_text("\n".join(lines) + "\n")
        outputs.append("premium_series.csv")
    if report_path:
        report = _load_artifact(report_path, ForecastReport)
        outputs += _write_files(report.metrics_tables(report.summary()), out_dir)
    if param_paths_path:
        payload = data_io.load_results(param_paths_path)
        lines = ["date,model,parameter,value"]
        for entry in payload.get("entries", []):
            for pname, value in entry.get("params", {}).items():
                lines.append(f"{entry['date']},{entry['model']},{pname},{value!r}")
        (out_dir / "parameter_paths.csv").write_text("\n".join(lines) + "\n")
        outputs.append("parameter_paths.csv")
    if not outputs:
        raise DataError("report: no artifacts given (need --fit, --report or --param-paths)")
    return outputs


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
            outputs = cmd_simulate(config, out_dir)
        elif args.command == "estimate":
            outputs = cmd_estimate(config, out_dir)
        elif args.command == "forecast":
            outputs = cmd_forecast(config, out_dir, args.fit)
        elif args.command == "rolling":
            outputs = cmd_rolling(config, out_dir)
        elif args.command == "report":
            outputs = cmd_report(config, out_dir, args.fit, args.report, args.param_paths)
        else:  # pragma: no cover
            raise DataError(f"unknown command {args.command}")
        _write_manifest(out_dir, args.command, config, outputs)
        return 0
    except (DataError, DomainViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
