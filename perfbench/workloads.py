"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup``, runs
operation ``k`` per ``run(k)`` call through ``nlsv``'s public entry points,
and checks the outputs in ``check``.  Every call into the program looks the
function up on its module at call time (``nlsv.cli.main``, not a local
alias), so the tracer's wrappers see it.

The program sees only the generated inputs: its own seed (the common
random numbers of the likelihood and the forecast draws) stays at its
default of 0.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import nlsv
import nlsv.cli
import nlsv.eml
import nlsv.forecasting
import nlsv.likelihood
from nlsv.data_io import ObservedSeries, load_results, write_series_csv
from nlsv.model import SWAP_TENOR_YEARS, swap_coefficients, v_to_iv
from nlsv.params import Family, Measure, ModelSpec, ParamVector, State
from nlsv.rng import RngStream

from oracle import LnEulerChain, closed_form_means

# The estimated anchors of the test suite (tests/conftest.py): the NL
# vector generates every synthetic series, and the forecast workload
# forecasts with both vectors.
LN_PARAMS = ParamVector(
    sigma=2.2047, rho=-0.6768, b0_q=0.05817, b1_q=10.9858,
    a0=0.0748, a1=3.3370, b1=-1.7645,
)
NL_PARAMS = ParamVector(
    sigma=2.1734, rho=-0.6803, b0_q=0.0500, b1_q=11.3260,
    a0=0.0284, a1=6.0870, b0=-0.1064, b1=8.9591, b2=-180.7473, b3=0.00068,
)
LN, NL, RW = ModelSpec(Family.LN), ModelSpec(Family.NL), ModelSpec(Family.RW)
FAMILIES = (("LN", LN), ("NL", NL))
OUTER = ("sigma", "rho", "b0_q", "b1_q")
DAYS_PER_YEAR = 262
HOURS_PER_DAY = 8

#: Sizes of each workload: ``full`` is the benchmark, ``smoke`` exercises
#: the same code in seconds for the benchmark's own tests.  A run times
#: ``repeats`` passes over its operations; ``op_s`` is the nominal time of
#: one operation on a 2-vCPU x86-64 machine, so that the number of
#: operations, ``--seconds / (repeats * op_s)``, fills about ``--seconds``.
#: The number of operations depends on ``--seconds`` alone, never on how
#: fast the machine runs, so a seed always gives the same operations.
SIZES = {
    "full": {
        "estimate": dict(n_obs=300, M=2, S=8, repeats=1, op_s=3.3),
        "paper-eval": dict(n_obs=100, M=24, S=576, eta_scale=0.02, repeats=4, op_s=1.1),
        "forecast": dict(n_obs=400, paths=5000, horizons=(1, 5, 22, 66, 131),
                         repeats=4, op_s=0.85),
        "rolling": dict(n_in=120, n_oos=10, refit_every=5, M=2, S=8,
                        paths=500, horizons=(1, 5, 22), repeats=1, op_s=7.0),
    },
    "smoke": {
        "estimate": dict(n_obs=60, M=2, S=4, repeats=2, op_s=0.5),
        "paper-eval": dict(n_obs=40, M=4, S=16, eta_scale=0.02, repeats=2, op_s=0.5),
        "forecast": dict(n_obs=60, paths=200, horizons=(1, 5, 22), repeats=2, op_s=0.5),
        "rolling": dict(n_in=60, n_oos=4, refit_every=2, M=2, S=4,
                        paths=100, horizons=(1, 5), repeats=1, op_s=0.5),
    },
}

#: The paper-eval checksum: log-likelihood at the generating parameters on
#: a fixed short series at the paper's budgets, whatever the workload seed.
#: The recorded values and their tolerance are in ``REFERENCE``.
CHECKSUM = dict(series_seed=20091104, n_obs=50, M=24, S=576)
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: A forecast may differ from the closed-form mean by the Euler bias plus
#: this many Monte Carlo standard errors.  One run compares about a
#: hundred forecasts; at 5 standard errors a correct program fails a run by
#: chance less than once in ten thousand runs.
FORECAST_SE = 5.0

#: A fit's log-likelihood may fall this far below the profiled
#: log-likelihood at the generating parameters before the fit counts as
#: failed (the search stops at fatol = 1e-7).
FIT_LOGLIK_TOL = 1e-3


@dataclass
class TaskResult:
    seconds: float
    parts: dict[str, float]
    data: dict = field(default_factory=dict)


@dataclass
class Checks:
    """Operations attempted and failed.  An operation fails either because
    the program gave up on it (a fit that raises or stops unconverged, a
    skipped origin) or because its output is wrong; only wrong outputs
    (``problems``) make the run incorrect."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, problem: str, wrong: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            (self.problems if wrong else self.failures).append(problem)


def make_series(params: ParamVector, n_obs: int, rng: RngStream, count: int = 1,
                substeps: int = 8) -> list[ObservedSeries]:
    """Independent daily NL series simulated under P on a fine grid, as in
    the test suite, all in one vectorized simulation."""
    dt = 1.0 / (DAYS_PER_YEAR * substeps)
    ens = nlsv.simulate.simulate_paths(
        State(5.7, 0.03), params, NL, Measure.P, dt, (n_obs - 1) * substeps, count, rng,
        record_every=substeps,
    )
    dates = np.busday_offset(np.datetime64("1990-01-02"), np.arange(n_obs), roll="forward")
    return [ObservedSeries(dates, x, v_to_iv(v, params)) for x, v in zip(ens.x, ens.v)]


def evaluate(series, eta, spec, config, eml_eps=None, sml_eps=None) -> float:
    """One objective evaluation composed from the public calls ``fit``
    makes: variance-drift solve, stock-drift solve, then log-likelihood."""
    lik, eml = nlsv.likelihood, nlsv.eml
    base = ParamVector(
        sigma=1.0, rho=0.0, b0_q=0.05, b1_q=0.0, r=config.rate, c=config.dampening_c
    )
    rng_eml = RngStream(config.seed, lik.STREAM_EML)
    trial = lik.from_unconstrained(eta, OUTER, base)
    x, y = lik.series_to_lattice_coords(series, trial, config.swap_tenor)
    drift = eml.solve_variance_drift(
        x, y, trial, spec, config.delta_obs, config.aug_steps, config.bridge_draws,
        rng_eml, eps=eml_eps,
    )
    trial = trial.with_variance_coeffs(spec, [drift[k] for k in sorted(drift)])
    a0, a1 = eml.solve_stock_drift(
        x, y, trial, spec, config.delta_obs, config.aug_steps, config.bridge_draws,
        rng_eml, eps=eml_eps,
    )
    trial = trial.with_stock_coeffs(a0, a1)
    return lik.total_loglik(
        series, trial, spec, config, RngStream(config.seed, lik.STREAM_SML), eps=sml_eps
    )


def _write_config(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))


def _timed(fn, *args):
    start = time.perf_counter()
    try:
        value = fn(*args)
        return time.perf_counter() - start, value, None
    except Exception as exc:  # the run goes on; the failure is counted
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"


class Workload:
    """A fixed list of ``n_ops`` operations made from the seed; ``run(k)``
    performs operation ``k`` once and may be called again for a repeat."""

    name = ""
    #: Named timings each operation reports, printed as end-to-end metrics.
    parts: tuple[str, ...] = ()

    def __init__(self, seed: int, size: str, workdir: Path, seconds: float):
        self.seed = seed
        self.size = SIZES[size][self.name]
        self.repeats = self.size["repeats"]
        self.n_ops = max(1, round(seconds / (self.repeats * self.size["op_s"])))
        self.workdir = workdir / self.name
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.rng = RngStream(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, k: int) -> TaskResult:
        raise NotImplementedError

    def finish(self) -> dict[str, float]:
        """Work done once after the operations; returns named timings."""
        return {}

    def check(self, results: list[TaskResult]) -> Checks:
        raise NotImplementedError


class Estimate(Workload):
    """``nlsv estimate --model LN`` then ``--model NL`` on one series CSV."""

    name = "estimate"
    parts = ("fit_ln_s", "fit_nl_s")

    def setup(self) -> None:
        s = self.size
        self.series = make_series(NL_PARAMS, s["n_obs"], self.rng.substream(0), self.n_ops)
        for k, series in enumerate(self.series):
            write_series_csv(series, self.workdir / f"series{k}.csv")
        self.config_path = self.workdir / "config.txt"
        _write_config(self.config_path, {
            "M": s["M"], "S": s["S"], "restarts": 1, "min_obs": min(200, s["n_obs"]),
        })

    def run(self, i: int) -> TaskResult:
        parts, data = {}, {"series": i}
        for fam, _ in FAMILIES:
            out = self.workdir / f"out-{fam}"
            argv = ["estimate", "--config", str(self.config_path),
                    "--input", str(self.workdir / f"series{i}.csv"),
                    "--out", str(out), "--model", fam]
            seconds, rc, error = _timed(nlsv.cli.main, argv)
            parts[f"fit_{fam.lower()}_s"] = seconds
            if error is None and rc != 0:
                error = f"nlsv estimate exited with {rc}"
            data[fam] = (
                {"error": error} if error
                else load_results(out / f"fit_{fam}.json")
            )
        return TaskResult(sum(parts.values()), parts, data)

    def check(self, results: list[TaskResult]) -> Checks:
        checks = Checks()
        config = nlsv.cli.RunConfig.resolve(str(self.config_path), {}).likelihood_config()
        eta = nlsv.likelihood.to_unconstrained(NL_PARAMS, OUTER)
        references: dict = {}
        for result in results:
            i = result.data["series"]
            for fam, spec in FAMILIES:
                fit = result.data[fam]
                what = f"{fam} fit on series {i}"
                if "error" in fit or not fit["converged"]:
                    checks.record(False, f"{what}: {fit.get('error', 'not converged')}",
                                  wrong=False)
                    continue
                if (i, fam) not in references:
                    references[i, fam] = evaluate(self.series[i], eta, spec, config)
                ref = references[i, fam]
                checks.record(
                    fit["loglik"] >= ref - FIT_LOGLIK_TOL,
                    f"{what}: loglik {fit['loglik']!r} below the generating "
                    f"parameters' {ref!r}",
                )
        return checks


class PaperEval(Workload):
    """Objective evaluations at the paper's budgets M = 24, S = 576 on the
    innovations ``fit`` would cache, drawn once in set-up."""

    name = "paper-eval"
    parts = ("eval_ln_s", "eval_nl_s")

    def setup(self) -> None:
        s = self.size
        self.config = nlsv.likelihood.LikelihoodConfig(aug_steps=s["M"], mc_draws=s["S"])
        (self.series,) = make_series(NL_PARAMS, s["n_obs"], self.rng.substream(0))
        self.eml_eps = self.sml_eps = None  # free the previous draws first
        self.eml_eps, self.sml_eps = nlsv.likelihood._maybe_cache_eps(
            self.series, self.config,
            RngStream(self.config.seed, nlsv.likelihood.STREAM_EML),
            RngStream(self.config.seed, nlsv.likelihood.STREAM_SML),
        )
        eta0 = nlsv.likelihood.to_unconstrained(NL_PARAMS, OUTER)
        noise = self.rng.substream(1).generator().standard_normal((self.n_ops, len(OUTER)))
        self.points = eta0 + s["eta_scale"] * noise

    def run(self, i: int) -> TaskResult:
        parts, data = {}, {"point": i}
        for fam, spec in FAMILIES:
            seconds, value, error = _timed(
                evaluate, self.series, self.points[i], spec, self.config,
                self.eml_eps, self.sml_eps,
            )
            parts[f"eval_{fam.lower()}_s"] = seconds
            data[fam] = error or value
        return TaskResult(sum(parts.values()), parts, data)

    def check(self, results: list[TaskResult]) -> Checks:
        checks = Checks()
        for result in results:
            for fam, _ in FAMILIES:
                value = result.data[fam]
                checks.record(
                    isinstance(value, float) and math.isfinite(value),
                    f"{fam} evaluation at trial point {result.data['point']}: {value}",
                    wrong=False,
                )
        reference = json.loads(REFERENCE.read_text())
        for fam, value in checksum_logliks().items():
            ref = reference["loglik"][fam]
            checks.record(
                math.isclose(value, ref, rel_tol=reference["rel_tol"], abs_tol=0.0),
                f"{fam} checksum log-likelihood {value!r} != reference {ref!r}",
            )
        return checks


def checksum_logliks() -> dict[str, float]:
    """Log-likelihood at the generating parameters on the checksum series."""
    c = CHECKSUM
    (series,) = make_series(NL_PARAMS, c["n_obs"], RngStream(c["series_seed"]))
    config = nlsv.likelihood.LikelihoodConfig(aug_steps=c["M"], mc_draws=c["S"])
    eta = nlsv.likelihood.to_unconstrained(NL_PARAMS, OUTER)
    return {fam: evaluate(series, eta, spec, config) for fam, spec in FAMILIES}


class Forecast(Workload):
    """``forecast_origin`` for RW, LN and NL at fixed parameters, one origin
    per operation, then ``ForecastReport.summary`` once over every origin."""

    name = "forecast"
    parts = ("forecast_origin_s",)

    def setup(self) -> None:
        s = self.size
        (self.series,) = make_series(NL_PARAMS, s["n_obs"], self.rng.substream(0))
        horizons = s["horizons"]
        self.grid = nlsv.forecasting.HorizonGrid(
            returns_iv=horizons, rv=tuple(h for h in horizons if h > 1)
        )
        self.eval_config = nlsv.forecasting.EvalConfig(
            horizons=self.grid, n_paths=s["paths"],
            dt=1.0 / (DAYS_PER_YEAR * HOURS_PER_DAY),
        )
        # Origins with the full history and future every horizon needs.
        h_max = self.grid.max_horizon
        valid = np.arange(h_max, s["n_obs"] - h_max)
        self.origins = self.rng.substream(1).generator().permutation(valid)[: self.n_ops]
        self.models = {"RW": (None, RW), "LN": (LN_PARAMS, LN), "NL": (NL_PARAMS, NL)}
        self.report = nlsv.forecasting.ForecastReport()
        self.recorded: set[int] = set()

    def run(self, k: int) -> TaskResult:
        origin = int(self.origins[k])
        # The first run of an origin records into the report the summary
        # reads; a repeat records into a report of its own.
        report = nlsv.forecasting.ForecastReport() if k in self.recorded else self.report
        self.recorded.add(k)
        start = time.perf_counter()
        nlsv.forecasting.forecast_origin(
            report, self.series, "out", origin, self.models, self.eval_config,
            RngStream(0, nlsv.forecasting.STREAM_FORECAST), len(self.series) - 1,
            SWAP_TENOR_YEARS,
        )
        seconds = time.perf_counter() - start
        forecasts = {}
        for key, cell in report.cells.items():
            _, model, target, h = key.split("|")
            for o, value in zip(cell["origin"], cell["forecast"]):
                if o == origin:
                    forecasts[model, target, int(h)] = value
        data = {"origin": origin, "forecasts": forecasts}
        return TaskResult(seconds, {"forecast_origin_s": seconds}, data)

    def finish(self) -> dict[str, float]:
        start = time.perf_counter()
        self.report.summary()
        return {"summary_s": time.perf_counter() - start}

    def check(self, results: list[TaskResult]) -> Checks:
        checks = Checks()
        origins = [r.data["origin"] for r in results]
        x, iv = self.series.x, self.series.iv
        ln_v0 = nlsv.model.iv_to_v(iv[origins], LN_PARAMS, SWAP_TENOR_YEARS)
        chain = LnEulerChain(LN_PARAMS, self.eval_config.dt)
        h_max = max(self.grid.returns_iv)
        euler = chain.moments(x[origins], ln_v0, h_max * HOURS_PER_DAY, HOURS_PER_DAY)
        a_ln, b_ln = swap_coefficients(LN_PARAMS, SWAP_TENOR_YEARS)
        a_nl, _ = swap_coefficients(NL_PARAMS, SWAP_TENOR_YEARS)
        n_paths = self.eval_config.n_paths
        for j, (o, result) in enumerate(zip(origins, results)):
            problems = []
            fc = result.data["forecasts"]
            if not fc:
                checks.record(False, f"origin {o} skipped", wrong=False)
                continue
            horizons = np.array(self.grid.returns_iv)
            exact_x, exact_v = closed_form_means(
                LN_PARAMS, x[o], ln_v0[j], horizons / DAYS_PER_YEAR
            )
            for n, h in enumerate(horizons):
                bias_v = abs(euler.mean_v[h, j] - exact_v[n])
                tol_v = bias_v + FORECAST_SE * euler.sd_v[h, j] / math.sqrt(n_paths)
                got_iv = fc["LN", "iv", h]
                if abs(got_iv - (a_ln + b_ln * exact_v[n])) > b_ln * tol_v:
                    problems.append(f"LN iv h={h}: {got_iv!r} vs {a_ln + b_ln * exact_v[n]!r}")
                bias_x = abs(euler.mean_x[h, j] - exact_x[n])
                tol_x = bias_x + FORECAST_SE * euler.sd_x_bound[h, j] / math.sqrt(n_paths)
                got_x = fc["LN", "x", h]
                if abs(got_x - exact_x[n]) > tol_x:
                    problems.append(f"LN x h={h}: {got_x!r} vs {exact_x[n]!r}")
                if fc["RW", "x", h] != x[o] or fc["RW", "iv", h] != iv[o]:
                    problems.append(f"RW h={h} is not the current value")
            for target, low in (("x", -math.inf), ("iv", a_nl), ("rv", 0.0)):
                for h in self.grid.for_target(target):
                    value = fc.get(("NL", target, h), math.nan)
                    if not (math.isfinite(value) and value > low):
                        problems.append(f"NL {target} h={h}: {value!r} outside the domain")
            if euler.lost_mass > 1e-9:
                problems.append(f"Euler reference lost {euler.lost_mass:.2e} of its mass")
            checks.record(not problems, f"origin {o}: " + "; ".join(problems))
        return checks


class Rolling(Workload):
    """``nlsv rolling`` for LN and NL: in-sample fits and forecasts, then
    warm-started refits every ``refit_every`` out-of-sample dates."""

    name = "rolling"
    parts = ("rolling_s",)

    def setup(self) -> None:
        s = self.size
        n_total = s["n_in"] + s["n_oos"]
        self.series = make_series(NL_PARAMS, n_total, self.rng.substream(0), self.n_ops)
        for k, series in enumerate(self.series):
            write_series_csv(series, self.workdir / f"series{k}.csv")
        self.config_path = self.workdir / "config.txt"
        _write_config(self.config_path, {
            "M": s["M"], "S": s["S"], "restarts": 1, "min_obs": s["n_in"],
            "split_date": str(self.series[0].dates[s["n_in"] - 1]),
            "paths": s["paths"], "horizons": ",".join(map(str, s["horizons"])),
            "refit_every": s["refit_every"],
        })

    def run(self, i: int) -> TaskResult:
        out = self.workdir / "out"
        argv = ["rolling", "--config", str(self.config_path),
                "--input", str(self.workdir / f"series{i}.csv"), "--out", str(out)]
        seconds, rc, error = _timed(nlsv.cli.main, argv)
        if error is None and rc != 0:
            error = f"nlsv rolling exited with {rc}"
        data = {"series": i, "error": error}
        if error is None:
            data["entries"] = load_results(out / "parameter_paths.json")["entries"]
            data["cells"] = load_results(out / "report.json")["cells"]
        return TaskResult(seconds, {"rolling_s": seconds}, data)

    def expected(self) -> dict[tuple[str, int], int]:
        """Report records per (sample, origin) that the protocol produces
        when no origin is skipped, counted from the settings alone."""
        s = self.size
        n_in, n_total = s["n_in"], s["n_in"] + s["n_oos"]
        returns_iv = s["horizons"]
        rv = tuple(h for h in returns_iv if h > 1)
        records = {}
        windows = (("in", range(max(rv, default=0), n_in), n_in - 1),
                   ("out", range(n_in, n_total), n_total - 1))
        for sample, span, last in windows:
            for o in span:
                n = sum(o + h <= last for h in returns_iv) * 2
                n += sum(o + h <= last and o >= h for h in rv)
                if n:
                    records[sample, o] = 3 * n  # RW, LN and NL
        return records

    def check(self, results: list[TaskResult]) -> Checks:
        """Refit errors and skipped origins are failed operations; an origin
        with some but not all of its records, or an origin the settings do
        not imply, is a wrong output."""
        checks = Checks()
        expected = self.expected()
        for result in results:
            what = f"series {result.data['series']}"
            if result.data["error"]:
                checks.record(False, f"{what}: {result.data['error']}", wrong=False)
                continue
            for entry in result.data["entries"]:
                checks.record("error" not in entry, f"{what}: refit {entry}", wrong=False)
            got: dict = {}
            for key, cell in result.data["cells"].items():
                sample = key.split("|")[0]
                for o in cell["origin"]:
                    got[sample, o] = got.get((sample, o), 0) + 1
            for (sample, o), n in sorted(expected.items()):
                if (sample, o) not in got:
                    checks.record(False, f"{what}: origin {o} ({sample}) skipped", wrong=False)
                else:
                    checks.record(got[sample, o] == n,
                                  f"{what}: origin {o} ({sample}) has {got[sample, o]} "
                                  f"report records, expected {n}")
            extra = sorted(set(got) - set(expected))
            checks.record(not extra, f"{what}: report records at unexpected origins {extra}")
        return checks


WORKLOADS = {w.name: w for w in (Estimate, PaperEval, Forecast, Rolling)}
