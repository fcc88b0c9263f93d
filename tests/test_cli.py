import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlsv
from nlsv.cli import main

from conftest import NL_PARAMS

SIM_CFG = """
model = NL
n_obs = 220
seed = 7
vxo_unit = percent
sigma = 2.1734
rho = -0.6803
b0_q = 0.05
b1_q = 11.326
a0 = 0.0284
a1 = 6.087
b0 = -0.1064
b1 = 8.9591
b2 = -180.7473
b3 = 0.00068
v0 = 0.03
x0 = 5.7
"""

RUN_CFG = """
model = both
vxo_unit = percent
M = 2
S = 4
n_bridges = 8
max_iter = 40
restarts = 1
min_obs = 50
seed = 3
split_date = {split}
paths = 64
dt_hours = 8
horizons = 1,5
"""


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "sim.cfg"
    cfg.write_text(SIM_CFG)
    out = root / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return root, out


def _series_csv(sim_dir):
    return str(sim_dir[1] / "series.csv")


def _split_date(sim_dir):
    lines = (sim_dir[1] / "series.csv").read_text().splitlines()
    return lines[160].split(",")[0]  # ~3/4 through the sample


def test_simulate_outputs_and_manifest(sim_dir):
    root, out = sim_dir
    assert (out / "series.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["seed"] == 7
    assert "series.csv" in manifest["outputs"]


def test_simulate_deterministic_and_manifest_rerun(sim_dir, tmp_path):
    root, out = sim_dir
    out2 = tmp_path / "again"
    code = main(["simulate", "--config", str(out / "manifest.json"), "--out", str(out2)])
    assert code == 0
    assert (out2 / "series.csv").read_bytes() == (out / "series.csv").read_bytes()


def test_simulate_zero_rows_header_only(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(SIM_CFG.replace("n_obs = 220", "n_obs = 0"))
    out = tmp_path / "empty"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "series.csv").read_text() == "date,price,vxo\n"


def test_simulate_seed_changes_output(sim_dir, tmp_path):
    root, out = sim_dir
    out2 = tmp_path / "seeded"
    assert main(
        ["simulate", "--config", str(root / "sim.cfg"), "--out", str(out2), "--seed", "99"]
    ) == 0
    assert (out2 / "series.csv").read_bytes() != (out / "series.csv").read_bytes()


def test_simulated_data_recovers_parameters(sim_dir, tmp_path):
    # End-to-end: simulated NL series re-estimated recovers the variance
    # slope within 3 reported standard errors (tiny budgets, so only a
    # subset of parameters is sharply identified at n = 220).
    root, out = sim_dir
    cfg = tmp_path / "est.cfg"
    cfg.write_text(RUN_CFG.format(split="1990-09-28") + "model = NL\n")
    est = tmp_path / "est"
    code = main(
        ["estimate", "--config", str(cfg), "--input", _series_csv(sim_dir), "--out", str(est)]
    )
    assert code == 0
    fit = json.loads((est / "fit_NL.json").read_text())
    assert isinstance(fit["converged"], bool)  # reported either way at tiny budgets
    assert np.isfinite(fit["loglik"])
    est_b1 = fit["params"]["b1"]
    se_b1 = fit["std_errors"]["b1"]
    assert abs(est_b1 - NL_PARAMS.b1) < max(4 * se_b1, 60.0)


@pytest.fixture(scope="module")
def estimate_dir(sim_dir, tmp_path_factory):
    root, out = sim_dir
    tmp = tmp_path_factory.mktemp("est")
    cfg = tmp / "run.cfg"
    cfg.write_text(RUN_CFG.format(split=_split_date(sim_dir)))
    est = tmp / "est"
    code = main(
        ["estimate", "--config", str(cfg), "--input", _series_csv(sim_dir), "--out", str(est)]
    )
    assert code == 0
    return tmp, cfg, est


def test_estimate_both_models(estimate_dir):
    tmp, cfg, est = estimate_dir
    assert (est / "fit_LN.json").exists()
    assert (est / "fit_NL.json").exists()
    table = (est / "estimates.txt").read_text()
    assert "sigma" in table and "(" in table
    assert "loglik" in table


def test_estimate_deterministic(estimate_dir, sim_dir, tmp_path):
    tmp, cfg, est = estimate_dir
    est2 = tmp_path / "est2"
    code = main(
        ["estimate", "--config", str(est / "manifest.json"), "--input", _series_csv(sim_dir), "--out", str(est2)]
    )
    assert code == 0
    assert (est2 / "fit_LN.json").read_bytes() == (est / "fit_LN.json").read_bytes()
    assert (est2 / "fit_NL.json").read_bytes() == (est / "fit_NL.json").read_bytes()


def test_malformed_csv_nonzero_exit(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,price,vxo\n1990-01-02,300,20\nBOOM,1,1\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG.format(split="1990-06-01"))
    code = main(["estimate", "--config", str(cfg), "--input", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "row 3" in err


def test_negative_n_bridges_nonzero_exit(sim_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    text = RUN_CFG.format(split=_split_date(sim_dir))
    cfg.write_text(text.replace("n_bridges = 8", "n_bridges = -2"))
    code = main(
        ["estimate", "--config", str(cfg), "--input", _series_csv(sim_dir), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert "n_bridges" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["M = 2.5\n", '{"M": 2.5}'])
def test_non_integer_config_value_nonzero_exit(sim_dir, tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = main(
        ["estimate", "--config", str(cfg), "--input", _series_csv(sim_dir), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert "'M'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra, env, key",
    [
        ("simulate", "", {"NLSV_SEED": "abc"}, "seed"),
        ("simulate", "start_date = notadate\n", {}, "start_date"),
        ("rolling", "horizons = 1,x\n", {}, "horizons"),
        ("rolling", "horizons = 0,5\n", {}, "horizons"),
        ("rolling", "split_date = 1999-13-45\n", {}, "split_date"),
        ("rolling", "rate = 0.11\n", {}, "rate"),
        ("simulate", "dampening_c = 1e-6\n", {}, "dampening_c"),
    ],
    ids=[
        "NLSV_SEED", "start_date", "horizons", "horizons_zero", "split_date", "rate", "dampening_c"
    ],
)
def test_unparseable_setting_nonzero_exit(
    sim_dir, tmp_path, capsys, monkeypatch, command, extra, env, key
):
    # A setting that does not parse, or a key the program does not know,
    # is an error naming its key, not a traceback, and rolling reports it
    # before any fit runs.
    fits = []
    monkeypatch.setattr(nlsv.forecasting, "fit", lambda *args, **kw: fits.append(args))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    cfg = tmp_path / "run.cfg"
    base = SIM_CFG if command == "simulate" else RUN_CFG.format(split=_split_date(sim_dir))
    cfg.write_text(base + extra)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    if command == "rolling":
        argv += ["--input", _series_csv(sim_dir)]
    assert main(argv) == 1
    assert key in capsys.readouterr().err
    assert fits == []


@pytest.mark.parametrize("command", ["forecast", "rolling"])
def test_dt_not_dividing_a_day_nonzero_exit(estimate_dir, sim_dir, tmp_path, capsys, command):
    # 3-hour steps do not tile an 8-hour trading day: a settings error,
    # not an origin with explosive dynamics to skip.
    tmp, cfg, est = estimate_dir
    bad = tmp_path / "run.cfg"
    bad.write_text(cfg.read_text().replace("dt_hours = 8", "dt_hours = 3"))
    argv = [command, "--config", str(bad), "--input", _series_csv(sim_dir), "--out", str(tmp_path / "o")]
    if command == "forecast":
        argv += ["--fit", str(est / "fit_NL.json")]
    assert main(argv) == 1
    assert "dt" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


def test_rolling_refit_every_zero_nonzero_exit(sim_dir, tmp_path, capsys, monkeypatch):
    # Refitting every 0 dates is a settings error reported before any fit,
    # not a division by zero after the in-sample fits.
    fits = []
    monkeypatch.setattr(nlsv.forecasting, "fit", lambda *args, **kw: fits.append(args))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG.format(split=_split_date(sim_dir)) + "refit_every = 0\n")
    argv = ["rolling", "--config", str(cfg), "--input", _series_csv(sim_dir), "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert "refit_every" in capsys.readouterr().err
    assert fits == []


@pytest.mark.parametrize("command", ["forecast", "rolling"])
def test_header_only_csv_nonzero_exit(estimate_dir, tmp_path, capsys, command):
    tmp, cfg, est = estimate_dir
    empty = tmp_path / "empty.csv"
    empty.write_text("date,price,vxo\n")
    argv = [command, "--config", str(cfg), "--input", str(empty), "--out", str(tmp_path / "o")]
    if command == "forecast":
        argv += ["--fit", str(est / "fit_NL.json")]
    assert main(argv) == 1
    assert "no observations" in capsys.readouterr().err


def test_forecast_and_report(estimate_dir, sim_dir, tmp_path):
    tmp, cfg, est = estimate_dir
    fc = tmp_path / "fc"
    code = main(
        [
            "forecast", "--config", str(cfg), "--input", _series_csv(sim_dir),
            "--fit", str(est / "fit_LN.json"), "--fit", str(est / "fit_NL.json"),
            "--out", str(fc),
        ]
    )
    assert code == 0
    for name in ("report.json", "metrics_rv.csv", "metrics_iv.csv", "metrics_x.csv"):
        assert (fc / name).exists()
    header = (fc / "metrics_iv.csv").read_text().splitlines()[0]
    assert header.startswith("sample,block,name,h1,h5")

    rep = tmp_path / "rep"
    code = main(
        [
            "report", "--config", str(cfg), "--input", _series_csv(sim_dir),
            "--fit", str(est / "fit_LN.json"), "--fit", str(est / "fit_NL.json"),
            "--report", str(fc / "report.json"), "--out", str(rep),
        ]
    )
    assert code == 0
    assert (rep / "drift_grid.csv").exists()
    assert (rep / "premium_series.csv").exists()

    # report is pure: rerunning produces identical bytes
    rep2 = tmp_path / "rep2"
    main(
        [
            "report", "--config", str(cfg), "--input", _series_csv(sim_dir),
            "--fit", str(est / "fit_LN.json"), "--fit", str(est / "fit_NL.json"),
            "--report", str(fc / "report.json"), "--out", str(rep2),
        ]
    )
    for name in ("drift_grid.csv", "premium_series.csv", "metrics_iv.csv"):
        assert (rep2 / name).read_bytes() == (rep / name).read_bytes()


def test_forecast_empty_out_sample(estimate_dir, sim_dir, tmp_path):
    tmp, cfg, est = estimate_dir
    last_date = (sim_dir[1] / "series.csv").read_text().splitlines()[-1].split(",")[0]
    cfg2 = tmp_path / "run2.cfg"
    cfg2.write_text(RUN_CFG.format(split=last_date))
    fc = tmp_path / "fc_empty"
    code = main(
        [
            "forecast", "--config", str(cfg2), "--input", _series_csv(sim_dir),
            "--fit", str(est / "fit_LN.json"), "--out", str(fc),
        ]
    )
    assert code == 0
    body = (fc / "metrics_iv.csv").read_text()
    assert "out," not in body  # no out-of-sample rows


def test_forecast_ignores_estimation_settings(estimate_dir, sim_dir, tmp_path):
    # forecast reads no estimation budget, so one that a fit would reject
    # (M = 0) does not stop it.
    tmp, cfg, est = estimate_dir
    cfg0 = tmp_path / "m0.cfg"
    cfg0.write_text(cfg.read_text().replace("M = 2\n", "M = 0\n"))
    fc = tmp_path / "fc_m0"
    code = main(
        [
            "forecast", "--config", str(cfg0), "--input", _series_csv(sim_dir),
            "--fit", str(est / "fit_LN.json"), "--out", str(fc),
        ]
    )
    assert code == 0
    assert json.loads((fc / "report.json").read_text())["cells"]


PINNED_METRICS_IV = (
    "sample,block,name,h5,h22\n"
    "in,RMSE,LN,0.035902646142032486,0.022498148071933982\n"
    "in,RMSE,NL,0.035902646142032486,0.02702159630123037\n"
    "in,RMSE,RW,0.03307315124588725,0.0245017006212494\n"
    "in,NMSE,LN,2.0782873522035112,3.253347616497054\n"
    "in,NMSE,NL,2.0782873522035112,4.69309051955008\n"
    "in,NMSE,RW,1.7636151916875669,3.8585966791644344\n"
    "in,MAE,LN,0.03133333333333333,0.01983333333333333\n"
    "in,MAE,NL,0.03133333333333333,0.023833333333333335\n"
    "in,MAE,RW,0.030166666666666665,0.020666666666666667\n"
    "in,DIR,LN,0.5,0.8333333333333334\n"
    "in,DIR,NL,0.5,0.6666666666666666\n"
    "in,DIR,RW,0.3333333333333333,0.6666666666666666\n"
    "in,CW,LN_vs_RW,0.010312912182886939,2.2687774300068812e-08\n"
    "in,CW,NL_vs_RW,0.010312912182886939,0.03639455488180976\n"
    "in,CW,NL_vs_LN,1.0,1.368131600585648e-32\n"
    "out,RMSE,LN,0.01832575600987128,0.040718546143004665\n"
    "out,RMSE,NL,0.0066833125519211375,0.0439089968002003\n"
    "out,RMSE,RW,0.01973997635932391,0.03197915988056388\n"
    "out,NMSE,LN,1.354621848739496,2.5489174531323395\n"
    "out,NMSE,NL,0.18016806722689063,2.964000512448221\n"
    "out,NMSE,RW,1.5717647058823538,1.5721911431865734\n"
    "out,MAE,LN,0.012499999999999997,0.037666666666666675\n"
    "out,MAE,NL,0.005333333333333329,0.03933333333333333\n"
    "out,MAE,RW,0.015,0.02633333333333333\n"
    "out,DIR,LN,1.0,0.6666666666666666\n"
    "out,DIR,NL,1.0,0.6666666666666666\n"
    "out,DIR,RW,0.5,0.8333333333333334\n"
    "out,CW,LN_vs_RW,0.0013985752720190121,0.03354555390175176\n"
    "out,CW,NL_vs_RW,0.00047792483187476586,0.03328690637486096\n"
    "out,CW,NL_vs_LN,0.00029168144694144795,1.8797078694273976e-06\n"
)

PINNED_METRICS_RV = (
    "sample,block,name,h5,h22\n"
    "in,RMSE,LN,0.027483328279765053,0.026089589239132658\n"
    "in,RMSE,NL,0.036801268094093356,0.034036744850235015\n"
    "in,RMSE,RW,0.03168069864549497,0.0372827037646145\n"
    "in,NMSE,LN,2.649001461276182,1.4515727741247555\n"
    "in,NMSE,NL,4.749732099366781,2.4705882352941173\n"
    "in,NMSE,RW,3.519922065270337,2.964279367336058\n"
    "in,MAE,LN,0.023999999999999997,0.02333333333333333\n"
    "in,MAE,NL,0.03133333333333333,0.0305\n"
    "in,MAE,RW,0.025333333333333336,0.027666666666666673\n"
    "in,DIR,LN,0.5,0.6666666666666666\n"
    "in,DIR,NL,0.3333333333333333,0.5\n"
    "in,DIR,RW,0.6666666666666666,0.5\n"
    "in,CW,LN_vs_RW,0.12508841359947676,1.0605088939739796e-07\n"
    "in,CW,NL_vs_RW,0.2089020908752917,4.45979109005915e-09\n"
    "in,CW,NL_vs_LN,0.8349275386413393,0.3750063263422606\n"
    "out,RMSE,LN,0.019096247449870003,0.025086516962969038\n"
    "out,RMSE,NL,0.03604395464799425,\n"
    "out,RMSE,RW,0.0368284310463171,0.019748417658131498\n"
    "out,NMSE,LN,1.0891894134240436,2.2237926972909308\n"
    "out,NMSE,NL,3.8803617356674684,\n"
    "out,NMSE,RW,4.051107608064382,1.3780918727915197\n"
    "out,MAE,LN,0.016333333333333335,0.02\n"
    "out,MAE,NL,0.03283333333333333,\n"
    "out,MAE,RW,0.034,0.018333333333333333\n"
    "out,DIR,LN,1.0,0.6666666666666666\n"
    "out,DIR,NL,0.3333333333333333,\n"
    "out,DIR,RW,0.5,0.8333333333333334\n"
    "out,CW,LN_vs_RW,1.872755968637533e-09,0.029289117920828937\n"
    "out,CW,NL_vs_RW,1.1934420095054183e-05,\n"
    "out,CW,NL_vs_LN,0.014939582286933163,\n"
)


def test_metrics_csvs_are_pinned_byte_for_byte(tmp_path):
    # Two samples, RW/LN/NL, targets iv and rv at horizons 5 and 22.  NL
    # repeats LN's forecasts at in|iv|5, so NL_vs_LN is degenerate there
    # (p = 1.0), and the cell out|NL|rv|22 is missing, which empties its
    # metric cells and the out rv h22 tests of NL.  No x target, no table.
    from nlsv.data_io import save_results
    from nlsv.forecasting import ForecastReport

    rng = np.random.default_rng(17)
    report = ForecastReport()
    for sample in ("in", "out"):
        for target in ("iv", "rv"):
            for h in (5, 22):
                for origin in range(6):
                    realized, current = (round(float(v), 3) for v in rng.uniform(0.01, 0.09, 2))
                    forecasts = {
                        m: round(float(rng.uniform(0.01, 0.09)), 3) for m in ("RW", "LN", "NL")
                    }
                    if (sample, target, h) == ("in", "iv", 5):
                        forecasts["NL"] = forecasts["LN"]
                    for model, f in forecasts.items():
                        if (sample, model, target, h) != ("out", "NL", "rv", 22):
                            report.add(sample, model, target, h, origin, f, realized, current)
    save_results(report, tmp_path / "report.json")
    out = tmp_path / "out"
    assert main(["report", "--report", str(tmp_path / "report.json"), "--out", str(out)]) == 0
    assert (out / "metrics_iv.csv").read_text() == PINNED_METRICS_IV
    assert (out / "metrics_rv.csv").read_text() == PINNED_METRICS_RV
    assert not (out / "metrics_x.csv").exists()

def test_nl_drift_grid_sign_change(estimate_dir, tmp_path, sim_dir):
    # Variance drift at the NL anchor is positive in the calm region and
    # crosses to negative inside (0.01, 0.04): mean repulsion at low
    # variance, reversion from above.
    tmp, cfg, est = estimate_dir
    rep = tmp_path / "grid"
    fit_path = tmp_path / "fit_anchor.json"
    from nlsv.data_io import save_results
    from nlsv.likelihood import FitResult
    from nlsv.params import ModelSpec, Family

    anchor = FitResult(
        params=NL_PARAMS, spec=ModelSpec(Family.NL), loglik=0.0, covariance=np.zeros((1, 1)),
        std_errors={"sigma": 0.0}, converged=True, n_iterations=0,
        n_evaluations=0, seed=0,
    )
    save_results(anchor, fit_path)
    code = main(["report", "--config", str(cfg), "--fit", str(fit_path), "--out", str(rep)])
    assert code == 0
    rows = (rep / "drift_grid.csv").read_text().splitlines()[1:]
    grid = np.array([[float(c) for c in row.split(",")] for row in rows])
    v, mu_v = grid[:, 0], grid[:, 2]
    window = (v > 0.01) & (v < 0.04)
    signs = np.sign(mu_v[window])
    assert signs.max() > 0 and signs.min() < 0


def test_rolling_command(sim_dir, tmp_path):
    root, out = sim_dir
    cfg = tmp_path / "roll.cfg"
    cfg.write_text(
        RUN_CFG.format(split=_split_date(sim_dir)).replace("model = both", "model = LN")
        + "refit_every = 30\nM = 1\nS = 1\n"
    )
    roll = tmp_path / "roll"
    code = main(
        ["rolling", "--config", str(cfg), "--input", _series_csv(sim_dir), "--out", str(roll)]
    )
    assert code == 0
    for name in ("fit_LN.json", "report.json", "parameter_paths.json", "metrics_rv.csv"):
        assert (roll / name).exists()
    paths = json.loads((roll / "parameter_paths.json").read_text())
    assert len(paths["entries"]) >= 2
    assert all("params" in e or "error" in e for e in paths["entries"])


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import; no command needs it.
    env = dict(os.environ, PYTHONPATH=str(Path(nlsv.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, nlsv.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
