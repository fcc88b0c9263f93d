import json

import numpy as np
import pytest

from nlsv.data_io import (
    DataError,
    ObservedSeries,
    SampleSplit,
    VersionMismatch,
    load_config,
    load_csv,
    load_results,
    save_results,
    split,
    write_series_csv,
)
from nlsv.forecasting import ForecastReport
from nlsv.likelihood import FitResult

from conftest import LN, LN_PARAMS, make_series


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_three_row_file(tmp_path):
    path = _write(
        tmp_path,
        "date,price,vxo\n"
        "1990-01-02,300.0,20.0\n"
        "1990-01-03,301.5,21.0\n"
        "1990-01-04,299.0,19.5\n",
    )
    series = load_csv(path, vxo_unit="percent")
    assert len(series) == 3
    assert series.x[0] == pytest.approx(np.log(300.0))


def test_percent_unit_conversion(tmp_path):
    path = _write(tmp_path, "date,price,vxo\n1990-01-02,100.0,20\n")
    series = load_csv(path, vxo_unit="percent")
    assert series.iv[0] == pytest.approx(0.04, rel=1e-12)


def test_decimal_unit_conversion(tmp_path):
    path = _write(tmp_path, "date,price,vxo\n1990-01-02,100.0,0.2\n")
    series = load_csv(path, vxo_unit="decimal")
    assert series.iv[0] == pytest.approx(0.04, rel=1e-12)


def test_unit_must_be_explicit(tmp_path):
    path = _write(tmp_path, "date,price,vxo\n1990-01-02,100.0,20\n")
    with pytest.raises(DataError):
        load_csv(path, vxo_unit="auto")


def test_duplicate_date_rejected_with_row(tmp_path):
    path = _write(
        tmp_path,
        "date,price,vxo\n1990-01-02,300,20\n1990-01-02,301,21\n",
    )
    with pytest.raises(DataError, match="row 3.*duplicate"):
        load_csv(path, vxo_unit="percent")


def test_nonpositive_vxo_rejected(tmp_path):
    path = _write(tmp_path, "date,price,vxo\n1990-01-02,300,-5\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(path, vxo_unit="percent")


def test_unparseable_row_located(tmp_path):
    path = _write(
        tmp_path,
        "date,price,vxo\n1990-01-02,300,20\nnot-a-date,300,20\n1990-01-04,x,20\n",
    )
    with pytest.raises(DataError, match="row 3.*row 4"):
        load_csv(path, vxo_unit="percent")


def test_price_already_log(tmp_path):
    path = _write(tmp_path, "date,price,vxo\n1990-01-02,5.7,20\n")
    series = load_csv(path, vxo_unit="percent", price_is_log=True)
    assert series.x[0] == 5.7


def test_missing_file():
    with pytest.raises(DataError, match="not found"):
        load_csv("/nonexistent/file.csv", vxo_unit="percent")


def test_series_csv_round_trip(tmp_path):
    series = make_series(LN_PARAMS, LN, 25, 3)
    path = tmp_path / "series.csv"
    write_series_csv(series, path, vxo_unit="percent")
    back = load_csv(path, vxo_unit="percent")
    assert np.allclose(back.x, series.x, rtol=1e-12)
    assert np.allclose(back.iv, series.iv, rtol=1e-12)


# ----------------------------------------------------------------- split


def _series(n=10):
    dates = np.busday_offset(np.datetime64("1999-12-20"), np.arange(n), roll="forward")
    return ObservedSeries(dates, np.linspace(0, 1, n), np.full(n, 0.04))


def test_split_partition():
    series = _series(10)
    sp = split(series, series.dates[3])
    assert len(sp.in_sample) == 4
    assert len(series) - sp.split_index == 6
    assert sp.in_sample.dates[-1] <= series.dates[3] < series.dates[sp.split_index]


def test_split_at_last_date_empty_out_sample():
    series = _series(6)
    sp = split(series, series.dates[-1])
    assert sp.split_index == len(series)
    assert len(sp.in_sample) == 6


def test_split_before_first_date_errors():
    series = _series(5)
    with pytest.raises(DataError):
        split(series, "1980-01-01")


def test_default_split_date_matches_protocol():
    # The standard evaluation splits after the last 1999 trading day.
    from nlsv.cli import RunConfig

    assert RunConfig().split_date == "1999-12-31"


# ------------------------------------------------------------ artifacts


def test_save_load_round_trip_byte_identical(tmp_path):
    payload = {"kind": "fit_result", "params": {"sigma": 2.2047}, "values": [1.0, 2.5]}
    path = tmp_path / "artifact.json"
    save_results(payload, path)
    first = path.read_bytes()
    loaded = load_results(path)
    save_results({k: v for k, v in loaded.items() if k != "schema_version"}, path)
    assert path.read_bytes() == first


def test_corrupted_artifact(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(DataError):
        load_results(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema_version": 99, "kind": "fit_result"}))
    with pytest.raises(VersionMismatch):
        load_results(path)


def test_empty_report_round_trips(tmp_path):
    report = ForecastReport()
    path = tmp_path / "report.json"
    save_results(report, path)
    back = ForecastReport.from_dict(load_results(path))
    assert back.cells == {}
    save_results(back, tmp_path / "report2.json")
    assert (tmp_path / "report2.json").read_bytes() == path.read_bytes()


def test_fit_result_writes_estimated_params_and_loads_old_files(tmp_path):
    # A fit file holds the estimated parameters only; one written when it
    # also held the unread r and c still loads, to the same parameters.
    fit = FitResult(
        params=LN_PARAMS, spec=LN, loglik=1.5, covariance=np.eye(7),
        converged=True, n_iterations=3, n_evaluations=9, seed=4,
    )
    payload = fit.to_dict()
    assert list(payload["params"]) == list(LN.param_names)
    old = payload | {"params": payload["params"] | {"r": 0.05, "c": 1e-6}}
    for data in (payload, old):
        save_results(data, tmp_path / "fit.json")
        assert FitResult.from_dict(load_results(tmp_path / "fit.json")).params == LN_PARAMS


# --------------------------------------------------------------- config


def test_config_key_value_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nseed = 42\nvxo_unit = percent  # trailing\n\nM = 8\n")
    cfg = load_config(path)
    assert cfg == {"seed": "42", "vxo_unit": "percent", "M": "8"}


def test_config_json_manifest(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"schema_version": 1, "command": "simulate", "config": {"seed": 7}}))
    assert load_config(path) == {"seed": 7}


def test_config_bad_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("this is not a key value line\n")
    with pytest.raises(DataError, match="line 1"):
        load_config(path)
