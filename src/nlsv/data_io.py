"""Ingestion, validation and persistence.

Input data is a daily CSV with header ``date,price,vxo``.  The volatility
index column may be quoted in percent (20.5) or decimal (0.205); the unit
must be stated explicitly in configuration, there is no autodetection.
Implied variance is the squared decimal index.  Calendar arithmetic is in
observation indices: consecutive rows are one trading day apart
(1/262 year) regardless of date gaps.

Results are persisted as JSON with an embedded schema version; the
serialization is canonical (sorted keys, shortest round-trip floats) so
re-saving a loaded artifact reproduces it byte for byte.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1


class DataError(ValueError):
    """Invalid input data or artifact; message carries row locations."""


class VersionMismatch(DataError):
    """Persisted artifact written under an incompatible schema version."""


@dataclass
class ObservedSeries:
    """Dated joint series of log price and implied variance (squared index)."""

    dates: np.ndarray  # datetime64[D], strictly increasing
    x: np.ndarray      # log price
    iv: np.ndarray     # implied variance, > 0

    def __post_init__(self):
        self.dates = np.asarray(self.dates, dtype="datetime64[D]")
        self.x = np.asarray(self.x, dtype=float)
        self.iv = np.asarray(self.iv, dtype=float)
        if not (len(self.dates) == len(self.x) == len(self.iv)):
            raise DataError("dates, x and iv must have equal length")
        if len(self.dates) > 1 and not np.all(np.diff(self.dates).astype(int) > 0):
            raise DataError("dates must be strictly increasing")
        if not np.all(np.isfinite(self.x)):
            raise DataError("log prices must be finite")
        if not (np.all(np.isfinite(self.iv)) and np.all(self.iv > 0)):
            raise DataError("implied variance must be finite and > 0")

    def __len__(self) -> int:
        return len(self.dates)

    def window(self, start: int, stop: int) -> "ObservedSeries":
        return ObservedSeries(self.dates[start:stop], self.x[start:stop], self.iv[start:stop])


@dataclass
class SampleSplit:
    """Contiguous, ordered, non-overlapping in/out-of-sample partition."""

    series: ObservedSeries
    split_index: int  # first out-of-sample row

    @property
    def in_sample(self) -> ObservedSeries:
        return self.series.window(0, self.split_index)


def load_csv(path, vxo_unit: str, price_is_log: bool = False) -> ObservedSeries:
    """Read and validate a ``date,price,vxo`` CSV.

    ``vxo_unit`` must be ``"percent"`` or ``"decimal"``.  All structural
    problems are reported together with their 1-based row numbers; nothing
    is silently repaired.
    """
    scale = _vxo_scale(vxo_unit)
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")

    dates, xs, ivs, problems = [], [], [], []
    seen: dict[str, int] = {}
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:3]] != ["date", "price", "vxo"]:
            raise DataError(f"expected header 'date,price,vxo', got {header}")
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 3:
                problems.append(f"row {row_no}: expected 3 columns, got {len(row)}")
                continue
            raw_date, raw_price, raw_vxo = (cell.strip() for cell in row[:3])
            try:
                date = np.datetime64(raw_date, "D")
            except ValueError:
                problems.append(f"row {row_no}: unparseable date {raw_date!r}")
                continue
            if raw_date in seen:
                problems.append(
                    f"row {row_no}: duplicate date {raw_date} (first at row {seen[raw_date]})"
                )
                continue
            seen[raw_date] = row_no
            try:
                price = float(raw_price)
                vxo = float(raw_vxo)
            except ValueError:
                problems.append(f"row {row_no}: non-numeric price or vxo")
                continue
            if vxo <= 0 or not np.isfinite(vxo):
                problems.append(f"row {row_no}: vxo must be finite and > 0, got {raw_vxo}")
                continue
            if not price_is_log and price <= 0:
                problems.append(f"row {row_no}: price must be > 0 to take logs, got {raw_price}")
                continue
            dates.append(date)
            xs.append(price if price_is_log else np.log(price))
            vol = vxo / scale
            ivs.append(vol * vol)
    if problems:
        shown = "; ".join(problems[:20])
        more = f" (+{len(problems) - 20} more)" if len(problems) > 20 else ""
        raise DataError(f"{path}: {shown}{more}")
    try:
        return ObservedSeries(np.array(dates, dtype="datetime64[D]"), np.array(xs), np.array(ivs))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def split(series: ObservedSeries, split_date) -> SampleSplit:
    """Partition at the first date strictly after ``split_date``."""
    try:
        split_date = np.datetime64(split_date, "D")
    except ValueError:
        raise DataError(f"split_date: not a date, got {split_date!r}") from None
    if len(series) == 0:
        raise DataError("cannot split a series with no observations")
    if not (series.dates[0] <= split_date <= series.dates[-1]):
        raise DataError(
            f"split date {split_date} outside series range "
            f"[{series.dates[0]}, {series.dates[-1]}]"
        )
    idx = int(np.searchsorted(series.dates, split_date, side="right"))
    return SampleSplit(series=series, split_index=idx)


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def save_results(obj, path) -> None:
    """Persist a result object (anything with ``to_dict``) or plain dict."""
    payload = obj.to_dict() if hasattr(obj, "to_dict") else dict(obj)
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    Path(path).write_text(_canonical_json(payload))


def load_results(path) -> dict:
    """Load a persisted artifact, checking the schema version."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read artifact {path}: {exc}") from exc
    if not isinstance(payload, dict) or "schema_version" not in payload:
        raise DataError(f"artifact {path} missing schema_version")
    if payload["schema_version"] != SCHEMA_VERSION:
        raise VersionMismatch(
            f"artifact {path} has schema_version {payload['schema_version']}, "
            f"expected {SCHEMA_VERSION}"
        )
    return payload


def csv_text(header, rows) -> str:
    """CSV text of ``header`` and ``rows``: a number as ``repr(float)``, a
    string or a date as it is, and ``None`` as an empty cell."""
    def cell(value) -> str:
        if value is None:
            return ""
        return str(value) if isinstance(value, (str, np.datetime64)) else repr(float(value))

    return "".join(",".join(map(cell, row)) + "\n" for row in (header, *rows))


def _vxo_scale(vxo_unit: str) -> float:
    """100 for an index in percent, 1 in decimal; another unit is a DataError."""
    if vxo_unit not in ("percent", "decimal"):
        raise DataError(f"vxo_unit must be 'percent' or 'decimal', got {vxo_unit!r}")
    return 100.0 if vxo_unit == "percent" else 1.0


def series_csv(series: ObservedSeries, vxo_unit: str) -> str:
    """``series`` in the input CSV schema (prices in levels)."""
    rows = zip(series.dates, np.exp(series.x), np.sqrt(series.iv) * _vxo_scale(vxo_unit))
    return csv_text(("date", "price", "vxo"), rows)


def write_series_csv(series: ObservedSeries, path, vxo_unit: str = "decimal") -> None:
    """Write :func:`series_csv` of ``series`` to ``path``."""
    Path(path).write_text(series_csv(series, vxo_unit))


def load_config(path) -> dict[str, str]:
    """Parse a flat key-value config file (``key = value`` lines, ``#``
    comments) or a JSON manifest/config."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"config file not found: {path}")
    text = path.read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid JSON config {path}: {exc}") from exc
        if "config" in payload and isinstance(payload["config"], dict):
            return {str(k): v for k, v in payload["config"].items()}
        return {str(k): v for k, v in payload.items() if k != "schema_version"}
    out: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise DataError(f"{path} line {line_no}: expected 'key = value', got {line!r}")
        key, value = body.split("=", 1)
        out[key.strip()] = value.strip()
    return out
