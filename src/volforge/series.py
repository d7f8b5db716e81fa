"""Time-series containers and transforms shared by every forecaster.

Covers price ingestion, log-returns, realized-volatility aggregation into
calendar buckets (hour / day / month, UTC), chronological splitting and
min-max scaling.  All containers are immutable after construction and all
operations are pure functions, so values can be shared freely across
concurrent model fits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .errors import DataError

# aggregation -> datetime64 unit of its calendar bucket
_BUCKET_UNITS = {"hour": "h", "day": "D", "month": "M"}
AGGREGATIONS = tuple(_BUCKET_UNITS)
# the four-digit years: epoch seconds from 0001-01-01 up to 10000-01-01 (UTC)
_FIRST_SECOND, _END_SECOND = -62135596800, 253402300800
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class PriceSeries:
    """Strictly positive prices on strictly increasing UTC epoch seconds."""

    timestamps: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        px = _as_float_array(self.prices)
        if ts.shape != px.shape or ts.ndim != 1:
            raise DataError("timestamps and prices must be 1-d arrays of equal length")
        if len(ts) < 2:
            raise DataError("price series needs at least 2 observations")
        if np.any(np.diff(ts) <= 0):
            bad = int(np.argmax(np.diff(ts) <= 0)) + 1
            raise DataError(f"timestamps must be strictly increasing (violated at index {bad})")
        if not np.all(np.isfinite(px)):
            raise DataError("prices contain NaN or inf")
        if np.any(px <= 0):
            bad = int(np.argmax(px <= 0))
            raise DataError(f"non-positive price at index {bad}: {px[bad]}")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", px)
        ts.setflags(write=False)
        px.setflags(write=False)

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class ReturnSeries:
    """Log-returns; timestamps mark the end of each return interval."""

    timestamps: np.ndarray
    returns: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        r = _as_float_array(self.returns)
        if ts.shape != r.shape or ts.ndim != 1:
            raise DataError("timestamps and returns must be 1-d arrays of equal length")
        if len(ts) == 0:
            raise DataError("empty return series")
        if not np.all(np.isfinite(r)):
            raise DataError("returns contain NaN or inf")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "returns", r)
        ts.setflags(write=False)
        r.setflags(write=False)

    def __len__(self) -> int:
        return len(self.returns)


@dataclass(frozen=True)
class RVSeries:
    """Realized volatility per aggregation bucket, one value per bucket."""

    period_labels: tuple
    rv: np.ndarray
    aggregation: str = "day"

    def __post_init__(self):
        labels = tuple(self.period_labels)
        rv = _as_float_array(self.rv)
        if len(labels) != len(rv):
            raise DataError("period_labels and rv must have equal length")
        if self.aggregation not in AGGREGATIONS:
            raise DataError(f"unknown aggregation {self.aggregation!r}, expected one of {AGGREGATIONS}")
        if np.any(rv < 0) or not np.all(np.isfinite(rv)):
            raise DataError("rv values must be finite and non-negative")
        if any(labels[i] >= labels[i + 1] for i in range(len(labels) - 1)):
            raise DataError("period labels must be strictly increasing")
        object.__setattr__(self, "period_labels", labels)
        object.__setattr__(self, "rv", rv)
        rv.setflags(write=False)

    def __len__(self) -> int:
        return len(self.rv)

    def slice(self, start: int, stop: int) -> "RVSeries":
        return RVSeries(self.period_labels[start:stop], self.rv[start:stop].copy(), self.aggregation)


@dataclass(frozen=True)
class SplitSpec:
    """Trailing validation/test window sizes; 252 points = one trading year."""

    validation_len: int = 252
    test_len: int = 252

    def __post_init__(self):
        if self.validation_len < 1 or self.test_len < 1:
            raise DataError("validation_len and test_len must be >= 1")


@dataclass
class MinMaxScaler:
    """Affine map of the training range onto [0, 1]; no clipping outside it."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.hi > self.lo):
            raise DataError(f"scaler needs hi > lo, got lo={self.lo}, hi={self.hi}")

    @classmethod
    def fit(cls, train: np.ndarray) -> "MinMaxScaler":
        """The training range; a constant series gets a unit band around the
        constant so that training stays defined."""
        train = _as_float_array(train)
        lo, hi = float(np.min(train)), float(np.max(train))
        if hi == lo:
            return cls(lo - 0.5, lo + 0.5)
        return cls(lo, hi)

    def transform(self, x):
        return (_as_float_array(x) - self.lo) / (self.hi - self.lo)

    def invert(self, y):
        return _as_float_array(y) * (self.hi - self.lo) + self.lo


def log_returns(prices: PriceSeries) -> ReturnSeries:
    """Log-return between consecutive bars; result has length n-1."""
    r = np.diff(np.log(prices.prices))
    return ReturnSeries(prices.timestamps[1:], r)


def calendar_buckets(timestamps, aggregation: str):
    """``(labels, edges)`` of the UTC calendar buckets of epoch seconds: a bucket
    starts wherever the timestamp's floor changes, holds indices ``[edges[k],
    edges[k + 1])`` and is labelled ``YYYY-MM-DDTHH``, ``YYYY-MM-DD`` or ``YYYY-MM``.
    Timestamps outside 0001-01-01..9999-12-31 are a DataError."""
    if aggregation not in _BUCKET_UNITS:
        raise DataError(f"unknown aggregation {aggregation!r}, expected one of {AGGREGATIONS}")
    ts = np.asarray(timestamps, dtype=np.int64)
    if len(ts) and not (_FIRST_SECOND <= ts.min() and ts.max() < _END_SECOND):
        raise DataError(f"timestamps {ts.min()}..{ts.max()} fall outside the years 0001-9999")
    floors = ts.astype("datetime64[s]").astype(f"datetime64[{_BUCKET_UNITS[aggregation]}]")
    first = np.ones(len(ts), dtype=bool)
    first[1:] = floors[1:] != floors[:-1]
    edges = np.append(np.flatnonzero(first), len(ts))
    return tuple(np.datetime_as_string(floors[edges[:-1]]).tolist()), edges


def realized_volatility(returns: ReturnSeries, aggregation: str) -> RVSeries:
    """Sqrt of summed squared returns per :func:`calendar_buckets` bucket."""
    labels, edges = calendar_buckets(returns.timestamps, aggregation)
    squares = returns.returns * returns.returns
    # one sum per bucket slice: np.add.reduceat would reorder the additions
    sums = [squares[a:b].sum() for a, b in zip(edges[:-1].tolist(), edges[1:].tolist())]
    return RVSeries(labels, np.sqrt(sums), aggregation)


def aggregate_log_rv(rv: np.ndarray, n: int) -> np.ndarray:
    """Mean of log rv over the ``n`` most recent periods ending at each t.

    Output index k corresponds to t = n-1+k of the input.  Zero rv values are
    rejected; callers must apply :func:`apply_zero_floor` first.
    """
    rv = _as_float_array(rv)
    if n < 1:
        raise DataError("horizon n must be >= 1")
    if len(rv) < n:
        raise DataError(f"series of length {len(rv)} too short for horizon {n}")
    if np.any(rv <= 0):
        raise DataError("rv contains non-positive values; apply the zero-floor before log aggregation")
    logs = np.log(rv)
    c = np.concatenate(([0.0], np.cumsum(logs)))
    return (c[n:] - c[:-n]) / n


def apply_zero_floor(rv: RVSeries, train_len: int) -> RVSeries:
    """Replace zero buckets by (smallest positive training rv) * 1e-3.

    Keeps log transforms defined; the floor is learned from the training
    partition only so the mapping is leakage-safe.
    """
    vals = rv.rv.copy()
    if not np.any(vals == 0):
        return rv
    train = vals[:train_len]
    positive = train[train > 0]
    if len(positive) == 0:
        raise DataError("training partition has no positive rv; cannot derive zero-floor")
    floor = float(np.min(positive)) * 1e-3
    vals[vals == 0] = floor
    return RVSeries(rv.period_labels, vals, rv.aggregation)


def split(rv: RVSeries, spec: SplitSpec, min_train: int = 1):
    """Chronological (train, validation, test) partition with trailing windows."""
    need = spec.validation_len + spec.test_len + min_train
    if len(rv) < need:
        raise DataError(
            f"series of length {len(rv)} too short: need at least {need} "
            f"(validation {spec.validation_len} + test {spec.test_len} + train {min_train})")
    t_end = len(rv) - spec.test_len
    v_end = t_end - spec.validation_len
    return rv.slice(0, v_end), rv.slice(v_end, t_end), rv.slice(t_end, len(rv))


# ---------------------------------------------------------------------------
# CSV interfaces: `timestamp,price` in, `period,rv` out.
# ---------------------------------------------------------------------------

def _parse_timestamp(tok: str) -> int:
    tok = tok.strip()
    if not tok:
        raise DataError("empty timestamp field")
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(tok.replace("Z", "+00:00"))
    except ValueError as exc:
        raise DataError(f"unparseable timestamp {tok!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    # exact floor toward -inf, as calendar_buckets floors; int() of the float
    # timestamp would truncate toward zero
    return (dt - _EPOCH) // timedelta(seconds=1)


def read_utf8(path, error) -> str:
    """The UTF-8 text of a file; a missing, unreadable or non-UTF-8 file
    raises ``error`` (a VolforgeError class) naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise error(f"{path}: no such file") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from exc


def read_price_csv(path) -> PriceSeries:
    """Read a UTF-8 `timestamp,price` CSV; timestamps ISO-8601 or epoch seconds.

    The timestamp style must be uniform within one file.  ISO timestamps
    without an offset are UTC and are floored to whole epoch seconds, so
    ``1969-12-31T23:59:59.5`` reads as -1.  NaN/inf prices are rejected.
    An epoch-style file is read in one ``np.loadtxt`` pass; any file that
    pass cannot read exactly as the line loop would goes through the loop,
    which names the file and line of a bad row.
    """
    path = Path(path)
    text = read_utf8(path, DataError)
    lines = text.splitlines()
    if not lines or lines[0].strip().lower() != "timestamp,price":
        raise DataError(f"{path}: expected header 'timestamp,price'")
    # in ASCII text, a loadtxt pass that neither fails nor warns differs from
    # the loop only where it reads "+5" as 5 (the loop's style rule rejects it)
    # and strips "\x1f" (float() does not)
    one_pass = text.isascii() and "+" not in text and "\x1f" not in text
    prices = _read_epoch_rows(lines[1:]) if one_pass else None
    return prices if prices is not None else _read_price_lines(path, lines)


def _read_epoch_rows(rows):
    """The series of an epoch-style file's data rows, read in one pass, or
    None where that pass might differ from :func:`_read_price_lines`."""
    # numpy releases that still parse a failed integer field through float
    # (so "1.5" reads as 1 and "1e20" overflows) only warn; a warning, like
    # the "no data" one for an empty body, sends the file to the loop
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=1,
                               dtype=[("t", "i8"), ("p", "f8")])
        except (ValueError, Warning):
            return None
    if not np.all(np.isfinite(table["p"])):
        return None
    return PriceSeries(table["t"].copy(), table["p"].copy())


def _read_price_lines(path: Path, lines) -> PriceSeries:
    """Parse the data lines one by one, raising a DataError at the first bad one."""
    ts, px = [], []
    epoch_style = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
        tok = parts[0].strip()
        is_epoch = tok.lstrip("-").isdigit()
        if epoch_style is None:
            epoch_style = is_epoch
        elif epoch_style != is_epoch:
            raise DataError(f"{path}:{lineno}: mixed timestamp styles in one file")
        t = _parse_timestamp(tok)
        if not _INT64_MIN <= t <= _INT64_MAX:
            raise DataError(f"{path}:{lineno}: timestamp {tok} outside the int64 range")
        ts.append(t)
        try:
            p = float(parts[1])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unparseable price {parts[1]!r}") from exc
        if not math.isfinite(p):
            raise DataError(f"{path}:{lineno}: price must be finite")
        px.append(p)
    return PriceSeries(np.array(ts, dtype=np.int64), np.array(px))


def write_price_csv(prices: PriceSeries, path) -> None:
    with open(path, "w") as fh:
        fh.write("timestamp,price\n")
        for t, p in zip(prices.timestamps, prices.prices):
            fh.write(f"{int(t)},{float(p)!r}\n")


def write_rv_csv(rv: RVSeries, path) -> None:
    with open(path, "w") as fh:
        fh.write("period,rv\n")
        for lbl, v in zip(rv.period_labels, rv.rv):
            fh.write(f"{lbl},{float(v)!r}\n")
