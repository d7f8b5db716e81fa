import itertools
import math
import warnings
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volforge import series
from volforge.errors import DataError
from volforge.series import (MinMaxScaler, PriceSeries, ReturnSeries, RVSeries,
                             SplitSpec, _parse_timestamp, aggregate_log_rv,
                             apply_zero_floor, calendar_buckets, log_returns,
                             read_price_csv, realized_volatility, split, write_price_csv,
                             write_rv_csv)

DAY = 86400


def make_prices(values, spacing=60):
    ts = np.arange(len(values), dtype=np.int64) * spacing
    return PriceSeries(ts, np.array(values, dtype=float))


def make_returns(values, spacing=60, t0=0):
    ts = t0 + np.arange(1, len(values) + 1, dtype=np.int64) * spacing
    return ReturnSeries(ts, np.array(values, dtype=float))


class TestPriceSeries:
    def test_rejects_non_positive_price(self):
        with pytest.raises(DataError, match="index 1"):
            make_prices([100.0, -5.0, 101.0])

    def test_rejects_duplicate_timestamps(self):
        with pytest.raises(DataError, match="strictly increasing"):
            PriceSeries(np.array([0, 0, 60]), np.array([1.0, 2.0, 3.0]))

    def test_rejects_short_series(self):
        with pytest.raises(DataError):
            PriceSeries(np.array([0]), np.array([100.0]))


class TestLogReturns:
    def test_identical_prices_zero_return(self):
        r = log_returns(make_prices([100.0, 100.0]))
        assert r.returns[0] == 0.0

    def test_single_up_move(self):
        r = log_returns(make_prices([100.0, 105.0]))
        assert r.returns[0] == pytest.approx(0.04879016417, abs=1e-10)

    def test_up_then_down_is_antisymmetric(self):
        r = log_returns(make_prices([100.0, 105.0, 100.0]))
        np.testing.assert_allclose(r.returns, [0.04879016417, -0.04879016417], atol=1e-10)

    @given(st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_price_reconstruction_roundtrip(self, prices):
        p = make_prices(prices)
        r = log_returns(p)
        rebuilt = p.prices[0] * np.exp(np.cumsum(r.returns))
        np.testing.assert_allclose(rebuilt, p.prices[1:], rtol=1e-10)


class TestRealizedVolatility:
    def test_zero_returns_zero_rv(self):
        rv = realized_volatility(make_returns([0.0, 0.0, 0.0]), "day")
        assert rv.rv[0] == 0.0

    def test_sum_of_squares(self):
        rv = realized_volatility(make_returns([0.01, -0.02, 0.015]), "day")
        assert rv.rv[0] == pytest.approx(0.02692582404, abs=1e-10)
        assert rv.rv[0] == pytest.approx(math.sqrt(0.000725), abs=1e-12)

    def test_single_return_abs(self):
        rv = realized_volatility(make_returns([-0.03]), "day")
        assert rv.rv[0] == pytest.approx(0.03)

    def test_multi_day_bucketing(self):
        ts = np.array([100, 200, DAY + 100, DAY + 200], dtype=np.int64)
        r = ReturnSeries(ts, np.array([0.01, 0.01, 0.02, 0.02]))
        rv = realized_volatility(r, "day")
        assert len(rv) == 2
        assert rv.rv[0] == pytest.approx(math.sqrt(2 * 0.01 ** 2))
        assert rv.rv[1] == pytest.approx(math.sqrt(2 * 0.02 ** 2))

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            ReturnSeries(np.array([], dtype=np.int64), np.array([]))

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(DataError, match="aggregation"):
            realized_volatility(make_returns([0.01]), "week")

    @given(st.lists(st.floats(min_value=-0.1, max_value=0.1), min_size=1, max_size=30),
           st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance_and_scale_equivariance(self, rets, c):
        base = realized_volatility(make_returns(rets), "day").rv[0]
        perm = realized_volatility(make_returns(rets[::-1]), "day").rv[0]
        scaled = realized_volatility(make_returns([c * r for r in rets]), "day").rv[0]
        assert base == pytest.approx(perm, rel=1e-12, abs=1e-15)
        assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-12)


LABEL_FORMATS = {"hour": "%Y-%m-%dT%H", "day": "%Y-%m-%d", "month": "%Y-%m"}


def strftime_rv(ts, r, aggregation):
    """Oracle: each bar labelled by strftime, np.sum over each run of equal labels."""
    labels = [datetime.fromtimestamp(int(t), tz=timezone.utc).strftime(LABEL_FORMATS[aggregation])
              for t in ts]
    out_labels, out_rv, i = [], [], 0
    for label, run in itertools.groupby(labels):
        j = i + len(list(run))
        seg = r[i:j]
        out_labels.append(label)
        out_rv.append(math.sqrt(float(np.sum(seg * seg))))
        i = j
    return tuple(out_labels), np.array(out_rv)


def utc(*args):
    return int(datetime(*args, tzinfo=timezone.utc).timestamp())


# just before an hour, a day, a month, a year, a Feb 29 and the epoch
BOUNDARY_STARTS = (utc(2021, 3, 9, 13, 59), utc(2021, 6, 30, 23, 58), utc(2021, 1, 31, 23),
                   utc(1999, 12, 31, 23, 30), utc(2024, 2, 28, 23), utc(2000, 2, 28, 12),
                   utc(1969, 12, 31, 23, 59))


class TestCalendarBuckets:
    @pytest.mark.parametrize("aggregation", ["hour", "day", "month"])
    @given(start=st.sampled_from(BOUNDARY_STARTS),
           gaps=st.lists(st.one_of(st.integers(1, 120), st.integers(1, 2 * 3600),
                                   st.integers(1, 40 * DAY)), min_size=1, max_size=80),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_strftime_oracle(self, aggregation, start, gaps, data):
        ts = start + np.cumsum(np.array(gaps, dtype=np.int64))
        r = np.array(data.draw(st.lists(st.floats(-0.1, 0.1), min_size=len(ts),
                                        max_size=len(ts))))
        labels, expected = strftime_rv(ts, r, aggregation)
        rv = realized_volatility(ReturnSeries(ts, r), aggregation)
        assert rv.period_labels == labels
        assert rv.rv.tobytes() == expected.tobytes()

    def test_edges_delimit_buckets(self):
        ts = [utc(2024, 2, 28, 23, 59), utc(2024, 2, 29, 0, 1), utc(2024, 2, 29, 5), utc(2024, 3, 1)]
        labels, edges = calendar_buckets(ts, "day")
        assert labels == ("2024-02-28", "2024-02-29", "2024-03-01")
        assert edges.tolist() == [0, 1, 3, 4]
        assert calendar_buckets([], "month")[0] == ()

    def test_four_digit_years(self):
        ts = [utc(999, 6, 15, 12, 30), utc(1, 1, 1), utc(9999, 12, 31, 23, 59, 59)]
        assert calendar_buckets(ts[:1], "hour")[0] == ("0999-06-15T12",)
        assert calendar_buckets(ts[:1], "day")[0] == ("0999-06-15",)
        assert calendar_buckets(ts[:1], "month")[0] == ("0999-06",)
        assert calendar_buckets(sorted(ts), "day")[0] == ("0001-01-01", "0999-06-15", "9999-12-31")

    @pytest.mark.parametrize("t", [utc(1, 1, 1) - 1, utc(9999, 12, 31, 23, 59, 59) + 1,
                                   1000000000000])
    def test_out_of_range_timestamp_rejected(self, t):
        with pytest.raises(DataError, match="0001-9999"):
            realized_volatility(ReturnSeries([utc(2020, 1, 1), t], [0.01, 0.02]), "day")


class TestAggregateLogRv:
    def test_constant_series(self):
        out = aggregate_log_rv(np.full(10, math.e), 4)
        np.testing.assert_allclose(out, 1.0)

    def test_n1_is_elementwise_log(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(aggregate_log_rv(x, 1), np.log(x))

    def test_mean_of_exponents(self):
        out = aggregate_log_rv(np.exp([1.0, 2.0, 3.0]), 2)
        np.testing.assert_allclose(out, [1.5, 2.5], atol=1e-12)

    def test_zero_rv_rejected_with_floor_hint(self):
        with pytest.raises(DataError, match="zero-floor"):
            aggregate_log_rv(np.array([1.0, 0.0, 2.0]), 2)


class TestSplit:
    @staticmethod
    def rv_of_len(n):
        labels = tuple(f"2020-{1 + i // 28:02d}-{1 + i % 28:02d}" if False else f"d{i:06d}"
                       for i in range(n))
        return RVSeries(labels, np.linspace(0.01, 0.02, n), "day")

    def test_partition_1000(self):
        tr, va, te = split(self.rv_of_len(1000), SplitSpec(252, 252))
        assert (len(tr), len(va), len(te)) == (496, 252, 252)

    def test_partition_600(self):
        tr, va, te = split(self.rv_of_len(600), SplitSpec(100, 100))
        assert (len(tr), len(va), len(te)) == (400, 100, 100)

    def test_insufficient_length_errors(self):
        with pytest.raises(DataError, match="at least"):
            split(self.rv_of_len(505), SplitSpec(252, 252), min_train=2)

    def test_disjoint_cover_in_order(self):
        rv = self.rv_of_len(700)
        tr, va, te = split(rv, SplitSpec(200, 100))
        rebuilt = np.concatenate([tr.rv, va.rv, te.rv])
        np.testing.assert_array_equal(rebuilt, rv.rv)
        assert tr.period_labels + va.period_labels + te.period_labels == rv.period_labels


class TestMinMaxScaler:
    def test_endpoints_and_midpoint(self):
        s = MinMaxScaler.fit(np.array([2.0, 4.0, 6.0]))
        assert s.transform(2.0) == 0.0
        assert s.transform(6.0) == 1.0
        assert s.transform(4.0) == 0.5

    def test_extrapolation_not_clipped(self):
        s = MinMaxScaler.fit(np.array([2.0, 4.0, 6.0]))
        assert s.transform(8.0) == pytest.approx(1.5)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=40).filter(
        lambda xs: max(xs) > min(xs)))
    @settings(max_examples=50, deadline=None)
    def test_invert_roundtrip(self, xs):
        s = MinMaxScaler.fit(np.array(xs))
        x = np.array(xs)
        np.testing.assert_allclose(s.invert(s.transform(x)), x, rtol=1e-12, atol=1e-9)


class TestZeroFloor:
    def test_floor_from_training_partition(self):
        rv = RVSeries(("a", "b", "c", "d"), np.array([0.02, 0.0, 0.01, 0.0]), "day")
        floored = apply_zero_floor(rv, train_len=3)
        assert floored.rv[1] == pytest.approx(0.01 * 1e-3)
        assert floored.rv[3] == pytest.approx(0.01 * 1e-3)
        assert floored.rv[0] == 0.02


class TestCsv:
    def test_price_csv_iso_and_epoch(self, tmp_path):
        iso = tmp_path / "iso.csv"
        iso.write_text("timestamp,price\n2020-01-01T00:00:00+00:00,100.0\n2020-01-01T00:01:00+00:00,101.0\n")
        p = read_price_csv(iso)
        assert p.prices[1] == 101.0
        epoch = tmp_path / "epoch.csv"
        epoch.write_text("timestamp,price\n1577836800,100.0\n1577836860,101.0\n")
        p2 = read_price_csv(epoch)
        np.testing.assert_array_equal(p.timestamps, p2.timestamps)

    def test_fractional_seconds_floor_toward_minus_infinity(self, tmp_path):
        f = tmp_path / "frac.csv"
        f.write_text("timestamp,price\n1969-12-31T23:59:58,100.0\n"
                     "1969-12-31T23:59:59.5,101.0\n1970-01-01T00:00:01.5,102.0\n"
                     "9999-12-31T23:59:59.999999,103.0\n")
        p = read_price_csv(f)
        np.testing.assert_array_equal(p.timestamps[:3], [-2, -1, 1])
        assert p.timestamps[3] == 253402300799
        rv = realized_volatility(log_returns(p), "day")
        assert rv.period_labels == ("1969-12-31", "1970-01-01", "9999-12-31")

    def test_mixed_timestamp_styles_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("timestamp,price\n1577836800,100.0\n2020-01-01T00:01:00,101.0\n")
        with pytest.raises(DataError, match="mixed"):
            read_price_csv(f)

    def test_nan_price_rejected(self, tmp_path):
        f = tmp_path / "nan.csv"
        f.write_text("timestamp,price\n0,100.0\n60,nan\n")
        with pytest.raises(DataError):
            read_price_csv(f)

    def test_rv_csv_roundtrip(self, tmp_path):
        rv = RVSeries(("2020-01-01", "2020-01-02"), np.array([0.0123456789, 0.02]), "day")
        path = tmp_path / "rv.csv"
        write_rv_csv(rv, path)
        labels, values = read_rv(path)
        np.testing.assert_array_equal(values, rv.rv)
        assert labels == rv.period_labels


def read_rv(path):
    """(labels, values) of a `period,rv` CSV that write_rv_csv wrote."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return tuple(r[0] for r in rows), np.array([float(r[1]) for r in rows])


def line_loop(path):
    """read_price_csv as it was before its one-pass reader: the oracle.  Its
    timestamps go through _parse_timestamp, which the one-pass reader never calls."""
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip().lower() != "timestamp,price":
        raise DataError(f"{path}: expected header 'timestamp,price'")
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
        ts.append(_parse_timestamp(tok))
        try:
            p = float(parts[1])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unparseable price {parts[1]!r}") from exc
        if not math.isfinite(p):
            raise DataError(f"{path}:{lineno}: price must be finite")
        px.append(p)
    return PriceSeries(np.array(ts, dtype=np.int64), np.array(px))


def assert_reads_as_line_loop(path):
    """read_price_csv gives the oracle's bytes, or the oracle's DataError message."""
    try:
        want = line_loop(path)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            read_price_csv(path)
        assert str(got.value) == str(exc)
        return
    got = read_price_csv(path)
    assert got.timestamps.tobytes() == want.timestamps.tobytes()
    assert got.prices.tobytes() == want.prices.tobytes()


BAD_TIMESTAMPS = ["1.0", "1_000", "1e3", "#", "", "-", "--5", "0x10", "\u0661\u0662", "\uff11"]
BAD_PRICES = ["nan", "-inf", "inf", "1e400", "1e-400", "#", "", "1_0", "0", "-1.5",
              "\u0661.\u0665", "0x10", "1,5"]
# line breaks of str.splitlines that numpy's reader does not split at
SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
PADDING = ["\x1f", "\xa0", "\u3000"] + SPLITLINES_ONLY


def iso_text(t, suffix):
    return datetime.fromtimestamp(t, timezone.utc).replace(tzinfo=None).isoformat() + suffix


@st.composite
def price_csv_texts(draw):
    """Clean epoch-style `timestamp,price` text, then up to three edits: `+`
    signs, padding, bad tokens, ISO timestamps, blank lines and extra fields.
    The whole file may instead be ISO-style, and the line endings vary."""
    t = draw(st.integers(-10**4, 10**9))
    blank = st.sampled_from(["", "", " ", "\t "])
    rows = []
    for _ in range(draw(st.sampled_from([0, 1] + [2, 3, 4, 6] * 3))):
        t += draw(st.integers(-1, 3600))
        p = draw(st.floats(min_value=1e-3, max_value=1e6))
        price = draw(st.sampled_from([repr(p), f"{p:.3f}", f"{p:e}", f"00{p}"]))
        tokens = ("0" * draw(st.integers(0, 2)) + str(t) if t >= 0 else str(t),
                  price.replace("e+", draw(st.sampled_from(["e", "E"]))))
        rows.append([draw(blank) + tok + draw(blank) for tok in tokens])
    if draw(st.integers(0, 5)) == 0:
        for row in rows:
            row[0] = iso_text(int(row[0]), draw(st.sampled_from(["", "Z", "+00:00"])))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        edit = draw(st.sampled_from(["sign", "sign", "pad", "pad", "bad", "iso", "blank", "field"]))
        field = draw(st.integers(0, 1))
        if edit == "sign":
            row[field] = "+" + row[field]
        elif edit == "pad":
            pad = draw(st.sampled_from(PADDING))
            row[field] = draw(st.sampled_from([pad + row[field], row[field] + pad]))
        elif edit == "bad":
            row[field] = draw(st.sampled_from(BAD_PRICES if field else BAD_TIMESTAMPS))
        elif edit == "iso" and row[0].strip().removeprefix("-").isdigit():
            row[0] = iso_text(int(row[0].strip()), draw(st.sampled_from(["", "Z"])))
        elif edit == "blank":
            row[1] += draw(st.sampled_from(["\n", "\n \n", "\n\t"]))
        elif edit == "field":
            row.append(draw(st.sampled_from(["", "1"])))
    header = draw(st.sampled_from(["timestamp,price"] * 12 + [" Timestamp,Price\t", "timestamp;price", ""]))
    text = "\n".join([header] + [",".join(row) for row in rows]) + draw(st.sampled_from(["\n", ""]))
    return text.replace("\n", draw(st.sampled_from(["\n"] * 5 + ["\r\n", "\r"] + SPLITLINES_ONLY)))


@pytest.fixture(scope="class")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "prices.csv"


class TestReadPriceCsvMatchesLineLoop:
    @given(text=price_csv_texts())
    @settings(max_examples=600, deadline=None)
    def test_generated_files(self, csv_path, text):
        csv_path.write_bytes(text.encode("utf-8"))
        assert_reads_as_line_loop(csv_path)

    @pytest.mark.parametrize("body", [
        "0,100.0\n60,101.0\n",
        "0,100.0\n+60,101.0\n",
        "+0,100.0\n60,101.0\n",
        "0,100.0\n60,+101.0\n",
        "0,100.0\n60,101.0\x1f\n",
        "0,100.0\n1.0,101.0\n",
        "0,100.0\n1_000,101.0\n",
        "0,100.0\n60,nan\n",
        "0,100.0\n60,1e400\n",
        "0,100.0\n#60,101.0\n",
        "0,100.0\n60,101.0,1\n",
        "0,100.0\n \n\t\n60,101.0",
        "0,100.0\r\n60,101.0\r\n",
        "0,100.0\n",
        "",
        "\u0660,100.0\n\u0661,101.0\n",
        "0,100.0\n60,-1.0\n",
        "60,100.0\n0,101.0\n",
        "1577836800,100.0\n2020-01-01T00:01:00,101.0\n",
        "2020-01-01T00:00:00,100.0\n1577836860,101.0\n",
        "2020-01-01T00:00:00,100.0\n2020-01-01T00:01:00.5,101.0\n",
    ] + [f"0,100.0\n60{sep},101.0\n120,102.0\n" for sep in SPLITLINES_ONLY])
    def test_known_inputs(self, tmp_path, body):
        path = tmp_path / "prices.csv"
        path.write_text("timestamp,price\n" + body)
        assert_reads_as_line_loop(path)

    @pytest.mark.parametrize("body, message", [
        ("0,100.0\n1.5,101.0\n2,102.0\n", "prices.csv:3: mixed timestamp styles"),
        ("0,100.0\n99999999999999999999,101.0\n", "prices.csv:3: timestamp 9+ outside the int64"),
    ])
    def test_loadtxt_warning_falls_back_to_line_loop(self, tmp_path, monkeypatch, body, message):
        # numpy releases that still parse a failed integer field through float
        # return a table and only warn; the line loop must decide such files
        def lenient_loadtxt(rows, dtype, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            return np.zeros(len(rows), dtype=dtype)

        path = tmp_path / "prices.csv"
        path.write_text("timestamp,price\n" + body)
        monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
        with pytest.raises(DataError, match=message):
            read_price_csv(path)

    def test_clean_epoch_file_skips_line_loop(self, tmp_path, monkeypatch):
        def no_loop(path, lines):
            raise AssertionError("clean epoch file went through the line loop")

        prices = make_prices(100.0 + np.arange(1000) * 0.25)
        path = tmp_path / "prices.csv"
        write_price_csv(prices, path)
        monkeypatch.setattr(series, "_read_price_lines", no_loop)
        got = read_price_csv(path)
        assert got.timestamps.tobytes() == prices.timestamps.tobytes()
        assert got.prices.tobytes() == prices.prices.tobytes()

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_with_compressed_suffix(self, tmp_path, suffix):
        # np.loadtxt would decompress a path with these suffixes
        path = tmp_path / f"prices{suffix}"
        path.write_text("timestamp,price\n0,100.0\n60,101.0\n")
        assert_reads_as_line_loop(path)


def old_write_price_csv(prices, path):
    """write_price_csv as the per-row loop it replaced: the oracle."""
    with open(path, "w") as fh:
        fh.write("timestamp,price\n")
        for t, p in zip(prices.timestamps, prices.prices):
            fh.write(f"{int(t)},{float(p)!r}\n")


def assert_writes_as_row_loop(prices, d):
    write_price_csv(prices, d / "new.csv")
    old_write_price_csv(prices, d / "old.csv")
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()
    assert not (d / "new.csv.tmp").exists()


@given(values=st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=2, max_size=40),
       start=st.integers(-10**12, 10**12))
@settings(max_examples=100, deadline=None)
def test_write_price_csv_matches_row_loop(tmp_path_factory, values, start):
    prices = PriceSeries(start + np.arange(len(values), dtype=np.int64) * 61, np.array(values))
    assert_writes_as_row_loop(prices, tmp_path_factory.mktemp("write"))


def test_write_price_csv_matches_row_loop_across_blocks(tmp_path):
    n = 2 * series._ROWS_PER_BLOCK + 5
    values = np.exp(np.random.default_rng(0).standard_normal(n)) * 100
    assert_writes_as_row_loop(make_prices(values), tmp_path)
