"""Series container, CSV ingestion, accumulation, and plot-table emission."""
import contextlib
import csv
import io
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from growthdyn import dataio
from growthdyn import (AXES_LINEAR, AXES_LOG_LOG, AXES_LOG_X, AXES_LOG_Y,
                       FORMAT_CSV, FORMAT_JSON, KIND_ANNUAL, KIND_CUMULATIVE,
                       KIND_GENERIC, DataIOError, LogAxisError, TimeSeries,
                       ValidationError, cumulate, emit_plot_series, read_csv)


class TestTimeSeries:
    def test_coercion_and_length(self):
        s = TimeSeries([1, 2, 3], [10, 20, 30])
        assert s.times.dtype == np.float64
        assert s.values.dtype == np.float64
        assert len(s) == 3
        assert s.kind == KIND_ANNUAL
        assert s.label == ""

    def test_times_must_increase(self):
        with pytest.raises(ValidationError):
            TimeSeries([1, 3, 2], [1, 1, 1])
        with pytest.raises(ValidationError):
            TimeSeries([1, 1, 2], [1, 1, 1])

    def test_extreme_times_order_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(TimeSeries([-1e308, 1e308], [1, 2])) == 2
            with pytest.raises(ValidationError):
                TimeSeries([1e308, -1e308], [1, 2])

    def test_finite_required(self):
        with pytest.raises(ValidationError):
            TimeSeries([1, 2], [1, np.inf])

    def test_counts_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            TimeSeries([1, 2], [1, -1], kind=KIND_ANNUAL)
        # generic series may go negative
        TimeSeries([1, 2], [1, -1], kind=KIND_GENERIC)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            TimeSeries([1, 2, 3], [1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            TimeSeries([], [])

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            TimeSeries([1], [1], kind="weekly")


class TestReadCsv:
    def test_two_rows(self):
        s = read_csv(io.StringIO("1914,100\n1915,120\n"))
        np.testing.assert_array_equal(s.times, [1914.0, 1915.0])
        np.testing.assert_array_equal(s.values, [100.0, 120.0])
        assert s.kind == KIND_ANNUAL

    def test_header_skipped(self):
        s = read_csv(io.StringIO("year,count\n1914,100\n1915,120\n"))
        assert len(s) == 2

    def test_blank_lines_ignored(self):
        s = read_csv(io.StringIO("1914,100\n\n1915,120\n\n"))
        assert len(s) == 2

    def test_non_monotone_reports_line(self):
        with pytest.raises(DataIOError, match="line 3"):
            read_csv(io.StringIO("1914,100\n1916,120\n1915,110\n"))

    def test_duplicate_time_reports_line(self):
        with pytest.raises(DataIOError, match="line 2"):
            read_csv(io.StringIO("1914,100\n1914,120\n"))

    def test_bad_cell_mid_file(self):
        with pytest.raises(DataIOError, match="line 2"):
            read_csv(io.StringIO("1914,100\n1915,lots\n"))

    def test_short_row(self):
        with pytest.raises(DataIOError, match="columns"):
            read_csv(io.StringIO("1914,100\n1915\n"))

    def test_empty_input(self):
        with pytest.raises(DataIOError, match="no data rows"):
            read_csv(io.StringIO("year,count\n"))

    def test_missing_file(self):
        with pytest.raises(DataIOError, match="cannot read"):
            read_csv("/nonexistent/path.csv")

    def test_column_selection(self):
        s = read_csv(io.StringIO("x,1914,100\ny,1915,120\n"),
                     time_col=1, value_col=2)
        np.testing.assert_array_equal(s.times, [1914.0, 1915.0])

    def test_path_input_and_metadata(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("1.0,4\n2.0,9\n")
        s = read_csv(path, label="tally", kind=KIND_GENERIC)
        assert s.label == "tally"
        assert s.kind == KIND_GENERIC

    def test_negative_count_rejected_with_origin(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,5\n2,-3\n")
        with pytest.raises(DataIOError, match="bad.csv"):
            read_csv(path)

    @pytest.mark.parametrize("text, line", [
        ("1,2\r3,4\r", 1),              # bare carriage returns only
        ("t,v\r\n1,2\r3,4\n", 2),      # one after a CRLF header
        ("1,2\n3,4\n5,6\r7,8\n", 3),
    ])
    def test_bare_carriage_return_in_a_stream(self, text, line):
        # a stream is not newline-translated; the csv module's error is mapped
        with pytest.raises(DataIOError, match=f"<stream>, line {line}:"):
            read_csv(io.StringIO(text))

    def test_bare_carriage_return_in_a_file(self, tmp_path):
        # text mode reads a bare carriage return as a line end
        path = tmp_path / "cr.csv"
        path.write_bytes(b"1,2\r3,4\r")
        np.testing.assert_array_equal(read_csv(path).values, [2.0, 4.0])


class TestCumulate:
    def test_prefix_sums(self):
        s = TimeSeries([1, 2, 3], [10, 20, 30])
        c = cumulate(s)
        np.testing.assert_array_equal(c.values, [10.0, 30.0, 60.0])
        np.testing.assert_array_equal(c.times, s.times)
        assert c.kind == KIND_CUMULATIVE

    def test_only_annual_accepted(self):
        c = cumulate(TimeSeries([1, 2], [1, 1]))
        with pytest.raises(ValidationError):
            cumulate(c)

    @pytest.mark.parametrize("seed", range(3))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(10, dtype=float)
        v = rng.uniform(0.0, 5.0, 10)
        scaled = cumulate(TimeSeries(t, 3.0 * v))
        plain = cumulate(TimeSeries(t, v))
        np.testing.assert_allclose(scaled.values, 3.0 * plain.values, rtol=1e-12)

    def test_overflowing_sum_refused_without_a_warning(self):
        with pytest.raises(ValidationError, match="values must hold finite values only"):
            cumulate(TimeSeries([1, 2], [1e308, 1e308]))

    def test_nondecreasing(self):
        c = cumulate(TimeSeries([1, 2, 3, 4], [5, 0, 2, 1]))
        assert np.all(np.diff(c.values) >= 0)


class TestEmitPlotSeries:
    def test_csv_round_trip(self):
        s = TimeSeries([1, 2, 3], [10, 20, 30], label="counts")
        buf = io.StringIO()
        emit_plot_series([s], AXES_LINEAR, buf)
        back = read_csv(io.StringIO(buf.getvalue()))
        np.testing.assert_array_equal(back.times, s.times)
        np.testing.assert_array_equal(back.values, s.values)

    def test_shared_abscissa_makes_three_columns(self):
        t = [1.0, 2.0]
        a = TimeSeries(t, [1, 2], label="a")
        b = TimeSeries(t, [3, 4], label="b")
        buf = io.StringIO()
        emit_plot_series([a, b], AXES_LINEAR, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,a,b"
        assert lines[1] == "1.0,1.0,3.0"
        assert lines[2] == "2.0,2.0,4.0"

    def test_distinct_abscissas_get_numbered_columns(self):
        a = TimeSeries([1.0, 2.0], [1, 2], label="a")
        b = TimeSeries([1.0, 2.0, 3.0], [3, 4, 5], label="b")
        buf = io.StringIO()
        emit_plot_series([a, b], AXES_LINEAR, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t0,a,t1,b"
        # ragged group padded with empty cells
        assert lines[3] == ",,3.0,5.0"

    def test_signed_zero_abscissas_stay_apart(self):
        # -0.0 == 0.0, but only bitwise-equal abscissas share a column
        buf = io.StringIO()
        emit_plot_series([("a", [0.0, 1.0], [1, 2]), ("b", [-0.0, 1.0], [3, 4])],
                         AXES_LINEAR, buf)
        assert buf.getvalue().splitlines()[0] == "t0,a,t1,b"
        first = read_csv(io.StringIO(buf.getvalue()), kind=KIND_GENERIC)
        second = read_csv(io.StringIO(buf.getvalue()), time_col=2, value_col=3,
                          kind=KIND_GENERIC)
        assert not np.signbit(first.times[0]) and np.signbit(second.times[0])
        np.testing.assert_array_equal(second.values, [3.0, 4.0])

    def test_log_log_transforms_both_columns(self):
        s = TimeSeries([1.0, 10.0, 100.0], [1.0, 100.0, 10000.0], label="sq")
        buf = io.StringIO()
        emit_plot_series([s], AXES_LOG_LOG, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "log10_t,sq"
        assert lines[1] == "0.0,0.0"
        assert lines[3] == "2.0,4.0"

    def test_log_y_zero_names_series_and_index(self):
        s = TimeSeries([1.0, 2.0], [0.0, 5.0], label="counts")
        with pytest.raises(LogAxisError) as info:
            emit_plot_series([s], AXES_LOG_Y, io.StringIO())
        message = str(info.value)
        assert "counts" in message
        assert "index 0" in message

    def test_log_x_zero_rejected(self):
        s = TimeSeries([0.0, 2.0], [1.0, 5.0], label="counts")
        with pytest.raises(LogAxisError):
            emit_plot_series([s], AXES_LOG_X, io.StringIO())

    def test_triples_accepted(self):
        buf = io.StringIO()
        emit_plot_series([("curve", [1.0, 2.0], [3.0, 4.0])], AXES_LINEAR, buf)
        assert buf.getvalue().splitlines()[0] == "t,curve"

    def test_unlabeled_series_gets_positional_name(self):
        buf = io.StringIO()
        emit_plot_series([TimeSeries([1.0], [2.0])], AXES_LINEAR, buf)
        assert buf.getvalue().splitlines()[0] == "t,series0"

    def test_json_payload(self):
        s = TimeSeries([1.0, 2.0], [3.0, 4.0], label="counts")
        buf = io.StringIO()
        emit_plot_series([s], AXES_LINEAR, buf, format=FORMAT_JSON)
        payload = json.loads(buf.getvalue())
        assert payload["schema"] == 1
        assert payload["axes"] == AXES_LINEAR
        assert payload["series"] == [{"label": "counts",
                                      "x": [1.0, 2.0], "y": [3.0, 4.0]}]
        assert buf.getvalue().endswith("\n")

    def test_json_is_byte_stable(self):
        s = TimeSeries([1.0, 2.0], [3.0, 4.0], label="counts")
        bufs = [io.StringIO(), io.StringIO()]
        for buf in bufs:
            emit_plot_series([s], AXES_LOG_Y, buf, format=FORMAT_JSON)
        assert bufs[0].getvalue() == bufs[1].getvalue()

    def test_file_output(self, tmp_path):
        target = tmp_path / "out.csv"
        emit_plot_series([TimeSeries([1.0], [2.0], label="v")],
                         AXES_LINEAR, target)
        assert target.read_text() == "t,v\n1.0,2.0\n"

    def test_empty_entry_list_rejected(self):
        with pytest.raises(ValidationError):
            emit_plot_series([], AXES_LINEAR, io.StringIO())

    def test_bad_axes_and_format(self):
        s = TimeSeries([1.0], [2.0])
        with pytest.raises(ValidationError):
            emit_plot_series([s], "semilog", io.StringIO())
        with pytest.raises(ValidationError):
            emit_plot_series([s], AXES_LINEAR, io.StringIO(), format="tsv")

    def test_bad_entry_type(self):
        with pytest.raises(ValidationError):
            emit_plot_series([42], AXES_LINEAR, io.StringIO())

# Pinned results of the reader, one case per rule: (text, (times, values)) on
# success, (text, message) on failure.  A StringIO has no name, so every
# message starts with "<stream>".
READ_CASES = [
    # a one-column header is a short row, not a header line
    ("time\n1,2\n3,4\n", "<stream>, line 1: expected at least 2 columns, got 1"),
    ("#c\n1,2\n", "<stream>, line 1: expected at least 2 columns, got 1"),
    ("t,v\n1,2\n3\n", "<stream>, line 3: expected at least 2 columns, got 1"),
    # header-only, empty and blank input
    ("year,count\n", "<stream>: no data rows"),
    ("", "<stream>: no data rows"),
    ("\n\n", "<stream>: no data rows"),
    ("year,count\n\n  \n", "<stream>: no data rows"),
    # only the first line may be a header; a blank line before it counts
    ("\nyear,count\n1,2\n",
     "<stream>, line 2: could not parse 'year', 'count' as numbers"),
    ("a,b\nc,d\n", "<stream>, line 2: could not parse 'c', 'd' as numbers"),
    ("t,v\n1,2\n2,x\n", "<stream>, line 3: could not parse '2', 'x' as numbers"),
    # a quoted newline makes one row of two lines; rows are numbered
    ('1,2\n"3\n",4\n5,x\n',
     "<stream>, line 3: could not parse '5', 'x' as numbers"),
    # blank and whitespace-only lines are skipped
    ("1,2\n\n   \n , \n\t,\n3,4\n", ([1.0, 3.0], [2.0, 4.0])),
    ('"1","2"\n3,"4.5"\n', ([1.0, 3.0], [2.0, 4.5])),
    ("1,2,x\n3,4,y,z\n", ([1.0, 3.0], [2.0, 4.0])),
    ("t,v\n1_000,2\n2_000,3\n", ([1000.0, 2000.0], [2.0, 3.0])),
    ("t,v\r\n1,2\r\n3,4\r\n", ([1.0, 3.0], [2.0, 4.0])),
    (" 1 , 2 \n\xa03,4\n", ([1.0, 3.0], [2.0, 4.0])),
    ('1,2\n"3\n",4\n', ([1.0, 3.0], [2.0, 4.0])),
    # non-finite cells, overflow included
    ("t,v\n1,2\nnan,3\n", "<stream>, line 3: non-finite value"),
    ("1,2\n\n2,inf\n", "<stream>, line 3: non-finite value"),
    ("1,2\n3,4e400\n", "<stream>, line 2: non-finite value"),
    # time order, with blank lines counted
    ("t,v\n1,2\n\n1,3\n", "<stream>, line 4: duplicate time 1.0"),
    ("t,v\n1,2\n3,4\n\n2,5\n",
     "<stream>, line 5: non-monotone time 2.0 after 3.0"),
    ("t,v\n1,2\n2,-1\n", "<stream>: annual series must be non-negative; "
                         "first offender at index 1"),
]


class TestReadCsvEquivalence:
    @pytest.mark.parametrize("text, expected", READ_CASES)
    def test_pinned_result(self, text, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, str):
                with pytest.raises(DataIOError) as info:
                    read_csv(io.StringIO(text))
                assert str(info.value) == expected
            else:
                s = read_csv(io.StringIO(text))
                assert s.times.tolist() == expected[0]
                assert s.values.tolist() == expected[1]

    def test_column_pick_from_wide_rows(self):
        s = read_csv(io.StringIO("a,b,c\n1,2,3\n4,5,6\n"), time_col=2,
                     value_col=0)
        assert s.times.tolist() == [3.0, 6.0]
        assert s.values.tolist() == [1.0, 4.0]

    def test_negative_column_counts_from_the_row_end(self):
        s = read_csv(io.StringIO("a,b,c\n1,2,3\n4,5,6,7\n"), time_col=-1,
                     value_col=0)
        assert s.times.tolist() == [3.0, 7.0]
        assert s.values.tolist() == [1.0, 4.0]

    def test_negative_column_past_the_row(self):
        # -3 needs 3 columns, as 2 does
        with pytest.raises(DataIOError) as info:
            read_csv(io.StringIO("1,2\n3,4\n"), time_col=-3)
        assert str(info.value) == \
            "<stream>, line 1: expected at least 3 columns, got 2"

    def test_same_column_twice(self):
        s = read_csv(io.StringIO("1,x\n2,y\n"), time_col=0, value_col=0)
        assert s.values.tolist() == [1.0, 2.0]

    def test_short_header_for_a_far_column(self):
        with pytest.raises(DataIOError) as info:
            read_csv(io.StringIO("t,v\n1,2,3\n"), value_col=2)
        assert str(info.value) == \
            "<stream>, line 1: expected at least 3 columns, got 2"

    def test_column_index_past_any_row(self):
        with pytest.raises(DataIOError) as info:
            read_csv(io.StringIO("1,2\n3,4\n"), time_col=2 ** 63)
        assert str(info.value) == "<stream>, line 1: expected at least " \
            "9223372036854775809 columns, got 2"

    def test_30k_rows_bit_identical_to_float(self, tmp_path):
        times, values = _wide_cells()
        path = tmp_path / "wide.csv"
        path.write_text("time,value\n" + "".join(
            f"{t},{v}\n" for t, v in zip(times, values)))
        s = read_csv(path)
        want_t = np.array([float(t) for t in times])
        want_v = np.array([float(v) for v in values])
        assert s.times.flags.c_contiguous and s.values.flags.c_contiguous
        np.testing.assert_array_equal(s.times.view(np.uint64),
                                      want_t.view(np.uint64))
        np.testing.assert_array_equal(s.values.view(np.uint64),
                                      want_v.view(np.uint64))

    def test_negative_indices_take_the_loadtxt_pass(self, tmp_path, monkeypatch):
        times, values = _wide_cells()
        path = tmp_path / "wide3.csv"
        path.write_text("id,time,value\n" + "".join(
            f"{i},{t},{v}\n" for i, (t, v) in enumerate(zip(times, values))))
        entered = []
        row_pass = dataio._read_rows
        monkeypatch.setattr(dataio, "_read_rows",
                            lambda *args: entered.append(args) or row_pass(*args))
        want = read_csv(path, time_col=1, value_col=2)
        for cols in ((-2, -1), (1, -1), (-2, 2)):
            got = read_csv(path, time_col=cols[0], value_col=cols[1])
            np.testing.assert_array_equal(got.times.view(np.uint64),
                                          want.times.view(np.uint64))
            np.testing.assert_array_equal(got.values.view(np.uint64),
                                          want.values.view(np.uint64))
        assert entered == []


def _wide_cells(n=30_000):
    """n (time, value) cell pairs: times spread over six decades, values
    with 1-17 significant digits and exponents down to the subnormals."""
    rng = np.random.default_rng(11)
    steps = rng.uniform(0.5, 1.5, n) * 10.0 ** rng.integers(-3, 3, n)
    times = [repr(t) for t in np.cumsum(steps).tolist()]
    digits = rng.integers(0, 10, (n, 17))
    values = ["".join(map(str, d[:1])) + "." + "".join(map(str, d[1:k]))
              + f"e{e:+d}"
              for d, k, e in zip(digits, rng.integers(2, 18, n),
                                 rng.integers(-320, 308, n))]
    plain = rng.uniform(0, 1e6, len(values[::7])).tolist()
    values[::7] = [repr(v) for v in plain]
    return times, values


class _ReadOnly:
    """A stream that has nothing but read(), so it can neither tell nor seek."""

    def __init__(self, text):
        self._text = text

    def read(self):
        return self._text


@contextlib.contextmanager
def _source(how, text, tmp_path):
    """Yield ``text`` as read_csv input of one kind, and the origin it names."""
    if how in ("path", "bom-path"):
        path = tmp_path / "in.csv"
        path.write_text(text, encoding="utf-8-sig" if how == "bom-path" else "utf-8")
        yield path, str(path)
    elif how == "pipe":  # a text stream that cannot seek, as stdin from a pipe
        r, w = os.pipe()
        with open(w, "w", encoding="utf-8") as out:
            out.write(text)
        with open(r, encoding="utf-8") as fh:
            yield fh, str(fh.name)
    elif how == "mid-iteration":  # a file cannot tell its position while iterated
        path = tmp_path / "in.csv"
        path.write_text("# exported by a spreadsheet\n" + text, encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            next(fh)
            yield fh, str(path)
    elif how == "read-only":
        yield _ReadOnly(text), "<stream>"
    elif how == "bom":
        yield io.StringIO("\ufeff" + text), "<stream>"
    else:  # parsing starts at the stream's position, after its preamble
        stream = io.StringIO("# exported by a spreadsheet\n" + text)
        stream.readline()
        yield stream, "<stream>"


def _write_rows(path, n, bad_line=None, prefix=""):
    """A header and n rows; line ``bad_line`` (1-based, header counted) has a bad cell."""
    rows = [f"{float(k)!r},{float(k * k + 0.5)!r}\n" for k in range(1, n + 1)]
    if bad_line is not None:
        rows[bad_line - 2] = f"{float(bad_line)!r},x\n"
    path.write_text(prefix + "t,value\n" + "".join(rows), encoding="utf-8")


class TestReadCsvStreams:
    @pytest.mark.parametrize("how", ["path", "bom-path", "bom", "pipe",
                                     "mid-iteration", "read-only",
                                     "after-preamble"])
    @pytest.mark.parametrize("text, expected", READ_CASES)
    def test_every_input_reads_as_a_plain_stream(self, tmp_path, how, text,
                                                 expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with _source(how, text, tmp_path) as (source, origin):
                try:
                    s = read_csv(source)
                except DataIOError as exc:
                    assert str(exc) == expected.replace("<stream>", origin, 1)
                else:
                    assert [s.times.tolist(), s.values.tolist()] == list(expected)

    @pytest.mark.parametrize("text", ["\ufeff1.0,2.0\n2.0,3.0\n3.0,4.0\n",
                                      "\ufefft,v\n1.0,2.0\n2.0,3.0\n3.0,4.0\n"])
    def test_byte_order_mark_keeps_the_first_row(self, tmp_path, text):
        path = tmp_path / "excel.csv"
        path.write_text(text, encoding="utf-8")
        for source in (path, io.StringIO(text)):
            s = read_csv(source)
            assert s.times.tolist() == [1.0, 2.0, 3.0]
            assert s.values.tolist() == [2.0, 3.0, 4.0]

    def test_row_pass_names_a_line_far_into_a_file(self, tmp_path):
        # the fast path reads past line 25,001 before it fails; the row pass
        # re-reads from the top, after the byte-order mark
        path = tmp_path / "far.csv"
        _write_rows(path, 30_000, bad_line=25_001, prefix="\ufeff")
        with pytest.raises(DataIOError) as info:
            read_csv(path)
        assert str(info.value) == \
            f"{path}, line 25001: could not parse '25001.0', 'x' as numbers"

    def test_30k_rows_parse_without_a_whole_file_copy(self, tmp_path):
        path = tmp_path / "long.csv"
        _write_rows(path, 30_000)
        read_csv(path)  # first-call imports are not the reader's memory
        tracemalloc.start()
        try:
            s = read_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s) == 30_000
        # The file is 0.6 MB; its parsed arrays take 0.48 MB.
        assert peak <= 1.5e6

    @pytest.mark.parametrize("rows_before", [0, 5000])
    def test_undecodable_file_cannot_be_read(self, tmp_path, rows_before):
        # rows_before=5000 puts the bad byte past the decoder's first chunk
        path = tmp_path / "latin.csv"
        _write_rows(path, rows_before)
        with open(path, "ab") as fh:
            fh.write("9e9,ann\xe9e\n".encode("latin-1"))
        with pytest.raises(DataIOError) as info:
            read_csv(path)
        assert str(info.value).startswith(
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xe9")

    def test_undecodable_stream_cannot_be_read(self):
        stream = io.TextIOWrapper(io.BytesIO("t,v\n1,2\n2,\xe9\n".encode("latin-1")),
                                  encoding="utf-8")
        with pytest.raises(DataIOError, match="^cannot read <stream>: 'utf-8' codec"):
            read_csv(stream)


NAN, INF = float("nan"), float("inf")

# Two abscissa groups, the second ragged past the first; labels with a comma,
# a quote and a non-ASCII character; every float corner case; one empty series.
GOLDEN_SERIES = [
    ("a=1,b=2", [0.0, 0.5, 1.0], [NAN, INF, -INF]),
    ('say "hi"', [0.0, 0.5, 1.0], [-0.0, 5e-324, 1e308]),
    ("température", [-1.0, 1e-300, 2.0, 3.0, 4.0],
     [0.1, -2.5, 1.0 / 3.0, 7.0, 1e22]),
    ("empty", [], []),
]

GOLDEN_CSV = (
    't0,"a=1,b=2","say ""hi""",t1,température,t2,empty\n'
    "0.0,nan,-0.0,-1.0,0.1,,\n"
    "0.5,inf,5e-324,1e-300,-2.5,,\n"
    "1.0,-inf,1e+308,2.0,0.3333333333333333,,\n"
    ",,,3.0,7.0,,\n"
    ",,,4.0,1e+22,,\n")

GOLDEN_JSON = """\
{
  "axes": "linear",
  "schema": 1,
  "series": [
    {
      "label": "a=1,b=2",
      "x": [
        0.0,
        0.5,
        1.0
      ],
      "y": [
        NaN,
        Infinity,
        -Infinity
      ]
    },
    {
      "label": "say \\"hi\\"",
      "x": [
        0.0,
        0.5,
        1.0
      ],
      "y": [
        -0.0,
        5e-324,
        1e+308
      ]
    },
    {
      "label": "temp\\u00e9rature",
      "x": [
        -1.0,
        1e-300,
        2.0,
        3.0,
        4.0
      ],
      "y": [
        0.1,
        -2.5,
        0.3333333333333333,
        7.0,
        1e+22
      ]
    },
    {
      "label": "empty",
      "x": [],
      "y": []
    }
  ]
}
"""


def _reference_payload(series, axes, format):
    """The plot-file text as one csv.writer row at a time, or one json.dump."""
    entries = []
    for label, x, y in series:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if axes in (AXES_LOG_X, AXES_LOG_LOG):
            x = np.log10(x)
        if axes in (AXES_LOG_Y, AXES_LOG_LOG):
            y = np.log10(y)
        entries.append((label, x, y))
    out = io.StringIO()
    if format == FORMAT_JSON:
        json.dump({"schema": 1, "axes": axes,
                   "series": [{"label": label, "x": x.tolist(), "y": y.tolist()}
                              for label, x, y in entries]},
                  out, indent=2, sort_keys=True)
        out.write("\n")
        return out.getvalue()
    x_name = "log10_t" if axes in (AXES_LOG_X, AXES_LOG_LOG) else "t"
    groups = []
    for label, x, y in entries:
        if groups and np.array_equal(groups[-1][0], x):
            groups[-1][1].append((label, y))
        else:
            groups.append((x, [(label, y)]))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([name for gi, (x, members) in enumerate(groups)
                     for name in [x_name if len(groups) == 1 else f"{x_name}{gi}"]
                     + [label for label, _ in members]])
    for i in range(max(x.size for x, _ in groups)):
        row = []
        for x, members in groups:
            if i < x.size:
                row.append(repr(float(x[i])))
                row.extend(repr(float(y[i])) for _, y in members)
            else:
                row.extend([""] * (1 + len(members)))
        writer.writerow(row)
    return out.getvalue()


def _random_payload(rng, axes):
    """Ragged groups longer than a write block, with corner-case values."""
    labels = ["plain", "a=1,b=2", 'q"uote', "naïve ✓", "two\nlines", ""]
    special = [NAN, INF, -INF, -0.0, 0.0, 5e-324, 1e308, -1e308, 1e-300]
    series = []
    for _ in range(rng.integers(1, 4)):
        n = int(rng.choice([0, 1, 7, 1023, 1024, 1025, 2600]))
        x = np.sort(rng.uniform(0.1, 50.0, n))
        for _ in range(rng.integers(1, 4)):
            y = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
            if axes == AXES_LINEAR and n:
                pick = rng.integers(0, n, max(1, n // 10))
                y[pick] = rng.choice(special, pick.size)
            else:
                y = np.abs(y) + 1e-300
            series.append((str(rng.choice(labels)) or "blank", x, y))
    return series


class TestPlotFileBytes:
    @pytest.mark.parametrize("block_rows", [None, 1, 2, 4])
    @pytest.mark.parametrize("format, golden", [(FORMAT_CSV, GOLDEN_CSV),
                                                (FORMAT_JSON, GOLDEN_JSON)])
    def test_golden_bytes(self, monkeypatch, tmp_path, block_rows, format,
                          golden):
        if block_rows is not None:
            monkeypatch.setattr(dataio, "_BLOCK_ROWS", block_rows, raising=False)
        buf = io.StringIO()
        emit_plot_series(GOLDEN_SERIES, AXES_LINEAR, buf, format=format)
        assert buf.getvalue() == golden
        target = tmp_path / ("golden." + format)
        emit_plot_series(GOLDEN_SERIES, AXES_LINEAR, target, format=format)
        assert target.read_bytes() == golden.encode("utf-8")

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("format", [FORMAT_CSV, FORMAT_JSON])
    def test_matches_reference_writer(self, seed, format):
        rng = np.random.default_rng(seed)
        axes = (AXES_LINEAR, AXES_LOG_LOG)[seed % 2]
        series = _random_payload(rng, axes)
        buf = io.StringIO()
        emit_plot_series(series, axes, buf, format=format)
        assert buf.getvalue() == _reference_payload(series, axes, format)

    def test_csv_rereads_bit_for_bit(self):
        rng = np.random.default_rng(5)
        t = np.cumsum(rng.uniform(0.5, 1.5, 2500))
        y = rng.uniform(0, 1, 2500) * 10.0 ** rng.integers(-300, 300, 2500)
        buf = io.StringIO()
        emit_plot_series([("v", t, y)], AXES_LINEAR, buf)
        back = read_csv(io.StringIO(buf.getvalue()))
        assert back.times.tolist() == t.tolist()
        assert back.values.tolist() == y.tolist()
        assert all(math.isfinite(v) for v in back.values.tolist())
