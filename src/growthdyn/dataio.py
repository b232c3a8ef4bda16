"""Time-series ingestion, the cumulative transform, and plot-ready output.

CSV input is two numeric columns (time, value) in UTF-8 with an optional
byte-order mark and single header line, comma delimiter, dot decimal separator.
The reader parses the stream it is given: numpy's ``loadtxt`` reads both
columns in one call, and a line-by-line ``csv`` pass re-reads the stream only
after that fails, to name the faulty line (or to accept a cell that ``float``
takes and numpy does not, such as ``1_000``); only a stream that cannot tell
its position, such as a pipe, is copied into memory first.  Emitted plot files
use log base 10 whenever a log axis is requested; model math elsewhere in the
package works in natural logs.  Floats are written with repr(), i.e. the
shortest decimal that round-trips, so emitting and re-reading a series is
lossless.  Writers stream fixed blocks of rows: no input or output file is held
whole in memory.  A JSON plot file is laid out exactly as
``json.dump(payload, indent=2, sort_keys=True)`` lays it out.

Times are plain floats.  Gaps in the time grid are allowed (only strict
monotonicity is enforced) and cumulate() sums the observations exactly as
given — it never interpolates missing rows.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataIOError, LogAxisError, ValidationError, check_array, check_number

KIND_ANNUAL = "annual"
KIND_CUMULATIVE = "cumulative"
KIND_GENERIC = "generic"
_KINDS = (KIND_ANNUAL, KIND_CUMULATIVE, KIND_GENERIC)

AXES_LINEAR = "linear"
AXES_LOG_X = "log-x"
AXES_LOG_Y = "log-y"
AXES_LOG_LOG = "log-log"
_AXES = (AXES_LINEAR, AXES_LOG_X, AXES_LOG_Y, AXES_LOG_LOG)

FORMAT_CSV = "csv"
FORMAT_JSON = "json"

_JSON_SCHEMA_VERSION = 1
# Rows (csv) or array items (json) formatted per write.
_BLOCK_ROWS = 1024
_JSON_ITEM_SEP = ",\n" + 8 * " "


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered (time, value) samples with a kind tag.

    kind "annual" marks per-period observations, "cumulative" their running
    sums, and "generic" anything else (generic series may carry negative
    values; the observation kinds may not).  times (strictly increasing) and
    values, of one shape (n,) with n >= 1, follow the array rule
    (errors.check_array): they are stored as float64 arrays (a float64 array
    as given, without a copy) of finite values.
    """

    times: np.ndarray
    values: np.ndarray
    label: str = ""
    kind: str = KIND_ANNUAL

    def __post_init__(self):
        t = check_array("times", self.times, (None,))
        v = check_array("values", self.values, t.shape)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if not (t.size and (t[1:] > t[:-1]).all()):  # np.diff would overflow near ±1e308
            raise ValidationError("times must be non-empty and strictly increasing")
        if self.kind not in _KINDS:
            raise ValidationError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind in (KIND_ANNUAL, KIND_CUMULATIVE) and (v < 0).any():
            raise ValidationError(
                f"{self.kind} series must be non-negative; "
                f"first offender at index {int(np.argmax(v < 0))}")

    def __len__(self):
        return self.times.size


def read_csv(source, time_col: int = 0, value_col: int = 1, label: str = "",
             kind: str = KIND_ANNUAL) -> TimeSeries:
    """Parse a two-column CSV file or stream (from its position) into a TimeSeries.

    A leading byte-order mark, and then a header line that does not parse as
    numbers, are skipped.  Malformed, empty and undecodable input raise
    DataIOError, naming the 1-based line where there is one.
    """
    time_col = check_number("time_col", time_col, int)
    value_col = check_number("value_col", value_col, int)
    is_stream = hasattr(source, "read")
    origin = getattr(source, "name", "<stream>") if is_stream else str(source)
    try:
        with (contextlib.nullcontext(source) if is_stream
              else open(source, "r", encoding="utf-8")) as fh:
            return _read_stream(fh, origin, time_col, value_col, label, kind)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataIOError(f"cannot read {origin}: {exc}") from exc


def _read_stream(fh, origin, time_col, value_col, label, kind):
    try:
        start = fh.tell()
    except (AttributeError, OSError):  # a pipe, or a file being iterated
        fh, start = io.StringIO(fh.read()), 0  # the row pass may re-read it
    if fh.read(1) != "\ufeff":  # Excel's "CSV UTF-8" export writes one
        fh.seek(start)
    start = fh.tell()
    # the columns a row needs, counted from its end for a negative index
    width = max(time_col, value_col, -1 - min(time_col, value_col)) + 1
    try:
        return TimeSeries(*_load_columns(fh, start, width, time_col, value_col),
                          label=label, kind=kind)
    except UnicodeDecodeError:
        raise  # unreadable, not malformed: no row pass can name a line
    except (ValueError, OverflowError, ValidationError, csv.Error):
        fh.seek(start)  # the row pass gives the verdict and its line number
    return _read_rows(fh, origin, width, time_col, value_col, label, kind)


def _load_columns(fh, start, width, time_col, value_col):
    """Both columns in one np.loadtxt call, line 1 skipped by _read_rows' rule."""
    first = next(csv.reader([fh.readline()]), [])
    if len(first) < width or (
            _is_number(first[time_col]) and _is_number(first[value_col])):
        fh.seek(start)  # not a header line
    data = fh.tell()
    if not any(line.strip() for line in iter(fh.readline, "")):
        raise ValueError("no data rows")  # loadtxt would only warn
    fh.seek(data)
    cols = np.loadtxt(fh, delimiter=",", usecols=(time_col, value_col),
                      comments=None, quotechar='"', ndmin=2)
    return np.ascontiguousarray(cols[:, 0]), np.ascontiguousarray(cols[:, 1])


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_rows(fh, origin, width, time_col, value_col, label, kind):
    """Row-by-row parse that names the first faulty line."""
    times: list[float] = []
    values: list[float] = []
    reader = csv.reader(fh)
    try:
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < width:
                raise DataIOError(
                    f"{origin}, line {lineno}: expected at least {width} columns, "
                    f"got {len(row)}")
            try:
                t = float(row[time_col])
                v = float(row[value_col])
            except ValueError:
                if lineno == 1 and not times:
                    continue  # header line
                raise DataIOError(
                    f"{origin}, line {lineno}: could not parse "
                    f"{row[time_col]!r}, {row[value_col]!r} as numbers") from None
            if not (math.isfinite(t) and math.isfinite(v)):
                raise DataIOError(f"{origin}, line {lineno}: non-finite value")
            if times:
                if t == times[-1]:
                    raise DataIOError(f"{origin}, line {lineno}: duplicate time {t!r}")
                if t < times[-1]:
                    raise DataIOError(
                        f"{origin}, line {lineno}: non-monotone time {t!r} "
                        f"after {times[-1]!r}")
            times.append(t)
            values.append(v)
    except csv.Error as exc:  # a bare carriage return, say
        raise DataIOError(f"{origin}, line {reader.line_num}: {exc}") from None
    if not times:
        raise DataIOError(f"{origin}: no data rows")
    try:
        return TimeSeries(np.array(times), np.array(values), label=label, kind=kind)
    except ValidationError as exc:
        raise DataIOError(f"{origin}: {exc}") from exc


def cumulate(s: TimeSeries) -> TimeSeries:
    """Running prefix sums of an annual series, on the same time grid."""
    if s.kind != KIND_ANNUAL:
        raise ValidationError(
            f"cumulate expects an annual series, got kind {s.kind!r}")
    with np.errstate(over="ignore"):  # a sum past float64 is refused as non-finite
        sums = np.cumsum(s.values)
    return TimeSeries(s.times.copy(), sums, label=s.label, kind=KIND_CUMULATIVE)


def _coerce_series(entry, index):
    """Accept TimeSeries or (label, x, y) triples."""
    if isinstance(entry, TimeSeries):
        return entry.label or f"series{index}", entry.times, entry.values
    try:
        label, x, y = entry
    except (TypeError, ValueError):
        raise ValidationError(
            f"entry {index}: expected TimeSeries or (label, x, y) triple, "
            f"got {type(entry).__name__}") from None
    x = check_array(f"entry {index}: x", x, (None,), finite=False)
    return str(label) or f"series{index}", x, check_array(f"entry {index}: y", y, x.shape,
                                                          finite=False)


def check_log_axes(label, x, y, axes):
    """Raise LogAxisError if a log axis of ``axes`` would get a value <= 0."""
    for log_on, name, what, v in (
            (axes in (AXES_LOG_X, AXES_LOG_LOG), "log-x", "abscissa", x),
            (axes in (AXES_LOG_Y, AXES_LOG_LOG), "log-y", "value", y)):
        bad = np.flatnonzero(v <= 0) if log_on else ()
        if len(bad):
            raise LogAxisError(
                f"{name} axis: series {label!r} has non-positive {what} "
                f"{float(v[bad[0]])!r} at index {int(bad[0])}")


def _apply_axes(label, x, y, axes):
    check_log_axes(label, x, y, axes)
    if axes in (AXES_LOG_X, AXES_LOG_LOG):
        x = np.log10(x)
    if axes in (AXES_LOG_Y, AXES_LOG_LOG):
        y = np.log10(y)
    return x, y


def emit_plot_series(series, axes: str, out, format: str = FORMAT_CSV) -> None:
    """Write plot-ready columns for one or more series.

    Series sharing an identical abscissa are grouped behind one shared
    x-column; csv output pads ragged groups with empty cells.  ``out`` is a
    path or a writable text stream.  JSON output is one object with the axes
    tag and parallel x/y arrays per series.
    """
    if axes not in _AXES:
        raise ValidationError(f"axes must be one of {_AXES}, got {axes!r}")
    if format not in (FORMAT_CSV, FORMAT_JSON):
        raise ValidationError(f"format must be csv or json, got {format!r}")
    entries = [_coerce_series(entry, i) for i, entry in enumerate(series)]
    if not entries:
        raise ValidationError("nothing to emit")
    transformed = [(label,) + _apply_axes(label, x, y, axes)
                   for label, x, y in entries]

    write = _write_json if format == FORMAT_JSON else _write_csv
    if hasattr(out, "write"):
        write(transformed, axes, out)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write(transformed, axes, fh)


def _write_json(transformed, axes, fh):
    """The json.dump(indent=2, sort_keys=True) layout, arrays encoded in blocks."""
    fh.write(f'{{\n  "axes": {json.dumps(axes)},\n'
             f'  "schema": {_JSON_SCHEMA_VERSION},\n  "series": [')
    x_key = x_text = None
    for i, (label, x, y) in enumerate(transformed):
        fh.write(f'{"," if i else ""}\n    {{\n      "label": {json.dumps(label)},'
                 f'\n      "x": ')
        key = x.tobytes()
        if key != x_key:  # series on one abscissa share its text
            x_key, x_text = key, "".join(_json_array(x))
        fh.write(x_text + ',\n      "y": ')
        fh.writelines(_json_array(y))
        fh.write("\n    }")
    fh.write("\n  ]\n}\n")


def _json_array(values):
    if not values.size:
        yield "[]"
        return
    # The C encoder spells floats as json.dump does (repr, NaN, Infinity).
    for start in range(0, values.size, _BLOCK_ROWS):
        block = json.dumps(values[start:start + _BLOCK_ROWS].tolist(),
                           separators=(_JSON_ITEM_SEP, ": "))
        yield (_JSON_ITEM_SEP if start else "[\n        ") + block[1:-1]
    yield "\n      ]"


def _write_csv(transformed, axes, fh):
    x_name = "log10_t" if axes in (AXES_LOG_X, AXES_LOG_LOG) else "t"
    # Group consecutive series that share an abscissa behind one x column.
    groups = []
    for label, x, y in transformed:
        if groups and groups[-1][0].tobytes() == x.tobytes():  # keeps -0.0 apart
            groups[-1][1].append((label, y))
        else:
            groups.append((x, [(label, y)]))
    header = []
    for gi, (x, members) in enumerate(groups):
        header.append(x_name if len(groups) == 1 else f"{x_name}{gi}")
        header.extend(label for label, _ in members)
    csv.writer(fh, lineterminator="\n").writerow(header)  # quotes labels
    n_rows = max(x.size for x, _ in groups)
    for start in range(0, n_rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_rows)
        parts = []
        for x, members in groups:
            columns = [x] + [y for _, y in members]
            rows = list(map(",".join, zip(*(map(repr, c[start:stop].tolist())
                                            for c in columns))))
            # A group that has run out of rows pads with empty cells.
            rows += ["," * len(members)] * (stop - start - len(rows))
            parts.append(rows)
        fh.write("\n".join(map(",".join, zip(*parts))) + "\n")
