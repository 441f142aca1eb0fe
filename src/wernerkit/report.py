"""Machine-readable reports: the RunReport every command emits, and its
three formats, JSON, CSV and pretty, each written in chunks.

A RunReport is {command, parameters, results, checks[], seed?,
tool_version}.  Each check carries name, pass, observed, expected and
tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__


@dataclass
class Check:
    name: str
    passed: bool
    observed: object
    expected: object
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "observed": self.observed,
            "expected": self.expected,
            "tolerance": self.tolerance,
        }


def check_equal(name: str, observed, expected) -> Check:
    return Check(name, observed == expected, observed, expected, 0.0)


def check_value(name: str, observed, expected: float, tol: float) -> Check:
    """The one rule of a numeric check: observed within tol of expected.
    observed is a value or a stack with one entry per q or row; a stack
    reports its entry farthest from expected, and a NaN entry first."""
    stack = np.asarray(observed, dtype=float)
    worst = float(stack.flat[np.argmax(np.abs(stack - expected))])
    expected = float(expected)
    return Check(name, abs(worst - expected) <= tol, worst, expected, float(tol))


@dataclass
class Nullable:
    """A column that is null where present is clear.  Where it is set, the
    column holds values: a float array with one entry per such row, in
    order, or one fixed string for every such row."""

    present: np.ndarray
    values: np.ndarray | str


class Table:
    """Report rows held as named columns: each column an array with one
    entry, shape (n,), or one vector, shape (n, k), per row, or a Nullable.
    JSON writes a table as a list of row objects, each vector as a list."""

    def __init__(self, **columns):
        self.columns = columns


@dataclass
class RunReport:
    command: str
    parameters: dict
    results: dict
    checks: list[Check] = field(default_factory=list)
    seed: int | None = None
    # The CSV projection: a header name per CSV field, and the columns the
    # fields come from, each an array (an (n, k) array gives k fields) or a
    # Nullable.
    csv_header: list[str] | None = None
    csv_columns: list | None = None
    # Lines for stderr, written only once the report is.
    warnings: list[str] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "results": self.results,
            "checks": [c.to_dict() for c in self.checks],
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        payload["tool_version"] = __version__
        return payload


# A string as JSON writes it, ASCII with escapes (json.dumps's default).
_json_str = json.encoder.encode_basestring_ascii

# A report is written in blocks of at most _POOL_ROWS table rows, each
# block's floats (its table rows' and the floats between them) from one pool
# of float strings, and each block in chunks of at most _CHUNK_ROWS rows, so
# that no report is ever held whole as text.  A 64 x 128 node table and the
# 1001-q grids are one block, so each of their distinct magnitudes is
# formatted once per report; a pool per chunk formatted the node table's
# repeated magnitudes again in every chunk, and cost 12-17% of a 64 x 128
# decompose's throughput.  Written into a StringIO, that decompose peaked
# about 1.5 MB lower in chunks of 2^8 rows than as one string (1.3 MB in
# chunks of 2^10 rows), and higher in chunks of 2^12 rows.  A report never
# shows a NaN or an infinity, and its gate runs before its first byte: it
# fails with ValueError (exit 2) instead, having written nothing.
_POOL_ROWS = 2**16
_CHUNK_ROWS = 2**8


def _not_finite(value) -> ValueError:
    return ValueError(f"report value {value} is not finite")


def _fmt_scalar(value) -> str:
    """A bool, an int or None as JSON writes it; floats come from a pool."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def _json_scalar(value) -> str:
    """A text as JSON writes it, and None as null."""
    return "null" if value is None else _json_str(value)


def _csv_scalar(value) -> str:
    """A text as one CSV field: unquoted, with its commas written as
    semicolons, and None as an empty field."""
    return "" if value is None else value.replace(",", ";")


def _width(column) -> int:
    """The number of scalar columns of a column: k for an (n, k) array."""
    return column.shape[1] if isinstance(column, np.ndarray) and column.ndim == 2 else 1


def _gate(columns) -> None:
    """Refuse a report's columns before its first byte is written: a column
    that is neither an array of bools, ints or floats nor a Nullable raises
    TypeError, then a float that is not finite raises ValueError, the first
    in the order the columns write their floats, an (n, k) array's
    column by column."""
    floats = []
    for column in columns:
        if isinstance(column, Nullable):
            if isinstance(column.values, str):
                continue
            column = np.asarray(column.values, dtype=float)
        elif not isinstance(column, np.ndarray):
            raise TypeError(f"cannot serialize a {type(column).__name__} column into a report")
        if column.ndim > 2 or column.dtype.kind not in "biuf":
            raise TypeError(f"cannot serialize a {column.dtype} column into a report")
        if column.dtype.kind == "f":
            floats.append(column.T)
    for values in floats:
        bad = ~np.isfinite(values)
        if bad.any():
            raise _not_finite(values[bad][0])


def _scalar_columns(columns, text) -> list[np.ndarray]:
    """Gated columns as their scalar columns, an (n, k) array giving k, each
    a 1-D object array of n strings as the format writes them.  The floats
    of all the columns take one float.__repr__ per distinct magnitude, as
    repr(x) == "-" + repr(-x) for finite x < 0, -0.0 included, in one pool
    whose last entry is the format's null text.  Each float column is one
    gather from that pool, a Nullable's by one index array that points at
    the null entry on its absent rows.  A Nullable's fixed string is
    gathered as a bool column is, from its null text and its text."""
    scalars, floats, placed = [], [], []
    for column in columns:
        present = None
        if isinstance(column, Nullable):
            present, column = column.present, column.values
            if isinstance(column, str):
                choices = np.array([text(None), text(column)], dtype=object)
                scalars.append(choices[present.view(np.uint8)])
                continue
            column = np.asarray(column, dtype=float)
        subs = column.T if column.ndim == 2 else column[None]
        if column.dtype == bool:
            scalars += list(np.array(["false", "true"], dtype=object)[subs.view(np.uint8)])
        elif column.dtype.kind != "f":
            scalars += list(subs.astype(str).astype(object))
        else:
            placed.append((len(scalars), present))
            floats.append(subs)
            scalars += [None] * len(subs)
    if not floats:
        return scalars
    values = np.concatenate([v.ravel() for v in floats])
    magnitudes, inverse = np.unique(np.abs(values), return_inverse=True)
    texts = [repr(m) for m in magnitudes.tolist()]
    # every entry of one magnitude and sign, in any column, shares one string
    inverse += np.signbit(values) * len(texts)
    pool = np.array(texts + ["-" + t for t in texts] + [text(None)], dtype=object)
    end = 0
    for (at, present), v in zip(placed, floats):
        index = inverse[end : end + v.size].reshape(v.shape)
        end += v.size
        if present is not None:
            # spread over the rows, the null entry on the absent ones
            spread = np.full((1,) + present.shape, len(pool) - 1)
            spread[0, present] = index[0]
            index = spread
        subs = list(pool[index])
        scalars[at : at + len(subs)] = subs
    return scalars


_SLOT = "\0"  # a value's mark in a row template: _json_str escapes it in names


def _enclose(open_: str, parts: list[str], close: str, nl: str | None) -> str:
    """Members joined as json.dumps(indent=2) writes a container whose own
    line break and indentation is nl (None: unindented)."""
    if not parts:
        return open_ + close
    inner = nl and nl + "  "
    return open_ + (inner or "") + ("," + (inner or " ")).join(parts) + (nl or "") + close


@dataclass
class _Rows:
    """A table's place in a report's layout: its columns, and the template
    of its rows split at their _SLOT marks into pieces.  The last piece of
    each row ends in the separator of the rows, but the last row's, which
    is last instead; open comes before the first row, and a table of no
    rows is written as empty."""

    columns: list
    pieces: list[str]
    last: str
    open: str = ""
    empty: str = ""

    @property
    def n(self) -> int:
        """The number of rows, from the first column; no columns, no rows."""
        if not self.columns:
            return 0
        first = self.columns[0]
        return len(first.present if isinstance(first, Nullable) else first)

    def sliced(self, start: int, stop: int) -> list:
        """The columns of rows start to stop."""
        columns = []
        for column in self.columns:
            if isinstance(column, Nullable):
                values = column.values
                if not isinstance(values, str):
                    before = np.count_nonzero(column.present[:start])
                    count = np.count_nonzero(column.present[start:stop])
                    values = np.asarray(values, dtype=float)[before : before + count]
                column = Nullable(column.present[start:stop], values)
            else:
                column = column[start:stop]
            columns.append(column)
        return columns

    def fragments(self, values: list[np.ndarray], start: int, stop: int):
        """The fragments of rows start to stop, _CHUNK_ROWS rows at a time,
        from their scalar columns values: each chunk one (rows, 2k + 1)
        object array of the pieces and the values, flattened once."""
        if not self.n:
            yield [self.empty]
            return
        cells = np.empty((min(_CHUNK_ROWS, stop - start), len(self.pieces) + len(values)), dtype=object)
        cells[:, ::2] = np.array(self.pieces, dtype=object)
        for at in range(0, stop - start, _CHUNK_ROWS):
            chunk = cells[: min(_CHUNK_ROWS, stop - start - at)]
            for j, column in enumerate(values):
                chunk[:, 2 * j + 1] = column[at : at + len(chunk)]
            if start + at + len(chunk) == self.n:
                chunk[-1, -1] = self.last
            fragments = chunk.ravel().tolist()
            if start + at == 0:
                fragments[0] = self.open + fragments[0]
            yield fragments


def _json_rows(table: Table, nl: str | None) -> _Rows:
    """A table as a JSON list of row objects, every row from one template
    built for its depth."""
    row_nl = nl and nl + "  "
    field_nl = row_nl and row_nl + "  "
    fields = []
    for name, column in table.columns.items():
        slot = _SLOT
        if isinstance(column, np.ndarray) and column.ndim == 2:
            slot = _enclose("[", [_SLOT] * column.shape[1], "]", field_nl)
        fields.append(_json_str(name) + ": " + slot)
    sep = "," + (row_nl or " ")
    pieces = (_enclose("{", fields, "}", row_nl) + sep).split(_SLOT)
    last = pieces[-1][: -len(sep)] + (nl or "") + "]"
    return _Rows(list(table.columns.values()), pieces, last, "[" + (row_nl or ""), "[]")


def _blocks(parts: list):
    """A layout's parts in blocks of at most _POOL_ROWS table rows, each
    table as (rows, start, stop), split at the end of a block it overflows."""
    block, room = [], _POOL_ROWS
    for part in parts:
        if not isinstance(part, _Rows):
            block.append(part)
            continue
        n, start = part.n, 0
        while True:
            stop = min(n, start + room)
            block.append((part, start, stop))
            room -= stop - start
            if stop == n:
                break
            yield block
            block, room, start = [], _POOL_ROWS, stop
    yield block


class _Chunks:
    """A report's text, laid out and gated but not yet written: iterating
    makes it in chunks, in order, each from its block's one pool.  parts are
    strings, floats held for a pool, and tables (_Rows); text is the
    format's text rule.  str() joins the chunks, and encode() gives their
    bytes, as for one string."""

    def __init__(self, parts: list, text):
        tables = [part for part in parts if isinstance(part, _Rows)]
        _gate([c for rows in tables for c in rows.columns] + [self._floats(parts)])
        self.parts, self.text = parts, text

    @staticmethod
    def _floats(parts) -> np.ndarray:
        """The floats among parts, whose tables are _Rows in a layout and
        (rows, start, stop) in a block."""
        return np.array([p for p in parts if not isinstance(p, (str, _Rows, tuple))], dtype=float)

    def __iter__(self):
        for block in _blocks(self.parts):
            yield from self._block(block)

    def _block(self, block: list):
        """The chunks of one block, from its one pool.  Its strings and
        floats go out with the next chunk of table rows, or in a chunk of
        their own after the block's last table."""
        tables = [part for part in block if isinstance(part, tuple)]
        columns = [c for rows, start, stop in tables for c in rows.sliced(start, stop)]
        values = _scalar_columns(columns + [self._floats(block)], self.text)
        floats = iter(values.pop())
        pending, at = [], 0
        for part in block:
            if isinstance(part, str):
                pending.append(part)
            elif not isinstance(part, tuple):
                pending.append(next(floats))
            else:
                rows, start, stop = part
                width = sum(map(_width, rows.columns))
                for fragments in rows.fragments(values[at : at + width], start, stop):
                    fragments[0] = "".join(pending) + fragments[0]
                    pending = []
                    yield "".join(fragments)
                at += width
        if pending:
            yield "".join(pending)

    def __str__(self) -> str:
        return "".join(self)

    def encode(self, *args) -> bytes:
        return str(self).encode(*args)


class _Layout:
    """A report's parts, as json.dumps(indent=2) lays out its values: every
    float and every table holds its place until a pool writes it."""

    def __init__(self):
        self.out = []

    def scalar(self, value) -> None:
        """Append a scalar: a float holds its place until a pool writes it,
        any other scalar is written by _fmt_scalar."""
        self.out.append(value if isinstance(value, (float, np.floating)) else _fmt_scalar(value))

    def write(self, value, nl: str | None) -> None:
        """Append value as json.dumps(value, indent=2) writes it, placed on a
        line whose line break and indentation is nl (None: unindented)."""
        out = self.out
        if isinstance(value, str):
            out.append(_json_str(value))
        elif isinstance(value, Table):
            out.append(_json_rows(value, nl))
        elif isinstance(value, np.ndarray):
            self.write(value.tolist(), nl)
        elif not isinstance(value, (dict, list, tuple)):
            self.scalar(value)
        elif not value:
            out.append("{}" if isinstance(value, dict) else "[]")
        else:
            keyed = isinstance(value, dict)
            inner = nl and nl + "  "
            sep = ("{" if keyed else "[") + (inner or "")
            for member in value.items() if keyed else value:
                if keyed:
                    sep, member = sep + _json_str(member[0]) + ": ", member[1]
                out.append(sep)
                self.write(member, inner)
                sep = "," + (inner or " ")
            out.append((nl or "") + ("}" if keyed else "]"))


def _json_chunks(report: RunReport) -> _Chunks:
    layout = _Layout()
    layout.write(report.to_dict(), "\n")
    layout.out.append("\n")
    return _Chunks(layout.out, _json_scalar)


def _csv_chunks(report: RunReport) -> _Chunks:
    if report.csv_header is None or report.csv_columns is None:
        raise ValueError(f"command {report.command!r} has no CSV projection")
    columns = report.csv_columns
    pieces = (",".join([_SLOT] * sum(map(_width, columns))) + "\n").split(_SLOT)
    header = ",".join(report.csv_header) + "\n"
    return _Chunks([header, _Rows(columns, pieces, pieces[-1])], _csv_scalar)


def _pretty_chunks(report: RunReport) -> _Chunks:
    layout = _Layout()
    out = layout.out
    out.append(f"command: {report.command}\n")
    if report.seed is not None:
        out.append(f"seed: {report.seed}\n")
    out.append("parameters: ")
    layout.write(report.parameters, None)
    out.append("\nresults:\n  ")
    layout.write(report.results, "\n  ")
    out.append("\n")
    if report.checks:
        out.append("checks:\n")
        for c in report.checks:
            out.append(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}: observed=")
            layout.scalar(c.observed)
            out.append(" expected=")
            layout.scalar(c.expected)
            out.append(" tolerance=")
            layout.scalar(c.tolerance)
            out.append("\n")
    out.append(f"tool_version: {__version__}\n")
    return _Chunks(out, _json_scalar)


# Each format's renderer, which cli.main calls and writes chunk by chunk.
_RENDERERS = {"json": _json_chunks, "csv": _csv_chunks, "pretty": _pretty_chunks}


def emit_json(report: RunReport) -> str:
    return str(_json_chunks(report))


def emit_csv(report: RunReport) -> str:
    return str(_csv_chunks(report))


def emit_pretty(report: RunReport) -> str:
    return str(_pretty_chunks(report))
