"""Packet trace data model and on-disk formats.

A trace is the ground truth a world publishes: integer-microsecond packet
arrivals tagged with flow and clique ids, plus a flow table describing each
flow. Everything downstream (features, detection, replay) consumes this model,
so validation and deterministic serialization live here.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import mmap
import operator
import os
import re
import typing
from dataclasses import (
    MISSING,
    dataclass,
    field,
    fields,
    is_dataclass,
    replace,
)
from pathlib import Path

import numpy as np

from flowgate.forks import Children, cpus

TOOL_VERSION = "0.1.0"

PROTO_TCP = 6

BENIGN = "benign"
MALICIOUS = "malicious"

EPISODE_KINDS = ("exfiltration", "beaconing", "scan", "evasive_c2")


@dataclass(frozen=True)
class FlowKey:
    """Directed five-tuple identifying a flow."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: int


@dataclass(frozen=True)
class FlowInfo:
    key: FlowKey
    device_class: str
    label: str  # BENIGN or MALICIOUS


@dataclass(frozen=True)
class Budgets:
    """Evasion budget triple. Unconstrained entries are +inf (null in
    JSON)."""

    r_min_bytes: int
    epsilon_s: float = field(metadata={"null": math.inf})
    delta_q_s: float = field(metadata={"null": math.inf})


@dataclass(frozen=True)
class EpisodeLabel:
    flow_id: int
    start_window: int
    end_window: int  # inclusive
    kind: str
    budgets: Budgets
    feasible: bool


# A record's key that binds a file: the sha256 of the file's bytes, in
# lowercase hex, which check_bound compares and from_json checks.
Sha256 = typing.NewType("Sha256", str)


@dataclass(frozen=True)
class RunManifest:
    """manifest.json, a world's record, every key required: the seed it
    was realized at and the sha256 of config.json (which fixes every other
    fact of the world), trace.csv and feasibility.json. write_world fills
    each sha256 in as it writes the file."""

    every_key_required: typing.ClassVar[bool] = True

    seed: int
    config_sha256: Sha256 = ""
    trace_sha256: Sha256 = ""
    feasibility_sha256: Sha256 = ""
    tool_version: str = TOOL_VERSION


def unique(a, return_counts: bool = False):
    """The sorted distinct values of the integer array a, and how often
    each occurs when return_counts, as np.unique gives them, by one sort
    and a diff: np.unique imports numpy.ma on its first call in a process,
    which costs a stage more than its calls do."""
    a = np.sort(np.ravel(a))
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    if not return_counts:
        return a[first]
    return a[first], np.diff(np.append(np.flatnonzero(first), a.size))


# ---------------------------------------------------------------------------
# Tables: the one declaration of every CSV artifact


def column(conv: str, dtype):
    """A Table field: a numpy column of dtype, written to CSV under the
    field's name as "%" + conv. The conversion is d for an integer or bool
    dtype and r or .17g for a float one, so that the text reads back as
    the column."""
    dtype = np.dtype(dtype)
    if conv not in {"i": ("d",), "b": ("d",), "f": ("r", ".17g")}.get(
            dtype.kind, ()):
        raise ValueError(f"column %{conv} of {dtype}: only %d of integers "
                         "or bools and %r or %.17g of floats are supported")
    return field(metadata={"column": (conv, dtype)})


@functools.cache
def table_columns(cls) -> tuple:
    """(name, conversion, dtype) of each column of Table cls, in field
    order."""
    return tuple((f.name, *f.metadata["column"]) for f in fields(cls)
                 if "column" in f.metadata)


@dataclass(frozen=True, eq=False)
class Table:
    """Equal-length numpy columns, the fields made with column(), stored as
    their dtypes; other fields ride along. write_table and read_table read
    a CSV's header, row format, twin and value checks off the columns."""

    def __post_init__(self):
        shapes = set()
        for name, _, dtype in table_columns(type(self)):
            col = np.asarray(getattr(self, name), dtype=dtype)
            object.__setattr__(self, name, col)
            shapes.add(col.shape)
        if len(shapes) != 1 or len(shapes.pop()) != 1:
            raise ValueError(f"{type(self).__name__}: columns are not 1-D "
                             "of one length")

    def __len__(self) -> int:
        return len(getattr(self, table_columns(type(self))[0][0]))

    def __eq__(self, other) -> bool:
        cols = {name for name, *_ in table_columns(type(self))}
        return type(other) is type(self) and all(
            (np.array_equal if f.name in cols else operator.eq)(
                getattr(self, f.name), getattr(other, f.name))
            for f in fields(self))

    def take(self, rows):
        """The rows a boolean mask or an index array selects, in order."""
        return replace(self, **{name: getattr(self, name)[rows]
                                for name, *_ in table_columns(type(self))})

    @classmethod
    def concat(cls, parts):
        """The rows of parts in order, with the first part's other fields."""
        parts = list(parts)
        cols = {name: np.concatenate([getattr(p, name) for p in parts])
                if parts else () for name, *_ in table_columns(cls)}
        return replace(parts[0], **cols) if parts else cls(**cols)


@dataclass(frozen=True, eq=False)
class Trace(Table):
    """Immutable packet trace: trace.csv's int64 columns, with the flow
    table, horizon and window along.

    Packets are sorted by ts_us; a world's trace breaks ties by flow id,
    then by position (worlds.with_flows).
    """

    ts_us: np.ndarray = column("d", np.int64)
    flow_id: np.ndarray = column("d", np.int64)
    len_bytes: np.ndarray = column("d", np.int64)
    clique_id: np.ndarray = column("d", np.int64)
    flow_table: dict[int, FlowInfo]
    horizon_windows: int
    window_us: int

    @property
    def n_packets(self) -> int:
        return len(self)

    @property
    def horizon_us(self) -> int:
        return self.horizon_windows * self.window_us


# ---------------------------------------------------------------------------
# On-disk formats

# Rows formatted per write. Of 1 << 13, 14 and 15, 1 << 14 wrote demo's
# trace and queue log fastest, with a half to a seventh of the page faults
# of 1 << 15, whose temporaries pass glibc's mmap threshold.
_WRITE_BLOCK = 1 << 14


def twin_path(path) -> Path:
    """The binary twin that write_table writes beside the CSV at path."""
    return Path(f"{path}.cols")


def write_table(path, table: Table) -> str:
    """Write a table to the CSV at path: a header of its column names, then
    one line per row, its columns in their conversions joined by commas
    (_CsvText). The CSV is written under a temporary name beside path and
    then moved into place, so that path never holds part of a table; the
    twin `<path>.cols` follows: the sha256 of the CSV's bytes, then each
    column as an np.save record. Returns that sha256 in hex."""
    tmp = _temp_path(path)
    try:
        with open(tmp, "wb") as fh:
            text = _CsvText(fh, table)
            text.rows(0, len(table))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    _write_twin(path, text.digest.digest(), text.cols)
    return text.digest.hexdigest()


def _temp_path(path) -> Path:
    """Where a CSV is written before it is moved to path."""
    return Path(f"{path}.tmp")


def _write_twin(path, digest: bytes, cols) -> None:
    with open(twin_path(path), "wb") as fh:
        fh.write(digest)
        for col in cols:
            np.save(fh, col, allow_pickle=False)


class _CsvText:
    """The CSV text of a table, written to the open file fh as it is asked
    for, header first, with the sha256 of every byte written. The bytes of
    a row are those of `row % values`; they are made a column and a block
    of rows at a time, so that memory does not grow with the file, and do
    not depend on how the rows are split into calls. A column's cells are
    a matrix with one row per character position (_cell_bytes); a block
    stacks its columns' matrices, and the transpose of that, in C order
    without its zero bytes, is the block's text."""

    def __init__(self, fh, table: Table):
        spec = table_columns(type(table))
        self.fh = fh
        self.digest = hashlib.sha256()
        self.cols = [getattr(table, name) for name, *_ in spec]
        self.convs = [conv for _, conv, _ in spec]
        self.seps = [ord(",")] * (len(spec) - 1) + [ord("\n")]
        self._put(",".join(name for name, *_ in spec).encode() + b"\n")

    def _put(self, text) -> None:
        self.digest.update(text)
        self.fh.write(text)

    def rows(self, start: int, stop: int) -> None:
        """Write rows start to stop - 1."""
        for s in range(start, stop, _WRITE_BLOCK):
            k = min(stop - s, _WRITE_BLOCK)
            done = []  # columns with the same values are formatted once
            parts = []
            for col, conv, sep in zip(self.cols, self.convs, self.seps):
                block = col[s:s + k]
                cells = next((c for v, b, c in done if v == conv
                              and _same_bits(b, block)), None)
                if cells is None:
                    cells = _cell_bytes(block, conv)
                    done.append((conv, block, cells))
                parts += [cells, np.full((1, k), sep, np.uint8)]
            text = np.concatenate(parts).T.tobytes()
            self._put(text.translate(None, b"\0"))


class TableStream:
    """A table of cls with n_rows rows, published a part at a time and
    written to the CSV at path, as write_table writes it, by a forked child
    while this process keeps working.

    The columns live in one shared anonymous mapping, which is the table
    the stream returns. publish() copies a part's rows in after those
    already published and sends the new row count down a pipe. The child
    formats every row published whenever it wakes (_CsvText) into the
    temporary file beside path, and at the pipe's end leaves the text's
    sha256 in the mapping. close() reaps it, moves the file into place,
    writes the twin from that digest and keeps it in hex as sha256. With
    one CPU nothing is forked, and when the child fails close() writes the
    same bytes through write_table.

    Use in a with block: leaving it without close(), as an exception while
    publishing does, reaps the child and removes the temporary file.
    """

    def __init__(self, path, cls, n_rows: int):
        self.path = Path(path)
        spec = table_columns(cls)
        sizes = [-(-n_rows * dtype.itemsize // 8) * 8 for *_, dtype in spec]
        shared = mmap.mmap(-1, 32 + sum(sizes))
        self._digest = np.frombuffer(shared, np.uint8, 32)
        offsets = itertools.accumulate(sizes, initial=32)
        self.table = cls(**{name: np.frombuffer(shared, dtype, n_rows, at)
                            for (name, _, dtype), at in zip(spec, offsets)})
        self._names = [name for name, *_ in spec]
        self._published = 0
        self.sha256 = None  # the CSV's, once closed
        self._children = Children()
        self._pipe = None  # while a child writes the CSV
        if cpus() > 1:
            r, w = os.pipe()
            if self._children.fork(functools.partial(self._write, r, w)):
                self._pipe = w
            else:
                os.close(w)
            os.close(r)

    def __enter__(self) -> TableStream:
        return self

    def __exit__(self, *exc) -> None:
        self._end_pipe()
        self._children.reap()
        _temp_path(self.path).unlink(missing_ok=True)

    def publish(self, part: Table) -> None:
        """Append the rows of part, a table of cls."""
        a, b = self._published, self._published + len(part)
        for name in self._names:
            getattr(self.table, name)[a:b] = getattr(part, name)
        self._published = b
        if self._pipe is not None:
            try:
                os.write(self._pipe, b.to_bytes(8, "little"))
            except OSError:  # the child is gone: close() writes the CSV
                self._end_pipe()

    def close(self) -> Table:
        """Write the CSV and its twin once every row is published, and
        return the table."""
        if self._published != len(self.table):
            raise ValueError(f"{self.path}: {self._published} of "
                             f"{len(self.table)} rows published")
        writing = self._pipe is not None
        self._end_pipe()
        if self._children.reap() and writing:
            os.replace(_temp_path(self.path), self.path)
            _write_twin(self.path, self._digest.tobytes(),
                        [getattr(self.table, name) for name in self._names])
            self.sha256 = self._digest.tobytes().hex()
        else:
            self.sha256 = write_table(self.path, self.table)
        return self.table

    def _end_pipe(self) -> None:
        """Close the pipe's end: the child writes what is published and
        exits."""
        if self._pipe is not None:
            os.close(self._pipe)
            self._pipe = None

    def _write(self, r: int, w: int) -> None:
        """The child: format the rows published down the pipe read at r."""
        os.close(w)
        done, pending = 0, b""
        with open(_temp_path(self.path), "wb") as fh:
            text = _CsvText(fh, self.table)
            while chunk := os.read(r, 1 << 16):
                pending += chunk
                whole = len(pending) - len(pending) % 8
                if whole:
                    published = int.from_bytes(pending[whole - 8:whole],
                                                "little")
                    pending = pending[whole:]
                    text.rows(done, published)
                    done = published
        self._digest[:] = np.frombuffer(text.digest.digest(), np.uint8)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a and b hold the same values bit for bit, as their text
    does: -0.0 is not 0.0, and a NaN is its own bits."""
    return a.dtype == b.dtype and np.array_equal(
        a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"))


def _cell_bytes(col: np.ndarray, conv: str) -> np.ndarray:
    """The text of `"%" + conv` applied to each value of col, as a
    (width x rows) uint8 matrix, a value's text down its column, padded
    with zero bytes anywhere in it."""
    if conv == "r":
        return _repr_bytes(col)
    if conv == "d":  # abs wraps -2**63 to itself, which is 2**63 in uint64
        mag = np.abs(col.astype(np.int64, copy=False))  # after any widening
        return np.concatenate([_chars(col < 0, b"-"),
                               _digits(mag.astype(np.uint64))])
    mag = np.abs(col)  # %.17g: whole values below 1e17 print their digits
    whole = (mag < 1e17) & (np.floor(mag) == mag)
    parts = [_chars(np.signbit(col) & whole, b"-"),
             _digits(np.where(whole, mag, 0).astype(np.uint64), whole)]
    if not whole.all():
        parts.append(_python_bytes(col, ~whole))
    return np.concatenate(parts)


def _repr_bytes(col: np.ndarray) -> np.ndarray:
    """repr of each float64 of col, as the matrix of _cell_bytes: its
    shortest round-trip digits (_shortest) positional for 1e-4 <= |x| <
    1e16, a whole value as `digits.0`, and `d.ddde-05` otherwise."""
    finite = np.isfinite(col)
    # np.floor warns on a signalling NaN, so non-finite values are left out
    mag = np.abs(np.where(finite, col, 0.0))
    whole = finite & (mag < 1e16) & (np.floor(mag) == mag)
    ip = np.where(whole, mag, 0).astype(np.uint64)  # digits before the point
    fp = np.zeros(col.size, np.uint64)  # and the `point` digits after it
    point = whole.astype(np.int64)
    exp = np.zeros(col.size, np.int64)  # of the `d.ddde-05` rows
    sci = np.zeros(col.size, bool)
    rest = np.flatnonzero(finite & ~whole)
    if rest.size:
        f, e, n = _shortest(mag[rest])
        decpt = n + e  # the value is 0.f * 10**decpt
        sci[rest] = (decpt <= -4) | (decpt > 16)
        point[rest] = np.where(sci[rest], n - 1, -e)
        exp[rest] = np.where(sci[rest], decpt - 1, 0)
        p10 = _tables()[2][np.minimum(point[rest], 19)]  # f < 10**17
        ip[rest] = f // p10
        fp[rest] = f - ip[rest] * p10
    parts = [_chars(np.signbit(col) & ~np.isnan(col), b"-"),
             _digits(ip, finite), _chars(point > 0, b"."),
             _digits(fp, point)]
    if sci.any():
        parts += [_chars(sci, b"e"), _chars(sci & (exp < 0), b"-"),
                  _chars(sci & (exp >= 0), b"+"),
                  _digits(np.abs(exp).astype(np.uint64), 2 * sci)]
    if not finite.all():
        parts += [_chars(np.isnan(col), b"nan"), _chars(np.isinf(col), b"inf")]
    return np.concatenate(parts)


def _chars(rows, text: bytes) -> np.ndarray:
    """text in the rows a boolean array selects, zero bytes elsewhere, as a
    (len(text) x rows) matrix; one of no rows when none is selected, so
    that a sign no value has pads no row of the block."""
    if not rows.any():
        return np.zeros((0, rows.size), np.uint8)
    return np.outer(np.frombuffer(text, np.uint8), rows).astype(np.uint8)


def _digits(mag: np.ndarray, least=1) -> np.ndarray:
    """The decimal digits of uint64 mag, at least `least` of them (a count,
    or one per row) with zeros in front, bottom-aligned in a (width x rows)
    uint8 matrix with zero bytes for the leading zeros not shown. The
    digits are divided out in uint32, which is faster, when every value
    fits in it."""
    least = np.asarray(least, np.int64)
    top = int(least.max()) if least.size else 0
    big = int(mag.max()) if mag.size else 0
    width = max(len(str(big)), top)
    ten = _TEN
    if big < 2**32:
        mag, ten = mag.astype(np.uint32), np.uint32(10)
    out = np.empty((width, mag.size), np.uint8)
    for i in range(width - 1, -1, -1):
        q = mag // ten
        out[i] = mag - q * ten
        out[i] += np.uint8(48) * (mag != 0)  # 0 once mag is spent: a lead
        mag = q
    for i in range(top):
        out[width - 1 - i] |= np.uint8(48) * (i < least)  # a zero shown
    return out


# Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020)
# over uint64 arrays. Every operand is np.uint64: numpy 1.x promotes a mix
# of int64 and uint64 to float64.
_TEN = np.uint64(10)
_M32 = np.uint64(0xFFFF_FFFF)
_M63 = np.uint64(2**63 - 1)
_K_MIN = -324  # the least k of g(k); the greatest is 292


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g1, g0, pow10), made on first use: g(k) = g1 * 2**63 + g0 =
    floor(10**-k / 2**r) + 1 for k in [-324, 292], r such that 2**125 <=
    g(k) < 2**126, and 10**i for i in [0, 19], all uint64."""
    g = []
    for k in range(_K_MIN, 293):
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        r = num.bit_length() - den.bit_length() - 126
        while (v := (num << max(-r, 0)) // (den << max(r, 0))) >> 126:
            r += 1
        g.append(v + 1)
    return (np.array([v >> 63 for v in g], np.uint64),
            np.array([v & (2**63 - 1) for v in g], np.uint64),
            np.array([10**i for i in range(20)], np.uint64))


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products of uint64 a and b."""
    a0, a1, b0, b1 = a & _M32, a >> np.uint64(32), b & _M32, b >> np.uint64(32)
    m1 = a1 * b0 + ((a0 * b0) >> np.uint64(32))
    m2 = a0 * b1 + (m1 & _M32)
    return a1 * b1 + (m1 >> np.uint64(32)) + (m2 >> np.uint64(32))


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """g * cp / 2**127 rounded to odd as Schubfach rounds it: the floor,
    with the lowest bit set when any of the 63 bits below it is."""
    z = ((g1 * cp) >> np.uint64(1)) + _mulhi(g0, cp)
    vbp = _mulhi(g1, cp) + (z >> np.uint64(63))
    return vbp | (((z & _M63) + _M63) >> np.uint64(63))


def _shortest(x: np.ndarray):
    """The decimal f * 10**e of fewest digits that reads back as each
    positive finite float64 of x, the closest to x of those when several
    are, the one with an even last digit on a tie: (f, e, digits of f) as
    uint64, int64 and int64 arrays, f without trailing zeros."""
    g1t, g0t, pow10 = _tables()
    bits = np.ascontiguousarray(x).view(np.uint64)
    bq = (bits >> np.uint64(52)).astype(np.int64)  # the biased exponent
    t = bits & np.uint64(2**52 - 1)
    c = np.where(bq > 0, t | np.uint64(2**52), t)  # x = c * 2**q
    q = np.maximum(bq, 1) - 1075
    # at a power of two the gap below x is half the gap above it
    irregular = (t == np.uint64(0)) & (bq > 1)
    # k = floor(log10(2**q)), of 3/4 * 2**q when irregular, and h = q +
    # floor(log2(10**-k)) + 2, by Schubfach's exact fixed-point logarithms
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 1_741_647) >> 19) + 2).astype(np.uint64)
    g1, g0 = g1t[k - _K_MIN], g0t[k - _K_MIN]
    cb = c << np.uint64(2)
    vbl, vb, vbr = _rop(g1, g0, np.stack([
        cb - np.where(irregular, np.uint64(1), np.uint64(2)), cb,
        cb + np.uint64(2)]) << h)
    odd = c & np.uint64(1)  # x's rounding interval is open, else closed
    s = vb >> np.uint64(2)
    # at most one multiple of 10**(k + 1) is in the interval, and when one
    # is, no decimal in it has fewer digits
    sp10 = s // _TEN * _TEN
    tp10 = sp10 + _TEN
    upin = vbl + odd <= sp10 << np.uint64(2)
    wpin = (tp10 << np.uint64(2)) + odd <= vbr
    # else s or s + 1 (times 10**k), whichever is in it, the closer to x
    # when both are
    uin = vbl + odd <= s << np.uint64(2)
    win = ((s + np.uint64(1)) << np.uint64(2)) + odd <= vbr
    mid = (s << np.uint64(2)) + np.uint64(2)
    low = np.where(uin != win, uin, (vb < mid) | (
        (vb == mid) & ((s & np.uint64(1)) == np.uint64(0))))
    f = np.where(upin | wpin, np.where(upin, sp10, tp10),
                 np.where(low, s, s + np.uint64(1)))
    rows = np.flatnonzero(f % _TEN == 0)
    while rows.size:  # strip trailing zeros
        f[rows] //= _TEN
        k[rows] += 1
        rows = rows[f[rows] % _TEN == 0]
    return f, k, np.searchsorted(pow10, f, side="right").astype(np.int64)


def _python_bytes(col: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`"%.17g" % value` of col's values in rows, as the matrix of
    _cell_bytes, with zero rows elsewhere: the one text made a value at a
    time, for %.17g floats that are not whole, which no world writes."""
    text = np.array(list(map("%.17g".__mod__, col[rows].tolist())),
                    dtype="S")
    out = np.zeros((max(text.itemsize, 1), col.size), np.uint8)
    out[:, rows] = text.view(np.uint8).reshape(text.size, text.itemsize).T
    return out


def read_table(cls, path, recorded, **riders):
    """The Table cls that write_table wrote to the CSV at path, read from
    its twin (twin_columns), with the other fields given as riders.
    recorded is the (hex sha256, path) of the record that binds the CSV,
    checked by check_bound. Then refuses, naming the path and the line
    (data row i is line i + 2), the first value of the first column holding
    one that write_table cannot have written: a float that is not finite,
    an integer outside [0, 2**53) or a bool other than 0 or 1."""
    digest = check_bound(path, recorded)
    spec = table_columns(cls)
    cols = twin_columns(path, [dtype for *_, dtype in spec], digest)
    return cls(**{name: _checked(path, name, col)
                  for (name, *_), col in zip(spec, cols)}, **riders)


def _checked(path, name: str, col: np.ndarray) -> np.ndarray:
    """Column `name` of the CSV at path, refused at its first value that
    write_table cannot have written."""
    values = col
    if col.dtype.kind == "f":
        ok, what = np.isfinite(col), "is not finite"
    elif col.dtype.kind == "b":  # by its byte: numpy reads 2 up as True
        values = col.view(np.uint8)
        ok, what = values <= 1, "is not 0 or 1"
    else:
        ok, what = (col >= 0) & (col < 2**53), "is not a nonnegative integer"
    if not np.all(ok):
        i = int(np.argmin(ok))
        raise ValueError(f"{path}: line {i + 2}: {name} = "
                         f"{values[i].item()} {what}")
    return col


def twin_columns(path, dtypes, digest: bytes) -> list[np.ndarray]:
    """The columns of the twin beside the CSV at path, one per dtype.
    Refuses, naming the twin, one that does not hold digest, the sha256 of
    the CSV's bytes, then exactly one np.save (version 1.0) record per
    dtype: a 1-D array of that dtype, all of one length. Nothing is
    unpickled, and no record is allocated beyond the bytes the twin
    holds."""
    twin = twin_path(path)
    cols = []
    with open(twin, "rb") as fh:
        if fh.read(32) != digest:
            raise ValueError(f"{twin}: holds the sha256 of other bytes than "
                             f"{path}")
        size = os.fstat(fh.fileno()).st_size
        for j, expected in enumerate(dtypes):
            bad = ValueError(f"{twin}: record {j} is not a 1-D {expected} "
                             "column of the table's length")
            try:
                if np.lib.format.read_magic(fh) != (1, 0):
                    raise bad
                shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
            except ValueError:
                raise bad from None
            if (len(shape) != 1 or dtype != expected
                    or (cols and shape[0] != len(cols[0]))
                    or not 0 <= shape[0] * dtype.itemsize
                    <= size - fh.tell()):
                raise bad
            col = np.empty(shape[0], dtype)
            fh.readinto(col)
            cols.append(col)
        if fh.read(1):
            raise ValueError(f"{twin}: holds more than {len(dtypes)} "
                             "records")
    return cols


def check_bound(path, recorded) -> bytes:
    """The sha256 of the file at path, refusing, naming both files, a file
    of another sha256 than the one that recorded, the (hex sha256, path) of
    the record that binds it, holds."""
    sha256, record_path = recorded
    digest = file_sha256(path)
    if digest != sha256:
        raise ValueError(f"{path}: sha256 {digest} is not the "
                         f"{sha256} that {record_path} records")
    return bytes.fromhex(digest)


def file_sha256(path) -> Sha256:
    """The hex sha256 of a file's bytes, read a MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def load_json(path):
    """The parsed JSON document at path, refusing, naming the path, bytes
    that are not UTF-8, a parse error and an object that repeats a key."""

    def unique(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ValueError(f"{path}: key {key!r} is repeated")
            doc[key] = value
        return doc

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"),
                          object_pairs_hook=unique)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_json(path, doc) -> str:
    """Write a JSON document with sorted keys, indented by two, ending in a
    newline; returns the file's sha256."""
    data = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def is_number(value, integer: bool = False) -> bool:
    """Whether a parsed JSON value is a finite number within the float range
    (an int when integer is set); true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(
            value, int if integer else (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def to_json(obj):
    """The JSON document of a record, as from_json reads it back.

    A dataclass becomes an object of its fields, and a field that equals
    its "null" metadata sentinel (math.inf for an unconstrained budget)
    becomes null; a tuple or list becomes a list, and a dict an object with
    string keys.
    """
    if is_dataclass(obj):
        return {f.name: None if _is_null(getattr(obj, f.name), f)
                else to_json(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [to_json(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_json(v) for k, v in obj.items()}
    return obj


def from_json(cls, doc, path, where: str = ""):
    """The value of type cls that the parsed JSON document doc (found at the
    dotted name `where`) holds, as to_json writes it.

    cls is a dataclass, bool, int, float, str, Sha256 (64 lowercase hex
    digits), a fixed-length tuple[...], list[T], dict[int, T]
    (integer-string keys) or a free-form dict or list (values left
    unchecked). A dataclass field with a default may be absent, unless the
    class sets every_key_required (a record the program writes whole), and
    one with a "null" sentinel may be null. Refuses, naming the path and
    the key, a missing or unknown key, a bool given as a number, a number
    that is not finite, a non-integer for an int and any other value of
    another type. An int given for a float is stored as a float.
    """
    return _decode(cls, doc, path, where, None)


_SCALARS = {bool: (lambda v: isinstance(v, bool), "true or false"),
            int: (functools.partial(is_number, integer=True), "an integer"),
            float: (is_number, "a finite number"),
            str: (lambda v: isinstance(v, str), "a string"),
            Sha256: (lambda v: isinstance(v, str)
                     and re.fullmatch("[0-9a-f]{64}", v) is not None,
                     "a sha256 in hex")}
INT_KEY = re.compile(r"0|-?[1-9][0-9]*")  # a JSON object key for an int


def _is_null(value, f) -> bool:
    """Whether value is the "null" sentinel of dataclass field f (NaN
    included)."""
    null = f.metadata.get("null")
    return null is not None and (
        value == null or (math.isnan(null) and math.isnan(value)))


@functools.cache
def _schema(cls) -> tuple:
    """(name, type, required, null sentinel) of each field of dataclass
    cls, its type hints resolved on first use."""
    hints = typing.get_type_hints(cls)
    every = getattr(cls, "every_key_required", False)
    return tuple((f.name, hints[f.name], every or (
                  f.default is MISSING and f.default_factory is MISSING),
                  f.metadata.get("null")) for f in fields(cls))


def _decode(tp, doc, path, where: str, null):
    if doc is None and null is not None:
        return null
    name = where or "the document"
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    is_object = is_dataclass(tp) or dict in (tp, origin)
    if is_object and not isinstance(doc, dict):
        raise ValueError(f"{path}: {name} is not a JSON object")
    if is_dataclass(tp):
        schema = _schema(tp)
        missing = [n for n, _, req, _ in schema if req and n not in doc]
        unknown = sorted(set(doc) - {n for n, *_ in schema})
        for what, found in (("missing", missing), ("unknown", unknown)):
            if found:
                key = f"{where}.{found[0]}" if where else found[0]
                raise ValueError(f"{path}: {what} key {key!r}")
        return tp(**{n: _decode(t, doc[n], path,
                                f"{where}.{n}" if where else n, sentinel)
                     for n, t, _, sentinel in schema if n in doc})
    if list in (tp, origin):
        if not isinstance(doc, list):
            raise ValueError(f"{path}: {name} is not a JSON list")
        return [_decode(args[0], x, path, f"{where}[{i}]", None)
                for i, x in enumerate(doc)] if args else doc
    if origin is tuple:
        if not (isinstance(doc, list) and len(doc) == len(args)):
            raise ValueError(f"{path}: {name} = {doc!r} is not a JSON list "
                             f"of {len(args)}")
        return tuple(_decode(t, x, path, f"{where}[{i}]", None)
                     for i, (t, x) in enumerate(zip(args, doc)))
    if dict in (tp, origin):
        if not args:
            return dict(doc)
        out = {}
        for k, v in doc.items():
            if not INT_KEY.fullmatch(k):
                raise ValueError(f"{path}: {where} key {k!r} is not an "
                                 "integer" if where else f"{path}: key "
                                 f"{k!r} of the document is not an integer")
            out[int(k)] = _decode(args[1], v, path,
                                  f"{where}.{k}" if where else k, None)
        return out
    ok, what = _SCALARS[tp]
    if not ok(doc):
        raise ValueError(f"{path}: {name} = {doc!r} is " + (
            f"neither {what} nor null" if null is not None else f"not {what}"))
    return float(doc) if tp is float else doc


def write_trace_csv(path, trace: Trace) -> str:
    """write_table of a trace: returns the CSV's sha256."""
    return write_table(path, trace)


def read_trace_csv(path, recorded, flow_table, horizon_windows,
                   window_us) -> Trace:
    """read_table of a trace bound to the record recorded names, with the
    world's flow table, horizon and window."""
    return read_table(Trace, path, recorded, flow_table=flow_table,
                      horizon_windows=horizon_windows, window_us=window_us)


def read_flow_table(path) -> dict[int, FlowInfo]:
    """Load a flow table, refusing, naming the path and the key, what
    from_json refuses and a label other than benign or malicious."""
    table = from_json(dict[int, FlowInfo], load_json(path), path)
    for fid, info in table.items():
        if info.label not in (BENIGN, MALICIOUS):
            raise ValueError(f"{path}: {fid}.label = {info.label!r} is not "
                             f"{BENIGN!r} or {MALICIOUS!r}")
    return table


def read_labels(path) -> list[EpisodeLabel]:
    """Load episode labels, refusing, naming the path and the key, what
    from_json refuses, an unknown kind and a window span other than
    0 <= start_window <= end_window."""
    labels = from_json(list[EpisodeLabel], load_json(path), path)
    for i, lab in enumerate(labels):
        if lab.kind not in EPISODE_KINDS:
            raise ValueError(f"{path}: [{i}].kind = {lab.kind!r} is not one "
                             f"of {', '.join(EPISODE_KINDS)}")
        if not 0 <= lab.start_window <= lab.end_window:
            raise ValueError(f"{path}: [{i}] spans windows "
                             f"{lab.start_window} to {lab.end_window}")
    return labels


def read_manifest(path) -> RunManifest:
    """Load a run manifest, refusing, naming the path and the key, what
    from_json refuses."""
    return from_json(RunManifest, load_json(path), path)
