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
import os
import re
import typing
import warnings
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

TOOL_VERSION = "0.1.0"

PROTO_TCP = 6
PROTO_UDP = 17

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


@dataclass(frozen=True)
class RunManifest:
    world_id: str
    seed: int
    config_hash: str
    feature_contract: str
    split: tuple[float, float, float]
    tool_version: str = TOOL_VERSION
    digest: str = "sha256"


def split_ok(split) -> bool:
    """Whether a train/validation/test split is three positive fractions
    summing to 1."""
    return (len(split) == 3 and all(s > 0 for s in split)
            and abs(sum(split) - 1.0) <= 1e-9)


class Trace:
    """Immutable packet trace backed by parallel int64 arrays.

    Packets are sorted by ts_us; a world's trace breaks ties by flow id,
    then by position (worlds.with_flows).
    """

    __slots__ = ("ts_us", "flow_id", "len_bytes", "clique_id", "flow_table",
                 "horizon_windows", "window_us")

    def __init__(self, ts_us, flow_id, len_bytes, clique_id,
                 flow_table: dict[int, FlowInfo],
                 horizon_windows: int, window_us: int):
        self.ts_us = np.asarray(ts_us, dtype=np.int64)
        self.flow_id = np.asarray(flow_id, dtype=np.int64)
        self.len_bytes = np.asarray(len_bytes, dtype=np.int64)
        self.clique_id = np.asarray(clique_id, dtype=np.int64)
        self.flow_table = flow_table
        self.horizon_windows = int(horizon_windows)
        self.window_us = int(window_us)

    @property
    def n_packets(self) -> int:
        return int(self.ts_us.shape[0])

    @property
    def horizon_us(self) -> int:
        return self.horizon_windows * self.window_us

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.horizon_windows == other.horizon_windows
                and self.window_us == other.window_us
                and self.flow_table == other.flow_table
                and np.array_equal(self.ts_us, other.ts_us)
                and np.array_equal(self.flow_id, other.flow_id)
                and np.array_equal(self.len_bytes, other.len_bytes)
                and np.array_equal(self.clique_id, other.clique_id))


def trace_subset(trace: Trace, mask) -> Trace:
    """The packets selected by a boolean mask, in order; shares the flow
    table."""
    return Trace(trace.ts_us[mask], trace.flow_id[mask],
                 trace.len_bytes[mask], trace.clique_id[mask],
                 trace.flow_table, trace.horizon_windows, trace.window_us)


def canonical_json(obj) -> bytes:
    """Stable JSON encoding: sorted keys, compact separators, no NaN/inf."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def manifest_hash(payload: bytes) -> str:
    """Hex digest binding a manifest to its exact input bytes."""
    return hashlib.sha256(payload).hexdigest()


def config_hash(config_dict: dict) -> str:
    return manifest_hash(canonical_json(config_dict))


# ---------------------------------------------------------------------------
# On-disk formats

TRACE_HEADER = "ts_us,flow_id,len_bytes,clique_id"


_WRITE_BLOCK = 1 << 15  # rows formatted per write
_CONVERSION = re.compile(r"%(d|r|\.17g)")
# Below these magnitudes a whole float prints without an exponent: %r as
# its digits and ".0", %.17g as its digits alone.
_WHOLE_BELOW = {"r": 1e16, ".17g": 1e17}


def twin_path(path) -> Path:
    """The binary twin that write_csv writes beside the CSV at path."""
    return Path(f"{path}.cols")


def write_csv(path, header: str, row: str, cols) -> None:
    """Write equal-length columns as CSV lines formatted by `row`, one %d,
    %r or %.17g conversion per column between literal text, ending in a
    newline. The bytes are those of `row % values` for each row; they are
    made a column and a block of rows at a time, so that memory does not
    grow with the file. Refuses another conversion or a column count that
    does not match the row.

    When the row is its conversions joined by commas under a header of as
    many fields, and every column's text is a number, the twin
    `<path>.cols` is written too: the sha256 of the CSV's bytes, then each
    column as an np.save record of the values its text reads back as."""
    parts = _CONVERSION.split(row)
    literals, convs = parts[::2], parts[1::2]
    if any("%" in lit for lit in literals):
        raise ValueError(f"row {row!r}: only %d, %r and %.17g are supported")
    cols = [np.asarray(c) for c in cols]
    if len(cols) != len(convs) or len({c.shape for c in cols}) > 1:
        raise ValueError(f"row {row!r}: {len(convs)} conversions for "
                         f"{len(cols)} columns of shapes "
                         f"{[c.shape for c in cols]}")
    twin = _twin_columns(header, literals, convs, cols)
    literals = [np.frombuffer(s.encode(), np.uint8) for s in literals]
    n = len(cols[0])
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        text = header.encode() + b"\n"
        digest.update(text)
        fh.write(text)
        for s in range(0, n, _WRITE_BLOCK):
            k = min(n - s, _WRITE_BLOCK)
            cells = {}  # columns with the same values are formatted once
            parts = [np.broadcast_to(literals[0], (k, literals[0].size))]
            for col, conv, lit in zip(cols, convs, literals[1:]):
                block = col[s:s + k]
                key = (conv, block.dtype.str, block.tobytes())
                if key not in cells:
                    cells[key] = _cell_bytes(block, conv)
                parts += [cells[key], np.broadcast_to(lit, (k, lit.size))]
            text = np.concatenate(parts, axis=1)
            text = text[text != 0]
            digest.update(text)
            fh.write(text)
    if twin is not None:
        with open(twin_path(path), "wb") as fh:
            fh.write(digest.digest())
            for col in twin:
                np.save(fh, col, allow_pickle=False)


def _twin_columns(header: str, literals, convs, cols):
    """The twin's columns, each 1-D column as its text reads back: under %d
    an integer or bool column as it is and a float one truncated as "%d"
    prints it, under %r and %.17g as float64. None when a line is not the
    conversions joined by commas under a header of as many fields, or a
    column is not numbers (or is bools under %r, which prints True)."""
    if (literals != ["", *[","] * (len(convs) - 1), "\n"]
            or header.count(",") != len(convs) - 1):
        return None
    out = []
    for col, conv in zip(cols, convs):
        kind = col.dtype.kind
        if (col.ndim != 1 or kind not in "biuf" or col.dtype.itemsize > 8
                or (kind, conv) == ("b", "r")):
            return None
        if conv != "d":
            col = col.astype(np.float64, copy=False)
        elif kind == "f":  # "%d" % -0.5 is "0", not "-0"
            col = np.trunc(col.astype(np.float64, copy=False)) + 0.0
        out.append(np.ascontiguousarray(col))
    return out


def _cell_bytes(col: np.ndarray, conv: str) -> np.ndarray:
    """The text of `"%" + conv` applied to each value of col, as a
    (rows x width) uint8 matrix padded with zero bytes anywhere in a row."""
    if conv == "d" and col.dtype.kind in "biu":
        neg = col < 0
        mag = col.astype(np.uint64)
        return np.concatenate([np.where(neg, 45, 0).astype(np.uint8)[:, None],
                               _digits(np.where(neg, -mag, mag))], axis=1)
    if conv == "d" or col.dtype != np.float64:
        return _python_bytes(col, conv, np.ones(col.shape, dtype=bool))
    mag = np.abs(col)
    whole = (mag < _WHOLE_BELOW[conv]) & (np.floor(mag) == mag)
    parts = []
    if whole.any():
        sign = np.signbit(col) & whole  # -0.0 prints its sign
        parts += [np.where(sign, 45, 0).astype(np.uint8)[:, None],
                  _digits(np.where(whole, mag, 0).astype(np.uint64))
                  * whole[:, None]]
        if conv == "r":
            parts.append(np.outer(whole, np.array([46, 48], np.uint8)))
    if not whole.all():
        parts.append(_python_bytes(col, conv, ~whole))
    return np.concatenate(parts, axis=1)


def _digits(mag: np.ndarray) -> np.ndarray:
    """The decimal digits of uint64 mag, right-aligned in a (rows x width)
    uint8 matrix, with zero bytes for leading zeros."""
    width = len(str(int(mag.max()))) if mag.size else 1
    out = np.empty((width, mag.size), np.uint8)
    for i in range(width - 1, -1, -1):
        q = mag // 10
        out[i] = mag - q * 10
        out[i] += np.uint8(48) * (mag != 0)  # 0 once mag is spent: a lead
        mag = q
    out[-1] |= 48  # the units digit prints even for 0
    return out.T


def _python_bytes(col: np.ndarray, conv: str, rows: np.ndarray) -> np.ndarray:
    """Python's own `"%" + conv` text of col's values in rows, as the
    matrix of _cell_bytes, with zero rows elsewhere."""
    fmt = repr if conv == "r" else ("%" + conv).__mod__
    text = np.array(list(map(fmt, col[rows].tolist())), dtype="S")
    out = np.zeros((col.size, max(text.itemsize, 1)), np.uint8)
    out[rows] = text.view(np.uint8).reshape(text.size, text.itemsize)
    return out


def read_csv(path, header: str, n_ints: int = 0, flags=()) -> np.ndarray:
    """The rows of a CSV that write_csv wrote under `header`, as a float64
    (rows x fields) array; empty lines are skipped. Refuses, naming the path
    and line, another header, a line with another number of fields, a field
    that is not finite, one of the first n_ints that is not an integer in
    [0, 2**53) and one at an index in flags that is not 0 or 1; and, naming
    the path, a field that is not a number.

    The values come from the CSV's twin when it holds the CSV's sha256
    (see twin_columns), one column at a time, else from the text."""
    n = header.count(",") + 1
    check_header(path, header)
    raw = None
    try:
        for j, col in enumerate(twin_columns(path, n, "biuf")):
            if raw is None:
                raw = np.empty((col.size, n))
            raw[:, j] = col
    except NoTwin:
        raw = None
    if raw is None:
        raw = _parse_csv(path, n)
    check_fields(path, header, raw, range(n), np.isfinite(raw),
                 "is not finite")
    ok = np.empty((len(raw), n_ints), dtype=bool)
    for j, col in enumerate(raw[:, :n_ints].T):  # one column of temporaries
        ok[:, j] = (col >= 0) & (col < 2.0**53) & (np.floor(col) == col)
    check_fields(path, header, raw, range(n_ints), ok,
                 "is not a nonnegative integer")
    bits = raw[:, list(flags)]
    check_fields(path, header, raw, flags, (bits == 0) | (bits == 1),
                 "is not 0 or 1")
    return raw


def _parse_csv(path, n: int) -> np.ndarray:
    """The CSV's rows of n fields, parsed as float64 text."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows
            raw = np.loadtxt(path, dtype=np.float64, delimiter=",",
                             skiprows=1, comments=None, ndmin=2)
        if raw.size and raw.shape[1] != n:
            raise ValueError(f"{raw.shape[1]} fields per row")
    except ValueError as exc:  # a second pass names a short or long line
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                k = line.count(",") + 1
                if lineno > 1 and line != "\n" and k != n:
                    raise ValueError(f"{path}: line {lineno}: {k} fields, "
                                     f"expected {n}") from None
        raise ValueError(f"{path}: {exc}") from None
    return raw.reshape(-1, n)


class NoTwin(Exception):
    """A CSV's twin is absent, stale or malformed: read the text instead."""


def twin_columns(path, n: int, kinds: str):
    """Yield the n columns that the twin beside the CSV at path holds.

    Raises NoTwin, possibly after yielding some columns, unless the twin
    starts with the sha256 of the CSV's bytes and then holds exactly n
    np.save (version 1.0) records of 1-D arrays of one length whose dtype
    kinds are in kinds. Nothing is unpickled, and no record is allocated
    beyond the bytes the twin holds."""
    try:
        fh = open(twin_path(path), "rb")
    except OSError:
        raise NoTwin from None
    with fh:
        if fh.read(32) != _file_sha256(path):
            raise NoTwin
        size, rows = os.fstat(fh.fileno()).st_size, None
        for _ in range(n):
            try:
                if np.lib.format.read_magic(fh) != (1, 0):
                    raise NoTwin
                shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
            except ValueError:
                raise NoTwin from None
            if (len(shape) != 1 or dtype.kind not in kinds
                    or (rows is not None and shape[0] != rows)
                    or not 0 <= shape[0] * dtype.itemsize
                    <= size - fh.tell()):
                raise NoTwin
            rows = shape[0]
            col = np.empty(rows, dtype)
            fh.readinto(col)
            yield col
        if fh.read(1):
            raise NoTwin


def _file_sha256(path) -> bytes:
    """The sha256 of a file's bytes, read a MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.digest()


def check_header(path, header: str) -> None:
    """Refuse a CSV whose first line is not `header`, naming the path."""
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    if first != header:
        raise ValueError(f"{path}: line 1: header {first!r} is not "
                         f"{header!r}")


def check_fields(path, header: str, raw: np.ndarray, cols, ok: np.ndarray,
                 what: str) -> None:
    """Refuse the first field of read_csv's raw[:, cols] where ok is False,
    naming the path, line, column and value."""
    if not ok.all():
        i, j = divmod(int(np.argmin(ok)), len(cols))
        with open(path) as fh:  # row i's line; loadtxt skips empty lines
            lineno = next(itertools.islice(
                (k for k, line in enumerate(fh, 1) if k > 1 and line != "\n"),
                i, None))
        raise ValueError(f"{path}: line {lineno}: {header.split(',')[cols[j]]}"
                         f" = {raw[i, cols[j]]:g} {what}")


def load_json(path):
    """The parsed JSON document at path; a parse error names the path."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_json(path, doc) -> None:
    """Write a JSON document with sorted keys, indented by two, ending in a
    newline."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


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

    cls is a dataclass, bool, int, float, str, a fixed-length tuple[...],
    list[T], dict[int, T] (integer-string keys) or a free-form dict or
    list (values left unchecked). A dataclass field with a default may be
    absent, and one with a "null" sentinel may be null. Refuses, naming the
    path and the key, a missing or unknown key, a bool given as a number, a
    number that is not finite, a non-integer for an int and any other value
    of another type. An int given for a float is stored as a float.
    """
    return _decode(cls, doc, path, where, None)


_SCALARS = {bool: (lambda v: isinstance(v, bool), "true or false"),
            int: (functools.partial(is_number, integer=True), "an integer"),
            float: (is_number, "a finite number"),
            str: (lambda v: isinstance(v, str), "a string")}
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
    return tuple((f.name, hints[f.name],
                  f.default is MISSING and f.default_factory is MISSING,
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


def write_trace_csv(path, trace: Trace) -> None:
    write_csv(path, TRACE_HEADER, "%d,%d,%d,%d\n",
              (trace.ts_us, trace.flow_id, trace.len_bytes, trace.clique_id))


def read_trace_csv(path, flow_table, horizon_windows, window_us) -> Trace:
    """Load a trace CSV: the int64 columns of its twin when it holds the
    CSV's sha256 (see twin_columns), else the parsed text."""
    check_header(path, TRACE_HEADER)
    try:
        cols = list(twin_columns(path, 4, "i"))
    except NoTwin:
        with warnings.catch_warnings():
            # a header-only trace (zero packets) is valid; loadtxt warns on it
            warnings.simplefilter("ignore", UserWarning)
            raw = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1,
                             ndmin=2)
        if raw.size == 0:
            raw = raw.reshape(0, 4)
        cols = raw[:, 0], raw[:, 1], raw[:, 2], raw[:, 3]
    return Trace(*cols, flow_table, horizon_windows, window_us)


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
    from_json refuses and a split that is not three positive fractions
    summing to 1."""
    manifest = from_json(RunManifest, load_json(path), path)
    if not split_ok(manifest.split):
        raise ValueError(f"{path}: split = {list(manifest.split)} is not "
                         "three positive fractions summing to 1")
    return manifest
