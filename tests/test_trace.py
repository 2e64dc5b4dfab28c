import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, make_dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowgate.trace as trace_module
from flowgate.detector import (
    DetectManifest,
    DetectorParams,
    FlowThresholds,
    Scores,
    read_scores_csv,
    write_scores_csv,
)
from flowgate.trace import (
    BENIGN,
    MALICIOUS,
    Budgets,
    EpisodeLabel,
    FlowInfo,
    FlowKey,
    RunManifest,
    Table,
    Trace,
    canonical_json,
    column,
    config_hash,
    from_json,
    load_json,
    manifest_hash,
    read_flow_table,
    read_labels,
    read_manifest,
    read_table,
    read_trace_csv,
    table_columns,
    to_json,
    twin_columns,
    twin_path,
    write_json,
    write_table,
    write_trace_csv,
)
from flowgate.wfq import (
    GateConfig,
    QueueEventLog,
    Schedule,
    read_queue_log,
    write_queue_log,
)
from flowgate.worlds import (
    BenignFlowSpec,
    EpisodeSpec,
    FeasibilityOutcome,
    WorldConfig,
)
from support import (
    PacketRecord,
    read_table_text,
    trace_from_records,
    write_csv_rows,
)
from trace_validation import validate_trace

# Frozen reference: SHA-256 of the empty byte string.
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def make_flow_table(n=2):
    return {
        i: FlowInfo(FlowKey(f"10.0.0.{i}", "10.0.1.1", 40000 + i, 443, 6),
                    "periodic_telemetry", BENIGN)
        for i in range(n)
    }


def test_manifest_hash_empty_input():
    assert manifest_hash(b"") == SHA256_EMPTY


def test_manifest_hash_key_order_invariant():
    a = {"b": 1, "a": [1, 2, 3], "c": {"y": 0.5, "x": "s"}}
    b = {"c": {"x": "s", "y": 0.5}, "a": [1, 2, 3], "b": 1}
    assert config_hash(a) == config_hash(b)
    # any change to content changes the digest
    c = dict(a)
    c["b"] = 2
    assert config_hash(c) != config_hash(a)


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


@pytest.mark.parametrize("raw, message", [
    (b'{"a": 1, "b": [{"c": 1, "c": 1}]}', "key 'c' is repeated"),
    (b'{"a": 1, "a": 1}', "key 'a' is repeated"),
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: "
                     "invalid start byte"),
    (b'{"a": "\xe9"}', "'utf-8' codec can't decode byte 0xe9 in position 7: "
                       "invalid continuation byte"),
], ids=["nested repeat", "repeat", "utf-16 mark", "latin-1 text"])
def test_load_json_refuses_repeated_keys_and_bytes_not_utf8(tmp_path, raw,
                                                            message):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as exc:
        load_json(path)
    assert str(exc.value) == f"{path}: {message}"


def test_load_json_reads_utf8_text(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"world_id": "caf\u00e9", "b": {"world_id": 1}}',
                    encoding="utf-8")
    assert load_json(path) == {"world_id": "caf\u00e9", "b": {"world_id": 1}}


def test_trace_sorted_on_construction():
    ft = make_flow_table()
    recs = [
        PacketRecord(500, 0, 100, 0),
        PacketRecord(100, 1, 200, 0),
        PacketRecord(100, 0, 300, 0),  # tie: keeps insertion order after sort
    ]
    tr = trace_from_records(recs, ft, horizon_windows=4, window_us=250_000)
    assert tr.ts_us.tolist() == [100, 100, 500]
    assert tr.flow_id.tolist() == [1, 0, 0]
    assert validate_trace(tr, (64, 1500)).ok


def test_validate_trace_flags():
    ft = make_flow_table()
    good = Trace(np.array([10, 20]), np.array([0, 1]), np.array([100, 100]),
                 np.array([0, 0]), ft, 4, 250_000)
    assert validate_trace(good, (64, 1500)).ok

    unsorted = Trace(np.array([20, 10]), np.array([0, 1]), np.array([100, 100]),
                     np.array([0, 0]), ft, 4, 250_000)
    assert any("sorted" in s for s in validate_trace(unsorted, (64, 1500)).issues)

    unknown = Trace(np.array([10]), np.array([7]), np.array([100]),
                    np.array([0]), ft, 4, 250_000)
    assert any("unknown flow" in s for s in validate_trace(unknown, (64, 1500)).issues)

    oversize = Trace(np.array([10]), np.array([0]), np.array([9000]),
                     np.array([0]), ft, 4, 250_000)
    assert any("len_bytes" in s for s in validate_trace(oversize, (64, 1500)).issues)

    late = Trace(np.array([1_000_000]), np.array([0]), np.array([100]),
                 np.array([0]), ft, 4, 250_000)
    assert any("horizon" in s for s in validate_trace(late, (64, 1500)).issues)

    split_clique = Trace(np.array([10, 20]), np.array([0, 0]), np.array([100, 100]),
                         np.array([0, 1]), ft, 4, 250_000)
    assert any("cliques" in s for s in validate_trace(split_clique, (64, 1500)).issues)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 999_999), st.integers(0, 1),
                          st.integers(64, 1500)), max_size=40))
def test_trace_csv_round_trip(tmp_path_factory, rows):
    ft = make_flow_table()
    recs = [PacketRecord(ts, fid, ln, 0) for ts, fid, ln in rows]
    tr = trace_from_records(recs, ft, horizon_windows=4, window_us=250_000)
    p = tmp_path_factory.mktemp("t") / "trace.csv"
    sha256 = write_trace_csv(p, tr)
    back = read_trace_csv(p, (sha256, "manifest.json"), ft, 4, 250_000)
    assert back == tr


def test_flow_table_round_trip(tmp_path):
    ft = {
        0: FlowInfo(FlowKey("10.0.0.1", "10.0.1.1", 40000, 443, 6), "bulk_stream", BENIGN),
        3: FlowInfo(FlowKey("10.0.0.2", "10.0.1.9", 40001, 53, 17), "interactive_burst",
                    MALICIOUS),
    }
    p = tmp_path / "flows.json"
    write_json(p, to_json(ft))
    assert read_flow_table(p) == ft


def test_labels_round_trip_with_inf_budgets(tmp_path):
    labels = [
        EpisodeLabel(5, 100, 220, "exfiltration",
                     Budgets(50_000, 0.05, 0.02), True),
        EpisodeLabel(6, 300, 360, "beaconing",
                     Budgets(0, math.inf, math.inf), True),
    ]
    p = tmp_path / "labels.json"
    write_json(p, to_json(labels))
    back = read_labels(p)
    assert back == labels
    assert math.isinf(back[1].budgets.epsilon_s)


def test_manifest_round_trip(tmp_path):
    m = RunManifest(42, "a" * 64, "b" * 64, "c" * 64)
    p = tmp_path / "manifest.json"
    write_json(p, to_json(m))
    assert read_manifest(p) == m


# ---------------------------------------------------------------------------
# the typed JSON codec: every record reads back as written, or is refused

_INTS = st.integers(-2**63, 2**63)
_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.integers(-2**53, 2**53).map(float))  # int-valued floats
_TEXT = st.text(max_size=6)
_FREE = st.dictionaries(_TEXT, st.none() | st.booleans() | _INTS | _FLOATS
                        | _TEXT | st.lists(_INTS, max_size=3), max_size=3)
_BUDGETS = st.builds(Budgets, _INTS, _FLOATS | st.just(math.inf),
                     _FLOATS | st.just(math.inf))
_FLOW_INFO = st.builds(FlowInfo, st.builds(FlowKey, _TEXT, _TEXT, _INTS,
                                           _INTS, _INTS), _TEXT, _TEXT)
_DETECTOR = st.builds(DetectorParams, **{
    f.name: _INTS if f.type == "int" else _FLOATS
    for f in fields(DetectorParams)})
_MANIFEST = st.builds(RunManifest, _INTS, _TEXT, _TEXT, _TEXT, _TEXT)
RECORDS = {
    "flow table": (dict[int, FlowInfo], st.dictionaries(_INTS, _FLOW_INFO,
                                                        max_size=3)),
    "labels": (list[EpisodeLabel], st.lists(st.builds(
        EpisodeLabel, _INTS, _INTS, _INTS, _TEXT, _BUDGETS, st.booleans()),
        max_size=3)),
    "manifest": (RunManifest, _MANIFEST),
    "config": (WorldConfig, st.builds(
        WorldConfig, _TEXT, _INTS, _INTS, _INTS, _FLOATS,
        st.lists(st.builds(BenignFlowSpec, _INTS, _TEXT, _INTS, _TEXT, _FREE),
                 max_size=2),
        st.lists(st.builds(EpisodeSpec, _INTS, _TEXT, _INTS, _TEXT, _INTS,
                           _INTS, _BUDGETS, _TEXT, _FREE, _FREE), max_size=2),
        st.tuples(_INTS, _INTS), st.tuples(_FLOATS, _FLOATS),
        st.tuples(_FLOATS, _FLOATS, _FLOATS), _INTS)),
    "feasibility": (list[FeasibilityOutcome], st.lists(st.builds(
        FeasibilityOutcome, _INTS, _BUDGETS, st.booleans(), _INTS, _FLOATS,
        _FLOATS | st.just(math.nan)), max_size=3)),
    "detector params": (DetectorParams, _DETECTOR),
    # detect_manifest.json, the record read_thresholds reads
    "thresholds": (DetectManifest, st.builds(
        DetectManifest, quantile=_FLOATS, k=_INTS, m=_INTS, w_min=_INTS,
        world=_MANIFEST, detector_params=_DETECTOR, scores_sha256=_TEXT,
        flows=st.dictionaries(_INTS, st.builds(
            FlowThresholds, *[_FLOATS | st.just(math.nan)] * 2),
            max_size=3))),
}


@pytest.mark.parametrize("record", sorted(RECORDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_codec_round_trip(record, data):
    cls, strategy = RECORDS[record]
    x = data.draw(strategy)
    back = from_json(cls, json.loads(json.dumps(to_json(x))), "doc")
    # repr, not ==: it tells 1 from 1.0, and the NaN sentinel from itself
    assert repr(back) == repr(x)


@pytest.mark.parametrize("record, message", [
    (Budgets(0, -math.inf, 1.0),
     "epsilon_s = -inf is neither a finite number nor null"),
    (Budgets(0, math.nan, 1.0),
     "epsilon_s = nan is neither a finite number nor null"),
    (FeasibilityOutcome(1, Budgets(0, 1.0, 1.0), True, 0, math.nan, 0.0),
     "final_distortion = nan is not a finite number"),
    (FeasibilityOutcome(1, Budgets(0, 1.0, 1.0), True, 0, 0.0, math.inf),
     "final_delay_delta = inf is neither a finite number nor null"),
    (GateConfig(omega_0=math.inf), "omega_0 = inf is not a finite number"),
], ids=["-inf budget", "nan budget", "nan distortion", "inf delay delta",
        "inf weight"])
def test_codec_refuses_a_non_finite_value_it_cannot_write(record, message):
    doc = json.loads(json.dumps(to_json(record)))
    with pytest.raises(ValueError, match=f"^doc: {re.escape(message)}$"):
        from_json(type(record), doc, "doc")


@pytest.mark.parametrize("cls, doc, message", [
    (FlowKey, {"src_ip": "a", "dst_ip": "b", "src_port": 1, "dst_port": 2},
     "missing key 'proto'"),
    (GateConfig, {"omega_0": 1.0, "omega0": 1.0}, "unknown key 'omega0'"),
    (Budgets, {"r_min_bytes": True, "epsilon_s": None, "delta_q_s": None},
     "r_min_bytes = True is not an integer"),
    (Budgets, {"r_min_bytes": 7.0, "epsilon_s": None, "delta_q_s": None},
     "r_min_bytes = 7.0 is not an integer"),
    (GateConfig, {"t_g_s": False}, "t_g_s = False is not a finite number"),
    (FlowInfo, {"key": [], "device_class": "a", "label": BENIGN},
     "key is not a JSON object"),
    (WorldConfig, {"world_id": "w", "seed": 1, "horizon_windows": 1,
                   "window_us": 1, "capacity_bps": 1.0, "split": [1.0]},
     "split = [1.0] is not a JSON list of 3"),
    (list[EpisodeLabel], {}, "the document is not a JSON list"),
    (dict[int, FlowInfo], {"01": {}}, "key '01' of the document is not an "
                                      "integer"),
    (BenignFlowSpec, {"flow_id": 1, "device_class": "a", "clique_id": 0,
                      "kind": "k", "params": [1]}, "params is not a JSON "
                                                   "object"),
    (EpisodeLabel, {"flow_id": 1, "start_window": 0, "end_window": 1,
                    "kind": 7, "budgets": {}, "feasible": True},
     "kind = 7 is not a string"),
    (GateConfig, {"t_g_s": 10**400}, f"t_g_s = {10**400} is not a finite "
                                     "number"),
], ids=["missing key", "unknown key", "bool for an int",
        "float for an int", "bool for a float", "object not an object",
        "short tuple", "list not a list", "key not an integer",
        "free-form dict not an object", "int for a str",
        "int beyond the float range"])
def test_codec_refusals_name_the_key(cls, doc, message):
    with pytest.raises(ValueError, match=f"^doc: {re.escape(message)}$"):
        from_json(cls, doc, "doc")


def test_codec_stores_a_json_int_as_a_float():
    cfg = from_json(WorldConfig, {"world_id": "w", "seed": 1,
                                  "horizon_windows": 4, "window_us": 10,
                                  "capacity_bps": 1250000}, "doc")
    assert repr(cfg.capacity_bps) == "1250000.0"
    assert cfg.split == (0.6, 0.2, 0.2) and cfg.benign_flows == []
    assert to_json(cfg)["capacity_bps"] == 1250000.0


def test_subset_keeps_metadata():
    ft = make_flow_table()
    tr = Trace(np.array([10, 20, 30]), np.array([0, 1, 0]),
               np.array([100, 110, 120]), np.array([0, 0, 0]), ft, 4, 250_000)
    sub = tr.take(tr.flow_id == 0)
    assert sub.n_packets == 2
    assert sub.flow_table is tr.flow_table
    assert sub.window_us == tr.window_us


# ---------------------------------------------------------------------------
# the CSV readers refuse what their writers cannot have written


def _write_scores(path, n):
    f = np.arange(n, dtype=np.float64)
    write_scores_csv(path, Scores(f, f, f / 7, f / 3, f, f, f / 3,
                                  f % 2 == 1, f % 3 == 1, f / 7))


def _write_queue_log(path, n):
    t = np.arange(n)
    write_queue_log(path, QueueEventLog(t % 3, t % 2, t * 10, t * 10 + 0.5,
                                        t * 10 + 2.25, t % 2 == 0))


READERS = {"scores": (_write_scores, read_scores_csv),
           "queue log": (_write_queue_log, read_queue_log)}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(READERS)), st.integers(1, 5),
       st.sampled_from(["truncated last line", "nan field", "reordered header",
                        "empty file"]), st.data())
def test_readers_refuse_corrupt_files(tmp_path_factory, reader, n, corruption,
                                      data):
    write, read = READERS[reader]
    path = tmp_path_factory.mktemp("csv") / "artifact.csv"
    write(path, n)
    recorded = (_csv_sha256(path).hex(), "record.json")
    lines = path.read_text().splitlines()
    read(path, recorded)  # the intact file reads
    names = lines[0].split(",")
    if corruption == "truncated last line":  # at least one field lost
        cut = data.draw(st.integers(1, lines[-1].rindex(",")))
        lines[-1] = lines[-1][:cut]
    elif corruption == "nan field":
        k = data.draw(st.integers(1, n))
        cells = lines[k].split(",")
        cells[data.draw(st.integers(0, len(names) - 1))] = "nan"
        lines[k] = ",".join(cells)
    elif corruption == "reordered header":
        lines[0] = ",".join(data.draw(
            st.permutations(names).filter(lambda p: p != names)))
    else:
        lines = []
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: sha256 "):
        read(path, recorded)


# ---------------------------------------------------------------------------
# the column kernel writes the bytes of the row-at-a-time writer it replaced

# signed zeros, subnormals, and whole values at and around the magnitudes
# where %r (1e16) and %.17g (1e17) switch to an exponent
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.5,
               -2.5, 1e15, 1e15 + 1, -1e15, 1e16 - 2, 1e16, 1e16 + 2, -1e16,
               1e17 - 16, 1e17, 1e17 + 16, -1e17, 2.0**53 - 1, 2.0**53,
               2.0**53 + 2, -(2.0**53 + 2), 1e300, math.inf, -math.inf,
               math.nan]
EDGE_INTS = [0, -1, 1, 9, 10, -10, 2**63 - 1, -2**63, 10**18, -10**18]

FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS),
                   st.integers(-10**17, 10**17).map(float))


def _column(conv, n):
    """n values for a column under conv: ints or bools under %d, floats
    under %r and %.17g."""
    if conv != "d":
        return st.lists(FLOATS, min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.float64))
    return st.one_of(
        st.lists(st.one_of(st.integers(-2**63, 2**63 - 1),
                           st.sampled_from(EDGE_INTS)),
                 min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.booleans(), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=bool)))


def table_class(convs, dtypes):
    """A Table of columns a, b, ..., one per conversion and dtype."""
    return make_dataclass("Columns", [
        (chr(ord("a") + j), np.ndarray, column(conv, dtype))
        for j, (conv, dtype) in enumerate(zip(convs, dtypes))],
        bases=(Table,), frozen=True, eq=False)


def _kernel_and_oracle(d, convs, cols):
    table = table_class(convs, [c.dtype for c in cols])(*cols)
    write_table(d / "kernel.csv", table)
    write_csv_rows(d / "oracle.csv", ",".join(f.name for f in fields(table)),
                   ",".join("%" + c for c in convs) + "\n", cols)
    return (d / "kernel.csv").read_bytes(), (d / "oracle.csv").read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["d", "r", ".17g"]), min_size=1, max_size=4),
       st.integers(0, 12), st.integers(1, 5), st.booleans(), st.data())
def test_write_csv_matches_row_oracle(tmp_path_factory, convs, n, block,
                                      repeat_first, data):
    cols = [data.draw(_column(conv, n)) for conv in convs]
    if repeat_first:  # the same column twice is formatted once
        convs, cols = convs + convs[:1], cols + cols[:1]
    with mock.patch.object(trace_module, "_WRITE_BLOCK", block):
        kernel, oracle = _kernel_and_oracle(
            tmp_path_factory.mktemp("csv"), convs, cols)
    assert kernel == oracle


def test_write_csv_matches_row_oracle_across_blocks(tmp_path):
    n = 2 * trace_module._WRITE_BLOCK + 3
    rng = np.random.default_rng(7)
    t = rng.integers(0, 10**9, n)
    cols = [t % 50, t, t * 8.0, t / 3, rng.random(n) < 0.5]
    kernel, oracle = _kernel_and_oracle(tmp_path, ["d", "d", ".17g", "r", "d"],
                                        cols)
    assert kernel == oracle
    assert kernel.count(b"\n") == n + 1


def _repr_sweep(group):
    """The float64 values of one group of the %r sweep."""
    if group == "random bits":  # every exponent, both signs, subnormals
        return np.random.default_rng(28).integers(
            0, 2**64, 2**20, dtype=np.uint64).view(np.float64)
    if group == "powers of two":  # c = 2**52: the gap below is the smaller
        return np.ldexp(1.0, np.arange(-1074, 1024))
    if group == "powers of ten":
        p = np.array([float(f"1e{k}") for k in range(-323, 309)])
        return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
    if group == "notation switches":  # 1e-4 and 1e16, and the decades around
        rng = np.random.default_rng(16)
        steps = np.arange(-64, 65)
        edges = [np.array([x]).view(np.int64) + steps for x in (1e-4, 1e16)]
        v = np.concatenate([e.view(np.float64) for e in edges] + [
            10.0 ** rng.uniform(-5.0, -3.0, 4096),
            10.0 ** rng.uniform(15.0, 17.0, 4096),
            np.floor(10.0 ** rng.uniform(15.0, 17.0, 4096))])
        return np.concatenate([v, -v])
    return np.array([0.0, -0.0, math.inf, -math.inf, math.nan])


@pytest.mark.parametrize("group", ["random bits", "powers of two",
                                   "powers of ten", "notation switches",
                                   "zeros and non-finite"])
def test_repr_kernel_is_repr(group):
    values = _repr_sweep(group)
    if group == "random bits":  # every sign and exponent field occurs
        assert len(np.unique(values.view(np.uint64) >> np.uint64(52))) \
            == 4096
    # one kernel call per group, but 2**17 random values per call: a
    # million values in one call would hold some 360 MB at once
    cells = np.concatenate([trace_module._cell_bytes(values[s:s + 2**17], "r")
                            for s in range(0, values.size, 2**17)], axis=0) \
        if group == "random bits" else trace_module._cell_bytes(values, "r")
    text = np.concatenate([cells, np.full((values.size, 1), 10, np.uint8)],
                          axis=1)
    lines = text[text != 0].tobytes().decode().splitlines()
    expected = list(map(repr, values.tolist()))
    wrong = [(v, got, want) for v, got, want
             in zip(values.tolist(), lines, expected) if got != want]
    assert len(lines) == len(expected)
    assert not wrong, f"{len(wrong)} values, first {wrong[:3]}"


def test_importing_the_cli_builds_no_power_of_ten_table():
    # g(k) is made on first use, so that a stage's set-up does not pay it
    code = """if True:
        import numpy as np
        import flowgate.cli
        from flowgate import trace
        print(trace._tables.cache_info().currsize)
        trace._cell_bytes(np.array([0.1]), "r")
        print(trace._tables.cache_info().currsize)
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"),
         os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    assert out.split() == ["0", "1"]


def test_write_csv_of_empty_columns_is_the_header(tmp_path):
    kernel, oracle = _kernel_and_oracle(tmp_path, ["d", "r"], [
        np.zeros(0, dtype=np.int64), np.zeros(0)])
    assert kernel == oracle == b"a,b\n"


@pytest.mark.parametrize("row, n_cols", [
    ("%s\n", 1), ("%5d\n", 1), ("%.16g\n", 1), ("%x\n", 1), ("%f\n", 1),
    ("%d%%\n", 1), ("%d,%d\n", 1), ("%d\n", 2)])
def test_write_csv_refuses_other_conversions(row, n_cols):
    # a row is declared as a Table of one column per conversion: another
    # conversion is refused, and so is another number of columns
    convs = [c[1:] for c in row[:-1].split(",")]
    with pytest.raises((ValueError, TypeError)):
        table_class(convs, [np.int64] * len(convs))(*[np.arange(3)] * n_cols)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(*(
    [st.lists(st.integers(0, 2**53 - 1), min_size=n, max_size=n)] * 3
    + [st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=n, max_size=n)] * 2
    + [st.lists(st.booleans(), min_size=n, max_size=n)]))))
def test_queue_log_and_csv_round_trip(tmp_path_factory, cols):
    d = tmp_path_factory.mktemp("log")
    log = QueueEventLog(*cols)
    sha256 = write_queue_log(d / "a.csv", log)
    back = read_queue_log(d / "a.csv", (sha256, "replay_manifest.json"))
    assert back == log
    write_queue_log(d / "b.csv", back)
    assert (d / "a.csv").read_bytes() == (d / "b.csv").read_bytes()
    # the text parse reads the same log
    assert read_table_text(QueueEventLog, d / "a.csv") == back


# ---------------------------------------------------------------------------
# the binary twin reads as the text parse, and is read only when it is bound
# to the CSV's bytes, which a record binds

# each CSV artifact's Table, and the other fields its reader gives it
TABLES = {"scores": (Scores, {}),
          "trace": (Trace, {"flow_table": {}, "horizon_windows": 1,
                            "window_us": 1}),
          "queue log": (QueueEventLog, {}),
          "schedule": (Schedule, {})}


def _values(dtype, n):
    """n values of a column of dtype: mostly what write_table can write
    and read back, with negative, huge and non-finite ones mixed in."""
    value = {"i": st.one_of(st.integers(0, 2**53 - 1),
                            st.sampled_from(EDGE_INTS)),
             "f": st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                            st.sampled_from(EDGE_FLOATS)),
             "b": st.booleans()}[dtype.kind]
    return st.lists(value, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=dtype))


def _outcome(read, path):
    """What read(path) gives: its arrays' dtypes and bytes, or its refusal."""
    try:
        arrays = read(path)
    except ValueError as exc:
        return "refused", str(exc)
    return "read", [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(TABLES)), st.integers(0, 6), st.data())
def test_twin_reads_as_the_text_parse(tmp_path_factory, table, n, data):
    # the text parse, kept in the tests as the oracle, reads and refuses
    # what the twin reader does, in the same words
    cls, riders = TABLES[table]
    cols = {name: data.draw(_values(dtype, n))
            for name, _, dtype in table_columns(cls)}
    path = tmp_path_factory.mktemp("twin") / "a.csv"
    recorded = (write_table(path, cls(**cols, **riders)), "record.json")
    assert twin_path(path).is_file()

    def via_twin(p):
        return _columns_of(read_table(cls, p, recorded, **riders))

    def via_text(p):
        return _columns_of(read_table_text(cls, p, **riders))

    assert _outcome(via_twin, path) == _outcome(via_text, path)


def test_no_twin_where_the_text_reads_otherwise():
    # a declared column's text reads back as its dtype, so its twin record
    # reads as the text; a column whose text would not is refused
    for conv, dtype in (("r", bool), ("d", np.float64), (".17g", np.int64),
                        ("r", np.complex128), ("d", "S8")):
        with pytest.raises(ValueError, match="column"):
            column(conv, dtype)


def test_trace_read_takes_only_integer_text_from_the_twin(tmp_path):
    # a twin bound to the trace's bytes whose ts_us record is float64 is not
    # the twin of a Trace: it is refused, naming the twin and the record
    path = tmp_path / "trace.csv"
    trace = Trace([10, 20], [1, 2], [64, 64], [0, 0], {}, 1, 1)
    sha256 = write_trace_csv(path, trace)
    cols = twin_columns(path, [np.dtype(np.int64)] * 4, _csv_sha256(path))
    _bound_twin(path, cols[0].astype(np.float64), *cols[1:])
    with pytest.raises(ValueError, match=(
            f"^{re.escape(str(twin_path(path)))}: record 0 is not a 1-D "
            "int64 column")):
        read_trace_csv(path, (sha256, "manifest.json"), {}, 1, 1)


def _csv_sha256(path):
    return hashlib.sha256(path.read_bytes()).digest()


def _bound_twin(path, *records, **save):
    """Replace path's twin with the CSV's sha256 and these records."""
    with open(twin_path(path), "wb") as fh:
        fh.write(_csv_sha256(path))
        for rec in records:
            np.save(fh, rec, **save)


def _swap_rows(path, n, data):
    lines = path.read_text().splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("".join(lines))


def _nan_field(path, n, data):
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[-1].split(",")
    cells[data.draw(st.integers(0, len(cells) - 2))] = "nan"
    lines[-1] = ",".join(cells)
    path.write_text("".join(lines))


def _no_twin(path, n, data):
    twin_path(path).unlink()


def _other_twin(path, n, data):
    other = path.with_name("other.csv")
    write, _ = READERS[path.stem]
    write(other, n + 1)
    twin_path(other).replace(twin_path(path))


def _cut_twin(path, n, data):
    twin = twin_path(path).read_bytes()
    twin_path(path).write_bytes(twin[:data.draw(st.integers(0,
                                                            len(twin) - 1))])


def _twin_records(path):
    """The columns of the twin of path, a scores file or a queue log named
    after its reader, bound to the CSV's bytes."""
    cls = {"scores": Scores, "queue log": QueueEventLog}[path.stem]
    return twin_columns(path, [d for *_, d in table_columns(cls)],
                        _csv_sha256(path))


def _object_twin(path, n, data):
    cols = _twin_records(path)
    _bound_twin(path, *[c.astype(object) for c in cols], allow_pickle=True)


def _extra_record(path, n, data):
    cols = _twin_records(path)
    _bound_twin(path, *cols, cols[0])


def _matrix_record(path, n, data):
    cols = _twin_records(path)
    _bound_twin(path, cols[0][:, None], *cols[1:])


def _short_column(path, n, data):
    cols = _twin_records(path)
    _bound_twin(path, *cols[:-1], cols[-1][:-1])


def _string_column(path, n, data):
    cols = _twin_records(path)
    _bound_twin(path, cols[0].astype("S24"), *cols[1:])


def _float_column(path, n, data):
    cols = _twin_records(path)
    _bound_twin(path, cols[0].astype(np.float64), *cols[1:])


# each fault, and the file its refusal names first
TWIN_FAULTS = {"edited CSV: rows swapped": (_swap_rows, "csv"),
               "edited CSV: a field made nan": (_nan_field, "csv"),
               "no twin": (_no_twin, "twin"),
               "twin of another CSV": (_other_twin, "twin"),
               "twin cut short": (_cut_twin, "twin"),
               "twin of object arrays": (_object_twin, "twin"),
               "twin with an extra record": (_extra_record, "twin"),
               "twin with a 2-D record": (_matrix_record, "twin"),
               "twin with a short column": (_short_column, "twin"),
               "twin with a string column": (_string_column, "twin"),
               "twin with a float64 flow_id": (_float_column, "twin")}


def _columns_of(loaded):
    """The columns of a read Table."""
    return [getattr(loaded, name) for name, *_ in table_columns(type(loaded))]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(READERS)), st.sampled_from(sorted(TWIN_FAULTS)),
       st.integers(2, 5), st.data())
def test_a_stale_or_malformed_twin_is_refused(tmp_path_factory, reader,
                                               fault, n, data):
    # the record binds the CSV's bytes, and the CSV binds its twin: an edit
    # of either is refused, naming the file, and never read around
    write, read = READERS[reader]
    path = tmp_path_factory.mktemp("twin") / f"{reader}.csv"
    write(path, n)
    recorded = (_csv_sha256(path).hex(), "record.json")
    read(path, recorded)
    edit, named = TWIN_FAULTS[fault]
    edit(path, n, data)
    with mock.patch("pickle.load", side_effect=AssertionError("unpickled")):
        with pytest.raises((ValueError, OSError)) as exc:
            read(path, recorded)
    first = {"csv": f"{path}: sha256 ",
             "twin": f"{twin_path(path)}: "}[named]
    assert str(exc.value).startswith(first) or (
        fault == "no twin" and exc.value.filename == str(twin_path(path)))
    with pytest.raises((ValueError, OSError)):
        _twin_records(path)


def test_twin_read_of_a_queue_log_peaks_at_the_log_plus_one_column(tmp_path):
    # a demo world's queue log has about 270k rows
    n = 270_000
    rng = np.random.default_rng(5)
    t = np.cumsum(rng.integers(0, 40, n))
    wait = rng.random(n) * 1e4
    log = QueueEventLog(t % 46, t % 5, t, t + wait, t + wait + 97.5,
                        rng.random(n) < 0.9)
    path = tmp_path / "queue_log.csv"
    recorded = (write_queue_log(path, log), "replay_manifest.json")
    tracemalloc.start()
    try:
        back = read_queue_log(path, recorded)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = {}  # the buffers the returned log keeps alive
    for a in _columns_of(back):
        base = a if a.base is None else a.base
        held[id(base)] = base.nbytes
    assert peak <= sum(held.values()) + n * 8
    assert back == log
