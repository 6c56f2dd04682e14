from __future__ import annotations

import dataclasses
import gc
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexar import trace as trace_module
from hexar.scenarios import N_SCENARIOS, N_TASK_VARIANTS
from hexar.simulate import generate_trace
from hexar.trace import (
    Event,
    Explanation,
    Query,
    TaskPlan,
    Trace,
    TraceError,
    read_trace,
    validate_trace,
    write_trace,
)

MINIMAL_FILE = "\n".join(
    [
        '{"scenario_id": 1, "task_variant": 1, "seed": 0}',
        '{"ts": 0.000000, "source": "planner", "kind": "plan", '
        '"payload": {"instruction": "go", "steps.0.params.location": "kitchen", '
        '"steps.0.skill": "navigation", "valid": true}}',
        '{"ts": 0.500000, "source": "navigation", "kind": "skill_status", '
        '"payload": {"skill": "navigation", "status": "running"}}',
        '{"ts": 1.000000, "source": "navigation", "kind": "skill_status", '
        '"payload": {"skill": "navigation", "status": "succeeded"}}',
    ]
)


def test_read_minimal_file(tmp_path):
    path = tmp_path / "minimal.trace"
    path.write_text(MINIMAL_FILE + "\n", encoding="utf-8")
    trace = read_trace(path)
    assert len(trace.events) == 3
    assert trace.scenario_id == 1
    assert trace.events[0].kind == "plan"


def test_read_rejects_out_of_order_timestamps(tmp_path):
    lines = [
        '{"scenario_id": 1, "task_variant": 1, "seed": 0}',
        '{"ts": 0.000000, "source": "system", "kind": "log", "payload": {"text": "a"}}',
        '{"ts": 2.000000, "source": "system", "kind": "log", "payload": {"text": "b"}}',
        '{"ts": 1.000000, "source": "system", "kind": "log", "payload": {"text": "c"}}',
    ]
    path = tmp_path / "bad.trace"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TraceError, match="event 3"):
        read_trace(path)


def test_ordering_violation_counts_events_not_file_lines(tmp_path):
    lines = [
        '{"scenario_id": 1, "task_variant": 1, "seed": 0}',
        "",
        "",
        '{"ts": 0.000000, "source": "system", "kind": "log", "payload": {"text": "a"}}',
        '{"ts": 2.000000, "source": "system", "kind": "log", "payload": {"text": "b"}}',
        '{"ts": 1.000000, "source": "system", "kind": "log", "payload": {"text": "c"}}',
    ]
    path = tmp_path / "blank.trace"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TraceError, match=r"at event 3 \(file line 6\)"):
        read_trace(path)


def test_read_reports_parse_error_line(tmp_path):
    path = tmp_path / "broken.trace"
    path.write_text(
        '{"scenario_id": 1, "task_variant": 1, "seed": 0}\nnot json\n', encoding="utf-8"
    )
    with pytest.raises(TraceError, match="line 2"):
        read_trace(path)


def test_read_rejects_malformed_header(tmp_path):
    path = tmp_path / "hdr.trace"
    path.write_text('{"nope": 1}\n', encoding="utf-8")
    with pytest.raises(TraceError, match="line 1"):
        read_trace(path)


def test_write_empty_trace_has_header_only(tmp_path):
    trace = Trace(scenario_id=2, task_variant=1, seed=9, events=())
    path = tmp_path / "empty.trace"
    write_trace(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ['{"scenario_id": 2, "task_variant": 1, "seed": 9}']
    assert read_trace(path) == trace


@pytest.mark.parametrize("scenario_id", range(1, N_SCENARIOS + 1))
def test_round_trip_on_simulator_output(tmp_path, scenario_id):
    trace = generate_trace(scenario_id, 1, 42)
    path = tmp_path / f"s{scenario_id}.trace"
    write_trace(trace, path)
    assert read_trace(path) == trace


@settings(max_examples=20, deadline=None)
@given(
    scenario_id=st.integers(min_value=1, max_value=20),
    variant=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_round_trip_property(tmp_path_factory, scenario_id, variant, seed):
    trace = generate_trace(scenario_id, variant, seed)
    path = tmp_path_factory.mktemp("rt") / "t.trace"
    write_trace(trace, path)
    assert read_trace(path) == trace


def test_two_writes_are_byte_identical(tmp_path):
    trace = generate_trace(7, 1, 42)
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    write_trace(trace, a)
    write_trace(trace, b)
    assert a.read_bytes() == b.read_bytes()


def test_floats_use_fixed_six_decimals(tmp_path):
    trace = Trace(
        scenario_id=1,
        task_variant=1,
        seed=0,
        events=(
            Event(ts=0.0, source="system", kind="param", payload={"name": "x", "value": 2.5}),
        ),
    )
    path = tmp_path / "f.trace"
    write_trace(trace, path)
    text = path.read_text(encoding="utf-8")
    assert '"ts": 0.000000' in text
    assert '"value": 2.500000' in text
    back = read_trace(path)
    assert isinstance(back.events[0].payload["value"], float)


def test_event_validation():
    cases = [
        ((-1.0, "system", "log", {}), "negative event timestamp: -1.0"),
        ((float("nan"), "system", "log", {}), "non-finite event timestamp: nan"),
        ((float("inf"), "system", "log", {}), "non-finite event timestamp: inf"),
        ((-float("inf"), "system", "log", {}), "negative event timestamp: -inf"),
        ((0.0, "warp_drive", "log", {}), "unknown event source: 'warp_drive'"),
        ((0.0, ["system"], "log", {}), "unknown event source: ['system']"),
        ((0.0, "system", "telepathy", {}), "unknown event kind: 'telepathy'"),
        (
            (0.0, "navigation", "skill_status", {"skill": "navigation"}),
            "malformed skill_status payload: {'skill': 'navigation'}",
        ),
    ]
    for args, message in cases:
        with pytest.raises(TraceError) as excinfo:
            Event(*args)
        assert str(excinfo.value) == message


def test_event_is_frozen_slotted_and_revalidated_by_replace():
    event = Event(0.5, "navigation", "log", {"text": "hi"})
    assert event == Event(ts=0.5, source="navigation", kind="log", payload={"text": "hi"})
    assert not hasattr(event, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.ts = 1.0
    assert dataclasses.replace(event, ts=2.0).ts == 2.0
    with pytest.raises(TraceError, match="negative event timestamp"):
        dataclasses.replace(event, ts=-1.0)


def test_trace_rejects_disorder_at_construction():
    events = (
        Event(ts=1.0, source="system", kind="log", payload={"text": "a"}),
        Event(ts=0.5, source="system", kind="log", payload={"text": "b"}),
    )
    with pytest.raises(TraceError):
        Trace(scenario_id=1, task_variant=1, seed=0, events=events)


@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]), max_size=8))
def test_trace_disorder_error_names_the_first_offender(stamps):
    """The one-pass order check reports what the event-by-event loop reported."""
    events = tuple(Event(ts, "system", "log", {"text": "x"}) for ts in stamps)
    expected = None
    last = 0.0
    for i, ts in enumerate(stamps):
        if ts < last:
            expected = f"out-of-order timestamp at event {i + 1}: {ts:.6f} < {last:.6f}"
            break
        last = ts
    if expected is None:
        assert Trace(scenario_id=1, task_variant=1, seed=0, events=events).events == events
    else:
        with pytest.raises(TraceError) as excinfo:
            Trace(scenario_id=1, task_variant=1, seed=0, events=events)
        assert str(excinfo.value) == expected


def test_task_plan_validity_matches_grounding_errors():
    with pytest.raises(TraceError):
        TaskPlan(instruction="x", steps=(), valid=True, grounding_errors=("oops",))
    with pytest.raises(TraceError):
        TaskPlan(instruction="x", steps=(), valid=False, grounding_errors=())


def test_task_plan_payload_round_trip(trace_cache):
    plan_event = trace_cache(3).plan_event
    plan = TaskPlan.from_payload(plan_event.payload)
    assert plan.to_payload() == dict(plan_event.payload)
    assert plan.steps[0].skill == "navigation"


def test_query_and_explanation_invariants():
    with pytest.raises(TraceError):
        Query(text="", asked_at=0.0)
    with pytest.raises(TraceError):
        Explanation(text="", produced_by="x")
    with pytest.raises(TraceError):
        Explanation(text="ok", produced_by="x", reasoner_calls=-1)


@pytest.mark.parametrize("scenario_id", range(1, N_SCENARIOS + 1))
@pytest.mark.parametrize("variant", [1, 2, 3])
def test_all_grid_traces_pass_validator(trace_cache, scenario_id, variant):
    validate_trace(trace_cache(scenario_id, variant))


def test_validator_rejects_missing_plan():
    trace = Trace(
        scenario_id=1,
        task_variant=1,
        seed=0,
        events=(Event(ts=0.0, source="system", kind="log", payload={"text": "a"}),),
    )
    with pytest.raises(TraceError, match="plan"):
        validate_trace(trace)


def test_validator_rejects_status_without_plan_coverage(trace_cache):
    plan_event = trace_cache(3).plan_event
    trace = Trace(scenario_id=3, task_variant=1, seed=0, events=(plan_event,))
    with pytest.raises(TraceError, match="skill_status"):
        validate_trace(trace)


_HEADER = '{"scenario_id": 1, "task_variant": 1, "seed": 0}'
_EVENT = '{"ts": 0.5, "source": "navigation", "kind": "log", "payload": {"text": "hi"}}'


@pytest.mark.parametrize(
    "line, message",
    [
        ("not json", "Expecting value: line 1 column 1 (char 0)"),
        (_EVENT + " x", "Extra data: line 1 column 79 (char 78)"),
        (_EVENT + "\xa0", "Extra data: line 1 column 78 (char 77)"),
        (
            "﻿" + _EVENT,
            "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
        ),
        ("[1, 2]", "list indices must be integers or slices, not str"),
        ('{"ts": 0.5, "source": "navigation", "kind": "log"}', "'payload'"),
    ],
    ids=["not-json", "extra-data", "nbsp-after-record", "bom", "non-object", "no-payload"],
)
def test_read_trace_error_messages_match_json_loads(tmp_path, line, message):
    # messages as json.loads reports them; the reader must not drift from them
    path = tmp_path / "bad.trace"
    path.write_text(f"{_HEADER}\n{line}\n", encoding="utf-8")
    with pytest.raises(TraceError) as excinfo:
        read_trace(path)
    assert str(excinfo.value) == f"{path}: malformed event at line 2: {message}"


def test_read_trace_header_error_message(tmp_path):
    path = tmp_path / "blank-header.trace"
    path.write_text("  \n", encoding="utf-8")
    with pytest.raises(TraceError) as excinfo:
        read_trace(path)
    assert str(excinfo.value) == (
        f"{path}: malformed header at line 1: Expecting value: line 1 column 3 (char 2)"
    )


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_read_trace_rejects_non_finite_timestamps(tmp_path, token):
    # NaN would also hide the disorder of the 1.0 that follows it
    path = tmp_path / "non-finite.trace"
    lines = [_HEADER] + [_EVENT.replace("0.5", ts) for ts in ("2.0", token, "1.0")]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TraceError) as excinfo:
        read_trace(path)
    assert str(excinfo.value) == (
        f"{path}: malformed event at line 3: non-finite event timestamp: {float(token)}"
    )


@pytest.mark.parametrize("line", [" \t" + _EVENT + "\t  ", "\x0c", " \t "])
def test_read_trace_accepts_padding_and_skips_blank_lines(tmp_path, line):
    path = tmp_path / "padded.trace"
    path.write_text(f"{_HEADER}\n{line}\n", encoding="utf-8")
    trace = read_trace(path)
    expected = 1 if _EVENT in line else 0
    assert len(trace.events) == expected
    if expected:
        assert trace.events[0].payload == {"text": "hi"}


def test_round_trip_on_every_grid_trace_of_seeds_0_to_4(tmp_path):
    path = tmp_path / "t.trace"
    for seed in range(5):
        for scenario_id in range(1, N_SCENARIOS + 1):
            for variant in range(1, N_TASK_VARIANTS + 1):
                trace = generate_trace(scenario_id, variant, seed)
                write_trace(trace, path)
                assert read_trace(path) == trace, (scenario_id, variant, seed)


# str.splitlines() breaks lines at these too; write_trace leaves them raw
_UNICODE_BREAKS = "\u2028\u2029\x85"


@settings(max_examples=50, deadline=None)
@given(
    texts=st.lists(st.text(st.characters() | st.sampled_from(_UNICODE_BREAKS)), max_size=4)
)
def test_round_trip_keeps_unicode_line_breaks_in_payload_text(tmp_path_factory, texts):
    events = tuple(
        Event(i * 0.25, "system", "log", {"text": _UNICODE_BREAKS + text, text: i})
        for i, text in enumerate(texts)
    )
    trace = Trace(scenario_id=1, task_variant=1, seed=0, events=events)
    path = tmp_path_factory.mktemp("rt") / "t.trace"
    write_trace(trace, path)
    assert read_trace(path) == trace


def test_round_trip_escapes_lone_surrogates(tmp_path):
    # not encodable as UTF-8: each is written as its JSON \uXXXX escape
    text = "a\ud800\\\udfff\udbff"
    events = (Event(0.0, "system", "log", {"text": text, "\udc00": 1}),)
    trace = Trace(scenario_id=1, task_variant=1, seed=0, events=events)
    path = tmp_path / "t.trace"
    write_trace(trace, path)
    assert "\\ud800\\\\\\udfff\\udbff" in path.read_text(encoding="utf-8")
    assert read_trace(path) == trace


def _padded_trace(pad: int) -> Trace:
    """A grid trace with ``pad`` navigation log lines appended."""
    trace = generate_trace(7, 1, 0)
    last = trace.events[-1].ts
    pads = tuple(
        Event(round(last + (i + 1) / 1000, 6), "navigation", "log", {"text": "Publishing"})
        for i in range(pad)
    )
    return Trace(trace.scenario_id, trace.task_variant, trace.seed, trace.events + pads)


@pytest.mark.parametrize("pad", [0, 500])
def test_read_trace_decodes_only_the_header_the_slow_way(tmp_path, monkeypatch, pad):
    # every event line of write_trace output must take the single-scan path
    trace = _padded_trace(pad)
    path = tmp_path / "t.trace"
    write_trace(trace, path)
    calls = []
    loads = json.loads

    def counting(raw, *args, **kwargs):
        calls.append(raw)
        return loads(raw, *args, **kwargs)

    monkeypatch.setattr(trace_module.json, "loads", counting)
    assert read_trace(path) == trace
    assert calls == [path.read_text(encoding="utf-8").split("\n")[0]]


def test_read_trace_keeps_no_more_objects_alive_at_once(tmp_path):
    """Reading decodes one record at a time, so the collector's gen-0 count
    grows by at most about two a line (the Event and its payload, unless an
    earlier line shares it); decoding the whole body at once holds every
    record as well and sets off a collection here."""
    trace = _padded_trace(562 - len(generate_trace(7, 1, 0).events))
    assert len(trace.events) == 562
    path = tmp_path / "t.trace"
    write_trace(trace, path)
    assert gc.isenabled()
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    threshold = gc.get_threshold()
    gc.collect()
    gc.set_threshold(int(2.5 * len(trace.events)), *threshold[1:])
    gc.callbacks.append(record)
    try:
        read_trace(path)
    finally:
        gc.callbacks.remove(record)
        gc.set_threshold(*threshold)
    assert collections == []


# -- differential oracle: the reader before the single-scan fast path ---------


def _oracle_decode_line(raw: str) -> object:
    if raw.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", raw, 0)
    decoder = json.JSONDecoder()
    value, end = decoder.raw_decode(raw, len(raw) - len(raw.lstrip(" \t\n\r")))
    rest = raw[end:].lstrip(" \t\n\r")
    if rest:
        raise json.JSONDecodeError("Extra data", raw, len(raw) - len(rest))
    return value


def oracle_read_trace(path: str | Path) -> Trace:
    """The reader as it was, with lines split on "\\n" only."""
    text = Path(path).read_text(encoding="utf-8")
    if not text:
        raise TraceError(f"{path}: empty trace file")
    raw_lines = text.split("\n")
    try:
        header = _oracle_decode_line(raw_lines[0])
        scenario_id = int(header["scenario_id"])
        task_variant = int(header["task_variant"])
        seed = int(header["seed"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"{path}: malformed header at line 1: {exc}") from exc

    events: list[Event] = []
    last_ts = 0.0
    for lineno, raw in enumerate(raw_lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            record = _oracle_decode_line(raw)
            event = Event(
                ts=float(record["ts"]),
                source=str(record["source"]),
                kind=str(record["kind"]),
                payload=dict(record["payload"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"{path}: malformed event at line {lineno}: {exc}") from exc
        if event.ts < last_ts:
            raise TraceError(
                f"{path}: ordering violation at event {len(events) + 1} (file line {lineno}): "
                f"ts {event.ts:.6f} precedes {last_ts:.6f}"
            )
        last_ts = event.ts
        events.append(event)
    return Trace(scenario_id=scenario_id, task_variant=task_variant, seed=seed, events=tuple(events))


_BENIGN = ("canonical", "padded", "blank")
_DEFECTS = (
    "bom",
    "split",
    "two_records",
    "non_object",
    "missing_key",
    "bad_value",
    "string_ts",
    "negative_ts",
    "out_of_order",
    "list_payload",
    "odd_padding",
)
_ODD_HEADERS = [" " + _HEADER, "\ufeff" + _HEADER, "[1]", ""]


@st.composite
def trace_files(draw, defect: str | None) -> str:
    """File text built line by line, with at most one line of shape ``defect``."""
    odd_header = draw(st.integers(0, 7)) == 0
    lines = [draw(st.sampled_from(_ODD_HEADERS)) if odd_header else _HEADER]
    n_lines = draw(st.integers(0, 6))
    defect_at = draw(st.integers(0, n_lines)) if defect else -1
    ts = 0.0
    for i in range(n_lines):
        ts += draw(st.sampled_from([0.0, 0.25, 1.5]))
        record: dict = {
            "ts": ts,
            "source": draw(st.sampled_from(["navigation", "system"])),
            "kind": "log",
            "payload": {"text": draw(st.text(st.sampled_from('ab "\\\n\u2028'), max_size=4))},
        }
        if draw(st.booleans()):
            record["kind"] = "skill_status"
            record["payload"] = {"skill": "navigation", "status": "running"}
        shape = defect if i == defect_at else draw(st.sampled_from(_BENIGN))
        if shape == "missing_key":
            del record[draw(st.sampled_from(sorted(record)))]
        elif shape == "bad_value":
            key, value = draw(
                st.sampled_from([("source", "warp_drive"), ("kind", "telepathy"), ("status", "dancing")])
            )
            if key == "status":
                record["kind"] = "skill_status"
                record["payload"] = {"skill": "navigation", "status": value}
            else:
                record[key] = value
        elif shape == "string_ts":
            record["ts"] = draw(st.sampled_from([str(ts), "soon"]))
        elif shape == "negative_ts":
            record["ts"] = -0.5
        elif shape == "list_payload":
            record["payload"] = draw(st.sampled_from([[["text", "hi"]], [1, 2]]))
        line = json.dumps(record, ensure_ascii=False)
        if shape in ("padded", "odd_padding"):
            chars = " \t" if shape == "padded" else "\x0c\xa0\u2028"
            pad = st.text(st.sampled_from(chars), max_size=3)
            lines.append(draw(pad) + line + draw(pad))
        elif shape == "blank":
            lines.append(draw(st.sampled_from(["", " \t ", "\x0c", "\xa0"])))
        elif shape == "bom":
            lines.append("\ufeff" + line)
        elif shape == "split":
            cut = draw(st.integers(1, len(line) - 1))
            lines.extend([line[:cut], line[cut:]])
        elif shape == "out_of_order":
            lines.extend([json.dumps(dict(record, ts=ts + 1.0)), line])
        elif shape == "two_records":
            lines.append(line + draw(st.sampled_from(["", " "])) + line)
        elif shape == "non_object":
            lines.append(draw(st.sampled_from(["[1, 2]", "5", '"x"', "null"])))
        else:
            lines.append(line)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, "", newline * 2]))


def _outcome(reader, path):
    try:
        return reader(path)
    except TraceError as exc:
        return f"TraceError: {exc}"


@pytest.mark.parametrize("defect", [None, *_DEFECTS])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_read_trace_matches_the_oracle(tmp_path_factory, defect, data):
    path = tmp_path_factory.mktemp("diff") / "t.trace"
    path.write_bytes(data.draw(trace_files(defect)).encode("utf-8"))
    assert _outcome(read_trace, path) == _outcome(oracle_read_trace, path)


def _with_defect(line: str, defect: str, draw) -> list[str]:
    """The lines that replace one write_trace event line given ``defect``."""
    record = json.loads(line)
    if defect == "bom":
        return ["\ufeff" + line]
    if defect == "split":
        cut = draw(st.integers(1, len(line) - 1))
        return [line[:cut], line[cut:]]
    if defect == "two_records":
        return [line + line]
    if defect == "non_object":
        return [draw(st.sampled_from(["[1, 2]", "5", '"x"', "null"]))]
    if defect == "missing_key":
        del record[draw(st.sampled_from(sorted(record)))]
    elif defect == "bad_value":
        record[draw(st.sampled_from(["source", "kind"]))] = "warp_drive"
    elif defect == "string_ts":
        record["ts"] = str(record["ts"])
    elif defect == "negative_ts":
        record["ts"] = -0.5
    elif defect == "list_payload":
        record["payload"] = sorted(record["payload"].items())
    elif defect == "odd_padding":
        return ["\x0c" + line + " "]
    elif defect == "blank":
        return [line, draw(st.sampled_from(["", " \t ", "\xa0"]))]
    return [json.dumps(record, ensure_ascii=False)]


@pytest.mark.parametrize(
    "defect",
    [
        "bom",
        "split",
        "two_records",
        "non_object",
        "missing_key",
        "bad_value",
        "string_ts",
        "negative_ts",
        "out_of_order",
        "list_payload",
        "odd_padding",
        "blank",
    ],
)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_read_trace_matches_the_oracle_on_long_files(tmp_path_factory, defect, data):
    """A 562-event write_trace file with one defect on a drawn line, and at
    times a malformed line after it: the first fault in the file is named."""
    directory = tmp_path_factory.mktemp("long")
    trace = _padded_trace(562 - len(generate_trace(7, 1, 0).events))
    write_trace(trace, directory / "clean.trace")
    lines = (directory / "clean.trace").read_text(encoding="utf-8").split("\n")
    at = data.draw(st.integers(2, len(lines) - 2))
    if defect == "out_of_order":
        # move the line earlier, past events with smaller timestamps
        lines.insert(at - data.draw(st.integers(1, min(at - 1, 50))), lines.pop(at))
    else:
        lines[at:at + 1] = _with_defect(lines[at], defect, data.draw)
    if at + 1 < len(lines) - 1 and data.draw(st.booleans()):
        lines[data.draw(st.integers(at + 1, len(lines) - 2))] = "[1, 2]"
    path = directory / "t.trace"
    path.write_bytes("\n".join(lines).encode("utf-8"))
    assert _outcome(read_trace, path) == _outcome(oracle_read_trace, path)


# -- lines that repeat all but their leading stamp ----------------------------

_REST = ', "source": "navigation", "kind": "log", "payload": {"text": "hi"}}'


def _long_file(lines: list[str]) -> str:
    """``lines`` after a header, then enough lines of one rest at ts 10 to
    make the file long enough that repeated rests are shared."""
    filler = ['{"ts": 10' + _REST] * trace_module._SHARED_REST_MIN_LINES
    return "\n".join([_HEADER, *lines, *filler]) + "\n"


def test_read_trace_shares_the_payload_of_lines_repeating_past_the_stamp(tmp_path):
    trace = _padded_trace(546)
    path = tmp_path / "t.trace"
    write_trace(trace, path)
    back = read_trace(path)
    assert back == trace
    pads = [e.payload for e in back.events if e.payload == {"text": "Publishing"}]
    assert len(pads) == 546 and all(p is pads[0] for p in pads)
    # one payload per distinct rest of a line
    assert len({id(e.payload) for e in back.events}) == len(
        {json.dumps(e.payload) + e.source + e.kind for e in back.events}
    )


def test_read_trace_of_a_long_drive_stays_under_the_first_collector_threshold(tmp_path):
    """About one object is kept a line (the Event), so with the gen-0 count
    threshold a quarter above the event count, reading sets off no
    collection; a payload dict of its own for every line would."""
    trace = _padded_trace(562 - len(generate_trace(7, 1, 0).events))
    path = tmp_path / "t.trace"
    write_trace(trace, path)
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    threshold = gc.get_threshold()
    gc.collect()
    gc.set_threshold(int(1.25 * len(trace.events)), *threshold[1:])
    gc.callbacks.append(record)
    try:
        read_trace(path)
    finally:
        gc.callbacks.remove(record)
        gc.set_threshold(*threshold)
    assert collections == []


@pytest.mark.parametrize(
    "lines",
    [
        # the rest of the line names "ts" again, plainly or escaped
        ['{"ts": 0.5' + _REST[:-1] + ', "ts": 0.25}'],
        ['{"ts": 0.5' + _REST[:-1] + ', "t\\u0073": 0.25}', '{"ts": 0.75' + _REST],
        ['{"ts": 0.5' + _REST[:-1] + ', "ts": "soon"}'],
        # a trailing comma: the rest alone would be an empty object
        ['{"ts": 0.5, }'],
        ['{"ts": 0.5' + _REST[:-1] + ", }"],
        # stamps of every kind ahead of one rest
        ['{"ts": 1' + _REST, '{"ts": true' + _REST, '{"ts": 1.5' + _REST, '{"ts": "2"' + _REST],
        ['{"ts": 1' + _REST, '{"ts": "soon"' + _REST],
        ['{"ts": 1' + _REST, '{"ts": null' + _REST],
        ['{"ts": 1' + _REST, '{"ts": [2]' + _REST],
        ['{"ts": 1' + _REST, '{"ts": {"payload": 2}' + _REST],
        ['{"ts": 1' + _REST, '{"ts": -1' + _REST],
        ['{"ts": 1' + _REST, '{"ts": 01' + _REST],
        ['{"ts": "1, 2"' + _REST],
        ['{"ts": ' + _REST],
        # not as write_trace writes it, or not one record
        ['{"ts":1,"source":"navigation","kind":"log","payload":{"text":"hi"}}'],
        ['{"ts": 1' + _REST + " "],
        ['{"ts": 1' + _REST + '{"ts": 2' + _REST],
        ['{"ts": 1' + _REST, '{"ts": 2' + _REST[:-2]],
        ['{"ts": 1' + _REST.replace('"payload"', '"": 0, "payload"')],
        ['{"ts": 1' + _REST.replace('"source": "navigation"', '"source": "warp"')],
        ['{"ts": 1, "source": "navigation", "kind": "log", "payload": [["text", "hi"]]}'] * 2,
        ['{"ts": ' + "[" * 60 + "]" * 60 + _REST],
        # no ", " after the stamp, which also fails to scan: never looked up
        ['{"ts":  %d,"source":"system","kind":"log","payload":{}}' % ts for ts in (1, 2)],
        # a rest repeated with a JSON escape, and a rest holding "ts" as a value
        ['{"ts": %d' % ts + _REST.replace("hi", "caf\\u00e9") for ts in (1, 2)],
        ['{"ts": %d' % ts + _REST.replace('"hi"', '"ts"') for ts in (1, 2)],
        # one rest naming "ts" again behind two stamps: the last member wins
        ['{"ts": %d' % ts + _REST[:-1] + ', "ts": 0.25}' for ts in (1, 2)],
        ['{"ts": %d' % ts + _REST[:-1] + ', "t\\u0073": 0.25}' for ts in (1, 2)],
    ],
)
def test_read_trace_matches_the_oracle_on_stamp_first_lines(tmp_path, lines):
    path = tmp_path / "t.trace"
    path.write_text(_long_file(lines), encoding="utf-8")
    assert _outcome(read_trace, path) == _outcome(oracle_read_trace, path)


_ODD_STAMPS = ["0", "0.0", "-0", "1e-9", " 0", '"0"', "true", "[0]", "01"]
_ODD_RESTS = [
    _REST,
    _REST.replace(", ", ","),
    _REST + " ",
    _REST[:-1] + ', "ts": 0}',
    _REST[:-1] + ', "t\\u0073": 0}',
    _REST.replace("hi", "caf\\u00e9"),
    _REST.replace('"hi"', '"ts"'),
    ", }",
]


@pytest.mark.parametrize("defect", [None, *_DEFECTS])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_read_trace_matches_the_oracle_on_long_drawn_files(tmp_path_factory, defect, data):
    """A drawn file made long enough to share rests: filler lines after its
    header, and a few stamp-first lines of odd shape anywhere after it."""
    lines = data.draw(trace_files(defect)).split("\n")
    lines[1:1] = ['{"ts": 0' + _REST] * trace_module._SHARED_REST_MIN_LINES
    for _ in range(data.draw(st.integers(0, 3))):
        stamp = data.draw(st.sampled_from(_ODD_STAMPS))
        odd = '{"ts": ' + stamp + data.draw(st.sampled_from(_ODD_RESTS))
        lines.insert(data.draw(st.integers(1, len(lines))), odd)
    path = tmp_path_factory.mktemp("long_drawn") / "t.trace"
    path.write_bytes("\n".join(lines).encode("utf-8"))
    assert _outcome(read_trace, path) == _outcome(oracle_read_trace, path)


def test_read_trace_keeps_the_type_of_payload_values_behind_equal_stamps(tmp_path):
    # 1, true and 1.0 are equal in Python but not in the file
    lines = [
        '{"ts": 1, "source": "system", "kind": "log", "payload": {"x": %s}}' % value
        for value in ("1", "true", "1.0", "1")
    ]
    path = tmp_path / "t.trace"
    path.write_text(_long_file(lines), encoding="utf-8")
    payloads = [e.payload for e in read_trace(path).events][: len(lines)]
    assert [type(p["x"]) for p in payloads] == [int, bool, float, int]
    assert payloads[0] is payloads[3] and payloads[0] is not payloads[1]
