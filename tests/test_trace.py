from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("scenario_id", list(range(1, 21)))
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
    with pytest.raises(TraceError):
        Event(ts=-1.0, source="system", kind="log", payload={})
    with pytest.raises(TraceError):
        Event(ts=0.0, source="warp_drive", kind="log", payload={})
    with pytest.raises(TraceError):
        Event(ts=0.0, source="system", kind="telepathy", payload={})
    with pytest.raises(TraceError):
        Event(ts=0.0, source="navigation", kind="skill_status", payload={"skill": "navigation"})


def test_trace_rejects_disorder_at_construction():
    events = (
        Event(ts=1.0, source="system", kind="log", payload={"text": "a"}),
        Event(ts=0.5, source="system", kind="log", payload={"text": "b"}),
    )
    with pytest.raises(TraceError):
        Trace(scenario_id=1, task_variant=1, seed=0, events=events)


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


@pytest.mark.parametrize("scenario_id", list(range(1, 21)))
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


@pytest.mark.parametrize("line", [" \t" + _EVENT + "\t  ", "\x0c", " \t "])
def test_read_trace_accepts_padding_and_skips_blank_lines(tmp_path, line):
    path = tmp_path / "padded.trace"
    path.write_text(f"{_HEADER}\n{line}\n", encoding="utf-8")
    trace = read_trace(path)
    expected = 1 if _EVENT in line else 0
    assert len(trace.events) == expected
    if expected:
        assert trace.events[0].payload == {"text": "hi"}

