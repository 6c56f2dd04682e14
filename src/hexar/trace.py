"""Event, trace, plan and explanation data model.

A trace is the file-based stand-in for robot middleware recordings: a header
line followed by one timestamped event record per line. All types are
immutable after construction and safe to share between concurrent readers.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

Scalar = Union[str, int, float, bool]

SOURCES = (
    "planner",
    "navigation",
    "text_to_speech",
    "ask_human_for_help",
    "pizza_recommender",
    "system",
)

KINDS = ("log", "plan", "skill_status", "param", "detection", "dialogue")

SKILLS = ("navigation", "text_to_speech", "ask_human_for_help", "pizza_recommender")

STATUSES = ("waiting", "running", "succeeded", "failed")


class TraceError(ValueError):
    """Raised for malformed trace files or invariant violations."""


@dataclass(frozen=True, init=False, slots=True)
class Event:
    """One timestamped record emitted by a robot module.

    ``ts`` is seconds since trace start. ``payload`` is a flat map of
    scalars and strings; nested structures use dotted keys. Treat it as
    read-only.
    """

    ts: float
    source: str
    kind: str
    payload: dict[str, Scalar]

    # Hand-written so that a trace line costs one call: the checks run on the
    # arguments, then the frozen fields are set past ``__setattr__``.
    def __init__(self, ts: float, source: str, kind: str, payload: dict[str, Scalar]) -> None:
        if ts < 0:
            raise TraceError(f"negative event timestamp: {ts}")
        # NaN compares false both ways, so it would slip past every order check
        if not ts < math.inf:
            raise TraceError(f"non-finite event timestamp: {ts}")
        # tuple membership, not a set: an unhashable value is rejected too
        if source not in SOURCES:
            raise TraceError(f"unknown event source: {source!r}")
        if kind not in KINDS:
            raise TraceError(f"unknown event kind: {kind!r}")
        if kind == "skill_status":
            status = payload.get("status")
            if "skill" not in payload or status not in STATUSES:
                raise TraceError(f"malformed skill_status payload: {payload!r}")
        _set = object.__setattr__
        _set(self, "ts", ts)
        _set(self, "source", source)
        _set(self, "kind", kind)
        _set(self, "payload", payload)


@dataclass(frozen=True)
class Trace:
    """An ordered event sequence for one scenario execution."""

    scenario_id: int
    task_variant: int
    seed: int
    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        last = 0.0
        for i, event in enumerate(self.events):
            if event.ts < last:
                raise TraceError(
                    f"out-of-order timestamp at event {i + 1}: "
                    f"{event.ts:.6f} < {last:.6f}"
                )
            last = event.ts

    def by_source(
        self,
        sources: frozenset[str] | set[str],
        window: tuple[float, float] | None = None,
    ) -> tuple[Event, ...]:
        """Events from ``sources``, optionally only those with ``start <= ts <= end``."""
        if window is None:
            return tuple(e for e in self.events if e.source in sources)
        start, end = window
        return tuple(e for e in self.events if e.source in sources and start <= e.ts <= end)

    @property
    def plan_event(self) -> Event:
        for event in self.events:
            if event.kind == "plan":
                return event
        raise TraceError("trace has no plan event")

    @functools.cached_property
    def plan(self) -> "TaskPlan":
        """The plan event's payload, parsed on first access and kept."""
        return TaskPlan.from_payload(self.plan_event.payload)


@dataclass(frozen=True)
class PlanStep:
    skill: str
    params: dict[str, Scalar]


@dataclass(frozen=True)
class TaskPlan:
    """A grounded (or failed-to-ground) skill sequence for one instruction."""

    instruction: str
    steps: tuple[PlanStep, ...]
    valid: bool
    grounding_errors: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.valid != (not self.grounding_errors):
            raise TraceError("plan validity must match emptiness of grounding errors")

    def to_payload(self) -> dict[str, Scalar]:
        payload: dict[str, Scalar] = {"instruction": self.instruction, "valid": self.valid}
        for i, step in enumerate(self.steps):
            payload[f"steps.{i}.skill"] = step.skill
            for key, value in sorted(step.params.items()):
                payload[f"steps.{i}.params.{key}"] = value
        for i, err in enumerate(self.grounding_errors):
            payload[f"grounding_errors.{i}"] = err
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Scalar]) -> "TaskPlan":
        steps: list[PlanStep] = []
        i = 0
        while f"steps.{i}.skill" in payload:
            prefix = f"steps.{i}.params."
            params = {
                key[len(prefix):]: value
                for key, value in payload.items()
                if key.startswith(prefix)
            }
            steps.append(PlanStep(skill=str(payload[f"steps.{i}.skill"]), params=params))
            i += 1
        errors: list[str] = []
        i = 0
        while f"grounding_errors.{i}" in payload:
            errors.append(str(payload[f"grounding_errors.{i}"]))
            i += 1
        return cls(
            instruction=str(payload.get("instruction", "")),
            steps=tuple(steps),
            valid=bool(payload.get("valid", not errors)),
            grounding_errors=tuple(errors),
        )


@dataclass(frozen=True)
class Query:
    """An explanation-seeking user question."""

    text: str
    asked_at: float

    def __post_init__(self) -> None:
        if not self.text:
            raise TraceError("query text must be non-empty")


@dataclass(frozen=True)
class ContextVector:
    """Task context handed to a selected component explainer."""

    plan: TaskPlan
    skills: tuple[tuple[str, str], ...]  # (skill, latest status), plan order
    window: tuple[float, float]

    def __post_init__(self) -> None:
        if self.window[0] > self.window[1]:
            raise TraceError(f"empty context window: {self.window}")


@dataclass(frozen=True)
class Explanation:
    """Natural-language answer plus provenance and cost accounting.

    ``reasoner_calls`` and ``wall_time`` (measured plus modelled seconds) are
    filled in by the method entry point's ``ReasonerMeter``.
    """

    text: str
    produced_by: str
    reasoner_calls: int = 0
    wall_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.text:
            raise TraceError("explanation text must be non-empty")
        if self.reasoner_calls < 0 or self.wall_time < 0:
            raise TraceError("explanation cost fields must be non-negative")


@dataclass(frozen=True)
class GroundTruth:
    """Minimal root-cause description for one scenario."""

    scenario_id: int
    root_cause: str
    relevant_module: str
    category: str


def _format_scalar(value: Scalar) -> str:
    # floats get fixed 6-decimal formatting so equal traces serialize
    # byte-identically; bool must be checked before int.
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, int):
        return str(value)
    return json.dumps(value, ensure_ascii=False)


def _format_payload(payload: dict[str, Scalar]) -> str:
    parts = ", ".join(
        f"{json.dumps(key, ensure_ascii=False)}: {_format_scalar(value)}"
        for key, value in sorted(payload.items())
    )
    return "{" + parts + "}"


def _format_event(event: Event) -> str:
    return (
        f'{{"ts": {event.ts:.6f}, "source": {json.dumps(event.source)}, '
        f'"kind": {json.dumps(event.kind)}, "payload": {_format_payload(event.payload)}}}'
    )


def write_trace(trace: Trace, path: str | Path) -> None:
    """Serialize a trace, one event per line after a header line.

    Output is deterministic: equal traces produce byte-identical files.
    A lone surrogate in a string cannot be encoded as UTF-8; it is written
    as its JSON ``\\uXXXX`` escape, which reads back as the same character
    (a high surrogate directly followed by a low one reads back as the one
    character that the pair encodes, as in any JSON).
    """
    lines = [
        f'{{"scenario_id": {trace.scenario_id}, "task_variant": {trace.task_variant}, '
        f'"seed": {trace.seed}}}'
    ]
    lines.extend(_format_event(event) for event in trace.events)
    # every non-ASCII character sits inside a json.dumps string literal, where
    # the backslash escape of an unencodable surrogate is valid JSON
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", errors="backslashreplace")


_DECODER = json.JSONDecoder()
# What decoding a line or reading its fields raises on bad input: a huge
# number overflows int() or float(), deep nesting exhausts the recursion limit.
_LINE_ERRORS = (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError, RecursionError)


def read_trace(path: str | Path) -> Trace:
    """Parse a trace file, rejecting malformed lines and timestamp disorder.

    The file is UTF-8 text with one JSON object per ``\\n``-terminated line;
    blank lines after the header are skipped. Each line is decoded on its
    own, so a record split over two lines or two records on one line are
    rejected. Undecodable bytes, over-deep nesting and out-of-range numbers
    raise ``TraceError`` too.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TraceError(f"{path}: not UTF-8 text: {exc}") from exc
    if not text:
        raise TraceError(f"{path}: empty trace file")
    # text mode has already turned \r\n and \r into \n; str.splitlines would
    # also split inside JSON strings holding U+0085, U+2028 or U+2029
    raw_lines = text.split("\n")
    try:
        header = json.loads(raw_lines[0])
        scenario_id = int(header["scenario_id"])
        task_variant = int(header["task_variant"])
        seed = int(header["seed"])
    except _LINE_ERRORS as exc:
        raise TraceError(f"{path}: malformed header at line 1: {exc}") from exc

    events: list[Event] = []
    last_ts = 0.0
    for lineno, raw in enumerate(raw_lines[1:], start=2):
        try:
            # json.loads(raw) makes this same scan when no whitespace leads;
            # any line the scan does not consume whole (blank, padded, BOM,
            # extra data, malformed) goes to json.loads, which also gives
            # the exact error
            try:
                record, end = _DECODER.scan_once(raw, 0)
            except (StopIteration, json.JSONDecodeError):
                end = -1
            if end != len(raw):
                if not raw.strip():
                    continue
                record = json.loads(raw)
            event = Event(
                float(record["ts"]),
                str(record["source"]),
                str(record["kind"]),
                dict(record["payload"]),
            )
        except TraceError:
            raise
        except _LINE_ERRORS as exc:
            raise TraceError(f"{path}: malformed event at line {lineno}: {exc}") from exc
        if event.ts < last_ts:
            raise TraceError(
                f"{path}: ordering violation at event {lineno - 1} (file line {lineno}): "
                f"ts {event.ts:.6f} precedes {last_ts:.6f}"
            )
        last_ts = event.ts
        events.append(event)
    return Trace(scenario_id=scenario_id, task_variant=task_variant, seed=seed, events=tuple(events))


def validate_trace(trace: Trace) -> None:
    """Check whole-trace invariants beyond per-event validation.

    Exactly one plan event precedes any skill_status event, and every skill
    named in the plan has at least one status event unless an earlier plan
    step failed first (execution also stops before dispatch when the plan is
    invalid and has no steps).
    """
    plan_indices = [i for i, e in enumerate(trace.events) if e.kind == "plan"]
    if len(plan_indices) != 1:
        raise TraceError(f"expected exactly one plan event, found {len(plan_indices)}")
    first_status = next(
        (i for i, e in enumerate(trace.events) if e.kind == "skill_status"), None
    )
    if first_status is not None and first_status < plan_indices[0]:
        raise TraceError("skill_status event precedes the plan event")

    plan = trace.plan
    seen: dict[str, list[str]] = {}
    for event in trace.events:
        if event.kind == "skill_status":
            seen.setdefault(str(event.payload["skill"]), []).append(
                str(event.payload["status"])
            )
    failed_already = False
    for step in plan.steps:
        if not failed_already and step.skill not in seen:
            raise TraceError(f"plan skill {step.skill!r} has no skill_status event")
        if "failed" in seen.get(step.skill, []):
            failed_already = True
