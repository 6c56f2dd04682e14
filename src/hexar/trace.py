"""Event, trace, plan and explanation data model.

A trace is the file-based stand-in for robot middleware recordings: a header
line followed by one timestamped event record per line. All types are
immutable after construction and safe to share between concurrent readers.

A record that is only built and read is a ``typing.NamedTuple``, which costs
less to define at import and to build. A record is a dataclass when it
validates its fields, is copied with ``dataclasses.replace`` or keeps derived
values.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, TypeVar, Union

Scalar = Union[str, int, float, bool]
_T = TypeVar("_T")
_S = TypeVar("_S")
_A = TypeVar("_A", bound=Hashable)

KINDS = ("log", "plan", "skill_status", "param", "detection", "dialogue")

SKILLS = ("navigation", "text_to_speech", "ask_human_for_help", "pizza_recommender")

SOURCES = ("planner", *SKILLS, "system")

STATUSES = ("waiting", "running", "succeeded", "failed")


class TraceError(ValueError):
    """Raised for malformed trace files or invariant violations."""


@dataclass(frozen=True, init=False, slots=True)
class Event:
    """One timestamped record emitted by a robot module.

    ``ts`` is seconds since trace start. ``payload`` is a flat map of
    scalars and strings; nested structures use dotted keys. Treat it as
    read-only: a ``Trace`` keeps views derived from its events' payloads.
    """

    ts: float
    source: str
    kind: str
    payload: dict[str, Scalar]

    # Hand-written so that a trace line costs one call: the checks run on the
    # arguments, then the frozen fields are set past ``__setattr__`` through
    # the slot descriptors' setters, bound once below the class.
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
        _set_ts(self, ts)
        _set_source(self, source)
        _set_kind(self, kind)
        _set_payload(self, payload)


# one C call per field, where object.__setattr__ would look the name up first
_set_ts = Event.ts.__set__
_set_source = Event.source.__set__
_set_kind = Event.kind.__set__
_set_payload = Event.payload.__set__


def _first_disorder(stamps: list[float]) -> int | None:
    """Index of the first stamp below the one before it, or None when in order."""
    # Event keeps every stamp finite and non-negative, so they are in order
    # exactly when sorting (a C loop over floats) leaves them unchanged; the
    # indexed scan runs only to find the first offender
    if stamps == sorted(stamps):
        return None
    return next(i for i in range(1, len(stamps)) if stamps[i] < stamps[i - 1])


class _KeepsDerived:
    """Keeps values computed from the instance alone, in its ``_memo`` dict."""

    __slots__ = ()
    _memo: dict[Callable[..., object], object]

    def derived(self: _S, compute: Callable[[_S], _T]) -> _T:
        """``compute(self)``, run on the first call for ``compute`` and kept by this instance.

        ``compute`` must be a module-level function of this instance alone,
        never of a query or a reasoner's reply; its value is kept under the
        function. Only a value it returns is kept: an exception propagates,
        and the next call computes again. Two racing first calls compute
        twice and one value is kept.
        """
        memo = self._memo
        if compute in memo:
            return memo[compute]
        value = memo[compute] = compute(self)
        return value


class EventView(_KeepsDerived, tuple):
    """One trace's events from a set of sources, in trace order.

    A tuple that also keeps values computed from these events alone, each
    under the module-level function that computed it (see ``derived``). A
    view is made and kept by ``Trace.by_source``, so it lives and dies with
    its trace.
    """

    def __init__(self, events: Iterable[Event]) -> None:
        self._memo = {}


@dataclass(frozen=True)
class Trace:
    """An ordered event sequence for one scenario execution.

    Views derived from the events alone (``by_source`` with what each
    ``EventView`` keeps, ``plan``, ``context``, ``earliest_failed_skill``
    and what callers keep with ``derived``) are computed on first use and
    kept by this instance, because one recording is asked many questions.
    Every method answers over the whole trace. They live and die with the
    instance: ``dataclasses.replace`` gives a copy with none kept, and
    equality and ``repr`` ignore them. Every ``Event`` payload must therefore
    stay unmodified once the trace is built. Threads may share a trace; two
    racing first uses compute the same value twice and one of them is kept.
    """

    scenario_id: int
    task_variant: int
    seed: int
    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        stamps = [event.ts for event in self.events]
        i = _first_disorder(stamps)
        if i is not None:
            raise TraceError(
                f"out-of-order timestamp at event {i + 1}: {stamps[i]:.6f} < {stamps[i - 1]:.6f}"
            )
        object.__setattr__(self, "_memo", {})

    def derived(self, compute: Callable[[Trace, _A], _T], arg: _A) -> _T:
        """``compute(self, arg)``, run on the first call for ``compute`` and ``arg``.

        Kept like ``EventView.derived``: under the module-level function, then
        under its hashable argument, so no caller builds a key or a closure.
        ``compute`` must depend on the events and ``arg`` alone. An exception
        propagates and is never kept.
        """
        kept = self._memo.get(compute)
        if kept is None:
            kept = self._memo.setdefault(compute, {})
        if arg in kept:
            return kept[arg]
        value = kept[arg] = compute(self, arg)
        return value

    def by_source(self, sources: frozenset[str] | set[str]) -> EventView:
        """Events from ``sources``, in trace order, as one view kept per source set."""
        # the memo inlined, without a closure: every explainer dispatch calls this
        key = frozenset(sources)
        view = self._memo.get(key)
        if view is None:
            # a list comprehension: a generator costs a resumption per event
            view = EventView([e for e in self.events if e.source in sources])
            self._memo[key] = view
        return view

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

    @functools.cached_property
    def context(self) -> "ContextVector":
        """The plan and each plan step's latest status, ``"waiting"`` if it has none."""
        latest: dict[str, str] = {}
        for event in self.events:
            if event.kind == "skill_status":
                latest[str(event.payload["skill"])] = str(event.payload["status"])
        skills = tuple((step.skill, latest.get(step.skill, "waiting")) for step in self.plan.steps)
        return ContextVector(plan=self.plan, skills=skills)

    @functools.cached_property
    def earliest_failed_skill(self) -> str | None:
        """The skill of the first ``failed`` status event, or None when none failed."""
        for event in self.events:
            if event.kind == "skill_status" and event.payload.get("status") == "failed":
                return str(event.payload["skill"])
        return None


class PlanStep(NamedTuple):
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
    """An explanation-seeking user question.

    ``asked_at``, when the question was asked, is optional and read by no
    answer: every method answers over the whole trace.
    """

    text: str
    asked_at: float = 0.0

    def __post_init__(self) -> None:
        if not self.text:
            raise TraceError("query text must be non-empty")


@dataclass(frozen=True)
class ContextVector(_KeepsDerived):
    """Task context handed to a selected component explainer.

    Like an ``EventView``, it keeps what is computed from it alone (see
    ``derived``); ``Trace.context`` makes it once, so it lives and dies with
    its trace. Equality and ``repr`` ignore what it keeps.
    """

    plan: TaskPlan
    skills: tuple[tuple[str, str], ...]  # (skill, latest status), plan order

    def __post_init__(self) -> None:
        object.__setattr__(self, "_memo", {})


@dataclass(frozen=True)
class Explanation:
    """Natural-language answer plus provenance and cost accounting.

    ``reasoner_calls`` and ``wall_time`` (measured plus modelled seconds) are
    filled in by the answer's one ``ReasonerMeter``, owned by the caller of ``answer``.
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


class GroundTruth(NamedTuple):
    """Minimal root-cause description for one scenario."""

    root_cause: str
    relevant_module: str


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
# how every line that write_trace writes begins
_STAMP_MEMBER = '{"ts": '
# a stamp scan that fails in any way leaves the line to the whole-line decode,
# which raises the error it always has
_SCAN_ERRORS = (StopIteration, ValueError, RecursionError)
# With two objects kept a line, a file this long fills the collector's first
# generation (700 new objects by default). A shorter one has every line
# decoded whole: its lines seldom repeat (18% of a short grid trace's lines
# do), and keying each by its text costs more than the repeats save.
_SHARED_REST_MIN_LINES = 350


def read_trace(path: str | Path) -> Trace:
    """Parse a trace file, rejecting malformed lines and timestamp disorder.

    The file is UTF-8 text with one JSON object per ``\\n``-terminated line;
    blank lines after the header are skipped. Each line is decoded on its
    own, so a record split over two lines or two records on one line are
    rejected. Undecodable bytes, over-deep nesting and out-of-range numbers
    raise ``TraceError`` too. An error names the file line of the first
    fault: a malformed line, or the first event out of order. In a long
    file, events whose lines repeat all but the leading stamp share one
    payload dict.
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

    # One Event is built per line and nothing else is kept for it but its
    # payload, which a long file's lines repeating all but their stamp share:
    # the objects a long drive's trace holds stay near one per line, under
    # the collector's first threshold, so reading it seldom sets off a
    # collection. Timestamp order is left to Trace, and the file is walked
    # again for the line of the offender only when that check fails.
    events: list[Event] = []
    append = events.append
    scan_once = _DECODER.scan_once
    new_event = Event
    # a module's periodic log lines differ only in their stamp: the members
    # after a stamp that a ", " ends decode the same behind any stamp, so a
    # long file decodes each such rest once and its lines share the record
    rests: dict[str, dict] | None = {} if len(raw_lines) > _SHARED_REST_MIN_LINES else None
    for lineno, raw in enumerate(raw_lines[1:], start=2):
        try:
            rest = record = None
            if rests is not None and raw.startswith(_STAMP_MEMBER):
                try:
                    stamp, cut = scan_once(raw, len(_STAMP_MEMBER))
                except _SCAN_ERRORS:
                    # "{" is at 0, so a line whose stamp fails is never looked up
                    cut = 0
                if raw.startswith(", ", cut):
                    rest = raw[cut:]
                    record = rests.get(rest)
            if record is None:
                # json.loads(raw) makes this same scan when no whitespace
                # leads; any line the scan does not consume whole (blank,
                # padded, BOM, extra data, malformed) goes to json.loads,
                # which also gives the exact error
                try:
                    record, end = scan_once(raw, 0)
                except _SCAN_ERRORS:
                    end = -1
                if end != len(raw):
                    if not raw.strip():
                        continue
                    record = json.loads(raw)
                stamp = record["ts"]
                # kept only where the rest cannot name "ts" again, plainly or
                # escaped: the last member of a name wins over the stamp
                if rest is not None and '"ts"' not in rest and "\\u" not in rest:
                    rests[rest] = record
            ts = float(stamp)
            source = str(record["source"])
            kind = str(record["kind"])
            payload = record["payload"]
            if type(payload) is not dict:
                payload = dict(payload)
            append(new_event(ts, source, kind, payload))
        except _LINE_ERRORS as exc:
            # an event out of order on an earlier line is the first fault
            disorder = _disorder_error(path, raw_lines, events)
            if disorder is not None:
                raise disorder from None
            raise TraceError(f"{path}: malformed event at line {lineno}: {exc}") from exc
    try:
        return Trace(
            scenario_id=scenario_id, task_variant=task_variant, seed=seed, events=tuple(events)
        )
    except TraceError:
        # the one check Trace makes is timestamp order
        raise _disorder_error(path, raw_lines, events) from None


def _disorder_error(
    path: str | Path, raw_lines: list[str], events: list[Event]
) -> TraceError | None:
    """The error naming the first of ``events`` out of order and its file line, if any."""
    stamps = [event.ts for event in events]
    i = _first_disorder(stamps)
    if i is None:
        return None
    # each non-blank line after the header up to the offender holds one event
    event_lines = (n for n, raw in enumerate(raw_lines[1:], start=2) if raw.strip())
    lineno = next(itertools.islice(event_lines, i, None))
    return TraceError(
        f"{path}: ordering violation at event {i + 1} (file line {lineno}): "
        f"ts {stamps[i]:.6f} precedes {stamps[i - 1]:.6f}"
    )


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
