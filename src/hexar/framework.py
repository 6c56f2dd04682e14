"""Explainer registry, selection, context, dispatch and cost metering.

A component explainer subscribes to a subset of robot modules and turns a
query plus context into natural-language text. The selector picks exactly
one explainer per query: a failure heuristic over the last plan and skill
statuses first, a query classifier otherwise. What an answer costs is
counted in one place, the :class:`ReasonerMeter` each method entry point
wraps around the caller's reasoner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

from .reasoner import (
    ReasonerError,
    ReasonerRequest,
    ReasonerResponse,
    TextReasoner,
    load_prompt_template,
)
from .trace import ContextVector, Event, Explanation, Query, Trace, TraceError


class SelectionError(RuntimeError):
    """The selector could not commit to a valid explainer."""


class ExplainerError(RuntimeError):
    """A component explainer could not produce an answer."""


# Failures the design expects on the answer path: a malformed trace or answer,
# no valid explainer choice, an explainer without an answer, a reasoner
# refusal or outage. Any other exception is a bug and propagates.
ANSWER_ERRORS = (TraceError, SelectionError, ExplainerError, ReasonerError)


class ReasonerMeter(TextReasoner):
    """Counts an answer's reasoner calls and modelled latency.

    Every attempted completion counts as a call, also one that raises; the
    modelled ``latency`` of each response that comes back is summed. The
    measured clock starts when the meter is created.
    """

    def __init__(self, inner: TextReasoner) -> None:
        self.inner = inner
        self.calls = 0
        self.latency = 0.0
        self.start = time.perf_counter()

    def complete(self, request: ReasonerRequest) -> ReasonerResponse:
        self.calls += 1
        response = self.inner.complete(request)
        self.latency += response.latency
        return response

    def explanation(self, text: str, produced_by: str) -> Explanation:
        """The answer, billed with every call so far and measured plus modelled time."""
        return Explanation(
            text=text,
            produced_by=produced_by,
            reasoner_calls=self.calls,
            wall_time=time.perf_counter() - self.start + self.latency,
        )


class ExplainFn(Protocol):
    def __call__(
        self,
        query: Query,
        context: ContextVector,
        events: tuple[Event, ...],
        reasoner: TextReasoner,
    ) -> str: ...


@dataclass(frozen=True)
class ComponentExplainer:
    """An explainer identity, its observed modules, and its implementation."""

    id: str
    subscribed_sources: frozenset[str]
    explain_fn: ExplainFn
    capability: str = ""

    def __post_init__(self) -> None:
        if not self.subscribed_sources:
            raise ValueError(f"explainer {self.id!r} must subscribe to at least one source")


class ExplainerRegistry:
    """Mapping from robot modules to the explainers that can cover them."""

    def __init__(self) -> None:
        self.entries: dict[str, list[str]] = {}
        self.explainers: dict[str, ComponentExplainer] = {}

    def register(self, explainer: ComponentExplainer, modules: list[str]) -> None:
        if explainer.id in self.explainers:
            raise ValueError(f"duplicate explainer id {explainer.id!r}")
        self.explainers[explainer.id] = explainer
        for module in modules:
            self.entries.setdefault(module, []).append(explainer.id)

    def explainer_for_module(self, module: str) -> str:
        ids = self.entries.get(module)
        if not ids:
            raise SelectionError(f"no explainer registered for module {module!r}")
        return ids[0]

    def validate_coverage(self, modules: list[str]) -> None:
        missing = [m for m in modules if not self.entries.get(m)]
        if missing:
            raise SelectionError(f"modules without explainer coverage: {missing}")

    def ids(self) -> list[str]:
        return list(self.explainers)


class SelectorStage(str, Enum):
    FAILURE_HEURISTIC = "failure_heuristic"
    QUERY_CLASSIFIER = "query_classifier"


@dataclass(frozen=True)
class SelectorDecision:
    chosen: str
    stage: SelectorStage
    context: ContextVector


def build_context(query: Query, trace: Trace) -> ContextVector:
    """The parsed plan, per-skill latest statuses and the time window."""
    plan = trace.plan  # raises TraceError when the plan event is missing
    latest: dict[str, str] = {}
    for event in trace.events:
        if event.kind == "skill_status":
            latest[str(event.payload["skill"])] = str(event.payload["status"])
    skills = tuple((step.skill, latest.get(step.skill, "waiting")) for step in plan.steps)
    events = trace.events
    start = events[0].ts if events else 0.0
    end = min(events[-1].ts, query.asked_at) if events else query.asked_at
    end = max(start, end)
    return ContextVector(plan=plan, skills=skills, window=(start, end))


def _earliest_failure(trace: Trace) -> str | None:
    for event in trace.events:
        if event.kind == "skill_status" and event.payload.get("status") == "failed":
            return str(event.payload["skill"])
    return None


def build_classifier_prompt(query: Query, registry: ExplainerRegistry) -> str:
    candidates = "\n".join(
        f"- {explainer.id}: {explainer.capability}" for explainer in registry.explainers.values()
    )
    return load_prompt_template("classifier").format(candidates=candidates, query=query.text)


def select(
    query: Query,
    trace: Trace,
    registry: ExplainerRegistry,
    reasoner: TextReasoner,
) -> SelectorDecision:
    """Two-stage selection of exactly one component explainer.

    Stage 1: an invalid plan selects the planner explainer; otherwise the
    earliest failed skill (by timestamp) selects the explainer mapped to it.
    Stage 2: the query text is classified by the reasoner. An unknown
    classifier answer is an error, never a silent default.
    """
    context = build_context(query, trace)
    if not context.plan.valid:
        chosen = registry.explainer_for_module("planner")
        return SelectorDecision(chosen, SelectorStage.FAILURE_HEURISTIC, context)
    failed_skill = _earliest_failure(trace)
    if failed_skill is not None:
        chosen = registry.explainer_for_module(failed_skill)
        return SelectorDecision(chosen, SelectorStage.FAILURE_HEURISTIC, context)

    response = reasoner.complete_text(
        system_prompt="You route user questions to robot component explainers.",
        user_prompt=build_classifier_prompt(query, registry),
        max_tokens=8,
    )
    answer = response.text.strip()
    if answer not in registry.explainers:
        raise SelectionError(f"classifier returned unknown explainer id {answer!r}")
    return SelectorDecision(answer, SelectorStage.QUERY_CLASSIFIER, context)


def run_explainer(
    explainer: ComponentExplainer,
    query: Query,
    context: ContextVector,
    trace: Trace,
    reasoner: TextReasoner,
) -> str:
    """Run one explainer on its subscribed events inside the context window."""
    events = trace.by_source(explainer.subscribed_sources, window=context.window)
    text = explainer.explain_fn(query, context, events, reasoner)
    if not text:
        raise TraceError("explanation text must be non-empty")
    return text


def build_aggregation_prompt(texts: list[str], query: Query) -> str:
    listed = "\n".join(f"- {text}" for text in texts)
    return load_prompt_template("aggregation").format(query=query.text, explanations=listed)


def aggregate(texts: list[str], query: Query, reasoner: TextReasoner) -> str:
    """Merge several explanation texts into one; a singleton passes through unchanged."""
    if not texts:
        raise ValueError("nothing to aggregate")
    if len(texts) == 1:
        return texts[0]
    return reasoner.complete_text(
        system_prompt="You merge robot explanations for the user.",
        user_prompt=build_aggregation_prompt(texts, query),
    ).text


def explain_hexar(
    query: Query,
    trace: Trace,
    registry: ExplainerRegistry,
    reasoner: TextReasoner,
) -> Explanation:
    """Full pipeline: select one explainer, build context, dispatch."""
    meter = ReasonerMeter(reasoner)
    decision = select(query, trace, registry, meter)
    text = run_explainer(registry.explainers[decision.chosen], query, decision.context, trace, meter)
    return meter.explanation(text, decision.chosen)
