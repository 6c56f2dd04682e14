"""Explainer registry, selection, context and dispatch.

A component explainer subscribes to a subset of robot modules and turns a
query plus context into a natural-language explanation. The selector picks
exactly one explainer per query: a failure heuristic over the last plan and
skill statuses first, a query classifier otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

from .reasoner import ReasonerError, TextReasoner, load_prompt_template
from .trace import ContextVector, Event, Explanation, Query, Trace, TraceError


class SelectionError(RuntimeError):
    """The selector could not commit to a valid explainer."""


class ExplainerError(RuntimeError):
    """A component explainer could not produce an answer."""


# Failures the design expects on the answer path: a malformed trace or answer,
# no valid explainer choice, an explainer without an answer, a reasoner
# refusal or outage. Any other exception is a bug and propagates.
ANSWER_ERRORS = (TraceError, SelectionError, ExplainerError, ReasonerError)


class ExplainFn(Protocol):
    def __call__(
        self,
        query: Query,
        context: ContextVector,
        events: tuple[Event, ...],
        reasoner: TextReasoner,
    ) -> Explanation: ...


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
    classifier_calls: int = 0
    classifier_latency: float = 0.0


def build_context(query: Query, trace: Trace) -> ContextVector:
    """Task, per-skill latest statuses, plan validity and the time window."""
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
    return ContextVector(task=plan.instruction, skills=skills, plan_valid=plan.valid, window=(start, end))


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
    if not context.plan_valid:
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
    return SelectorDecision(
        answer,
        SelectorStage.QUERY_CLASSIFIER,
        context,
        classifier_calls=1,
        classifier_latency=response.latency,
    )


def build_aggregation_prompt(explanations: list[Explanation], query: Query) -> str:
    listed = "\n".join(f"- {e.text}" for e in explanations)
    return load_prompt_template("aggregation").format(query=query.text, explanations=listed)


def aggregate(
    explanations: list[Explanation], query: Query, reasoner: TextReasoner
) -> Explanation:
    """Merge several explanations into one; singletons pass through unchanged."""
    if not explanations:
        raise ValueError("nothing to aggregate")
    if len(explanations) == 1:
        return explanations[0]
    response = reasoner.complete_text(
        system_prompt="You merge robot explanations for the user.",
        user_prompt=build_aggregation_prompt(explanations, query),
    )
    contributors = [e.produced_by for e in explanations]
    return Explanation(
        text=response.text,
        produced_by="+".join(contributors + ["aggregator"]),
        reasoner_calls=sum(e.reasoner_calls for e in explanations) + 1,
        wall_time=sum(e.wall_time for e in explanations) + response.latency,
    )


def explain_hexar(
    query: Query,
    trace: Trace,
    registry: ExplainerRegistry,
    reasoner: TextReasoner,
) -> Explanation:
    """Full pipeline: select one explainer, build context, dispatch."""
    start = time.perf_counter()
    decision = select(query, trace, registry, reasoner)
    explainer = registry.explainers[decision.chosen]
    events = trace.by_source(explainer.subscribed_sources, window=decision.context.window)
    explanation = explainer.explain_fn(query, decision.context, events, reasoner)
    elapsed = time.perf_counter() - start
    return Explanation(
        text=explanation.text,
        produced_by=decision.chosen,
        reasoner_calls=explanation.reasoner_calls + decision.classifier_calls,
        wall_time=elapsed + explanation.wall_time + decision.classifier_latency,
    )
