"""Explainer registry, selection, dispatch and cost metering.

A component explainer subscribes to a subset of robot modules and turns a
query plus context into natural-language text. The selector picks exactly
one explainer per query: a failure heuristic over the last plan and skill
statuses first, a query classifier otherwise. What an answer costs is
counted in one place, the one :class:`ReasonerMeter` the caller of
``evaluation.answer`` passes to the method body.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Protocol

from .reasoner import (
    ReasonerError,
    ReasonerRequest,
    ReasonerResponse,
    TextReasoner,
    indent_headers,
    load_prompt_template,
    query_section,
)
from .trace import ContextVector, EventView, Explanation, Query, Trace, TraceError


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

    Every attempted completion counts as a call, also one that raises. The
    modelled ``latency`` of each response that comes back is summed, and a
    call that raises a :class:`ReasonerError` is billed the inner reasoner's
    :meth:`~TextReasoner.modelled_latency`, as an endpoint charges for a
    refusal too. The measured clock starts when the meter is created.
    """

    def __init__(self, inner: TextReasoner) -> None:
        self.inner = inner
        self.calls = 0
        self.latency = 0.0
        self.start = time.perf_counter()

    def complete(self, request: ReasonerRequest) -> ReasonerResponse:
        self.calls += 1
        try:
            response = self.inner.complete(request)
        except ReasonerError:
            self.latency += self.inner.modelled_latency(request)
            raise
        self.latency += response.latency
        return response

    def modelled_latency(self, request: ReasonerRequest) -> float:
        return self.inner.modelled_latency(request)

    def explanation(self, text: str, produced_by: str) -> Explanation:
        """The answer, billed with every call so far and measured plus modelled time."""
        return Explanation(
            text=text,
            produced_by=produced_by,
            reasoner_calls=self.calls,
            wall_time=time.perf_counter() - self.start + self.latency,
        )


class ExplainFn(Protocol):
    """A component explainer's technique, called positionally.

    ``events`` is the trace's view of the explainer's subscribed sources. What
    an explainer computes from those events alone it may keep with
    ``events.derived``, so a re-asked trace builds it once; anything that
    depends on the query or on a reasoner's reply is computed per call.
    """

    def __call__(
        self,
        query: Query,
        context: ContextVector,
        events: EventView,
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


_CLASSIFIER = load_prompt_template("classifier")
_AGGREGATION = load_prompt_template("aggregation")


def _classifier_head(explainers: Iterable[ComponentExplainer]) -> str:
    """The classifier prompt up to its query: one candidate line per explainer."""
    candidates = "\n".join(f"- {e.id}: {e.capability}" for e in explainers)
    return _CLASSIFIER.format(candidates=indent_headers(candidates))


class ExplainerRegistry:
    """Mapping from robot modules to the explainers that can cover them.

    ``register`` also keeps what every answer reads of the whole registry:
    ``sources``, the union of all subscribed sources, and ``classifier_head``,
    the classifier prompt up to its query.
    """

    def __init__(self) -> None:
        self.entries: dict[str, list[str]] = {}
        self.explainers: dict[str, ComponentExplainer] = {}
        self.sources: frozenset[str] = frozenset()
        self.classifier_head = _classifier_head(())

    def register(self, explainer: ComponentExplainer, modules: list[str]) -> None:
        if explainer.id in self.explainers:
            raise ValueError(f"duplicate explainer id {explainer.id!r}")
        self.explainers[explainer.id] = explainer
        for module in modules:
            self.entries.setdefault(module, []).append(explainer.id)
        self.sources |= explainer.subscribed_sources
        self.classifier_head = _classifier_head(self.explainers.values())

    def explainer_for_module(self, module: str) -> str:
        ids = self.entries.get(module)
        if not ids:
            raise SelectionError(f"no explainer registered for module {module!r}")
        return ids[0]

    def ids(self) -> list[str]:
        return list(self.explainers)


class SelectorStage(str, Enum):
    FAILURE_HEURISTIC = "failure_heuristic"
    QUERY_CLASSIFIER = "query_classifier"


class SelectorDecision(NamedTuple):
    chosen: str
    stage: SelectorStage


def build_classifier_prompt(query: Query, registry: ExplainerRegistry) -> str:
    """The classifier prompt; its head is built by ``register``."""
    return registry.classifier_head + query_section(query.text)


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
    if not trace.plan.valid:  # raises TraceError when the plan event is missing
        chosen = registry.explainer_for_module("planner")
        return SelectorDecision(chosen, SelectorStage.FAILURE_HEURISTIC)
    failed_skill = trace.earliest_failed_skill
    if failed_skill is not None:
        chosen = registry.explainer_for_module(failed_skill)
        return SelectorDecision(chosen, SelectorStage.FAILURE_HEURISTIC)

    response = reasoner.complete_text(
        system_prompt="You route user questions to robot component explainers.",
        user_prompt=build_classifier_prompt(query, registry),
        max_tokens=8,
    )
    answer = response.text.strip()
    if answer not in registry.explainers:
        raise SelectionError(f"classifier returned unknown explainer id {answer!r}")
    return SelectorDecision(answer, SelectorStage.QUERY_CLASSIFIER)


def run_explainer(
    explainer: ComponentExplainer,
    query: Query,
    trace: Trace,
    reasoner: TextReasoner,
) -> str:
    """Run one explainer on the trace's context and all its subscribed events."""
    events = trace.by_source(explainer.subscribed_sources)
    text = explainer.explain_fn(query, trace.context, events, reasoner)
    if not text:
        raise TraceError("explanation text must be non-empty")
    return text


def build_aggregation_prompt(texts: list[str], query: Query) -> str:
    listed = indent_headers("\n".join(f"- {text}" for text in texts))
    return _AGGREGATION.format(query_section=query_section(query.text), explanations=listed)


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


def answer_hexar(
    query: Query, trace: Trace, registry: ExplainerRegistry, meter: ReasonerMeter
) -> Explanation:
    """Full pipeline, billed to ``meter``: select one explainer, then run it."""
    decision = select(query, trace, registry, meter)
    text = run_explainer(registry.explainers[decision.chosen], query, trace, meter)
    return meter.explanation(text, decision.chosen)


def explain_hexar(
    query: Query, trace: Trace, registry: ExplainerRegistry, reasoner: TextReasoner
) -> Explanation:
    """``answer_hexar`` billed to a meter of its own, for a caller that has none."""
    return answer_hexar(query, trace, registry, ReasonerMeter(reasoner))
