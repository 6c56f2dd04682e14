"""The two monolithic comparison systems.

``end_to_end`` hands one reasoner everything the component explainers can
see; ``all_components`` triggers every component explainer and merges their
answers. Both exist to quantify what the selector and the specialised
explainers each contribute.
"""

from __future__ import annotations

import time

from .explainers.navigation import LogFilterRules, filter_logs, situation_catalogue
from .explainers.planner import format_plan
from .framework import ANSWER_ERRORS, ExplainerRegistry, aggregate, build_context
from .reasoner import ReasonerRequest, ReasonerResponse, TextReasoner, load_prompt_template
from .trace import Event, Explanation, Query, Trace


class _CountingReasoner(TextReasoner):
    """Counts completion attempts so failed explainer calls are still billed."""

    def __init__(self, inner: TextReasoner) -> None:
        self.inner = inner
        self.calls = 0

    def complete(self, request: ReasonerRequest) -> ReasonerResponse:
        self.calls += 1
        return self.inner.complete(request)


def end_to_end_view(trace: Trace, registry: ExplainerRegistry) -> tuple[Event, ...]:
    """Events the end-to-end prompt may draw on: the union of all explainer views."""
    union = frozenset().union(*(e.subscribed_sources for e in registry.explainers.values()))
    return trace.by_source(union)


def _format_items(payload: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in sorted(payload.items()))


def build_end_to_end_prompt(
    query: Query,
    trace: Trace,
    registry: ExplainerRegistry,
    rules: LogFilterRules = LogFilterRules(),
) -> str:
    events = end_to_end_view(trace, registry)
    plan = trace.plan

    plan_steps, grounding = format_plan(plan)
    statuses = []
    for event in events:
        if event.kind == "skill_status":
            extra = {
                k: v for k, v in event.payload.items() if k not in ("skill", "status")
            }
            suffix = f" ({_format_items(extra)})" if extra else ""
            statuses.append(f"- {event.payload['skill']}: {event.payload['status']}{suffix}")

    logs = filter_logs(
        [
            f"[{event.source}] " + str(event.payload.get("text", ""))
            for event in events
            if event.kind == "log"
        ],
        rules,
    )
    params = [
        f"- {_format_items(event.payload)}" for event in events if event.kind == "param"
    ]
    other = [
        f"- {event.ts:.2f} {event.source} {event.kind}: {_format_items(event.payload)}"
        for event in events
        if event.kind in ("detection", "dialogue")
    ]
    return load_prompt_template("end_to_end").format(
        instruction=plan.instruction,
        plan_steps=plan_steps,
        grounding_section=grounding,
        skill_statuses="\n".join(statuses) or "(none)",
        logs="\n".join(logs) or "(none)",
        params="\n".join(params) or "(none)",
        other_events="\n".join(other) or "(none)",
        situation_catalogue=situation_catalogue(),
        query=query.text,
    )


def explain_end_to_end(
    query: Query,
    trace: Trace,
    reasoner: TextReasoner,
    registry: ExplainerRegistry,
) -> Explanation:
    """Single reasoner call over one prompt holding all recorded information."""
    start = time.perf_counter()
    prompt = build_end_to_end_prompt(query, trace, registry)
    response = reasoner.complete_text(
        system_prompt="You explain a robot's behaviour from its full recording.",
        user_prompt=prompt,
    )
    elapsed = time.perf_counter() - start
    return Explanation(
        text=response.text,
        produced_by="end_to_end",
        reasoner_calls=1,
        wall_time=elapsed + response.latency,
    )


def explain_all_components(
    query: Query,
    trace: Trace,
    registry: ExplainerRegistry,
    reasoner: TextReasoner,
) -> Explanation:
    """Run every component explainer, then merge with one aggregation call.

    Explainers run one after another in the calling thread, in registry
    order, so the output is deterministic and the modelled ``wall_time`` (the
    sum of every reasoner latency) matches how the calls were made. An
    expected explainer failure (one of ``ANSWER_ERRORS``) degrades to a note
    in the aggregation input rather than aborting the baseline; a bug
    propagates.
    """
    start = time.perf_counter()
    context = build_context(query, trace)

    def run_one(explainer_id: str) -> Explanation:
        explainer = registry.explainers[explainer_id]
        events = trace.by_source(explainer.subscribed_sources, window=context.window)
        counter = _CountingReasoner(reasoner)
        try:
            return explainer.explain_fn(query, context, events, counter)
        except ANSWER_ERRORS as exc:  # degraded, never fatal for the sweep
            return Explanation(
                text=f"[{explainer_id} explainer produced no answer: {exc}]",
                produced_by=explainer_id,
                reasoner_calls=counter.calls,
            )

    explanations = [run_one(explainer_id) for explainer_id in registry.ids()]
    merged = aggregate(explanations, query, reasoner)
    elapsed = time.perf_counter() - start
    # merged.wall_time already sums the per-explainer virtual latencies
    return Explanation(
        text=merged.text,
        produced_by=merged.produced_by,
        reasoner_calls=merged.reasoner_calls,
        wall_time=elapsed + merged.wall_time,
    )
