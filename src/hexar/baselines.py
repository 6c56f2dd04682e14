"""The two monolithic comparison systems.

``end_to_end`` hands one reasoner everything the component explainers can
see; ``all_components`` triggers every component explainer and merges their
answers. Both exist to quantify what the selector and the specialised
explainers each contribute.
"""

from __future__ import annotations

from .explainers.navigation import LogFilterRules, filter_logs, situation_catalogue
from .explainers.planner import format_plan
from .framework import (
    ANSWER_ERRORS,
    ExplainerRegistry,
    ReasonerMeter,
    aggregate,
    build_context,
    run_explainer,
)
from .reasoner import TextReasoner, load_prompt_template
from .trace import Event, Explanation, Query, Trace


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
    meter = ReasonerMeter(reasoner)
    prompt = build_end_to_end_prompt(query, trace, registry)
    response = meter.complete_text(
        system_prompt="You explain a robot's behaviour from its full recording.",
        user_prompt=prompt,
    )
    return meter.explanation(response.text, "end_to_end")


def explain_all_components(
    query: Query,
    trace: Trace,
    registry: ExplainerRegistry,
    reasoner: TextReasoner,
) -> Explanation:
    """Run every component explainer, then merge with one aggregation call.

    Explainers run one after another in the calling thread, in registry
    order, so the output is deterministic. The answer is billed with every
    reasoner call made, also those of explainers that failed. An expected
    explainer failure (one of ``ANSWER_ERRORS``) degrades to a note in the
    aggregation input rather than aborting the baseline; a bug propagates.
    """
    meter = ReasonerMeter(reasoner)
    context = build_context(query, trace)

    def run_one(explainer_id: str) -> str:
        try:
            return run_explainer(registry.explainers[explainer_id], query, context, trace, meter)
        except ANSWER_ERRORS as exc:  # degraded, never fatal for the sweep
            return f"[{explainer_id} explainer produced no answer: {exc}]"

    ids = registry.ids()
    text = aggregate([run_one(explainer_id) for explainer_id in ids], query, meter)
    produced_by = "+".join(ids + ["aggregator"]) if len(ids) > 1 else ids[0]
    return meter.explanation(text, produced_by)
