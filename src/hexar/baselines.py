"""The two monolithic comparison systems.

``end_to_end`` hands one reasoner everything the component explainers can
see; ``all_components`` triggers every component explainer and merges their
answers. Both exist to quantify what the selector and the specialised
explainers each contribute.
"""

from __future__ import annotations

from .explainers.navigation import filter_logs, situation_catalogue
from .explainers.planner import format_items, format_plan
from .framework import (
    ANSWER_ERRORS,
    ExplainerRegistry,
    ReasonerMeter,
    aggregate,
    run_explainer,
)
from .reasoner import TextReasoner, indent_headers, load_prompt_template, query_section
from .trace import Explanation, Query, Trace

_TEMPLATE = load_prompt_template("end_to_end")


def _end_to_end_evidence(trace: Trace, sources: frozenset[str]) -> str:
    """The end-to-end prompt up to its query: everything recorded from ``sources``."""
    events = trace.by_source(sources)
    plan = trace.plan

    plan_steps, grounding = format_plan(plan)
    statuses: list[str] = []
    log_lines: list[str] = []
    params: list[str] = []
    other: list[str] = []
    for event in events:
        kind = event.kind
        payload = event.payload
        if kind == "log":
            log_lines.append(f"[{event.source}] " + str(payload.get("text", "")))
        elif kind == "skill_status":
            extra = {k: v for k, v in payload.items() if k not in ("skill", "status")}
            suffix = f" ({format_items(extra)})" if extra else ""
            statuses.append(f"- {payload['skill']}: {payload['status']}{suffix}")
        elif kind == "param":
            params.append(f"- {format_items(payload)}")
        elif kind in ("detection", "dialogue"):
            other.append(f"- {event.ts:.2f} {event.source} {kind}: {format_items(payload)}")
    logs = filter_logs(log_lines)
    return _TEMPLATE.format(
        instruction=indent_headers(plan.instruction),
        plan_steps=plan_steps,
        grounding_section=grounding,
        skill_statuses=indent_headers("\n".join(statuses)) or "(none)",
        logs=indent_headers("\n".join(logs)) or "(none)",
        params=indent_headers("\n".join(params)) or "(none)",
        other_events=indent_headers("\n".join(other)) or "(none)",
        situation_catalogue=situation_catalogue(),
    )


def build_end_to_end_prompt(
    query: Query,
    trace: Trace,
    registry: ExplainerRegistry,
) -> str:
    """The end-to-end prompt; its head is built once per trace and source union."""
    return trace.derived(_end_to_end_evidence, registry.sources) + query_section(query.text)


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
    trace.plan  # a trace without a plan fails the answer, not each explainer

    def run_one(explainer_id: str) -> str:
        try:
            return run_explainer(registry.explainers[explainer_id], query, trace, meter)
        except ANSWER_ERRORS as exc:  # degraded, never fatal for the sweep
            return f"[{explainer_id} explainer produced no answer: {exc}]"

    ids = registry.ids()
    text = aggregate([run_one(explainer_id) for explainer_id in ids], query, meter)
    produced_by = "+".join(ids + ["aggregator"]) if len(ids) > 1 else ids[0]
    return meter.explanation(text, produced_by)
