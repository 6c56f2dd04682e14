"""Planner explainer: open-ended reasoning over the plan and its grounding."""

from __future__ import annotations

from ..reasoner import TextReasoner, load_prompt_template, query_section
from ..trace import ContextVector, EventView, Query, TaskPlan

_TEMPLATE = load_prompt_template("planner")


def format_items(items: dict) -> str:
    """``k=v`` pairs sorted by key, comma-separated."""
    return ", ".join(f"{k}={v}" for k, v in sorted(items.items()))


def format_plan(plan: TaskPlan) -> tuple[str, str]:
    """The plan's step list and its grounding-errors section (empty when none)."""
    steps = [f"- {step.skill}({format_items(step.params)})" for step in plan.steps]
    grounding = ""
    if plan.grounding_errors:
        listed = "\n".join(f"- {err}" for err in plan.grounding_errors)
        grounding = f"## Grounding errors\n{listed}\n\n"
    return "\n".join(steps) or "(no steps)", grounding


def _planner_evidence(context: ContextVector) -> str:
    """The planner prompt up to its query: instruction, plan, grounding errors, statuses."""
    plan = context.plan
    plan_steps, grounding = format_plan(plan)
    statuses = "\n".join(f"- {skill}: {status}" for skill, status in context.skills) or "(none)"
    return _TEMPLATE.format(
        instruction=plan.instruction,
        plan_steps=plan_steps,
        grounding_section=grounding,
        skill_statuses=statuses,
    )


def build_planner_prompt(query: Query, context: ContextVector) -> str:
    """The planner prompt; its head is built once per context."""
    return context.derived(_planner_evidence) + query_section(query.text)


def explain_planner(
    query: Query,
    context: ContextVector,
    events: EventView,
    reasoner: TextReasoner,
) -> str:
    """Prompt the reasoner with instruction, plan, grounding errors and statuses."""
    return reasoner.complete_text(
        system_prompt="You explain robot task plans.",
        user_prompt=build_planner_prompt(query, context),
    ).text
