"""Planner explainer: open-ended reasoning over the plan and its grounding."""

from __future__ import annotations

from ..reasoner import TextReasoner, load_prompt_template
from ..trace import ContextVector, Event, Query, TaskPlan


def format_plan(plan: TaskPlan) -> tuple[str, str]:
    """The plan's step list and its grounding-errors section (empty when none)."""
    steps = []
    for step in plan.steps:
        params = ", ".join(f"{k}={v}" for k, v in sorted(step.params.items()))
        steps.append(f"- {step.skill}({params})")
    grounding = ""
    if plan.grounding_errors:
        listed = "\n".join(f"- {err}" for err in plan.grounding_errors)
        grounding = f"## Grounding errors\n{listed}\n\n"
    return "\n".join(steps) or "(no steps)", grounding


def build_planner_prompt(query: Query, context: ContextVector) -> str:
    plan = context.plan
    plan_steps, grounding = format_plan(plan)
    statuses = "\n".join(f"- {skill}: {status}" for skill, status in context.skills) or "(none)"
    return load_prompt_template("planner").format(
        instruction=plan.instruction,
        plan_steps=plan_steps,
        grounding_section=grounding,
        skill_statuses=statuses,
        query=query.text,
    )


def explain_planner(
    query: Query,
    context: ContextVector,
    events: tuple[Event, ...],
    reasoner: TextReasoner,
) -> str:
    """Prompt the reasoner with instruction, plan, grounding errors and statuses."""
    return reasoner.complete_text(
        system_prompt="You explain robot task plans.",
        user_prompt=build_planner_prompt(query, context),
    ).text
