from __future__ import annotations

from collections import Counter

import pytest

from hexar.framework import (
    ComponentExplainer,
    ExplainerRegistry,
    ReasonerMeter,
    SelectionError,
    SelectorStage,
    aggregate,
    build_context,
    explain_hexar,
    select,
)
from hexar.reasoner import ReasonerResponse, TextReasoner
from hexar.scenarios import grid_triples
from hexar.simulate import generate_trace
from hexar.trace import Event, Query, TaskPlan, Trace, TraceError


class StubReasoner(TextReasoner):
    def __init__(self, text: str):
        self.text = text

    def complete(self, request):
        return ReasonerResponse(text=self.text)


def _query(trace, text="What happened?"):
    return Query(text=text, asked_at=trace.events[-1].ts)


# -- per-explainer views ---------------------------------------------------------


def test_view_filters_by_subscribed_sources(trace_cache):
    nav_only = trace_cache(7).by_source({"navigation"})
    assert nav_only and all(e.source == "navigation" for e in nav_only)


def _event_key(event: Event):
    return (event.ts, event.source, event.kind, tuple(sorted(event.payload.items())))


def test_union_of_default_views_covers_every_event(registry, trace_cache):
    for scenario_id in (7, 13, 19, 20):
        trace = trace_cache(scenario_id)
        union = Counter()
        for explainer in registry.explainers.values():
            for source in explainer.subscribed_sources:
                union.update(_event_key(e) for e in trace.by_source({source}))
        # sources overlap only if two explainers subscribe the same module;
        # compare the deduplicated support against the full event multiset
        deduped = Counter(set(union))
        assert deduped == Counter(_event_key(e) for e in trace.events)


def test_view_window_filters_by_timestamp(trace_cache):
    trace = trace_cache(7)
    all_nav = trace.by_source({"navigation", "system"})
    clipped = trace.by_source({"navigation", "system"}, window=(0.0, all_nav[0].ts))
    assert clipped == (all_nav[0],)


# -- context ---------------------------------------------------------------------


def test_build_context_execution_failure(trace_cache):
    trace = trace_cache(7)
    context = build_context(_query(trace), trace)
    assert context.plan is trace.plan
    assert context.plan.valid is True
    statuses = dict(context.skills)
    assert statuses["navigation"] == "failed"


def test_build_context_invalid_plan(trace_cache):
    trace = trace_cache(2)
    context = build_context(_query(trace), trace)
    assert context.plan.valid is False


def test_build_context_all_succeeded(trace_cache):
    trace = trace_cache(3)
    context = build_context(_query(trace), trace)
    assert all(status == "succeeded" for _, status in context.skills)
    assert [skill for skill, _ in context.skills] == ["navigation", "text_to_speech"]


def test_build_context_window_clips_to_query_time(trace_cache):
    trace = trace_cache(3)
    query = Query(text="Why?", asked_at=trace.events[3].ts)
    context = build_context(query, trace)
    assert context.window == (trace.events[0].ts, trace.events[3].ts)


def test_build_context_requires_plan():
    trace = Trace(
        scenario_id=1,
        task_variant=1,
        seed=0,
        events=(Event(ts=0.0, source="system", kind="log", payload={"text": "x"}),),
    )
    with pytest.raises(TraceError):
        build_context(Query("Why?", 1.0), trace)


def test_plan_is_parsed_once_per_trace(monkeypatch, registry, rule_reasoner):
    from hexar.baselines import build_end_to_end_prompt, explain_all_components

    calls = []
    parse = TaskPlan.from_payload

    def counting(payload):
        calls.append(payload)
        return parse(payload)

    monkeypatch.setattr(TaskPlan, "from_payload", counting)
    trace = generate_trace(7, 1, 0)  # not the session cache: its plans may be parsed already
    query = _query(trace)
    first = build_context(query, trace)
    assert build_context(query, trace) == first
    build_end_to_end_prompt(query, trace, registry)
    # the planner explainer reads the plan from its context
    explain_all_components(query, trace, registry, rule_reasoner)
    assert len(calls) == 1


# -- selection -------------------------------------------------------------------


def test_failed_skill_selects_its_explainer(registry, rule_reasoner, trace_cache):
    trace = trace_cache(7)
    decision = select(_query(trace, "anything at all??"), trace, registry, rule_reasoner)
    assert decision.chosen == "navigation"
    assert decision.stage is SelectorStage.FAILURE_HEURISTIC


def test_invalid_plan_selects_planner(registry, rule_reasoner, trace_cache):
    trace = trace_cache(1)
    decision = select(_query(trace), trace, registry, rule_reasoner)
    assert decision.chosen == "planner"
    assert decision.stage is SelectorStage.FAILURE_HEURISTIC


def test_successful_run_classifies_by_query(registry, rule_reasoner, trace_cache):
    trace = trace_cache(20)
    meter = ReasonerMeter(rule_reasoner)
    decision = select(_query(trace, "Why did you pick that pizza?"), trace, registry, meter)
    assert decision.chosen == "pizza_recommender"
    assert decision.stage is SelectorStage.QUERY_CLASSIFIER
    assert meter.calls == 1


def test_unknown_classifier_answer_is_an_error(registry, trace_cache):
    trace = trace_cache(20)
    with pytest.raises(SelectionError):
        select(_query(trace), trace, registry, StubReasoner("holodeck"))


def test_failure_heuristic_dominates_query_text(registry, rule_reasoner, trace_cache):
    for scenario_id in (1, 2, 4, 5, 6, 7, 11, 12, 13, 14, 15, 16, 19):
        trace = trace_cache(scenario_id)
        decision = select(
            _query(trace, "Why did you pick that pizza?"),
            trace,
            registry,
            rule_reasoner,
        )
        assert decision.stage is SelectorStage.FAILURE_HEURISTIC, scenario_id


def test_earliest_failed_skill_wins():
    events = (
        Event(ts=0.0, source="planner", kind="plan", payload={
            "instruction": "speak then go",
            "valid": True,
            "steps.0.skill": "text_to_speech",
            "steps.0.params.text": "hello",
            "steps.1.skill": "navigation",
            "steps.1.params.location": "kitchen",
        }),
        Event(ts=1.0, source="text_to_speech", kind="skill_status",
              payload={"skill": "text_to_speech", "status": "failed", "error_code": "timeout"}),
        Event(ts=2.0, source="navigation", kind="skill_status",
              payload={"skill": "navigation", "status": "failed", "error_code": "blocked"}),
    )
    trace = Trace(scenario_id=1, task_variant=1, seed=0, events=events)
    from hexar.explainers import build_default_registry

    decision = select(Query("Why?", 2.0), trace, build_default_registry(), StubReasoner("x"))
    assert decision.chosen == "text_to_speech"


def test_selector_totality_over_grid(registry, rule_reasoner, specs_by_id, trace_cache):
    for scenario_id, variant, query_index in grid_triples():
        trace = trace_cache(scenario_id, variant)
        query = Query(
            text=specs_by_id[scenario_id].queries[query_index - 1],
            asked_at=trace.events[-1].ts,
        )
        decision = select(query, trace, registry, rule_reasoner)
        assert decision.chosen in registry.explainers


# -- registry ---------------------------------------------------------------------


def test_registry_rejects_duplicates_and_reports_coverage():
    registry = ExplainerRegistry()
    explainer = ComponentExplainer(
        id="x", subscribed_sources=frozenset({"system"}), explain_fn=lambda *a: None
    )
    registry.register(explainer, modules=["planner"])
    with pytest.raises(ValueError):
        registry.register(explainer, modules=["navigation"])
    with pytest.raises(SelectionError):
        registry.explainer_for_module("navigation")
    with pytest.raises(SelectionError):
        registry.validate_coverage(["planner", "navigation"])


def test_registry_supports_multiple_explainers_per_module():
    registry = ExplainerRegistry()
    first = ComponentExplainer(
        id="a", subscribed_sources=frozenset({"system"}), explain_fn=lambda *a: None
    )
    second = ComponentExplainer(
        id="b", subscribed_sources=frozenset({"system"}), explain_fn=lambda *a: None
    )
    registry.register(first, modules=["navigation"])
    registry.register(second, modules=["navigation"])
    assert registry.entries["navigation"] == ["a", "b"]
    assert registry.explainer_for_module("navigation") == "a"


def test_component_explainer_needs_subscriptions():
    with pytest.raises(ValueError):
        ComponentExplainer(id="x", subscribed_sources=frozenset(), explain_fn=lambda *a: None)


# -- aggregation ------------------------------------------------------------------


def test_aggregate_singleton_passes_through(rule_reasoner):
    meter = ReasonerMeter(rule_reasoner)
    assert aggregate(["only answer"], Query("Why?", 1.0), meter) == "only answer"
    assert meter.calls == 0


def test_aggregate_deduplicates_identical_texts(rule_reasoner):
    meter = ReasonerMeter(rule_reasoner)
    merged = aggregate(["same sentence.", "same sentence."], Query("Why?", 1.0), meter)
    assert merged == "same sentence."
    assert meter.calls == 1


def test_aggregate_preserves_input_order(rule_reasoner):
    merged = aggregate(["first point.", "second point."], Query("Why?", 1.0), rule_reasoner)
    assert merged == "first point. second point."


def test_aggregate_rejects_empty_list(rule_reasoner):
    with pytest.raises(ValueError):
        aggregate([], Query("Why?", 1.0), rule_reasoner)


# -- end-to-end pipeline ------------------------------------------------------------


def test_explain_hexar_charger_quote(registry, rule_reasoner, trace_cache):
    trace = trace_cache(7)
    explanation = explain_hexar(
        Query("Why didn't you bring it?", trace.events[-1].ts), trace, registry, rule_reasoner
    )
    assert "disables autonomous navigation" in explanation.text
    assert explanation.produced_by == "navigation"


def test_explain_hexar_tts_is_reasoner_free(registry, rule_reasoner, trace_cache):
    trace = trace_cache(19)
    explanation = explain_hexar(_query(trace), trace, registry, rule_reasoner)
    assert explanation.produced_by == "text_to_speech"
    assert explanation.reasoner_calls == 0


def test_explain_hexar_is_deterministic(registry, rule_reasoner, trace_cache):
    trace = trace_cache(9)
    query = Query("Why did it take you so long to arrive?", trace.events[-1].ts)
    first = explain_hexar(query, trace, registry, rule_reasoner)
    second = explain_hexar(query, trace, registry, rule_reasoner)
    assert first.text == second.text
    assert first.produced_by == second.produced_by


def test_explain_hexar_call_budget(registry, rule_reasoner, specs_by_id, trace_cache):
    for scenario_id, variant, query_index in grid_triples():
        trace = trace_cache(scenario_id, variant)
        query = Query(
            text=specs_by_id[scenario_id].queries[query_index - 1],
            asked_at=trace.events[-1].ts,
        )
        explanation = explain_hexar(query, trace, registry, rule_reasoner)
        assert explanation.reasoner_calls <= 2
