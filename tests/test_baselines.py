from __future__ import annotations

import threading
from collections import Counter

import pytest

from hexar.baselines import (
    build_end_to_end_prompt,
    end_to_end_view,
    explain_all_components,
    explain_end_to_end,
)
from hexar.evaluation import run_grid
from hexar.explainers import build_default_registry
from hexar.explainers.navigation import build_navigation_prompt
from hexar.framework import (
    ComponentExplainer,
    ExplainerError,
    ExplainerRegistry,
    build_context,
    explain_hexar,
)
from hexar.reasoner import ReasonerRequest, ReasonerResponse, TextReasoner
from hexar.trace import Query


class RecordingReasoner(TextReasoner):
    """Delegates to the rule reasoner while keeping every prompt."""

    def __init__(self, inner):
        self.inner = inner
        self.requests: list[ReasonerRequest] = []

    def complete(self, request) -> ReasonerResponse:
        self.requests.append(request)
        return self.inner.complete(request)


def _query(trace, text="What happened?"):
    return Query(text=text, asked_at=trace.events[-1].ts)


def test_end_to_end_issues_exactly_one_call(registry, rule_reasoner, trace_cache):
    for scenario_id in (5, 7, 13, 19, 20):
        trace = trace_cache(scenario_id)
        result = explain_end_to_end(_query(trace), trace, rule_reasoner, registry)
        assert result.reasoner_calls == 1
        assert result.produced_by == "end_to_end"


def test_end_to_end_prompt_bundles_charger_param_and_nav_logs(registry, trace_cache):
    trace = trace_cache(7)
    prompt = build_end_to_end_prompt(_query(trace), trace, registry)
    assert "name=charger_connected, value=True" in prompt
    assert "Goal accepted: navigate to kitchen" in prompt
    assert "## Known situations" in prompt


def test_end_to_end_prompt_is_longer_than_navigation_prompt(registry, trace_cache):
    trace = trace_cache(9)
    query = _query(trace)
    e2e = build_end_to_end_prompt(query, trace, registry)
    context = build_context(query, trace)
    nav_prompt = build_navigation_prompt(
        query, trace.by_source(frozenset({"navigation", "system"}), window=context.window)
    )
    assert len(e2e) > len(nav_prompt)


def _event_key(event):
    return (event.ts, event.source, event.kind, tuple(sorted(event.payload.items())))


def test_information_parity_with_union_of_views(registry, trace_cache):
    for scenario_id in (7, 13, 20):
        trace = trace_cache(scenario_id)
        union = set()
        for explainer in registry.explainers.values():
            union.update(_event_key(e) for e in trace.by_source(explainer.subscribed_sources))
        reachable = Counter(_event_key(e) for e in end_to_end_view(trace, registry))
        assert reachable == Counter(sorted(union))


def test_all_components_invokes_everyone_and_aggregates(registry, rule_reasoner, trace_cache):
    trace = trace_cache(7)
    recorder = RecordingReasoner(rule_reasoner)
    result = explain_all_components(_query(trace), trace, registry, recorder)
    assert result.produced_by == (
        "planner+navigation+text_to_speech+ask_human_for_help+pizza_recommender+aggregator"
    )
    aggregation = next(r for r in recorder.requests if "## Explanations to merge" in r.user_prompt)
    merge_lines = [
        line
        for line in aggregation.user_prompt.splitlines()
        if line.startswith("- ")
    ]
    assert len(merge_lines) == 5
    assert any("plugged into its charger" in line for line in merge_lines)
    assert "plugged into its charger" in result.text


def test_all_components_degrades_failures_to_notes(registry, rule_reasoner, trace_cache):
    # scenario 20 has no navigation events: that explainer cannot answer
    trace = trace_cache(20)
    result = explain_all_components(_query(trace), trace, registry, rule_reasoner)
    assert "navigation explainer produced no answer" in result.text
    assert "because mozzarella was available" in result.text


def test_all_components_counts_attempted_calls(registry, rule_reasoner, trace_cache):
    # scenario 3: planner answer + failed navigation attempt + aggregation
    trace = trace_cache(3)
    result = explain_all_components(_query(trace), trace, registry, rule_reasoner)
    assert result.reasoner_calls == 3


def test_call_count_ordering_per_point(registry, rule_reasoner, specs_by_id, trace_cache):
    from hexar.scenarios import grid_triples

    reasoner_backed = 3  # planner, navigation and the help naturalisation
    for scenario_id, variant, query_index in grid_triples():
        trace = trace_cache(scenario_id, variant)
        query = Query(
            text=specs_by_id[scenario_id].queries[query_index - 1],
            asked_at=trace.events[-1].ts,
        )
        hexar = explain_hexar(query, trace, registry, rule_reasoner)
        sweep = explain_all_components(query, trace, registry, rule_reasoner)
        single = explain_end_to_end(query, trace, rule_reasoner, registry)
        assert hexar.reasoner_calls < sweep.reasoner_calls
        assert hexar.reasoner_calls <= single.reasoner_calls + 1
        assert sweep.reasoner_calls >= reasoner_backed


def test_all_components_output_is_order_deterministic(registry, rule_reasoner, trace_cache):
    trace = trace_cache(13)
    first = explain_all_components(_query(trace), trace, registry, rule_reasoner)
    second = explain_all_components(_query(trace), trace, registry, rule_reasoner)
    assert first.text == second.text


def test_all_components_runs_explainers_in_the_calling_thread(rule_reasoner, trace_cache):
    seen: list[tuple[str, int]] = []

    def probe(explainer_id):
        def explain(query, context, events, reasoner):
            seen.append((explainer_id, threading.get_ident()))
            return f"{explainer_id} ran."

        return ComponentExplainer(
            id=explainer_id, subscribed_sources=frozenset({"planner"}), explain_fn=explain
        )

    probes = ExplainerRegistry()
    for explainer_id in ("first", "second", "third"):
        probes.register(probe(explainer_id), [explainer_id])
    trace = trace_cache(7)
    threads_before = threading.active_count()
    result = explain_all_components(_query(trace), trace, probes, rule_reasoner)
    assert threading.active_count() == threads_before
    assert seen == [(i, threading.get_ident()) for i in ("first", "second", "third")]
    assert result.produced_by == "first+second+third+aggregator"


def test_all_components_with_one_explainer_skips_aggregation(trace_cache):
    only = ExplainerRegistry()
    only.register(build_default_registry().explainers["text_to_speech"], ["text_to_speech"])
    trace = trace_cache(19)
    recorder = RecordingReasoner(None)  # any call would fail: nothing may reach it
    result = explain_all_components(_query(trace), trace, only, recorder)
    assert (result.produced_by, result.reasoner_calls, recorder.requests) == (
        "text_to_speech",
        0,
        [],
    )
    assert "timed out" in result.text


def _registry_with_tts(explain_fn) -> ExplainerRegistry:
    """The default registry, with the text_to_speech explainer replaced."""
    registry = ExplainerRegistry()
    for explainer_id, explainer in build_default_registry().explainers.items():
        if explainer_id == "text_to_speech":
            explainer = ComponentExplainer(
                id=explainer.id,
                subscribed_sources=explainer.subscribed_sources,
                explain_fn=explain_fn,
                capability=explainer.capability,
            )
        registry.register(explainer, [explainer_id])
    return registry


def test_all_components_lets_explainer_bugs_propagate(rule_reasoner, trace_cache):
    def buggy(query, context, events, reasoner):
        return 1 / 0

    registry = _registry_with_tts(buggy)
    trace = trace_cache(20)
    with pytest.raises(ZeroDivisionError):
        explain_all_components(_query(trace), trace, registry, rule_reasoner)
    with pytest.raises(ZeroDivisionError):
        run_grid(["all_components"], [(20, 1, 1)], rule_reasoner, seed=0, registry=registry)


def test_all_components_degrades_expected_explainer_errors(rule_reasoner, trace_cache):
    def refusing(query, context, events, reasoner):
        raise ExplainerError("no speech events")

    registry = _registry_with_tts(refusing)
    trace = trace_cache(20)
    result = explain_all_components(_query(trace), trace, registry, rule_reasoner)
    assert "[text_to_speech explainer produced no answer: no speech events]" in result.text
    records = run_grid(["all_components"], [(20, 1, 1)], rule_reasoner, seed=0, registry=registry)
    assert "[text_to_speech explainer produced no answer: no speech events]" in (
        records[0].explanation_text
    )
