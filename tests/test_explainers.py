from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexar.explainers import ROBOT_MODULES, build_default_registry
from hexar.explainers.help_causal import explain_help
from hexar.explainers.navigation import (
    MAX_LOG_LINES,
    build_navigation_prompt,
    explain_navigation,
    filter_logs,
)
from hexar.explainers.pizza import explain_pizza
from hexar.explainers.planner import build_planner_prompt, explain_planner
from hexar.explainers.tts import NO_PROBLEM_TEMPLATE, explain_tts
from hexar.framework import explain_hexar
from hexar.reasoner import _sections, read_package_data
from hexar.trace import Event, EventView, Query


def _events(trace, sources):
    return trace.by_source(sources)


# -- planner -----------------------------------------------------------------


def test_planner_explains_invalid_parameters(trace_cache, registry, rule_reasoner):
    trace = trace_cache(2)
    query = Query("What happened?", trace.events[-1].ts)
    text = explain_planner(query, trace.context, _events(trace, {"planner"}), rule_reasoner)
    assert "invalid parameter" in text
    hexar = explain_hexar(query, trace, registry, rule_reasoner)
    assert (hexar.text, hexar.produced_by, hexar.reasoner_calls) == (text, "planner", 1)


def test_planner_explains_missing_capability(trace_cache, rule_reasoner):
    trace = trace_cache(4)
    query = Query("Why didn't you do what I asked?", trace.events[-1].ts)
    text = explain_planner(query, trace.context, _events(trace, {"planner"}), rule_reasoner)
    assert "unable to complete" in text
    assert "no available skill" in text


def test_planner_explains_unfulfilled_request(trace_cache, rule_reasoner):
    trace = trace_cache(3)
    query = Query("Why didn't you complete my request?", trace.events[-1].ts)
    text = explain_planner(query, trace.context, _events(trace, {"planner"}), rule_reasoner)
    assert "does not fulfil the request" in text
    assert "living room" in text


def test_planner_prompt_preserves_section_order(trace_cache):
    trace = trace_cache(2)
    query = Query("What happened?", trace.events[-1].ts)
    plan = trace.plan
    prompt = build_planner_prompt(query, trace.context)
    positions = [
        prompt.index("## Instruction"),
        prompt.index("## Plan"),
        prompt.index("## Grounding errors"),
        prompt.index("## Skill statuses"),
        prompt.index("## Query"),
    ]
    assert positions == sorted(positions)
    assert plan.instruction in prompt
    assert query.text in prompt


def test_planner_prompt_omits_grounding_section_when_clean(trace_cache):
    trace = trace_cache(3)
    query = Query("What happened?", trace.events[-1].ts)
    plan = trace.plan
    prompt = build_planner_prompt(query, trace.context)
    assert "## Grounding errors" not in prompt


# -- text to speech ------------------------------------------------------------


def test_tts_timeout_template_substitutes_length(trace_cache, registry, rule_reasoner):
    trace = trace_cache(19)
    query = Query("Why did you stop talking mid-announcement?", trace.events[-1].ts)
    events = _events(trace, {"text_to_speech"})
    text = explain_tts(query, trace.context, events)
    assert "timed out before the utterance was complete" in text
    length = next(int(e.payload["length"]) for e in events if "length" in e.payload)
    assert f"{length} characters" in text
    hexar = explain_hexar(query, trace, registry, rule_reasoner)
    assert (hexar.text, hexar.produced_by, hexar.reasoner_calls) == (text, "text_to_speech", 0)


def test_tts_no_problem_on_success(trace_cache):
    trace = trace_cache(3)
    query = Query("What happened?", trace.events[-1].ts)
    text = explain_tts(query, trace.context, _events(trace, {"text_to_speech"}))
    assert text == NO_PROBLEM_TEMPLATE


def test_tts_no_problem_without_events(trace_cache, registry, rule_reasoner):
    trace = trace_cache(20)
    query = Query("Why did you stop talking?", trace.events[-1].ts)
    text = explain_tts(query, trace.context, EventView(()))
    assert text == NO_PROBLEM_TEMPLATE
    # the classifier's call is the only one: the explainer itself makes none
    hexar = explain_hexar(query, trace, registry, rule_reasoner)
    assert (hexar.text, hexar.produced_by, hexar.reasoner_calls) == (text, "text_to_speech", 1)


# -- log filtering ----------------------------------------------------------------


def test_filter_collapses_repeats_with_count():
    lines = ["Following path"] * 100
    assert filter_logs(lines) == ["Following path [x100]"]


def test_filter_empty_input():
    assert filter_logs([]) == []


def test_filter_keeps_unmatched_lines_unchanged():
    lines = ["alpha", "beta", "gamma"]
    assert filter_logs(lines) == lines


def test_filter_discards_known_patterns():
    lines = ["Goal accepted", "Publishing velocity command", "Goal reached"]
    assert filter_logs(lines) == ["Goal accepted", "Goal reached"]


def test_filter_truncation_keeps_first_and_last():
    lines = [f"line {i}" for i in range(100)]
    out = filter_logs(lines)
    assert MAX_LOG_LINES == 60
    assert out == lines[:59] + ["line 99"]


def test_filter_collapses_the_repeat_that_truncation_creates_at_the_seam():
    lines = [f"line {i}" for i in range(58)] + ["x", "y", "x"]
    assert filter_logs(lines) == lines[:58] + ["x [x2]"]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.sampled_from(["a", "b", "c", "Following path", "Controller loop"]), max_size=200
    )
)
def test_filter_is_idempotent_and_never_grows(lines):
    once = filter_logs(lines)
    assert filter_logs(once) == once
    assert len(once) <= min(len(lines), MAX_LOG_LINES)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(alphabet="xyz", min_size=1, max_size=3), max_size=30))
def test_filter_preserves_relative_order(lines):
    out = filter_logs(lines)
    stripped = [line.split(" [x")[0] for line in out]
    it = iter(lines)
    assert all(any(line == candidate for candidate in it) for line in stripped)


# -- navigation --------------------------------------------------------------------


def _nav_events(trace):
    return trace.by_source({"navigation", "system"})


def test_navigation_explains_joystick(trace_cache, rule_reasoner):
    trace = trace_cache(6)
    query = Query("Is something overriding your controls?", trace.events[-1].ts)
    text = explain_navigation(query, trace.context, _nav_events(trace), rule_reasoner)
    assert "joystick controller is enabled" in text
    assert "overriding autonomous navigation" in text


def test_navigation_explains_replanning(trace_cache, rule_reasoner):
    trace = trace_cache(9)
    query = Query("Why did you keep changing your path?", trace.events[-1].ts)
    text = explain_navigation(query, trace.context, _nav_events(trace), rule_reasoner)
    assert "forced the robot to replan" in text


def test_navigation_speed_answer_makes_no_failure_claim(trace_cache, rule_reasoner):
    trace = trace_cache(10)
    query = Query("Why are you so slow?", trace.events[-1].ts)
    text = explain_navigation(query, trace.context, _nav_events(trace), rule_reasoner)
    assert "configured speed limit" in text
    assert "could not" not in text
    assert "failed" not in text


def test_navigation_prompt_contains_catalogue_params_and_query(trace_cache):
    trace = trace_cache(7)
    query = Query("Why won't you leave the dock?", trace.events[-1].ts)
    prompt = build_navigation_prompt(query, _nav_events(trace))
    assert "## Known situations" in prompt
    assert "charger_connected = True" in prompt
    assert query.text in prompt


# the sub-explainer whose catalogue slice each navigation scenario's prompt carries
_SUB_EXPLAINER_OF_SCENARIO = {5: "path", 6: "mode", 7: "mode", 8: "motion", 9: "path", 10: "motion"}


def _catalogue_lines(*sub_explainers):
    """The situation lines the given sub-explainers own, in ``situations.json`` order."""
    return [
        f'- if the evidence mentions "{e["marker"]}": {e["sentence"]}'
        for e in json.loads(read_package_data("situations.json"))
        if e["scope"] == "navigation" and e["sub_explainer"] in sub_explainers
    ]


def _known_situations(events):
    prompt = build_navigation_prompt(Query("What happened?", 0.0), events)
    return _sections(prompt)["Known situations"].split("\n")


@pytest.mark.parametrize("scenario_id", sorted(_SUB_EXPLAINER_OF_SCENARIO))
def test_navigation_prompt_carries_the_slice_its_params_select(
    trace_cache, specs_by_id, scenario_id
):
    expected = _catalogue_lines(_SUB_EXPLAINER_OF_SCENARIO[scenario_id])
    assert len(expected) == 2
    marker = specs_by_id[scenario_id].ground_truth.root_cause
    assert sum(f'"{marker}"' in line for line in expected) == 1
    for seed in range(5):
        for variant in (1, 2, 3):
            trace = trace_cache(scenario_id, variant, seed)
            assert _known_situations(_nav_events(trace)) == expected, (seed, variant)


def test_params_of_two_sub_explainers_give_the_union_of_their_slices(trace_cache, rule_reasoner):
    trace = trace_cache(7)
    speed = Event(trace.events[-1].ts, "system", "param", {"name": "max_speed", "value": 0.3})
    events = EventView([*_nav_events(trace), speed])
    assert _known_situations(events) == _catalogue_lines("mode", "motion")
    assert len(_catalogue_lines("mode", "motion")) == 4
    text = explain_navigation(Query("Why?", 0.0), trace.context, events, rule_reasoner)
    assert "plugged into its charger" in text


# -- default registry --------------------------------------------------------


def test_default_registry_wires_one_explainer_per_module_in_order():
    """Pins the id, module, sources, capability and technique of each default
    explainer, in registration order: the classifier prompt lists them so."""
    expected = [
        (
            "planner",
            {"planner"},
            "task plans, step ordering, grounding of instructions to skills",
            explain_planner,
        ),
        (
            "navigation",
            {"navigation", "system"},
            "driving between rooms, routes, obstacles, speed, localisation",
            explain_navigation,
        ),
        ("text_to_speech", {"text_to_speech"}, "speaking, utterances, voice output", explain_tts),
        (
            "ask_human_for_help",
            {"ask_human_for_help"},
            "finding and approaching people, asking them for assistance",
            explain_help,
        ),
        (
            "pizza_recommender",
            {"pizza_recommender"},
            "pizza recipe recommendations from available ingredients",
            explain_pizza,
        ),
    ]
    registry = build_default_registry()
    assert ROBOT_MODULES == tuple(row[0] for row in expected)
    assert registry.entries == {module: [module] for module in ROBOT_MODULES}
    assert list(registry.entries) == list(ROBOT_MODULES)
    assert registry.ids() == list(ROBOT_MODULES)
    for explainer, (module, sources, capability, explain_fn) in zip(
        registry.explainers.values(), expected
    ):
        assert explainer.id == module
        assert explainer.subscribed_sources == frozenset(sources)
        assert explainer.capability == capability
        assert explainer.explain_fn is explain_fn
