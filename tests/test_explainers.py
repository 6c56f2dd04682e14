from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexar.explainers.navigation import (
    LogFilterRules,
    build_navigation_prompt,
    explain_navigation,
    filter_logs,
)
from hexar.explainers.planner import build_planner_prompt, explain_planner
from hexar.explainers.tts import NO_PROBLEM_TEMPLATE, explain_tts
from hexar.framework import build_context, explain_hexar
from hexar.trace import Query


def _context(trace, query):
    return build_context(query, trace)


def _events(trace, sources):
    return trace.by_source(sources)


# -- planner -----------------------------------------------------------------


def test_planner_explains_invalid_parameters(trace_cache, registry, rule_reasoner):
    trace = trace_cache(2)
    query = Query("What happened?", trace.events[-1].ts)
    text = explain_planner(query, _context(trace, query), _events(trace, {"planner"}), rule_reasoner)
    assert "invalid parameter" in text
    hexar = explain_hexar(query, trace, registry, rule_reasoner)
    assert (hexar.text, hexar.produced_by, hexar.reasoner_calls) == (text, "planner", 1)


def test_planner_explains_missing_capability(trace_cache, rule_reasoner):
    trace = trace_cache(4)
    query = Query("Why didn't you do what I asked?", trace.events[-1].ts)
    text = explain_planner(query, _context(trace, query), _events(trace, {"planner"}), rule_reasoner)
    assert "unable to complete" in text
    assert "no available skill" in text


def test_planner_explains_unfulfilled_request(trace_cache, rule_reasoner):
    trace = trace_cache(3)
    query = Query("Why didn't you complete my request?", trace.events[-1].ts)
    text = explain_planner(query, _context(trace, query), _events(trace, {"planner"}), rule_reasoner)
    assert "does not fulfil the request" in text
    assert "living room" in text


def test_planner_prompt_preserves_section_order(trace_cache):
    trace = trace_cache(2)
    query = Query("What happened?", trace.events[-1].ts)
    plan = trace.plan
    prompt = build_planner_prompt(query, _context(trace, query))
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
    prompt = build_planner_prompt(query, _context(trace, query))
    assert "## Grounding errors" not in prompt


# -- text to speech ------------------------------------------------------------


def test_tts_timeout_template_substitutes_length(trace_cache, registry, rule_reasoner):
    trace = trace_cache(19)
    query = Query("Why did you stop talking mid-announcement?", trace.events[-1].ts)
    events = _events(trace, {"text_to_speech"})
    text = explain_tts(query, _context(trace, query), events)
    assert "timed out before the utterance was complete" in text
    length = next(int(e.payload["length"]) for e in events if "length" in e.payload)
    assert f"{length} characters" in text
    hexar = explain_hexar(query, trace, registry, rule_reasoner)
    assert (hexar.text, hexar.produced_by, hexar.reasoner_calls) == (text, "text_to_speech", 0)


def test_tts_no_problem_on_success(trace_cache):
    trace = trace_cache(3)
    query = Query("What happened?", trace.events[-1].ts)
    text = explain_tts(query, _context(trace, query), _events(trace, {"text_to_speech"}))
    assert text == NO_PROBLEM_TEMPLATE


def test_tts_no_problem_without_events(trace_cache, registry, rule_reasoner):
    trace = trace_cache(20)
    query = Query("Why did you stop talking?", trace.events[-1].ts)
    text = explain_tts(query, _context(trace, query), ())
    assert text == NO_PROBLEM_TEMPLATE
    # the classifier's call is the only one: the explainer itself makes none
    hexar = explain_hexar(query, trace, registry, rule_reasoner)
    assert (hexar.text, hexar.produced_by, hexar.reasoner_calls) == (text, "text_to_speech", 1)


# -- log filtering ----------------------------------------------------------------


def test_filter_collapses_repeats_with_count():
    lines = ["Controller loop tick"] * 100
    rules = LogFilterRules(discard_patterns=(), max_lines=60)
    assert filter_logs(lines, rules) == ["Controller loop tick [x100]"]


def test_filter_empty_input():
    assert filter_logs([], LogFilterRules()) == []


def test_filter_keeps_unmatched_lines_unchanged():
    lines = ["alpha", "beta", "gamma"]
    assert filter_logs(lines, LogFilterRules()) == lines


def test_filter_discards_known_patterns():
    lines = ["Goal accepted", "Publishing velocity command", "Goal reached"]
    assert filter_logs(lines, LogFilterRules()) == ["Goal accepted", "Goal reached"]


def test_filter_truncation_keeps_first_and_last():
    lines = [f"line {i}" for i in range(100)]
    rules = LogFilterRules(discard_patterns=(), max_lines=10)
    out = filter_logs(lines, rules)
    assert len(out) == 10
    assert out[0] == "line 0"
    assert out[-1] == "line 99"


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "Following path", "Controller loop"]), max_size=40))
def test_filter_is_idempotent_and_never_grows(lines):
    rules = LogFilterRules(max_lines=10)
    once = filter_logs(lines, rules)
    assert filter_logs(once, rules) == once
    assert len(once) <= len(lines)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(alphabet="xyz", min_size=1, max_size=3), max_size=30))
def test_filter_preserves_relative_order(lines):
    rules = LogFilterRules(discard_patterns=(), max_lines=1000)
    out = filter_logs(lines, rules)
    stripped = [line.split(" [x")[0] for line in out]
    it = iter(lines)
    assert all(any(line == candidate for candidate in it) for line in stripped)


# -- navigation --------------------------------------------------------------------


def _nav_events(trace):
    return trace.by_source({"navigation", "system"})


def test_navigation_explains_joystick(trace_cache, rule_reasoner):
    trace = trace_cache(6)
    query = Query("Is something overriding your controls?", trace.events[-1].ts)
    text = explain_navigation(query, _context(trace, query), _nav_events(trace), rule_reasoner)
    assert "joystick controller is enabled" in text
    assert "overriding autonomous navigation" in text


def test_navigation_explains_replanning(trace_cache, rule_reasoner):
    trace = trace_cache(9)
    query = Query("Why did you keep changing your path?", trace.events[-1].ts)
    text = explain_navigation(query, _context(trace, query), _nav_events(trace), rule_reasoner)
    assert "forced the robot to replan" in text


def test_navigation_speed_answer_makes_no_failure_claim(trace_cache, rule_reasoner):
    trace = trace_cache(10)
    query = Query("Why are you so slow?", trace.events[-1].ts)
    text = explain_navigation(query, _context(trace, query), _nav_events(trace), rule_reasoner)
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


def test_log_filter_rules_validate():
    with pytest.raises(ValueError):
        LogFilterRules(max_lines=1)
