from __future__ import annotations

import hashlib
import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexar.explainers.help_causal import (
    COUNTERFACTUAL_TEMPLATE,
    D_MAX,
    DETECTION_GAP,
    GATES,
    T_STABLE,
    VAR_MAX,
    CounterfactualResult,
    HelpOutcome,
    HelpResponse,
    HelpVariables,
    counterfactual,
    evaluate_model,
    explain_help,
    extract_variables,
    phrase_counterfactual,
    render_counterfactual,
)
from hexar.framework import explain_hexar
from hexar.reasoner import ReasonerError, TextReasoner, read_package_data
from hexar.simulate import generate_trace, replay_fsm
from hexar.trace import ContextVector, Event, EventView, Query, TaskPlan, Trace


def help_events(trace):
    return trace.by_source({"ask_human_for_help"})


def passing_variables(**overrides) -> HelpVariables:
    base = dict(
        n_humans=1,
        detection_duration=2.5,
        detection_variance=0.01,
        min_distance=2.0,
        path_feasible=True,
        response=HelpResponse.AGREE,
        confirmation=True,
    )
    base.update(overrides)
    return HelpVariables(**base)


# -- variable extraction -------------------------------------------------------


def test_extract_variables_unstable_detection(trace_cache):
    v = extract_variables(help_events(trace_cache(13)))
    assert v.n_humans == 1
    assert v.detection_duration < T_STABLE
    assert v.min_distance is not None and v.min_distance <= D_MAX


def test_extract_variables_too_far(trace_cache):
    v = extract_variables(help_events(trace_cache(12)))
    assert v.min_distance is not None and v.min_distance > D_MAX
    assert v.detection_duration >= T_STABLE


def test_extract_variables_empty_event_list():
    v = extract_variables(())
    assert v.n_humans == 0
    assert v.detection_duration == 0.0
    assert v.min_distance is None
    assert v.response is HelpResponse.NONE


def test_extract_variables_high_variance(trace_cache):
    v = extract_variables(help_events(trace_cache(18)))
    assert v.detection_variance > VAR_MAX
    low = extract_variables(help_events(trace_cache(15)))
    assert low.detection_variance <= VAR_MAX


# -- gate evaluation -------------------------------------------------------------


def test_evaluate_model_refusal(trace_cache):
    v = extract_variables(help_events(trace_cache(15)))
    assert evaluate_model(v) is HelpOutcome.HELP_REFUSED


def test_evaluate_model_success_when_all_gates_pass():
    assert evaluate_model(passing_variables()) is HelpOutcome.SUCCESS


@pytest.mark.parametrize("scenario_id", list(range(11, 19)))
@pytest.mark.parametrize("variant", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 5])
def test_model_agrees_with_fsm_replay(scenario_id, variant, seed):
    trace = generate_trace(scenario_id, variant, seed)
    outcome = replay_fsm(trace)
    modelled = evaluate_model(extract_variables(help_events(trace)))
    assert outcome is modelled


def _near(boundary: float):
    """The boundary itself, or one quantum of the trace clock to either side."""
    return st.sampled_from([boundary - 1e-6, boundary, boundary + 1e-6])


@st.composite
def help_streams(draw) -> Trace:
    """Detection runs shaped like the simulator's, with spans, gaps and
    distances drawn on and around the gate thresholds, then dialogue."""
    events = []
    t = 0.0

    def emit(kind, payload, dt):
        nonlocal t
        t = round(t + dt, 6)  # the simulator's 6-decimal clock
        events.append(Event(t, "ask_human_for_help", kind, payload))

    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            emit("detection", {"n_humans": 0}, draw(st.floats(0.05, 0.4)))
        gap = draw(_near(DETECTION_GAP) | st.floats(0.05, 1.5))
        span = draw(_near(T_STABLE) | st.floats(0.0, 2.4))
        ticks = draw(st.integers(5, 12))  # keeps each tick under DETECTION_GAP
        distance = draw(_near(D_MAX) | st.floats(0.5, 6.0))
        for i in range(ticks + 1):
            payload = {
                "n_humans": 1,
                "human.0.distance": distance,
                "human.0.x": 1.8 + (0.1 if i % 2 else -0.1),
                "human.0.y": 0.4,
            }
            emit("detection", payload, gap if i == 0 else span / ticks)
    if draw(st.booleans()):
        emit("log", {"text": "approach path", "path_feasible": draw(st.booleans())}, 0.1)
    emit("dialogue", {"role": "robot", "text": "Could you help me?"}, 0.1)
    response = draw(st.sampled_from([None, "agree", "refuse"]))
    if response is not None:
        emit("dialogue", {"role": "human", "response": response}, 0.1)
    if draw(st.booleans()):
        emit("dialogue", {"role": "human", "confirmed": draw(st.booleans())}, 0.1)
    return Trace(scenario_id=11, task_variant=1, seed=0, events=tuple(events))


@settings(max_examples=300, deadline=None)
@given(help_streams())
def test_model_agrees_with_fsm_replay_at_threshold_boundaries(trace):
    # grid traces never come near the thresholds (distances 2.0-2.2 m or 4.1 m)
    assert evaluate_model(extract_variables(trace.events)) is replay_fsm(trace)


def test_replay_fsm_requires_help_events(trace_cache):
    with pytest.raises(ValueError):
        replay_fsm(trace_cache(7))


# -- counterfactuals -------------------------------------------------------------


GATE_ORDER = [gate.failure for gate in GATES] + [HelpOutcome.SUCCESS]


def gate_rank(outcome: HelpOutcome) -> int:
    return GATE_ORDER.index(outcome)


def test_counterfactual_too_far_lands_on_boundary():
    v = passing_variables(min_distance=4.1, response=HelpResponse.NONE, confirmation=False)
    result = counterfactual(v)
    assert result.variable == "min_distance"
    assert result.observed == 4.1
    assert result.intervention == D_MAX
    assert gate_rank(result.resulting) > gate_rank(result.realized)


def test_counterfactual_rejects_satisfied_precondition():
    with pytest.raises(ValueError):
        counterfactual(passing_variables())


def test_counterfactual_confirmation_reaches_success():
    v = passing_variables(confirmation=False)
    result = counterfactual(v)
    assert result.variable == "confirmation"
    assert result.intervention is True
    assert result.resulting is HelpOutcome.SUCCESS


def test_counterfactual_is_deterministic():
    v = passing_variables(n_humans=0, min_distance=None, detection_duration=0.0)
    a = counterfactual(v)
    b = counterfactual(v)
    assert a == b


def test_render_counterfactual_uses_exact_template():
    result = CounterfactualResult(
        realized=HelpOutcome.HUMAN_TOO_FAR,
        variable="min_distance",
        observed=4.1,
        intervention=3.0,
        resulting=HelpOutcome.HELP_REFUSED,
    )
    assert render_counterfactual(result) == (
        "human_too_far occurred because min_distance = 4.10. "
        "If min_distance = 3.00, help_refused would have occurred instead."
    )
    assert COUNTERFACTUAL_TEMPLATE == (
        "{Y} occurred because {X} = {x}. If {X} = {x_star}, {Y_star} would have occurred instead."
    )


def brute_force_flip_check(v: HelpVariables):
    """Oracle: the returned intervention must flip the first failed gate, and
    for numeric gates no smaller change may flip it."""
    realized = evaluate_model(v)
    result = counterfactual(v)
    failed_gate = next(g for g in GATES if g.failure is realized)
    assert result.variable == failed_gate.variable

    intervened = replace(v, **{result.variable: result.intervention})
    assert failed_gate.predicate(intervened), "gate did not flip"
    assert gate_rank(evaluate_model(intervened)) > gate_rank(realized)

    observed = result.observed
    boundary = result.intervention
    if isinstance(observed, (int, float)) and isinstance(boundary, (int, float)) \
            and not isinstance(observed, bool) and not isinstance(boundary, bool):
        # any candidate strictly between the observation and the boundary
        # must leave the gate failing (the boundary is the minimal change)
        for fraction in (0.2, 0.5, 0.9, 0.99):
            candidate = observed + (boundary - observed) * fraction
            shifted = replace(v, **{result.variable: candidate})
            assert not failed_gate.predicate(shifted), (
                f"{result.variable}={candidate} already flips; boundary not minimal"
            )


@pytest.mark.parametrize("scenario_id", list(range(11, 17)))
@pytest.mark.parametrize("variant", [1, 2, 3])
def test_grid_counterfactuals_flip_and_are_minimal(scenario_id, variant):
    trace = generate_trace(scenario_id, variant, 0)
    v = extract_variables(help_events(trace))
    assert evaluate_model(v) is not HelpOutcome.SUCCESS
    brute_force_flip_check(v)


# -- full explainer --------------------------------------------------------------


def _context() -> ContextVector:
    return ContextVector(
        plan=TaskPlan("Get someone to hold the door open for you", (), True, ()),
        skills=(("ask_human_for_help", "failed"),),
    )


def _hexar(trace, query_text, registry, reasoner):
    """The hexar answer to ``query_text`` at the end of ``trace``, routed to this explainer."""
    explanation = explain_hexar(Query(query_text, trace.events[-1].ts), trace, registry, reasoner)
    assert explanation.produced_by == "ask_human_for_help"
    return explanation


def test_explain_help_no_human(trace_cache, registry, rule_reasoner):
    trace = trace_cache(11)
    text = explain_help(Query("What happened?", 100.0), _context(), help_events(trace), rule_reasoner)
    assert "did not detect anybody" in text
    assert "if at least one person had been present" in text
    # the failure heuristic selects and the phrasing needs no call
    hexar = _hexar(trace, "What happened?", registry, rule_reasoner)
    assert (hexar.text, hexar.reasoner_calls) == (text, 0)


def test_explain_help_high_variance_is_templated(trace_cache, registry, rule_reasoner):
    trace = trace_cache(18)
    text = explain_help(Query("Why?", 100.0), _context(), help_events(trace), rule_reasoner)
    assert "high variance in the person's detection" in text
    # the classifier's call is the only one: the template needs none
    hexar = _hexar(trace, "Why did you approach them so strangely?", registry, rule_reasoner)
    assert (hexar.text, hexar.reasoner_calls) == (text, 1)


def test_explain_help_replanned_approach_is_templated(trace_cache, registry, rule_reasoner):
    trace = trace_cache(17)
    text = explain_help(Query("Why?", 100.0), _context(), help_events(trace), rule_reasoner)
    assert "approach path was replanned" in text
    hexar = _hexar(trace, "Why was your approach so awkward?", registry, rule_reasoner)
    assert (hexar.text, hexar.reasoner_calls) == (text, 1)


def test_explain_help_clean_success_template(trace_cache, registry, rule_reasoner):
    # scenario 17 without its replanning logs is a clean success
    full = trace_cache(17)
    trace = replace(
        full,
        events=tuple(
            e
            for e in full.events
            if "approach path was replanned" not in str(e.payload.get("text", ""))
        ),
    )
    text = explain_help(Query("Why?", 100.0), _context(), help_events(trace), rule_reasoner)
    assert "completed normally" in text
    hexar = _hexar(trace, "Why was your approach so awkward?", registry, rule_reasoner)
    assert (hexar.text, hexar.reasoner_calls) == (text, 1)


def test_explain_help_without_events_reports_unused(rule_reasoner):
    text = explain_help(Query("Why?", 1.0), _context(), EventView(()), rule_reasoner)
    assert "was not used" in text


# -- the phrasing oracle -------------------------------------------------------

# How the rule reasoner once phrased a failed outcome: it parsed the rendered
# counterfactual sentence back and filled the outcome's phrasing with the
# values as the sentence showed them.
_CF_LINE = re.compile(
    r"(\w+) occurred because (\w+) = (.+?)\. "
    r"If \2 = (.+?), (\w+) would have occurred instead\."
)


def _phrasing_oracle(result: CounterfactualResult) -> str:
    outcome, _, observed, boundary, _ = _CF_LINE.search(render_counterfactual(result)).groups()
    phrasings = json.loads(read_package_data("counterfactual_phrasings.json"))
    return phrasings[outcome].format(x=observed, x_star=boundary)


# variables whose first failing gate is each failure outcome
_FAILING = {
    HelpOutcome.NO_HUMAN_FOUND: dict(n_humans=0, min_distance=None, detection_duration=0.0),
    HelpOutcome.HUMAN_TOO_FAR: dict(min_distance=4.137),
    HelpOutcome.UNSTABLE_DETECTION: dict(detection_duration=1.254),
    HelpOutcome.APPROACH_FAILED: dict(path_feasible=False),
    HelpOutcome.HELP_REFUSED: dict(response=HelpResponse.REFUSE),
    HelpOutcome.NO_CONFIRMATION: dict(confirmation=False),
}


@pytest.mark.parametrize(
    "outcome", [o for o in HelpOutcome if o is not HelpOutcome.SUCCESS], ids=lambda o: o.value
)
def test_help_phrasing_formats_the_counterfactual(outcome):
    result = counterfactual(passing_variables(**_FAILING[outcome]))
    assert result.realized is outcome
    assert phrase_counterfactual(result) == _phrasing_oracle(result)


def test_help_phrasing_fills_both_values():
    result = counterfactual(passing_variables(min_distance=4.1))
    text = phrase_counterfactual(result)
    assert "too far away to ask for help" in text
    assert "(4.10 m away, my limit is 3.00 m)" in text
    assert "within 3.00 m" in text
    unmeasured = counterfactual(passing_variables(min_distance=None))
    assert "(absent m away, my limit is 3.00 m)" in phrase_counterfactual(unmeasured)
    assert phrase_counterfactual(unmeasured) == _phrasing_oracle(unmeasured)


class _Raising(TextReasoner):
    def complete(self, request):
        raise ReasonerError("no reasoner here")


# sha256 over the help answers of scenarios 11-18, variants 1-3, seeds 0-4,
# one line each, as the rule reasoner once phrased the failed ones
HELP_ANSWERS_AT_SEEDS_0_TO_4 = "9b0d98b15c919b8cc2bb4210784a48335a4432996f2b58945f1d87a186e2def4"


def test_help_answers_need_no_reasoner_over_the_seed_0_to_4_grids():
    digest = hashlib.sha256()
    failed = 0
    for seed in range(5):
        for scenario_id in range(11, 19):
            for variant in (1, 2, 3):
                events = help_events(generate_trace(scenario_id, variant, seed))
                text = explain_help(Query("Why?", 100.0), _context(), events, _Raising())
                v = extract_variables(events)
                if evaluate_model(v) is not HelpOutcome.SUCCESS:
                    assert text == _phrasing_oracle(counterfactual(v))
                    failed += 1
                digest.update(text.encode() + b"\n")
    assert failed == 90
    assert digest.hexdigest() == HELP_ANSWERS_AT_SEEDS_0_TO_4
