from __future__ import annotations

from dataclasses import replace

import pytest

from hexar.explainers.help_causal import (
    COUNTERFACTUAL_TEMPLATE,
    CounterfactualResult,
    HelpOutcome,
    HelpResponse,
    HelpThresholds,
    HelpVariables,
    MultiCauseError,
    build_help_model,
    counterfactual,
    evaluate_model,
    explain_help,
    extract_variables,
    render_counterfactual,
)
from hexar.framework import explain_hexar
from hexar.simulate import generate_trace, replay_fsm
from hexar.trace import ContextVector, Query, TaskPlan

MODEL = build_help_model()


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
    assert v.detection_duration < MODEL.thresholds.t_stable
    assert v.min_distance is not None and v.min_distance <= MODEL.thresholds.d_max


def test_extract_variables_too_far(trace_cache):
    v = extract_variables(help_events(trace_cache(12)))
    assert v.min_distance is not None and v.min_distance > MODEL.thresholds.d_max
    assert v.detection_duration >= MODEL.thresholds.t_stable


def test_extract_variables_empty_event_list():
    v = extract_variables(())
    assert v.n_humans == 0
    assert v.detection_duration == 0.0
    assert v.min_distance is None
    assert v.response is HelpResponse.NONE


def test_extract_variables_high_variance(trace_cache):
    v = extract_variables(help_events(trace_cache(18)))
    assert v.detection_variance > MODEL.thresholds.var_max
    low = extract_variables(help_events(trace_cache(15)))
    assert low.detection_variance <= MODEL.thresholds.var_max


def test_thresholds_must_be_positive():
    with pytest.raises(ValueError):
        HelpThresholds(t_stable=0.0)


# -- gate evaluation -------------------------------------------------------------


def test_evaluate_model_refusal(trace_cache):
    v = extract_variables(help_events(trace_cache(15)))
    assert evaluate_model(MODEL, v) is HelpOutcome.HELP_REFUSED


def test_evaluate_model_success_when_all_gates_pass():
    assert evaluate_model(MODEL, passing_variables()) is HelpOutcome.SUCCESS


@pytest.mark.parametrize("scenario_id", list(range(11, 19)))
@pytest.mark.parametrize("variant", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 5])
def test_model_agrees_with_fsm_replay(scenario_id, variant, seed):
    trace = generate_trace(scenario_id, variant, seed)
    outcome = replay_fsm(trace)
    modelled = evaluate_model(MODEL, extract_variables(help_events(trace)))
    assert outcome is modelled


def test_replay_fsm_requires_help_events(trace_cache):
    with pytest.raises(ValueError):
        replay_fsm(trace_cache(7))


# -- counterfactuals -------------------------------------------------------------


GATE_ORDER = [gate.failure for gate in MODEL.gates] + [HelpOutcome.SUCCESS]


def gate_rank(outcome: HelpOutcome) -> int:
    return GATE_ORDER.index(outcome)


def test_counterfactual_too_far_lands_on_boundary():
    v = passing_variables(min_distance=4.1, response=HelpResponse.NONE, confirmation=False)
    result = counterfactual(MODEL, v)
    assert result.variable == "min_distance"
    assert result.observed == 4.1
    assert result.intervention == MODEL.thresholds.d_max
    assert gate_rank(result.resulting) > gate_rank(result.realized)


def test_counterfactual_rejects_satisfied_precondition():
    with pytest.raises(ValueError):
        counterfactual(MODEL, passing_variables())


def test_counterfactual_confirmation_reaches_success():
    v = passing_variables(confirmation=False)
    result = counterfactual(MODEL, v)
    assert result.variable == "confirmation"
    assert result.intervention is True
    assert result.resulting is HelpOutcome.SUCCESS


def test_counterfactual_is_deterministic():
    v = passing_variables(n_humans=0, min_distance=None, detection_duration=0.0)
    a = counterfactual(MODEL, v)
    b = counterfactual(MODEL, v)
    assert a == b


def test_counterfactual_multi_cause_error_lists_failing_gates():
    v = passing_variables(
        n_humans=0,
        min_distance=None,
        detection_duration=0.0,
        response=HelpResponse.NONE,
        confirmation=False,
    )
    with pytest.raises(MultiCauseError) as excinfo:
        counterfactual(MODEL, v, desired=HelpOutcome.NO_CONFIRMATION)
    assert "n_humans" in excinfo.value.failing_gates
    assert "min_distance" in excinfo.value.failing_gates


def test_counterfactual_toward_earlier_gate_uses_failing_value():
    v = passing_variables(response=HelpResponse.REFUSE, confirmation=False)
    assert evaluate_model(MODEL, v) is HelpOutcome.HELP_REFUSED
    result = counterfactual(MODEL, v, desired=HelpOutcome.HUMAN_TOO_FAR)
    assert result.variable == "min_distance"
    assert result.intervention is None  # the absent marker fails the distance gate
    assert result.resulting is HelpOutcome.HUMAN_TOO_FAR


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
    realized = evaluate_model(MODEL, v)
    result = counterfactual(MODEL, v)
    failed_gate = next(g for g in MODEL.gates if g.failure is realized)
    assert result.variable == failed_gate.variable

    intervened = replace(v, **{result.variable: result.intervention})
    assert failed_gate.predicate(intervened, MODEL.thresholds), "gate did not flip"
    assert gate_rank(evaluate_model(MODEL, intervened)) > gate_rank(realized)

    observed = result.observed
    boundary = result.intervention
    if isinstance(observed, (int, float)) and isinstance(boundary, (int, float)) \
            and not isinstance(observed, bool) and not isinstance(boundary, bool):
        # any candidate strictly between the observation and the boundary
        # must leave the gate failing (the boundary is the minimal change)
        for fraction in (0.2, 0.5, 0.9, 0.99):
            candidate = observed + (boundary - observed) * fraction
            shifted = replace(v, **{result.variable: candidate})
            assert not failed_gate.predicate(shifted, MODEL.thresholds), (
                f"{result.variable}={candidate} already flips; boundary not minimal"
            )


@pytest.mark.parametrize("scenario_id", list(range(11, 17)))
@pytest.mark.parametrize("variant", [1, 2, 3])
def test_grid_counterfactuals_flip_and_are_minimal(scenario_id, variant):
    trace = generate_trace(scenario_id, variant, 0)
    v = extract_variables(help_events(trace))
    assert evaluate_model(MODEL, v) is not HelpOutcome.SUCCESS
    brute_force_flip_check(v)


# -- full explainer --------------------------------------------------------------


def _context() -> ContextVector:
    return ContextVector(
        plan=TaskPlan("Get someone to hold the door open for you", (), True, ()),
        skills=(("ask_human_for_help", "failed"),),
        window=(0.0, 100.0),
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
    # the failure heuristic selects; the naturalisation is the one call
    hexar = _hexar(trace, "What happened?", registry, rule_reasoner)
    assert (hexar.text, hexar.reasoner_calls) == (text, 1)


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
    text = explain_help(Query("Why?", 1.0), _context(), (), rule_reasoner)
    assert "was not used" in text


def test_explain_help_falls_back_to_template_on_reasoner_failure(trace_cache):
    from hexar.reasoner import ReasonerError, TextReasoner

    class BrokenReasoner(TextReasoner):
        def complete(self, request):
            raise ReasonerError("endpoint down")

    events = help_events(trace_cache(12))
    text = explain_help(Query("Why?", 100.0), _context(), events, BrokenReasoner())
    assert "human_too_far occurred because min_distance" in text
    assert "naturalisation unavailable" in text
