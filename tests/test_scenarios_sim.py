from __future__ import annotations

import hashlib

import pytest

from hexar.explainers.help_causal import HelpOutcome
from hexar.scenarios import (
    CATEGORIES,
    N_SCENARIOS,
    _scenario,
    get_scenario,
    grid_triples,
    list_scenarios,
    read_manifest,
    write_manifest,
)
from hexar.simulate import generate_trace, replay_fsm
from hexar.trace import SKILLS, TaskPlan, write_trace


def test_exactly_twenty_scenarios_with_unique_ids():
    specs = list_scenarios()
    assert len(specs) == 20
    assert [s.scenario_id for s in specs] == list(range(1, 21))


def test_relevant_module_distribution():
    specs = list_scenarios()
    assert all(s.ground_truth.relevant_module == "planner" for s in specs[0:4])
    assert all(s.ground_truth.relevant_module == "navigation" for s in specs[4:10])
    assert all(s.ground_truth.relevant_module == "ask_human_for_help" for s in specs[10:18])
    assert specs[18].ground_truth.relevant_module == "text_to_speech"
    assert specs[19].ground_truth.relevant_module == "pizza_recommender"
    helpers = [s for s in specs if s.ground_truth.relevant_module == "ask_human_for_help"]
    assert len(helpers) == 8


def test_scenario_catalogue_rows():
    assert "Static obstacles prevent the robot" in get_scenario(5).description
    s19 = get_scenario(19)
    assert s19.ground_truth.relevant_module == "text_to_speech"
    assert "times out" in s19.description


def test_every_scenario_has_three_instructions_and_queries():
    for spec in list_scenarios():
        assert len(spec.task_instructions) == 3
        assert len(spec.queries) == 3
        assert spec.category in CATEGORIES


def test_root_cause_never_listed_as_contradicted():
    for spec in list_scenarios():
        for fact in spec.contradicted_facts:
            assert fact.lower() not in spec.ground_truth.root_cause.lower()
            assert fact.lower() not in spec.evidence.lower()


def test_scenario_registered_out_of_order_is_refused():
    register = _scenario(5, "Inability", "planner", "d", ("a",) * 3, ("q",) * 3, "c", ())
    with pytest.raises(ValueError, match="out of order"):
        register(lambda b, variant, instruction: None)
    assert len(list_scenarios()) == N_SCENARIOS


# -- trace generation ------------------------------------------------------------


def test_charger_scenario_payload_names_the_charger():
    trace = generate_trace(7, 1, 42)
    failed = [
        e
        for e in trace.events
        if e.kind == "skill_status"
        and e.payload.get("skill") == "navigation"
        and e.payload.get("status") == "failed"
    ]
    assert len(failed) == 1
    assert "plugged into its charger" in str(failed[0].payload.get("reason"))
    params = [e for e in trace.events if e.kind == "param"]
    assert any(e.payload.get("name") == "charger_connected" and e.payload.get("value") is True for e in params)


@pytest.mark.parametrize("seed", [0, 1, 99, 12345])
def test_invalid_skill_scenario_contains_unknown_skill(seed):
    trace = generate_trace(1, 1, seed)
    plan = TaskPlan.from_payload(trace.plan_event.payload)
    assert not plan.valid
    unknown = [step.skill for step in plan.steps if step.skill not in SKILLS]
    assert unknown, "plan must name a skill outside the known set"


def test_generate_trace_is_deterministic(tmp_path):
    a = generate_trace(13, 2, 7)
    b = generate_trace(13, 2, 7)
    assert a == b
    pa, pb = tmp_path / "a", tmp_path / "b"
    write_trace(a, pa)
    write_trace(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


# SHA-256 of the trace files of every grid cell at seeds 0-4, concatenated in
# seed, scenario, variant order. A change to any event, timestamp or payload
# byte the simulator writes changes it; when that is intended, recompute the
# digest and say why in the change description.
GRID_TRACES_SHA256 = "e996539b30a26229d0587d990c8938a9dcffcee9faee3b5481ef7546514143b4"


def test_grid_trace_bytes_match_pinned_digest(tmp_path):
    cells = sorted({(scenario_id, variant) for scenario_id, variant, _ in grid_triples()})
    path = tmp_path / "t.trace"
    sha = hashlib.sha256()
    for seed in range(5):
        for scenario_id, variant in cells:
            write_trace(generate_trace(scenario_id, variant, seed), path)
            sha.update(path.read_bytes())
    assert sha.hexdigest() == GRID_TRACES_SHA256


def test_generate_trace_rejects_out_of_range():
    with pytest.raises(ValueError):
        generate_trace(21, 1, 0)
    with pytest.raises(ValueError):
        generate_trace(0, 1, 0)
    with pytest.raises(ValueError):
        generate_trace(5, 4, 0)
    with pytest.raises(ValueError):
        generate_trace(5, 1, -3)


@pytest.mark.parametrize("scenario_id", [10, 20])
def test_successful_scenarios_have_no_failed_statuses(scenario_id, trace_cache):
    for variant in (1, 2, 3):
        trace = trace_cache(scenario_id, variant)
        assert not any(
            e.kind == "skill_status" and e.payload.get("status") == "failed"
            for e in trace.events
        )


@pytest.mark.parametrize("scenario_id", range(1, N_SCENARIOS + 1))
def test_root_cause_evidence_present_in_some_payload(scenario_id):
    for variant in (1, 2, 3):
        for seed in (0, 17):
            trace = generate_trace(scenario_id, variant, seed)
            needle = get_scenario(scenario_id).evidence.lower()
            assert any(
                needle in str(value).lower()
                for event in trace.events
                for value in event.payload.values()
            ), (scenario_id, variant, seed)


@pytest.mark.parametrize("scenario_id", list(range(11, 19)))
def test_seed_perturbs_noise_not_outcome(scenario_id):
    outcomes = {replay_fsm(generate_trace(scenario_id, 1, seed)) for seed in range(6)}
    assert len(outcomes) == 1


def test_seeds_change_only_noise_fields():
    a = generate_trace(9, 1, 0)
    b = generate_trace(9, 1, 1)
    plan_a = TaskPlan.from_payload(a.plan_event.payload)
    plan_b = TaskPlan.from_payload(b.plan_event.payload)
    assert plan_a == plan_b
    statuses = lambda t: [
        (e.payload["skill"], e.payload["status"])
        for e in t.events
        if e.kind == "skill_status"
    ]
    assert statuses(a) == statuses(b)


# -- FSM replay ------------------------------------------------------------------


def test_replay_outcomes_match_scenario_design(trace_cache):
    assert replay_fsm(trace_cache(11)) is HelpOutcome.NO_HUMAN_FOUND
    assert replay_fsm(trace_cache(12)) is HelpOutcome.HUMAN_TOO_FAR
    assert replay_fsm(trace_cache(13)) is HelpOutcome.UNSTABLE_DETECTION
    assert replay_fsm(trace_cache(14)) is HelpOutcome.APPROACH_FAILED
    assert replay_fsm(trace_cache(15)) is HelpOutcome.HELP_REFUSED
    assert replay_fsm(trace_cache(16)) is HelpOutcome.NO_CONFIRMATION
    assert replay_fsm(trace_cache(17)) is HelpOutcome.SUCCESS
    assert replay_fsm(trace_cache(18)) is HelpOutcome.SUCCESS


# -- manifest ----------------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.csv"
    write_manifest(path)
    triples = read_manifest(path)
    assert triples == grid_triples()
    assert len(triples) == 180


def test_manifest_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,1,1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_manifest(path)
    path.write_text("scenario_id,task_variant,query_index\n99,1,1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_manifest(path)
    path.write_text("scenario_id,task_variant,query_index\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_manifest(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("1,1\n", "line 3: expected 3 fields, found 2"),
        ("1,1,1,1\n", "line 3: expected 3 fields, found 4"),
        ('"' + "x" * 200_000 + '",1,1\n', "line 3: field larger than field limit"),
    ],
)
def test_manifest_rejects_malformed_rows_naming_the_line(tmp_path, body, message):
    path = tmp_path / "manifest.csv"
    # the blank line is skipped, as before; the malformed row is on file line 3
    path.write_text("scenario_id,task_variant,query_index\n\n" + body, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        read_manifest(path)
