from __future__ import annotations

import dataclasses
import itertools
import json
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hexar
from hexar import evaluation, framework
from hexar.baselines import build_end_to_end_prompt, explain_all_components, explain_end_to_end
from hexar.explainers import build_default_registry, help_causal, navigation, pizza, planner, tts
from hexar.explainers.navigation import build_navigation_prompt, filter_logs
from hexar.explainers.planner import build_planner_prompt, format_items, format_plan
from hexar.framework import (
    ANSWER_ERRORS,
    ComponentExplainer,
    ExplainerError,
    ExplainerRegistry,
    ReasonerMeter,
    SelectionError,
    SelectorStage,
    aggregate,
    build_aggregation_prompt,
    build_classifier_prompt,
    explain_hexar,
    select,
)
from hexar.reasoner import (
    ReasonerResponse,
    TextReasoner,
    _sections,
    load_prompt_template,
)
from hexar.scenarios import (
    N_SCENARIOS,
    N_TASK_VARIANTS,
    get_scenario,
    grid_triples,
    list_scenarios,
)
from hexar.simulate import generate_trace
from hexar.trace import ContextVector, Event, EventView, Query, TaskPlan, Trace, TraceError


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


# -- context ---------------------------------------------------------------------


def test_build_context_execution_failure(trace_cache):
    trace = trace_cache(7)
    context = trace.context
    assert context.plan is trace.plan
    assert context.plan.valid is True
    statuses = dict(context.skills)
    assert statuses["navigation"] == "failed"


def test_build_context_invalid_plan(trace_cache):
    assert trace_cache(2).context.plan.valid is False


def test_build_context_all_succeeded(trace_cache):
    context = trace_cache(3).context
    assert all(status == "succeeded" for _, status in context.skills)
    assert [skill for skill, _ in context.skills] == ["navigation", "text_to_speech"]


def test_build_context_requires_plan(registry, rule_reasoner):
    """A trace without a plan event fails each method whole, before any reasoner call."""
    from hexar.evaluation import METHODS, answer

    trace = Trace(
        scenario_id=1,
        task_variant=1,
        seed=0,
        events=(Event(ts=0.0, source="system", kind="log", payload={"text": "x"}),),
    )
    for method in METHODS:
        meter = ReasonerMeter(rule_reasoner)
        with pytest.raises(TraceError, match="trace has no plan event"):
            answer(method, "Why?", trace, registry, meter)
        assert meter.calls == 0, method


def test_plan_is_parsed_once_per_trace(monkeypatch, registry, rule_reasoner):
    calls = []
    parse = TaskPlan.from_payload

    def counting(payload):
        calls.append(payload)
        return parse(payload)

    monkeypatch.setattr(TaskPlan, "from_payload", counting)
    trace = generate_trace(7, 1, 0)  # not the session cache: its plans may be parsed already
    query = _query(trace)
    first = trace.context
    assert trace.context is first
    build_end_to_end_prompt(query, trace, registry)
    # the planner explainer reads the plan from its context
    explain_all_components(query, trace, registry, rule_reasoner)
    assert len(calls) == 1


# -- per-trace memo ----------------------------------------------------------------


def _reference_latest_statuses(trace):
    latest = {}
    for event in trace.events:
        if event.kind == "skill_status":
            latest[str(event.payload["skill"])] = str(event.payload["status"])
    return latest


def _reference_earliest_failed_skill(trace):
    for event in trace.events:
        if event.kind == "skill_status" and event.payload.get("status") == "failed":
            return str(event.payload["skill"])
    return None


def _reference_view(trace, sources):
    return tuple(e for e in trace.events if e.source in sources)


def _reference_context(trace):
    latest = _reference_latest_statuses(trace)
    skills = tuple((step.skill, latest.get(step.skill, "waiting")) for step in trace.plan.steps)
    return ContextVector(plan=trace.plan, skills=skills)


def test_memoized_views_equal_fresh_ones_on_every_grid_trace(registry, rule_reasoner):
    """Warm answers and prompts on one trace equal cold ones on a fresh copy, seeds 0-4.

    Each query is asked at the end and mid-trace, and the end-to-end
    prompt is built for two registries with different source unions; the
    classifier prompt is compared with a fresh registry's.
    """
    partial = ExplainerRegistry()
    for explainer_id in ("planner", "text_to_speech"):
        partial.register(registry.explainers[explainer_id], [explainer_id])
    nav_sources = registry.explainers["navigation"].subscribed_sources
    source_sets = [e.subscribed_sources for e in registry.explainers.values()]
    source_sets.append(frozenset().union(*source_sets))
    for seed in range(5):
        for scenario_id in range(1, N_SCENARIOS + 1):
            for variant in range(1, N_TASK_VARIANTS + 1):
                trace = generate_trace(scenario_id, variant, seed)
                cold = lambda: dataclasses.replace(trace)
                assert trace.earliest_failed_skill == _reference_earliest_failed_skill(trace)
                assert trace.context == cold().context == _reference_context(trace)
                for sources in source_sets:
                    view = trace.by_source(sources)
                    assert view == cold().by_source(sources) == _reference_view(trace, sources)
                end = trace.events[-1].ts
                for text, asked_at in itertools.product(
                    get_scenario(scenario_id).queries, (end, end / 2)
                ):
                    query = Query(text, asked_at)
                    for reg in (registry, partial):
                        assert build_end_to_end_prompt(query, trace, reg) == (
                            build_end_to_end_prompt(query, cold(), reg)
                        )
                    assert build_navigation_prompt(query, trace.by_source(nav_sources)) == (
                        build_navigation_prompt(query, cold().by_source(nav_sources))
                    )
                    assert build_planner_prompt(query, trace.context) == (
                        build_planner_prompt(query, cold().context)
                    )
                    assert build_classifier_prompt(query, registry) == (
                        build_classifier_prompt(query, build_default_registry())
                    )
                    assert select(query, trace, registry, rule_reasoner) == (
                        select(query, cold(), registry, rule_reasoner)
                    )


def test_end_to_end_evidence_is_built_once_per_trace(monkeypatch, registry, rule_reasoner):
    from hexar import baselines

    calls = []
    build = baselines._end_to_end_evidence

    def counting(trace, sources):
        calls.append(sources)
        return build(trace, sources)

    monkeypatch.setattr(baselines, "_end_to_end_evidence", counting)
    trace = generate_trace(7, 1, 0)
    answers = [
        baselines.explain_end_to_end(_query(trace, text), trace, rule_reasoner, registry)
        for text in get_scenario(7).queries
    ]
    assert len(answers) == 3 and len(calls) == 1
    # a copy keeps nothing of the original's memo
    copy = dataclasses.replace(trace)
    assert copy == trace and repr(copy) == repr(trace)
    baselines.explain_end_to_end(_query(copy), copy, rule_reasoner, registry)
    assert len(calls) == 2


# Each component explainer's query-independent evidence, by explainer id; the
# planner's is its prompt head, kept by the trace's context.
_EVIDENCE = {
    "planner": (planner, "_planner_evidence"),
    "navigation": (navigation, "_navigation_evidence"),
    "ask_human_for_help": (help_causal, "_help_evidence"),
    "text_to_speech": (tts, "_tts_answer"),
    "pizza_recommender": (pizza, "_pizza_answer"),
}


def _count_evidence_builds(monkeypatch) -> tuple[Counter, Counter]:
    """Count, by explainer id, every evidence build and every one that returned."""
    started, built = Counter(), Counter()
    for explainer_id, (module, name) in _EVIDENCE.items():

        def counting(events, build=getattr(module, name), explainer_id=explainer_id):
            started[explainer_id] += 1
            value = build(events)
            built[explainer_id] += 1
            return value

        monkeypatch.setattr(module, name, counting)
    return started, built


@pytest.mark.parametrize("explainer_id", list(_EVIDENCE))
def test_component_evidence_is_built_once_per_trace(
    monkeypatch, registry, rule_reasoner, explainer_id
):
    _, built = _count_evidence_builds(monkeypatch)
    spec = next(s for s in list_scenarios() if s.ground_truth.relevant_module == explainer_id)
    trace = generate_trace(spec.scenario_id, 1, 0)

    def answers(trace):
        texts = []
        for text, method in itertools.product(spec.queries, ("hexar", "all_components")):
            try:
                meter = ReasonerMeter(rule_reasoner)
                texts.append(evaluation.answer(method, text, trace, registry, meter).text)
            except ANSWER_ERRORS as exc:  # a hexar answer may fail; its evidence still counts
                texts.append(repr(exc))
        return texts

    warm = answers(trace)
    assert built[explainer_id] == 1
    # every other explainer's evidence that could be built is kept too
    assert set(built.values()) == {1}
    # a copy keeps nothing of the original's views, and answers the same
    assert answers(dataclasses.replace(trace)) == warm
    assert built[explainer_id] == 2


def test_evidence_that_raises_is_raised_again_and_never_kept(monkeypatch, registry, rule_reasoner):
    started, built = _count_evidence_builds(monkeypatch)
    trace = generate_trace(20, 1, 0)
    events = tuple(
        Event(e.ts, e.source, e.kind, {**e.payload, "recommended": "calzone"})
        if "recommended" in e.payload
        else e
        for e in trace.events
    )
    trace = Trace(trace.scenario_id, trace.task_variant, trace.seed, events)
    query = _query(trace, "Why did you pick that pizza?")
    for attempt in (1, 2, 3):
        with pytest.raises(ExplainerError, match="^recommendation 'calzone' is not a known pizza"):
            explain_hexar(query, trace, registry, rule_reasoner)
        assert (started["pizza_recommender"], built["pizza_recommender"]) == (attempt, 0)
    view = trace.by_source(registry.explainers["pizza_recommender"].subscribed_sources)
    assert view._memo == {}


def test_event_view_keeps_a_value_only_once_computed():
    view = EventView(())
    calls = []

    def fails_then_works(events):
        calls.append(events)
        if len(calls) < 3:
            raise ValueError(f"attempt {len(calls)}")
        return object()

    for attempt in (1, 2):
        with pytest.raises(ValueError, match=f"^attempt {attempt}$"):
            view.derived(fails_then_works)
    value = view.derived(fails_then_works)
    assert view.derived(fails_then_works) is value
    assert len(calls) == 3 and all(events is view for events in calls)
    assert view == () and isinstance(view, tuple)


def test_trace_and_context_keep_a_value_only_once_computed():
    trace = generate_trace(7, 1, 0)
    calls = []

    def fails_then_works(owner, arg=None):
        calls.append((owner, arg))
        if len(calls) < 3:
            raise ValueError(f"attempt {len(calls)}")
        return [arg]

    for attempt in (1, 2):
        with pytest.raises(ValueError, match=f"^attempt {attempt}$"):
            trace.derived(fails_then_works, "a")
    value = trace.derived(fails_then_works, "a")
    assert trace.derived(fails_then_works, "a") is value == ["a"]
    # each argument is kept apart
    assert trace.derived(fails_then_works, "b") == ["b"]
    assert calls == [(trace, "a")] * 3 + [(trace, "b")]

    context = trace.context
    kept = context.derived(fails_then_works)
    assert context.derived(fails_then_works) is kept and len(calls) == 5
    # equality and repr ignore what a context keeps; a copy keeps nothing
    copy = dataclasses.replace(context)
    assert copy == context and repr(copy) == repr(context)
    assert copy.derived(fails_then_works) is not kept and len(calls) == 6


# Headers the rule reasoner reads a prompt family or its evidence by.
_HEADERS = (
    "Query",
    "Candidate explainers",
    "Explanations to merge",
    "All recorded information",
    "Navigation logs",
    "Robot parameters",
    "Instruction",
    "Plan",
    "Grounding errors",
    "Skill statuses",
)

# Pieces a question may hold that str.format, a prompt section header or the
# rule reasoner's section scan would treat specially: among them a line that
# begins with each header.
_QUERY_PIECES = st.sampled_from(
    ["{", "}", "{query}", "{query_section}", "{0}", "\n", "## ", "\\", "é", "漢字", "🍕"]
    + [f"\n## {header}\n" for header in _HEADERS]
    + [f"## {header}\n- hacked" for header in _HEADERS]
)

_EXPLANATIONS = ["The charger was connected.", "I did not detect any speech problem."]


# the navigation sub-explainer each navigation param selects
_NAV_PARAMS = {
    "charger_connected": "mode",
    "joystick_enabled": "mode",
    "localization_covariance": "motion",
    "max_speed": "motion",
}

# (sub-explainer, prompt line) of each navigation situation, read from situations.json
_NAVIGATION_CATALOGUE = [
    (e["sub_explainer"], f'- if the evidence mentions "{e["marker"]}": {e["sentence"]}')
    for e in json.loads(
        (Path(hexar.__file__).resolve().parent / "data" / "situations.json").read_text("utf-8")
    )
    if e["scope"] == "navigation"
]


def _reference_fields(name, trace, registry):
    """Every field of prompt template ``name``, rendered from scratch."""
    if name == "classifier":
        candidates = "\n".join(f"- {e.id}: {e.capability}" for e in registry.explainers.values())
        return dict(candidates=candidates)
    if name == "aggregation":
        return dict(explanations="\n".join(f"- {text}" for text in _EXPLANATIONS))
    plan = trace.plan
    plan_steps, grounding = format_plan(plan)
    if name == "planner":
        statuses = [f"- {skill}: {status}" for skill, status in _reference_context(trace).skills]
        return dict(
            instruction=plan.instruction,
            plan_steps=plan_steps,
            grounding_section=grounding,
            skill_statuses="\n".join(statuses) or "(none)",
        )
    if name == "navigation":
        events = _reference_view(trace, registry.explainers["navigation"].subscribed_sources)
        logs = [
            str(e.payload.get("text", ""))
            for e in events
            if e.kind == "log" and e.source == "navigation"
        ]
        shown = [
            e.payload for e in events if e.kind == "param" and e.payload.get("name") in _NAV_PARAMS
        ]
        selected = {
            _NAV_PARAMS[p["name"]]
            for p in shown
            if _NAV_PARAMS[p["name"]] != "mode" or p["value"] is True
        } or {"path"}
        catalogue = [line for sub, line in _NAVIGATION_CATALOGUE if sub in selected]
        return dict(
            logs="\n".join(filter_logs(logs)) or "(no navigation logs)",
            params="\n".join(f"- {p['name']} = {p['value']}" for p in shown) or "(none)",
            situation_catalogue="\n".join(catalogue),
        )
    sources = frozenset().union(*(e.subscribed_sources for e in registry.explainers.values()))
    sections = {"log": [], "skill_status": [], "param": [], "other": []}
    for e in _reference_view(trace, sources):
        if e.kind == "log":
            sections["log"].append(f"[{e.source}] " + str(e.payload.get("text", "")))
        elif e.kind == "skill_status":
            extra = {k: v for k, v in e.payload.items() if k not in ("skill", "status")}
            suffix = f" ({format_items(extra)})" if extra else ""
            sections["skill_status"].append(
                f"- {e.payload['skill']}: {e.payload['status']}{suffix}"
            )
        elif e.kind == "param":
            sections["param"].append(f"- {format_items(e.payload)}")
        elif e.kind in ("detection", "dialogue"):
            sections["other"].append(
                f"- {e.ts:.2f} {e.source} {e.kind}: {format_items(e.payload)}"
            )
    return dict(
        instruction=plan.instruction,
        plan_steps=plan_steps,
        grounding_section=grounding,
        skill_statuses="\n".join(sections["skill_status"]) or "(none)",
        logs="\n".join(filter_logs(sections["log"])) or "(none)",
        params="\n".join(sections["param"]) or "(none)",
        other_events="\n".join(sections["other"]) or "(none)",
        situation_catalogue="\n".join(line for _, line in _NAVIGATION_CATALOGUE),
    )


def _whole_template(name):
    """Template ``name`` with the question section written out, as a single template."""
    template = load_prompt_template(name)
    if name == "aggregation":
        return template.replace("{query_section}", "## Query\n{query}\n")
    return template + "## Query\n{query}\n"


@settings(max_examples=60, deadline=None)
@given(text=st.lists(st.one_of(_QUERY_PIECES, st.text()), min_size=1).map("".join).filter(bool))
def test_prompt_builders_equal_the_formatted_template(registry, trace_cache, text):
    """No question adds a section, and a question without a header line is pasted as is."""
    nav_sources = registry.explainers["navigation"].subscribed_sources
    builders = {
        "classifier": lambda query, trace: build_classifier_prompt(query, registry),
        "planner": lambda query, trace: build_planner_prompt(query, trace.context),
        "navigation": lambda query, trace: build_navigation_prompt(
            query, trace.by_source(nav_sources)
        ),
        "end_to_end": lambda query, trace: build_end_to_end_prompt(query, trace, registry),
        "aggregation": lambda query, trace: build_aggregation_prompt(_EXPLANATIONS, query),
    }
    # a line that begins with "## " is indented by one space; other text is kept
    asked = re.sub("^## ", " ## ", text, flags=re.MULTILINE)
    # the first scenario of each module, seed 0
    first = {s.ground_truth.relevant_module: s.scenario_id for s in reversed(list_scenarios())}
    for scenario_id in first.values():
        trace = trace_cache(scenario_id)
        query = _query(trace, text)
        for name, build in builders.items():
            prompt = build(query, trace)
            plain = build(_query(trace), trace)
            assert list(_sections(prompt)) == list(_sections(plain)), name
            fields = _reference_fields(name, trace, registry)
            assert prompt == _whole_template(name).format(query=asked, **fields), name


class _RecordingReasoner(StubReasoner):
    def __init__(self, text: str):
        super().__init__(text)
        self.prompts: list[str] = []

    def complete(self, request):
        self.prompts.append(request.user_prompt)
        return super().complete(request)


def test_classifier_head_is_built_once_per_registry(monkeypatch, rule_reasoner, trace_cache):
    heads = []
    build = framework._classifier_head

    def counting(explainers):
        heads.append(1)
        return build(explainers)

    monkeypatch.setattr(framework, "_classifier_head", counting)
    registry = build_default_registry()
    built = len(heads)
    trace = trace_cache(20)  # a successful run: every question reaches the classifier
    for text in get_scenario(20).queries:
        decision = select(_query(trace, text), trace, registry, rule_reasoner)
        assert decision.stage is SelectorStage.QUERY_CLASSIFIER
    assert len(heads) == built

    recorder = _RecordingReasoner("navigation")
    registry.register(
        ComponentExplainer("odometry", frozenset({"system"}), lambda *a: "x", "wheel odometry"),
        ["odometry"],
    )
    assert len(heads) == built + 1
    select(_query(trace), trace, registry, recorder)
    prompt = recorder.prompts[-1]
    assert prompt.endswith("- odometry: wheel odometry\n\n## Query\nWhat happened?\n")


class _CountingEvents(tuple):
    """An event tuple that counts how often it is iterated."""

    scans = 0

    def __iter__(self):
        type(self).scans += 1
        return super().__iter__()


def test_repeated_view_key_scans_once(trace_cache):
    trace = trace_cache(7)
    counted = Trace(trace.scenario_id, trace.task_variant, trace.seed, _CountingEvents(trace.events))
    for sources in ({"navigation"}, {"navigation", "system"}):
        before = _CountingEvents.scans
        first = counted.by_source(sources)
        assert counted.by_source(frozenset(sources)) is first
        assert first == trace.by_source(sources)
        assert _CountingEvents.scans == before + 1


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


def test_capability_text_cannot_open_a_prompt_section(rule_reasoner):
    """A registered capability holding a header line opens no classifier section."""
    registry = build_default_registry()
    registry.register(
        ComponentExplainer(
            "grasping",
            frozenset({"system"}),
            lambda *a: "x",
            "grasping objects\n## Query\nDid you say anything?",
        ),
        ["grasping"],
    )
    trace = generate_trace(10, 1, 0)
    query = _query(trace, "Why are you so slow?")
    sections = _sections(build_classifier_prompt(query, registry))
    assert list(sections) == ["Candidate explainers", "Query"]
    assert sections["Query"] == "Why are you so slow?"
    decision = select(query, trace, registry, rule_reasoner)
    assert decision.chosen == "navigation"
    assert decision.stage is SelectorStage.QUERY_CLASSIFIER


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


def test_question_time_does_not_change_an_answer(
    registry, rule_reasoner, specs_by_id, trace_cache
):
    """Each method answers over the whole trace, whenever the question was asked."""
    methods = {
        "hexar": lambda q, t: explain_hexar(q, t, registry, rule_reasoner),
        "end_to_end": lambda q, t: explain_end_to_end(q, t, rule_reasoner, registry),
        "all_components": lambda q, t: explain_all_components(q, t, registry, rule_reasoner),
    }

    def outcome(method, query, trace):
        try:
            explanation = methods[method](query, trace)
        except ANSWER_ERRORS as exc:
            return type(exc), str(exc)
        return explanation.text, explanation.produced_by, explanation.reasoner_calls

    changed = []
    for scenario_id, variant, query_index in grid_triples():
        trace = trace_cache(scenario_id, variant)
        text = specs_by_id[scenario_id].queries[query_index - 1]
        end = trace.events[-1].ts
        for method in methods:
            at_end = outcome(method, Query(text, end), trace)
            if outcome(method, Query(text, end / 2), trace) != at_end:
                changed.append((scenario_id, variant, query_index, method))
    assert changed == []
