from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from hexar.evaluation import (
    METHODS,
    AnnotationRow,
    EvalRecord,
    answer,
    auto_annotate,
    compute_stats,
    majority_vote,
    read_annotations_csv,
    read_results_csv,
    render_report,
    run_grid,
    write_annotations_csv,
    write_results_csv,
)
from hexar.reasoner import LatencyModelReasoner, RuleReasoner, TextReasoner
from hexar.scenarios import get_scenario, grid_triples

GOLDEN = Path(__file__).parent / "data" / "golden_report.md"


def _record(sample_id, scenario_id, method, text, wall=1.0, calls=1, variant=1, query=1, ok=None):
    return EvalRecord(
        sample_id=sample_id,
        scenario_id=scenario_id,
        task_variant=variant,
        query_index=query,
        method=method,
        explanation_text=text,
        produced_by=method,
        reasoner_calls=calls,
        wall_time=wall,
        selected_ok=ok,
    )


@pytest.fixture(scope="module")
def hexar_grid_records(rule_reasoner_module):
    return run_grid(["hexar"], grid_triples(), rule_reasoner_module, seed=0)


@pytest.fixture(scope="module")
def rule_reasoner_module():
    return RuleReasoner()


# -- grid runs ---------------------------------------------------------------


def test_run_grid_produces_180_records_per_method(hexar_grid_records):
    assert len(hexar_grid_records) == 180
    assert len({r.sample_id for r in hexar_grid_records}) == 180


def test_run_grid_all_methods_540(rule_reasoner_module):
    triples = [(s, v, q) for s, v, q in grid_triples() if s in (7, 20)]
    records = run_grid(
        ["hexar", "end_to_end", "all_components"], triples, rule_reasoner_module, seed=0
    )
    assert len(records) == 3 * len(triples)


def test_run_grid_selected_ok_matches_ground_truth(hexar_grid_records):
    assert all(r.selected_ok is True for r in hexar_grid_records)


def test_run_grid_is_repeatable(rule_reasoner_module, hexar_grid_records):
    again = run_grid(["hexar"], grid_triples(), rule_reasoner_module, seed=0)
    texts = lambda rs: [(r.sample_id, r.explanation_text) for r in sorted(rs, key=lambda x: x.sample_id)]
    assert texts(again) == texts(hexar_grid_records)


def test_run_grid_parallel_matches_serial(rule_reasoner_module):
    triples = [(s, v, q) for s, v, q in grid_triples() if s in (5, 13)]
    serial = run_grid(["hexar"], triples, rule_reasoner_module, seed=0, jobs=1)
    parallel = run_grid(["hexar"], triples, rule_reasoner_module, seed=0, jobs=4)
    key = lambda rs: [(r.sample_id, r.explanation_text) for r in sorted(rs, key=lambda x: x.sample_id)]
    assert key(serial) == key(parallel)


def test_run_grid_rejects_unknown_method(rule_reasoner_module):
    with pytest.raises(ValueError):
        run_grid(["telepathy"], grid_triples()[:1], rule_reasoner_module, seed=0)


def test_run_grid_lets_program_bugs_propagate():
    from hexar.reasoner import TextReasoner

    class BuggyReasoner(TextReasoner):
        def complete(self, request):
            return 1 / 0

    with pytest.raises(ZeroDivisionError):
        run_grid(["hexar"], [(20, 1, 1)], BuggyReasoner(), seed=0)


def test_run_grid_flags_per_sample_failures_without_aborting():
    from hexar.reasoner import ReasonerError, TextReasoner

    class BrokenReasoner(TextReasoner):
        def complete(self, request):
            raise ReasonerError("endpoint down")

    # scenario 20 selects via the classifier, which now fails; scenario 7
    # stays on the failure heuristic and its explainer needs the reasoner
    triples = [(20, 1, 1), (7, 1, 1)]
    records = run_grid(["hexar"], triples, BrokenReasoner(), seed=0)
    assert len(records) == 2
    assert all(r.explanation_text == "" for r in records)
    assert all(r.produced_by.startswith("error:") for r in records)
    assert all(r.selected_ok is False for r in records)


class BillingOracle(TextReasoner):
    """Counts the completions it sees and sums their modelled latency."""

    def __init__(self):
        self.inner = LatencyModelReasoner(RuleReasoner())
        self.calls = 0
        self.latency = 0.0

    def complete(self, request):
        self.calls += 1
        response = self.inner.complete(request)
        self.latency += response.latency
        return response


@pytest.mark.parametrize("method", METHODS)
def test_every_answer_is_billed_for_every_reasoner_call(method, registry, specs_by_id, trace_cache):
    for scenario_id, variant, query_index in grid_triples():
        oracle = BillingOracle()
        text = specs_by_id[scenario_id].queries[query_index - 1]
        explanation = answer(method, text, trace_cache(scenario_id, variant), registry, oracle)
        point = (scenario_id, variant, query_index)
        assert explanation.reasoner_calls == oracle.calls, point
        assert explanation.wall_time >= oracle.latency, point
        assert (oracle.latency > 0) == (oracle.calls > 0), point


# -- annotation --------------------------------------------------------------


def test_auto_annotate_emits_three_identical_annotators():
    record = _record("s07v1q1_hexar", 7, "hexar", "robot is plugged into its charger")
    rows = auto_annotate([record])
    assert len(rows) == 3
    assert {r.annotator_id for r in rows} == {1, 2, 3}
    assert all(r.root_cause == 1 and r.incorrect_facts == 0 for r in rows)


def test_auto_annotate_flags_contradicted_facts():
    record = _record("s07v1q1_x", 7, "hexar", "the joystick did it")
    rows = auto_annotate([record])
    assert all(r.root_cause == 0 and r.incorrect_facts == 1 for r in rows)


def test_auto_annotate_empty_explanation_scores_zero():
    record = _record("s07v1q1_x", 7, "hexar", "")
    rows = auto_annotate([record])
    assert all(r.root_cause == 0 and r.incorrect_facts == 0 for r in rows)


def test_majority_vote_basic_majorities():
    rows = [
        AnnotationRow("a", 1, 1, 0),
        AnnotationRow("a", 2, 1, 1),
        AnnotationRow("a", 3, 0, 0),
    ]
    metrics, disagreement = majority_vote(rows)
    assert metrics[0].root_cause_identified == 1
    assert metrics[0].incorrect_facts_present == 0
    assert metrics[0].explanation_accuracy == 1
    assert disagreement == 1.0  # both cells split


def test_majority_vote_unanimous_zero():
    rows = [AnnotationRow("a", i, 0, 0) for i in (1, 2, 3)]
    metrics, disagreement = majority_vote(rows)
    assert metrics[0].root_cause_identified == 0
    assert disagreement == 0.0


def test_majority_vote_requires_three_annotators():
    rows = [AnnotationRow("a", 1, 1, 0), AnnotationRow("a", 2, 1, 0)]
    with pytest.raises(ValueError):
        majority_vote(rows)


def test_accuracy_truth_table_via_majority():
    # (rci, incorrect) -> accuracy: only (1,0) earns 1
    for rci, bad in itertools.product((0, 1), repeat=2):
        rows = [AnnotationRow("s", i, rci, bad) for i in (1, 2, 3)]
        metrics, _ = majority_vote(rows)
        expected = 1 if (rci, bad) == (1, 0) else 0
        assert metrics[0].explanation_accuracy == expected


def test_majority_vote_matches_exhaustive_three_label_enumeration():
    for votes in itertools.product((0, 1), repeat=3):
        rows = [AnnotationRow("s", i + 1, v, 0) for i, v in enumerate(votes)]
        metrics, _ = majority_vote(rows)
        assert metrics[0].root_cause_identified == int(sum(votes) >= 2)


# -- stats and report ----------------------------------------------------------


def _fixture_records_and_metrics():
    records = []
    annotations = []
    texts = {
        "hexar": "robot is plugged into its charger",
        "end_to_end": "the joystick did it",
        "all_components": "robot is plugged into its charger but also the joystick",
    }
    walls = {"hexar": 1.0, "end_to_end": 3.0, "all_components": 4.0}
    for variant in (1, 2, 3):
        for query in (1, 2, 3):
            for method, text in texts.items():
                sample = f"s07v{variant}q{query}_{method}"
                records.append(
                    _record(
                        sample,
                        7,
                        method,
                        text,
                        wall=walls[method],
                        variant=variant,
                        query=query,
                        ok=True if method == "hexar" else None,
                    )
                )
    annotations = auto_annotate(records)
    metrics, disagreement = majority_vote(annotations)
    return records, metrics, disagreement


def test_compute_stats_means_and_pairs():
    records, metrics, _ = _fixture_records_and_metrics()
    stats = compute_stats(records, metrics)
    assert stats.methods == ("hexar", "end_to_end", "all_components")
    assert stats.means["root_cause_identified"]["hexar"] == 1.0
    assert stats.means["root_cause_identified"]["end_to_end"] == 0.0
    assert stats.means["incorrect_facts_present"]["all_components"] == 1.0
    assert stats.selection_accuracy == 1.0
    q, df, p = stats.cochran["explanation_accuracy"]
    assert df == 2
    assert q > 0
    pairs = stats.mcnemar_pairs["explanation_accuracy"]
    assert len(pairs) == 3
    for _, _, _, raw, adjusted in pairs:
        assert adjusted >= raw - 1e-15


def test_compute_stats_requires_metric_coverage():
    records, metrics, _ = _fixture_records_and_metrics()
    with pytest.raises(ValueError):
        compute_stats(records, metrics[:-1])
    with pytest.raises(ValueError):
        compute_stats([], [])


def test_render_report_matches_golden(tmp_path):
    records, metrics, disagreement = _fixture_records_and_metrics()
    stats = compute_stats(records, metrics)
    from dataclasses import replace

    stats = replace(stats, disagreement_rate=disagreement)
    report_path, stats_path = render_report(records, metrics, stats, tmp_path)
    assert stats_path.exists()
    produced = report_path.read_text(encoding="utf-8")
    assert produced == GOLDEN.read_text(encoding="utf-8")


def test_render_report_rejects_empty():
    with pytest.raises(ValueError):
        render_report([], [], None, "/tmp/nowhere")


def test_per_module_grouping_counts(hexar_grid_records):
    counts = {}
    for record in hexar_grid_records:
        module = get_scenario(record.scenario_id).ground_truth.relevant_module
        counts[module] = counts.get(module, 0) + 1
    assert counts == {
        "planner": 36,
        "navigation": 54,
        "ask_human_for_help": 72,
        "text_to_speech": 9,
        "pizza_recommender": 9,
    }


# -- CSV round trips -------------------------------------------------------------


def test_results_csv_round_trip(tmp_path, hexar_grid_records):
    path = tmp_path / "results.csv"
    write_results_csv(hexar_grid_records, path)
    back = read_results_csv(path)
    originals = sorted(hexar_grid_records, key=lambda r: r.sample_id)
    assert len(back) == len(originals)
    for loaded, original in zip(back, originals):
        assert loaded.sample_id == original.sample_id
        assert loaded.explanation_text == original.explanation_text
        assert loaded.produced_by == original.produced_by
        assert loaded.selected_ok == original.selected_ok
        assert loaded.reasoner_calls == original.reasoner_calls
        # wall_time is serialized at fixed 6-decimal precision
        assert loaded.wall_time == pytest.approx(original.wall_time, abs=1e-6)


def test_results_csv_rejects_wrong_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_results_csv(path)


def test_annotations_csv_round_trip(tmp_path):
    rows = [AnnotationRow("s1", i, 1, 0) for i in (1, 2, 3)]
    path = tmp_path / "ann.csv"
    write_annotations_csv(rows, path)
    assert read_annotations_csv(path) == rows
