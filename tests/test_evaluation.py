from __future__ import annotations

import csv
import hashlib
import io
import itertools
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexar.evaluation import (
    METHODS,
    AnnotationRow,
    EvalRecord,
    MetricRow,
    _csv_field,
    _sample_id,
    answer,
    auto_annotate,
    compute_stats,
    majority_vote,
    read_annotations_csv,
    read_results_csv,
    render_report,
    run_grid,
    write_results_csv,
)
from hexar.framework import ReasonerMeter
from hexar.reasoner import LatencyModelReasoner, RuleReasoner, TextReasoner
from hexar.scenarios import get_scenario, grid_triples

GOLDEN = Path(__file__).parent / "data" / "golden_report.md"
GOLDEN_STATS = Path(__file__).parent / "data" / "golden_stats.csv"


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
    """More workers than cores, switching often, race on each trace's first
    derived views; every record still equals the serial one."""
    triples = [(s, v, q) for s, v, q in grid_triples() if s in (5, 13, 17, 20)]
    key = lambda rs: sorted((replace(r, wall_time=0.0) for r in rs), key=lambda r: r.sample_id)
    serial = run_grid(list(METHODS), triples, rule_reasoner_module, seed=0, jobs=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run_grid(list(METHODS), triples, rule_reasoner_module, seed=0, jobs=8)
    finally:
        sys.setswitchinterval(interval)
    assert len(parallel) == 3 * len(triples)
    assert key(parallel) == key(serial)


def test_run_grid_rejects_unknown_method(rule_reasoner_module):
    with pytest.raises(ValueError):
        run_grid(["telepathy"], grid_triples()[:1], rule_reasoner_module, seed=0)


def test_run_grid_answers_a_repeated_method_once(rule_reasoner_module):
    triples = [(7, 1, 1), (20, 1, 2), (7, 1, 1)]
    records = run_grid(["hexar", "end_to_end", "hexar"], triples, rule_reasoner_module, seed=0)
    assert [r.sample_id for r in records] == [
        "s07v1q1_hexar", "s07v1q1_end_to_end", "s20v1q2_hexar", "s20v1q2_end_to_end"
    ]
    once = run_grid(["hexar"], triples, rule_reasoner_module, seed=0)
    twice = run_grid(["hexar", "hexar"], triples, rule_reasoner_module, seed=0)
    key = lambda rs: [replace(r, wall_time=0.0) for r in rs]
    assert key(twice) == key(once)


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_grid_rejects_jobs_below_one(rule_reasoner_module, jobs):
    with pytest.raises(ValueError, match=f"^jobs must be at least 1: {jobs}$"):
        run_grid(["hexar"], [(7, 1, 1)], rule_reasoner_module, seed=0, jobs=jobs)


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


def test_run_grid_error_records_carry_no_cost():
    """An error record carries no text and no time, but every reasoner call it made."""
    from hexar.reasoner import ReasonerError, TextReasoner

    class BrokenReasoner(TextReasoner):
        def complete(self, request):
            raise ReasonerError("endpoint down")

    records = run_grid(list(METHODS), [(7, 1, 1)], BrokenReasoner(), seed=0)
    assert [
        (r.method, r.explanation_text, r.produced_by, r.reasoner_calls, r.wall_time, r.selected_ok)
        for r in records
    ] == [
        ("hexar", "", "error:ReasonerError", 1, 0.0, False),
        ("end_to_end", "", "error:ReasonerError", 1, 0.0, None),
        ("all_components", "", "error:ReasonerError", 3, 0.0, None),
    ]


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
        meter = ReasonerMeter(oracle)
        text = specs_by_id[scenario_id].queries[query_index - 1]
        explanation = answer(method, text, trace_cache(scenario_id, variant), registry, meter)
        point = (scenario_id, variant, query_index)
        assert explanation.reasoner_calls == oracle.calls, point
        assert explanation.wall_time >= oracle.latency, point
        assert (oracle.latency > 0) == (oracle.calls > 0), point
        # the caller's meter is the one the answer was billed to
        assert meter.calls == explanation.reasoner_calls, point
        assert meter.latency == pytest.approx(oracle.latency, abs=1e-9), point


def test_run_grid_bills_each_completion_to_one_meter_per_record(monkeypatch):
    """Over the seed-0 grid: one meter per record, and one meter call per completion."""
    meters = meter_calls = 0
    build, complete = ReasonerMeter.__init__, ReasonerMeter.complete

    def counting_init(self, inner):
        nonlocal meters
        meters += 1
        build(self, inner)

    def counting_complete(self, request):
        nonlocal meter_calls
        meter_calls += 1
        return complete(self, request)

    monkeypatch.setattr(ReasonerMeter, "__init__", counting_init)
    monkeypatch.setattr(ReasonerMeter, "complete", counting_complete)
    oracle = BillingOracle()
    records = run_grid(list(METHODS), grid_triples(), oracle, seed=0)
    assert (meters, meter_calls) == (len(records), oracle.calls)
    assert (len(records), oracle.calls) == (540, 873)
    assert sum(r.reasoner_calls for r in records) == oracle.calls


class FingerprintReasoner(TextReasoner):
    """Feeds every request and response it passes on into one digest."""

    def __init__(self, digest):
        self.inner = LatencyModelReasoner(RuleReasoner())
        self.digest = digest

    def complete(self, request):
        self.digest.update(
            repr((request.system_prompt, request.user_prompt, request.max_tokens)).encode()
        )
        response = self.inner.complete(request)
        self.digest.update(repr((response.text, response.latency)).encode())
        return response


@pytest.mark.parametrize(
    "seed", [*range(5, 15), *(pytest.param(seed, marks=pytest.mark.slow) for seed in range(15, 50))]
)
def test_seed_sweep_holds_the_grid_accuracy(seed, rule_reasoner, registry):
    """Seeds 5-49 keep seed 0's selection and accuracy; the digests pin seeds 0-4.

    Seeds 15-49 are marked ``slow``: ``pytest -m slow`` runs them.
    """
    records = run_grid(list(METHODS), grid_triples(), rule_reasoner, seed, registry)
    method_of = {r.sample_id: r.method for r in records}
    root_cause = dict.fromkeys(METHODS, 0)
    incorrect = dict.fromkeys(METHODS, 0)
    for row in majority_vote(auto_annotate(records))[0]:
        root_cause[method_of[row.sample_id]] += row.root_cause_identified
        incorrect[method_of[row.sample_id]] += row.incorrect_facts_present
    assert sum(r.selected_ok is True for r in records) == 180
    assert root_cause == {"hexar": 180, "end_to_end": 171, "all_components": 180}
    assert incorrect == dict.fromkeys(METHODS, 0)


def test_seed_0_grid_output_fingerprint_is_pinned():
    """Every prompt, response, modelled latency and answer of the seed 0 grid.

    A change meant to keep outputs byte-identical keeps this digest; a change
    that alters an output on purpose re-pins it and says so in CHANGES.md.
    """
    digest = hashlib.sha256()
    records = run_grid(list(METHODS), grid_triples(), FingerprintReasoner(digest), seed=0)
    for r in records:
        digest.update(
            repr((r.sample_id, r.explanation_text, r.produced_by, r.reasoner_calls, r.selected_ok))
            .encode()
        )
    assert digest.hexdigest() == (
        "57137f665fdff343dff510d28e790a364be562194c368bfee9de2f844eabd061"
    )


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
    for annotators in ((1, 2), (1, 1, 2), (1, 2, 3, 3)):
        rows = [AnnotationRow("b", i, 0, 0) for i in (1, 2, 3)]
        rows += [AnnotationRow("a", i, 1, 0) for i in annotators]
        with pytest.raises(ValueError) as raised:
            majority_vote(rows)
        assert str(raised.value) == "sample a lacks exactly three annotators"


def test_rows_are_slotted_value_objects_and_annotations_are_checked():
    """The three rows: slotted, equal by value, built alike by position and keyword."""
    rows = [
        EvalRecord("s01v1q1_hexar", 1, 1, 1, "hexar", "text", "navigation", 2, 0.5, True),
        AnnotationRow("a", 1, 1, 0),
        MetricRow("a", 1, 0, 1),
    ]
    for row in rows:
        assert not hasattr(row, "__dict__"), type(row).__name__
        copy = replace(row)
        assert copy == row and copy is not row
        by_keyword = type(row)(**{name: getattr(row, name) for name in row.__slots__})
        assert by_keyword == row and repr(by_keyword) == repr(row)
    assert AnnotationRow("a", 1, 1, 0) != AnnotationRow("a", 2, 1, 0)

    annotation = rows[1]
    bad_id = "annotator_id must be 1..3, got 4"
    with pytest.raises(ValueError, match=f"^{bad_id}$"):
        AnnotationRow("a", 4, 1, 0)
    with pytest.raises(ValueError, match=f"^{bad_id}$"):
        replace(annotation, annotator_id=4)
    for labels in ({"root_cause": 2}, {"incorrect_facts": -1}):
        with pytest.raises(ValueError, match="^annotation labels must be binary$"):
            AnnotationRow("a", 1, **{"root_cause": 1, "incorrect_facts": 0, **labels})
        with pytest.raises(ValueError, match="^annotation labels must be binary$"):
            replace(annotation, **labels)


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


def _reference_majority_vote(rows):
    """The list-and-set form of ``majority_vote``, kept as the reference."""
    by_sample = {}
    for row in rows:
        by_sample.setdefault(row.sample_id, []).append(row)
    metrics = []
    cells = 0
    disagreements = 0
    for sample_id in sorted(by_sample):
        group = by_sample[sample_id]
        if sorted(r.annotator_id for r in group) != [1, 2, 3]:
            raise ValueError(f"sample {sample_id} lacks exactly three annotators")
        rci_votes = [r.root_cause for r in group]
        bad_votes = [r.incorrect_facts for r in group]
        rci = int(sum(rci_votes) >= 2)
        bad = int(sum(bad_votes) >= 2)
        cells += 2
        disagreements += int(len(set(rci_votes)) > 1) + int(len(set(bad_votes)) > 1)
        metrics.append(MetricRow(sample_id, rci, bad, int(rci == 1 and bad == 0)))
    return metrics, (disagreements / cells if cells else 0.0)


_LABELS = st.tuples(st.integers(0, 1), st.integers(0, 1))


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.text(alphabet="ab_1", min_size=1, max_size=3),
        st.tuples(st.permutations((1, 2, 3)), st.tuples(_LABELS, _LABELS, _LABELS)),
        max_size=6,
    ),
    st.randoms(use_true_random=False),
)
def test_majority_vote_equals_the_reference(samples, random):
    rows = [
        AnnotationRow(sample_id, annotator, rci, bad)
        for sample_id, (annotators, labels) in samples.items()
        for annotator, (rci, bad) in zip(annotators, labels)
    ]
    random.shuffle(rows)
    assert majority_vote(rows) == _reference_majority_vote(rows)


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


def test_render_report_stats_csv_matches_golden(tmp_path):
    records, metrics, disagreement = _fixture_records_and_metrics()
    stats = replace(compute_stats(records, metrics), disagreement_rate=disagreement)
    _, stats_path = render_report(records, metrics, stats, tmp_path)
    assert stats_path.read_bytes() == GOLDEN_STATS.read_bytes()


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


def test_seed_0_results_csv_bytes_are_pinned(tmp_path, rule_reasoner_module):
    """The whole seed-0 results CSV, with the measured ``wall_time`` zeroed.

    A change meant to keep the file byte-identical keeps this digest.
    """
    records = run_grid(list(METHODS), grid_triples(), rule_reasoner_module, seed=0)
    path = tmp_path / "results.csv"
    write_results_csv([replace(r, wall_time=0.0) for r in records], path)
    data = path.read_bytes()
    assert len(data) == 173560
    assert hashlib.sha256(data).hexdigest() == (
        "823171fc2acf99a2f860fa3137e5553fb10086178187e9f5549df1178ce4c048"
    )


# field text with every character the csv dialect treats specially
_CSV_TEXT = st.lists(
    st.sampled_from([",", '"', "\r", "\n", "\r\n", "\x00", "\u2028", " ", "", "a b", "é"])
    | st.text(max_size=3),
    max_size=8,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(_CSV_TEXT, min_size=2, max_size=6))
def test_csv_field_rows_equal_csv_writer_rows(fields):
    expected = io.StringIO()
    csv.writer(expected).writerow(fields)
    assert ",".join(map(_csv_field, fields)) + "\r\n" == expected.getvalue()


def _reference_results_csv(records) -> bytes:
    """The results CSV as ``csv.writer`` writes it, kept as the reference."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow([
        "sample_id", "scenario_id", "task_variant", "query_index", "method",
        "produced_by", "selected_ok", "reasoner_calls", "wall_time", "explanation_text",
    ])
    for r in sorted(records, key=lambda r: r.sample_id):
        writer.writerow([
            r.sample_id, r.scenario_id, r.task_variant, r.query_index, r.method,
            r.produced_by, "" if r.selected_ok is None else int(r.selected_ok),
            r.reasoner_calls, f"{r.wall_time:.6f}", r.explanation_text,
        ])
    return out.getvalue().encode("utf-8")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_CSV_TEXT, _CSV_TEXT, st.booleans()), min_size=1, max_size=6))
def test_results_csv_equals_csv_writer_and_reads_back(rows):
    records = []
    for i, (text, produced_by, ok) in enumerate(rows):
        point = grid_triples()[i]
        method = METHODS[i % len(METHODS)]
        records.append(
            EvalRecord(
                _sample_id(*point, method), *point, method, text, produced_by,
                reasoner_calls=i, wall_time=i / 8, selected_ok=ok if method == "hexar" else None,
            )
        )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.csv"
        write_results_csv(records, path)
        assert path.read_bytes() == _reference_results_csv(records)
        assert read_results_csv(path) == sorted(records, key=lambda r: r.sample_id)


def test_results_csv_rejects_wrong_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_results_csv(path)


def test_annotations_csv_round_trip(tmp_path):
    rows = [AnnotationRow("s1", i, 1, 0) for i in (1, 2, 3)]
    path = tmp_path / "ann.csv"
    path.write_text(
        "sample_id,annotator_id,root_cause,incorrect_facts\r\n"
        + "".join(f"s1,{i},1,0\r\n" for i in (1, 2, 3)),
        encoding="utf-8",
    )
    assert read_annotations_csv(path) == rows
