"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import csv
import math
import random
import statistics
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hexar.cli import main as cli_main
from hexar.explainers.help_causal import (
    HelpOutcome,
    build_help_model,
    counterfactual,
    evaluate_model,
    extract_variables,
)
from hexar.explainers.pizza import (
    INGREDIENTS,
    LimeConfig,
    default_tree,
    exhaustive_attribution,
    lime_attribute,
)
from hexar.framework import explain_hexar
from hexar.reasoner import LatencyModelReasoner, RuleReasoner
from hexar.scenarios import (
    CONTRADICTED_FACTS,
    grid_triples,
    list_scenarios,
)
from hexar.simulate import generate_trace, replay_fsm
from hexar.stats import chi2_sf, cochran_q, holm_adjust, mcnemar
from hexar.trace import Query, read_trace, write_trace
from hexar.evaluation import run_grid

from test_pizza import oracle_least_squares, stump_tree
from test_stats import FIXTURE_MATRICES, oracle_cochran_q, oracle_holm


@pytest.fixture(scope="module")
def registry():
    from hexar.explainers import build_default_registry

    return build_default_registry()


@pytest.fixture(scope="module")
def rule_reasoner():
    return RuleReasoner()


@pytest.fixture(scope="module")
def specs():
    return {spec.scenario_id: spec for spec in list_scenarios()}


@pytest.fixture(scope="module")
def hexar_grid(registry, rule_reasoner, specs):
    """(record list, elapsed seconds) for a full HEXAR pass over the grid."""
    start = time.perf_counter()
    results = []
    for scenario_id, variant, query_index in grid_triples():
        trace = generate_trace(scenario_id, variant, 0)
        query = Query(
            text=specs[scenario_id].queries[query_index - 1],
            asked_at=trace.events[-1].ts,
        )
        explanation = explain_hexar(query, trace, registry, rule_reasoner)
        results.append((scenario_id, variant, query_index, explanation))
    return results, time.perf_counter() - start


FAILURE_SCENARIOS = (1, 2, 4, 5, 6, 7, 11, 12, 13, 14, 15, 16, 19)


def test_selector_accuracy(hexar_grid, specs):
    """Selection matches the relevant module on >= 175/180 points; all
    failure-heuristic scenarios select correctly; the pass stays under two
    minutes."""
    results, elapsed = hexar_grid
    correct = sum(
        1
        for scenario_id, _, _, explanation in results
        if explanation.produced_by == specs[scenario_id].relevant_module
    )
    failure_correct = [
        explanation.produced_by == specs[scenario_id].relevant_module
        for scenario_id, _, _, explanation in results
        if scenario_id in FAILURE_SCENARIOS
    ]
    assert correct >= 175, f"selection accuracy {correct}/180"
    assert all(failure_correct), "failure-heuristic scenarios must select perfectly"
    assert elapsed < 120.0, f"grid pass took {elapsed:.1f}s"
    print(f"\nACCEPTANCE selector_accuracy: PASS ({correct}/180, {elapsed:.1f}s)")


def test_root_cause_floor(hexar_grid, specs):
    """Every HEXAR grid explanation contains the root-cause phrase and none
    contains a contradicted-fact string."""
    results, _ = hexar_grid
    missing = [
        (s, v, q)
        for s, v, q, e in results
        if specs[s].ground_truth.root_cause.lower() not in e.text.lower()
    ]
    contradicted = [
        (s, v, q)
        for s, v, q, e in results
        if any(fact.lower() in e.text.lower() for fact in CONTRADICTED_FACTS[s])
    ]
    assert missing == [], f"explanations without root cause: {missing}"
    assert contradicted == [], f"explanations with contradicted facts: {contradicted}"
    print("\nACCEPTANCE root_cause_floor: PASS (180/180 contain cause, 0 contradicted)")


def test_runtime_ordering(registry):
    """With the latency double, mean wall time orders hexar < end_to_end <
    all_components, and hexar issues fewer reasoner calls than
    all_components on every grid point."""
    double = LatencyModelReasoner(RuleReasoner())
    records = run_grid(
        ["hexar", "end_to_end", "all_components"],
        grid_triples(),
        double,
        seed=0,
        registry=registry,
    )
    by_method: dict[str, dict] = {}
    for record in records:
        key = (record.scenario_id, record.task_variant, record.query_index)
        by_method.setdefault(record.method, {})[key] = record
    means = {
        method: statistics.mean(r.wall_time for r in cells.values())
        for method, cells in by_method.items()
    }
    assert means["hexar"] < means["end_to_end"] < means["all_components"], means
    violations = [
        key
        for key, record in by_method["all_components"].items()
        if not by_method["hexar"][key].reasoner_calls < record.reasoner_calls
    ]
    assert violations == [], violations
    print(
        "\nACCEPTANCE runtime_ordering: PASS "
        f"({means['hexar']:.2f} < {means['end_to_end']:.2f} < {means['all_components']:.2f} s)"
    )


def test_statistics_suite():
    """Cochran Q vs direct-formula oracle, the null convention, the
    chi-square tail at the omnibus fixture, exact McNemar vs binomial
    summation for all small counts, and Holm vs max-scan."""
    assert len(FIXTURE_MATRICES) >= 5
    for matrix in FIXTURE_MATRICES:
        q, _, _ = cochran_q(matrix)
        assert abs(q - oracle_cochran_q(matrix)) < 1e-9

    q, df, p = cochran_q([[1, 1, 1]] * 4)
    assert (q, df, p) == (0.0, 2, 1.0)

    assert chi2_sf(60.04, 2) < 0.001

    def exact_oracle(b, c):
        n = b + c
        tail = sum(Fraction(math.comb(n, i)) for i in range(min(b, c) + 1))
        return float(min(2 * tail / Fraction(2) ** n, Fraction(1)))

    checked = 0
    for b in range(25):
        for c in range(25 - b):
            if b + c == 0:
                continue
            pairs = [[1, 0]] * b + [[0, 1]] * c + [[1, 1]] * 3
            _, p_value = mcnemar(pairs)
            assert abs(p_value - exact_oracle(b, c)) < 1e-12, (b, c)
            checked += 1

    rng = random.Random(99)
    for _ in range(100):
        values = [rng.random() for _ in range(rng.randint(1, 9))]
        got = holm_adjust(values)
        want = oracle_holm(values)
        assert all(abs(g - w) < 1e-12 for g, w in zip(got, want))

    print(f"\nACCEPTANCE statistics_suite: PASS ({checked} McNemar count pairs checked)")


def test_lime_oracle():
    """Exhaustive attribution equals the independent least-squares oracle on
    the stump and fixture trees; sampled attribution stays within 0.1 of
    enumeration per coefficient."""
    stump = stump_tree(feature=6)
    attribution = exhaustive_attribution(stump, tuple([1] * len(INGREDIENTS)), "yes")
    for i, weight in enumerate(attribution.weights):
        assert abs(weight - (1.0 if i == 6 else 0.0)) < 1e-9
    assert abs(attribution.intercept) < 1e-9
    weights, intercept = oracle_least_squares(stump, "yes")
    assert np.allclose(attribution.weights, weights, atol=1e-9)

    tree = default_tree()
    x = (1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
    enumerated = exhaustive_attribution(tree, x, "margherita")
    oracle_w, oracle_b = oracle_least_squares(tree, "margherita")
    assert np.allclose(enumerated.weights, oracle_w, atol=1e-9)
    assert abs(enumerated.intercept - oracle_b) < 1e-9

    for seed in range(1, 6):
        sampled = lime_attribute(tree, x, "margherita", LimeConfig(n_samples=5000, seed=seed))
        deltas = [abs(a - b) for a, b in zip(sampled.weights, enumerated.weights)]
        assert max(deltas) < 0.1, f"seed {seed}: max delta {max(deltas):.3f}"

    print("\nACCEPTANCE lime_oracle: PASS (enumeration==OLS oracle, sampling within 0.1)")


def test_counterfactual_suite():
    """On every failing help-skill grid trace the intervention flips its
    gate minimally; the gate model agrees with the event-stream replay on
    every grid trace containing the skill."""
    model = build_help_model()
    gate_order = [g.failure for g in model.gates] + [HelpOutcome.SUCCESS]
    checked_flips = 0
    checked_agreement = 0
    for scenario_id in range(11, 19):
        for variant in (1, 2, 3):
            for seed in (0, 3):
                trace = generate_trace(scenario_id, variant, seed)
                events = trace.by_source({"ask_human_for_help"})
                variables = extract_variables(events)
                modelled = evaluate_model(model, variables)
                assert modelled is replay_fsm(trace)
                checked_agreement += 1
                if modelled is HelpOutcome.SUCCESS:
                    continue
                result = counterfactual(model, variables)
                intervened = replace(variables, **{result.variable: result.intervention})
                flipped = evaluate_model(model, intervened)
                assert gate_order.index(flipped) > gate_order.index(modelled)
                failed_gate = next(g for g in model.gates if g.failure is modelled)
                # brute force over every variable's boundary intervention:
                # only the failed gate's own variable can flip it
                for gate in model.gates:
                    if gate.variable == result.variable:
                        continue
                    boundary_value = gate.passing_value(variables, model.thresholds)
                    other = replace(variables, **{gate.variable: boundary_value})
                    assert not failed_gate.predicate(other, model.thresholds)
                observed, boundary = result.observed, result.intervention
                if isinstance(observed, (int, float)) and isinstance(boundary, (int, float)) \
                        and not isinstance(observed, bool) and not isinstance(boundary, bool):
                    for fraction in (0.25, 0.5, 0.9):
                        partial = observed + (boundary - observed) * fraction
                        shifted = replace(variables, **{result.variable: partial})
                        assert not failed_gate.predicate(shifted, model.thresholds)
                checked_flips += 1
    assert checked_flips > 0 and checked_agreement == 48
    print(
        "\nACCEPTANCE counterfactual_suite: PASS "
        f"({checked_flips} flips verified, {checked_agreement} replay agreements)"
    )


def test_determinism(tmp_path):
    """Two full evaluate runs with equal seeds produce byte-identical result
    CSVs once the timing column is dropped; trace serialization round-trips
    exactly."""
    outputs = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for out in outputs:
        code = cli_main(
            ["evaluate", "--seed", "7", "--reasoner", "rule", "--out", str(out)]
        )
        assert code == 0

    def rows_without_wall(path):
        rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
        idx = rows[0].index("wall_time")
        return [tuple(c for i, c in enumerate(row) if i != idx) for row in rows]

    assert rows_without_wall(outputs[0]) == rows_without_wall(outputs[1])

    for scenario_id in (1, 7, 13, 18, 20):
        trace = generate_trace(scenario_id, 2, 7)
        path = tmp_path / f"trace{scenario_id}.jsonl"
        write_trace(trace, path)
        assert read_trace(path) == trace

    print("\nACCEPTANCE determinism: PASS (540-row CSVs identical, round-trips exact)")


def test_metric_algebra():
    """explanation_accuracy follows its truth table on every record of a
    full auto-annotated run, and majority voting matches the exhaustive
    three-label enumeration."""
    from itertools import product

    from hexar.evaluation import AnnotationRow, auto_annotate, majority_vote

    records = run_grid(
        ["hexar", "end_to_end", "all_components"], grid_triples(), RuleReasoner(), seed=0
    )
    metrics, _ = majority_vote(auto_annotate(records))
    assert len(metrics) == 540
    for row in metrics:
        expected = int(row.root_cause_identified == 1 and row.incorrect_facts_present == 0)
        assert row.explanation_accuracy == expected

    for rci_votes in product((0, 1), repeat=3):
        for bad_votes in product((0, 1), repeat=3):
            rows = [
                AnnotationRow("s", i + 1, rci_votes[i], bad_votes[i]) for i in range(3)
            ]
            merged, _ = majority_vote(rows)
            rci = int(sum(rci_votes) >= 2)
            bad = int(sum(bad_votes) >= 2)
            assert merged[0].root_cause_identified == rci
            assert merged[0].incorrect_facts_present == bad
            assert merged[0].explanation_accuracy == int(rci == 1 and bad == 0)

    print("\nACCEPTANCE metric_algebra: PASS (540 records, 8x8 vote enumeration)")
