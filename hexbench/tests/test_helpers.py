"""Tests for the benchmark's helpers: percentiles, self time, padding, wrapping."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from hexar.evaluation import METHODS
from hexar.explainers import build_default_registry
from hexar.framework import build_classifier_prompt
from hexar.reasoner import LatencyModelReasoner, RuleReasoner
from hexar.simulate import generate_trace
from hexar.trace import Query, read_trace, write_trace

from hexbench.inputs import (
    PAD_LINES_PER_INTERVAL,
    PAIRS,
    TRACE_KEYS,
    answer,
    fingerprint,
    make_query,
    pad_navigation,
    request_order,
)
from hexbench.spans import Tracer, TracedReasoner, layer_metrics, traced_registry
from hexbench.summary import (
    checked_percentile,
    covered_length,
    percentile,
    self_time,
    tail_percentile,
)


# -- highest percentile with at least ten samples beyond it -------------------


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_leaves_ten_samples_beyond_p99():
    values = [float(i) for i in range(1, 1001)]
    p99 = percentile(values, 99)
    assert p99 == 990.0
    assert sum(1 for v in values if v > p99) == 10
    assert percentile(values, 50) == 500.0


def test_checked_percentile_refuses_unsupported_tail():
    with pytest.raises(ValueError, match="p99"):
        checked_percentile([1.0] * 999, 99)
    assert checked_percentile([1.0] * 1000, 99) == 1.0


# -- self time with overlapping concurrent children ---------------------------


def test_self_time_subtracts_union_of_overlapping_children():
    children = [(1.0, 4.0), (2.0, 6.0), (8.0, 9.0), (9.5, 12.0), (-1.0, 0.5)]
    # union inside [0, 10]: [0, 0.5] + [1, 6] + [8, 9] + [9.5, 10] = 7.0
    assert covered_length(children, 0.0, 10.0) == pytest.approx(7.0)
    assert self_time(0.0, 10.0, children) == pytest.approx(3.0)
    assert self_time(0.0, 10.0, []) == pytest.approx(10.0)


def test_pool_thread_spans_are_children_of_the_blocked_span():
    tracer = Tracer()
    barrier = threading.Barrier(3)

    def child(_):
        with tracer.span("explainer.x"):
            barrier.wait(timeout=5)
            time.sleep(0.02)

    with tracer.span("answer.all_components") as parent:
        with ThreadPoolExecutor(max_workers=3) as pool:
            list(pool.map(child, range(3)))
    kids = [s for s in tracer.spans if s.name == "explainer.x"]
    assert len(kids) == 3
    assert all(s.parent == parent.id for s in kids)
    own = self_time(parent.start, parent.end, [(s.start, s.end) for s in kids])
    summed = parent.duration - sum(s.duration for s in kids)
    # the children ran together, so subtracting their sum would go negative
    assert summed < 0 < own < parent.duration


# -- padding invariance -------------------------------------------------------


def test_padded_traces_give_identical_answers_on_all_pairs(tmp_path):
    registry = build_default_registry()
    reasoner = LatencyModelReasoner(RuleReasoner())
    plain = {key: generate_trace(key[0], key[1], 0) for key in TRACE_KEYS}
    padded = {}
    for key, trace in plain.items():
        path = tmp_path / f"{key[0]}-{key[1]}.jsonl"
        write_trace(pad_navigation(trace), path)
        padded[key] = read_trace(path)
    grew = [k for k in TRACE_KEYS if len(padded[k].events) > len(plain[k].events)]
    assert len(grew) > len(TRACE_KEYS) // 2
    assert max(len(padded[k].events) - len(plain[k].events) for k in grew) >= PAD_LINES_PER_INTERVAL
    for key in TRACE_KEYS:
        assert padded[key].events[-1].ts == plain[key].events[-1].ts

    assert len(PAIRS) == 540
    for s, v, q, method in PAIRS:
        expected = answer(method, make_query(plain[(s, v)], q), plain[(s, v)], registry, reasoner)
        got = answer(method, make_query(padded[(s, v)], q), padded[(s, v)], registry, reasoner)
        assert fingerprint(got) == fingerprint(expected), (s, v, q, method)


def test_request_order_is_a_seeded_permutation():
    assert request_order(3) == request_order(3)
    assert request_order(3) != request_order(4)
    assert sorted(request_order(3)) == sorted(PAIRS)


# -- the wrapped registry -----------------------------------------------------


def test_wrapped_registry_matches_default():
    default = build_default_registry()
    wrapped = traced_registry(Tracer(), default)
    query = Query(text="Why did you stop?", asked_at=1.0)
    assert build_classifier_prompt(query, wrapped) == build_classifier_prompt(query, default)
    assert wrapped.ids() == default.ids()
    assert wrapped.entries == default.entries
    for explainer_id in default.ids():
        a, b = default.explainers[explainer_id], wrapped.explainers[explainer_id]
        assert (a.subscribed_sources, a.capability) == (b.subscribed_sources, b.capability)


def test_traced_answers_equal_untraced_and_spans_cover_every_layer():
    default = build_default_registry()
    reasoner = LatencyModelReasoner(RuleReasoner())
    tracer = Tracer()
    wrapped = traced_registry(tracer, default)
    traced_reasoner = TracedReasoner(tracer, reasoner)
    for scenario_id in (5, 11, 19, 20):
        trace = generate_trace(scenario_id, 1, 0)
        for method in METHODS:
            query = make_query(trace, 1)
            plain = answer(method, query, trace, default, reasoner)
            tracer.next_request()
            with tracer.span(f"answer.{method}"):
                traced = answer(method, query, trace, wrapped, traced_reasoner)
            assert fingerprint(traced) == fingerprint(plain)
    metrics = layer_metrics(tracer.spans, default.ids())
    assert metrics["reasoner.calls_per_answer.end_to_end"][0] == 1.0
    assert metrics["explainer.pizza_recommender.calls"][0] > 0
    assert 0 < metrics["explainer.answered_ratio.all_components"][0] < 1
    assert metrics["reasoner.refusals"][0] > 0
    assert metrics["baselines.all_components.self_ms"][0] > 0
