"""Workload inputs: simulator seeds, traces, navigation padding, request order.

Everything here is a function of the workload seed, so the same seed gives
the same inputs. The program under test receives only the generated
traces and queries.
"""

from __future__ import annotations

import random
import statistics

from hexar.baselines import explain_all_components, explain_end_to_end
from hexar.evaluation import METHODS, EvalRecord
from hexar.framework import ExplainerRegistry, explain_hexar
from hexar.reasoner import TextReasoner
from hexar.scenarios import N_SCENARIOS, N_TASK_VARIANTS, get_scenario, grid_triples
from hexar.trace import Event, Explanation, Query, Trace

# Lines a 20 Hz navigation controller logs while driving; each matches one
# of the default discard patterns, so the log filter drops every one.
PAD_TEXTS = (
    "Controller loop running at 20 Hz",
    "Publishing velocity command",
    "Waiting for costmap update",
)
# Padding per running interval. With it the median trace of the grid has
# about 570 events instead of 16, as a long drive would leave.
PAD_LINES_PER_INTERVAL = 556

TRACE_KEYS = [(s, v) for s in range(1, N_SCENARIOS + 1) for v in range(1, N_TASK_VARIANTS + 1)]
# One request answers one grid point with one method: 180 points x 3 methods.
PAIRS = [(s, v, q, m) for s, v, q in grid_triples() for m in METHODS]


def sim_seeds(seed: int):
    """Endless, reproducible stream of simulator seeds for a workload seed."""
    rng = random.Random(f"hexbench:{seed}")
    while True:
        yield rng.randrange(1 << 31)


def request_order(seed: int) -> list[tuple[int, int, int, str]]:
    """The 540 (scenario, variant, query, method) pairs in a seeded order."""
    return random.Random(f"hexbench-order:{seed}").sample(PAIRS, len(PAIRS))


def pad_navigation(trace: Trace, lines_per_interval: int = PAD_LINES_PER_INTERVAL) -> Trace:
    """Insert discardable controller log lines while navigation is running.

    Each interval from a navigation ``running`` status to the next other
    navigation status (or the end of the trace) gets ``lines_per_interval``
    lines at evenly spaced timestamps, merged in timestamp order. Filtering
    the logs drops them again, so every prompt and answer is unchanged.
    """
    intervals = []
    start = None
    for event in trace.events:
        if event.kind == "skill_status" and event.payload.get("skill") == "navigation":
            if event.payload["status"] == "running":
                start = event.ts if start is None else start
            elif start is not None:
                intervals.append((start, event.ts))
                start = None
    if start is not None:
        intervals.append((start, trace.events[-1].ts))

    pads = []
    for lo, hi in intervals:
        for i in range(lines_per_interval):
            ts = round(lo + (hi - lo) * (i + 1) / (lines_per_interval + 1), 6)
            text = PAD_TEXTS[i % len(PAD_TEXTS)]
            pads.append(Event(ts=ts, source="navigation", kind="log", payload={"text": text}))
    # on equal timestamps the recorded event stays first
    merged = sorted(
        [(e.ts, 0, i, e) for i, e in enumerate(trace.events)]
        + [(p.ts, 1, i, p) for i, p in enumerate(pads)]
    )
    return Trace(trace.scenario_id, trace.task_variant, trace.seed, tuple(e for *_, e in merged))


def input_size(traces) -> dict:
    """Trace count and median/max events per trace, for the run's meta line."""
    sizes = [len(t.events) for t in traces]
    return {"traces": len(sizes), "median_events": statistics.median(sizes), "max_events": max(sizes)}


def make_query(trace: Trace, query_index: int) -> Query:
    """The query of a grid point, asked at the end of the trace, as ``run_grid`` asks it."""
    spec = get_scenario(trace.scenario_id)
    return Query(
        text=spec.queries[query_index - 1],
        asked_at=trace.events[-1].ts if trace.events else 0.0,
    )


def answer(
    method: str, query: Query, trace: Trace, registry: ExplainerRegistry, reasoner: TextReasoner
) -> Explanation:
    if method == "hexar":
        return explain_hexar(query, trace, registry, reasoner)
    if method == "end_to_end":
        return explain_end_to_end(query, trace, reasoner, registry)
    return explain_all_components(query, trace, registry, reasoner)


def fingerprint(explanation: Explanation) -> tuple[str, str, int]:
    """What an answer must reproduce: its text, its producer and its call count."""
    return (explanation.text, explanation.produced_by, explanation.reasoner_calls)


def record_for(
    pair: tuple[int, int, int, str], explanation: Explanation, registry: ExplainerRegistry
) -> EvalRecord:
    """An evaluation record for an answer, selection judged as ``run_grid`` judges it."""
    scenario_id, variant, query_index, method = pair
    selected_ok = None
    if method == "hexar":
        expected = registry.explainer_for_module(get_scenario(scenario_id).ground_truth.relevant_module)
        selected_ok = explanation.produced_by == expected
    return EvalRecord(
        sample_id=f"s{scenario_id:02d}v{variant}q{query_index}_{method}",
        scenario_id=scenario_id,
        task_variant=variant,
        query_index=query_index,
        method=method,
        explanation_text=explanation.text,
        produced_by=explanation.produced_by,
        reasoner_calls=explanation.reasoner_calls,
        wall_time=explanation.wall_time,
        selected_ok=selected_ok,
    )
