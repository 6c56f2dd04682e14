"""The three workloads and the end-to-end metrics they report.

``eval_grid`` is a batch run: the full grid with all three methods per
simulator seed, then annotation, vote, statistics and report, as
``hexar evaluate`` followed by ``hexar report --auto-annotate`` does with
one job. ``ask`` and ``ask_long`` are closed loops with one client and no
think time: each request reads a trace file and answers one grid point
with one method, as ``hexar explain`` does without process start.
``ask_long`` reads traces padded with navigation log lines that the log
filter drops, so only the input size differs from ``ask``.

With tracing off every workload reports every end-to-end metric. With
tracing on, blocks with and without tracing alternate, so the same run
gives the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from hexar.evaluation import (
    METHODS,
    auto_annotate,
    compute_stats,
    majority_vote,
    render_report,
    run_grid,
    write_results_csv,
)
from hexar.explainers import build_default_registry
from hexar.reasoner import LatencyModelReasoner, NoMatchError, RuleReasoner
from hexar.scenarios import grid_triples
from hexar.simulate import generate_trace
from hexar.trace import read_trace, write_trace

from .inputs import (
    PAD_LINES_PER_INTERVAL,
    PAIRS,
    TRACE_KEYS,
    answer,
    fingerprint,
    input_size,
    make_query,
    pad_navigation,
    record_for,
    request_order,
    sim_seeds,
)
from .spans import CostMeter, NullTracer, TracedReasoner, Tracer, layer_metrics, traced_registry
from .summary import checked_percentile, percentile, tail_percentile

SETUP_PROBES = 15
# The loop runs past --seconds until every method has enough samples for
# its p99, but never longer than this.
MAX_MEASURE_SECONDS = 140.0
P99_SAMPLES = 1200
MIN_SELECTED = 175  # of the 180 hexar answers of one grid


@dataclass
class Tally:
    """Operations attempted and failed, and outputs that differ from the reference."""

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    errors: Counter = field(default_factory=Counter)
    gate_failures: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors[what] += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.mismatches == 0 and not self.gate_failures


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    tally: Tally
    meta: dict


def counted(tally: Tally, fn, *args):
    """``fn(*args)``, or ``None`` once its failure is counted as a failed operation."""
    try:
        return fn(*args)
    except NoMatchError:
        tally.fail("refusal:NoMatchError")
    except Exception as exc:  # every other failure is counted, not fatal
        tally.fail(f"exception:{type(exc).__name__}")
    return None


def make_reasoner():
    return LatencyModelReasoner(RuleReasoner())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(root: Path, work: Path) -> list[float]:
    """Set-up time from ``SETUP_PROBES`` fresh interpreters, one after another."""
    pizza = work / "setup_pizza.jsonl"
    write_trace(generate_trace(20, 1, 0), pizza)  # scenario 20 is the pizza recommendation
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-s", str(root / "hexbench" / "setup_probe.py"), str(pizza)],
            env=env, cwd=root, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr[-2000:]}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if not Path(probe["hexar"]).resolve().is_relative_to(root / "src"):
            raise RuntimeError(f"set-up probe imported hexar from {probe['hexar']}")
        times.append(probe["setup_s"])
    return times


def reference(traces, registry) -> tuple[dict, dict]:
    """Untimed answers for every pair on in-memory traces, with modelled cost."""
    meter = CostMeter(make_reasoner())
    answers, costs = {}, {}
    for pair in PAIRS:
        s, v, q, method = pair
        trace = traces[(s, v)]
        answers[pair] = answer(method, make_query(trace, q), trace, registry, meter)
        costs[pair] = meter.take()
    return answers, costs


def check_grid(records, hexar_accuracy: float, sim_seed: int, tally: Tally) -> None:
    """Gate on one grid's answers: selection >= 175/180 and hexar accuracy 1.0."""
    hexar_records = [r for r in records if r.method == "hexar"]
    selected = sum(1 for r in hexar_records if r.selected_ok)
    if selected < MIN_SELECTED:
        tally.gate_failures.append(f"seed {sim_seed}: selection {selected}/{len(hexar_records)}")
    if hexar_accuracy != 1.0:
        tally.gate_failures.append(f"seed {sim_seed}: hexar explanation accuracy {hexar_accuracy}")


def accuracy(records) -> tuple[float, dict[str, float]]:
    """Selection accuracy and explanation accuracy per method, as the report computes them."""
    metrics, _ = majority_vote(auto_annotate(records))
    stats = compute_stats(records, metrics)
    return stats.selection_accuracy, stats.means["explanation_accuracy"]


def accuracy_metrics(selection: float, explanation: dict[str, float]) -> dict:
    out = {"selection_accuracy": (selection, "ratio")}
    for method in METHODS:
        out[f"explanation_accuracy.{method}"] = (explanation[method], "ratio")
    return out


class Samples:
    """Per-method answer times: process CPU time, which the metrics use, and wall time.

    CPU time counts every thread of the process, so the pool threads of
    ``all_components`` are included. On an idle core it equals the wall
    time a user waits; on a shared host the wall-clock tail is set by the
    process being descheduled rather than by the program, so wall times
    are only reported alongside, in the run's meta line. Throughput is
    likewise answers per CPU second.
    """

    def __init__(self) -> None:
        self.cpu: dict[str, list[float]] = {m: [] for m in METHODS}
        self.wall: dict[str, list[float]] = {m: [] for m in METHODS}

    def add(self, method: str, cpu: float, wall: float) -> None:
        self.cpu[method].append(cpu)
        self.wall[method].append(wall)

    def enough(self) -> bool:
        return all(len(v) >= P99_SAMPLES for v in self.cpu.values())

    def metrics(self) -> dict:
        out = {}
        for pct in (50, 99):
            for method in METHODS:
                value = checked_percentile(self.cpu[method], pct)
                out[f"answer_p{pct}_ms.{method}"] = (1e3 * value, "ms")
        return out

    def meta(self) -> dict:
        return {
            "answer_clock": "time.process_time (all threads of the process)",
            "samples_per_method": {m: len(v) for m, v in self.cpu.items()},
            "highest_supported_percentile": {
                m: tail_percentile(len(v)) for m, v in self.cpu.items()
            },
            "wall_p50_p99_ms": {
                m: [1e3 * percentile(v, 50), 1e3 * percentile(v, 99)]
                for m, v in self.wall.items()
            },
        }


def cost_metrics(costs: dict) -> dict:
    out = {}
    for method in METHODS:
        values = [c for (_, _, _, m), c in costs.items() if m == method]
        out[f"modelled_cost_s.{method}"] = (sum(values) / len(values), "s")
    return out


# -- ask / ask_long -------------------------------------------------------------


class AskLoop:
    """One client asking one question per request, from a trace file."""

    def __init__(self, seed: int, work: Path, padded: bool, tracer) -> None:
        self.registry = build_default_registry()
        self.reasoner = make_reasoner()
        sim_seed = next(sim_seeds(seed))
        traces = {}
        for s, v in TRACE_KEYS:
            with tracer.span("simulate.generate_trace"):
                traces[(s, v)] = generate_trace(s, v, sim_seed)
        self.answers, self.costs = reference(traces, self.registry)
        self.expected = {pair: fingerprint(e) for pair, e in self.answers.items()}
        self.paths = {}
        served = []
        for key, trace in traces.items():
            if padded:
                trace = pad_navigation(trace)
            path = work / f"s{key[0]:02d}v{key[1]}.jsonl"
            write_trace(trace, path)
            self.paths[key] = path
            served.append(trace)
        self.sizes = input_size(served)
        self.order = request_order(seed)
        self.sim_seed = sim_seed
        self.padded = padded
        self.tally = Tally()
        self.next = 0

    def _serve(self, pair, registry, reasoner, tracer):
        s, v, q, method = pair
        with tracer.span("request"):
            with tracer.span("trace.read") as read:
                trace = read_trace(self.paths[(s, v)])
                if read is not None:
                    read.attrs["events"] = len(trace.events)
            with tracer.span(f"answer.{method}"):
                return answer(method, make_query(trace, q), trace, registry, reasoner)

    def request(self, registry, reasoner, tracer, samples) -> float:
        """Serve the next request and check its answer; returns its wall time."""
        pair = self.order[self.next % len(self.order)]
        self.next += 1
        self.tally.attempted += 1
        tracer.next_request()
        start = time.perf_counter()
        cpu = time.process_time()
        explanation = counted(self.tally, self._serve, pair, registry, reasoner, tracer)
        cpu = time.process_time() - cpu
        elapsed = time.perf_counter() - start
        if explanation is not None:
            samples.add(pair[3], cpu, elapsed)
            if fingerprint(explanation) != self.expected[pair]:
                self.tally.mismatches += 1
        return elapsed

    def base_meta(self) -> dict:
        return {
            "sim_seed": self.sim_seed,
            "pad_lines_per_interval": PAD_LINES_PER_INTERVAL if self.padded else 0,
            "input": self.sizes,
        }


def run_ask(seed: int, seconds: float, root: Path, work: Path, padded: bool) -> Result:
    loop = AskLoop(seed, work, padded, NullTracer())
    setup = setup_seconds(root, work)
    samples = Samples()
    null = NullTracer()
    start = time.perf_counter()
    cpu = time.process_time()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and samples.enough()) or elapsed >= MAX_MEASURE_SECONDS:
            break
        loop.request(loop.registry, loop.reasoner, null, samples)
    cpu = time.process_time() - cpu
    elapsed = time.perf_counter() - start

    records = [record_for(p, e, loop.registry) for p, e in loop.answers.items()]
    selection, explanation = accuracy(records)
    check_grid(records, explanation["hexar"], loop.sim_seed, loop.tally)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "grid_samples_per_s": (loop.tally.attempted / cpu, "1/s"),
        **samples.metrics(),
        **cost_metrics(loop.costs),
        **accuracy_metrics(selection, explanation),
    }
    meta = {
        **loop.base_meta(),
        **samples.meta(),
        "setup_probes_s": setup,
        "measured_s": elapsed,
        "wall_samples_per_s": loop.tally.attempted / elapsed,
    }
    return Result(metrics, loop.tally, meta)


def run_ask_traced(
    name: str, seed: int, seconds: float, root: Path, work: Path, padded: bool, spans_path: Path
) -> Result:
    tracer = Tracer()
    loop = AskLoop(seed, work, padded, tracer)
    traced_reg = traced_registry(tracer, loop.registry)
    traced_reasoner = TracedReasoner(tracer, loop.reasoner)
    null = NullTracer()
    plain_total = traced_total = 0.0
    sink = Samples()
    start = time.perf_counter()
    blocks = 0
    # Whole cycles of 540 requests, untraced then traced. Both are checked
    # against the same reference, so traced answers equal untraced ones.
    while time.perf_counter() - start < seconds or blocks == 0:
        for _ in range(len(loop.order)):
            plain_total += loop.request(loop.registry, loop.reasoner, null, sink)
        for _ in range(len(loop.order)):
            traced_total += loop.request(traced_reg, traced_reasoner, tracer, sink)
        blocks += 1

    # one traced grid so the evaluation layers are measured on this workload too
    grid_pipeline(next(sim_seeds(seed)), traced_reg, traced_reasoner, tracer, work, loop.tally)

    metrics = layer_metrics(tracer.spans, loop.registry.ids())
    metrics["tracing.overhead_pct"] = (100.0 * (traced_total / plain_total - 1.0), "%")
    meta = {
        **loop.base_meta(),
        "block_pairs": blocks,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(root)),
    }
    tracer.write(spans_path, {"workload": name, "seed": seed})
    return Result(metrics, loop.tally, meta)


# -- eval_grid ------------------------------------------------------------------


def grid_pipeline(sim_seed, registry, reasoner, tracer, work: Path, tally: Tally):
    """``run_grid`` over the whole grid, then annotate, vote, stats, report and CSV."""
    out = work / "report"
    with tracer.span("evaluation.run_grid"):
        records = run_grid(list(METHODS), grid_triples(), reasoner, sim_seed, registry=registry, jobs=1)
    with tracer.span("evaluation.score"):
        metrics, disagreement = majority_vote(auto_annotate(records))
        stats = replace(compute_stats(records, metrics), disagreement_rate=disagreement)
    with tracer.span("evaluation.report"):
        render_report(records, metrics, stats, out)
        write_results_csv(records, out / "results.csv")

    tally.attempted += len(records)
    for record in records:
        if record.produced_by.startswith("error:"):
            tally.fail(record.produced_by)
    check_grid(records, stats.means["explanation_accuracy"]["hexar"], sim_seed, tally)
    return records, stats


def grid_answers(sim_seed, records, order, registry, reasoner, tracer, tally, samples) -> float:
    """Answer every pair on in-memory traces, timing each answer; returns the total wall time."""
    traces = {}
    for s, v in TRACE_KEYS:
        with tracer.span("simulate.generate_trace"):
            traces[(s, v)] = generate_trace(s, v, sim_seed)
    expected = {
        (r.scenario_id, r.task_variant, r.query_index, r.method): (
            r.explanation_text, r.produced_by, r.reasoner_calls
        )
        for r in records
    }
    total = 0.0
    for pair in order:
        s, v, q, method = pair
        trace = traces[(s, v)]
        tally.attempted += 1
        tracer.next_request()
        start = time.perf_counter()
        cpu = time.process_time()
        with tracer.span(f"answer.{method}"):
            explanation = counted(
                tally, answer, method, make_query(trace, q), trace, registry, reasoner
            )
        cpu = time.process_time() - cpu
        elapsed = time.perf_counter() - start
        total += elapsed
        if explanation is not None:
            samples.add(method, cpu, elapsed)
            if fingerprint(explanation) != expected[pair]:
                tally.mismatches += 1
    return total


def _record_keys(records):
    return sorted(
        (r.sample_id, r.explanation_text, r.produced_by, r.reasoner_calls, r.selected_ok)
        for r in records
    )


def run_eval_grid(seed: int, seconds: float, root: Path, work: Path) -> Result:
    registry = build_default_registry()
    reasoner = make_reasoner()
    seeds = sim_seeds(seed)
    first_seed = next(seeds)
    first_traces = {(s, v): generate_trace(s, v, first_seed) for s, v in TRACE_KEYS}
    _, costs = reference(first_traces, registry)
    sizes = input_size(first_traces.values())
    setup = setup_seconds(root, work)
    order = request_order(seed)

    tally = Tally()
    null = NullTracer()
    samples = Samples()
    rates, wall_rates, selections, explanations, used_seeds = [], [], [], [], []
    sim_seed = first_seed
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if used_seeds and (
            (elapsed >= seconds and samples.enough()) or elapsed >= MAX_MEASURE_SECONDS
        ):
            break
        t0, c0 = time.perf_counter(), time.process_time()
        records, stats = grid_pipeline(sim_seed, registry, reasoner, null, work, tally)
        rates.append(len(records) / (time.process_time() - c0))
        wall_rates.append(len(records) / (time.perf_counter() - t0))
        selections.append(stats.selection_accuracy)
        explanations.append(stats.means["explanation_accuracy"])
        grid_answers(sim_seed, records, order, registry, reasoner, null, tally, samples)
        used_seeds.append(sim_seed)
        sim_seed = next(seeds)

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "grid_samples_per_s": (statistics.median(rates), "1/s"),
        **samples.metrics(),
        **cost_metrics(costs),
        **accuracy_metrics(
            sum(selections) / len(selections),
            {m: sum(e[m] for e in explanations) / len(explanations) for m in METHODS},
        ),
    }
    meta = {
        "sim_seeds": used_seeds,
        "input": sizes,
        **samples.meta(),
        "grid_rates_per_cpu_s": rates,
        "grid_rates_per_wall_s": wall_rates,
        "setup_probes_s": setup,
        "measured_s": time.perf_counter() - start,
    }
    return Result(metrics, tally, meta)


def run_eval_grid_traced(seed: int, seconds: float, root: Path, work: Path, spans_path: Path) -> Result:
    registry = build_default_registry()
    reasoner = make_reasoner()
    tracer = Tracer()
    traced_reg = traced_registry(tracer, registry)
    traced_reasoner = TracedReasoner(tracer, reasoner)
    null = NullTracer()
    order = request_order(seed)
    seeds = sim_seeds(seed)
    tally = Tally()
    sink = Samples()
    plain_total = traced_total = 0.0
    used_seeds = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not used_seeds:
        sim_seed = next(seeds)
        t0 = time.perf_counter()
        plain, _ = grid_pipeline(sim_seed, registry, reasoner, null, work, tally)
        plain_total += time.perf_counter() - t0
        plain_total += grid_answers(sim_seed, plain, order, registry, reasoner, null, tally, sink)
        t0 = time.perf_counter()
        traced, _ = grid_pipeline(sim_seed, traced_reg, traced_reasoner, tracer, work, tally)
        traced_total += time.perf_counter() - t0
        traced_total += grid_answers(
            sim_seed, traced, order, traced_reg, traced_reasoner, tracer, tally, sink
        )
        if _record_keys(traced) != _record_keys(plain):
            tally.gate_failures.append(f"seed {sim_seed}: traced records differ from untraced")
        used_seeds.append(sim_seed)

    # the batch reads no trace file; read this seed's traces once so the
    # trace layer is measured on this workload too
    for s, v in TRACE_KEYS:
        path = work / f"s{s:02d}v{v}.jsonl"
        write_trace(generate_trace(s, v, used_seeds[-1]), path)
        with tracer.span("trace.read") as read:
            read.attrs["events"] = len(read_trace(path).events)

    metrics = layer_metrics(tracer.spans, registry.ids())
    metrics["tracing.overhead_pct"] = (100.0 * (traced_total / plain_total - 1.0), "%")
    meta = {
        "sim_seeds": used_seeds,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(root)),
    }
    tracer.write(spans_path, {"workload": "eval_grid", "seed": seed})
    return Result(metrics, tally, meta)


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, work: Path) -> Result:
    spans_path = work.parent / "spans" / f"{workload}-seed{seed}.jsonl"
    if workload == "eval_grid":
        if trace:
            return run_eval_grid_traced(seed, seconds, root, work, spans_path)
        return run_eval_grid(seed, seconds, root, work)
    padded = workload == "ask_long"
    if trace:
        return run_ask_traced(workload, seed, seconds, root, work, padded, spans_path)
    return run_ask(seed, seconds, root, work, padded)
