"""In-memory spans recorded around calls into hexar, and the per-layer metrics.

Spans come only from this package: the benchmark opens them around the
public entry points it calls, around each explainer of a registry it builds
through ``ExplainerRegistry.register``, and around each completion of the
reasoner it injects. No module of hexar is patched.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from hexar.evaluation import METHODS
from hexar.framework import ComponentExplainer, ExplainerRegistry
from hexar.reasoner import ReasonerRequest, ReasonerResponse, TextReasoner

from .summary import self_time


@dataclass
class Span:
    id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float = 0.0
    error: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``write`` saves them when the run ends.

    A span's parent is the innermost span open on its thread. Spans opened
    on a thread with none open (the pool threads of ``all_components``)
    take the innermost span open on the main thread, which is blocked in
    the call that started them.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            record = Span(len(self.spans), parent, self.request, name, 0.0, attrs=attrs)
            self.spans.append(record)
        stack.append(record.id)
        record.start = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def next_request(self) -> None:
        self.request += 1

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "parent": s.parent,
                            "request": s.request,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "error": s.error,
                            **s.attrs,
                        }
                    )
                    + "\n"
                )


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield None

    def next_request(self) -> None:
        pass


class TracedReasoner(TextReasoner):
    """Records a ``reasoner`` span, with prompt size, around each completion."""

    def __init__(self, tracer: Tracer, inner: TextReasoner) -> None:
        self.tracer = tracer
        self.inner = inner

    def complete(self, request: ReasonerRequest) -> ReasonerResponse:
        chars = len(request.system_prompt) + len(request.user_prompt)
        with self.tracer.span("reasoner", chars=chars) as record:
            response = self.inner.complete(request)
            record.attrs["modelled_s"] = response.latency
        return response


class CostMeter(TextReasoner):
    """Sums the modelled latency of completed calls; safe across pool threads."""

    def __init__(self, inner: TextReasoner) -> None:
        self.inner = inner
        self.seconds = 0.0
        self._lock = threading.Lock()

    def complete(self, request: ReasonerRequest) -> ReasonerResponse:
        response = self.inner.complete(request)
        with self._lock:
            self.seconds += response.latency
        return response

    def take(self) -> float:
        with self._lock:
            seconds, self.seconds = self.seconds, 0.0
        return seconds


def _timed_explain_fn(tracer: Tracer, explainer_id: str, explain_fn):
    def explain(query, context, events, reasoner):
        with tracer.span(f"explainer.{explainer_id}"):
            return explain_fn(query, context, events, reasoner)

    return explain


def traced_registry(tracer: Tracer, base: ExplainerRegistry) -> ExplainerRegistry:
    """Re-register every explainer of ``base`` with an ``explain_fn`` that records a span.

    Ids, subscribed sources, capabilities, modules and order are unchanged,
    so selection and every prompt built from the registry stay the same.
    """
    modules: dict[str, list[str]] = {}
    for module, ids in base.entries.items():
        for explainer_id in ids:
            modules.setdefault(explainer_id, []).append(module)
    registry = ExplainerRegistry()
    for explainer in base.explainers.values():
        registry.register(
            ComponentExplainer(
                id=explainer.id,
                subscribed_sources=explainer.subscribed_sources,
                explain_fn=_timed_explain_fn(tracer, explainer.id, explainer.explain_fn),
                capability=explainer.capability,
            ),
            modules.get(explainer.id, []),
        )
    return registry


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[Span], explainer_ids: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each as (value, unit), from one run's spans.

    Explainer and reasoner figures count only spans inside an ``answer.*``
    span; those recorded inside ``run_grid`` feed its self time alone.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def own(s: Span) -> float:
        return self_time(s.start, s.end, [(c.start, c.end) for c in children.get(s.id, [])])

    def answer_of(s: Span) -> Span | None:
        node = s
        while node.parent is not None:
            node = by_id[node.parent]
            if node.name.startswith("answer."):
                return node
        return None

    named: dict[str, list[Span]] = {}
    for s in spans:
        if s.name.startswith(("explainer.", "reasoner")) and answer_of(s) is None:
            continue
        named.setdefault(s.name, []).append(s)

    out: dict[str, tuple[float, str]] = {}
    out["simulate.ms_per_trace"] = (
        1e3 * _mean([s.duration for s in named.get("simulate.generate_trace", [])]), "ms")
    reads = named.get("trace.read", [])
    out["trace.read_ms_per_call"] = (1e3 * _mean([s.duration for s in reads]), "ms")
    out["trace.events_per_read"] = (_mean([s.attrs.get("events", 0) for s in reads]), "count")

    hexar_answers = named.get("answer.hexar", [])
    out["framework.self_ms.hexar"] = (1e3 * _mean([own(s) for s in hexar_answers]), "ms")
    heuristic = sum(
        1 for s in hexar_answers
        if not any(c.name == "reasoner" for c in children.get(s.id, []))
    )
    out["framework.stage_share.failure_heuristic"] = (
        heuristic / len(hexar_answers) if hexar_answers else 0.0, "ratio")

    for explainer_id in explainer_ids:
        calls = named.get(f"explainer.{explainer_id}", [])
        out[f"explainer.{explainer_id}.ms_per_call"] = (
            1e3 * _mean([s.duration for s in calls]), "ms")
        out[f"explainer.{explainer_id}.calls"] = (float(len(calls)), "count")
    triggered = [
        c for a in named.get("answer.all_components", []) for c in children.get(a.id, [])
        if c.name.startswith("explainer.")
    ]
    answered = sum(1 for c in triggered if not c.error)
    out["explainer.answered_ratio.all_components"] = (
        answered / len(triggered) if triggered else 0.0, "ratio")

    calls = named.get("reasoner", [])
    out["reasoner.self_ms_per_call"] = (1e3 * _mean([own(s) for s in calls]), "ms")
    per_method_calls = {m: 0 for m in METHODS}
    per_method_chars = {m: 0 for m in METHODS}
    for s in calls:
        method = answer_of(s).name[len("answer."):]
        per_method_calls[method] += 1
        per_method_chars[method] += s.attrs["chars"]
    for method in METHODS:
        n = len(named.get(f"answer.{method}", []))
        out[f"reasoner.calls_per_answer.{method}"] = (
            per_method_calls[method] / n if n else 0.0, "count")
        out[f"reasoner.prompt_chars_per_answer.{method}"] = (
            per_method_chars[method] / n if n else 0.0, "count")
    out["reasoner.refusals"] = (float(sum(1 for s in calls if s.error == "NoMatchError")), "count")

    for method in ("end_to_end", "all_components"):
        out[f"baselines.{method}.self_ms"] = (
            1e3 * _mean([own(s) for s in named.get(f"answer.{method}", [])]), "ms")
    out["evaluation.run_grid_self_ms"] = (
        1e3 * _mean([own(s) for s in named.get("evaluation.run_grid", [])]), "ms")
    out["evaluation.score_ms"] = (
        1e3 * _mean([s.duration for s in named.get("evaluation.score", [])]), "ms")
    out["evaluation.report_ms"] = (
        1e3 * _mean([s.duration for s in named.get("evaluation.report", [])]), "ms")
    return out
