"""Evaluation grid runner, annotation handling, metrics and reports."""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .baselines import explain_all_components, explain_end_to_end
from .explainers import ROBOT_MODULES, build_default_registry
from .framework import ANSWER_ERRORS, ExplainerRegistry, explain_hexar
from .reasoner import TextReasoner
from .scenarios import CONTRADICTED_FACTS, get_scenario, read_csv_rows
from .simulate import generate_trace
from .stats import cochran_q, holm_adjust, mcnemar, sample_variance
from .trace import Explanation, Query, Trace

METHODS = ("hexar", "end_to_end", "all_components")

FAILURE_REPLY = "I do not have enough information to answer this question."


@dataclass(frozen=True)
class EvalRecord:
    sample_id: str
    scenario_id: int
    task_variant: int
    query_index: int
    method: str
    explanation_text: str
    produced_by: str
    reasoner_calls: int
    wall_time: float
    selected_ok: bool | None  # hexar only


@dataclass(frozen=True)
class AnnotationRow:
    sample_id: str
    annotator_id: int
    root_cause: int
    incorrect_facts: int

    def __post_init__(self) -> None:
        if self.annotator_id not in (1, 2, 3):
            raise ValueError(f"annotator_id must be 1..3, got {self.annotator_id}")
        if self.root_cause not in (0, 1) or self.incorrect_facts not in (0, 1):
            raise ValueError("annotation labels must be binary")


@dataclass(frozen=True)
class MetricRow:
    sample_id: str
    root_cause_identified: int
    incorrect_facts_present: int
    explanation_accuracy: int


@dataclass(frozen=True)
class StatsReport:
    methods: tuple[str, ...]
    means: dict[str, dict[str, float]]        # metric -> method -> mean
    variances: dict[str, dict[str, float]]    # metric -> method -> sample variance
    cochran: dict[str, tuple[float, int, float]]
    mcnemar_pairs: dict[str, list[tuple[str, str, float, float, float]]]
    selection_accuracy: float | None
    runtime: dict[str, tuple[float, float]]   # method -> (mean, sample variance)
    call_counts: dict[str, float]             # method -> mean reasoner calls
    disagreement_rate: float | None = None


METRIC_NAMES = ("root_cause_identified", "incorrect_facts_present", "explanation_accuracy")


def _sample_id(scenario_id: int, variant: int, query_index: int, method: str) -> str:
    return f"s{scenario_id:02d}v{variant}q{query_index}_{method}"


def answer(
    method: str,
    text: str,
    trace: Trace,
    registry: ExplainerRegistry,
    reasoner: TextReasoner,
) -> Explanation:
    """Answer the question ``text``, asked at the end of ``trace``, with ``method``.

    Raises one of ``ANSWER_ERRORS`` when the design expects no answer.
    """
    query = Query(text=text, asked_at=trace.events[-1].ts if trace.events else 0.0)
    if method == "hexar":
        return explain_hexar(query, trace, registry, reasoner)
    if method == "end_to_end":
        return explain_end_to_end(query, trace, reasoner, registry)
    if method == "all_components":
        return explain_all_components(query, trace, registry, reasoner)
    raise ValueError(f"unknown method {method!r}")


def run_grid(
    methods: list[str],
    triples: list[tuple[int, int, int]],
    reasoner: TextReasoner,
    seed: int,
    registry: ExplainerRegistry | None = None,
    jobs: int = 1,
) -> list[EvalRecord]:
    """Explain every (scenario, variant, query) point with every method.

    One trace per (scenario, variant) is generated and shared by all
    methods and queries. A per-sample failure the design expects (one of
    ``ANSWER_ERRORS``) yields a flagged record with an empty explanation
    instead of aborting the run; any other exception is a bug and propagates.
    """
    registry = registry or build_default_registry()
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")

    traces: dict[tuple[int, int], Trace] = {}
    for scenario_id, variant, _ in triples:
        key = (scenario_id, variant)
        if key not in traces:
            traces[key] = generate_trace(scenario_id, variant, seed)

    work = [
        (scenario_id, variant, query_index, method)
        for scenario_id, variant, query_index in sorted(set(triples))
        for method in methods
    ]

    def run_one(item: tuple[int, int, int, str]) -> EvalRecord:
        scenario_id, variant, query_index, method = item
        spec = get_scenario(scenario_id)
        trace = traces[(scenario_id, variant)]
        sample = _sample_id(scenario_id, variant, query_index, method)
        try:
            explanation = answer(method, spec.queries[query_index - 1], trace, registry, reasoner)
        except ANSWER_ERRORS as exc:
            return EvalRecord(
                sample_id=sample,
                scenario_id=scenario_id,
                task_variant=variant,
                query_index=query_index,
                method=method,
                explanation_text="",
                produced_by=f"error:{type(exc).__name__}",
                reasoner_calls=0,
                wall_time=0.0,
                selected_ok=False if method == "hexar" else None,
            )
        selected_ok = None
        if method == "hexar":
            expected = registry.explainer_for_module(spec.ground_truth.relevant_module)
            selected_ok = explanation.produced_by == expected
        return EvalRecord(
            sample_id=sample,
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

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run_one, work))
    else:
        records = [run_one(item) for item in work]
    return records


def auto_annotate(records: list[EvalRecord]) -> list[AnnotationRow]:
    """Machine annotation from ground truth: three concurring annotators.

    Root cause is credited when the scenario's root-cause phrase occurs in
    the explanation; incorrect facts are flagged when any phrase from the
    scenario's contradicted-facts list occurs.
    """
    rows: list[AnnotationRow] = []
    for record in records:
        spec = get_scenario(record.scenario_id)
        text = record.explanation_text.lower()
        rci = int(bool(text) and spec.ground_truth.root_cause.lower() in text)
        bad = int(
            bool(text)
            and any(fact.lower() in text for fact in CONTRADICTED_FACTS[record.scenario_id])
        )
        for annotator in (1, 2, 3):
            rows.append(AnnotationRow(record.sample_id, annotator, rci, bad))
    return rows


def majority_vote(rows: list[AnnotationRow]) -> tuple[list[MetricRow], float]:
    """Merge annotator labels per sample; returns metrics and disagreement rate.

    Disagreement rate is the fraction of (sample, metric) cells lacking
    unanimity among the three annotators.
    """
    by_sample: dict[str, list[AnnotationRow]] = {}
    for row in rows:
        by_sample.setdefault(row.sample_id, []).append(row)

    metrics: list[MetricRow] = []
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
        metrics.append(
            MetricRow(
                sample_id=sample_id,
                root_cause_identified=rci,
                incorrect_facts_present=bad,
                explanation_accuracy=int(rci == 1 and bad == 0),
            )
        )
    return metrics, (disagreements / cells if cells else 0.0)


def compute_stats(records: list[EvalRecord], metrics: list[MetricRow]) -> StatsReport:
    """Per-method means, Cochran's Q, pairwise McNemar with Holm adjustment."""
    if not records:
        raise ValueError("no evaluation records")
    by_sample = {m.sample_id: m for m in metrics}
    methods = tuple(m for m in METHODS if any(r.method == m for r in records))

    def metric_value(metric: str, row: MetricRow) -> int:
        return getattr(row, metric)

    # matched grid points where every method has an annotated record
    grid: dict[tuple[int, int, int], dict[str, MetricRow]] = {}
    for record in records:
        if record.sample_id not in by_sample:
            raise ValueError(f"record {record.sample_id} has no metric row")
        key = (record.scenario_id, record.task_variant, record.query_index)
        grid.setdefault(key, {})[record.method] = by_sample[record.sample_id]
    matched = [cell for _, cell in sorted(grid.items()) if all(m in cell for m in methods)]

    means: dict[str, dict[str, float]] = {}
    variances: dict[str, dict[str, float]] = {}
    cochran: dict[str, tuple[float, int, float]] = {}
    pairs: dict[str, list[tuple[str, str, float, float, float]]] = {}
    for metric in METRIC_NAMES:
        means[metric] = {}
        variances[metric] = {}
        for method in methods:
            values = [
                float(metric_value(metric, by_sample[r.sample_id]))
                for r in records
                if r.method == method
            ]
            means[metric][method] = sum(values) / len(values)
            variances[metric][method] = sample_variance(values)
        if len(methods) >= 2 and matched:
            matrix = [
                [metric_value(metric, cell[m]) for m in methods] for cell in matched
            ]
            cochran[metric] = cochran_q(matrix)
            raw: list[tuple[str, str, float, float]] = []
            for i in range(len(methods)):
                for j in range(i + 1, len(methods)):
                    pair_matrix = [[row[i], row[j]] for row in matrix]
                    stat, p = mcnemar(pair_matrix)
                    raw.append((methods[i], methods[j], stat, p))
            adjusted = holm_adjust([p for _, _, _, p in raw])
            pairs[metric] = [
                (a, b, stat, p, adj) for (a, b, stat, p), adj in zip(raw, adjusted)
            ]

    hexar_records = [r for r in records if r.method == "hexar"]
    selection_accuracy = None
    if hexar_records:
        selection_accuracy = sum(1 for r in hexar_records if r.selected_ok) / len(hexar_records)

    runtime = {}
    call_counts = {}
    for method in methods:
        times = [r.wall_time for r in records if r.method == method]
        runtime[method] = (sum(times) / len(times), sample_variance(times))
        calls = [r.reasoner_calls for r in records if r.method == method]
        call_counts[method] = sum(calls) / len(calls)

    return StatsReport(
        methods=methods,
        means=means,
        variances=variances,
        cochran=cochran,
        mcnemar_pairs=pairs,
        selection_accuracy=selection_accuracy,
        runtime=runtime,
        call_counts=call_counts,
    )


# -- CSV interfaces ---------------------------------------------------------

_RESULTS_COLUMNS = [
    "sample_id",
    "scenario_id",
    "task_variant",
    "query_index",
    "method",
    "produced_by",
    "selected_ok",
    "reasoner_calls",
    "wall_time",
    "explanation_text",
]


def write_results_csv(records: list[EvalRecord], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RESULTS_COLUMNS)
        for r in sorted(records, key=lambda r: r.sample_id):
            writer.writerow(
                [
                    r.sample_id,
                    r.scenario_id,
                    r.task_variant,
                    r.query_index,
                    r.method,
                    r.produced_by,
                    "" if r.selected_ok is None else int(r.selected_ok),
                    r.reasoner_calls,
                    f"{r.wall_time:.6f}",
                    r.explanation_text,
                ]
            )


def read_results_csv(path: str | Path) -> list[EvalRecord]:
    records = [
        EvalRecord(
            sample_id=row["sample_id"],
            scenario_id=int(row["scenario_id"]),
            task_variant=int(row["task_variant"]),
            query_index=int(row["query_index"]),
            method=row["method"],
            explanation_text=row["explanation_text"],
            produced_by=row["produced_by"],
            reasoner_calls=int(row["reasoner_calls"]),
            wall_time=float(row["wall_time"]),
            selected_ok=None if row["selected_ok"] == "" else bool(int(row["selected_ok"])),
        )
        for row in read_csv_rows(path, _RESULTS_COLUMNS, "results")
    ]
    if not records:
        raise ValueError("empty results file")
    return records


_ANNOTATION_COLUMNS = ["sample_id", "annotator_id", "root_cause", "incorrect_facts"]


def write_annotations_csv(rows: list[AnnotationRow], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_ANNOTATION_COLUMNS)
        for row in sorted(rows, key=lambda r: (r.sample_id, r.annotator_id)):
            writer.writerow([row.sample_id, row.annotator_id, row.root_cause, row.incorrect_facts])


def read_annotations_csv(path: str | Path) -> list[AnnotationRow]:
    return [
        AnnotationRow(
            sample_id=row["sample_id"],
            annotator_id=int(row["annotator_id"]),
            root_cause=int(row["root_cause"]),
            incorrect_facts=int(row["incorrect_facts"]),
        )
        for row in read_csv_rows(path, _ANNOTATION_COLUMNS, "annotation")
    ]


# -- report rendering -------------------------------------------------------

def render_report(
    records: list[EvalRecord],
    metrics: list[MetricRow],
    stats: StatsReport,
    out_dir: str | Path,
) -> tuple[Path, Path]:
    """Write the Markdown report and the machine-readable stats CSV."""
    if not records:
        raise ValueError("cannot render a report from zero records")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_sample = {m.sample_id: m for m in metrics}

    lines: list[str] = ["# Evaluation report", ""]

    lines += ["## Mean scores by metric and method", ""]
    header = "| metric | " + " | ".join(stats.methods) + " |"
    lines += [header, "|" + "---|" * (len(stats.methods) + 1)]
    for metric in METRIC_NAMES:
        cells = [
            f"{stats.means[metric][m]:.3f} (s²={stats.variances[metric][m]:.3f})"
            for m in stats.methods
        ]
        lines.append(f"| {metric} | " + " | ".join(cells) + " |")
    lines.append("")

    lines += ["## Explanation accuracy by robot module", ""]
    lines += ["| module | n | " + " | ".join(stats.methods) + " |",
              "|" + "---|" * (len(stats.methods) + 2)]
    for module in ROBOT_MODULES:
        row_cells = []
        n_records = 0
        for method in stats.methods:
            values = [
                by_sample[r.sample_id].explanation_accuracy
                for r in records
                if r.method == method
                and get_scenario(r.scenario_id).ground_truth.relevant_module == module
            ]
            n_records = max(n_records, len(values))
            row_cells.append(f"{sum(values) / len(values):.3f}" if values else "-")
        lines.append(f"| {module} | {n_records} | " + " | ".join(row_cells) + " |")
    lines.append("")

    lines += ["## Statistics", ""]
    for metric in METRIC_NAMES:
        if metric in stats.cochran:
            q, df, p = stats.cochran[metric]
            lines.append(f"- Cochran's Q ({metric}): Q={q:.4f}, df={df}, p={p:.6g}")
    lines.append("")
    for metric, pair_rows in stats.mcnemar_pairs.items():
        lines.append(f"### Pairwise McNemar: {metric}")
        lines.append("")
        lines.append("| pair | statistic | raw p | Holm-adjusted p |")
        lines.append("|---|---|---|---|")
        for a, b, stat, p, adj in pair_rows:
            lines.append(f"| {a} vs {b} | {stat:.4f} | {p:.6g} | {adj:.6g} |")
        lines.append("")

    lines += ["## Runtime and reasoner calls", ""]
    lines.append("| method | mean wall time (s) | s² | mean reasoner calls |")
    lines.append("|---|---|---|---|")
    for method in stats.methods:
        mean, var = stats.runtime[method]
        lines.append(f"| {method} | {mean:.4f} | {var:.4f} | {stats.call_counts[method]:.2f} |")
    lines.append("")

    if stats.selection_accuracy is not None:
        n = sum(1 for r in records if r.method == "hexar")
        ok = round(stats.selection_accuracy * n)
        lines += [
            "## Component explainer selection accuracy",
            "",
            f"- hexar selected the matching explainer on {ok}/{n} samples "
            f"({stats.selection_accuracy:.2%})",
            "",
        ]
    if stats.disagreement_rate is not None:
        lines.append(f"- Annotator disagreement rate: {stats.disagreement_rate:.2%}")
        lines.append("")

    lines += [
        "---",
        "Variances shown for binary metrics are sample variances of the 0/1 "
        "values; for a binary variable that quantity is bounded by ~0.25.",
        "",
    ]

    report_path = out_dir / "report.md"
    report_path.write_text("\n".join(lines), encoding="utf-8")

    stats_path = out_dir / "stats.csv"
    with open(stats_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["record_type", "metric", "method_or_pair", "value_1", "value_2", "value_3"])
        for metric in METRIC_NAMES:
            for method in stats.methods:
                writer.writerow(
                    [
                        "mean_variance",
                        metric,
                        method,
                        f"{stats.means[metric][method]:.6f}",
                        f"{stats.variances[metric][method]:.6f}",
                        "",
                    ]
                )
            if metric in stats.cochran:
                q, df, p = stats.cochran[metric]
                writer.writerow(["cochran_q", metric, "", f"{q:.6f}", df, f"{p:.6g}"])
            for a, b, stat, p, adj in stats.mcnemar_pairs.get(metric, []):
                writer.writerow(
                    ["mcnemar", metric, f"{a}|{b}", f"{stat:.6f}", f"{p:.6g}", f"{adj:.6g}"]
                )
        for method in stats.methods:
            mean, var = stats.runtime[method]
            writer.writerow(
                ["runtime", "", method, f"{mean:.6f}", f"{var:.6f}", f"{stats.call_counts[method]:.2f}"]
            )
        if stats.selection_accuracy is not None:
            writer.writerow(
                ["selection_accuracy", "", "hexar", f"{stats.selection_accuracy:.6f}", "", ""]
            )
    return report_path, stats_path
