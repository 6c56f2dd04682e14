"""Evaluation grid runner, annotation handling, metrics and reports."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

from .baselines import explain_all_components, explain_end_to_end
from .explainers import ROBOT_MODULES, build_default_registry
from .framework import ANSWER_ERRORS, ExplainerRegistry, ReasonerMeter, explain_hexar
from .reasoner import TextReasoner
from .scenarios import check_grid_point, get_scenario, read_csv_rows
from .simulate import generate_trace
from .stats import cochran_q, holm_adjust, mcnemar, sample_variance
from .trace import Explanation, Query, Trace

METHODS = ("hexar", "end_to_end", "all_components")

FAILURE_REPLY = "I do not have enough information to answer this question."


# The three row types below are built hundreds of times per grid, so each has a
# hand-written ``__init__`` (as ``trace.Event`` has): it sets the frozen fields
# through the slot descriptors' setters, one C call each, where the generated
# ``__init__`` goes through ``object.__setattr__`` by name.


def _slot_setters(cls: type) -> tuple:
    """The setter of each field's slot, in field order."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


@dataclass(frozen=True, init=False, slots=True)
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

    def __init__(
        self,
        sample_id: str,
        scenario_id: int,
        task_variant: int,
        query_index: int,
        method: str,
        explanation_text: str,
        produced_by: str,
        reasoner_calls: int,
        wall_time: float,
        selected_ok: bool | None,
    ) -> None:
        _set_sample_id(self, sample_id)
        _set_scenario_id(self, scenario_id)
        _set_task_variant(self, task_variant)
        _set_query_index(self, query_index)
        _set_method(self, method)
        _set_explanation_text(self, explanation_text)
        _set_produced_by(self, produced_by)
        _set_reasoner_calls(self, reasoner_calls)
        _set_wall_time(self, wall_time)
        _set_selected_ok(self, selected_ok)


(
    _set_sample_id,
    _set_scenario_id,
    _set_task_variant,
    _set_query_index,
    _set_method,
    _set_explanation_text,
    _set_produced_by,
    _set_reasoner_calls,
    _set_wall_time,
    _set_selected_ok,
) = _slot_setters(EvalRecord)


@dataclass(frozen=True, init=False, slots=True)
class AnnotationRow:
    sample_id: str
    annotator_id: int
    root_cause: int
    incorrect_facts: int

    def __init__(
        self, sample_id: str, annotator_id: int, root_cause: int, incorrect_facts: int
    ) -> None:
        if annotator_id not in (1, 2, 3):
            raise ValueError(f"annotator_id must be 1..3, got {annotator_id}")
        if root_cause not in (0, 1) or incorrect_facts not in (0, 1):
            raise ValueError("annotation labels must be binary")
        _set_annotated_sample(self, sample_id)
        _set_annotator_id(self, annotator_id)
        _set_root_cause(self, root_cause)
        _set_incorrect_facts(self, incorrect_facts)


(
    _set_annotated_sample,
    _set_annotator_id,
    _set_root_cause,
    _set_incorrect_facts,
) = _slot_setters(AnnotationRow)


@dataclass(frozen=True, init=False, slots=True)
class MetricRow:
    sample_id: str
    root_cause_identified: int
    incorrect_facts_present: int
    explanation_accuracy: int

    def __init__(
        self,
        sample_id: str,
        root_cause_identified: int,
        incorrect_facts_present: int,
        explanation_accuracy: int,
    ) -> None:
        _set_metric_sample(self, sample_id)
        _set_root_cause_identified(self, root_cause_identified)
        _set_incorrect_facts_present(self, incorrect_facts_present)
        _set_explanation_accuracy(self, explanation_accuracy)


(
    _set_metric_sample,
    _set_root_cause_identified,
    _set_incorrect_facts_present,
    _set_explanation_accuracy,
) = _slot_setters(MetricRow)


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
    """Explain every distinct (scenario, variant, query) point with every distinct method.

    One trace per (scenario, variant) is generated and shared by all
    methods and queries. A per-sample failure the design expects (one of
    ``ANSWER_ERRORS``) yields a flagged record with an empty explanation,
    billed with the reasoner calls it made, instead of aborting the run; any
    other exception is a bug and propagates.
    """
    registry = registry or build_default_registry()
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1: {jobs}")
    # a repeated method, like a repeated grid point, is answered once
    methods = list(dict.fromkeys(methods))

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
        meter = ReasonerMeter(reasoner)  # bills a failed answer's calls too
        try:
            explanation = answer(method, spec.queries[query_index - 1], trace, registry, meter)
        except ANSWER_ERRORS as exc:
            text, produced_by = "", f"error:{type(exc).__name__}"
            calls, wall_time = meter.calls, 0.0
            selected_ok = False
        else:
            text, produced_by = explanation.text, explanation.produced_by
            calls, wall_time = explanation.reasoner_calls, explanation.wall_time
            selected_ok = method == "hexar" and produced_by == registry.explainer_for_module(
                spec.ground_truth.relevant_module
            )
        return EvalRecord(
            _sample_id(scenario_id, variant, query_index, method),
            scenario_id,
            variant,
            query_index,
            method,
            text,
            produced_by,
            calls,
            wall_time,
            selected_ok if method == "hexar" else None,
        )

    if jobs > 1:
        # imported here: concurrent.futures (and the logging it loads) would
        # otherwise cost every import of hexar
        from concurrent.futures import ThreadPoolExecutor

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
    # (root-cause phrase, contradicted-fact phrases) per scenario, lower-cased
    phrases: dict[int, tuple[str, tuple[str, ...]]] = {}
    rows: list[AnnotationRow] = []
    for record in records:
        scenario_id = record.scenario_id
        if scenario_id not in phrases:
            spec = get_scenario(scenario_id)
            phrases[scenario_id] = (
                spec.ground_truth.root_cause.lower(),
                tuple(fact.lower() for fact in spec.contradicted_facts),
            )
        text = record.explanation_text.lower()
        rci = bad = 0
        if text:
            root_cause, contradicted = phrases[scenario_id]
            rci = int(root_cause in text)
            for fact in contradicted:
                if fact in text:
                    bad = 1
                    break
        sample_id = record.sample_id
        rows += (
            AnnotationRow(sample_id, 1, rci, bad),
            AnnotationRow(sample_id, 2, rci, bad),
            AnnotationRow(sample_id, 3, rci, bad),
        )
    return rows


def majority_vote(rows: list[AnnotationRow]) -> tuple[list[MetricRow], float]:
    """Merge annotator labels per sample; returns metrics and disagreement rate.

    Disagreement rate is the fraction of (sample, metric) cells lacking
    unanimity among the three annotators.
    """
    by_sample: dict[str, list[AnnotationRow]] = {}
    for row in rows:
        group = by_sample.get(row.sample_id)
        if group is None:
            by_sample[row.sample_id] = [row]
        else:
            group.append(row)

    metrics: list[MetricRow] = []
    disagreements = 0
    for sample_id in sorted(by_sample):
        group = by_sample[sample_id]
        if len(group) != 3 or {r.annotator_id for r in group} != {1, 2, 3}:
            raise ValueError(f"sample {sample_id} lacks exactly three annotators")
        first, second, third = group
        # binary labels: a vote sum of 1 or 2 is a split cell
        rci_votes = first.root_cause + second.root_cause + third.root_cause
        bad_votes = first.incorrect_facts + second.incorrect_facts + third.incorrect_facts
        disagreements += (0 < rci_votes < 3) + (0 < bad_votes < 3)
        rci = int(rci_votes >= 2)
        bad = int(bad_votes >= 2)
        metrics.append(MetricRow(sample_id, rci, bad, int(rci == 1 and bad == 0)))
    cells = 2 * len(metrics)
    return metrics, (disagreements / cells if cells else 0.0)


def compute_stats(records: list[EvalRecord], metrics: list[MetricRow]) -> StatsReport:
    """Per-method means, Cochran's Q, pairwise McNemar with Holm adjustment."""
    if not records:
        raise ValueError("no evaluation records")
    by_sample = {m.sample_id: m for m in metrics}

    # one pass: the records and metric rows of each method, and the grid points
    records_of: dict[str, list[EvalRecord]] = {}
    rows_of: dict[str, list[MetricRow]] = {}
    grid: dict[tuple[int, int, int], dict[str, MetricRow]] = {}
    for record in records:
        row = by_sample.get(record.sample_id)
        if row is None:
            raise ValueError(f"record {record.sample_id} has no metric row")
        method = record.method
        if method in rows_of:
            records_of[method].append(record)
            rows_of[method].append(row)
        else:
            records_of[method] = [record]
            rows_of[method] = [row]
        key = (record.scenario_id, record.task_variant, record.query_index)
        cell = grid.get(key)
        if cell is None:
            grid[key] = {method: row}
        else:
            cell[method] = row
    methods = tuple(m for m in METHODS if m in rows_of)
    # each method's rows at the matched grid points, where every method has one
    matched = [cell for _, cell in sorted(grid.items()) if all(m in cell for m in methods)]
    matched_rows = [[cell[m] for cell in matched] for m in methods]

    means: dict[str, dict[str, float]] = {}
    variances: dict[str, dict[str, float]] = {}
    cochran: dict[str, tuple[float, int, float]] = {}
    pairs: dict[str, list[tuple[str, str, float, float, float]]] = {}
    for metric in METRIC_NAMES:
        value_of = attrgetter(metric)
        means[metric] = {}
        variances[metric] = {}
        for method in methods:
            values = list(map(float, map(value_of, rows_of[method])))
            means[metric][method] = sum(values) / len(values)
            variances[metric][method] = sample_variance(values)
        if len(methods) >= 2 and matched:
            columns = [list(map(value_of, rows)) for rows in matched_rows]
            cochran[metric] = cochran_q(list(zip(*columns)))
            raw: list[tuple[str, str, float, float]] = []
            for i in range(len(methods)):
                for j in range(i + 1, len(methods)):
                    stat, p = mcnemar(list(zip(columns[i], columns[j])))
                    raw.append((methods[i], methods[j], stat, p))
            adjusted = holm_adjust([p for _, _, _, p in raw])
            pairs[metric] = [
                (a, b, stat, p, adj) for (a, b, stat, p), adj in zip(raw, adjusted)
            ]

    selection_accuracy = None
    if "hexar" in records_of:
        hexar = records_of["hexar"]
        selection_accuracy = sum(1 for r in hexar if r.selected_ok) / len(hexar)

    runtime = {}
    call_counts = {}
    for method in methods:
        group = records_of[method]
        times = [r.wall_time for r in group]
        runtime[method] = (sum(times) / len(times), sample_variance(times))
        call_counts[method] = sum(r.reasoner_calls for r in group) / len(group)

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


def _csv_field(text: str) -> str:
    r"""A string field as the ``csv`` module's default (``excel``) dialect writes it.

    The field is quoted when it holds ``,``, ``"``, ``\r`` or ``\n``, and each
    ``"`` in it is doubled; any other field is written as it is.
    """
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    if "," in text or "\n" in text or "\r" in text:
        return '"' + text + '"'
    return text


def write_results_csv(records: list[EvalRecord], path: str | Path) -> None:
    r"""One row per record in ``sample_id`` order, under a header of ``_RESULTS_COLUMNS``.

    The bytes are those of ``csv.writer`` in the default dialect: UTF-8,
    ``\r\n`` after every row, string fields quoted by :func:`_csv_field`.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_RESULTS_COLUMNS) + "\r\n")
        fh.writelines(
            f"{_csv_field(r.sample_id)},{r.scenario_id},{r.task_variant},{r.query_index},"
            f"{_csv_field(r.method)},{_csv_field(r.produced_by)},"
            f"{'' if r.selected_ok is None else int(r.selected_ok)},"
            f"{r.reasoner_calls},{r.wall_time:.6f},{_csv_field(r.explanation_text)}\r\n"
            for r in sorted(records, key=attrgetter("sample_id"))
        )


def read_results_csv(path: str | Path) -> list[EvalRecord]:
    """Records of a results CSV as ``write_results_csv`` writes it.

    A field that does not parse, an unknown method, a point off the
    evaluation grid, a ``sample_id`` that does not match the row's fields
    or one that an earlier row has already, a negative or non-finite cost
    or a ``selected_ok`` that is not ``0`` or ``1`` for hexar and empty for
    the baselines raises ``ValueError`` naming the file and the sample.
    """
    records = []
    seen: set[str] = set()
    for _, row in read_csv_rows(path, _RESULTS_COLUMNS, "results"):
        try:
            if row["sample_id"] in seen:
                raise ValueError("duplicate row")
            seen.add(row["sample_id"])
            if row["method"] not in METHODS:
                raise ValueError(f"unknown method {row['method']!r}")
            selected_ok = row["selected_ok"]
            if selected_ok not in (("0", "1") if row["method"] == "hexar" else ("",)):
                raise ValueError(f"impossible selected_ok for {row['method']}: {selected_ok!r}")
            point = (int(row["scenario_id"]), int(row["task_variant"]), int(row["query_index"]))
            check_grid_point(point)
            expected_id = _sample_id(*point, row["method"])
            if row["sample_id"] != expected_id:
                raise ValueError(f"sample_id does not match the row's fields ({expected_id})")
            reasoner_calls = int(row["reasoner_calls"])
            wall_time = float(row["wall_time"])
            if reasoner_calls < 0:
                raise ValueError(f"negative reasoner_calls: {reasoner_calls}")
            # NaN compares false both ways, so only this form rejects it
            if not 0 <= wall_time < math.inf:
                raise ValueError(f"wall_time must be finite and non-negative: {wall_time}")
            records.append(
                EvalRecord(
                    sample_id=row["sample_id"],
                    scenario_id=point[0],
                    task_variant=point[1],
                    query_index=point[2],
                    method=row["method"],
                    explanation_text=row["explanation_text"],
                    produced_by=row["produced_by"],
                    reasoner_calls=reasoner_calls,
                    wall_time=wall_time,
                    selected_ok=None if selected_ok == "" else selected_ok == "1",
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}: sample {row['sample_id']}: {exc}") from exc
    if not records:
        raise ValueError("empty results file")
    return records


_ANNOTATION_COLUMNS = ["sample_id", "annotator_id", "root_cause", "incorrect_facts"]


def read_annotations_csv(path: str | Path) -> list[AnnotationRow]:
    """Rows of an annotation CSV; a bad row raises ``ValueError`` naming its file line."""
    rows = []
    for line, row in read_csv_rows(path, _ANNOTATION_COLUMNS, "annotation"):
        try:
            rows.append(
                AnnotationRow(
                    sample_id=row["sample_id"],
                    annotator_id=int(row["annotator_id"]),
                    root_cause=int(row["root_cause"]),
                    incorrect_facts=int(row["incorrect_facts"]),
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from exc
    return rows


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
    accuracy: dict[tuple[str, str], list[int]] = {}  # (module, method) -> 0/1 values
    for r in records:
        module = get_scenario(r.scenario_id).relevant_module
        accuracy.setdefault((module, r.method), []).append(by_sample[r.sample_id].explanation_accuracy)
    for module in ROBOT_MODULES:
        columns = [accuracy.get((module, method), []) for method in stats.methods]
        row_cells = [f"{sum(values) / len(values):.3f}" if values else "-" for values in columns]
        n_records = max(map(len, columns), default=0)
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

    rows = [["record_type", "metric", "method_or_pair", "value_1", "value_2", "value_3"]]
    for metric in METRIC_NAMES:
        for method in stats.methods:
            rows.append(
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
            rows.append(["cochran_q", metric, "", f"{q:.6f}", str(df), f"{p:.6g}"])
        for a, b, stat, p, adj in stats.mcnemar_pairs.get(metric, []):
            rows.append(["mcnemar", metric, f"{a}|{b}", f"{stat:.6f}", f"{p:.6g}", f"{adj:.6g}"])
    for method in stats.methods:
        mean, var = stats.runtime[method]
        rows.append(
            ["runtime", "", method, f"{mean:.6f}", f"{var:.6f}", f"{stats.call_counts[method]:.2f}"]
        )
    if stats.selection_accuracy is not None:
        rows.append(["selection_accuracy", "", "hexar", f"{stats.selection_accuracy:.6f}", "", ""])
    stats_path = out_dir / "stats.csv"
    stats_path.write_text(
        "".join(",".join(map(_csv_field, row)) + "\r\n" for row in rows),
        encoding="utf-8",
        newline="",
    )
    return report_path, stats_path
