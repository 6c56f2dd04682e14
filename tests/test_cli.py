from __future__ import annotations

import csv
import io
import os

import pytest

from hexar import cli
from hexar.cli import main
from hexar.evaluation import FAILURE_REPLY
from hexar.reasoner import ReasonerResponse, TextReasoner
from hexar.trace import read_trace


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- scenarios ----------------------------------------------------------------


def test_scenarios_lists_twenty_rows(capsys):
    code, out, _ = run(["scenarios"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 20


def test_scenarios_single_row(capsys):
    code, out, _ = run(["scenarios", "--id", "7"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert "charger" in lines[0]


def test_scenarios_bad_id(capsys):
    code, _, err = run(["scenarios", "--id", "99"], capsys)
    assert code == 2
    assert "out of range" in err


def test_scenarios_writes_manifest(tmp_path, capsys):
    path = tmp_path / "manifest.csv"
    code, _, _ = run(["scenarios", "--manifest-out", str(path)], capsys)
    assert code == 0
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["scenario_id", "task_variant", "query_index"]
    assert len(rows) == 181


# -- simulate ----------------------------------------------------------------


def test_simulate_writes_readable_trace(tmp_path, capsys):
    out_path = tmp_path / "trace.jsonl"
    code, _, _ = run(
        ["simulate", "--scenario", "7", "--task", "1", "--seed", "42", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    trace = read_trace(out_path)
    assert trace.scenario_id == 7


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for path in (a, b):
        code, _, _ = run(
            ["simulate", "--scenario", "13", "--task", "2", "--seed", "5", "--out", str(path)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_rejects_out_of_range(tmp_path, capsys):
    code, _, err = run(
        ["simulate", "--scenario", "21", "--task", "1", "--out", str(tmp_path / "x")], capsys
    )
    assert code == 2
    assert "scenario_id" in err


# -- explain ------------------------------------------------------------------


@pytest.fixture()
def charger_trace(tmp_path, capsys):
    path = tmp_path / "s7.jsonl"
    main(["simulate", "--scenario", "7", "--task", "1", "--seed", "42", "--out", str(path)])
    capsys.readouterr()
    return path


def test_explain_hexar_charger(charger_trace, capsys):
    code, out, _ = run(
        ["explain", "--trace", str(charger_trace), "--query", "Why didn't you bring it?"],
        capsys,
    )
    assert code == 0
    assert "disables autonomous navigation" in out
    assert "produced_by: navigation" in out


def test_explain_is_deterministic(charger_trace, capsys):
    args = ["explain", "--trace", str(charger_trace), "--query", "Why didn't you bring it?"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    strip_time = lambda s: [l for l in s.splitlines() if not l.startswith("wall_time")]
    assert strip_time(first) == strip_time(second)


def test_explain_all_components_lists_contributors(charger_trace, capsys):
    code, out, _ = run(
        [
            "explain",
            "--trace",
            str(charger_trace),
            "--query",
            "Why didn't you bring it?",
            "--method",
            "all-components",
        ],
        capsys,
    )
    assert code == 0
    assert (
        "produced_by: planner+navigation+text_to_speech+ask_human_for_help"
        "+pizza_recommender+aggregator" in out
    )


def test_explain_misselection_fails_with_exit_3(tmp_path, capsys):
    path = tmp_path / "s3.jsonl"
    main(["simulate", "--scenario", "3", "--task", "1", "--seed", "0", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run(
        ["explain", "--trace", str(path), "--query", "Why didn't you go to the living room?"],
        capsys,
    )
    assert code == 3
    assert "I do not have enough information to answer this question." in out


# Traces whose payloads a component explainer cannot read: (scenario,
# recorded text, edited text, a query that selects that explainer).
MALFORMED_PAYLOADS = {
    "help_response": (16, '"response": "agree"', '"response": "maybe"', "Why?"),
    "help_null_distance": (16, '"human.0.distance": 1.989746', '"human.0.distance": null', "Why?"),
    "pizza_class": (
        20,
        '"recommended": "margherita"',
        '"recommended": "sushi"',
        "Why did you pick that pizza?",
    ),
    "tts_length": (19, '"length": 214', '"length": "long"', "Why?"),
    "navigation_param": (
        7,
        '"name": "charger_connected", "value": true',
        '"name": "charger_connected"',
        "Why?",
    ),
}


@pytest.fixture(params=sorted(MALFORMED_PAYLOADS))
def malformed_trace(request, tmp_path, capsys):
    scenario_id, recorded, edited, query = MALFORMED_PAYLOADS[request.param]
    path = tmp_path / f"s{scenario_id}.jsonl"
    main(["simulate", "--scenario", str(scenario_id), "--task", "1", "--seed", "0", "--out", str(path)])
    capsys.readouterr()
    text = path.read_text(encoding="utf-8")
    assert text.count(recorded) == 1
    path.write_text(text.replace(recorded, edited), encoding="utf-8")
    return path, query


def test_explain_malformed_payload_fails_with_exit_3(malformed_trace, capsys):
    path, query = malformed_trace
    code, out, err = run(["explain", "--trace", str(path), "--query", query], capsys)
    assert code == 3
    assert out.strip() == FAILURE_REPLY
    assert err.startswith("(explanation failed: ")
    assert "Error: " in err
    assert "Traceback" not in err


def test_all_components_notes_a_malformed_payload(malformed_trace, capsys):
    path, query = malformed_trace
    code, out, err = run(
        ["explain", "--trace", str(path), "--query", query, "--method", "all-components"], capsys
    )
    assert code == 0
    assert "explainer produced no answer: " in out
    assert "Traceback" not in err


class EmptyTextReasoner(TextReasoner):
    def complete(self, request):
        return ReasonerResponse(text="")


@pytest.mark.parametrize("method", ["hexar", "end-to-end", "all-components"])
def test_explain_empty_reasoner_text_fails_with_exit_3(charger_trace, capsys, monkeypatch, method):
    monkeypatch.setattr(cli, "make_reasoner", lambda kind: EmptyTextReasoner())
    code, out, err = run(
        ["explain", "--trace", str(charger_trace), "--query", "Why?", "--method", method], capsys
    )
    assert code == 3
    assert out.strip() == FAILURE_REPLY
    assert "TraceError: explanation text must be non-empty" in err
    assert "Traceback" not in err


def test_explain_missing_trace_is_usage_error(tmp_path, capsys):
    code, _, _ = run(
        ["explain", "--trace", str(tmp_path / "nope"), "--query", "Why?"], capsys
    )
    assert code == 2


_HEADER_BYTES = b'{"scenario_id": 1, "task_variant": 1, "seed": 0}\n'


@pytest.mark.parametrize(
    "content, where",
    [
        (b"\xff\xfe" + _HEADER_BYTES.decode().encode("utf-16-le"), "not UTF-8 text"),
        (b"[" * 100_000 + b"\n", "malformed header at line 1"),
        (_HEADER_BYTES + b"[" * 100_000 + b"\n", "malformed event at line 2"),
        (_HEADER_BYTES.replace(b"1,", b"1e999,", 1), "malformed header at line 1"),
        (
            _HEADER_BYTES + b'{"ts": 1' + b"0" * 400 + b', "source": "system", "kind": "log", '
            b'"payload": {}}\n',
            "malformed event at line 2",
        ),
    ],
    ids=["utf-16-bom", "deep-header", "deep-event", "infinite-header-int", "huge-ts"],
)
def test_explain_unreadable_trace_is_usage_error(tmp_path, capsys, content, where):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(content)
    code, _, err = run(["explain", "--trace", str(path), "--query", "Why?"], capsys)
    assert code == 2
    assert err.startswith(f"error: {path}: {where}")
    assert "Traceback" not in err


@pytest.mark.parametrize("keep", ["header", "no_plan"])
def test_explain_trace_without_plan_is_usage_error(charger_trace, tmp_path, capsys, keep):
    lines = charger_trace.read_text(encoding="utf-8").splitlines()
    if keep == "header":
        lines = lines[:1]
    else:
        lines = [line for line in lines if '"kind": "plan"' not in line]
        assert len(lines) > 2
    path = tmp_path / f"{keep}.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run(["explain", "--trace", str(path), "--query", "Why?"], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert "plan event" in err
    assert "Traceback" not in err


def test_explain_remote_without_endpoint_is_usage_error(charger_trace, capsys, monkeypatch):
    monkeypatch.delenv("HEXAR_REASONER_URL", raising=False)
    code, _, err = run(
        [
            "explain",
            "--trace",
            str(charger_trace),
            "--query",
            "Why?",
            "--reasoner",
            "remote",
        ],
        capsys,
    )
    assert code == 2
    assert "HEXAR_REASONER_URL" in err


def test_explain_interactive_reads_stdin(charger_trace, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("Why didn't you bring it?\n\n"))
    code, out, _ = run(["explain", "--trace", str(charger_trace), "--interactive"], capsys)
    assert code == 0
    assert "plugged into its charger" in out


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: ``write`` or ``flush`` raises BrokenPipeError."""

    def __init__(self, fd: int, failing: str):
        self.fd = fd
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_explain_into_a_closed_pipe_ends_quietly(charger_trace, tmp_path, capsys, monkeypatch, failing):
    # stands in for ``hexar explain ... | head -c 10``; its descriptor is a scratch file
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr("sys.stdout", ClosedPipe(fd, failing))
        code = main(["explain", "--trace", str(charger_trace), "--query", "Why didn't you bring it?"])
        redirected = os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert code == 0
    assert redirected  # the flush at interpreter exit cannot fail again
    assert "Traceback" not in capsys.readouterr().err


# -- evaluate and report ---------------------------------------------------------


@pytest.fixture()
def small_manifest(tmp_path):
    path = tmp_path / "manifest.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario_id", "task_variant", "query_index"])
        for scenario_id in (3, 7, 20):
            for query_index in (1, 2, 3):
                writer.writerow([scenario_id, 1, query_index])
    return path


def test_evaluate_single_method_row_count(tmp_path, small_manifest, capsys):
    out_path = tmp_path / "results.csv"
    code, _, _ = run(
        [
            "evaluate",
            "--manifest",
            str(small_manifest),
            "--methods",
            "hexar",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == 0
    rows = out_path.read_text().splitlines()
    assert len(rows) == 10  # header + 9 samples


def test_evaluate_rerun_identical_modulo_wall_time(tmp_path, small_manifest, capsys):
    paths = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
    for path in paths:
        code, _, _ = run(
            [
                "evaluate",
                "--manifest",
                str(small_manifest),
                "--methods",
                "hexar,end-to-end,all-components",
                "--seed",
                "0",
                "--out",
                str(path),
            ],
            capsys,
        )
        assert code == 0

    def strip_wall(path):
        rows = list(csv.reader(path.read_text().splitlines()))
        wall_index = rows[0].index("wall_time")
        return [[c for i, c in enumerate(row) if i != wall_index] for row in rows]

    assert strip_wall(paths[0]) == strip_wall(paths[1])


def test_evaluate_rejects_bad_manifest(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    code, _, err = run(
        ["evaluate", "--manifest", str(bad), "--out", str(tmp_path / "r.csv")], capsys
    )
    assert code == 2


def test_evaluate_rejects_unknown_method(tmp_path, small_manifest, capsys):
    code, _, err = run(
        [
            "evaluate",
            "--manifest",
            str(small_manifest),
            "--methods",
            "oracle",
            "--out",
            str(tmp_path / "r.csv"),
        ],
        capsys,
    )
    assert code == 2


def test_report_auto_annotate(tmp_path, small_manifest, capsys):
    results = tmp_path / "results.csv"
    run(
        ["evaluate", "--manifest", str(small_manifest), "--out", str(results)],
        capsys,
    )
    out_dir = tmp_path / "report"
    code, _, _ = run(
        ["report", "--results", str(results), "--auto-annotate", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    text = (out_dir / "report.md").read_text()
    assert "selection accuracy" in text
    assert (out_dir / "stats.csv").exists()


def test_report_missing_annotator_coverage(tmp_path, small_manifest, capsys):
    results = tmp_path / "results.csv"
    run(
        [
            "evaluate",
            "--manifest",
            str(small_manifest),
            "--methods",
            "hexar",
            "--out",
            str(results),
        ],
        capsys,
    )
    annotations = tmp_path / "annotations.csv"
    annotations.write_text(
        "sample_id,annotator_id,root_cause,incorrect_facts\ns03v1q1_hexar,1,1,0\n"
    )
    code, _, err = run(
        [
            "report",
            "--results",
            str(results),
            "--annotations",
            str(annotations),
            "--out",
            str(tmp_path / "rep"),
        ],
        capsys,
    )
    assert code == 2


def _results(tmp_path, small_manifest, capsys):
    path = tmp_path / "results.csv"
    code, _, _ = run(
        ["evaluate", "--manifest", str(small_manifest), "--methods", "hexar", "--out", str(path)],
        capsys,
    )
    assert code == 0
    return path


def _assert_short_row_error(code, err, path):
    assert code == 2
    assert err.startswith("error:")
    assert f"{path}: line 2: expected" in err
    assert "Traceback" not in err


def test_evaluate_short_manifest_row_is_usage_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("scenario_id,task_variant,query_index\n1,1\n")
    code, _, err = run(
        ["evaluate", "--manifest", str(manifest), "--out", str(tmp_path / "r.csv")], capsys
    )
    _assert_short_row_error(code, err, manifest)


def test_report_short_annotation_row_is_usage_error(tmp_path, small_manifest, capsys):
    results = _results(tmp_path, small_manifest, capsys)
    annotations = tmp_path / "annotations.csv"
    annotations.write_text("sample_id,annotator_id,root_cause,incorrect_facts\nx,1\n")
    code, _, err = run(
        [
            "report",
            "--results",
            str(results),
            "--annotations",
            str(annotations),
            "--out",
            str(tmp_path / "rep"),
        ],
        capsys,
    )
    _assert_short_row_error(code, err, annotations)


def test_report_short_results_row_is_usage_error(tmp_path, small_manifest, capsys):
    results = _results(tmp_path, small_manifest, capsys)
    header = results.read_text().splitlines()[0]
    results.write_text(f"{header}\ns01v1q1_hexar,1\n")
    code, _, err = run(
        ["report", "--results", str(results), "--auto-annotate", "--out", str(tmp_path / "rep")],
        capsys,
    )
    _assert_short_row_error(code, err, results)
