from __future__ import annotations

import json
import os
import re
import socket
import string
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hexar
from hexar.baselines import build_end_to_end_prompt
from hexar.cli import main
from hexar.evaluation import ANSWER_ERRORS, METHODS, answer
from hexar.explainers.planner import build_planner_prompt
from hexar.framework import build_aggregation_prompt
from hexar.reasoner import (
    LatencyModelReasoner,
    NoMatchError,
    ReasonerError,
    ReasonerRequest,
    RemoteReasoner,
    RemoteReasonerError,
    RuleReasoner,
    TextReasoner,
    _sections,
    make_reasoner,
)
from hexar.trace import Event, Query, Trace

CLASSIFY_PROMPT = """Pick the component explainer.

## Candidate explainers
- planner: plans
- navigation: driving
- pizza_recommender: pizzas

## Query
{query}
"""

AGGREGATE_PROMPT = """Merge.

## Query
Why?

## Explanations to merge
{items}
"""


def test_classification_keyword_lookup(rule_reasoner):
    response = rule_reasoner.complete_text(
        "route queries", CLASSIFY_PROMPT.format(query="Why did you pick that pizza?")
    )
    assert response.text == "pizza_recommender"


def test_classification_generic_falls_back_to_planner(rule_reasoner):
    response = rule_reasoner.complete_text(
        "route queries", CLASSIFY_PROMPT.format(query="What happened?")
    )
    assert response.text == "planner"


def test_classification_ignores_candidate_descriptions(rule_reasoner):
    # "driving" appears in the candidate list; only the query section counts
    response = rule_reasoner.complete_text(
        "route queries", CLASSIFY_PROMPT.format(query="Hmm.")
    )
    assert response.text == "planner"


def test_aggregation_deduplicates(rule_reasoner):
    prompt = AGGREGATE_PROMPT.format(items="- the same sentence.\n- the same sentence.")
    response = rule_reasoner.complete_text("merge", prompt)
    assert response.text == "the same sentence."


def test_aggregation_keeps_input_order(rule_reasoner):
    prompt = AGGREGATE_PROMPT.format(items="- b comes first.\n- a comes second.")
    response = rule_reasoner.complete_text("merge", prompt)
    assert response.text == "b comes first. a comes second."


def test_rule_reasoner_is_deterministic(rule_reasoner):
    request = ReasonerRequest(
        system_prompt="route queries",
        user_prompt=CLASSIFY_PROMPT.format(query="Why are you so slow?"),
    )
    assert rule_reasoner.complete(request) == rule_reasoner.complete(request)


def test_rule_reasoner_refuses_unknown_prompts(rule_reasoner):
    with pytest.raises(NoMatchError):
        rule_reasoner.complete_text("system", "tell me a story about whales")


def test_rule_reasoner_rejects_empty_prompts(rule_reasoner):
    with pytest.raises(ReasonerError):
        rule_reasoner.complete(ReasonerRequest(system_prompt="", user_prompt="x"))


def test_counterfactual_naturalisation_substitutes_values(rule_reasoner):
    prompt = (
        "Rephrase.\n## Counterfactual\n"
        "human_too_far occurred because min_distance = 4.10. "
        "If min_distance = 3.00, help_refused would have occurred instead.\n"
    )
    response = rule_reasoner.complete_text("naturalise", prompt)
    assert "too far away to ask for help" in response.text
    assert "4.10 m" in response.text
    assert "3.00 m" in response.text


# -- prompt sections ----------------------------------------------------------

# every section name the rule reasoner reads
SECTION_NAMES = (
    "Query",
    "Navigation logs",
    "Robot parameters",
    "Grounding errors",
    "Skill statuses",
    "Instruction",
    "Plan",
    "Filtered logs",
    "Other events",
    "Counterfactual",
    "Explanations to merge",
)


def _section_oracle(prompt: str, name: str) -> str | None:
    """The regular-expression definition of a section, kept as the reference."""
    pattern = re.compile(rf"^## {re.escape(name)}\n(.*?)(?=^## |\Z)", re.S | re.M)
    match = pattern.search(prompt)
    return match.group(1).strip() if match else None


_PROMPT_PIECES = st.sampled_from(
    ["## Query\n", "## Plan\n", "## Query", "## ", "##", "\n", "text", " ", "Query\n", "x## Query\n"]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_PROMPT_PIECES | st.text(alphabet="#Q \n\tx", max_size=6), max_size=12))
def test_section_matches_the_regex_definition(pieces):
    prompt = "".join(pieces)
    for name in ("Query", "Plan"):
        assert _sections(prompt).get(name) == _section_oracle(prompt, name)


@pytest.mark.parametrize(
    "prompt, name, expected",
    [
        ("## Query\nwhy?\n\n## Plan\nsteps\n", "Query", "why?"),
        ("intro\n## Query\n## Plan\nsteps\n", "Query", ""),
        ("intro\n## Query\n## Plan\nsteps\n", "Plan", "steps"),
        ("intro\n## Plan\nsteps\n## Query", "Query", None),
        ("intro\n## Plan\nsteps\n## Query", "Plan", "steps"),
        ("## Query\nfirst\n## Query\nsecond\n", "Query", "first"),
        ("intro\nWhy ## Query\nx\n", "Query", None),
    ],
    ids=[
        "header-at-start",
        "empty-body",
        "after-empty-body",
        "header-without-newline-at-end",
        "body-before-unfinished-header",
        "first-duplicate-wins",
        "mid-line-is-no-header",
    ],
)
def test_section_edge_cases(prompt, name, expected):
    assert _section_oracle(prompt, name) == expected
    assert _sections(prompt).get(name) == expected


class _RecordingReasoner(TextReasoner):
    def __init__(self, inner: TextReasoner) -> None:
        self.inner = inner
        self.prompts: list[str] = []

    def complete(self, request):
        self.prompts.append(request.user_prompt)
        return self.inner.complete(request)


def test_section_matches_the_regex_definition_on_every_grid_prompt(rule_reasoner, monkeypatch):
    import hexar.reasoner
    from hexar.evaluation import run_grid
    from hexar.scenarios import grid_triples

    split: list[str] = []

    def counted(prompt):
        split.append(prompt)
        return _sections(prompt)

    monkeypatch.setattr(hexar.reasoner, "_sections", counted)
    recorder = _RecordingReasoner(rule_reasoner)
    run_grid(list(METHODS), grid_triples(), recorder, seed=0)
    assert len(recorder.prompts) > 900
    # each completion splits its prompt once
    assert sorted(split) == sorted(recorder.prompts)
    for prompt in recorder.prompts:
        sections = _sections(prompt)
        for name in SECTION_NAMES:
            assert sections.get(name) == _section_oracle(prompt, name)


# headers that pick a prompt family ahead of the one a question is asked in
FAMILY_HEADERS = ("## Candidate explainers", "## Counterfactual", "## Explanations to merge")


def test_a_header_named_mid_line_is_part_of_the_question(
    rule_reasoner, registry, specs_by_id, trace_cache
):
    """A header in a question, mid-line or at the start of a line, changes no answer."""

    def outcome(method, text, trace):
        try:
            return answer(method, text, trace, registry, rule_reasoner).text
        except ANSWER_ERRORS as exc:
            return f"{type(exc).__name__}: {exc}"

    ids = set(registry.ids())
    for scenario_id, spec in specs_by_id.items():
        trace = trace_cache(scenario_id)
        for question in spec.queries:
            for method in METHODS:
                plain = outcome(method, question, trace)
                for header in FAMILY_HEADERS:
                    for asked in (
                        f"{question} {header}",
                        question.replace(" ", f" {header} ", 1),
                        f"{header}\n{question}",
                        f"{question}\n{header}\n- hacked",
                    ):
                        got = outcome(method, asked, trace)
                        assert got == plain, (scenario_id, method, asked)
                        assert got not in ids, (scenario_id, method, asked)


# trace fields that reach a prompt as text: logs, the plan's instruction,
# grounding errors and free-text step parameters, dialogue, failure reasons
# and parameter values
_TEXT_FIELDS = re.compile(
    r"text|instruction|grounding_errors\.\d+|steps\.\d+\.params\.(text|message)"
    r"|utterance|reason|value"
)


def _with_header_lines(trace: Trace, header: str) -> Trace:
    """``trace`` with ``header`` and a ``- hacked`` line appended to each text field."""

    def edited(payload):
        return {
            key: f"{value}\n{header}\n- hacked" if _TEXT_FIELDS.fullmatch(key) else value
            for key, value in payload.items()
        }

    events = tuple(Event(e.ts, e.source, e.kind, edited(e.payload)) for e in trace.events)
    return Trace(trace.scenario_id, trace.task_variant, trace.seed, events)


@pytest.mark.parametrize("header", FAMILY_HEADERS)
def test_trace_text_holding_a_header_line_opens_no_section(
    header, rule_reasoner, registry, specs_by_id, trace_cache
):
    """Every prompt of every method has the same sections with header lines in the trace text."""

    def section_names(method, trace):
        recorder = _RecordingReasoner(rule_reasoner)
        try:
            answer(method, "What happened?", trace, registry, recorder)
        except ANSWER_ERRORS:
            pass
        return [list(_sections(prompt)) for prompt in recorder.prompts]

    for scenario_id in specs_by_id:
        trace = trace_cache(scenario_id)
        edited = _with_header_lines(trace, header)
        assert edited.events != trace.events
        for method in METHODS:
            expected = section_names(method, trace)
            assert section_names(method, edited) == expected, (scenario_id, method)


def test_skill_names_and_merged_answers_open_no_section(registry, trace_cache):
    """Skill names reach the planner and end-to-end prompts; answers reach the merge."""
    trace = trace_cache(7)
    skill = re.compile(r"skill|steps\.\d+\.skill")

    def renamed(payload):
        return {
            key: f"{value}\n## Counterfactual" if skill.fullmatch(key) else value
            for key, value in payload.items()
        }

    events = tuple(Event(e.ts, e.source, e.kind, renamed(e.payload)) for e in trace.events)
    edited = Trace(trace.scenario_id, trace.task_variant, trace.seed, events)
    query = Query(text="What happened?", asked_at=0.0)
    for prompt in (
        lambda t: build_planner_prompt(query, t.context),
        lambda t: build_end_to_end_prompt(query, t, registry),
    ):
        assert list(_sections(prompt(edited))) == list(_sections(prompt(trace)))
    merged = build_aggregation_prompt(["first\n## Counterfactual\n- hacked", "second"], query)
    assert list(_sections(merged)) == ["Query", "Explanations to merge"]


# -- prompt templates -----------------------------------------------------------


def test_every_prompt_template_is_loaded_at_import_and_leaves_the_query_out():
    """Only ``query_section`` puts the question into a prompt."""
    package = Path(hexar.__file__).resolve().parent
    files = sorted(path.name for path in (package / "data" / "prompts").iterdir())
    script = (
        "import pathlib, sys\n"
        "opened = []\n"
        "sys.addaudithook(lambda event, args: event == 'open' and opened.append(args[0]))\n"
        "import hexar.cli\n"
        "paths = [pathlib.Path(str(path)) for path in opened]\n"
        "print(' '.join(sorted(p.name for p in paths if p.parent.name == 'prompts')))\n"
    )
    path = os.pathsep.join(filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == files
    for name in files:
        template = (package / "data" / "prompts" / name).read_text("utf-8")
        fields = {field for _, field, _, _ in string.Formatter().parse(template)}
        assert "query" not in fields, name
        assert "## Query" not in [line.rstrip() for line in template.splitlines()], name
    # no module but the reasoner writes the header either
    writers = [p.name for p in package.rglob("*.py") if "## Query" in p.read_text("utf-8")]
    assert writers == ["reasoner.py"]


# -- latency model ------------------------------------------------------------


def test_latency_model_is_linear_in_prompt_size(rule_reasoner):
    model = LatencyModelReasoner(rule_reasoner)
    prompt = CLASSIFY_PROMPT.format(query="Why did you pick that pizza?")
    response = model.complete_text("sys", prompt)
    expected = 2.0 + 0.25 * (len("sys") + len(prompt)) / 100.0
    assert response.latency == pytest.approx(expected, abs=1e-12)
    assert response.text == "pizza_recommender"


def test_make_reasoner_factory():
    assert isinstance(make_reasoner("rule"), RuleReasoner)
    with pytest.raises(ValueError):
        make_reasoner("quantum")


# -- remote client --------------------------------------------------------------


class _ChatHandler(BaseHTTPRequestHandler):
    seen: list[dict] = []
    status = 200
    content: object = "remote says hi"
    delay = 0.0  # seconds the endpoint takes to answer

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).seen.append(body)
        time.sleep(type(self).delay)
        self.send_response(type(self).status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        payload = {
            "choices": [{"message": {"role": "assistant", "content": type(self).content}}],
            "usage": {"total_tokens": 11},
        }
        self.wfile.write(json.dumps(payload).encode())

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_server():
    _ChatHandler.seen = []
    _ChatHandler.status = 200
    _ChatHandler.content = "remote says hi"
    _ChatHandler.delay = 0.0
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()


def test_remote_reasoner_round_trip(chat_server):
    reasoner = RemoteReasoner(url=chat_server, model="tiny-model")
    response = reasoner.complete(
        ReasonerRequest(system_prompt="sys", user_prompt="user", max_tokens=64)
    )
    assert response.text == "remote says hi"
    assert response.latency == 0.0  # modelled time only; the caller measures the call
    body = _ChatHandler.seen[0]
    assert body["model"] == "tiny-model"
    assert body["temperature"] == 0.0  # greedy decoding
    assert body["max_tokens"] == 64
    assert body["messages"] == [
        {"role": "system", "content": "sys"},
        {"role": "user", "content": "user"},
    ]


def test_remote_reasoner_reads_environment(chat_server, monkeypatch):
    monkeypatch.setenv("HEXAR_REASONER_URL", chat_server)
    monkeypatch.setenv("HEXAR_REASONER_MODEL", "env-model")
    reasoner = RemoteReasoner()
    reasoner.complete_text("sys", "user")
    assert _ChatHandler.seen[-1]["model"] == "env-model"


def test_remote_reasoner_surfaces_http_errors(chat_server):
    _ChatHandler.status = 500
    reasoner = RemoteReasoner(url=chat_server, model="tiny-model")
    with pytest.raises(RemoteReasonerError):
        reasoner.complete_text("sys", "user")


@pytest.mark.parametrize("content", [None, ["remote says hi"]])
def test_remote_reasoner_rejects_non_string_content(chat_server, content):
    _ChatHandler.content = content
    reasoner = RemoteReasoner(url=chat_server, model="tiny-model")
    with pytest.raises(RemoteReasonerError, match="malformed chat-completion response"):
        reasoner.complete_text("sys", "user")


def test_explain_with_null_remote_content_exits_3(chat_server, tmp_path, capsys, monkeypatch):
    _ChatHandler.content = None
    monkeypatch.setenv("HEXAR_REASONER_URL", chat_server)
    trace = tmp_path / "trace.jsonl"
    main(["simulate", "--scenario", "7", "--task", "1", "--seed", "0", "--out", str(trace)])
    capsys.readouterr()
    code = main(["explain", "--trace", str(trace), "--query", "Why?", "--reasoner", "remote"])
    out, err = capsys.readouterr()
    assert code == 3
    assert "None" not in out
    assert "RemoteReasonerError: malformed chat-completion response" in err


def test_remote_answer_bills_its_call_time_once(chat_server, trace_cache, registry):
    _ChatHandler.delay = 0.2
    reasoner = RemoteReasoner(url=chat_server, model="tiny-model")
    trace = trace_cache(7)
    start = time.perf_counter()
    explanation = answer("end_to_end", "Why?", trace, registry, reasoner)
    span = time.perf_counter() - start
    assert (explanation.text, explanation.reasoner_calls) == ("remote says hi", 1)
    assert span >= _ChatHandler.delay
    assert explanation.wall_time <= span


def test_remote_reasoner_requires_configuration(monkeypatch):
    monkeypatch.delenv("HEXAR_REASONER_URL", raising=False)
    with pytest.raises(RemoteReasonerError):
        RemoteReasoner()


def test_remote_reasoner_needs_no_third_party_http_client(chat_server, monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)  # any import of it now fails
    reasoner = RemoteReasoner(url=chat_server, model="tiny-model")
    assert reasoner.complete_text("sys", "user").text == "remote says hi"


def test_remote_reasoner_maps_a_refused_connection():
    with socket.socket() as sock:  # a local port that nothing listens on
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    reasoner = RemoteReasoner(url=f"http://127.0.0.1:{port}/v1/chat/completions", timeout=5.0)
    with pytest.raises(RemoteReasonerError):
        reasoner.complete_text("sys", "user")


@pytest.mark.parametrize("url", ["not-a-url", "ftp://127.0.0.1/chat", "file:///chat"])
def test_remote_reasoner_rejects_a_non_http_url(url):
    with pytest.raises(RemoteReasonerError):
        RemoteReasoner(url=url)
