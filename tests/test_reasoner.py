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
from hexar import reasoner as reasoner_module
from hexar.baselines import build_end_to_end_prompt
from hexar.cli import build_parser, main
from hexar.evaluation import ANSWER_ERRORS, METHODS, answer, run_grid
from hexar.explainers.navigation import SITUATION_CATALOGUE, build_navigation_prompt
from hexar.explainers.planner import build_planner_prompt
from hexar.framework import ReasonerMeter, build_aggregation_prompt
from hexar.reasoner import (
    REASONERS,
    SITUATIONS,
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

# The situation catalogue read from its file: the reference for hexar's tables.
SITUATION_ENTRIES = json.loads(
    (Path(hexar.__file__).resolve().parent / "data" / "situations.json").read_text("utf-8")
)
NAVIGATION_SITUATIONS = [
    (e["marker"], e["sentence"]) for e in SITUATION_ENTRIES if e["scope"] == "navigation"
]
NAVIGATION_CATALOGUE = [
    f'- if the evidence mentions "{marker}": {sentence}'
    for marker, sentence in NAVIGATION_SITUATIONS
]

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


# -- bundled knowledge -----------------------------------------------------------


def _unreadable(name):
    raise AssertionError(f"hexar/data/{name} read after import")


def test_rule_reasoner_reads_no_package_data_once_imported(monkeypatch, registry, trace_cache):
    trace = trace_cache(7)
    events = trace.by_source(registry.explainers["navigation"].subscribed_sources)
    navigation_prompt = build_navigation_prompt(Query("Why are you so slow?", 0.0), events)
    prompts = [
        CLASSIFY_PROMPT.format(query="Why did you pick that pizza?"),
        navigation_prompt,
    ]
    before = [RuleReasoner().complete_text("sys", prompt).text for prompt in prompts]
    assert before[0] == "pizza_recommender"
    assert before[1] in [sentence for _, sentence in NAVIGATION_SITUATIONS]

    monkeypatch.setattr(reasoner_module, "read_package_data", _unreadable)
    reasoner = RuleReasoner()
    assert [reasoner.complete_text("sys", prompt).text for prompt in prompts] == before
    assert "__init__" not in vars(RuleReasoner)
    assert vars(reasoner) == {}  # answering set no attribute either


def test_situation_catalogue_lists_the_reasoners_navigation_situations(rule_reasoner):
    assert SITUATION_CATALOGUE.split("\n") == NAVIGATION_CATALOGUE
    # the end-to-end matcher reads every situations.json entry, in file order
    assert SITUATIONS == tuple(SITUATION_ENTRIES)
    markers = "\n".join(f"- {e['marker']} -" for e in SITUATION_ENTRIES)
    prompt = f"## All recorded information\n## Other events\n{markers}\n"
    assert rule_reasoner.complete_text("sys", prompt).text == " ".join(
        dict.fromkeys(e["sentence"] for e in SITUATION_ENTRIES)
    )


@pytest.mark.parametrize("scenario_id", range(5, 11))
def test_navigation_is_answered_only_from_the_listed_situations(
    rule_reasoner, registry, specs_by_id, trace_cache, scenario_id
):
    """The whole catalogue gives the slice's answer; without the matching line, a refusal."""
    trace = trace_cache(scenario_id)
    events = trace.by_source(registry.explainers["navigation"].subscribed_sources)
    prompt = build_navigation_prompt(Query("What happened?", 0.0), events)
    listed = _sections(prompt)["Known situations"]
    marker = specs_by_id[scenario_id].ground_truth.root_cause
    answer = rule_reasoner.complete_text("sys", prompt).text
    assert answer == dict(NAVIGATION_SITUATIONS)[marker]

    whole = prompt.replace(listed, "\n".join(NAVIGATION_CATALOGUE))
    assert rule_reasoner.complete_text("sys", whole).text == answer
    others = [line for line in NAVIGATION_CATALOGUE if f'"{marker}"' not in line]
    with pytest.raises(NoMatchError):
        rule_reasoner.complete_text("sys", prompt.replace(listed, "\n".join(others)))


def test_every_package_data_file_is_read_once_per_process():
    """Nine reasoners, every method and the pizza tree read each file of ``hexar/data`` once."""
    package = Path(hexar.__file__).resolve().parent
    script = (
        "import collections, pathlib, sys\n"
        "opened = collections.Counter()\n"
        f"data = pathlib.Path({str(package / 'data')!r})\n"
        "def hook(event, args):\n"
        "    if event == 'open' and data in pathlib.Path(str(args[0])).parents:\n"
        "        opened[pathlib.Path(str(args[0])).name] += 1\n"
        "sys.addaudithook(hook)\n"
        "from hexar import RuleReasoner\n"
        "from hexar.evaluation import METHODS, answer\n"
        "from hexar.explainers import build_default_registry\n"
        "from hexar.framework import ReasonerMeter\n"
        "from hexar.simulate import generate_trace\n"
        "registry = build_default_registry()\n"
        "for scenario in (7, 13, 20):\n"
        "    trace = generate_trace(scenario, 1, 0)\n"
        "    for method in METHODS:\n"
        "        answer(method, 'What happened?', trace, registry, ReasonerMeter(RuleReasoner()))\n"
        "print(' '.join(f'{name}={count}' for name, count in sorted(opened.items())))\n"
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
    files = sorted(p.name for p in (package / "data").rglob("*") if p.is_file())
    assert done.stdout.split() == [f"{name}=1" for name in files]


# -- prompt sections ----------------------------------------------------------

# every section name the rule reasoner reads
SECTION_NAMES = (
    "Query",
    "Navigation logs",
    "Robot parameters",
    "Known situations",
    "Grounding errors",
    "Skill statuses",
    "Instruction",
    "Plan",
    "Filtered logs",
    "Other events",
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
    assert len(recorder.prompts) == 873
    # each completion splits its prompt once
    assert sorted(split) == sorted(recorder.prompts)
    for prompt in recorder.prompts:
        sections = _sections(prompt)
        for name in SECTION_NAMES:
            assert sections.get(name) == _section_oracle(prompt, name)


# headers that pick a prompt family ahead of the one a question is asked in,
# and "## Counterfactual", which named the help explainer's rephrasing prompt
FAMILY_HEADERS = ("## Candidate explainers", "## Counterfactual", "## Explanations to merge")


def test_a_header_named_mid_line_is_part_of_the_question(
    rule_reasoner, registry, specs_by_id, trace_cache
):
    """A header in a question, mid-line or at the start of a line, changes no answer."""

    def outcome(method, text, trace):
        try:
            return answer(method, text, trace, registry, ReasonerMeter(rule_reasoner)).text
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
            answer(method, "What happened?", trace, registry, ReasonerMeter(recorder))
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


STORY = "tell me a story about whales"


def test_a_refused_call_is_billed_the_latency_models_charge(rule_reasoner):
    """The meter bills a refusal as a completion of the same prompt; the error passes unchanged."""
    charge = 2.0 + 0.25 * (len("sys") + len(STORY)) / 100.0
    inner = ReasonerMeter(LatencyModelReasoner(rule_reasoner))
    outer = ReasonerMeter(inner)
    with pytest.raises(NoMatchError) as refused:
        outer.complete_text("sys", STORY)
    assert type(refused.value) is NoMatchError
    assert str(refused.value) == "no deterministic rule matches this prompt"
    assert (outer.calls, inner.calls) == (1, 1)
    assert outer.latency == inner.latency == pytest.approx(charge, abs=1e-12)
    request = ReasonerRequest("sys", STORY)
    assert LatencyModelReasoner(rule_reasoner).modelled_latency(request) == outer.latency


def test_a_bare_rule_reasoner_bills_a_refusal_nothing(rule_reasoner):
    meter = ReasonerMeter(rule_reasoner)
    with pytest.raises(NoMatchError):
        meter.complete_text("sys", STORY)
    assert (meter.calls, meter.latency) == (1, 0.0)


def test_all_components_is_billed_its_refused_navigation_call(registry, rule_reasoner, trace_cache):
    """Scenario 3: the navigation explainer's refusal is billed like the calls that returned."""
    charges = []

    class Charging(LatencyModelReasoner):
        def complete(self, request):
            charges.append(self.modelled_latency(request))
            return super().complete(request)

    trace = trace_cache(3)
    meter = ReasonerMeter(Charging(rule_reasoner))
    explanation = answer("all_components", "What happened?", trace, registry, meter)
    assert explanation.reasoner_calls == len(charges) == 3
    assert "[navigation explainer produced no answer" in explanation.text
    assert sum(charges) <= explanation.wall_time < sum(charges) + 1.0


def test_make_reasoner_factory():
    assert isinstance(make_reasoner("rule"), RuleReasoner)
    with pytest.raises(ValueError, match="unknown reasoner kind"):
        make_reasoner("quantum")
    commands = build_parser()._subparsers._group_actions[0].choices
    for command in ("explain", "evaluate"):
        flag = commands[command]._option_string_actions["--reasoner"]
        assert flag.choices == list(REASONERS)


# -- remote client --------------------------------------------------------------


class _ChatHandler(BaseHTTPRequestHandler):
    seen: list[dict] = []
    status = 200
    content: object = "remote says hi"
    raw: bytes | None = None  # a body sent as is, in place of the chat payload
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
        raw = type(self).raw
        self.wfile.write(json.dumps(payload).encode() if raw is None else raw)

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_server():
    _ChatHandler.seen = []
    _ChatHandler.status = 200
    _ChatHandler.content = "remote says hi"
    _ChatHandler.raw = None
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


NESTED_BODY = b"[" * 100_000  # json.loads raises RecursionError on it


@pytest.mark.parametrize(
    "raw, content",
    [(NESTED_BODY, None), (None, ""), (None, " \n\t ")],
    ids=["nested-body", "empty-content", "blank-content"],
)
def test_remote_reasoner_rejects_an_unusable_reply(chat_server, raw, content):
    _ChatHandler.raw = raw
    _ChatHandler.content = content
    reasoner = RemoteReasoner(url=chat_server, model="tiny-model")
    with pytest.raises(RemoteReasonerError, match="malformed chat-completion response"):
        reasoner.complete_text("sys", "user")


def test_explain_with_a_nested_remote_reply_exits_3(chat_server, tmp_path, capsys, monkeypatch):
    _ChatHandler.raw = NESTED_BODY
    monkeypatch.setenv("HEXAR_REASONER_URL", chat_server)
    trace = tmp_path / "trace.jsonl"
    main(["simulate", "--scenario", "7", "--task", "1", "--seed", "0", "--out", str(trace)])
    capsys.readouterr()
    code = main(["explain", "--trace", str(trace), "--query", "Why?", "--reasoner", "remote"])
    out, err = capsys.readouterr()
    assert code == 3
    assert "RemoteReasonerError: malformed chat-completion response" in err
    assert "Traceback" not in out + err


class _Refusing(TextReasoner):
    def complete(self, request):
        raise NoMatchError("no reply")


def test_hexar_answers_with_the_help_template_on_empty_remote_content(
    chat_server, tmp_path, capsys, monkeypatch, registry
):
    """A help-routed answer is phrased without a completion: no request reaches the endpoint."""
    _ChatHandler.content = ""
    monkeypatch.setenv("HEXAR_REASONER_URL", chat_server)
    path = tmp_path / "trace.jsonl"
    main(["simulate", "--scenario", "13", "--task", "1", "--seed", "0", "--out", str(path)])
    capsys.readouterr()
    query = "What happened?"
    code = main(["explain", "--trace", str(path), "--query", query, "--reasoner", "remote"])
    out, err = capsys.readouterr()
    assert code == 0, err
    offline = answer("hexar", query, hexar.read_trace(path), registry, ReasonerMeter(_Refusing()))
    assert (offline.produced_by, offline.reasoner_calls) == ("ask_human_for_help", 0)
    assert out.splitlines()[:2] == [offline.text, f"produced_by: {offline.produced_by}"]
    assert _ChatHandler.seen == []


def test_run_grid_records_a_nested_remote_reply_as_an_error(chat_server, registry):
    _ChatHandler.raw = NESTED_BODY
    reasoner = RemoteReasoner(url=chat_server, model="tiny-model")
    (record,) = run_grid(["end_to_end"], [(7, 1, 0)], reasoner, seed=0, registry=registry)
    assert (record.produced_by, record.explanation_text) == ("error:RemoteReasonerError", "")


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
    explanation = answer("end_to_end", "Why?", trace, registry, ReasonerMeter(reasoner))
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
