from __future__ import annotations

import json
import re
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexar.reasoner import (
    LatencyModelReasoner,
    NoMatchError,
    ReasonerError,
    ReasonerRequest,
    RemoteReasoner,
    RemoteReasonerError,
    RuleReasoner,
    TextReasoner,
    _section,
    make_reasoner,
)

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
        assert _section(prompt, name) == _section_oracle(prompt, name)


class _RecordingReasoner(TextReasoner):
    def __init__(self, inner: TextReasoner) -> None:
        self.inner = inner
        self.prompts: list[str] = []

    def complete(self, request):
        self.prompts.append(request.user_prompt)
        return self.inner.complete(request)


def test_section_matches_the_regex_definition_on_every_grid_prompt(rule_reasoner):
    from hexar.evaluation import METHODS, run_grid
    from hexar.scenarios import grid_triples

    recorder = _RecordingReasoner(rule_reasoner)
    run_grid(list(METHODS), grid_triples(), recorder, seed=0)
    assert len(recorder.prompts) > 900
    for prompt in recorder.prompts:
        for name in SECTION_NAMES:
            assert _section(prompt, name) == _section_oracle(prompt, name)


def test_default_temperature_is_greedy():
    request = ReasonerRequest(system_prompt="s", user_prompt="u")
    assert request.temperature == 0.0


# -- latency model ------------------------------------------------------------


def test_latency_model_is_linear_in_prompt_size(rule_reasoner):
    double = LatencyModelReasoner(rule_reasoner, seconds_per_100_chars=0.5, seconds_per_call=2.0)
    prompt = CLASSIFY_PROMPT.format(query="Why did you pick that pizza?")
    response = double.complete_text("sys", prompt)
    expected = 2.0 + 0.5 * (len("sys") + len(prompt)) / 100.0
    assert response.latency == pytest.approx(expected, abs=1e-12)
    assert response.text == "pizza_recommender"
    assert response.token_count == rule_reasoner.complete_text("sys", prompt).token_count


def test_latency_model_rejects_negative_rates(rule_reasoner):
    with pytest.raises(ValueError):
        LatencyModelReasoner(rule_reasoner, seconds_per_100_chars=-1.0)


def test_make_reasoner_factory():
    assert isinstance(make_reasoner("rule"), RuleReasoner)
    with pytest.raises(ValueError):
        make_reasoner("quantum")


# -- remote client --------------------------------------------------------------


class _ChatHandler(BaseHTTPRequestHandler):
    seen: list[dict] = []
    status = 200

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).seen.append(body)
        self.send_response(type(self).status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        payload = {
            "choices": [{"message": {"role": "assistant", "content": "remote says hi"}}],
            "usage": {"total_tokens": 11},
        }
        self.wfile.write(json.dumps(payload).encode())

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_server():
    _ChatHandler.seen = []
    _ChatHandler.status = 200
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
    assert response.token_count == 11
    assert response.latency >= 0.0
    body = _ChatHandler.seen[0]
    assert body["model"] == "tiny-model"
    assert body["temperature"] == 0.0  # forwarded unchanged
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
