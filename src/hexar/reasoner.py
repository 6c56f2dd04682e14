"""Pluggable text-generation boundary.

All free-text generation in the system goes through a ``TextReasoner``. The
rule implementation is a deterministic pattern matcher used as the test
oracle (it refuses rather than guesses); the remote implementation talks to
a chat-completion HTTP endpoint; the latency model wraps another reasoner
and reports a virtual latency proportional to prompt size so that runtime
comparisons are deterministic.
"""

from __future__ import annotations

import functools
import json
import os
import re
import urllib.parse
from importlib import resources
from typing import NamedTuple

KNOWN_LOCATIONS = ("living room", "kitchen", "bedroom", "bathroom", "hallway")

_PLAN_TARGET = re.compile(r"location=([a-z ]+)\)")
_CATALOGUE_LINE = re.compile(r'^- if the evidence mentions "(.+?)": (.+)$', re.M)


class ReasonerError(RuntimeError):
    """Base class for reasoner failures."""


class NoMatchError(ReasonerError):
    """The rule reasoner has no deterministic answer for this prompt."""


class RemoteReasonerError(ReasonerError):
    """The remote endpoint failed or returned an unusable response."""


class ReasonerRequest(NamedTuple):
    system_prompt: str
    user_prompt: str
    max_tokens: int = 512


class ReasonerResponse(NamedTuple):
    """A completion and its modelled seconds; measured time is the caller's clock."""

    text: str
    latency: float = 0.0


class TextReasoner:
    """Interface: one completion per request."""

    def complete(self, request: ReasonerRequest) -> ReasonerResponse:
        raise NotImplementedError

    def modelled_latency(self, request: ReasonerRequest) -> float:
        """Modelled seconds a completion of ``request`` costs, also one that raises.

        0 unless latency is modelled (:class:`LatencyModelReasoner`).
        """
        return 0.0

    def complete_text(
        self, system_prompt: str, user_prompt: str, max_tokens: int = 512
    ) -> ReasonerResponse:
        return self.complete(
            ReasonerRequest(system_prompt=system_prompt, user_prompt=user_prompt, max_tokens=max_tokens)
        )


def read_package_data(name: str) -> str:
    """The text of ``name``, a file under ``hexar/data``; the one reader of that folder."""
    return resources.files("hexar.data").joinpath(name).read_text("utf-8")


def load_prompt_template(name: str) -> str:
    return read_package_data(f"prompts/{name}.txt")


def indent_headers(text: str) -> str:
    """``text`` with one space before each line that begins with ``## ``.

    Every question and every trace-derived string goes into a prompt through
    this, so none of them can open a section of its own (see :func:`_sections`).
    """
    if "## " in text:
        return ("\n" + text).replace("\n## ", "\n ## ")[1:]
    return text


def query_section(question: str) -> str:
    """The ``## Query`` section that carries the user's question into a prompt."""
    return f"## Query\n{indent_headers(question)}\n"


def _sections(prompt: str) -> dict[str, str]:
    """Every ``## name`` section of a prompt, from one split.

    A header is a whole line ``## name`` that ends in a newline, at the start
    of the prompt or after a newline. Its section runs to the next line that
    starts with ``## `` or to the end of the prompt. The first section of a
    name wins, and each body is stripped.
    """
    _, *pieces = ("\n" + prompt).split("\n## ")
    if pieces and "\n" not in pieces[-1]:
        pieces.pop()  # a last "## name" line without its newline is no header
    sections: dict[str, str] = {}
    for piece in pieces:
        # a piece without a newline is a header whose newline began the next one
        name, _, body = piece.partition("\n")
        if name not in sections:
            sections[name] = body.strip()
    return sections


# The rule reasoner's knowledge, parsed once when this module is imported:
# keywords in first-match order, and every situations.json entry in file
# order. Navigation renders its catalogue from the entries of its scope.
_KEYWORDS = tuple(
    (re.compile(entry["pattern"], re.I), entry["explainer"])
    for entry in json.loads(read_package_data("classifier_keywords.json"))
)
SITUATIONS = tuple(json.loads(read_package_data("situations.json")))


@functools.lru_cache(maxsize=16)
def _listed_situations(catalogue: str) -> tuple[tuple[str, str], ...]:
    """The (marker, sentence) pairs a ``## Known situations`` section lists, in order.

    Parsed once per distinct section text: a navigation prompt carries one of
    a few catalogue slices.
    """
    return tuple(_CATALOGUE_LINE.findall(catalogue))


class RuleReasoner(TextReasoner):
    """Deterministic stand-in for a greedy-decoded language model.

    Pattern-matches the structured sections of each known prompt family and
    emits the catalogue sentence for the matched situation. Raises
    :class:`NoMatchError` instead of fabricating an answer. A navigation
    prompt is answered only from the situations its ``## Known situations``
    section lists.

    Each prompt is split into sections once (:func:`_sections`): a section
    header is a whole line ``## name``, and the first section of a name wins.
    The prompt family is picked from which headers exist. The question and
    every string taken from the trace pass through :func:`indent_headers`,
    which indents a line that begins with ``## ``, so neither can add a
    section or pick a family.

    It holds no state: its knowledge is parsed from ``hexar/data`` once, when
    this module is imported, so ``RuleReasoner()`` builds nothing.
    """

    def complete(self, request: ReasonerRequest) -> ReasonerResponse:
        if not request.system_prompt or not request.user_prompt:
            raise ReasonerError("prompts must be non-empty")
        sections = _sections(request.user_prompt)
        if "Candidate explainers" in sections:
            text = self._classify(sections)
        elif "Explanations to merge" in sections:
            text = self._aggregate(sections)
        elif "All recorded information" in sections:
            text = self._end_to_end(sections)
        elif "Navigation logs" in sections:
            text = self._navigation(sections)
        elif "Instruction" in sections and "Plan" in sections:
            text = self._planner(sections)
        else:
            raise NoMatchError("no deterministic rule matches this prompt")
        return ReasonerResponse(text=text, latency=0.0)

    # -- prompt family handlers -------------------------------------------

    def _classify(self, sections: dict[str, str]) -> str:
        query = sections.get("Query")
        if query is None:
            raise NoMatchError("classification prompt lacks a query section")
        for pattern, explainer in _KEYWORDS:
            if pattern.search(query):
                return explainer
        # generic queries on successful runs default to the planner view
        return "planner"

    def _navigation(self, sections: dict[str, str]) -> str:
        evidence = sections["Navigation logs"] + "\n" + sections.get("Robot parameters", "")
        for marker, sentence in _listed_situations(sections.get("Known situations", "")):
            if marker in evidence:
                return sentence
        raise NoMatchError("no known navigation situation matches the evidence")

    def _planner_finding(self, sections: dict[str, str]) -> str | None:
        errors = sections.get("Grounding errors")
        if errors:
            sentences = []
            for line in errors.splitlines():
                err = line.lstrip("- ").strip()
                if not err:
                    continue
                if "no available skill" in err:
                    sentences.append(f"I am unable to complete this task: {err}.")
                else:
                    sentences.append(f"The plan could not be executed: {err}.")
            if sentences:
                return " ".join(sentences)
        for line in sections.get("Skill statuses", "").splitlines():
            if ": failed" in line:
                skill = line.lstrip("- ").split(":", 1)[0].strip()
                return f"The plan itself was valid; the {skill} skill failed during execution."
        instruction = sections.get("Instruction", "").lower()
        plan = sections.get("Plan", "").replace("_", " ").lower()
        targets = _PLAN_TARGET.findall(plan)
        for location in KNOWN_LOCATIONS:
            if location in instruction and location not in targets:
                return (
                    f"The plan does not fulfil the request: it never navigates to the {location}."
                )
        return None

    def _planner(self, sections: dict[str, str]) -> str:
        finding = self._planner_finding(sections)
        if finding is not None:
            return finding
        return "The plan was valid and every step completed successfully."

    def _end_to_end(self, sections: dict[str, str]) -> str:
        # match only evidence sections; the embedded situation catalogue
        # would otherwise match every marker
        evidence = "\n".join(
            sections.get(name, "")
            for name in ("Skill statuses", "Filtered logs", "Robot parameters", "Other events")
        )
        parts: list[str] = []
        finding = self._planner_finding(sections)
        if finding is not None:
            parts.append(finding)
        for entry in SITUATIONS:
            if entry["marker"] in evidence and entry["sentence"] not in parts:
                parts.append(entry["sentence"])
        if not parts:
            raise NoMatchError("no known situation matches the recorded information")
        return " ".join(parts)

    def _aggregate(self, sections: dict[str, str]) -> str:
        seen: list[str] = []
        for line in sections["Explanations to merge"].splitlines():
            text = line.lstrip("- ").strip()
            if text and text not in seen:
                seen.append(text)
        if not seen:
            raise NoMatchError("aggregation prompt lists no explanations")
        return " ".join(seen)


class RemoteReasoner(TextReasoner):
    """Client for an OpenAI-style chat-completion HTTP endpoint.

    Endpoint and model come from ``HEXAR_REASONER_URL`` /
    ``HEXAR_REASONER_MODEL`` unless given explicitly. Decoding is greedy
    (temperature 0), as evaluation runs need. Uses the standard library only.
    """

    def __init__(
        self,
        url: str | None = None,
        model: str | None = None,
        timeout: float = 60.0,
    ) -> None:
        self.url = url or os.environ.get("HEXAR_REASONER_URL", "")
        self.model = model or os.environ.get("HEXAR_REASONER_MODEL", "")
        self.timeout = timeout
        if not self.url:
            raise RemoteReasonerError(
                "no endpoint configured; set HEXAR_REASONER_URL or pass url="
            )
        if urllib.parse.urlsplit(self.url).scheme not in ("http", "https"):
            raise RemoteReasonerError(f"endpoint must be an http(s) URL: {self.url!r}")

    def complete(self, request: ReasonerRequest) -> ReasonerResponse:
        if not request.system_prompt or not request.user_prompt:
            raise ReasonerError("prompts must be non-empty")
        # imported here, not at module level: they load ssl and email, which
        # every process that never calls a remote endpoint would pay for
        import http.client
        import urllib.request

        body = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": request.system_prompt},
                {"role": "user", "content": request.user_prompt},
            ],
            "temperature": 0.0,
            "max_tokens": request.max_tokens,
        }
        http_request = urllib.request.Request(
            self.url,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            # urlopen raises HTTPError (an OSError) on a 4xx/5xx status
            with urllib.request.urlopen(http_request, timeout=self.timeout) as response:
                payload = json.loads(response.read())
            text = payload["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"content is {type(text).__name__}, not str")
            if not text.strip():
                raise ValueError("content is empty")
        except (OSError, http.client.HTTPException) as exc:
            raise RemoteReasonerError(f"chat-completion request failed: {exc}") from exc
        except (KeyError, IndexError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise RemoteReasonerError(f"malformed chat-completion response: {exc}") from exc
        return ReasonerResponse(text=text)


# Modelled cost of one completion: answer generation, plus prompt ingestion.
SECONDS_PER_CALL = 2.0
SECONDS_PER_100_CHARS = 0.25


class LatencyModelReasoner(TextReasoner):
    """Wrap a reasoner and report deterministic, prompt-size-based latency.

    The latency is virtual (never slept): ``SECONDS_PER_CALL`` plus
    ``SECONDS_PER_100_CHARS`` per 100 prompt characters, so both extra
    calls and large-context prompts cost measurably more. A refused call
    costs the same; :class:`~hexar.framework.ReasonerMeter` bills it from
    :meth:`modelled_latency`, since no response carries it.
    """

    def __init__(self, inner: TextReasoner) -> None:
        self.inner = inner

    def complete(self, request: ReasonerRequest) -> ReasonerResponse:
        response = self.inner.complete(request)
        return ReasonerResponse(text=response.text, latency=self.modelled_latency(request))

    def modelled_latency(self, request: ReasonerRequest) -> float:
        chars = len(request.system_prompt) + len(request.user_prompt)
        return SECONDS_PER_CALL + SECONDS_PER_100_CHARS * chars / 100.0


# The reasoner kinds the CLI's --reasoner flag offers, in the order it lists them.
REASONERS = {"rule": RuleReasoner, "remote": RemoteReasoner}


def make_reasoner(kind: str) -> TextReasoner:
    """Factory for the CLI's --reasoner flag."""
    if kind not in REASONERS:
        raise ValueError(f"unknown reasoner kind {kind!r}")
    return REASONERS[kind]()
