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
import time
import urllib.parse
from dataclasses import dataclass
from importlib import resources

KNOWN_LOCATIONS = ("living room", "kitchen", "bedroom", "bathroom", "hallway")

_CF_LINE = re.compile(
    r"(\w+) occurred because (\w+) = (.+?)\. "
    r"If \2 = (.+?), (\w+) would have occurred instead\."
)


class ReasonerError(RuntimeError):
    """Base class for reasoner failures."""


class NoMatchError(ReasonerError):
    """The rule reasoner has no deterministic answer for this prompt."""


class RemoteReasonerError(ReasonerError):
    """The remote endpoint failed or returned an unusable response."""


@dataclass(frozen=True)
class ReasonerRequest:
    system_prompt: str
    user_prompt: str
    max_tokens: int = 512
    temperature: float = 0.0  # evaluation runs are greedy


@dataclass(frozen=True)
class ReasonerResponse:
    text: str
    latency: float = 0.0
    token_count: int = 0


class TextReasoner:
    """Interface: one completion per request."""

    def complete(self, request: ReasonerRequest) -> ReasonerResponse:
        raise NotImplementedError

    def complete_text(
        self, system_prompt: str, user_prompt: str, max_tokens: int = 512
    ) -> ReasonerResponse:
        return self.complete(
            ReasonerRequest(system_prompt=system_prompt, user_prompt=user_prompt, max_tokens=max_tokens)
        )


def _load_json(name: str):
    return json.loads(resources.files("hexar.data").joinpath(name).read_text("utf-8"))


@functools.lru_cache(maxsize=None)
def load_prompt_template(name: str) -> str:
    return resources.files("hexar.data").joinpath(f"prompts/{name}.txt").read_text("utf-8")


def _section(prompt: str, name: str) -> str | None:
    """Text of the first '## name' section, up to the next section header.

    A header is the line ``## name`` at the start of the prompt or after a
    newline; the section ends before the next line starting with ``## ``.
    """
    header = f"## {name}\n"
    if prompt.startswith(header):
        start = len(header)
    else:
        start = prompt.find("\n" + header)
        if start < 0:
            return None
        start += 1 + len(header)
    end = prompt.find("\n## ", start - 1)
    return prompt[start : end if end >= 0 else len(prompt)].strip()


class RuleReasoner(TextReasoner):
    """Deterministic stand-in for a greedy-decoded language model.

    Pattern-matches the structured sections of each known prompt family and
    emits the catalogue sentence for the matched situation. Raises
    :class:`NoMatchError` instead of fabricating an answer.
    """

    def __init__(self) -> None:
        self._keywords = [
            (re.compile(entry["pattern"], re.I), entry["explainer"])
            for entry in _load_json("classifier_keywords.json")
        ]
        self._situations = _load_json("situations.json")
        self._cf_phrasings = _load_json("counterfactual_phrasings.json")

    def complete(self, request: ReasonerRequest) -> ReasonerResponse:
        if not request.system_prompt or not request.user_prompt:
            raise ReasonerError("prompts must be non-empty")
        prompt = request.user_prompt
        if "## Candidate explainers" in prompt:
            text = self._classify(prompt)
        elif "## Explanations to merge" in prompt:
            text = self._aggregate(prompt)
        elif "## Counterfactual" in prompt:
            text = self._naturalise(prompt)
        elif "## All recorded information" in prompt:
            text = self._end_to_end(prompt)
        elif "## Navigation logs" in prompt:
            text = self._navigation(prompt)
        elif "## Instruction" in prompt and "## Plan" in prompt:
            text = self._planner(prompt)
        else:
            raise NoMatchError("no deterministic rule matches this prompt")
        return ReasonerResponse(text=text, latency=0.0, token_count=len(text.split()))

    # -- prompt family handlers -------------------------------------------

    def _classify(self, prompt: str) -> str:
        query = _section(prompt, "Query")
        if query is None:
            raise NoMatchError("classification prompt lacks a query section")
        for pattern, explainer in self._keywords:
            if pattern.search(query):
                return explainer
        # generic queries on successful runs default to the planner view
        return "planner"

    def _matches(self, text: str, scopes: tuple[str, ...]) -> list[str]:
        found = []
        for entry in self._situations:
            if entry["scope"] in scopes and entry["marker"] in text:
                found.append(entry["sentence"])
        return found

    def _navigation(self, prompt: str) -> str:
        logs = _section(prompt, "Navigation logs") or ""
        params = _section(prompt, "Robot parameters") or ""
        matched = self._matches(logs + "\n" + params, ("navigation",))
        if not matched:
            raise NoMatchError("no known navigation situation matches the evidence")
        return matched[0]

    def _planner_finding(self, prompt: str) -> str | None:
        errors = _section(prompt, "Grounding errors")
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
        statuses = _section(prompt, "Skill statuses") or ""
        for line in statuses.splitlines():
            if ": failed" in line:
                skill = line.lstrip("- ").split(":", 1)[0].strip()
                return f"The plan itself was valid; the {skill} skill failed during execution."
        instruction = (_section(prompt, "Instruction") or "").lower()
        plan = (_section(prompt, "Plan") or "").replace("_", " ").lower()
        targets = re.findall(r"location=([a-z ]+)\)", plan)
        for location in KNOWN_LOCATIONS:
            if location in instruction and location not in targets:
                return (
                    f"The plan does not fulfil the request: it never navigates to the {location}."
                )
        return None

    def _planner(self, prompt: str) -> str:
        finding = self._planner_finding(prompt)
        if finding is not None:
            return finding
        return "The plan was valid and every step completed successfully."

    def _end_to_end(self, prompt: str) -> str:
        # match only evidence sections; the embedded situation catalogue
        # would otherwise match every marker
        evidence = "\n".join(
            _section(prompt, name) or ""
            for name in ("Skill statuses", "Filtered logs", "Robot parameters", "Other events")
        )
        parts: list[str] = []
        finding = self._planner_finding(prompt)
        if finding is not None:
            parts.append(finding)
        for sentence in self._matches(evidence, ("navigation", "help", "tts", "pizza")):
            if sentence not in parts:
                parts.append(sentence)
        if not parts:
            raise NoMatchError("no known situation matches the recorded information")
        return " ".join(parts)

    def _naturalise(self, prompt: str) -> str:
        section = _section(prompt, "Counterfactual") or ""
        match = _CF_LINE.search(section)
        if not match:
            raise NoMatchError("counterfactual sentence does not parse")
        outcome, _, observed, boundary, _ = match.groups()
        phrasing = self._cf_phrasings.get(outcome)
        if phrasing is None:
            raise NoMatchError(f"no phrasing for outcome {outcome!r}")
        return phrasing.format(x=observed, x_star=boundary)

    def _aggregate(self, prompt: str) -> str:
        section = _section(prompt, "Explanations to merge")
        if section is None:
            raise NoMatchError("aggregation prompt lacks explanations")
        seen: list[str] = []
        for line in section.splitlines():
            text = line.lstrip("- ").strip()
            if text and text not in seen:
                seen.append(text)
        if not seen:
            raise NoMatchError("aggregation prompt lists no explanations")
        return " ".join(seen)


class RemoteReasoner(TextReasoner):
    """Client for an OpenAI-style chat-completion HTTP endpoint.

    Endpoint and model come from ``HEXAR_REASONER_URL`` /
    ``HEXAR_REASONER_MODEL`` unless given explicitly. The request
    temperature is forwarded unchanged. Uses the standard library only.
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
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        http_request = urllib.request.Request(
            self.url,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        start = time.perf_counter()
        try:
            # urlopen raises HTTPError (an OSError) on a 4xx/5xx status
            with urllib.request.urlopen(http_request, timeout=self.timeout) as response:
                payload = json.loads(response.read())
            text = payload["choices"][0]["message"]["content"]
            usage = payload.get("usage")
            tokens = int(usage.get("total_tokens", 0)) if isinstance(usage, dict) else 0
        except (OSError, http.client.HTTPException) as exc:
            raise RemoteReasonerError(f"chat-completion request failed: {exc}") from exc
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise RemoteReasonerError(f"malformed chat-completion response: {exc}") from exc
        elapsed = time.perf_counter() - start
        if not tokens:
            tokens = len(str(text).split())
        return ReasonerResponse(text=str(text), latency=elapsed, token_count=tokens)


class LatencyModelReasoner(TextReasoner):
    """Wrap a reasoner and report deterministic, prompt-size-based latency.

    The latency is virtual (never slept): a fixed per-call cost (answer
    generation) plus a fixed number of seconds per 100 prompt characters
    (prompt ingestion), so both extra calls and large-context prompts cost
    measurably more.
    """

    def __init__(
        self,
        inner: TextReasoner,
        seconds_per_100_chars: float = 0.25,
        seconds_per_call: float = 2.0,
    ) -> None:
        if seconds_per_100_chars < 0 or seconds_per_call < 0:
            raise ValueError("latency parameters must be non-negative")
        self.inner = inner
        self.seconds_per_100_chars = seconds_per_100_chars
        self.seconds_per_call = seconds_per_call

    def complete(self, request: ReasonerRequest) -> ReasonerResponse:
        response = self.inner.complete(request)
        chars = len(request.system_prompt) + len(request.user_prompt)
        return ReasonerResponse(
            text=response.text,
            latency=self.seconds_per_call + self.seconds_per_100_chars * chars / 100.0,
            token_count=response.token_count,
        )


def make_reasoner(kind: str) -> TextReasoner:
    """Factory for the CLI's --reasoner flag."""
    if kind == "rule":
        return RuleReasoner()
    if kind == "remote":
        return RemoteReasoner()
    raise ValueError(f"unknown reasoner kind {kind!r}")
