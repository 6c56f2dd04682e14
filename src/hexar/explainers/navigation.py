"""Navigation explainer: filtered logs plus state parameters into a reasoner.

The prompt carries the filtered log, the navigation-relevant parameter
events (charger, joystick, speed, localisation covariance) and a fixed
catalogue of known navigation situations the reasoner may recognise.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from importlib import resources

from ..framework import ExplainerError
from ..reasoner import TextReasoner, load_prompt_template
from ..trace import ContextVector, Event, Query

_RELEVANT_PARAMS = (
    "charger_connected",
    "joystick_enabled",
    "max_speed",
    "localization_covariance",
)

DEFAULT_DISCARD_PATTERNS = (
    "Controller loop",
    "Publishing velocity",
    "Waiting for costmap",
)


@dataclass(frozen=True)
class LogFilterRules:
    """Order-preserving, idempotent log reduction rules."""

    discard_patterns: tuple[str, ...] = DEFAULT_DISCARD_PATTERNS
    max_lines: int = 60

    def __post_init__(self) -> None:
        if self.max_lines < 2:
            raise ValueError("max_lines must keep at least the first and last line")


def _filter_once(lines: list[str], rules: LogFilterRules) -> list[str]:
    kept = lines
    for pattern in map(re.compile, rules.discard_patterns):
        kept = [line for line in kept if not pattern.search(line)]

    collapsed: list[str] = []
    run_start = 0
    for i in range(len(kept) + 1):
        if i < len(kept) and kept[i] == kept[run_start]:
            continue
        if run_start < len(kept):
            count = i - run_start
            line = kept[run_start]
            collapsed.append(line if count == 1 else f"{line} [x{count}]")
        run_start = i

    if len(collapsed) > rules.max_lines:
        collapsed = collapsed[: rules.max_lines - 1] + [collapsed[-1]]
    return collapsed


def filter_logs(lines: list[str], rules: LogFilterRules = LogFilterRules()) -> list[str]:
    """Drop known-irrelevant lines, collapse consecutive repeats, cap length.

    Repeats collapse to a single annotated line; when capping, the first and
    last retained lines always survive. The reduction is applied until it
    reaches a fixed point (truncation can create a new adjacent duplicate at
    the seam), which makes the whole operation idempotent.
    """
    current = list(lines)
    while True:
        reduced = _filter_once(current, rules)
        if reduced == current:
            return reduced
        current = reduced


@functools.lru_cache(maxsize=None)
def situation_catalogue() -> str:
    """Known navigation situations, rendered for the prompt."""
    entries = json.loads(
        resources.files("hexar.data").joinpath("situations.json").read_text("utf-8")
    )
    lines = [
        f"- if the evidence mentions \"{e['marker']}\": {e['sentence']}"
        for e in entries
        if e["scope"] == "navigation"
    ]
    return "\n".join(lines)


def build_navigation_prompt(
    query: Query,
    events: tuple[Event, ...],
    rules: LogFilterRules = LogFilterRules(),
) -> str:
    log_lines = [
        str(e.payload.get("text", ""))
        for e in events
        if e.kind == "log" and e.source == "navigation"
    ]
    filtered = filter_logs(log_lines, rules)
    try:
        params = [
            f"- {e.payload['name']} = {e.payload['value']}"
            for e in events
            if e.kind == "param" and e.payload.get("name") in _RELEVANT_PARAMS
        ]
    except KeyError as exc:
        raise ExplainerError(f"param event without a {exc} field") from exc
    return load_prompt_template("navigation").format(
        logs="\n".join(filtered) or "(no navigation logs)",
        params="\n".join(params) or "(none)",
        situation_catalogue=situation_catalogue(),
        query=query.text,
    )


def explain_navigation(
    query: Query,
    context: ContextVector,
    events: tuple[Event, ...],
    reasoner: TextReasoner,
    rules: LogFilterRules = LogFilterRules(),
) -> str:
    return reasoner.complete_text(
        system_prompt="You explain robot navigation behaviour.",
        user_prompt=build_navigation_prompt(query, events, rules),
    ).text
