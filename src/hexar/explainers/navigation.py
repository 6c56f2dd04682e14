"""Navigation explainer: filtered logs plus state parameters into a reasoner.

The prompt carries the filtered log, the navigation-relevant parameter
events (charger, joystick, speed, localisation covariance) and a fixed
catalogue of known navigation situations the reasoner may recognise.
"""

from __future__ import annotations

import itertools
import re

from ..framework import ExplainerError
from ..reasoner import (
    NAVIGATION_SITUATIONS,
    TextReasoner,
    indent_headers,
    load_prompt_template,
    query_section,
)
from ..trace import ContextVector, EventView, Query

_RELEVANT_PARAMS = (
    "charger_connected",
    "joystick_enabled",
    "max_speed",
    "localization_covariance",
)

DISCARD_PHRASES = (
    "Controller loop",
    "Publishing velocity",
    "Waiting for costmap",
)
_DISCARD = re.compile("|".join(map(re.escape, DISCARD_PHRASES)))

_TEMPLATE = load_prompt_template("navigation")

# The context budget, in log lines, of both the navigation prompt and the
# end-to-end prompt: a longer filtered log keeps its first and last lines.
MAX_LOG_LINES = 60


def _filter_once(lines: list[str]) -> list[str]:
    kept = list(itertools.filterfalse(_DISCARD.search, lines))

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

    if len(collapsed) > MAX_LOG_LINES:
        collapsed = collapsed[: MAX_LOG_LINES - 1] + [collapsed[-1]]
    return collapsed


def filter_logs(lines: list[str]) -> list[str]:
    """Drop known-irrelevant lines, collapse consecutive repeats, cap length.

    Repeats collapse to a single annotated line; when capping to
    ``MAX_LOG_LINES``, the first and last retained lines always survive. The
    reduction is applied until it reaches a fixed point (truncation can
    create a new adjacent duplicate at the seam), which makes the whole
    operation idempotent.
    """
    current = list(lines)
    while True:
        reduced = _filter_once(current)
        if reduced == current:
            return reduced
        current = reduced


_CATALOGUE = "\n".join(f'- if the evidence mentions "{m}": {s}' for m, s in NAVIGATION_SITUATIONS)


def situation_catalogue() -> str:
    """Known navigation situations, rendered for the prompt once per process."""
    return _CATALOGUE


def _navigation_evidence(events: EventView) -> str:
    """The navigation prompt up to its query."""
    log_lines: list[str] = []
    params: list[str] = []
    try:
        for e in events:
            if e.kind == "log":
                if e.source == "navigation":
                    log_lines.append(str(e.payload.get("text", "")))
            elif e.kind == "param" and e.payload.get("name") in _RELEVANT_PARAMS:
                params.append(f"- {e.payload['name']} = {e.payload['value']}")
    except KeyError as exc:
        raise ExplainerError(f"param event without a {exc} field") from exc
    return _TEMPLATE.format(
        logs=indent_headers("\n".join(filter_logs(log_lines))) or "(no navigation logs)",
        params=indent_headers("\n".join(params)) or "(none)",
        situation_catalogue=situation_catalogue(),
    )


def build_navigation_prompt(query: Query, events: EventView) -> str:
    """The navigation prompt; its head is built once per event view."""
    return events.derived(_navigation_evidence) + query_section(query.text)


def explain_navigation(
    query: Query,
    context: ContextVector,
    events: EventView,
    reasoner: TextReasoner,
) -> str:
    return reasoner.complete_text(
        system_prompt="You explain robot navigation behaviour.",
        user_prompt=build_navigation_prompt(query, events),
    ).text
