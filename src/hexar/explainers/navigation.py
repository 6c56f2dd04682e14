"""Navigation explainer: filtered logs plus state parameters into a reasoner.

The prompt carries the filtered log, the navigation-relevant parameter
events (charger, joystick, speed, localisation covariance) and the known
navigation situations the reasoner may recognise.

Navigation is one level of hierarchy: three sub-explainers each own a slice
of the situation catalogue. ``mode`` holds the charger and joystick,
``motion`` bad localisation and the speed limit, and ``path`` the static
obstacle and replanning. The slice is picked from the navigation params the
trace sets, never from the catalogue's markers, and without a reasoner call.
A motion param selects ``motion`` whatever its value; a mode param selects
``mode`` only when its value is ``true``, since a charger that is not
connected or a joystick that is off overrides nothing. Every navigation
param is listed in the prompt either way. A trace whose params select none
gets ``path``; params of two sub-explainers give the union of their slices,
in catalogue order. The catalogue is the ``navigation`` entries of
``situations.json``, in file order; the end-to-end baseline shows all of it
(``SITUATION_CATALOGUE``).
"""

from __future__ import annotations

import itertools
import re

from ..framework import ExplainerError
from ..reasoner import (
    SITUATIONS,
    TextReasoner,
    indent_headers,
    load_prompt_template,
    query_section,
)
from ..trace import ContextVector, EventView, Query

# The sub-explainer each navigation param selects; other params are not shown.
_SUB_EXPLAINER_OF_PARAM = {
    "charger_connected": "mode",
    "joystick_enabled": "mode",
    "max_speed": "motion",
    "localization_covariance": "motion",
}

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


# (owning sub-explainer, prompt line) of each known situation, in catalogue order
_CATALOGUE_LINES = tuple(
    (e["sub_explainer"], f'- if the evidence mentions "{e["marker"]}": {e["sentence"]}')
    for e in SITUATIONS
    if e["scope"] == "navigation"
)
# every known navigation situation, rendered for a prompt once per process
SITUATION_CATALOGUE = "\n".join(line for _, line in _CATALOGUE_LINES)


def _sub_explainer_of(name: object) -> str | None:
    # a malformed trace may name a param with a list, which names no param
    return _SUB_EXPLAINER_OF_PARAM.get(name) if isinstance(name, str) else None


def _navigation_evidence(events: EventView) -> str:
    """The navigation prompt up to its query, with the selected catalogue slice."""
    log_lines: list[str] = []
    params: list[str] = []
    selected: set[str] = set()
    try:
        for e in events:
            if e.kind == "log":
                if e.source == "navigation":
                    log_lines.append(str(e.payload.get("text", "")))
            elif e.kind == "param":
                sub_explainer = _sub_explainer_of(e.payload.get("name"))
                if sub_explainer is not None:
                    value = e.payload["value"]
                    params.append(f"- {e.payload['name']} = {value}")
                    # a charger not connected or a joystick off overrides nothing
                    if sub_explainer != "mode" or value is True:
                        selected.add(sub_explainer)
    except KeyError as exc:
        raise ExplainerError(f"param event without a {exc} field") from exc
    # path's situations show only in log lines, so no param selects it
    selected = selected or {"path"}
    return _TEMPLATE.format(
        logs=indent_headers("\n".join(filter_logs(log_lines))) or "(no navigation logs)",
        params=indent_headers("\n".join(params)) or "(none)",
        situation_catalogue="\n".join(line for sub, line in _CATALOGUE_LINES if sub in selected),
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
