"""Ask-human-for-help explainer backed by a causal gate model.

The help skill runs a fixed state machine: detect a person, approach them,
ask for help, wait for confirmation. Each stage is modelled as a gate over
an execution variable; explanations answer "why this outcome and not
success" with a minimal single-variable intervention. A failed outcome is
answered with its phrasing from ``counterfactual_phrasings.json``, filled
with the intervention's observed and boundary values; no answer calls the
reasoner.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple

from ..framework import ExplainerError
from ..reasoner import TextReasoner, read_package_data
from ..stats import sample_variance
from ..trace import ContextVector, Event, EventView, Query

# Detections closer together than this belong to one contiguous run.
DETECTION_GAP = 0.5
T_STABLE = 2.0  # seconds of contiguous detection required
D_MAX = 3.0  # metres within which a person can be asked
VAR_MAX = 0.25  # position variance (m^2) considered socially fine

COUNTERFACTUAL_TEMPLATE = (
    "{Y} occurred because {X} = {x}. If {X} = {x_star}, {Y_star} would have occurred instead."
)

# The answer to each failed outcome, by outcome value, parsed once per process:
# ``{x}`` is the failed gate's observed value and ``{x_star}`` its boundary.
_PHRASINGS = json.loads(read_package_data("counterfactual_phrasings.json"))


class HelpOutcome(str, Enum):
    SUCCESS = "success"
    NO_HUMAN_FOUND = "no_human_found"
    HUMAN_TOO_FAR = "human_too_far"
    UNSTABLE_DETECTION = "unstable_detection"
    APPROACH_FAILED = "approach_failed"
    HELP_REFUSED = "help_refused"
    NO_CONFIRMATION = "no_confirmation"


class HelpResponse(str, Enum):
    AGREE = "agree"
    REFUSE = "refuse"
    NONE = "none"


@dataclass(frozen=True)
class HelpVariables:
    """Execution variables extracted from the help skill's events.

    ``min_distance`` is None when nobody was ever detected.
    """

    n_humans: int
    detection_duration: float
    detection_variance: float
    min_distance: float | None
    path_feasible: bool
    response: HelpResponse
    confirmation: bool

    def __post_init__(self) -> None:
        numeric = [self.n_humans, self.detection_duration, self.detection_variance]
        if self.min_distance is not None:
            numeric.append(self.min_distance)
        for value in numeric:
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"help variables must be finite and non-negative: {value}")


class Gate(NamedTuple):
    variable: str
    predicate: Callable[[HelpVariables], bool]
    failure: HelpOutcome
    passing_value: object  # value on the passing side of the predicate boundary


# Ordered gates mirroring the skill's state machine.
GATES = (
    Gate(
        "n_humans",
        lambda v: v.n_humans >= 1,
        HelpOutcome.NO_HUMAN_FOUND,
        1,
    ),
    Gate(
        "min_distance",
        lambda v: v.min_distance is not None and v.min_distance <= D_MAX,
        HelpOutcome.HUMAN_TOO_FAR,
        D_MAX,
    ),
    Gate(
        "detection_duration",
        lambda v: v.detection_duration >= T_STABLE,
        HelpOutcome.UNSTABLE_DETECTION,
        T_STABLE,
    ),
    Gate(
        "path_feasible",
        lambda v: v.path_feasible,
        HelpOutcome.APPROACH_FAILED,
        True,
    ),
    Gate(
        "response",
        lambda v: v.response is HelpResponse.AGREE,
        HelpOutcome.HELP_REFUSED,
        HelpResponse.AGREE,
    ),
    Gate(
        "confirmation",
        lambda v: v.confirmation,
        HelpOutcome.NO_CONFIRMATION,
        True,
    ),
)


def _detection_runs(events: tuple[Event, ...]) -> list[list[Event]]:
    runs: list[list[Event]] = []
    current: list[Event] = []
    last_ts = None
    for event in events:
        if event.kind != "detection":
            continue
        if int(event.payload.get("n_humans", 0)) >= 1:
            if current and last_ts is not None and event.ts - last_ts > DETECTION_GAP:
                runs.append(current)
                current = []
            current.append(event)
            last_ts = event.ts
        else:
            if current:
                runs.append(current)
                current = []
            last_ts = None
    if current:
        runs.append(current)
    return runs


def extract_variables(events: tuple[Event, ...]) -> HelpVariables:
    """Compute the gate variables from the skill's detection/dialogue events.

    Detection variance is the sample variance of positions (var(x) + var(y))
    over the longest contiguous detection run.
    """
    detections = [e for e in events if e.kind == "detection"]
    n_humans = max((int(e.payload.get("n_humans", 0)) for e in detections), default=0)

    runs = _detection_runs(events)
    duration = 0.0
    variance = 0.0
    if runs:
        longest = max(runs, key=lambda run: (run[-1].ts - run[0].ts, -run[0].ts))
        duration = longest[-1].ts - longest[0].ts
        xs = [float(e.payload["human.0.x"]) for e in longest if "human.0.x" in e.payload]
        ys = [float(e.payload["human.0.y"]) for e in longest if "human.0.y" in e.payload]
        variance = sample_variance(xs) + sample_variance(ys)

    distances = [
        float(e.payload["human.0.distance"])
        for e in detections
        if int(e.payload.get("n_humans", 0)) >= 1 and "human.0.distance" in e.payload
    ]
    min_distance = min(distances) if distances else None

    path_feasible = True
    for event in events:
        if "path_feasible" in event.payload:
            path_feasible = bool(event.payload["path_feasible"])

    response = HelpResponse.NONE
    confirmation = False
    for event in events:
        if event.kind != "dialogue":
            continue
        if "response" in event.payload:
            raw = str(event.payload["response"])
            try:
                response = HelpResponse(raw)
            except ValueError as exc:
                raise ValueError(f"malformed dialogue response: {raw!r}") from exc
        if "confirmed" in event.payload:
            confirmation = bool(event.payload["confirmed"])

    return HelpVariables(
        n_humans=n_humans,
        detection_duration=duration,
        detection_variance=variance,
        min_distance=min_distance,
        path_feasible=path_feasible,
        response=response,
        confirmation=confirmation,
    )


def evaluate_model(v: HelpVariables) -> HelpOutcome:
    """Outcome of the first failing gate, in state-machine order."""
    for gate in GATES:
        if not gate.predicate(v):
            return gate.failure
    return HelpOutcome.SUCCESS


class CounterfactualResult(NamedTuple):
    realized: HelpOutcome
    variable: str
    observed: object
    intervention: object
    resulting: HelpOutcome


def counterfactual(v: HelpVariables) -> CounterfactualResult:
    """Minimal single-variable intervention toward success.

    The failed gate's variable is set exactly to its boundary value, which
    moves execution past that gate; the resulting outcome may still be a
    later gate's failure.
    """
    realized = evaluate_model(v)
    if realized is HelpOutcome.SUCCESS:
        raise ValueError(f"realized outcome already equals desired ({realized.value})")
    gate = next(g for g in GATES if g.failure is realized)
    observed = getattr(v, gate.variable)
    intervened = replace(v, **{gate.variable: gate.passing_value})
    resulting = evaluate_model(intervened)
    return CounterfactualResult(realized, gate.variable, observed, gate.passing_value, resulting)


def _fmt(value: object) -> str:
    if isinstance(value, HelpResponse):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "absent"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_counterfactual(result: CounterfactualResult) -> str:
    """Fill the fixed counterfactual sentence template."""
    return COUNTERFACTUAL_TEMPLATE.format(
        Y=result.realized.value,
        X=result.variable,
        x=_fmt(result.observed),
        x_star=_fmt(result.intervention),
        Y_star=result.resulting.value,
    )


def phrase_counterfactual(result: CounterfactualResult) -> str:
    """The realised outcome's phrasing, filled with the values the template shows."""
    return _PHRASINGS[result.realized.value].format(
        x=_fmt(result.observed), x_star=_fmt(result.intervention)
    )


def _approach_replans(events: tuple[Event, ...]) -> int:
    return sum(
        1
        for e in events
        if e.kind == "log" and "approach path was replanned" in str(e.payload.get("text", ""))
    )


def _help_evidence(events: EventView) -> str:
    if not any(e.source == "ask_human_for_help" for e in events):
        return "The ask-human-for-help skill was not used in this task."

    try:
        v = extract_variables(events)
    except (TypeError, ValueError, OverflowError) as exc:  # payload values from the trace file
        raise ExplainerError(str(exc)) from exc
    if evaluate_model(v) is not HelpOutcome.SUCCESS:
        return phrase_counterfactual(counterfactual(v))

    if v.detection_variance > VAR_MAX:
        return (
            "I completed the task, but I may have approached the person poorly "
            "due to high variance in the person's detection "
            f"({v.detection_variance:.2f} m² against a tolerance of {VAR_MAX:.2f} m²)."
        )
    replans = _approach_replans(events)
    if replans > 0:
        times = "once" if replans == 1 else f"{replans} times"
        return (
            "I completed the task, but I may have approached the person poorly: "
            f"my approach path was replanned around obstacles {times} during the approach."
        )
    return (
        "I asked a person for help and they assisted me; "
        "the ask-human-for-help skill completed normally."
    )


def explain_help(
    query: Query,
    context: ContextVector,
    events: EventView,
    reasoner: TextReasoner,
) -> str:
    """Counterfactual phrasing on failure, templated answer otherwise.

    The answer depends on the events alone: found once per event view.
    """
    return events.derived(_help_evidence)
