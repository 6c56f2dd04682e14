"""Ask-human-for-help explainer backed by a causal gate model.

The help skill runs a fixed state machine: detect a person, approach them,
ask for help, wait for confirmation. Each stage is modelled as a gate over
an execution variable; explanations answer "why this outcome and not that
one" with minimal single-variable interventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

from ..framework import ExplainerError
from ..reasoner import ReasonerError, TextReasoner
from ..trace import ContextVector, Event, Query

# Detections closer together than this belong to one contiguous run.
DETECTION_GAP = 0.5

COUNTERFACTUAL_TEMPLATE = (
    "{Y} occurred because {X} = {x}. If {X} = {x_star}, {Y_star} would have occurred instead."
)


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
class HelpThresholds:
    t_stable: float = 2.0   # seconds of contiguous detection required
    d_max: float = 3.0      # metres within which a person can be asked
    var_max: float = 0.25   # position variance (m^2) considered socially fine

    def __post_init__(self) -> None:
        if min(self.t_stable, self.d_max, self.var_max) <= 0:
            raise ValueError("thresholds must be strictly positive")


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


@dataclass(frozen=True)
class Gate:
    variable: str
    predicate: Callable[[HelpVariables, HelpThresholds], bool]
    failure: HelpOutcome
    # value on the passing side of the predicate boundary
    passing_value: Callable[[HelpVariables, HelpThresholds], object]
    failing_value: object


@dataclass(frozen=True)
class CausalHelpModel:
    """Ordered gates mirroring the skill's state machine."""

    thresholds: HelpThresholds
    gates: tuple[Gate, ...]


def build_help_model(thresholds: HelpThresholds = HelpThresholds()) -> CausalHelpModel:
    gates = (
        Gate(
            "n_humans",
            lambda v, t: v.n_humans >= 1,
            HelpOutcome.NO_HUMAN_FOUND,
            lambda v, t: 1,
            0,
        ),
        Gate(
            "min_distance",
            lambda v, t: v.min_distance is not None and v.min_distance <= t.d_max,
            HelpOutcome.HUMAN_TOO_FAR,
            lambda v, t: t.d_max,
            None,
        ),
        Gate(
            "detection_duration",
            lambda v, t: v.detection_duration >= t.t_stable,
            HelpOutcome.UNSTABLE_DETECTION,
            lambda v, t: t.t_stable,
            0.0,
        ),
        Gate(
            "path_feasible",
            lambda v, t: v.path_feasible,
            HelpOutcome.APPROACH_FAILED,
            lambda v, t: True,
            False,
        ),
        Gate(
            "response",
            lambda v, t: v.response is HelpResponse.AGREE,
            HelpOutcome.HELP_REFUSED,
            lambda v, t: HelpResponse.AGREE,
            HelpResponse.REFUSE,
        ),
        Gate(
            "confirmation",
            lambda v, t: v.confirmation,
            HelpOutcome.NO_CONFIRMATION,
            lambda v, t: True,
            False,
        ),
    )
    return CausalHelpModel(thresholds=thresholds, gates=gates)


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


def _sample_variance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / (len(values) - 1)


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
        variance = _sample_variance(xs) + _sample_variance(ys)

    distances = [
        float(e.payload["human.0.distance"])
        for e in detections
        if int(e.payload.get("n_humans", 0)) >= 1 and "human.0.distance" in e.payload
    ]
    min_distance = min(distances) if distances else None
    if n_humans == 0:
        duration = 0.0
        min_distance = None

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


def evaluate_model(model: CausalHelpModel, v: HelpVariables) -> HelpOutcome:
    """Outcome of the first failing gate, in state-machine order."""
    for gate in model.gates:
        if not gate.predicate(v, model.thresholds):
            return gate.failure
    return HelpOutcome.SUCCESS


@dataclass(frozen=True)
class CounterfactualResult:
    realized: HelpOutcome
    variable: str
    observed: object
    intervention: object
    resulting: HelpOutcome


class MultiCauseError(RuntimeError):
    """No single-variable intervention reaches the desired outcome."""

    def __init__(self, failing_gates: list[str]):
        self.failing_gates = failing_gates
        super().__init__(
            "multiple causes prevent the desired outcome: " + ", ".join(failing_gates)
        )


def _gate_index(model: CausalHelpModel, outcome: HelpOutcome) -> int:
    for i, gate in enumerate(model.gates):
        if gate.failure is outcome:
            return i
    return len(model.gates)  # success sits past the last gate


def counterfactual(
    model: CausalHelpModel,
    v: HelpVariables,
    desired: HelpOutcome = HelpOutcome.SUCCESS,
) -> CounterfactualResult:
    """Minimal single-variable intervention toward ``desired``.

    For success-directed queries the failed gate's variable is set exactly
    to its boundary value, which moves execution past that gate; the
    resulting outcome may still be a later gate's failure. For a desired
    failure outcome, the gate separating the realized and desired outcomes
    is targeted instead.
    """
    realized = evaluate_model(model, v)
    if realized is desired:
        raise ValueError(f"realized outcome already equals desired ({desired.value})")

    realized_idx = _gate_index(model, realized)
    desired_idx = _gate_index(model, desired)

    if desired_idx < realized_idx:
        # Make an earlier (currently passing) gate fail.
        gate = model.gates[desired_idx]
        observed = getattr(v, gate.variable)
        intervened = replace(v, **{gate.variable: gate.failing_value})
        resulting = evaluate_model(model, intervened)
        return CounterfactualResult(realized, gate.variable, observed, gate.failing_value, resulting)

    gate = model.gates[realized_idx]
    observed = getattr(v, gate.variable)
    boundary = gate.passing_value(v, model.thresholds)
    intervened = replace(v, **{gate.variable: boundary})
    resulting = evaluate_model(model, intervened)
    if desired is not HelpOutcome.SUCCESS and resulting is not desired:
        failing = [
            g.variable
            for g in model.gates[: desired_idx]
            if not g.predicate(v, model.thresholds)
        ]
        raise MultiCauseError(failing)
    return CounterfactualResult(realized, gate.variable, observed, boundary, resulting)


def render_counterfactual(result: CounterfactualResult) -> str:
    """Fill the fixed counterfactual sentence template."""

    def fmt(value: object) -> str:
        if isinstance(value, HelpResponse):
            return value.value
        if isinstance(value, bool):
            return "true" if value else "false"
        if value is None:
            return "absent"
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    return COUNTERFACTUAL_TEMPLATE.format(
        Y=result.realized.value,
        X=result.variable,
        x=fmt(result.observed),
        x_star=fmt(result.intervention),
        Y_star=result.resulting.value,
    )


def _naturalise_prompt(sentence: str, v: HelpVariables, thresholds: HelpThresholds) -> str:
    return (
        "Rephrase the following counterfactual finding about the ask-human-for-help "
        "skill as one natural sentence addressed to the user. Keep every fact; add none.\n"
        "## Counterfactual\n"
        f"{sentence}\n"
        "## Variables\n"
        f"n_humans = {v.n_humans}\n"
        f"min_distance = {'absent' if v.min_distance is None else f'{v.min_distance:.2f}'}\n"
        f"detection_duration = {v.detection_duration:.2f}\n"
        f"thresholds: d_max = {thresholds.d_max:.2f}, t_stable = {thresholds.t_stable:.2f}\n"
    )


def _approach_replans(events: tuple[Event, ...]) -> int:
    return sum(
        1
        for e in events
        if e.kind == "log" and "approach path was replanned" in str(e.payload.get("text", ""))
    )


def explain_help(
    query: Query,
    context: ContextVector,
    events: tuple[Event, ...],
    reasoner: TextReasoner,
    thresholds: HelpThresholds = HelpThresholds(),
) -> str:
    """Counterfactual explanation on failure, templated answer otherwise."""
    if not any(e.source == "ask_human_for_help" for e in events):
        return "The ask-human-for-help skill was not used in this task."

    model = build_help_model(thresholds)
    try:
        v = extract_variables(events)
    except (TypeError, ValueError, OverflowError) as exc:  # payload values from the trace file
        raise ExplainerError(str(exc)) from exc
    outcome = evaluate_model(model, v)

    if outcome is not HelpOutcome.SUCCESS:
        result = counterfactual(model, v, HelpOutcome.SUCCESS)
        sentence = render_counterfactual(result)
        prompt = _naturalise_prompt(sentence, v, thresholds)
        try:
            return reasoner.complete_text(
                system_prompt="You turn structured robot findings into plain language.",
                user_prompt=prompt,
            ).text
        except ReasonerError:
            # the raw counterfactual sentence still answers the question
            return f"{sentence} [counterfactual template; naturalisation unavailable]"

    if v.detection_variance > thresholds.var_max:
        return (
            "I completed the task, but I may have approached the person poorly "
            "due to high variance in the person's detection "
            f"({v.detection_variance:.2f} m² against a tolerance of {thresholds.var_max:.2f} m²)."
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
