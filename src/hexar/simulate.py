"""Deterministic scenario simulator.

Generates the evaluation traces, replacing robot recordings. Each scenario's
script (``ScenarioSpec.script``) drives a ``TraceBuilder``: a plan event,
skill statuses, synthesized navigation logs, detection/dialogue streams and
parameter events. The seed perturbs only noise (timestamp jitter, filler log
lines, detection jitter), never the causal structure, so ground truth is
seed-invariant. ``replay_fsm`` re-executes the help skill's gate logic
event-by-event as the counterfactual oracle.
"""

from __future__ import annotations

import random

from .explainers.help_causal import D_MAX, DETECTION_GAP, T_STABLE, HelpOutcome
from .scenarios import N_TASK_VARIANTS, get_scenario
from .trace import Event, PlanStep, Scalar, TaskPlan, Trace

DETECTION_TICK = 0.2


class TraceBuilder:
    """Accumulates events on a monotone, 6-decimal-quantized clock."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.t = 0.0
        self.events: list[Event] = []

    def emit(self, source: str, kind: str, payload: dict[str, Scalar], dt: float | None = None) -> None:
        if dt is None:
            dt = 0.05 + self.rng.random() * 0.15
        self.t = round(self.t + dt, 6)
        self.events.append(Event(ts=self.t, source=source, kind=kind, payload=payload))

    def log(self, source: str, text: str, dt: float | None = None, **extra: Scalar) -> None:
        self.emit(source, "log", {"text": text, **extra}, dt)

    def status(self, skill: str, status: str, source: str | None = None, **extra: Scalar) -> None:
        self.emit(source or skill, "skill_status", {"skill": skill, "status": status, **extra})

    def param(self, name: str, value: Scalar) -> None:
        self.emit("system", "param", {"name": name, "value": value})

    def jitter(self, base: float, spread: float) -> float:
        return round(base + self.rng.uniform(-spread, spread), 6)

    def plan(self, instruction: str, steps: tuple[PlanStep, ...], error: str | None = None) -> None:
        """The plan event at ts 0; a grounding ``error`` makes the plan invalid."""
        plan = TaskPlan(instruction, steps, error is None, () if error is None else (error,))
        self.events.append(Event(ts=0.0, source="planner", kind="plan", payload=plan.to_payload()))

    def filler(self) -> None:
        for _ in range(self.rng.randint(2, 4)):
            self.log("navigation", "Following path", dt=0.1)
        for _ in range(self.rng.randint(1, 3)):
            self.log("navigation", "Controller loop running at 20 Hz", dt=0.05)
        if self.rng.random() < 0.5:
            self.log("navigation", "Publishing velocity command", dt=0.05)

    def nav_start(self, location: str) -> None:
        self.status("navigation", "running")
        self.log("navigation", f"Goal accepted: navigate to {location}")
        self.log("navigation", f"Global path computed with {self.rng.randint(40, 90)} poses")

    def arrive(self, location: str) -> None:
        self.log("navigation", f"Goal reached: {location}")
        self.status("navigation", "succeeded")

    def nav_success(self, location: str) -> None:
        self.nav_start(location)
        self.filler()
        self.arrive(location)

    def speak(self, text: str, status: str = "succeeded", **extra: Scalar) -> None:
        """Run text-to-speech on ``text``; it ends with ``status``."""
        self.status("text_to_speech", "running")
        self.emit("text_to_speech", "dialogue", {"role": "robot", "utterance": text, "length": len(text)})
        self.status("text_to_speech", status, **extra)

    def detections(
        self,
        count: int,
        distance: float | None,
        x: float = 0.0,
        y: float = 0.0,
        jitter: float = 0.03,
        alternate_x: float = 0.0,
    ) -> None:
        for i in range(count):
            if distance is None:
                self.emit("ask_human_for_help", "detection", {"n_humans": 0}, dt=DETECTION_TICK)
                continue
            offset = alternate_x if i % 2 == 0 else -alternate_x
            payload: dict[str, Scalar] = {
                "n_humans": 1,
                "human.0.distance": self.jitter(distance, jitter),
                "human.0.x": self.jitter(x + offset, jitter),
                "human.0.y": self.jitter(y, jitter),
            }
            self.emit("ask_human_for_help", "detection", payload, dt=DETECTION_TICK)

    def help_dialogue(self, objective: str, response: str | None, confirmed: bool | None) -> None:
        self.emit(
            "ask_human_for_help",
            "dialogue",
            {"role": "robot", "text": f"Could you help me: {objective}?"},
        )
        if response is not None:
            text = "Sure, I can help." if response == "agree" else "No, sorry, I cannot help right now."
            self.emit(
                "ask_human_for_help",
                "dialogue",
                {"role": "human", "text": text, "response": response},
            )
        if confirmed is not None:
            self.emit(
                "ask_human_for_help",
                "dialogue",
                {"role": "human", "text": "Done, all sorted!", "confirmed": confirmed},
            )

    def help_failure(self, error_code: str, reason: str) -> None:
        self.status("ask_human_for_help", "failed", error_code=error_code, reason=reason)


def generate_trace(scenario_id: int, task_variant: int, seed: int) -> Trace:
    """Deterministically build the trace for one grid cell.

    The same arguments always produce a byte-identical trace.
    """
    spec = get_scenario(scenario_id)
    if not 1 <= task_variant <= N_TASK_VARIANTS:
        raise ValueError(f"task_variant out of range: {task_variant}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative: {seed}")

    b = TraceBuilder(random.Random(f"{scenario_id}:{task_variant}:{seed}"))
    spec.script(b, task_variant, spec.task_instructions[task_variant - 1])
    return Trace(
        scenario_id=scenario_id,
        task_variant=task_variant,
        seed=seed,
        events=tuple(b.events),
    )


def replay_fsm(trace: Trace) -> HelpOutcome:
    """Re-execute the help skill's gate logic over the raw event stream.

    Independent of the causal model: walks detections/dialogue in order and
    reports where the skill got stuck. Used as the faithfulness oracle.
    """
    help_events = [e for e in trace.events if e.source == "ask_human_for_help"]
    if not help_events:
        raise ValueError("trace contains no ask_human_for_help events")

    saw_person = False
    near_enough = False
    best_span = 0.0
    run_start: float | None = None
    last_seen: float | None = None
    path_ok = True
    response: str | None = None
    confirmed = False

    for event in help_events:
        if event.kind == "detection":
            if int(event.payload.get("n_humans", 0)) >= 1:
                saw_person = True
                if last_seen is None or event.ts - last_seen > DETECTION_GAP:
                    run_start = event.ts
                last_seen = event.ts
                assert run_start is not None
                best_span = max(best_span, event.ts - run_start)
                distance = event.payload.get("human.0.distance")
                if distance is not None and float(distance) <= D_MAX:
                    near_enough = True
            else:
                run_start = None
                last_seen = None
        elif "path_feasible" in event.payload:
            path_ok = bool(event.payload["path_feasible"])
        elif event.kind == "dialogue":
            if "response" in event.payload:
                response = str(event.payload["response"])
            if "confirmed" in event.payload:
                confirmed = bool(event.payload["confirmed"])

    if not saw_person:
        return HelpOutcome.NO_HUMAN_FOUND
    if not near_enough:
        return HelpOutcome.HUMAN_TOO_FAR
    if best_span < T_STABLE:
        return HelpOutcome.UNSTABLE_DETECTION
    if not path_ok:
        return HelpOutcome.APPROACH_FAILED
    if response != "agree":
        return HelpOutcome.HELP_REFUSED
    if not confirmed:
        return HelpOutcome.NO_CONFIRMATION
    return HelpOutcome.SUCCESS
