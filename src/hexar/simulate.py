"""Deterministic scenario simulator.

Generates the evaluation traces, replacing robot recordings: a plan event,
skill statuses, synthesized navigation logs, detection/dialogue streams and
parameter events per scenario. The seed perturbs only noise (timestamp
jitter, filler log lines, detection jitter), never the causal structure, so
ground truth is seed-invariant. ``replay_fsm`` re-executes the help skill's
gate logic event-by-event as the counterfactual oracle.
"""

from __future__ import annotations

import random

from .explainers.help_causal import D_MAX, DETECTION_GAP, T_STABLE, HelpOutcome
from .explainers.pizza import INGREDIENTS, default_tree, predict
from .scenarios import N_SCENARIOS, N_TASK_VARIANTS, get_scenario
from .trace import SKILLS, Event, PlanStep, Scalar, TaskPlan, Trace

TTS_TIMEOUT = 5.0
SPEED_LIMIT = 0.30
DETECTION_TICK = 0.2

_HELP_OBJECTIVES = ("hold the door open", "press the lift button", "hand over the remote")
_HELP_NAV_LOCATIONS = ("kitchen", "hallway", "living_room")

_LONG_UTTERANCES = (
    "Here is the entire shopping list: oat milk, brown bread, free-range eggs, "
    "tomatoes, mozzarella, fresh basil, olive oil, mushrooms, red onions, "
    "green olives, flour, yeast, butter, strawberry jam and sparkling water.",
    "This week's schedule: Monday physiotherapy at nine, Tuesday lunch with Maria, "
    "Wednesday grocery delivery in the afternoon, Thursday book club at six, "
    "Friday cleaning service in the morning, Saturday family visit, Sunday rest.",
    "House rules for our guests: please take off your shoes at the entrance, "
    "keep the corridor free of bags, do not feed the cat, close the bathroom "
    "window in the evening and switch off the hallway lights before going to bed.",
)


class _Builder:
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
        payload: dict[str, Scalar] = {"text": text}
        payload.update(extra)
        self.emit(source, "log", payload, dt)

    def status(self, skill: str, status: str, source: str | None = None, **extra: Scalar) -> None:
        payload: dict[str, Scalar] = {"skill": skill, "status": status}
        payload.update(extra)
        self.emit(source or skill, "skill_status", payload)

    def param(self, name: str, value: Scalar, source: str = "system") -> None:
        self.emit(source, "param", {"name": name, "value": value})

    def jitter(self, base: float, spread: float = 0.03) -> float:
        return round(base + self.rng.uniform(-spread, spread), 6)


def _plan_for(scenario_id: int, variant: int, instruction: str) -> TaskPlan:
    nav = lambda loc: PlanStep("navigation", {"location": loc})
    tts = lambda text: PlanStep("text_to_speech", {"text": text})
    help_step = lambda obj: PlanStep("ask_human_for_help", {"objective": obj})

    if scenario_id == 1:
        steps, error = {
            1: (
                (nav("kitchen"), PlanStep("grasp_object", {"item": "water_glass"}), nav("living_room")),
                "plan contains an invalid skill 'grasp_object'",
            ),
            2: (
                (nav("bedroom"), PlanStep("vacuum_floor", {"room": "bedroom"})),
                "plan contains an invalid skill 'vacuum_floor'",
            ),
            3: (
                (nav("bathroom"), PlanStep("open_window", {"target": "bathroom_window"})),
                "plan contains an invalid skill 'open_window'",
            ),
        }[variant]
        return TaskPlan(instruction, steps, valid=False, grounding_errors=(error,))
    if scenario_id == 2:
        steps, error = {
            1: (
                (PlanStep("navigation", {"room": "bedroom"}), tts("Good night, Emma")),
                "invalid parameter 'room' for skill navigation (expected 'location')",
            ),
            2: (
                (nav("attic"),),
                "invalid parameter value 'attic' for 'location' of skill navigation",
            ),
            3: (
                (nav("hallway"), PlanStep("text_to_speech", {"message": "Lunch is ready, Ben"})),
                "invalid parameter 'message' for skill text_to_speech (expected 'text')",
            ),
        }[variant]
        return TaskPlan(instruction, steps, valid=False, grounding_errors=(error,))
    if scenario_id == 3:
        steps = {
            1: (nav("kitchen"), tts("Dinner is ready, everyone")),
            2: (nav("bedroom"), tts("The bedroom is tidy")),
            3: (nav("hallway"), tts("Here is the message I was asked to deliver")),
        }[variant]
        return TaskPlan(instruction, steps, valid=True, grounding_errors=())
    if scenario_id == 4:
        error = {
            1: "no available skill can perform 'watering the plants'",
            2: "no available skill can perform 'making coffee'",
            3: "no available skill can perform 'taking out the rubbish'",
        }[variant]
        return TaskPlan(instruction, (), valid=False, grounding_errors=(error,))
    if scenario_id == 5:
        loc = ("bedroom", "kitchen", "hallway")[variant - 1]
        reports = (
            "I have arrived at the bedroom",
            "I am in the kitchen",
            "I am waiting in the hallway",
        )
        return TaskPlan(instruction, (nav(loc), tts(reports[variant - 1])), True, ())
    if scenario_id == 6:
        steps = {
            1: (nav("kitchen"), tts("Dinner is ready, everyone")),
            2: (nav("bedroom"),),
            3: (nav("living_room"),),
        }[variant]
        return TaskPlan(instruction, steps, True, ())
    if scenario_id == 7:
        steps = {
            1: (nav("kitchen"), tts("Here is your coffee")),
            2: (nav("living_room"), tts("Welcome, everyone!")),
            3: (nav("bathroom"), tts("The bathroom light is off")),
        }[variant]
        return TaskPlan(instruction, steps, True, ())
    if scenario_id in (8, 9, 10):
        loc = {
            8: ("kitchen", "bedroom", "hallway"),
            9: ("living_room", "kitchen", "bedroom"),
            10: ("bedroom", "kitchen", "living_room"),
        }[scenario_id][variant - 1]
        return TaskPlan(instruction, (nav(loc),), True, ())
    if 11 <= scenario_id <= 18:
        loc = _HELP_NAV_LOCATIONS[variant - 1]
        objective = _HELP_OBJECTIVES[variant - 1]
        return TaskPlan(
            instruction,
            (nav(loc), help_step(objective), tts("I have completed the errand")),
            True,
            (),
        )
    if scenario_id == 19:
        loc = ("living_room", "kitchen", "hallway")[variant - 1]
        return TaskPlan(instruction, (nav(loc), tts(_LONG_UTTERANCES[variant - 1])), True, ())
    if scenario_id == 20:
        return TaskPlan(
            instruction,
            (PlanStep("pizza_recommender", {"request": instruction}),),
            True,
            (),
        )
    raise ValueError(f"no plan rule for scenario {scenario_id}")


def _emit_filler(b: _Builder) -> None:
    for _ in range(b.rng.randint(2, 4)):
        b.log("navigation", "Following path", dt=0.1)
    for _ in range(b.rng.randint(1, 3)):
        b.log("navigation", "Controller loop running at 20 Hz", dt=0.05)
    if b.rng.random() < 0.5:
        b.log("navigation", "Publishing velocity command", dt=0.05)


def _nav_goal_start(b: _Builder, loc: str) -> None:
    b.status("navigation", "running")
    b.log("navigation", f"Goal accepted: navigate to {loc}")
    b.log("navigation", f"Global path computed with {b.rng.randint(40, 90)} poses")


def _nav_success(b: _Builder, loc: str) -> None:
    _nav_goal_start(b, loc)
    _emit_filler(b)
    b.log("navigation", f"Goal reached: {loc}")
    b.status("navigation", "succeeded")


def _tts_success(b: _Builder, text: str) -> None:
    b.status("text_to_speech", "running")
    b.emit("text_to_speech", "dialogue", {"role": "robot", "utterance": text, "length": len(text)})
    b.status("text_to_speech", "succeeded")


def _invalid_plan_events(b: _Builder, plan: TaskPlan, reject_note: str) -> None:
    for step in plan.steps:
        source = step.skill if step.skill in SKILLS else "system"
        b.status(step.skill, "waiting", source=source)
    b.log("system", reject_note)


def _detections(
    b: _Builder,
    count: int,
    distance: float | None,
    x: float | None = None,
    y: float | None = None,
    jitter: float = 0.03,
    alternate_x: float = 0.0,
) -> None:
    for i in range(count):
        if distance is None:
            b.emit("ask_human_for_help", "detection", {"n_humans": 0}, dt=DETECTION_TICK)
            continue
        offset = alternate_x if i % 2 == 0 else -alternate_x
        payload: dict[str, Scalar] = {
            "n_humans": 1,
            "human.0.distance": b.jitter(distance, jitter),
            "human.0.x": b.jitter((x or 0.0) + offset, jitter),
            "human.0.y": b.jitter(y or 0.0, jitter),
        }
        b.emit("ask_human_for_help", "detection", payload, dt=DETECTION_TICK)


def _help_dialogue(b: _Builder, objective: str, response: str | None, confirmed: bool | None) -> None:
    b.emit(
        "ask_human_for_help",
        "dialogue",
        {"role": "robot", "text": f"Could you help me: {objective}?"},
    )
    if response is not None:
        text = "Sure, I can help." if response == "agree" else "No, sorry, I cannot help right now."
        b.emit(
            "ask_human_for_help",
            "dialogue",
            {"role": "human", "text": text, "response": response},
        )
    if confirmed is not None:
        b.emit(
            "ask_human_for_help",
            "dialogue",
            {"role": "human", "text": "Done, all sorted!", "confirmed": confirmed},
        )


def _help_failure(b: _Builder, error_code: str, reason: str) -> None:
    b.status("ask_human_for_help", "failed", error_code=error_code, reason=reason)


def generate_trace(scenario_id: int, task_variant: int, seed: int) -> Trace:
    """Deterministically build the trace for one grid cell.

    The same arguments always produce a byte-identical trace.
    """
    if not 1 <= scenario_id <= N_SCENARIOS:
        raise ValueError(f"scenario_id out of range: {scenario_id}")
    if not 1 <= task_variant <= N_TASK_VARIANTS:
        raise ValueError(f"task_variant out of range: {task_variant}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative: {seed}")

    spec = get_scenario(scenario_id)
    rng = random.Random(f"{scenario_id}:{task_variant}:{seed}")
    b = _Builder(rng)
    instruction = spec.task_instructions[task_variant - 1]
    plan = _plan_for(scenario_id, task_variant, instruction)
    b.events.append(Event(ts=0.0, source="planner", kind="plan", payload=plan.to_payload()))

    if scenario_id == 1:
        _invalid_plan_events(b, plan, "plan rejected: grounding failed")
    elif scenario_id == 2:
        _invalid_plan_events(b, plan, "plan rejected: grounding failed")
    elif scenario_id == 3:
        _nav_success(b, str(plan.steps[0].params["location"]))
        _tts_success(b, str(plan.steps[1].params["text"]))
    elif scenario_id == 4:
        b.log("system", "plan rejected: no skills matched the request")
    elif scenario_id == 5:
        loc = str(plan.steps[0].params["location"])
        _nav_goal_start(b, loc)
        _emit_filler(b)
        b.log("navigation", "Obstacle detected ahead; clearing costmap")
        b.log("navigation", "Running recovery behaviour: spin")
        b.log("navigation", "Running recovery behaviour: back up")
        b.log("navigation", f"Goal aborted: path to {loc} blocked by a static obstacle")
        b.status(
            "navigation",
            "failed",
            error_code="blocked",
            reason=f"path to {loc} blocked by a static obstacle",
        )
    elif scenario_id == 6:
        loc = str(plan.steps[0].params["location"])
        b.param("joystick_enabled", True)
        b.status("navigation", "running")
        b.log("navigation", f"Goal accepted: navigate to {loc}")
        b.log(
            "navigation",
            "Goal rejected: joystick controller is enabled, overriding autonomous navigation",
        )
        b.status(
            "navigation",
            "failed",
            error_code="manual_override",
            reason="joystick controller is enabled, overriding autonomous navigation",
        )
    elif scenario_id == 7:
        loc = str(plan.steps[0].params["location"])
        b.param("charger_connected", True)
        b.status("navigation", "running")
        b.log("navigation", f"Goal accepted: navigate to {loc}")
        b.log(
            "navigation",
            "Goal rejected: robot is plugged into its charger, which disables autonomous navigation",
        )
        b.status(
            "navigation",
            "failed",
            error_code="docked",
            reason="robot is plugged into its charger",
        )
    elif scenario_id == 8:
        loc = str(plan.steps[0].params["location"])
        b.param("localization_covariance", 2.5)
        _nav_goal_start(b, loc)
        b.log("navigation", "AMCL covariance above threshold; robot may be badly localised in its map")
        b.log("navigation", "Running recovery behaviour: spin")
        _emit_filler(b)
        b.log("navigation", "Running recovery behaviour: spin")
        b.log("navigation", f"Goal reached: {loc}")
        b.status("navigation", "succeeded")
    elif scenario_id == 9:
        loc = str(plan.steps[0].params["location"])
        _nav_goal_start(b, loc)
        for _ in range(rng.randint(2, 3)):
            _emit_filler(b)
            b.log("navigation", "A dynamic obstacle forced the robot to replan its path")
            b.log("navigation", f"Global path recomputed with {rng.randint(40, 90)} poses")
        b.log("navigation", f"Goal reached: {loc}")
        b.status("navigation", "succeeded")
    elif scenario_id == 10:
        loc = str(plan.steps[0].params["location"])
        b.param("max_speed", SPEED_LIMIT)
        _nav_goal_start(b, loc)
        b.log("navigation", f"Cruising at configured speed limit {SPEED_LIMIT:.2f} m/s")
        _emit_filler(b)
        b.log("navigation", f"Goal reached: {loc}")
        b.status("navigation", "succeeded")
    elif 11 <= scenario_id <= 18:
        loc = str(plan.steps[0].params["location"])
        objective = str(plan.steps[1].params["objective"])
        _nav_success(b, loc)
        b.status("ask_human_for_help", "running")
        if scenario_id == 11:
            _detections(b, 8, None)
            _help_failure(b, "no_human_found", "did not detect anybody to ask for help")
        elif scenario_id == 12:
            _detections(b, 12, 4.1, x=4.0, y=0.3)
            _help_failure(b, "human_too_far", "the detected person was too far away to ask for help")
        elif scenario_id == 13:
            _detections(b, 7, 2.1, x=1.9, y=0.4)
            _detections(b, 4, None)
            _help_failure(
                b,
                "unstable_detection",
                "the person was detected, but not long enough for a stable detection",
            )
        elif scenario_id == 14:
            _detections(b, 12, 2.2, x=2.0, y=0.5)
            b.log(
                "ask_human_for_help",
                "no feasible approach path to the person",
                path_feasible=False,
            )
            _help_failure(b, "approach_failed", "unable to approach them due to obstacles")
        elif scenario_id == 15:
            _detections(b, 12, 2.0, x=1.8, y=0.4)
            b.log("ask_human_for_help", "approaching the detected person")
            _help_dialogue(b, objective, "refuse", None)
            _help_failure(b, "help_refused", "they refused to help")
        elif scenario_id == 16:
            _detections(b, 12, 2.0, x=1.8, y=0.4)
            b.log("ask_human_for_help", "approaching the detected person")
            _help_dialogue(b, objective, "agree", None)
            b.log("ask_human_for_help", "waiting for confirmation from the helper")
            _help_failure(
                b,
                "no_confirmation",
                "the helper did not confirm completion of their assistance",
            )
        elif scenario_id == 17:
            _detections(b, 12, 2.0, x=1.8, y=0.4)
            b.log("ask_human_for_help", "approaching the detected person")
            b.log("ask_human_for_help", "approach path was replanned around an obstacle")
            b.log("ask_human_for_help", "approach path was replanned around an obstacle")
            _help_dialogue(b, objective, "agree", True)
            b.status("ask_human_for_help", "succeeded")
            _tts_success(b, str(plan.steps[2].params["text"]))
        else:  # 18
            _detections(b, 12, 2.1, x=1.5, y=0.5, jitter=0.05, alternate_x=0.8)
            b.log("ask_human_for_help", "warning: high variance in the person's detection")
            b.log("ask_human_for_help", "approaching the detected person")
            _help_dialogue(b, objective, "agree", True)
            b.status("ask_human_for_help", "succeeded")
            _tts_success(b, str(plan.steps[2].params["text"]))
    elif scenario_id == 19:
        loc = str(plan.steps[0].params["location"])
        text = str(plan.steps[1].params["text"])
        b.param("tts_timeout", TTS_TIMEOUT)
        _nav_success(b, loc)
        b.status("text_to_speech", "running")
        b.emit(
            "text_to_speech",
            "dialogue",
            {"role": "robot", "utterance": text, "length": len(text)},
        )
        b.status(
            "text_to_speech",
            "failed",
            error_code="timeout",
            reason="text-to-speech timed out before the utterance was complete",
        )
    elif scenario_id == 20:
        available = {"tomato": 1, "mozzarella": 1, "basil": 1}
        vector = tuple(available.get(name, 0) for name in INGREDIENTS)
        recommended = predict(default_tree(), vector)
        payload: dict[str, Scalar] = {"name": "available_ingredients"}
        payload.update({name: available.get(name, 0) for name in INGREDIENTS})
        b.status("pizza_recommender", "running")
        b.emit("pizza_recommender", "param", payload)
        b.emit(
            "pizza_recommender",
            "dialogue",
            {
                "role": "robot",
                "text": f"I recommend a {recommended} pizza.",
                "recommended": recommended,
            },
        )
        b.status("pizza_recommender", "succeeded")

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
