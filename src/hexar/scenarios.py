"""The 20 evaluation scenarios: one entry per scenario.

Each scenario injects one behaviour or failure into a simulated home-assistant
task. Its entry holds everything known about it: the category and relevant
module, three task-instruction variants, three explanation-seeking queries
graded from generic to problem-specific, the minimal root-cause phrase used
for automatic annotation, the phrases an explanation must not contain, and
the script that the simulator runs to build the scenario's trace.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .explainers.pizza import INGREDIENTS, default_tree, predict
from .trace import SKILLS, GroundTruth, PlanStep, Scalar

if TYPE_CHECKING:
    from .simulate import TraceBuilder

CATEGORIES = (
    "Agent Error",
    "Inability",
    "Unforeseen Circumstances",
    "Sub-Optimal Behaviour",
    "Uncertainty",
    "Social Norm Violation",
    "Normal/Successful",
)

N_TASK_VARIANTS = 3
N_QUERIES = 3

# Builds one trace: called with the builder, the task variant (1-based) and
# that variant's instruction.
Script = Callable[["TraceBuilder", int, str], None]


@dataclass(frozen=True)
class ScenarioSpec:
    scenario_id: int
    category: str
    description: str
    task_instructions: tuple[str, str, str]
    queries: tuple[str, str, str]
    ground_truth: GroundTruth
    # Substring guaranteed to appear in at least one event payload of every
    # generated trace for the scenario (the explainability floor). Usually the
    # root-cause phrase itself; indirect for scenarios whose cause is not
    # stated by any module (3: the plan silently omits a step; 20: the
    # attribution is computed, not logged).
    evidence: str
    # Phrases that would be factually wrong in an explanation of the scenario.
    # Automatic annotation marks an explanation as containing incorrect facts
    # when any of these appears in it.
    contradicted_facts: tuple[str, ...]
    # Emits the plan event at ts 0, then the scenario's events.
    script: Script

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown scenario category {self.category!r}")


_SCENARIOS: list[ScenarioSpec] = []


def _scenario(
    scenario_id: int,
    category: str,
    module: str,
    description: str,
    instructions: tuple[str, str, str],
    queries: tuple[str, str, str],
    root_cause: str,
    contradicted: tuple[str, ...],
    evidence: str | None = None,
) -> Callable[[Script], Script]:
    """Register the decorated script as the next scenario, with these facts."""

    def register(script: Script) -> Script:
        if scenario_id != len(_SCENARIOS) + 1:
            raise ValueError(f"scenario {scenario_id} registered out of order")
        _SCENARIOS.append(
            ScenarioSpec(
                scenario_id,
                category,
                description,
                instructions,
                queries,
                GroundTruth(root_cause, module),
                evidence=root_cause if evidence is None else evidence,
                contradicted_facts=contradicted,
                script=script,
            )
        )
        return script

    return register


def _nav(location: str) -> PlanStep:
    return PlanStep("navigation", {"location": location})


def _tts(text: str) -> PlanStep:
    return PlanStep("text_to_speech", {"text": text})


def _rejected_plan(b: TraceBuilder, instruction: str, steps: tuple[PlanStep, ...], error: str) -> None:
    """A plan that fails grounding: every step waits, then the system rejects it."""
    b.plan(instruction, steps, error)
    for step in steps:
        b.status(step.skill, "waiting", source=step.skill if step.skill in SKILLS else "system")
    b.log("system", "plan rejected: grounding failed")


@_scenario(
    1,
    "Agent Error",
    "planner",
    "The planner produces a plan with an invalid skill.",
    instructions=(
        "Bring me a glass of water from the kitchen",
        "Vacuum the bedroom floor",
        "Open the bathroom window",
    ),
    queries=(
        "What happened?",
        "Why didn't you complete the task?",
        "Is something wrong with the plan you made?",
    ),
    root_cause="contains an invalid skill",
    contradicted=("invalid parameter", "joystick", "charger", "static obstacle", "they refused"),
)
def _invalid_skill(b: TraceBuilder, variant: int, instruction: str) -> None:
    steps, error = (
        (
            (_nav("kitchen"), PlanStep("grasp_object", {"item": "water_glass"}), _nav("living_room")),
            "plan contains an invalid skill 'grasp_object'",
        ),
        (
            (_nav("bedroom"), PlanStep("vacuum_floor", {"room": "bedroom"})),
            "plan contains an invalid skill 'vacuum_floor'",
        ),
        (
            (_nav("bathroom"), PlanStep("open_window", {"target": "bathroom_window"})),
            "plan contains an invalid skill 'open_window'",
        ),
    )[variant - 1]
    _rejected_plan(b, instruction, steps, error)


@_scenario(
    2,
    "Agent Error",
    "planner",
    "The planner produces a plan with invalid parameter names and/or values.",
    instructions=(
        "Go to the bedroom and say good night to Emma",
        "Wait in the attic until I call you",
        "Tell Ben in the hallway that lunch is ready",
    ),
    queries=(
        "What happened?",
        "Why did nothing happen after I asked?",
        "Was there a problem with the plan parameters?",
    ),
    root_cause="invalid parameter",
    contradicted=("invalid skill", "joystick", "charger", "too far away"),
)
def _invalid_parameter(b: TraceBuilder, variant: int, instruction: str) -> None:
    steps, error = (
        (
            (PlanStep("navigation", {"room": "bedroom"}), _tts("Good night, Emma")),
            "invalid parameter 'room' for skill navigation (expected 'location')",
        ),
        (
            (_nav("attic"),),
            "invalid parameter value 'attic' for 'location' of skill navigation",
        ),
        (
            (_nav("hallway"), PlanStep("text_to_speech", {"message": "Lunch is ready, Ben"})),
            "invalid parameter 'message' for skill text_to_speech (expected 'text')",
        ),
    )[variant - 1]
    _rejected_plan(b, instruction, steps, error)


@_scenario(
    3,
    "Agent Error",
    "planner",
    "The planner produces a plan which does not fulfil the user's request.",
    instructions=(
        "Go to the kitchen and then announce dinner in the living room",
        "Check the bedroom and then report to me in the living room",
        "Visit the hallway and then deliver my message in the living room",
    ),
    queries=(
        "What happened?",
        "Why didn't you complete my request?",
        "Why didn't your plan include going to the living room?",
    ),
    root_cause="does not fulfil the request",
    contradicted=("invalid skill", "invalid parameter", "skill failed", "static obstacle", "charger"),
    evidence="the living room",
)
def _unfulfilled_request(b: TraceBuilder, variant: int, instruction: str) -> None:
    location, text = (
        ("kitchen", "Dinner is ready, everyone"),
        ("bedroom", "The bedroom is tidy"),
        ("hallway", "Here is the message I was asked to deliver"),
    )[variant - 1]
    b.plan(instruction, (_nav(location), _tts(text)))
    b.nav_success(location)
    b.speak(text)


@_scenario(
    4,
    "Inability",
    "planner",
    "The robot is instructed to perform a task which it is unable to complete.",
    instructions=(
        "Water the plants in the hallway",
        "Make me a cup of coffee",
        "Take out the rubbish",
    ),
    queries=(
        "What happened?",
        "Why didn't you do what I asked?",
        "Can you even do this kind of task?",
    ),
    root_cause="no available skill",
    contradicted=("invalid skill", "invalid parameter", "charger", "joystick"),
)
def _no_skill(b: TraceBuilder, variant: int, instruction: str) -> None:
    task = ("watering the plants", "making coffee", "taking out the rubbish")[variant - 1]
    b.plan(instruction, (), f"no available skill can perform '{task}'")
    b.log("system", "plan rejected: no skills matched the request")


@_scenario(
    5,
    "Unforeseen Circumstances",
    "navigation",
    "Static obstacles prevent the robot from reaching a desired location.",
    instructions=(
        "Go to the bedroom to fetch my book",
        "Meet me in the kitchen",
        "Go wait in the hallway",
    ),
    queries=(
        "What happened?",
        "Why didn't you make it there?",
        "What blocked you on the way?",
    ),
    root_cause="blocked by a static obstacle",
    contradicted=("charger", "joystick", "badly localised", "invalid skill", "they refused"),
)
def _static_obstacle(b: TraceBuilder, variant: int, instruction: str) -> None:
    location, report = (
        ("bedroom", "I have arrived at the bedroom"),
        ("kitchen", "I am in the kitchen"),
        ("hallway", "I am waiting in the hallway"),
    )[variant - 1]
    b.plan(instruction, (_nav(location), _tts(report)))
    b.nav_start(location)
    b.filler()
    b.log("navigation", "Obstacle detected ahead; clearing costmap")
    b.log("navigation", "Running recovery behaviour: spin")
    b.log("navigation", "Running recovery behaviour: back up")
    reason = f"path to {location} blocked by a static obstacle"
    b.log("navigation", f"Goal aborted: {reason}")
    b.status("navigation", "failed", error_code="blocked", reason=reason)


def _rejected_goal(
    b: TraceBuilder,
    instruction: str,
    location: str,
    said: str | None,
    flag: str,
    error_code: str,
    reason: str,
    log_reason: str,
) -> None:
    """Drive to ``location`` (then say ``said``), but ``flag`` overrides navigation."""
    b.plan(instruction, (_nav(location),) + (() if said is None else (_tts(said),)))
    b.param(flag, True)
    b.status("navigation", "running")
    b.log("navigation", f"Goal accepted: navigate to {location}")
    b.log("navigation", f"Goal rejected: {log_reason}")
    b.status("navigation", "failed", error_code=error_code, reason=reason)


@_scenario(
    6,
    "Inability",
    "navigation",
    "The robot's joystick controller is enabled, overriding autonomous navigation.",
    instructions=(
        "Go to the kitchen and tell everyone dinner is ready",
        "Head over to the bedroom",
        "Come to the living room",
    ),
    queries=(
        "What happened?",
        "Why aren't you moving?",
        "Is something overriding your controls?",
    ),
    root_cause="joystick controller is enabled",
    contradicted=("charger", "static obstacle", "badly localised", "invalid skill"),
)
def _joystick(b: TraceBuilder, variant: int, instruction: str) -> None:
    location, said = (
        ("kitchen", "Dinner is ready, everyone"),
        ("bedroom", None),
        ("living_room", None),
    )[variant - 1]
    reason = "joystick controller is enabled, overriding autonomous navigation"
    _rejected_goal(b, instruction, location, said, "joystick_enabled", "manual_override", reason, reason)


@_scenario(
    7,
    "Inability",
    "navigation",
    "The robot is plugged into its charger, overriding autonomous navigation.",
    instructions=(
        "Bring me my coffee from the kitchen",
        "Go to the living room and greet our guests",
        "Check whether the bathroom light is off",
    ),
    queries=(
        "What happened?",
        "Why didn't you bring it?",
        "Why won't you leave the dock?",
    ),
    root_cause="plugged into its charger",
    contradicted=(
        "joystick",
        "static obstacle",
        "badly localised",
        "invalid skill",
        "plan could not be executed",
    ),
)
def _charger(b: TraceBuilder, variant: int, instruction: str) -> None:
    location, said = (
        ("kitchen", "Here is your coffee"),
        ("living_room", "Welcome, everyone!"),
        ("bathroom", "The bathroom light is off"),
    )[variant - 1]
    reason = "robot is plugged into its charger"
    log_reason = f"{reason}, which disables autonomous navigation"
    _rejected_goal(b, instruction, location, said, "charger_connected", "docked", reason, log_reason)


@_scenario(
    8,
    "Sub-Optimal Behaviour",
    "navigation",
    "The robot is badly localised in its map, negatively impacting navigation.",
    instructions=(
        "Go over to the kitchen",
        "Drive to the bedroom",
        "Go to the hallway",
    ),
    queries=(
        "What happened while you were moving?",
        "Why did you take such a strange route?",
        "Are you lost in the map?",
    ),
    root_cause="badly localised",
    contradicted=("charger", "joystick", "static obstacle", "invalid skill", "skill failed"),
)
def _badly_localised(b: TraceBuilder, variant: int, instruction: str) -> None:
    location = ("kitchen", "bedroom", "hallway")[variant - 1]
    b.plan(instruction, (_nav(location),))
    b.param("localization_covariance", 2.5)
    b.nav_start(location)
    b.log("navigation", "AMCL covariance above threshold; robot may be badly localised in its map")
    b.log("navigation", "Running recovery behaviour: spin")
    b.filler()
    b.log("navigation", "Running recovery behaviour: spin")
    b.arrive(location)


@_scenario(
    9,
    "Sub-Optimal Behaviour",
    "navigation",
    "Moving obstacles force the robot to replan its path during navigation.",
    instructions=(
        "Come to the living room",
        "Go to the kitchen",
        "Drive over to the bedroom",
    ),
    queries=(
        "What happened on the way here?",
        "Why did it take you so long to arrive?",
        "Why did you keep changing your path?",
    ),
    root_cause="forced the robot to replan",
    contradicted=("charger", "joystick", "badly localised", "static obstacle", "skill failed"),
)
def _moving_obstacles(b: TraceBuilder, variant: int, instruction: str) -> None:
    location = ("living_room", "kitchen", "bedroom")[variant - 1]
    b.plan(instruction, (_nav(location),))
    b.nav_start(location)
    for _ in range(b.rng.randint(2, 3)):
        b.filler()
        b.log("navigation", "A dynamic obstacle forced the robot to replan its path")
        b.log("navigation", f"Global path recomputed with {b.rng.randint(40, 90)} poses")
    b.arrive(location)


@_scenario(
    10,
    "Normal/Successful",
    "navigation",
    "No errors, but the user still questions the robot's movement properties.",
    instructions=(
        "Go to the bedroom",
        "Come over to the kitchen",
        "Go to the living room",
    ),
    queries=(
        "What happened during the drive?",
        "Why are you so slow?",
        "Could you not move any faster?",
    ),
    root_cause="configured speed limit",
    contradicted=(
        "skill failed",
        "obstacle",
        "charger",
        "joystick",
        "badly localised",
        "could not be executed",
    ),
)
def _speed_limit(b: TraceBuilder, variant: int, instruction: str) -> None:
    location = ("bedroom", "kitchen", "living_room")[variant - 1]
    speed_limit = 0.30
    b.plan(instruction, (_nav(location),))
    b.param("max_speed", speed_limit)
    b.nav_start(location)
    b.log("navigation", f"Cruising at configured speed limit {speed_limit:.2f} m/s")
    b.filler()
    b.arrive(location)


# Scenarios 11-18 run the same errand: drive somewhere, get a person to help,
# then report back.
_ERRAND_INSTRUCTIONS = (
    "Get someone to hold the door open for you",
    "Find a person to press the lift button",
    "Ask somebody to pass you the remote",
)
_ERRAND_DONE = "I have completed the errand"


def _help_errand(b: TraceBuilder, variant: int, instruction: str) -> str:
    """Plan the errand, drive there and start the help skill; returns its objective."""
    location = ("kitchen", "hallway", "living_room")[variant - 1]
    objective = ("hold the door open", "press the lift button", "hand over the remote")[variant - 1]
    b.plan(
        instruction,
        (
            _nav(location),
            PlanStep("ask_human_for_help", {"objective": objective}),
            _tts(_ERRAND_DONE),
        ),
    )
    b.nav_success(location)
    b.status("ask_human_for_help", "running")
    return objective


@_scenario(
    11,
    "Unforeseen Circumstances",
    "ask_human_for_help",
    "The robot does not detect anybody that can assist it in completing its task.",
    instructions=_ERRAND_INSTRUCTIONS,
    queries=(
        "What happened?",
        "Why didn't you get the door held open?",
        "Did you find anybody at all?",
    ),
    root_cause="did not detect anybody",
    contradicted=("too far away", "they refused", "did not confirm", "charger", "invalid skill"),
)
def _nobody_detected(b: TraceBuilder, variant: int, instruction: str) -> None:
    _help_errand(b, variant, instruction)
    b.detections(8, None)
    b.help_failure("no_human_found", "did not detect anybody to ask for help")


@_scenario(
    12,
    "Inability",
    "ask_human_for_help",
    "The robot detects someone, but they are too far away to ask for help.",
    instructions=_ERRAND_INSTRUCTIONS,
    queries=(
        "What happened?",
        "Why didn't you ask them?",
        "Was the person out of range?",
    ),
    root_cause="too far away to ask for help",
    contradicted=("did not detect anybody", "they refused", "did not confirm", "stable detection"),
)
def _too_far(b: TraceBuilder, variant: int, instruction: str) -> None:
    _help_errand(b, variant, instruction)
    b.detections(12, 4.1, x=4.0, y=0.3)
    b.help_failure("human_too_far", "the detected person was too far away to ask for help")


@_scenario(
    13,
    "Uncertainty",
    "ask_human_for_help",
    "The robot detects someone, but not long enough for a stable detection.",
    instructions=_ERRAND_INSTRUCTIONS,
    queries=(
        "What happened?",
        "Why didn't you ask for their assistance?",
        "Did you lose track of the person you saw?",
    ),
    root_cause="not long enough for a stable detection",
    contradicted=("did not detect anybody", "too far away", "they refused", "invalid skill"),
)
def _unstable_detection(b: TraceBuilder, variant: int, instruction: str) -> None:
    _help_errand(b, variant, instruction)
    b.detections(7, 2.1, x=1.9, y=0.4)
    b.detections(4, None)
    b.help_failure(
        "unstable_detection",
        "the person was detected, but not long enough for a stable detection",
    )


@_scenario(
    14,
    "Unforeseen Circumstances",
    "ask_human_for_help",
    "The robot detects someone, but is unable to approach them due to obstacles.",
    instructions=_ERRAND_INSTRUCTIONS,
    queries=(
        "What happened?",
        "Why didn't you reach them?",
        "What stopped you from getting to the person?",
    ),
    root_cause="unable to approach them due to obstacles",
    contradicted=("did not detect anybody", "too far away", "they refused", "did not confirm"),
)
def _approach_blocked(b: TraceBuilder, variant: int, instruction: str) -> None:
    _help_errand(b, variant, instruction)
    b.detections(12, 2.2, x=2.0, y=0.5)
    b.log("ask_human_for_help", "no feasible approach path to the person", path_feasible=False)
    b.help_failure("approach_failed", "unable to approach them due to obstacles")


@_scenario(
    15,
    "Unforeseen Circumstances",
    "ask_human_for_help",
    "The robot asks someone to assist it, but they refuse.",
    instructions=_ERRAND_INSTRUCTIONS,
    queries=(
        "What happened?",
        "Why didn't they help you out?",
        "What did the person answer you?",
    ),
    root_cause="they refused",
    contradicted=("did not detect anybody", "too far away", "unable to approach", "did not confirm"),
)
def _help_refused(b: TraceBuilder, variant: int, instruction: str) -> None:
    objective = _help_errand(b, variant, instruction)
    b.detections(12, 2.0, x=1.8, y=0.4)
    b.log("ask_human_for_help", "approaching the detected person")
    b.help_dialogue(objective, "refuse", None)
    b.help_failure("help_refused", "they refused to help")


@_scenario(
    16,
    "Unforeseen Circumstances",
    "ask_human_for_help",
    "Someone agrees to help the robot, but does not confirm completion of their assistance.",
    instructions=_ERRAND_INSTRUCTIONS,
    queries=(
        "What happened?",
        "Did the person actually help you?",
        "Why are you still waiting on them?",
    ),
    root_cause="did not confirm completion",
    contradicted=("did not detect anybody", "too far away", "they refused", "unable to approach"),
)
def _no_confirmation(b: TraceBuilder, variant: int, instruction: str) -> None:
    objective = _help_errand(b, variant, instruction)
    b.detections(12, 2.0, x=1.8, y=0.4)
    b.log("ask_human_for_help", "approaching the detected person")
    b.help_dialogue(objective, "agree", None)
    b.log("ask_human_for_help", "waiting for confirmation from the helper")
    b.help_failure(
        "no_confirmation",
        "the helper did not confirm completion of their assistance",
    )


@_scenario(
    17,
    "Social Norm Violation",
    "ask_human_for_help",
    "The robot approaches someone poorly due to suboptimal navigation.",
    instructions=_ERRAND_INSTRUCTIONS,
    queries=(
        "What happened when you approached them?",
        "Why did you move towards the person like that?",
        "Why was your approach so awkward?",
    ),
    root_cause="approach path was replanned",
    contradicted=("skill failed", "did not detect anybody", "they refused", "high variance"),
)
def _replanned_approach(b: TraceBuilder, variant: int, instruction: str) -> None:
    objective = _help_errand(b, variant, instruction)
    b.detections(12, 2.0, x=1.8, y=0.4)
    b.log("ask_human_for_help", "approaching the detected person")
    b.log("ask_human_for_help", "approach path was replanned around an obstacle")
    b.log("ask_human_for_help", "approach path was replanned around an obstacle")
    b.help_dialogue(objective, "agree", True)
    b.status("ask_human_for_help", "succeeded")
    b.speak(_ERRAND_DONE)


@_scenario(
    18,
    "Social Norm Violation",
    "ask_human_for_help",
    "The robot approaches someone poorly due to high variance in the person's detection.",
    instructions=_ERRAND_INSTRUCTIONS,
    queries=(
        "What happened when you came over to the person?",
        "Why did you approach them so strangely?",
        "Were you unsure where the person was standing?",
    ),
    root_cause="high variance in the person's detection",
    contradicted=("skill failed", "did not detect anybody", "they refused", "approach path was replanned"),
)
def _noisy_detection(b: TraceBuilder, variant: int, instruction: str) -> None:
    objective = _help_errand(b, variant, instruction)
    b.detections(12, 2.1, x=1.5, y=0.5, jitter=0.05, alternate_x=0.8)
    b.log("ask_human_for_help", "warning: high variance in the person's detection")
    b.log("ask_human_for_help", "approaching the detected person")
    b.help_dialogue(objective, "agree", True)
    b.status("ask_human_for_help", "succeeded")
    b.speak(_ERRAND_DONE)


@_scenario(
    19,
    "Agent Error",
    "text_to_speech",
    "The robot's text-to-speech skill times out before its utterance is complete.",
    instructions=(
        "Go to the living room and read out my entire shopping list",
        "Announce the full weekly schedule in the kitchen",
        "Recite the house rules to our guests in the hallway",
    ),
    queries=(
        "What happened?",
        "Why did you stop talking mid-announcement?",
        "Why was your sentence cut short?",
    ),
    root_cause="timed out before the utterance was complete",
    contradicted=("navigation skill failed", "charger", "invalid skill", "they refused"),
)
def _tts_timeout(b: TraceBuilder, variant: int, instruction: str) -> None:
    location, text = (
        (
            "living_room",
            "Here is the entire shopping list: oat milk, brown bread, free-range eggs, "
            "tomatoes, mozzarella, fresh basil, olive oil, mushrooms, red onions, "
            "green olives, flour, yeast, butter, strawberry jam and sparkling water.",
        ),
        (
            "kitchen",
            "This week's schedule: Monday physiotherapy at nine, Tuesday lunch with Maria, "
            "Wednesday grocery delivery in the afternoon, Thursday book club at six, "
            "Friday cleaning service in the morning, Saturday family visit, Sunday rest.",
        ),
        (
            "hallway",
            "House rules for our guests: please take off your shoes at the entrance, "
            "keep the corridor free of bags, do not feed the cat, close the bathroom "
            "window in the evening and switch off the hallway lights before going to bed.",
        ),
    )[variant - 1]
    b.plan(instruction, (_nav(location), _tts(text)))
    b.param("tts_timeout", 5.0)
    b.nav_success(location)
    b.speak(
        text,
        "failed",
        error_code="timeout",
        reason="text-to-speech timed out before the utterance was complete",
    )


@_scenario(
    20,
    "Normal/Successful",
    "pizza_recommender",
    "The robot explains its choice of pizza with reference to available ingredients.",
    instructions=(
        "Recommend a pizza for dinner",
        "Which pizza should I make tonight?",
        "Suggest a pizza using what's in the fridge",
    ),
    queries=(
        "What happened with the pizza?",
        "Why did you pick that pizza?",
        "Which ingredient mattered most for your recommendation?",
    ),
    root_cause="because mozzarella was available",
    contradicted=("skill failed", "charger", "invalid", "they refused", "too far away"),
    evidence="margherita",
)
def _pizza(b: TraceBuilder, variant: int, instruction: str) -> None:
    b.plan(instruction, (PlanStep("pizza_recommender", {"request": instruction}),))
    available = {"tomato": 1, "mozzarella": 1, "basil": 1}
    counts = {name: available.get(name, 0) for name in INGREDIENTS}
    recommended = predict(default_tree(), tuple(counts.values()))
    payload: dict[str, Scalar] = {"name": "available_ingredients", **counts}
    b.status("pizza_recommender", "running")
    b.emit("pizza_recommender", "param", payload)
    text = f"I recommend a {recommended} pizza."
    b.emit("pizza_recommender", "dialogue", {"role": "robot", "text": text, "recommended": recommended})
    b.status("pizza_recommender", "succeeded")


N_SCENARIOS = len(_SCENARIOS)


def list_scenarios() -> list[ScenarioSpec]:
    """All scenario specifications, ordered by scenario id."""
    return list(_SCENARIOS)


def get_scenario(scenario_id: int) -> ScenarioSpec:
    if not 1 <= scenario_id <= N_SCENARIOS:
        raise ValueError(f"scenario_id out of range: {scenario_id} (must be 1..{N_SCENARIOS})")
    return _SCENARIOS[scenario_id - 1]


def grid_triples() -> list[tuple[int, int, int]]:
    """All (scenario_id, task_variant, query_index) evaluation points."""
    return [
        (scenario_id, variant, query_index)
        for scenario_id in range(1, N_SCENARIOS + 1)
        for variant in range(1, N_TASK_VARIANTS + 1)
        for query_index in range(1, N_QUERIES + 1)
    ]


_MANIFEST_COLUMNS = ["scenario_id", "task_variant", "query_index"]


def write_manifest(path: str | Path) -> None:
    """Write the evaluation manifest: one CSV row per grid triple."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_MANIFEST_COLUMNS)
        writer.writerows(grid_triples())


def read_csv_rows(
    path: str | Path, columns: list[str], kind: str
) -> list[tuple[int, dict[str, str]]]:
    """(file line, row) pairs of a CSV file whose header is exactly ``columns``.

    Blank lines are skipped; a row's line is the file line it ends on.

    Raises ``ValueError`` for another header, a row whose field count
    differs from the header's or unparseable CSV, naming the file line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != columns:
                raise ValueError(f"bad {kind} columns: {header}")
            rows = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(columns):
                    raise ValueError(
                        f"{path}: line {reader.line_num}: expected {len(columns)} fields, "
                        f"found {len(row)}"
                    )
                rows.append((reader.line_num, dict(zip(columns, row))))
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    return rows


def check_grid_point(triple: tuple[int, int, int]) -> None:
    """Raise ``ValueError`` unless ``triple`` is one of ``grid_triples()``."""
    scenario_id, task_variant, query_index = triple
    if not (
        1 <= scenario_id <= N_SCENARIOS
        and 1 <= task_variant <= N_TASK_VARIANTS
        and 1 <= query_index <= N_QUERIES
    ):
        raise ValueError(
            f"(scenario_id, task_variant, query_index) out of range: {triple} "
            f"(the grid is 1..{N_SCENARIOS} x 1..{N_TASK_VARIANTS} x 1..{N_QUERIES})"
        )


def read_manifest(path: str | Path) -> list[tuple[int, int, int]]:
    """Grid points of a manifest CSV; a bad row raises ``ValueError`` naming its file line."""
    triples = []
    for line, row in read_csv_rows(path, _MANIFEST_COLUMNS, "manifest"):
        try:
            triple = (int(row["scenario_id"]), int(row["task_variant"]), int(row["query_index"]))
            check_grid_point(triple)
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from exc
        triples.append(triple)
    if not triples:
        raise ValueError("empty manifest")
    return triples
