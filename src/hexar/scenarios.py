"""The 20 evaluation scenarios: categories, instructions, queries, ground truth.

Each scenario injects one behaviour or failure into a simulated home-assistant
task. Every scenario carries three task-instruction variants and three
explanation-seeking queries graded from generic to problem-specific, plus a
minimal root-cause phrase used for automatic annotation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .trace import GroundTruth

CATEGORIES = (
    "Agent Error",
    "Inability",
    "Unforeseen Circumstances",
    "Sub-Optimal Behaviour",
    "Uncertainty",
    "Social Norm Violation",
    "Normal/Successful",
)

N_SCENARIOS = 20
N_TASK_VARIANTS = 3
N_QUERIES = 3


@dataclass(frozen=True)
class ScenarioSpec:
    scenario_id: int
    category: str
    relevant_module: str
    description: str
    task_instructions: tuple[str, str, str]
    queries: tuple[str, str, str]
    ground_truth: GroundTruth

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown scenario category {self.category!r}")


def _spec(
    scenario_id: int,
    category: str,
    module: str,
    description: str,
    instructions: tuple[str, str, str],
    queries: tuple[str, str, str],
    root_cause: str,
) -> ScenarioSpec:
    return ScenarioSpec(
        scenario_id=scenario_id,
        category=category,
        relevant_module=module,
        description=description,
        task_instructions=instructions,
        queries=queries,
        ground_truth=GroundTruth(
            scenario_id=scenario_id,
            root_cause=root_cause,
            relevant_module=module,
            category=category,
        ),
    )


_SCENARIOS: tuple[ScenarioSpec, ...] = (
    _spec(
        1,
        "Agent Error",
        "planner",
        "The planner produces a plan with an invalid skill.",
        (
            "Bring me a glass of water from the kitchen",
            "Vacuum the bedroom floor",
            "Open the bathroom window",
        ),
        (
            "What happened?",
            "Why didn't you complete the task?",
            "Is something wrong with the plan you made?",
        ),
        "contains an invalid skill",
    ),
    _spec(
        2,
        "Agent Error",
        "planner",
        "The planner produces a plan with invalid parameter names and/or values.",
        (
            "Go to the bedroom and say good night to Emma",
            "Wait in the attic until I call you",
            "Tell Ben in the hallway that lunch is ready",
        ),
        (
            "What happened?",
            "Why did nothing happen after I asked?",
            "Was there a problem with the plan parameters?",
        ),
        "invalid parameter",
    ),
    _spec(
        3,
        "Agent Error",
        "planner",
        "The planner produces a plan which does not fulfil the user's request.",
        (
            "Go to the kitchen and then announce dinner in the living room",
            "Check the bedroom and then report to me in the living room",
            "Visit the hallway and then deliver my message in the living room",
        ),
        (
            "What happened?",
            "Why didn't you complete my request?",
            "Why didn't your plan include going to the living room?",
        ),
        "does not fulfil the request",
    ),
    _spec(
        4,
        "Inability",
        "planner",
        "The robot is instructed to perform a task which it is unable to complete.",
        (
            "Water the plants in the hallway",
            "Make me a cup of coffee",
            "Take out the rubbish",
        ),
        (
            "What happened?",
            "Why didn't you do what I asked?",
            "Can you even do this kind of task?",
        ),
        "no available skill",
    ),
    _spec(
        5,
        "Unforeseen Circumstances",
        "navigation",
        "Static obstacles prevent the robot from reaching a desired location.",
        (
            "Go to the bedroom to fetch my book",
            "Meet me in the kitchen",
            "Go wait in the hallway",
        ),
        (
            "What happened?",
            "Why didn't you make it there?",
            "What blocked you on the way?",
        ),
        "blocked by a static obstacle",
    ),
    _spec(
        6,
        "Inability",
        "navigation",
        "The robot's joystick controller is enabled, overriding autonomous navigation.",
        (
            "Go to the kitchen and tell everyone dinner is ready",
            "Head over to the bedroom",
            "Come to the living room",
        ),
        (
            "What happened?",
            "Why aren't you moving?",
            "Is something overriding your controls?",
        ),
        "joystick controller is enabled",
    ),
    _spec(
        7,
        "Inability",
        "navigation",
        "The robot is plugged into its charger, overriding autonomous navigation.",
        (
            "Bring me my coffee from the kitchen",
            "Go to the living room and greet our guests",
            "Check whether the bathroom light is off",
        ),
        (
            "What happened?",
            "Why didn't you bring it?",
            "Why won't you leave the dock?",
        ),
        "plugged into its charger",
    ),
    _spec(
        8,
        "Sub-Optimal Behaviour",
        "navigation",
        "The robot is badly localised in its map, negatively impacting navigation.",
        (
            "Go over to the kitchen",
            "Drive to the bedroom",
            "Go to the hallway",
        ),
        (
            "What happened while you were moving?",
            "Why did you take such a strange route?",
            "Are you lost in the map?",
        ),
        "badly localised",
    ),
    _spec(
        9,
        "Sub-Optimal Behaviour",
        "navigation",
        "Moving obstacles force the robot to replan its path during navigation.",
        (
            "Come to the living room",
            "Go to the kitchen",
            "Drive over to the bedroom",
        ),
        (
            "What happened on the way here?",
            "Why did it take you so long to arrive?",
            "Why did you keep changing your path?",
        ),
        "forced the robot to replan",
    ),
    _spec(
        10,
        "Normal/Successful",
        "navigation",
        "No errors, but the user still questions the robot's movement properties.",
        (
            "Go to the bedroom",
            "Come over to the kitchen",
            "Go to the living room",
        ),
        (
            "What happened during the drive?",
            "Why are you so slow?",
            "Could you not move any faster?",
        ),
        "configured speed limit",
    ),
    _spec(
        11,
        "Unforeseen Circumstances",
        "ask_human_for_help",
        "The robot does not detect anybody that can assist it in completing its task.",
        (
            "Get someone to hold the door open for you",
            "Find a person to press the lift button",
            "Ask somebody to pass you the remote",
        ),
        (
            "What happened?",
            "Why didn't you get the door held open?",
            "Did you find anybody at all?",
        ),
        "did not detect anybody",
    ),
    _spec(
        12,
        "Inability",
        "ask_human_for_help",
        "The robot detects someone, but they are too far away to ask for help.",
        (
            "Get someone to hold the door open for you",
            "Find a person to press the lift button",
            "Ask somebody to pass you the remote",
        ),
        (
            "What happened?",
            "Why didn't you ask them?",
            "Was the person out of range?",
        ),
        "too far away to ask for help",
    ),
    _spec(
        13,
        "Uncertainty",
        "ask_human_for_help",
        "The robot detects someone, but not long enough for a stable detection.",
        (
            "Get someone to hold the door open for you",
            "Find a person to press the lift button",
            "Ask somebody to pass you the remote",
        ),
        (
            "What happened?",
            "Why didn't you ask for their assistance?",
            "Did you lose track of the person you saw?",
        ),
        "not long enough for a stable detection",
    ),
    _spec(
        14,
        "Unforeseen Circumstances",
        "ask_human_for_help",
        "The robot detects someone, but is unable to approach them due to obstacles.",
        (
            "Get someone to hold the door open for you",
            "Find a person to press the lift button",
            "Ask somebody to pass you the remote",
        ),
        (
            "What happened?",
            "Why didn't you reach them?",
            "What stopped you from getting to the person?",
        ),
        "unable to approach them due to obstacles",
    ),
    _spec(
        15,
        "Unforeseen Circumstances",
        "ask_human_for_help",
        "The robot asks someone to assist it, but they refuse.",
        (
            "Get someone to hold the door open for you",
            "Find a person to press the lift button",
            "Ask somebody to pass you the remote",
        ),
        (
            "What happened?",
            "Why didn't they help you out?",
            "What did the person answer you?",
        ),
        "they refused",
    ),
    _spec(
        16,
        "Unforeseen Circumstances",
        "ask_human_for_help",
        "Someone agrees to help the robot, but does not confirm completion of their assistance.",
        (
            "Get someone to hold the door open for you",
            "Find a person to press the lift button",
            "Ask somebody to pass you the remote",
        ),
        (
            "What happened?",
            "Did the person actually help you?",
            "Why are you still waiting on them?",
        ),
        "did not confirm completion",
    ),
    _spec(
        17,
        "Social Norm Violation",
        "ask_human_for_help",
        "The robot approaches someone poorly due to suboptimal navigation.",
        (
            "Get someone to hold the door open for you",
            "Find a person to press the lift button",
            "Ask somebody to pass you the remote",
        ),
        (
            "What happened when you approached them?",
            "Why did you move towards the person like that?",
            "Why was your approach so awkward?",
        ),
        "approach path was replanned",
    ),
    _spec(
        18,
        "Social Norm Violation",
        "ask_human_for_help",
        "The robot approaches someone poorly due to high variance in the person's detection.",
        (
            "Get someone to hold the door open for you",
            "Find a person to press the lift button",
            "Ask somebody to pass you the remote",
        ),
        (
            "What happened when you came over to the person?",
            "Why did you approach them so strangely?",
            "Were you unsure where the person was standing?",
        ),
        "high variance in the person's detection",
    ),
    _spec(
        19,
        "Agent Error",
        "text_to_speech",
        "The robot's text-to-speech skill times out before its utterance is complete.",
        (
            "Go to the living room and read out my entire shopping list",
            "Announce the full weekly schedule in the kitchen",
            "Recite the house rules to our guests in the hallway",
        ),
        (
            "What happened?",
            "Why did you stop talking mid-announcement?",
            "Why was your sentence cut short?",
        ),
        "timed out before the utterance was complete",
    ),
    _spec(
        20,
        "Normal/Successful",
        "pizza_recommender",
        "The robot explains its choice of pizza with reference to available ingredients.",
        (
            "Recommend a pizza for dinner",
            "Which pizza should I make tonight?",
            "Suggest a pizza using what's in the fridge",
        ),
        (
            "What happened with the pizza?",
            "Why did you pick that pizza?",
            "Which ingredient mattered most for your recommendation?",
        ),
        "because mozzarella was available",
    ),
)

# Substring guaranteed to appear in at least one event payload of every
# generated trace for the scenario (the explainability floor). Usually the
# root-cause phrase itself; indirect for scenarios whose cause is not
# stated by any module (3: the plan silently omits a step; 20: the
# attribution is computed, not logged).
ROOT_CAUSE_EVIDENCE: dict[int, str] = {
    **{spec.scenario_id: spec.ground_truth.root_cause for spec in _SCENARIOS},
    3: "the living room",
    20: "margherita",
}

# Phrases that would be factually wrong in an explanation of the scenario.
# Automatic annotation marks an explanation as containing incorrect facts
# when any of these appears in it.
CONTRADICTED_FACTS: dict[int, tuple[str, ...]] = {
    1: ("invalid parameter", "joystick", "charger", "static obstacle", "they refused"),
    2: ("invalid skill", "joystick", "charger", "too far away"),
    3: ("invalid skill", "invalid parameter", "skill failed", "static obstacle", "charger"),
    4: ("invalid skill", "invalid parameter", "charger", "joystick"),
    5: ("charger", "joystick", "badly localised", "invalid skill", "they refused"),
    6: ("charger", "static obstacle", "badly localised", "invalid skill"),
    7: ("joystick", "static obstacle", "badly localised", "invalid skill", "plan could not be executed"),
    8: ("charger", "joystick", "static obstacle", "invalid skill", "skill failed"),
    9: ("charger", "joystick", "badly localised", "static obstacle", "skill failed"),
    10: ("skill failed", "obstacle", "charger", "joystick", "badly localised", "could not be executed"),
    11: ("too far away", "they refused", "did not confirm", "charger", "invalid skill"),
    12: ("did not detect anybody", "they refused", "did not confirm", "stable detection"),
    13: ("did not detect anybody", "too far away", "they refused", "invalid skill"),
    14: ("did not detect anybody", "too far away", "they refused", "did not confirm"),
    15: ("did not detect anybody", "too far away", "unable to approach", "did not confirm"),
    16: ("did not detect anybody", "too far away", "they refused", "unable to approach"),
    17: ("skill failed", "did not detect anybody", "they refused", "high variance"),
    18: ("skill failed", "did not detect anybody", "they refused", "approach path was replanned"),
    19: ("navigation skill failed", "charger", "invalid skill", "they refused"),
    20: ("skill failed", "charger", "invalid", "they refused", "too far away"),
}


def list_scenarios() -> list[ScenarioSpec]:
    """All 20 scenario specifications, ordered by scenario id."""
    return list(_SCENARIOS)


def get_scenario(scenario_id: int) -> ScenarioSpec:
    if not 1 <= scenario_id <= N_SCENARIOS:
        raise ValueError(f"scenario_id must be 1..{N_SCENARIOS}, got {scenario_id}")
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


def read_csv_rows(path: str | Path, columns: list[str], kind: str) -> list[dict[str, str]]:
    """Rows of a CSV file whose header is exactly ``columns``; blank lines are skipped.

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
                rows.append(dict(zip(columns, row)))
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    return rows


def read_manifest(path: str | Path) -> list[tuple[int, int, int]]:
    triples = []
    for row in read_csv_rows(path, _MANIFEST_COLUMNS, "manifest"):
        triple = (int(row["scenario_id"]), int(row["task_variant"]), int(row["query_index"]))
        if not (
            1 <= triple[0] <= N_SCENARIOS
            and 1 <= triple[1] <= N_TASK_VARIANTS
            and 1 <= triple[2] <= N_QUERIES
        ):
            raise ValueError(f"manifest triple out of range: {triple}")
        triples.append(triple)
    if not triples:
        raise ValueError("empty manifest")
    return triples
