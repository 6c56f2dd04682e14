"""Component explainers and the default registry wiring them to modules."""

from __future__ import annotations

from ..framework import ComponentExplainer, ExplainerRegistry
from .help_causal import explain_help
from .navigation import explain_navigation
from .pizza import explain_pizza
from .planner import explain_planner
from .tts import explain_tts

# One row per robot module: (module, extra sources, explain_fn, capability).
# The module is also the explainer's id and its own event source.
_DEFAULT_EXPLAINERS = (
    ("planner", (), explain_planner,
     "task plans, step ordering, grounding of instructions to skills"),
    ("navigation", ("system",), explain_navigation,
     "driving between rooms, routes, obstacles, speed, localisation"),
    ("text_to_speech", (), explain_tts, "speaking, utterances, voice output"),
    ("ask_human_for_help", (), explain_help,
     "finding and approaching people, asking them for assistance"),
    ("pizza_recommender", (), explain_pizza,
     "pizza recipe recommendations from available ingredients"),
)

ROBOT_MODULES = tuple(row[0] for row in _DEFAULT_EXPLAINERS)


def build_default_registry() -> ExplainerRegistry:
    """One explainer per robot module, each with its own technique."""
    registry = ExplainerRegistry()
    for module, extra_sources, explain_fn, capability in _DEFAULT_EXPLAINERS:
        registry.register(
            ComponentExplainer(
                id=module,
                subscribed_sources=frozenset({module, *extra_sources}),
                explain_fn=explain_fn,
                capability=capability,
            ),
            modules=[module],
        )
    return registry
