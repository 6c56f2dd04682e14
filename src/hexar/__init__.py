"""Hierarchical component explainers for a simulated home-assistant robot.

Specialised explainers (plan reasoning, log analysis, a causal gate model,
feature attribution, templates) are orchestrated by a selector that routes
each user query to the one explainer best placed to answer it. Ships with a
deterministic scenario simulator, two monolithic baselines and an
evaluation harness with paired nonparametric statistics.
"""

from .framework import (
    ComponentExplainer,
    ExplainerRegistry,
    SelectorDecision,
    aggregate,
    explain_hexar,
    select,
)
from .reasoner import (
    LatencyModelReasoner,
    ReasonerRequest,
    ReasonerResponse,
    RemoteReasoner,
    RuleReasoner,
)
from .trace import (
    ContextVector,
    Event,
    Explanation,
    GroundTruth,
    Query,
    TaskPlan,
    Trace,
    read_trace,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ComponentExplainer",
    "ContextVector",
    "Event",
    "ExplainerRegistry",
    "Explanation",
    "GroundTruth",
    "LatencyModelReasoner",
    "Query",
    "ReasonerRequest",
    "ReasonerResponse",
    "RemoteReasoner",
    "RuleReasoner",
    "SelectorDecision",
    "TaskPlan",
    "Trace",
    "aggregate",
    "explain_hexar",
    "read_trace",
    "select",
    "write_trace",
]
