"""The value records: built by keyword or position, defaulted, never assigned."""

from __future__ import annotations

import pytest

from hexar.explainers.help_causal import CounterfactualResult, Gate, HelpOutcome
from hexar.explainers.pizza import Attribution, DecisionTree, LimeConfig, TreeLeaf, TreeNode
from hexar.framework import SelectorDecision, SelectorStage
from hexar.reasoner import ReasonerRequest, ReasonerResponse
from hexar.trace import GroundTruth, PlanStep

_LEAF = TreeLeaf(label="yes", proba=(0.0, 1.0))

VALUE_RECORDS = [
    ReasonerRequest(system_prompt="s", user_prompt="u", max_tokens=8),
    ReasonerResponse(text="x", latency=2.5),
    SelectorDecision(chosen="planner", stage=SelectorStage.QUERY_CLASSIFIER),
    PlanStep(skill="navigation", params={"location": "kitchen"}),
    GroundTruth(root_cause="charger", relevant_module="navigation"),
    Gate(
        variable="n_humans",
        predicate=lambda v: v.n_humans >= 1,
        failure=HelpOutcome.NO_HUMAN_FOUND,
        passing_value=1,
    ),
    CounterfactualResult(
        realized=HelpOutcome.NO_HUMAN_FOUND,
        variable="n_humans",
        observed=0,
        intervention=1,
        resulting=HelpOutcome.SUCCESS,
    ),
    TreeNode(feature=0, left=TreeLeaf(label="no", proba=(1.0, 0.0)), right=_LEAF),
    _LEAF,
    DecisionTree(root=_LEAF, classes=("no", "yes"), n_features=1),
    LimeConfig(n_samples=10, seed=3),
    Attribution(weights=(0.5,), intercept=0.1, top_present_ingredient=None),
]


@pytest.mark.parametrize("record", VALUE_RECORDS, ids=lambda r: type(r).__name__)
def test_value_records_are_immutable_named_tuples(record):
    cls = type(record)
    fields = record._asdict()
    assert cls(**fields) == record == cls(*fields.values())
    assert not hasattr(record, "__dict__")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_value_records_keep_their_defaults():
    assert ReasonerResponse("x").latency == 0.0
    assert ReasonerRequest("s", "u").max_tokens == 512
    assert LimeConfig() == LimeConfig(1000, 0) == LimeConfig(n_samples=1000, seed=0)
