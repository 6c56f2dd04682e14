from __future__ import annotations

import numpy as np
import pytest

from hexar.explainers.pizza import (
    INGREDIENTS,
    PIZZA_CLASSES,
    DecisionTree,
    LimeConfig,
    PizzaExplainError,
    TreeLeaf,
    TreeNode,
    default_tree,
    exhaustive_attribution,
    explain_pizza,
    ingredients_from_events,
    lime_attribute,
    load_recipe_dataset,
    predict,
    predict_proba,
    train_tree,
)
from hexar.explainers import pizza
from hexar.framework import explain_hexar
from hexar.trace import ContextVector, Query, TaskPlan

D = len(INGREDIENTS)


def oracle_least_squares(tree, target_class):
    """OLS over the full binary cube via SVD-based lstsq, independent of the
    package's weighted normal-equations solver."""
    idx = tree.classes.index(target_class)
    inputs = [tuple((m >> b) & 1 for b in range(D)) for m in range(2**D)]
    design = np.hstack([np.array(inputs, float), np.ones((len(inputs), 1))])
    target = np.array([predict_proba(tree, z)[idx] for z in inputs])
    solution, *_ = np.linalg.lstsq(design, target, rcond=None)
    return solution[:D], solution[D]


def stump_tree(feature: int) -> DecisionTree:
    """f(z) = z_feature as a two-leaf tree over two classes."""
    return DecisionTree(
        root=TreeNode(
            feature=feature,
            left=TreeLeaf(label="no", proba=(1.0, 0.0)),
            right=TreeLeaf(label="yes", proba=(0.0, 1.0)),
        ),
        classes=("no", "yes"),
        n_features=D,
    )


def constant_tree(value: float) -> DecisionTree:
    return DecisionTree(
        root=TreeLeaf(label="a", proba=(value, 1.0 - value)),
        classes=("a", "b"),
        n_features=D,
    )


# -- tree induction -----------------------------------------------------------


def test_single_class_dataset_gives_single_pure_leaf():
    dataset = [((1, 0, 1), "margherita"), ((0, 0, 0), "margherita")]
    tree = train_tree(dataset)
    assert isinstance(tree.root, TreeLeaf)
    assert tree.root.label == "margherita"
    assert tree.root.proba == (1.0,)


def test_fixture_dataset_reaches_full_training_accuracy():
    dataset = load_recipe_dataset()
    assert len(dataset) == 20
    tree = train_tree(dataset, classes=PIZZA_CLASSES)
    hits = sum(predict(tree, x) == label for x, label in dataset)
    assert hits == len(dataset)


def test_perfect_splitter_on_feature_zero_becomes_root():
    dataset = [
        ((0, 1, 0), "a"),
        ((0, 0, 1), "a"),
        ((1, 1, 1), "b"),
        ((1, 0, 0), "b"),
    ]
    tree = train_tree(dataset)
    assert isinstance(tree.root, TreeNode)
    assert tree.root.feature == 0


def test_leaf_probabilities_sum_to_one():
    tree = default_tree()

    def walk(node):
        if isinstance(node, TreeLeaf):
            assert sum(node.proba) == pytest.approx(1.0, abs=1e-9)
            return
        walk(node.left)
        walk(node.right)

    walk(tree.root)


def test_train_tree_rejects_bad_input():
    with pytest.raises(ValueError):
        train_tree([])
    with pytest.raises(ValueError):
        train_tree([((1, 2), "a")])
    with pytest.raises(ValueError):
        train_tree([((1, 0), "a"), ((1,), "b")])


def test_training_is_deterministic_over_the_full_cube():
    dataset = load_recipe_dataset()
    tree_a = train_tree(dataset, classes=PIZZA_CLASSES)
    tree_b = train_tree(dataset, classes=PIZZA_CLASSES)
    for mask in range(2**D):
        z = tuple((mask >> b) & 1 for b in range(D))
        assert predict_proba(tree_a, z) == predict_proba(tree_b, z)


def test_predict_proba_dimension_check():
    with pytest.raises(ValueError):
        predict_proba(default_tree(), (1, 0))


def test_training_instances_get_their_label_max_probability():
    dataset = load_recipe_dataset()
    tree = train_tree(dataset, classes=PIZZA_CLASSES)
    for x, label in dataset:
        proba = predict_proba(tree, x)
        assert proba[tree.classes.index(label)] == max(proba)


# -- attribution ---------------------------------------------------------------


def test_stump_attribution_is_exact_indicator():
    tree = stump_tree(feature=4)
    attribution = exhaustive_attribution(tree, tuple([1] * D), "yes")
    for i, w in enumerate(attribution.weights):
        expected = 1.0 if i == 4 else 0.0
        assert w == pytest.approx(expected, abs=1e-9)
    assert attribution.intercept == pytest.approx(0.0, abs=1e-9)


def test_exhaustive_attribution_matches_lstsq_oracle_on_stump():
    tree = stump_tree(feature=2)
    attribution = exhaustive_attribution(tree, tuple([0] * D), "yes")
    weights, intercept = oracle_least_squares(tree, "yes")
    assert np.allclose(attribution.weights, weights, atol=1e-9)
    assert attribution.intercept == pytest.approx(intercept, abs=1e-9)


def test_exhaustive_attribution_matches_lstsq_oracle_on_fixture_tree():
    tree = default_tree()
    x = (1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
    attribution = exhaustive_attribution(tree, x, "margherita")
    weights, intercept = oracle_least_squares(tree, "margherita")
    assert np.allclose(attribution.weights, weights, atol=1e-9)
    assert attribution.intercept == pytest.approx(intercept, abs=1e-9)


def test_constant_target_gives_zero_weights_and_constant_intercept():
    tree = constant_tree(0.375)
    attribution = exhaustive_attribution(tree, tuple([1] * D), "a")
    assert np.allclose(attribution.weights, 0.0, atol=1e-9)
    assert attribution.intercept == pytest.approx(0.375, abs=1e-9)
    sampled = lime_attribute(tree, tuple([0] * D), "a", LimeConfig(n_samples=500, seed=3))
    assert np.allclose(sampled.weights, 0.0, atol=1e-9)
    assert sampled.intercept == pytest.approx(0.375, abs=1e-9)


def test_sampled_attribution_tracks_enumeration_within_tolerance():
    tree = default_tree()
    x = (1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
    reference = exhaustive_attribution(tree, x, "margherita")
    for seed in range(1, 6):
        sampled = lime_attribute(
            tree, x, "margherita", LimeConfig(n_samples=5000, seed=seed)
        )
        for w_sampled, w_reference in zip(sampled.weights, reference.weights):
            assert abs(w_sampled - w_reference) < 0.1


def test_top_present_ingredient_stable_across_seeds():
    tree = default_tree()
    x = (1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
    reference = exhaustive_attribution(tree, x, "margherita")
    assert reference.top_present_ingredient == "mozzarella"
    for seed in range(1, 11):
        sampled = lime_attribute(
            tree, x, "margherita", LimeConfig(n_samples=5000, seed=seed)
        )
        assert sampled.top_present_ingredient == reference.top_present_ingredient


def test_ranking_invariant_under_positive_scaling_of_target():
    base = constant_tree(0.0)  # replaced below; scaling via leaf probabilities
    tree = default_tree()
    x = (1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
    full = exhaustive_attribution(tree, x, "margherita")

    def scaled_proba_tree(node, factor):
        if isinstance(node, TreeLeaf):
            return TreeLeaf(label=node.label, proba=tuple(p * factor for p in node.proba))
        return TreeNode(
            feature=node.feature,
            left=scaled_proba_tree(node.left, factor),
            right=scaled_proba_tree(node.right, factor),
        )

    factor = 0.5
    scaled = DecisionTree(
        root=scaled_proba_tree(tree.root, factor),
        classes=tree.classes,
        n_features=tree.n_features,
    )
    half = exhaustive_attribution(scaled, x, "margherita")
    assert np.allclose(np.array(half.weights), factor * np.array(full.weights), atol=1e-9)
    assert half.top_present_ingredient == full.top_present_ingredient


def test_degenerate_design_without_regularization_raises():
    tree = default_tree()
    cfg = LimeConfig(n_samples=2, seed=0, regularization=0.0)
    with pytest.raises(ValueError):
        lime_attribute(tree, tuple([0] * D), "margherita", cfg)


def test_lime_attribute_validates_inputs():
    tree = default_tree()
    with pytest.raises(ValueError):
        lime_attribute(tree, tuple([0] * D), "calzone")
    with pytest.raises(ValueError):
        lime_attribute(tree, tuple([0] * D), "margherita", LimeConfig(n_samples=0))


def test_lime_attribute_reproduces_the_pinned_draw_sequence():
    """Exact default-config outputs for two instances; any change to the seeded
    perturbation sequence or the probability lookup shows up here."""
    tree = default_tree()
    s20 = lime_attribute(tree, (1, 1, 1, 0, 0, 0, 0, 0, 0, 0), "margherita")
    assert repr(s20.weights) == (
        "(-0.027533579290443654, 0.06199225884432153, -0.019317233673623098, "
        "-0.05701489930904439, -0.06232040972573259, -0.05884459245390589, "
        "-0.064036317511859, -0.016143031533909908, -0.008405350714420728, "
        "-0.008873029885351104)"
    )
    assert repr(s20.intercept) == "0.1498346600825957"
    other = lime_attribute(tree, (0, 1, 0, 0, 0, 0, 1, 1, 0, 0), "hawaiian")
    assert repr(other.weights) == (
        "(0.014091629166189298, -0.010230559969449876, 0.007322110112840217, "
        "-0.5502580281413868, -0.009010302102691568, -0.008583181811821307, "
        "0.5646980632833465, -0.008344780921424898, 0.002967263260491613, "
        "0.02074965870165889)"
    )
    assert repr(other.intercept) == "0.2546341825318168"


def test_lime_attribute_memoizes_each_distinct_call():
    tree = default_tree()
    x = (1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
    lime_attribute.cache_clear()
    first = lime_attribute(tree, x, "margherita")
    assert lime_attribute(tree, x, "margherita") is first
    assert first == lime_attribute.__wrapped__(tree, x, "margherita")
    # the cache keys on the arguments as passed: an explicit config is its own entry
    explicit = lime_attribute(tree, x, "margherita", LimeConfig())
    assert explicit == first
    assert lime_attribute(tree, x, "margherita", LimeConfig()) is explicit
    assert lime_attribute.cache_info().hits == 2
    others = [
        lime_attribute(tree, (0, 1, 1, 0, 0, 0, 0, 0, 0, 0), "margherita"),
        lime_attribute(tree, x, "vegetarian"),
        lime_attribute(tree, x, "margherita", LimeConfig(seed=1)),
        lime_attribute(tree, x, "margherita", LimeConfig(n_samples=999)),
    ]
    assert all(other is not first and other != first for other in others)
    assert lime_attribute.cache_info().currsize == 6
    assert lime_attribute.cache_parameters()["maxsize"] is not None
    # a rejected call is not cached: it raises again every time
    for _ in range(2):
        with pytest.raises(ValueError):
            lime_attribute(tree, x, "calzone")
        with pytest.raises(ValueError):
            lime_attribute(tree, x, "margherita", LimeConfig(n_samples=0))
        with pytest.raises(ValueError):
            lime_attribute(tree, (1, 0), "margherita")
    assert lime_attribute.cache_info().currsize == 6


def test_default_tree_is_trained_once(monkeypatch, trace_cache):
    trainings = []

    def counting_train_tree(*args, **kwargs):
        trainings.append(1)
        return train_tree(*args, **kwargs)

    monkeypatch.setattr(pizza, "train_tree", counting_train_tree)
    default_tree.cache_clear()
    trace = trace_cache(20)
    events = trace.by_source({"pizza_recommender"})
    query = Query(text="Why did you pick that pizza?", asked_at=trace.events[-1].ts)
    explain_pizza(query, _pizza_context(), events)
    explain_pizza(query, _pizza_context(), events)
    assert len(trainings) == 1
    assert default_tree() is default_tree()


# -- trace-facing explanation --------------------------------------------------


def _pizza_context() -> ContextVector:
    return ContextVector(
        plan=TaskPlan("Recommend a pizza", (), True, ()),
        skills=(("pizza_recommender", "succeeded"),),
        window=(0.0, 10.0),
    )


def test_explain_pizza_names_recommendation_and_top_ingredient(
    trace_cache, registry, rule_reasoner
):
    trace = trace_cache(20)
    events = trace.by_source({"pizza_recommender"})
    query = Query(text="Why did you pick that pizza?", asked_at=trace.events[-1].ts)
    text = explain_pizza(query, _pizza_context(), events)
    assert "margherita" in text
    assert "because mozzarella was available" in text
    assert text.endswith(
        "mozzarella (+0.062), basil (-0.019), tomato (-0.028)."
    )
    assert explain_pizza(query, _pizza_context(), events) == text
    # the classifier's call is the only one: the explainer itself makes none
    hexar = explain_hexar(query, trace, registry, rule_reasoner)
    assert (hexar.text, hexar.produced_by, hexar.reasoner_calls) == (
        text,
        "pizza_recommender",
        1,
    )


def test_explain_pizza_requires_events(trace_cache):
    trace = trace_cache(7)
    query = Query(text="Why?", asked_at=1.0)
    with pytest.raises(PizzaExplainError):
        explain_pizza(query, _pizza_context(), trace.by_source({"pizza_recommender"}))


def test_explain_pizza_all_zero_ingredients_reports_default(trace_cache):
    trace = trace_cache(20)
    events = []
    for event in trace.by_source({"pizza_recommender"}):
        if event.kind == "param":
            payload = dict(event.payload)
            payload.update({name: 0 for name in INGREDIENTS})
            events.append(type(event)(ts=event.ts, source=event.source, kind=event.kind, payload=payload))
        else:
            events.append(event)
    query = Query(text="Why?", asked_at=trace.events[-1].ts)
    text = explain_pizza(query, _pizza_context(), tuple(events))
    assert "default" in text
    assert ingredients_from_events(tuple(events)) == tuple([0] * D)
