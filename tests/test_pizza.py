from __future__ import annotations

import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexar.explainers.pizza import (
    INGREDIENTS,
    PIZZA_CLASSES,
    DecisionTree,
    LimeConfig,
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
from hexar.framework import ExplainerError, explain_hexar
from hexar.simulate import generate_trace
from hexar.trace import ContextVector, EventView, Query, TaskPlan

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


def oracle_ridge(design, target, weights, lam):
    """Weighted ridge via SVD-based lstsq on sqrt(w)-scaled rows plus
    sqrt(lambda) penalty rows; the appended intercept column is unpenalised."""
    d = design.shape[1]
    design = np.hstack([design, np.ones((len(design), 1))])
    root_w = np.sqrt(weights)
    penalty = np.hstack([np.sqrt(lam) * np.eye(d), np.zeros((d, 1))])
    solution, *_ = np.linalg.lstsq(
        np.vstack([design * root_w[:, None], penalty]),
        np.concatenate([target * root_w, np.zeros(d)]),
        rcond=None,
    )
    return solution[:d], solution[d]


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
@pytest.mark.parametrize("n", [0, 1, 7, 999, 5000])
def test_bulk_perturbations_equal_sequential_randint_draws(seed, n):
    rng = random.Random(seed)
    expected = [tuple(rng.randint(0, 1) for _ in range(D)) for _ in range(n)]
    assert pizza._perturbations(random.Random(seed), n, D) == expected


def oracle_weighted_ridge(tree, x, target_class, cfg):
    """The sampled fit by ``oracle_ridge`` on the package's seeded draws."""
    rng = random.Random(cfg.seed)
    samples = [x] + [
        tuple(rng.randint(0, 1) for _ in range(D)) for _ in range(cfg.n_samples - 1)
    ]
    idx = tree.classes.index(target_class)
    design = np.array(samples, float)
    target = np.array([predict_proba(tree, z)[idx] for z in samples])
    hamming = np.abs(design - np.array(x, float)).sum(axis=1)
    sigma = 0.75 * np.sqrt(D)
    weights = np.exp(-((hamming / np.sqrt(D)) ** 2) / sigma**2)
    return oracle_ridge(design, target, weights, pizza.RIDGE)


@pytest.mark.parametrize(
    "x, target_class, cfg",
    [
        ((1, 1, 1, 0, 0, 0, 0, 0, 0, 0), "margherita", LimeConfig()),
        ((0, 1, 0, 0, 0, 0, 1, 1, 0, 0), "hawaiian", LimeConfig(seed=7)),
        ((1, 0, 1, 1, 0, 1, 0, 0, 1, 1), "pepperoni", LimeConfig(n_samples=300, seed=2)),
        ((0, 0, 0, 0, 1, 1, 0, 0, 1, 0), "vegetarian", LimeConfig(seed=5)),
        ((1, 1, 0, 0, 0, 0, 0, 0, 1, 1), "marinara", LimeConfig(n_samples=40, seed=11)),
    ],
)
def test_sampled_attribution_matches_weighted_lstsq_oracle(x, target_class, cfg):
    tree = default_tree()
    attribution = pizza._lime_attribute.__wrapped__(tree, x, target_class, cfg)
    weights, intercept = oracle_weighted_ridge(tree, x, target_class, cfg)
    assert np.allclose(attribution.weights, weights, rtol=0, atol=1e-12)
    assert attribution.intercept == pytest.approx(intercept, rel=0, abs=1e-12)


def test_weighted_ridge_with_a_visible_penalty_matches_the_oracle():
    """A penalty large enough to move the fit, on distinct weighted rows."""
    tree = default_tree()
    idx = tree.classes.index("vegetarian")
    rng = random.Random(3)
    rows = sorted({tuple(rng.randint(0, 1) for _ in range(D)) for _ in range(60)})
    targets = [predict_proba(tree, z)[idx] for z in rows]
    weights = [rng.uniform(0.1, 2.0) for _ in rows]
    coef, intercept = pizza._weighted_ridge(rows, targets, weights, 0.5)
    expected, expected_intercept = oracle_ridge(
        np.array(rows, float), np.array(targets), np.array(weights), 0.5
    )
    assert np.allclose(coef, expected, rtol=0, atol=1e-12)
    assert intercept == pytest.approx(expected_intercept, rel=0, abs=1e-12)
    unpenalised, _ = pizza._weighted_ridge(rows, targets, weights, 0.0)
    assert not np.allclose(coef, unpenalised, rtol=0, atol=1e-3)


def test_weighted_ridge_rejects_a_singular_unpenalised_system():
    with pytest.raises(ValueError, match="degenerate design"):
        pizza._weighted_ridge([(0, 1)], [1.0], [1.0], 0.0)


def product_sum_weighted_ridge(rows, targets, weights, lam):
    """``_weighted_ridge`` summing the products over every row, as the reference.

    The package sums only the weights of the rows whose binary factors are
    all 1; on binary rows these are the same nonzero addends of an exact sum.
    """
    d = len(rows[0])
    n = d + 1
    columns = [*zip(*rows), (1,) * len(rows)]
    weighted = [list(map(operator.mul, weights, column)) for column in columns]
    system = [[0.0] * n + [math.fsum(map(operator.mul, wi, targets))] for wi in weighted]
    for i in range(n):
        for j in range(i, n):
            system[i][j] = system[j][i] = math.fsum(map(operator.mul, weighted[i], columns[j]))
    for i in range(d):
        system[i][i] += lam
    for k in range(n):
        pivot = max(range(k, n), key=lambda r: abs(system[r][k]))
        if system[pivot][k] == 0.0:
            raise ValueError("degenerate design: the normal equations are singular")
        system[k], system[pivot] = system[pivot], system[k]
        for r in range(k + 1, n):
            factor = system[r][k] / system[k][k]
            system[r] = [a - factor * b for a, b in zip(system[r], system[k])]
    solution = [0.0] * n
    for k in reversed(range(n)):
        known = math.fsum(system[k][j] * solution[j] for j in range(k + 1, n))
        solution[k] = (system[k][n] - known) / system[k][k]
    return solution[:d], solution[d]


@st.composite
def ridge_problems(draw):
    """Distinct binary rows, positive weights, targets in [0, 1] and a penalty."""
    d = draw(st.integers(1, D))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 1)] * d), min_size=1, max_size=40, unique=True))
    targets = draw(st.lists(st.floats(0.0, 1.0), min_size=len(rows), max_size=len(rows)))
    weights = draw(
        st.lists(
            st.floats(0.0, 1e3, exclude_min=True), min_size=len(rows), max_size=len(rows)
        )
    )
    return rows, targets, weights, draw(st.sampled_from([0.0, 1e-6, 0.5]))


def _fit_or_error(fit, problem):
    try:
        return fit(*problem)
    except ValueError as exc:
        return repr(exc)


@settings(max_examples=300, deadline=None)
@given(ridge_problems())
def test_weighted_ridge_equals_the_product_sum_form(problem):
    """Bit-identical coefficients, and the same error for a singular system."""
    expected = _fit_or_error(product_sum_weighted_ridge, problem)
    assert _fit_or_error(pizza._weighted_ridge, problem) == expected


def test_lime_attribute_validates_inputs():
    tree = default_tree()
    with pytest.raises(ValueError):
        lime_attribute(tree, tuple([0] * D), "calzone")
    with pytest.raises(ValueError):
        lime_attribute(tree, tuple([0] * D), "margherita", LimeConfig(n_samples=0))
    with pytest.raises(ValueError, match="non-binary feature vector"):
        lime_attribute(tree, (2,) + (0,) * (D - 1), "margherita")


def test_lime_attribute_reproduces_the_pinned_draw_sequence():
    """Exact default-config outputs for two instances; any change to the seeded
    perturbation sequence or the probability lookup shows up here."""
    tree = default_tree()
    s20 = lime_attribute(tree, (1, 1, 1, 0, 0, 0, 0, 0, 0, 0), "margherita")
    assert repr(s20.weights) == (
        "(-0.027533579290442863, 0.06199225884432179, -0.019317233673621963, "
        "-0.05701489930904387, -0.0623204097257321, -0.058844592453905324, "
        "-0.06403631751185827, -0.016143031533909565, -0.008405350714420286, "
        "-0.00887302988535102)"
    )
    assert repr(s20.intercept) == "0.14983466008259227"
    other = lime_attribute(tree, (0, 1, 0, 0, 0, 0, 1, 1, 0, 0), "hawaiian")
    assert repr(other.weights) == (
        "(0.014091629166188615, -0.010230559969449288, 0.007322110112839044, "
        "-0.5502580281413827, -0.009010302102691633, -0.008583181811821838, "
        "0.5646980632833449, -0.008344780921424903, 0.0029672632604904087, "
        "0.02074965870165807)"
    )
    assert repr(other.intercept) == "0.2546341825318163"


def test_lime_attribute_memoizes_each_distinct_call():
    tree = default_tree()
    x = (1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
    memo = pizza._lime_attribute
    memo.cache_clear()
    first = lime_attribute(tree, x, "margherita")
    assert lime_attribute(tree, x, "margherita") is first
    assert first == memo.__wrapped__(tree, x, "margherita", LimeConfig())
    # arguments are normalised before the memo: an explicit default config
    # and a list x share the entry of the plain call
    assert lime_attribute(tree, x, "margherita", LimeConfig()) is first
    assert lime_attribute(tree, list(x), "margherita") is first
    assert memo.cache_info().hits == 3
    others = [
        lime_attribute(tree, (0, 1, 1, 0, 0, 0, 0, 0, 0, 0), "margherita"),
        lime_attribute(tree, x, "vegetarian"),
        lime_attribute(tree, x, "margherita", LimeConfig(seed=1)),
        lime_attribute(tree, x, "margherita", LimeConfig(n_samples=999)),
    ]
    assert all(other is not first and other != first for other in others)
    assert memo.cache_info().currsize == 5
    assert memo.cache_parameters()["maxsize"] is not None
    # a rejected call is not cached: it raises again every time
    for _ in range(2):
        with pytest.raises(ValueError):
            lime_attribute(tree, x, "calzone")
        with pytest.raises(ValueError):
            lime_attribute(tree, x, "margherita", LimeConfig(n_samples=0))
        with pytest.raises(ValueError):
            lime_attribute(tree, [1, 0], "margherita")
    assert memo.cache_info().currsize == 5


def test_default_tree_is_trained_once(monkeypatch):
    trainings = []

    def counting_train_tree(*args, **kwargs):
        trainings.append(1)
        return train_tree(*args, **kwargs)

    monkeypatch.setattr(pizza, "train_tree", counting_train_tree)
    default_tree.cache_clear()
    # a fresh trace: a shared one may already keep its answer, trained before the count
    trace = generate_trace(20, 1, 0)
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
    with pytest.raises(ExplainerError):
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
    text = explain_pizza(query, _pizza_context(), EventView(events))
    assert "default" in text
    assert ingredients_from_events(tuple(events)) == tuple([0] * D)
