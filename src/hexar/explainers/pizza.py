"""Pizza-recommender explainer: decision tree plus a LIME-style surrogate.

The recommender skill is a small Gini decision tree over binary ingredient
availability. Its explainer fits a locally weighted linear surrogate around
the explained instance and reports which available ingredient carried the
recommendation.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
import random
from collections import Counter
from itertools import compress
from typing import NamedTuple, Sequence

from ..framework import ExplainerError
from ..reasoner import read_package_data
from ..trace import ContextVector, Event, EventView, Query

INGREDIENTS = (
    "tomato",
    "mozzarella",
    "basil",
    "pepperoni",
    "mushroom",
    "onion",
    "pineapple",
    "ham",
    "olive",
    "anchovy",
)

PIZZA_CLASSES = ("margherita", "pepperoni", "hawaiian", "vegetarian", "marinara")


class TreeNode(NamedTuple):
    """Internal split node; children keyed by the binary feature value."""

    feature: int
    left: "TreeNode | TreeLeaf"   # feature == 0
    right: "TreeNode | TreeLeaf"  # feature == 1


class TreeLeaf(NamedTuple):
    label: str
    proba: tuple[float, ...]


class DecisionTree(NamedTuple):
    root: "TreeNode | TreeLeaf"
    classes: tuple[str, ...]
    n_features: int


def _gini(counts: list[int]) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    return 1.0 - sum((c / total) ** 2 for c in counts)


def _class_counts(labels: list[int], n_classes: int) -> list[int]:
    counts = [0] * n_classes
    for y in labels:
        counts[y] += 1
    return counts


def _build(
    rows: list[tuple[tuple[int, ...], int]],
    used: frozenset[int],
    classes: tuple[str, ...],
    n_features: int,
) -> TreeNode | TreeLeaf:
    labels = [y for _, y in rows]
    counts = _class_counts(labels, len(classes))
    parent_gini = _gini(counts)

    def leaf() -> TreeLeaf:
        total = len(rows)
        proba = tuple(c / total for c in counts)
        best = max(range(len(classes)), key=lambda i: (proba[i], -i))
        return TreeLeaf(label=classes[best], proba=proba)

    if parent_gini == 0.0:
        return leaf()

    best_feature = None
    best_decrease = 0.0
    for f in range(n_features):
        if f in used:
            continue
        left = [y for x, y in rows if x[f] == 0]
        right = [y for x, y in rows if x[f] == 1]
        if not left or not right:
            continue
        child = (
            len(left) * _gini(_class_counts(left, len(classes)))
            + len(right) * _gini(_class_counts(right, len(classes)))
        ) / len(rows)
        decrease = parent_gini - child
        # strict > keeps the lowest informative feature index on ties
        if decrease > best_decrease + 1e-12:
            best_decrease = decrease
            best_feature = f
    if best_feature is None:
        return leaf()

    left_rows = [(x, y) for x, y in rows if x[best_feature] == 0]
    right_rows = [(x, y) for x, y in rows if x[best_feature] == 1]
    child_used = used | {best_feature}
    return TreeNode(
        feature=best_feature,
        left=_build(left_rows, child_used, classes, n_features),
        right=_build(right_rows, child_used, classes, n_features),
    )


def train_tree(
    dataset: list[tuple[tuple[int, ...], str]],
    classes: tuple[str, ...] | None = None,
) -> DecisionTree:
    """Greedy top-down Gini induction over binary features.

    Splits maximise impurity decrease with ties broken by the lowest feature
    index; growth stops on purity or when no split is informative. Leaves
    keep training class frequencies.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    n_features = len(dataset[0][0])
    if classes is None:
        classes = tuple(sorted({label for _, label in dataset}))
    index = {label: i for i, label in enumerate(classes)}
    rows = []
    for x, label in dataset:
        if len(x) != n_features:
            raise ValueError("inconsistent feature dimension in dataset")
        if any(v not in (0, 1) for v in x):
            raise ValueError(f"non-binary feature vector: {x!r}")
        if label not in index:
            raise ValueError(f"label {label!r} missing from class list")
        rows.append((tuple(x), index[label]))
    root = _build(rows, frozenset(), classes, n_features)
    return DecisionTree(root=root, classes=classes, n_features=n_features)


def predict_proba(tree: DecisionTree, x: tuple[int, ...]) -> tuple[float, ...]:
    if len(x) != tree.n_features:
        raise ValueError(f"expected {tree.n_features} features, got {len(x)}")
    node = tree.root
    while isinstance(node, TreeNode):
        node = node.right if x[node.feature] == 1 else node.left
    return node.proba


def predict(tree: DecisionTree, x: tuple[int, ...]) -> str:
    proba = predict_proba(tree, x)
    best = max(range(len(proba)), key=lambda i: (proba[i], -i))
    return tree.classes[best]


def load_recipe_dataset() -> list[tuple[tuple[int, ...], str]]:
    """Read the bundled recipe CSV (columns: ingredients..., label)."""
    text = read_package_data("pizza_recipes.csv")
    reader = csv.DictReader(text.splitlines())
    dataset = []
    for row in reader:
        x = tuple(int(row[name]) for name in INGREDIENTS)
        dataset.append((x, row["label"]))
    return dataset


@functools.lru_cache(maxsize=None)
def default_tree() -> DecisionTree:
    """The recommender trained on the bundled recipes, once per process."""
    return train_tree(load_recipe_dataset(), classes=PIZZA_CLASSES)


# Ridge penalty of the local surrogate: small enough not to move the fit,
# large enough to keep its normal equations positive definite for any draw.
RIDGE = 1e-6


class LimeConfig(NamedTuple):
    n_samples: int = 1000
    seed: int = 0


class Attribution(NamedTuple):
    weights: tuple[float, ...]
    intercept: float
    top_present_ingredient: str | None


def _weighted_ridge(
    rows: Sequence[tuple[int, ...]],
    targets: Sequence[float],
    weights: Sequence[float],
    lam: float,
) -> tuple[list[float], float]:
    """Weighted ridge fit with an unpenalized intercept column appended.

    ``rows`` are distinct and binary; a repeated input carries its
    multiplicity in its weight. Each entry of the normal equations is one
    ``math.fsum``, so it is correctly rounded whatever the row order; as the
    rows are binary, it sums just the weights (or weighted targets) of the
    rows whose factors are all 1. The system is solved by Gaussian
    elimination with partial pivoting.
    """
    d = len(rows[0])
    n = d + 1
    columns = [*zip(*rows), (1,) * len(rows)]
    weighted_targets = list(map(operator.mul, weights, targets))
    # augmented system [normal | rhs]; the normal matrix is symmetric
    system = [[0.0] * n + [math.fsum(compress(weighted_targets, ci))] for ci in columns]
    for i, ci in enumerate(columns):
        for j in range(i, n):
            both = map(operator.mul, ci, columns[j])
            system[i][j] = system[j][i] = math.fsum(compress(weights, both))
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


def _top_present(x: tuple[int, ...], weights: Sequence[float]) -> str | None:
    present = [i for i, v in enumerate(x) if v == 1]
    if not present:
        return None
    best = max(present, key=lambda i: (weights[i], -i))
    return INGREDIENTS[best]


# ``rng.randint(0, 1)`` takes the top two bits of one 32-bit Mersenne Twister
# output and draws again while they read 2 or 3: a word whose top byte is
# below 128 gives that byte's bit 6, a word whose top byte is 128 or more is
# skipped. ``getrandbits(32 * k)`` holds k such outputs, the first in its
# lowest bits, so their top bytes are every fourth byte of it little-endian.
_COIN_BIT = bytes((b >> 6) & 1 for b in range(256))
_REDRAWN = bytes(range(128, 256))
# Words drawn per call: keeps each call's buffers to a few tens of kilobytes.
_DRAW_WORDS = 4096


def _perturbations(rng: random.Random, n: int, d: int) -> list[tuple[int, ...]]:
    """``n`` rows of ``d`` draws each of ``rng.randint(0, 1)``, drawn in bulk.

    The rows equal ``tuple(rng.randint(0, 1) for _ in range(d))`` drawn ``n``
    times; ``rng`` is left further on than those calls would leave it.
    """
    need = n * d
    bits = bytearray()
    while len(bits) < need:
        # about two words per bit, since half are redrawn
        words = min(2 * (need - len(bits)) + 64, _DRAW_WORDS)
        top = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        bits += top.translate(_COIN_BIT, _REDRAWN)
    return [tuple(bits[i * d : (i + 1) * d]) for i in range(n)]


def lime_attribute(
    tree: DecisionTree,
    x: Sequence[int],
    target_class: str,
    cfg: LimeConfig = LimeConfig(),
) -> Attribution:
    """Local surrogate attribution of the tree's class probability at ``x``.

    Draws fair-coin binary perturbations (the instance itself is sample 0),
    weights them by exp(-(hamming/sqrt(d))^2 / sigma^2) with
    sigma = 0.75 * sqrt(d) and fits a weighted ridge regression of the
    target-class probability on the perturbations. The result is a pure
    function of the arguments, so the most recent distinct calls are
    memoized and share one immutable ``Attribution``.
    """
    return _lime_attribute(tree, tuple(x), target_class, cfg)


@functools.lru_cache(maxsize=64)
def _lime_attribute(
    tree: DecisionTree, x: tuple[int, ...], target_class: str, cfg: LimeConfig
) -> Attribution:
    if target_class not in tree.classes:
        raise ValueError(f"unknown class {target_class!r}")
    if cfg.n_samples < 1:
        raise ValueError("need at least one perturbation sample")
    if any(v not in (0, 1) for v in x):
        raise ValueError(f"non-binary feature vector: {x!r}")
    d = tree.n_features
    target_idx = tree.classes.index(target_class)
    counts = Counter([x])
    counts.update(_perturbations(random.Random(cfg.seed), cfg.n_samples - 1, d))
    rows = list(counts)

    # the tree walk of sample 0 also rejects an x of the wrong length
    targets = [predict_proba(tree, z)[target_idx] for z in rows]
    sigma = 0.75 * math.sqrt(d)
    kernel = [math.exp(-((h / math.sqrt(d)) ** 2) / sigma**2) for h in range(d + 1)]
    weights = [counts[z] * kernel[sum(map(operator.ne, z, x))] for z in rows]
    coef, intercept = _weighted_ridge(rows, targets, weights, RIDGE)
    return Attribution(
        weights=tuple(coef),
        intercept=intercept,
        top_present_ingredient=_top_present(x, coef),
    )


def exhaustive_attribution(
    tree: DecisionTree, x: tuple[int, ...], target_class: str
) -> Attribution:
    """Unweighted least-squares surrogate over every binary input.

    Enumerates all 2^d inputs with uniform weights and no penalty (the full
    cube has rank d + 1); serves as the sampling-free reference for the
    local surrogate.
    """
    if target_class not in tree.classes:
        raise ValueError(f"unknown class {target_class!r}")
    d = tree.n_features
    target_idx = tree.classes.index(target_class)
    rows = [tuple((mask >> bit) & 1 for bit in range(d)) for mask in range(2**d)]
    targets = [predict_proba(tree, z)[target_idx] for z in rows]
    coef, intercept = _weighted_ridge(rows, targets, [1.0] * len(rows), 0.0)
    return Attribution(
        weights=tuple(coef),
        intercept=intercept,
        top_present_ingredient=_top_present(tuple(x), coef),
    )


def ingredients_from_events(events: tuple[Event, ...]) -> tuple[int, ...] | None:
    for event in events:
        if event.kind == "param" and all(name in event.payload for name in INGREDIENTS):
            return tuple(int(bool(event.payload[name])) for name in INGREDIENTS)
    return None


def recommendation_from_events(events: tuple[Event, ...]) -> str | None:
    for event in events:
        if event.kind == "dialogue" and "recommended" in event.payload:
            return str(event.payload["recommended"])
    return None


def _pizza_answer(events: EventView) -> str:
    x = ingredients_from_events(events)
    recommended = recommendation_from_events(events)
    if x is None:
        raise ExplainerError("no ingredient availability event in view")
    if recommended is None:
        raise ExplainerError("no recommendation dialogue event in view")
    tree = default_tree()
    if recommended not in tree.classes:
        raise ExplainerError(f"recommendation {recommended!r} is not a known pizza class")
    attribution = lime_attribute(tree, x, recommended)
    if attribution.top_present_ingredient is None:
        return (
            f"I recommended {recommended} as the default choice: no ingredients "
            "were available to steer the decision."
        )
    present = [(INGREDIENTS[i], attribution.weights[i]) for i, v in enumerate(x) if v == 1]
    present.sort(key=lambda item: -item[1])
    ranking = ", ".join(f"{name} ({weight:+.3f})" for name, weight in present)
    return (
        f"I recommended {recommended} mainly because "
        f"{attribution.top_present_ingredient} was available. "
        f"Influence of the available ingredients on this choice: {ranking}."
    )


def explain_pizza(
    query: Query,
    context: ContextVector,
    events: EventView,
    reasoner=None,
) -> str:
    """Template the recommendation rationale from the surrogate ranking.

    Purely templated: zero reasoner calls. The text depends on the events
    alone, so it is built once per event view.
    """
    return events.derived(_pizza_answer)
