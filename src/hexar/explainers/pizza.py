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
import random
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..framework import ExplainerError
from ..trace import ContextVector, Event, Query

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


class PizzaExplainError(ExplainerError):
    """Raised when the trace lacks the recommendation or ingredient events."""


@dataclass(frozen=True)
class TreeNode:
    """Internal split node; children keyed by the binary feature value."""

    feature: int
    left: "TreeNode | TreeLeaf"   # feature == 0
    right: "TreeNode | TreeLeaf"  # feature == 1


@dataclass(frozen=True)
class TreeLeaf:
    label: str
    proba: tuple[float, ...]


@dataclass(frozen=True)
class DecisionTree:
    root: "TreeNode | TreeLeaf"
    classes: tuple[str, ...]
    n_features: int

    # cached_property writes the instance __dict__ directly, which a frozen
    # dataclass allows; the table is not a field, so eq, hash and repr ignore it
    @functools.cached_property
    def proba_table(self) -> np.ndarray:
        """Class probabilities of every binary input, shape (n_classes, 2**n_features).

        Column ``code`` holds ``predict_proba`` of the input whose feature ``f``
        is bit ``f`` of ``code`` (the row order of :func:`binary_cube`).
        Tabulated on first use and read-only; its size grows as 2**n_features.
        """
        cube = binary_cube(self.n_features).astype(int).tolist()
        table = np.array([predict_proba(self, z) for z in cube]).T.copy()
        table.flags.writeable = False
        return table


def binary_cube(d: int) -> np.ndarray:
    """All 2**d binary inputs as float rows; row ``code`` has bit ``f`` of ``code`` at column ``f``."""
    return ((np.arange(2**d)[:, None] >> np.arange(d)) & 1).astype(float)


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
    text = resources.files("hexar.data").joinpath("pizza_recipes.csv").read_text("utf-8")
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


@dataclass(frozen=True)
class LimeConfig:
    n_samples: int = 1000
    kernel_width: float | None = None  # defaults to 0.75 * sqrt(d)
    seed: int = 0
    regularization: float = 1e-6

    def sigma(self, d: int) -> float:
        width = self.kernel_width if self.kernel_width is not None else 0.75 * math.sqrt(d)
        if width <= 0:
            raise ValueError("kernel width must be positive")
        return width


@dataclass(frozen=True)
class Attribution:
    weights: tuple[float, ...]
    intercept: float
    top_present_ingredient: str | None


def _weighted_ridge(
    design: np.ndarray, target: np.ndarray, weights: np.ndarray, lam: float
) -> tuple[np.ndarray, float]:
    """Weighted ridge fit with an unpenalized intercept column appended."""
    n, d = design.shape
    augmented = np.hstack([design, np.ones((n, 1))])
    wz = augmented * weights[:, None]
    normal = augmented.T @ wz
    penalty = np.eye(d + 1) * lam
    penalty[d, d] = 0.0
    rhs = wz.T @ target
    try:
        solution = np.linalg.solve(normal + penalty, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("degenerate perturbation design; use regularization > 0") from exc
    return solution[:d], float(solution[d])


def _top_present(x: tuple[int, ...], weights: np.ndarray) -> str | None:
    present = [i for i, v in enumerate(x) if v == 1]
    if not present:
        return None
    best = max(present, key=lambda i: (weights[i], -i))
    return INGREDIENTS[best]


@functools.lru_cache(maxsize=16)
def _perturbations(seed: int, n_samples: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows 1..n_samples-1 of the LIME design and their :func:`binary_cube` codes.

    The draws do not depend on the explained instance, so they are made once
    per ``(seed, n_samples, d)`` with the fair-coin ``rng.randint`` sequence
    and shared read-only between calls.
    """
    rng = random.Random(seed)
    rows = np.array(
        [[rng.randint(0, 1) for _ in range(d)] for _ in range(n_samples - 1)], dtype=float
    ).reshape(n_samples - 1, d)
    codes = rows.astype(np.int64) @ (1 << np.arange(d))
    rows.flags.writeable = False
    codes.flags.writeable = False
    return rows, codes


def lime_attribute(
    tree: DecisionTree,
    x: tuple[int, ...],
    target_class: str,
    cfg: LimeConfig = LimeConfig(),
) -> Attribution:
    """Local surrogate attribution of the tree's class probability at ``x``.

    Draws fair-coin binary perturbations (the instance itself is sample 0),
    weights them by exp(-(hamming/sqrt(d))^2 / sigma^2) and fits a weighted
    ridge regression of the target-class probability on the perturbations.
    """
    if target_class not in tree.classes:
        raise ValueError(f"unknown class {target_class!r}")
    if cfg.n_samples < 1:
        raise ValueError("need at least one perturbation sample")
    d = tree.n_features
    target_idx = tree.classes.index(target_class)
    # the tree walk for sample 0 also rejects an x of the wrong length
    own_proba = predict_proba(tree, x)[target_idx]
    rows, codes = _perturbations(cfg.seed, cfg.n_samples, d)
    instance = np.array(x, dtype=float)
    design = np.vstack([instance, rows])
    target = np.concatenate([[own_proba], tree.proba_table[target_idx][codes]])
    hamming = np.abs(design - instance).sum(axis=1)
    sigma = cfg.sigma(d)
    weights = np.exp(-((hamming / math.sqrt(d)) ** 2) / sigma**2)
    coef, intercept = _weighted_ridge(design, target, weights, cfg.regularization)
    return Attribution(
        weights=tuple(float(w) for w in coef),
        intercept=intercept,
        top_present_ingredient=_top_present(tuple(x), coef),
    )


def exhaustive_attribution(
    tree: DecisionTree, x: tuple[int, ...], target_class: str
) -> Attribution:
    """Unweighted least-squares surrogate over every binary input.

    Enumerates all 2^d inputs with uniform weights and no regularization;
    serves as the sampling-free reference for the local surrogate.
    """
    if target_class not in tree.classes:
        raise ValueError(f"unknown class {target_class!r}")
    target_idx = tree.classes.index(target_class)
    design = binary_cube(tree.n_features)
    target = tree.proba_table[target_idx]
    coef, intercept = _weighted_ridge(design, target, np.ones(len(design)), 0.0)
    return Attribution(
        weights=tuple(float(w) for w in coef),
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


def explain_pizza(
    query: Query,
    context: ContextVector,
    events: tuple[Event, ...],
    reasoner=None,
    tree: DecisionTree | None = None,
    cfg: LimeConfig = LimeConfig(),
) -> str:
    """Template the recommendation rationale from the surrogate ranking.

    Purely templated: zero reasoner calls.
    """
    x = ingredients_from_events(events)
    recommended = recommendation_from_events(events)
    if x is None:
        raise PizzaExplainError("no ingredient availability event in view")
    if recommended is None:
        raise PizzaExplainError("no recommendation dialogue event in view")
    tree = tree if tree is not None else default_tree()
    if recommended not in tree.classes:
        raise PizzaExplainError(f"recommendation {recommended!r} is not a known pizza class")
    attribution = lime_attribute(tree, x, recommended, cfg)
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
