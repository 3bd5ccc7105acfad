"""Native tree family: CART decision tree on Gini gain, bootstrap random
forest, histogram-based gradient-boosted trees with a softmax objective and a
class-prior baseline, each fit to one `Model` of flat node-array `Tree`s; plus
impurity importances and recursive feature elimination."""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .atomic import atomic_open
from .errors import ConfigError, DataError
from .parallel import ordered_map

MODEL_FORMAT = "idstats-model"
MODEL_VERSION = 4

# Gains this small are floating-point noise, not structure.
_GAIN_EPS = 1e-12


def derive_seed(*parts: int) -> int:
    """Deterministic child seed from an integer path (master seed first)."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _check_xy(X: np.ndarray, y: np.ndarray, n_classes: int | None) -> tuple:
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2:
        raise DataError("X must be a 2-D matrix")
    if y.shape != (X.shape[0],):
        raise DataError("y length must match X rows")
    if y.size == 0:
        raise DataError("cannot fit on an empty dataset")
    if np.any(y < 0):
        raise DataError("labels must be non-negative class ids")
    if n_classes is None:
        n_classes = int(y.max()) + 1
    elif int(y.max()) >= n_classes:
        raise DataError(f"label {int(y.max())} out of range for {n_classes} classes")
    return X, y, n_classes


@dataclass
class Tree:
    """One grown tree as parallel node arrays; node 0 is the root.

    Node i is a leaf when feature[i] == -1. An inner node routes rows with
    x[feature] <= threshold to left[i] and the rest to right[i]; children
    always have larger ids than their parent. ``value`` holds one row per
    node: the class distribution for CART (so any node can serve as a leaf),
    one column with the shrunk leaf step for GBDT. ``gain`` is what the
    split adds to the importances: the weighted impurity decrease over the
    root's size for CART, the split gain for GBDT; 0 at a leaf.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    n_samples: np.ndarray
    value: np.ndarray
    gain: np.ndarray


# The node arrays of a Tree and their dtypes, in the order of a node's fields.
_NODE_ARRAYS = {
    "feature": np.intp,
    "threshold": np.float64,
    "left": np.intp,
    "right": np.intp,
    "n_samples": np.int64,
    "value": np.float64,
    "gain": np.float64,
}


class _Nodes(list):
    """A grower's nodes in id order, each [feature, threshold, left, right,
    n_samples, value, gain]; ``add`` appends a leaf and returns its id."""

    def add(self, n_samples: int, value) -> int:
        self.append([-1, 0.0, -1, -1, n_samples, value, 0.0])
        return len(self) - 1

    def split(
        self, i: int, feature: int, threshold: float, left: int, right: int, gain: float
    ) -> None:
        self[i][:4] = feature, threshold, left, right
        self[i][6] = gain

    def tree(self) -> Tree:
        arrays = {
            name: np.array(column, dtype=dtype)
            for (name, dtype), column in zip(_NODE_ARRAYS.items(), zip(*self))
        }
        arrays["value"] = arrays["value"].reshape(len(self), -1)
        return Tree(**arrays)


@dataclass
class Model:
    """A fitted model of any family. ``tree`` holds one tree, ``forest`` its
    bagged trees and ``majority`` one leaf with the class priors. ``gbdt``
    holds its trees round-major, tree i for class i % n_classes, and alone
    sets ``init_scores``.
    """

    family: str
    trees: list[Tree]
    n_classes: int
    n_features: int
    init_scores: np.ndarray | None = None


# The fit parameter that sizes a family. Forest tree i is seeded by (seed, i)
# and boosting rounds run in sequence, so the first n trees (rounds) of a
# larger fit are exactly the fit with n.
SIZE_KEY = {"forest": "n_trees", "gbdt": "rounds"}


def truncate(model: Model, n: int) -> Model:
    """The model a fit with ``SIZE_KEY[model.family] = n`` returns, cut from
    a larger fit: a forest's first n trees or a GBDT's first n rounds."""
    per_round = model.n_classes if model.family == "gbdt" else 1
    return replace(model, trees=model.trees[: n * per_round])


# Split-search temporaries hold at most this many class × row cells.
_BLOCK_CELLS = 1 << 17


def _class_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the classes (axis 1) in np.sum's order for a row of classes."""
    if a.shape[1] < 8:
        return a.sum(axis=1)
    return np.ascontiguousarray(a.transpose(0, 2, 1)).sum(axis=2)


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    weight: np.ndarray,
    rows: np.ndarray,
    features: np.ndarray,
    min_leaf: int,
    n: int,
    parent_impurity: float,
    total: np.ndarray,
) -> tuple[float, int, float] | None:
    """Best (gain, feature, threshold) over midpoint candidates, or None.

    ``rows`` holds the node's distinct row ids; row r counts weight[r] times,
    and ``total`` holds the class counts of the n rows. Features are scored
    in blocks of at most _BLOCK_CELLS class × row cells: a block's columns
    are gathered and argsorted over the node's rows. Candidates put the first
    s rows on the left, min_leaf <= s <= n − min_leaf, at boundaries between
    distinct values. The counts at a boundary are exact integers, so the
    order the sort gives equal values changes no gain. The first (feature,
    lowest threshold) wins ties, so the result is deterministic.
    """
    # An absent class adds exact zeros to the Gini sums, so below 8 classes,
    # where np.sum adds left to right, it can be left out.
    classes = np.flatnonzero(total) if total.size < 8 else np.arange(total.size)
    total = total[classes, None]
    step = max(1, _BLOCK_CELLS // (classes.size * rows.size))
    best: tuple[float, int, float] | None = None
    for start in range(0, features.size, step):
        block = features[start:start + step]
        vs = X.take(rows * X.shape[1] + block[:, None])
        order = rows[vs.argsort(axis=1)]
        vs.sort(axis=1)
        w = weight[order]
        # candidate i splits after the first i + 1 distinct rows
        sizes = w.cumsum(axis=1)[:, :-1]
        right_sizes = n - sizes
        valid = vs[:, :-1] < vs[:, 1:]
        if min_leaf > 1:
            valid &= (sizes >= min_leaf) & (right_sizes >= min_leaf)
        cum = (y[order][:, None, :] == classes[:, None]) * w[:, None, :]
        left = np.add.accumulate(cum, axis=2, out=cum)[:, :, :-1]
        right = total - left
        left /= sizes[:, None]
        right /= right_sizes[:, None]
        gini_left = 1.0 - _class_sum(np.square(left, out=left))
        gini_right = 1.0 - _class_sum(np.square(right, out=right))
        gain = np.where(
            valid,
            parent_impurity - (sizes / n) * gini_left - (right_sizes / n) * gini_right,
            -np.inf,
        )
        for j, pick in enumerate(gain.argmax(axis=1).tolist()):
            if valid[j, pick] and (best is None or gain[j, pick] > best[0] + _GAIN_EPS):
                threshold = 0.5 * (vs[j, pick] + vs[j, pick + 1])
                best = (float(gain[j, pick]), int(block[j]), float(threshold))
    return best


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    weight: np.ndarray,
    n_classes: int,
    max_depth: int | None,
    min_leaf: int,
    feature_subset: int | None,
    rng: np.random.Generator,
) -> Tree:
    """CART on the sample that holds row r of X weight[r] times.

    A node keeps one array of its distinct row ids, and a split sends the
    rows with X[row, f] <= threshold left. The tree is the one grown on the
    expanded sample, since a node depends only on which rows reach it and
    how often. Nodes are grown depth-first, left before right, and a split
    appends both children to the arrays.
    """
    p = X.shape[1]
    if min_leaf < 1:
        raise DataError("min_leaf must be >= 1")
    m = p if feature_subset is None else min(max(int(feature_subset), 1), p)
    nodes = _Nodes()

    def node_for(rows: np.ndarray) -> tuple:
        """(id, rows, class counts, size, impurity) of a new leaf."""
        counts = np.bincount(y[rows], weights=weight[rows], minlength=n_classes)
        size = int(counts.sum())
        shares = counts / size
        impurity = float(1.0 - np.dot(shares, shares))  # Gini: 1 − Σ share²
        return nodes.add(size, shares), rows, counts, size, impurity

    root = node_for(np.flatnonzero(weight))
    n_root = root[3]
    # depth-first, left before right, so RNG consumption is deterministic
    stack = [(*root, 0)]
    while stack:
        i, rows, counts, size, impurity, depth = stack.pop()
        if (
            (max_depth is not None and depth >= max_depth)
            or size < 2 * min_leaf
            or impurity <= 0.0
        ):
            continue
        features = rng.choice(p, size=m, replace=False) if m < p else np.arange(p)
        best = _best_split(X, y, weight, rows, features, min_leaf, size, impurity, counts)
        if best is None:
            continue
        _, f, threshold = best
        mask = X[rows, f] <= threshold
        left, right = node_for(rows[mask]), node_for(rows[~mask])
        (*_, n_left, impurity_left), (*_, n_right, impurity_right) = left, right
        # the impurity decrease, weighted by the node's share of the root's rows
        decrease = (size * impurity - n_left * impurity_left - n_right * impurity_right) / n_root
        nodes.split(i, f, threshold, left[0], right[0], decrease)
        stack.append((*right, depth + 1))
        stack.append((*left, depth + 1))
    return nodes.tree()


def _leaves(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf id of every row of X, all rows stepping down one level at a time."""
    cells, p = X.ravel(), X.shape[1]
    node = np.zeros(X.shape[0], dtype=np.intp)
    active = np.flatnonzero(tree.feature[node] >= 0)
    while active.size:
        at = node[active]
        goes_left = cells[active * p + tree.feature[at]] <= tree.threshold[at]
        at = np.where(goes_left, tree.left[at], tree.right[at])
        node[active] = at
        active = active[tree.feature[at] >= 0]
    return node


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_trees: int = 100,
    max_depth: int | None = None,
    min_leaf: int = 1,
    max_features: int | str | None = "sqrt",
    bootstrap: bool = True,
    seed: int = 0,
    n_classes: int | None = None,
    workers: int = 1,
) -> Model:
    """Random forest: per tree, a bootstrap resample and ⌈√p⌉ features per split.

    Tree i draws from an RNG seeded by (seed, i), so results do not depend on
    build order or on ``workers``, the number of processes growing trees.
    A tree holds each drawn row once, weighted by its bootstrap count, and
    each node sorts its rows on the features it searches.
    """
    X, y, n_classes = _check_xy(X, y, n_classes)
    if n_trees < 1:
        raise DataError("n_trees must be >= 1")
    n, p = X.shape
    if max_features == "sqrt":
        max_features = int(math.ceil(math.sqrt(p)))

    def tree(i: int) -> Tree:
        rng = np.random.default_rng([seed, i])
        drawn = np.ones(n)
        if bootstrap:
            drawn = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
        return _grow_tree(X, y, drawn, n_classes, max_depth, min_leaf, max_features, rng)

    trees = ordered_map(tree, range(n_trees), workers=workers)
    return Model("forest", trees, n_classes, p)


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int | None = None,
    min_leaf: int = 1,
    seed: int = 0,
    n_classes: int | None = None,
) -> Model:
    """One CART tree on Gini gain: the forest's grower, unbagged, searching
    every feature at every node.

    A node becomes a leaf when it is pure, has fewer than 2·min_leaf rows, is
    at max_depth (None = unbounded, 0 = a single leaf) or has no candidate
    split; otherwise the best midpoint split is taken, even at zero gain (XOR
    needs one at depth 2). Such a tree draws nothing from its RNG, so
    ``seed`` changes nothing; it stays as the family's grid key.
    """
    model = fit_forest(X, y, 1, max_depth, min_leaf, None, False, seed, n_classes)
    return replace(model, family="tree")


def fit_majority(
    X: np.ndarray, y: np.ndarray, n_classes: int | None = None, seed: int = 0
) -> Model:
    """Constant predictor: the `fit_tree` tree cut at depth 0, one leaf whose
    distribution is the class priors. ``seed`` changes nothing."""
    return replace(fit_tree(X, y, 0, n_classes=n_classes), family="majority")


def _softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _quantile_bin_edges(col: np.ndarray, n_bins: int) -> np.ndarray:
    """Strictly increasing interior edges from the column's quantiles.

    Edges are order statistics (lower quantiles), so binning commutes with
    any strictly increasing transform of the column.
    """
    qs = np.arange(1, n_bins) / n_bins
    return np.unique(np.quantile(col, qs, method="lower"))


def _bin_codes(X: np.ndarray, edges: list[np.ndarray]) -> np.ndarray:
    """n × p bin codes, feature f's offset by f·NB (NB = widest bin count)."""
    width = max((e.size for e in edges), default=0) + 1
    codes = np.empty(X.shape, dtype=np.intp)
    for f, e in enumerate(edges):
        # code <= j  <=>  x <= edges[j]
        codes[:, f] = np.searchsorted(e, X[:, f], side="left") + f * width
    return codes


def _fit_hist_tree(
    codes: np.ndarray,
    edges: list[np.ndarray],
    g: np.ndarray,
    h: np.ndarray,
    learning_rate: float,
    max_depth: int | None,
    lambda_reg: float,
    min_child_weight: float,
) -> tuple[Tree, np.ndarray]:
    """One Newton regression tree on gradient/hessian histograms.

    ``codes`` (n × p) offsets feature f's bin codes by f·NB, NB the widest
    bin count, so one weighted bincount per statistic makes a node's
    histograms of all features; each bin still adds its rows in row order,
    so the sums are those of per-feature bincounts to the last bit. Nodes
    are grown depth-first, left before right, and a split appends both
    children to the arrays. Returns the tree and the per-sample leaf values
    (already shrunk by the learning rate), so training can update scores
    without re-routing.
    """
    n, p = codes.shape
    n_cuts = np.array([e.size for e in edges], dtype=np.intp)
    width = int(n_cuts.max(initial=0)) + 1
    # cut j of feature f is a candidate only where f has more than j + 1 bins
    cuttable = np.arange(width - 1) < n_cuts[:, None]
    values = np.empty(n, dtype=np.float64)
    nodes = _Nodes()

    def node_for(idx: np.ndarray) -> tuple[int, np.ndarray, float, float, float]:
        sum_g = float(g[idx].sum())
        sum_h = float(h[idx].sum())
        step = -learning_rate * sum_g / (sum_h + lambda_reg)
        return nodes.add(int(idx.size), step), idx, sum_g, sum_h, step

    stack = [(*node_for(np.arange(n)), 0)]
    while stack:
        i, idx, total_g, total_h, step, depth = stack.pop()
        if (max_depth is not None and depth >= max_depth) or idx.size < 2 or width < 2:
            values[idx] = step
            continue
        base_score = total_g * total_g / (total_h + lambda_reg)
        node_codes = codes.take(idx, axis=0)
        flat = node_codes.ravel()
        hist_g = np.bincount(flat, weights=np.repeat(g[idx], p), minlength=p * width)
        hist_h = np.bincount(flat, weights=np.repeat(h[idx], p), minlength=p * width)
        cg = np.cumsum(hist_g.reshape(p, width), axis=1)[:, :-1]
        ch = np.cumsum(hist_h.reshape(p, width), axis=1)[:, :-1]
        valid = cuttable & (ch >= min_child_weight) & (total_h - ch >= min_child_weight)
        gain = np.where(
            valid,
            cg * cg / (ch + lambda_reg)
            + (total_g - cg) ** 2 / (total_h - ch + lambda_reg)
            - base_score,
            -np.inf,
        )
        best_gain = 0.0
        best = None  # (feature, edge index)
        for f, pick in enumerate(np.argmax(gain, axis=1)):
            if gain[f, pick] > best_gain + _GAIN_EPS:
                best_gain = float(gain[f, pick])
                best = (f, int(pick))
        if best is None:
            values[idx] = step
            continue
        f, j = best
        mask = node_codes[:, f] <= f * width + j
        left, right = node_for(idx[mask]), node_for(idx[~mask])
        nodes.split(i, f, float(edges[f][j]), left[0], right[0], best_gain)
        stack.append((*right, depth + 1))
        stack.append((*left, depth + 1))
    return nodes.tree(), values


def fit_gbdt(
    X: np.ndarray,
    y: np.ndarray,
    rounds: int = 100,
    learning_rate: float = 0.1,
    max_depth: int | None = 6,
    n_bins: int = 255,
    lambda_reg: float = 1.0,
    min_child_weight: float = 1e-3,
    seed: int = 0,
    n_classes: int | None = None,
) -> Model:
    """Multiclass softmax GBDT over quantile-binned features.

    Per round, one regression tree per class fits the Newton statistics
    g = p_k − 1{y=k}, h = p_k(1−p_k); scores start at the log class priors.
    The fit is deterministic; ``seed`` is kept for interface symmetry with
    the other families. The bin codes are made once per fit, offset per
    feature, so each node builds the histograms of every feature with one
    bincount per statistic; the trees are those of per-feature histograms,
    bit for bit.

    Args:
        X: n × p float matrix.
        y: integer class ids.
        rounds: boosting rounds, >= 1.
        learning_rate: shrinkage applied to every leaf value, finite and > 0.
        max_depth: per-tree depth cap (None = unbounded).
        n_bins: histogram bins per feature (quantile bins, <= 255 by default).
        lambda_reg: L2 regularization added to hessian denominators, >= 0.
        min_child_weight: minimum child hessian sum for a valid split, >= 0.
    """
    X, y, n_classes = _check_xy(X, y, n_classes)
    if rounds < 1:
        raise DataError("rounds must be >= 1")
    if n_bins < 2:
        raise DataError("n_bins must be >= 2")
    _check_value("learning_rate", learning_rate)
    _check_value("lambda_reg", lambda_reg)
    _check_value("min_child_weight", min_child_weight)
    n, p = X.shape

    edges = [_quantile_bin_edges(X[:, f], n_bins) for f in range(p)]
    codes = _bin_codes(X, edges)
    priors = np.bincount(y, minlength=n_classes).astype(np.float64) / n
    init_scores = np.log(np.maximum(priors, 1e-12))
    scores = np.tile(init_scores, (n, 1))
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0

    trees: list[Tree] = []
    for _ in range(rounds):
        proba = _softmax(scores)
        grad = proba - onehot
        hess = proba * (1.0 - proba)
        for k in range(n_classes):
            tree, leaf_values = _fit_hist_tree(
                codes, edges, grad[:, k], hess[:, k],
                learning_rate, max_depth, lambda_reg, min_child_weight,
            )
            scores[:, k] += leaf_values
            trees.append(tree)
    return Model("gbdt", trees, n_classes, p, init_scores)


def predict_proba(model: Model, X: np.ndarray) -> np.ndarray:
    """Class-probability matrix (rows sum to 1) for any fitted family.

    Every tree routes the rows to their leaves with one descent (``_leaves``);
    a GBDT adds the leaves' steps to the init scores and takes the softmax,
    every other family averages the leaves' class distributions.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("X must be a 2-D matrix")
    if X.shape[1] != model.n_features:
        raise DataError(
            f"feature count mismatch: model expects {model.n_features}, got {X.shape[1]}"
        )
    if model.family == "gbdt":
        scores = np.tile(model.init_scores, (X.shape[0], 1))
        for i, tree in enumerate(model.trees):
            scores[:, i % model.n_classes] += tree.value[_leaves(tree, X), 0]
        return _softmax(scores)
    acc = np.zeros((X.shape[0], model.n_classes), dtype=np.float64)
    for tree in model.trees:
        acc += tree.value[_leaves(tree, X)]
    return acc / len(model.trees)


def predict_labels(model: Model, X: np.ndarray) -> np.ndarray:
    return np.argmax(predict_proba(model, X), axis=1)


def impurity_importance(model: Model) -> np.ndarray:
    """Per-feature impurity (tree/forest) or split-gain (GBDT) reduction,
    normalized to sum 1; all-zero when the model contains no split.

    Each tree's split gains are added in pre-order, right subtree first, and
    the trees in model order, so the sums are reproducible to the last bit.
    """
    out = np.zeros(model.n_features, dtype=np.float64)
    for tree in model.trees:
        feature, left, right, gain = (
            a.tolist() for a in (tree.feature, tree.left, tree.right, tree.gain)
        )
        stack = [0]
        while stack:
            i = stack.pop()
            if feature[i] >= 0:
                out[feature[i]] += gain[i]
                stack += (left[i], right[i])
    total = out.sum()
    return out / total if total > 0 else out


@dataclass
class ModelSpec:
    """A model family plus its fit parameters, resolvable via fit_model."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in _FITTERS:
            raise DataError(f"unknown model family {self.family!r}")


_FITTERS = {
    "tree": fit_tree,
    "forest": fit_forest,
    "gbdt": fit_gbdt,
    "majority": fit_majority,
}


def fitter_defaults(family: str) -> dict:
    """The family's fitter parameters that have a default, with that default."""
    parameters = inspect.signature(_FITTERS[family]).parameters.values()
    return {p.name: p.default for p in parameters if p.default is not p.empty}


def _is_int(value: Any, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _is_finite(value: Any) -> bool:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and math.isfinite(value)


# Per grid key: a test every candidate value must pass, and what it asks for.
GRID_VALUES = {
    "n_trees": (lambda v: _is_int(v, 1), "an integer >= 1"),
    "rounds": (lambda v: _is_int(v, 1), "an integer >= 1"),
    "min_leaf": (lambda v: _is_int(v, 1), "an integer >= 1"),
    "n_bins": (lambda v: _is_int(v, 2), "an integer >= 2"),
    "seed": (lambda v: _is_int(v, 0), "an integer >= 0"),
    "max_depth": (lambda v: v is None or _is_int(v, 0), "an integer >= 0 or null"),
    "max_features": (
        lambda v: v is None or v == "sqrt" or _is_int(v, 1),
        '"sqrt", an integer >= 1 or null',
    ),
    # XGBoost's ranges (Chen & Guestrin, KDD 2016)
    "learning_rate": (lambda v: _is_finite(v) and v > 0, "a finite number > 0"),
    "lambda_reg": (lambda v: _is_finite(v) and v >= 0, "a finite number >= 0"),
    "min_child_weight": (lambda v: _is_finite(v) and v >= 0, "a finite number >= 0"),
    "bootstrap": (lambda v: isinstance(v, bool), "a boolean"),
}


def _check_value(param: str, value: Any, prefix: str = "") -> None:
    valid, want = GRID_VALUES[param]
    if not valid(value):
        raise DataError(f"{prefix}{param}: {value!r} is not {want}")


def check_grid(family: str, grid: Any, where: str) -> None:
    """Check one family's grid; errors start with ``where``. Its keys are the
    fitter's parameters that `GRID_VALUES` names, each with a list of values."""
    if family not in _FITTERS:
        raise DataError(
            f"{where}: unknown model family (expected one of {', '.join(_FITTERS)})"
        )
    if not isinstance(grid, dict):
        raise DataError(f"{where} must be a mapping, got {type(grid).__name__}")
    if not grid:
        raise DataError(f"{where} must list at least one parameter's candidate values")
    allowed = fitter_defaults(family).keys() & GRID_VALUES.keys()
    unknown = sorted(set(grid) - allowed)
    if unknown:
        raise DataError(f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}")
    for param, values in grid.items():
        if not isinstance(values, list) or not values:
            raise DataError(f"{where}.{param} must be a non-empty list of candidate values")
        for value in values:
            _check_value(param, value, f"{where}.")


def fit_model(
    spec: ModelSpec,
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int | None = None,
    seed: int | None = None,
    workers: int = 1,
):
    """Fit the spec'd family; an explicit seed in params wins over ``seed``.

    ``workers`` processes grow a forest's trees; other families fit in-process.
    """
    params = dict(spec.params)
    if seed is not None:
        params.setdefault("seed", seed)
    if spec.family == "forest":
        params["workers"] = workers
    return _FITTERS[spec.family](X, y, n_classes=n_classes, **params)


@dataclass
class RfeRound:
    """One elimination round: the refit importances and what was dropped."""

    index: int
    importances: dict[str, float]
    dropped: list[str]


@dataclass
class RfeResult:
    selected: list[str]
    trace: list[RfeRound]
    final_importances: dict[str, float]


@dataclass(frozen=True)
class RfeConfig:
    """Recursive-elimination settings and the wrapped forest's shape."""

    keep_threshold: float = 0.025
    step: int = 1
    n_trees: int = 30
    max_depth: int | None = None

    def __post_init__(self) -> None:
        # importances sum to 1, so a threshold above 1 would select nothing
        if not 0.0 <= self.keep_threshold <= 1.0:
            raise ConfigError(f"keep_threshold must be in [0, 1], got {self.keep_threshold}")
        if self.step < 1 or self.n_trees < 1:
            raise ConfigError(
                f"step and n_trees must be >= 1, got {self.step} and {self.n_trees}"
            )
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigError(f"max_depth must be >= 0 or null, got {self.max_depth}")


def rfe(
    X: np.ndarray,
    y: np.ndarray,
    cfg: RfeConfig = RfeConfig(),
    seed: int = 0,
    feature_names: list[str] | None = None,
    n_classes: int | None = None,
    workers: int = 1,
) -> RfeResult:
    """Recursive feature elimination on a random forest's refit importances.

    While more than one feature remains and the minimum importance falls
    below ``cfg.keep_threshold``, the ``cfg.step`` lowest-importance features
    are dropped (ties drop the earlier column first) and a trace round is
    recorded. The selection is every surviving feature whose importance in
    the final fit is >= keep_threshold; keep_threshold = 0 therefore selects
    everything without dropping.

    Args:
        X: n × p float matrix.
        y: integer class ids.
        cfg: the threshold, the step and the forest's size and depth.
        seed: the forest's seed, the same at every refit.
        feature_names: names for the columns; default "f0".."f{p-1}".
        workers: processes per refit (a forest grows its trees in parallel).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 2:
        raise DataError("rfe needs a 2-D matrix with at least 2 features")
    spec = ModelSpec(
        "forest", {"n_trees": cfg.n_trees, "max_depth": cfg.max_depth, "seed": seed}
    )
    names = (
        [f"f{j}" for j in range(X.shape[1])] if feature_names is None else list(feature_names)
    )
    if len(names) != X.shape[1]:
        raise DataError("feature_names length must match X columns")

    current = list(range(X.shape[1]))
    trace: list[RfeRound] = []
    while True:
        # X itself until a column goes: X[:, current] is F-ordered, copied again
        kept = X if len(current) == X.shape[1] else X.take(current, axis=1)
        model = fit_model(spec, kept, y, n_classes=n_classes, workers=workers)
        imp = impurity_importance(model)
        snapshot = {names[c]: float(v) for c, v in zip(current, imp)}
        if len(current) == 1 or float(imp.min()) >= cfg.keep_threshold:
            selected = [
                names[c] for c, v in zip(current, imp) if float(v) >= cfg.keep_threshold
            ]
            return RfeResult(selected=selected, trace=trace, final_importances=snapshot)
        n_drop = min(cfg.step, len(current) - 1)
        drop_local = np.argsort(imp, kind="stable")[:n_drop]
        dropped = [names[current[j]] for j in sorted(drop_local)]
        trace.append(RfeRound(index=len(trace), importances=snapshot, dropped=dropped))
        current = [c for j, c in enumerate(current) if j not in set(drop_local)]


def _tree_to_dict(tree: Tree) -> dict:
    return {name: getattr(tree, name).tolist() for name in _NODE_ARRAYS}


def _tree_from_dict(data: dict, n_features: int, width: int) -> Tree:
    """Tree from its node lists, checked so that every descent ends at a leaf."""
    try:
        arrays = {name: np.asarray(data[name], dtype=t) for name, t in _NODE_ARRAYS.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed tree node arrays: {exc}") from None
    feature, left, right = arrays["feature"], arrays["left"], arrays["right"]
    n = feature.shape[0] if feature.ndim == 1 else 0
    if n == 0 or any(a.shape != (n,) for k, a in arrays.items() if k != "value"):
        raise DataError("tree node arrays must be non-empty and of one length")
    if arrays["value"].shape != (n, width):
        raise DataError(f"tree value rows must have {width} entries")
    if np.any((feature < -1) | (feature >= n_features)):
        raise DataError(f"tree feature ids must lie in [-1, {n_features})")
    inner = np.flatnonzero(feature >= 0)
    for child in (left[inner], right[inner]):
        if np.any((child <= inner) | (child >= n)):
            raise DataError("tree children must have larger ids than their parent")
    return Tree(**arrays)


def model_to_dict(model: Model) -> dict:
    """Self-describing JSON form with a format/version tag."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "family": model.family,
        "n_classes": model.n_classes,
        "n_features": model.n_features,
        "trees": [_tree_to_dict(t) for t in model.trees],
    }
    if model.family == "gbdt":
        doc["init_scores"] = model.init_scores.tolist()
    return doc


def _model_from_fields(data: dict) -> Model:
    family = data.get("family")
    if family not in _FITTERS:
        raise DataError(f"unknown model family {family!r}")
    n_classes, p = int(data["n_classes"]), int(data["n_features"])
    if n_classes < 1:
        raise DataError("a model needs at least one class")
    gbdt = family == "gbdt"
    trees = [_tree_from_dict(t, p, 1 if gbdt else n_classes) for t in data["trees"]]
    if not trees:
        raise DataError(f"a {family} document needs at least one tree")
    if not gbdt:
        return Model(family, trees, n_classes, p)
    if len(trees) % n_classes:
        raise DataError(f"gbdt trees must come in rounds of {n_classes}, one per class")
    init_scores = np.asarray(data["init_scores"], dtype=np.float64)
    if init_scores.shape != (n_classes,):
        raise DataError(f"gbdt init_scores must have {n_classes} entries")
    return Model(family, trees, n_classes, p, init_scores)


def model_from_dict(data: dict) -> Model:
    """Model from its document; a field missing or out of shape is a DataError."""
    if data.get("format") != MODEL_FORMAT:
        raise DataError("not a recognized model document")
    if data.get("version") != MODEL_VERSION:
        raise DataError(
            f"unsupported model version {data.get('version')!r}; this build reads "
            f"version {MODEL_VERSION} only, so rerun cv to rewrite the model"
        )
    try:
        return _model_from_fields(data)
    except KeyError as exc:
        raise DataError(f"model document lacks the {exc} field") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed model document: {exc}") from None


def save_model(model: Model, path: str) -> None:
    with atomic_open(path, encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle)
