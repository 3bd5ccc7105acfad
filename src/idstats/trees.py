"""Native tree family: CART decision tree on Gini gain, bootstrap random
forest, and histogram-based gradient-boosted trees with a softmax objective,
plus impurity/permutation importances and recursive feature elimination."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .parallel import ordered_map

MODEL_FORMAT = "idstats-model"
MODEL_VERSION = 1

# Gains this small are floating-point noise, not structure.
_GAIN_EPS = 1e-12


def derive_seed(*parts: int) -> int:
    """Deterministic child seed from an integer path (master seed first)."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def gini(counts: np.ndarray) -> float:
    """Gini impurity 1 − Σ (c_k/n)² of a class-count vector."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0 or np.any(counts < 0):
        raise DataError("gini needs non-negative counts with a positive total")
    shares = counts / total
    return float(1.0 - np.dot(shares, shares))


def _check_xy(X: np.ndarray, y: np.ndarray, n_classes: int | None) -> tuple:
    X = np.asarray(X, dtype=np.float64)
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
class TreeNode:
    """CART node. Internal nodes route x[feature] <= threshold to the left;
    every node carries its class distribution so any node can serve as a leaf.
    """

    n_samples: int
    impurity: float
    distribution: np.ndarray
    feature: int = -1
    threshold: float = 0.0
    left: TreeNode | None = None
    right: TreeNode | None = None
    n_features: int = -1  # set on the root only

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_split(
    X: np.ndarray,
    onehot: np.ndarray,
    idx: np.ndarray,
    features: np.ndarray,
    min_leaf: int,
    parent_impurity: float,
) -> tuple[float, int, float] | None:
    """Best (gain, feature, threshold) over midpoint candidates, or None.

    Candidates put the first s sorted rows on the left, min_leaf <= s <=
    n − min_leaf, restricted to boundaries between distinct values. The first
    (feature, lowest threshold) wins ties, so the result is deterministic.
    """
    n = idx.size
    if n - min_leaf < min_leaf:
        return None
    best: tuple[float, int, float] | None = None
    total = onehot[idx].sum(axis=0)
    for f in features:
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        cum = np.cumsum(onehot[idx[order]], axis=0)
        s = np.arange(min_leaf, n - min_leaf + 1)
        distinct = vs[s - 1] < vs[s]
        if not np.any(distinct):
            continue
        s = s[distinct]
        left = cum[s - 1]
        right = total[None, :] - left
        sizes = s.astype(np.float64)
        gini_left = 1.0 - np.sum((left / sizes[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right / (n - sizes)[:, None]) ** 2, axis=1)
        gain = parent_impurity - (sizes / n) * gini_left - ((n - sizes) / n) * gini_right
        pick = int(np.argmax(gain))
        if best is None or gain[pick] > best[0] + _GAIN_EPS:
            threshold = 0.5 * (vs[s[pick] - 1] + vs[s[pick]])
            best = (float(gain[pick]), int(f), float(threshold))
    return best


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int | None = None,
    min_leaf: int = 1,
    feature_subset: int | None = None,
    seed: int = 0,
    n_classes: int | None = None,
) -> TreeNode:
    """Greedy CART classifier on Gini gain with midpoint split candidates.

    A node becomes a leaf when it is pure, too small, at max depth, or has no
    candidate split; otherwise the best candidate is taken (a zero-gain split
    is allowed; that is required to e.g. separate XOR at depth 2). When
    feature_subset < p, each node draws that many features without
    replacement from the tree's RNG in depth-first order.

    Args:
        X: n × p float matrix.
        y: integer class ids.
        max_depth: depth cap; None = unbounded; 0 yields a single leaf.
        min_leaf: minimum rows per child.
        feature_subset: features considered per split; None = all.
        seed: RNG seed (only consumed when feature_subset < p).
        n_classes: class count; default max(y) + 1.

    Returns:
        Root TreeNode with n_features set.
    """
    X, y, n_classes = _check_xy(X, y, n_classes)
    rng = np.random.default_rng(seed)
    return _grow_tree(X, y, n_classes, max_depth, min_leaf, feature_subset, rng)


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    max_depth: int | None,
    min_leaf: int,
    feature_subset: int | None,
    rng: np.random.Generator,
) -> TreeNode:
    n, p = X.shape
    if min_leaf < 1:
        raise DataError("min_leaf must be >= 1")
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0
    m = p if feature_subset is None else min(max(int(feature_subset), 1), p)

    def node_for(idx: np.ndarray) -> TreeNode:
        counts = onehot[idx].sum(axis=0)
        return TreeNode(
            n_samples=int(idx.size),
            impurity=gini(counts),
            distribution=counts / idx.size,
        )

    root = node_for(np.arange(n))
    root.n_features = p
    # depth-first, left before right, so RNG consumption is deterministic
    stack: list[tuple[TreeNode, np.ndarray, int]] = [(root, np.arange(n), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if (
            (max_depth is not None and depth >= max_depth)
            or idx.size < 2 * min_leaf
            or node.impurity <= 0.0
        ):
            continue
        features = rng.choice(p, size=m, replace=False) if m < p else np.arange(p)
        best = _best_split(X, onehot, idx, features, min_leaf, node.impurity)
        if best is None:
            continue
        _, node.feature, node.threshold = best
        mask = X[idx, node.feature] <= node.threshold
        node.left = node_for(idx[mask])
        node.right = node_for(idx[~mask])
        stack.append((node.right, idx[~mask], depth + 1))
        stack.append((node.left, idx[mask], depth + 1))
    return root


def _tree_proba(root: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty((X.shape[0], root.distribution.size), dtype=np.float64)
    stack: list[tuple[TreeNode, np.ndarray]] = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.distribution
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


@dataclass
class ForestModel:
    """Bagged CART ensemble; predictions average the trees' leaf distributions."""

    trees: list[TreeNode]
    n_classes: int
    n_features: int
    max_features: int
    bootstrap: bool
    seed: int


def _forest_tree(shared: tuple, i: int) -> TreeNode:
    """Tree i of a forest: its bootstrap and feature draws come from (seed, i)."""
    X, y, n_classes, max_depth, min_leaf, m, bootstrap, seed = shared
    n, p = X.shape
    rng = np.random.default_rng([seed, i])
    sample = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
    tree = _grow_tree(
        X[sample], y[sample], n_classes, max_depth, min_leaf,
        m if m < p else None, rng,
    )
    tree.n_features = p
    return tree


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
) -> ForestModel:
    """Random forest: per tree, a bootstrap resample and ⌈√p⌉ features per split.

    Tree i draws from an RNG seeded by (seed, i), so results do not depend on
    build order or on ``workers``, the number of processes growing trees.
    """
    X, y, n_classes = _check_xy(X, y, n_classes)
    if n_trees < 1:
        raise DataError("n_trees must be >= 1")
    p = X.shape[1]
    if max_features == "sqrt":
        m = int(math.ceil(math.sqrt(p)))
    elif max_features is None:
        m = p
    else:
        m = min(max(int(max_features), 1), p)

    shared = (X, y, n_classes, max_depth, min_leaf, m, bootstrap, seed)
    trees = ordered_map(_forest_tree, range(n_trees), shared, workers=workers)
    return ForestModel(
        trees=trees,
        n_classes=n_classes,
        n_features=p,
        max_features=m,
        bootstrap=bootstrap,
        seed=seed,
    )


@dataclass
class MajorityModel:
    """Constant predictor emitting the training class priors for every row."""

    distribution: np.ndarray
    n_features: int


def fit_majority(
    X: np.ndarray, y: np.ndarray, n_classes: int | None = None, seed: int = 0
) -> MajorityModel:
    X, y, n_classes = _check_xy(X, y, n_classes)
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    return MajorityModel(distribution=counts / counts.sum(), n_features=X.shape[1])


@dataclass
class _GbdtNode:
    """Regression-tree node over binned features; value is the shrunk leaf step."""

    n_samples: int
    value: float
    feature: int = -1
    bin_edge: int = -1
    threshold: float = 0.0
    gain: float = 0.0
    left: _GbdtNode | None = None
    right: _GbdtNode | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class GbdtModel:
    """Gradient-boosted trees: rounds × classes regression trees on histograms."""

    trees: list[list[_GbdtNode]]
    init_scores: np.ndarray
    learning_rate: float
    bin_edges: list[np.ndarray]
    n_classes: int
    n_features: int
    train_loss: list[float]
    seed: int


def _softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _log_loss(proba: np.ndarray, y: np.ndarray) -> float:
    picked = proba[np.arange(y.size), y]
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))


def _quantile_bin_edges(col: np.ndarray, n_bins: int) -> np.ndarray:
    """Strictly increasing interior edges from the column's quantiles.

    Edges are order statistics (lower quantiles), so binning commutes with
    any strictly increasing transform of the column.
    """
    qs = np.arange(1, n_bins) / n_bins
    return np.unique(np.quantile(col, qs, method="lower"))


def _bin_codes(X: np.ndarray, edges: list[np.ndarray]) -> np.ndarray:
    codes = np.empty(X.shape, dtype=np.int32)
    for f, e in enumerate(edges):
        # code <= j  <=>  x <= edges[j]
        codes[:, f] = np.searchsorted(e, X[:, f], side="left")
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
) -> tuple[_GbdtNode, np.ndarray]:
    """One Newton regression tree on gradient/hessian histograms.

    Returns the tree and the per-sample leaf values (already shrunk by the
    learning rate), so training can update scores without re-routing.
    """
    n, p = codes.shape
    values = np.empty(n, dtype=np.float64)

    def node_for(idx: np.ndarray) -> tuple[_GbdtNode, float, float]:
        sum_g = float(g[idx].sum())
        sum_h = float(h[idx].sum())
        step = -learning_rate * sum_g / (sum_h + lambda_reg)
        return _GbdtNode(n_samples=int(idx.size), value=step), sum_g, sum_h

    root, _, _ = node_for(np.arange(n))
    stack: list[tuple[_GbdtNode, np.ndarray, int]] = [(root, np.arange(n), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if (max_depth is not None and depth >= max_depth) or idx.size < 2:
            values[idx] = node.value
            continue
        total_g = float(g[idx].sum())
        total_h = float(h[idx].sum())
        base_score = total_g * total_g / (total_h + lambda_reg)
        best_gain = 0.0
        best = None  # (feature, edge index)
        for f in range(p):
            nb = edges[f].size + 1
            if nb < 2:
                continue
            hist_g = np.bincount(codes[idx, f], weights=g[idx], minlength=nb)
            hist_h = np.bincount(codes[idx, f], weights=h[idx], minlength=nb)
            cg = np.cumsum(hist_g)[:-1]
            ch = np.cumsum(hist_h)[:-1]
            valid = (ch >= min_child_weight) & (total_h - ch >= min_child_weight)
            if not np.any(valid):
                continue
            gain = np.where(
                valid,
                cg * cg / (ch + lambda_reg)
                + (total_g - cg) ** 2 / (total_h - ch + lambda_reg)
                - base_score,
                -np.inf,
            )
            pick = int(np.argmax(gain))
            if gain[pick] > best_gain + _GAIN_EPS:
                best_gain = float(gain[pick])
                best = (f, pick)
        if best is None:
            values[idx] = node.value
            continue
        f, j = best
        node.feature, node.bin_edge = f, j
        node.threshold = float(edges[f][j])
        node.gain = best_gain
        mask = codes[idx, f] <= j
        left, _, _ = node_for(idx[mask])
        right, _, _ = node_for(idx[~mask])
        node.left, node.right = left, right
        stack.append((right, idx[~mask], depth + 1))
        stack.append((left, idx[mask], depth + 1))
    return root, values


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
) -> GbdtModel:
    """Multiclass softmax GBDT over quantile-binned features.

    Per round, one regression tree per class fits the Newton statistics
    g = p_k − 1{y=k}, h = p_k(1−p_k); scores start at the log class priors.
    ``train_loss`` records the training log-loss before any trees and after
    each round (length rounds + 1). The fit is deterministic; ``seed`` is kept
    for interface symmetry with the other families.

    Args:
        X: n × p float matrix.
        y: integer class ids.
        rounds: boosting rounds, >= 1.
        learning_rate: shrinkage applied to every leaf value.
        max_depth: per-tree depth cap (None = unbounded).
        n_bins: histogram bins per feature (quantile bins, <= 255 by default).
        lambda_reg: L2 regularization added to hessian denominators.
        min_child_weight: minimum child hessian sum for a valid split.
    """
    X, y, n_classes = _check_xy(X, y, n_classes)
    if rounds < 1:
        raise DataError("rounds must be >= 1")
    if n_bins < 2:
        raise DataError("n_bins must be >= 2")
    n, p = X.shape

    edges = [_quantile_bin_edges(X[:, f], n_bins) for f in range(p)]
    codes = _bin_codes(X, edges)
    priors = np.bincount(y, minlength=n_classes).astype(np.float64) / n
    init_scores = np.log(np.maximum(priors, 1e-12))
    scores = np.tile(init_scores, (n, 1))
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0

    trees: list[list[_GbdtNode]] = []
    losses: list[float] = []
    for _ in range(rounds):
        proba = _softmax(scores)
        losses.append(_log_loss(proba, y))
        grad = proba - onehot
        hess = proba * (1.0 - proba)
        round_trees: list[_GbdtNode] = []
        for k in range(n_classes):
            tree, leaf_values = _fit_hist_tree(
                codes, edges, grad[:, k], hess[:, k],
                learning_rate, max_depth, lambda_reg, min_child_weight,
            )
            scores[:, k] += leaf_values
            round_trees.append(tree)
        trees.append(round_trees)
    losses.append(_log_loss(_softmax(scores), y))
    return GbdtModel(
        trees=trees,
        init_scores=init_scores,
        learning_rate=learning_rate,
        bin_edges=edges,
        n_classes=n_classes,
        n_features=p,
        train_loss=losses,
        seed=seed,
    )


def _gbdt_tree_values(root: _GbdtNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.float64)
    stack: list[tuple[_GbdtNode, np.ndarray]] = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


def predict_proba(model, X: np.ndarray) -> np.ndarray:
    """Class-probability matrix (rows sum to 1) for any fitted family."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("X must be a 2-D matrix")
    expected = getattr(model, "n_features", -1)
    if expected >= 0 and X.shape[1] != expected:
        raise DataError(
            f"feature count mismatch: model expects {expected}, got {X.shape[1]}"
        )
    if isinstance(model, TreeNode):
        return _tree_proba(model, X)
    if isinstance(model, ForestModel):
        acc = np.zeros((X.shape[0], model.n_classes), dtype=np.float64)
        for tree in model.trees:
            acc += _tree_proba(tree, X)
        return acc / len(model.trees)
    if isinstance(model, GbdtModel):
        scores = np.tile(model.init_scores, (X.shape[0], 1))
        for round_trees in model.trees:
            for k, tree in enumerate(round_trees):
                scores[:, k] += _gbdt_tree_values(tree, X)
        return _softmax(scores)
    if isinstance(model, MajorityModel):
        return np.tile(model.distribution, (X.shape[0], 1))
    raise DataError(f"unknown model type {type(model).__name__}")


def predict_labels(model, X: np.ndarray) -> np.ndarray:
    return np.argmax(predict_proba(model, X), axis=1)


def _tree_impurity_decrease(root: TreeNode, out: np.ndarray) -> None:
    n_root = root.n_samples
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        decrease = (
            node.n_samples * node.impurity
            - node.left.n_samples * node.left.impurity
            - node.right.n_samples * node.right.impurity
        ) / n_root
        out[node.feature] += decrease
        stack.append(node.left)
        stack.append(node.right)


def _gbdt_gain_sum(model: GbdtModel, out: np.ndarray) -> None:
    for round_trees in model.trees:
        for root in round_trees:
            stack = [root]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    continue
                out[node.feature] += node.gain
                stack.append(node.left)
                stack.append(node.right)


def impurity_importance(model) -> np.ndarray:
    """Per-feature impurity (trees/forest) or split-gain (GBDT) reduction,
    normalized to sum 1; all-zero when the model contains no split."""
    if isinstance(model, TreeNode):
        out = np.zeros(model.n_features, dtype=np.float64)
        _tree_impurity_decrease(model, out)
    elif isinstance(model, ForestModel):
        out = np.zeros(model.n_features, dtype=np.float64)
        for tree in model.trees:
            _tree_impurity_decrease(tree, out)
    elif isinstance(model, GbdtModel):
        out = np.zeros(model.n_features, dtype=np.float64)
        _gbdt_gain_sum(model, out)
    else:
        raise DataError(f"unknown model type {type(model).__name__}")
    total = out.sum()
    return out / total if total > 0 else out


def permutation_importance(
    model,
    X: np.ndarray,
    y: np.ndarray,
    metric=None,
    seed: int = 0,
    per_class: bool = False,
    repeats: int = 5,
) -> np.ndarray:
    """Mean metric drop when one feature column is shuffled.

    Args:
        model: fitted model accepted by predict_proba.
        X, y: held-out data.
        metric: callable(y, proba) -> float; default macro F1.
        seed: master seed; shuffle r of feature j uses child seed (seed, j, r).
        per_class: also report per-class one-vs-rest F1 drops.
        repeats: shuffles averaged per feature.

    Returns:
        Length-p vector, or an (p, n_classes) matrix when per_class is set.
    """
    from .evaluation import macro_f1_from_proba, ovr_f1_from_proba

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if metric is None:
        metric = macro_f1_from_proba
    n, p = X.shape
    base_proba = predict_proba(model, X)
    if per_class:
        base = ovr_f1_from_proba(y, base_proba)
        drops = np.zeros((p, base.size), dtype=np.float64)
    else:
        base = metric(y, base_proba)
        drops = np.zeros(p, dtype=np.float64)
    for j in range(p):
        for r in range(repeats):
            rng = np.random.default_rng([seed, j, r])
            shuffled = X.copy()
            shuffled[:, j] = shuffled[rng.permutation(n), j]
            proba = predict_proba(model, shuffled)
            if per_class:
                drops[j] += base - ovr_f1_from_proba(y, proba)
            else:
                drops[j] += base - metric(y, proba)
    return drops / repeats


@dataclass
class ModelSpec:
    """A model family plus its fit parameters, resolvable via fit_model."""

    family: str
    params: dict = field(default_factory=dict)

    VALID_FAMILIES = ("tree", "forest", "gbdt", "majority")

    def __post_init__(self) -> None:
        if self.family not in self.VALID_FAMILIES:
            raise DataError(f"unknown model family {self.family!r}")


_FITTERS = {
    "tree": fit_tree,
    "forest": fit_forest,
    "gbdt": fit_gbdt,
    "majority": fit_majority,
}


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


def rfe(
    X: np.ndarray,
    y: np.ndarray,
    model_spec: ModelSpec | None = None,
    keep_threshold: float = 0.025,
    step: int = 1,
    feature_names: list[str] | None = None,
    n_classes: int | None = None,
    workers: int = 1,
) -> RfeResult:
    """Recursive feature elimination on refit impurity importances.

    While more than one feature remains and the minimum importance falls
    below keep_threshold, the ``step`` lowest-importance features are dropped
    (ties drop the earlier column first) and a trace round is recorded. The
    selection is every surviving feature whose importance in the final fit
    is >= keep_threshold; keep_threshold = 0 therefore selects everything
    without dropping.

    Args:
        X: n × p float matrix.
        y: integer class ids.
        model_spec: importance model; default a 30-tree random forest.
        keep_threshold: minimum importance share to keep a feature.
        step: features dropped per round.
        feature_names: names for the columns; default "f0".."f{p-1}".
        workers: processes per refit (a forest grows its trees in parallel).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 2:
        raise DataError("rfe needs a 2-D matrix with at least 2 features")
    if step < 1:
        raise DataError("step must be >= 1")
    if model_spec is None:
        model_spec = ModelSpec("forest", {"n_trees": 30})
    names = (
        [f"f{j}" for j in range(X.shape[1])] if feature_names is None else list(feature_names)
    )
    if len(names) != X.shape[1]:
        raise DataError("feature_names length must match X columns")

    current = list(range(X.shape[1]))
    trace: list[RfeRound] = []
    while True:
        model = fit_model(
            model_spec, X[:, current], y, n_classes=n_classes, workers=workers
        )
        imp = impurity_importance(model)
        snapshot = {names[c]: float(v) for c, v in zip(current, imp)}
        if len(current) == 1 or float(imp.min()) >= keep_threshold:
            selected = [
                names[c] for c, v in zip(current, imp) if float(v) >= keep_threshold
            ]
            return RfeResult(selected=selected, trace=trace, final_importances=snapshot)
        n_drop = min(step, len(current) - 1)
        drop_local = np.argsort(imp, kind="stable")[:n_drop]
        dropped = [names[current[j]] for j in sorted(drop_local)]
        trace.append(RfeRound(index=len(trace), importances=snapshot, dropped=dropped))
        current = [c for j, c in enumerate(current) if j not in set(drop_local)]


def _tree_to_dict(node: TreeNode) -> dict:
    out: dict = {
        "n": node.n_samples,
        "impurity": node.impurity,
        "dist": node.distribution.tolist(),
    }
    if not node.is_leaf:
        out["feature"] = node.feature
        out["threshold"] = node.threshold
        out["left"] = _tree_to_dict(node.left)
        out["right"] = _tree_to_dict(node.right)
    return out


def _tree_from_dict(data: dict) -> TreeNode:
    node = TreeNode(
        n_samples=int(data["n"]),
        impurity=float(data["impurity"]),
        distribution=np.asarray(data["dist"], dtype=np.float64),
    )
    if "feature" in data:
        node.feature = int(data["feature"])
        node.threshold = float(data["threshold"])
        node.left = _tree_from_dict(data["left"])
        node.right = _tree_from_dict(data["right"])
    return node


def _gbdt_node_to_dict(node: _GbdtNode) -> dict:
    out: dict = {"n": node.n_samples, "value": node.value}
    if not node.is_leaf:
        out.update(
            feature=node.feature,
            bin_edge=node.bin_edge,
            threshold=node.threshold,
            gain=node.gain,
            left=_gbdt_node_to_dict(node.left),
            right=_gbdt_node_to_dict(node.right),
        )
    return out


def _gbdt_node_from_dict(data: dict) -> _GbdtNode:
    node = _GbdtNode(n_samples=int(data["n"]), value=float(data["value"]))
    if "feature" in data:
        node.feature = int(data["feature"])
        node.bin_edge = int(data["bin_edge"])
        node.threshold = float(data["threshold"])
        node.gain = float(data["gain"])
        node.left = _gbdt_node_from_dict(data["left"])
        node.right = _gbdt_node_from_dict(data["right"])
    return node


def model_to_dict(model) -> dict:
    """Self-describing JSON form with a format/version tag."""
    head = {"format": MODEL_FORMAT, "version": MODEL_VERSION}
    if isinstance(model, TreeNode):
        return head | {
            "family": "tree",
            "n_features": model.n_features,
            "root": _tree_to_dict(model),
        }
    if isinstance(model, ForestModel):
        return head | {
            "family": "forest",
            "n_classes": model.n_classes,
            "n_features": model.n_features,
            "max_features": model.max_features,
            "bootstrap": model.bootstrap,
            "seed": model.seed,
            "trees": [_tree_to_dict(t) for t in model.trees],
        }
    if isinstance(model, GbdtModel):
        return head | {
            "family": "gbdt",
            "n_classes": model.n_classes,
            "n_features": model.n_features,
            "learning_rate": model.learning_rate,
            "init_scores": model.init_scores.tolist(),
            "bin_edges": [e.tolist() for e in model.bin_edges],
            "train_loss": model.train_loss,
            "seed": model.seed,
            "trees": [[_gbdt_node_to_dict(t) for t in row] for row in model.trees],
        }
    if isinstance(model, MajorityModel):
        return head | {
            "family": "majority",
            "n_features": model.n_features,
            "distribution": model.distribution.tolist(),
        }
    raise DataError(f"unknown model type {type(model).__name__}")


def model_from_dict(data: dict):
    if data.get("format") != MODEL_FORMAT:
        raise DataError("not a recognized model document")
    if data.get("version") != MODEL_VERSION:
        raise DataError(f"unsupported model version {data.get('version')!r}")
    family = data.get("family")
    if family == "tree":
        root = _tree_from_dict(data["root"])
        root.n_features = int(data["n_features"])
        return root
    if family == "forest":
        trees = [_tree_from_dict(t) for t in data["trees"]]
        for t in trees:
            t.n_features = int(data["n_features"])
        return ForestModel(
            trees=trees,
            n_classes=int(data["n_classes"]),
            n_features=int(data["n_features"]),
            max_features=int(data["max_features"]),
            bootstrap=bool(data["bootstrap"]),
            seed=int(data["seed"]),
        )
    if family == "gbdt":
        return GbdtModel(
            trees=[[_gbdt_node_from_dict(t) for t in row] for row in data["trees"]],
            init_scores=np.asarray(data["init_scores"], dtype=np.float64),
            learning_rate=float(data["learning_rate"]),
            bin_edges=[np.asarray(e, dtype=np.float64) for e in data["bin_edges"]],
            n_classes=int(data["n_classes"]),
            n_features=int(data["n_features"]),
            train_loss=[float(v) for v in data["train_loss"]],
            seed=int(data["seed"]),
        )
    if family == "majority":
        return MajorityModel(
            distribution=np.asarray(data["distribution"], dtype=np.float64),
            n_features=int(data["n_features"]),
        )
    raise DataError(f"unknown model family {family!r}")


def save_model(model, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle)


def load_model(path: str):
    with open(path, encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))
