"""CART, random forest, gradient boosting, importances, RFE, serialization."""

from __future__ import annotations

import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from idstats import trees
from idstats.errors import ConfigError, DataError
from idstats.trees import (
    Model,
    ModelSpec,
    RfeConfig,
    check_grid,
    derive_seed,
    fit_forest,
    fit_gbdt,
    fit_majority,
    fit_model,
    fit_tree,
    impurity_importance,
    model_from_dict,
    model_to_dict,
    predict_labels,
    predict_proba,
    rfe,
    save_model,
    truncate,
)


def two_blobs(n_per=100, shift=4.0, p=3, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n_per, p))
    b = rng.normal(shift, 1.0, (n_per, p))
    X = np.vstack([a, b])
    y = np.repeat([0, 1], n_per)
    return X, y


def test_pure_input_yields_single_leaf():
    X = np.arange(12.0).reshape(6, 2)
    y = np.ones(6, dtype=np.int64)
    tree = fit_tree(X, y, n_classes=2).trees[0]
    assert tree.feature.tolist() == [-1]
    assert tree.value.tolist() == [[0.0, 1.0]]


def test_xor_separates_at_depth_two():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    tree = fit_tree(X, y, max_depth=2)
    assert predict_labels(tree, X).tolist() == [0, 1, 1, 0]
    # depth-1 cannot: every single split leaves mixed leaves
    stump = fit_tree(X, y, max_depth=1)
    assert (predict_labels(stump, X) == y).mean() <= 0.75


def test_split_threshold_is_midpoint_and_right_edge_goes_left():
    X = np.array([[0.0], [1.0]])
    y = np.array([0, 1])
    tree = fit_tree(X, y)
    assert tree.trees[0].threshold[0] == pytest.approx(0.5)
    # x <= threshold routes left
    proba = predict_proba(tree, np.array([[0.5], [0.500001]]))
    assert proba[0].tolist() == [1.0, 0.0]
    assert proba[1].tolist() == [0.0, 1.0]


def test_max_depth_and_min_leaf_are_respected():
    X, y = two_blobs(seed=1)

    def depth_of(tree, i=0):
        if tree.feature[i] < 0:
            return 0
        return 1 + max(depth_of(tree, tree.left[i]), depth_of(tree, tree.right[i]))

    def min_leaf_size(tree):
        return int(tree.n_samples[tree.feature < 0].min())

    assert depth_of(fit_tree(X, y, max_depth=3).trees[0]) <= 3
    assert min_leaf_size(fit_tree(X, y, min_leaf=20).trees[0]) >= 20


def test_tree_separates_shifted_gaussians():
    X, y = two_blobs(seed=2)
    tree = fit_tree(X, y, max_depth=6)
    assert (predict_labels(tree, X) == y).mean() >= 0.95


def test_forest_beats_chance_and_probas_normalize():
    X, y = two_blobs(n_per=150, shift=2.0, seed=4)
    forest = fit_forest(X, y, n_trees=30, seed=0)
    acc = (predict_labels(forest, X) == y).mean()
    assert acc >= 0.95
    proba = predict_proba(forest, X)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    assert proba.min() >= 0.0


@pytest.mark.parametrize("min_leaf", [1, 5])
@pytest.mark.parametrize("max_depth", [None, 0, 3])
def test_single_tree_forest_without_bootstrap_equals_plain_tree(max_depth, min_leaf):
    # a tree that searches every feature and does not bootstrap draws nothing
    # from its RNG, so neither the seed nor the family changes a bit
    X, y = two_blobs(n_per=80, shift=2.5, seed=6)
    forest = fit_forest(
        X, y, n_trees=1, max_depth=max_depth, min_leaf=min_leaf, max_features=None,
        bootstrap=False, seed=11,
    )
    tree = fit_tree(X, y, max_depth=max_depth, min_leaf=min_leaf, seed=4)
    assert json.dumps(model_to_dict(replace(forest, family="tree"))) == json.dumps(
        model_to_dict(tree)
    )
    assert predict_proba(forest, X).tobytes() == predict_proba(tree, X).tobytes()


def test_forest_is_order_independent_per_tree_seed():
    X, y = two_blobs(n_per=60, seed=7)
    f1 = fit_forest(X, y, n_trees=8, seed=2)
    f2 = fit_forest(X, y, n_trees=8, seed=2)
    assert np.array_equal(predict_proba(f1, X), predict_proba(f2, X))
    f3 = fit_forest(X, y, n_trees=8, seed=5)
    assert not np.array_equal(predict_proba(f1, X), predict_proba(f3, X))


def test_a_forest_tree_allocates_for_the_features_it_searches_not_for_all():
    # each node sorts only its drawn features, so at a fixed max_features a
    # tree's memory does not grow with the width of X
    rng = np.random.default_rng(12)
    y = rng.integers(0, 3, size=20_000)
    wide = rng.normal(0.0, 1.0, (20_000, 32)) + 0.3 * y[:, None]
    peaks = []
    for p in (8, 32):
        X = np.ascontiguousarray(wide[:, :p])
        tracemalloc.start()
        try:
            fit_forest(X, y, n_trees=1, max_depth=4, max_features=3, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_majority_model_is_constant_priors():
    X = np.zeros((10, 2))
    y = np.array([0] * 7 + [1] * 3)
    m = fit_majority(X, y)
    proba = predict_proba(m, X)
    assert np.allclose(proba, [0.7, 0.3])
    assert predict_labels(m, X).tolist() == [0] * 10


def test_majority_is_the_depth_zero_tree():
    X, y = _oracle_data(n=90, n_classes=4, seed=13)
    majority = fit_majority(X, y, n_classes=5)
    stump = fit_tree(X, y, max_depth=0, n_classes=5)
    assert majority.family == "majority"
    assert json.dumps(model_to_dict(replace(majority, family="tree"))) == json.dumps(
        model_to_dict(stump)
    )


def _train_losses(model, X, y):
    """A GBDT's training log-loss before any round and after each one: the
    log-loss of the predictions of the model cut to its first r rounds."""
    losses = []
    for r in range(len(model.trees) // model.n_classes + 1):
        picked = predict_proba(truncate(model, r), X)[np.arange(y.size), y]
        losses.append(float(-np.mean(np.log(np.maximum(picked, 1e-300)))))
    return np.array(losses)


def test_gbdt_loss_starts_at_prior_entropy_and_never_increases():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(250, 4))
    y = rng.integers(0, 5, size=250)
    # balanced-ish 5-class problem: first loss is close to ln 5
    model = fit_gbdt(X, y, rounds=12, learning_rate=0.3, max_depth=3, seed=0)
    losses = _train_losses(model, X, y)
    assert losses.size == 13
    assert losses[0] == pytest.approx(
        -np.mean(np.log(np.bincount(y, minlength=5)[y] / y.size)), abs=1e-9
    )
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-12)


def test_gbdt_exact_prior_loss_on_balanced_classes():
    X = np.random.default_rng(9).normal(size=(100, 2))
    y = np.repeat(np.arange(5), 20)
    model = fit_gbdt(X, y, rounds=1, seed=0)
    assert _train_losses(model, X, y)[0] == pytest.approx(math.log(5.0), abs=1e-12)


def test_gbdt_classifies_shifted_gaussians():
    X, y = two_blobs(n_per=150, shift=2.0, seed=10)
    model = fit_gbdt(X, y, rounds=30, learning_rate=0.2, max_depth=3, seed=0)
    assert (predict_labels(model, X) == y).mean() >= 0.95
    proba = predict_proba(model, X)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)


def test_gbdt_predictions_invariant_under_monotone_transform():
    X, y = two_blobs(n_per=120, shift=1.5, seed=12)
    X = X - X.min() + 0.1  # keep positive so log/odd powers stay monotone
    model_raw = fit_gbdt(X, y, rounds=10, max_depth=3, seed=4)
    for transform in (np.log, np.sqrt, lambda v: v**3):
        Xt = transform(X)
        model_t = fit_gbdt(Xt, y, rounds=10, max_depth=3, seed=4)
        assert np.array_equal(
            predict_proba(model_raw, X), predict_proba(model_t, Xt)
        ), transform
    model_log = fit_gbdt(np.log(X), y, rounds=10, max_depth=3, seed=4)
    assert np.array_equal(_train_losses(model_raw, X, y), _train_losses(model_log, np.log(X), y))


@pytest.mark.parametrize("family, size_key", [("forest", "n_trees"), ("gbdt", "rounds")])
def test_a_cut_of_the_largest_fit_equals_a_fresh_fit_at_each_smaller_size(family, size_key):
    # grid search fits a group's largest size once and scores every size on
    # its cut; three classes make a GBDT round three trees
    assert trees.SIZE_KEY[family] == size_key
    X, y = _oracle_data(n=150, p=5, n_classes=3, seed=23)
    params = {size_key: 6, "max_depth": 3}
    largest = fit_model(ModelSpec(family, params), X, y, seed=5)
    for n in range(1, 7):
        fresh = fit_model(ModelSpec(family, params | {size_key: n}), X, y, seed=5)
        cut = truncate(largest, n)
        assert json.dumps(model_to_dict(cut)) == json.dumps(model_to_dict(fresh)), n
        assert predict_proba(cut, X).tobytes() == predict_proba(fresh, X).tobytes(), n


def test_predict_rejects_feature_count_mismatch():
    X, y = two_blobs(n_per=30, seed=13)
    for model in (
        fit_tree(X, y),
        fit_forest(X, y, n_trees=3),
        fit_gbdt(X, y, rounds=2),
        fit_majority(X, y),
    ):
        with pytest.raises(DataError, match="mismatch"):
            predict_proba(model, np.zeros((4, 7)))


def test_impurity_importance_ranks_signal_over_noise():
    rng = np.random.default_rng(14)
    n = 400
    signal = np.concatenate([rng.normal(0, 1, n // 2), rng.normal(3, 1, n // 2)])
    noise = rng.normal(size=(n, 3))
    X = np.column_stack([noise[:, 0], signal, noise[:, 1], noise[:, 2]])
    y = np.repeat([0, 1], n // 2)
    for model in (
        fit_tree(X, y, max_depth=5),
        fit_forest(X, y, n_trees=20, seed=1),
        fit_gbdt(X, y, rounds=10, max_depth=3, seed=1),
    ):
        imp = impurity_importance(model)
        assert imp.shape == (4,)
        assert imp.sum() == pytest.approx(1.0)
        assert np.argmax(imp) == 1
        assert imp[1] > 0.5


def test_importance_of_leaf_only_model_is_zero_vector():
    X = np.zeros((8, 3))
    y = np.ones(8, dtype=np.int64)
    for model in (fit_tree(X, y, n_classes=2), fit_majority(X, np.arange(8) % 2)):
        assert impurity_importance(model).tolist() == [0.0, 0.0, 0.0]


def test_rfe_keep_threshold_zero_drops_nothing():
    X, y = two_blobs(n_per=60, seed=16)
    result = rfe(X, y, RfeConfig(keep_threshold=0.0, n_trees=10), seed=0)
    assert result.selected == ["f0", "f1", "f2"]
    assert result.trace == []  # no elimination rounds at all


def test_an_rfe_round_peaks_below_two_copies_of_the_matrix():
    # the first fit takes X itself, not a fancy-indexed copy copied again
    rng = np.random.default_rng(13)
    X = rng.normal(size=(5000, 64))
    y = (X[:, 0] > 0).astype(np.int64)
    tracemalloc.start()
    try:
        rfe(X, y, RfeConfig(keep_threshold=0.0, n_trees=1, max_depth=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * X.nbytes, peak / X.nbytes


def test_rfe_by_default_ranks_on_a_30_tree_forest():
    X, y = two_blobs(n_per=60, seed=16)
    result = rfe(X, y)
    assert result.trace == []
    expected = impurity_importance(fit_forest(X, y, n_trees=30))
    assert np.array(list(result.final_importances.values())).tobytes() == expected.tobytes()


def test_rfe_eliminates_noise_features():
    rng = np.random.default_rng(17)
    n = 300
    strong = np.concatenate([rng.normal(0, 0.3, n // 2), rng.normal(4, 0.3, n // 2)])
    weak = np.concatenate([rng.normal(0, 1, n // 2), rng.normal(1.0, 1, n // 2)])
    X = np.column_stack([strong, weak, rng.normal(size=n), rng.normal(size=n)])
    y = np.repeat([0, 1], n // 2)
    names = ["strong", "weak", "noise1", "noise2"]
    result = rfe(
        X, y, RfeConfig(keep_threshold=0.05, n_trees=20), seed=3, feature_names=names,
    )
    assert "strong" in result.selected
    assert "noise1" not in result.selected
    assert "noise2" not in result.selected
    # trace drops one feature per round, lowest importance first
    for r in result.trace[:-1]:
        assert len(r.dropped) == 1
    assert set(result.final_importances) == set(result.selected) or set(
        result.final_importances
    ) >= set(result.selected)


def test_fit_model_dispatch_and_validation():
    X, y = two_blobs(n_per=40, seed=18)
    for family in ("tree", "forest", "gbdt", "majority"):
        spec = ModelSpec(family, {"seed": 1} if family != "majority" else {})
        model = fit_model(spec, X, y)
        assert predict_proba(model, X).shape == (80, 2)
    with pytest.raises(DataError):
        ModelSpec("svm", {})
    # params seed wins over the call-site seed
    m1 = fit_model(ModelSpec("forest", {"n_trees": 5, "seed": 7}), X, y, seed=99)
    m2 = fit_forest(X, y, n_trees=5, seed=7)
    assert np.array_equal(predict_proba(m1, X), predict_proba(m2, X))


def test_serialization_round_trip_preserves_predictions(tmp_path):
    X, y = two_blobs(n_per=50, shift=2.0, seed=19)
    Xq = np.random.default_rng(20).normal(1.0, 2.0, size=(30, 3))
    models = [
        fit_tree(X, y, max_depth=4),
        fit_forest(X, y, n_trees=7, seed=2),
        fit_gbdt(X, y, rounds=6, max_depth=3, seed=2),
        fit_majority(X, y),
    ]
    for model in models:
        doc = model_to_dict(model)
        assert doc["format"] == "idstats-model"
        assert doc["version"] == 4
        assert "train_loss" not in doc
        expected = predict_proba(model, Xq).tobytes()
        assert predict_proba(model_from_dict(doc), Xq).tobytes() == expected
        path = tmp_path / f"{doc['family']}.json"
        save_model(model, str(path))
        loaded = model_from_dict(json.loads(path.read_text(encoding="utf-8")))
        assert predict_proba(loaded, Xq).tobytes() == expected
        assert model_to_dict(loaded) == doc


def test_deserialization_rejects_foreign_documents():
    with pytest.raises(DataError, match="not a recognized model document"):
        model_from_dict({"family": "tree"})
    with pytest.raises(DataError, match="version"):
        model_from_dict({"format": "idstats-model", "version": 99, "family": "tree"})


@pytest.mark.parametrize("version", [1, 2])
def test_deserialization_rejects_versions_before_3(version):
    # version 1 stored each tree as nested node objects, version 2 one
    # container per family
    doc = {
        "format": "idstats-model", "version": version, "family": "tree", "n_features": 1,
        "root": {"n": 2, "impurity": 0.0, "dist": [1.0, 0.0]},
    }
    with pytest.raises(DataError, match=f"version {version}.*rerun cv"):
        model_from_dict(doc)


def test_deserialization_rejects_a_version_3_document():
    # version 3 also stored a GBDT's per-round training log-loss, which the
    # trees and init_scores give back (see _train_losses)
    doc = _fitted_doc("gbdt") | {"version": 3, "train_loss": [0.69, 0.5, 0.4]}
    with pytest.raises(DataError, match="version 3.*rerun cv"):
        model_from_dict(doc)


def _fitted_doc(family):
    X, y = two_blobs(n_per=30, shift=2.0, seed=21)
    return model_to_dict({
        "tree": lambda: fit_tree(X, y, max_depth=3),
        "forest": lambda: fit_forest(X, y, n_trees=2, max_depth=3, seed=1),
        "gbdt": lambda: fit_gbdt(X, y, rounds=2, max_depth=3),
        "majority": lambda: fit_majority(X, y),
    }[family]())


def _corrupt(family, edit):
    """A fitted model's document with ``edit`` applied to its first tree."""
    doc = _fitted_doc(family)
    first = doc["trees"][0]
    assert first["feature"][0] >= 0  # the root splits
    edit(first)
    return doc


def _self_loop(tree):
    tree["left"][0] = 0


def _child_before_parent(tree):
    inner = [i for i, f in enumerate(tree["feature"]) if f >= 0]
    tree["right"][inner[-1]] = inner[-1] - 1


def _child_out_of_range(tree):
    tree["right"][0] = len(tree["feature"])


def _feature_out_of_range(tree):
    tree["feature"][0] = 3


def _ragged_value_row(tree):
    tree["value"][1] = tree["value"][1] + [0.0]


def _wide_value_rows(tree):
    tree["value"] = [row + row for row in tree["value"]]


def _short_array(tree):
    tree["gain"].pop()


@pytest.mark.parametrize("family", ["tree", "forest", "gbdt"])
@pytest.mark.parametrize(
    "edit",
    [_self_loop, _child_before_parent, _child_out_of_range, _feature_out_of_range,
     _ragged_value_row, _wide_value_rows, _short_array],
)
def test_deserialization_rejects_trees_a_descent_could_not_finish(family, edit):
    # each of these raises at load time, before any descent could loop or
    # index out of bounds
    with pytest.raises(DataError):
        model_from_dict(_corrupt(family, edit))


def _wide_round(doc):
    doc["trees"].append(doc["trees"][0])


def _long_init_scores(doc):
    doc["init_scores"].append(0.0)


def _no_trees(doc):
    doc["trees"] = []


def _unparsable_count(doc):
    doc["n_features"] = "three"


def _no_classes(doc):
    doc["n_classes"] = 0


@pytest.mark.parametrize(
    "family, edit, message",
    [
        ("gbdt", _wide_round, "round"),
        ("gbdt", _long_init_scores, "init_scores"),
        ("forest", _no_trees, "at least one tree"),
        ("forest", _unparsable_count, "malformed"),
        ("tree", _no_trees, "at least one tree"),
        ("gbdt", _no_trees, "at least one tree"),
        ("majority", _no_trees, "at least one tree"),
        ("gbdt", _no_classes, "at least one class"),
    ],
)
def test_deserialization_rejects_model_fields_out_of_shape(family, edit, message):
    doc = _fitted_doc(family)
    edit(doc)
    with pytest.raises(DataError, match=message):
        model_from_dict(doc)


@pytest.mark.parametrize("family", ["tree", "forest", "gbdt", "majority"])
def test_deserialization_rejects_a_document_missing_any_key(family):
    doc = _fitted_doc(family)
    for key in set(doc) - {"format", "version", "family"}:
        broken = {k: v for k, v in doc.items() if k != key}
        with pytest.raises(DataError, match="lacks"):
            model_from_dict(broken)


def test_derive_seed_is_deterministic_and_path_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(0) != derive_seed(1)
    assert 0 <= derive_seed(123456789) < 2**32


# --- the plain per-node-sort engine, kept as the oracle of the native one ---
#
# These growers work on the expanded sample (a bootstrap row once per draw):
# each node stably argsorts every drawn feature and sums one-hot class rows,
# and a GBDT node makes two bincounts per feature. They keep their nodes as
# dicts and number them as the engine does: a split appends both children.
# The engine must grow bit-identical trees.


def _reference_tree(nodes):
    """trees.Tree from the reference's node dicts, in id order."""

    def column(key, dtype):
        return np.array([node[key] for node in nodes], dtype=dtype)

    return trees.Tree(
        feature=column("feature", np.intp),
        threshold=column("threshold", np.float64),
        left=column("left", np.intp),
        right=column("right", np.intp),
        n_samples=column("n", np.int64),
        value=column("value", np.float64).reshape(len(nodes), -1),
        gain=column("gain", np.float64),
    )


def _gini(counts):
    """Gini impurity 1 − Σ (c_k/n)² of a class-count vector."""
    shares = counts / counts.sum()
    return float(1.0 - np.dot(shares, shares))


def _reference_leaf(n, value, **extra):
    return dict(n=n, value=value, feature=-1, threshold=0.0, left=-1, right=-1, gain=0.0) | extra


def _reference_best_split(X, onehot, idx, features, min_leaf, parent_impurity):
    n = idx.size
    if n - min_leaf < min_leaf:
        return None
    best = None
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
        if best is None or gain[pick] > best[0] + trees._GAIN_EPS:
            threshold = 0.5 * (vs[s[pick] - 1] + vs[s[pick]])
            best = (float(gain[pick]), int(f), float(threshold))
    return best


def _reference_grow_tree(X, y, n_classes, max_depth, min_leaf, feature_subset, rng):
    n, p = X.shape
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0
    m = p if feature_subset is None else min(max(int(feature_subset), 1), p)

    nodes = []

    def node_for(idx):
        counts = onehot[idx].sum(axis=0)
        nodes.append(_reference_leaf(int(idx.size), counts / idx.size, impurity=_gini(counts)))
        return nodes[-1]

    node_for(np.arange(n))
    stack = [(nodes[0], np.arange(n), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if (
            (max_depth is not None and depth >= max_depth)
            or idx.size < 2 * min_leaf
            or node["impurity"] <= 0.0
        ):
            continue
        features = rng.choice(p, size=m, replace=False) if m < p else np.arange(p)
        best = _reference_best_split(X, onehot, idx, features, min_leaf, node["impurity"])
        if best is None:
            continue
        _, node["feature"], node["threshold"] = best
        mask = X[idx, node["feature"]] <= node["threshold"]
        node["left"], node["right"] = len(nodes), len(nodes) + 1
        left, right = node_for(idx[mask]), node_for(idx[~mask])
        # impurity decrease, weighted by the node's share of the root's rows
        node["gain"] = (
            node["n"] * node["impurity"]
            - left["n"] * left["impurity"]
            - right["n"] * right["impurity"]
        ) / n
        stack.append((right, idx[~mask], depth + 1))
        stack.append((left, idx[mask], depth + 1))
    return _reference_tree(nodes)


def _reference_fit_hist_tree(
    codes, edges, g, h, learning_rate, max_depth, lambda_reg, min_child_weight
):
    n, p = codes.shape
    values = np.empty(n, dtype=np.float64)
    nodes = []

    def node_for(idx):
        sum_g = float(g[idx].sum())
        sum_h = float(h[idx].sum())
        step = -learning_rate * sum_g / (sum_h + lambda_reg)
        nodes.append(_reference_leaf(int(idx.size), step))
        return nodes[-1]

    node_for(np.arange(n))
    stack = [(nodes[0], np.arange(n), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if (max_depth is not None and depth >= max_depth) or idx.size < 2:
            values[idx] = node["value"]
            continue
        total_g = float(g[idx].sum())
        total_h = float(h[idx].sum())
        base_score = total_g * total_g / (total_h + lambda_reg)
        best_gain = 0.0
        best = None
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
            if gain[pick] > best_gain + trees._GAIN_EPS:
                best_gain = float(gain[pick])
                best = (f, pick)
        if best is None:
            values[idx] = node["value"]
            continue
        f, j = best
        node.update(feature=f, threshold=float(edges[f][j]), gain=best_gain)
        mask = codes[idx, f] <= j
        node["left"], node["right"] = len(nodes), len(nodes) + 1
        left, right = node_for(idx[mask]), node_for(idx[~mask])
        stack.append((right, idx[~mask], depth + 1))
        stack.append((left, idx[mask], depth + 1))
    return _reference_tree(nodes), values


def _reference_forest(X, y, n_trees, max_depth, min_leaf, max_features, bootstrap, seed):
    n, p = X.shape
    n_classes = int(y.max()) + 1
    m = {"sqrt": int(math.ceil(math.sqrt(p))), None: p}.get(max_features, max_features)
    grown = []
    for i in range(n_trees):
        rng = np.random.default_rng([seed, i])
        sample = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        grown.append(_reference_grow_tree(
            X[sample], y[sample], n_classes, max_depth, min_leaf,
            m if m < p else None, rng,
        ))
    return Model("forest", grown, n_classes, p)


def _reference_gbdt(monkeypatch, X, y, **params):
    """fit_gbdt with every tree grown by the reference on (n, p) raw codes."""
    edges = [trees._quantile_bin_edges(X[:, f], params["n_bins"]) for f in range(X.shape[1])]
    codes = np.empty(X.shape, dtype=np.int32)
    for f, e in enumerate(edges):
        codes[:, f] = np.searchsorted(e, X[:, f], side="left")

    def grow(_codes, _edges, g, h, *rest):
        return _reference_fit_hist_tree(codes, edges, g, h, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(trees, "_fit_hist_tree", grow)
        return fit_gbdt(X, y, **params)


def _oracle_data(n=240, p=7, n_classes=3, seed=0):
    """Gaussian classes plus an integer column with heavy ties."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, n_classes, size=n)
    X = rng.normal(0.0, 1.0, (n, p)) + 0.8 * y[:, None] * rng.random(p)
    X[:, 1] = rng.integers(0, 4, size=n) + (y == 1)
    return X, y


def _assert_same_model(model, reference, X):
    assert model_to_dict(model) == model_to_dict(reference)
    a, b = predict_proba(model, X), predict_proba(reference, X)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "data, params",
    [
        # bootstrap forest, √p features per split, depth 8
        (dict(), dict(max_depth=8, min_leaf=1, max_features="sqrt")),
        # from 8 classes on, np.sum adds the Gini terms pairwise
        (dict(seed=1, n_classes=9, n=400), dict(max_depth=8, min_leaf=1, max_features="sqrt")),
        (dict(seed=2), dict(max_depth=6, min_leaf=5, max_features=None)),
        (dict(seed=3), dict(max_depth=None, min_leaf=1, max_features=3)),
        (dict(seed=4, n_classes=5), dict(max_depth=0, min_leaf=1, max_features="sqrt")),
    ],
)
@pytest.mark.parametrize("bootstrap", [True, False])
def test_forest_equals_the_per_node_sort_reference(data, params, bootstrap):
    X, y = _oracle_data(**data)
    forest = fit_forest(X, y, n_trees=4, bootstrap=bootstrap, seed=5, **params)
    reference = _reference_forest(X, y, 4, bootstrap=bootstrap, seed=5, **params)
    _assert_same_model(forest, reference, X)


@pytest.mark.parametrize("cells", [1, 2000])
def test_split_search_blocks_do_not_change_the_forest(monkeypatch, cells):
    X, y = _oracle_data(seed=11)
    params = dict(max_depth=None, min_leaf=2, max_features=None)
    monkeypatch.setattr(trees, "_BLOCK_CELLS", cells)  # 1 feature a block; 4 at the root
    forest = fit_forest(X, y, n_trees=3, seed=4, **params)
    reference = _reference_forest(X, y, 3, bootstrap=True, seed=4, **params)
    _assert_same_model(forest, reference, X)


def test_forest_on_integer_ties_and_a_constant_column_equals_the_reference():
    rng = np.random.default_rng(6)
    y = rng.integers(0, 4, size=300)
    X = np.column_stack([
        rng.integers(0, 3, size=300) + (y > 1),
        rng.integers(0, 2, size=300),
        np.full(300, 7.0),
        rng.poisson(2.0 + y),
    ]).astype(np.float64)
    for min_leaf in (1, 4):
        for max_features in (2, None):
            params = dict(max_depth=None, min_leaf=min_leaf, max_features=max_features)
            forest = fit_forest(X, y, n_trees=3, seed=8, **params)
            reference = _reference_forest(X, y, 3, bootstrap=True, seed=8, **params)
            _assert_same_model(forest, reference, X)


def test_fit_tree_equals_the_reference():
    X, y = _oracle_data(seed=9)
    tree = fit_tree(X, y, max_depth=5, seed=3)
    reference = _reference_grow_tree(X, y, 3, 5, 1, None, np.random.default_rng(3))
    _assert_same_model(tree, Model("tree", [reference], 3, X.shape[1]), X)


@pytest.mark.parametrize(
    "params",
    [
        dict(n_bins=16, max_depth=4),
        dict(n_bins=255, max_depth=12, min_child_weight=0.0),
        dict(n_bins=32, max_depth=3, lambda_reg=0.5),
    ],
)
def test_gbdt_equals_the_per_feature_histogram_reference(monkeypatch, params):
    X, y = _oracle_data(n=300, seed=10, n_classes=4)
    # a rare flag: at 16 bins one edge, so two bins and one candidate cut
    X[:, 2] = 0.0
    X[np.flatnonzero(y == 3)[:12], 2] = 1.0
    X[:, 3] = 1.0  # constant: every row in the lower of two bins
    X[:, 5] = -X[:, 0]  # mirrored: equal gains up to rounding
    params = dict(rounds=4, learning_rate=0.3, seed=0) | params
    model = fit_gbdt(X, y, **params)
    reference = _reference_gbdt(monkeypatch, X, y, **params)
    _assert_same_model(model, reference, X)


def test_models_without_features_equal_the_reference(monkeypatch):
    X, y = np.empty((6, 0)), np.array([0, 1, 0, 1, 1, 2])
    forest = fit_forest(X, y, n_trees=2, seed=1)
    _assert_same_model(forest, _reference_forest(X, y, 2, None, 1, "sqrt", True, 1), X)
    params = dict(rounds=2, n_bins=16)
    _assert_same_model(fit_gbdt(X, y, **params), _reference_gbdt(monkeypatch, X, y, **params), X)


def _reference_importance(grown, n_features):
    """Split gains added recursively: pre-order, right subtree first."""
    out = np.zeros(n_features)

    def visit(tree, i):
        if tree.feature[i] >= 0:
            out[tree.feature[i]] += tree.gain[i]
            visit(tree, tree.right[i])
            visit(tree, tree.left[i])

    for tree in grown:
        visit(tree, 0)
    return out / out.sum()


def test_importances_add_the_gains_in_a_fixed_order():
    # the RFE trace and selection read these sums, so their order (that of
    # the node-object walk the arrays replaced) is kept to the last bit
    X, y = _oracle_data(n=400, seed=12)
    forest = fit_forest(X, y, n_trees=6, max_depth=None, seed=3)
    gbdt = fit_gbdt(X, y, rounds=5, max_depth=6)
    for model, grown in (
        (replace(forest, trees=forest.trees[:1]), forest.trees[:1]),
        (forest, forest.trees),
        (gbdt, gbdt.trees),
    ):
        expected = _reference_importance(grown, X.shape[1])
        assert impurity_importance(model).tobytes() == expected.tobytes()


@pytest.mark.parametrize("threshold", [-0.1, 1.5])
def test_rfe_rejects_a_keep_threshold_outside_zero_one(threshold):
    # importances sum to 1, so a threshold above 1 would select nothing
    X = np.random.default_rng(0).normal(size=(40, 3))
    y = np.arange(40) % 2
    with pytest.raises(ConfigError, match="keep_threshold"):
        trees.rfe(X, y, RfeConfig(keep_threshold=threshold))


@pytest.mark.parametrize(
    "param, value",
    [
        ("learning_rate", -0.5),
        ("learning_rate", 0.0),
        ("learning_rate", math.inf),
        ("lambda_reg", -1.0),
        ("lambda_reg", math.nan),
        ("min_child_weight", -1e-3),
        ("min_child_weight", math.inf),
    ],
)
def test_fit_gbdt_rejects_numbers_outside_their_range(param, value):
    # a negative learning rate or lambda_reg drives the training loss up, not down
    X, y = two_blobs(n_per=20, seed=1)
    with pytest.raises(DataError, match=f"^{param}: .* is not a finite number"):
        fit_gbdt(X, y, rounds=2, **{param: value})


# The grid keys each family took when they were listed by hand; deriving them
# from the fitters' signatures must not widen them (feature_subset, workers).
GRID_KEYS = {
    "tree": {"max_depth", "min_leaf", "seed"},
    "forest": {"n_trees", "max_depth", "min_leaf", "max_features", "bootstrap", "seed"},
    "gbdt": {
        "rounds", "learning_rate", "max_depth", "n_bins", "lambda_reg", "min_child_weight",
        "seed",
    },
    "majority": {"seed"},
}
ONE_VALID_VALUE = {
    "n_trees": 1, "rounds": 1, "min_leaf": 1, "n_bins": 2, "seed": 0, "max_depth": None,
    "max_features": "sqrt", "learning_rate": 0.1, "lambda_reg": 0, "min_child_weight": 0,
    "bootstrap": True, "feature_subset": 1, "workers": 1, "n_classes": 2,
}


@pytest.mark.parametrize("family", list(GRID_KEYS))
def test_each_family_takes_exactly_its_grid_keys(family):
    assert set(trees.GRID_VALUES) <= set(ONE_VALID_VALUE)
    for key, value in ONE_VALID_VALUE.items():
        if key in GRID_KEYS[family]:
            check_grid(family, {key: [value]}, family)
        else:
            with pytest.raises(DataError, match=re.escape(f"in {family}: {key!r}")):
                check_grid(family, {key: [value]}, family)


@pytest.mark.parametrize(
    "family, grid, message",
    [
        ("forst", {"seed": [0]}, "forst: unknown model family (expected one of tree, "),
        ("tree", [3], "tree must be a mapping, got list"),
        ("tree", {}, "tree must list at least one parameter"),
        ("tree", {"seed": 0}, "tree.seed must be a non-empty list of candidate values"),
        ("tree", {"seed": []}, "tree.seed must be a non-empty list of candidate values"),
        ("tree", {"seed": [0, -1]}, "tree.seed: -1 is not an integer >= 0"),
    ],
)
def test_check_grid_names_what_is_wrong(family, grid, message):
    with pytest.raises(DataError, match=re.escape(message)):
        check_grid(family, grid, family)
