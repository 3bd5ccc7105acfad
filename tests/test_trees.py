"""CART, random forest, gradient boosting, importances, RFE, serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from idstats.errors import DataError
from idstats.trees import (
    ForestModel,
    ModelSpec,
    derive_seed,
    fit_forest,
    fit_gbdt,
    fit_majority,
    fit_model,
    fit_tree,
    gini,
    impurity_importance,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_labels,
    predict_proba,
    rfe,
    save_model,
)


def two_blobs(n_per=100, shift=4.0, p=3, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n_per, p))
    b = rng.normal(shift, 1.0, (n_per, p))
    X = np.vstack([a, b])
    y = np.repeat([0, 1], n_per)
    return X, y


def test_gini_known_values():
    assert gini(np.array([10, 0])) == 0.0
    assert gini(np.array([5, 5])) == pytest.approx(0.5)
    assert gini(np.array([1, 1, 1, 1, 1])) == pytest.approx(0.8)
    assert gini(np.array([3, 1])) == pytest.approx(1.0 - (0.75**2 + 0.25**2))
    with pytest.raises(DataError):
        gini(np.array([0, 0]))
    with pytest.raises(DataError):
        gini(np.array([-1, 2]))


def test_pure_input_yields_single_leaf():
    X = np.arange(12.0).reshape(6, 2)
    y = np.ones(6, dtype=np.int64)
    tree = fit_tree(X, y, n_classes=2)
    assert tree.is_leaf
    assert tree.distribution.tolist() == [0.0, 1.0]


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
    assert tree.threshold == pytest.approx(0.5)
    # x <= threshold routes left
    proba = predict_proba(tree, np.array([[0.5], [0.500001]]))
    assert proba[0].tolist() == [1.0, 0.0]
    assert proba[1].tolist() == [0.0, 1.0]


def test_max_depth_and_min_leaf_are_respected():
    X, y = two_blobs(seed=1)

    def depth_of(node):
        if node.is_leaf:
            return 0
        return 1 + max(depth_of(node.left), depth_of(node.right))

    def min_leaf_size(node):
        if node.is_leaf:
            return node.n_samples
        return min(min_leaf_size(node.left), min_leaf_size(node.right))

    assert depth_of(fit_tree(X, y, max_depth=3)) <= 3
    assert min_leaf_size(fit_tree(X, y, min_leaf=20)) >= 20


def test_tree_separates_shifted_gaussians():
    X, y = two_blobs(seed=2)
    tree = fit_tree(X, y, max_depth=6)
    assert (predict_labels(tree, X) == y).mean() >= 0.95


def test_tree_is_deterministic_in_seed():
    X, y = two_blobs(seed=3)
    a = fit_tree(X, y, feature_subset=2, seed=9)
    b = fit_tree(X, y, feature_subset=2, seed=9)
    pa = predict_proba(a, X)
    pb = predict_proba(b, X)
    assert np.array_equal(pa, pb)


def test_forest_beats_chance_and_probas_normalize():
    X, y = two_blobs(n_per=150, shift=2.0, seed=4)
    forest = fit_forest(X, y, n_trees=30, seed=0)
    acc = (predict_labels(forest, X) == y).mean()
    assert acc >= 0.95
    proba = predict_proba(forest, X)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    assert proba.min() >= 0.0


def test_single_tree_forest_without_bootstrap_equals_plain_tree():
    X, y = two_blobs(n_per=80, shift=2.5, seed=6)
    forest = fit_forest(X, y, n_trees=1, bootstrap=False, max_features=None, seed=11)
    tree = fit_tree(X, y, seed=11)
    assert np.array_equal(predict_proba(forest, X), predict_proba(tree, X))


def test_forest_is_order_independent_per_tree_seed():
    X, y = two_blobs(n_per=60, seed=7)
    f1 = fit_forest(X, y, n_trees=8, seed=2)
    f2 = fit_forest(X, y, n_trees=8, seed=2)
    assert np.array_equal(predict_proba(f1, X), predict_proba(f2, X))
    f3 = fit_forest(X, y, n_trees=8, seed=5)
    assert not np.array_equal(predict_proba(f1, X), predict_proba(f3, X))


def test_majority_model_is_constant_priors():
    X = np.zeros((10, 2))
    y = np.array([0] * 7 + [1] * 3)
    m = fit_majority(X, y)
    proba = predict_proba(m, X)
    assert np.allclose(proba, [0.7, 0.3])
    assert predict_labels(m, X).tolist() == [0] * 10


def test_gbdt_loss_starts_at_prior_entropy_and_never_increases():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(250, 4))
    y = rng.integers(0, 5, size=250)
    # balanced-ish 5-class problem: first loss is close to ln 5
    model = fit_gbdt(X, y, rounds=12, learning_rate=0.3, max_depth=3, seed=0)
    assert len(model.train_loss) == 13
    assert model.train_loss[0] == pytest.approx(
        -np.mean(np.log(np.bincount(y, minlength=5)[y] / y.size)), abs=1e-9
    )
    diffs = np.diff(model.train_loss)
    assert np.all(diffs <= 1e-12)


def test_gbdt_exact_prior_loss_on_balanced_classes():
    X = np.random.default_rng(9).normal(size=(100, 2))
    y = np.repeat(np.arange(5), 20)
    model = fit_gbdt(X, y, rounds=1, seed=0)
    assert model.train_loss[0] == pytest.approx(math.log(5.0), abs=1e-12)


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
    assert np.array_equal(model_raw.train_loss, fit_gbdt(np.log(X), y, rounds=10, max_depth=3, seed=4).train_loss)


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
    imp = impurity_importance(fit_tree(X, y, n_classes=2))
    assert imp.tolist() == [0.0, 0.0, 0.0]


def test_rfe_keep_threshold_zero_drops_nothing():
    X, y = two_blobs(n_per=60, seed=16)
    result = rfe(X, y, ModelSpec("forest", {"n_trees": 10, "seed": 0}), keep_threshold=0.0)
    assert result.selected == ["f0", "f1", "f2"]
    assert result.trace == []  # no elimination rounds at all


def test_rfe_eliminates_noise_features():
    rng = np.random.default_rng(17)
    n = 300
    strong = np.concatenate([rng.normal(0, 0.3, n // 2), rng.normal(4, 0.3, n // 2)])
    weak = np.concatenate([rng.normal(0, 1, n // 2), rng.normal(1.0, 1, n // 2)])
    X = np.column_stack([strong, weak, rng.normal(size=n), rng.normal(size=n)])
    y = np.repeat([0, 1], n // 2)
    names = ["strong", "weak", "noise1", "noise2"]
    result = rfe(
        X, y, ModelSpec("forest", {"n_trees": 20, "seed": 3}),
        keep_threshold=0.05, feature_names=names,
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
        assert doc["version"] == 1
        clone = model_from_dict(doc)
        assert np.allclose(predict_proba(model, Xq), predict_proba(clone, Xq))
        path = tmp_path / f"{doc['family']}.json"
        save_model(model, str(path))
        assert np.allclose(
            predict_proba(load_model(str(path)), Xq), predict_proba(model, Xq)
        )


def test_deserialization_rejects_foreign_documents():
    with pytest.raises(DataError, match="not a recognized model document"):
        model_from_dict({"family": "tree"})
    with pytest.raises(DataError, match="version"):
        model_from_dict({"format": "idstats-model", "version": 99, "family": "tree"})


def test_derive_seed_is_deterministic_and_path_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(0) != derive_seed(1)
    assert 0 <= derive_seed(123456789) < 2**32
