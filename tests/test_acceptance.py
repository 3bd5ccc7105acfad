"""Acceptance gates.

Criteria 1-3 are synthetic and always run: a timed property suite, a null
sweep checking family-wise error control, and a shifted alternative whose
leading statistic must match an independent numerical-integration oracle.
Criteria 4-6 reproduce published reference results on the UAVIDS-2025
dataset and run only when IDSTATS_DATASET points at its CSV export.

Each criterion prints one PASS/FAIL line outside pytest's output capture so
the verdicts are visible in the test log.
"""

from __future__ import annotations

import csv
import math
import os
import re
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from idstats.config import parse_config
from idstats.density import (
    KdeModel,
    js_distance_from_masses,
    kde_eval,
    scott_bandwidth,
)
from idstats.evaluation import stratified_kfold
from idstats.pipeline import run_stage
from idstats.preprocess import kendall_tau_b, quartiles, robust_fit, robust_transform
from idstats.tabular import ColumnTable, LabelVocabulary, stratified_split
from idstats.trees import (
    fit_forest,
    fit_gbdt,
    fit_majority,
    fit_tree,
    predict_proba,
    truncate,
)
from idstats.wytest import WyConfig, observed_details, wy_maxT

DATASET_ENV = "IDSTATS_DATASET"
SCHEMA_ENV = "IDSTATS_DATASET_SCHEMA"

needs_dataset = pytest.mark.skipif(
    DATASET_ENV not in os.environ,
    reason=f"set {DATASET_ENV} to the UAVIDS-2025 CSV export to run this check",
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


@contextmanager
def announced(label: str, capsys):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"\n{label}: {'PASS' if ok else 'FAIL'}", flush=True)


# ---------------------------------------------------------------------------
# criterion 1: dataset-independent property suite, < 60 s total


def _js_metric_axioms() -> None:
    rng = np.random.default_rng(101)
    for _ in range(1000):
        dim = int(rng.integers(2, 12))
        p, q, r = rng.dirichlet(np.ones(dim), size=3)
        assert js_distance_from_masses(p, p) == 0.0
        d_pq = js_distance_from_masses(p, q)
        assert abs(d_pq - js_distance_from_masses(q, p)) < 1e-12
        assert 0.0 <= d_pq <= 1.0
        d_qr = js_distance_from_masses(q, r)
        d_pr = js_distance_from_masses(p, r)
        assert d_pr <= d_pq + d_qr + 1e-12


def _adjusted_p_bounds_and_monotonicity() -> None:
    rng = np.random.default_rng(102)
    n = 80
    cols = {
        "shifted": np.concatenate([rng.normal(0, 1, n), rng.normal(1.2, 1, n)]),
        "null_a": rng.normal(0, 1, 2 * n),
        "null_b": rng.normal(0, 1, 2 * n),
    }
    table = ColumnTable(cols, np.repeat([0, 1], n), LabelVocabulary(names=("a", "b")))
    cfg = WyConfig(
        classes=("a", "b"), permutations=120, bandwidth="scott", grid_size=128,
    )
    report = wy_maxT(observed_details(table, list(cols), cfg, seed=7))
    lo = 1.0 / (cfg.permutations + 1)
    last = 0.0
    for r in sorted(report.results, key=lambda r: r.statistic, reverse=True):
        assert lo <= r.p_value <= 1.0
        assert r.p_value >= last
        last = r.p_value


def _kde_trapezoid_normalization() -> None:
    rng = np.random.default_rng(103)
    shapes = [
        rng.normal(0.0, 1.0, 300),
        np.abs(rng.normal(0.0, 2.0, 400)) + 0.1,
        np.concatenate([rng.normal(-3.0, 0.5, 150), rng.normal(3.0, 0.5, 150)]),
    ]
    for x in shapes:
        model = KdeModel(x, scott_bandwidth(x))
        g = np.linspace(
            x.min() - 8 * model.bandwidth, x.max() + 8 * model.bandwidth, 4096
        )
        y = kde_eval(model, g)
        total = float(np.sum((y[1:] + y[:-1]) * 0.5 * np.diff(g)))
        assert abs(total - 1.0) <= 1e-3


def _tau_b_pairwise(x: np.ndarray, y: np.ndarray) -> float:
    n = x.size
    concordant = discordant = 0
    for i in range(n - 1):
        s = np.sign(x[i + 1 :] - x[i]) * np.sign(y[i + 1 :] - y[i])
        concordant += int(np.sum(s > 0))
        discordant += int(np.sum(s < 0))
    n0 = n * (n - 1) // 2

    def ties(v: np.ndarray) -> int:
        return int(sum(c * (c - 1) // 2 for c in np.unique(v, return_counts=True)[1]))

    denom = math.sqrt((n0 - ties(x)) * (n0 - ties(y)))
    return (concordant - discordant) / denom if denom else 0.0


def _kendall_matches_pairwise_oracle() -> None:
    rng = np.random.default_rng(104)
    for _ in range(12):
        n = int(rng.integers(3, 201))
        x = rng.integers(0, 8, n).astype(np.float64)
        y = (x + rng.integers(0, 6, n)).astype(np.float64)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        assert abs(kendall_tau_b(x, y) - _tau_b_pairwise(x, y)) <= 1e-12


def _robust_scaler_centers_and_scales() -> None:
    rng = np.random.default_rng(105)
    for _ in range(5):
        x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3.0), 251)
        scaled = robust_transform(x, robust_fit(x))
        q1, median, q3 = quartiles(scaled)
        assert abs(median) <= 1e-12
        assert abs(q3 - q1 - 1.0) <= 1e-12


def _split_and_fold_invariants() -> None:
    rng = np.random.default_rng(106)
    labels = np.repeat([0, 1, 2], [60, 30, 10])
    table = ColumnTable(
        {"v": rng.normal(0, 1, 100)},
        labels,
        LabelVocabulary(names=("x", "y", "z")),
    )
    train, test = stratified_split(table, 0.2, seed=3)
    assert train.n_rows + test.n_rows == 100
    assert np.bincount(test.labels, minlength=3).tolist() == [12, 6, 2]
    fold_of = stratified_kfold(labels, k=5, seed=0)
    assert set(fold_of.tolist()) == set(range(5))
    for c in range(3):
        per_fold = [int(np.sum(labels[fold_of == f] == c)) for f in range(5)]
        assert max(per_fold) - min(per_fold) <= 1


def _blobs(seed: int = 107) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(i * 3.0, 1.0, (40, 3)) for i in range(3)])
    return X, np.repeat(np.arange(3), 40)


def _gbdt_loss_non_increasing() -> None:
    X, y = _blobs()
    model = fit_gbdt(X, y, rounds=25, learning_rate=0.2, max_depth=3, seed=0)
    # the training log-loss before any round and after each of the 25
    losses = np.array([
        -np.mean(np.log(np.maximum(
            predict_proba(truncate(model, r), X)[np.arange(y.size), y], 1e-300
        )))
        for r in range(26)
    ])
    assert losses.size == 26
    assert np.all(np.diff(losses) <= 1e-9)


def _probability_rows_sum_to_one() -> None:
    X, y = _blobs(108)
    models = [
        fit_tree(X, y, max_depth=4),
        fit_forest(X, y, n_trees=10, seed=1),
        fit_gbdt(X, y, rounds=10, learning_rate=0.3, max_depth=3, seed=2),
        fit_majority(X, y),
    ]
    for model in models:
        proba = predict_proba(model, X)
        assert np.all(proba >= 0.0)
        assert np.max(np.abs(proba.sum(axis=1) - 1.0)) <= 1e-9


def test_criterion_1_property_suite(capsys):
    properties = [
        ("js metric axioms", _js_metric_axioms),
        ("adjusted-p bounds/monotonicity", _adjusted_p_bounds_and_monotonicity),
        ("kde normalization", _kde_trapezoid_normalization),
        ("kendall oracle parity", _kendall_matches_pairwise_oracle),
        ("robust scaler", _robust_scaler_centers_and_scales),
        ("split/fold invariants", _split_and_fold_invariants),
        ("gbdt loss monotone", _gbdt_loss_non_increasing),
        ("probability rows", _probability_rows_sum_to_one),
    ]
    started = time.perf_counter()
    failures = []
    for name, fn in properties:
        try:
            fn()
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
    elapsed = time.perf_counter() - started
    with announced("criterion 1 (property suite)", capsys):
        assert not failures, "; ".join(failures)
        assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: synthetic null, family-wise error control


def _seven_feature_table(rng: np.random.Generator, shift: float) -> ColumnTable:
    a = rng.normal(0.0, 1.0, (500, 7))
    b = rng.normal(0.0, 1.0, (500, 7))
    b[:, 0] += shift
    cols = {f"f{i + 1}": np.concatenate([a[:, i], b[:, i]]) for i in range(7)}
    return ColumnTable(
        cols, np.repeat([0, 1], 500), LabelVocabulary(names=("a", "b"))
    )


def test_criterion_2_null_error_control(capsys):
    features = [f"f{i + 1}" for i in range(7)]
    started = time.perf_counter()
    hits = 0
    for rep_id in range(20):
        table = _seven_feature_table(np.random.default_rng([777, rep_id]), 0.0)
        cfg = WyConfig(classes=("a", "b"), permutations=200, bandwidth="scott")
        observed = observed_details(table, features, cfg, workers=4, seed=rep_id)
        report = wy_maxT(observed, workers=4)
        hits += min(r.p_value for r in report.results) < 0.05
    elapsed = time.perf_counter() - started
    with announced("criterion 2 (null FWER control)", capsys):
        assert hits <= 2, f"{hits}/20 null repetitions rejected a feature"
        assert elapsed < 120.0, f"null sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 3: shifted alternative with an integration oracle


def _density_on(points: np.ndarray, samples: np.ndarray, h: float) -> np.ndarray:
    z = (points[:, None] - samples[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (samples.size * h * SQRT_2PI)


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.sum((y[1:] + y[:-1]) * 0.5 * np.diff(x)))


def test_criterion_3_shifted_alternative(capsys):
    table = _seven_feature_table(np.random.default_rng([778, 0]), 2.0)
    features = [f"f{i + 1}" for i in range(7)]
    cfg = WyConfig(classes=("a", "b"), permutations=1000, bandwidth="scott")
    report = wy_maxT(observed_details(table, features, cfg, workers=4, seed=5), workers=4)

    # independent oracle: continuous JS integral of the two fitted KDEs for
    # the shifted feature, trapezoid rule on a fine grid
    xa = table.column("f1")[:500]
    xb = table.column("f1")[500:]
    h_a, h_b = scott_bandwidth(xa), scott_bandwidth(xb)
    pad = 5.0 * max(h_a, h_b)
    g = np.linspace(
        min(xa.min(), xb.min()) - pad, max(xa.max(), xb.max()) + pad, 8192
    )
    p = _density_on(g, xa, h_a)
    q = _density_on(g, xb, h_b)
    m = 0.5 * (p + q)

    def half_kl(f: np.ndarray) -> float:
        ratio = np.where(f > 0.0, f / m, 1.0)
        return _trapezoid(np.where(f > 0.0, f * np.log2(ratio), 0.0), g)

    t_oracle = math.sqrt(0.5 * half_kl(p) + 0.5 * half_kl(q))

    with announced("criterion 3 (shifted alternative)", capsys):
        shifted = report.results[0]
        assert shifted.p_value == pytest.approx(1 / 1001)
        assert shifted.p_display == "<0.001"
        assert shifted.statistic == pytest.approx(0.684090, abs=1e-5)
        for r in report.results[1:]:
            assert r.p_value > 0.05, r.feature
        assert abs(shifted.statistic - t_oracle) < 1e-3


# ---------------------------------------------------------------------------
# criteria 4-6: UAVIDS-2025 reproduction targets (dataset-gated)

# reproduction targets for the Blackhole vs Wormhole contrast: reference
# JS distance and whether the adjusted p-value must fall below 0.001
REFERENCE_RESULTS = [
    ("LostPackets", 0.376153, True),
    ("RxBytes", 0.743254, True),
    ("RxByteRate/s", 0.197168, False),
    ("MeanDelay/s", 0.546946, True),
    ("MeanJitter/s", 0.546824, True),
    ("PacketDropRate", 0.825746, True),
    ("AverageHopCount", 0.539645, True),
]


def _normalize(name: str) -> str:
    return re.sub(r"[^a-z0-9]", "", name.lower())


def _infer_schema(header: list[str], first_row: list[str]) -> dict:
    """Column roles for a UAVIDS-2025 export: label column, known drops,
    numeric everywhere a value parses, dummy-encoded categories elsewhere."""
    schema: dict[str, object] = {}
    for name, value in zip(header, first_row):
        key = _normalize(name)
        if key == "label":
            schema[name] = "label"
        elif key in ("protocol", "flowid"):
            schema[name] = {"role": "drop"}
        else:
            try:
                float(value)
                schema[name] = "numeric"
            except ValueError:
                schema[name] = {"role": "categorical", "encoding": "dummy"}
    return schema


def _class_named(names: set[str], stem: str) -> str:
    matches = [n for n in names if stem in n.lower()]
    assert matches, f"no class label contains {stem!r}: {sorted(names)}"
    return matches[0]


@pytest.fixture(scope="module")
def reproduction(tmp_path_factory):
    csv_path = Path(os.environ[DATASET_ENV])
    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        first_row = next(reader)
    if SCHEMA_ENV in os.environ:
        schema = yaml.safe_load(Path(os.environ[SCHEMA_ENV]).read_text())
    else:
        schema = _infer_schema(header, first_row)

    label_col = next(
        name
        for name, role in schema.items()
        if role == "label" or (isinstance(role, dict) and role.get("role") == "label")
    )
    label_index = header.index(label_col)
    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        class_names = {row[label_index] for row in reader if len(row) > label_index}
    blackhole = _class_named(class_names, "black")
    wormhole = _class_named(class_names, "worm")

    by_key = {_normalize(name): name for name in header}
    missing = [ref for ref, _, _ in REFERENCE_RESULTS if _normalize(ref) not in by_key]
    assert not missing, f"dataset lacks expected column(s): {missing}"
    feature_of = {ref: by_key[_normalize(ref)] for ref, _, _ in REFERENCE_RESULTS}

    out = tmp_path_factory.mktemp("reproduction")
    doc = {
        "input": str(csv_path),
        "output": str(out),
        "seed": 0,
        "threads": 8,
        "schema": schema,
        "preprocess": {"test_fraction": 0.2, "correlation_threshold": 0.7},
        "cv": {
            "k": 10,
            "models": {
                "tree": {"max_depth": [None]},
                "forest": {"n_trees": [30], "max_depth": [None]},
                "gbdt": {"rounds": [40], "learning_rate": [0.2], "max_depth": [6]},
            },
        },
        "wy": {
            "classes": [blackhole, wormhole],
            "permutations": 1000,
            "bandwidth": "cv",
            "features": [feature_of[ref] for ref, _, _ in REFERENCE_RESULTS],
        },
    }
    cfg = parse_config(doc, csv_path.parent)
    run_stage(cfg, "preprocess")
    started = time.perf_counter()
    wy_fragment = run_stage(cfg, "wy")
    wy_elapsed = time.perf_counter() - started
    cv_fragment = run_stage(cfg, "cv")
    return SimpleNamespace(
        wy=wy_fragment,
        cv=cv_fragment,
        wy_elapsed=wy_elapsed,
        feature_of=feature_of,
        blackhole=blackhole,
        wormhole=wormhole,
    )


@needs_dataset
def test_criterion_4_distance_and_significance_pattern(reproduction, capsys):
    results = {r["feature"]: r for r in reproduction.wy["results"]}
    with announced("criterion 4 (reference distances and significance)", capsys):
        observed = {}
        for ref, expected_t, significant in REFERENCE_RESULTS:
            r = results[reproduction.feature_of[ref]]
            observed[ref] = r["statistic"]
            assert abs(r["statistic"] - expected_t) <= 0.08, (
                f"{ref}: T={r['statistic']:.6f}, expected {expected_t:.6f}"
            )
            if significant:
                assert r["p_display"] == "<0.001", f"{ref}: {r['p_display']}"
            else:
                assert r["p_value"] == pytest.approx(1.0), f"{ref}: {r['p_value']}"
        assert max(observed, key=observed.get) == "PacketDropRate"
        assert min(observed, key=observed.get) == "RxByteRate/s"
        assert reproduction.wy_elapsed < 600.0, (
            f"permutation stage took {reproduction.wy_elapsed:.0f}s"
        )


@needs_dataset
def test_criterion_5_classification_pattern(reproduction, capsys):
    cv = reproduction.cv
    with announced("criterion 5 (classification pattern)", capsys):
        forest = cv["families"]["forest"]["report"]
        assert forest["test_mean"]["f1"] >= 0.90, forest["test_mean"]["f1"]
        for family, block in cv["families"].items():
            span = block["report"]["ranges"]["test"]["f1"]
            assert span <= 0.04, f"{family}: fold F1 range {span:.4f}"
        classes = cv["confusion"]["classes"]
        matrix = np.asarray(cv["confusion"]["test"], dtype=np.float64)
        off = matrix.copy()
        np.fill_diagonal(off, 0.0)
        pair_mass = np.triu(off + off.T, 1)
        i, j = np.unravel_index(int(np.argmax(pair_mass)), pair_mass.shape)
        top_pair = {classes[i], classes[j]}
        assert top_pair == {reproduction.blackhole, reproduction.wormhole}, top_pair


@needs_dataset
def test_criterion_6_overlap_interval(reproduction, capsys):
    results = {r["feature"]: r for r in reproduction.wy["results"]}
    target = results[reproduction.feature_of["PacketDropRate"]]
    with announced("criterion 6 (density overlap interval)", capsys):
        intervals = target["overlap"]["intervals"]
        assert any(
            abs(lo - 0.25) <= 0.15 and abs(hi - 1.4) <= 0.15 for lo, hi in intervals
        ), intervals
