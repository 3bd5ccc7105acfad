"""maxT permutation test: seeding, shared permutations, adjusted p-values."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from idstats.density import bandwidth_for, js_distance, make_grid, to_mass_pair
from idstats.density import KdeModel
from idstats.errors import DataError, DataQualityWarning
from idstats.tabular import ColumnTable, LabelVocabulary
from idstats.wytest import (
    WyConfig,
    decide,
    observed_details,
    wy_maxT,
)


def two_class_table(n_a=60, n_b=60, shift=0.0, seed=0, extra_null=True):
    """One shifted column plus an optional null column."""
    rng = np.random.default_rng(seed)
    va = rng.normal(shift, 1.0, n_a)
    vb = rng.normal(0.0, 1.0, n_b)
    cols = {"sig": np.concatenate([va, vb])}
    if extra_null:
        cols["noise"] = rng.normal(0.0, 1.0, n_a + n_b)
    labels = np.repeat([0, 1], [n_a, n_b])
    vocab = LabelVocabulary(names=("atk", "norm"))
    return ColumnTable(cols, labels, vocab)


def scott_config(**kwargs):
    defaults = dict(
        class_a="atk", class_b="norm", permutations=50,
        bandwidth_policy="scott", grid_size=128, seed=3,
    )
    defaults.update(kwargs)
    return WyConfig(**defaults)


def test_config_validation():
    with pytest.raises(DataError, match="distinct"):
        WyConfig(class_a="x", class_b="x")
    with pytest.raises(DataError, match="permutations"):
        WyConfig(class_a="a", class_b="b", permutations=0)
    with pytest.raises(DataError, match="alpha"):
        WyConfig(class_a="a", class_b="b", alpha=1.0)
    with pytest.raises(DataError, match="policy"):
        WyConfig(class_a="a", class_b="b", bandwidth_policy="plugin")
    with pytest.raises(DataError, match="grid_size"):
        WyConfig(class_a="a", class_b="b", grid_size=1)
    with pytest.raises(DataError, match="cv_"):
        WyConfig(class_a="a", class_b="b", cv_folds=1)


def test_trace_entries_match_independently_recomputed_statistics():
    # one feature: the trace is exactly T_{1,b}, recomputable by permuting
    # the pooled labels ourselves and rerunning the KDE arithmetic
    table = two_class_table(n_a=40, n_b=30, shift=1.0, seed=1, extra_null=False)
    cfg = scott_config(permutations=5)
    report = wy_maxT(table, ["sig"], cfg)
    pooled = np.concatenate(
        [
            table.column("sig")[table.labels == 0],
            table.column("sig")[table.labels == 1],
        ]
    )
    labels = np.repeat([0, 1], [40, 30])
    for b in range(1, 6):
        # the b-th permutation stream is keyed by (seed, 1, b)
        perm = np.random.default_rng([cfg.seed, 1, b]).permutation(labels.size)
        permuted = labels[perm]
        xa = pooled[permuted == 0]
        xb = pooled[permuted == 1]
        h_a = bandwidth_for(xa, "scott")
        h_b = bandwidth_for(xb, "scott")
        grid = make_grid([xa, xb], max(h_a, h_b), cfg.grid_size)
        pair = to_mass_pair(
            KdeModel(samples=xa, bandwidth=h_a, policy="scott"),
            KdeModel(samples=xb, bandwidth=h_b, policy="scott"),
            grid,
        )
        assert report.max_trace[b - 1] == pytest.approx(js_distance(pair), abs=1e-12)


def test_p_values_follow_the_exceedance_formula():
    table = two_class_table(shift=2.5, seed=2)
    cfg = scott_config(permutations=40)
    report = wy_maxT(table, ["sig", "noise"], cfg)
    assert report.max_trace.shape == (40,)
    for r in report.results:
        exceed = int(np.sum(report.max_trace >= r.statistic))
        assert r.p_value == pytest.approx((1 + exceed) / 41)
        if exceed == 0:
            assert r.p_display == f"<{1 / 40:.3g}"
        else:
            assert r.p_display == f"{r.p_value:.6f}"
    # strong shift beats every permutation max; pure noise does not
    assert report.p_value_of("sig") == pytest.approx(1 / 41)
    assert report.statistic_of("sig") > report.statistic_of("noise")
    assert report.p_value_of("noise") > 0.1


def test_p_value_bounds_and_monotonicity():
    table = two_class_table(shift=0.8, seed=4)
    cfg = scott_config(permutations=30)
    report = wy_maxT(table, ["sig", "noise"], cfg)
    by_stat = sorted(report.results, key=lambda r: r.statistic, reverse=True)
    lo = 1 / (cfg.permutations + 1)
    last_p = 0.0
    for r in by_stat:
        assert lo <= r.p_value <= 1.0
        assert r.p_value >= last_p  # larger statistic never has larger p
        last_p = r.p_value


def test_duplicate_features_share_the_permutation_stream():
    table = two_class_table(shift=1.0, seed=5, extra_null=False)
    twin = ColumnTable(
        {"sig": table.column("sig"), "copy": table.column("sig")},
        table.labels,
        table.vocabulary,
    )
    report = wy_maxT(twin, ["sig", "copy"], scott_config(permutations=20))
    a, b = report.results
    assert a.statistic == b.statistic
    assert a.p_value == b.p_value


def test_worker_count_does_not_change_results():
    table = two_class_table(shift=1.2, seed=6)
    cfg = scott_config(permutations=24)
    serial = wy_maxT(table, ["sig", "noise"], cfg, workers=1)
    parallel = wy_maxT(table, ["sig", "noise"], cfg, workers=3)
    assert np.array_equal(serial.max_trace, parallel.max_trace)
    for rs, rp in zip(serial.results, parallel.results):
        assert rs == rp


def test_frozen_bandwidths_are_reused_from_the_observed_fit():
    table = two_class_table(shift=1.0, seed=7)
    frozen_cfg = scott_config(permutations=15, refit_bandwidths=False)
    observed = observed_details(table, ["sig", "noise"], frozen_cfg)
    report = wy_maxT(table, ["sig", "noise"], frozen_cfg, observed=observed)
    for r, d in zip(report.results, observed):
        assert r.bandwidth_a == d.bandwidth_a
        assert r.bandwidth_b == d.bandwidth_b
    # refitting per permutation changes the null statistics
    refit = wy_maxT(table, ["sig", "noise"], scott_config(permutations=15, seed=7))
    frozen7 = wy_maxT(
        table, ["sig", "noise"],
        scott_config(permutations=15, seed=7, refit_bandwidths=False),
    )
    assert not np.array_equal(refit.max_trace, frozen7.max_trace)


def test_precomputed_observed_must_match_the_feature_list():
    table = two_class_table(seed=8)
    cfg = scott_config(permutations=5)
    observed = observed_details(table, ["sig"], cfg)
    with pytest.raises(DataError, match="match"):
        wy_maxT(table, ["sig", "noise"], cfg, observed=observed)
    with_obs = wy_maxT(table, ["sig"], cfg, observed=observed)
    without = wy_maxT(table, ["sig"], cfg)
    assert with_obs.results == without.results


def test_observed_details_are_symmetric_in_the_class_pair():
    table = two_class_table(shift=0.5, seed=9)
    cfg = scott_config()
    details = observed_details(table, ["sig", "noise"], cfg)
    swapped = observed_details(
        table, ["sig", "noise"], scott_config(class_a="norm", class_b="atk")
    )
    for d, s in zip(details, swapped):
        assert s.feature == d.feature
        assert s.statistic == pytest.approx(d.statistic, abs=1e-15)
        assert (s.bandwidth_a, s.bandwidth_b) == (d.bandwidth_b, d.bandwidth_a)
        assert (s.n_a, s.n_b) == (d.n_b, d.n_a)


def test_cv_policy_runs_and_is_deterministic():
    table = two_class_table(n_a=40, n_b=40, shift=1.5, seed=10, extra_null=False)
    cfg = WyConfig(
        class_a="atk", class_b="norm", permutations=8,
        bandwidth_policy="cv", grid_size=64, seed=2,
        cv_candidates=5, cv_folds=3,
    )
    r1 = wy_maxT(table, ["sig"], cfg)
    r2 = wy_maxT(table, ["sig"], cfg)
    assert r1.results == r2.results
    assert np.array_equal(r1.max_trace, r2.max_trace)
    assert r1.results[0].bandwidth_a > 0.0


def test_small_groups_and_constant_features_warn():
    table = two_class_table(n_a=10, n_b=25, seed=11, extra_null=False)
    with pytest.warns(DataQualityWarning, match="only 10 rows"):
        wy_maxT(table, ["sig"], scott_config(permutations=3))
    flat = ColumnTable(
        {"flat": np.zeros(50)},
        np.repeat([0, 1], 25),
        LabelVocabulary(names=("atk", "norm")),
    )
    with pytest.warns(DataQualityWarning) as records:
        details = observed_details(flat, ["flat"], scott_config(permutations=3))
    assert any("constant" in str(r.message) for r in records)
    assert details[0].statistic == 0.0


def test_small_class_warns_once_per_test():
    table = two_class_table(n_a=10, n_b=25, seed=11)
    for workers in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            wy_maxT(table, ["sig", "noise"], scott_config(permutations=4), workers=workers)
        small = [w for w in caught if "only 10 rows" in str(w.message)]
        assert len(small) == 1


def test_missing_class_and_empty_features_fail():
    table = two_class_table(seed=12)
    cfg = scott_config(permutations=3)
    with pytest.raises(DataError, match="at least one feature"):
        wy_maxT(table, [], cfg)
    only_a = ColumnTable(
        {"sig": np.arange(5.0)}, np.zeros(5, dtype=np.int64),
        LabelVocabulary(names=("atk", "norm")),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataQualityWarning)
        with pytest.raises(DataError, match="'norm' has no rows"):
            observed_details(only_a, ["sig"], cfg)


def test_decide_applies_the_threshold():
    table = two_class_table(shift=2.5, seed=13)
    report = wy_maxT(table, ["sig", "noise"], scott_config(permutations=60))
    decision = decide(report)
    assert decision.alpha == 0.05
    assert decision.rejected["sig"] is True
    assert decision.rejected["noise"] is False
    assert decision.family_reject
    strict = decide(report, alpha=1 / 62)
    assert not strict.rejected["noise"]
    with pytest.raises(DataError):
        decide(report, alpha=0.0)
