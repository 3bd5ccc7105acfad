"""maxT permutation test: seeding, shared permutations, adjusted p-values."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from idstats.density import KdeModel, bandwidth_for, js_distance, make_grid, to_mass_pair
from idstats.errors import ConfigError, DataError, DataQualityWarning
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


# master seed of every test below that does not pick its own
SEED = 3


def scott_config(**kwargs):
    defaults = dict(
        classes=("atk", "norm"), permutations=50, bandwidth="scott", grid_size=128,
    )
    defaults.update(kwargs)
    return WyConfig(**defaults)


def test_config_validation():
    with pytest.raises(ConfigError, match="distinct"):
        WyConfig(classes=("x", "x"))
    with pytest.raises(ConfigError, match="two non-empty class names"):
        WyConfig(classes=("", "b"))
    with pytest.raises(ConfigError, match="permutations"):
        WyConfig(permutations=0)
    with pytest.raises(ConfigError, match="alpha"):
        WyConfig(alpha=1.0)
    with pytest.raises(ConfigError, match="policy"):
        WyConfig(bandwidth="plugin")
    with pytest.raises(ConfigError, match="grid_size"):
        WyConfig(grid_size=1)
    with pytest.raises(ConfigError, match="cv_"):
        WyConfig(cv_folds=1)
    with pytest.raises(ConfigError, match="features"):
        WyConfig(features=())


def test_the_test_needs_a_class_pair():
    table = two_class_table(seed=0)
    with pytest.raises(ConfigError, match="class pair"):
        observed_details(table, ["sig"], scott_config(classes=None))


def test_trace_entries_match_independently_recomputed_statistics():
    # one feature: the trace is exactly T_{1,b}, recomputable by permuting
    # the pooled labels ourselves and rerunning the KDE arithmetic
    table = two_class_table(n_a=40, n_b=30, shift=1.0, seed=1, extra_null=False)
    cfg = scott_config(permutations=5)
    report = wy_maxT(observed_details(table, ["sig"], cfg, seed=SEED))
    pooled = np.concatenate(
        [
            table.column("sig")[table.labels == 0],
            table.column("sig")[table.labels == 1],
        ]
    )
    labels = np.repeat([0, 1], [40, 30])
    for b in range(1, 6):
        # the b-th permutation stream is keyed by (seed, 1, b)
        perm = np.random.default_rng([SEED, 1, b]).permutation(labels.size)
        permuted = labels[perm]
        xa = pooled[permuted == 0]
        xb = pooled[permuted == 1]
        h_a = bandwidth_for(xa, "scott")
        h_b = bandwidth_for(xb, "scott")
        grid = make_grid([xa, xb], max(h_a, h_b), cfg.grid_size)
        pair = to_mass_pair(KdeModel(xa, h_a), KdeModel(xb, h_b), grid)
        assert report.max_trace[b - 1] == pytest.approx(js_distance(pair), abs=1e-12)


def test_p_values_follow_the_exceedance_formula():
    table = two_class_table(shift=2.5, seed=2)
    cfg = scott_config(permutations=40)
    report = wy_maxT(observed_details(table, ["sig", "noise"], cfg, seed=SEED))
    assert report.max_trace.shape == (40,)
    for r in report.results:
        exceed = int(np.sum(report.max_trace >= r.statistic))
        assert r.p_value == pytest.approx((1 + exceed) / 41)
        if exceed == 0:
            assert r.p_display == f"<{1 / 40:.3g}"
        else:
            assert r.p_display == f"{r.p_value:.6f}"
    # strong shift beats every permutation max; pure noise does not
    by_feature = {r.feature: r for r in report.results}
    assert by_feature["sig"].p_value == pytest.approx(1 / 41)
    assert by_feature["sig"].statistic > by_feature["noise"].statistic
    assert by_feature["noise"].p_value > 0.1


def test_p_value_bounds_and_monotonicity():
    table = two_class_table(shift=0.8, seed=4)
    cfg = scott_config(permutations=30)
    report = wy_maxT(observed_details(table, ["sig", "noise"], cfg, seed=SEED))
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
    cfg = scott_config(permutations=20)
    report = wy_maxT(observed_details(twin, ["sig", "copy"], cfg, seed=SEED))
    a, b = report.results
    assert a.statistic == b.statistic
    assert a.p_value == b.p_value


def test_worker_count_does_not_change_results():
    table = two_class_table(shift=1.2, seed=6)
    cfg = scott_config(permutations=24)
    serial = wy_maxT(
        observed_details(table, ["sig", "noise"], cfg, workers=1, seed=SEED), workers=1
    )
    parallel = wy_maxT(
        observed_details(table, ["sig", "noise"], cfg, workers=3, seed=SEED), workers=3
    )
    assert np.array_equal(serial.max_trace, parallel.max_trace)
    for rs, rp in zip(serial.results, parallel.results):
        assert rs == rp


@pytest.mark.parametrize("permutations", [1, 7])
def test_a_task_per_permutation_gives_the_same_test_at_any_pool_size(permutations):
    # B = 1 is a single task; B = 7 is not a multiple of the 3 workers
    table = two_class_table(shift=1.2, seed=6)
    cfg = scott_config(permutations=permutations)
    observed = observed_details(table, ["sig", "noise"], cfg, seed=SEED)
    serial = wy_maxT(observed, workers=1)
    pooled = wy_maxT(observed, workers=3)
    assert serial.max_trace.size == permutations
    assert serial.max_trace.tobytes() == pooled.max_trace.tobytes()
    assert serial.results == pooled.results


def test_the_report_carries_the_observation():
    table = two_class_table(shift=0.7, seed=8)
    cfg = WyConfig(
        classes=("atk", "norm"), permutations=6,
        bandwidth="cv", grid_size=64, cv_candidates=4, cv_folds=3,
    )
    observed = observed_details(table, ["sig", "noise"], cfg, seed=SEED)
    report = wy_maxT(observed)
    assert report.config is observed.cfg
    for r, d in zip(report.results, observed.details, strict=True):
        assert (r.feature, r.statistic, r.bandwidth_a, r.bandwidth_b, r.n_a, r.n_b) == (
            d.feature, d.statistic, d.bandwidth_a, d.bandwidth_b, d.n_a, d.n_b
        )
    # the permutations use the observation's seed: another seed's observation
    # of the same table draws another null
    other = wy_maxT(observed_details(table, ["sig", "noise"], cfg, seed=SEED + 1))
    assert not np.array_equal(report.max_trace, other.max_trace)


def test_observed_details_are_symmetric_in_the_class_pair():
    table = two_class_table(shift=0.5, seed=9)
    cfg = scott_config()
    observed = observed_details(table, ["sig", "noise"], cfg, seed=SEED)
    swapped = observed_details(
        table, ["sig", "noise"], scott_config(classes=("norm", "atk")), seed=SEED
    )
    for d, s in zip(observed.details, swapped.details, strict=True):
        assert s.feature == d.feature
        assert s.statistic == pytest.approx(d.statistic, abs=1e-15)
        assert (s.bandwidth_a, s.bandwidth_b) == (d.bandwidth_b, d.bandwidth_a)
        assert (s.n_a, s.n_b) == (d.n_b, d.n_a)


def test_cv_policy_runs_and_is_deterministic():
    table = two_class_table(n_a=40, n_b=40, shift=1.5, seed=10, extra_null=False)
    cfg = WyConfig(
        classes=("atk", "norm"), permutations=8,
        bandwidth="cv", grid_size=64, cv_candidates=5, cv_folds=3,
    )
    r1 = wy_maxT(observed_details(table, ["sig"], cfg, seed=2))
    r2 = wy_maxT(observed_details(table, ["sig"], cfg, seed=2))
    assert r1.results == r2.results
    assert np.array_equal(r1.max_trace, r2.max_trace)
    assert r1.results[0].bandwidth_a > 0.0


def test_small_groups_and_constant_features_warn():
    table = two_class_table(n_a=10, n_b=25, seed=11, extra_null=False)
    with pytest.warns(DataQualityWarning, match="only 10 rows"):
        observed_details(table, ["sig"], scott_config(permutations=3), seed=SEED)
    flat = ColumnTable(
        {"flat": np.zeros(50)},
        np.repeat([0, 1], 25),
        LabelVocabulary(names=("atk", "norm")),
    )
    with pytest.warns(DataQualityWarning) as records:
        observed = observed_details(flat, ["flat"], scott_config(permutations=3), seed=SEED)
    assert any("constant" in str(r.message) for r in records)
    assert observed.details[0].statistic == 0.0


def test_a_constant_feature_warning_names_the_caller_at_every_worker_count():
    table = ColumnTable(
        {"flat": np.zeros(50), "sig": np.arange(50.0)},
        np.repeat([0, 1], 25),
        LabelVocabulary(names=("atk", "norm")),
    )
    places = []
    for workers in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            observed_details(
                table, ["flat", "sig"], scott_config(permutations=3), workers=workers, seed=SEED
            )
        places += [(w.filename, w.lineno) for w in caught if "constant" in str(w.message)]
    assert len(places) == 2
    assert places[0] == places[1]
    assert places[0][0] == __file__


def test_small_class_warns_once_per_test():
    table = two_class_table(n_a=10, n_b=25, seed=11)
    for workers in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            observed = observed_details(
                table, ["sig", "noise"], scott_config(permutations=4),
                workers=workers, seed=SEED,
            )
            wy_maxT(observed, workers=workers)
        small = [w for w in caught if "only 10 rows" in str(w.message)]
        assert len(small) == 1


def test_missing_class_and_empty_features_fail():
    table = two_class_table(seed=12)
    cfg = scott_config(permutations=3)
    with pytest.raises(DataError, match="at least one feature"):
        observed_details(table, [], cfg, seed=SEED)
    only_a = ColumnTable(
        {"sig": np.arange(5.0)}, np.zeros(5, dtype=np.int64),
        LabelVocabulary(names=("atk", "norm")),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataQualityWarning)
        with pytest.raises(DataError, match="'norm' has no rows"):
            observed_details(only_a, ["sig"], cfg, seed=SEED)


def test_decide_applies_the_threshold():
    table = two_class_table(shift=2.5, seed=13)
    cfg = scott_config(permutations=60)
    report = wy_maxT(observed_details(table, ["sig", "noise"], cfg, seed=SEED))
    decision = decide(report)
    assert decision.alpha == 0.05
    assert decision.rejected["sig"] is True
    assert decision.rejected["noise"] is False
    assert decision.family_reject

    def at_level(alpha):
        # the level is the test's own: it comes from the report's config
        return decide(replace(report, config=replace(report.config, alpha=alpha)))

    strict = at_level(1 / 62)
    assert strict.alpha == 1 / 62
    assert not strict.rejected["noise"]
    assert not at_level(1 / 200).family_reject
    with pytest.raises(ConfigError):
        at_level(0.0)
