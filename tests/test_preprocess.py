"""Scaling, engineered features, correlations, and correlated-feature drops."""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from idstats.errors import DataError, DataQualityWarning
from idstats.preprocess import (
    EngineeredFeature,
    _bitwise_inversions,
    correlation_matrix,
    drop_correlated,
    engineer_features,
    kendall_tau_b,
    pearson_corr,
    quartiles,
    rank_column,
    robust_fit,
    robust_transform,
)
from idstats.tabular import ColumnTable, EncoderState, LabelVocabulary, apply_encoders


def table_from(**columns):
    cols = {k: np.asarray(v, dtype=np.float64) for k, v in columns.items()}
    n = len(next(iter(cols.values())))
    labels = np.zeros(n, dtype=np.int64)
    labels[n // 2 :] = 1
    return ColumnTable(cols, labels, LabelVocabulary(names=("a", "b")))


def kendall_by_pairs(x, y):
    """O(n^2) tau-b: sign counting plus the textbook tie correction."""
    n = len(x)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            s = np.sign(x[i] - x[j]) * np.sign(y[i] - y[j])
            if s > 0:
                concordant += 1
            elif s < 0:
                discordant += 1
    n0 = n * (n - 1) // 2
    tie = lambda v: sum(c * (c - 1) // 2 for c in np.unique(v, return_counts=True)[1])
    denom = math.sqrt((n0 - tie(x)) * (n0 - tie(y)))
    return (concordant - discordant) / denom if denom > 0 else 0.0


def merge_inversions(a):
    """Pairs i < j with a[i] > a[j], by merge-count recursion in O(n log n)."""

    def recurse(v):
        n = len(v)
        if n <= 64:
            count = int(np.sum(np.triu(v[:, None] > v[None, :], k=1)))
            return np.sort(v, kind="stable"), count
        mid = n // 2
        left, c_left = recurse(v[:mid])
        right, c_right = recurse(v[mid:])
        # pairs (i in left, j in right) with left[i] > right[j]
        right_pos = np.searchsorted(left, right, side="right")
        cross = int(np.sum(len(left) - right_pos))
        pos = right_pos + np.arange(len(right))
        merged = np.empty(n, dtype=v.dtype)
        merged[pos] = right
        mask = np.ones(n, dtype=bool)
        mask[pos] = False
        merged[mask] = left
        return merged, c_left + c_right + cross

    return recurse(np.asarray(a))[1]


def kendall_by_merge_count(x, y):
    """O(n log n) tau-b: lexsort by (x, then y), merge-count the y inversions."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    tie = lambda v: int(np.sum((c := np.unique(v, return_counts=True)[1]) * (c - 1) // 2))
    n0, n1, n2 = n * (n - 1) // 2, tie(x), tie(y)
    # joint-tie pairs: run lengths of equal (x, y) in the lexicographic order
    same = (xs[1:] == xs[:-1]) & (ys[1:] == ys[:-1])
    run_lengths = np.diff(np.concatenate(([-1], np.flatnonzero(~same), [n - 1])))
    n3 = int(np.sum(run_lengths * (run_lengths - 1) // 2))
    num = (n0 - n1 - n2 + n3) - 2 * merge_inversions(ys)
    denom = np.sqrt(float(n0 - n1) * float(n0 - n2))
    return float(np.clip(num / denom, -1.0, 1.0))


def inversions_by_pairs(a):
    a = np.asarray(a)
    return int(np.sum(np.triu(a[:, None] > a[None, :], k=1)))


def test_quantile_uses_linear_interpolation():
    assert quartiles(np.array([1.0, 2.0, 3.0, 4.0, 5.0])) == (2.0, 3.0, 4.0)
    # h = q(n-1) on [1..4]: 0.75, 1.5 and 2.25 into the sorted values
    assert quartiles(np.array([4.0, 1.0, 3.0, 2.0])) == pytest.approx((1.75, 2.5, 3.25))


def test_quartiles_equal_the_three_scalar_quantiles_bit_for_bit():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 4, 5, 7, 100, 1001):
        for x in (rng.normal(size=n), rng.integers(0, 4, size=n) * 0.1, np.full(n, -0.0)):
            expected = [np.quantile(x, q) for q in (0.25, 0.5, 0.75)]
            assert np.array(quartiles(x)).tobytes() == np.array(expected).tobytes()


def test_robust_scaler_fixed_vector():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    state = robust_fit(x)
    assert state.median == 3.0
    assert state.iqr == 2.0
    out = robust_transform(x, state)
    assert out.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_robust_scaler_centers_median_zero_iqr_one():
    for seed in range(5):
        x = np.random.default_rng(seed).normal(3.0, 5.0, size=501)
        out = robust_transform(x, robust_fit(x))
        assert np.median(out) == pytest.approx(0.0, abs=1e-12)
        q1, _, q3 = quartiles(out)
        assert q3 - q1 == pytest.approx(1.0)


def test_robust_scaler_degenerate_iqr_keeps_values_finite():
    x = np.array([5.0, 5.0, 5.0, 5.0, 100.0])
    state = robust_fit(x)
    assert state.iqr == 0.0
    out = robust_transform(x, state)
    # divisor falls back to 1: pure centering
    assert out.tolist() == [0.0, 0.0, 0.0, 0.0, 95.0]


def test_robust_scaler_state_json_form_is_its_fields():
    state = robust_fit(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert asdict(state) == {"median": 3.0, "iqr": 2.0}


def test_engineer_features_power_and_reciprocal():
    t = table_from(v=[-8.0, -1.0, 0.0, 1.0, 8.0], w=[1.0, 2.0, 4.0, 5.0, 10.0])
    spec = [
        EngineeredFeature("v", "power", 1.0 / 3.0),
        EngineeredFeature("w", "reciprocal"),
    ]
    out = engineer_features(t, spec)
    cube = out.column(spec[0].output_name)
    # sign-preserving power: odd symmetry
    assert cube[0] == pytest.approx(-2.0)
    assert cube[4] == pytest.approx(2.0)
    assert cube[2] == 0.0
    recip = out.column("w_recip")
    assert recip[0] == pytest.approx(1.0, rel=1e-8)
    assert recip[3] == pytest.approx(0.2, rel=1e-8)
    # source columns are untouched
    assert out.column("v").tolist() == [-8.0, -1.0, 0.0, 1.0, 8.0]


@pytest.mark.parametrize(
    "item, value, column",
    [
        # sign(0)·0^-0.5 = 0·inf is NaN
        (EngineeredFeature("v", "power", -0.5), 0.0, "v_pow-0.5"),
        # 1 / (x + ε) at x = −ε is 1 / 0
        (EngineeredFeature("v", "reciprocal"), -1e-9, "v_recip"),
    ],
    ids=["power_of_zero", "reciprocal_of_zero"],
)
def test_engineer_features_rejects_non_finite_values(item, value, column):
    t = table_from(v=[1.0, value, 4.0, 9.0])
    with pytest.raises(DataError, match=f"engineered column '{column}' has 1 non-finite"):
        engineer_features(t, [item])


def test_engineer_features_refuses_an_existing_column():
    t = table_from(x=[1.0, 4.0], x_pow2=[7.0, 7.0])
    with pytest.raises(DataError, match="'x_pow2' is already a column"):
        engineer_features(t, [EngineeredFeature("x", "power", 2.0)])
    twice = [EngineeredFeature("x", "reciprocal")] * 2
    with pytest.raises(DataError, match="'x_recip' is already a column"):
        engineer_features(table_from(x=[1.0, 4.0]), twice)


def test_dummy_indicators_refuse_an_existing_column():
    labels, vocab = np.array([0, 1]), LabelVocabulary(names=("a", "b"))
    # categorical Port with category 80 next to a numeric Port80
    cols = {"Port": np.array(["80", "443"], object), "Port80": np.array([1.0, 2.0])}
    state = EncoderState(dummy={"Port": ["443", "80"]})
    with pytest.raises(DataError, match="dummy indicator 'Port80' is already a column"):
        apply_encoders(ColumnTable(cols, labels, vocab), state)
    # a + bc and ab + c both name the indicator abc
    cols = {"a": np.array(["bc", "x"], object), "ab": np.array(["c", "x"], object)}
    state = EncoderState(dummy={"a": ["bc", "x"], "ab": ["c", "x"]})
    with pytest.raises(DataError, match="dummy indicator 'abc' is already a column"):
        apply_encoders(ColumnTable(cols, labels, vocab), state)


def test_engineered_feature_validation():
    with pytest.raises(DataError):
        EngineeredFeature("v", "log")
    with pytest.raises(DataError):
        EngineeredFeature("v", "power")  # exponent required
    assert EngineeredFeature("v", "power", 2.0).output_name == "v_pow2"
    assert EngineeredFeature("v", "reciprocal").output_name == "v_recip"


def test_pearson_known_values_and_degenerate_input():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson_corr(x, 2 * x + 1) == pytest.approx(1.0)
    assert pearson_corr(x, -x) == pytest.approx(-1.0)
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=2000), rng.normal(size=2000)
    assert abs(pearson_corr(a, b)) < 0.08
    with pytest.warns(DataQualityWarning):
        assert pearson_corr(np.ones(5), np.arange(5.0)) == 0.0
    with pytest.raises(DataError):
        pearson_corr(np.ones(3), np.ones(4))


def test_pearson_matches_scipy_at_bench_size():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(4)
    x = rng.lognormal(size=24_000)
    for y in (0.3 * x + rng.normal(size=x.size), rng.normal(size=x.size), -x):
        expected = stats.pearsonr(x, y).statistic
        assert pearson_corr(x, y) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_kendall_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n = int(rng.integers(3, 200))
        # integer-valued draws force plenty of ties, including joint ties
        x = rng.integers(0, 6, size=n).astype(np.float64)
        y = rng.integers(0, 6, size=n).astype(np.float64)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        fast = kendall_tau_b(x, y)
        slow = kendall_by_pairs(x, y)
        assert fast == pytest.approx(slow, abs=1e-12), f"trial {trial}"


def test_kendall_continuous_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(5, 150))
        x = rng.normal(size=n)
        y = 0.6 * x + rng.normal(size=n)
        assert kendall_tau_b(x, y) == pytest.approx(kendall_by_pairs(x, y), abs=1e-12)


def test_kendall_perfect_and_constant_cases():
    x = np.arange(50.0)
    assert kendall_tau_b(x, x ** 3) == pytest.approx(1.0)  # monotone invariance
    assert kendall_tau_b(x, -x) == pytest.approx(-1.0)
    with pytest.warns(DataQualityWarning):
        assert kendall_tau_b(np.ones(10), np.arange(10.0)) == 0.0


def test_correlation_matrix_shape_and_symmetry():
    rng = np.random.default_rng(3)
    t = table_from(
        a=rng.normal(size=40), b=rng.normal(size=40), c=rng.normal(size=40)
    )
    for method in ("pearson", "kendall"):
        m = correlation_matrix(t, method)
        assert m.shape == (3, 3)
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 1.0)
    # rows and columns follow the table's column order
    pair = (t.column("a"), t.column("c"))
    assert correlation_matrix(t, "pearson")[0, 2] == pearson_corr(*pair)
    assert correlation_matrix(t, "kendall")[0, 2] == kendall_tau_b(*pair)
    with pytest.raises(DataError):
        correlation_matrix(t, "spearman")


def test_drop_correlated_removes_duplicate_column():
    rng = np.random.default_rng(5)
    base = rng.normal(size=200)
    t = table_from(
        x=base,
        x_copy=base * 3.0 + 0.5,  # perfectly correlated with x
        z=rng.normal(size=200),
    )
    retained, dropped = drop_correlated(t, threshold=0.9)
    assert retained == ["x", "z"]
    assert [d.name for d in dropped] == ["x_copy"]
    assert "x" in dropped[0].reason
    assert "0.9" in dropped[0].reason


def test_drop_correlated_no_drops_on_independent_noise():
    rng = np.random.default_rng(11)
    t = table_from(**{f"f{i}": rng.normal(size=1000) for i in range(4)})
    retained, dropped = drop_correlated(t, threshold=0.7)
    assert retained == [f"f{i}" for i in range(4)]
    assert dropped == []


def test_drop_correlated_catches_monotone_nonlinear_link():
    # Kendall flags monotone dependence that Pearson understates
    rng = np.random.default_rng(13)
    x = rng.uniform(0.0, 4.0, size=300)
    t = table_from(x=x, y=np.exp(2.5 * x), z=rng.normal(size=300))
    retained, dropped = drop_correlated(t, threshold=0.95)
    assert len(dropped) == 1
    assert dropped[0].name in ("x", "y")
    assert "kendall" in dropped[0].reason


def test_drop_correlated_requires_two_columns():
    t = table_from(only=np.arange(4.0))
    with pytest.raises(DataError):
        drop_correlated(t)


def test_drop_correlated_keeps_one_of_an_identical_trio():
    base = np.random.default_rng(17).normal(size=100)
    t = table_from(a=base, b=base.copy(), c=base.copy())
    retained, dropped = drop_correlated(t, threshold=0.99)
    assert len(retained) == 1
    assert len(dropped) == 2


def test_drop_correlated_relays_kendall_warnings_from_workers():
    rng = np.random.default_rng(21)
    x = rng.normal(size=80)
    t = table_from(
        x=x, flat=np.ones(80), near=x + rng.normal(0.0, 0.1, 80), noise=rng.normal(size=80)
    )
    runs = []
    for workers in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = drop_correlated(t, threshold=0.7, workers=workers)
        runs.append((result, [(w.category, str(w.message)) for w in caught]))
    assert runs[1] == runs[0]
    kendall = [m for c, m in runs[0][1] if c is DataQualityWarning and "kendall" in m]
    assert len(kendall) == 3  # flat against each of the other three columns
    assert {d.name for d in runs[0][0][1]} <= {"x", "near"}
    assert len(runs[0][0][1]) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kendall_tau_b_matches_scipy_on_tied_data(seed):
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 6, size=400).astype(np.float64)
    y = np.where(rng.random(400) < 0.3, x, rng.integers(0, 4, size=400)).astype(np.float64)
    expected = stats.kendalltau(x, y, variant="b").statistic
    assert kendall_tau_b(x, y) == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert kendall_tau_b(x, -y) == pytest.approx(-expected, rel=1e-12, abs=1e-15)


def test_bitwise_inversions_match_pair_count_for_every_short_length():
    rng = np.random.default_rng(31)
    for n in range(301):
        for a in (
            rng.integers(0, max(n, 1), size=n),
            rng.integers(0, 3, size=n),  # heavy ties
            np.full(n, 5),
            np.arange(n)[::-1],
        ):
            assert _bitwise_inversions(a) == inversions_by_pairs(a), n


@pytest.mark.parametrize("n", [2 ** k + d for k in range(1, 11) for d in (-1, 0, 1)])
def test_bitwise_inversions_at_powers_of_two(n):
    rng = np.random.default_rng(n)
    for a in (rng.permutation(n), rng.integers(0, n, size=n), np.arange(n)[::-1]):
        assert _bitwise_inversions(a) == inversions_by_pairs(a)


def test_kendall_equals_merge_count_reference_exactly():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(3, 200))
        x = rng.integers(0, 6, size=n).astype(np.float64)
        y = rng.integers(0, 6, size=n).astype(np.float64)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        assert kendall_tau_b(x, y) == kendall_by_merge_count(x, y)
    x = rng.normal(size=24_000)
    y = np.round(0.4 * x + rng.normal(size=24_000), 2)  # continuous against tied
    for a, b in ((x, y), (y, x), (x, -x), (np.round(x, 1), y)):
        assert kendall_tau_b(a, b) == kendall_by_merge_count(a, b)


def test_kendall_counts_signed_zeros_as_one_tie():
    x = np.array([0.0, -0.0, 1.0, 2.0, -0.0])
    y = np.array([3.0, 1.0, 2.0, 0.0, 4.0])
    assert kendall_tau_b(x, y) == kendall_by_pairs(np.abs(x), y)
    assert kendall_tau_b(x, y) == kendall_tau_b(np.abs(x), y)


KENDALL_COLUMNS = {
    "tie_free": np.random.default_rng(5).normal(size=700),
    "tie_free_too": np.random.default_rng(6).normal(size=700),
    "tied": np.round(np.random.default_rng(7).normal(size=700), 1),
    "two_valued": (np.random.default_rng(8).random(700) < 0.3).astype(np.float64),
}


@pytest.mark.parametrize("a", sorted(KENDALL_COLUMNS))
@pytest.mark.parametrize("b", sorted(KENDALL_COLUMNS))
def test_kendall_is_symmetric_and_takes_ranked_columns_bit_for_bit(a, b):
    x, y = KENDALL_COLUMNS[a], KENDALL_COLUMNS[b]
    tau = kendall_tau_b(x, y)
    assert tau == kendall_by_merge_count(x, y)
    for got in (
        kendall_tau_b(y, x),
        kendall_tau_b(rank_column(x), rank_column(y)),
        kendall_tau_b(rank_column(x), y),
        kendall_tau_b(rank_column(y), rank_column(x)),
    ):
        assert np.float64(got).tobytes() == np.float64(tau).tobytes()


def test_rank_column_keeps_the_sorting_order_of_a_tie_free_column_only():
    x = np.array([0.5, -1.0, 3.0, 0.0, -0.0])
    ranked = rank_column(x)
    assert ranked.ranks.tolist() == [2, 0, 3, 1, 1]
    assert (ranked.distinct, ranked.tied_pairs, ranked.order) == (4, 1, None)
    tie_free = rank_column(x[:4])
    assert tie_free.order.tolist() == np.argsort(x[:4]).tolist()
    assert tie_free.tied_pairs == 0


def test_a_constant_ranked_column_still_warns():
    x = np.arange(10.0)
    for flat in (np.ones(10), rank_column(np.ones(10))):
        for pair in ((flat, x), (x, flat), (flat, rank_column(x))):
            with pytest.warns(DataQualityWarning, match="constant input"):
                assert kendall_tau_b(*pair) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kendall_rejects_non_finite_input(bad):
    x = np.arange(6.0)
    x[2] = bad
    with pytest.raises(DataError, match="finite"):
        kendall_tau_b(x, np.arange(6.0))
    with pytest.raises(DataError, match="finite"):
        kendall_tau_b(np.arange(6.0), x)


def test_kendall_matrix_does_not_depend_on_workers():
    rng = np.random.default_rng(23)
    x = rng.normal(size=500)
    t = table_from(
        x=x,
        tied=np.round(x + rng.normal(size=500), 1),
        coarse=rng.integers(0, 4, size=500),
        noise=rng.normal(size=500),
    )
    serial = correlation_matrix(t, "kendall", workers=1)
    pooled = correlation_matrix(t, "kendall", workers=2)
    assert serial.tobytes() == pooled.tobytes()
