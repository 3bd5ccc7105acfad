"""Bandwidth rules, KDE evaluation, shared grids, JS distance, overlap."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import idstats.density as density
from idstats.density import (
    DensityPair,
    EvalGrid,
    cv_bandwidth,
    default_cv_candidates,
    KdeModel,
    bandwidth_for,
    grid_density,
    js_distance,
    js_distance_from_masses,
    kde_eval,
    make_grid,
    overlap_coefficient,
    overlap_intervals,
    scott_bandwidth,
    shape_summary,
    to_mass_pair,
)
from idstats.errors import DataError, DataQualityWarning
from idstats.preprocess import quartiles
from idstats.tabular import ColumnTable, LabelVocabulary

SQRT_2PI = math.sqrt(2.0 * math.pi)


def test_scott_bandwidth_known_value():
    x = np.random.default_rng(5).normal(0.0, 1.0, 32)
    # sigma_hat * n^(-1/5) with ddof=1
    assert np.std(x, ddof=1) == pytest.approx(0.875448, abs=1e-6)
    assert scott_bandwidth(x) == pytest.approx(0.875448 * 32 ** -0.2, abs=1e-6)
    assert scott_bandwidth(x) == pytest.approx(0.437724, abs=1e-6)


def test_degenerate_samples_fall_back_with_warning():
    with pytest.warns(DataQualityWarning, match="single sample"):
        h = scott_bandwidth(np.array([3.0]))
    assert h == pytest.approx(1e-3 * 3.0)
    with pytest.warns(DataQualityWarning, match="zero sample spread"):
        h = scott_bandwidth(np.zeros(10))
    assert h == pytest.approx(1e-3)  # max(|x|) below 1 clamps to 1
    with pytest.raises(DataError):
        scott_bandwidth(np.array([]))


def test_default_cv_candidates_span_scott():
    x = np.random.default_rng(7).normal(0.0, 1.0, 100)
    cand = default_cv_candidates(x, count=15)
    h = scott_bandwidth(x)
    assert cand.size == 15
    assert cand[0] == pytest.approx(0.1 * h)
    assert cand[-1] == pytest.approx(10.0 * h)
    assert np.all(np.diff(cand) > 0)


def test_cv_bandwidth_picks_the_plausible_candidate():
    x = np.random.default_rng(3).normal(0.0, 1.0, 200)
    # 0.01 overfits, 10.0 oversmooths; held-out likelihood favors 0.5
    h = cv_bandwidth(x, candidates=np.array([0.01, 0.5, 10.0]), folds=5, seed=0)
    assert h == 0.5


def test_cv_bandwidth_ties_go_to_the_largest():
    x = np.random.default_rng(4).normal(0.0, 1.0, 50)
    h = cv_bandwidth(x, candidates=np.array([0.7, 0.7, 0.7]), folds=5, seed=0)
    assert h == 0.7
    # duplicated winner: the scan keeps the last (largest-index) candidate
    assert cv_bandwidth(x, candidates=np.array([0.7, 0.7]), folds=5, seed=1) == 0.7


def test_cv_bandwidth_validates_inputs():
    x = np.arange(10.0)
    with pytest.raises(DataError, match="folds"):
        cv_bandwidth(x, folds=1)
    with pytest.raises(DataError, match="n >= folds"):
        cv_bandwidth(np.arange(3.0), folds=5)
    with pytest.raises(DataError, match="empty"):
        cv_bandwidth(x, candidates=np.array([]))
    with pytest.raises(DataError, match="positive"):
        cv_bandwidth(x, candidates=np.array([0.5, -1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bandwidth_rules_reject_a_non_finite_sample(bad):
    x = np.append(np.random.default_rng(36).normal(0.0, 1.0, 200), bad)
    for rule in (scott_bandwidth, cv_bandwidth):
        with pytest.raises(DataError, match=f"{rule.__name__}: the sample holds NaN"):
            rule(x)
    # the error names the sample, not the bandwidth fitted from it
    with pytest.raises(DataError, match="scott_bandwidth: the sample"):
        bandwidth_for(x, "scott")
    with pytest.raises(DataError, match="cv_bandwidth: the sample"):
        cv_bandwidth(x, candidates=np.array([0.5, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cv_bandwidth_rejects_non_finite_candidates(bad):
    x = np.random.default_rng(37).normal(0.0, 1.0, 50)
    for cand in ([bad], [0.5, bad]):
        with pytest.raises(DataError, match="candidates must be finite and positive"):
            cv_bandwidth(x, candidates=np.array(cand))


def loop_cv_scores(x, fold_of, folds, cand):
    """Reference scorer: per fold and candidate, plain Gaussian sums over the
    training folds (the loop the pair scorer replaced; no kernel cut-off)."""
    scores = np.zeros(cand.size)
    for f in range(folds):
        held, train = x[fold_of == f], x[fold_of != f]
        for ci, h in enumerate(cand):
            z = np.subtract.outer(held / h, train / h)
            dens = np.exp(-0.5 * z * z).sum(axis=1) / (train.size * h * SQRT_2PI)
            scores[ci] += np.sum(np.log(np.maximum(dens, density.DENSITY_FLOOR)))
    return scores


def cv_folds_of(n, folds, seed):
    """The fold assignment cv_bandwidth draws for (n, folds, seed)."""
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[np.random.default_rng(seed).permutation(n)] = np.arange(n) % folds
    return fold_of


CV_FIXTURES = {
    "heavy_tailed_gamma": (np.random.default_rng(31).gamma(0.4, 50.0, 600), 3),
    "integer_counts_with_ties": (
        np.random.default_rng(32).poisson(3.0, 400).astype(np.float64), 5,
    ),
    "bounded_beta": (np.random.default_rng(33).beta(0.5, 0.5, 300), 3),
    "n_equal_to_folds": (np.array([0.0, 0.3, 1.1, 4.0, 9.5]), 5),
    "n_not_divisible_by_folds": (np.random.default_rng(34).normal(0, 1, 103), 4),
}


@pytest.mark.parametrize("name", sorted(CV_FIXTURES))
@pytest.mark.parametrize("seed", [0, 7])
def test_pair_cv_scores_match_the_per_fold_loop(name, seed):
    x, folds = CV_FIXTURES[name]
    cand = default_cv_candidates(x, 12)
    fold_of = cv_folds_of(x.size, folds, seed)
    want = loop_cv_scores(x, fold_of, folds, cand)
    got = density._pair_cv_scores(x, fold_of, folds, cand)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
    # the pick: the best reference score, ties to the largest bandwidth
    best = max(range(cand.size), key=lambda ci: (want[ci], ci))
    assert cv_bandwidth(x, candidates=cand, folds=folds, seed=seed) == cand[best]


def test_pair_cv_scores_do_not_depend_on_the_block_size(monkeypatch):
    x, folds = CV_FIXTURES["n_not_divisible_by_folds"]
    cand = default_cv_candidates(x, 6)
    fold_of = cv_folds_of(x.size, folds, 3)
    whole = density._pair_cv_scores(x, fold_of, folds, cand)
    # 103 distinct values in folds of 25-26: fold 0's 26 rows face 77 later
    # columns, 2002 cells, one tile at the default block. 7 * 26 cells make
    # tiles of 2 rows, the last one of a fold short; 16 cells also split the
    # columns, into tiles of 1 row and 16 columns.
    assert x.size // folds * (x.size - x.size // folds) < density._EXACT_BLOCK
    for block in (7 * 26, 16):
        monkeypatch.setattr(density, "_EXACT_BLOCK", block)
        np.testing.assert_allclose(
            density._pair_cv_scores(x, fold_of, folds, cand), whole, rtol=1e-12
        )


# The work block of the reference scorers below, in cells.
_REFERENCE_BLOCK = 4_000_000


def per_point_pair_cv_scores(x, fold_of, n_folds, candidates):
    """Reference scorer: each cross-fold pair once, one plain row or column
    sum per held-out point (no distinct values, no tiles), in blocks of up
    to 4M cells, every term through density._kernel."""
    order = np.argsort(fold_of, kind="stable")
    xs = x[order]
    bounds = np.searchsorted(fold_of[order], np.arange(n_folds + 1))
    factors = -0.5 / (candidates * candidates)
    sums = np.zeros((candidates.size, x.size))
    for f in range(n_folds):
        for g in range(f + 1, n_folds):
            g0, g1 = bounds[g], bounds[g + 1]
            chunk = max(1, _REFERENCE_BLOCK // (g1 - g0))
            for r0 in range(bounds[f], bounds[f + 1], chunk):
                r1 = min(r0 + chunk, bounds[f + 1])
                d2 = np.subtract.outer(xs[r0:r1], xs[g0:g1])
                np.multiply(d2, d2, out=d2)
                k = np.empty_like(d2)
                for ci, factor in enumerate(factors):
                    density._kernel(np.multiply(d2, factor, out=k))
                    sums[ci, r0:r1] += k.sum(axis=1)
                    sums[ci, g0:g1] += k.sum(axis=0)

    scores = np.zeros(candidates.size)
    for f in range(n_folds):
        f0, f1 = bounds[f], bounds[f + 1]
        dens = sums[:, f0:f1] / ((x.size - (f1 - f0)) * candidates[:, None] * SQRT_2PI)
        scores += np.log(np.maximum(dens, density.DENSITY_FLOOR)).sum(axis=1)
    return scores


def cv_pick(scores):
    """cv_bandwidth's pick: the best score, ties to the largest index."""
    return max(range(scores.size), key=lambda ci: (scores[ci], ci))


def assert_matches_the_per_point_scorer(x, fold_of, folds, cand):
    want = per_point_pair_cv_scores(x, fold_of, folds, cand)
    got = density._pair_cv_scores(x, fold_of, folds, cand)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert cv_pick(got) == cv_pick(want)


def test_fast_cv_path_matches_exact_scoring():
    # 5000 values once took a binned scorer; every size now scores exactly
    x = np.random.default_rng(9).normal(0.0, 2.0, 5000)
    cand = np.geomspace(0.1, 2.0, 8)
    h = cv_bandwidth(x, candidates=cand, folds=5, seed=1)
    want = per_point_pair_cv_scores(x, cv_folds_of(x.size, 5, 1), 5, cand)
    assert h == 0.36106407876409946 == cand[cv_pick(want)]


def _bounded_bimodal_beta():
    rng = np.random.default_rng(0)
    return np.concatenate([rng.beta(6.0, 4.0, 2400), rng.beta(1.6, 12.0, 2400)])


@pytest.mark.parametrize("sample, pick", [
    (_bounded_bimodal_beta(), 0.008190424070927706),
    (np.random.default_rng(0).gamma(0.5, 2.0, 5000), 0.07115184651782623),
], ids=["bimodal_beta_4800", "gamma_5000"])
def test_cv_bandwidth_above_4096_values_picks_the_oracles_bandwidth(sample, pick):
    # a binned scorer once ran from 4096 values on: it raised ValueError on
    # the beta sample and picked 0.198 on the gamma one
    cand = default_cv_candidates(sample, 10)
    want = per_point_pair_cv_scores(sample, cv_folds_of(sample.size, 3, 0), 3, cand)
    assert cv_bandwidth(sample, candidates=cand, folds=3, seed=0) == pick == cand[cv_pick(want)]


@pytest.mark.parametrize("name", sorted(CV_FIXTURES))
def test_pair_cv_scores_match_the_per_point_scorer(name):
    x, folds = CV_FIXTURES[name]
    fold_of = cv_folds_of(x.size, folds, 11)
    assert_matches_the_per_point_scorer(x, fold_of, folds, default_cv_candidates(x, 12))


@pytest.mark.parametrize("seed", range(20))
def test_pair_cv_scores_match_the_per_point_scorer_on_random_draws(seed):
    rng = np.random.default_rng(1000 + seed)
    n, folds = int(rng.integers(40, 900)), int(rng.integers(2, 6))
    gamma = rng.gamma(rng.uniform(0.3, 3.0), rng.uniform(0.1, 100.0), n)
    counts = rng.poisson(rng.uniform(0.5, 40.0), n).astype(np.float64)
    for x in (gamma, counts):
        fold_of = cv_folds_of(n, folds, seed)
        assert_matches_the_per_point_scorer(x, fold_of, folds, default_cv_candidates(x, 10))


def test_pair_cv_scores_with_a_fold_of_equal_values():
    rng = np.random.default_rng(38)
    x = np.concatenate([np.full(40, 2.5), rng.normal(2.0, 1.0, 80)])
    fold_of = np.repeat([0, 1, 2], 40)
    cand = np.geomspace(0.05, 5.0, 9)
    # the constant fold is one distinct value of weight 40: first as rows
    # against the later folds, then as the last fold, only ever in columns
    assert_matches_the_per_point_scorer(x, fold_of, 3, cand)
    assert_matches_the_per_point_scorer(x, np.roll(fold_of, 40), 3, cand)


def test_pair_cv_scores_with_ties_across_folds():
    # three distinct values, each repeated in every fold
    x = np.random.default_rng(39).integers(0, 3, 300).astype(np.float64)
    for folds, seed in ((2, 0), (5, 1)):
        fold_of = cv_folds_of(x.size, folds, seed)
        assert_matches_the_per_point_scorer(x, fold_of, folds, np.geomspace(0.02, 4.0, 11))


@pytest.mark.parametrize("stretch, kernel_calls", [(1.0 - 1e-6, 0), (1.0 + 1e-6, 1)])
def test_pair_cv_scores_around_the_exp_only_bound(stretch, kernel_calls, monkeypatch):
    # At h = 1 a squared distance d2 gives the argument -d2 / 2. The pair
    # (0, span) puts the lowest argument of fold 0's tile just above or just
    # below -660; the tile of folds 1 and 2 stays well above it.
    span = math.sqrt(2.0 * density._EXP_FAST_LIMIT) * stretch
    inner = np.random.default_rng(40).uniform(0.1, span - 0.1, 58)
    x = np.concatenate([[0.0], inner[:29], inner[29:], [span]])
    fold_of = np.repeat([0, 1, 2], [30, 29, 1])  # 0.0 in fold 0, the span in fold 2
    calls = []
    kernel = density._kernel
    monkeypatch.setattr(density, "_kernel", lambda z: calls.append(1) or kernel(z))
    assert_matches_the_per_point_scorer(x, fold_of, 3, np.array([1.0]))
    # the per-point oracle calls _kernel once per block: 3 fold pairs
    assert len(calls) == 3 + kernel_calls


_SCORES_SCRIPT = """
import numpy as np
import idstats.density as density
rng = np.random.default_rng(41)
x = rng.gamma(0.6, 20.0, 1280)
fold_of = np.empty(x.size, dtype=np.int64)
fold_of[rng.permutation(x.size)] = np.arange(x.size) % 3
print(density._pair_cv_scores(x, fold_of, 3, density.default_cv_candidates(x, 10)).tobytes().hex())
"""


def test_pair_cv_scores_do_not_depend_on_the_blas_thread_count():
    # tiles of 2^15 cells are above OpenBLAS's threading cut for gemv
    src = str(Path(density.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _SCORES_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        out.append(run.stdout)
    assert out[0] and out[0] == out[1]


def test_kernel_is_exp_above_the_cut_off_and_zero_beyond_it():
    z = np.linspace(-660.0, 0.0, 1001)
    # exp(-660) ~ 5e-287: every value down there is the plain exp, bit for bit
    assert np.array_equal(density._kernel(z.copy()), np.exp(z))
    for size in range(1, 40):  # every tail length of the vector loop
        assert not np.any(density._kernel(np.full(size, -700.0)))
        assert not np.any(density._kernel(np.linspace(-2000.0, -700.0, size)))
    assert np.all(density._kernel(np.full(9, -699.9)) > 0.0)


def test_kde_eval_matches_a_direct_sum_down_to_1e_250():
    rng = np.random.default_rng(35)
    samples = np.concatenate([rng.normal(0.0, 1.0, 40), rng.standard_cauchy(20)])
    h = 0.25
    points = np.linspace(samples.min() - 12.0, samples.max() + 12.0, 400)
    got = kde_eval(KdeModel(samples, h), points)
    norm = samples.size * h * SQRT_2PI
    direct = np.array(
        [
            math.fsum(math.exp(-0.5 * ((p - s) / h) ** 2) for s in samples) / norm
            for p in points
        ]
    )
    checked = direct >= 1e-250
    assert checked.sum() > 200 and not checked.all()
    np.testing.assert_allclose(got[checked], direct[checked], rtol=1e-12, atol=0.0)


def block_of_4m_exact_density(samples, points, h):
    """_exact_density's sums in chunks of up to 4M cells."""
    n = samples.size
    out = np.empty(points.size, dtype=np.float64)
    scaled = samples / h
    chunk = max(1, _REFERENCE_BLOCK // max(n, 1))
    for start in range(0, points.size, chunk):
        z = np.subtract.outer(points[start : start + chunk] / h, scaled)
        np.multiply(z, z, out=z)
        np.multiply(z, -0.5, out=z)
        out[start : start + chunk] = density._kernel(z).sum(axis=1)
    return out / (n * h * SQRT_2PI)


@pytest.mark.parametrize("n", [1, 1280, 24_000, 40_000])
def test_kde_eval_is_bit_identical_to_the_4m_block(n):
    # points per chunk, 2^15-cell block against 4M: 25 against all 512 at
    # 1280 samples, 1 against 166 at 24 000, and 1 against 100 at 40 000,
    # where one row is longer than the block
    samples = np.random.default_rng(42).gamma(0.5, 3.0, n)
    h = scott_bandwidth(samples) if n > 1 else 0.3
    points = np.linspace(samples.min() - 2.0, samples.max() + 2.0, 512)
    got = kde_eval(KdeModel(samples, h), points)
    assert got.tobytes() == block_of_4m_exact_density(samples, points, h).tobytes()


def test_kde_eval_is_zero_beyond_37_4_bandwidths():
    samples = np.array([-3.0, 0.0, 0.5, 8.0])
    h = 0.2
    model = KdeModel(samples, h)
    cut = math.sqrt(1400.0)  # 37.42 bandwidths
    outside = np.array([-3.0 - 37.45 * h, 8.0 + 37.45 * h, 8.0 + 50 * h, -1e6])
    assert not np.any(kde_eval(model, outside))
    inside = np.array([-3.0 - (cut - 0.05) * h, 8.0 + (cut - 0.05) * h])
    assert np.all(kde_eval(model, inside) > 0.0)


def test_kde_single_point_peak_height():
    model = KdeModel(np.array([0.0]), 1.0)
    assert kde_eval(model, np.array([0.0]))[0] == pytest.approx(1.0 / SQRT_2PI)


def test_kde_matches_hand_computed_sum():
    samples = np.array([-1.0, 0.0, 2.0])
    h = 0.5
    model = KdeModel(samples, h)
    point = 0.25
    expect = sum(
        math.exp(-0.5 * ((point - s) / h) ** 2) for s in samples
    ) / (3 * h * SQRT_2PI)
    assert kde_eval(model, np.array([point]))[0] == pytest.approx(expect, rel=1e-12)


def test_kde_integrates_to_one():
    x = np.random.default_rng(11).normal(3.0, 1.5, 400)
    model = KdeModel(x, scott_bandwidth(x))
    g = np.linspace(x.min() - 8 * model.bandwidth, x.max() + 8 * model.bandwidth, 4096)
    y = kde_eval(model, g)
    total = float(np.sum((y[1:] + y[:-1]) * 0.5 * np.diff(g)))
    assert total == pytest.approx(1.0, abs=1e-6)


def test_kde_model_and_bandwidth_for_validate():
    with pytest.raises(DataError):
        KdeModel(np.array([]), 1.0)
    with pytest.raises(DataError):
        KdeModel(np.array([1.0]), 0.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DataError, match="bandwidth must be finite"):
            KdeModel(np.array([1.0, 2.0, 3.0]), bad)
    for policy in ("scott", "cv"):
        with pytest.raises(DataError, match="on an empty sample"):
            bandwidth_for(np.array([]), policy)
    for policy in ("epanechnikov", "silverman"):
        with pytest.raises(DataError, match="policy"):
            bandwidth_for(np.array([1.0, 2.0]), policy)


def test_make_grid_pads_by_five_bandwidths():
    grid = make_grid([np.array([0.0, 1.0]), np.array([2.0, 3.0])], 0.5, 8)
    assert grid.size == 8
    assert grid.points[0] == pytest.approx(-2.5)
    assert grid.points[-1] == pytest.approx(5.5)
    assert grid.spacing == pytest.approx(8.0 / 7)
    with pytest.raises(DataError):
        make_grid([np.array([]), np.array([1.0])], 0.1)


@pytest.mark.parametrize("bandwidth", [-1.0, 0.0, math.nan, math.inf])
def test_make_grid_rejects_a_bad_bandwidth(bandwidth):
    with pytest.raises(DataError, match="bandwidth"):
        make_grid([np.array([1.0, 2.0])], bandwidth)


@pytest.mark.parametrize(
    "points, why",
    [
        ([0.0, 2.0, 1.0, 5.0], "increasing"),
        ([0.0, 1.0, 1.0, 2.0], "increasing"),
        ([3.0, 2.0, 1.0], "increasing"),
        ([0.0, 1.0, 3.0, 4.0], "uniformly"),
        ([0.0, 1.0, 2.0 + 1e-6, 3.0], "uniformly"),
        ([0.0, math.nan, 2.0], "finite"),
        ([0.0, 1.0, math.inf], "finite"),
        ([1.0], "at least 2"),
    ],
)
def test_eval_grid_rejects_points_its_docstring_excludes(points, why):
    with pytest.raises(DataError, match=why):
        EvalGrid(points=np.array(points))


@pytest.mark.parametrize(
    "lo, hi, n", [(-2.5, 5.5, 8), (1e6, 1e6 + 1e-3, 512), (-3e-7, 4e-7, 1024), (0.0, 1.0, 2)]
)
def test_eval_grid_accepts_linspace_and_arange_grids(lo, hi, n):
    EvalGrid(points=np.linspace(lo, hi, n))
    EvalGrid(points=lo + (hi - lo) / (n - 1) * np.arange(n))
    EvalGrid(points=np.arange(0.0, 1.0, 0.1))


def test_to_mass_pair_renormalizes():
    xa = np.random.default_rng(1).normal(0, 1, 100)
    xb = np.random.default_rng(2).normal(4, 1, 100)
    a, b = KdeModel(xa, scott_bandwidth(xa)), KdeModel(xb, scott_bandwidth(xb))
    grid = make_grid([a.samples, b.samples], max(a.bandwidth, b.bandwidth), 256)
    pair = to_mass_pair(a, b, grid)
    assert float(pair.p.sum()) == pytest.approx(1.0)
    assert float(pair.q.sum()) == pytest.approx(1.0)
    assert np.all(pair.p >= 0.0)


def test_js_distance_identity_symmetry_bounds():
    p = np.array([0.2, 0.3, 0.5])
    q = np.array([0.5, 0.25, 0.25])
    assert js_distance_from_masses(p, p) == 0.0
    d = js_distance_from_masses(p, q)
    assert js_distance_from_masses(q, p) == pytest.approx(d, abs=1e-15)
    assert 0.0 < d < 1.0
    # disjoint supports reach the upper bound exactly
    assert js_distance_from_masses(
        np.array([1.0, 0.0]), np.array([0.0, 1.0])
    ) == pytest.approx(1.0)


def test_js_distance_refuses_mass_vectors_of_different_lengths():
    with pytest.raises(DataError, match=r"shapes \(2,\) and \(1,\)"):
        js_distance_from_masses(np.array([0.5, 0.5]), np.array([1.0]))


def test_js_distance_half_overlap_value():
    # p=[1/2,1/2], q=[1,0], m=[3/4,1/4]:
    # JSD = 1/2*(1/2*log2(2/3) + 1/2) + 1/2*log2(4/3), distance is its root
    expect = math.sqrt(
        0.5 * (0.5 * math.log2(2 / 3) + 0.5) + 0.5 * math.log2(4 / 3)
    )
    got = js_distance_from_masses(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(0.5579, abs=1e-4)


def test_js_distance_satisfies_triangle_inequality():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p, q, r = rng.dirichlet(np.ones(6), size=3)
        d_pq = js_distance_from_masses(p, q)
        d_qr = js_distance_from_masses(q, r)
        d_pr = js_distance_from_masses(p, r)
        assert d_pr <= d_pq + d_qr + 1e-12


def test_js_distance_shrinks_as_separation_shrinks():
    rng = np.random.default_rng(13)
    base = rng.normal(0.0, 1.0, 300)
    last = 1.1
    for shift in (3.0, 1.5, 0.5, 0.0):
        a = KdeModel(base, scott_bandwidth(base))
        b = KdeModel(base + shift, scott_bandwidth(base + shift))
        grid = make_grid([a.samples, b.samples], max(a.bandwidth, b.bandwidth))
        d = js_distance(to_mass_pair(a, b, grid))
        assert d < last + 1e-12
        last = d
    assert last == pytest.approx(0.0, abs=1e-9)


def test_overlap_coefficient_is_shared_mass():
    grid = EvalGrid(points=np.arange(4.0))
    p = np.array([0.5, 0.5, 0.0, 0.0])
    q = np.array([0.0, 0.25, 0.5, 0.25])
    pair = DensityPair(grid=grid, p=p, q=q)
    assert overlap_coefficient(pair) == pytest.approx(0.25)
    assert overlap_coefficient(DensityPair(grid=grid, p=p, q=p)) == pytest.approx(1.0)


def test_overlap_intervals_finds_maximal_runs():
    grid = EvalGrid(points=np.arange(10.0))
    p = np.array([0, 0, 0.2, 0.2, 0.2, 0, 0, 0.2, 0.2, 0.0])
    q = np.full(10, 0.1)
    pair = DensityPair(grid=grid, p=p, q=q)
    assert overlap_intervals(pair) == [(2.0, 4.0), (7.0, 8.0)]


def test_overlap_intervals_handles_boundary_runs():
    grid = EvalGrid(points=np.arange(5.0))
    uniform = np.full(5, 0.2)
    pair = DensityPair(grid=grid, p=uniform, q=uniform)
    assert overlap_intervals(pair) == [(0.0, 4.0)]
    # disjoint supports share no mass above the threshold: no intervals
    p, q = np.array([0.5, 0.5, 0, 0, 0]), np.array([0, 0, 0, 0.5, 0.5])
    apart = DensityPair(grid=grid, p=p, q=q)
    assert overlap_intervals(apart) == []


def shape_table():
    rng = np.random.default_rng(21)
    xa = rng.normal(0.0, 1.0, 80)
    xb = rng.normal(5.0, 1.0, 40)
    cols = {"speed": np.concatenate([xa, xb])}
    labels = np.repeat([0, 1], [80, 40])
    vocab = LabelVocabulary(names=("calm", "burst"))
    return ColumnTable(cols, labels, vocab), xa, xb


def test_shape_summary_reports_per_class_statistics():
    table, xa, xb = shape_table()
    summary = shape_summary(table, "speed", policy="scott", n_points=128)
    assert summary.feature == "speed"
    assert [c.class_name for c in summary.classes] == ["calm", "burst"]
    calm = summary.classes[0]
    assert calm.count == 80
    assert (calm.q1, calm.median, calm.q3) == quartiles(xa)
    assert calm.minimum == xa.min()
    assert calm.maximum == xa.max()
    assert calm.bandwidth == pytest.approx(scott_bandwidth(xa))
    # shared grid covers both classes with the 5-bandwidth pad
    h_max = max(c.bandwidth for c in summary.classes)
    lo = min(xa.min(), xb.min()) - 5.0 * h_max
    hi = max(xa.max(), xb.max()) + 5.0 * h_max
    assert summary.grid.points[0] == pytest.approx(lo)
    assert summary.grid.points[-1] == pytest.approx(hi)
    assert all(c.density.size == 128 for c in summary.classes)


def test_shape_summary_outliers_lie_outside_the_iqr_fences():
    samples = {
        # q1=2, q3=4 -> fences at -1 and 7: nothing flagged
        "plain": [1.0, 2.0, 3.0, 4.0, 5.0],
        # q1=2.25, q3=4.75 -> fences [-1.5, 8.5]: 100 is flagged
        "spike": [1.0, 2.0, 3.0, 4.0, 5.0, 100.0],
        # q1=1, q3=2 -> fences [-0.5, 3.5], and a value sits on each
        "fenced": [-0.5, 0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.5],
    }
    table = ColumnTable(
        {"x": np.concatenate([np.array(v) for v in samples.values()])},
        np.repeat(np.arange(3), [len(v) for v in samples.values()]),
        LabelVocabulary(names=tuple(samples)),
    )
    summary = shape_summary(table, "x", n_points=64)
    assert [c.outliers for c in summary.classes] == [0, 1, 0]
    assert [(c.q1, c.q3) for c in summary.classes] == [(2.0, 4.0), (2.25, 4.75), (1.0, 2.0)]


def test_shape_summary_skips_empty_class_with_warning():
    table, _, _ = shape_table()
    trimmed = ColumnTable(
        {"speed": table.column("speed")[:80]},
        table.labels[:80],
        table.vocabulary,
    )
    with pytest.warns(DataQualityWarning, match="burst"):
        summary = shape_summary(trimmed, "speed")
    assert [c.class_name for c in summary.classes] == ["calm"]


def test_js_distance_survives_an_underflowing_midpoint():
    # 0.5 * (5e-324 + 0) underflows to 0; the half-KL terms never form it
    p = np.array([1.0, 5e-324])
    q = np.array([1.0, 0.0])
    assert js_distance_from_masses(p, q) == 0.0
    assert js_distance_from_masses(q, p) == 0.0


@pytest.mark.parametrize("p, q", [
    ([np.nan, 0.5, 0.5], [0.2, 0.4, 0.4]),
    ([np.nan, 1.0], [0.0, 1.0]),
    ([0.5, 0.5], [np.inf, 0.0]),
], ids=["nan_against_mass", "nan_against_zero", "inf"])
def test_js_distance_rejects_non_finite_masses(p, q):
    with np.errstate(invalid="ignore"):
        with pytest.raises(DataError, match="masses must be finite"):
            js_distance_from_masses(np.array(p), np.array(q))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_js_distance_matches_scipy_jensenshannon(seed):
    distance = pytest.importorskip("scipy.spatial.distance")
    rng = np.random.default_rng(seed)
    p = rng.gamma(0.5, 1.0, 64)
    q = rng.gamma(2.0, 1.0, 64)
    q[:5] = 0.0  # zero masses against positive ones
    p, q = p / p.sum(), q / q.sum()
    assert p[p > 0].min() > 1e-300 and q[q > 0].min() > 1e-300  # no subnormals
    pair = DensityPair(grid=EvalGrid(np.arange(64.0)), p=p, q=q)
    expected = distance.jensenshannon(p, q, base=2)
    assert js_distance(pair) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("h", [0.05, 0.4, 2.0])
def test_kde_eval_matches_scipy_gaussian_kde(h):
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(3)
    samples = rng.gamma(2.0, 1.5, 300)
    points = np.linspace(samples.min() - 3 * h, samples.max() + 3 * h, 257)
    reference = stats.gaussian_kde(samples, bw_method=h / samples.std(ddof=1))
    ours = kde_eval(KdeModel(samples, h), points)
    np.testing.assert_allclose(ours, reference(points), rtol=1e-10, atol=0.0)


def test_shape_summary_under_cv_names_a_class_too_small_for_its_folds(monkeypatch):
    rng = np.random.default_rng(22)
    cols = {"speed": np.concatenate([rng.normal(0.0, 1.0, 40), [1.0, 2.0, 4.0], [3.0]])}
    labels = np.repeat([0, 1, 2], [40, 3, 1])
    table = ColumnTable(cols, labels, LabelVocabulary(names=("calm", "burst", "lone")))
    called = []
    monkeypatch.setattr(density, "cv_bandwidth", lambda *a, **k: called.append(1))
    with pytest.raises(DataError) as err:
        shape_summary(table, "speed", policy="cv")
    message = str(err.value)
    for part in ("'speed'", "'burst'", "3 rows", "at least 5"):
        assert part in message
    assert not called  # raised before any bandwidth or density was computed

    # the one-row class keeps its fallback bandwidth under cv
    monkeypatch.undo()
    kept = labels != 1
    table = ColumnTable(
        {"speed": cols["speed"][kept]}, labels[kept], table.vocabulary
    )
    with pytest.warns(DataQualityWarning):
        summary = shape_summary(table, "speed", policy="cv")
    lone = summary.classes[-1]
    assert lone.class_name == "lone" and lone.bandwidth == pytest.approx(3e-3)


# grid_density: the binned FFT path against the exact sums


def sweep_sample(kind, n, rng):
    if kind == "heavy_tailed_gamma":
        return rng.gamma(0.5, 2.0, n)
    if kind == "integer_counts_with_ties":
        return rng.poisson(3.0, n).astype(np.float64)
    if kind == "bounded_bimodal_beta":  # the bench xfail's sample at n = 4800
        return np.concatenate([rng.beta(6.0, 4.0, n // 2), rng.beta(1.6, 12.0, n - n // 2)])
    return rng.lognormal(0.0, 1.2, n)


SWEEP_CASES = [
    (n, 512, ratio) for n in (2, 30, 1000, 4800, 10_000) for ratio in (1 / 30, 1.0, 30.0)
] + [(4800, points, 1.0) for points in (2, 3, 64, 1024)] + [
    (10_000, 1024, 30.0), (1000, 64, 1 / 30), (2400, 512, 0.1),
]


def exact_masses(models, grid):
    out = []
    for model in models:
        d = density._exact_density(model.samples, grid.points, model.bandwidth)
        out.append(d / d.sum())
    return out


@pytest.mark.parametrize(
    "kind",
    ["heavy_tailed_gamma", "integer_counts_with_ties", "bounded_bimodal_beta", "lognormal"],
)
def test_grid_density_matches_the_exact_sums(kind):
    rng = np.random.default_rng(41)
    binned = 0
    for n, points, ratio in SWEEP_CASES:
        xa, xb = sweep_sample(kind, n, rng), 1.3 * sweep_sample(kind, n, rng) + 0.2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataQualityWarning)
            a = KdeModel(xa, ratio * scott_bandwidth(xa))
            b = KdeModel(xb, scott_bandwidth(xb))
        grid = make_grid([xa, xb], max(a.bandwidth, b.bandwidth), points)
        for model in (a, b):
            got = grid_density(model, grid)
            want = density._exact_density(model.samples, grid.points, model.bandwidth)
            assert np.max(np.abs(got - want)) <= 1e-5 * want.max(), (n, points, ratio)
            assert np.all(got >= 0.0)
            layout = density._binned_layout(grid.size, grid.spacing, model.bandwidth)
            binned += density._binned_is_cheaper(n, points, layout[2])
        t_exact = js_distance_from_masses(*exact_masses((a, b), grid))
        assert js_distance(to_mass_pair(a, b, grid)) == pytest.approx(t_exact, abs=1e-6)
    assert binned >= 12  # the sweep does exercise the binned path


def test_binned_cost_rule_is_a_pure_function_of_sizes():
    rule = density._binned_is_cheaper
    # 2**14 * 15 = 245760 steps against 2 * 1000 * 512 terms
    assert rule(1000, 512, 1 << 14)
    assert not rule(1280, 512, 1 << 17)  # 2359296 steps against 1310720
    # nfft exceeds the point count, so one sample never pays for an FFT
    assert not any(rule(1, points, 1 << k) for points in (2, 3, 512)
                   for k in range(points.bit_length(), 40))
    assert rule(10**5, 512, 1 << 17) and not rule(10**5, 2, 1 << 17)


@pytest.mark.parametrize("n", [1000, 2000, 4800, 10_000])
@pytest.mark.parametrize("kind", ["normal", "gamma"])
def test_scott_on_512_points_takes_the_binned_path(n, kind, monkeypatch):
    rng = np.random.default_rng(n)
    x = rng.normal(0.0, 1.0, n) if kind == "normal" else rng.gamma(2.0, 1.0, n)
    model = KdeModel(x, scott_bandwidth(x))
    grid = make_grid([x], model.bandwidth, 512)
    monkeypatch.setattr(density, "_exact_density", None)  # calling it fails
    assert grid_density(model, grid).size == 512


def test_one_row_and_sub_spacing_bandwidths_stay_exact_bit_for_bit():
    rng = np.random.default_rng(43)
    one = KdeModel(np.array([2.5]), 3e-3)
    grid = make_grid([one.samples, rng.normal(0.0, 1.0, 50)], 1.0, 512)
    exact = density._exact_density(one.samples, grid.points, one.bandwidth)
    assert np.array_equal(grid_density(one, grid), exact)
    # the small-bandwidth sides of a wy cv run: 1280 values, spacing / h in [0.5, 3]
    x = rng.gamma(2.0, 1.0, 1280)
    grid = make_grid([x], 1.0, 512)
    for spacing_over_h in (0.5, 1.0, 3.0):
        h = grid.spacing / spacing_over_h
        exact = density._exact_density(x, grid.points, h)
        assert np.array_equal(grid_density(KdeModel(x, h), grid), exact)


@pytest.mark.parametrize("side", ["below", "above", "both"])
def test_samples_outside_a_callers_grid_use_the_exact_sums(side):
    x = np.random.default_rng(44).normal(0.5, 0.3, 5000)
    x = {"below": np.minimum(x, 1.0), "above": np.maximum(x, 0.0), "both": x}[side]
    grid = EvalGrid(points=np.linspace(0.0, 1.0, 512))
    model = KdeModel(x, 0.05)
    exact = density._exact_density(x, grid.points, model.bandwidth)
    assert np.array_equal(grid_density(model, grid), exact)
    inside = KdeModel(np.clip(x, 0.0, 1.0), 0.05)
    got = grid_density(inside, grid)
    want = density._exact_density(inside.samples, grid.points, inside.bandwidth)
    assert not np.array_equal(got, want)  # binned
    assert np.max(np.abs(got - want)) <= 1e-5 * want.max()


def test_binned_fft_never_wraps_onto_a_grid_point():
    for n_points in (2, 3, 64, 512, 1024):
        for h_over_span in np.geomspace(1e-4, 1e2, 61):
            spacing = 1.0 / (n_points - 1)
            refine, radius, nfft = density._binned_layout(n_points, spacing, h_over_span)
            fine = (n_points - 1) * refine + 1
            assert spacing / refine <= h_over_span / 256 * (1 + 1e-12)
            assert radius >= min(8.0 * h_over_span * refine / spacing, fine - 1)
            assert nfft >= fine + 2 * radius + 1


@pytest.mark.parametrize("h", [0.013, 0.05, 0.2])
def test_samples_on_the_grid_edges_get_no_wrapped_mass(h):
    # nothing pads the sample away from the ends here, so a short FFT would
    # fold the mass near one end onto the other
    x = np.concatenate([[0.0, 1.0], np.random.default_rng(47).beta(0.3, 0.3, 20_000)])
    grid = EvalGrid(points=np.linspace(0.0, 1.0, 512))
    got = grid_density(KdeModel(x, h), grid)
    want = density._exact_density(x, grid.points, h)
    assert not np.array_equal(got, want)  # binned
    assert np.max(np.abs(got - want)) <= 1e-5 * want.max()


@pytest.mark.parametrize(
    "points, h",
    [
        (np.linspace(-1.0, 2.0, 512), 5.0),  # 8 bandwidths reach past the grid
        (np.array([0.0, 1.0]), 0.5),  # two points
        (np.array([0.0, 1.0]), 40.0),
    ],
)
def test_wide_kernels_and_two_point_grids_take_the_binned_path(points, h):
    x = np.random.default_rng(45).uniform(0.0, 1.0, 10_000)
    grid = EvalGrid(points=points)
    model = KdeModel(x, h)
    layout = density._binned_layout(grid.size, grid.spacing, h)
    assert density._binned_is_cheaper(x.size, grid.size, layout[2])
    got = grid_density(model, grid)
    want = density._exact_density(x, grid.points, h)
    assert np.max(np.abs(got - want)) <= 1e-5 * want.max()


@pytest.mark.parametrize("ratio", [0.3, 1.0, 3.0])
def test_grid_density_matches_scipy_gaussian_kde(ratio):
    stats = pytest.importorskip("scipy.stats")
    samples = np.random.default_rng(46).gamma(2.0, 1.5, 4000)
    h = ratio * scott_bandwidth(samples)
    grid = make_grid([samples], h, 512)
    layout = density._binned_layout(grid.size, grid.spacing, h)
    assert density._binned_is_cheaper(samples.size, grid.size, layout[2])
    reference = stats.gaussian_kde(samples, bw_method=h / samples.std(ddof=1))(grid.points)
    got = grid_density(KdeModel(samples, h), grid)
    assert np.max(np.abs(got - reference)) <= 1e-5 * reference.max()
