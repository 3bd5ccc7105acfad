"""Westfall-Young single-step maxT permutation test over features for one
class pair, using the Jensen-Shannon distance between class-conditional KDEs
as the per-feature statistic."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .density import (
    BANDWIDTH_POLICIES,
    DensityPair,
    KdeModel,
    bandwidth_for,
    default_cv_candidates,
    js_distance,
    make_grid,
    to_mass_pair,
)
from .errors import DataError, DataQualityWarning
from .parallel import ordered_map
from .tabular import ColumnTable

SMALL_GROUP_WARNING = 20

# Seed-path tags keeping the permutation stream and the two per-side
# bandwidth-CV streams disjoint.
_PERM_TAG = 1
_CV_TAG_A = 2
_CV_TAG_B = 3


@dataclass(frozen=True)
class WyConfig:
    """Test configuration: class pair, permutation budget, and KDE policy.

    Attributes:
        class_a, class_b: class names to contrast.
        permutations: B, the permutation count.
        alpha: significance level in (0, 1).
        bandwidth_policy: "scott", "silverman", or "cv".
        grid_size: shared evaluation grid length.
        seed: master seed; all child streams derive from it.
        cv_candidates: candidate count for the cv policy inside the test
            (a coarse grid keeps the permutation loop affordable).
        cv_folds: folds for the cv policy inside the test.
        refit_bandwidths: refit bandwidths on every permutation (default);
            when false, the observed bandwidths are frozen and reused.
    """

    class_a: str
    class_b: str
    permutations: int = 1000
    alpha: float = 0.05
    bandwidth_policy: str = "cv"
    grid_size: int = 512
    seed: int = 0
    cv_candidates: int = 10
    cv_folds: int = 3
    refit_bandwidths: bool = True

    def __post_init__(self) -> None:
        if self.class_a == self.class_b:
            raise DataError("class pair must name two distinct classes")
        if self.permutations < 1:
            raise DataError("permutations must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise DataError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.bandwidth_policy not in BANDWIDTH_POLICIES:
            raise DataError(f"unknown bandwidth policy {self.bandwidth_policy!r}")
        if self.grid_size < 2:
            raise DataError("grid_size must be >= 2")
        if self.cv_candidates < 1 or self.cv_folds < 2:
            raise DataError("cv_candidates must be >= 1 and cv_folds >= 2")


@dataclass(frozen=True)
class FeatureTestResult:
    """Observed statistic and FWER-adjusted p-value for one feature."""

    feature: str
    statistic: float
    p_value: float
    p_display: str
    n_a: int
    n_b: int
    bandwidth_a: float
    bandwidth_b: float


@dataclass
class WyTestReport:
    """Per-feature results plus the permutation max-statistic trace."""

    results: list[FeatureTestResult]
    max_trace: np.ndarray
    config: WyConfig

    def statistic_of(self, feature: str) -> float:
        for r in self.results:
            if r.feature == feature:
                return r.statistic
        raise DataError(f"no result for feature {feature!r}")

    def p_value_of(self, feature: str) -> float:
        for r in self.results:
            if r.feature == feature:
                return r.p_value
        raise DataError(f"no result for feature {feature!r}")


def _pair_seed(cfg: WyConfig, tag: int, b: int, feature_index: int) -> list[int]:
    return [cfg.seed, tag, b, feature_index]


def _pair_statistic(
    xa: np.ndarray,
    xb: np.ndarray,
    cfg: WyConfig,
    b: int,
    feature_index: int,
    frozen: tuple[float, float] | None = None,
) -> tuple[float, float, float, DensityPair]:
    """JS statistic between the class-conditional KDEs of one feature.

    Returns (T, h_a, h_b, mass pair). The bandwidth CV streams are keyed by
    (seed, side, permutation index, feature index) so the statistic is a
    deterministic function of the permuted data.
    """
    if frozen is not None:
        h_a, h_b = frozen
    else:
        if cfg.bandwidth_policy == "cv":
            h_a = bandwidth_for(
                xa, "cv",
                seed=_pair_seed(cfg, _CV_TAG_A, b, feature_index),
                candidates=default_cv_candidates(xa, cfg.cv_candidates),
                folds=cfg.cv_folds,
            )
            h_b = bandwidth_for(
                xb, "cv",
                seed=_pair_seed(cfg, _CV_TAG_B, b, feature_index),
                candidates=default_cv_candidates(xb, cfg.cv_candidates),
                folds=cfg.cv_folds,
            )
        else:
            h_a = bandwidth_for(xa, cfg.bandwidth_policy)
            h_b = bandwidth_for(xb, cfg.bandwidth_policy)
    grid = make_grid([xa, xb], max(h_a, h_b), cfg.grid_size)
    pair = to_mass_pair(
        KdeModel(samples=xa, bandwidth=h_a, policy=cfg.bandwidth_policy),
        KdeModel(samples=xb, bandwidth=h_b, policy=cfg.bandwidth_policy),
        grid,
    )
    return js_distance(pair), h_a, h_b, pair


@dataclass(frozen=True)
class ObservedFeature:
    """Observed statistic with the artifacts needed for plots and overlaps."""

    feature: str
    statistic: float
    bandwidth_a: float
    bandwidth_b: float
    pair: DensityPair
    n_a: int
    n_b: int


def class_pair_columns(
    table: ColumnTable, features: list[str], cfg: WyConfig
) -> tuple[np.ndarray, int, int]:
    """Pooled per-feature values of the class pair, class-a rows first:
    (matrix (p, n_a + n_b), n_a, n_b). Warns once for each class under
    SMALL_GROUP_WARNING rows. Rejects, before any statistic is computed, a
    class under 2 rows, or under cv_folds rows with ``bandwidth: cv``."""
    id_a = table.vocabulary.id_of(cfg.class_a)
    id_b = table.vocabulary.id_of(cfg.class_b)
    mask_a = table.labels == id_a
    mask_b = table.labels == id_b
    n_a, n_b = int(mask_a.sum()), int(mask_b.sum())
    for name, count in ((cfg.class_a, n_a), (cfg.class_b, n_b)):
        if count == 0:
            raise DataError(f"class {name!r} has no rows")
        least = cfg.cv_folds if cfg.bandwidth_policy == "cv" else 2
        if count < least:
            raise DataError(
                f"class {name!r} has {count} row(s); a density under "
                f"bandwidth: {cfg.bandwidth_policy} needs at least {least}"
            )
        if count < SMALL_GROUP_WARNING:
            warnings.warn(
                f"class {name!r} has only {count} rows; the permutation null "
                "will be coarse",
                DataQualityWarning,
                stacklevel=2,
            )
    pooled = np.empty((len(features), n_a + n_b), dtype=np.float64)
    for i, feature in enumerate(features):
        col = table.column(feature).astype(np.float64, copy=False)
        pooled[i, :n_a] = col[mask_a]
        pooled[i, n_a:] = col[mask_b]
    return pooled, n_a, n_b


def _observed_feature(shared: tuple, i: int) -> ObservedFeature:
    pooled, n_a, features, cfg = shared
    values = pooled[i]
    if np.all(values == values[0]):
        warnings.warn(
            f"feature {features[i]!r} is constant in both classes; statistic is 0",
            DataQualityWarning,
            stacklevel=2,
        )
    stat, h_a, h_b, pair = _pair_statistic(
        values[:n_a], values[n_a:], cfg, b=0, feature_index=i
    )
    return ObservedFeature(features[i], stat, h_a, h_b, pair, n_a, values.size - n_a)


def observed_details(
    table: ColumnTable,
    features: list[str],
    cfg: WyConfig,
    workers: int = 1,
    columns: tuple[np.ndarray, int, int] | None = None,
) -> list[ObservedFeature]:
    """Observed per-feature statistics with bandwidths and mass pairs.

    The features run on ``workers`` processes; the results do not depend on
    it. ``columns`` is a class_pair_columns result for the same features to
    reuse; it is built here when omitted.
    """
    pooled, n_a, _ = columns or class_pair_columns(table, features, cfg)
    return ordered_map(
        _observed_feature, range(len(features)), (pooled, n_a, features, cfg),
        workers=workers,
    )


def _permutation_rows(shared: tuple, b_values: list[int]) -> np.ndarray:
    """T_{i,b} for every feature i and each b in b_values (rows are b).

    ``shared`` is (pooled, n_a, cfg, frozen): the pooled class-pair matrix,
    the class-a row count, the test configuration and the frozen bandwidths
    (None when they are refit).
    """
    pooled, n_a, cfg, frozen = shared
    n = pooled.shape[1]
    out = np.empty((len(b_values), pooled.shape[0]), dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataQualityWarning)
        for row, b in enumerate(b_values):
            perm = np.random.default_rng([cfg.seed, _PERM_TAG, b]).permutation(n)
            # row j receives the label of source row perm[j]
            to_a = perm < n_a
            for i in range(pooled.shape[0]):
                feature_frozen = frozen[i] if frozen is not None else None
                stat, _, _, _ = _pair_statistic(
                    pooled[i, to_a], pooled[i, ~to_a], cfg, b=b,
                    feature_index=i, frozen=feature_frozen,
                )
                out[row, i] = stat
    return out


def wy_maxT(
    table: ColumnTable,
    features: list[str],
    cfg: WyConfig,
    workers: int = 1,
    observed: list[ObservedFeature] | None = None,
    columns: tuple[np.ndarray, int, int] | None = None,
) -> WyTestReport:
    """Run the single-step maxT permutation test.

    For b = 1..B the pooled two-class labels are permuted once (shared across
    features), per-feature statistics T_{i,b} are recomputed through the
    identical KDE pipeline, and the trace records T_b = max_i T_{i,b}. The
    adjusted p-value of feature i is (1 + #{b: T_b >= T_i}) / (B + 1).

    Args:
        table: encoded table containing both classes.
        features: numeric feature names to test.
        cfg: test configuration.
        workers: processes for the observed statistics and then the
            permutation loop; results are independent of this.
        observed: precomputed observed_details output to reuse; computed here
            when omitted.
        columns: precomputed class_pair_columns output for the same features
            to reuse; built here when omitted.
    """
    if not features:
        raise DataError("wy_maxT needs at least one feature")
    columns = columns or class_pair_columns(table, features, cfg)
    pooled, n_a, n_b = columns
    if observed is None:
        observed = observed_details(
            table, features, cfg, workers=workers, columns=columns
        )
    elif [d.feature for d in observed] != list(features):
        raise DataError("observed details do not match the feature list")
    frozen = (
        None
        if cfg.refit_bandwidths
        else [(d.bandwidth_a, d.bandwidth_b) for d in observed]
    )

    # workers * 4 chunks of permutations keep the pool's load balanced
    b_values = list(range(1, cfg.permutations + 1))
    chunk_size = max(1, -(-cfg.permutations // (max(workers, 1) * 4)))
    chunks = [b_values[i : i + chunk_size] for i in range(0, len(b_values), chunk_size)]
    parts = ordered_map(
        _permutation_rows, chunks, (pooled, n_a, cfg, frozen), workers=workers
    )
    stat_rows = np.vstack(parts)

    trace = stat_rows.max(axis=1)
    results = []
    for i, detail in enumerate(observed):
        exceed = int(np.sum(trace >= detail.statistic))
        p = (1 + exceed) / (cfg.permutations + 1)
        if exceed == 0:
            display = f"<{1.0 / cfg.permutations:.3g}"
        else:
            display = f"{p:.6f}"
        results.append(
            FeatureTestResult(
                feature=detail.feature,
                statistic=detail.statistic,
                p_value=p,
                p_display=display,
                n_a=n_a,
                n_b=n_b,
                bandwidth_a=detail.bandwidth_a,
                bandwidth_b=detail.bandwidth_b,
            )
        )
    return WyTestReport(results=results, max_trace=trace, config=cfg)


@dataclass(frozen=True)
class WyDecision:
    """Per-feature rejections and the family-level disjunction."""

    alpha: float
    rejected: dict[str, bool]

    @property
    def family_reject(self) -> bool:
        return any(self.rejected.values())


def decide(report: WyTestReport, alpha: float | None = None) -> WyDecision:
    """Reject H0 for feature i iff p_i < alpha; family H0 falls with any of them."""
    level = report.config.alpha if alpha is None else alpha
    if not 0.0 < level < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {level}")
    return WyDecision(
        alpha=level,
        rejected={r.feature: r.p_value < level for r in report.results},
    )
