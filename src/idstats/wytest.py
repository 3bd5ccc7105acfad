"""Westfall-Young single-step maxT permutation test over features for one
class pair, using the Jensen-Shannon distance between class-conditional KDEs
as the per-feature statistic."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .density import (
    BANDWIDTH_POLICIES,
    DensityPair,
    KdeModel,
    bandwidth_for,
    js_distance,
    make_grid,
    to_mass_pair,
)
from .errors import ConfigError, DataError, DataQualityWarning
from .parallel import ordered_map
from .tabular import ColumnTable, check_feature_list

SMALL_GROUP_WARNING = 20

# Seed-path tags keeping the permutation stream and the two per-side
# bandwidth-CV streams disjoint.
_PERM_TAG = 1
_CV_TAG_A = 2
_CV_TAG_B = 3


@dataclass(frozen=True)
class WyConfig:
    """The test's settings, which are the ``wy:`` section of the run config.

    Attributes:
        classes: the class pair to contrast; may stay None until the stage
            runs (``--classes`` can supply it), and the test then needs it.
        permutations: B, the permutation count.
        alpha: significance level in (0, 1).
        bandwidth: "scott" or "cv".
        grid_size: shared evaluation grid length.
        cv_candidates: candidate count for the cv policy inside the test
            (a coarse grid keeps the permutation loop affordable).
        cv_folds: folds for the cv policy inside the test.
        features: the features to test; None means the selected set.
    """

    classes: tuple[str, str] | None = None
    permutations: int = 1000
    alpha: float = 0.05
    bandwidth: str = "cv"
    grid_size: int = 512
    cv_candidates: int = 10
    cv_folds: int = 3
    features: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.classes is not None:
            if len(self.classes) != 2 or not all(self.classes):
                raise ConfigError("classes must be two non-empty class names")
            if self.classes[0] == self.classes[1]:
                raise ConfigError("class pair must name two distinct classes")
        if self.permutations < 1:
            raise ConfigError("permutations must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.bandwidth not in BANDWIDTH_POLICIES:
            raise ConfigError(f"unknown bandwidth policy {self.bandwidth!r}")
        if self.grid_size < 2:
            raise ConfigError("grid_size must be >= 2")
        if self.cv_candidates < 1 or self.cv_folds < 2:
            raise ConfigError("cv_candidates must be >= 1 and cv_folds >= 2")
        check_feature_list(self.features)


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


def _pair_statistic(
    xa: np.ndarray, xb: np.ndarray, cfg: WyConfig, seed: int, b: int, feature_index: int
) -> tuple[float, float, float, DensityPair]:
    """JS statistic between the class-conditional KDEs of one feature.

    Returns (T, h_a, h_b, mass pair). The bandwidth CV streams are keyed by
    (seed, side, permutation index, feature index) so the statistic is a
    deterministic function of the permuted data.
    """
    cv = (cfg.cv_candidates, cfg.cv_folds)
    h_a = bandwidth_for(xa, cfg.bandwidth, [seed, _CV_TAG_A, b, feature_index], *cv)
    h_b = bandwidth_for(xb, cfg.bandwidth, [seed, _CV_TAG_B, b, feature_index], *cv)
    grid = make_grid([xa, xb], max(h_a, h_b), cfg.grid_size)
    pair = to_mass_pair(KdeModel(xa, h_a), KdeModel(xb, h_b), grid)
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
    if cfg.classes is None:
        raise ConfigError(
            "the permutation test needs a class pair; set wy.classes in the "
            "config or pass --classes V,W"
        )
    class_a, class_b = cfg.classes
    mask_a = table.labels == table.vocabulary.id_of(class_a)
    mask_b = table.labels == table.vocabulary.id_of(class_b)
    n_a, n_b = int(mask_a.sum()), int(mask_b.sum())
    for name, count in ((class_a, n_a), (class_b, n_b)):
        if count == 0:
            raise DataError(f"class {name!r} has no rows")
        least = cfg.cv_folds if cfg.bandwidth == "cv" else 2
        if count < least:
            raise DataError(
                f"class {name!r} has {count} row(s); a density under "
                f"bandwidth: {cfg.bandwidth} needs at least {least}"
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


def _observed_feature(
    pooled: np.ndarray, n_a: int, features: list[str], cfg: WyConfig, seed: int, i: int
) -> ObservedFeature:
    values = pooled[i]
    stat, h_a, h_b, pair = _pair_statistic(
        values[:n_a], values[n_a:], cfg, seed, b=0, feature_index=i
    )
    return ObservedFeature(features[i], stat, h_a, h_b, pair, n_a, values.size - n_a)


@dataclass(frozen=True)
class Observation:
    """The observed test: its settings and master seed, the pooled class-pair
    matrix (class-a rows first) with the class-a row count, and the
    per-feature observed statistics. The permutations are drawn from it."""

    cfg: WyConfig
    seed: int
    pooled: np.ndarray
    n_a: int
    details: tuple[ObservedFeature, ...]


def observed_details(
    table: ColumnTable, features: list[str], cfg: WyConfig, workers: int = 1, seed: int = 0
) -> Observation:
    """Observed per-feature statistics with bandwidths and mass pairs.

    The features run on ``workers`` processes; the results do not depend on
    it. ``seed`` is the master seed of the permutation and bandwidth-CV
    streams, which wy_maxT reads from the returned Observation.
    """
    if not features:
        raise DataError("the permutation test needs at least one feature")
    pooled, n_a, _ = class_pair_columns(table, features, cfg)
    # warned here, before the pool, so the warning names the caller
    for feature, values in zip(features, pooled):
        if np.all(values == values[0]):
            warnings.warn(
                f"feature {feature!r} is constant in both classes; statistic is 0",
                DataQualityWarning,
                stacklevel=2,
            )
    details = ordered_map(
        partial(_observed_feature, pooled, n_a, features, cfg, seed),
        range(len(features)),
        workers=workers,
    )
    return Observation(cfg, seed, pooled, n_a, tuple(details))


def _permutation_row(observed: Observation, b: int) -> np.ndarray:
    """T_{i,b} for every feature i under permutation b, with the
    observation's settings and master seed."""
    pooled, n_a, cfg, seed = observed.pooled, observed.n_a, observed.cfg, observed.seed
    perm = np.random.default_rng([seed, _PERM_TAG, b]).permutation(pooled.shape[1])
    # row j receives the label of source row perm[j]
    to_a = perm < n_a
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataQualityWarning)
        return np.array([
            _pair_statistic(values[to_a], values[~to_a], cfg, seed, b=b, feature_index=i)[0]
            for i, values in enumerate(pooled)
        ])


def wy_maxT(observed: Observation, workers: int = 1) -> WyTestReport:
    """Run the single-step maxT permutation test from an observation.

    For b = 1..B the pooled two-class labels are permuted once (shared across
    features), per-feature statistics T_{i,b} are recomputed through the
    identical KDE pipeline, with the observation's settings and seed, and the
    trace records T_b = max_i T_{i,b}. The adjusted p-value of feature i is
    (1 + #{b: T_b >= T_i}) / (B + 1). Each permutation is one task of a pool
    of ``workers`` processes; results are independent of it.
    """
    cfg = observed.cfg
    rows = ordered_map(
        partial(_permutation_row, observed), range(1, cfg.permutations + 1), workers=workers
    )
    trace = np.vstack(rows).max(axis=1)
    results = []
    for detail in observed.details:
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
                n_a=detail.n_a,
                n_b=detail.n_b,
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
    family_reject: bool


def decide(report: WyTestReport) -> WyDecision:
    """Reject H0 for feature i iff p_i < alpha; family H0 falls with any of them."""
    alpha = report.config.alpha
    rejected = {r.feature: r.p_value < alpha for r in report.results}
    return WyDecision(
        alpha=alpha, rejected=rejected, family_reject=any(rejected.values())
    )
