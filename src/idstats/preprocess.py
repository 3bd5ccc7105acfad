"""Robust scaling, IQR outlier flagging, engineered transforms, correlation
measures (Pearson, Kendall tau-b), and correlation-threshold feature dropping."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DataQualityWarning
from .parallel import ordered_map
from .tabular import ColumnTable

RECIPROCAL_EPS = 1e-9


def quantile(x: np.ndarray, q: float) -> float:
    """Linear-interpolation quantile: index h = q·(n−1) into the sorted values."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise DataError("quantile of an empty vector")
    if not 0.0 <= q <= 1.0:
        raise DataError(f"quantile level must be in [0, 1], got {q}")
    return float(np.quantile(x, q))


@dataclass(frozen=True)
class RobustScalerState:
    """Median and IQR of one training column, in the column's units."""

    median: float
    iqr: float


def robust_fit(x: np.ndarray) -> RobustScalerState:
    """Fit median/IQR on a training column."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise DataError("robust_fit on an empty vector")
    q1, q3 = quantile(x, 0.25), quantile(x, 0.75)
    return RobustScalerState(median=quantile(x, 0.5), iqr=q3 - q1)


def robust_transform(x: np.ndarray, state: RobustScalerState) -> np.ndarray:
    """(x − median) / IQR, with divisor 1 when the fitted IQR is zero."""
    x = np.asarray(x, dtype=np.float64)
    divisor = state.iqr if state.iqr > 0.0 else 1.0
    return (x - state.median) / divisor


def iqr_outlier_mask(x: np.ndarray, k: float = 1.5) -> np.ndarray:
    """True where x falls outside [Q1 − k·IQR, Q3 + k·IQR]."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise DataError("iqr_outlier_mask on an empty vector")
    q1, q3 = quantile(x, 0.25), quantile(x, 0.75)
    spread = q3 - q1
    return (x < q1 - k * spread) | (x > q3 + k * spread)


@dataclass(frozen=True)
class EngineeredFeature:
    """One derived column: sign-preserving power or shifted reciprocal.

    Attributes:
        source: name of the input column.
        transform: "power" or "reciprocal".
        exponent: power-transform exponent; ignored for reciprocal.
    """

    source: str
    transform: str
    exponent: float | None = None

    def __post_init__(self) -> None:
        if self.transform not in ("power", "reciprocal"):
            raise DataError(f"unknown transform {self.transform!r}")
        if self.transform == "power" and self.exponent is None:
            raise DataError("power transform needs an exponent")

    @property
    def output_name(self) -> str:
        if self.transform == "power":
            return f"{self.source}_pow{self.exponent:g}"
        return f"{self.source}_recip"


def engineer_features(
    t: ColumnTable, spec: list[EngineeredFeature]
) -> ColumnTable:
    """Append derived columns: power(p) = sign(x)·|x|^p, reciprocal = 1/(x+ε)."""
    out = t
    for item in spec:
        x = t.column(item.source).astype(np.float64, copy=False)
        if item.transform == "power":
            values = np.sign(x) * np.abs(x) ** item.exponent
        else:
            values = 1.0 / (x + RECIPROCAL_EPS)
        out = out.with_column(item.output_name, values)
    return out


def pearson_corr(x: np.ndarray, y: np.ndarray) -> float:
    """Sample Pearson correlation; degenerate (zero-variance) input → 0 + warning."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise DataError("pearson_corr needs two equal-length vectors, n >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt(np.dot(dx, dx))
    sy = np.sqrt(np.dot(dy, dy))
    if sx == 0.0 or sy == 0.0:
        warnings.warn(
            "pearson_corr: zero-variance input, returning 0.0",
            DataQualityWarning,
            stacklevel=2,
        )
        return 0.0
    return float(np.clip(np.dot(dx, dy) / (sx * sy), -1.0, 1.0))


def _bitwise_inversions(ranks: np.ndarray) -> int:
    """Number of pairs i < j with ranks[i] > ranks[j], for dense ranks >= 0.

    Such a pair first differs at a bit k where ranks[i] has the 1. From the
    top bit down, with the order grouped by the bits above k and each group
    in input order, every 0 adds the 1s before it in its group; a stable
    partition of each group by bit k gives the order for bit k − 1.
    """
    v = np.asarray(ranks, dtype=np.int64)
    i = np.arange(v.size)
    total = 0
    for k in range(int(v.max(initial=0)).bit_length() - 1, -1, -1):
        q = v >> k
        b = q & 1
        counts = np.bincount(q)
        start = np.cumsum(counts) - counts  # first slot of each q in the next order
        group_start = start[q - b]
        r = np.cumsum(b) - b
        r -= r[group_start]  # 1s before each element within its group
        total += int(r.sum() - np.dot(r, b))
        if k:
            # a 0 moves back past the r 1s before it; a 1 goes to slot r of its q
            offset = i - group_start
            pos = start[q] + offset - r + b * (2 * r - offset)
            v_next = np.empty_like(v)
            v_next[pos] = v
            v = v_next
    return total


def kendall_tau_b(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall's tau-b with tie correction in O(n log n).

    Each vector becomes dense integer ranks (``np.unique``), whose group
    sizes give the x- and y-tie pair counts. The pairs are sorted by the one
    integer key rx·(max ry + 1) + ry, so equal keys are joint ties, and the
    strict inversions of the y ranks in that order are the discordant pairs;
    ``_bitwise_inversions`` counts them one bit at a time. Matches the O(n²)
    pair-enumeration definition exactly; ``0.0`` and ``-0.0`` are one value.

    Args:
        x, y: equal-length finite vectors, n >= 2.

    Returns:
        tau-b in [−1, 1]; 0.0 with a warning when either vector is constant.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise DataError("kendall_tau_b needs two equal-length vectors, n >= 2")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("kendall_tau_b needs finite values")
    n = x.size
    _, rx, x_counts = np.unique(x, return_inverse=True, return_counts=True)
    _, ry, y_counts = np.unique(y, return_inverse=True, return_counts=True)

    n0 = n * (n - 1) // 2
    n1 = int(np.sum(x_counts * (x_counts - 1) // 2))
    n2 = int(np.sum(y_counts * (y_counts - 1) // 2))
    if n1 == n0 or n2 == n0:
        warnings.warn(
            "kendall_tau_b: constant input, returning 0.0",
            DataQualityWarning,
            stacklevel=2,
        )
        return 0.0
    # equal keys have equal y, so no stable sort is needed
    key = rx * y_counts.size + ry
    order = np.argsort(key)
    sorted_key = key[order]
    # joint-tie pairs: runs of equal keys
    run_ends = np.flatnonzero(np.append(sorted_key[1:] != sorted_key[:-1], True))
    run_lengths = np.diff(run_ends, prepend=-1)
    n3 = int(np.sum(run_lengths * (run_lengths - 1) // 2))

    n_disc = _bitwise_inversions(ry[order])
    # concordant − discordant = untied pairs − 2·discordant
    num = (n0 - n1 - n2 + n3) - 2 * n_disc
    denom = np.sqrt(float(n0 - n1) * float(n0 - n2))
    return float(np.clip(num / denom, -1.0, 1.0))


@dataclass
class CorrelationMatrix:
    """Symmetric coefficient matrix over named numeric columns."""

    method: str
    names: list[str]
    values: np.ndarray

    def lookup(self, a: str, b: str) -> float:
        return float(self.values[self.names.index(a), self.names.index(b)])


def _kendall_pair(cols: list[np.ndarray], pair: tuple[int, int]) -> float:
    i, j = pair
    return kendall_tau_b(cols[i], cols[j])


def correlation_matrix(
    t: ColumnTable, method: str, names: list[str] | None = None, workers: int = 1
) -> CorrelationMatrix:
    """Pairwise Pearson or Kendall matrix over the named numeric columns.

    The Kendall pairs run on ``workers`` processes; the matrix does not
    depend on it.
    """
    if method not in ("pearson", "kendall"):
        raise DataError(f"unknown correlation method {method!r}")
    names = t.feature_names if names is None else names
    p = len(names)
    cols = [t.column(name).astype(np.float64, copy=False) for name in names]
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    if method == "pearson":
        coefficients = [pearson_corr(cols[i], cols[j]) for i, j in pairs]
    else:
        coefficients = ordered_map(_kendall_pair, pairs, cols, workers=workers)
    values = np.eye(p)
    for (i, j), coefficient in zip(pairs, coefficients):
        values[i, j] = values[j, i] = coefficient
    return CorrelationMatrix(method=method, names=names, values=values)


@dataclass(frozen=True)
class DroppedFeature:
    name: str
    reason: str


def drop_correlated(
    t: ColumnTable, threshold: float = 0.7, workers: int = 1
) -> tuple[list[str], list[DroppedFeature]]:
    """Greedily drop features until no pair is correlated past the threshold.

    A pair violates when |coefficient| >= threshold under Pearson OR Kendall.
    From the worst violating pair, the member with the larger mean absolute
    correlation to the other retained features is dropped; ties keep the
    earlier column. The Kendall pairs run on ``workers`` processes; the
    result does not depend on it.

    Returns:
        (retained names in original order, dropped features with reasons).
    """
    names = t.feature_names
    if len(names) < 2:
        raise DataError("drop_correlated needs at least 2 columns")
    pear = correlation_matrix(t, "pearson", names).values
    kend = correlation_matrix(t, "kendall", names, workers=workers).values
    strength = np.maximum(np.abs(pear), np.abs(kend))
    np.fill_diagonal(strength, 0.0)

    alive = list(range(len(names)))
    dropped: list[DroppedFeature] = []
    while True:
        sub = strength[np.ix_(alive, alive)]
        flat = int(np.argmax(sub))
        i_loc, j_loc = divmod(flat, len(alive))
        if sub[i_loc, j_loc] < threshold:
            break
        i, j = alive[i_loc], alive[j_loc]
        mean_i = sub[i_loc].sum() / (len(alive) - 1)
        mean_j = sub[j_loc].sum() / (len(alive) - 1)
        # drop the more globally correlated member; ties keep the earlier column
        if mean_i > mean_j:
            victim, kept = i, j
        else:
            victim, kept = j, i
        dropped.append(
            DroppedFeature(
                name=names[victim],
                reason=(
                    f"correlated with {names[kept]!r}: "
                    f"|pearson|={abs(pear[victim, kept]):.3f}, "
                    f"|kendall|={abs(kend[victim, kept]):.3f} "
                    f">= {threshold:g}"
                ),
            )
        )
        alive.remove(victim)
        if len(alive) == 1:
            break
    retained = [names[i] for i in alive]
    return retained, dropped
