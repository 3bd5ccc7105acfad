"""Univariate Gaussian-kernel density estimation with Scott, Silverman, and
cross-validated bandwidths, shared evaluation grids, Jensen-Shannon distance,
overlap quantification, and per-class shape summaries."""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DataQualityWarning
from .preprocess import quartiles
from .tabular import ColumnTable

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Densities are floored at this value inside logs (cross-validation scoring).
DENSITY_FLOOR = 1e-300

# Grid padding in bandwidths on each side; exp(-0.5 * 5^2) makes the
# truncated tail mass negligible at the default tolerances.
GRID_PAD_BANDWIDTHS = 5.0

DEFAULT_GRID_SIZE = 512

BANDWIDTH_POLICIES = ("scott", "silverman", "cv")

# grid_density's binned kernel is cut at this many bandwidths.
_KERNEL_REACH = 8.0

# grid_density bins the sample at this many fine nodes per bandwidth or more.
_GRID_BINS_PER_BANDWIDTH = 256
# The binned grid path runs when nfft * bit_length(nfft) is below this many
# times the exact path's n * points kernel terms: one exact term costs about
# as much as two such steps of an rfft/irfft pair plus the kernel's rfft.
_FFT_STEPS_PER_TERM = 2

DEFAULT_CV_FOLDS = 5

# Largest work tile of the exact sums, in float64 cells. 2^15 cells are
# 256 kB, so a tile stays in L2 across the passes made over it (bandwidth CV
# makes four or six per candidate). On 1280-value samples, tiles of 2^14 to
# 2^16 cells scored fastest and 2^17 on fell out of cache. Only the order of
# the CV sums depends on it; _exact_density's bits do not.
_EXACT_BLOCK = 1 << 15

# np.exp leaves its fast vector path for arguments at or below about -708,
# where results are subnormal or 0. The kernel clamps its argument at -700
# and subtracts exp(-700), so it is exactly 0 from sqrt(1400) ~ 37.4
# bandwidths on, and any value above ~1e-288 is unchanged.
_EXP_CLAMP = -700.0
_EXP_AT_CLAMP = float(np.exp(_EXP_CLAMP))
# Down to this argument the clamp and the subtraction of exp(-700) change no
# bit (exp(-660) ~ 5e-287, half an ulp of which exceeds exp(-700)), so np.exp
# alone is _kernel there.
_EXP_FAST_LIMIT = 660.0


def _sample_std(x: np.ndarray) -> float:
    return float(np.std(x, ddof=1))


def _fallback_bandwidth(x: np.ndarray) -> float:
    return 1e-3 * max(float(np.max(np.abs(x))), 1.0)


def _degenerate(x: np.ndarray, why: str) -> float:
    h = _fallback_bandwidth(x)
    warnings.warn(
        f"{why}; falling back to bandwidth {h:g}",
        DataQualityWarning,
        stacklevel=3,
    )
    return h


def _checked_sample(x: np.ndarray, rule: str) -> np.ndarray:
    """x as float64; a DataError naming the rule if it is empty or holds NaN
    or an infinity."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise DataError(f"{rule} on an empty sample")
    if not np.isfinite(x).all():
        raise DataError(f"{rule}: the sample holds NaN or infinite values")
    return x


def scott_bandwidth(x: np.ndarray) -> float:
    """Scott's rule h = sigma_hat * n^(-1/5); degenerate spread falls back."""
    x = _checked_sample(x, "scott_bandwidth")
    if x.size < 2:
        return _degenerate(x, "scott_bandwidth: single sample")
    sigma = _sample_std(x)
    if sigma <= 0.0:
        return _degenerate(x, "scott_bandwidth: zero sample spread")
    return sigma * x.size ** (-0.2)


def silverman_bandwidth(x: np.ndarray) -> float:
    """Silverman's rule h = 0.9 * min(sigma_hat, IQR/1.34) * n^(-1/5), with
    sigma_hat alone when the IQR is 0 (Silverman 1986, §3.4.2; R's bw.nrd0)."""
    x = _checked_sample(x, "silverman_bandwidth")
    if x.size < 2:
        return _degenerate(x, "silverman_bandwidth: single sample")
    q1, _, q3 = quartiles(x)
    sigma = _sample_std(x)
    spread = min(sigma, (q3 - q1) / 1.34) or sigma
    if spread <= 0.0:
        return _degenerate(x, "silverman_bandwidth: zero sample spread")
    return 0.9 * spread * x.size ** (-0.2)


def default_cv_candidates(x: np.ndarray, count: int = 20) -> np.ndarray:
    """Log-spaced candidate bandwidths in [0.1 * h_scott, 10 * h_scott]."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataQualityWarning)
        h_scott = scott_bandwidth(x)
    return np.geomspace(0.1 * h_scott, 10.0 * h_scott, count)


def _kernel(z: np.ndarray) -> np.ndarray:
    """exp(z) in place for z = -u^2 / 2, cut to exactly 0 at u >= sqrt(1400)."""
    np.maximum(z, _EXP_CLAMP, out=z)
    np.exp(z, out=z)
    np.subtract(z, _EXP_AT_CLAMP, out=z)
    return z


def _exact_density(samples: np.ndarray, points: np.ndarray, h: float) -> np.ndarray:
    """Gaussian KDE evaluated exactly, in chunks of points whose work block
    holds at most _EXACT_BLOCK cells (one point if a row is longer). Each
    point's sum is one whole row, so the chunk size changes no bit.

    Each kernel term is cut to exactly 0 beyond sqrt(1400) ~ 37.4 bandwidths
    (see _kernel); every term above ~1e-288 is the plain Gaussian's.
    """
    n = samples.size
    out = np.empty(points.size, dtype=np.float64)
    scaled = samples / h
    chunk = max(1, _EXACT_BLOCK // max(n, 1))
    for start in range(0, points.size, chunk):
        z = np.subtract.outer(points[start : start + chunk] / h, scaled)
        np.multiply(z, z, out=z)
        np.multiply(z, -0.5, out=z)
        out[start : start + chunk] = _kernel(z).sum(axis=1)
    return out / (n * h * _SQRT_2PI)


def _pair_cv_scores(
    x: np.ndarray, fold_of: np.ndarray, n_folds: int, candidates: np.ndarray
) -> np.ndarray:
    """Total held-out log-likelihood per candidate, on each fold's distinct
    values, each cross-fold pair scored once, in tiles of _EXACT_BLOCK cells.

    Each fold is reduced to its sorted distinct values and their
    multiplicities. A held-out value's density is the multiplicity-weighted
    kernel sum over the distinct values of the other folds, and its log
    enters the score once per copy. Fold f's values are tiled against the
    distinct values of every later fold; per candidate, a tile's row sums
    (k @ column weights) go to fold f's values and its column sums
    (row weights @ k) to the later folds' values. A tile whose arguments all
    lie at or above -660 takes np.exp alone, which gives _kernel's bits
    there; any other tile takes _kernel. Only the order of the sums differs
    from one plain sum per held-out point.
    """
    values, weights = [], []
    for f in range(n_folds):
        u, c = np.unique(x[fold_of == f], return_counts=True)
        values.append(u)
        weights.append(c.astype(np.float64))
    bounds = np.cumsum([0] + [u.size for u in values])
    u, w = np.concatenate(values), np.concatenate(weights)
    factors = -0.5 / (candidates * candidates)
    sums = np.zeros((candidates.size, u.size))
    for f in range(n_folds - 1):
        f1, end = bounds[f + 1], bounds[-1]
        width = min(end - f1, _EXACT_BLOCK)
        height = max(1, _EXACT_BLOCK // width)
        for c0 in range(f1, end, width):
            c1 = min(c0 + width, end)
            for r0 in range(bounds[f], f1, height):
                r1 = min(r0 + height, f1)
                d2 = np.subtract.outer(u[r0:r1], u[c0:c1])
                np.multiply(d2, d2, out=d2)
                reach = float(d2.max())
                k = np.empty_like(d2)
                for ci, factor in enumerate(factors):
                    np.multiply(d2, factor, out=k)
                    if reach * -factor <= _EXP_FAST_LIMIT:
                        np.exp(k, out=k)
                    else:
                        _kernel(k)
                    sums[ci, r0:r1] += k @ w[c0:c1]
                    sums[ci, c0:c1] += w[r0:r1] @ k

    scores = np.zeros(candidates.size)
    for f in range(n_folds):
        f0, f1 = bounds[f], bounds[f + 1]
        n_train = x.size - int(w[f0:f1].sum())
        dens = sums[:, f0:f1] / (n_train * candidates[:, None] * _SQRT_2PI)
        scores += np.log(np.maximum(dens, DENSITY_FLOOR)) @ w[f0:f1]
    return scores


def _linear_bin(x: np.ndarray, lo: float, dx: float, n_bins: int) -> np.ndarray:
    """Spread each sample's unit weight over its two bracketing grid nodes."""
    pos = (x - lo) / dx
    base = np.clip(np.floor(pos).astype(np.int64), 0, n_bins - 2)
    frac = pos - base
    counts = np.bincount(base, weights=1.0 - frac, minlength=n_bins)
    counts += np.bincount(base + 1, weights=frac, minlength=n_bins)
    return counts


def cv_bandwidth(
    x: np.ndarray,
    candidates: np.ndarray | None = None,
    folds: int = DEFAULT_CV_FOLDS,
    seed: int | list[int] = 0,
) -> float:
    """Pick the candidate bandwidth maximizing mean held-out log-likelihood.

    Folds come from a seeded shuffle with round-robin assignment. Densities
    are floored at 1e-300 inside the log; ties go to the largest bandwidth.
    At every sample size the held-out densities are exact sums
    (_pair_cv_scores: over each fold's distinct values, weighted by their
    multiplicities, in cache-sized tiles), with each kernel term cut to 0
    beyond sqrt(1400) ~ 37.4 bandwidths. The cost grows with the square of
    the number of distinct values: counters with a few dozen values cost
    milliseconds, continuous samples of 4800 values a few tenths of a
    second. A sample or candidate set holding NaN or an infinity is a
    DataError.

    Args:
        x: sample vector, n >= folds.
        candidates: candidate bandwidths; default 20 log-spaced values in
            [0.1 * h_scott, 10 * h_scott].
        folds: number of CV folds, >= 2.
        seed: RNG seed for the fold shuffle.
    """
    x = np.asarray(x, dtype=np.float64)
    if folds < 2:
        raise DataError(f"cv_bandwidth needs folds >= 2, got {folds}")
    if x.size < folds:
        raise DataError(f"cv_bandwidth needs n >= folds ({x.size} < {folds})")
    x = _checked_sample(x, "cv_bandwidth")
    cand = default_cv_candidates(x) if candidates is None else np.asarray(
        candidates, dtype=np.float64
    )
    if cand.size == 0:
        raise DataError("cv_bandwidth: empty candidate set")
    if not (np.isfinite(cand).all() and np.all(cand > 0.0)):
        raise DataError("cv_bandwidth: candidates must be finite and positive")
    order = np.argsort(cand)
    cand = cand[order]

    rng = np.random.default_rng(seed)
    fold_of = np.empty(x.size, dtype=np.int64)
    fold_of[rng.permutation(x.size)] = np.arange(x.size) % folds

    scores = _pair_cv_scores(x, fold_of, folds, cand)
    best = 0
    for ci in range(cand.size):
        if scores[ci] >= scores[best]:
            best = ci
    return float(cand[best])


@dataclass(frozen=True)
class KdeModel:
    """Gaussian-kernel density estimate: its samples and bandwidth."""

    samples: np.ndarray
    bandwidth: float

    def __post_init__(self) -> None:
        if self.samples.size == 0:
            raise DataError("KdeModel needs a non-empty sample")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0.0):
            raise DataError(
                f"KdeModel bandwidth must be finite and > 0, got {self.bandwidth}"
            )


def bandwidth_for(
    x: np.ndarray,
    policy: str,
    seed: int | list[int] = 0,
    n_candidates: int = 20,
    folds: int = DEFAULT_CV_FOLDS,
) -> float:
    """Bandwidth under the named policy: scott, silverman, or cv. Only cv
    reads the rest: it picks among default_cv_candidates(x, n_candidates)
    over ``folds`` folds shuffled from ``seed``."""
    if policy == "scott":
        return scott_bandwidth(x)
    if policy == "silverman":
        return silverman_bandwidth(x)
    if policy == "cv":
        return cv_bandwidth(x, default_cv_candidates(x, n_candidates), folds, seed)
    raise DataError(f"unknown bandwidth policy {policy!r}")


def kde_eval(model: KdeModel, points: np.ndarray) -> np.ndarray:
    """f_hat(x) = (1/(n*h)) * sum_j phi((x - x_j)/h) at each point."""
    points = np.asarray(points, dtype=np.float64)
    return _exact_density(model.samples, points, model.bandwidth)


@dataclass(frozen=True)
class EvalGrid:
    """Uniformly spaced, strictly increasing evaluation points.

    Rejects fewer than 2 points, and points that are not finite, not strictly
    increasing, or off the uniform spacing through the end points by more
    than 1e-9 of the span plus 4 ulps of the larger end (np.linspace output
    is well inside that).
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        x = self.points
        if x.size < 2:
            raise DataError("EvalGrid needs at least 2 points")
        if not np.all(np.isfinite(x)):
            raise DataError("EvalGrid points must be finite")
        if not np.all(np.diff(x) > 0.0):
            raise DataError("EvalGrid points must be strictly increasing")
        lo, hi = float(x[0]), float(x[-1])
        tol = 1e-9 * (hi - lo) + 4.0 * float(np.spacing(max(abs(lo), abs(hi))))
        if np.max(np.abs(x - np.linspace(lo, hi, x.size))) > tol:
            raise DataError("EvalGrid points must be uniformly spaced")

    @property
    def spacing(self) -> float:
        return float(self.points[1] - self.points[0])

    @property
    def size(self) -> int:
        return int(self.points.size)


def make_grid(
    samples: Sequence[np.ndarray], bandwidth: float, n_points: int = DEFAULT_GRID_SIZE
) -> EvalGrid:
    """Shared uniform grid covering every sample, padded by 5 * bandwidth.

    Pass the largest bandwidth of the densities the grid will carry; it must
    be finite and > 0. Every sample lies inside the grid, so grid_density
    can take its binned path on it.
    """
    samples = [np.asarray(s, dtype=np.float64) for s in samples]
    if not samples or any(s.size == 0 for s in samples):
        raise DataError("make_grid needs non-empty sample sets")
    if not (math.isfinite(bandwidth) and bandwidth > 0.0):
        raise DataError(f"make_grid bandwidth must be finite and > 0, got {bandwidth}")
    pad = GRID_PAD_BANDWIDTHS * bandwidth
    lo = min(float(s.min()) for s in samples) - pad
    hi = max(float(s.max()) for s in samples) + pad
    return EvalGrid(points=np.linspace(lo, hi, n_points))


def _binned_layout(n_points: int, spacing: float, h: float) -> tuple[int, int, int] | None:
    """(refine, radius, nfft) of grid_density's binned path, or None.

    The grid is refined `refine`-fold, to a fine spacing of at most h / 256,
    so every refine-th fine node is a grid point. The kernel has `radius`
    taps a side: 8 bandwidths, or the grid's span if that is shorter, since
    no sample and no point lies beyond it. nfft is the power of two above
    fine nodes + 2 * radius, so the circular convolution never wraps onto a
    grid point. None when the refinement does not fit in a float.
    """
    ratio = _GRID_BINS_PER_BANDWIDTH * spacing / h
    if not math.isfinite(ratio):
        return None
    refine = max(1, math.ceil(ratio))
    fine = (n_points - 1) * refine + 1
    radius = math.ceil(min(_KERNEL_REACH * h * refine / spacing, fine - 1))
    return refine, radius, 1 << (fine + 2 * radius).bit_length()


def _binned_is_cheaper(n: int, n_points: int, nfft: int) -> bool:
    """Whether one FFT convolution of length nfft costs less than the exact
    path's n * n_points kernel terms."""
    return nfft * nfft.bit_length() < _FFT_STEPS_PER_TERM * n * n_points


def grid_density(model: KdeModel, grid: EvalGrid) -> np.ndarray:
    """The KDE at every grid point, by binned FFT convolution or exact sums.

    The binned path spreads the sample linearly over a refinement of the grid
    with at least 256 nodes per bandwidth, where every refine-th node is a
    grid point, so nothing is interpolated. It convolves the bins with the
    Gaussian cut at 8 bandwidths by one rfft/irfft pair and clips FFT
    round-off below 0 (binned KDE: Silverman 1982, AS 176; Wand 1994). On the
    test fixtures it is within 1e-5 of the exact density's peak, and JS
    distances from it within 1e-6 of exact ones.

    The exact sums of kde_eval run instead when a sample lies outside the
    grid, or when they cost less than the FFT (_binned_is_cheaper: few
    samples, or a bandwidth small against the grid spacing).
    """
    x, h = model.samples, model.bandwidth
    lo, hi = float(grid.points[0]), float(grid.points[-1])
    layout = _binned_layout(grid.size, grid.spacing, h)
    if (
        layout is None
        or not _binned_is_cheaper(x.size, grid.size, layout[2])
        or float(x.min()) < lo
        or float(x.max()) > hi
    ):
        return _exact_density(x, grid.points, h)
    refine, radius, nfft = layout
    fine = (grid.size - 1) * refine + 1
    step = (hi - lo) / (fine - 1)
    half = np.exp(-0.5 * (step / h * np.arange(radius + 1)) ** 2)
    kernel = np.zeros(nfft)
    kernel[: radius + 1] = half
    kernel[nfft - radius :] = half[:0:-1]
    hist = _linear_bin(x, lo, step, fine)
    dens = np.fft.irfft(np.fft.rfft(hist, nfft) * np.fft.rfft(kernel), nfft)
    dens = np.maximum(dens[:fine:refine], 0.0)
    return dens / (x.size * h * _SQRT_2PI)


@dataclass(frozen=True)
class DensityPair:
    """Two renormalized mass vectors on a shared grid."""

    grid: EvalGrid
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        if self.p.shape != self.q.shape or self.p.size != self.grid.size:
            raise DataError("DensityPair vectors must match the grid length")


def to_mass_pair(kde_a: KdeModel, kde_b: KdeModel, grid: EvalGrid) -> DensityPair:
    """Evaluate both KDEs on the grid (grid_density) and renormalize each to
    unit mass."""
    p = grid_density(kde_a, grid)
    q = grid_density(kde_b, grid)
    sp, sq = float(p.sum()), float(q.sum())
    if not (math.isfinite(sp) and math.isfinite(sq)) or sp <= 0.0 or sq <= 0.0:
        raise DataError("to_mass_pair: density sums to zero on the grid")
    return DensityPair(grid=grid, p=p / sp, q=q / sq)


def js_distance_from_masses(p: np.ndarray, q: np.ndarray) -> float:
    """Square root of the base-2 Jensen-Shannon divergence of two mass vectors.

    Each half-KL term is a * log2(2a / (p + q)), so no midpoint 0.5 * (p + q)
    is formed that could underflow to 0 next to a subnormal mass. Vectors of
    different shapes or a non-finite divergence (NaN or infinite masses) are
    a DataError.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DataError(f"js_distance: mass vectors of shapes {p.shape} and {q.shape}")
    total = p + q

    def half_kl(a: np.ndarray) -> float:
        mask = a != 0.0  # 0 * log 0 is 0; a NaN mass stays in and shows
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.sum(a[mask] * np.log2(2.0 * a[mask] / total[mask])))

    divergence = 0.5 * half_kl(p) + 0.5 * half_kl(q)
    if not math.isfinite(divergence):
        raise DataError(f"js_distance: divergence {divergence}; masses must be finite")
    return math.sqrt(min(max(divergence, 0.0), 1.0))


def js_distance(pair: DensityPair) -> float:
    """Jensen-Shannon distance T in [0, 1] between the pair's mass vectors."""
    return js_distance_from_masses(pair.p, pair.q)


def overlap_coefficient(pair: DensityPair) -> float:
    """Shared mass sum_g min(p_g, q_g), i.e. 1 minus total-variation distance."""
    return float(np.minimum(pair.p, pair.q).sum())


def overlap_intervals(pair: DensityPair) -> list[tuple[float, float]]:
    """Maximal grid intervals where both masses exceed 1e-3 times the larger
    peak mass, as [lo, hi] endpoints in feature units, one per maximal run."""
    eps = 1e-3 * max(float(pair.p.max()), float(pair.q.max()))
    inside = np.minimum(pair.p, pair.q) > eps
    edges = np.diff(inside.astype(np.int8))
    starts = list(np.flatnonzero(edges == 1) + 1)
    ends = list(np.flatnonzero(edges == -1))
    if inside[0]:
        starts.insert(0, 0)
    if inside[-1]:
        ends.append(inside.size - 1)
    x = pair.grid.points
    return [(float(x[s]), float(x[e])) for s, e in zip(starts, ends)]


@dataclass(frozen=True)
class ClassShape:
    """Five-number summary, outlier count, and KDE curve for one class."""

    class_name: str
    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    outliers: int
    bandwidth: float
    density: np.ndarray


@dataclass(frozen=True)
class ShapeSummary:
    """Per-class shape statistics for one feature on a shared grid."""

    feature: str
    grid: EvalGrid
    classes: list[ClassShape]


def shape_summary(
    table: ColumnTable,
    feature: str,
    policy: str = "scott",
    n_points: int = DEFAULT_GRID_SIZE,
    seed: int = 0,
) -> ShapeSummary:
    """Box-plot statistics plus a KDE curve per class, all on one grid.

    Classes absent from the table are skipped with a warning; single-row
    classes get the degenerate fallback bandwidth. Under ``policy="cv"`` a
    class of 2 to DEFAULT_CV_FOLDS - 1 rows is a DataError, raised before any
    bandwidth or density is computed. The curves come from grid_density.
    """
    x_all = table.column(feature).astype(np.float64, copy=False)
    if x_all.size == 0:
        raise DataError(f"shape_summary: feature {feature!r} has no rows")
    if policy == "cv":
        for class_id, count in enumerate(table.class_counts()):
            if 1 < count < DEFAULT_CV_FOLDS:
                raise DataError(
                    f"shape_summary: feature {feature!r}, class "
                    f"{table.vocabulary.name_of(class_id)!r} has {count} rows; "
                    f"bandwidth cv needs at least {DEFAULT_CV_FOLDS} (its folds)"
                )
    per_class: list[tuple[str, np.ndarray, float]] = []
    for class_id in range(table.vocabulary.n_classes):
        name = table.vocabulary.name_of(class_id)
        x = x_all[table.labels == class_id]
        if x.size == 0:
            warnings.warn(
                f"shape_summary: class {name!r} has no rows, skipping",
                DataQualityWarning,
                stacklevel=2,
            )
            continue
        h = bandwidth_for(x, policy, seed=seed) if x.size >= 2 else _degenerate(
            x, f"shape_summary: class {name!r} has one row"
        )
        per_class.append((name, x, h))
    if not per_class:
        raise DataError(f"shape_summary: no class has rows for {feature!r}")

    grid = make_grid([x_all], max(h for _, _, h in per_class), n_points)
    shapes = []
    for name, x, h in per_class:
        model = KdeModel(x, h)
        q1, median, q3 = quartiles(x)
        # outliers lie strictly outside the 1.5·IQR fences
        fence = 1.5 * (q3 - q1)
        shapes.append(
            ClassShape(
                class_name=name,
                count=int(x.size),
                minimum=float(x.min()),
                q1=q1,
                median=median,
                q3=q3,
                maximum=float(x.max()),
                outliers=int(np.count_nonzero((x < q1 - fence) | (x > q3 + fence))),
                bandwidth=h,
                density=grid_density(model, grid),
            )
        )
    return ShapeSummary(feature=feature, grid=grid, classes=shapes)
