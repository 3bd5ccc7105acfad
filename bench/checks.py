"""Output checks that hold for any seed, plus the default-seed reference.

Each check returns a list of (stage, message) failures; an empty list passes.
The JS oracle is this file's own: a direct Gaussian-kernel sum at every
reported grid point, renormalised to unit mass, and the base-2 Jensen-Shannon
distance of the two mass vectors.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

JS_TOLERANCE = 1e-5


def _kernel_sums(samples: np.ndarray, points: np.ndarray, h: float) -> np.ndarray:
    out = np.empty(points.size)
    step = max(1, 2_000_000 // max(samples.size, 1))
    for i in range(0, points.size, step):
        z = (points[i : i + step, None] - samples[None, :]) / h
        out[i : i + step] = np.exp(-0.5 * z * z).sum(axis=1)
    return out


def js_oracle(xa, xb, h_a: float, h_b: float, points: np.ndarray) -> float:
    """Base-2 JS distance of the two Gaussian KDEs' masses on the points."""
    p = _kernel_sums(np.asarray(xa, float), points, h_a)
    q = _kernel_sums(np.asarray(xb, float), points, h_b)
    p, q = p / p.sum(), q / q.sum()
    m = 0.5 * p + 0.5 * q
    divergence = 0.0
    for a in (p, q):
        # a term whose mass is positive but whose midpoint underflows is
        # below 1e-300 and contributes nothing measurable
        keep = (a > 0.0) & (m > 0.0)
        divergence += 0.5 * float(np.sum(a[keep] * np.log2(a[keep] / m[keep])))
    return math.sqrt(min(max(divergence, 0.0), 1.0))


def _reported_grid(path: Path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    return np.array([float(row[0]) for row in rows])


def check_wy(out_dir: Path) -> list[tuple[str, str]]:
    """p-values from the reported trace, and observed T against the oracle."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    wy = report["stages"].get("wy")
    if wy is None:
        return [("wy", "report.json has no wy stage")]
    failures = []
    trace = np.asarray(wy["max_trace"], dtype=float)
    permutations = wy["permutations"]
    if trace.size != permutations:
        failures.append(("wy", f"trace has {trace.size} entries, B = {permutations}"))
    # Both sides of a permutation are drawn from one pooled sample, so their
    # Gaussian KDEs overlap and T < 1; T = 1 means the masses lost all overlap
    # to underflow, which would inflate every p-value.
    if np.any(trace >= 1.0):
        failures.append(("wy", f"permutation trace reaches T = 1: {trace.tolist()}"))
    data = np.load(out_dir / "artifacts" / "preprocessed.npz", allow_pickle=False)
    names = [str(s) for s in data["feature_names"]]
    classes = [str(s) for s in data["class_names"]]
    X, y = data["X_train"], data["y_train"]
    side_a = y == classes.index(wy["classes"][0])
    side_b = y == classes.index(wy["classes"][1])
    for result in wy["results"]:
        feature, stat = result["feature"], result["statistic"]
        expected = (1 + int(np.sum(trace >= stat))) / (permutations + 1)
        if result["p_value"] != expected:
            failures.append(
                ("wy", f"{feature}: p = {result['p_value']!r}, trace gives {expected!r}")
            )
        column = X[:, names.index(feature)]
        points = _reported_grid(out_dir / result["overlap"]["file"])
        oracle = js_oracle(
            column[side_a], column[side_b],
            result["bandwidth_a"], result["bandwidth_b"], points,
        )
        if not abs(oracle - stat) <= JS_TOLERANCE:
            failures.append(
                ("wy", f"{feature}: T = {stat!r}, exact-sum oracle {oracle!r}")
            )
    return failures


def check_class_side(
    out_dir: Path, class_pair, cv_side: str, limit: int
) -> list[tuple[str, str]]:
    """The wy classes' train rows sit on the intended side of the CV limit."""
    fragment = json.loads(
        (out_dir / "fragments" / "preprocess.json").read_text(encoding="utf-8")
    )
    failures = []
    for name in class_pair:
        train_rows = fragment["class_rows"][name]["train"]
        if cv_side == "below" and not train_rows < limit:
            failures.append(("preprocess", f"{name}: {train_rows} rows, not < {limit}"))
        if cv_side == "above" and not train_rows >= limit:
            failures.append(("preprocess", f"{name}: {train_rows} rows, not >= {limit}"))
    return failures


def outcome(report: dict) -> dict:
    """Selected features, CV winner and p-values of a report, as recorded."""
    stages = report["stages"]
    out = {"selected": stages["preprocess"]["selected"]}
    if "cv" in stages:
        out["cv_best"] = stages["cv"]["best"]
    if "wy" in stages:
        out["p_values"] = {r["feature"]: r["p_value"] for r in stages["wy"]["results"]}
    return out


def check_reference(out_dir: Path, expected: dict) -> list[tuple[str, str]]:
    """Default-seed outcome against the one recorded in reference.json."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    got = outcome(report)
    stage_of = {"selected": "preprocess", "cv_best": "cv", "p_values": "wy"}
    return [
        (stage_of[key], f"{key}: {got.get(key)!r} != reference {value!r}")
        for key, value in expected.items()
        if got.get(key) != value
    ]
