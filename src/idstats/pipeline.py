"""Pipeline stages and report assembly.

Each stage writes its results as a JSON fragment under ``fragments/`` and the
envelope ``report.json`` is re-merged from all fragments present, so stages
can run independently and in any order that satisfies their inputs. The
envelope is byte-deterministic for a given (input, config); wall-clock
timestamps live only in ``run_meta.json``.
"""

from __future__ import annotations

import csv
import fcntl
import json
import re
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._version import __version__
from .atomic import atomic_open
from .config import RunConfig, config_echo
from .density import overlap_coefficient, overlap_intervals, shape_summary
from .errors import ConfigError, DataError, IdstatsError
from .evaluation import confusion_matrix, grid_search, selection_key
from .parallel import ordered_map
from .preprocess import (
    drop_correlated,
    engineer_features,
    robust_fit,
    robust_transform,
)
from .tabular import (
    ColumnTable,
    LabelVocabulary,
    apply_encoders,
    dedup,
    fit_encoders,
    load_csv,
    stratified_split,
)
from .trees import (
    ModelSpec,
    derive_seed,
    fit_model,
    predict_labels,
    rfe,
    save_model,
)
from .wytest import decide, observed_details, wy_maxT

REPORT_FORMAT = "idstats-report"
REPORT_VERSION = 1
STAGE_ORDER = ("preprocess", "cv", "density", "wy")

# Seed-path tags keeping per-stage RNG streams disjoint.
_SPLIT_TAG = 10
_RFE_TAG = 11
_CV_TAG = 12
_REFIT_TAG = 13
_DENSITY_TAG = 14
_WY_TAG = 15


def _json_default(value):
    """numpy arrays and scalars as the Python values json writes."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path, encoding="utf-8") as handle:
        handle.write(
            json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"
        )


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path, encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _safe_name(feature: str) -> str:
    """Feature name squeezed into a filename fragment."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", feature)


@contextmanager
def output_lock(out_dir: Path):
    """Exclusive advisory lock: one process per output directory."""
    out_dir.mkdir(parents=True, exist_ok=True)
    handle = open(out_dir / ".lock", "w", encoding="utf-8")
    try:
        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        handle.close()
        raise RuntimeError(
            f"output directory {out_dir} is in use by another run"
        ) from None
    try:
        yield
    finally:
        fcntl.flock(handle, fcntl.LOCK_UN)
        handle.close()


# ---------------------------------------------------------------------------
# preprocess


def run_preprocess(cfg: RunConfig) -> dict:
    """Ingest, split, encode, engineer, scale, and select features.

    Order: dedup, stratified split, encoders fitted on the train rows and
    applied to both sides, engineered columns, robust scaling fitted on train,
    recursive elimination, then correlation pruning of the survivors.
    ``cfg.threads`` processes grow the elimination forests' trees and score
    the pruning's Kendall pairs.
    """
    opts = cfg.preprocess
    schema = list(cfg.schema)
    try:
        table = load_csv(str(cfg.input), schema)
    except OSError as exc:
        raise DataError(f"cannot read input {cfg.input}: {exc}") from exc

    counts = {
        "source_rows": table.meta.get("source_rows", table.n_rows),
        "unparseable_rows": table.meta.get("dropped_rows", 0),
        "duplicate_rows": 0,
    }
    if opts.dedup:
        table = dedup(table)
        counts["duplicate_rows"] = table.meta.get("duplicate_rows", 0)

    train, test = stratified_split(
        table, opts.test_fraction, derive_seed(cfg.seed, _SPLIT_TAG)
    )
    del table  # the split holds every row the stage still needs
    encoders = fit_encoders(train, schema)
    train = apply_encoders(train, encoders)
    test = apply_encoders(test, encoders)

    if opts.engineered:
        train = engineer_features(train, list(opts.engineered))
        test = engineer_features(test, list(opts.engineered))

    scalers: dict[str, dict[str, float]] = {}
    if opts.scale:
        for name in train.feature_names:
            state = robust_fit(train.column(name))
            train = train.with_column(name, robust_transform(train.column(name), state))
            test = test.with_column(name, robust_transform(test.column(name), state))
            scalers[name] = asdict(state)

    names = train.feature_names
    rfe_result = rfe(
        train.matrix(),
        train.labels,
        opts.rfe,
        seed=derive_seed(cfg.seed, _RFE_TAG),
        feature_names=names,
        n_classes=train.vocabulary.n_classes,
        workers=cfg.threads,
    )
    after_rfe = list(rfe_result.selected)

    corr_dropped = []
    selected = after_rfe
    if len(after_rfe) >= 2:
        selected, corr_dropped = drop_correlated(
            train.select_columns(after_rfe), opts.correlation_threshold, cfg.threads
        )

    out = cfg.output
    indicator_columns = sorted(
        f"{column}{category}"
        for column, categories in encoders.dummy.items()
        for category in categories
    )
    class_names = list(train.vocabulary.names)
    class_rows = {
        name: {
            "train": int(train.class_counts()[i]),
            "test": int(test.class_counts()[i]),
        }
        for i, name in enumerate(class_names)
    }

    npz_path, state_path = _artifact_paths(out)
    npz_path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(npz_path, "wb") as handle:
        np.savez(
            handle,
            X_train=train.matrix(),
            y_train=train.labels,
            X_test=test.matrix(),
            y_test=test.labels,
            feature_names=np.array(names, dtype=str),
            class_names=np.array(class_names, dtype=str),
            selected=np.array(selected, dtype=str),
        )
    state = {
        "schema": [asdict(c) for c in schema],
        "counts": counts
        | {"train_rows": train.n_rows, "test_rows": test.n_rows},
        "class_rows": class_rows,
        "encoders": asdict(encoders),
        "indicator_columns": indicator_columns,
        "scalers": scalers,
        "engineered": [e.output_name for e in opts.engineered],
        "rfe": {
            "trace": [
                {
                    "round": r.index,
                    "importances": r.importances,
                    "dropped": r.dropped,
                }
                for r in rfe_result.trace
            ],
            "final_importances": rfe_result.final_importances,
            "selected": after_rfe,
        },
        "correlation_dropped": [
            {"feature": d.name, "reason": d.reason} for d in corr_dropped
        ],
        "selected": selected,
    }
    _write_json(state_path, state)

    tables_dir = out / "tables"
    _write_csv(
        tables_dir / "selected_features.csv",
        ["Feature", "Importance"],
        [
            [name, f"{rfe_result.final_importances.get(name, 0.0):.6f}"]
            for name in selected
        ],
    )
    dropped_rows = [
        [name, "rfe", f"importance below {opts.rfe.keep_threshold:g}"]
        for r in rfe_result.trace
        for name in r.dropped
    ] + [[d.name, "correlation", d.reason] for d in corr_dropped]
    _write_csv(
        tables_dir / "dropped_features.csv", ["Feature", "Stage", "Reason"], dropped_rows
    )
    _write_csv(
        tables_dir / "rfe_trace.csv",
        ["Round", "Feature", "Importance", "Dropped"],
        [
            [r.index, name, f"{imp:.6f}", int(name in r.dropped)]
            for r in rfe_result.trace
            for name, imp in r.importances.items()
        ],
    )

    return {
        "counts": state["counts"],
        "class_rows": class_rows,
        "encoded_columns": names,
        "engineered": state["engineered"],
        "scaled": opts.scale,
        "rfe": {
            "rounds": len(rfe_result.trace),
            "selected": after_rfe,
        },
        "correlation_dropped": state["correlation_dropped"],
        "selected": selected,
    }


def _artifact_paths(out_dir: Path) -> tuple[Path, Path]:
    base = out_dir / "artifacts"
    return base / "preprocessed.npz", base / "state.json"


@dataclass
class PreprocessArtifacts:
    """Re-hydrated preprocess outputs for the downstream stages."""

    train: ColumnTable
    test: ColumnTable
    selected: list[str]
    indicator_columns: set[str]


def load_artifacts(out_dir: Path) -> PreprocessArtifacts:
    npz_path, state_path = _artifact_paths(out_dir)
    if not npz_path.exists() or not state_path.exists():
        raise DataError(
            f"no preprocess artifacts under {out_dir}; run the preprocess stage first"
        )
    data = np.load(npz_path, allow_pickle=False)
    state = json.loads(state_path.read_text(encoding="utf-8"))
    names = [str(s) for s in data["feature_names"]]
    vocab = LabelVocabulary(names=tuple(str(s) for s in data["class_names"]))

    def _table(matrix: np.ndarray, labels: np.ndarray) -> ColumnTable:
        columns = {name: matrix[:, i] for i, name in enumerate(names)}
        return ColumnTable(columns, labels.astype(np.int64), vocab, {})

    return PreprocessArtifacts(
        train=_table(data["X_train"], data["y_train"]),
        test=_table(data["X_test"], data["y_test"]),
        selected=[str(s) for s in data["selected"]],
        indicator_columns=set(state.get("indicator_columns", [])),
    )


def _analysis_features(
    art: PreprocessArtifacts, requested: tuple[str, ...] | None
) -> list[str]:
    """Requested features, or the selected set minus 0/1 indicator columns.
    Two features whose names squeeze to one plot-data file name are rejected."""
    if requested is None:
        features = [f for f in art.selected if f not in art.indicator_columns]
    else:
        features = list(requested)
        missing = [f for f in features if f not in art.train.columns]
        if missing:
            raise DataError(f"unknown feature(s) {', '.join(missing)}")
    # the config rejects an empty list, so only the selected set can be empty
    if not features:
        raise DataError("no continuous features survive selection; list them explicitly")
    by_file: dict[str, str] = {}
    for feature in features:
        first = by_file.setdefault(_safe_name(feature), feature)
        if first != feature:
            raise DataError(
                f"features {first!r} and {feature!r} would share the "
                f"plot-data file name {_safe_name(feature)!r}"
            )
    return features


# ---------------------------------------------------------------------------
# cv


def run_cv(cfg: RunConfig) -> dict:
    """Grid search over every model family on shared folds; refit the winner.

    ``cfg.threads`` processes run the CV fits of all families, in one pool,
    and then the refit's forest trees.
    """
    if not cfg.cv.models:
        raise ConfigError("config.cv.models is empty; configure at least one family")
    art = load_artifacts(cfg.output)
    train = art.train.select_columns(art.selected)
    test = art.test.select_columns(art.selected)
    cv_seed = derive_seed(cfg.seed, _CV_TAG)

    searches = grid_search(
        cfg.cv.models, train, k=cfg.cv.k, seed=cv_seed, workers=cfg.threads
    )

    ranked = sorted(
        searches.items(),
        key=lambda item: selection_key(
            item[0], item[1].best_params, item[1].best_report.test_mean.f1
        ),
    )
    best_family, best_search = ranked[0]
    best_params = dict(best_search.best_params)

    X_train, y_train = train.matrix(), train.labels
    X_test, y_test = test.matrix(), test.labels
    n_classes = train.vocabulary.n_classes
    model = fit_model(
        ModelSpec(best_family, best_params),
        X_train,
        y_train,
        n_classes=n_classes,
        seed=derive_seed(cfg.seed, _REFIT_TAG),
        workers=cfg.threads,
    )
    cm_train = confusion_matrix(y_train, predict_labels(model, X_train), n_classes)
    cm_test = confusion_matrix(y_test, predict_labels(model, X_test), n_classes)
    save_model(model, str(cfg.output / "artifacts" / "best_model.json"))

    class_names = list(train.vocabulary.names)
    tables_dir = cfg.output / "tables"
    metric_rows = []
    for family, search in searches.items():
        report = search.best_report
        for split, mean in (("train", report.train_mean), ("test", report.test_mean)):
            metric_rows.append(
                [
                    family,
                    split,
                    f"{mean.precision:.6f}",
                    f"{mean.recall:.6f}",
                    f"{mean.f1:.6f}",
                    f"{mean.roc_auc:.6f}",
                    f"{report.ranges[split]['f1']:.6f}",
                    int(report.stable[split]["f1"]),
                ]
            )
    _write_csv(
        tables_dir / "cv_metrics.csv",
        ["Model", "Split", "Precision", "Recall", "F1", "RocAuc", "F1Range", "Stable"],
        metric_rows,
    )
    for name, cm in (("confusion_train", cm_train), ("confusion_test", cm_test)):
        _write_csv(
            tables_dir / f"{name}.csv",
            ["True\\Predicted"] + class_names,
            [[class_names[i]] + cm[i].tolist() for i in range(n_classes)],
        )

    return {
        "k": cfg.cv.k,
        "features": art.selected,
        "families": {
            family: {
                "best_params": search.best_params,
                "cells": [
                    {"params": cell.params, "test_f1": cell.report.test_mean.f1}
                    for cell in search.cells
                ],
                "report": asdict(search.best_report),
            }
            for family, search in searches.items()
        },
        "best": {"family": best_family, "params": best_params},
        "confusion": {
            "classes": class_names,
            "train": cm_train.tolist(),
            "test": cm_test.tolist(),
        },
    }


# ---------------------------------------------------------------------------
# density


def run_density(cfg: RunConfig) -> dict:
    """Per-feature, per-class shape summaries and KDE curves on shared grids.

    ``cfg.threads`` processes compute the features' summaries; the files are
    written here, in feature order.
    """
    art = load_artifacts(cfg.output)
    features = _analysis_features(art, cfg.density.features)
    seed = derive_seed(cfg.seed, _DENSITY_TAG)
    plot_dir = cfg.output / "plotdata"

    computed = ordered_map(
        lambda feature: shape_summary(
            art.train, feature, policy=cfg.density.policy,
            n_points=cfg.density.grid_size, seed=seed,
        ),
        features,
        workers=cfg.threads,
    )
    summaries = {}
    for feature, summary in zip(features, computed):
        file_name = f"density_{_safe_name(feature)}.csv"
        header = ["x"] + [shape.class_name for shape in summary.classes]
        x = summary.grid.points
        rows = [
            [f"{x[g]:.10g}"]
            + [f"{shape.density[g]:.10g}" for shape in summary.classes]
            for g in range(x.size)
        ]
        _write_csv(plot_dir / file_name, header, rows)
        summaries[feature] = {
            "grid": {
                "low": float(x[0]),
                "high": float(x[-1]),
                "points": int(x.size),
            },
            "classes": [
                {
                    "class": shape.class_name,
                    "count": shape.count,
                    "min": shape.minimum,
                    "q1": shape.q1,
                    "median": shape.median,
                    "q3": shape.q3,
                    "max": shape.maximum,
                    "outliers": shape.outliers,
                    "bandwidth": shape.bandwidth,
                }
                for shape in summary.classes
            ],
            "file": f"plotdata/{file_name}",
        }

    shape_rows = [
        [
            feature,
            entry["class"],
            entry["count"],
            f"{entry['min']:.6f}",
            f"{entry['q1']:.6f}",
            f"{entry['median']:.6f}",
            f"{entry['q3']:.6f}",
            f"{entry['max']:.6f}",
            entry["outliers"],
            f"{entry['bandwidth']:.6g}",
        ]
        for feature in features
        for entry in summaries[feature]["classes"]
    ]
    _write_csv(
        cfg.output / "tables" / "shape_summary.csv",
        ["Feature", "Class", "Count", "Min", "Q1", "Median", "Q3", "Max", "Outliers",
         "Bandwidth"],
        shape_rows,
    )

    return {
        "policy": cfg.density.policy,
        "grid_size": cfg.density.grid_size,
        "features": features,
        "summaries": summaries,
    }


# ---------------------------------------------------------------------------
# wy


def run_wy(cfg: RunConfig) -> dict:
    """Max-T permutation test for the configured class pair, plus overlaps.

    ``cfg.threads`` processes compute the observed statistics, one task per
    feature, and then the permutations, which refit both bandwidths each
    time. The observation carries the class-pair matrix, settings and seed
    to the permutations, and its details feed the overlaps and plot data.
    """
    art = load_artifacts(cfg.output)
    features = _analysis_features(art, cfg.wy.features)
    seed = derive_seed(cfg.seed, _WY_TAG)

    observed = observed_details(
        art.train, features, cfg.wy, workers=cfg.threads, seed=seed
    )
    report = wy_maxT(observed, workers=cfg.threads)
    decision = decide(report)

    plot_dir = cfg.output / "plotdata"
    overlap = {}
    for detail in observed.details:
        pair = detail.pair
        x = pair.grid.points
        spacing = pair.grid.spacing
        rows = [
            [
                f"{x[g]:.10g}",
                f"{pair.p[g] / spacing:.10g}",
                f"{pair.q[g] / spacing:.10g}",
                f"{pair.p[g]:.10g}",
                f"{pair.q[g]:.10g}",
            ]
            for g in range(x.size)
        ]
        file_name = f"wy_{_safe_name(detail.feature)}.csv"
        _write_csv(
            plot_dir / file_name,
            ["x", "density_a", "density_b", "mass_a", "mass_b"],
            rows,
        )
        overlap[detail.feature] = {
            "coefficient": overlap_coefficient(pair),
            "intervals": [[lo, hi] for lo, hi in overlap_intervals(pair)],
            "file": f"plotdata/{file_name}",
        }

    tables_dir = cfg.output / "tables"
    _write_csv(
        tables_dir / "wy_results.csv",
        ["Feature", "Jensen-Shannon Distance", "p-value"],
        [
            [r.feature, f"{r.statistic:.6f}", r.p_display]
            for r in report.results
        ],
    )
    _write_csv(
        tables_dir / "wy_overlap.csv",
        ["Feature", "OverlapCoefficient", "Intervals"],
        [
            [
                feature,
                f"{overlap[feature]['coefficient']:.6f}",
                ";".join(
                    f"{lo:.6f}:{hi:.6f}" for lo, hi in overlap[feature]["intervals"]
                ),
            ]
            for feature in features
        ],
    )

    return {
        "classes": list(cfg.wy.classes),
        "permutations": cfg.wy.permutations,
        "alpha": cfg.wy.alpha,
        "bandwidth_policy": cfg.wy.bandwidth,
        "grid_size": cfg.wy.grid_size,
        "seed": seed,
        "results": [
            asdict(r) | {"overlap": overlap[r.feature]} for r in report.results
        ],
        "max_trace": report.max_trace.tolist(),
        "decision": asdict(decision),
    }


# ---------------------------------------------------------------------------
# assembly


_STAGES = {
    "preprocess": run_preprocess,
    "cv": run_cv,
    "density": run_density,
    "wy": run_wy,
}


def _merge_report(cfg: RunConfig) -> Path:
    stages = {}
    for stage in STAGE_ORDER:
        fragment_path = cfg.output / "fragments" / f"{stage}.json"
        if fragment_path.exists():
            stages[stage] = json.loads(fragment_path.read_text(encoding="utf-8"))
    envelope = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "tool": {"name": "idstats", "version": __version__},
        "seed": cfg.seed,
        "config": config_echo(cfg),
        "stages": stages,
    }
    report_path = cfg.output / "report.json"
    _write_json(report_path, envelope)
    return report_path


def _record_meta(cfg: RunConfig, stage: str, started: str, duration: float) -> None:
    meta_path = cfg.output / "run_meta.json"
    meta = {"stages": {}}
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta.setdefault("stages", {})[stage] = {
        "started": started,
        "duration_seconds": round(duration, 3),
    }
    _write_json(meta_path, meta)


def run_stage(cfg: RunConfig, stage: str) -> dict:
    """Run one stage under the output lock; rewrite fragment and envelope."""
    if stage not in _STAGES:
        raise ConfigError(f"unknown stage {stage!r}")
    with output_lock(cfg.output):
        started = datetime.now(timezone.utc).isoformat()
        t0 = time.perf_counter()
        try:
            fragment = _STAGES[stage](cfg)
        except IdstatsError as exc:
            raise type(exc)(f"{stage}: {exc}") from exc
        _write_json(cfg.output / "fragments" / f"{stage}.json", fragment)
        _merge_report(cfg)
        _record_meta(cfg, stage, started, time.perf_counter() - t0)
    return fragment


def assemble_report(cfg: RunConfig) -> Path:
    """Re-merge every fragment present into report.json."""
    with output_lock(cfg.output):
        fragments = cfg.output / "fragments"
        if not any(
            (fragments / f"{stage}.json").exists() for stage in STAGE_ORDER
        ):
            raise DataError(
                f"no stage fragments under {cfg.output}; run a stage first"
            )
        return _merge_report(cfg)
