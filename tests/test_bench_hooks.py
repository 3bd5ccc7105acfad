"""The benchmark tracer's hook points exist under the names it wraps.

bench/tracing.py replaces module attributes by name; a renamed function
would otherwise show only as a crash in a traced benchmark run. The tracer is
imported from its file, read-only.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from idstats import density, evaluation, pipeline, preprocess, trees
from idstats.config import parse_config
from idstats.trees import RfeConfig

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = (density, evaluation, pipeline, preprocess, trees)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _snapshot() -> dict:
    state = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
    return state | {("_STAGES", k): v for k, v in pipeline._STAGES.items()}


def _changed(before: dict) -> list:
    after = _snapshot()
    assert after.keys() == before.keys()
    return sorted(key for key in before if after[key] is not before[key])


def test_install_layers_wraps_every_hook_point_and_undo_restores_them(tracing):
    before = _snapshot()
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        changed = _changed(before)
    finally:
        tracer.undo()
    assert len(changed) == 32
    assert ("idstats.pipeline", "observed_details") in changed
    assert ("idstats.pipeline", "wy_maxT") in changed
    assert _changed(before) == []


def test_install_loop_timer_wraps_the_permutation_loop_only(tracing):
    before = _snapshot()
    tracer = tracing.Tracer()
    tracing.install_loop_timer(tracer)
    try:
        changed = _changed(before)
    finally:
        tracer.undo()
    assert changed == [("idstats.pipeline", "wy_maxT")]
    assert _changed(before) == []


def test_the_tracer_counts_the_trees_of_the_forest_rfe_builds(tracing):
    # rfe builds the spec whose n_trees the tracer's forest counts read
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = np.arange(40) % 2
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        pipeline.rfe(X, y, RfeConfig(n_trees=3, keep_threshold=0.0))
    finally:
        tracer.undo()
    fits = tracer.named("trees.fit", caller="rfe")
    assert [(s.attrs["family"], s.attrs["trees"]) for s in fits] == [("forest", 3)]


def test_a_traced_wy_run_keeps_the_observed_and_permutation_spans_apart(
    tracing, tmp_path
):
    # the benchmark splits wy into wytest.observed and wytest.perm_loop; one
    # span each means the observation is not recomputed inside the loop
    rng = np.random.default_rng(3)
    rows = ["rate,delay,label"] + [
        f"{rng.normal(shift, 1.0):.6f},{rng.normal(0.0, 1.0):.6f},{label}"
        for label, shift in (("attack", 2.0), ("normal", 0.0))
        for _ in range(40)
    ]
    (tmp_path / "flows.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = parse_config(
        {
            "input": str(tmp_path / "flows.csv"),
            "output": str(tmp_path / "out"),
            "schema": {"rate": "numeric", "delay": "numeric", "label": "label"},
            "preprocess": {"rfe": {"n_trees": 3, "keep_threshold": 0.0}},
            "wy": {"classes": ["attack", "normal"], "permutations": 4,
                   "bandwidth": "scott", "grid_size": 32},
        }
    )
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        for stage in ("preprocess", "wy"):
            pipeline.run_stage(cfg, stage)
    finally:
        tracer.undo()
    assert len(tracer.named("wytest.observed")) == 1
    assert len(tracer.named("wytest.perm_loop")) == 1


def test_a_traced_preprocess_run_sees_one_kendall_span_per_pair(tracing, tmp_path):
    # the columns are ranked once, but each pair still makes its own call
    rng = np.random.default_rng(4)
    names = ["a", "b", "c", "d", "e"]
    rows = [",".join(names + ["label"])] + [
        ",".join(f"{v:.6f}" for v in rng.normal(size=len(names))) + f",{label}"
        for label in ("attack", "normal")
        for _ in range(60)
    ]
    (tmp_path / "flows.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = parse_config(
        {
            "input": str(tmp_path / "flows.csv"),
            "output": str(tmp_path / "out"),
            "schema": dict.fromkeys(names, "numeric") | {"label": "label"},
            "preprocess": {"rfe": {"n_trees": 3, "keep_threshold": 0.0}},
        }
    )
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        pipeline.run_stage(cfg, "preprocess")
    finally:
        tracer.undo()
    assert len(tracer.named("preprocess.drop_correlated")) == 1
    assert len(tracer.named("preprocess.kendall")) == len(names) * (len(names) - 1) // 2
