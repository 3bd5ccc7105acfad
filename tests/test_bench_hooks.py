"""The benchmark tracer's hook points exist under the names it wraps.

bench/tracing.py replaces module attributes by name; a renamed function
would otherwise show only as a crash in a traced benchmark run. The tracer is
imported from its file, read-only.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from idstats import density, evaluation, pipeline, preprocess, trees

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
