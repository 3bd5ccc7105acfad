"""In-memory spans around the names each idstats caller looks up.

A span is (name, depth, start, end, attrs). Wrappers replace a module
attribute for the life of the process; they are installed in the iteration
process only, after the imports and before the first stage. Spans stay in a
list and are summarised when the iteration ends.

Depth counts enclosing spans, so the stage span is depth 0 and the layer calls
a stage makes directly are depth 1 ("top-level" spans; their sum over the
stage's wall time is the coverage). A frame wrapper records a span without
taking a depth level; it marks the stage function inside run_stage so that
run_stage's own I/O can be told apart.

Counts come from call arguments, spec parameters and public results (trees
fitted, kernel evaluations, rows loaded), never from model internals.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    depth: int
    start: float
    end: float
    frame: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; undo() puts every wrapped attribute back."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._depth = 0
        self._undo: list[tuple[object, object, object]] = []

    @contextmanager
    def span(self, name: str):
        depth = self._depth
        self._depth += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._depth = depth
            self.spans.append(Span(name, depth, start, end))

    def _traced(self, original, name: str, count=None, frame: bool = False):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            depth = tracer._depth
            if not frame:
                tracer._depth += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._depth = depth
            attrs = count(args, kwargs, result) if count is not None else {}
            tracer.spans.append(Span(name, depth, start, end, frame, attrs))
            return result

        return traced

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace module.attr by a wrapper recording a span per call."""
        original = getattr(module, attr)
        setattr(module, attr, self._traced(original, name, count))
        self._undo.append((module, attr, original))

    def wrap_frames(self, mapping: dict, name: str) -> None:
        """Frame-wrap every value of a name -> function table."""
        for key, original in list(mapping.items()):
            mapping[key] = self._traced(original, f"{name}.{key}", frame=True)
            self._undo.append((mapping, key, original))

    def undo(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    # -- summaries ---------------------------------------------------------

    def named(self, name: str, **match) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and all(s.attrs.get(k) == v for k, v in match.items())
        ]

    def seconds(self, name: str, **match) -> float:
        return sum(s.seconds for s in self.named(name, **match))

    def total(self, name: str, attr: str, **match) -> float:
        return sum(s.attrs.get(attr, 0) for s in self.named(name, **match))

    def coverage(self) -> dict[str, float]:
        """Per stage span: share of its wall time under depth-1 layer spans."""
        out = {}
        for stage in self.spans:
            if stage.depth != 0 or not stage.name.startswith("stage."):
                continue
            covered = sum(
                s.seconds for s in self.spans
                if s.depth == 1 and not s.frame
                and stage.start <= s.start and s.end <= stage.end
            )
            out[stage.name[len("stage."):]] = covered / stage.seconds
        return out


def _arg(args, kwargs, position: int, keyword: str):
    return kwargs[keyword] if keyword in kwargs else args[position]


def _default(function, parameter: str):
    return inspect.signature(function).parameters[parameter].default


def _path_bytes(position: int):
    def count(args, kwargs, result):
        path = Path(args[position])
        return {"bytes": path.stat().st_size if path.exists() else 0}

    return count


def install_loop_timer(tracer: Tracer) -> None:
    """Only the permutation-loop span: cheap enough for untraced iterations."""
    from idstats import pipeline

    tracer.wrap(pipeline, "wy_maxT", "wytest.perm_loop")


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point the stages call, by the name they use."""
    from idstats import density, evaluation, pipeline, preprocess, trees

    forest_trees = _default(trees.fit_forest, "n_trees")
    gbdt_rounds = _default(trees.fit_gbdt, "rounds")

    def fit_count(caller: str):
        def count(args, kwargs, result):
            spec = _arg(args, kwargs, 0, "spec")
            n_classes = kwargs.get("n_classes") or 1
            attrs = {"caller": caller, "family": spec.family}
            if spec.family == "forest":
                attrs["trees"] = spec.params.get("n_trees", forest_trees)
            elif spec.family == "gbdt":
                rounds = spec.params.get("rounds", gbdt_rounds)
                attrs["rounds"] = rounds
                attrs["trees"] = rounds * n_classes
            return attrs

        return count

    def rows(args, kwargs, result):
        return {"rows": int(result.n_rows)}

    def kernel_evals(args, kwargs, result):
        model = _arg(args, kwargs, 0, "model")
        points = _arg(args, kwargs, 1, "points")
        return {"kernel_evals": int(model.samples.size) * int(len(points))}

    # stage functions inside run_stage: frames, for pipeline.io_s
    tracer.wrap_frames(pipeline._STAGES, "pipeline.stage_fn")

    # tabular
    tracer.wrap(pipeline, "load_csv", "tabular.load_csv", rows)
    tracer.wrap(pipeline, "dedup", "tabular.dedup")
    tracer.wrap(pipeline, "stratified_split", "tabular.split")
    tracer.wrap(pipeline, "fit_encoders", "tabular.encode")
    tracer.wrap(pipeline, "apply_encoders", "tabular.encode")
    # preprocess
    tracer.wrap(pipeline, "robust_fit", "preprocess.scale")
    tracer.wrap(pipeline, "robust_transform", "preprocess.scale")
    tracer.wrap(pipeline, "drop_correlated", "preprocess.drop_correlated")
    tracer.wrap(preprocess, "kendall_tau_b", "preprocess.kendall")
    # trees: rfe reaches the fitters through trees.fit_model, the CV loop
    # through evaluation.fit_model and the refit through pipeline.fit_model
    tracer.wrap(pipeline, "rfe", "trees.rfe")
    tracer.wrap(trees, "fit_model", "trees.fit", fit_count("rfe"))
    tracer.wrap(evaluation, "fit_model", "trees.fit", fit_count("cv"))
    tracer.wrap(pipeline, "fit_model", "trees.fit", fit_count("refit"))
    tracer.wrap(evaluation, "predict_proba", "trees.predict", lambda *a: {"caller": "cv"})
    tracer.wrap(pipeline, "predict_labels", "trees.predict", lambda *a: {"caller": "refit"})
    tracer.wrap(pipeline, "save_model", "pipeline.write", _path_bytes(1))
    # evaluation
    tracer.wrap(pipeline, "grid_search", "evaluation.grid_search")
    tracer.wrap(evaluation, "_fold_metrics", "evaluation.metrics")
    # density
    tracer.wrap(density, "cv_bandwidth", "density.cv_bandwidth")
    tracer.wrap(density, "kde_eval", "density.grid_eval", kernel_evals)
    tracer.wrap(pipeline, "shape_summary", "density.shape_summary")
    # wytest
    tracer.wrap(pipeline, "observed_details", "wytest.observed")
    tracer.wrap(pipeline, "wy_maxT", "wytest.perm_loop")
    tracer.wrap(pipeline, "overlap_intervals", "wytest.overlap")
    tracer.wrap(pipeline, "overlap_coefficient", "wytest.overlap")
    # pipeline I/O
    tracer.wrap(pipeline, "load_artifacts", "pipeline.read")
    tracer.wrap(pipeline, "_write_json", "pipeline.write", _path_bytes(0))
    tracer.wrap(pipeline, "_write_csv", "pipeline.write", _path_bytes(0))


def _ms_per(seconds: float, count: float) -> float:
    return 1000.0 * seconds / count if count else 0.0


def layer_metrics(tracer: Tracer, config: dict, npz_bytes: int) -> dict[str, float]:
    """Per-layer numbers of one traced iteration (pool figures excluded)."""
    t = tracer
    forest = t.named("trees.fit", family="forest")
    gbdt = t.named("trees.fit", family="gbdt")
    forest_trees = sum(s.attrs["trees"] for s in forest)
    gbdt_rounds = sum(s.attrs["rounds"] for s in gbdt)
    cv_forest_trees = t.total("trees.fit", "trees", family="forest", caller="cv")
    grid = config.get("cv", {}).get("models", {}).get("forest", {})
    needed = config.get("cv", {}).get("k", 0) * max(grid.get("n_trees", [0]))
    cv_calls = len(t.named("density.cv_bandwidth"))
    eval_calls = len(t.named("density.grid_eval"))
    kendall_calls = len(t.named("preprocess.kendall"))
    loop_s = t.seconds("wytest.perm_loop")
    permutations = config.get("wy", {}).get("permutations", 0)
    stage_wall = sum(s.seconds for s in t.spans if s.name.startswith("stage."))
    frames = sum(s.seconds for s in t.spans if s.frame)
    return {
        "tabular.load_csv_s": t.seconds("tabular.load_csv"),
        "tabular.dedup_s": t.seconds("tabular.dedup"),
        "tabular.rows_loaded": t.total("tabular.load_csv", "rows"),
        "preprocess.drop_correlated_s": t.seconds("preprocess.drop_correlated"),
        "preprocess.kendall_calls": kendall_calls,
        "preprocess.kendall_ms": _ms_per(t.seconds("preprocess.kendall"), kendall_calls),
        "trees.rfe_s": t.seconds("trees.rfe"),
        "trees.rfe_rounds": len(t.named("trees.fit", caller="rfe")),
        "trees.forest_trees_fit": forest_trees,
        "trees.forest_ms_per_tree": _ms_per(sum(s.seconds for s in forest), forest_trees),
        "trees.gbdt_trees_fit": sum(s.attrs["trees"] for s in gbdt),
        "trees.gbdt_ms_per_round": _ms_per(sum(s.seconds for s in gbdt), gbdt_rounds),
        "trees.predict_s": t.seconds("trees.predict"),
        "evaluation.grid_search_s": t.seconds("evaluation.grid_search"),
        "evaluation.fit_s": t.seconds("trees.fit", caller="cv"),
        "evaluation.score_s": t.seconds("trees.predict", caller="cv")
        + t.seconds("evaluation.metrics"),
        "evaluation.trees_fit_per_needed": cv_forest_trees / needed if needed else 0.0,
        "density.cv_bandwidth_calls": cv_calls,
        "density.cv_bandwidth_ms": _ms_per(t.seconds("density.cv_bandwidth"), cv_calls),
        "density.grid_eval_calls": eval_calls,
        "density.grid_eval_ms": _ms_per(t.seconds("density.grid_eval"), eval_calls),
        "density.kernel_evals": t.total("density.grid_eval", "kernel_evals"),
        "density.shape_summary_s": t.seconds("density.shape_summary"),
        "wytest.observed_s": t.seconds("wytest.observed"),
        "wytest.perm_loop_s": loop_s,
        "wytest.perm_per_s": permutations / loop_s if loop_s else 0.0,
        "pipeline.io_s": stage_wall - frames,
        "pipeline.bytes_written": t.total("pipeline.write", "bytes") + npz_bytes,
    }
