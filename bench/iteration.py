"""One iteration of a workload, in a fresh process.

Runs the given stages through idstats.pipeline.run_stage, then the report
merge, in the current directory (the config's relative paths resolve there).
Prints one JSON line: per-stage wall times, total, CPU of this process and its
reaped pool workers, peak RSS, failures, the report digest and, when traced,
the per-layer numbers.

    python3 bench/iteration.py SPEC.json

SPEC holds "src" (directory to import idstats from), "stages", "config" and
"mode": "plain" (only the permutation loop is timed, for the pool figures) or
"trace" (every layer span).
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """High-water RSS of this process since it started, in MB.

    Linux carries the parent's RSS at fork into ru_maxrss, so VmHWM is read
    where /proc has it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_idstats(src: Path):
    """Import idstats from the given source tree, never an installed copy."""
    src = src.resolve()
    sys.path.insert(0, str(src))
    import idstats

    if not Path(idstats.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"idstats imported from {idstats.__file__}, not {src}")
    return idstats


def run_iteration(spec: dict) -> dict:
    import_idstats(Path(spec["src"]))
    from idstats.config import parse_config
    from idstats.pipeline import assemble_report, run_stage

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing

    tracer = tracing.Tracer()
    if spec["mode"] == "trace":
        tracing.install_layers(tracer)
    else:
        tracing.install_loop_timer(tracer)

    cfg = parse_config(spec["config"])
    stage_s: dict[str, float] = {}
    failed: dict[str, str] = {}
    self0, children0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    for stage in list(spec["stages"]) + ["report"]:
        start = time.perf_counter()
        try:
            with tracer.span(f"stage.{stage}"):
                if stage == "report":
                    assemble_report(cfg)
                else:
                    run_stage(cfg, stage)
        except Exception:
            failed[stage] = traceback.format_exc(limit=-3)
        stage_s[stage] = time.perf_counter() - start
    children_cpu = _cpu(resource.RUSAGE_CHILDREN) - children0
    cpu_s = _cpu(resource.RUSAGE_SELF) - self0 + children_cpu
    tracer.undo()

    report = cfg.output / "report.json"
    result = {
        "stage_s": stage_s,
        "total_s": sum(stage_s.values()),
        "cpu_s": cpu_s,
        "children_cpu_s": children_cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "failed": failed,
        "report_sha256": (
            hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
        ),
        "threads": cfg.threads,
        "perm_loop_s": tracer.seconds("wytest.perm_loop"),
    }
    if spec["mode"] == "trace":
        npz = cfg.output / "artifacts" / "preprocessed.npz"
        npz_bytes = npz.stat().st_size if "preprocess" in spec["stages"] else 0
        result["layers"] = tracing.layer_metrics(tracer, spec["config"], npz_bytes)
        result["coverage"] = tracer.coverage()
        result["split"] = {
            "trees_evaluation_s": tracer.seconds("trees.rfe")
            + tracer.seconds("evaluation.grid_search")
            + tracer.seconds("trees.fit", caller="refit")
            + tracer.seconds("trees.predict", caller="refit"),
            "cv_bandwidth_s": tracer.seconds("density.cv_bandwidth"),
            "kendall_s": tracer.seconds("preprocess.kendall"),
        }
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    print(json.dumps(run_iteration(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
