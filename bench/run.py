"""Stage-level benchmark of idstats on seeded UAVIDS-shaped flow tables.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; idstats is imported from ./src, never from an
installed copy, and the command fails without printing a result when ./src is
missing. Work files go to ./.bench_work/.

Set-up generates the CSV from --seed, loads it with idstats' load_csv and runs
the workload's set-up stages, checking that the CSV bytes are the same every
time and that no row is dropped. It runs in rounds of repetitions, one before
the first iteration and one after each; setup_s is the median of the rounds'
mean times. The timed part is a closed loop with one caller: each iteration is
a fresh process that runs the workload's stages through
idstats.pipeline.run_stage, then the report merge. The loop runs at least two
iterations and starts no further one that would take the iterations' time
past --seconds. The wy process pool has two workers, and a timer on the
permutation loop gives the pool figures. End-to-end metrics are medians over
iterations.

With --trace 1 the run makes three iterations instead: untraced with two
workers (pool figures), untraced with one worker, and traced with one worker
(every layer span; pool workers' spans would not reach the parent, hence one
worker). The last two give the tracing overhead; every per-layer metric comes
out of the three.

After the loop the outputs are checked (checks.py): p-values against the
reported trace, no permutation statistic at T = 1, observed statistics against
an exact-sum JS oracle, identical report.json across iterations (up to the
echoed thread count), the wy classes' side of the CV limit, and for seed 0 the
outcome recorded in reference.json. A stage call that raised or whose output
failed a check counts in failed_ops; any failure makes the exit code 1.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics, or with --trace 1 the per-layer ones).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Every iteration process is killed, with its pool workers, once the run has
# taken this long, so that a run ends within its 180 s limit.
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
STAGES = ("preprocess", "cv", "density", "wy")
PER_LAYER = {
    "tabular.load_csv_s": "s",
    "tabular.dedup_s": "s",
    "tabular.rows_loaded": "count",
    "preprocess.drop_correlated_s": "s",
    "preprocess.kendall_calls": "count",
    "preprocess.kendall_ms": "ms",
    "trees.rfe_s": "s",
    "trees.rfe_rounds": "count",
    "trees.forest_trees_fit": "count",
    "trees.forest_ms_per_tree": "ms",
    "trees.gbdt_trees_fit": "count",
    "trees.gbdt_ms_per_round": "ms",
    "trees.predict_s": "s",
    "evaluation.grid_search_s": "s",
    "evaluation.fit_s": "s",
    "evaluation.score_s": "s",
    "evaluation.trees_fit_per_needed": "ratio",
    "density.cv_bandwidth_calls": "count",
    "density.cv_bandwidth_ms": "ms",
    "density.grid_eval_calls": "count",
    "density.grid_eval_ms": "ms",
    "density.kernel_evals": "count",
    "density.shape_summary_s": "s",
    "wytest.observed_s": "s",
    "wytest.perm_loop_s": "s",
    "wytest.perm_per_s": "1/s",
    "wytest.workers": "count",
    "wytest.pool_cpu_s": "s",
    "wytest.pool_efficiency": "ratio",
    "pipeline.io_s": "s",
    "pipeline.bytes_written": "byte",
    "trace.overhead_s": "s",
    "trace.coverage_min": "ratio",
    **{f"stage.{stage}_s": "s" for stage in STAGES},
}
# A set-up round repeats the set-up until it has taken SETUP_ROUND_S; its
# figure is its mean time per set-up, and setup_s is the median of the rounds'
# figures. One round runs before the first iteration and one after each, so
# that set-up is sampled across the whole run, as the iterations are: the
# host's speed drifts over tens of seconds, and rounds taken back to back
# spread more between runs than the iterations do.
SETUP_ROUND_S = 0.5
# The closed loop runs at least this many iterations, so that every run
# compares report.json between iterations.
MIN_ITERATIONS = 2
DEFAULT_SEED = 0

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import flows  # noqa: E402
import iteration  # noqa: E402
import workloads  # noqa: E402


class Tally:
    """Stage calls attempted and failed, with the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.messages: list[str] = []

    def record(self, failures) -> None:
        self.messages.extend(f"{stage}: {message}" for stage, message in failures)

    @property
    def failed(self) -> int:
        return min(len(self.messages), max(self.attempted, 1))


class SetUp:
    """The workload's set-up: generate and load the input, run its set-up stages.

    Set-up asserts that the seed gives the same CSV bytes every time and that
    load_csv drops no row.
    """

    def __init__(self, workload, seed: int, tally: Tally) -> None:
        iteration.import_idstats(SRC)
        from idstats.config import parse_config

        self.workload, self.seed, self.tally = workload, seed, tally
        self.cfg = parse_config(
            workloads.run_config(workload, "flows.csv", "out", seed, workloads.WORKERS)
        )
        self.figures: list[float] = []
        self.digests: set[str] = set()

    def round(self) -> None:
        """Repeat the set-up for SETUP_ROUND_S; record the mean time of one."""
        from idstats.pipeline import run_stage
        from idstats.tabular import load_csv

        workload, tally = self.workload, self.tally
        reps = 0
        start = time.perf_counter()
        while reps == 0 or time.perf_counter() - start < SETUP_ROUND_S:
            data = flows.generate_csv(workload.n_rows, self.seed)
            self.digests.add(hashlib.sha256(data).hexdigest())
            Path("flows.csv").write_bytes(data)
            for stage in ("load_csv",) + workload.setup_stages:
                tally.attempted += 1
                try:
                    if stage == "load_csv":
                        table = load_csv("flows.csv", list(self.cfg.schema))
                        if table.meta["dropped_rows"] or table.n_rows != workload.n_rows:
                            tally.record([(stage, f"kept {table.n_rows} of "
                                                  f"{workload.n_rows} rows")])
                    else:
                        run_stage(self.cfg, stage)
                except Exception as exc:
                    tally.record([(stage, f"set-up raised {exc!r}")])
            reps += 1
            if tally.messages:
                break
        self.figures.append((time.perf_counter() - start) / reps)
        if len(self.digests) != 1:
            tally.record([("setup", "the same seed gave different CSV bytes")])


def run_child(
    workload, seed: int, threads: int, mode: str, deadline: float, tally: Tally
) -> dict:
    """One iteration in a fresh process; failures go to the tally."""
    spec = {
        "src": str(SRC),
        "stages": list(workload.timed_stages),
        "config": workloads.run_config(workload, "flows.csv", "out", seed, threads),
        "mode": mode,
    }
    Path("spec.json").write_text(json.dumps(spec), encoding="utf-8")
    stages = spec["stages"] + ["report"]
    tally.attempted += len(stages)
    # a session of its own, so a timeout kills the pool workers too
    with subprocess.Popen(
        [sys.executable, str(BENCH / "iteration.py"), "spec.json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
            stderr += "\nkilled at the run deadline"
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tally.record((s, f"iteration process failed: {stderr[-2000:]}") for s in stages)
        return {}
    tally.record(result["failed"].items())
    result["masked_sha256"] = _masked_report_digest(Path("out") / "report.json")
    return result


def _masked_report_digest(path: Path) -> str | None:
    """Digest of report.json with the echoed thread count taken out."""
    if not path.exists():
        return None
    report = json.loads(path.read_text(encoding="utf-8"))
    report["config"].pop("threads", None)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def check_outputs(workload, seed: int, tiny: bool, results: list[dict], tally: Tally):
    try:
        _check_outputs(workload, seed, tiny, results, tally)
    except Exception as exc:  # malformed output must fail the run, not crash it
        tally.record([("check", f"output check raised {exc!r}")])


def _check_outputs(workload, seed: int, tiny: bool, results: list[dict], tally: Tally):
    out = Path("out")
    by_threads: dict[int, set] = {}
    for r in results:
        by_threads.setdefault(r["threads"], set()).add(r["report_sha256"])
    if any(len(d) > 1 for d in by_threads.values()):
        tally.record([("report", "report.json differs between iterations")])
    if len({r["masked_sha256"] for r in results}) > 1:
        tally.record([("report", "report.json depends on the worker count")])
    if workload.cv_side is not None:
        tally.record(
            checks.check_class_side(
                out, workloads.CLASS_PAIR, workload.cv_side, workloads.QUADRATIC_CV_LIMIT
            )
        )
    if "wy" in workload.timed_stages:
        tally.record(checks.check_wy(out))
    if seed == DEFAULT_SEED and not tiny:
        reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
        tally.record(checks.check_reference(out, reference[workload.name]))


def end_to_end(setup_times: list[float], results: list[dict]) -> dict[str, float]:
    def median(key):
        return statistics.median(key(r) for r in results)

    return {
        "setup_s": statistics.median(setup_times),
        "total_s": median(lambda r: r["total_s"]),
        "cpu_s": median(lambda r: r["cpu_s"]),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
    }


def per_layer(pooled: dict, plain: dict, traced: dict, workload) -> dict[str, float]:
    metrics = dict(traced["layers"])
    loop = pooled["perm_loop_s"]
    metrics["wytest.workers"] = pooled["threads"]
    metrics["wytest.pool_cpu_s"] = pooled["children_cpu_s"]
    metrics["wytest.pool_efficiency"] = (
        pooled["children_cpu_s"] / (loop * pooled["threads"]) if loop else 0.0
    )
    metrics["trace.overhead_s"] = traced["total_s"] - plain["total_s"]
    metrics["trace.coverage_min"] = min(
        traced["coverage"][stage] for stage in workload.timed_stages
    )
    # stage wall times as a user sees them: untraced, two workers
    for stage in STAGES:
        metrics[f"stage.{stage}_s"] = pooled["stage_s"].get(stage, 0.0)
    return metrics


def print_split(traced: dict) -> None:
    """Where the traced time went, to compare with the sizing runs' split."""
    stage_s, split = traced["stage_s"], traced["split"]
    print(f"split: trees+evaluation = "
          f"{split['trees_evaluation_s'] / traced['total_s']:.1%} of total_s")
    if "wy" in stage_s:
        print(f"split: density.cv_bandwidth = "
              f"{split['cv_bandwidth_s'] / stage_s['wy']:.1%} of traced wy_s")
    if "preprocess" in stage_s:
        print(f"split: kendall = "
              f"{split['kendall_s'] / stage_s['preprocess']:.1%} of traced preprocess_s")
    for stage, share in traced["coverage"].items():
        print(f"coverage: {stage} {share:.1%} under top-level spans")


def measure(workload, args, setup: SetUp, deadline: float, tally: Tally) -> list[dict]:
    """The timed iterations, each followed by a set-up round.

    A closed loop, or with --trace 1 the three traced-run iterations.
    """
    results: list[dict] = []

    def iterate(threads: int, mode: str) -> float:
        began = time.perf_counter()
        results.append(run_child(workload, args.seed, threads, mode, deadline, tally))
        took = time.perf_counter() - began
        setup.round()
        return took

    if args.trace:
        for threads, mode in ((workloads.WORKERS, "plain"), (1, "plain"), (1, "trace")):
            iterate(threads, mode)
        return results
    spent = last = 0.0
    while len(results) < MIN_ITERATIONS or spent + last <= args.seconds:
        last = iterate(workloads.WORKERS, "plain")
        spent += last
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; skips the default-seed reference")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (SRC / "idstats" / "__init__.py").is_file():
        print(f"error: no idstats sources under {SRC}", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, tiny=args.tiny)
    work = WORK / f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)

    tally = Tally()
    setup = SetUp(workload, args.seed, tally)
    setup.round()
    # a failed set-up leaves nothing to time
    results = [] if tally.messages else measure(workload, args, setup, deadline, tally)
    setup_times = setup.figures
    if results and all(results):
        check_outputs(workload, args.seed, args.tiny, results, tally)

    for message in tally.messages:
        print(f"FAILED {message}")
    units = PER_LAYER if args.trace else END_TO_END
    metrics: dict[str, float] = {}
    # timings stay meaningful when only an output check failed
    if results and all(results) and not any(r["failed"] for r in results):
        print(f"{workload.name} seed={args.seed}: {len(results)} iteration(s), "
              f"{len(setup_times)} set-up round(s)")
        if args.trace:
            metrics = per_layer(*results, workload)
            print_split(results[-1])
        else:
            metrics = end_to_end(setup_times, results)
            for stage in workload.timed_stages:
                value = statistics.median(r["stage_s"][stage] for r in results)
                print(f"{stage}_s = {value:.4f} s")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_ops = {tally.failed}/{tally.attempted} stage calls")
    print(json.dumps({
        "correct": not tally.messages,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if not tally.messages else 1


if __name__ == "__main__":
    sys.exit(main())
