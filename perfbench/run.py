#!/usr/bin/env python3
"""Benchmark of the sensopt command line: seeded workloads, stage throughputs, layer trace.

Run from the repository root (sensopt is imported from ./src):

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 60 --trace 0

Every run drives ``sensopt.cli.main(argv)`` in this one process, one
command at a time (a closed loop with a single client).  It builds
FIXTURES desk fixtures, each a full desk-scale pass through the four
commands on its own simulated device: generate (--scale 0.4 with SNR
noise, 48,600 rows), train (FIXTURE_EPOCHS epochs), evaluate, and
optimize on a 3-per-axis grid.  Until the next step would pass
--seconds it runs cycles, at least MIN_CYCLES of them: one op of the
workload, then BUILDS_PER_OP[workload] fixture builds (rebuilds, once
all exist).

  train_desk    retrain a fixture; the network's backprop and Adam do most of the work
  sweep_grid    optimize a 6-per-axis grid (7,776 combinations) through a fixture

A stage's throughput is its total work over its total time in the run:
the loop's when the workload repeats that stage (train_desk pools its
loop with the fixtures' identical trains), otherwise the fixture
builds'.  The host's speed drifts over seconds to minutes, so the
cycles spread every stage's samples over the whole run.  Outputs are checked after
every command; a failed command or check counts against ok_ops_ratio.
With --trace 1, every second cycle runs with the layer wrappers of
spans.py installed and the result carries the per-layer metrics and the
tracing overhead instead of the end-to-end metrics.

The last line of stdout is the result object; the full record (machine
facts, inputs, digests, projections, failures) is written under
perfbench/_results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from checks import (
    CheckFailed,
    check_dataset,
    check_history,
    check_manifest,
    check_metrics,
    check_sweep,
    require,
    sha256,
)
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_desk", "sweep_grid")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Fixtures per run: setup_s is the median build, and the two accuracy
# metrics average over the fixtures.  A dataset seed picks the
# oracle's coefficient fields, a simulated device, and devices differ in
# how hard they are to learn (final validation MSE from 0.003 to 0.005),
# so the devices are fixed and the workload seed draws the train seeds:
# the accuracy metrics then compare like with like across seeds.
FIXTURES = 5
DEVICE_SEEDS = tuple(range(FIXTURES))
FIXTURE_EPOCHS = 1
DESK_SCALE = "0.4"  # 3 values per input: 243 combinations
DESK_ROWS = 3**5 * 200
DESK_NOISE_DB = "0.5"  # runs the oracle's per-combination Philox noise path
CHECK_POINTS = 3  # per axis, for the fixture's optimize pass
SWEEP_POINTS = 6  # per axis, for sweep_grid
BATCH_SIZE = 20
# Every run makes at least this many cycles, twice as many when traced
# so that half of them run untraced.
MIN_CYCLES = 2

# The stage each workload's loop repeats; its other throughputs come
# from the fixture builds.
LOOPED = {
    "train_desk": "train",
    "sweep_grid": "optimize",
}
# Fixture builds per loop op, and runs of each command per build (about
# a second of each): enough that the stages a workload does not loop on
# get several seconds of samples in every run.  A command's runs after
# the first must reproduce its outputs byte for byte.
BUILDS_PER_OP = {
    "train_desk": 1,
    "sweep_grid": 2,
}
RUNS_PER_BUILD = {"generate": 3, "train": 1, "evaluate": 3, "optimize": 5}

# Full-scale headline sizes, for the projections.
FULL_STEPS_PER_EPOCH = 25_313
FULL_EPOCHS = 100
FULL_SWEEP_COMBINATIONS = 9**5


def train_steps(rows: int, epochs: int) -> int:
    """Optimizer steps of one `sensopt train` on a dataset of `rows` rows."""
    n_train = math.floor(0.81 * rows)  # the default 81/9/10 split
    return epochs * math.ceil(n_train / BATCH_SIZE)


# Work done by one command, keyed by (phase, command): rows generated,
# optimizer steps, CSV rows read, or combinations scored.  A loop train
# repeats a fixture's train, so the two phases' samples are pooled.
UNITS = {
    ("setup", "generate"): DESK_ROWS,
    ("setup", "train"): train_steps(DESK_ROWS, FIXTURE_EPOCHS),
    ("setup", "evaluate"): DESK_ROWS,
    ("setup", "optimize"): CHECK_POINTS**5,
    ("loop", "train"): train_steps(DESK_ROWS, FIXTURE_EPOCHS),
    ("loop", "optimize"): SWEEP_POINTS**5,
}

END_TO_END = (
    # (metric, command whose throughput it is)
    ("train_steps_per_s", "train"),
    ("sweep_combinations_per_s", "optimize"),
    ("generate_rows_per_s", "generate"),
    ("evaluate_rows_per_s", "evaluate"),
)


class RunFailed(Exception):
    """A fixture could not be built, or a metric has nothing to measure."""


class Run:
    """One benchmark run: cycles of the workload's op followed by fixture builds."""

    def __init__(self, args, cli_main):
        self.args = args
        self.cli_main = cli_main
        self.work = HERE / "_work" / f"{args.workload}-s{args.seed}-t{args.trace}-b{args.blas_threads}"
        rng = random.Random(args.seed)
        # (dataset seed, train seed) per fixture; the program sees only these.
        self.devices = [(device, rng.randrange(2**31)) for device in DEVICE_SEEDS]
        self.tracer = Tracer() if args.trace else None
        self.attempted = 0
        self.failures: list[dict] = []
        # (command, units of work) -> seconds of each untraced, successful run
        self.seconds: dict[tuple[str, int], list[float]] = defaultdict(list)
        self.fixtures: list[dict] = []
        self.setup_builds: list[float] = []
        self.cycles: list[dict] = []
        self.digests: dict[str, str] = {}

    # -- one command -------------------------------------------------------

    def command(self, phase: str, op: int, argv: list, check, traced: bool = False):
        """Run one sensopt command and check its outputs.

        Returns (seconds, check result), or None when the command exited
        nonzero, raised, or failed its output check.
        """
        argv = [str(a) for a in argv]
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        patched = self.tracer.op(op) if traced else contextlib.nullcontext()
        code, crash = None, None
        with patched:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    with self.tracer.span("cli.main") if traced else contextlib.nullcontext():
                        code = self.cli_main(argv)
            except Exception:  # the loop keeps going; the failure is counted
                crash = traceback.format_exc(limit=4)
            seconds = time.perf_counter() - start
        if code != 0:
            reason = crash or f"exit code {code}: {err.getvalue().strip()[-300:]}"
            return self._fail(phase, op, argv, reason)
        try:
            value = check()
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            return self._fail(phase, op, argv, f"output check: {exc}")
        if not traced:
            self.seconds[(argv[0], UNITS[(phase, argv[0])])].append(seconds)
        return seconds, value

    def _fail(self, phase, op, argv, reason):
        self.failures.append({"phase": phase, "op": op, "argv": argv, "reason": reason})
        return None

    # -- setup -------------------------------------------------------------

    def build_fixture(self, n: int, traced: bool = False) -> None:
        """Build fixture n mod FIXTURES.

        The first FIXTURES builds make the fixtures.  A later build is a
        rebuild: it must reproduce the first build's files byte for byte,
        and then it is deleted.  Every command runs RUNS_PER_BUILD times;
        the runs after the first write to a scratch directory and must
        reproduce the first run's output.
        """
        r = n % FIXTURES
        dataset_seed, train_seed = self.devices[r]
        first = n < FIXTURES
        d = self.work / (f"fixture{r}" if first else f"rebuild{n}")
        dataset, model = d / "dataset.csv", d / "model.bin"
        history, report = d / "history.csv", d / "optimize" / "sweep_report.csv"
        again = d / "again"

        def same_as_first(path, name):
            if not first:
                require(sha256(path) == self.digests[f"fixture{r}/{name}"],
                        f"rebuilt {name} differs from fixture {r}'s")

        def check_generate():
            check_manifest(d, "generate")
            check_dataset(dataset, DESK_ROWS)

        def check_train():
            check_manifest(d, "train")
            val_mse = check_history(history, FIXTURE_EPOCHS)
            same_as_first(model, "model.bin")
            same_as_first(history, "history.csv")
            return val_mse

        def check_evaluate():
            check_manifest(d / "evaluate", "evaluate")
            return check_metrics(d / "evaluate" / "metrics.json")

        def check_optimize():
            check_manifest(d / "optimize", "optimize")
            check_sweep(d / "optimize", CHECK_POINTS**5)
            same_as_first(report, "sweep_report.csv")

        def check_again(name):
            def check():
                require(sha256(again / name) == sha256(d / name), f"a second run's {name} differs from the first's")
            return check

        steps = (
            (["generate", "--out", d, "--scale", DESK_SCALE, "--noise", DESK_NOISE_DB, "--seed", dataset_seed],
             check_generate, check_again("dataset.csv")),
            (["train", "--out", d, "--seed", train_seed, "--epochs", FIXTURE_EPOCHS], check_train, None),
            (["evaluate", "--out", d / "evaluate", "--model", model, "--dataset", dataset,
              "--seed", train_seed], check_evaluate, check_again("evaluate/metrics.json")),
            (["optimize", "--out", d / "optimize", "--model", model,
              "--config", self.config(CHECK_POINTS)], check_optimize, check_again("optimize/sweep_report.csv")),
        )
        results = []
        for argv, check, check_rerun in steps:
            outcome = self.command("setup", n, argv, check, traced)
            if outcome is None:
                if first:
                    raise RunFailed(self.failures[-1]["reason"])
                shutil.rmtree(d, ignore_errors=True)
                return
            results.append(outcome)
            # The reruns write under `again`, with the first run's layout.
            out = argv.index("--out") + 1
            rerun = argv[:out] + [again / Path(argv[out]).relative_to(d)] + argv[out + 1:]
            for _ in range(RUNS_PER_BUILD[argv[0]] - 1):
                self.command("setup", n, rerun, check_rerun, traced)
                shutil.rmtree(again, ignore_errors=True)
        if not traced:
            self.setup_builds.append(sum(seconds for seconds, _ in results))
        if not first:
            shutil.rmtree(d, ignore_errors=True)
            return
        digests = {"model.bin": sha256(model), "history.csv": sha256(history), "sweep_report.csv": sha256(report)}
        self.digests.update({f"fixture{r}/{name}": value for name, value in digests.items()})
        self.fixtures.append(
            {"dir": d, "val_mse": results[1][1], "r2_min": results[2][1], "model_sha256": digests["model.bin"]}
        )

    def config(self, points: int) -> Path:
        path = self.work / f"optimize_{points}.json"
        if not path.exists():
            path.write_text(json.dumps({"optimize": {"points_per_axis": points}}))
        return path

    # -- the workload's loop -----------------------------------------------

    def loop_op(self, i: int, traced: bool) -> None:
        r = i % FIXTURES
        _, train_seed = self.devices[r]
        fixture = self.fixtures[r]
        d = self.work / "loop" / f"op{i}"
        if self.args.workload == "train_desk":
            def check():
                check_manifest(d, "train")
                check_history(d / "history.csv", FIXTURE_EPOCHS)
                require(sha256(d / "model.bin") == fixture["model_sha256"],
                        "retrained model.bin differs from the fixture's")

            argv = ["train", "--out", d, "--dataset", fixture["dir"] / "dataset.csv",
                    "--seed", train_seed, "--epochs", FIXTURE_EPOCHS]
        else:
            def check():
                check_manifest(d, "optimize")
                check_sweep(d, SWEEP_POINTS**5)

            argv = ["optimize", "--out", d, "--model", fixture["dir"] / "model.bin",
                    "--config", self.config(SWEEP_POINTS)]
        outcome = self.command("loop", i, argv, check, traced)
        if i == 0 and outcome is not None and self.args.workload == "sweep_grid":
            self.digests["loop0/sweep_report.csv"] = sha256(d / "sweep_report.csv")
        shutil.rmtree(d, ignore_errors=True)

    def measure(self) -> None:
        """Run cycles until the next step would pass --seconds.

        Cycle i is loop op i, on fixture i mod FIXTURES (built before it),
        then BUILDS_PER_OP fixture builds.  The builds go on after the
        FIXTURES-th as rebuilds, so the stages the workload does not loop
        on are timed across the whole run; fixtures the loop did not
        reach are built at the end.  When tracing, every second cycle
        runs traced, its builds included.
        """
        min_cycles = 2 * MIN_CYCLES if self.tracer else MIN_CYCLES
        steps = ["op"] + ["build"] * BUILDS_PER_OP[self.args.workload]
        took: dict[str, list[float]] = {"op": [], "build": [], "cycle": []}
        start = time.perf_counter()

        def fits(kind: str) -> bool:
            return time.perf_counter() - start + statistics.median(took[kind]) <= self.args.seconds

        self.build_fixture(0)
        builds, i, done = 1, 0, False
        # A traced run stops between cycles, so that every traced cycle
        # holds the same commands; an untraced one may stop within one.
        while not done and (i < min_cycles or fits("cycle" if self.tracer else "op")):
            traced = self.tracer is not None and i % 2 == 1
            cycle_start = time.perf_counter()
            failed = len(self.failures)
            for kind in steps:
                if i >= min_cycles and not self.tracer and not fits(kind):
                    done = True
                    break
                step_start = time.perf_counter()
                if kind == "op":
                    self.loop_op(i, traced)
                else:
                    self.build_fixture(builds, traced)
                    builds += 1
                took[kind].append(time.perf_counter() - step_start)
            took["cycle"].append(time.perf_counter() - cycle_start)
            self.cycles.append(
                {"cycle": i, "traced": traced, "ok": len(self.failures) == failed, "seconds": took["cycle"][-1]})
            i += 1
        while builds < FIXTURES:
            self.build_fixture(builds)
            builds += 1

    # -- results -----------------------------------------------------------

    def samples(self, command: str) -> tuple[int, list[float]]:
        """Units of work per run and the seconds of each untraced, successful run."""
        phase = "loop" if command == LOOPED[self.args.workload] else "setup"
        units = UNITS[(phase, command)]
        seconds = self.seconds[(command, units)]
        if not seconds:
            raise RunFailed(f"no successful untraced {command} of {units} units to time")
        return units, seconds

    def throughput(self, command: str) -> float:
        """Work per second summed over every untraced run of the command.

        The total, not the median of per-run rates: the host's speed
        switches between two states for seconds at a time, and a median
        jumps to whichever state held more of the runs, while the total
        averages the two.
        """
        units, seconds = self.samples(command)
        return units * len(seconds) / sum(seconds)

    def end_to_end(self, import_s: float) -> dict:
        metrics = {"setup_s": (import_s + statistics.median(self.setup_builds), "s")}
        for name, command in END_TO_END:
            metrics[name] = (self.throughput(command), "1/s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
        metrics["ok_ops_ratio"] = (1.0 - len(self.failures) / self.attempted, "ratio")
        metrics["val_mse_final"] = (statistics.fmean(f["val_mse"] for f in self.fixtures), "1")
        metrics["test_r2_min"] = (statistics.fmean(f["r2_min"] for f in self.fixtures), "1")
        return metrics

    def per_layer(self) -> dict:
        traced = [c["seconds"] for c in self.cycles if c["traced"] and c["ok"]]
        untraced = [c["seconds"] for c in self.cycles if not c["traced"] and c["ok"]]
        if not traced or not untraced:
            raise RunFailed("tracing needs at least one successful traced and untraced cycle")
        total, own, calls = self.tracer.totals()
        counters = self.tracer.counters
        n = sum(c["traced"] for c in self.cycles)

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = {
            "network.forward_s": (total["network.forward"] / n, "s"),
            "network.backprop_s": (total["network.backprop"] / n, "s"),
            "network.adam_step_s": (total["network.adam_step"] / n, "s"),
            "network.forward.calls": (calls["network.forward"] / n, "count"),
            "network.forward.rows_per_call": (
                ratio(counters["network.forward.rows"], calls["network.forward"]), "rows"),
            "network.predict_s": (total["network.predict"] / n, "s"),
            "training.steps": (calls["network.adam_step"] / n, "count"),
            "training.self_s": (own["training.train"] / n, "s"),
            "curves.criteria_s": (total["curves.criteria"] / n, "s"),
            "curves.criteria.calls": (calls["curves.criteria"] / n, "count"),
            "curves.from_samples_s": (total["curves.from_samples"] / n, "s"),
            "sweep.predict_curves.self_s": (own["sweep.predict_curves"] / n, "s"),
            "sweep.rank_candidates_s": (total["sweep.rank_candidates"] / n, "s"),
            "sweep.select_s": (total["sweep.select"] / n, "s"),
            "sweep.write_report_csv_s": (total["sweep.write_report_csv"] / n, "s"),
            "sweep.scorable_ratio": (
                ratio(counters["curves.criteria.scorable"], calls["curves.criteria"]), "ratio"),
            "oracle.generate_dataset_s": (total["oracle.generate_dataset"] / n, "s"),
            "oracle.simulate_block_s": (total["oracle.simulate_block"] / n, "s"),
            "oracle.simulate_block.calls": (calls["oracle.simulate_block"] / n, "count"),
            "data.write_csv_s": (total["data.write_csv"] / n, "s"),
            "data.read_csv_s": (total["data.read_csv"] / n, "s"),
            "data.read_csv.rows": (counters["data.read_csv.rows"] / n, "count"),
            "data.encode_inputs_s": (total["data.encode_inputs"] / n, "s"),
            "cli.self_s": (own["cli.main"] / n, "s"),
            "trace.overhead_ratio": (statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio"),
        }
        return metrics

    def projections(self) -> dict:
        return {
            "full_scale_train_s": FULL_STEPS_PER_EPOCH * FULL_EPOCHS / self.throughput("train"),
            "sweep_9_per_axis_s": FULL_SWEEP_COMBINATIONS / self.throughput("optimize"),
        }


def machine_facts(numpy) -> dict:
    config = numpy.show_config(mode="dicts")
    build = config.get("Build Dependencies", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": build.get("blas"),
        "lapack": build.get("lapack"),
        "simd": config.get("SIMD Extensions"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed; derives every program input")
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS thread count pinned in the environment (default 1)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pinned before numpy loads, so OpenBLAS starts with this many threads.
    for var in THREAD_VARS:
        os.environ[var] = str(args.blas_threads)
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        from sensopt import cli
    except ImportError as exc:
        print(f"perfbench: cannot import sensopt from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    if Path(cli.__file__).resolve().parents[1] != (ROOT / "src").resolve():
        print(f"perfbench: sensopt was imported from {cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args, cli.main)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    try:
        run.measure()
        metrics = run.per_layer() if args.trace else run.end_to_end(import_s)
        projections = run.projections()
    except RunFailed as exc:
        for failure in run.failures:
            print(f"perfbench: failed {failure['argv'][0]}: {failure['reason']}", file=sys.stderr)
        print(f"perfbench: {args.workload} cannot be measured: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-b{args.blas_threads}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(numpy),
        "devices": [{"dataset_seed": d, "train_seed": t} for d, t in run.devices],
        "cycles": run.cycles,
        "command_seconds": {f"{command}/{units}": s for (command, units), s in run.seconds.items()},
        "digests": run.digests,
        "projections": projections,
        "failures": run.failures,
        "result": result,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if run.tracer:
        run.tracer.dump(results / f"{stem}-spans.csv.gz")
    for failure in run.failures:
        print(f"perfbench: failed {failure['argv'][0]}: {failure['reason']}", file=sys.stderr)
    print(
        f"projection (information, not a metric): full-scale train {projections['full_scale_train_s']:.0f} s, "
        f"9-per-axis sweep {projections['sweep_9_per_axis_s']:.1f} s"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
