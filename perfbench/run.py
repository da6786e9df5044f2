#!/usr/bin/env python3
"""tarp benchmark: one workload, closed loop, one op at a time.

    python3 perfbench/run.py --workload fit_rp --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The run repeats its set-up in fresh
interpreters, then runs ops back to back for ``--seconds`` and checks every
output. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced ops on the same inputs and
reports per-layer self times, calls and counts (see ``tracing.py``). The
last line of standard output is one JSON object; the lines before it give
each metric with its unit and sample count. See ``README.md`` for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import common

common.prepare_process()

import numpy as np  # noqa: E402  (after the BLAS pin)
import scipy  # noqa: E402

import tarp  # noqa: E402
import tarp.cli  # noqa: E402
import tarp.model_io  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# set-ups per run, each in a fresh interpreter; serve_cli's costs ~6 s
SETUP_REPEATS = 5
SERVE_SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170.0
CHILD = Path(__file__).resolve().parent / "child.py"

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "fit_s": "s",
    "predict_s": "s",
    "peak_rss_mb": "MB",
    "model_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_calls", "count"), ("_mb", "MB"), ("_gflop", "GFLOP"),
                         ("_ratio", "ratio"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="tarp benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up, for the smoke test")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store op 0 of seed {workloads.REFERENCE_SEED} as the reference")
    args = parser.parse_args(argv)
    if args.write_reference and (args.seed != workloads.REFERENCE_SEED or args.smoke):
        parser.error(f"--write-reference needs --seed {workloads.REFERENCE_SEED}, no --smoke")
    return args


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads_pinned": common.BLAS_THREADS,
        "blas_env": {v: os.environ.get(v) for v in common.BLAS_ENV_VARS},
        "blas_library": blas.get("name"),
        "blas_version": blas.get("version"),
        "tarp_threads": common.TARP_THREADS,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "tarp": tarp.__version__,
    }


def spawn(argv: list[str], workdir: Path, tag: str) -> dict:
    """Run ``child.py`` to completion; wall time, exit code, peak RSS, timings."""
    timing_path = workdir / f"{tag}.timing.json"
    timing_path.unlink(missing_ok=True)
    argv = [a.replace("{timing}", str(timing_path)) for a in argv]
    with open(workdir / f"{tag}.out", "wb") as out, open(workdir / f"{tag}.err", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), *argv],
                                stdout=out, stderr=err, cwd=common.ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    timing = {}
    if timing_path.is_file():
        timing = json.loads(timing_path.read_text(encoding="utf-8"))
    return {
        "wall_s": wall,
        "code": proc.returncode,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "timing": timing,
        "stderr": (workdir / f"{tag}.err").read_text(encoding="utf-8", errors="replace"),
    }


class Run:
    """Samples, failures and outputs of one benchmark run."""

    def __init__(self, args, shape, workdir: Path):
        self.args = args
        self.shape = shape
        self.workdir = workdir
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.fit_s: list[float] = []
        self.predict_s: list[float] = []
        self.op_s: list[float] = []
        self.rss_mb: list[float] = []
        self.model_mb: list[float] = []
        self.scores: list = []
        self.attempted = 0
        self.failed_ops = 0
        self.failures: list[str] = []
        self.run_failures: list[str] = []
        self.first_output_hash = None

    # -- set-up --------------------------------------------------------

    def set_up(self) -> None:
        repeats = SERVE_SETUP_REPEATS if self.shape.cli else SETUP_REPEATS
        if self.args.smoke:
            repeats = 1
        for i in range(repeats):
            child = spawn(["setup", self.args.workload, str(self.args.seed),
                           "1" if self.args.smoke else "0", str(self.workdir), "{timing}"],
                          self.workdir, f"setup{i}")
            if child["code"] != 0:
                raise RuntimeError(f"set-up exited with {child['code']}:\n{child['stderr']}")
            self.setup_s.append(child["wall_s"])
            self.import_s.append(child["timing"]["import_s"])
            if "fit_s" in child["timing"]:
                self.fit_s.append(child["timing"]["fit_s"])
        if not self.shape.cli:
            workloads.warm_up(self.shape)

    # -- checks --------------------------------------------------------

    def check(self, index: int, arrays: dict, n_rows: int) -> list[str]:
        problems = workloads.output_problems(arrays, n_rows)
        at_reference = (index == 0 and self.args.seed == workloads.REFERENCE_SEED
                        and not self.args.smoke)
        if at_reference and not problems:
            if self.args.write_reference:
                workloads.write_reference(self.args.workload, arrays)
            else:
                problems += workloads.reference_problems(self.args.workload, arrays)
        return problems

    def record(self, index: int, wall: float, problems: list[str]) -> None:
        self.attempted += 1
        self.op_s.append(wall)
        self.failures += [f"op {index}: {problem}" for problem in problems]
        if problems:
            self.failed_ops += 1
            print(f"op {index} failed: {'; '.join(problems)}", file=sys.stderr)

    # -- fit workloads -------------------------------------------------

    def fit_op(self, index: int, inputs, tracer=None) -> float:
        """Fit, predict and score one op; returns its wall time."""
        root = tracer.span("op", index) if tracer else contextlib.nullcontext()
        problems, model = [], None
        started = time.perf_counter()
        try:
            with root:
                model = workloads.fit(inputs)
                fitted = time.perf_counter()
                prediction = workloads.predict(model, inputs)
                predicted = time.perf_counter()
                score = workloads.evaluate(self.shape, prediction, inputs)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            problems.append(traceback.format_exc().strip().splitlines()[-1])
        wall = time.perf_counter() - started
        if not problems:
            self.fit_s.append(fitted - started)
            self.predict_s.append(predicted - fitted)
            self.scores.append(score)
            problems = self.check(index, workloads.prediction_arrays(prediction),
                                  self.shape.n_test)
            path = self.workdir / "model.json"
            tarp.model_io.save_model(model, path)
            self.model_mb.append(path.stat().st_size / 1e6)
        self.record(index, wall, problems)
        return wall

    # -- serve_cli -----------------------------------------------------

    def predict_argv(self) -> list[str]:
        return ["predict", "--model", str(self.workdir / "model.json"),
                "--data", str(self.workdir / "new_rows.csv"),
                "--level", str(workloads.LEVEL), "--out", str(self.workdir / "pred.csv")]

    def check_served(self, index: int, code: int) -> list[str]:
        if code != 0:
            return [f"tarp predict exited with {code}"]
        raw = (self.workdir / "pred.csv").read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if self.first_output_hash is None:
            self.first_output_hash = digest
        elif digest != self.first_output_hash:
            return ["prediction CSV differs from the run's first op"]
        lines = raw.decode("utf-8").splitlines()
        if lines[0] != "point,lo,hi":
            return [f"unexpected header {lines[0]!r}"]
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        if table.ndim != 2 or table.shape[1] != 3:
            return [f"prediction table has shape {table.shape}"]
        arrays = {"point": table[:, 0], "lower": table[:, 1], "upper": table[:, 2]}
        problems = self.check(index, arrays, self.shape.n_test)
        if not problems and index == 0:
            y = np.load(self.workdir / "new_y.npy")
            self.scores.append(float(np.mean((y >= arrays["lower"]) & (y <= arrays["upper"]))))
        return problems

    def serve_child_op(self, index: int) -> None:
        child = spawn(["serve", "{timing}", *self.predict_argv()], self.workdir, "serve")
        if child["code"] != 0:
            sys.stderr.write(child["stderr"])
        problems = self.check_served(index, child["code"])
        if not problems:
            self.predict_s.append(child["timing"]["predict_s"])
            self.rss_mb.append(child["peak_rss_mb"])
        self.record(index, child["wall_s"], problems)

    def serve_in_process(self, index: int, tracer=None) -> float:
        root = tracer.span("op", index) if tracer else contextlib.nullcontext()
        started = time.perf_counter()
        try:
            with root, contextlib.redirect_stdout(io.StringIO()):
                code = tarp.cli.main(self.predict_argv())
        except Exception:  # noqa: BLE001 - main re-raises errors it cannot map
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - started
        if index >= 0:
            self.record(index, wall, self.check_served(index, code))
        return wall

    # -- the measured loop ---------------------------------------------

    def measure(self) -> None:
        deadline = time.perf_counter() + self.args.seconds
        # serve_cli needs two ops to compare their prediction files
        min_ops = 2 if self.shape.cli else 1
        index = 0
        while index < min_ops or time.perf_counter() < deadline:
            if self.shape.cli:
                self.serve_child_op(index)
            else:
                self.fit_op(index, workloads.op_inputs(self.shape, self.args.seed, index))
            index += 1

    def measure_traced(self, tracer: tracing.Tracer) -> tuple[list[float], list[float]]:
        """Pairs of untraced and traced ops on the same inputs, order alternating."""
        if self.shape.cli:
            tracer.install()
            workloads.write_serving_files(self.shape, self.args.seed, self.workdir)
            tracer.uninstall()
            self.serve_in_process(-1)  # warm-up, not recorded
        plain, traced = [], []
        deadline = time.perf_counter() + self.args.seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            inputs = None if self.shape.cli else workloads.op_inputs(
                self.shape, self.args.seed, index)
            for traced_turn in ((False, True) if index % 2 == 0 else (True, False)):
                if traced_turn:
                    tracer.install()
                try:
                    if self.shape.cli:
                        wall = self.serve_in_process(index, tracer if traced_turn else None)
                    else:
                        wall = self.fit_op(index, inputs, tracer if traced_turn else None)
                finally:
                    tracer.uninstall()
                (traced if traced_turn else plain).append(wall)
            index += 1
        return plain, traced

    # -- results -------------------------------------------------------

    def finish_checks(self) -> None:
        if self.args.smoke:
            return  # the bands hold at full size, not on a few tiny ops
        self.run_failures = workloads.run_problems(self.shape, self.scores)
        for problem in self.run_failures:
            print(f"run check failed: {problem}", file=sys.stderr)

    @property
    def failed(self) -> int:
        # a failed run-level check fails every op it summarises
        return self.attempted if self.run_failures else self.failed_ops

    def end_to_end(self) -> dict[str, float]:
        if self.shape.cli:
            peak = max(self.rss_mb) if self.rss_mb else 0.0
            model = (self.workdir / "model.json").stat().st_size / 1e6
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            model = statistics.fmean(self.model_mb) if self.model_mb else 0.0
        return {
            "setup_s": _median(self.setup_s),
            "op_s": _median(self.op_s),
            "fit_s": _median(self.fit_s),
            "predict_s": _median(self.predict_s),
            "peak_rss_mb": peak,
            "model_mb": model,
        }

    def sample_counts(self) -> dict[str, int]:
        return {"setup_s": len(self.setup_s), "op_s": len(self.op_s),
                "fit_s": len(self.fit_s), "predict_s": len(self.predict_s)}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def supported_percentile(count: int) -> str:
    """Highest percentile with at least ten samples beyond it."""
    for pct in (99.9, 99, 95, 90, 75, 50):
        if count * (1 - pct / 100) >= 10:
            return f"p{pct:g}"
    return "none (median of fewer than 20)"


def run(args, workdir: Path) -> tuple[dict, dict, Run]:
    shape = workloads.shape_for(args.workload, args.smoke)
    bench = Run(args, shape, workdir)
    bench.set_up()
    if not args.trace:
        bench.measure()
        bench.finish_checks()
        metrics = bench.end_to_end()
        extra = {"samples": bench.sample_counts(), "op_walls_s": bench.op_s}
        return metrics, extra, bench
    tracer = tracing.Tracer()
    plain, traced = bench.measure_traced(tracer)
    bench.finish_checks()
    tracer.write(workdir / "spans.json")
    metrics = tracing.layer_metrics(tracer.spans, "op", len(traced))
    metrics["cli.import_s"] = _median(bench.import_s)
    # root-span durations, so the per-layer self times sum to this exactly
    metrics["traced_op_s"] = statistics.fmean(
        s[2] - s[1] for s in tracer.spans if s[0] == "op")
    metrics["untraced_op_s"] = statistics.fmean(plain)
    metrics["tracing_overhead_s"] = metrics["traced_op_s"] - metrics["untraced_op_s"]
    metrics["absent_entry_points"] = float(len(tracer.absent))
    extra = {
        "traced_ops": len(traced),
        "absent": tracer.absent,
        "counter_errors": tracer.counter_errors,
        "self_plus_unattributed_s": tracing.per_op_seconds(metrics),
    }
    return metrics, extra, bench


def report(args, metrics: dict, extra: dict, bench: Run, env: dict) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"failed_ops {bench.failed}/{bench.attempted}")
    for name, value in metrics.items():
        if args.trace:
            print(f"  {name:<40} {value:14.6f} {per_layer_unit(name)}")
            continue
        count = extra["samples"].get(name)
        note = (f"median of {count}, highest supported percentile "
                f"{supported_percentile(count)}") if count else ""
        print(f"  {name:<14} {value:14.6f} {END_TO_END_UNITS[name]:<3} {note}")
    if args.trace:
        print(f"  per-op self times + unattributed_s = {extra['self_plus_unattributed_s']:.6f} s"
              f" = traced_op_s; tracing overhead {metrics['tracing_overhead_s']:+.6f} s"
              f" over {extra['traced_ops']} op pairs")
        if extra["absent"]:
            print(f"  absent entry points: {', '.join(extra['absent'])}")
        if extra["counter_errors"]:
            print(f"  counters that failed: {extra['counter_errors']}")
    print("  environment: " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment()
    workdir = common.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, extra, bench = run(args, workdir)
    finally:
        for path in workdir.iterdir():
            if path.suffix in (".csv", ".npy") or path.name == "model.json":
                path.unlink()
    units = END_TO_END_UNITS if not args.trace else {n: per_layer_unit(n) for n in metrics}
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    (workdir / "result.json").write_text(
        json.dumps({**result, "environment": env, "failures": bench.failures + bench.run_failures,
                    **extra}, indent=1), encoding="utf-8")
    report(args, metrics, extra, bench, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
