"""Fresh-interpreter side of the benchmark.

    python3 perfbench/child.py setup <workload> <seed> <smoke 0|1> <workdir> <timing.json>
    python3 perfbench/child.py serve <timing.json> <tarp CLI argument>...

``setup`` repeats one run's set-up in a new process: import ``tarp.cli``,
finish lazy first-call work, and make the workload's inputs (for
``serve_cli``, fit and save the model and write the new-row CSV). ``serve``
is one ``tarp`` command line, run as ``tarp.cli.main`` would run it from the
console script, with its exit code. Both write the import time (and fit or
predict time where there is one) to ``timing.json``.
"""

import json
import sys
import time
from pathlib import Path

import common

common.prepare_process()
STARTED = time.perf_counter()
import tarp.cli  # noqa: E402  (after the BLAS pin)

IMPORT_S = time.perf_counter() - STARTED


def _setup(workload: str, seed: int, smoke: bool, workdir: Path) -> dict:
    import workloads

    shape = workloads.shape_for(workload, smoke)
    workloads.warm_up(shape)
    if shape.cli:
        return workloads.write_serving_files(shape, seed, workdir)
    workloads.op_inputs(shape, seed, 0)
    return {}


def _serve(argv: list[str]) -> tuple[int, dict]:
    timing = {}
    predict_tarp = tarp.cli.predict_tarp

    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return predict_tarp(*args, **kwargs)
        finally:
            timing["predict_s"] = time.perf_counter() - started

    tarp.cli.predict_tarp = timed
    return tarp.cli.main(argv), timing


def main() -> int:
    mode = sys.argv[1]
    if mode == "setup":
        workload, seed, smoke, workdir, timing_path = sys.argv[2:7]
        code, timing = 0, _setup(workload, int(seed), smoke == "1", Path(workdir))
    elif mode == "serve":
        timing_path = sys.argv[2]
        code, timing = _serve(sys.argv[3:])
    else:
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return 1
    timing["import_s"] = IMPORT_S
    Path(timing_path).write_text(json.dumps(timing), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
