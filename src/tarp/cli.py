"""Command-line front end: simulate, fit, predict, bench.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every run records its resolved options and seed into output metadata; output
files are byte-identical for identical command lines and seeds (timestamps
live only in metadata sidecars). Partially written outputs are removed on
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import DataError, Dataset, load_csv, load_table, write_csv
from .ensemble import (
    ReplicateError,
    TarpModel,
    VARIANTS,
    fit_tarp,
    predict_tarp,
    sample_config_grid,
)
from .metrics import evaluate_regression
from .model_io import load_model, save_model
from .posterior import ConvergenceError
from .screening import default_delta
from .simgen import SCHEMES, SchemeSpec, generate, write_truth_json

THREADS_ENV_VAR = "TARP_THREADS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="tarp",
        description=(
            "Targeted random projection for compressed Bayesian regression: "
            "simulate benchmark data, fit projection ensembles, predict with "
            "intervals, and run train/test benchmarks."
        ),
    )
    parser.add_argument("--version", action="version", version=f"tarp {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        default=None,
        help="optional 'key = value' config file; flags override it",
    )

    sim = sub.add_parser(
        "simulate",
        parents=[common],
        help="generate a synthetic benchmark dataset (CSV + truth JSON)",
    )
    sim.add_argument("--scheme", choices=SCHEMES, default=None,
                     help="covariate design (I: AR(1), II: blocks, III: rank-3, "
                          "IV: bridge paths)")
    sim.add_argument("--n", type=int, default=None, help="number of rows [200]")
    sim.add_argument("--p", type=int, default=None, help="number of predictors [2000]")
    sim.add_argument("--noise-sd", type=float, default=None,
                     help="response noise standard deviation [1.0]")
    sim.add_argument("--seed", type=int, default=None, help="RNG seed [0]")
    sim.add_argument("--out", default=None, help="dataset CSV path [tarp_data.csv]")
    sim.add_argument("--truth-out", default=None,
                     help="truth JSON path [<out stem>_truth.json]")

    fit = sub.add_parser(
        "fit",
        parents=[common],
        help="fit a projection ensemble from a training CSV",
    )
    fit.add_argument("--data", default=None, help="training CSV (required)")
    fit.add_argument("--target", default=None, help="response column name [y]")
    fit.add_argument("--variant", choices=VARIANTS, default=None,
                     help="projection variant [ris_rp]")
    fit.add_argument("--replicates", type=int, default=None,
                     help="ensemble size N [100]")
    fit.add_argument("--delta", type=float, default=None,
                     help="screening exponent [max{0,(1+ln(p/n))/2}]")
    fit.add_argument("--a-sigma", type=float, default=None,
                     help="noise-variance prior shape [0.02]")
    fit.add_argument("--b-sigma", type=float, default=None,
                     help="noise-variance prior rate [0.02]")
    fit.add_argument("--sigma-theta2", type=float, default=None,
                     help="coefficient prior variance for binary fits [1.0]")
    fit.add_argument("--seed", type=int, default=None, help="master seed [0]")
    fit.add_argument("--threads", type=int, default=None,
                     help=f"worker threads [${THREADS_ENV_VAR} or 1]; "
                          "never changes outputs")
    fit.add_argument("--out", default=None, help="model file [tarp_model.json]")

    pred = sub.add_parser(
        "predict",
        parents=[common],
        help="predict new rows with a fitted model",
        epilog=(
            "output CSV columns: point,lo,hi (continuous response) or "
            "probability (binary response), one row per input row"
        ),
    )
    pred.add_argument("--model", default=None, help="model file (required)")
    pred.add_argument("--data", default=None,
                      help="CSV of new rows; a stray response column is dropped")
    pred.add_argument("--level", type=float, default=None,
                      help="central interval level [0.5]")
    pred.add_argument("--out", default=None, help="prediction CSV [tarp_pred.csv]")

    bench = sub.add_parser(
        "bench",
        parents=[common],
        help="run repeated train/test experiments of a scheme and report metrics",
        epilog=(
            "writes <prefix>_metrics.csv with columns replicate,mspe,ecp,width "
            "plus mean and sd summary rows; <prefix>_long.csv with columns "
            "replicate,method,metric,value (box-plot ready); and "
            "<prefix>_meta.json with the resolved options and seed"
        ),
    )
    bench.add_argument("--scheme", choices=SCHEMES, default=None)
    bench.add_argument("--n", type=int, default=None, help="training rows [200]")
    bench.add_argument("--test-size", type=int, default=None, help="test rows [100]")
    bench.add_argument("--p", type=int, default=None, help="predictors [2000]")
    bench.add_argument("--replicates", type=int, default=None,
                       help="train/test experiment replicates [30]")
    bench.add_argument("--ensemble-size", type=int, default=None,
                       help="projection draws per fit [50]")
    bench.add_argument("--variant", choices=VARIANTS, default=None)
    bench.add_argument("--delta", type=float, default=None)
    bench.add_argument("--noise-sd", type=float, default=None)
    bench.add_argument("--level", type=float, default=None,
                       help="prediction interval level [0.5]")
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--threads", type=int, default=None,
                       help=f"parallel experiment replicates [${THREADS_ENV_VAR} or 1]")
    bench.add_argument("--out-prefix", default=None,
                       help="output prefix [tarp_bench]")
    return parser


_DEFAULTS = {
    "simulate": {
        "n": 200, "p": 2000, "noise_sd": 1.0, "seed": 0,
        "out": "tarp_data.csv", "truth_out": None, "scheme": None,
    },
    "fit": {
        "data": None, "target": "y", "variant": "ris_rp", "replicates": 100,
        "delta": None, "a_sigma": 0.02, "b_sigma": 0.02, "sigma_theta2": 1.0,
        "seed": 0, "threads": None, "out": "tarp_model.json",
    },
    "predict": {
        "model": None, "data": None, "level": 0.5, "out": "tarp_pred.csv",
    },
    "bench": {
        "scheme": None, "n": 200, "test_size": 100, "p": 2000, "replicates": 30,
        "ensemble_size": 50, "variant": "ris_rp", "delta": None, "noise_sd": 1.0,
        "level": 0.5, "seed": 0, "threads": None, "out_prefix": "tarp_bench",
    },
}

_TYPES = {
    "n": int, "p": int, "seed": int, "replicates": int, "ensemble_size": int,
    "test_size": int, "threads": int, "noise_sd": float, "delta": float,
    "a_sigma": float, "b_sigma": float, "sigma_theta2": float, "level": float,
}


def _read_config_file(path) -> dict:
    values = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc.strerror}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key in _TYPES:
            try:
                value = _TYPES[key](value)
            except ValueError:
                raise _UsageError(
                    f"{path}:{lineno}: cannot parse {value!r} for {key}"
                ) from None
        values[key] = value
    return values


def _resolve_options(args: argparse.Namespace) -> dict:
    """Merge flags over config-file values over built-in defaults."""
    defaults = _DEFAULTS[args.command]
    config = _read_config_file(args.config) if args.config else {}
    options = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            options[key] = flag
        elif key in config:
            options[key] = config[key]
        else:
            options[key] = default
    return options


def _resolve_threads(value) -> int:
    if value is None:
        env = os.environ.get(THREADS_ENV_VAR)
        if env:
            try:
                value = int(env)
            except ValueError:
                raise _UsageError(
                    f"{THREADS_ENV_VAR}={env!r} is not an integer"
                ) from None
    threads = 1 if value is None else int(value)
    if threads < 1:
        raise _UsageError(f"thread count must be >= 1, got {threads}")
    return threads


def _meta(options: dict, command: str) -> dict:
    return {
        "command": command,
        "options": {k: v for k, v in sorted(options.items())},
        "tarp_version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }


def _format_float(value: float) -> str:
    return repr(float(value))


def _cmd_simulate(options: dict, outputs: list) -> int:
    if options["scheme"] is None:
        raise _UsageError("simulate requires --scheme")
    out = Path(options["out"])
    truth_out = options["truth_out"]
    if truth_out is None:
        truth_out = out.with_name(out.stem + "_truth.json")
    truth_out = Path(truth_out)
    spec = SchemeSpec(
        scheme=options["scheme"],
        n=options["n"],
        p=options["p"],
        noise_sd=options["noise_sd"],
        seed=options["seed"],
    )
    dataset, truth = generate(spec)
    outputs.append(out)
    write_csv(dataset, out, target="y")
    truth["options"] = {k: v for k, v in sorted(options.items())}
    outputs.append(truth_out)
    write_truth_json(truth, truth_out)
    print(f"wrote {dataset.n} x {dataset.p + 1} dataset to {out}")
    print(f"wrote truth sidecar to {truth_out}")
    return EXIT_OK


def _cmd_fit(options: dict, outputs: list) -> int:
    if options["data"] is None:
        raise _UsageError("fit requires --data")
    threads = _resolve_threads(options["threads"])
    train = load_csv(options["data"], options["target"])
    delta = options["delta"]
    if delta is None:
        delta = default_delta(train.n, train.p)
    started = time.perf_counter()
    configs = sample_config_grid(
        train.n,
        train.p,
        options["replicates"],
        variant=options["variant"],
        delta=delta,
        master_seed=options["seed"],
    )
    model = fit_tarp(
        train,
        configs,
        a_sigma=options["a_sigma"],
        b_sigma=options["b_sigma"],
        sigma_theta2=options["sigma_theta2"],
        master_seed=options["seed"],
        threads=threads,
    )
    elapsed = time.perf_counter() - started
    out = Path(options["out"])
    outputs.append(out)
    resolved = {k: v for k, v in sorted(options.items()) if k != "threads"}
    resolved["delta"] = delta  # worker count is wall-time only, never model content
    save_model(model, out, extra={"command": "fit", "options": resolved})
    ms = [rep.config.m for rep in model.replicates]
    print(
        f"fitted {model.n_replicates} replicates "
        f"(variant={options['variant']}, m in [{min(ms)}, {max(ms)}], "
        f"delta={delta:.4g}) in {elapsed:.2f}s"
    )
    print(f"wrote model to {out}")
    return EXIT_OK


def _load_design_for_model(path, model: TarpModel, target_hint: str | None):
    names, table = load_table(path)
    expected = model.column_names
    if names == expected:
        return table
    extra = [name for name in names if name not in expected]
    if len(extra) == 1 and [n for n in names if n != extra[0]] == expected:
        drop = names.index(extra[0])
        return np.delete(table, drop, axis=1)
    if target_hint and target_hint in names:
        drop = names.index(target_hint)
        reduced = [n for i, n in enumerate(names) if i != drop]
        if reduced == expected:
            return np.delete(table, drop, axis=1)
    raise DataError(
        f"{path}: columns do not match the model's training columns "
        f"({len(names)} given, {len(expected)} expected)"
    )


def _cmd_predict(options: dict, outputs: list) -> int:
    if options["model"] is None:
        raise _UsageError("predict requires --model")
    if options["data"] is None:
        raise _UsageError("predict requires --data")
    model, extra = load_model(options["model"])
    fit_options = extra.get("options", {})
    if not isinstance(fit_options, dict):
        raise DataError(f"{options['model']}: malformed model file (bad extra options)")
    target_hint = fit_options.get("target")
    X_new = _load_design_for_model(options["data"], model, target_hint)
    prediction = predict_tarp(model, X_new, level=options["level"])
    out = Path(options["out"])
    outputs.append(out)
    with open(out, "w", encoding="utf-8") as fh:
        if prediction.response_kind == "binary":
            fh.write("probability\n")
            for value in prediction.probability:
                fh.write(_format_float(value) + "\n")
        else:
            fh.write("point,lo,hi\n")
            for point, lo, hi in zip(
                prediction.point, prediction.lower, prediction.upper
            ):
                fh.write(
                    f"{_format_float(point)},{_format_float(lo)},{_format_float(hi)}\n"
                )
    meta_path = Path(str(out) + ".meta.json")
    outputs.append(meta_path)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(_meta(options, "predict"), fh, sort_keys=True, indent=2)
    print(f"wrote {X_new.shape[0]} predictions to {out}")
    return EXIT_OK


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _bench_one(options: dict, rep: int) -> dict:
    n_total = options["n"] + options["test_size"]
    spec = SchemeSpec(
        scheme=options["scheme"],
        n=n_total,
        p=options["p"],
        noise_sd=options["noise_sd"],
        seed=_derive_seed(options["seed"], rep, 0),
    )
    dataset, _ = generate(spec)
    train = Dataset(
        dataset.design[: options["n"]],
        dataset.response[: options["n"]],
        response_kind=dataset.response_kind,
        column_names=dataset.column_names,
    )
    test = Dataset(
        dataset.design[options["n"] :],
        dataset.response[options["n"] :],
        response_kind=dataset.response_kind,
        column_names=dataset.column_names,
    )
    master_seed = _derive_seed(options["seed"], rep, 1)
    delta = options["delta"]
    if delta is None:
        delta = default_delta(train.n, train.p)
    configs = sample_config_grid(
        train.n,
        train.p,
        options["ensemble_size"],
        variant=options["variant"],
        delta=delta,
        master_seed=master_seed,
    )
    model = fit_tarp(train, configs, master_seed=master_seed, threads=1)
    prediction = predict_tarp(model, test.design, level=options["level"])
    report = evaluate_regression(
        prediction.point,
        np.column_stack([prediction.lower, prediction.upper]),
        test.response,
    )
    return {
        "replicate": rep,
        "mspe": report.mspe,
        "ecp": report.ecp,
        "width": report.mean_width,
    }


def _cmd_bench(options: dict, outputs: list) -> int:
    if options["scheme"] is None:
        raise _UsageError("bench requires --scheme")
    if options["replicates"] < 1:
        raise _UsageError("bench needs at least one replicate")
    threads = _resolve_threads(options["threads"])
    started = time.perf_counter()
    reps = range(options["replicates"])
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda r: _bench_one(options, r), reps))
    else:
        rows = [_bench_one(options, r) for r in reps]
    elapsed = time.perf_counter() - started

    prefix = options["out_prefix"]
    metrics_path = Path(f"{prefix}_metrics.csv")
    long_path = Path(f"{prefix}_long.csv")
    meta_path = Path(f"{prefix}_meta.json")

    names = ("mspe", "ecp", "width")
    columns = {name: np.array([row[name] for row in rows]) for name in names}
    outputs.append(metrics_path)
    with open(metrics_path, "w", encoding="utf-8") as fh:
        fh.write("replicate,mspe,ecp,width\n")
        for row in rows:
            fh.write(
                f"{row['replicate']},"
                + ",".join(_format_float(row[name]) for name in names)
                + "\n"
            )
        fh.write(
            "mean," + ",".join(_format_float(columns[n].mean()) for n in names) + "\n"
        )
        fh.write(
            "sd,"
            + ",".join(_format_float(columns[n].std(ddof=1)) if len(rows) > 1
                       else _format_float(0.0) for n in names)
            + "\n"
        )
    outputs.append(long_path)
    with open(long_path, "w", encoding="utf-8") as fh:
        fh.write("replicate,method,metric,value\n")
        for row in rows:
            for name in names:
                fh.write(
                    f"{row['replicate']},{options['variant']},{name},"
                    f"{_format_float(row[name])}\n"
                )
    meta = _meta(options, "bench")
    meta["elapsed_seconds"] = elapsed
    meta["threads"] = threads
    outputs.append(meta_path)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)

    print(
        f"scheme {options['scheme']} ({options['variant']}): "
        f"{options['replicates']} replicates in {elapsed:.1f}s"
    )
    for name in names:
        mean = columns[name].mean()
        sd = columns[name].std(ddof=1) if len(rows) > 1 else 0.0
        print(f"  {name:>5}: {mean:.4f} ({sd:.4f})")
    print(f"wrote {metrics_path}, {long_path}, {meta_path}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "bench": _cmd_bench,
}


def _classify_error(exc: Exception) -> int:
    if isinstance(exc, ReplicateError):
        return _classify_error(exc.original)
    if isinstance(exc, DataError):
        return EXIT_DATA
    if isinstance(exc, (ConvergenceError, np.linalg.LinAlgError)):
        return EXIT_NUMERIC
    if isinstance(exc, (ValueError, OSError)):
        return EXIT_USAGE
    raise exc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    # paths are registered in `outputs` just before each write starts, so an
    # error removes exactly the files whose content may be partial
    outputs: list[Path] = []
    try:
        options = _resolve_options(args)
        return _COMMANDS[args.command](options, outputs)
    except _UsageError as exc:
        _remove_partial(outputs)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - single funnel to exit codes
        _remove_partial(outputs)
        code = _classify_error(exc)  # unknown errors re-raise with traceback
        print(f"error: {exc}", file=sys.stderr)
        return code


def _remove_partial(outputs):
    for path in outputs:
        try:
            Path(path).unlink(missing_ok=True)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
