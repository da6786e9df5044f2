"""Command-line front end: simulate, fit, predict, bench.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every run records its resolved options and seed into output metadata, the
delta that ``fit`` and ``bench`` grids used included; output files are
byte-identical for identical command lines and seeds at a fixed BLAS thread
count, one unless the environment sets it (timestamps live only in metadata
sidecars). ``--threads`` (default ``$TARP_THREADS``) sets the workers of
``fit`` and ``bench``; ``predict`` runs its replicates on one worker and reads
neither. Partially written outputs are removed on error.

Each command is one entry of ``_COMMANDS``, and a flag that several commands
take is declared once, in a parent parser they share.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import warnings
from dataclasses import replace
from datetime import datetime, timezone
from functools import partial
from importlib import import_module
from pathlib import Path
from typing import Callable, NamedTuple

# One BLAS thread unless the environment sets a count. OpenBLAS reads these
# once, when numpy loads, so this runs before the first import that loads
# it. Unpinned on 2 cores, a 300 x 2000 fit took ~2x as long and wrote other
# bytes. Only the command sets this: library callers keep their environment.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(os.environ.get(name) for name in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import numpy as np  # noqa: E402  (after the BLAS default)

from . import __version__
from .data import (
    TEXT_ENCODING, DataError, Dataset, load_csv, load_table, not_utf8, write_csv,
)
from .ensemble import (
    DEFAULT_LEVEL,
    LEVEL_RANGE,
    RIS_RP,
    ReplicateError,
    TarpModel,
    VARIANTS,
    _map_ordered,
    check_level,
    fit_tarp,
    predict_tarp,
    sample_config_grid,
)
from .metrics import evaluate_regression
from .model_io import load_model, save_model
from .posterior import (
    DEFAULT_A_SIGMA,
    DEFAULT_B_SIGMA,
    DEFAULT_SIGMA_THETA2,
    ConvergenceError,
    positive_finite,
)
from .screening import check_delta, default_delta
from .simgen import DEFAULT_NOISE_SD, SCHEMES, SchemeSpec, generate

THREADS_ENV_VAR = "TARP_THREADS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# the untargeted baseline is a CLI name for ris_rp at delta 0 (no screening)
PLAIN_RP_BASELINE = "plain_rp_baseline"
CLI_VARIANTS = (*VARIANTS, PLAIN_RP_BASELINE)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _ranged(parse, bound: str, accepts):
    """An argparse ``type=``: ``parse`` the text, then refuse what ``accepts`` does not."""

    def convert(text: str):
        value = parse(text)
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    convert.__name__ = parse.__name__  # named in argparse's 'invalid int value'
    return convert


def _passes(check):
    """``check`` as a predicate: false where it raises ValueError."""

    def accepts(value) -> bool:
        try:
            check(value)
        except ValueError:
            return False
        return True

    return accepts


_ROWS = _ranged(int, ">= 2", lambda v: v >= 2)
_COUNT = _ranged(int, ">= 1", lambda v: v >= 1)
_SEED = _ranged(int, ">= 0", lambda v: v >= 0)
_NONNEGATIVE = _ranged(float, "finite and >= 0", lambda v: math.isfinite(v) and v >= 0)
_DELTA = _ranged(float, "finite and >= 0", _passes(check_delta))
_PRIOR = _ranged(float, "a positive finite number",
                 _passes(partial(positive_finite, name="prior")))
_LEVEL = _ranged(float, LEVEL_RANGE, _passes(check_level))


def _build_parser() -> tuple[_Parser, dict]:
    """The ``tarp`` parser and its subcommand parsers by name.

    Each flag is the only declaration of its option's type, range, default,
    choices and help; config-file values are parsed through the same flag.
    A flag that several commands take is declared once, in a parent parser
    that each of them inherits, so they share one action. The parents are
    built anew with each parser: a config file's values become the defaults
    of those shared actions. ``--threads`` is a ``fit`` and ``bench`` flag:
    ``predict`` runs its replicates on one worker and reads neither it nor
    ``$TARP_THREADS``. An unset ``--delta`` is ``default_delta(n, p)`` of
    the training rows, and bench's meta JSON records the value its fits
    used as fit's model file does.
    """
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

    common, design, grid, seeded, interval = (
        argparse.ArgumentParser(add_help=False) for _ in range(5)
    )
    common.add_argument("--config",
                        help="optional 'key = value' config file; flags override it")
    # simulate and bench: the scheme that draws the data
    design.add_argument("--scheme", choices=SCHEMES,
                        help="covariate design (I: AR(1), II: blocks, III: rank-3, "
                             "IV: bridge paths)")
    design.add_argument("--p", type=_COUNT, default=2000,
                        help="number of predictors [%(default)s]")
    design.add_argument("--noise-sd", type=_NONNEGATIVE, default=DEFAULT_NOISE_SD,
                        help="response noise standard deviation [%(default)s]")
    # fit and bench: the projection grid and the workers that fit it
    grid.add_argument("--variant", choices=CLI_VARIANTS, default=RIS_RP,
                      help=f"projection variant; {PLAIN_RP_BASELINE} is {RIS_RP} "
                           "at delta 0 [%(default)s]")
    grid.add_argument("--delta", type=_DELTA,
                      help="screening exponent [max{0,(1+ln(p/n))/2}]")
    grid.add_argument("--threads", type=_COUNT,
                      help=f"worker threads [${THREADS_ENV_VAR} or 1]; "
                           "never changes outputs")
    seeded.add_argument("--seed", type=_SEED, default=0,
                        help="master RNG seed [%(default)s]")
    # predict and bench
    interval.add_argument("--level", type=_LEVEL, default=DEFAULT_LEVEL,
                          help="central prediction interval level [%(default)s]")

    sim = sub.add_parser(
        "simulate",
        parents=[common, design, seeded],
        help="generate a synthetic benchmark dataset (CSV + truth JSON)",
    )
    sim.add_argument("--n", type=_ROWS, default=200, help="number of rows [%(default)s]")
    sim.add_argument("--out", default="tarp_data.csv",
                     help="dataset CSV path [%(default)s]")
    sim.add_argument("--truth-out", help="truth JSON path [<out stem>_truth.json]")

    fit = sub.add_parser(
        "fit",
        parents=[common, grid, seeded],
        help="fit a projection ensemble from a training CSV",
    )
    fit.add_argument("--data", help="training CSV (required)")
    fit.add_argument("--target", default="y", help="response column name [%(default)s]")
    fit.add_argument("--replicates", type=_COUNT, default=100,
                     help="ensemble size N [%(default)s]")
    fit.add_argument("--a-sigma", type=_PRIOR, default=DEFAULT_A_SIGMA,
                     help="noise-variance prior shape [%(default)s]")
    fit.add_argument("--b-sigma", type=_PRIOR, default=DEFAULT_B_SIGMA,
                     help="noise-variance prior rate [%(default)s]")
    fit.add_argument("--sigma-theta2", type=_PRIOR, default=DEFAULT_SIGMA_THETA2,
                     help="coefficient prior variance for binary fits [%(default)s]")
    fit.add_argument("--out", default="tarp_model.tarp", help="model file [%(default)s]")

    pred = sub.add_parser(
        "predict",
        parents=[common, interval],
        help="predict new rows with a fitted model",
        epilog=(
            "output CSV columns: point,lo,hi (continuous response) or "
            "probability (binary response), one row per input row"
        ),
    )
    pred.add_argument("--model", help="model file (required)")
    pred.add_argument("--data", help="CSV of new rows; a stray response column is dropped")
    pred.add_argument("--out", default="tarp_pred.csv",
                      help="prediction CSV [%(default)s]")

    bench = sub.add_parser(
        "bench",
        parents=[common, design, grid, interval, seeded],
        help="run repeated train/test experiments of a scheme and report metrics",
        epilog=(
            "writes <prefix>_metrics.csv with columns replicate,mspe,ecp,width "
            "plus mean and sd summary rows; <prefix>_long.csv with columns "
            "replicate,method,metric,value (box-plot ready); and "
            "<prefix>_meta.json with the resolved options, delta and seed"
        ),
    )
    bench.add_argument("--n", type=_ROWS, default=200, help="training rows [%(default)s]")
    bench.add_argument("--test-size", type=_ROWS, default=100,
                       help="test rows [%(default)s]")
    bench.add_argument("--replicates", type=_COUNT, default=30,
                       help="train/test experiment replicates [%(default)s]")
    bench.add_argument("--ensemble-size", type=_COUNT, default=50,
                       help="projection draws per fit [%(default)s]")
    bench.add_argument("--out-prefix", default="tarp_bench",
                       help="output prefix [%(default)s]")
    return parser, sub.choices


def _options(args: argparse.Namespace) -> dict:
    """The command's resolved options: every flag's value, by option name."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "config")}


def _read_config_file(path, parser: _Parser, known) -> dict:
    """``key = value`` lines, each value parsed by the command's own flag.

    A key outside ``known`` or a value its flag rejects is a usage error
    naming ``path:line``.
    """
    values = {}
    try:
        lines = Path(path).read_text(encoding=TEXT_ENCODING).splitlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise _UsageError(not_utf8(f"config file {path}", exc)) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in known:
            raise _UsageError(f"{path}:{lineno}: unknown option {key!r}")
        # '--flag=value' keeps a value such as '-x' or '--help' a value
        flag = "--" + key.replace("_", "-")
        try:
            parsed = parser.parse_args([f"{flag}={value.strip()}"])
        except _UsageError as exc:
            raise _UsageError(f"{path}:{lineno}: {exc}") from None
        values[key] = getattr(parsed, key)
    return values


def _resolve_grid(options: dict) -> tuple[str, float | None]:
    """The library variant and delta (None where unset) of the options.

    The baseline is ris_rp at delta 0; any other ``--delta`` beside it is a
    usage error, raised before any file is read.
    """
    variant, delta = options["variant"], options["delta"]
    if variant != PLAIN_RP_BASELINE:
        return variant, delta
    if delta not in (None, 0):
        raise _UsageError(
            f"--delta {delta} cannot be used with --variant {variant}, "
            f"which is {RIS_RP} at delta 0"
        )
    return RIS_RP, 0.0


def _scheme_spec(command: str, options: dict, n: int) -> SchemeSpec:
    """The command's ``SchemeSpec``; a ``--p`` the scheme cannot hold is a usage error."""
    try:  # every flag is in range, so only p can be wrong for the scheme
        return SchemeSpec(options["scheme"], n, options["p"], options["noise_sd"],
                          options["seed"])
    except ValueError as exc:
        raise _UsageError(f"{command} --p: {exc}") from None


def _resolve_threads(value) -> int:
    """``--threads``, else ``$TARP_THREADS`` checked like the flag, else 1."""
    env = os.environ.get(THREADS_ENV_VAR)
    if value is not None or not env:
        return 1 if value is None else value
    try:
        return _COUNT(env)
    except ValueError:
        raise _UsageError(f"{THREADS_ENV_VAR}={env!r} is not an integer") from None
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"{THREADS_ENV_VAR}: {exc}") from None


def _blas() -> dict | None:
    """numpy's BLAS library and version; None where numpy cannot say (before 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


# each package's bundled OpenBLAS, and the symbol that names its kernel set
_OPENBLAS_CORENAME = {
    "numpy": "scipy_openblas_get_corename64_",
    "scipy": "scipy_openblas_get_corename",
}


def _openblas_cores() -> dict:
    """The kernel set (such as "Haswell") that the OpenBLAS bundled in the
    numpy and scipy wheels picked on this CPU; None for a package where no
    such library or symbol is found. Both libraries are loaded by then."""
    import ctypes  # numpy has imported it already

    cores = {}
    for package, symbol in _OPENBLAS_CORENAME.items():
        cores[package] = None
        libs = Path(import_module(package).__file__).parent.parent / f"{package}.libs"
        for lib in sorted(libs.glob("libscipy_openblas*.so")):
            try:
                corename = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            corename.restype = ctypes.c_char_p
            cores[package] = corename().decode("ascii", "replace")
    return cores


def _meta(options: dict, command: str) -> dict:
    # the BLAS set-up travels with the outputs: a thread count other than
    # one, or another kernel set, may change the last bits of every product
    return {
        "blas": _blas(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "command": command,
        "openblas_core": _openblas_cores(),
        "options": options,
        "tarp_version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }


def _output(outputs: list, path) -> Path:
    """Register ``path`` for removal on error; call just before writing it."""
    path = Path(path)
    outputs.append(path)
    return path


def _write_rows(outputs: list, path, header, rows) -> None:
    """A report CSV: floats as their shortest round-trip repr, ``\\n`` endings."""
    with open(_output(outputs, path), "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                repr(float(v)) if isinstance(v, float) else str(v) for v in row
            ) + "\n")


def _write_json(outputs: list, path, doc: dict) -> None:
    with open(_output(outputs, path), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)


def _cmd_simulate(options: dict, outputs: list) -> int:
    spec = _scheme_spec("simulate", options, options["n"])
    out = Path(options["out"])
    truth_out = options["truth_out"]
    if truth_out is None:
        truth_out = out.with_name(out.stem + "_truth.json")
    truth_out = Path(truth_out)
    dataset, truth = generate(spec)
    write_csv(dataset, _output(outputs, out), target="y")
    truth["options"] = options
    _write_json(outputs, truth_out, truth)
    print(f"wrote {dataset.n} x {dataset.p + 1} dataset to {out}")
    print(f"wrote truth sidecar to {truth_out}")
    return EXIT_OK


def _cmd_fit(options: dict, outputs: list) -> int:
    variant, delta = _resolve_grid(options)
    threads = _resolve_threads(options["threads"])
    train = load_csv(options["data"], options["target"])
    started = time.perf_counter()
    configs = sample_config_grid(train.n, train.p, options["replicates"], variant=variant,
                                 master_seed=options["seed"])
    model = fit_tarp(
        train,
        configs,
        delta=delta,
        a_sigma=options["a_sigma"],
        b_sigma=options["b_sigma"],
        sigma_theta2=options["sigma_theta2"],
        master_seed=options["seed"],
        threads=threads,
    )
    elapsed = time.perf_counter() - started
    out = _output(outputs, options["out"])
    # the options record the delta the fit screened at; the worker count is
    # wall-time only, never model content. The model document's keys are
    # sorted when it is written, as the meta JSON's are
    options = dict(options, delta=model.delta)
    resolved = {k: v for k, v in options.items() if k != "threads"}
    save_model(model, out, extra={"command": "fit", "options": resolved})
    ms = [rep.projection.requested_m for rep in model.replicates]
    print(
        f"fitted {model.n_replicates} replicates "
        f"(variant={options['variant']}, m in [{min(ms)}, {max(ms)}], "
        f"delta={options['delta']:.4g}) in {elapsed:.2f}s"
    )
    print(f"wrote model to {out}")
    return EXIT_OK


def _load_design_for_model(path, model: TarpModel):
    expected = model.column_names

    def response_column(names):
        # the column to drop so the rest are the model's, from the header;
        # both hold each name once, so only the one name the model lacks can go
        if names == expected:
            return None
        expected_set = set(expected)
        extra = [name for name in names if name not in expected_set]
        if len(extra) == 1 and [n for n in names if n != extra[0]] == expected:
            return names.index(extra[0])
        raise DataError(
            f"{path}: columns do not match the model's training columns "
            f"({len(names)} given, {len(expected)} expected)"
        )

    return load_table(path, drop=response_column)[1]


def _cmd_predict(options: dict, outputs: list) -> int:
    model, _ = load_model(options["model"])
    X_new = _load_design_for_model(options["data"], model)
    prediction = predict_tarp(model, X_new, level=options["level"])
    out = Path(options["out"])
    if prediction.response_kind == "binary":
        _write_rows(outputs, out, ("probability",),
                    ((value,) for value in prediction.probability))
    else:
        _write_rows(outputs, out, ("point", "lo", "hi"),
                    zip(prediction.point, prediction.lower, prediction.upper))
    _write_json(outputs, f"{out}.meta.json", _meta(options, "predict"))
    print(f"wrote {X_new.shape[0]} predictions to {out}")
    return EXIT_OK


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _bench_one(spec: SchemeSpec, variant: str, options: dict, rep: int) -> dict:
    # variant and options["delta"] come from _cmd_bench
    dataset, _ = generate(replace(spec, seed=_derive_seed(options["seed"], rep, 0)))
    train, test = (
        Dataset(dataset.design[rows], dataset.response[rows],
                response_kind=dataset.response_kind, column_names=dataset.column_names)
        for rows in (slice(None, options["n"]), slice(options["n"], None))
    )
    master_seed = _derive_seed(options["seed"], rep, 1)
    configs = sample_config_grid(train.n, train.p, options["ensemble_size"],
                                 variant=variant, master_seed=master_seed)
    model = fit_tarp(train, configs, delta=options["delta"], master_seed=master_seed,
                     threads=1)
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
    spec = _scheme_spec("bench", options, options["n"] + options["test_size"])
    variant, delta = _resolve_grid(options)
    # every experiment trains on n rows of the same p, so one delta serves all
    if delta is None:
        delta = default_delta(options["n"], options["p"])
    options = dict(options, delta=delta)
    threads = _resolve_threads(options["threads"])
    started = time.perf_counter()
    rows = _map_ordered(
        partial(_bench_one, spec, variant, options),
        range(options["replicates"]), threads,
    )
    elapsed = time.perf_counter() - started

    prefix = options["out_prefix"]
    metrics_path = Path(f"{prefix}_metrics.csv")
    long_path = Path(f"{prefix}_long.csv")
    meta_path = Path(f"{prefix}_meta.json")

    names = ("mspe", "ecp", "width")
    columns = [np.array([row[name] for row in rows]) for name in names]
    mean = [column.mean() for column in columns]
    sd = [column.std(ddof=1) if len(rows) > 1 else 0.0 for column in columns]
    _write_rows(
        outputs, metrics_path, ("replicate", *names),
        [(row["replicate"], *(row[name] for name in names)) for row in rows]
        + [("mean", *mean), ("sd", *sd)],
    )
    _write_rows(
        outputs, long_path, ("replicate", "method", "metric", "value"),
        ((row["replicate"], options["variant"], name, row[name])
         for row in rows for name in names),
    )
    meta = _meta(options, "bench")
    meta["elapsed_seconds"] = elapsed
    meta["threads"] = threads
    _write_json(outputs, meta_path, meta)

    print(
        f"scheme {options['scheme']} ({options['variant']}): "
        f"{options['replicates']} replicates in {elapsed:.1f}s"
    )
    for name, name_mean, name_sd in zip(names, mean, sd):
        print(f"  {name:>5}: {name_mean:.4f} ({name_sd:.4f})")
    print(f"wrote {metrics_path}, {long_path}, {meta_path}")
    return EXIT_OK


class _Command(NamedTuple):
    run: Callable[[dict, list], int]
    # the options it cannot run without, in the order they are checked; not
    # argparse's required=, since a --config file may supply them
    required: tuple[str, ...]
    # the exit code of a failed allocation, by where its size came from: the
    # options alone (usage), or a data or model file (data)
    memory_error_exit: int


_COMMANDS = {
    "simulate": _Command(_cmd_simulate, ("scheme",), EXIT_USAGE),
    "fit": _Command(_cmd_fit, ("data",), EXIT_DATA),
    "predict": _Command(_cmd_predict, ("model", "data"), EXIT_DATA),
    "bench": _Command(_cmd_bench, ("scheme",), EXIT_USAGE),
}


def _classify_error(exc: Exception, command: str) -> int:
    if isinstance(exc, ReplicateError):
        return _classify_error(exc.original, command)
    if isinstance(exc, MemoryError):
        return _COMMANDS[command].memory_error_exit
    if isinstance(exc, DataError):
        return EXIT_DATA
    if isinstance(exc, (ConvergenceError, np.linalg.LinAlgError)):
        return EXIT_NUMERIC
    if isinstance(exc, (ValueError, OSError)):
        return EXIT_USAGE
    raise exc


def main(argv=None) -> int:
    parser, parsers = _build_parser()
    # `_output` registers each path just before its write starts, so an
    # error removes exactly the files whose content may be partial
    outputs: list[Path] = []
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        options = _options(args)
        if args.config:
            # config values become the command's defaults: flags > config > built-in
            own = parsers[args.command]
            own.set_defaults(**_read_config_file(args.config, own, options))
            options = _options(parser.parse_args(argv))
        command = _COMMANDS[args.command]
        for name in command.required:
            if options[name] is None:
                raise _UsageError(f"{args.command} requires --{name}")
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return command.run(options, outputs)
    except _UsageError as exc:
        _remove_partial(outputs)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - single funnel to exit codes
        _remove_partial(outputs)
        # unknown errors re-raise with traceback
        code = _classify_error(exc, args.command)
        # a bare MemoryError has no message of its own
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return code


def _show_warning(message, category, filename, lineno, file=None, line=None):
    # one line per library warning, without the source line Python echoes
    print(f"warning: {message}", file=sys.stderr)


def _remove_partial(outputs):
    for path in outputs:
        try:
            Path(path).unlink(missing_ok=True)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
