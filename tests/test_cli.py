import base64
import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tarp
import tarp.cli
import tarp.ensemble
import tarp.projection
from tarp.cli import main
from tarp.data import DataError, Dataset, load_csv, write_csv
from tarp.ensemble import fit_tarp, predict_tarp, sample_config_grid
from tarp.model_io import load_model, save_model
from tarp.posterior import ConvergenceError, positive_finite
from tarp.screening import check_delta, default_delta
from tarp.simgen import SchemeSpec

from golden import assert_same_bytes
from model_files import as_doc, as_signed, body_of, each_array, signed


DATA = Path(__file__).parent / "data"


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_binary_csv(path, n=60, p=8, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = (X[:, 0] > 0).astype(int)
    header = ",".join([f"x{i+1}" for i in range(p)] + ["y"])
    rows = [",".join(repr(float(v)) for v in X[i]) + f",{y[i]}" for i in range(n)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


class TestSimulate:
    def test_writes_dataset_and_truth(self, workdir):
        code = run(
            "simulate", "--scheme", "III", "--n", "50", "--p", "40",
            "--seed", "1", "--out", "data.csv",
        )
        assert code == 0
        ds = load_csv("data.csv", "y")
        assert ds.n == 50 and ds.p == 40
        truth = json.loads((workdir / "data_truth.json").read_text())
        assert truth["scheme"] == "III"
        assert truth["options"]["seed"] == 1

    def test_requires_scheme(self, workdir, capsys):
        assert run("simulate") == 1
        assert "scheme" in capsys.readouterr().err

    def test_identical_runs_identical_bytes(self, workdir):
        for out in ("a.csv", "b.csv"):
            run("simulate", "--scheme", "I", "--n", "30", "--p", "40",
                "--seed", "3", "--out", out)
        assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()

    @pytest.mark.parametrize(
        "value, message",
        [
            ("nan", "argument --noise-sd: must be finite and >= 0, got nan"),
            ("inf", "argument --noise-sd: must be finite and >= 0, got inf"),
            # finite, so the spec takes it, but the response overflows
            ("1e308", "noise_sd=1e+308 overflows the simulated response"),
        ],
        ids=["nan", "inf", "1e308"],
    )
    def test_bad_noise_sd_is_usage_error(self, workdir, capsys, value, message):
        assert run("simulate", "--scheme", "I", "--n", "30", "--p", "40",
                   "--noise-sd", value, "--out", "data.csv") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(workdir.iterdir())


class TestFitPredict:
    def make_data(self, workdir, seed=5):
        run("simulate", "--scheme", "I", "--n", "60", "--p", "50",
            "--seed", str(seed), "--out", "data.csv")
        return workdir / "data.csv"

    def test_fit_then_predict(self, workdir):
        self.make_data(workdir)
        assert run("fit", "--data", "data.csv", "--replicates", "4",
                   "--seed", "9", "--out", "model.json") == 0
        assert run("predict", "--model", "model.json", "--data", "data.csv",
                   "--out", "preds.csv") == 0
        lines = (workdir / "preds.csv").read_text().splitlines()
        assert lines[0] == "point,lo,hi"
        assert len(lines) == 61

    def test_cli_matches_library(self, workdir):
        # golden equivalence: the CLI is a thin wrapper over the library calls
        path = self.make_data(workdir)
        run("fit", "--data", "data.csv", "--replicates", "1", "--seed", "7",
            "--out", "model.json")
        run("predict", "--model", "model.json", "--data", "data.csv",
            "--out", "preds.csv")
        train = load_csv(path, "y")
        configs = sample_config_grid(train.n, train.p, 1, master_seed=7)
        model = fit_tarp(train, configs, master_seed=7)
        assert model.delta == default_delta(train.n, train.p)
        expected = predict_tarp(model, train.design, level=0.5)
        got = np.loadtxt(workdir / "preds.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(got[:, 0], expected.point)
        np.testing.assert_array_equal(got[:, 1], expected.lower)
        np.testing.assert_array_equal(got[:, 2], expected.upper)

    @pytest.mark.parametrize("variant", ["ris_pcr", "ris_rp"])
    def test_fit_summary_reports_the_requested_m_range(self, workdir, capsys, variant):
        # Scheme III's design has rank 3, below the grid's least m (8 at
        # p=50), so every partial-SVD map is cut to fewer rows than its
        # config asked for: the line reports the configs' m, not the maps'
        run("simulate", "--scheme", "III", "--n", "60", "--p", "50",
            "--seed", "5", "--out", "data.csv")
        capsys.readouterr()
        assert run("fit", "--data", "data.csv", "--variant", variant,
                   "--replicates", "4", "--seed", "9", "--out", "model.tarp") == 0
        train = load_csv("data.csv", "y")
        ms = [cfg.m for cfg in sample_config_grid(train.n, train.p, 4, variant=variant,
                                                  master_seed=9)]
        model, _ = load_model("model.tarp")
        maps = [rep.projection for rep in model.replicates]
        if variant == "ris_pcr":
            assert [proj.requested_m for proj in maps] == ms
            assert all(proj.m < proj.requested_m for proj in maps)
        else:
            assert [proj.m for proj in maps] == ms
        summary, wrote = capsys.readouterr().out.splitlines()
        prefix = (f"fitted 4 replicates (variant={variant}, m in [{min(ms)}, {max(ms)}], "
                  f"delta={model.delta:.4g}) in ")
        assert re.fullmatch(re.escape(prefix) + r"\d+\.\d\ds", summary), summary
        assert wrote == "wrote model to model.tarp"

    def test_model_metadata_records_options(self, workdir):
        self.make_data(workdir)
        run("fit", "--data", "data.csv", "--replicates", "2", "--seed", "11",
            "--out", "model.json")
        _, extra = load_model("model.json")
        assert extra["options"]["seed"] == 11
        assert extra["options"]["replicates"] == 2

    def test_predict_drops_response_column(self, workdir):
        self.make_data(workdir)
        run("fit", "--data", "data.csv", "--replicates", "2", "--out", "model.json")
        # data.csv still contains the y column; predict must ignore it
        assert run("predict", "--model", "model.json", "--data", "data.csv",
                   "--out", "preds.csv") == 0

    @pytest.mark.parametrize("kind", ["continuous", "binary"])
    def test_bad_level_is_usage_error(self, workdir, capsys, kind):
        assert run("predict", "--model", str(DATA / f"v8_{kind}.tarp"),
                   "--data", str(DATA / f"{kind}.csv"), "--level", "7",
                   "--out", "preds.csv") == 1
        assert capsys.readouterr().err == (
            "error: argument --level: must be in (0, 0.9999999999999998], got 7\n"
        )
        assert not list(workdir.iterdir())

    @pytest.mark.parametrize("model", ["v8_continuous", "v8_ris_pcr"])
    def test_largest_level_predicts_a_finite_interval(self, workdir, model):
        # (1 + level) / 2 is the largest double below 1
        assert run("predict", "--model", str(DATA / f"{model}.tarp"),
                   "--data", str(DATA / "continuous.csv"),
                   "--level", "0.9999999999999998", "--out", "preds.csv") == 0
        lo, hi = np.loadtxt("preds.csv", delimiter=",", skiprows=1)[:, 1:].T
        assert np.isfinite(lo).all() and np.isfinite(hi).all()
        assert np.all(lo < hi)

    def test_unconverged_mixture_quantile_is_exit_3(self, workdir, capsys, monkeypatch):
        # one Newton-or-bisection step cannot settle every point
        monkeypatch.setattr(tarp.ensemble, "QUANTILE_MAX_ITER", 1)
        assert run("predict", "--model", str(DATA / "v8_continuous.tarp"),
                   "--data", str(DATA / "continuous.csv"), "--out", "preds.csv") == 3
        assert re.fullmatch(
            r"error: mixture quantile search left [1-9]\d* points unconverged\n",
            capsys.readouterr().err,
        )
        assert not list(workdir.iterdir())

    def test_byte_order_mark_is_ignored(self, workdir, monkeypatch):
        # the mark would otherwise stick to the first name, here the target
        rng = np.random.default_rng(3)
        table = rng.standard_normal((40, 6))
        text = "y,x1,x2,x3,x4,x5\n" + "".join(
            ",".join(map(repr, row.tolist())) + "\n" for row in table
        )
        models = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (workdir / name).mkdir()
            monkeypatch.chdir(workdir / name)
            (workdir / name / "data.csv").write_bytes(prefix + text.encode())
            assert run("fit", "--data", "data.csv", "--target", "y",
                       "--replicates", "3", "--out", "model.json") == 0
            models.append((workdir / name / "model.json").read_bytes())
        assert models[0] == models[1]

    def test_binary_pipeline(self, workdir):
        write_binary_csv(workdir / "bin.csv")
        assert run("fit", "--data", "bin.csv", "--replicates", "3",
                   "--out", "model.json") == 0
        assert run("predict", "--model", "model.json", "--data", "bin.csv",
                   "--out", "preds.csv") == 0
        lines = (workdir / "preds.csv").read_text().splitlines()
        assert lines[0] == "probability"
        values = np.loadtxt(workdir / "preds.csv", skiprows=1)
        assert np.all((values >= 0) & (values <= 1))


class TestBenchmarkHooks:
    # perfbench's serve_cli child times tarp.cli.predict_tarp through its own
    # wrapper, and its tracer wraps tarp.cli.load_table and tarp.cli.load_model:
    # a predict that called around these names would time nothing
    def test_predict_calls_each_hook_once(self, workdir, monkeypatch):
        calls = []

        def counted(name):
            wrapped = getattr(tarp.cli, name)

            def call(*args, **kwargs):
                calls.append(name)
                return wrapped(*args, **kwargs)

            monkeypatch.setattr(tarp.cli, name, call)

        for name in ("predict_tarp", "load_table", "load_model"):
            counted(name)
        assert run("predict", "--model", str(DATA / "v8_continuous.tarp"),
                   "--data", str(DATA / "continuous.csv"), "--out", "preds.csv") == 0
        assert sorted(calls) == ["load_model", "load_table", "predict_tarp"]
        assert_same_bytes(workdir / "preds.csv", DATA / "v1_continuous_pred.csv")


class TestPredictMemory:
    # `tarp predict` hands predict_tarp column-major rows that it owns, and
    # predict_tarp standardizes them in place: what it allocates is then
    # the finite check's booleans, each replicate's gather of its screened
    # columns and the small per-replicate arrays, less than one more copy
    # of the rows
    @pytest.mark.parametrize("response", [True, False],
                             ids=["response_column", "design_only"])
    def test_predict_tarp_allocates_less_than_a_copy_of_the_rows(
        self, workdir, monkeypatch, response
    ):
        rng = np.random.default_rng(7)
        n, k, p = 30, 200, 400
        X = rng.standard_normal((n + k, p))
        y = X[:, :3].sum(axis=1) + rng.standard_normal(n + k)
        configs = sample_config_grid(n, p, 3, master_seed=7)
        save_model(fit_tarp(Dataset(X[:n], y[:n]), configs), workdir / "model.tarp")
        write_csv(Dataset(X[n:], y[n:]), workdir / "new.csv")
        if not response:
            lines = (workdir / "new.csv").read_text().splitlines()
            (workdir / "new.csv").write_text(
                "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
        grown = []
        predict = tarp.cli.predict_tarp

        def traced(model, X_new, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return predict(model, X_new, **kwargs)
            finally:
                grown.append((tracemalloc.get_traced_memory()[1] - start, X_new.nbytes))

        monkeypatch.setattr(tarp.cli, "predict_tarp", traced)
        tracemalloc.start()
        try:
            assert run("predict", "--model", "model.tarp", "--data", "new.csv",
                       "--out", "pred.csv") == 0
        finally:
            tracemalloc.stop()
        [(growth, rows)] = grown
        assert rows == k * p * 8
        assert growth < rows


class TestBaseline:
    # --variant plain_rp_baseline names ris_rp at delta 0, which screens nothing
    BENCH = ("bench", "--scheme", "I", "--n", "40", "--test-size", "10",
             "--p", "60", "--replicates", "2", "--ensemble-size", "3", "--seed", "6")

    def test_fit_is_ris_rp_at_delta_zero(self, workdir):
        run("simulate", "--scheme", "I", "--n", "60", "--p", "80", "--seed", "3",
            "--out", "data.csv")
        for name, flags in (
            ("baseline", ["--variant", "plain_rp_baseline"]),
            ("baseline_delta0", ["--variant", "plain_rp_baseline", "--delta", "0"]),
            ("delta0", ["--delta", "0"]),
        ):
            assert run("fit", "--data", "data.csv", "--replicates", "4", *flags,
                       "--out", f"{name}.json") == 0
            assert run("predict", "--model", f"{name}.json", "--data", "data.csv",
                       "--out", f"{name}.csv") == 0
        doc = as_doc((workdir / "baseline.json").read_bytes())
        assert doc["delta"] == 0.0
        for rep in doc["replicates"]:
            assert rep["projection"]["variant"] == "ris_rp"
        assert doc["extra"]["options"]["variant"] == "plain_rp_baseline"
        assert doc["extra"]["options"]["delta"] == 0.0
        model, _ = load_model("baseline.json")
        assert all(rep.projection.p_gamma == 80 for rep in model.replicates)
        expected = (workdir / "delta0.csv").read_bytes()
        assert (workdir / "baseline.csv").read_bytes() == expected
        assert (workdir / "baseline_delta0.csv").read_bytes() == expected

    def test_bench_keeps_the_method_name(self, workdir):
        assert run(*self.BENCH, "--variant", "plain_rp_baseline",
                   "--out-prefix", "baseline") == 0
        assert run(*self.BENCH, "--delta", "0", "--out-prefix", "delta0") == 0
        assert (workdir / "baseline_metrics.csv").read_bytes() == (
            workdir / "delta0_metrics.csv").read_bytes()
        long_lines = (workdir / "baseline_long.csv").read_text().splitlines()
        assert all(",plain_rp_baseline," in line for line in long_lines[1:])

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["fit", "bench"])
    def test_other_delta_is_usage_error(self, workdir, capsys, command, source):
        # the baseline's delta is 0; any other value used to be ignored, and
        # recorded in the model's options as if it had been used
        args = {
            "fit": ("fit", "--data", "missing.csv", "--out", "model.json"),
            "bench": (*self.BENCH, "--out-prefix", "b"),
        }[command]
        if source == "flag":
            options = ("--variant", "plain_rp_baseline", "--delta", "1.5")
        else:
            (workdir / "cfg.txt").write_text("variant = plain_rp_baseline\ndelta = 1.5\n")
            options = ("--config", "cfg.txt")
        assert run(*args, *options) == 1
        assert capsys.readouterr().err == (
            "error: --delta 1.5 cannot be used with --variant plain_rp_baseline, "
            "which is ris_rp at delta 0\n"
        )
        assert {path.name for path in workdir.iterdir()} <= {"cfg.txt"}


class TestPredictColumns:
    """How ``tarp predict`` lines up a CSV's columns with the model's."""

    @pytest.fixture()
    def fitted(self, workdir):
        # x1..x6 plus y; the model is trained on x1..x6 with target y
        run("simulate", "--scheme", "III", "--n", "30", "--p", "6",
            "--seed", "2", "--out", "data.csv")
        assert run("fit", "--data", "data.csv", "--replicates", "3",
                   "--out", "model.json") == 0
        header, *body = (workdir / "data.csv").read_text().splitlines()
        names = header.split(",")[:-1]
        cells = [line.split(",")[:-1] for line in body]
        return names, cells

    @staticmethod
    def write(path, names, cells, order, fill="0.5"):
        # order lists, per output column, a name index or a stray name, whose
        # cells all hold fill
        lines = [",".join(names[j] if isinstance(j, int) else j for j in order)]
        lines += [",".join(row[j] if isinstance(j, int) else fill for j in order)
                  for row in cells]
        path.write_text("\n".join(lines) + "\n")

    def predict(self, path, out):
        return run("predict", "--model", "model.json", "--data", str(path),
                   "--out", out)

    @pytest.mark.parametrize("position", [0, 3, 6], ids=["first", "middle", "last"])
    def test_one_stray_column_is_dropped(self, workdir, fitted, position):
        names, cells = fitted
        self.write(workdir / "exact.csv", names, cells, range(6))
        order = list(range(6))
        order.insert(position, "stray")
        self.write(workdir / "stray.csv", names, cells, order)
        assert self.predict(workdir / "exact.csv", "exact_pred.csv") == 0
        assert self.predict(workdir / "stray.csv", "stray_pred.csv") == 0
        assert (workdir / "stray_pred.csv").read_bytes() == (
            workdir / "exact_pred.csv").read_bytes()

    @pytest.mark.parametrize("parser", ["c_parser", "scan"])
    @pytest.mark.parametrize("fill", ["", "nan", "NA"], ids=["blank", "nan", "NA"])
    def test_response_column_is_not_parsed(self, workdir, fitted, fill, parser):
        # the help says a stray response column is dropped: so its cells
        # need not be numbers. A whitespace-only line sends the file to the
        # per-cell scan, which must skip them too
        names, cells = fitted
        self.write(workdir / "exact.csv", names, cells, range(6))
        self.write(workdir / "blank.csv", names, cells, [*range(6), "y"], fill)
        if parser == "scan":
            lines = (workdir / "blank.csv").read_text().splitlines()
            lines.insert(2, "   ")
            (workdir / "blank.csv").write_text("\n".join(lines) + "\n")
        assert self.predict(workdir / "exact.csv", "exact_pred.csv") == 0
        assert self.predict(workdir / "blank.csv", "blank_pred.csv") == 0
        assert (workdir / "blank_pred.csv").read_bytes() == (
            workdir / "exact_pred.csv").read_bytes()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda row: row + ",1.0", "row 3 has 8 cells, expected 7"),
            (lambda row: row.rsplit(",", 1)[0], "row 3 has 6 cells, expected 7"),
            (lambda row: "x," + row.split(",", 1)[1], "row 3, column 'x1': cannot parse"),
        ],
        ids=["long_row", "short_row", "bad_design_cell"],
    )
    def test_bad_row_beside_a_blank_response_is_data_error(
        self, workdir, capsys, fitted, edit, message
    ):
        names, cells = fitted
        self.write(workdir / "new.csv", names, cells, [*range(6), "y"], "")
        lines = (workdir / "new.csv").read_text().splitlines()
        lines[2] = edit(lines[2])
        (workdir / "new.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self.predict(workdir / "new.csv", "pred.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {workdir / 'new.csv'}: {message}")
        assert err.count("\n") == 1
        assert not (workdir / "pred.csv").exists()

    @pytest.mark.parametrize(
        "order",
        [[1, 0, 2, 3, 4, 5], [0, 1, 2, 3, 4], [0, 1, "a", 2, 3, 4, 5, "b"]],
        ids=["reordered", "missing", "two_stray"],
    )
    def test_mismatch_is_data_error(self, workdir, capsys, fitted, order):
        names, cells = fitted
        self.write(workdir / "new.csv", names, cells, order)
        capsys.readouterr()
        assert self.predict(workdir / "new.csv", "pred.csv") == 2
        assert capsys.readouterr().err == (
            f"error: {workdir / 'new.csv'}: columns do not match the model's "
            f"training columns ({len(order)} given, 6 expected)\n"
        )
        assert not (workdir / "pred.csv").exists()

    @pytest.mark.parametrize("parser", ["c_parser", "scan"])
    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_repeated_name_is_data_error(self, workdir, capsys, fitted, command, parser):
        # a fit once took the first y as its response and kept the second, a
        # copy of the response, as a predictor; predict matches columns by
        # name. Both parsers read one header, so both refuse it
        names, cells = fitted
        path = workdir / "twice.csv"
        if command == "fit":
            repeated, out = "y", "twice.tarp"
            self.write(path, names, cells, [*range(6), "y", "y"])
            argv = ["fit", "--data", str(path), "--target", "y", "--out", out]
        else:
            repeated, out = names[2], "twice_pred.csv"
            self.write(path, names, cells, [*range(6), 2])
            argv = ["predict", "--model", "model.json", "--data", str(path), "--out", out]
        if parser == "scan":
            lines = path.read_text().splitlines()
            lines.insert(2, "   ")
            path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: column {repeated!r} appears twice in the header\n"
        )
        assert not (workdir / out).exists()

    def test_wide_header_matches_in_linear_time(self, monkeypatch):
        expected = [f"x{j}" for j in range(30_000)]
        names = expected[:15_000] + ["stray"] + expected[15_000:]
        dropped = []

        def load_table(path, drop):
            dropped.append(drop(names))
            return expected, np.arange(30_000.0)[None, :]

        monkeypatch.setattr(tarp.cli, "load_table", load_table)
        model = SimpleNamespace(column_names=expected)
        started = time.perf_counter()
        tarp.cli._load_design_for_model("wide.csv", model)
        assert time.perf_counter() - started < 2.0
        assert dropped == [15_000]


class TestBench:
    def test_outputs_and_summary(self, workdir):
        code = run(
            "bench", "--scheme", "I", "--n", "50", "--test-size", "20",
            "--p", "60", "--replicates", "3", "--ensemble-size", "4",
            "--seed", "2", "--out-prefix", "b",
        )
        assert code == 0
        lines = (workdir / "b_metrics.csv").read_text().splitlines()
        assert lines[0] == "replicate,mspe,ecp,width"
        assert len(lines) == 1 + 3 + 2  # header, replicates, mean, sd
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("sd,")
        long_lines = (workdir / "b_long.csv").read_text().splitlines()
        assert long_lines[0] == "replicate,method,metric,value"
        assert len(long_lines) == 1 + 3 * 3
        assert all(",ris_rp," in line for line in long_lines[1:])
        meta = json.loads((workdir / "b_meta.json").read_text())
        assert meta["options"]["seed"] == 2
        assert meta["threads"] == 1

    def test_thread_count_does_not_change_metrics(self, workdir):
        args = ["bench", "--scheme", "I", "--n", "50", "--test-size", "20",
                "--p", "60", "--replicates", "3", "--ensemble-size", "4",
                "--seed", "2"]
        run(*args, "--threads", "1", "--out-prefix", "t1")
        run(*args, "--threads", "4", "--out-prefix", "t4")
        assert (workdir / "t1_metrics.csv").read_bytes() == (
            workdir / "t4_metrics.csv"
        ).read_bytes()

    def test_pool_capped_at_replicate_count(self, workdir, record_pool):
        sizes = record_pool(tarp.ensemble)
        assert run("bench", "--scheme", "I", "--n", "40", "--test-size", "10",
                   "--p", "40", "--replicates", "3", "--ensemble-size", "2",
                   "--threads", "8", "--out-prefix", "cap") == 0
        assert sizes == [3]
        meta = json.loads((workdir / "cap_meta.json").read_text())
        assert meta["threads"] == 8  # the resolved option is still recorded

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_failing_experiment_is_named(self, workdir, capsys, monkeypatch, threads):
        # experiment 1 of 3 fails to converge: exit 3, one line naming it
        failing_seed = tarp.cli._derive_seed(5, 1, 1)

        def fit_or_fail(train, configs, delta, master_seed, threads):
            if master_seed == failing_seed:
                raise ConvergenceError("no mode")
            return fit_tarp(train, configs, delta=delta, master_seed=master_seed,
                            threads=threads)

        monkeypatch.setattr(tarp.cli, "fit_tarp", fit_or_fail)
        assert run("bench", "--scheme", "I", "--n", "40", "--test-size", "10",
                   "--p", "40", "--replicates", "3", "--ensemble-size", "2",
                   "--seed", "5", "--threads", threads, "--out-prefix", "f") == 3
        assert capsys.readouterr().err == "error: replicate 1: no mode\n"
        assert not list(workdir.iterdir())

    def test_empty_ensemble_rejected_before_any_experiment(
        self, workdir, capsys, monkeypatch
    ):
        def no_data(spec):
            raise AssertionError("an experiment ran")

        monkeypatch.setattr(tarp.cli, "generate", no_data)
        assert run("bench", "--scheme", "I", "--n", "40", "--test-size", "10",
                   "--p", "40", "--replicates", "2", "--ensemble-size", "0") == 1
        assert capsys.readouterr().err == (
            "error: argument --ensemble-size: must be >= 1, got 0\n"
        )

    def test_overflowing_noise_sd_is_usage_error(self, workdir, capsys):
        # finite, so the flag takes it; the first experiment's draw fails
        assert run("bench", "--scheme", "I", "--n", "30", "--test-size", "5",
                   "--p", "40", "--replicates", "1", "--ensemble-size", "2",
                   "--noise-sd", "1e308") == 1
        assert capsys.readouterr().err == (
            "error: replicate 0: noise_sd=1e+308 overflows the simulated response\n"
        )
        assert not list(workdir.iterdir())

    def test_smallest_valid_options_run(self, workdir):
        # every bound above is attainable: two rows per split, level near 1
        assert run("bench", "--scheme", "III", "--n", "2", "--test-size", "2",
                   "--p", "3", "--replicates", "1", "--ensemble-size", "1",
                   "--noise-sd", "0", "--delta", "0", "--level", "0.999",
                   "--out-prefix", "tiny") == 0

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], default_delta(40, 60)),
            (["--variant", "ris_pcr"], default_delta(40, 60)),
            (["--variant", "plain_rp_baseline"], 0.0),
            (["--delta", "1.25"], 1.25),
        ],
        ids=["default", "ris_pcr", "baseline", "given"],
    )
    def test_meta_records_the_delta_its_grids_used(
        self, workdir, monkeypatch, flags, expected
    ):
        # an unset --delta is default_delta(n, p) of the training rows
        fit_deltas = []

        def recorded(*args, **kwargs):
            model = fit_tarp(*args, **kwargs)
            fit_deltas.append(model.delta)
            return model

        monkeypatch.setattr(tarp.cli, "fit_tarp", recorded)
        assert run("bench", "--scheme", "I", "--n", "40", "--test-size", "10",
                   "--p", "60", "--replicates", "2", "--ensemble-size", "3",
                   *flags, "--out-prefix", "b") == 0
        meta = json.loads((workdir / "b_meta.json").read_text())
        assert meta["options"]["delta"] == expected
        assert fit_deltas == [expected] * 2


# each required option, a value for it, and the rest of a command line that
# then runs with exit 0
_REQUIRED_OPTIONS = [
    ("simulate", "scheme", "I", ["--n", "30", "--p", "40", "--out", "data.csv"]),
    ("fit", "data", str(DATA / "continuous.csv"), ["--replicates", "2"]),
    ("predict", "model", str(DATA / "v8_continuous.tarp"),
     ["--data", str(DATA / "continuous.csv")]),
    ("predict", "data", str(DATA / "continuous.csv"),
     ["--model", str(DATA / "v8_continuous.tarp")]),
    ("bench", "scheme", "I", ["--n", "30", "--test-size", "5", "--p", "40",
                              "--replicates", "1", "--ensemble-size", "2"]),
]


class TestRequiredOptions:
    @pytest.mark.parametrize(
        "command, name, value, rest", _REQUIRED_OPTIONS,
        ids=[f"{command}--{name}" for command, name, _, _ in _REQUIRED_OPTIONS],
    )
    def test_missing_is_one_line_and_config_supplies_it(
        self, workdir, capsys, command, name, value, rest
    ):
        assert run(command, *rest) == 1
        assert capsys.readouterr().err == f"error: {command} requires --{name}\n"
        assert not list(workdir.iterdir())
        (workdir / "cfg.txt").write_text(f"{name} = {value}\n")
        assert run(command, *rest, "--config", "cfg.txt") == 0

    def test_checked_in_declaration_order(self, workdir, capsys):
        assert run("predict") == 1
        assert capsys.readouterr().err == "error: predict requires --model\n"


class TestConfigPrecedence:
    def test_flags_beat_config_beats_defaults(self, workdir):
        (workdir / "cfg.txt").write_text("p = 30\nn = 40\nseed = 9\n")
        run("simulate", "--scheme", "I", "--config", "cfg.txt",
            "--n", "50", "--out", "data.csv")
        ds = load_csv("data.csv", "y")
        assert ds.n == 50  # flag wins
        assert ds.p == 30  # config wins over default 2000
        truth = json.loads((workdir / "data_truth.json").read_text())
        assert truth["options"]["seed"] == 9

    def test_bad_config_line_is_usage_error(self, workdir, capsys):
        (workdir / "cfg.txt").write_text("this is not a pair\n")
        assert run("simulate", "--scheme", "I", "--config", "cfg.txt") == 1

    def test_unknown_config_key_is_usage_error(self, workdir, capsys):
        (workdir / "cfg.txt").write_text("# tuning\np = 35\nreplicatez = 5\n")
        assert run("simulate", "--scheme", "I", "--config", "cfg.txt",
                   "--out", "d.csv") == 1
        err = capsys.readouterr().err
        assert err == "error: cfg.txt:3: unknown option 'replicatez'\n"
        assert not (workdir / "d.csv").exists()

    def test_option_of_another_command_is_unknown(self, workdir, capsys):
        # `level` is a predict option, not a simulate one
        (workdir / "cfg.txt").write_text("level = 0.8\n")
        assert run("simulate", "--scheme", "I", "--config", "cfg.txt") == 1
        assert "cfg.txt:1: unknown option 'level'" in capsys.readouterr().err

    def test_byte_order_mark_is_ignored(self, workdir):
        config = "n = 40\n# tuning\np = 35\nseed = 4\n"
        (workdir / "plain.txt").write_text(config, encoding="utf-8")
        (workdir / "bom.txt").write_text(config, encoding="utf-8-sig")
        assert (workdir / "bom.txt").read_bytes().startswith(b"\xef\xbb\xbf")
        outputs = []
        for name in ("plain", "bom"):
            assert run("simulate", "--scheme", "I", "--config", f"{name}.txt",
                       "--out", "d.csv") == 0
            outputs.append([(workdir / f).read_bytes() for f in ("d.csv", "d_truth.json")])
        assert outputs[0] == outputs[1]
        assert load_csv("d.csv", "y").p == 35

    def test_comments_and_blanks_ignored(self, workdir):
        (workdir / "cfg.txt").write_text("# comment\n\np = 35\n")
        run("simulate", "--scheme", "I", "--config", "cfg.txt",
            "--n", "40", "--out", "d.csv")
        assert load_csv("d.csv", "y").p == 35

    def test_bad_config_choice_fails_before_the_data_file(self, workdir, capsys):
        # the value goes through the --variant flag's own choice check, so a
        # missing data file is never opened
        (workdir / "cfg.txt").write_text("variant = bogus\n")
        assert run("fit", "--data", "missing.csv", "--config", "cfg.txt") == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: cfg.txt:1: argument --variant: invalid choice: 'bogus'"
        )
        assert err.count("\n") == 1

    def test_bad_config_number_names_its_line(self, workdir, capsys):
        (workdir / "cfg.txt").write_text("# sizes\nn = abc\n")
        assert run("simulate", "--scheme", "I", "--config", "cfg.txt") == 1
        assert capsys.readouterr().err == (
            "error: cfg.txt:2: argument --n: invalid int value: 'abc'\n"
        )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_each_option_resolves_flag_then_config_then_default(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            values = {
                "scheme": st.sampled_from(["I", "III", "IV"]),
                "n": st.integers(2, 20),
                "p": st.integers(30, 40),
                "noise_sd": st.floats(0.0, 10.0),
                "seed": st.integers(0, 2**32),
                "out": st.sampled_from([os.path.join(tmp, f"{s}.csv") for s in "ab"]),
                "truth_out": st.just(os.path.join(tmp, "truth.json")),
            }
            expected = {"noise_sd": 1.0, "seed": 0, "truth_out": None}
            flags, lines = ["simulate"], []
            for key, strategy in values.items():
                in_config = data.draw(st.booleans(), label=f"{key} in config")
                in_flags = data.draw(st.booleans(), label=f"{key} as flag")
                if key not in expected:  # no usable default: give it somewhere
                    in_flags = in_flags or not in_config
                if in_config:
                    expected[key] = data.draw(strategy, label=f"config {key}")
                    lines.append(f"{key} = {expected[key]}")
                if in_flags:
                    expected[key] = data.draw(strategy, label=f"flag {key}")
                    flags += [f"--{key.replace('_', '-')}", str(expected[key])]
            config = os.path.join(tmp, "cfg.txt")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            assert main(flags + ["--config", config]) == 0
            truth_out = expected["truth_out"] or expected["out"][:-4] + "_truth.json"
            with open(truth_out, encoding="utf-8") as fh:
                assert json.load(fh)["options"] == expected


# each flag that several commands take, those commands, and a valid value
# other than its default
_SHARED_FLAGS = {
    "--scheme": (("simulate", "bench"), "III"),
    "--p": (("simulate", "bench"), "37"),
    "--noise-sd": (("simulate", "bench"), "0.25"),
    "--variant": (("fit", "bench"), "ris_pcr"),
    "--delta": (("fit", "bench"), "0.5"),
    "--seed": (("simulate", "fit", "bench"), "12"),
    "--threads": (("fit", "bench"), "3"),
    "--level": (("predict", "bench"), "0.8"),
}

# the options each command requires, given as text; the handler never runs
_REQUIRED_TEXT = {
    "simulate": {"scheme": "I"},
    "fit": {"data": "data.csv"},
    "predict": {"model": "model.tarp", "data": "data.csv"},
    "bench": {"scheme": "I"},
}


class TestSharedFlags:
    @pytest.mark.parametrize("flag", sorted(_SHARED_FLAGS))
    def test_one_declaration_for_every_command(self, flag):
        commands, text = _SHARED_FLAGS[flag]
        _, parsers = tarp.cli._build_parser()
        takers = [name for name, parser in parsers.items()
                  if flag in parser._option_string_actions]
        assert takers == list(commands)
        actions = [parsers[name]._option_string_actions[flag] for name in commands]
        for action in actions[1:]:
            assert (action.type, action.default, action.choices, action.help) == (
                actions[0].type, actions[0].default, actions[0].choices,
                actions[0].help)
        dest = actions[0].dest
        values = [getattr(parsers[name].parse_args([flag, text]), dest)
                  for name in commands]
        assert values == [values[0]] * len(commands)
        assert values[0] != actions[0].default

    @pytest.mark.parametrize(
        "flag, command",
        [(flag, command) for flag, (commands, _) in sorted(_SHARED_FLAGS.items())
         for command in commands],
    )
    def test_config_line_gives_the_flags_options(
        self, workdir, monkeypatch, flag, command
    ):
        seen = []

        def capture(options, outputs):
            seen.append(options)
            return 0

        monkeypatch.setitem(tarp.cli._COMMANDS, command,
                            tarp.cli._COMMANDS[command]._replace(run=capture))
        key = flag[2:].replace("-", "_")
        text = _SHARED_FLAGS[flag][1]
        required = [arg for name, value in _REQUIRED_TEXT[command].items()
                    if name != key for arg in (f"--{name}", value)]
        (workdir / "cfg.txt").write_text(f"{key} = {text}\n")
        assert run(command, *required, flag, text) == 0
        assert run(command, *required, "--config", "cfg.txt") == 0
        assert seen[0] == seen[1]


# a data or model file that does not exist: exit 1, not 2, shows that the
# bad option was rejected before any file was read
_VALID_ARGV = {
    "simulate": ["simulate", "--scheme", "I", "--n", "30", "--p", "40"],
    "fit": ["fit", "--data", "missing.csv"],
    "predict": ["predict", "--model", "missing.json", "--data", "missing.csv"],
    "bench": ["bench", "--scheme", "I", "--n", "40", "--test-size", "10", "--p", "40",
              "--replicates", "2", "--ensemble-size", "2"],
}


def _dataset(n, p):
    # an n x p Dataset, whose constructor checks both sizes
    return Dataset(np.zeros((max(n, 0), max(p, 0))), np.zeros(max(n, 0)))


def _pool(threads):
    ThreadPoolExecutor(max_workers=threads).shutdown()


@functools.cache
def _model(kind):
    return load_model(DATA / f"v8_{kind}.tarp")[0]


def _check_level(level):
    # a whole predict of each response kind: a binary model reads only
    # predict_tarp's level check, a continuous one also takes the mixture
    # quantiles at both tail probabilities (1 -+ level) / 2, which fail
    # if the check lets in a level whose upper tail rounds to 1
    for kind in ("binary", "continuous"):
        model = _model(kind)
        predict_tarp(model, np.zeros((1, model.p)), level=level)


_INTS = st.integers(-3, 4)
_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300,
     math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1e308, -1e308]
) | st.floats()

# each numeric flag, its values, and the library check whose range it
# mirrors (a rejection is a ValueError; DataError is one)
_LIBRARY_CHECKS = [
    ("simulate", "--n", _INTS, lambda v: SchemeSpec("III", n=v, p=3)),
    ("simulate", "--p", _INTS, lambda v: _dataset(2, v)),
    ("simulate", "--noise-sd", _FLOATS, lambda v: SchemeSpec("III", n=2, p=3, noise_sd=v)),
    ("simulate", "--seed", _INTS, np.random.SeedSequence),
    ("fit", "--replicates", _INTS, lambda v: sample_config_grid(10, 10, v)),
    ("fit", "--delta", _FLOATS, check_delta),
    ("fit", "--a-sigma", _FLOATS, lambda v: positive_finite(v, "a_sigma")),
    ("fit", "--b-sigma", _FLOATS, lambda v: positive_finite(v, "b_sigma")),
    ("fit", "--sigma-theta2", _FLOATS, lambda v: positive_finite(v, "sigma_theta2")),
    ("fit", "--seed", _INTS, np.random.SeedSequence),
    ("fit", "--threads", _INTS, _pool),
    ("predict", "--level", _FLOATS, _check_level),
    ("bench", "--n", _INTS, lambda v: _dataset(v, 1)),
    ("bench", "--test-size", _INTS, lambda v: _dataset(v, 1)),
    ("bench", "--p", _INTS, lambda v: _dataset(2, v)),
    ("bench", "--replicates", _INTS, lambda v: sample_config_grid(10, 10, v)),
    ("bench", "--ensemble-size", _INTS, lambda v: sample_config_grid(10, 10, v)),
    ("bench", "--delta", _FLOATS, check_delta),
    ("bench", "--noise-sd", _FLOATS, lambda v: SchemeSpec("III", n=2, p=3, noise_sd=v)),
    ("bench", "--level", _FLOATS, _check_level),
    ("bench", "--seed", _INTS, np.random.SeedSequence),
    ("bench", "--threads", _INTS, _pool),
]


class TestOptionRanges:
    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("simulate", "--n", "1", "argument --n: must be >= 2, got 1"),
            ("simulate", "--p", "0", "argument --p: must be >= 1, got 0"),
            ("simulate", "--noise-sd", "-0.5",
             "argument --noise-sd: must be finite and >= 0, got -0.5"),
            ("simulate", "--seed", "-1", "argument --seed: must be >= 0, got -1"),
            # in range for the flag, but more than scheme I can hold
            ("simulate", "--p", "20",
             "simulate --p: scheme I needs p >= 30 for its 30 active covariates"),
            ("fit", "--replicates", "0", "argument --replicates: must be >= 1, got 0"),
            ("fit", "--delta", "-1", "argument --delta: must be finite and >= 0, got -1"),
            ("fit", "--a-sigma", "-1",
             "argument --a-sigma: must be a positive finite number, got -1"),
            ("fit", "--b-sigma", "0",
             "argument --b-sigma: must be a positive finite number, got 0"),
            ("fit", "--sigma-theta2", "inf",
             "argument --sigma-theta2: must be a positive finite number, got inf"),
            ("fit", "--seed", "-1", "argument --seed: must be >= 0, got -1"),
            ("fit", "--threads", "0", "argument --threads: must be >= 1, got 0"),
            ("predict", "--level", "7",
             "argument --level: must be in (0, 0.9999999999999998], got 7"),
            ("predict", "--level", "0",
             "argument --level: must be in (0, 0.9999999999999998], got 0"),
            # below 1, but (1 + level) / 2 rounds to 1
            ("predict", "--level", "0.9999999999999999",
             "argument --level: must be in (0, 0.9999999999999998], "
             "got 0.9999999999999999"),
            ("bench", "--n", "1", "argument --n: must be >= 2, got 1"),
            ("bench", "--test-size", "1", "argument --test-size: must be >= 2, got 1"),
            ("bench", "--p", "0", "argument --p: must be >= 1, got 0"),
            ("bench", "--replicates", "0", "argument --replicates: must be >= 1, got 0"),
            ("bench", "--ensemble-size", "0",
             "argument --ensemble-size: must be >= 1, got 0"),
            ("bench", "--noise-sd", "-0.5",
             "argument --noise-sd: must be finite and >= 0, got -0.5"),
            ("bench", "--noise-sd", "inf",
             "argument --noise-sd: must be finite and >= 0, got inf"),
            ("bench", "--delta", "-1", "argument --delta: must be finite and >= 0, got -1"),
            ("bench", "--delta", "nan",
             "argument --delta: must be finite and >= 0, got nan"),
            ("bench", "--delta", "inf",
             "argument --delta: must be finite and >= 0, got inf"),
            ("bench", "--level", "0",
             "argument --level: must be in (0, 0.9999999999999998], got 0"),
            ("bench", "--level", "1.5",
             "argument --level: must be in (0, 0.9999999999999998], got 1.5"),
            ("bench", "--level", "0.9999999999999999",
             "argument --level: must be in (0, 0.9999999999999998], "
             "got 0.9999999999999999"),
            ("bench", "--seed", "-1", "argument --seed: must be >= 0, got -1"),
            ("bench", "--threads", "0", "argument --threads: must be >= 1, got 0"),
            # in range for the flag, but more than scheme I can hold
            ("bench", "--p", "20",
             "bench --p: scheme I needs p >= 30 for its 30 active covariates"),
            # a bare key is a config-file line, which names its file and line
            ("predict", "level", "7",
             "cfg.txt:1: argument --level: must be in (0, 0.9999999999999998], got 7"),
        ],
    )
    def test_bad_option_rejected_before_any_file_or_experiment(
        self, workdir, capsys, monkeypatch, command, flag, value, message
    ):
        def no_experiment(spec):
            raise AssertionError("data were drawn")

        monkeypatch.setattr(tarp.cli, "generate", no_experiment)
        argv = list(_VALID_ARGV[command])
        if flag.startswith("--"):
            argv += [flag, value]
        else:
            (workdir / "cfg.txt").write_text(f"{flag} = {value}\n")
            argv += ["--config", "cfg.txt"]
        before = set(workdir.iterdir())
        assert run(*argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert set(workdir.iterdir()) == before

    @pytest.mark.parametrize(
        "command, flag, values, check", _LIBRARY_CHECKS,
        ids=[f"{command}{flag}" for command, flag, _, _ in _LIBRARY_CHECKS],
    )
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_flag_takes_what_its_library_check_takes(
        self, command, flag, values, check, data
    ):
        # the flag repeats a library range so that it can run before any
        # file is read; the two must agree on every value
        value = data.draw(values, label="value")
        try:
            check(value)
            library_takes = True
        except ValueError:
            library_takes = False
        parser = tarp.cli._build_parser()[1][command]
        try:
            parsed = parser.parse_args([f"{flag}={value!r}"])
        except tarp.cli._UsageError:
            assert not library_takes
        else:
            assert library_takes
            assert getattr(parsed, flag[2:].replace("-", "_")) == value


def _run_quietly(argv):
    """``main(argv)`` and the lines it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


# a prior flag's value: unset, or up to ~1e300. Every such a and b keep the
# predictive t usable: its df n + 2a is finite, and its noise scale
# (r + 2b) / (n + 2a) lies in [~1e-303, ~1e300]
_PRIORS = st.none() | st.sampled_from([1e-3, 1e150, 1e300]) | st.floats(1e-3, 1e300)


class TestFitPredictProperty:
    # random valid fit options on tiny data, each model predicting its own
    # training file (the CLI part of ROADMAP item 4)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_fit_predicts_its_own_training_file(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        p = data.draw(st.integers(1, 5), label="p")  # m_range(n, p) clamps to 1
        response = data.draw(st.sampled_from(["continuous", "binary", "separable"]),
                             label="response")
        binary = response != "continuous"
        priors = {flag: data.draw(_PRIORS, label=flag)
                  for flag in ("--a-sigma", "--b-sigma", "--sigma-theta2")}
        cells = data.draw(st.sampled_from(["normal", "integers"]), label="cells")
        variant = data.draw(st.sampled_from(tarp.cli.CLI_VARIANTS), label="variant")
        delta = data.draw(st.sampled_from([None, 0.0, 1e300]), label="delta")
        replicates = data.draw(st.integers(1, 4), label="replicates")
        level = data.draw(st.one_of(st.floats(5e-324, 1e-6),
                                    st.floats(1 - 1e-6, 0.9999999999999998)),
                          label="level")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        rng = np.random.default_rng(seed)
        # small integers give constant and duplicated columns and rows
        X = (rng.standard_normal((n, p)) if cells == "normal"
             else rng.integers(-1, 2, (n, p)).astype(float))
        y = rng.integers(0, 2, n).astype(float) if binary else rng.standard_normal(n)
        if response == "separable":
            # every row twice, labelled by the sign of its first cell
            X = np.repeat(X[: (n + 1) // 2], 2, axis=0)[:n]
            y = (X[:, 0] > 0).astype(float)
        with tempfile.TemporaryDirectory() as tmp:
            train, model, preds = (os.path.join(tmp, name)
                                   for name in ("train.csv", "model.tarp", "preds.csv"))
            write_csv(Dataset(X, y, response_kind="binary" if binary else "continuous"),
                      train, target="y")
            argv = ["fit", "--data", train, "--variant", variant,
                    "--replicates", str(replicates), "--seed", str(seed), "--out", model]
            if delta is not None:
                argv += ["--delta", repr(delta)]
            for flag, value in priors.items():
                if value is not None:
                    argv += [flag, repr(value)]
            code, err = _run_quietly(argv)
            errors = [line for line in err if not line.startswith("warning: ")]
            if variant == tarp.cli.PLAIN_RP_BASELINE and delta not in (None, 0):
                assert code == 1 and len(errors) == 1 and "cannot be used" in errors[0]
                return
            if code != 0:  # a data error or a numerical failure, in one line
                assert code in (2, 3) and len(errors) == 1
                assert errors[0].startswith("error: ") and not os.path.exists(model)
                return
            assert errors == []
            _, extra = load_model(model)
            if variant == tarp.cli.PLAIN_RP_BASELINE:
                expected = 0.0
            else:
                expected = default_delta(n, p) if delta is None else delta
            assert extra["options"]["delta"] == expected
            code, err = _run_quietly(["predict", "--model", model, "--data", train,
                                      "--level", repr(level), "--out", preds])
            assert (code, err) == (0, [])
            rows = np.loadtxt(preds, delimiter=",", skiprows=1, ndmin=2)
            assert rows.shape == (n, 1 if binary else 3)
            assert np.isfinite(rows).all()


# a new row: ordinary cells, a few of them replaced by any finite value up to
# the float64 limit
_ORDINARY = st.lists(st.floats(-10.0, 10.0), min_size=20, max_size=20)
_LARGE = st.floats(-1.7976931348623157e308, 1.7976931348623157e308) | (
    st.sampled_from([1e154, 1e200, 1e300, 1e308, 1.7976931348623157e308])
    .flatmap(lambda v: st.sampled_from([v, -v])))
_EDITS = st.lists(st.tuples(st.integers(0, 19), _LARGE), max_size=3)
_TOO_LARGE = re.compile(
    r"error: new row (\d+) is too large: its (standardized values|logits|"
    r"predictive location or scale) overflow")


class TestNewRowsProperty:
    # random new rows against the committed models, which predict
    # standardizes in place (ROADMAP item 4): every outcome is exit 0 with
    # finite outputs, or exit 2 in one line naming a row that holds a cell
    # beyond the ordinary range
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_new_rows_predict_or_name_a_row(self, data):
        fixture = data.draw(st.sampled_from(["v8_continuous", "v8_binary"]), label="model")
        k = data.draw(st.integers(1, 4), label="rows")
        rows = []
        for i in range(k):
            row = data.draw(_ORDINARY, label=f"row {i + 1}")
            for j, value in data.draw(_EDITS, label=f"edits {i + 1}"):
                row[j] = value
            rows.append(row)
        response = data.draw(st.booleans(), label="response")
        names = [f"x{j + 1}" for j in range(20)]
        if response:
            # a stray response column is dropped unparsed
            names.append("y")
            rows = [[*map(repr, row), data.draw(st.sampled_from(["", "1", "1e308"]))]
                    for row in rows]
        else:
            rows = [list(map(repr, row)) for row in rows]
        with tempfile.TemporaryDirectory() as tmp:
            new, preds = os.path.join(tmp, "new.csv"), os.path.join(tmp, "preds.csv")
            with open(new, "w", encoding="utf-8") as fh:
                fh.write("\n".join(",".join(row) for row in [names, *rows]) + "\n")
            code, err = _run_quietly(["predict", "--model", str(DATA / f"{fixture}.tarp"),
                                      "--data", new, "--out", preds])
            if code == 0:
                assert err == []
                values = np.loadtxt(preds, delimiter=",", skiprows=1, ndmin=2)
                assert values.shape == (k, 1 if fixture == "v8_binary" else 3)
                assert np.isfinite(values).all()
                return
            assert code == 2 and len(err) == 1 and not os.path.exists(preds)
            named = _TOO_LARGE.fullmatch(err[0])
            assert named, err[0]
            row = int(named.group(1))
            assert 1 <= row <= k
            assert any(abs(float(cell)) > 10.0 for cell in rows[row - 1][:20])


class TestExitCodes:
    def test_usage_errors(self, workdir):
        assert run("simulate", "--scheme", "Z") == 1  # bad choice
        assert run() == 1  # no subcommand
        assert run("fit") == 1  # missing --data

    def test_data_error(self, workdir):
        assert run("fit", "--data", "missing.csv") == 2

    def test_malformed_csv_is_data_error(self, workdir):
        (workdir / "bad.csv").write_text("a,y\n1,2\nfoo,3\n")
        assert run("fit", "--data", "bad.csv") == 2

    @pytest.mark.parametrize(
        "argv, path, code",
        [
            (["fit", "--data", "bad.csv"], "bad.csv", 2),
            (["predict", "--model", "bad.tarp", "--data", "bad.csv"], "bad.tarp", 2),
            (["simulate", "--scheme", "I", "--config", "cfg.txt"],
             "config file cfg.txt", 1),
        ],
        ids=["data", "model", "config"],
    )
    def test_non_utf8_file_is_named(self, workdir, capsys, argv, path, code):
        (workdir / "bad.csv").write_bytes(b"x1,y\n1.0,2.0\n\xff\xfe,3\n4,5\n")
        # a signed model file whose document line is not UTF-8
        (workdir / "bad.tarp").write_bytes(signed(b"{\xff}\n"))
        (workdir / "cfg.txt").write_bytes(b"n = 5\n\xff\n")
        assert run(*argv) == code
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text (byte 0xff: invalid start byte)\n"
        )

    def test_numeric_error_classification(self):
        from tarp.cli import EXIT_NUMERIC, _classify_error
        from tarp.ensemble import ReplicateError
        from tarp.posterior import ConvergenceError

        assert _classify_error(ConvergenceError("x"), "fit") == EXIT_NUMERIC
        replicate = ReplicateError(3, ConvergenceError("x"))
        assert _classify_error(replicate, "bench") == EXIT_NUMERIC
        assert _classify_error(np.linalg.LinAlgError("x"), "predict") == EXIT_NUMERIC

    @pytest.mark.parametrize("bare", [False, True], ids=["numpy", "bare"])
    @pytest.mark.parametrize(
        "argv, where, code, prefix",
        [
            (["simulate", "--scheme", "I", "--n", "30", "--p", "40", "--out", "out.csv"],
             "generate", 1, ""),
            (["bench", "--scheme", "I", "--n", "30", "--test-size", "10", "--p", "40",
              "--replicates", "1", "--ensemble-size", "2", "--out-prefix", "out"],
             "generate", 1, "replicate 0: "),
            (["fit", "--data", "data.csv", "--out", "out.tarp"], "load_csv", 2, ""),
            (["predict", "--model", "m.tarp", "--data", "data.csv", "--out", "out.csv"],
             "load_model", 2, ""),
        ],
        ids=["simulate", "bench", "fit", "predict"],
    )
    def test_memory_error_is_one_line(
        self, workdir, capsys, monkeypatch, argv, where, code, prefix, bare
    ):
        # a size from the options alone is exit 1, one from a data or model
        # file exit 2; either way one line and no traceback. The allocation
        # fails by patch, never for real
        message = "" if bare else "Unable to allocate 218. TiB for an array"

        def allocate(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(tarp.cli, where, allocate)
        assert run(*argv) == code
        assert capsys.readouterr().err == f"error: {prefix}{message or 'MemoryError'}\n"
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize(
        "flag, value",
        [("--a-sigma", "nan"), ("--b-sigma", "inf"), ("--sigma-theta2", "inf")],
    )
    def test_invalid_prior_fails_at_fit(self, workdir, capsys, binary, flag, value):
        if binary:
            write_binary_csv(workdir / "data.csv")
        else:
            run("simulate", "--scheme", "I", "--n", "30", "--p", "40",
                "--out", "data.csv")
        capsys.readouterr()
        assert run("fit", "--data", "data.csv", "--replicates", "2",
                   flag, value, "--out", "model.json") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {flag}: must be a positive finite number")
        assert err.count("\n") == 1
        assert not (workdir / "model.json").exists()

    @pytest.mark.parametrize(
        "flag, value, quantity, constant_response",
        [("--a-sigma", "1e308", "df", False),
         ("--b-sigma", "1e308", "noise scale", False),
         ("--b-sigma", "5e-324", "noise scale", True)],
        ids=["a_sigma", "b_sigma", "b_sigma_underflow"],
    )
    def test_prior_overflowing_predictive_fails_at_fit(
        self, workdir, capsys, flag, value, quantity, constant_response
    ):
        # finite and > 0, so accepted as a prior, but df = n + 2a or the
        # noise scale (r + 2b) / df overflows, or (r = 0 under a constant
        # response) underflows to 0: predict could not use the model. No
        # replicate is at fault, so the fit fails before any runs
        run("simulate", "--scheme", "I", "--n", "60", "--p", "50",
            "--out", "data.csv")
        if constant_response:
            data = load_csv("data.csv", "y")
            write_csv(Dataset(data.design, np.full(data.n, 3.0)), "data.csv")
        capsys.readouterr()
        assert run("fit", "--data", "data.csv", "--replicates", "4",
                   flag, value, "--out", "model.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: priors ") and err.count("\n") == 1
        assert f"predictive {quantity} of" in err
        assert not (workdir / "model.json").exists()

    def test_df_past_gammaln_overflow_predicts_cleanly(self, workdir, capsys):
        # df = n + 2a = 2e307 is finite, so the model fits; its t density
        # normaliser takes the Gaussian limit instead of inf - inf
        run("simulate", "--scheme", "I", "--n", "60", "--p", "50",
            "--out", "data.csv")
        assert run("fit", "--data", "data.csv", "--replicates", "4",
                   "--a-sigma", "1e307", "--out", "model.json") == 0
        capsys.readouterr()
        assert run("predict", "--model", "model.json", "--data", "data.csv",
                   "--out", "pred.csv") == 0
        assert "warning:" not in capsys.readouterr().err
        assert (workdir / "pred.csv").read_text().count("\n") == 61

    def test_response_whose_sum_of_squares_overflows_is_data_error(
        self, workdir, capsys
    ):
        # |y| ~ 1e200 is finite, so simulate writes it, but y'y overflows
        assert run("simulate", "--scheme", "I", "--n", "30", "--p", "40",
                   "--noise-sd", "1e200", "--out", "data.csv") == 0
        capsys.readouterr()
        assert run("fit", "--data", "data.csv", "--replicates", "3",
                   "--out", "model.json") == 2
        assert capsys.readouterr().err == (
            "error: response is too large: the sum of squares of the centred "
            "response overflows\n"
        )
        assert not (workdir / "model.json").exists()

    def test_huge_response_whose_sum_of_squares_is_finite_fits(
        self, workdir, capsys
    ):
        run("simulate", "--scheme", "I", "--n", "30", "--p", "40",
            "--noise-sd", "1e153", "--out", "data.csv")
        assert run("fit", "--data", "data.csv", "--replicates", "3",
                   "--out", "model.json") == 0
        assert run("predict", "--model", "model.json", "--data", "data.csv",
                   "--out", "pred.csv") == 0
        assert "warning:" not in capsys.readouterr().err
        assert (workdir / "pred.csv").read_text().count("\n") == 31

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_delta_must_be_finite_and_nonnegative(self, workdir, capsys, value):
        # a NaN delta kept one column per replicate and saved a bare NaN token
        run("simulate", "--scheme", "I", "--n", "30", "--p", "40",
            "--out", "data.csv")
        capsys.readouterr()
        assert run("fit", "--data", "data.csv", "--replicates", "2",
                   "--delta", value, "--out", "model.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --delta: must be finite and >= 0, got ")
        assert err.count("\n") == 1
        assert not (workdir / "model.json").exists()

    @staticmethod
    def _write_scaled_column_csv(path, scale):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 5))
        X[:, 2] *= scale
        y = X[:, 0] + rng.standard_normal(30)
        rows = [",".join(repr(float(v)) for v in row) for row in np.column_stack([X, y])]
        path.write_text("x1,x2,x3,x4,x5,y\n" + "\n".join(rows) + "\n")

    def test_column_whose_variance_overflows_is_data_error(self, workdir, capsys):
        # each cell is finite, so the CSV loads; the fit used to save a model
        # with an infinite column scale that predict then refused
        self._write_scaled_column_csv(workdir / "data.csv", 1e200)
        assert run("fit", "--data", "data.csv", "--replicates", "3",
                   "--out", "model.json") == 2
        assert capsys.readouterr().err == (
            "error: column 'x3' is too large: its mean or standard deviation "
            "overflows\n"
        )
        assert not (workdir / "model.json").exists()

    def test_huge_column_whose_variance_is_finite_fits(self, workdir, capsys):
        self._write_scaled_column_csv(workdir / "data.csv", 1e150)
        assert run("fit", "--data", "data.csv", "--replicates", "3",
                   "--out", "model.json") == 0
        assert run("predict", "--model", "model.json", "--data", "data.csv",
                   "--out", "pred.csv") == 0
        assert "warning:" not in capsys.readouterr().err
        assert (workdir / "pred.csv").read_text().count("\n") == 31

    @staticmethod
    def _write_constant_columns_csv(path, y, varying):
        # 20 rows, 40 columns, all constant but the first `varying`
        rng = np.random.default_rng(2)
        X = np.full((20, 40), 2.0)
        X[:, :varying] = rng.standard_normal((20, varying))
        rows = [",".join(repr(float(v)) for v in row) for row in np.column_stack([X, y])]
        header = ",".join([f"x{j + 1}" for j in range(40)] + ["y"])
        path.write_text(header + "\n" + "\n".join(rows) + "\n")

    @pytest.mark.parametrize("variant", ["ris_rp", "ris_pcr", "plain_rp_baseline"])
    def test_constant_response_and_columns_fit(self, workdir, capsys, variant):
        # every correlation is 0, so screening falls back to uniform q; the
        # constant columns standardize to zeros and now get q = 0, where
        # ris_pcr used to draw only zero columns and exit 1
        self._write_constant_columns_csv(workdir / "data.csv", np.full(20, 3.0), 1)
        assert run("fit", "--data", "data.csv", "--variant", variant,
                   "--replicates", "20", "--out", "model.json") == 0
        assert run("predict", "--model", "model.json", "--data", "data.csv",
                   "--out", "pred.csv") == 0
        assert capsys.readouterr().err == (
            "warning: response is constant; all marginal correlations set to 0\n"
        )
        model, _ = load_model("model.json")
        # the baseline screens nothing, so it keeps the constant columns too
        kept = list(range(40)) if variant == "plain_rp_baseline" else [0]
        for rep in model.replicates:
            assert rep.projection.indices.tolist() == kept

    @pytest.mark.parametrize("variant", ["ris_rp", "ris_pcr", "plain_rp_baseline"])
    def test_design_without_a_varying_column_is_data_error(
        self, workdir, capsys, variant
    ):
        # checked once before any replicate runs, so no replicate is blamed;
        # the baseline, which screens nothing, rejects the file too
        y = np.random.default_rng(3).standard_normal(20)
        self._write_constant_columns_csv(workdir / "data.csv", y, 0)
        assert run("fit", "--data", "data.csv", "--variant", variant,
                   "--replicates", "20", "--out", "model.json") == 2
        assert capsys.readouterr().err == (
            "error: every design column is constant; there is nothing to fit\n"
        )
        assert not (workdir / "model.json").exists()

    @pytest.mark.parametrize("value", ["1e200", "1e308"])
    @pytest.mark.parametrize("variant", ["ris_rp", "ris_pcr"])
    def test_new_row_with_huge_cell_is_data_error(
        self, workdir, capsys, variant, value
    ):
        # the cell is finite, so the CSV loads, but the row's predictive
        # scale overflows: it used to exit 3 from the mixture quantile
        # search, after overflow warnings at 1e308
        run("simulate", "--scheme", "I", "--n", "60", "--p", "300",
            "--out", "data.csv")
        assert run("fit", "--data", "data.csv", "--variant", variant,
                   "--replicates", "10", "--out", "model.json") == 0
        lines = (workdir / "data.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[0] = value
        lines[3] = ",".join(cells)
        (workdir / "new.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("predict", "--model", "model.json", "--data", "new.csv",
                   "--out", "pred.csv") == 2
        assert capsys.readouterr().err == (
            "error: new row 3 is too large: its predictive location or scale "
            "overflow\n"
        )
        assert not (workdir / "pred.csv").exists()

    def test_new_row_whose_standardized_values_overflow_is_data_error(
        self, workdir, capsys
    ):
        # a binary model has no predictive scale; the standardized row
        # itself overflows once a cell nears the float64 limit
        write_binary_csv(workdir / "data.csv")
        assert run("fit", "--data", "data.csv", "--replicates", "5",
                   "--out", "model.json") == 0
        lines = (workdir / "data.csv").read_text().splitlines()
        lines[2] = ",".join(["1.7976931348623157e308"] * 8 + ["1"])
        (workdir / "new.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("predict", "--model", "model.json", "--data", "new.csv",
                   "--out", "pred.csv") == 2
        assert capsys.readouterr().err == (
            "error: new row 2 is too large: its standardized values overflow\n"
        )

    def test_new_row_whose_logits_overflow_is_data_error(self, workdir, capsys):
        # alternating +-1e308 cells standardize to finite values, but their
        # logits overflow: this row used to predict a saturated probability
        # with exit 0, after an overflow warning from the product
        lines = (DATA / "binary.csv").read_text().splitlines()[:4]
        width = lines[0].count(",")
        lines[2] = ",".join(["1e308", "-1e308"] * (width // 2) + ["1"])
        (workdir / "new.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("predict", "--model", str(DATA / "v8_binary.tarp"),
                   "--data", "new.csv", "--out", "pred.csv") == 2
        assert capsys.readouterr().err == (
            "error: new row 2 is too large: its logits overflow\n"
        )
        assert not (workdir / "pred.csv").exists()

    def test_library_warning_is_one_line(self, workdir, capsys):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 6))
        rows = [",".join(repr(float(v)) for v in row) + ",2.5" for row in X]
        header = ",".join([f"x{i}" for i in range(6)] + ["y"])
        (workdir / "const.csv").write_text(header + "\n" + "\n".join(rows) + "\n")
        assert run("fit", "--data", "const.csv", "--replicates", "2",
                   "--out", "model.json") == 0
        err = capsys.readouterr().err
        assert err == (
            "warning: response is constant; all marginal correlations set to 0\n"
        )

    @pytest.mark.parametrize("command", ["simulate", "fit", "predict", "bench"])
    def test_help_shows_every_fixed_default(self, command, capsys):
        # a bad %(default)s in a help string only fails once help is printed
        _, commands = tarp.cli._build_parser()
        defaults = vars(commands[command].parse_args([]))
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for value in defaults.values():
            assert value is None or f"[{value}]" in out

    def test_help_documents_output_columns(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "point,lo,hi" in out and "probability" in out


def _drop_psi(doc):
    del doc["replicates"][0]["projection"]["psi"]


def _halve_gamma(doc):
    doc["replicates"][0]["projection"]["gamma"]["length"] = 40


def _psi_out_of_range(doc):
    doc["replicates"][0]["projection"]["psi"] = 0.7


def _requested_m_below_m(doc):
    projection = doc["replicates"][0]["projection"]
    projection["requested_m"] = projection["m"] - 1


def _set(*keys, value):
    def corrupt(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return corrupt


def _at(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def _set_float(*keys, index=0, value):
    # one entry of a float array
    def corrupt(doc):
        obj = _at(doc, keys)
        values = np.frombuffer(obj["data"], dtype="<f8").copy()
        values[index] = value
        obj["data"] = values.tobytes()
    return corrupt


def _add(*keys, delta):
    # a number plus delta; a float delta makes a JSON integer a float
    def corrupt(doc):
        _at(doc, keys[:-1])[keys[-1]] += delta
    return corrupt


def _drop_last(*keys):
    # the last entry of a float vector, with its shape
    def corrupt(doc):
        obj = _at(doc, keys)
        obj["shape"] = [obj["shape"][0] - 1]
        obj["data"] = obj["data"][:-8]
    return corrupt


def _drop_column_name(doc):
    doc["column_names"].pop()


def _column_names_as(convert):
    def corrupt(doc):
        doc["column_names"] = convert(doc["column_names"])
    return corrupt


def _empty_gamma(doc):
    gamma = doc["replicates"][0]["projection"]["gamma"]
    gamma["data"] = bytes(len(gamma["data"]))


def _binary_as_continuous(doc):
    doc["response_kind"] = "continuous"
    doc["standardization"]["response_mean"] = 0.5


def _truncate(*keys, nbytes):
    # cut an array's bytes to data[:nbytes]; a negative count drops bytes
    def corrupt(doc):
        obj = _at(doc, keys)
        obj["data"] = obj["data"][:nbytes]
    return corrupt


_POSTERIOR = ("replicates", 0, "posterior")
_PROJECTION = ("replicates", 0, "projection")


def _predict_fails_in_one_line(workdir, capsys, prefix="error: model.json: "):
    capsys.readouterr()
    assert run("predict", "--model", "model.json", "--data", "data.csv",
               "--out", "preds.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert not (workdir / "preds.csv").exists()
    return err


def _refused(workdir, capsys, entry, reason=""):
    # the model file is refused where it is read: by load_model, as a
    # DataError naming the file, or by `tarp predict`, in one line
    prefix = "model.json: " + reason
    if entry == "load_model":
        with pytest.raises(DataError, match="^" + re.escape(prefix)):
            load_model("model.json")
    else:
        _predict_fails_in_one_line(workdir, capsys, prefix="error: " + prefix)


# a corrupt file must fail in load_model itself, not only later in predict
ENTRIES = pytest.mark.parametrize("entry", ["load_model", "predict"])


class TestCorruptModel:
    @staticmethod
    def _fit(variant):
        # fits model.json to data.csv in the working directory and returns
        # the file's document, with arrays as bytes; "binary" is ris_rp on a
        # binary response
        if variant == "binary":
            write_binary_csv(Path("data.csv"))
            variant = "ris_rp"
        else:
            run("simulate", "--scheme", "I", "--n", "40", "--p", "80",
                "--seed", "4", "--out", "data.csv")
        assert run("fit", "--data", "data.csv", "--replicates", "2",
                   "--variant", variant, "--out", "model.json") == 0
        return as_doc(Path("model.json").read_bytes())

    @ENTRIES
    @pytest.mark.parametrize("variant", ["ris_rp", "ris_pcr", "binary"])
    def test_unedited_copy_is_the_same_file(self, workdir, variant, entry):
        # every corrupt case below starts from this copy of the fitted file
        doc = self._fit(variant)
        original = (workdir / "model.json").read_bytes()
        assert as_signed(doc) == original
        if entry == "load_model":
            model, extra = load_model("model.json")
            save_model(model, "resaved.tarp", extra=extra)
            assert (workdir / "resaved.tarp").read_bytes() == original
        else:
            assert run("predict", "--model", "model.json", "--data", "data.csv",
                       "--out", "preds.csv") == 0

    @pytest.mark.parametrize(
        "corrupt, variant",
        [
            (_drop_psi, "ris_rp"),
            (_halve_gamma, "ris_rp"),
            (_psi_out_of_range, "ris_rp"),
            (_requested_m_below_m, "ris_pcr"),
            (_set("response_kind", value="binary"), "ris_rp"),
            (_set("response_kind", value="bogus"), "ris_rp"),
            (_set("replicates", value=[]), "ris_rp"),
            (_set("standardization", "response_mean", value="abc"), "ris_rp"),
            (_set("extra", value=[1]), "ris_rp"),
            (_set("n_obs", value=-100), "ris_rp"),
            (_truncate("replicates", 0, "projection", "gamma", nbytes=1), "ris_rp"),
            (_truncate("standardization", "constant_mask", nbytes=1), "ris_rp"),
            (_set_float(*_POSTERIOR, "location", value=float("nan")), "ris_rp"),
            (_set_float("standardization", "column_scales", index=3, value=0.0),
             "ris_rp"),
            (_set_float("standardization", "column_means", value=float("inf")),
             "ris_rp"),
            (_set(*_POSTERIOR, "residual_quadratic", value=-5), "ris_rp"),
            (_set("a_sigma", value=0.0), "ris_rp"),
            (_set("b_sigma", value=-1.0), "ris_rp"),
            (_set("b_sigma", value=1e308), "ris_rp"),
            (_set("sigma_theta2", value=0.0), "ris_rp"),
            (_truncate(*_POSTERIOR, "precision_inverse", nbytes=-8), "ris_rp"),
            (_set(*_POSTERIOR, "precision_inverse", "order", value=3), "ris_rp"),
            (_set_float(*_POSTERIOR, "precision_inverse", value=float("inf")),
             "ris_rp"),
            (_set_float("replicates", 0, "projection", "block", value=float("nan")),
             "ris_pcr"),
            # a projection variant the format does not know
            (_set("replicates", 0, "projection", "variant", value="sparse_variant"),
             "ris_rp"),
            # json reads the bare NaN and Infinity tokens a fit once wrote
            (_set("delta", value=float("nan")), "ris_rp"),
            (_set("delta", value=float("inf")), "ris_rp"),
            (_set("delta", value=-0.5), "ris_rp"),
            # integer fields take JSON integers only: no bool, no float
            (_set("n_obs", value=True), "ris_rp"),
            (_add(*_PROJECTION, "seed", 0, delta=0.5), "ris_rp"),
            # one case per invariant that a model's types check on construction
            (_drop_last("standardization", "column_means"), "ris_rp"),
            (_set("standardization", "response_mean", value=None), "ris_rp"),
            (_set("standardization", "response_mean", value=0.5), "binary"),
            (_drop_column_name, "ris_rp"),
            # predict matches new columns by name
            (_set("column_names", 1, value="x1"), "ris_rp"),
            (_add(*_PROJECTION, "gamma", "length", delta=-1), "ris_rp"),
            (_binary_as_continuous, "binary"),
            (_set(*_PROJECTION, "m", value=0), "ris_rp"),
            (_add(*_PROJECTION, "m", delta=-1), "ris_pcr"),
            (_drop_last(*_POSTERIOR, "location"), "ris_rp"),
            (_drop_last(*_POSTERIOR, "mode"), "binary"),
            (_set_float(*_POSTERIOR, "mode", value=float("nan")), "binary"),
            (_set(*_POSTERIOR, "grad_norm", value=-1.0), "binary"),
            (_set(*_POSTERIOR, "n_iter", value=-1), "binary"),
            # column_names takes a list of strings
            (_column_names_as(lambda names: "".join(name[-1] for name in names)),
             "ris_rp"),
            (_column_names_as(lambda names: list(range(len(names)))), "ris_rp"),
            # sample_inclusion never draws an empty gamma
            (_empty_gamma, "ris_rp"),
            (_empty_gamma, "binary"),
            # every random map is drawn from its seed's entry substream
            (_set(*_PROJECTION, "seed", 1, value=2), "ris_rp"),
            # numpy's reshape would read a -1 as the whole vector
            (_set("standardization", "column_means", "shape", value=[-1]), "ris_rp"),
            (_set(*_POSTERIOR, "location", "shape", value=[-1]), "ris_rp"),
        ],
        ids=[
            "missing_psi", "gamma_length", "psi_range", "pcr_requested_m",
            "kind_binary_on_continuous", "kind_bogus", "no_replicates",
            "response_mean_text", "extra_list", "negative_n_obs", "gamma_truncated",
            "constant_mask_truncated", "location_nan", "column_scale_zero",
            "column_mean_inf", "residual_quadratic_negative", "a_sigma_zero",
            "b_sigma_negative", "b_sigma_overflows", "sigma_theta2_zero",
            "triangle_short", "triangle_order", "triangle_inf", "pcr_block_nan",
            "projection_variant_sparse", "delta_nan", "delta_inf", "delta_negative",
            "n_obs_true",
            "seed_fraction",
            "column_means_short", "response_mean_null", "binary_response_mean",
            "column_names_short", "column_names_repeated", "gamma_one_short",
            "kind_continuous_on_binary",
            "projection_m_zero", "pcr_block_rows", "location_short",
            "mode_short", "mode_nan", "grad_norm_negative", "n_iter_negative",
            "column_names_string", "column_names_integers",
            "gamma_empty", "binary_gamma_empty", "projection_seed_stream",
            "column_means_shape_wildcard", "location_shape_wildcard",
        ],
    )
    @ENTRIES
    def test_corrupt_model_is_data_error(
        self, workdir, capsys, corrupt, variant, entry
    ):
        doc = self._fit(variant)
        corrupt(doc)
        (workdir / "model.json").write_bytes(as_signed(doc))
        _refused(workdir, capsys, entry)

    def test_extra_options_list_loads_and_predicts(self, workdir):
        # extra is the caller's metadata, which the library hands back as it
        # is; its options are the fit's command line, which predict does not
        # read: columns are matched by name alone
        doc = self._fit("ris_rp")
        doc["extra"]["options"] = [1]
        (workdir / "model.json").write_bytes(as_signed(doc))
        assert load_model("model.json")[1]["options"] == [1]
        assert run("predict", "--model", "model.json", "--data", "data.csv",
                   "--out", "preds.csv") == 0

    @ENTRIES
    @pytest.mark.parametrize("version", [4, 5, 6, 7])
    def test_older_version_is_unsupported(self, workdir, capsys, entry, version):
        # a file signed as version 4, the format that kept each replicate's
        # config and priors, 5, which kept each replicate's delta, 6, which
        # stored each array's offset beside its byte count, or 7, which kept
        # a digest of the training rows and each random map's requested_m:
        # the header check refuses it before the document is parsed, so the
        # body's format does not matter
        self._fit("ris_rp")
        body = (workdir / "model.json").read_bytes().split(b"\n", 1)[1]
        (workdir / "model.json").write_bytes(signed(body, version=version))
        message = f"model.json: unsupported model version {version}"
        if entry == "load_model":
            with pytest.raises(DataError, match=f"^{message}$"):
                load_model("model.json")
        else:
            assert _predict_fails_in_one_line(workdir, capsys) == f"error: {message}\n"

    @pytest.mark.parametrize(
        "where, key, copy_of, variant",
        [
            # the copies version 4 wrote, each equal to the value it repeats
            ("replicate", "config", None, "ris_rp"),
            ("posterior", "a_sigma", ("a_sigma",), "ris_rp"),
            ("posterior", "b_sigma", ("b_sigma",), "ris_rp"),
            ("posterior", "n_obs", ("n_obs",), "ris_rp"),
            ("posterior", "kind", ("response_kind",), "ris_rp"),
            ("posterior", "prior_variance", ("sigma_theta2",), "binary"),
            # the copy of delta version 5 kept in every replicate
            ("replicate", "delta", ("delta",), "ris_rp"),
            ("document", "format", None, "ris_rp"),
            ("document", "version", None, "ris_rp"),
            # what version 7 kept and nothing read: a digest of the training
            # rows, and a random map's requested_m, always its m
            ("document", "train_data_hash", None, "ris_rp"),
            ("projection", "requested_m", (*_PROJECTION, "m"), "ris_rp"),
            # keys that belong to another kind of model or projection
            ("document", "n_obs", None, "binary"),
            ("projection", "psi", None, "ris_pcr"),
            ("projection", "seed", None, "ris_pcr"),
            ("standardization", "n_obs", ("n_obs",), "ris_rp"),
            # an array, a triangle and a bit object hold their data and its
            # extent only
            ("location", "dtype", None, "ris_rp"),
            ("precision_inverse", "dtype", None, "ris_rp"),
            ("gamma", "dtype", None, "ris_rp"),
        ],
        ids=[
            "replicate_config", "posterior_a_sigma", "posterior_b_sigma",
            "posterior_n_obs", "posterior_kind", "posterior_prior_variance",
            "replicate_delta", "document_format", "document_version", "train_data_hash",
            "rp_requested_m", "binary_n_obs",
            "pcr_psi",
            "pcr_seed", "standardization_n_obs", "location_dtype",
            "precision_inverse_dtype", "gamma_dtype",
        ],
    )
    @ENTRIES
    def test_a_key_the_format_does_not_hold_is_data_error(
        self, workdir, capsys, where, key, copy_of, variant, entry
    ):
        # version 8 holds each value once, so a second copy is refused even
        # when it agrees with the first, and so is a key another kind holds
        doc = self._fit(variant)
        stray = {"config": {"m": 5, "psi": 0.25, "variant": "ris_rp", "seed": 7},
                 "format": "tarp-model", "version": 7, "n_obs": 40,
                 "train_data_hash": "0" * 64,
                 "psi": 0.25, "seed": [7, 1], "dtype": "<f8"}
        value = _at(doc, copy_of) if copy_of else stray[key]
        parent = {"document": (), "standardization": ("standardization",),
                  "replicate": ("replicates", 0), "projection": _PROJECTION,
                  "posterior": _POSTERIOR, "location": (*_POSTERIOR, "location"),
                  "precision_inverse": (*_POSTERIOR, "precision_inverse"),
                  "gamma": (*_PROJECTION, "gamma")}[where]
        _at(doc, parent)[key] = value
        (workdir / "model.json").write_bytes(as_signed(doc))
        _refused(workdir, capsys, entry,
                 reason=f"malformed model file ({where} has unknown keys ['{key}'])")

    @pytest.mark.parametrize(
        "where", ["replicate", "posterior", "standardization", "projection", "location"]
    )
    @ENTRIES
    def test_an_object_that_is_a_list_is_data_error(self, workdir, capsys, where, entry):
        doc = self._fit("ris_rp")
        keys = {"replicate": ("replicates", 0), "posterior": _POSTERIOR,
                "standardization": ("standardization",), "projection": _PROJECTION,
                "location": (*_POSTERIOR, "location")}[where]
        _at(doc, keys[:-1])[keys[-1]] = list(_at(doc, keys))
        (workdir / "model.json").write_bytes(as_signed(doc))
        _refused(workdir, capsys, entry,
                 reason=f"malformed model file ({where} is not an object)")

    @pytest.mark.parametrize(
        "keys, value, name",
        [
            (("replicates",), 5, "replicates"),
            (("replicates",), {}, "replicates"),
            (("replicates",), "ab", "replicates"),
            ((*_PROJECTION, "seed"), 5, "seed"),
            ((*_PROJECTION, "seed"), "ab", "seed"),
            ((*_POSTERIOR, "location", "shape"), 5, "location shape"),
            (("standardization", "column_means", "shape"), "ab", "column_means shape"),
        ],
        ids=["replicates_number", "replicates_object", "replicates_string",
             "seed_number", "seed_string", "location_shape_number",
             "column_means_shape_string"],
    )
    @ENTRIES
    def test_a_list_that_is_not_a_list_is_data_error(
        self, workdir, capsys, keys, value, name, entry
    ):
        # iterating a number fails without naming the field, and a string or
        # an object would be read as its characters or its keys
        doc = self._fit("ris_rp")
        _at(doc, keys[:-1])[keys[-1]] = value
        (workdir / "model.json").write_bytes(as_signed(doc))
        _refused(workdir, capsys, entry,
                 reason=f"malformed model file ({name} must be a list)")

    @pytest.mark.parametrize(
        "keys, variant",
        [
            (("replicates", 0, "projection", "m"), "ris_rp"),
            (("replicates", 0, "projection", "seed", 0), "ris_rp"),
            (("replicates", 0, "projection", "seed", 1), "ris_rp"),
            (("replicates", 0, "projection", "gamma", "length"), "ris_rp"),
            (("standardization", "constant_mask", "length"), "ris_rp"),
            (("replicates", 0, "projection", "requested_m"), "ris_pcr"),
            (("n_obs",), "ris_rp"),
            ((*_POSTERIOR, "n_iter"), "binary"),
            (("master_seed",), "ris_rp"),
        ],
        ids=lambda value: "-".join(map(str, value)) if isinstance(value, tuple)
        else value,
    )
    @ENTRIES
    def test_integer_too_large_for_a_float_is_data_error(
        self, workdir, capsys, keys, variant, entry
    ):
        # json reads 1e999 as inf, a float, which no integer field takes
        doc = self._fit(variant)
        _at(doc, keys[:-1])[keys[-1]] = "HUGE"
        text = body_of(doc)
        assert text.count(b'"HUGE"') == 1
        (workdir / "model.json").write_bytes(signed(text.replace(b'"HUGE"', b"1e999")))
        _refused(workdir, capsys, entry, reason="malformed model file (")

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_legacy_json_model_is_a_malformed_header(self, workdir, capsys, version):
        # versions 1-3 were JSON documents with base64 arrays and no header
        # line; only the signed format loads, whatever version a document claims
        doc = self._fit("ris_rp")
        each_array(doc, lambda raw: base64.b64encode(raw).decode("ascii"))
        doc["version"] = version
        (workdir / "model.json").write_text(json.dumps(doc))
        with pytest.raises(DataError, match="^model.json: malformed model header$"):
            load_model("model.json")
        err = _predict_fails_in_one_line(workdir, capsys)
        assert err.endswith("malformed model header\n")

    def test_huge_m_is_rejected_without_drawing_a_block(
        self, workdir, capsys, monkeypatch
    ):
        # the projection's m claims 1e9 over a small
        # posterior: loading must reject the file before drawing any block
        run("simulate", "--scheme", "I", "--n", "40", "--p", "80",
            "--seed", "4", "--out", "data.csv")
        assert run("fit", "--data", "data.csv", "--replicates", "2",
                   "--out", "model.json") == 0
        doc = as_doc((workdir / "model.json").read_bytes())
        rep = doc["replicates"][0]
        rep["projection"]["m"] = 10**9
        (workdir / "model.json").write_bytes(as_signed(doc))

        def no_draw(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(tarp.projection, "_three_point_signs", no_draw)
        capsys.readouterr()
        started = time.perf_counter()
        assert run("predict", "--model", "model.json", "--data", "data.csv",
                   "--out", "preds.csv") == 2
        assert time.perf_counter() - started < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "m=1000000000" in err
        assert not (workdir / "preds.csv").exists()


class TestStartup:
    # scipy.stats costs ~0.5 s and ~38 MiB, scipy.linalg ~55 ms and ~6 MiB;
    # only the fit's Cholesky solves use scipy.linalg, and nothing in the
    # package uses scipy.stats
    @staticmethod
    def _fresh(code: str) -> str:
        src = os.path.dirname(os.path.dirname(tarp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=60,
        )
        return out.stdout.strip()

    def test_cli_import_skips_scipy_stats(self):
        code = "import sys, tarp.cli; print('scipy.stats' in sys.modules)"
        assert self._fresh(code) == "False"

    @pytest.mark.parametrize("kind", ["continuous", "binary"])
    def test_predict_skips_scipy_stats_and_linalg(self, tmp_path, kind):
        argv = ["predict", "--model", str(DATA / f"v8_{kind}.tarp"),
                "--data", str(DATA / f"{kind}.csv"), "--out", str(tmp_path / "p.csv")]
        code = (
            f"import sys, tarp.cli; code = tarp.cli.main({argv!r}); "
            "print(code, [m for m in ('scipy.stats', 'scipy.linalg') "
            "if m in sys.modules])"
        )
        assert self._fresh(code).splitlines()[-1] == "0 []"

    def test_classification_metrics_skip_scipy_stats(self):
        code = (
            "import sys; from tarp.metrics import evaluate_classification; "
            "report = evaluate_classification([0.2, 0.7, 0.4], [0.0, 1.0, 1.0]); "
            "print(report.auc, 'scipy.stats' in sys.modules)"
        )
        assert self._fresh(code) == "1.0 False"


class TestPartialOutputs:
    def test_failed_run_removes_partial_files(self, workdir):
        # truth sidecar path is unwritable: the already-written CSV must go
        code = run(
            "simulate", "--scheme", "I", "--n", "30", "--p", "40",
            "--out", "data.csv",
            "--truth-out", str(workdir / "no_dir" / "truth.json"),
        )
        assert code != 0
        assert not (workdir / "data.csv").exists()

    @pytest.mark.parametrize(
        "argv, blocked",
        [
            (["fit", "--data", "data.csv", "--replicates", "2",
              "--out", "no_dir/model.json"], None),
            (["predict", "--model", "model.json", "--data", "data.csv",
              "--out", "pred.csv"], "pred.csv.meta.json"),
            (["bench", "--scheme", "I", "--n", "30", "--test-size", "5",
              "--p", "40", "--replicates", "1", "--ensemble-size", "2",
              "--out-prefix", "b"], "b_meta.json"),
        ],
        ids=["fit", "predict", "bench"],
    )
    def test_failed_output_removes_every_earlier_one(self, workdir, argv, blocked):
        # the last output cannot be opened (a missing directory, or a
        # directory in the sidecar's place): the files written before it go
        run("simulate", "--scheme", "I", "--n", "30", "--p", "40",
            "--out", "data.csv")
        run("fit", "--data", "data.csv", "--replicates", "2", "--out", "model.json")
        if blocked:
            (workdir / blocked).mkdir()
        before = set(workdir.iterdir())
        assert run(*argv) == 1
        assert set(workdir.iterdir()) == before


class TestThreadsEnvVar:
    def test_env_var_supplies_default(self, workdir, monkeypatch):
        monkeypatch.setenv("TARP_THREADS", "3")
        run("bench", "--scheme", "I", "--n", "50", "--test-size", "10",
            "--p", "60", "--replicates", "2", "--ensemble-size", "2",
            "--out-prefix", "e")
        meta = json.loads((workdir / "e_meta.json").read_text())
        assert meta["threads"] == 3

    def test_flag_overrides_env(self, workdir, monkeypatch):
        monkeypatch.setenv("TARP_THREADS", "3")
        run("bench", "--scheme", "I", "--n", "50", "--test-size", "10",
            "--p", "60", "--replicates", "2", "--ensemble-size", "2",
            "--threads", "2", "--out-prefix", "f")
        meta = json.loads((workdir / "f_meta.json").read_text())
        assert meta["threads"] == 2

    def test_bad_env_value(self, workdir, monkeypatch, capsys):
        monkeypatch.setenv("TARP_THREADS", "lots")
        assert run("bench", "--scheme", "I", "--n", "50", "--replicates", "1") == 1
        assert capsys.readouterr().err == "error: TARP_THREADS='lots' is not an integer\n"

    def test_env_value_is_range_checked_like_the_flag(self, workdir, monkeypatch, capsys):
        # checked before the data file is read, so exit 1, not 2
        monkeypatch.setenv("TARP_THREADS", "0")
        assert run("fit", "--data", "missing.csv") == 1
        assert capsys.readouterr().err == "error: TARP_THREADS: must be >= 1, got 0\n"


class TestThreadStart:
    # the system refuses the first worker thread, or the third after two
    # others are asked for: exit 1 and one line naming the pool's size,
    # whether the count came from the flag or the environment, and no output
    # file. Patching Thread.start starts no thread it is not asked for
    @pytest.mark.parametrize("call", [1, 3])
    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("command", ["fit", "bench"])
    def test_a_thread_that_cannot_start_is_one_line(
        self, workdir, capsys, monkeypatch, refuse_thread, command, source, call
    ):
        if command == "fit":
            run("simulate", "--scheme", "I", "--n", "40", "--p", "30", "--seed", "2",
                "--out", "data.csv")
            argv = ["fit", "--data", "data.csv", "--replicates", "4", "--out", "model.tarp"]
        else:
            argv = ["bench", "--scheme", "I", "--n", "40", "--test-size", "10", "--p", "30",
                    "--replicates", "4", "--ensemble-size", "2", "--out-prefix", "b"]
        if source == "flag":
            argv += ["--threads", "3"]
        else:
            monkeypatch.setenv("TARP_THREADS", "3")
        before = set(workdir.iterdir())
        capsys.readouterr()
        refuse_thread(call)
        assert run(*argv) == 1
        assert capsys.readouterr().err == (
            "error: cannot start 3 worker threads (can't start new thread)\n"
        )
        assert set(workdir.iterdir()) == before


def _fresh_python(args, cwd, blas_env):
    """``python args`` in ``cwd`` with each BLAS thread variable set as
    ``blas_env`` says, and unset where it says None; returns stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tarp.__file__)))
    for name, value in blas_env.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout


def _fresh_cli(argv, cwd, blas_env):
    return _fresh_python(["-m", "tarp.cli", *argv], cwd, blas_env)


class TestBlasThreads:
    UNSET = dict.fromkeys(tarp.cli.BLAS_THREAD_VARS)
    PINNED = dict.fromkeys(tarp.cli.BLAS_THREAD_VARS, "1")

    @pytest.mark.parametrize(
        "given, seen",
        [(UNSET, PINNED),
         ({**UNSET, "OMP_NUM_THREADS": "2"}, {**UNSET, "OMP_NUM_THREADS": "2"}),
         ({**UNSET, "MKL_NUM_THREADS": ""}, PINNED)],
        ids=["unset", "one_set", "empty_counts_as_unset"],
    )
    def test_command_defaults_to_one_thread(self, tmp_path, given, seen):
        # the bench meta records what the command's process saw
        _fresh_cli(["bench", "--scheme", "I", "--n", "30", "--test-size", "5",
                    "--p", "40", "--replicates", "1", "--ensemble-size", "2",
                    "--out-prefix", "b"], tmp_path, given)
        meta = json.loads((tmp_path / "b_meta.json").read_text())
        assert meta["blas_threads"] == seen

    def test_library_import_keeps_the_environment(self, tmp_path):
        code = ("import os, tarp, tarp.ensemble; "
                f"print([os.environ.get(name) for name in {tarp.cli.BLAS_THREAD_VARS}])")
        assert _fresh_python(["-c", code], tmp_path, self.UNSET) == "[None, None, None]\n"

    @pytest.mark.parametrize("argv, meta", [
        (["predict", "--model", "model.json", "--data", "data.csv", "--out", "p.csv"],
         "p.csv.meta.json"),
        (["bench", "--scheme", "I", "--n", "30", "--test-size", "5", "--p", "40",
          "--replicates", "1", "--ensemble-size", "2", "--out-prefix", "b"],
         "b_meta.json"),
    ], ids=["predict", "bench"])
    def test_meta_records_the_blas_setup(self, workdir, argv, meta):
        run("simulate", "--scheme", "I", "--n", "30", "--p", "40", "--out", "data.csv")
        run("fit", "--data", "data.csv", "--replicates", "2", "--out", "model.json")
        assert run(*argv) == 0
        doc = json.loads((workdir / meta).read_text())
        assert doc["blas_threads"] == {
            name: os.environ.get(name) for name in tarp.cli.BLAS_THREAD_VARS
        }
        # None only where numpy cannot report its build (before 1.26)
        assert doc["blas"] is None or set(doc["blas"]) == {"name", "version"}
        # the kernel set of each wheel's OpenBLAS, None where none is found
        assert set(doc["openblas_core"]) == {"numpy", "scipy"}
        for core in doc["openblas_core"].values():
            assert core is None or isinstance(core, str)

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="needs 2 CPUs for an unset count to mean more than one thread",
    )
    def test_unset_count_writes_the_pinned_bytes(self, tmp_path):
        # OpenBLAS splits this fit's products over every core when no count
        # is set, which changed the last bits of the model; the command's
        # default of one thread keeps them. Both fits name the same --out,
        # which the model records
        _fresh_cli(["simulate", "--scheme", "III", "--n", "300", "--p", "2000",
                    "--out", "data.csv"], tmp_path, self.PINNED)
        models = []
        for name, blas_env in (("unset", self.UNSET), ("pinned", self.PINNED)):
            (tmp_path / name).mkdir()
            _fresh_cli(["fit", "--data", "../data.csv", "--replicates", "50",
                        "--out", "model.tarp"], tmp_path / name, blas_env)
            models.append((tmp_path / name / "model.tarp").read_bytes())
        assert models[0] == models[1]
