import base64
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tarp
import tarp.cli
import tarp.ensemble
from tarp.cli import main
from tarp.data import load_csv
from tarp.ensemble import fit_tarp, predict_tarp, sample_config_grid
from tarp.model_io import load_model
from tarp.posterior import ConvergenceError
from tarp.projection import ProjectionMatrix
from tarp.screening import default_delta


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
            ("nan", "noise_sd must be finite and >= 0, got nan"),
            ("inf", "noise_sd must be finite and >= 0, got inf"),
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
        configs = sample_config_grid(
            train.n, train.p, 1,
            delta=default_delta(train.n, train.p), master_seed=7,
        )
        model = fit_tarp(train, configs, master_seed=7)
        expected = predict_tarp(model, train.design, level=0.5)
        got = np.loadtxt(workdir / "preds.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(got[:, 0], expected.point)
        np.testing.assert_array_equal(got[:, 1], expected.lower)
        np.testing.assert_array_equal(got[:, 2], expected.upper)

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
        assert run("predict", "--model", str(DATA / f"v2_{kind}.json"),
                   "--data", str(DATA / f"{kind}.csv"), "--level", "7",
                   "--out", "preds.csv") == 1
        assert capsys.readouterr().err == "error: level must be in (0,1), got 7.0\n"
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
    def write(path, names, cells, order):
        # order lists, per output column, a name index or a stray name
        lines = [",".join(names[j] if isinstance(j, int) else j for j in order)]
        lines += [",".join(row[j] if isinstance(j, int) else "0.5" for j in order)
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

    def test_repeated_target_name_drops_the_fit_target(self, workdir):
        # only a training header that repeats the target name reaches the
        # third rule: the fit takes the first y as its response and keeps the
        # second as a predictor, so predict drops the first
        run("simulate", "--scheme", "I", "--n", "30", "--p", "40",
            "--seed", "4", "--out", "data.csv")
        header, *body = (workdir / "data.csv").read_text().splitlines()
        lines = ["y," + header] + [line.rsplit(",", 1)[1] + "," + line
                                   for line in body]
        (workdir / "twice.csv").write_text("\n".join(lines) + "\n")
        assert run("fit", "--data", "twice.csv", "--target", "y",
                   "--replicates", "3", "--out", "model.json") == 0
        assert load_model("model.json")[0].column_names == header.split(",")
        assert self.predict(workdir / "twice.csv", "twice_pred.csv") == 0
        assert self.predict(workdir / "data.csv", "data_pred.csv") == 0
        assert (workdir / "twice_pred.csv").read_bytes() == (
            workdir / "data_pred.csv").read_bytes()

    def test_wide_header_matches_in_linear_time(self, monkeypatch):
        expected = [f"x{j}" for j in range(30_000)]
        names = expected[:15_000] + ["stray"] + expected[15_000:]
        table = np.arange(30_001.0)[None, :]
        monkeypatch.setattr(tarp.cli, "load_table", lambda path: (names, table))
        model = SimpleNamespace(column_names=expected)
        started = time.perf_counter()
        design = tarp.cli._load_design_for_model("wide.csv", model, "y")
        assert time.perf_counter() - started < 2.0
        np.testing.assert_array_equal(design, np.delete(table, 15_000, axis=1))


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

        def fit_or_fail(train, configs, master_seed, threads):
            if master_seed == failing_seed:
                raise ConvergenceError("no mode")
            return fit_tarp(train, configs, master_seed=master_seed, threads=threads)

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
            "error: bench needs an ensemble size of at least 1\n"
        )


    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n", "1", "bench --n must be >= 2, got 1"),
            ("--test-size", "1", "bench --test-size must be >= 2, got 1"),
            ("--noise-sd", "-0.5", "bench --noise-sd must be finite and >= 0, got -0.5"),
            ("--noise-sd", "inf", "bench --noise-sd must be finite and >= 0, got inf"),
            ("--delta", "-1", "bench --delta must be >= 0, got -1.0"),
            ("--delta", "nan", "bench --delta must be >= 0, got nan"),
            ("--level", "0", "bench --level must be in (0, 1), got 0.0"),
            ("--level", "1.5", "bench --level must be in (0, 1), got 1.5"),
            ("--p", "20",
             "bench --p: scheme I needs p >= 30 for its 30 active covariates"),
            ("--p", "0", "bench --p: need p >= 1, got 0"),
        ],
    )
    def test_bad_option_rejected_before_any_experiment(
        self, workdir, capsys, monkeypatch, flag, value, message
    ):
        def no_experiment(options, rep):
            raise AssertionError("an experiment ran")

        monkeypatch.setattr(tarp.cli, "_bench_one", no_experiment)
        assert run("bench", "--scheme", "I", "--n", "40", "--test-size", "10",
                   "--p", "40", "--replicates", "2", "--ensemble-size", "2",
                   flag, value) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(workdir.iterdir())

    def test_overflowing_noise_sd_is_usage_error(self, workdir, capsys):
        # finite, so the option check passes; the first experiment's draw fails
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
            (["predict", "--model", "bad.json", "--data", "bad.csv"], "bad.json", 2),
            (["simulate", "--scheme", "I", "--config", "cfg.txt"],
             "config file cfg.txt", 1),
        ],
        ids=["data", "model", "config"],
    )
    def test_non_utf8_file_is_named(self, workdir, capsys, argv, path, code):
        (workdir / "bad.csv").write_bytes(b"x1,y\n1.0,2.0\n\xff\xfe,3\n4,5\n")
        (workdir / "bad.json").write_bytes(b"\xff{}")
        (workdir / "cfg.txt").write_bytes(b"n = 5\n\xff\n")
        assert run(*argv) == code
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text (byte 0xff: invalid start byte)\n"
        )

    def test_numeric_error_classification(self):
        from tarp.cli import EXIT_NUMERIC, _classify_error
        from tarp.ensemble import ReplicateError
        from tarp.posterior import ConvergenceError

        assert _classify_error(ConvergenceError("x")) == EXIT_NUMERIC
        assert _classify_error(ReplicateError(3, ConvergenceError("x"))) == EXIT_NUMERIC
        assert _classify_error(np.linalg.LinAlgError("x")) == EXIT_NUMERIC

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
        name = flag[2:].replace("-", "_")
        assert err.startswith(f"error: {name} must be a positive finite number")
        assert err.count("\n") == 1
        assert not (workdir / "model.json").exists()

    @pytest.mark.parametrize(
        "flag, quantity",
        [("--a-sigma", "df"), ("--b-sigma", "noise scale")],
        ids=["a_sigma", "b_sigma"],
    )
    def test_prior_overflowing_predictive_fails_at_fit(
        self, workdir, capsys, flag, quantity
    ):
        # finite, so accepted as a prior, but df = n + 2a or the noise scale
        # (r + 2b) / df overflows: predict could not use the model
        run("simulate", "--scheme", "I", "--n", "60", "--p", "50",
            "--out", "data.csv")
        capsys.readouterr()
        assert run("fit", "--data", "data.csv", "--replicates", "4",
                   flag, "1e308", "--out", "model.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
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


def _config_m_off_by_one(doc):
    doc["replicates"][0]["config"]["m"] += 1


def _at(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def _set_float(*keys, index=0, value):
    # one entry of a base64 float array
    def corrupt(doc):
        obj = _at(doc, keys)
        values = np.frombuffer(base64.b64decode(obj["data"]), dtype="<f8").copy()
        values[index] = value
        obj["data"] = base64.b64encode(values.tobytes()).decode("ascii")
    return corrupt


def _truncate(*keys, nbytes):
    # cut a base64 payload to raw[:nbytes]; a negative count drops bytes
    def corrupt(doc):
        obj = _at(doc, keys)
        raw = base64.b64decode(obj["data"])[:nbytes]
        obj["data"] = base64.b64encode(raw).decode("ascii")
    return corrupt


_POSTERIOR = ("replicates", 0, "posterior")


class TestCorruptModel:
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
            (_set("extra", "options", value=[1]), "ris_rp"),
            (_config_m_off_by_one, "ris_rp"),
            (_set("replicates", 0, "config", "psi", value=0.3), "ris_rp"),
            # a baseline config needs an all-ones gamma; this one is screened
            (_set("replicates", 0, "config", "variant", value="plain_rp_baseline"),
             "ris_rp"),
            (_set("replicates", 0, "config", "variant", value="ris_pcr"), "ris_rp"),
            (_set("replicates", 0, "posterior", "n_obs", value=-100), "ris_rp"),
            (_truncate("replicates", 0, "projection", "gamma", nbytes=1), "ris_rp"),
            (_truncate("standardization", "constant_mask", nbytes=1), "ris_rp"),
            (_set_float(*_POSTERIOR, "location", value=float("nan")), "ris_rp"),
            (_set_float("standardization", "column_scales", index=3, value=0.0),
             "ris_rp"),
            (_set_float("standardization", "column_means", value=float("inf")),
             "ris_rp"),
            (_set(*_POSTERIOR, "residual_quadratic", value=-5), "ris_rp"),
            (_set(*_POSTERIOR, "a_sigma", value=0.0), "ris_rp"),
            (_set(*_POSTERIOR, "b_sigma", value=-1.0), "ris_rp"),
            (_set(*_POSTERIOR, "b_sigma", value=1e308), "ris_rp"),
            (_set("sigma_theta2", value=0.0), "ris_rp"),
            (_truncate(*_POSTERIOR, "precision_inverse", nbytes=-8), "ris_rp"),
            (_set(*_POSTERIOR, "precision_inverse", "order", value=3), "ris_rp"),
            (_set_float(*_POSTERIOR, "precision_inverse", value=float("inf")),
             "ris_rp"),
            (_set_float("replicates", 0, "projection", "block", value=float("nan")),
             "ris_pcr"),
            (_set("version", value=4), "ris_rp"),
            # a projection variant the format does not know
            (_set("replicates", 0, "projection", "variant", value="sparse_variant"),
             "ris_rp"),
        ],
        ids=[
            "missing_psi", "gamma_length", "psi_range", "pcr_requested_m",
            "kind_binary_on_continuous", "kind_bogus", "no_replicates",
            "response_mean_text", "extra_list", "extra_options_list",
            "config_m", "config_psi", "config_variant_baseline",
            "config_variant_pcr", "negative_n_obs", "gamma_truncated",
            "constant_mask_truncated", "location_nan", "column_scale_zero",
            "column_mean_inf", "residual_quadratic_negative", "a_sigma_zero",
            "b_sigma_negative", "b_sigma_overflows", "sigma_theta2_zero",
            "triangle_short", "triangle_order", "triangle_inf", "pcr_block_nan",
            "version_4", "projection_variant_sparse",
        ],
    )
    def test_corrupt_model_is_data_error(self, workdir, capsys, corrupt, variant):
        run("simulate", "--scheme", "I", "--n", "40", "--p", "80",
            "--seed", "4", "--out", "data.csv")
        assert run("fit", "--data", "data.csv", "--replicates", "2",
                   "--variant", variant, "--out", "model.json") == 0
        doc = json.loads((workdir / "model.json").read_text())
        corrupt(doc)
        (workdir / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("predict", "--model", "model.json", "--data", "data.csv",
                   "--out", "preds.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (workdir / "preds.csv").exists()


    def test_huge_m_is_rejected_without_drawing_a_block(
        self, workdir, capsys, monkeypatch
    ):
        # projection, requested_m and config all claim m = 1e9 over a small
        # posterior: loading must reject the file before drawing any block
        run("simulate", "--scheme", "I", "--n", "40", "--p", "80",
            "--seed", "4", "--out", "data.csv")
        assert run("fit", "--data", "data.csv", "--replicates", "2",
                   "--out", "model.json") == 0
        doc = json.loads((workdir / "model.json").read_text())
        rep = doc["replicates"][0]
        rep["projection"]["m"] = rep["projection"]["requested_m"] = 10**9
        rep["config"]["m"] = 10**9
        (workdir / "model.json").write_text(json.dumps(doc))

        def no_draw(self):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(ProjectionMatrix, "_codes", no_draw)
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
    def test_cli_import_skips_scipy_stats(self):
        # scipy.stats costs about a second of start-up; only evaluation uses it
        src = os.path.dirname(os.path.dirname(tarp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, tarp.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"


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
