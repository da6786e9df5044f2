import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tarp
from tarp.cli import main
from tarp.data import load_csv
from tarp.ensemble import fit_tarp, predict_tarp, sample_config_grid
from tarp.model_io import load_model
from tarp.screening import default_delta


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


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

    def test_binary_pipeline(self, workdir):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 8))
        y = (X[:, 0] > 0).astype(int)
        header = ",".join([f"x{i+1}" for i in range(8)] + ["y"])
        rows = [
            ",".join(repr(float(v)) for v in X[i]) + f",{y[i]}" for i in range(60)
        ]
        (workdir / "bin.csv").write_text(header + "\n" + "\n".join(rows) + "\n")
        assert run("fit", "--data", "bin.csv", "--replicates", "3",
                   "--out", "model.json") == 0
        assert run("predict", "--model", "model.json", "--data", "bin.csv",
                   "--out", "preds.csv") == 0
        lines = (workdir / "preds.csv").read_text().splitlines()
        assert lines[0] == "probability"
        values = np.loadtxt(workdir / "preds.csv", skiprows=1)
        assert np.all((values >= 0) & (values <= 1))


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

    def test_comments_and_blanks_ignored(self, workdir):
        (workdir / "cfg.txt").write_text("# comment\n\np = 35\n")
        run("simulate", "--scheme", "I", "--config", "cfg.txt",
            "--n", "40", "--out", "d.csv")
        assert load_csv("d.csv", "y").p == 35


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

    def test_numeric_error_classification(self):
        from tarp.cli import EXIT_NUMERIC, _classify_error
        from tarp.ensemble import ReplicateError
        from tarp.posterior import ConvergenceError

        assert _classify_error(ConvergenceError("x")) == EXIT_NUMERIC
        assert _classify_error(ReplicateError(3, ConvergenceError("x"))) == EXIT_NUMERIC
        assert _classify_error(np.linalg.LinAlgError("x")) == EXIT_NUMERIC

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
        ],
        ids=[
            "missing_psi", "gamma_length", "psi_range", "pcr_requested_m",
            "kind_binary_on_continuous", "kind_bogus", "no_replicates",
            "response_mean_text", "extra_list", "extra_options_list",
            "config_m", "config_psi", "config_variant_baseline",
            "config_variant_pcr", "negative_n_obs",
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
