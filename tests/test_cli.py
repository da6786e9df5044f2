import base64
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tarp
import tarp.cli
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
        write_binary_csv(workdir / "bin.csv")
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

    def test_pool_capped_at_replicate_count(self, workdir, record_pool):
        sizes = record_pool(tarp.cli)
        assert run("bench", "--scheme", "I", "--n", "40", "--test-size", "10",
                   "--p", "40", "--replicates", "3", "--ensemble-size", "2",
                   "--threads", "8", "--out-prefix", "cap") == 0
        assert sizes == [3]
        meta = json.loads((workdir / "cap_meta.json").read_text())
        assert meta["threads"] == 8  # the resolved option is still recorded


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
            "version_4",
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
