import base64
import contextlib
import copy
import hashlib
import io
import math
import json
import re
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tarp.cli import main
from tarp.data import DataError, Dataset
from tarp.ensemble import VARIANTS, fit_tarp, predict_tarp, sample_config_grid
from tarp.model_io import load_model, save_model

from golden import assert_same_bytes
from model_files import as_doc, as_signed, each_array, signed
from oracles import dense_map, mixture_t_quantile_via_bisection

# model files (p=20) and the prediction CSVs written for their training rows;
# each *_pred.csv dates from the model's first format, and the v8_* files
# are the same models in the current one: each is its version 7 file with
# train_data_hash and every random map's requested_m deleted, re-signed, its
# payload unchanged
DATA = Path(__file__).parent / "data"

# binary probabilities come from one product X W', which rounds differently
# from the per-replicate compression that wrote the committed CSV: they may
# differ by 2 ulp at 1.0; continuous CSVs must match byte for byte
BINARY_FIXTURE_TOL = 4.5e-16

# a ris_pcr model (3 replicates, stored dense blocks) and the predictions
# written for its training rows when it was fitted. A change to how the
# compression GEMM is ordered may move them by rounding (at most ~5e-16
# relative on the benchmark's ris_pcr fits), so they are compared relative
# to the largest value, not byte for byte
RIS_PCR_FIXTURE_RTOL = 1e-13

# a model fitted with --variant plain_rp_baseline (5 replicates) while the
# baseline was a config variant of its own, re-saved with its configs as
# ris_rp at delta 0, and the predictions written for its training rows when
# it was fitted
BASELINE_FIXTURE = DATA / "v8_plain_rp_baseline.tarp"

# signed files that must keep predicting the committed CSVs
FIXTURES_BY_KIND = {"continuous": DATA / "v8_continuous.tarp",
                    "binary": DATA / "v8_binary.tarp"}

# signed files that `tarp fit` wrote, run in a directory holding the data
# file, with these options: a refit must write each byte for byte, at any
# thread count. The fit records its options, --out included, so each refit
# keeps the name its file was first written under;
# v8_binary.tarp differs from a refit at rounding level and is no golden file
GOLDEN_FITS = {
    "v8_continuous.tarp": ["--data", "continuous.csv", "--replicates", "3",
                           "--seed", "7", "--out", "v1_continuous.json"],
    "v8_binary_fit.tarp": ["--data", "binary.csv", "--replicates", "3",
                           "--seed", "11", "--out", "v4_binary_fit.tarp"],
    "v8_ris_pcr_fit.tarp": ["--data", "continuous.csv", "--variant", "ris_pcr",
                            "--replicates", "3", "--seed", "13",
                            "--out", "v4_ris_pcr_fit.tarp"],
}


def assert_predicts_committed_csv(out, kind):
    committed = DATA / f"v1_{kind}_pred.csv"
    if kind == "continuous":
        assert_same_bytes(out, committed)
        return
    new_lines = out.read_text().splitlines()
    old_lines = committed.read_text().splitlines()
    assert new_lines[0] == old_lines[0] == "probability"
    assert len(new_lines) == len(old_lines)
    new = np.array([float(v) for v in new_lines[1:]])
    old = np.array([float(v) for v in old_lines[1:]])
    assert np.abs(new - old).max() <= BINARY_FIXTURE_TOL


def fitted_model(variant="ris_rp", seed=0, binary=False, threads=1):
    # "plain_rp_baseline" is the untargeted baseline: ris_rp at delta 0
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((50, 20))
    if binary:
        y = (X[:, 0] > 0).astype(float)
        ds = Dataset(X, y, response_kind="binary")
    else:
        ds = Dataset(X, X[:, 0] + rng.standard_normal(50))
    delta = None
    if variant == "plain_rp_baseline":
        variant, delta = "ris_rp", 0.0
    configs = sample_config_grid(ds.n, ds.p, 3, variant=variant, master_seed=seed)
    return ds, fit_tarp(ds, configs, delta=delta, master_seed=seed, threads=threads)


@pytest.mark.parametrize("variant", ["ris_rp", "ris_pcr", "plain_rp_baseline"])
def test_roundtrip_bit_exact(tmp_path, variant):
    ds, model = fitted_model(variant)
    first = tmp_path / "model.json"
    second = tmp_path / "again.json"
    save_model(model, first)
    loaded, _ = load_model(first)
    save_model(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    a = predict_tarp(model, ds.design[:7], level=0.5)
    b = predict_tarp(loaded, ds.design[:7], level=0.5)
    np.testing.assert_array_equal(a.point, b.point)
    np.testing.assert_array_equal(a.lower, b.lower)


def test_non_default_priors_reach_prediction(tmp_path):
    # every committed fixture holds the default priors, so no byte pin would
    # notice a prediction that read the wrong ones
    ds, default = fitted_model(seed=9)
    a_sigma, b_sigma = 2.0, 3.0
    configs = sample_config_grid(ds.n, ds.p, 3, master_seed=9)
    model = fit_tarp(ds, configs, a_sigma=a_sigma, b_sigma=b_sigma, master_seed=9)
    X_new = ds.design[:7]
    pred = predict_tarp(model, X_new, level=0.8)
    # each replicate's predictive t from the paper's formulas, on a dense map:
    # df = n + 2a, s^2 = (r + 2b) / df, scale s^2 (1 + z' (Z'Z + I)^-1 z)
    Xs = model.standardization.transform_design(X_new)
    dfs, locations, scales = [], [], []
    for rep in model.replicates:
        post = rep.posterior
        Z = Xs @ dense_map(rep.projection).T
        df = ds.n + 2.0 * a_sigma
        s2 = (post.residual_quadratic + 2.0 * b_sigma) / df
        quad = np.einsum("ij,jk,ik->i", Z, post.precision_inverse, Z)
        dfs.append(df)
        locations.append(Z @ post.location)
        scales.append(s2 * (1.0 + quad))
    shift = model.standardization.response_mean
    for got, prob in ((pred.lower, 0.1), (pred.upper, 0.9)):
        expected = mixture_t_quantile_via_bisection(dfs, locations, scales, prob)
        np.testing.assert_allclose(got, expected + shift, rtol=0, atol=1e-6)
    # the priors move the intervals but not the posterior-mean point
    baseline = predict_tarp(default, X_new, level=0.8)
    np.testing.assert_allclose(pred.point, baseline.point, rtol=1e-12)
    assert not np.any(pred.lower == baseline.lower)
    assert not np.any(pred.upper == baseline.upper)
    path = tmp_path / "model.tarp"
    save_model(model, path)
    loaded, _ = load_model(path)
    again = predict_tarp(loaded, X_new, level=0.8)
    for name in ("point", "lower", "upper"):
        assert getattr(again, name).tobytes() == getattr(pred, name).tobytes()


def test_projection_rematerializes_exactly(tmp_path):
    ds, model = fitted_model("ris_rp", seed=4)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded, _ = load_model(path)
    # the fit unpacks its kept signs, the loaded map those drawn from its seed
    for orig, back in zip(model.replicates, loaded.replicates):
        assert orig.projection.signs is not None and back.projection.signs is None
        kept, drawn = orig.projection._block(), back.projection._block()
        assert kept.tobytes() == drawn.tobytes()
        np.testing.assert_array_equal(
            dense_map(back.projection)[:, back.projection.indices], drawn
        )


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "variant, binary",
    [("ris_rp", False), ("plain_rp_baseline", False), ("ris_rp", True)],
    ids=["ris_rp", "plain_rp_baseline", "ris_rp_binary"],
)
def test_kept_signs_predict_what_the_loaded_seeds_predict(
    tmp_path, variant, binary, threads
):
    # the fitted model rebuilds each block from its kept signs; its saved and
    # loaded copy keeps none and draws every block from the seed
    ds, model = fitted_model(variant, seed=6, binary=binary, threads=threads)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded, _ = load_model(path)
    assert all(rep.projection.signs is not None for rep in model.replicates)
    assert all(rep.projection.signs is None for rep in loaded.replicates)
    a = predict_tarp(model, ds.design, level=0.8)
    b = predict_tarp(loaded, ds.design, level=0.8)
    for name in ("probability",) if binary else ("point", "lower", "upper"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_binary_model_roundtrip(tmp_path):
    ds, model = fitted_model(seed=5, binary=True)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded, _ = load_model(path)
    a = predict_tarp(model, ds.design[:9])
    b = predict_tarp(loaded, ds.design[:9])
    np.testing.assert_array_equal(a.probability, b.probability)


def held_arrays(model) -> dict:
    """Every array a model holds, by where it sits."""
    std = model.standardization
    arrays = {name: getattr(std, name)
              for name in ("column_means", "column_scales", "constant_mask")}
    for i, rep in enumerate(model.replicates):
        for owner, names in (
            (rep.projection, ("gamma", "indices", "block", "signs")),
            (rep.posterior, ("location", "precision_inverse", "mode")),
        ):
            for name in names:
                if getattr(owner, name, None) is not None:
                    arrays[f"replicates[{i}].{name}"] = getattr(owner, name)
    return arrays


@pytest.mark.parametrize(
    "variant, binary",
    [("ris_rp", False), ("ris_pcr", False), ("ris_rp", True)],
    ids=["ris_rp", "ris_pcr", "ris_rp_binary"],
)
def test_every_array_of_a_model_is_read_only(tmp_path, variant, binary):
    ds, fitted = fitted_model(variant, seed=3, binary=binary)
    path = tmp_path / "model.tarp"
    save_model(fitted, path)
    loaded, _ = load_model(path)
    held = {}
    for source, model in (("fitted", fitted), ("loaded", loaded)):
        assert isinstance(model.replicates, tuple)
        arrays = held_arrays(model)
        for name, array in arrays.items():
            # on a loaded gamma, this write once went through, and the
            # continuous fixture then predicted points moved by up to 0.93
            with pytest.raises(ValueError, match="read-only"):
                array[:] = False
            # nor is any array it is a view of writable
            while isinstance(array, np.ndarray):
                assert not array.flags.writeable, name
                array = array.base
        held[source] = {name.rsplit(".", 1)[-1] for name in arrays}
    expected = {"column_means", "column_scales", "constant_mask", "gamma", "indices"}
    expected |= {"mode"} if binary else {"location", "precision_inverse"}
    expected |= {"block"} if variant == "ris_pcr" else set()
    # only a fit keeps the signs of its random blocks
    kept = {"signs"} if variant == "ris_rp" else set()
    assert held == {"fitted": expected | kept, "loaded": expected}
    # the loaded model still predicts what the fitted one does
    a = predict_tarp(fitted, ds.design)
    b = predict_tarp(loaded, ds.design)
    for name in ("probability",) if binary else ("point", "lower", "upper"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_extra_metadata_round_trips(tmp_path):
    _, model = fitted_model(seed=6)
    path = tmp_path / "model.json"
    save_model(model, path, extra={"options": {"target": "y"}})
    _, extra = load_model(path)
    assert extra == {"options": {"target": "y"}}


def test_rejects_a_document_that_is_not_an_object(tmp_path):
    path = tmp_path / "other.tarp"
    path.write_bytes(signed(b'["tarp-model", 5]\n'))
    with pytest.raises(DataError, match="the document is not an object"):
        load_model(path)


def test_rejects_corrupt_file(tmp_path):
    path = tmp_path / "corrupt.tarp"
    path.write_bytes(signed(b"{not json\n"))
    with pytest.raises(DataError, match="not a valid model file"):
        load_model(path)


@pytest.mark.parametrize(
    "value", ["1" * 5000, "[" * 100000 + "]" * 100000], ids=["digits", "nesting"]
)
def test_json_past_python_limits_is_data_error(tmp_path, value):
    # an integer past Python's digit limit for str -> int, and nesting past
    # the recursion limit, which json raises as ValueError and RecursionError
    path = tmp_path / "model.tarp"
    path.write_bytes(signed(
        b'{"deep": ' + value.encode() + b"}\n"
    ))
    with pytest.raises(DataError, match="model.tarp: not a valid model file"):
        load_model(path)


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot open"):
        load_model(tmp_path / "absent.json")


def assert_same_predictions(a, b):
    for name in ("point", "lower", "upper", "probability"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None)
        if x is not None:
            np.testing.assert_array_equal(x, y)


def test_ris_pcr_fixture_predicts_committed_csv(tmp_path):
    model, _ = load_model(DATA / "v8_ris_pcr.tarp")
    assert {rep.projection.variant for rep in model.replicates} == {"ris_pcr"}
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(DATA / "v8_ris_pcr.tarp"),
                 "--data", str(DATA / "continuous.csv"), "--out", str(out)]) == 0
    committed = DATA / "v3_ris_pcr_pred.csv"
    assert out.read_text().splitlines()[0] == committed.read_text().splitlines()[0]
    new, old = (np.loadtxt(f, delimiter=",", skiprows=1) for f in (out, committed))
    assert new.shape == old.shape == (40, 3)
    assert np.abs(new - old).max() <= RIS_PCR_FIXTURE_RTOL * np.abs(old).max()


def test_baseline_fixture_loads_as_ris_rp_at_delta_zero(tmp_path):
    model, _ = load_model(BASELINE_FIXTURE)
    assert model.delta == 0.0
    for rep in model.replicates:
        assert rep.projection.variant == "ris_rp"
        assert rep.projection.p_gamma == model.p
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(BASELINE_FIXTURE),
                 "--data", str(DATA / "continuous.csv"), "--out", str(out)]) == 0
    assert_same_bytes(out, DATA / "v3_plain_rp_baseline_pred.csv")


def test_mode_shape_is_checked(tmp_path):
    _, model = fitted_model(seed=5, binary=True)
    path = tmp_path / "model.tarp"
    save_model(model, path)
    doc = as_doc(path.read_bytes())
    mode = doc["replicates"][0]["posterior"]["mode"]
    mode["shape"] = [mode["shape"][0] - 1]
    mode["data"] = mode["data"][:-8]
    path.write_bytes(as_signed(doc))
    with pytest.raises(DataError, match="mode has shape"):
        load_model(path)


@pytest.mark.parametrize("binary", [False, True])
def test_triangles_hold_exactly_the_lower_half(tmp_path, binary):
    _, model = fitted_model("ris_rp", seed=8, binary=binary)
    path = tmp_path / "model.tarp"
    save_model(model, path)
    doc = as_doc(path.read_bytes())
    for rep, stored in zip(model.replicates, doc["replicates"]):
        if binary:
            # a binary replicate stores its mode and no matrix at all
            assert "hessian_at_mode" not in stored["posterior"]
            assert set(stored["posterior"]) == {"mode", "grad_norm", "n_iter"}
            continue
        m = stored["projection"]["m"]
        triangle = stored["posterior"]["precision_inverse"]
        assert set(triangle) == {"order", "data"} and triangle["order"] == m
        values = np.frombuffer(triangle["data"], dtype="<f8")
        assert values.size == m * (m + 1) // 2
        full = rep.posterior.precision_inverse
        np.testing.assert_array_equal(values, full[np.tril_indices(m)])


def test_laplace_prior_variance_must_be_positive(tmp_path):
    # the Laplace fits' prior variance is the model's sigma_theta2
    _, model = fitted_model(seed=5, binary=True)
    path = tmp_path / "model.tarp"
    save_model(model, path)
    doc = as_doc(path.read_bytes())
    doc["sigma_theta2"] = 0.0
    path.write_bytes(as_signed(doc))
    with pytest.raises(DataError, match="sigma_theta2 must be a positive"):
        load_model(path)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n=st.integers(8, 40),
    p=st.integers(2, 30),
    count=st.integers(1, 4),
    variant=st.sampled_from(VARIANTS),
    binary=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_roundtrip_property(tmp_path, n, p, count, variant, binary, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    signal = X[:, 0] + 0.5 * rng.standard_normal(n)
    if binary:
        y = (signal > 0).astype(float)
        y[:2] = [0.0, 1.0]
        ds = Dataset(X, y, response_kind="binary")
    else:
        ds = Dataset(X, signal)
    configs = sample_config_grid(n, p, count, variant=variant, master_seed=seed)
    model = fit_tarp(ds, configs, master_seed=seed)
    first, second = tmp_path / "model.json", tmp_path / "again.json"
    save_model(model, first)
    loaded, _ = load_model(first)
    save_model(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert_same_predictions(
        predict_tarp(model, X[:5], level=0.8), predict_tarp(loaded, X[:5], level=0.8)
    )


# the keys of format 8: each value is written once, the header holds the
# format's tag and version, and the document holds everything else
MODEL_KEYS = {"response_kind", "master_seed", "column_names", "delta", "a_sigma",
              "b_sigma", "sigma_theta2", "standardization", "replicates", "extra"}
PROJECTION_KEYS = {
    "ris_rp": {"variant", "m", "gamma", "seed", "psi"},
    "ris_pcr": {"variant", "m", "requested_m", "gamma", "block"},
}


@pytest.mark.parametrize("variant, binary", [("ris_rp", False), ("ris_pcr", False),
                                             ("ris_rp", True)])
def test_v8_layout(tmp_path, variant, binary):
    _, model = fitted_model(variant, seed=3, binary=binary)
    path = tmp_path / "model.tarp"
    save_model(model, path, extra={"options": {"data": "train.csv"}})
    data = path.read_bytes()
    header, body = data.split(b"\n", 1)
    assert header == b"tarp-model 8 sha256=" + hashlib.sha256(body).hexdigest().encode()
    text, payload = body.split(b"\n", 1)
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() == text
    # delta and n_obs (continuous only) are the model's, shared by its
    # replicates
    assert set(doc) == MODEL_KEYS | (set() if binary else {"n_obs"})
    assert doc["delta"] == model.delta
    assert doc["extra"] == {"options": {"data": "train.csv"}}
    assert set(doc["standardization"]) == {
        "column_means", "column_scales", "constant_mask", "response_mean"
    }
    posterior_keys = (
        {"mode", "grad_norm", "n_iter"} if binary
        else {"location", "precision_inverse", "residual_quadratic"}
    )
    for rep in doc["replicates"]:
        assert set(rep) == {"projection", "posterior"}
        assert set(rep["projection"]) == PROJECTION_KEYS[variant]
        assert set(rep["posterior"]) == posterior_keys
    # each array's data is its byte count, and the arrays lie back to back
    # in the order the document names them, filling the payload
    counts = []
    each_array(doc, lambda count: counts.append(count) or count)
    assert all(type(count) is int and count >= 0 for count in counts)
    assert sum(counts) == len(payload)


@pytest.mark.parametrize("kind", ["continuous", "binary"])
def test_fixture_predicts_committed_csv(tmp_path, kind):
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(FIXTURES_BY_KIND[kind]),
                 "--data", str(DATA / f"{kind}.csv"), "--out", str(out)]) == 0
    assert_predicts_committed_csv(out, kind)


# every committed model file
FIXTURES = sorted(path.name for path in DATA.glob("*.tarp"))


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_resaves_to_the_same_bytes(tmp_path, name):
    # the format has not moved since the fixture was written
    model, extra = load_model(DATA / name)
    resaved = tmp_path / "resaved.tarp"
    save_model(model, resaved, extra=extra)
    assert resaved.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_as_a_json_document_is_a_malformed_header(tmp_path, name):
    # the fixture as versions 1-3 stored it: one JSON document with base64
    # arrays, which no longer loads
    doc = as_doc((DATA / name).read_bytes())
    each_array(doc, lambda raw: base64.b64encode(raw).decode("ascii"))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="model.json: malformed model header$"):
        load_model(path)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("golden", sorted(GOLDEN_FITS))
def test_refit_writes_the_golden_file(tmp_path, monkeypatch, golden, threads):
    options = GOLDEN_FITS[golden]
    data = options[options.index("--data") + 1]
    (tmp_path / data).write_bytes((DATA / data).read_bytes())
    monkeypatch.chdir(tmp_path)
    assert main(["fit", *options, "--threads", str(threads)]) == 0
    assert_same_bytes(tmp_path / options[options.index("--out") + 1], DATA / golden)


def _fails_in_one_line(path, capsys, cli):
    # load_model raises DataError with a one-line message; through the CLI,
    # that is exit 2 and one line on stderr
    with pytest.raises(DataError) as info:
        load_model(path)
    assert "\n" not in str(info.value)
    if cli:
        capsys.readouterr()
        assert main(["predict", "--model", str(path), "--data",
                     str(DATA / "continuous.csv"), "--out", str(path) + ".csv"]) == 2
        assert capsys.readouterr().err == f"error: {info.value}\n"
    return str(info.value)


# what the header check reports: a damaged line, another version, or a
# digest that the rest of the file does not match
HEADER_MESSAGE = re.compile(
    r"(malformed model header|unsupported model version \S+"
    r"|file does not match its digest)$"
)


def test_every_byte_flip_of_a_model_file_is_data_error(tmp_path, capsys):
    data = FIXTURES_BY_KIND["binary"].read_bytes()
    header = data.index(b"\n") + 1
    tag = len(b"tarp-model ")
    path = tmp_path / "flipped.tarp"
    messages = set()
    # every byte inverted, and the header's bytes also with their low bit
    # flipped: 7 -> 6, a hex digit to another or to a non-digit
    flips = [(index, 0xFF) for index in range(len(data))]
    flips += [(index, 0x01) for index in range(header)]
    assert sum(index < header for index, _ in flips) == 170
    for index, mask in flips:
        flipped = bytearray(data)
        flipped[index] ^= mask
        path.write_bytes(flipped)
        # the CLI runs on every header byte and a sample of the body
        message = _fails_in_one_line(path, capsys, cli=index < header or index % 97 == 0)
        if index >= header:
            assert message.endswith("file does not match its digest")
        elif index < tag:
            # every file is read as signed, so a damaged tag is a damaged
            # header
            assert message.endswith("malformed model header")
        else:
            assert HEADER_MESSAGE.search(message), message
        messages.add(message.split(": ", 1)[1])
    assert len(messages) > 3  # the header's flips fail in other ways


def test_every_truncation_of_a_model_file_is_data_error(tmp_path, capsys):
    data = FIXTURES_BY_KIND["binary"].read_bytes()
    path = tmp_path / "truncated.tarp"
    for size in range(len(data)):
        path.write_bytes(data[:size])
        _fails_in_one_line(path, capsys, cli=size % 97 == 0)


@pytest.mark.parametrize(
    "count, message",
    [
        (8.0, "array data must be an integer, got 8.0"),
        (True, "array data must be an integer, got True"),
        (None, "array data must be an integer, got None"),
        ([0, 8], "array data must be an integer, got \\[0, 8\\]"),
        ("AAAAAAAAAAA=", "array data must be an integer, got 'AAAAAAAAAAA='"),
        (-8, "array data must be >= 0, got -8"),
        (10**9, "array data of 1000000000 bytes at byte \\d+ runs past the \\d+-byte payload"),
        (7, "float data of 7 bytes is not a whole number of doubles"),
    ],
    ids=["float", "bool", "null", "offset_pair", "base64", "negative", "past_the_end",
         "partial_double"],
)
def test_bad_array_reference_is_data_error(tmp_path, count, message):
    # column_means is the first array read into the model, so a short count
    # fails there before the arrays after it, now shifted, are read
    _, model = fitted_model(seed=2)
    path = tmp_path / "model.tarp"
    save_model(model, path)
    _, text, payload = path.read_bytes().split(b"\n", 2)
    doc = json.loads(text)
    doc["standardization"]["column_means"]["data"] = count
    path.write_bytes(signed(json.dumps(doc).encode() + b"\n" + payload))
    with pytest.raises(DataError, match=message):
        load_model(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda data: data.replace(b"tarp-model 8", b"tarp-model 6", 1),
         "unsupported model version 6$"),
        (lambda data: data.replace(b"tarp-model 8", b"tarp-model 7", 1),
         "unsupported model version 7$"),
        (lambda data: data.replace(b"tarp-model 8", b"tarp-model 9", 1),
         "unsupported model version 9$"),
        (lambda data: data.replace(b"sha256=", b"sha512=", 1), "malformed model header$"),
        (lambda data: data[: data.index(b"\n")], "malformed model header$"),
        (lambda data: signed(b"{}"), "no payload line"),
    ],
    ids=["version_6", "version_7", "version_9", "other_digest", "header_only", "one_line_body"],
)
def test_bad_signed_file_is_data_error(tmp_path, edit, message):
    path = tmp_path / "model.tarp"
    path.write_bytes(edit(FIXTURES_BY_KIND["binary"].read_bytes()))
    with pytest.raises(DataError, match=message):
        load_model(path)


# what save_model never writes is refused, though the file is signed


def test_bytes_after_the_last_array_are_data_error(tmp_path):
    body = FIXTURES_BY_KIND["binary"].read_bytes().split(b"\n", 1)[1]
    path = tmp_path / "model.tarp"
    path.write_bytes(signed(body + bytes(16)))
    with pytest.raises(DataError, match=r"end at byte \d+ of the \d+-byte payload\)$"):
        load_model(path)


def test_a_count_one_byte_too_long_is_data_error(tmp_path):
    # the first replicate's gamma claims one byte more than it packs: every
    # array after it starts a byte late, and the last runs past the payload
    _, text, payload = FIXTURES_BY_KIND["binary"].read_bytes().split(b"\n", 2)
    doc = json.loads(text)
    gamma = doc["replicates"][0]["projection"]["gamma"]
    assert gamma["data"] == 3
    gamma["data"] += 1
    path = tmp_path / "model.tarp"
    path.write_bytes(signed(json.dumps(doc).encode() + b"\n" + payload))
    with pytest.raises(DataError, match=rf"runs past the {len(payload)}-byte payload\)$"):
        load_model(path)


def test_gamma_pad_bits_are_data_error(tmp_path):
    # packbits pads with zeros: a set pad bit once loaded, and the model
    # then re-saved to other bytes
    doc = as_doc(FIXTURES_BY_KIND["binary"].read_bytes())
    gamma = doc["replicates"][0]["projection"]["gamma"]
    assert (gamma["length"], len(gamma["data"])) == (20, 3)
    gamma["data"] = gamma["data"][:2] + bytes([gamma["data"][2] | 0x01])
    path = tmp_path / "model.tarp"
    path.write_bytes(as_signed(doc))
    with pytest.raises(DataError, match=r"gamma sets pad bits past its 20 bits\)$"):
        load_model(path)


def test_a_document_without_extra_is_data_error(tmp_path, capsys):
    doc = as_doc(FIXTURES_BY_KIND["continuous"].read_bytes())
    del doc["extra"]
    path = tmp_path / "model.tarp"
    path.write_bytes(as_signed(doc))
    message = _fails_in_one_line(path, capsys, cli=True)
    assert message.endswith("malformed model file (missing key 'extra')")


def objects_below(node, path=()):
    """The path of every object in a document, extra's contents aside."""
    if isinstance(node, dict):
        yield path
        for key, value in node.items():
            if path or key != "extra":
                yield from objects_below(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from objects_below(value, (*path, index))


def test_every_key_of_every_object_is_required_and_alone(tmp_path):
    # in every fixture, each key of each object is deleted in turn, and each
    # object gains a stale sibling key; save_model writes neither, and
    # loading must refuse each edit
    path = tmp_path / "model.tarp"
    edits = 0
    for name in FIXTURES:
        doc = as_doc((DATA / name).read_bytes())
        for where in objects_below(doc):
            keys = list(reduce(getitem, where, doc))
            cases = [(key, f"missing key '{key}'\\)$") for key in keys]
            cases.append((None, "has unknown keys \\['stale'\\]\\)$"))
            for key, message in cases:
                edited = copy.deepcopy(doc)
                obj = reduce(getitem, where, edited)
                if key is None:
                    obj["stale"] = 0
                else:
                    del obj[key]
                path.write_bytes(as_signed(edited))
                with pytest.raises(DataError, match=message):
                    load_model(path)
                edits += 1
    # one edit per key and one per object of the fixtures: the count moves
    # only with the format
    assert edits == 594


def leaves_below(node, path=()):
    """The path of every value in a document that is neither an object nor
    a list (an array's bytes included), extra's contents aside."""
    if isinstance(node, dict):
        for key, value in node.items():
            if path or key != "extra":
                yield from leaves_below(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from leaves_below(value, (*path, index))
    else:
        yield path


# a value of each JSON type, for a leaf that is retyped
_RETYPED = st.one_of(
    st.integers(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4), st.booleans(), st.none(),
    st.lists(st.integers(-2, 25), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)


def _scaled(value, k: int):
    # an integer stays one when k >= 0; a float past its range is inf
    if isinstance(value, int) and k >= 0:
        return value * 10**k
    return value * float(f"1e{k}")


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_re_signed_retype_or_value_edit_loads_or_is_data_error(data):
    # ROADMAP item 4: one leaf of a fixture's document is retyped, scaled by
    # a power of ten or made NaN or infinite, and the document re-signed, so
    # the digest no longer stops it. Loading returns a model or raises
    # DataError; predicting the fixture's rows exits 0 with finite outputs,
    # or 2 with one line, never 1 or 3 and never a traceback
    name = data.draw(st.sampled_from(FIXTURES), label="fixture")
    doc = as_doc((DATA / name).read_bytes())
    where = data.draw(st.sampled_from(list(leaves_below(doc))), label="leaf")
    value = reduce(getitem, where, doc)
    edits = ["retype", "non_finite"]
    if type(value) in (int, float):
        edits.append("scale")
    edit = data.draw(st.sampled_from(edits), label="edit")
    if edit == "retype":
        new = data.draw(_RETYPED, label="value")
    elif edit == "scale":
        new = _scaled(value, data.draw(st.integers(-400, 400), label="k"))
    else:
        new = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="value")
    reduce(getitem, where[:-1], doc)[where[-1]] = new
    kind = "binary" if "binary" in name else "continuous"
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "model.tarp"), Path(tmp, "pred.csv")
        path.write_bytes(as_signed(doc))
        try:
            load_model(path)
        except DataError as exc:
            assert "\n" not in str(exc)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["predict", "--model", str(path), "--data",
                         str(DATA / f"{kind}.csv"), "--out", str(out)])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
            assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()
        else:
            assert code == 2 and len(lines) == 1 and lines[0].startswith("error: ")
            assert not out.exists()
