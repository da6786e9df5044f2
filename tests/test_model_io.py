import base64
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tarp.cli import main
from tarp.data import DataError, Dataset
from tarp.ensemble import VARIANTS, fit_tarp, predict_tarp, sample_config_grid
from tarp.model_io import FORMAT_VERSION, load_model, save_model

from model_files import as_doc, as_signed, each_array, signed

# version 1 model files (p=20, 3 replicates) and the prediction CSVs written
# for their training rows while version 1 was the current format; the
# version 2 files are the same models re-saved while version 2 was current
DATA = Path(__file__).parent / "data"

# binary probabilities come from one product X W', which rounds differently
# from the per-replicate compression that wrote the committed CSV: they may
# differ by 2 ulp at 1.0; continuous CSVs must match byte for byte
BINARY_FIXTURE_TOL = 4.5e-16

# a version 3 ris_pcr model (p=20, 3 replicates, stored dense blocks) and the
# predictions written for its training rows when it was fitted. A change to
# how the compression GEMM is ordered may move them by rounding (at most
# ~5e-16 relative on the benchmark's ris_pcr fits), so they are compared
# relative to the largest value, not byte for byte
RIS_PCR_FIXTURE_RTOL = 1e-13

# a version 3 model fitted with --variant plain_rp_baseline (p=20, 5
# replicates) while the baseline was a variant of its own, and the
# predictions written for its training rows then: its configs name that
# variant and record a delta the fit never used
BASELINE_FIXTURE = DATA / "v3_plain_rp_baseline.json"

# version 4 re-saves of v1_continuous.json and v2_binary.json: signed files
# that must keep predicting the committed CSVs
V4_FIXTURES = {"continuous": DATA / "v4_continuous.tarp", "binary": DATA / "v4_binary.tarp"}


def assert_predicts_committed_csv(out, kind):
    committed = DATA / f"v1_{kind}_pred.csv"
    if kind == "continuous":
        assert out.read_bytes() == committed.read_bytes()
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
    configs = sample_config_grid(
        ds.n, ds.p, 3, variant=variant, delta=delta, master_seed=seed
    )
    return ds, fit_tarp(ds, configs, master_seed=seed, threads=threads)


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


def test_projection_rematerializes_exactly(tmp_path):
    ds, model = fitted_model("ris_rp", seed=4)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded, _ = load_model(path)
    for orig, back in zip(model.replicates, loaded.replicates):
        np.testing.assert_array_equal(
            orig.projection.toarray(), back.projection.toarray()
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
            (rep.projection, ("gamma", "indices", "dense_block", "signs")),
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
            # on a loaded gamma, this write once went through, and the v4
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
    expected |= {"dense_block"} if variant == "ris_pcr" else set()
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


def test_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(DataError, match="not a tarp-model"):
        load_model(path)


def test_rejects_corrupt_file(tmp_path):
    path = tmp_path / "corrupt.json"
    path.write_text("{not json")
    with pytest.raises(DataError, match="not a valid model file"):
        load_model(path)


@pytest.mark.parametrize(
    "value", ["1" * 5000, "[" * 100000 + "]" * 100000], ids=["digits", "nesting"]
)
def test_json_past_python_limits_is_data_error(tmp_path, value):
    # an integer past Python's digit limit for str -> int, and nesting past
    # the recursion limit, which json raises as ValueError and RecursionError
    path = tmp_path / "model.json"
    path.write_text('{"format": "tarp-model", "version": 3, "deep": ' + value + "}")
    with pytest.raises(DataError, match="model.json: "):
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


@pytest.mark.parametrize("kind", ["continuous", "binary"])
def test_v1_fixture_predicts_byte_identically(tmp_path, kind):
    assert json.loads((DATA / f"v1_{kind}.json").read_text())["version"] == 1
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(DATA / f"v1_{kind}.json"),
                 "--data", str(DATA / f"{kind}.csv"), "--out", str(out)]) == 0
    assert_predicts_committed_csv(out, kind)


def resave_round_trips(tmp_path, old, kind):
    """Re-save ``old`` in the current format; it must reload to the same
    bytes and predict the committed CSV. Returns the re-saved path."""
    model, extra = load_model(old)
    first, second = tmp_path / "current.tarp", tmp_path / "again.tarp"
    save_model(model, first, extra=extra)
    assert as_doc(first.read_bytes())["version"] == FORMAT_VERSION == 4
    loaded, extra_back = load_model(first)
    save_model(loaded, second, extra=extra_back)
    assert first.read_bytes() == second.read_bytes()
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(first),
                 "--data", str(DATA / f"{kind}.csv"), "--out", str(out)]) == 0
    assert_predicts_committed_csv(out, kind)
    return first


@pytest.mark.parametrize("kind", ["continuous", "binary"])
def test_v1_resaved_round_trips(tmp_path, kind):
    old = DATA / f"v1_{kind}.json"
    assert resave_round_trips(tmp_path, old, kind).stat().st_size < old.stat().st_size


@pytest.mark.parametrize("kind", ["continuous", "binary"])
def test_v2_fixture_predicts_byte_identically(tmp_path, kind):
    assert json.loads((DATA / f"v2_{kind}.json").read_text())["version"] == 2
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(DATA / f"v2_{kind}.json"),
                 "--data", str(DATA / f"{kind}.csv"), "--out", str(out)]) == 0
    assert_predicts_committed_csv(out, kind)


@pytest.mark.parametrize("kind", ["continuous", "binary"])
def test_v2_resaved_drops_only_the_hessians(tmp_path, kind):
    old = DATA / f"v2_{kind}.json"
    new = as_doc(resave_round_trips(tmp_path, old, kind).read_bytes())
    doc = json.loads(old.read_text())
    # versions 3 and 4 drop the binary Hessians; 4 stores the same arrays
    for rep in doc["replicates"]:
        rep["posterior"].pop("hessian_at_mode", None)
    doc["version"] = 4
    assert new == doc


def test_every_binary_fixture_version_predicts_the_same_bytes(tmp_path):
    # v1, v2 and their current re-saves hold the same modes and projections
    models = [DATA / "v1_binary.json", DATA / "v2_binary.json", V4_FIXTURES["binary"]]
    for old in models[:2]:
        model, extra = load_model(old)
        models.append(tmp_path / f"{old.stem}_as_v4.tarp")
        save_model(model, models[-1], extra=extra)
    outputs = []
    for index, path in enumerate(models):
        out = tmp_path / f"pred{index}.csv"
        assert main(["predict", "--model", str(path),
                     "--data", str(DATA / "binary.csv"), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert len(set(outputs)) == 1
    assert_predicts_committed_csv(tmp_path / "pred0.csv", "binary")


def test_ris_pcr_fixture_predicts_committed_csv(tmp_path):
    model = json.loads((DATA / "v3_ris_pcr.json").read_text())
    assert model["version"] == 3
    assert {rep["projection"]["variant"] for rep in model["replicates"]} == {"ris_pcr"}
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(DATA / "v3_ris_pcr.json"),
                 "--data", str(DATA / "continuous.csv"), "--out", str(out)]) == 0
    committed = DATA / "v3_ris_pcr_pred.csv"
    assert out.read_text().splitlines()[0] == committed.read_text().splitlines()[0]
    new, old = (np.loadtxt(f, delimiter=",", skiprows=1) for f in (out, committed))
    assert new.shape == old.shape == (40, 3)
    assert np.abs(new - old).max() <= RIS_PCR_FIXTURE_RTOL * np.abs(old).max()


def test_baseline_fixture_loads_as_ris_rp_at_delta_zero(tmp_path):
    doc = json.loads(BASELINE_FIXTURE.read_text())
    assert doc["version"] == 3
    assert {rep["config"]["variant"] for rep in doc["replicates"]} == {
        "plain_rp_baseline"
    }
    model, _ = load_model(BASELINE_FIXTURE)
    for rep in model.replicates:
        assert (rep.config.variant, rep.config.delta) == ("ris_rp", 0.0)
        assert rep.projection.p_gamma == model.p
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(BASELINE_FIXTURE),
                 "--data", str(DATA / "continuous.csv"), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "v3_plain_rp_baseline_pred.csv").read_bytes()


def test_v2_hessian_is_still_checked(tmp_path):
    doc = json.loads((DATA / "v2_binary.json").read_text())
    doc["replicates"][0]["posterior"]["hessian_at_mode"]["order"] += 1
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="hessian_at_mode has order"):
        load_model(path)


def test_v3_mode_shape_is_checked(tmp_path):
    _, model = fitted_model(seed=5, binary=True)
    path = tmp_path / "model.tarp"
    save_model(model, path)
    doc = as_doc(path.read_bytes())
    mode = doc["replicates"][0]["posterior"]["mode"]
    mode["shape"] = [mode["shape"][0] - 1]
    mode["data"] = base64.b64encode(base64.b64decode(mode["data"])[:-8]).decode()
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
            assert set(stored["posterior"]) == {
                "kind", "mode", "prior_variance", "grad_norm", "n_iter"
            }
            continue
        m = stored["projection"]["m"]
        triangle = stored["posterior"]["precision_inverse"]
        assert set(triangle) == {"order", "data"} and triangle["order"] == m
        values = np.frombuffer(base64.b64decode(triangle["data"]), dtype="<f8")
        assert values.size == m * (m + 1) // 2
        full = rep.posterior.precision_inverse
        np.testing.assert_array_equal(values, full[np.tril_indices(m)])


def test_laplace_prior_variance_must_be_positive(tmp_path):
    _, model = fitted_model(seed=5, binary=True)
    path = tmp_path / "model.tarp"
    save_model(model, path)
    doc = as_doc(path.read_bytes())
    doc["replicates"][1]["posterior"]["prior_variance"] = 0.0
    path.write_bytes(as_signed(doc))
    with pytest.raises(DataError, match="prior_variance must be a positive"):
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


@pytest.mark.parametrize("variant, binary", [("ris_rp", False), ("ris_pcr", False),
                                             ("ris_rp", True)])
def test_v4_layout(tmp_path, variant, binary):
    _, model = fitted_model(variant, seed=3, binary=binary)
    path = tmp_path / "model.tarp"
    save_model(model, path, extra={"options": {"data": "train.csv"}})
    data = path.read_bytes()
    header, body = data.split(b"\n", 1)
    assert header == b"tarp-model 4 sha256=" + hashlib.sha256(body).hexdigest().encode()
    text, payload = body.split(b"\n", 1)
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() == text
    assert doc["version"] == 4 and doc["extra"] == {"options": {"data": "train.csv"}}
    # the arrays tile the payload in the order the document names them
    fields = []
    each_array(doc, lambda field: fields.append(field) or field)
    end = 0
    for offset, nbytes in fields:
        assert offset == end and nbytes >= 0
        end += nbytes
    assert end == len(payload)
    # base64 would store the same arrays in 4/3 of the bytes
    assert len(data) < len(json.dumps(as_doc(data)))


@pytest.mark.parametrize("kind", ["continuous", "binary"])
def test_v4_fixture_predicts_committed_csv(tmp_path, kind):
    fixture = V4_FIXTURES[kind]
    old = DATA / ("v1_continuous.json" if kind == "continuous" else "v2_binary.json")
    model, extra = load_model(old)
    resaved = tmp_path / "resaved.tarp"
    save_model(model, resaved, extra=extra)
    # the format has not moved since the fixture was written
    assert resaved.read_bytes() == fixture.read_bytes()
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(fixture),
                 "--data", str(DATA / f"{kind}.csv"), "--out", str(out)]) == 0
    assert_predicts_committed_csv(out, kind)


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


def test_every_byte_flip_of_a_v4_file_is_data_error(tmp_path, capsys):
    data = V4_FIXTURES["binary"].read_bytes()
    header = data.index(b"\n") + 1
    tag = len(b"tarp-model ")
    path = tmp_path / "flipped.tarp"
    messages = set()
    # every byte inverted, and the header's bytes also with their low bit
    # flipped: 4 -> 5, a hex digit to another or to a non-digit
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
            # a file that does not start with "{" is read as signed, so a
            # damaged tag is a damaged header, not a bad JSON document
            assert message.endswith("malformed model header")
        else:
            assert HEADER_MESSAGE.search(message), message
        messages.add(message.split(": ", 1)[1])
    assert len(messages) > 3  # the header's flips fail in other ways


def test_every_truncation_of_a_v4_file_is_data_error(tmp_path, capsys):
    data = V4_FIXTURES["binary"].read_bytes()
    path = tmp_path / "truncated.tarp"
    for size in range(len(data)):
        path.write_bytes(data[:size])
        _fails_in_one_line(path, capsys, cli=size % 97 == 0)


@pytest.mark.parametrize(
    "data, message",
    [
        ([0.0, 8], "not an \\[offset, nbytes\\] pair of integers"),
        ([True, 8], "not an \\[offset, nbytes\\] pair of integers"),
        ([0, 8, 8], "not an \\[offset, nbytes\\] pair of integers"),
        ("AAAAAAAAAAA=", "not an \\[offset, nbytes\\] pair of integers"),
        ([-8, 8], "array data \\[-8, 8\\] lies outside the \\d+-byte payload"),
        ([0, -8], "array data \\[0, -8\\] lies outside"),
        ([0, 10**9], "array data \\[0, 1000000000\\] lies outside"),
        ([0, 12], "float data of 12 bytes is not a whole number of doubles"),
    ],
    ids=["float_offset", "bool_offset", "triple", "base64", "negative_offset",
         "negative_size", "past_the_end", "partial_double"],
)
def test_bad_array_reference_is_data_error(tmp_path, data, message):
    _, model = fitted_model(seed=2)
    path = tmp_path / "model.tarp"
    save_model(model, path)
    _, text, payload = path.read_bytes().split(b"\n", 2)
    doc = json.loads(text)
    doc["replicates"][0]["posterior"]["location"]["data"] = data
    path.write_bytes(signed(json.dumps(doc).encode() + b"\n" + payload))
    with pytest.raises(DataError, match=message):
        load_model(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda data: data.replace(b"tarp-model 4", b"tarp-model 5", 1),
         "unsupported model version 5$"),
        (lambda data: data.replace(b"sha256=", b"sha512=", 1), "malformed model header$"),
        (lambda data: data[: data.index(b"\n")], "malformed model header$"),
        (lambda data: signed(b'{"format":"tarp-model","version":4}'), "no payload line"),
    ],
    ids=["version_5", "other_digest", "header_only", "one_line_body"],
)
def test_bad_signed_file_is_data_error(tmp_path, edit, message):
    path = tmp_path / "model.tarp"
    path.write_bytes(edit(V4_FIXTURES["binary"].read_bytes()))
    with pytest.raises(DataError, match=message):
        load_model(path)
