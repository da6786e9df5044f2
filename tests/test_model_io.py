import base64
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tarp.cli import main
from tarp.data import DataError, Dataset
from tarp.ensemble import VARIANTS, fit_tarp, predict_tarp, sample_config_grid
from tarp.model_io import FORMAT_VERSION, load_model, save_model
from tarp.projection import sample_sparse_variant
from tarp.screening import InclusionVector

# version 1 model files (p=20, 3 replicates) and the prediction CSVs written
# for their training rows while version 1 was the current format; the
# version 2 files are the same models re-saved while version 2 was current
DATA = Path(__file__).parent / "data"

# binary probabilities come from one product X W', which rounds differently
# from the per-replicate compression that wrote the committed CSV: they may
# differ by 2 ulp at 1.0; continuous CSVs must match byte for byte
BINARY_FIXTURE_TOL = 4.5e-16


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


def fitted_model(variant="ris_rp", seed=0, binary=False):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((50, 20))
    if binary:
        y = (X[:, 0] > 0).astype(float)
        ds = Dataset(X, y, response_kind="binary")
    else:
        ds = Dataset(X, X[:, 0] + rng.standard_normal(50))
    configs = sample_config_grid(ds.n, ds.p, 3, variant=variant, master_seed=seed)
    return ds, fit_tarp(ds, configs, master_seed=seed)


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


def test_sparse_variant_roundtrip(tmp_path):
    from tarp.model_io import _decode_projection, _encode_projection

    gamma = InclusionVector(np.random.default_rng(0).random(30) < 0.6)
    proj = sample_sparse_variant(gamma, m=4, kappa=0.5, n=64, seed=(1, 2))
    back = _decode_projection(
        json.loads(json.dumps(_encode_projection(proj))), p=30
    )
    np.testing.assert_array_equal(proj.toarray(), back.toarray())


def test_binary_model_roundtrip(tmp_path):
    ds, model = fitted_model(seed=5, binary=True)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded, _ = load_model(path)
    a = predict_tarp(model, ds.design[:9])
    b = predict_tarp(loaded, ds.design[:9])
    np.testing.assert_array_equal(a.probability, b.probability)


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
    first, second = tmp_path / "current.json", tmp_path / "again.json"
    save_model(model, first, extra=extra)
    assert json.loads(first.read_text())["version"] == FORMAT_VERSION == 3
    loaded, extra_back = load_model(first)
    save_model(loaded, second, extra=extra_back)
    assert first.read_bytes() == second.read_bytes()
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(first),
                 "--data", str(DATA / f"{kind}.csv"), "--out", str(out)]) == 0
    assert_predicts_committed_csv(out, kind)
    return first


@pytest.mark.parametrize("kind", ["continuous", "binary"])
def test_v1_resaved_as_v2_round_trips(tmp_path, kind):
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
def test_v2_resaved_as_v3_round_trips(tmp_path, kind):
    old = DATA / f"v2_{kind}.json"
    new = json.loads(resave_round_trips(tmp_path, old, kind).read_text())
    doc = json.loads(old.read_text())
    # version 3 only drops the binary Hessians
    for rep in doc["replicates"]:
        rep["posterior"].pop("hessian_at_mode", None)
    doc["version"] = 3
    assert new == doc


def test_every_binary_fixture_version_predicts_the_same_bytes(tmp_path):
    # v1, v2 and their v3 re-saves hold the same modes and projections
    models = [DATA / "v1_binary.json", DATA / "v2_binary.json"]
    for old in list(models):
        model, extra = load_model(old)
        models.append(tmp_path / f"{old.stem}_as_v3.json")
        save_model(model, models[-1], extra=extra)
    outputs = []
    for index, path in enumerate(models):
        out = tmp_path / f"pred{index}.csv"
        assert main(["predict", "--model", str(path),
                     "--data", str(DATA / "binary.csv"), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert len(set(outputs)) == 1
    assert_predicts_committed_csv(tmp_path / "pred0.csv", "binary")


def test_v2_hessian_is_still_checked(tmp_path):
    doc = json.loads((DATA / "v2_binary.json").read_text())
    doc["replicates"][0]["posterior"]["hessian_at_mode"]["order"] += 1
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="hessian_at_mode has order"):
        load_model(path)


def test_v3_mode_shape_is_checked(tmp_path):
    _, model = fitted_model(seed=5, binary=True)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    mode = doc["replicates"][0]["posterior"]["mode"]
    mode["shape"] = [mode["shape"][0] - 1]
    mode["data"] = base64.b64encode(base64.b64decode(mode["data"])[:-8]).decode()
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="mode has shape"):
        load_model(path)


@pytest.mark.parametrize("binary", [False, True])
def test_triangles_hold_exactly_the_lower_half(tmp_path, binary):
    _, model = fitted_model("ris_rp", seed=8, binary=binary)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
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
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["replicates"][1]["posterior"]["prior_variance"] = 0.0
    path.write_text(json.dumps(doc))
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
