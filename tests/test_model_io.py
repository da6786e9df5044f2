import json

import numpy as np
import pytest

from tarp.data import DataError, Dataset
from tarp.ensemble import fit_tarp, predict_tarp, sample_config_grid
from tarp.model_io import load_model, save_model
from tarp.projection import sample_sparse_variant
from tarp.screening import InclusionVector


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
