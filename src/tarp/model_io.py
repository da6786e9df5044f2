"""Self-describing single-file model persistence.

A fitted ensemble is stored as JSON with float arrays embedded as base64 of
their little-endian bytes, so round trips are bit-exact and files are
byte-identical for identical fits (no timestamps, no compression headers).
Random projections are stored as (seed, gamma, tuning), which is all a
loaded model holds of them (the signs a fit keeps are not saved);
partial-SVD blocks are stored densely. The symmetric m x m
posterior matrices are stored as their lower triangle (version 1: in full).
Version 3 stores no binary Hessian; from older files it is checked, then
dropped. Older files may name the untargeted baseline as a config variant
of its own; it is decoded as ris_rp at delta 0, which is what it fitted.
Loading only decodes JSON into the arguments of the model's
constructors, which check every invariant, for fit and load alike; a
decode failure or a constructor's rejection raises DataError.
"""

from __future__ import annotations

import base64
import json
from dataclasses import replace

import numpy as np

from .data import DataError, StandardizationParams, not_utf8
from .ensemble import Replicate, TarpConfig, TarpModel
from .posterior import GaussianPosterior, LaplacePosterior
from .projection import RIS_PCR, RIS_RP, ProjectionMatrix, sample_ris_rp
from .screening import InclusionVector

FORMAT_TAG = "tarp-model"
FORMAT_VERSION = 3
READABLE_VERSIONS = (1, 2, 3)
# the untargeted baseline's name: a CLI variant, and the config variant of
# files fitted before it was resolved to ris_rp at delta 0
PLAIN_RP_BASELINE = "plain_rp_baseline"


def _integer(value, name: str) -> int:
    # a JSON integer only: json reads 2.5 and 1e999 as floats, true as a bool
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string")
    return value


def _strings(value, name: str) -> list[str]:
    # list() would also take a string's characters, or numbers, as names
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ValueError(f"{name} must be a list of strings")
    return value


def _real(value, name: str) -> float:
    # a JSON number, not a bool; float() of a huge integer raises OverflowError
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _encode_floats(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")


def _decode_floats(data: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(data), dtype="<f8").astype(np.float64)


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {"shape": list(arr.shape), "data": _encode_floats(arr)}


def _decode_array(obj: dict) -> np.ndarray:
    return _decode_floats(obj["data"]).reshape(obj["shape"])


def _encode_triangle(matrix: np.ndarray) -> dict:
    """A symmetric matrix as its lower triangle, row by row."""
    order = matrix.shape[0]
    return {"order": int(order), "data": _encode_floats(matrix[np.tril_indices(order)])}


def _decode_triangle(obj: dict, m: int, name: str) -> np.ndarray:
    order = _integer(obj["order"], "order")
    if order != m:
        raise ValueError(f"{name} has order {order!r}, expected m={m}")
    packed = _decode_floats(obj["data"])
    if packed.size != m * (m + 1) // 2:
        raise ValueError(
            f"{name} holds {packed.size} values, expected {m * (m + 1) // 2}"
        )
    rows, cols = np.tril_indices(m)
    full = np.empty((m, m))
    full[rows, cols] = packed
    full[cols, rows] = packed
    return full


def _decode_symmetric(obj: dict, m: int, version: int, name: str) -> np.ndarray:
    # version 1 stored the full matrix; its shape is checked where it is used
    if version == 1:
        return _decode_array(obj)
    return _decode_triangle(obj, m, name)


def _encode_bits(mask: np.ndarray) -> dict:
    mask = np.asarray(mask, dtype=bool)
    packed = np.packbits(mask)
    return {
        "length": int(mask.size),
        "data": base64.b64encode(packed.tobytes()).decode("ascii"),
    }


def _decode_bits(obj: dict, name: str) -> np.ndarray:
    length = _integer(obj["length"], "length")
    packed = np.frombuffer(base64.b64decode(obj["data"]), dtype=np.uint8)
    # unpackbits zero-pads a short buffer, so check the byte count first
    if length < 0 or packed.size != (length + 7) // 8:
        raise ValueError(f"{name} packs {packed.size} bytes for {length} bits")
    return np.unpackbits(packed, count=length).astype(bool)


def _encode_projection(proj: ProjectionMatrix) -> dict:
    out = {
        "variant": proj.variant,
        "m": int(proj.m),
        "requested_m": int(proj.requested_m),
        "gamma": _encode_bits(proj.gamma.gamma),
    }
    if proj.variant == RIS_PCR:
        out["block"] = _encode_array(proj.dense_block)
    else:
        out["seed"] = list(proj.seed)
        out["psi"] = float(proj.psi)
    return out


def _decode_projection(obj: dict) -> ProjectionMatrix:
    gamma = InclusionVector(_decode_bits(obj["gamma"], "gamma"))
    m = _integer(obj["m"], "m")
    requested_m = _integer(obj["requested_m"], "requested_m")
    if obj["variant"] == RIS_PCR:
        block = _decode_array(obj["block"])
        return ProjectionMatrix(RIS_PCR, m, gamma, requested_m, dense_block=block)
    if obj["variant"] == RIS_RP:
        seed = [_integer(entry, "seed") for entry in obj["seed"]]
        projection = sample_ris_rp(gamma, m, _real(obj["psi"], "psi"), seed)
        return replace(projection, requested_m=requested_m)
    raise ValueError(f"unknown projection variant {obj['variant']!r}")


def _encode_posterior(post) -> dict:
    if isinstance(post, GaussianPosterior):
        return {
            "kind": "gaussian",
            "location": _encode_array(post.location),
            "precision_inverse": _encode_triangle(post.precision_inverse),
            "residual_quadratic": float(post.residual_quadratic),
            "a_sigma": float(post.a_sigma),
            "b_sigma": float(post.b_sigma),
            "n_obs": int(post.n_obs),
        }
    if isinstance(post, LaplacePosterior):
        return {
            "kind": "laplace",
            "mode": _encode_array(post.mode),
            "prior_variance": float(post.prior_variance),
            "grad_norm": float(post.grad_norm),
            "n_iter": int(post.n_iter),
        }
    raise TypeError(f"cannot serialize posterior of type {type(post)!r}")


def _decode_posterior(obj: dict, m: int, version: int):
    if obj["kind"] == "gaussian":
        return GaussianPosterior(
            location=_decode_array(obj["location"]),
            precision_inverse=_decode_symmetric(
                obj["precision_inverse"], m, version, "precision_inverse"
            ),
            residual_quadratic=_real(obj["residual_quadratic"], "residual_quadratic"),
            a_sigma=_real(obj["a_sigma"], "a_sigma"),
            b_sigma=_real(obj["b_sigma"], "b_sigma"),
            n_obs=_integer(obj["n_obs"], "n_obs"),
        )
    if obj["kind"] == "laplace":
        # versions 1 and 2 also stored the Hessian at the mode; nothing reads it
        if version < 3:
            name = "hessian_at_mode"
            hessian = _decode_symmetric(obj[name], m, version, name)
            if hessian.shape != (m, m) or not np.isfinite(hessian).all():
                raise ValueError(f"{name} is not a finite {m} x {m} matrix")
        return LaplacePosterior(
            mode=_decode_array(obj["mode"]),
            prior_variance=_real(obj["prior_variance"], "prior_variance"),
            grad_norm=_real(obj["grad_norm"], "grad_norm"),
            n_iter=_integer(obj["n_iter"], "n_iter"),
        )
    raise ValueError(f"unknown posterior kind {obj['kind']!r}")


def _encode_config(cfg: TarpConfig) -> dict:
    return {
        "m": int(cfg.m),
        "psi": None if cfg.psi is None else float(cfg.psi),
        "delta": float(cfg.delta),
        "variant": cfg.variant,
        "seed": int(cfg.seed),
    }


def _decode_config(obj: dict, projection: ProjectionMatrix) -> TarpConfig:
    variant, delta = obj["variant"], _real(obj["delta"], "delta")
    if variant == PLAIN_RP_BASELINE:
        # the baseline projected every column and never read its delta
        if projection.gamma.count != projection.p:
            raise ValueError(f"{variant!r} config on a screened projection")
        variant, delta = RIS_RP, 0.0
    return TarpConfig(
        m=_integer(obj["m"], "m"),
        psi=None if obj["psi"] is None else _real(obj["psi"], "psi"),
        delta=delta,
        variant=variant,
        seed=_integer(obj["seed"], "seed"),
    )


def save_model(model: TarpModel, path, extra: dict | None = None) -> None:
    """Serialize a fitted model; ``extra`` holds caller metadata (no arrays)."""
    std = model.standardization
    doc = {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "response_kind": model.response_kind,
        "master_seed": int(model.master_seed),
        "column_names": list(model.column_names),
        "train_data_hash": model.train_data_hash,
        "a_sigma": float(model.a_sigma),
        "b_sigma": float(model.b_sigma),
        "sigma_theta2": float(model.sigma_theta2),
        "standardization": {
            "column_means": _encode_array(std.column_means),
            "column_scales": _encode_array(std.column_scales),
            "constant_mask": _encode_bits(std.constant_mask),
            "response_mean": std.response_mean,
        },
        "replicates": [
            {
                "config": _encode_config(rep.config),
                "projection": _encode_projection(rep.projection),
                "posterior": _encode_posterior(rep.posterior),
            }
            for rep in model.replicates
        ],
        "extra": extra or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))


def load_model(path) -> tuple[TarpModel, dict]:
    """Load a model file; returns (model, extra metadata)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(not_utf8(path, exc)) from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not a valid model file ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_TAG:
        raise DataError(f"{path}: not a {FORMAT_TAG} file")
    version = doc.get("version")
    if isinstance(version, bool) or version not in READABLE_VERSIONS:
        raise DataError(f"{path}: unsupported model version {version}")
    try:
        model = _decode_model(doc, int(version))
    except KeyError as exc:
        raise DataError(f"{path}: malformed model file (missing key {exc})") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed model file ({exc})") from exc
    extra = doc.get("extra", {})
    if not isinstance(extra, dict):
        raise DataError(f"{path}: malformed model file (extra is not an object)")
    return model, extra


def _decode_model(doc: dict, version: int) -> TarpModel:
    std_doc = doc["standardization"]
    mean = std_doc["response_mean"]
    replicates = []
    for rep in doc["replicates"]:
        projection = _decode_projection(rep["projection"])
        replicates.append(
            Replicate(
                config=_decode_config(rep["config"], projection),
                projection=projection,
                posterior=_decode_posterior(rep["posterior"], projection.m, version),
            )
        )
    return TarpModel(
        replicates=replicates,
        standardization=StandardizationParams(
            column_means=_decode_array(std_doc["column_means"]),
            column_scales=_decode_array(std_doc["column_scales"]),
            constant_mask=_decode_bits(std_doc["constant_mask"], "constant_mask"),
            response_mean=None if mean is None else _real(mean, "response_mean"),
        ),
        response_kind=doc["response_kind"],
        master_seed=_integer(doc["master_seed"], "master_seed"),
        column_names=_strings(doc["column_names"], "column_names"),
        train_data_hash=_string(doc["train_data_hash"], "train_data_hash"),
        a_sigma=_real(doc["a_sigma"], "a_sigma"),
        b_sigma=_real(doc["b_sigma"], "b_sigma"),
        sigma_theta2=_real(doc["sigma_theta2"], "sigma_theta2"),
    )
