"""Self-describing single-file model persistence.

A fitted ensemble is stored as JSON with float arrays embedded as base64 of
their little-endian bytes, so round trips are bit-exact and files are
byte-identical for identical fits (no timestamps, no compression headers).
Random projections are stored as (seed, gamma, tuning), which is all a
loaded model holds of them (the signs a fit keeps are not saved);
partial-SVD blocks are stored densely. The symmetric m x m
posterior matrices are stored as their lower triangle (version 1: in full).
Version 3 stores no binary Hessian; from older files it is checked, then
dropped. Every decode failure, including a non-finite or out-of-range
number, raises DataError.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

from .data import RESPONSE_KINDS, DataError, StandardizationParams, not_utf8
from .ensemble import PLAIN_RP_BASELINE, Replicate, TarpConfig, TarpModel
from .posterior import GaussianPosterior, LaplacePosterior, positive_finite
from .projection import RIS_PCR, RIS_RP, ProjectionMatrix, sample_ris_rp
from .screening import InclusionVector

FORMAT_TAG = "tarp-model"
FORMAT_VERSION = 3
READABLE_VERSIONS = (1, 2, 3)

# the posterior kind fitted for each response kind
_POSTERIOR_KINDS = {"continuous": "gaussian", "binary": "laplace"}


def _encode_floats(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")


def _decode_floats(data: str, name: str) -> np.ndarray:
    raw = base64.b64decode(data)
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} holds non-finite values")
    return arr


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {"shape": list(arr.shape), "data": _encode_floats(arr)}


def _decode_array(obj: dict, name: str) -> np.ndarray:
    return _decode_floats(obj["data"], name).reshape(obj["shape"])


def _encode_triangle(matrix: np.ndarray) -> dict:
    """A symmetric matrix as its lower triangle, row by row."""
    order = matrix.shape[0]
    return {"order": int(order), "data": _encode_floats(matrix[np.tril_indices(order)])}


def _decode_triangle(obj: dict, m: int, name: str) -> np.ndarray:
    order = obj["order"]
    if order != m:
        raise ValueError(f"{name} has order {order!r}, expected m={m}")
    packed = _decode_floats(obj["data"], name)
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
    # version 1 stored the full matrix; its shape is checked by the caller
    if version == 1:
        return _decode_array(obj, name)
    return _decode_triangle(obj, m, name)


def _nonnegative(value, name: str) -> float:
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
    return value


def _encode_bits(mask: np.ndarray) -> dict:
    mask = np.asarray(mask, dtype=bool)
    packed = np.packbits(mask)
    return {
        "length": int(mask.size),
        "data": base64.b64encode(packed.tobytes()).decode("ascii"),
    }


def _decode_bits(obj: dict, name: str) -> np.ndarray:
    length = int(obj["length"])
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


def _decode_projection(obj: dict, p: int) -> ProjectionMatrix:
    gamma = InclusionVector(_decode_bits(obj["gamma"], "gamma"))
    if gamma.gamma.size != p:
        raise ValueError(f"gamma has length {gamma.gamma.size}, expected {p}")
    variant = obj["variant"]
    m = int(obj["m"])
    if variant == RIS_PCR:
        block = _decode_array(obj["block"], "block")
        if m < 1 or block.shape != (m, gamma.count):
            raise ValueError(
                f"block shape {block.shape} does not match m={m}, "
                f"p_gamma={gamma.count}"
            )
        requested_m = int(obj["requested_m"])
        if requested_m < m:
            raise ValueError(f"requested_m={requested_m} is below m={m}")
        return ProjectionMatrix(variant=RIS_PCR, m=m, gamma=gamma, dense_block=block,
                                requested_m=requested_m)
    # the sampler checks m, psi and the seed
    if variant == RIS_RP:
        return sample_ris_rp(gamma, m, float(obj["psi"]), obj["seed"])
    raise ValueError(f"unknown projection variant {variant!r}")


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
        location = _decode_array(obj["location"], "location")
        precision_inverse = _decode_symmetric(
            obj["precision_inverse"], m, version, "precision_inverse"
        )
        _check_shapes(m, location, precision_inverse)
        n = int(obj["n_obs"])
        if n < 1:
            raise ValueError(f"n_obs must be >= 1, got {n}")
        return GaussianPosterior(
            location=location,
            precision_inverse=precision_inverse,
            residual_quadratic=_nonnegative(
                obj["residual_quadratic"], "residual_quadratic"
            ),
            a_sigma=positive_finite(obj["a_sigma"], "a_sigma"),
            b_sigma=positive_finite(obj["b_sigma"], "b_sigma"),
            n_obs=n,
        )
    if obj["kind"] == "laplace":
        mode = _decode_array(obj["mode"], "mode")
        # versions 1 and 2 also stored the Hessian at the mode; nothing reads it
        if version < 3:
            hessian = _decode_symmetric(
                obj["hessian_at_mode"], m, version, "hessian_at_mode"
            )
            _check_shapes(m, mode, hessian)
        elif mode.shape != (m,):
            raise ValueError(f"mode has shape {mode.shape}, expected ({m},)")
        return LaplacePosterior(
            mode=mode,
            prior_variance=positive_finite(obj["prior_variance"], "prior_variance"),
            grad_norm=_nonnegative(obj["grad_norm"], "grad_norm"),
            n_iter=int(obj["n_iter"]),
        )
    raise ValueError(f"unknown posterior kind {obj['kind']!r}")


def _check_shapes(m: int, vector: np.ndarray, matrix: np.ndarray) -> None:
    if vector.shape != (m,) or matrix.shape != (m, m):
        raise ValueError(
            f"posterior shapes {vector.shape}, {matrix.shape} do not match m={m}"
        )


def _check_config(cfg: TarpConfig, projection: ProjectionMatrix) -> None:
    # the baseline projects every column with a ris_rp map
    baseline = cfg.variant == PLAIN_RP_BASELINE
    expected = RIS_RP if baseline else cfg.variant
    if projection.variant != expected or (
        baseline and projection.gamma.count != projection.p
    ):
        raise ValueError(
            f"config variant {cfg.variant!r} does not match its "
            f"{projection.variant!r} projection"
        )
    if cfg.m != projection.requested_m:
        raise ValueError(
            f"config m={cfg.m} does not match the projection's "
            f"requested_m={projection.requested_m}"
        )
    if cfg.psi != projection.psi:
        raise ValueError(
            f"config psi={cfg.psi} does not match the projection's psi={projection.psi}"
        )


def _decode_response_mean(value, response_kind: str):
    if response_kind == "binary":
        if value is not None:
            raise ValueError("a binary model has no response_mean")
        return None
    finite = isinstance(value, (int, float)) and math.isfinite(value)
    if isinstance(value, bool) or not finite:
        raise ValueError(f"response_mean must be a finite number, got {value!r}")
    return float(value)


def _encode_config(cfg: TarpConfig) -> dict:
    return {
        "m": int(cfg.m),
        "psi": None if cfg.psi is None else float(cfg.psi),
        "delta": float(cfg.delta),
        "variant": cfg.variant,
        "seed": int(cfg.seed),
    }


def _decode_config(obj: dict) -> TarpConfig:
    return TarpConfig(
        m=int(obj["m"]),
        psi=None if obj["psi"] is None else float(obj["psi"]),
        delta=float(obj["delta"]),
        variant=obj["variant"],
        seed=int(obj["seed"]),
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
        # OverflowError: int() of a number too large for a float, read as inf
        raise DataError(f"{path}: malformed model file ({exc})") from exc
    extra = doc.get("extra", {})
    if not isinstance(extra, dict):
        raise DataError(f"{path}: malformed model file (extra is not an object)")
    return model, extra


def _decode_model(doc: dict, version: int) -> TarpModel:
    column_names = list(doc["column_names"])
    p = len(column_names)
    response_kind = doc["response_kind"]
    if response_kind not in RESPONSE_KINDS:
        raise ValueError(f"unknown response_kind {response_kind!r}")
    std_doc = doc["standardization"]
    params = StandardizationParams(
        column_means=_decode_array(std_doc["column_means"], "column_means"),
        column_scales=_decode_array(std_doc["column_scales"], "column_scales"),
        constant_mask=_decode_bits(std_doc["constant_mask"], "constant_mask"),
        response_mean=_decode_response_mean(std_doc["response_mean"], response_kind),
    )
    for name in ("column_means", "column_scales", "constant_mask"):
        if getattr(params, name).shape != (p,):
            raise ValueError(f"{name} does not have {p} entries")
    if not (params.column_scales > 0.0).all():
        raise ValueError("column_scales must be positive")
    if not doc["replicates"]:
        raise ValueError("model has no replicates")
    replicates = []
    for rep in doc["replicates"]:
        projection = _decode_projection(rep["projection"], p)
        config = _decode_config(rep["config"])
        _check_config(config, projection)
        kind = rep["posterior"]["kind"]
        if kind != _POSTERIOR_KINDS[response_kind]:
            raise ValueError(f"{kind!r} posterior in a {response_kind} model")
        replicates.append(
            Replicate(
                config=config,
                projection=projection,
                posterior=_decode_posterior(rep["posterior"], projection.m, version),
            )
        )
    return TarpModel(
        replicates=replicates,
        standardization=params,
        response_kind=response_kind,
        master_seed=int(doc["master_seed"]),
        column_names=column_names,
        train_data_hash=doc["train_data_hash"],
        a_sigma=positive_finite(doc["a_sigma"], "a_sigma"),
        b_sigma=positive_finite(doc["b_sigma"], "b_sigma"),
        sigma_theta2=positive_finite(doc["sigma_theta2"], "sigma_theta2"),
    )
