"""Self-describing single-file model persistence.

A fitted ensemble is stored as JSON with float arrays embedded as base64 of
their little-endian bytes, so round trips are bit-exact and files are
byte-identical for identical fits (no timestamps, no compression headers).
Random projections are stored as (seed, gamma, tuning), which is also their
in-memory form; partial-SVD blocks are stored densely. Every decode failure
raises DataError.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from .data import DataError, StandardizationParams
from .ensemble import Replicate, TarpConfig, TarpModel
from .posterior import GaussianPosterior, LaplacePosterior
from .projection import (
    RIS_PCR,
    RIS_RP,
    SPARSE_VARIANT,
    ProjectionMatrix,
    sample_ris_rp,
    sample_sparse_variant,
)
from .screening import InclusionVector

FORMAT_TAG = "tarp-model"
FORMAT_VERSION = 1


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
    }


def _decode_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return arr.reshape(obj["shape"])


def _encode_bits(mask: np.ndarray) -> dict:
    mask = np.asarray(mask, dtype=bool)
    packed = np.packbits(mask)
    return {
        "length": int(mask.size),
        "data": base64.b64encode(packed.tobytes()).decode("ascii"),
    }


def _decode_bits(obj: dict) -> np.ndarray:
    packed = np.frombuffer(base64.b64decode(obj["data"]), dtype=np.uint8)
    return np.unpackbits(packed, count=obj["length"]).astype(bool)


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
        if proj.variant == RIS_RP:
            out["psi"] = float(proj.psi)
        else:
            out["kappa"] = float(proj.kappa)
            out["n_obs"] = int(proj.n_obs)
    return out


def _decode_projection(obj: dict, p: int) -> ProjectionMatrix:
    gamma = InclusionVector(_decode_bits(obj["gamma"]))
    if gamma.gamma.size != p:
        raise ValueError(f"gamma has length {gamma.gamma.size}, expected {p}")
    variant = obj["variant"]
    m = int(obj["m"])
    if variant == RIS_PCR:
        block = _decode_array(obj["block"])
        if m < 1 or block.shape != (m, gamma.count):
            raise ValueError(
                f"block shape {block.shape} does not match m={m}, "
                f"p_gamma={gamma.count}"
            )
        requested_m = int(obj["requested_m"])
        if requested_m < m:
            raise ValueError(f"requested_m={requested_m} is below m={m}")
        return ProjectionMatrix(
            variant=RIS_PCR,
            m=m,
            p=p,
            gamma=gamma,
            dense_block=block,
            requested_m=requested_m,
        )
    # the samplers check m, psi / kappa and the seed
    if variant == RIS_RP:
        return sample_ris_rp(gamma, m, float(obj["psi"]), obj["seed"])
    if variant == SPARSE_VARIANT:
        return sample_sparse_variant(
            gamma, m, float(obj["kappa"]), int(obj["n_obs"]), obj["seed"]
        )
    raise ValueError(f"unknown projection variant {variant!r}")


def _encode_posterior(post) -> dict:
    if isinstance(post, GaussianPosterior):
        return {
            "kind": "gaussian",
            "location": _encode_array(post.location),
            "precision_inverse": _encode_array(post.precision_inverse),
            "residual_quadratic": float(post.residual_quadratic),
            "a_sigma": float(post.a_sigma),
            "b_sigma": float(post.b_sigma),
            "n_obs": int(post.n_obs),
        }
    if isinstance(post, LaplacePosterior):
        return {
            "kind": "laplace",
            "mode": _encode_array(post.mode),
            "hessian_at_mode": _encode_array(post.hessian_at_mode),
            "prior_variance": float(post.prior_variance),
            "grad_norm": float(post.grad_norm),
            "n_iter": int(post.n_iter),
        }
    raise TypeError(f"cannot serialize posterior of type {type(post)!r}")


def _decode_posterior(obj: dict, m: int):
    if obj["kind"] == "gaussian":
        location = _decode_array(obj["location"])
        precision_inverse = _decode_array(obj["precision_inverse"])
        _check_shapes(m, location, precision_inverse)
        residual_quadratic = float(obj["residual_quadratic"])
        a_sigma = float(obj["a_sigma"])
        b_sigma = float(obj["b_sigma"])
        n = int(obj["n_obs"])
        df = n + 2.0 * a_sigma
        # same expression as the fit, so the reconstruction is bit-exact
        scale = (residual_quadratic + 2.0 * b_sigma) / df * precision_inverse
        return GaussianPosterior(
            location=location,
            precision_inverse=precision_inverse,
            scale=scale,
            df=df,
            ig_shape=a_sigma + 0.5 * n,
            ig_rate=b_sigma + 0.5 * residual_quadratic,
            residual_quadratic=residual_quadratic,
            a_sigma=a_sigma,
            b_sigma=b_sigma,
            n_obs=n,
        )
    if obj["kind"] == "laplace":
        mode = _decode_array(obj["mode"])
        hessian = _decode_array(obj["hessian_at_mode"])
        _check_shapes(m, mode, hessian)
        return LaplacePosterior(
            mode=mode,
            hessian_at_mode=hessian,
            prior_variance=float(obj["prior_variance"]),
            grad_norm=float(obj["grad_norm"]),
            n_iter=int(obj["n_iter"]),
        )
    raise ValueError(f"unknown posterior kind {obj['kind']!r}")


def _check_shapes(m: int, vector: np.ndarray, matrix: np.ndarray) -> None:
    if vector.shape != (m,) or matrix.shape != (m, m):
        raise ValueError(
            f"posterior shapes {vector.shape}, {matrix.shape} do not match m={m}"
        )


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
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not a valid model file ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_TAG:
        raise DataError(f"{path}: not a {FORMAT_TAG} file")
    if doc.get("version") != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported model version {doc.get('version')}")
    try:
        model = _decode_model(doc)
    except KeyError as exc:
        raise DataError(f"{path}: malformed model file (missing key {exc})") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed model file ({exc})") from exc
    return model, doc.get("extra", {})


def _decode_model(doc: dict) -> TarpModel:
    column_names = list(doc["column_names"])
    p = len(column_names)
    std_doc = doc["standardization"]
    params = StandardizationParams(
        column_means=_decode_array(std_doc["column_means"]),
        column_scales=_decode_array(std_doc["column_scales"]),
        constant_mask=_decode_bits(std_doc["constant_mask"]),
        response_mean=std_doc["response_mean"],
    )
    for name in ("column_means", "column_scales", "constant_mask"):
        if getattr(params, name).shape != (p,):
            raise ValueError(f"{name} does not have {p} entries")
    replicates = []
    for rep in doc["replicates"]:
        projection = _decode_projection(rep["projection"], p)
        replicates.append(
            Replicate(
                config=_decode_config(rep["config"]),
                projection=projection,
                posterior=_decode_posterior(rep["posterior"], projection.m),
            )
        )
    return TarpModel(
        replicates=replicates,
        standardization=params,
        response_kind=doc["response_kind"],
        master_seed=int(doc["master_seed"]),
        column_names=column_names,
        train_data_hash=doc["train_data_hash"],
        a_sigma=float(doc["a_sigma"]),
        b_sigma=float(doc["b_sigma"]),
        sigma_theta2=float(doc["sigma_theta2"]),
    )
