"""Self-describing single-file model persistence.

Version 4, the format ``save_model`` writes, is a signed JSON header over
raw array bytes. Line 1 is ``tarp-model 4 sha256=<64 hex>``, the SHA-256 of
everything after that line. Line 2 is the model document as compact JSON
with sorted keys, in which each array's ``data`` is ``[offset, nbytes]``
into the payload. The payload follows line 2: every array's little-endian
bytes, concatenated in the order the document names them. The file is not
JSON text, and any edit of it, even one that keeps every value in range,
fails the digest check, which runs before anything is parsed. Round trips
are bit-exact and identical fits write identical bytes (no timestamps, no
compression).

Versions 1-3 are plain JSON documents with each array's bytes as base64
text; they carry no digest and still load. Loading turns each ``data``
field into its raw bytes (a payload slice, or the decoded base64) and then
takes one path for every version.

Random projections are stored as (seed, gamma, tuning), which is all a
loaded model holds of them (the signs a fit keeps are not saved);
partial-SVD blocks are stored densely. The symmetric m x m posterior
matrices are stored as their lower triangle (version 1: in full). Versions
3 and 4 store no binary Hessian; from older files it is checked, then
dropped. Older files may name the untargeted baseline as a config variant
of its own; it is decoded as ris_rp at delta 0, which is what it fitted.
Loading only decodes the document into the arguments of the model's
constructors, which check every invariant, for fit and load alike; a
decode failure or a constructor's rejection raises DataError.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
from dataclasses import replace
from functools import partial

import numpy as np

from .data import DataError, StandardizationParams, not_utf8, read_only
from .ensemble import Replicate, TarpConfig, TarpModel
from .posterior import GaussianPosterior, LaplacePosterior
from .projection import RIS_PCR, RIS_RP, ProjectionMatrix, sample_ris_rp

FORMAT_TAG = "tarp-model"
FORMAT_VERSION = 4
# the versions stored as JSON text, with base64 arrays and no digest. Every
# such file starts with "{"; any other file is read as signed, so a damaged
# byte in a signed file's tag is reported as a damaged header
JSON_VERSIONS = (1, 2, 3)
_HEADER = re.compile(rb"tarp-model (\S+) sha256=([0-9a-f]{64})")
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


def _encode_floats(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _decode_floats(raw) -> np.ndarray:
    # a fresh aligned copy, frozen before any reshape so that the model's
    # constructors keep its views as they are
    if len(raw) % 8:
        raise ValueError(f"float data of {len(raw)} bytes is not a whole number of doubles")
    return read_only(np.frombuffer(raw, dtype="<f8").astype(np.float64))


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
    return {"length": int(mask.size), "data": packed.tobytes()}


def _decode_bits(obj: dict, name: str) -> np.ndarray:
    length = _integer(obj["length"], "length")
    packed = np.frombuffer(obj["data"], dtype=np.uint8)
    # unpackbits zero-pads a short buffer, so check the byte count first
    if length < 0 or packed.size != (length + 7) // 8:
        raise ValueError(f"{name} packs {packed.size} bytes for {length} bits")
    return np.unpackbits(packed, count=length).astype(bool)


def _encode_projection(proj: ProjectionMatrix) -> dict:
    out = {
        "variant": proj.variant,
        "m": int(proj.m),
        "requested_m": int(proj.requested_m),
        "gamma": _encode_bits(proj.gamma),
    }
    if proj.variant == RIS_PCR:
        out["block"] = _encode_array(proj.dense_block)
    else:
        out["seed"] = list(proj.seed)
        out["psi"] = float(proj.psi)
    return out


def _decode_projection(obj: dict) -> ProjectionMatrix:
    gamma = _decode_bits(obj["gamma"], "gamma")
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
        if projection.p_gamma != projection.p:
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
    """Write a fitted model as a signed version 4 file; ``extra`` holds
    caller metadata (JSON values, no bytes)."""
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
    chunks = []
    size = 0

    def place(raw: bytes) -> list[int]:
        # json calls this for each array's bytes, in the order it writes them
        nonlocal size
        if not isinstance(raw, bytes):
            raise TypeError(f"Object of type {type(raw).__name__} is not JSON serializable")
        chunks.append(raw)
        size += len(raw)
        return [size - len(raw), len(raw)]

    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=place)
    body = [text.encode("ascii"), b"\n", *chunks]
    digest = hashlib.sha256()
    for part in body:
        digest.update(part)
    header = f"{FORMAT_TAG} {FORMAT_VERSION} sha256={digest.hexdigest()}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.writelines(body)


def _signed_parts(data: bytes, path) -> tuple[bytes, memoryview]:
    """Check a signed file's header line and digest, before anything else is
    parsed; returns its JSON line and its payload."""
    end = data.find(b"\n")
    match = _HEADER.fullmatch(data, 0, end) if end >= 0 else None
    if match is None:
        raise DataError(f"{path}: malformed model header")
    if match[1] != str(FORMAT_VERSION).encode("ascii"):
        version = match[1].decode("ascii", "backslashreplace")
        raise DataError(f"{path}: unsupported model version {version}")
    body = memoryview(data)[end + 1 :]
    if hashlib.sha256(body).hexdigest().encode("ascii") != match[2]:
        raise DataError(f"{path}: file does not match its digest")
    split = data.find(b"\n", end + 1)
    if split < 0:
        raise DataError(f"{path}: malformed model file (no payload line)")
    return data[end + 1 : split], body[split - end :]


def _payload_slice(payload: memoryview, field) -> memoryview:
    # an array's bytes: a JSON [offset, nbytes] pair inside the payload
    if not (
        isinstance(field, list) and len(field) == 2 and all(type(v) is int for v in field)
    ):
        raise ValueError("array data is not an [offset, nbytes] pair of integers")
    offset, nbytes = field
    if offset < 0 or nbytes < 0 or offset + nbytes > len(payload):
        raise ValueError(f"array data {field} lies outside the {len(payload)}-byte payload")
    return payload[offset : offset + nbytes]


def _resolve_arrays(node, raw) -> None:
    """Replace each ``data`` field below ``node`` with its bytes, ``raw(field)``."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "data":
                node[key] = raw(value)
            else:
                _resolve_arrays(value, raw)
    elif isinstance(node, list):
        for value in node:
            _resolve_arrays(value, raw)


def load_model(path) -> tuple[TarpModel, dict]:
    """Load a model file of any version; returns (model, extra metadata)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from exc
    if data.startswith(b"{"):
        text, versions, raw = data, JSON_VERSIONS, base64.b64decode
    else:
        text, payload = _signed_parts(data, path)
        versions, raw = (FORMAT_VERSION,), partial(_payload_slice, payload)
    try:
        doc = json.loads(text.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DataError(not_utf8(path, exc)) from None
    except (ValueError, RecursionError) as exc:
        # besides bad JSON: an integer past Python's digit limit, or nesting
        # past the recursion limit
        raise DataError(f"{path}: not a valid model file ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_TAG:
        raise DataError(f"{path}: not a {FORMAT_TAG} file")
    version = doc.get("version")
    if isinstance(version, bool) or version not in versions:
        raise DataError(f"{path}: unsupported model version {version}")
    try:
        for key, value in doc.items():
            # extra is caller metadata: the CLI's options name a data file
            if key != "extra":
                _resolve_arrays(value, raw)
        model = _decode_model(doc, int(version))
    except KeyError as exc:
        raise DataError(f"{path}: malformed model file (missing key {exc})") from exc
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
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
