"""Self-describing single-file model persistence.

A model file is a signed JSON header over raw array bytes. Line 1 is
``tarp-model 5 sha256=<64 hex>``, the format tag and version and the
SHA-256 of everything after that line. Line 2 is the model document as
compact JSON with sorted keys, in which each array's ``data`` is
``[offset, nbytes]`` into the payload. The payload follows line 2: every
array's little-endian bytes, concatenated in the order the document names
them. The file is not JSON text, and any edit of it, even one that keeps
every value in range, fails the digest check, which runs before anything is
parsed. Round trips are bit-exact and identical fits write identical bytes
(no timestamps, no compression). Version 5 is the only format read: a
version 4 file is an unsupported version, and a file without a header line,
such as a version 1-3 JSON document, is a malformed header.

The document holds each value once, and loading refuses any other key, in
the document and in every object below it: the model-level fields, with
``n_obs`` only in a continuous model, and the replicates, each ``{delta,
projection, posterior}``. The priors and ``n_obs`` are the model's alone;
a posterior holds what its replicate fitted, and the response kind picks
its constructor. Every object maps one to one onto its constructor's
arguments.

Random projections are stored as (seed, psi, gamma), which is all a loaded
map holds: the signs a fit keeps are not saved, and loading draws none
(they are drawn from the seed where the map is used). Partial-SVD blocks
are stored densely, and the symmetric m x m posterior matrices as their
lower triangle. Loading checks the header and digest, turns each ``data``
field into its payload slice and decodes the document into the arguments
of the model's constructors, which check every invariant, for fit and load
alike; a decode failure or a constructor's rejection raises DataError.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

from .data import DataError, StandardizationParams, not_utf8, read_only
from .ensemble import Replicate, TarpModel
from .posterior import GaussianPosterior, LaplacePosterior
from .projection import RIS_PCR, RIS_RP, ProjectionMatrix

FORMAT_TAG = "tarp-model"
FORMAT_VERSION = 5
_HEADER = re.compile(FORMAT_TAG.encode("ascii") + rb" (\S+) sha256=([0-9a-f]{64})")


def _integer(value, name: str) -> int:
    # a JSON integer only: json reads 2.5 and 1e999 as floats, true as a bool
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string")
    return value


def _list(value, name: str) -> list:
    # iterating a string, an object or a number would read its characters,
    # its keys or fail without naming the field
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list")
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


def _size(value, name: str) -> int:
    # a length or an array extent; reshape would read a -1 as "the rest"
    size = _integer(value, name)
    if size < 0:
        raise ValueError(f"{name} must be >= 0, got {size}")
    return size


def _object(obj, name: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{name} is not an object")
    return obj


def _only(obj, name: str, *keys: str) -> dict:
    # a version 5 object holds these keys and no others, so that a stale
    # second copy of a value, such as a replicate's own priors, is refused
    if _object(obj, name).keys() - set(keys):
        raise ValueError(f"{name} has unknown keys {sorted(obj.keys() - set(keys))}")
    return obj


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


def _decode_array(obj: dict, name: str) -> np.ndarray:
    _only(obj, name, "shape", "data")
    extents = _list(obj["shape"], f"{name} shape")
    shape = [_size(entry, f"{name} shape") for entry in extents]
    return _decode_floats(obj["data"]).reshape(shape)


def _encode_triangle(matrix: np.ndarray) -> dict:
    """A symmetric matrix as its lower triangle, row by row."""
    order = matrix.shape[0]
    return {"order": int(order), "data": _encode_floats(matrix[np.tril_indices(order)])}


def _decode_triangle(obj: dict, m: int, name: str) -> np.ndarray:
    _only(obj, name, "order", "data")
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


def _encode_bits(mask: np.ndarray) -> dict:
    mask = np.asarray(mask, dtype=bool)
    packed = np.packbits(mask)
    return {"length": int(mask.size), "data": packed.tobytes()}


def _decode_bits(obj: dict, name: str) -> np.ndarray:
    _only(obj, name, "length", "data")
    length = _size(obj["length"], "length")
    packed = np.frombuffer(obj["data"], dtype=np.uint8)
    # unpackbits zero-pads a short buffer, so check the byte count first
    if packed.size != (length + 7) // 8:
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
    # the variant, read once the projection is known to be an object, picks
    # the keys the projection may hold
    variant = _object(obj, "projection")["variant"]
    own = ("block",) if variant == RIS_PCR else ("seed", "psi")
    _only(obj, "projection", "variant", "m", "requested_m", "gamma", *own)
    gamma = _decode_bits(obj["gamma"], "gamma")
    m = _integer(obj["m"], "m")
    requested_m = _integer(obj["requested_m"], "requested_m")
    if variant == RIS_PCR:
        block = _decode_array(obj["block"], "block")
        return ProjectionMatrix(RIS_PCR, m, gamma, requested_m, dense_block=block)
    if variant == RIS_RP:
        seed = [_integer(entry, "seed") for entry in _list(obj["seed"], "seed")]
        psi = _real(obj["psi"], "psi")
        return ProjectionMatrix(RIS_RP, m, gamma, requested_m, seed=seed, psi=psi)
    raise ValueError(f"unknown projection variant {variant!r}")


def _encode_posterior(post) -> dict:
    if isinstance(post, GaussianPosterior):
        return {
            "location": _encode_array(post.location),
            "precision_inverse": _encode_triangle(post.precision_inverse),
            "residual_quadratic": float(post.residual_quadratic),
        }
    if isinstance(post, LaplacePosterior):
        return {
            "mode": _encode_array(post.mode),
            "grad_norm": float(post.grad_norm),
            "n_iter": int(post.n_iter),
        }
    raise TypeError(f"cannot serialize posterior of type {type(post)!r}")


def _decode_posterior(obj: dict, m: int, continuous: bool):
    if continuous:
        _only(obj, "posterior", "location", "precision_inverse", "residual_quadratic")
        return GaussianPosterior(
            location=_decode_array(obj["location"], "location"),
            precision_inverse=_decode_triangle(
                obj["precision_inverse"], m, "precision_inverse"
            ),
            residual_quadratic=_real(obj["residual_quadratic"], "residual_quadratic"),
        )
    _only(obj, "posterior", "mode", "grad_norm", "n_iter")
    return LaplacePosterior(
        mode=_decode_array(obj["mode"], "mode"),
        grad_norm=_real(obj["grad_norm"], "grad_norm"),
        n_iter=_integer(obj["n_iter"], "n_iter"),
    )


def save_model(model: TarpModel, path, extra: dict | None = None) -> None:
    """Write a fitted model as a signed version 5 file; ``extra`` holds
    caller metadata (JSON values, no bytes)."""
    std = model.standardization
    doc = {
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
                "delta": float(rep.delta),
                "projection": _encode_projection(rep.projection),
                "posterior": _encode_posterior(rep.posterior),
            }
            for rep in model.replicates
        ],
        "extra": extra or {},
    }
    if model.n_obs is not None:
        doc["n_obs"] = int(model.n_obs)
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


def _resolve_arrays(node, payload: memoryview) -> None:
    """Replace each ``data`` field below ``node`` with its payload slice."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "data":
                node[key] = _payload_slice(payload, value)
            else:
                _resolve_arrays(value, payload)
    elif isinstance(node, list):
        for value in node:
            _resolve_arrays(value, payload)


def load_model(path) -> tuple[TarpModel, dict]:
    """Load a signed version 5 model file; returns (model, extra metadata)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from exc
    text, payload = _signed_parts(data, path)
    try:
        doc = json.loads(text.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DataError(not_utf8(path, exc)) from None
    except (ValueError, RecursionError) as exc:
        # besides bad JSON: an integer past Python's digit limit, or nesting
        # past the recursion limit
        raise DataError(f"{path}: not a valid model file ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: malformed model file (the document is not an object)")
    try:
        for key, value in doc.items():
            # extra is caller metadata: the CLI's options name a data file
            if key != "extra":
                _resolve_arrays(value, payload)
        model = _decode_model(doc)
    except KeyError as exc:
        raise DataError(f"{path}: malformed model file (missing key {exc})") from exc
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise DataError(f"{path}: malformed model file ({exc})") from exc
    extra = doc.get("extra", {})
    if not isinstance(extra, dict):
        raise DataError(f"{path}: malformed model file (extra is not an object)")
    return model, extra


def _decode_model(doc: dict) -> TarpModel:
    std_doc = _only(doc["standardization"], "standardization", "column_means",
                    "column_scales", "constant_mask", "response_mean")
    mean = std_doc["response_mean"]
    # the response kind picks the posterior and whether the model has n_obs
    continuous = doc["response_kind"] == "continuous"
    _only(doc, "document", "response_kind", "master_seed", "column_names",
          "train_data_hash", "a_sigma", "b_sigma", "sigma_theta2", "standardization",
          "replicates", "extra", *(("n_obs",) if continuous else ()))
    replicates = []
    for rep in _list(doc["replicates"], "replicates"):
        _only(rep, "replicate", "delta", "projection", "posterior")
        projection = _decode_projection(rep["projection"])
        posterior = _decode_posterior(rep["posterior"], projection.m, continuous)
        replicates.append(Replicate(_real(rep["delta"], "delta"), projection, posterior))
    return TarpModel(
        replicates=replicates,
        standardization=StandardizationParams(
            column_means=_decode_array(std_doc["column_means"], "column_means"),
            column_scales=_decode_array(std_doc["column_scales"], "column_scales"),
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
        n_obs=_integer(doc["n_obs"], "n_obs") if continuous else None,
    )
