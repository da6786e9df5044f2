"""Self-describing single-file model persistence.

A model file is a signed JSON header over raw array bytes. Line 1 is
``tarp-model 7 sha256=<64 hex>``, the format tag and version and the SHA-256
of everything after that line. Line 2 is the model document as compact JSON
with sorted keys, in which each array's ``data`` is its byte count. The
payload follows line 2: every array's little-endian bytes, back to back in
the order the document names them, so each array starts where the one
before it ends. The file is not JSON text, and any edit of it, even one that
keeps every value in range, fails the digest check, which runs before
anything is parsed. Round trips are bit-exact and identical fits write
identical bytes (no timestamps, no compression). Version 7 is the only
format read: a version 4, 5 or 6 file (version 5 kept a copy of delta in
every replicate, version 6 an offset beside each byte count) is an
unsupported version, and a file without a header line, such as a version 1-3
JSON document, is a malformed header.

The tables below are the format's one declaration, and both save_model and
load_model run from them. Each kind of object has a table that maps every
key it holds, its constructor's argument of that name, to a codec: a (write,
read) pair turning the argument into its JSON value and back. The response
kind picks the model's table (``n_obs`` is a continuous model's alone) and
its posteriors', a projection's variant its own. Each value is held once:
the screening exponent ``delta``, the priors and ``n_obs`` are keys of the
model, shared by its replicates. Partial-SVD blocks are stored densely,
symmetric posterior matrices as their lower triangle, and a random map as
(seed, psi, gamma) alone: its signs are drawn from the seed where the map is
used. Loading checks the header and digest, reads the arrays off the payload
in one ordered pass, each ``data`` count becoming its bytes, and reads the
document into the constructors, which check every invariant, for fit and
load alike. It refuses what saving never writes: a key missing from an
object or not in its table, a bit vector's nonzero pad bits, and arrays that
run past the payload or end before it does. Every failure raises DataError.
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
FORMAT_VERSION = 7
_HEADER = re.compile(FORMAT_TAG.encode("ascii") + rb" (\S+) sha256=([0-9a-f]{64})")

# keys read before their object's table is known: the response kind picks
# the model's, the variant a projection's; extra is the caller's metadata
# and every array keeps its bytes under data
_KIND, _VARIANT, _EXTRA, _DATA = "response_kind", "variant", "extra", "data"


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


def _integers(value, name: str) -> list[int]:
    return [_integer(entry, name) for entry in _list(value, name)]


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
    # a version 7 object holds these keys and no others, so that a stale
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


def _decode_array(shape, raw, name: str) -> np.ndarray:
    extents = [_size(entry, f"{name} shape") for entry in _list(shape, f"{name} shape")]
    return _decode_floats(raw).reshape(extents)


def _encode_triangle(matrix: np.ndarray) -> bytes:
    """A symmetric matrix as its lower triangle, row by row."""
    return _encode_floats(matrix[np.tril_indices(matrix.shape[0])])


def _decode_triangle(order, raw, name: str) -> np.ndarray:
    # the posterior checks the order against its location's length
    m = _size(order, f"{name} order")
    packed = _decode_floats(raw)
    if packed.size != m * (m + 1) // 2:
        raise ValueError(f"{name} holds {packed.size} values, expected {m * (m + 1) // 2}")
    rows, cols = np.tril_indices(m)
    full = np.empty((m, m))
    full[rows, cols] = packed
    full[cols, rows] = packed
    return full


def _encode_bits(mask: np.ndarray) -> bytes:
    return np.packbits(np.asarray(mask, dtype=bool)).tobytes()


def _decode_bits(length, raw, name: str) -> np.ndarray:
    length = _size(length, f"{name} length")
    packed = np.frombuffer(raw, dtype=np.uint8)
    # unpackbits zero-pads a short buffer, so check the byte count first
    if packed.size != (length + 7) // 8:
        raise ValueError(f"{name} packs {packed.size} bytes for {length} bits")
    bits = np.unpackbits(packed)
    # packbits pads with zeros; other pad bits would re-save as other bytes
    if bits[length:].any():
        raise ValueError(f"{name} sets pad bits past its {length} bits")
    return bits[:length].astype(bool)


def _packed(extent: str, measure, encode, decode) -> tuple:
    """The codec of an array stored as ``{extent, data}``, whose bytes
    save_model places in the payload; ``decode(extent, raw, name)`` reads it."""

    def write(arr):
        return {extent: measure(arr), _DATA: encode(arr)}

    def read(obj, name):
        _only(obj, name, extent, _DATA)
        return decode(obj[extent], obj[_DATA], name)

    return write, read


def _nested(cls, table: dict) -> tuple:
    """The codec of an object with its own table, built by ``cls``."""
    return (lambda obj: _fields(obj, table),
            lambda obj, name: cls(**_arguments(obj, name, table)))


def _each(codec: tuple, item: str) -> tuple:
    """The codec of a list whose entries, each named ``item``, use ``codec``."""
    write, read = codec
    return (lambda values: [write(value) for value in values],
            lambda value, name: [read(entry, item) for entry in _list(value, name)])


def _fields(obj, table: dict) -> dict:
    """The document object of ``obj``: each key written from the attribute
    of that name."""
    return {key: write(getattr(obj, key)) for key, (write, _) in table.items()}


def _arguments(obj, name: str, table: dict) -> dict:
    """The constructor arguments held by the document object ``obj`` (named
    ``name`` in messages), each read from its key; every key of the table is
    required and no other is allowed."""
    _only(obj, name, *table)
    return {key: read(obj[key], key) for key, (_, read) in table.items()}


_INTEGER = (int, _integer)
_REAL = (float, _real)
_STRING = (str, _string)
_ARRAY = _packed("shape", lambda arr: list(arr.shape), _encode_floats, _decode_array)
_TRIANGLE = _packed("order", lambda matrix: matrix.shape[0], _encode_triangle,
                    _decode_triangle)
_BITS = _packed("length", lambda mask: mask.size, _encode_bits, _decode_bits)

_STANDARDIZATION = _nested(StandardizationParams, {
    "column_means": _ARRAY,
    "column_scales": _ARRAY,
    "constant_mask": _BITS,
    # null in a binary model, which is never centred
    "response_mean": (lambda mean: None if mean is None else float(mean),
                      lambda mean, name: None if mean is None else _real(mean, name)),
})

# the keys both projection variants hold
_MAP = {_VARIANT: _STRING, "m": _INTEGER, "requested_m": _INTEGER, "gamma": _BITS}
_PROJECTIONS = {
    RIS_RP: {**_MAP, "seed": (list, _integers), "psi": _REAL},
    RIS_PCR: {**_MAP, "block": _ARRAY},
}


def _read_projection(obj, name: str) -> ProjectionMatrix:
    variant = _string(_object(obj, name)[_VARIANT], _VARIANT)
    if variant not in _PROJECTIONS:
        raise ValueError(f"unknown projection variant {variant!r}")
    return ProjectionMatrix(**_arguments(obj, name, _PROJECTIONS[variant]))


_PROJECTION = (lambda proj: _fields(proj, _PROJECTIONS[proj.variant]), _read_projection)

_GAUSSIAN = _nested(GaussianPosterior, {
    "location": _ARRAY,
    "precision_inverse": _TRIANGLE,
    "residual_quadratic": _REAL,
})
_LAPLACE = _nested(LaplacePosterior, {
    "mode": _ARRAY,
    "grad_norm": _REAL,
    "n_iter": _INTEGER,
})


def _model_table(kind) -> dict:
    """The keys of a model document besides extra. The response kind picks
    the posterior, and only a continuous model has n_obs."""
    continuous = kind == "continuous"
    replicate = _nested(Replicate, {
        "projection": _PROJECTION,
        "posterior": _GAUSSIAN if continuous else _LAPLACE,
    })
    table = {
        _KIND: _STRING,
        "master_seed": _INTEGER,
        "column_names": (list, _strings),
        "train_data_hash": _STRING,
        "delta": _REAL,
        "a_sigma": _REAL,
        "b_sigma": _REAL,
        "sigma_theta2": _REAL,
        "standardization": _STANDARDIZATION,
        "replicates": _each(replicate, "replicate"),
    }
    if continuous:
        table["n_obs"] = _INTEGER
    return table


def save_model(model: TarpModel, path, extra: dict | None = None) -> None:
    """Write a fitted model as a signed version 7 file; ``extra`` holds
    caller metadata (JSON values, no bytes)."""
    doc = _fields(model, _model_table(model.response_kind))
    doc[_EXTRA] = extra or {}
    chunks = []

    def place(raw: bytes) -> int:
        # json calls this for each array's bytes, in the order it writes them
        if not isinstance(raw, bytes):
            raise TypeError(f"Object of type {type(raw).__name__} is not JSON serializable")
        chunks.append(raw)
        return len(raw)

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


def _resolve_arrays(node, payload: memoryview, start: int) -> int:
    """Replace each ``data`` field below ``node``, a byte count, with the
    next that many payload bytes from byte ``start`` on, in document order;
    returns the byte after the last of them."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == _DATA:
                end = start + _size(value, "array data")
                if end > len(payload):
                    raise ValueError(f"array data of {value} bytes at byte {start} runs "
                                     f"past the {len(payload)}-byte payload")
                node[key] = payload[start:end]
                start = end
            else:
                start = _resolve_arrays(value, payload, start)
    elif isinstance(node, list):
        for value in node:
            start = _resolve_arrays(value, payload, start)
    return start


def load_model(path) -> tuple[TarpModel, dict]:
    """Load a signed version 7 model file; returns (model, extra metadata)."""
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
        end = 0
        for key, value in doc.items():
            # extra is caller metadata: the CLI's options name a data file
            if key != _EXTRA:
                end = _resolve_arrays(value, payload, end)
        table = _model_table(doc[_KIND])
        arguments = _arguments(doc, "document", {**table, _EXTRA: (dict, _object)})
        extra = arguments.pop(_EXTRA)
        model = TarpModel(**arguments)
        if end != len(payload):
            raise ValueError(f"the arrays end at byte {end} of the {len(payload)}-byte payload")
    except KeyError as exc:
        raise DataError(f"{path}: malformed model file (missing key {exc})") from exc
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise DataError(f"{path}: malformed model file ({exc})") from exc
    return model, extra
