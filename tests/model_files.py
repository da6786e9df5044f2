"""Signed version 4 model files as the JSON documents of versions 1-3.

Tests that edit a model work on the document: ``as_doc`` reads a signed
file into a document whose arrays are base64 text, as versions 1-3 store
them, and ``as_signed`` writes such a document back as a signed file, so
the types' checks stay reachable behind the digest.
"""

import base64
import hashlib
import json


def each_array(doc: dict, convert) -> None:
    """Replace every array's data field with ``convert(field)``, in the order
    the file stores them; extra is caller metadata (the CLI's options name a
    data file), which holds none."""
    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "data":
                    node[key] = convert(value)
                else:
                    walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    for key, value in doc.items():
        if key != "extra":
            walk(value)


def as_doc(data: bytes) -> dict:
    """The document of a signed file, with base64 arrays."""
    _, _, body = data.partition(b"\n")
    text, _, payload = body.partition(b"\n")
    doc = json.loads(text)
    each_array(
        doc,
        lambda field: base64.b64encode(
            payload[field[0] : field[0] + field[1]]
        ).decode("ascii"),
    )
    return doc


def body_of(doc: dict) -> bytes:
    """What follows line 1 of the signed file of ``doc`` (base64 arrays),
    which the caller leaves untouched."""
    doc = json.loads(json.dumps(doc))
    chunks = []
    size = 0

    def place(text):
        nonlocal size
        chunks.append(base64.b64decode(text))
        size += len(chunks[-1])
        return [size - len(chunks[-1]), len(chunks[-1])]

    each_array(doc, place)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return text.encode("ascii") + b"\n" + b"".join(chunks)


def signed(body: bytes) -> bytes:
    """``body`` after the header line that signs it."""
    digest = hashlib.sha256(body).hexdigest()
    return f"tarp-model 4 sha256={digest}\n".encode("ascii") + body


def as_signed(doc: dict) -> bytes:
    """The signed version 4 file of a document with base64 arrays."""
    return signed(body_of(doc))
