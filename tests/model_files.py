"""Signed model files as editable documents.

Tests that edit a model work on the document: ``as_doc`` reads a signed
file into its document with each array's data as raw bytes, and
``as_signed`` writes such a document back as a signed file, so the types'
checks stay reachable behind the digest.
"""

import hashlib
import json

from tarp.model_io import FORMAT_TAG, FORMAT_VERSION


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
    """The document of a signed file, with each array's bytes in its data."""
    _, _, body = data.partition(b"\n")
    text, _, payload = body.partition(b"\n")
    doc = json.loads(text)
    start = 0

    def take(nbytes):
        # the arrays lie back to back in the order the document names them
        nonlocal start
        start += nbytes
        return payload[start - nbytes : start]

    each_array(doc, take)
    return doc


def body_of(doc: dict) -> bytes:
    """What follows line 1 of the signed file of ``doc`` (arrays as bytes),
    which the caller leaves untouched."""
    chunks = []

    def place(raw):
        # json calls this for each array's bytes, in the order it writes them
        chunks.append(raw)
        return len(raw)

    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=place)
    return text.encode("ascii") + b"\n" + b"".join(chunks)


def signed(body: bytes, version: int = FORMAT_VERSION) -> bytes:
    """``body`` after the header line that signs it as ``version``."""
    digest = hashlib.sha256(body).hexdigest()
    return f"{FORMAT_TAG} {version} sha256={digest}\n".encode("ascii") + body


def as_signed(doc: dict) -> bytes:
    """The signed file of a document with arrays as bytes."""
    return signed(body_of(doc))
