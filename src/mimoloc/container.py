"""The one on-disk layout: a JSON header, then float32 arrays.

The fingerprint database (``ADPF``) and both model checkpoints (``NNCK``
for the localizers, ``PRED`` for the recurrent predictor) are each
written as, all little-endian:

    magic   4 bytes  format tag
    version u16
    hlen    u32      header length
    header  hlen bytes of JSON (sorted keys)
    body    each array as little-endian float32, in a fixed order

A loader reads its array sizes from the header and checks the body's
length against the count they imply (``check_weight_count``) before it
allocates anything, then fills its arrays (``read_weights``). Values are
stored exactly as given, so write -> read -> write is byte-identical.
There is no checksum: a flipped byte inside the body loads silently.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import FormatError, TruncatedFile, VersionError

_CHECKPOINT_PREFIX = struct.Struct("<4sHI")


def write_checkpoint(path, magic: bytes, version: int, header: dict,
                     arrays) -> None:
    """Write a JSON header and float32 arrays under a magic and version."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_PREFIX.pack(magic, version, len(blob)))
        fh.write(blob)
        for array in arrays:
            fh.write(np.ascontiguousarray(array, dtype="<f4").tobytes())


def read_checkpoint(path, magic: bytes, version: int) -> tuple[dict, bytes]:
    """Read a file's header and its raw float32 body.

    Raises:
        TruncatedFile: the file ends inside the prefix or the header.
        FormatError: bad magic, or a header that is not a JSON object.
        VersionError: a version other than ``version``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _CHECKPOINT_PREFIX.size:
        raise TruncatedFile(f"{len(raw)} bytes is too short for a header")
    found, found_version, head_len = _CHECKPOINT_PREFIX.unpack_from(raw)
    if found != magic:
        raise FormatError(f"bad magic {found!r}, expected {magic!r}")
    if found_version != version:
        raise VersionError(f"unsupported {magic!r} version {found_version}")
    end = _CHECKPOINT_PREFIX.size + head_len
    if len(raw) < end:
        raise TruncatedFile("header is cut off")
    try:
        header = json.loads(raw[_CHECKPOINT_PREFIX.size:end].decode("utf-8"))
    except ValueError as exc:
        raise FormatError(f"header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("header is not a JSON object")
    return header, raw[end:]


def check_weight_count(body: bytes, count: int) -> None:
    """Raise unless ``body`` holds exactly ``count`` float32 weights. A
    loader calls it with the count its header implies before it makes
    any weight, so a header that declares huge sizes allocates nothing.

    Raises:
        TruncatedFile: fewer bytes than the weights need.
        FormatError: bytes left over after the last weight.
    """
    nbytes = 4 * count
    if nbytes > len(body):
        raise TruncatedFile("float32 body is cut off")
    if nbytes < len(body):
        raise FormatError(f"{len(body) - nbytes} trailing bytes after the last array")


def read_weights(body: bytes, arrays) -> None:
    """Fill ``arrays`` in order from a float32 body.

    Raises:
        TruncatedFile: fewer bytes than the arrays need.
        FormatError: a NaN or infinite weight, or bytes left over after the
            last array.
    """
    check_weight_count(body, sum(array.size for array in arrays))
    offset = 0
    for array in arrays:
        flat = np.frombuffer(body, dtype="<f4", count=array.size, offset=offset)
        if not np.isfinite(flat).all():
            raise FormatError("body holds a NaN or infinite value")
        array[...] = flat.reshape(array.shape)
        offset += array.size * 4
