"""ADPF binary container for angle-delay profile datasets.

Layout, all little-endian:

    magic   4 bytes  b"ADPF"
    version u16      1, the only layout
    n_t     u32      angle rows per profile
    n_c     u32      delay columns per profile
    count   u64      record count

Record: position as two float64 (x, y), then n_t*n_c float32 pixels
row-major. Pixels are stored exactly as given (float32), so write -> read
-> write is byte-identical.

Model checkpoints (localizer and predictor) share a second layout:

    magic   4 bytes  format tag
    version u16
    hlen    u32      header length
    header  hlen bytes of JSON (sorted keys)
    weights each array as little-endian float32, in a fixed order
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import FormatError, TruncatedFile, VersionError

MAGIC = b"ADPF"
VERSION = 1

_HEADER = struct.Struct("<4sHIIQ")


def _record_dtype(n_t: int, n_c: int) -> np.dtype:
    return np.dtype([("position", "<f8", (2,)), ("pixels", "<f4", (n_t, n_c))])


def write_container(path, n_t: int, n_c: int, records: np.ndarray) -> None:
    """Write a structured record array (from ``make_records``) to disk."""
    if records.dtype != _record_dtype(n_t, n_c):
        raise FormatError("record array dtype does not match container layout")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, n_t, n_c, len(records)))
        fh.write(records.tobytes())


def read_container(path):
    """Read an ADPF file.

    Returns:
        (n_t, n_c, records) where records is a structured array with
        fields position/pixels.

    Raises:
        FormatError: bad magic, a profile size of zero or too large for a
            record, or trailing garbage.
        VersionError: any version but 1.
        TruncatedFile: file ends before the declared record count.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise TruncatedFile("file shorter than the ADPF header")
    magic, version, n_t, n_c, count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise VersionError(f"unsupported container version {version}")
    if n_t == 0 or n_c == 0:
        raise FormatError(f"empty {n_t}x{n_c} profile size")
    try:
        dtype = _record_dtype(n_t, n_c)
    except ValueError as exc:  # numpy caps a record's size and dimensions
        raise FormatError(f"profile size {n_t}x{n_c} is too large: {exc}") \
            from exc
    body = data[_HEADER.size:]
    need = count * dtype.itemsize
    if len(body) < need:
        raise TruncatedFile(
            f"expected {need} record bytes, found {len(body)}"
        )
    if len(body) > need:
        raise FormatError(f"{len(body) - need} trailing bytes after records")
    records = np.frombuffer(body, dtype=dtype, count=count).copy()
    return n_t, n_c, records


def make_records(n_t: int, n_c: int, count: int) -> np.ndarray:
    """Allocate an empty record array with the exact on-disk layout."""
    return np.zeros(count, dtype=_record_dtype(n_t, n_c))


# --- model checkpoints -------------------------------------------------------

_CHECKPOINT_PREFIX = struct.Struct("<4sHI")


def write_checkpoint(path, magic: bytes, version: int, header: dict,
                     arrays) -> None:
    """Write a JSON header and float32 weights under a magic and version."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_PREFIX.pack(magic, version, len(blob)))
        fh.write(blob)
        for array in arrays:
            fh.write(np.ascontiguousarray(array, dtype="<f4").tobytes())


def read_checkpoint(path, magic: bytes, version: int) -> tuple[dict, bytes]:
    """Read a checkpoint's header and its raw weight bytes.

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
        raise FormatError(f"bad checkpoint magic {found!r}")
    if found_version != version:
        raise VersionError(f"unsupported checkpoint version {found_version}")
    end = _CHECKPOINT_PREFIX.size + head_len
    if len(raw) < end:
        raise TruncatedFile("checkpoint header is cut off")
    try:
        header = json.loads(raw[_CHECKPOINT_PREFIX.size:end].decode("utf-8"))
    except ValueError as exc:
        raise FormatError(f"checkpoint header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("checkpoint header is not a JSON object")
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
        raise TruncatedFile("checkpoint weights are cut off")
    if nbytes < len(body):
        raise FormatError(f"{len(body) - nbytes} trailing bytes after weights")


def read_weights(body: bytes, arrays) -> None:
    """Fill ``arrays`` in order from the float32 weights of a checkpoint.

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
            raise FormatError("checkpoint holds a NaN or infinite weight")
        array[...] = flat.reshape(array.shape)
        offset += array.size * 4
