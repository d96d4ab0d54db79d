"""Model serialization.

File layout (all integers little-endian; full byte-level description in
docs/FORMAT.md):

    magic      4 bytes  b"BNN1"
    version    u16      currently 1
    header_len u32      byte length of the JSON descriptor
    descriptor          UTF-8 JSON: build args, layer table (kind, param
                        shapes, storage class), normalization channel count
    payloads            one blob per parameter, then per buffer, in layer
                        order, then the normalization statistics
    checksum   u32      CRC32 over all payload bytes

Storage classes:

    packed_binary  weights stored as sign bits ({-1,+1} mapped to {0,1},
                   the deployment conversion), one row per output unit,
                   LSB-first within each byte, rows padded to whole bytes
                   with 1-bits
    float32        4 bytes per value, little-endian

Batch-norm parameters and buffers, biases and full-precision layers are
always float32.  The descriptor is produced deterministically (sorted
keys), so the file size is a pure function of the graph and is exactly
predicted by file_size().
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from . import arch, bittensor
from .errors import ModelFormatError

MAGIC = b"BNN1"
VERSION = 1


def _param_storage(param, binary_storage: bool = True) -> str:
    """The one storage rule: a binary weight is packed in a deployment file."""
    return "packed_binary" if binary_storage and param.binary else "float32"


def storage_class(layer) -> str:
    """packed_binary for a layer that packs a parameter in a deployment file."""
    packed = any(_param_storage(p) == "packed_binary" for p in layer.params())
    return "packed_binary" if packed else "float32"


def _packed_nbytes(shape) -> int:
    rows = shape[0]
    row_len = int(np.prod(shape[1:], dtype=np.int64)) if len(shape) > 1 else 1
    return rows * ((row_len + 7) // 8)


def _payload_nbytes(shape, storage) -> int:
    if storage == "packed_binary":
        return _packed_nbytes(shape)
    return 4 * int(np.prod(shape, dtype=np.int64))


def _pack_weight(values: np.ndarray) -> bytes:
    """Sign-binarize and pack row-wise, each row padded to whole bytes with
    1-bits (a NaN raises NumericError)."""
    return bittensor.pack_signs(values.reshape(len(values), -1, 1, 1)).tobytes()


def _unpack_weight(blob: bytes, shape) -> np.ndarray:
    rows = shape[0]
    n = int(np.prod(shape[1:], dtype=np.int64)) if len(shape) > 1 else 1
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(rows, (n + 7) // 8)
    return bittensor.unpack_signs(raw, n).reshape(shape)


def _descriptor(g: arch.ModelGraph, binary_storage: bool) -> dict:
    layer_table = []
    for layer in g.layers():
        entry = {
            "spec": layer.spec(),
            "params": [
                {
                    "name": p.name,
                    "shape": list(p.value.shape),
                    "storage": _param_storage(p, binary_storage),
                }
                for p in layer.params()
            ],
            "buffers": [
                {"name": k, "shape": list(v.shape)}
                for k, v in sorted(layer.buffers().items())
            ],
        }
        layer_table.append(entry)
    return {
        "name": g.name,
        "build_args": g.build_args,
        "input_shape": list(g.input_shape),
        "num_classes": g.num_classes,
        "storage_mode": "packed_binary" if binary_storage else "float32",
        "norm_channels": g.input_shape[0],
        "layers": layer_table,
    }


def _descriptor_bytes(g, binary_storage) -> bytes:
    return json.dumps(
        _descriptor(g, binary_storage), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _payload_sizes(desc: dict):
    for entry in desc["layers"]:
        for p in entry["params"]:
            yield _payload_nbytes(p["shape"], p["storage"])
        for bf in entry["buffers"]:
            yield 4 * int(np.prod(bf["shape"], dtype=np.int64))
    yield 4 * desc["norm_channels"]  # per-channel mean
    yield 4 * desc["norm_channels"]  # per-channel std


def file_size(g: arch.ModelGraph, binary_storage: bool = True) -> int:
    """Exact size in bytes of the file save()/export_fp() would write."""
    desc = _descriptor(g, binary_storage)
    header = len(MAGIC) + 2 + 4 + len(_descriptor_bytes(g, binary_storage))
    return header + sum(_payload_sizes(desc)) + 4


def _write(g: arch.ModelGraph, path, binary_storage: bool,
           normalization=None):
    desc_bytes = _descriptor_bytes(g, binary_storage)
    payloads = []
    for layer in g.layers():
        for p in layer.params():
            if _param_storage(p, binary_storage) == "packed_binary":
                payloads.append(_pack_weight(p.value))
            else:
                payloads.append(
                    np.ascontiguousarray(p.value, dtype="<f4").tobytes()
                )
        for _, buf in sorted(layer.buffers().items()):
            payloads.append(np.ascontiguousarray(buf, dtype="<f4").tobytes())
    c = g.input_shape[0]
    if normalization is None:
        mean = np.zeros(c, dtype="<f4")
        std = np.ones(c, dtype="<f4")
    else:
        mean = np.asarray(normalization[0], dtype="<f4")
        std = np.asarray(normalization[1], dtype="<f4")
        if mean.shape != (c,) or std.shape != (c,):
            raise ValueError(
                f"normalization stats must have shape ({c},)"
            )
    payloads.append(mean.tobytes())
    payloads.append(std.tobytes())
    blob = b"".join(payloads)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<H", VERSION))
        f.write(struct.pack("<I", len(desc_bytes)))
        f.write(desc_bytes)
        f.write(blob)
        f.write(struct.pack("<I", zlib.crc32(blob)))


def save(g: arch.ModelGraph, path, normalization=None):
    """Write the model with binary layers sign-packed for deployment."""
    _write(g, path, binary_storage=True, normalization=normalization)


def export_fp(g: arch.ModelGraph, path, normalization=None):
    """Write the model with float32 storage everywhere (size comparison)."""
    _write(g, path, binary_storage=False, normalization=normalization)


def load(path):
    """Read a model file; returns (ModelGraph with weights, normalization).

    In scaling modes N and B the reconstructed model gives bit-exact
    logits relative to the model that was saved.  In FB it does not: the
    file keeps only a binary weight's sign bits, so alpha = mean|w| comes
    out as 1 from the loaded +-1 values (ROADMAP item 1).
    """
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(MAGIC) + 2 + 4 + 4:
        raise ModelFormatError("file truncated: shorter than fixed header")
    if data[:4] != MAGIC:
        raise ModelFormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != VERSION:
        raise ModelFormatError(
            f"unsupported format version {version}, expected {VERSION}"
        )
    (header_len,) = struct.unpack_from("<I", data, 6)
    desc_start = 10
    desc_end = desc_start + header_len
    if desc_end + 4 > len(data):
        raise ModelFormatError("file truncated: descriptor extends past end")
    try:
        desc = json.loads(data[desc_start:desc_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"corrupt descriptor: {exc}") from exc
    # the file's own descriptor must account for its payload before a
    # graph of the size build_args ask for is allocated
    try:
        sizes = list(_payload_sizes(desc))
        expected = sum(sizes)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"corrupt descriptor: cannot size the payload: "
                               f"{type(exc).__name__}: {exc}") from exc
    blob = data[desc_end:-4]
    if len(blob) != expected:
        raise ModelFormatError(
            f"payload is {len(blob)} bytes, but descriptor field 'layers' and "
            f"field 'norm_channels' give {expected}: the file is truncated or "
            f"its descriptor is wrong"
        )
    (crc_stored,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(blob) != crc_stored:
        raise ModelFormatError("checksum failure: payload corrupted")
    try:
        g = arch.build(desc["build_args"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"cannot rebuild the model from build_args: "
                               f"{type(exc).__name__}: {exc}") from exc
    if desc.get("storage_mode") == "float32" and any(p.binary for p in g.params()):
        raise ModelFormatError(
            "storage-class mismatch: file stores float32 weights but the "
            "graph has binary layers (this is an export_fp file; load "
            "expects the deployment format)"
        )
    # every field, down to each parameter's shape and storage, as save() writes it
    binary_storage = desc.get("storage_mode") == "packed_binary"
    expect_desc = _descriptor(g, binary_storage)
    if desc != expect_desc:
        key = min(k for k in desc.keys() | expect_desc.keys()
                  if desc.get(k) != expect_desc.get(k))
        raise ModelFormatError(
            f"descriptor field {key!r} does not match the graph rebuilt "
            f"from build_args"
        )

    offset = 0
    blobs = []
    for s in sizes:
        blobs.append(blob[offset:offset + s])
        offset += s
    it = iter(blobs)
    for layer in g.layers():
        for p in layer.params():
            raw = next(it)
            if _param_storage(p, binary_storage) == "packed_binary":
                p.value = _unpack_weight(raw, p.value.shape)
            else:
                p.value = np.frombuffer(raw, dtype="<f4").reshape(
                    p.value.shape
                ).astype(np.float32)
        for key, buf in sorted(layer.buffers().items()):
            raw = next(it)
            buf[:] = np.frombuffer(raw, dtype="<f4").reshape(buf.shape)
    mean = np.frombuffer(next(it), dtype="<f4").copy()
    std = np.frombuffer(next(it), dtype="<f4").copy()
    return g, (mean, std)
