"""Binary tensor container and plain-text manifests.

Each tensor record is a fixed 16-byte header (magic, version, dtype code,
rank as little-endian uint32), followed by the extents as little-endian
uint64 and the raw little-endian payload. A directory pairs one
``tensors.bin`` with a ``manifest.txt`` of ``key value`` lines. Every
file the package writes goes through ``atomic_open``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"MFTN"
VERSION = 1
_DTYPES = {1: np.dtype("<f8"), 2: np.dtype("<f4")}
_DTYPE_CODES = {np.dtype("float64"): 1, np.dtype("float32"): 2}


class ContainerError(Exception):
    """Base class for container format problems."""


class HeaderError(ContainerError):
    """Bad magic, version, dtype code, rank or extents in a tensor header."""


class TruncatedPayloadError(ContainerError):
    """The file ended before a declared tensor payload was complete."""


class ManifestShapeError(ContainerError):
    """Stored tensor shapes disagree with the manifest."""


class ManifestKeyError(ContainerError):
    """A manifest entry is missing or cannot be parsed."""


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Write ``<path>.tmp`` and move it onto ``path`` when the block ends;
    on an exception remove it, so ``path`` keeps its old contents (no
    fsync: this guards against a failed write, not a power loss)."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text):
    with atomic_open(path) as fh:
        fh.write(text)


def write_tensor(fh, array):
    arr = np.asarray(array)
    code = _DTYPE_CODES.get(arr.dtype)
    if code is None:
        raise ValueError(f"unsupported dtype {arr.dtype}")
    fh.write(struct.pack("<4sIII", MAGIC, VERSION, code, arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    # no copy when the array is already C-ordered little-endian
    fh.write(np.asarray(arr, dtype=_DTYPES[code], order="C").data)


def read_tensor(fh):
    header = fh.read(16)
    if len(header) < 16:
        raise TruncatedPayloadError("file ended inside a tensor header")
    magic, version, code, rank = struct.unpack("<4sIII", header)
    if magic != MAGIC:
        raise HeaderError(f"bad magic {magic!r}")
    if version != VERSION:
        raise HeaderError(f"unsupported container version {version}")
    if code not in _DTYPES:
        raise HeaderError(f"unknown dtype code {code}")
    if rank > 32:
        raise HeaderError(f"implausible rank {rank}")
    dims_raw = fh.read(8 * rank)
    if len(dims_raw) < 8 * rank:
        raise TruncatedPayloadError("file ended inside tensor extents")
    shape = struct.unpack(f"<{rank}Q", dims_raw)
    dtype = _DTYPES[code]
    # numpy refuses extents whose nonzero product overflows its index type,
    # even when another extent is 0
    if math.prod(max(s, 1) for s in shape) * dtype.itemsize \
            > np.iinfo(np.intp).max:
        raise HeaderError(f"implausible extents {shape}")
    n_bytes = math.prod(shape) * dtype.itemsize
    pos = fh.tell()
    remaining = fh.seek(0, io.SEEK_END) - pos
    fh.seek(pos)
    if n_bytes > remaining:
        raise TruncatedPayloadError(
            f"payload truncated: expected {n_bytes} bytes, {remaining} left")
    arr = np.empty(shape, dtype=dtype)
    # numpy gives a 0-d array no byte view; its flattened (1,) form has one
    if fh.readinto(arr.reshape(-1).view(np.uint8)) != n_bytes:
        raise TruncatedPayloadError(
            f"payload truncated: expected {n_bytes} bytes")
    return arr


def write_manifest(path, entries):
    write_text(path, "".join(f"{k} {v}\n" for k, v in entries))


def read_manifest(path):
    entries = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        entries[key] = value
    return entries


def save_named(directory, named_arrays, extra_manifest=()):
    """Write named tensors plus a manifest into a directory."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    entries = list(extra_manifest)
    entries.append(("tensor_count", len(named_arrays)))
    for i, (name, arr) in enumerate(named_arrays):
        shape = "x".join(str(s) for s in np.asarray(arr).shape) or "scalar"
        entries.append((f"tensor_{i}", f"{name}:{shape}"))
    # tensors first: a write that fails leaves the old pair in place
    with atomic_open(d / "tensors.bin", "wb") as fh:
        for _, arr in named_arrays:
            write_tensor(fh, np.asarray(arr, dtype=np.float64))
    write_manifest(d / "manifest.txt", entries)


def manifest_value(manifest, key, parse):
    """``parse(manifest[key])``; a missing or unparsable entry raises a
    ManifestKeyError that names the key."""
    if key not in manifest:
        raise ManifestKeyError(f"manifest has no {key!r} entry")
    try:
        return parse(manifest[key])
    except ValueError as e:
        raise ManifestKeyError(f"manifest entry {key!r}: {e}") from None


def _named_shape(entry):
    name, _, shape = entry.partition(":")
    return name, () if shape == "scalar" else \
        tuple(int(s) for s in shape.split("x"))


def load_named(directory):
    """Read back (manifest dict, list of (name, array))."""
    d = Path(directory)
    manifest = read_manifest(d / "manifest.txt")
    count = manifest_value(manifest, "tensor_count", int)
    named = []
    with open(d / "tensors.bin", "rb") as fh:
        for i in range(count):
            name, declared = manifest_value(manifest, f"tensor_{i}",
                                            _named_shape)
            arr = read_tensor(fh)
            if arr.shape != declared:
                raise ManifestShapeError(
                    f"tensor {name}: manifest says {declared}, "
                    f"file holds {arr.shape}")
            named.append((name, arr))
    return manifest, named
