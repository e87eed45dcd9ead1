"""Ensemble serialization.

The on-disk layout is fixed so that equal ensembles produce byte-identical
files:

    bytes 0..3    magic "FLPE"
    bytes 4..7    format version, unsigned 32-bit little endian
    bytes 8..11   header length L, unsigned 32-bit little endian
    bytes 12..11+L  header: UTF-8 JSON, sorted keys, compact separators
    remainder     positions, little-endian float64, C order,
                  shape (n_paths, n_times, dimension)

The header carries the grid, start point, scheme, and seed lineage; the
positions block length is fully determined by the header, and readers
reject files whose size disagrees.

:func:`write_ensemble` also takes the :class:`~fellerkit.simulate.PathSteps`
of a simulation and writes it as it runs, so that memory follows one chunk
of ``CHUNK_BYTES``, not the ensemble.  A chunk holds every path over a span
of grid times; each path's piece of it goes to its own offset with a
positioned write of at least ``PIECE_BYTES``, unless the path's whole row
is shorter.  That makes at most file bytes / ``PIECE_BYTES`` + n_paths
writes, and the chunk is never larger than the ensemble.  A file is
complete or absent: it is written under a temporary name in the same
directory and renamed into place.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct

import numpy as np

from .errors import ConfigError
from .simulate import PathEnsemble

__all__ = ["write_ensemble", "read_ensemble", "export_csv", "file_checksum", "MAGIC", "VERSION"]

MAGIC = b"FLPE"
VERSION = 1
#: bytes that file_checksum reads at a time
CHECKSUM_BLOCK = 1 << 20
#: bytes of positions that write_ensemble holds at once while it simulates
CHUNK_BYTES = 1 << 24
#: the fewest bytes of one path that write_ensemble writes in one call
PIECE_BYTES = 1 << 12


def _header(source, n: int, m: int, d: int) -> bytes:
    header = {
        "dimension": int(d),
        "n_paths": int(n),
        "n_times": int(m),
        "scheme": source.scheme,
        "seed_lineage": source.seed_lineage,
        "start": np.asarray(source.start, dtype=float).tolist(),
        "time_grid": np.asarray(source.time_grid, dtype=float).tolist(),
        "version": VERSION,
    }
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _span(n: int, m: int, d: int) -> int:
    """Grid times in one chunk: ``CHUNK_BYTES`` of n paths, but pieces of
    at least ``PIECE_BYTES`` and no more than the m grid times."""
    per_time = 8 * d
    return min(m, max(1, CHUNK_BYTES // (per_time * n), -(-PIECE_BYTES // per_time)))


def _pwrite(fd: int, data: np.ndarray, offset: int) -> None:
    view = memoryview(data).cast("B")
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def write_ensemble(path, source) -> str:
    """Write a :class:`PathEnsemble`, or the ensemble a ``PathSteps``
    simulates, and return the sha256 hex digest of the file.

    The positions go from the array's buffer (or the steps' chunks) to the
    file without a bytes copy; a chunk that spans every grid time is
    written in one call.  On any error the temporary file is removed and
    ``path`` is left as it was.
    """
    if isinstance(source, PathEnsemble):
        n, m, d = source.positions.shape
        chunks = contextlib.nullcontext([(0, source.positions)])
    else:
        n, m, d = source.n_paths, len(source.time_grid), source.dimension
        chunks = contextlib.closing(source.chunks(_span(n, m, d)))
    header = _header(source, n, m, d)
    prefix = MAGIC + struct.pack("<II", VERSION, len(header)) + header
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with chunks as pieces, open(tmp, "wb") as fh:
            fh.write(prefix)
            fh.flush()
            for j, chunk in pieces:
                if chunk.shape[1] == m:
                    fh.write(np.ascontiguousarray(chunk, dtype="<f8").reshape(-1).view(np.uint8))
                    continue
                for i, row in enumerate(chunk):
                    offset = len(prefix) + 8 * d * (i * m + j)
                    _pwrite(fh.fileno(), np.ascontiguousarray(row, dtype="<f8"), offset)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return file_checksum(path)


def read_ensemble(path) -> PathEnsemble:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(12)
        if len(prefix) < 12 or prefix[:4] != MAGIC:
            raise ConfigError(f"{path}: not an ensemble file (bad magic)")
        version, header_len = struct.unpack("<II", prefix[4:12])
        if version != VERSION:
            raise ConfigError(f"{path}: unsupported format version {version}")
        if size < 12 + header_len:
            raise ConfigError(f"{path}: truncated header")
        header = json.loads(fh.read(header_len).decode("utf-8"))
        n, m, d = header["n_paths"], header["n_times"], header["dimension"]
        expected = 12 + header_len + 8 * n * m * d
        if size != expected:
            raise ConfigError(
                f"{path}: size mismatch, expected {expected} bytes, found {size}"
            )
        # read straight into the array; the size check bounds the allocation
        positions = np.empty((n, m, d), dtype="<f8")
        got = fh.readinto(positions.reshape(-1).view(np.uint8))
        if got != positions.nbytes:
            raise ConfigError(
                f"{path}: size mismatch, expected {expected} bytes, found {12 + header_len + got}"
            )
    return PathEnsemble(
        positions=positions.astype(float, copy=False),
        time_grid=np.asarray(header["time_grid"], dtype=float),
        start=np.asarray(header["start"], dtype=float),
        scheme=header["scheme"],
        seed_lineage=header["seed_lineage"],
    )


def file_checksum(path) -> str:
    """sha256 hex digest of a file, read through one fixed-size block."""
    import hashlib  # here, not at import: it loads OpenSSL, 3.6 MB that analyze never uses

    digest = hashlib.sha256()
    block = bytearray(CHECKSUM_BLOCK)
    view = memoryview(block)
    with open(path, "rb") as fh:
        while n := fh.readinto(block):
            digest.update(view[:n])
    return digest.hexdigest()


def export_csv(path, ens, max_paths: int | None = None) -> None:
    """Wide CSV: one row per grid time, one column block per path.

    Meant for eyeballing a handful of paths; the binary format is the
    canonical representation.
    """
    n, m, d = ens.positions.shape
    k = n if max_paths is None else min(n, max_paths)
    cols = ["t"] + [
        f"path{i}" if d == 1 else f"path{i}_c{j}" for i in range(k) for j in range(d)
    ]
    flat = ens.positions[:k].transpose(1, 0, 2).reshape(m, k * d)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row_t, row in zip(ens.time_grid, flat):
            fh.write(",".join([repr(float(row_t))] + [repr(float(v)) for v in row]) + "\n")
