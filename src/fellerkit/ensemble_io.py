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
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .simulate import PathEnsemble

__all__ = ["write_ensemble", "read_ensemble", "export_csv", "file_checksum", "MAGIC", "VERSION"]

MAGIC = b"FLPE"
VERSION = 1


def _header_dict(ens) -> dict:
    return {
        "dimension": int(ens.positions.shape[2]),
        "n_paths": int(ens.positions.shape[0]),
        "n_times": int(ens.positions.shape[1]),
        "scheme": ens.scheme,
        "seed_lineage": ens.seed_lineage,
        "start": np.asarray(ens.start, dtype=float).tolist(),
        "time_grid": np.asarray(ens.time_grid, dtype=float).tolist(),
        "version": VERSION,
    }


def write_ensemble(path, ens) -> str:
    """Write an ensemble; returns the sha256 hex digest of the file.

    The positions are written and hashed straight from the array's buffer,
    without a bytes copy.
    """
    header = json.dumps(
        _header_dict(ens), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    positions = np.ascontiguousarray(ens.positions, dtype="<f8")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in (
            MAGIC + struct.pack("<II", VERSION, len(header)) + header,
            positions.reshape(-1).view(np.uint8),
        ):
            fh.write(part)
            digest.update(part)
    return digest.hexdigest()


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
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
