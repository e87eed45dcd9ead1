"""Binary ensemble files: round trips, checksums, corruption handling, CSV export."""

import hashlib
import re
import struct

import numpy as np
import pytest

import fellerkit as fk
from fellerkit import ConfigError


@pytest.fixture(scope="module")
def small_ensemble():
    return fk.simulate_levy(fk.alpha_stable(1.5), 40, 1.0, 8, seed=3, start=0.2)


@pytest.fixture()
def stored(tmp_path, small_ensemble):
    path = tmp_path / "paths.flpe"
    digest = fk.write_ensemble(path, small_ensemble)
    return path, digest


def test_round_trip_is_exact(stored, small_ensemble):
    path, _ = stored
    back = fk.read_ensemble(path)
    assert np.array_equal(back.positions, small_ensemble.positions)
    assert np.array_equal(back.time_grid, small_ensemble.time_grid)
    assert np.array_equal(
        np.atleast_1d(back.start), np.atleast_1d(small_ensemble.start)
    )
    assert back.scheme == small_ensemble.scheme


def test_digest_is_reproducible(stored, small_ensemble, tmp_path):
    path, digest = stored
    assert isinstance(digest, str) and len(digest) == 64
    again = fk.write_ensemble(tmp_path / "copy.flpe", small_ensemble)
    assert again == digest
    assert fk.file_checksum(path) == digest


def test_file_is_the_documented_layout(stored, small_ensemble):
    path, digest = stored
    blob = path.read_bytes()
    version, header_len = struct.unpack("<II", blob[4:12])
    assert blob[:4] == b"FLPE" and version == 1
    assert blob[12 + header_len :] == small_ensemble.positions.astype("<f8").tobytes()
    assert digest == hashlib.sha256(blob).hexdigest()


def test_different_seeds_give_different_files(tmp_path):
    m = fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8)
    a = fk.simulate_stable_like(m, 20, 0.05, h_max=1e-3, seed=11)
    b = fk.simulate_stable_like(m, 20, 0.05, h_max=1e-3, seed=12)
    da = fk.write_ensemble(tmp_path / "a.flpe", a)
    db = fk.write_ensemble(tmp_path / "b.flpe", b)
    assert da != db


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        fk.read_ensemble(tmp_path / "nope.flpe")


def test_bad_magic(tmp_path):
    bad = tmp_path / "bad.flpe"
    bad.write_bytes(b"XXXX0123")
    with pytest.raises(ConfigError, match=re.escape("not an ensemble file (bad magic)")):
        fk.read_ensemble(bad)


def test_truncated_header(stored, tmp_path):
    path, _ = stored
    raw = path.read_bytes()
    assert raw[:4] == b"FLPE"
    trunc = tmp_path / "trunc.flpe"
    trunc.write_bytes(raw[:20])
    with pytest.raises(ConfigError, match="truncated header"):
        fk.read_ensemble(trunc)


def test_payload_size_mismatch(stored, tmp_path):
    path, _ = stored
    raw = path.read_bytes()
    short = tmp_path / "short.flpe"
    short.write_bytes(raw[:-16])
    with pytest.raises(ConfigError, match=r"size mismatch, expected \d+ bytes, found \d+"):
        fk.read_ensemble(short)


def test_unsupported_version(stored, tmp_path):
    path, _ = stored
    raw = path.read_bytes()
    vbad = tmp_path / "vbad.flpe"
    vbad.write_bytes(raw[:4] + (99).to_bytes(4, "little") + raw[8:])
    with pytest.raises(ConfigError, match="unsupported format version 99"):
        fk.read_ensemble(vbad)


def test_csv_export_truncates_paths(tmp_path, small_ensemble):
    out = tmp_path / "paths.csv"
    fk.export_csv(out, small_ensemble, max_paths=3)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,path0,path1,path2"
    assert len(lines) - 1 == 9  # one row per grid time
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert all(float(v) == 0.2 for v in first[1:])  # start point at t = 0


def test_csv_export_dimension_two_columns(tmp_path):
    ens = fk.simulate_levy(fk.alpha_stable(1.2, 2), 5, 0.5, 4, seed=4)
    out = tmp_path / "d2.csv"
    fk.export_csv(out, ens)
    header = out.read_text().split("\n", 1)[0]
    assert header.startswith("t,path0_c0,path0_c1,path1_c0,path1_c1")
    assert header.count(",") == 10  # t plus 5 paths x 2 components
