"""Binary ensemble files: round trips, checksums, corruption handling, CSV export."""

import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest

import fellerkit as fk
import fellerkit.ensemble_io as eio
import fellerkit.simulate as sim
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


def test_checksum_of_a_large_file_reads_it_in_blocks(tmp_path):
    positions = np.arange(2 * 1024 * 1024, dtype=float).reshape(1024, 1024, 2)
    ens = fk.PathEnsemble(
        positions=positions, time_grid=np.linspace(0.0, 1.0, 1024),
        start=np.zeros(2), scheme="test",
    )
    path = tmp_path / "large.flpe"
    digest = fk.write_ensemble(path, ens)
    size = path.stat().st_size
    assert size >= 16 * 1024 * 1024
    tracemalloc.start()
    try:
        checksum = fk.file_checksum(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert checksum == digest
    assert peak < size / 8


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


STREAM_CASES = {
    "d1": lambda: sim.levy_steps(fk.alpha_stable(1.3), 5, 1.0, 11, seed=2, start=0.2),
    "d2": lambda: sim.levy_steps(fk.alpha_stable(0.8, 2), 5, 1.0, 11, seed=2, start=[0.5, -1.0]),
    "d3": lambda: sim.levy_steps(fk.alpha_stable(1.5, 3), 5, 1.0, 11, seed=2),
    "stable_like": lambda: sim.stable_like_steps(
        fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8), 5, 0.05, n_steps=11, seed=3
    ),
    "compound_poisson": lambda: sim.levy_steps(fk.compound_poisson(3.0, 0.2, 0.5), 5, 1.0, 11),
    "drift": lambda: sim.levy_steps(fk.alpha_stable(1.2, 2, drift=[1.0, -0.5]), 5, 1.0, 11),
    "one_path": lambda: sim.levy_steps(fk.alpha_stable(1.5, 2), 1, 1.0, 11, seed=4),
}


class TestStreamedWrite:
    """write_ensemble on a PathSteps simulates as it writes; the file must
    be the bytes of the collected ensemble for every chunk shape."""

    @staticmethod
    def chunked(monkeypatch, span, n, d, piece_bytes=8):
        """Set the chunk constants so that write_ensemble takes ``span``;
        returns the list its positioned writes are recorded in.  Blocks of
        three steps on two workers end inside chunks of four and five grid
        times."""
        monkeypatch.setattr(sim, "_worker_count", lambda: 2)
        monkeypatch.setattr(sim, "BLOCK_ELEMENTS", 3 * n * d)
        monkeypatch.setattr(eio, "CHUNK_BYTES", 8 * d * n * span)
        monkeypatch.setattr(eio, "PIECE_BYTES", piece_bytes)
        writes = []
        pwrite = eio.os.pwrite

        def recorded(fd, data, offset):
            writes.append(offset)
            return pwrite(fd, data, offset)

        monkeypatch.setattr(eio.os, "pwrite", recorded)
        return writes

    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    @pytest.mark.parametrize("span, n_chunks", [(12, 1), (40, 1), (4, 3), (5, 3), (1, 12)])
    def test_streamed_file_is_the_collected_one(self, case, span, n_chunks, tmp_path, monkeypatch):
        steps = STREAM_CASES[case]()
        n, m, d = steps.n_paths, len(steps.time_grid), steps.dimension
        assert m == 12
        writes = self.chunked(monkeypatch, span, n, d)
        assert eio._span(n, m, d) == min(span, m)
        digest = fk.write_ensemble(tmp_path / "streamed.flpe", steps)
        # one chunk is one write; more are one positioned write per path each
        assert len(writes) == (0 if n_chunks == 1 else n * n_chunks)

        positions = steps.collect().positions
        assert fk.write_ensemble(tmp_path / "collected.flpe", steps.collect()) == digest
        blob = (tmp_path / "streamed.flpe").read_bytes()
        assert blob == (tmp_path / "collected.flpe").read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        prefix = blob[: 12 + header_len]
        assert digest == hashlib.sha256(prefix + positions.astype("<f8").tobytes()).hexdigest()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["collected.flpe", "streamed.flpe"]

    def test_pieces_are_at_least_piece_bytes(self, tmp_path, monkeypatch):
        """A chunk budget below one piece per path is raised to it: three
        grid times of 2 x 8 bytes, so 12 times need 4 writes a path."""
        steps = STREAM_CASES["d2"]()
        writes = self.chunked(monkeypatch, 1, 5, 2, piece_bytes=3 * 16 - 1)
        assert eio._span(5, 12, 2) == 3
        fk.write_ensemble(tmp_path / "paths.flpe", steps)
        assert len(writes) == 5 * 4
        assert fk.read_ensemble(tmp_path / "paths.flpe").positions.tobytes() == (
            steps.collect().positions.tobytes()
        )

    def test_default_span_of_a_large_ensemble(self):
        """4000 paths in d = 2 over 2001 grid times: 16 MiB chunks of 262
        grid times, 4192-byte pieces, 8 chunks."""
        span = eio._span(4000, 2001, 2)
        assert span == 262
        assert 4000 * span * 16 <= eio.CHUNK_BYTES < 4000 * (span + 1) * 16
        assert span * 16 >= eio.PIECE_BYTES
        # a row shorter than one piece is one chunk; the chunk is never
        # larger than the ensemble
        assert eio._span(10**6, 100, 1) == 100
