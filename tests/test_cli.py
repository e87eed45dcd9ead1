"""Command-line interface tests.

Everything runs in process through cli.main(argv), so exit codes, stdout,
stderr, and the report files can all be asserted without spawning a shell.
Only the check that a config cannot hang the CLI runs it in a child, under
a timeout.
"""

import csv
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fellerkit as fk
import fellerkit.cli as cli
from fellerkit import quadrature
from fellerkit.config import build_envelope_from_config, build_model, load_config


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def analyze_cfg(tmp_path):
    return write_cfg(tmp_path, "analyze.json", {
        "symbol": {"type": "alpha_stable", "alpha": 0.5},
        "criteria": {"run": ["ultracontractivity", "transience", "local_times"]},
    })


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadmeExample:
    @pytest.mark.parametrize("command", ["analyze", "simulate", "validate"])
    def test_readme_config_runs_as_written(self, command, tmp_path):
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
        assert len(blocks) == 1
        cfg = tmp_path / "readme.json"
        cfg.write_text(blocks[0])
        rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / command)])
        assert rc == 0


class TestArgparse:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "fellerkit 0.1.0"

    def test_config_flag_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err


class TestAnalyze:
    def test_report_and_curves(self, analyze_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["analyze", "--config", analyze_cfg, "--out", str(out)])
        assert rc == 0
        assert f"wrote {out / 'report.json'}" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == ["curves.csv", "report.json"]

        rep = json.loads((out / "report.json").read_text())
        assert sorted(rep) == [
            "command", "config", "criteria", "envelope", "heat_kernel_bounds",
            "model", "occupation_bounds", "version",
        ]
        assert rep["command"] == "analyze"
        assert rep["version"] == "0.1.0"
        assert rep["model"] == {
            "dimension": 1, "kind": "closed_form", "name": "alpha_stable",
        }
        assert rep["envelope"]["provenance"] == "closed_form(state-free)"
        assert rep["envelope"]["caveats"] == []

        verdicts = {c["criterion"]: c["verdict"] for c in rep["criteria"]}
        assert verdicts == {
            "ultracontractivity": "holds",
            "transience": "holds",  # alpha = 0.5 < d = 1
            "local_times": "inconclusive",
        }
        # reports are reproducible artifacts, so wall times are zeroed
        assert all(c["wall_time"] == 0.0 for c in rep["criteria"])

        heat = rep["heat_kernel_bounds"]
        assert sorted(heat) == ["0.1", "1.0", "10.0"]
        assert heat["1.0"] == pytest.approx(81.4873308630504, rel=1e-12)
        assert heat["10.0"] == pytest.approx(0.8148733086305043, rel=1e-12)
        assert rep["occupation_bounds"] == {}

        curves = (out / "curves.csv").read_text().strip().split("\n")
        assert len(curves) == 126
        assert curves[0] == "curve,x,y"
        assert curves[1] == "q_inf,0.01,0.1"
        assert curves[-1].startswith("heat_bound,10.0,")

    def test_nonfinite_bounds_are_strings_in_strict_json(self, tmp_path):
        # the zero symbol has q_inf = 0: every heat integral diverges
        cfg = write_cfg(tmp_path, "zero.json", {"symbol": {"type": "zero"}})
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", cfg, "--out", str(out)]) == 0

        def reject(constant):
            raise AssertionError(f"report.json holds the bare constant {constant}")

        rep = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert rep["heat_kernel_bounds"] == {"0.1": "inf", "1.0": "inf", "10.0": "inf"}
        with open(out / "curves.csv", newline="") as fh:
            heat = [row for row in csv.DictReader(fh) if row["curve"] == "heat_bound"]
        assert [(row["x"], row["y"]) for row in heat] == [
            ("0.1", "inf"), ("1.0", "inf"), ("10.0", "inf"),
        ]

    def test_rerun_is_byte_identical(self, analyze_cfg, tmp_path):
        out = tmp_path / "out"
        cli.main(["analyze", "--config", analyze_cfg, "--out", str(out)])
        first = (out / "report.json").read_bytes()
        cli.main(["analyze", "--config", analyze_cfg, "--out", str(out)])
        assert (out / "report.json").read_bytes() == first

    def test_default_out_dir_comes_from_config(self, analyze_cfg, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["analyze", "--config", analyze_cfg])
        assert rc == 0
        assert (tmp_path / "fellerkit-out" / "report.json").exists()

    def test_threads_flag_is_accepted(self, analyze_cfg, tmp_path, capsys):
        out = tmp_path / "outt"
        rc = cli.main(["analyze", "--config", analyze_cfg, "--out", str(out), "--threads", "2"])
        assert rc == 0
        # a one-line deprecation note on stderr, and the same report as without the flag
        assert capsys.readouterr().err == cli.THREADS_DEPRECATED + "\n"
        assert "--threads is deprecated" in cli.THREADS_DEPRECATED
        first = (out / "report.json").read_bytes()
        assert cli.main(["analyze", "--config", analyze_cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "report.json").read_bytes() == first

    def test_one_shell_walk_serves_transience_local_times_and_heat(self, tmp_path, monkeypatch):
        symbol = {
            "type": "closed_form", "re": "(1.25 + 0.5*sin(x)) * abs(xi)**1.5",
            "radial_in_xi": True,
        }
        envelope = {
            "method": "grid", "x_domain": [[0.0, 2.0 * math.pi]], "resolution": 17,
            "tail": "periodic",
        }
        cfg = write_cfg(tmp_path, "walk.json", {
            "symbol": symbol, "envelope": envelope,
            "criteria": {"run": ["transience", "local_times"], "heat_times": [1.0]},
        })

        def counted(model, env_cfg, calls):
            env = build_envelope_from_config(model, env_cfg)
            fn = env.q_inf_fn
            env.q_inf_fn = lambda xi: calls.append(xi.tobytes()) or fn(xi)
            return env

        # one shell per round, so each call past the first is one pass of
        # each walk (test_rounds_ask_for_the_points_of_one_shell_at_a_time
        # pins the points to those of the default rounds)
        monkeypatch.setattr(quadrature, "ROUND_VALUES", 0)
        analyze = []
        monkeypatch.setattr(cli, "build_envelope_from_config", lambda m, c: counted(m, c, analyze))
        assert cli.main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(set(analyze)) == len(analyze)  # no points are asked for twice
        local_times, heat = [], []
        rep = fk.test_local_times(counted(build_model(symbol), envelope, local_times))
        assert rep.verdict == "holds"
        env = counted(build_model(symbol), envelope, heat)
        _, result = fk.heat_kernel_sup_bound(env, 1.0, full=True)
        # a call beyond one per shell is a bisection pass, so the shared walk
        # makes at most the calls of the local-times walk (with its probe)
        # plus the heat row's bisection passes; analyze adds two curve queries.
        # The inner and outer walks run in lockstep, so one call may hold a
        # pass of each: inner nodes lie below |xi| = 1, outer ones above it.
        radii = [np.abs(np.frombuffer(points)) for points in heat]
        passes = sum(int((r < 1).any()) + int((r > 1).any()) for r in radii)
        bisections = passes - len(result.annulus_trace)
        assert len(analyze) <= len(local_times) + bisections + 2

    GRID = {
        "symbol": {
            "type": "closed_form", "dimension": 2, "radial_in_xi": True,
            "re": "(1.25 + 0.5*sin(x1)*cos(x2)) * (xi1**2 + xi2**2)**0.75",
        },
        "envelope": {
            "method": "grid", "x_domain": [[0.0, 2.0 * math.pi]] * 2, "resolution": 17,
            "tail": "periodic",
        },
        "criteria": {"heat_times": [1.0], "occupation_radii": [1.0]},
    }

    def test_rounds_ask_for_the_points_of_one_shell_at_a_time(self, tmp_path, monkeypatch):
        # a round asks for the first passes of every shell its walks are
        # sure to take: the same frequencies as one shell per round, in a
        # handful of grid searches instead of one per shell
        cfg = write_cfg(tmp_path, "grid.json", self.GRID)
        default = quadrature.ROUND_VALUES

        def asked(round_values):
            monkeypatch.setattr(quadrature, "ROUND_VALUES", round_values)
            calls = []

            def counted(model, env_cfg):
                env = build_envelope_from_config(model, env_cfg)
                fn = env.q_inf_fn
                env.q_inf_fn = lambda xi: calls.append(xi.copy()) or fn(xi)
                return env

            monkeypatch.setattr(cli, "build_envelope_from_config", counted)
            out = tmp_path / f"out{round_values}"
            assert cli.main(["analyze", "--config", cfg, "--out", str(out)]) == 0
            points = sorted(map(bytes, np.concatenate(calls)))
            return len(calls), points, (out / "report.json").read_bytes()

        one_shell, one_shell_points, one_shell_report = asked(0)
        calls, points, report = asked(default)
        assert points == one_shell_points
        assert report == one_shell_report
        assert calls <= 8 < one_shell

    def test_a_nan_envelope_value_leaves_its_rows_undetermined(self, tmp_path, monkeypatch):
        # a NaN q_inf on the shell 1 <= |xi| < 2: the heat row walks it, so
        # its bound cannot be classified, and transience reads no evidence
        # from it (1 / NaN is no divergence either)
        def q_inf(xi):
            r = np.linalg.norm(xi, axis=-1)
            return np.where((r >= 1.0) & (r < 2.0), np.nan, r**0.5)

        env = fk.Envelope(1, q_inf, q_inf, q_inf, lambda xi: np.zeros(len(xi)), "nan", True)
        cfg = write_cfg(tmp_path, "nan.json", {
            "symbol": {"type": "closed_form", "re": "abs(xi)**0.5"},
            "criteria": {"run": ["transience"], "heat_times": [1.0], "transience_radius": 4.0},
        })
        monkeypatch.setattr(cli, "build_envelope_from_config", lambda model, env_cfg: env)
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", cfg, "--out", str(out)]) == 3
        assert not (out / "report.json").exists()
        report = fk.test_transience(env, 4.0)
        assert report.verdict == "inconclusive"
        assert report.evidence["integral"]["classification"] == "undetermined"
        # below the NaN shell the walk reads transience
        assert fk.test_transience(env, 1.0).verdict == "holds"


class TestSimulate:
    @pytest.fixture()
    def sim_cfg(self, tmp_path):
        return write_cfg(tmp_path, "sim.json", {
            "symbol": {
                "type": "stable_like", "alpha": "1.5 + 0.3*sin(x)",
                "alpha_min": 1.2, "alpha_max": 1.8,
            },
            "simulation": {"n_paths": 50, "t_max": 0.25, "h_max": 0.005},
            "seed": 4,
        })

    def test_writes_ensemble_and_summary(self, sim_cfg, tmp_path):
        out = tmp_path / "outsim"
        rc = cli.main(["simulate", "--config", sim_cfg, "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == ["ensemble.flpe", "report.json"]
        ens_info = json.loads((out / "report.json").read_text())["ensemble"]
        assert sorted(ens_info) == [
            "file", "n_paths", "n_times", "scheme", "seed", "sha256", "t_max",
        ]
        assert ens_info["file"] == "ensemble.flpe"
        assert ens_info["n_paths"] == 50
        assert ens_info["n_times"] == 51
        assert ens_info["scheme"] == "euler_frozen"
        assert ens_info["seed"] == 4
        assert ens_info["t_max"] == 0.25
        digest = fk.file_checksum(out / "ensemble.flpe")
        assert digest.startswith(ens_info["sha256"])
        back = fk.read_ensemble(out / "ensemble.flpe")
        assert back.positions.shape == (50, 51, 1)

    def test_seed_controls_the_checksum(self, sim_cfg, tmp_path):
        shas = []
        for name, extra in (("a", []), ("b", []), ("c", ["--seed", "5"])):
            out = tmp_path / name
            cli.main(["simulate", "--config", sim_cfg, "--out", str(out)] + extra)
            shas.append(json.loads((out / "report.json").read_text())["ensemble"]["sha256"])
        assert shas[0] == shas[1]
        assert shas[0] != shas[2]

    def test_a_failed_run_leaves_no_partial_file(self, sim_cfg, tmp_path, monkeypatch, capsys):
        """An ensemble.flpe from an earlier run stays as it was, and the
        temporary file the failed run had written chunks to is gone."""
        out = tmp_path / "outsim"
        out.mkdir()
        (out / "ensemble.flpe").write_bytes(b"earlier run")
        blocks = fk.simulate.PathSteps._blocks

        def fails_midway(self):
            for k0, block in blocks(self):
                if k0 >= 30:
                    raise RuntimeError("sampler failed")
                yield k0, block

        # chunks of 4 grid times, so several reach the file before the failure
        monkeypatch.setattr(fk.ensemble_io, "CHUNK_BYTES", 4 * 8 * 50)
        monkeypatch.setattr(fk.ensemble_io, "PIECE_BYTES", 8)
        monkeypatch.setattr(fk.simulate.PathSteps, "_blocks", fails_midway)
        assert cli.main(["simulate", "--config", sim_cfg, "--out", str(out)]) == 3
        assert "error: RuntimeError: sampler failed" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["ensemble.flpe"]
        assert (out / "ensemble.flpe").read_bytes() == b"earlier run"
        (out / "ensemble.flpe").unlink()
        assert cli.main(["simulate", "--config", sim_cfg, "--out", str(out)]) == 3
        assert list(out.iterdir()) == []

    def test_memory_follows_the_chunk_not_the_ensemble(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, "big.json", {
            "symbol": {"type": "brownian"},
            "simulation": {"n_paths": 1000, "t_max": 1.0, "n_steps": 4300},
        })
        positions_nbytes = 1000 * 4301 * 8
        assert positions_nbytes >= 32 << 20
        monkeypatch.setattr(fk.ensemble_io, "CHUNK_BYTES", 4 << 20)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < positions_nbytes / 4
        assert (out / "ensemble.flpe").stat().st_size > positions_nbytes


class TestValidate:
    def test_full_validation_report(self, tmp_path):
        cfg = write_cfg(tmp_path, "val.json", {
            "symbol": {"type": "brownian"},
            "simulation": {"n_paths": 400, "t_max": 14.0, "h_max": 0.01},
            "validation": {
                "t_values": [0.25, 1.0], "xi_values": [0.5, 1.0],
                "exit": [{"r": 0.5, "t": 0.25}],
                "occupation_xi": [0.0, 1.0],
            },
            "seed": 2,
        })
        out = tmp_path / "outval"
        rc = cli.main(["validate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert sorted(rep) == [
            "char_bound", "command", "config", "exit_frequencies", "model",
            "occupation_fourier", "version",
        ]
        assert rep["char_bound"]["verdict"] == "holds"
        assert rep["char_bound"]["n_violations"] == 0
        assert rep["occupation_fourier"]["verdict"] == "holds"
        assert rep["occupation_fourier"]["horizon"] == 14.0
        (row,) = rep["exit_frequencies"]
        assert sorted(row) == ["bound", "frequency", "ok", "r", "se", "t"]
        assert row["r"] == 0.5 and row["t"] == 0.25
        assert row["ok"] is True

        margins = (out / "margins.csv").read_text().strip().split("\n")
        assert margins[0] == "t,xi,bound,empirical_abs,se,margin,ok"
        assert len(margins) == 1 + 2 * 2

    def test_no_frequencies_gives_an_empty_check(self, tmp_path):
        cfg = write_cfg(tmp_path, "val0.json", {
            "symbol": {"type": "brownian"},
            "simulation": {"n_paths": 50, "t_max": 1.0, "h_max": 0.01},
            "validation": {"t_values": [0.25, 1.0], "xi_values": []},
            "seed": 2,
        })
        out = tmp_path / "outval0"
        assert cli.main(["validate", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["char_bound"]["n_points"] == 0
        assert rep["char_bound"]["verdict"] == "holds"
        assert (out / "margins.csv").read_text().splitlines() == [
            "t,xi,bound,empirical_abs,se,margin,ok",
        ]

    def test_optional_sections_stay_out_of_the_report(self, tmp_path):
        cfg = write_cfg(tmp_path, "val2.json", {
            "symbol": {"type": "brownian"},
            "simulation": {"n_paths": 400, "t_max": 1.0, "h_max": 0.01},
            "validation": {"t_values": [0.25, 1.0], "xi_values": [0.5, 1.0]},
            "seed": 2,
        })
        out = tmp_path / "outval2"
        rc = cli.main(["validate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert sorted(rep) == ["char_bound", "command", "config", "model", "version"]


class TestConfigErrors:
    def run_expecting_2(self, args, capsys, fragment):
        rc = cli.main(args)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert fragment in err

    def test_missing_file(self, tmp_path, capsys):
        self.run_expecting_2(
            ["analyze", "--config", str(tmp_path / "nope.json")],
            capsys, "config file not found",
        )

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        self.run_expecting_2(["analyze", "--config", str(bad)], capsys, "invalid JSON")

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "unk.json", {"symbol": {"type": "brownian"}, "bogus": 1})
        self.run_expecting_2(
            ["analyze", "--config", cfg], capsys,
            "unknown key(s) ['bogus'] in the top-level config",
        )

    def test_unknown_symbol_type(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "unk2.json", {"symbol": {"type": "warp_drive"}})
        self.run_expecting_2(
            ["analyze", "--config", cfg], capsys, "unknown symbol type 'warp_drive'",
        )

    def test_missing_symbol_section(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "nos.json", {"criteria": {}})
        self.run_expecting_2(
            ["analyze", "--config", cfg], capsys, "config needs a 'symbol' section",
        )

    def test_unknown_criterion(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "unkc.json", {
            "symbol": {"type": "brownian"},
            "criteria": {"run": ["teleportation"]},
        })
        self.run_expecting_2(
            ["analyze", "--config", cfg, "--out", str(tmp_path / "oc")], capsys,
            "unknown criterion 'teleportation';"
            " known: ['local_times', 'transience', 'ultracontractivity']",
        )


class TestConfigTable:
    """Every section's keys and value types are checked by load_config's
    table before any work, so each malformed entry exits 2 naming its
    section and key, and writes nothing."""

    BASE = {
        "symbol": {"type": "brownian"},
        "simulation": {"n_paths": 20, "t_max": 1.0, "h_max": 0.01},
        "validation": {"t_values": [0.5], "xi_values": [1.0]},
    }
    TOP = "the top-level config"

    @pytest.mark.parametrize("command, section, entry, key", [
        ("analyze", "criteria", {"heat_time": [2.0], "bogus": 1}, "bogus"),
        ("analyze", "tolerances", {"abs_tol": 1e-9}, "abs_tol"),
        ("simulate", "simulation", {"n_path": 10}, "n_path"),
        ("validate", "validation", {"t_value": [0.5]}, "t_value"),
        ("analyze", "output", {"dir": "elsewhere"}, "dir"),
        ("validate", "validation", {"exit": [{"r": 1, "t": 0.5, "x": 1}]}, "exit"),
        ("analyze", "envelope", {"refine_rounds": True}, "refine_rounds"),
        ("analyze", "envelope", {"resolution": "abc"}, "resolution"),
        ("analyze", "tolerances", {"rel_tol": "x"}, "rel_tol"),
        ("analyze", "tolerances", {"rel_tol": -1}, "rel_tol"),
        ("simulate", "simulation", {"n_paths": "abc"}, "n_paths"),
        ("simulate", "simulation", {"n_paths": 0}, "n_paths"),
        ("simulate", "simulation", {"n_paths": -3}, "n_paths"),
        ("validate", "simulation", {"n_paths": 0}, "n_paths"),
        ("validate", "simulation", {"n_paths": -3}, "n_paths"),
        ("simulate", "simulation", {"h_max": None}, "h_max"),
        ("simulate", "simulation", {"start": "abc"}, "start"),
        ("validate", "validation", {"exit": [{"r": 1.0}]}, "exit"),
        ("validate", "validation", {"n_sigma": "x"}, "n_sigma"),
        ("validate", "validation", {"t_values": 0.5}, "t_values"),
        ("simulate", None, {"seed": "abc"}, "seed"),
        ("simulate", None, {"seed": -1}, "seed"),
        ("analyze", None, {"envelope": "grid"}, "envelope"),
        ("analyze", None, {"criteria": [1]}, "criteria"),
    ])
    def test_malformed_entry_exits_2(self, command, section, entry, key, tmp_path, capsys):
        cfg = {**self.BASE, **entry} if section is None else {
            **self.BASE, section: {**self.BASE.get(section, {}), **entry}
        }
        path = write_cfg(tmp_path, "bad.json", cfg)
        out = tmp_path / "out"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        if section is None and key != "seed":  # a section that is not an object
            assert f"the {key} section must be an object" in err
        else:
            assert f"'{key}'" in err
            assert (self.TOP if section is None else f"the {section} section") in err
        assert not out.exists()  # no report.json, no ensemble.flpe

    def test_unknown_key_lists_the_allowed_keys(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "bad.json", {**self.BASE, "tolerances": {"abs_tol": 1}})
        assert cli.main(["analyze", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: unknown key(s) ['abs_tol'] in the tolerances section;"
            " allowed: ['rel_tol']\n"
        )

    @pytest.mark.parametrize("n_sigma", [math.inf, math.nan, -1.0])
    def test_n_sigma_must_be_finite_and_non_negative(self, n_sigma, tmp_path, capsys):
        """An infinite n_sigma passed every row, a nan one failed every row."""
        validation = {**self.BASE["validation"], "n_sigma": n_sigma}
        path = write_cfg(tmp_path, "bad.json", {**self.BASE, "validation": validation})
        assert cli.main(["validate", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: 'n_sigma' in the validation section must be"
            " a finite number >= 0\n"
        )


class TestSeedFlag:
    @pytest.mark.parametrize("command", ["analyze", "simulate", "validate"])
    def test_negative_seed_exits_2_before_the_output_directory(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_cfg(tmp_path, "c.json", TestConfigTable.BASE)
        rc = cli.main([command, "--config", path, "--out", str(out), "--seed", "-1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "configuration error: '--seed' in the command line must be"
            " a non-negative integer\n"
        )
        assert not out.exists()


class TestGridEnvelopeInputs:
    """Grid inputs that the value types admit but no grid can use exit 2
    naming their key, and write no report."""

    GRID = {
        "method": "grid", "x_domain": [[0.0, 6.25], [0.0, 6.25]], "resolution": 9,
        "tail": "periodic",
    }

    @pytest.mark.parametrize("entry, message", [
        ({"resolution": 1}, "resolution must be an integer >= 2; got 1"),
        ({"resolution": 0}, "resolution must be an integer >= 2; got 0"),
        ({"resolution": -3}, "resolution must be an integer >= 2; got -3"),
        ({"refine_rounds": -1}, "refine_rounds must be an integer >= 0; got -1"),
        ({"x_domain": [[0.0, math.nan], [0.0, 1.0]]},
         "x_domain bounds must be finite; got [(0.0, nan), (0.0, 1.0)]"),
        ({"x_domain": [[0.0, math.inf], [0.0, 1.0]]},
         "x_domain bounds must be finite; got [(0.0, inf), (0.0, 1.0)]"),
    ])
    def test_bad_grid_exits_2(self, entry, message, tmp_path, capsys):
        path = write_cfg(tmp_path, "grid.json", {
            "symbol": {
                "type": "closed_form", "dimension": 2,
                "re": "(1.25 + 0.5*sin(x1)*cos(x2)) * (xi1**2 + xi2**2)**0.75",
            },
            "envelope": {**self.GRID, **entry},
        })
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (out / "report.json").exists()


    def test_a_default_d3_grid_exits_0_in_seconds(self, tmp_path):
        # at the d = 1 and 2 default of 513 nodes per axis this ran for hours
        path = write_cfg(tmp_path, "grid.json", {
            "symbol": {
                "type": "closed_form", "dimension": 3, "radial_in_xi": True,
                "re": "(1.25 + 0.5*sin(x1)*cos(x2)*cos(x3)) * (xi1**2 + xi2**2 + xi3**2)**0.75",
            },
            "envelope": {"method": "grid", "x_domain": [[0.0, 2 * math.pi]] * 3, "tail": "periodic"},
        })
        out = tmp_path / "out"
        start = time.perf_counter()
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
        assert time.perf_counter() - start < 60.0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["envelope"]["resolution"] == 65
        assert "resolution=65," in report["envelope"]["provenance"]


class TestMalformedExpressions:
    """An expression outside the allowed vocabulary, or whose constant part
    cannot be computed, is a configuration error: exit 2 before any output
    directory is made."""

    @pytest.mark.parametrize("symbol, message", [
        ({"type": "closed_form", "re": "abs(xi)**1.5 + foo"}, "unknown name 'foo'"),
        ({"type": "closed_form", "re": "abs(xi)**1.5 + x.real"},
         "syntax element Attribute not allowed"),
        ({"type": "closed_form", "re": "abs(xi)**1.5 + sin"}, "function 'sin' may only be called"),
        ({"type": "stable_like", "alpha": "1.5 + 0.3*sin(y)", "alpha_min": 1.2, "alpha_max": 1.8},
         "unknown name 'y'"),
        ({"type": "closed_form", "dimension": 2,
          "re": "(1.25 + 0.5*sin(x)) * (xi1**2 + xi2**2)**0.75"}, "unknown name 'x'"),
        # numpy would read xi as out= and write sin(x) into the caller's array
        ({"type": "closed_form", "re": "abs(xi)**1.5 + 0*sin(x, xi)"},
         "sin takes exactly one argument"),
        ({"type": "closed_form", "re": "abs(xi)**1.5 + abs()"}, "abs takes exactly one argument"),
        ({"type": "closed_form", "re": "abs(xi)**1.5 + x + True"}, "literal True not allowed"),
        # a complex constant: float() of it raised TypeError (exit 3), and a
        # complex re ran to a report
        ({"type": "stable_like", "alpha": "1.5 + 0*(-1)**0.5", "alpha_min": 1.2, "alpha_max": 1.8},
         "constant power -1.0 ** 0.5 is not real"),
        ({"type": "closed_form", "re": "abs(xi)**1.5 + (-1)**0.5"},
         "constant power -1.0 ** 0.5 is not real"),
        # an infinite constant: exp(1000) and 1e999 made q_inf infinite, so
        # transience and local times "held" with heat bounds of 0.0
        ({"type": "closed_form", "re": "abs(xi)**1.5 + exp(1000)"}, "constant part evaluates to inf"),
        ({"type": "closed_form", "re": "abs(xi)**1.5 + 1e999"}, "literal inf not allowed"),
        ({"type": "closed_form", "re": "abs(xi)**1.5 + 0*exp(1000)"},
         "constant part evaluates to inf"),
        ({"type": "closed_form", "re": "abs(xi)**1.5 + log(-1)"}, "constant part evaluates to nan"),
    ])
    def test_bad_expression_exits_2(self, symbol, message, tmp_path, capsys):
        path = write_cfg(tmp_path, "expr.json", {"symbol": symbol})
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("constant", ["0*9**9**9", "1/0"])
    def test_constant_that_cannot_be_computed_exits_2(self, constant, tmp_path):
        # in a child under a timeout: in integers, 9**9**9 has 370 million digits
        path = write_cfg(tmp_path, "expr.json", {
            "symbol": {"type": "closed_form", "re": f"abs(xi)**1.5 + {constant}"},
        })
        out = tmp_path / "out"
        run_cli = "import sys, fellerkit.cli; sys.exit(fellerkit.cli.main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", run_cli, "analyze", "--config", path, "--out", str(out)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert proc.returncode == 2, proc.stderr
        message = f"configuration error: cannot evaluate 'abs(xi)**1.5 + {constant}': "
        assert proc.stderr.startswith(message)
        assert not out.exists()


class TestCoefficientForms:
    """A coefficient is a number, an expression string or a callable, and
    the model is state-free exactly when none of its coefficients reads x."""

    @pytest.mark.parametrize("symbol, message", [
        ({"type": "levy", "kill": [1, 2]}, "got [1, 2]"),
        ({"type": "stable_like", "alpha": [1.5], "alpha_min": 1.2, "alpha_max": 1.8},
         "got [1.5]"),
        ({"type": "closed_form", "re": None}, "got None"),
        ({"type": "subordinate", "base": {"type": "brownian"}, "bernstein": 0.5},
         "f(x, 0) = 0.5 is not 0"),
        # an expression with no variable is one value, broadcast to the shape of s
        ({"type": "subordinate", "base": {"type": "brownian"}, "bernstein": "2"},
         "f(x, 0) = 2 is not 0"),
    ], ids=["levy.kill", "stable_like.alpha", "closed_form.re", "subordinate.bernstein",
            "subordinate.bernstein_expression"])
    def test_wrong_typed_coefficient_exits_2(self, symbol, message, tmp_path, capsys):
        path = write_cfg(tmp_path, "coeff.json", {"symbol": symbol})
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert message in err
        assert not out.exists()

    def test_constant_zero_bernstein_expression_runs(self, tmp_path):
        path = write_cfg(tmp_path, "zero.json", {
            "symbol": {"type": "subordinate", "base": {"type": "brownian"}, "bernstein": "0"},
        })
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["heat_kernel_bounds"] == {"0.1": "inf", "1.0": "inf", "10.0": "inf"}

    def test_numeric_part_is_a_constant(self, tmp_path):
        path = write_cfg(tmp_path, "num.json", {
            "symbol": {"type": "closed_form", "re": "abs(xi)**1.5", "im": 0.5},
        })
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["envelope"]["provenance"] == "closed_form(state-free)"

    # the state-uniform envelope of this symbol is 0.75 |xi|^1.5; at x = 0
    # alone it would be 1.25 |xi|^1.5, and a bound 0.786 at t = 1
    VARYING = {"type": "closed_form", "re": "(1.25 + 0.5*sin(x))*abs(xi)**1.5"}

    def test_state_dependence_cannot_be_declared(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "decl.json", {
            "symbol": {**self.VARYING, "x_dependent": False},
        })
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 2
        assert "unknown key(s) ['x_dependent'] in symbol type 'closed_form'" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_expression_in_x_needs_a_box(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "nobox.json", {"symbol": self.VARYING})
        assert cli.main(["analyze", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "needs an x_domain box" in capsys.readouterr().err

    def test_expression_in_x_gets_the_uniform_bound(self, tmp_path):
        path = write_cfg(tmp_path, "box.json", {
            "symbol": self.VARYING,
            "envelope": {"x_domain": [0.0, 2 * math.pi], "tail": "periodic"},
        })
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
        heat = json.loads((out / "report.json").read_text())["heat_kernel_bounds"]
        # (4 pi)^-1 * integral of exp(-0.75 |xi|^1.5 / 16) over R
        exact = 2 * math.gamma(5 / 3) * (16 / 0.75) ** (2 / 3) / (4 * math.pi)
        assert exact == pytest.approx(1.1051583528, rel=1e-10)
        assert heat["1.0"] == pytest.approx(exact, rel=1e-9)


class TestRadialDeclaration:
    """``radial_in_xi`` makes the criteria integrate along e_1 alone, so
    closed_form checks it at a few points before any output is written."""

    def test_a_false_declaration_exits_2(self, tmp_path, capsys):
        # with the flag this symbol used to report a heat bound of 0.3183 at
        # t = 1, ten times below the exact 3.1831 that it gets without
        symbol = {"type": "closed_form", "re": "xi1**2 + 0.01*xi2**2", "dimension": 2}
        path = write_cfg(tmp_path, "aniso.json", {"symbol": {**symbol, "radial_in_xi": True}})
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: radial_in_xi is declared")
        assert "at x = [0.0, 0.0]" in err and "xi = [0.0, 0.25]" in err
        assert not out.exists()

        path = write_cfg(tmp_path, "plain.json", {"symbol": symbol})
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
        heat = json.loads((out / "report.json").read_text())["heat_kernel_bounds"]
        assert heat["1.0"] == pytest.approx(10.0 / math.pi, rel=1e-9)


class TestNoOutputDirectoryOnFailure:
    """A configuration error raised while the envelope is built leaves no
    output directory, as one from the config table does."""

    @pytest.mark.parametrize("entry", [
        {"resolution": 1},
        {"refine_rounds": -1},
        {"x_domain": [[0.0, math.nan], [0.0, 1.0]]},
        {"tail": "reflecting"},
    ])
    def test_bad_grid_envelope_leaves_no_directory(self, entry, tmp_path, capsys):
        path = write_cfg(tmp_path, "grid.json", {
            "symbol": {
                "type": "closed_form", "dimension": 2,
                "re": "(1.25 + 0.5*sin(x1)*cos(x2)) * (xi1**2 + xi2**2)**0.75",
            },
            "envelope": {**TestGridEnvelopeInputs.GRID, **entry},
        })
        out = tmp_path / "out" / "nested"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not (tmp_path / "out").exists()

    def test_envelope_error_in_an_outer_shell_exits_3(self, tmp_path, monkeypatch, capsys):
        # the probe and the inner shells stay below |xi| = 10; only the outer
        # walk of local times and heat goes past 1e3
        def failing(model, env_cfg):
            env = build_envelope_from_config(model, env_cfg)
            fn = env.q_inf_fn

            def q_inf(xi):
                if np.linalg.norm(xi, axis=-1).max() > 1e3:
                    raise RuntimeError("no envelope beyond |xi| = 1e3")
                return fn(xi)

            env.q_inf_fn = q_inf
            return env

        path = write_cfg(tmp_path, "c.json", {
            "symbol": {"type": "alpha_stable", "alpha": 1.5},
            "criteria": {"run": ["transience", "local_times"]},
        })
        monkeypatch.setattr(cli, "build_envelope_from_config", failing)
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.endswith("error: RuntimeError: no envelope beyond |xi| = 1e3\n")
        assert not (out / "report.json").exists()


class TestFailureExitCodes:
    def test_numerical_failure_exits_3(self, analyze_cfg, tmp_path, monkeypatch, capsys):
        def boom(cfg, out_dir):
            raise fk.NumericalError("boom")

        monkeypatch.setattr(cli, "cmd_analyze", boom)
        rc = cli.main(["analyze", "--config", analyze_cfg, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "numerical failure: boom" in capsys.readouterr().err

    def test_unexpected_exception_exits_3(self, analyze_cfg, tmp_path, monkeypatch, capsys):
        def kaput(cfg, out_dir):
            raise RuntimeError("kaput")

        monkeypatch.setattr(cli, "cmd_analyze", kaput)
        rc = cli.main(["analyze", "--config", analyze_cfg, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "error: RuntimeError: kaput" in capsys.readouterr().err


class TestInfiniteSymbolValues:
    """A Feller symbol is finite.  Where q_inf is +inf at a node of a
    frequency walk, 1 / q_inf and exp(-t q_inf / 16) are exact zeros that
    would read as convergence; such a row is undetermined instead, so the
    density bound cannot be classified and no report is written."""

    INFINITE = {
        "state-free": {"symbol": {"type": "closed_form", "re": "abs(xi)**1.5 + exp(1000 + 0*xi)"}},
        "grid": {
            "symbol": {"type": "closed_form", "re": "abs(xi)**1.5 * exp(x**2 + 1000)"},
            "envelope": {
                "method": "grid", "x_domain": [[-1, 1]], "tail": "periodic", "resolution": 9,
            },
        },
    }

    # exp overflows as it does from the command line, with a RuntimeWarning
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(INFINITE))
    def test_no_verdict_and_no_bound_rest_on_an_infinite_value(self, name, tmp_path, capsys):
        path = write_cfg(tmp_path, "inf.json", self.INFINITE[name])
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: heat kernel bound integral could not be classified\n"
        )
        assert not (out / "report.json").exists()


def validate_cfg(tmp_path, symbol, simulation, validation, name="val.json"):
    return write_cfg(tmp_path, name, {
        "symbol": symbol, "simulation": simulation, "validation": validation, "seed": 2,
    })


class TestValidateStreams:
    """`validate` consumes the simulation step by step; its rows must be
    those of the estimators run on the stored ensemble."""

    VALIDATION = {
        "t_values": [0.25, 1.0], "xi_values": [0.5, 2.0],
        "exit": [{"r": 0.5, "t": 0.25}, {"r": 1.0, "t": 1.0}, {"r": 0.75, "t": 0.25}],
        "occupation_xi": [0.0, 1.0, 2.0],
    }
    STABLE_LIKE = {
        "type": "stable_like", "alpha": "1.5 + 0.3*sin(x)",
        "alpha_min": 1.2, "alpha_max": 1.8,
    }

    @pytest.mark.parametrize("symbol", [{"type": "brownian"}, STABLE_LIKE])
    def test_rows_match_the_stored_ensemble(self, symbol, tmp_path):
        simulation = {"n_paths": 300, "t_max": 14.0, "h_max": 1.0 / 64.0}
        cfg = validate_cfg(tmp_path, symbol, simulation, self.VALIDATION)
        out = tmp_path / "out"
        assert cli.main(["validate", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())

        loaded = load_config(cfg)
        model = build_model(loaded["symbol"])
        env = build_envelope_from_config(model, loaded["envelope"])
        if symbol["type"] == "stable_like":
            ens = fk.simulate_stable_like(model, 300, 14.0, h_max=1.0 / 64.0, seed=2)
        else:
            ens = fk.simulate_levy(model, 300, 14.0, 14 * 64, seed=2)
        val = self.VALIDATION

        char = fk.validate_char_bound(ens, env, val["t_values"], val["xi_values"])
        with open(out / "margins.csv", newline="") as fh:
            margins = list(csv.DictReader(fh))
        assert len(margins) == len(char.rows)
        for got, want in zip(margins, char.rows):
            for key in ("t", "xi", "bound", "empirical_abs", "se", "margin"):
                assert float(got[key]) == want[key]
            assert got["ok"] == str(want["ok"])
        assert rep["char_bound"]["verdict"] == char.verdict

        for got, item in zip(rep["exit_frequencies"], val["exit"]):
            want = fk.exit_frequency(ens, item["r"], item["t"])
            assert (got["frequency"], got["se"]) == (want.value, want.se)
            # the running sup against a max over the stored prefix
            k = ens.time_index(item["t"])
            sup = np.linalg.norm(ens.positions[:, : k + 1, :] - ens.start, axis=2).max(axis=1)
            assert want.value == float(np.mean(sup >= item["r"]))

        # reference: complex exponentials summed over the whole path array
        decay = np.exp(-ens.time_grid)
        w = np.append(decay[:-1] - decay[1:], 0.0)
        occ = rep["occupation_fourier"]
        verdict = "holds"
        for row, xi in zip(occ["rows"], val["occupation_xi"]):
            mu = (np.exp(1j * (ens.positions[:, :, 0] - ens.start[0]) * xi) * w).sum(axis=1)
            mod2 = np.abs(mu) ** 2
            mean = float(mod2.mean())
            se = float(mod2.std(ddof=1) / math.sqrt(mod2.size))
            assert row["empirical"] == pytest.approx(mean, rel=1e-12)
            # the xi = 0 row has zero variance up to rounding
            assert row["se"] == pytest.approx(se, rel=1e-12, abs=1e-15)
            assert row["bound"] == fk.local_time_fourier_bound(env, xi)
            assert row["ok"] == (mean <= row["bound"] + 3.0 * se)
            verdict = verdict if row["ok"] else "fails"
        assert occ["verdict"] == verdict

    def test_memory_does_not_grow_with_the_path_array(self, tmp_path, monkeypatch):
        simulation = {"n_paths": 2000, "t_max": 16.0, "n_steps": 2048}
        cfg = validate_cfg(tmp_path, {"type": "brownian"}, simulation, self.VALIDATION)
        positions_nbytes = 2000 * 2049 * 8
        # a cold bump constant, computed inside the traced run
        monkeypatch.setattr(fk.criteria, "_BUMP_CACHE", {})
        tracemalloc.start()
        try:
            rc = cli.main(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < positions_nbytes / 4


def test_validate_writes_the_same_bytes_under_every_blas_kernel(under_blas_kernels):
    # with a drift the covariance term of the char rows' se does not vanish;
    # as np.cov, a BLAS product, it gave another margins.csv under Prescott
    probe = (
        "import hashlib, json, pathlib, tempfile\n"
        "from fellerkit import cli\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    cfg, out = pathlib.Path(tmp) / 'cfg.json', pathlib.Path(tmp) / 'out'\n"
        "    cfg.write_text(json.dumps({'symbol': {'type': 'brownian', 'drift': [1.0]},"
        " 'simulation': {'n_paths': 400, 't_max': 1.0, 'h_max': 0.01}, 'seed': 3}))\n"
        "    assert cli.main(['validate', '--config', str(cfg), '--out', str(out)]) == 0\n"
        "    print([hashlib.sha256((out / name).read_bytes()).hexdigest()"
        " for name in ('margins.csv', 'report.json')])\n"
    )
    seen = under_blas_kernels(probe)
    assert len(set(seen.values())) == 1, seen


class TestValidateRejectsBeforeSimulating:
    """Config errors that the grid alone decides are raised before the first
    step is drawn, with the messages and in the order they always had."""

    BASE = {"t_values": [0.25], "xi_values": [1.0], "exit": [{"r": 0.5, "t": 0.25}],
            "occupation_xi": [1.0]}
    OFF_GRID = "t = 0.123 is not a grid time; nearest grid times are [0.11, 0.12, 0.13]"
    OFF_GRID_EXIT = "t = 0.3333 is not a grid time; nearest grid times are [0.32, 0.33, 0.34]"
    HORIZON = "horizon 5.0 too short: e^-T must be at most 1e-6 (T >= 13.9)"
    NON_FINITE = "t = {} is not a grid time; nearest grid times are [0.0, 0.01]"
    XI = "xi must be a single frequency of dimension 1, all finite"

    @pytest.fixture(autouse=True)
    def no_steps(self, monkeypatch):
        def fail(self):
            raise AssertionError("a step was drawn")

        monkeypatch.setattr(fk.simulate.PathSteps, "__iter__", fail)

    @pytest.mark.parametrize("t_max, override, message", [
        (14.0, {"t_values": [0.25, 0.123]}, OFF_GRID),
        (14.0, {"exit": [{"r": 0.5, "t": 0.25}, {"r": 1.0, "t": 0.3333}]}, OFF_GRID_EXIT),
        (14.0, {"exit": [{"r": 0.0, "t": 0.25}]}, "radius must be positive"),
        (5.0, {}, HORIZON),
        # order: char-bound times, then the horizon, then exit rows in turn
        (5.0, {"t_values": [0.123], "exit": [{"r": -1.0, "t": 0.3333}]}, OFF_GRID),
        (5.0, {"exit": [{"r": -1.0, "t": 0.25}]}, HORIZON),
        (14.0, {"exit": [{"r": 1.0, "t": 0.3333}, {"r": -1.0, "t": 0.25}]}, OFF_GRID_EXIT),
        # nan and inf, written as NaN and Infinity in the JSON config
        (14.0, {"t_values": [0.25, math.nan]}, NON_FINITE.format("nan")),
        (14.0, {"t_values": [math.inf]}, NON_FINITE.format("inf")),
        (14.0, {"exit": [{"r": 0.5, "t": math.nan}]}, NON_FINITE.format("nan")),
        (14.0, {"exit": [{"r": 0.5, "t": -math.inf}]}, NON_FINITE.format("-inf")),
        (14.0, {"exit": [{"r": math.nan, "t": 0.25}]}, "radius must be positive"),
        (14.0, {"exit": [{"r": math.inf, "t": 0.25}]}, "radius must be positive"),
        # char-bound frequencies: read after the char-bound times, before the horizon
        (14.0, {"xi_values": [1.0, [1.0, 2.0]]}, XI),
        (14.0, {"xi_values": [math.nan]}, XI),
        (14.0, {"xi_values": [[-math.inf]]}, XI),
        (14.0, {"occupation_xi": [1.0, math.nan]}, XI),
        (14.0, {"t_values": [0.123], "xi_values": [math.nan]}, OFF_GRID),
        (5.0, {"xi_values": [math.nan]}, XI),
    ])
    def test_bad_config_exits_2_without_a_step(self, t_max, override, message, tmp_path, capsys):
        simulation = {"n_paths": 50, "t_max": t_max, "h_max": 0.01}
        cfg = validate_cfg(tmp_path, {"type": "brownian"}, simulation, {**self.BASE, **override})
        rc = cli.main(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("override", [
        # the exit rows alone: a frequency of 0 or 1 has standard error 0
        {"xi_values": [], "occupation_xi": []},
        {"xi_values": []},  # the occupation rows alone need a standard error
        {},  # the char-bound rows, checked first
    ])
    def test_one_path_exits_2_without_a_step(self, override, tmp_path, capsys):
        simulation = {"n_paths": 1, "t_max": 14.0, "h_max": 0.01}
        cfg = validate_cfg(tmp_path, {"type": "brownian"}, simulation, {**self.BASE, **override})
        rc = cli.main(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "configuration error: need at least two paths for a standard error\n"
        )

    @pytest.mark.parametrize("d", [4, 5])
    def test_exit_rows_above_dimension_three_exit_2_without_a_step(self, d, tmp_path, capsys):
        # the bound's ball grids in d = 4 would need a 12 GiB array
        symbol = {"type": "alpha_stable", "alpha": 1.5, "dimension": d}
        simulation = {"n_paths": 50, "t_max": 1.0, "h_max": 0.01}
        validation = {"t_values": [0.25], "xi_values": [[1.0] * d],
                      "exit": [{"r": 0.5, "t": 0.25}]}
        cfg = validate_cfg(tmp_path, symbol, simulation, validation)
        rc = cli.main(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "configuration error: bump constants are provided for dimensions 1 to 3\n"
        )

    def test_a_good_config_reaches_the_steps(self, tmp_path, capsys):
        simulation = {"n_paths": 50, "t_max": 14.0, "h_max": 0.01}
        cfg = validate_cfg(tmp_path, {"type": "brownian"}, simulation, self.BASE)
        rc = cli.main(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "error: AssertionError: a step was drawn" in capsys.readouterr().err


class TestExitBounds:
    """`validate` computes its exit bounds on the calling thread before it
    draws the first step: the report holds the bounds of
    ``exit_time_bound``, and a failed bound exits 3 with no step drawn."""

    @staticmethod
    def config(tmp_path, d):
        xi = 1.0 if d == 1 else [1.0, 0.5]
        # the first row's bound is below 1, so it is not clipped
        validation = {"t_values": [0.25, 1.0], "xi_values": [xi],
                      "exit": [{"r": 2.0, "t": 1.0 / 256}, {"r": 1.0, "t": 0.25}]}
        symbol = {"type": "alpha_stable", "alpha": 1.5, "dimension": d}
        simulation = {"n_paths": 200, "t_max": 1.0, "n_steps": 256}
        return validate_cfg(tmp_path, symbol, simulation, validation)

    @pytest.mark.parametrize("d", [1, 2])
    def test_report_holds_the_bounds_of_exit_time_bound(self, d, tmp_path):
        cfg = self.config(tmp_path, d)
        assert cli.main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        rows = json.loads((tmp_path / "out" / "report.json").read_text())["exit_frequencies"]
        model = build_model(load_config(cfg)["symbol"])
        bounds = [fk.exit_time_bound(model, np.zeros(d), row["r"], row["t"]).value for row in rows]
        assert [row["bound"] for row in rows] == bounds
        assert bounds[0] < 1.0

    def test_a_failed_bound_exits_3_with_no_step_drawn(self, tmp_path, monkeypatch, capsys):
        def bump_constant(d, profile=None):
            raise fk.NumericalError("bump transform tail not resolved")

        def no_steps(self):
            raise AssertionError("a step was drawn")

        monkeypatch.setattr(fk.criteria, "bump_constant", bump_constant)
        monkeypatch.setattr(fk.simulate.PathSteps, "__iter__", no_steps)
        cfg = self.config(tmp_path, 1)
        assert cli.main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "numerical failure: bump transform tail not resolved\n"

    def test_the_bounds_come_before_the_first_step_on_two_threads(self, tmp_path, monkeypatch):
        events, names = [], set()
        bound, update = cli.exit_time_bound, fk.empirics.ExitSup.update

        def exit_time_bound(*args):
            events.append("bound")
            return bound(*args)

        def record(self, k, x):
            events.append("step")
            names.update(t.name for t in threading.enumerate() if t.name.startswith("fellerkit-"))
            update(self, k, x)

        monkeypatch.setattr(cli, "exit_time_bound", exit_time_bound)
        monkeypatch.setattr(fk.empirics.ExitSup, "update", record)
        cfg = self.config(tmp_path, 1)
        assert cli.main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert events[:3] == ["bound", "bound", "step"]
        assert events.count("bound") == 2
        # the accumulator worker and the step pool; no thread for the bounds
        assert names <= {"fellerkit-feed", "fellerkit-steps"}
        assert "fellerkit-feed" in names

    def test_an_accumulator_error_exits_3(self, tmp_path, monkeypatch, capsys):
        def update(self, k, x):
            if k == 3:
                raise RuntimeError("accumulator failed")

        monkeypatch.setattr(fk.empirics.ExitSup, "update", update)
        cfg = self.config(tmp_path, 1)
        assert cli.main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "error: RuntimeError: accumulator failed" in capsys.readouterr().err
        # the fixture no_worker_thread_left checks that the step and
        # accumulator threads have ended


class TestSimulationGrid:
    """Both simulation schemes turn (t_max, n_steps, h_max) into a grid by
    the one rule of the simulate module."""

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("h_max", [-0.5, 0])
    def test_levy_config_needs_a_positive_h_max(self, command, h_max, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "grid.json", {
            "symbol": {"type": "brownian"},
            "simulation": {"n_paths": 10, "t_max": 1.0, "h_max": h_max},
        })
        out = tmp_path / "out"
        rc = cli.main([command, "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "configuration error: give n_steps or a positive h_max\n"
        )
        assert list(out.iterdir()) == []

    T_MAX = "t_max must be positive and finite"
    H_MAX = "give n_steps or a positive h_max"
    START = "start must be finite: a number or a point of dimension 1"
    STEPS = f"need at least one step and at most {fk.simulate.MAX_STEPS}, got"

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("symbol, simulation, message", [
        ({"type": "brownian"}, {"t_max": math.inf}, T_MAX),
        ({"type": "brownian"}, {"t_max": math.nan}, T_MAX),
        (TestValidateStreams.STABLE_LIKE, {"t_max": math.nan}, T_MAX),
        ({"type": "brownian"}, {"h_max": math.nan}, H_MAX),
        (TestValidateStreams.STABLE_LIKE, {"h_max": math.nan}, H_MAX),
        ({"type": "brownian"}, {"start": math.nan}, START),
        (TestValidateStreams.STABLE_LIKE, {"start": [-math.inf]}, START),
        ({"type": "brownian"}, {"start": [0.0, 1.0]}, START),
        # step counts that no grid can hold: t_max / h_max overflows, or is
        # finite but too large
        ({"type": "brownian"}, {"t_max": 1e308, "h_max": 1e-3}, f"{STEPS} inf"),
        (TestValidateStreams.STABLE_LIKE, {"h_max": 1e-300}, f"{STEPS} 9.999999999999999e+299"),
        ({"type": "brownian"}, {"h_max": math.inf}, f"{H_MAX} that is finite"),
    ])
    def test_bad_simulation_input_exits_2(
        self, command, symbol, simulation, message, tmp_path, capsys
    ):
        cfg = write_cfg(tmp_path, "grid.json", {
            "symbol": symbol,
            "simulation": {"n_paths": 10, "t_max": 1.0, "h_max": 0.25, **simulation},
        })
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert list(out.iterdir()) == []

    def test_levy_config_takes_the_fewest_steps_within_h_max(self, tmp_path):
        cfg = write_cfg(tmp_path, "grid.json", {
            "symbol": {"type": "brownian"},
            "simulation": {"n_paths": 10, "t_max": 1.0, "h_max": 0.3},
        })
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["ensemble"]["n_times"] == 5


class TestOrderOutsideTheRange:
    """An order that leaves (0, 2] only past |x| = 12, outside the band
    check's sample, fails the step from such a state with exit 2.  The
    first is NaN there, the second 2.37 at the start."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered in log:RuntimeWarning")
    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("alpha", [
        "1.5 + 0.3*sin(x) + 0*log(x + 12)",
        "1.5 + 0.3*sin(x) + min(1, max(0, -x - 12))",
    ])
    def test_a_step_from_such_a_state_exits_2(self, command, alpha, tmp_path, capsys):
        cfg = validate_cfg(
            tmp_path,
            {"type": "stable_like", "alpha": alpha, "alpha_min": 1.2, "alpha_max": 1.8},
            {"n_paths": 20, "t_max": 1.0, "h_max": 0.25, "start": -13.0},
            {"t_values": [0.5], "xi_values": [1.0]},
        )
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "configuration error: stable index must lie in (0, 2]\n"
        assert list(out.iterdir()) == []


class TestOrderNaNOnTheBandSample:
    """An order that is NaN on part of the band check's sample (x < -5
    here) fails the check: the comparisons are negated so that NaN fails
    them.  It used to pass, and analyze bounded the process by the
    declared band."""

    @pytest.mark.filterwarnings("ignore:divide by zero encountered in log:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_analyze_exits_2_and_writes_nothing(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "nan_order.json", {"symbol": {
            "type": "stable_like", "alpha": "1.5 + 0.3*sin(x) + 0*log(x + 5)",
            "alpha_min": 1.2, "alpha_max": 1.8,
        }})
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: sampled order leaves the declared band:"
            " saw [nan, nan], declared [1.2, 1.8]\n"
        )
        assert not out.exists()


class TestTolerances:
    def test_rel_tol_reaches_every_criterion_integral(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, "tol.json", {
            "symbol": {"type": "alpha_stable", "alpha": 0.5},
            "criteria": {
                "run": ["transience", "local_times"],
                "heat_times": [1.0],
                "occupation_radii": [1.0],
            },
            "tolerances": {"rel_tol": 1e-9},
        })
        seen = []
        real = cli.frequency_criteria

        def spy(env, *args, **kw):
            seen.append((kw.get("occupation_radii"), kw.get("rel_tol")))
            return real(env, *args, **kw)

        monkeypatch.setattr(cli, "frequency_criteria", spy)
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert [(c["criterion"], c["config"]["rel_tol"]) for c in rep["criteria"]] == [
            ("transience", 1e-9), ("local_times", 1e-9),
        ]
        # one call walks every criterion integral, the occupation bounds too
        assert seen == [([1.0], 1e-9)]


class TestHeatTimes:
    FINITE_T = "the density bound needs a finite t"
    HEAT_LIST = "'heat_times' in the criteria section must be a list of numbers"
    RADII_LIST = "'occupation_radii' in the criteria section must be a list of numbers"

    @pytest.mark.parametrize("entry, message", [
        pytest.param('"heat_times": [1.0, NaN]', FINITE_T, id="NaN"),
        pytest.param('"heat_times": [1.0, 1e999]', FINITE_T, id="1e999"),
        pytest.param('"heat_times": [1.0, -Infinity]', FINITE_T, id="-Infinity"),
        pytest.param('"heat_times": ["abc"]', HEAT_LIST, id="heat_times-string"),
        pytest.param('"heat_times": 5', HEAT_LIST, id="heat_times-int"),
        pytest.param('"heat_times": 1.0', HEAT_LIST, id="heat_times-float"),
        pytest.param('"occupation_radii": ["abc"]', RADII_LIST, id="radii-string"),
        pytest.param('"occupation_radii": 5', RADII_LIST, id="radii-int"),
        pytest.param('"occupation_radii": 1.0', RADII_LIST, id="radii-float"),
        pytest.param('"occupation_radii": [NaN]', "radius must be positive", id="radii-NaN"),
        pytest.param(
            '"transience_radius": "abc"',
            "'transience_radius' in the criteria section must be a number",
            id="transience-string",
        ),
        pytest.param(
            '"transience_radius": -1.0', "radius must be positive", id="transience-negative"
        ),
    ])
    def test_nonfinite_heat_time_exits_2(self, tmp_path, capsys, entry, message):
        # the JSON reader takes NaN and Infinity, and 1e999 overflows to inf;
        # malformed criteria values exit 2 as well, naming their key
        path = tmp_path / "heat.json"
        path.write_text(
            '{"symbol": {"type": "alpha_stable", "alpha": 1.5},'
            ' "criteria": {"run": ["transience"], %s}}' % entry
        )
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (out / "report.json").exists()

    def test_one_bound_call_for_all_heat_times(self, tmp_path, monkeypatch):
        times = [0.01, 0.1, 1.0, 10.0, 100.0]
        cfg = write_cfg(tmp_path, "heat.json", {
            "symbol": {"type": "alpha_stable", "alpha": 1.5},
            "criteria": {"run": [], "heat_times": times},
        })
        real = cli.frequency_criteria
        seen = []

        def spy(env, r, local_times, t, **kw):
            seen.append(list(t))
            return real(env, r, local_times, t, **kw)

        monkeypatch.setattr(cli, "frequency_criteria", spy)
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        assert seen == [times]
        heat = json.loads((out / "report.json").read_text())["heat_kernel_bounds"]
        env = fk.build_envelope(fk.alpha_stable(1.5, 1))
        assert heat == {str(t): fk.heat_kernel_sup_bound(env, t) for t in times}
