"""Command-line interface tests.

Everything runs in process through cli.main(argv), so exit codes, stdout,
stderr, and the report files can all be asserted without spawning a shell.
"""

import csv
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fellerkit as fk
import fellerkit.cli as cli
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

    def test_threads_flag_is_accepted(self, analyze_cfg, tmp_path):
        out = tmp_path / "outt"
        rc = cli.main(["analyze", "--config", analyze_cfg, "--out", str(out), "--threads", "2"])
        assert rc == 0


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

    def test_memory_does_not_grow_with_the_path_array(self, tmp_path):
        simulation = {"n_paths": 2000, "t_max": 16.0, "n_steps": 2048}
        cfg = validate_cfg(tmp_path, {"type": "brownian"}, simulation, self.VALIDATION)
        positions_nbytes = 2000 * 2049 * 8
        # the bump constant's transform blocks are its own, not the stream's
        fk.bump_constant(1)
        tracemalloc.start()
        try:
            rc = cli.main(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < positions_nbytes / 4


class TestValidateRejectsBeforeSimulating:
    """Config errors that the grid alone decides are raised before the first
    step is drawn, with the messages and in the order they always had."""

    BASE = {"t_values": [0.25], "xi_values": [1.0], "exit": [{"r": 0.5, "t": 0.25}],
            "occupation_xi": [1.0]}
    OFF_GRID = "t = 0.123 is not a grid time; nearest grid times are [0.11, 0.12, 0.13]"
    OFF_GRID_EXIT = "t = 0.3333 is not a grid time; nearest grid times are [0.32, 0.33, 0.34]"
    HORIZON = "horizon 5.0 too short: e^-T must be at most 1e-6 (T >= 13.9)"

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
    ])
    def test_bad_config_exits_2_without_a_step(self, t_max, override, message, tmp_path, capsys):
        simulation = {"n_paths": 50, "t_max": t_max, "h_max": 0.01}
        cfg = validate_cfg(tmp_path, {"type": "brownian"}, simulation, {**self.BASE, **override})
        rc = cli.main(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_a_good_config_reaches_the_steps(self, tmp_path, capsys):
        simulation = {"n_paths": 50, "t_max": 14.0, "h_max": 0.01}
        cfg = validate_cfg(tmp_path, {"type": "brownian"}, simulation, self.BASE)
        rc = cli.main(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "error: AssertionError: a step was drawn" in capsys.readouterr().err
