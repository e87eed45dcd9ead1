"""Command-line interface tests.

Everything runs in process through cli.main(argv), so exit codes, stdout,
stderr, and the report files can all be asserted without spawning a shell.
"""

import json
import re
from pathlib import Path

import pytest

import fellerkit as fk
import fellerkit.cli as cli


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
