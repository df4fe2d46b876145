import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from oamsim import cli
from oamsim import config as cfg
from oamsim import dynamics as dy
from oamsim import moments as mo
from oamsim import ring_config as rc
from oamsim.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigValidation:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            cfg.validate_config({"beams": {}}, "freeze")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key beam.energy"):
            cfg.validate_config({"beam": {"energy": 1.0}}, "freeze")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="requires ring.n"):
            cfg.validate_config(
                {"beam": {"kinetic_energy_eV": 1e5}, "ring": {"R0_m": 1.0}}, "freeze")

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            cfg.validate_config({"beam": {"L": 1.5}}, "moments")
        with pytest.raises(ConfigError, match="expected one of"):
            cfg.validate_config({"beam": {"kind": "both"}}, "moments")
        with pytest.raises(ConfigError, match="0 < n < 1"):
            cfg.validate_config({"ring": {"n": 1.5}}, "freeze")

    @pytest.mark.parametrize("section, key, value", [
        ("beam", "theta", math.nan), ("scenario", "t_end_s", math.inf),
        ("scenario", "A_rad_s", -math.inf), ("scan", "omega_values_rad_s", [1.0, math.nan]),
        ("ring", "B0_T", 10**400), ("scan", "omega_values_rad_s", [1.0, -10**400])],
        ids=["nan", "inf", "-inf", "nan-entry", "int-beyond-float", "int-entry-beyond-float"])
    def test_non_finite_numbers_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match="finite"):
            cfg.validate_config({section: {key: value}}, "scan")

    def test_round_trip_identity(self):
        doc = {"beam": {"kinetic_energy_eV": 3e5, "L": 10},
               "ring": {"R0_m": 0.5, "n": 0.25}}
        normalized = cfg.validate_config(doc, "moments")
        again = cfg.validate_config(json.loads(cfg.dump_config(normalized)), "moments")
        assert again == normalized

    def test_scan_grid_forms(self):
        doc = {"scan": {"omega_values_rad_s": [1.0, 2.0]}}
        assert cfg.scan_omegas(doc) == [1.0, 2.0]
        doc = {"scan": {"omega_min_rad_s": 0.0, "omega_max_rad_s": 1.0, "points": 3}}
        assert cfg.scan_omegas(doc) == [0.0, 0.5, 1.0]
        with pytest.raises(ConfigError):
            cfg.scan_omegas({"scan": {}})

    def test_shipped_configs_validate(self):
        cfg.load_config(CONFIG_DIR / "ring300kev.json", "freeze")
        cfg.load_config(CONFIG_DIR / "moments100.json", "moments")
        cfg.load_config(CONFIG_DIR / "frozen_sim.json", "simulate")
        cfg.load_config(CONFIG_DIR / "resonance_scan.json", "scan")


class TestConstantsCommand:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(["constants"], capsys)
        assert code == 0
        assert "beta_T_fm3" in out and "w_m_1T_m" in out

    def test_json_deviations(self, capsys):
        code, out, _ = run_cli(["constants", "--format", "json"], capsys)
        rows = {r["quantity"]: r for r in json.loads(out)}
        assert code == 0
        assert rows["beta_T_fm3"]["rel_deviation"] < 5e-3
        assert rows["w_m_1T_m"]["rel_deviation"] < 1e-2
        assert rows["lambda_bar_C_m"]["rel_deviation"] < 2e-3
        assert rows["m2_field_T"]["rel_deviation"] < 2e-3


class TestFreezeCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(["freeze", "--config",
                                str(CONFIG_DIR / "ring300kev.json"),
                                "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["B0_T"] - 0.0148) / 0.0148 < 1e-2
        assert abs(abs(doc["E_V_m"]) - 2.46e6) / 2.46e6 < 1e-2
        assert abs(doc["f_Hz"] - 7.41e7) / 7.41e7 < 1e-2
        assert doc["frozen_residual"] < 1e-10

    def test_self_consistent_other_ring(self, tmp_path, capsys):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({"beam": {"kinetic_energy_eV": 1e6},
                                    "ring": {"R0_m": 2.0, "n": 0.3}}))
        code, out, _ = run_cli(["freeze", "--config", str(path),
                                "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["frozen_residual"] < 1e-10


class TestMomentsCommand:
    def test_scale_outputs(self, capsys):
        code, out, _ = run_cli(["moments", "--config",
                                str(CONFIG_DIR / "moments100.json"),
                                "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert 1e-16 / 3 < doc["Qs_over_eR0_m"] < 3e-16
        assert "Qs_over_eR0_m" in doc["estimate_keys"]

    def test_diameter_model_L50(self, tmp_path, capsys):
        path = tmp_path / "m50.json"
        path.write_text(json.dumps({"beam": {"kinetic_energy_eV": 3e5, "L": 50},
                                    "ring": {"B0_T": 1.0}}))
        code, out, _ = run_cli(["moments", "--config", str(path),
                                "--format", "json"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["beam_mean_r2_m2"] == pytest.approx((5e-9) ** 2, rel=1e-12)
        assert abs(doc["w_m_m"] - 5.1e-8) / 5.1e-8 < 1e-2

    def test_density_file_route(self, tmp_path, capsys):
        a = 2.0e-9
        r = np.linspace(1e-15, a, 1001)
        density = tmp_path / "disc.txt"
        density.write_text("\n".join(f"{ri:.17g} 1.0" for ri in r) + "\n")
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "beam": {"kinetic_energy_eV": 3e5, "L": 10,
                     "density_path": str(density)},
            "ring": {"B0_T": 1.0}}))
        code, out, _ = run_cli(["moments", "--config", str(path),
                                "--format", "json"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["beam_mean_r2_m2"] == pytest.approx(a**2 / 2, rel=1e-5)


class TestSimulateCommand:
    def test_frozen_series_follows_closed_form(self, tmp_path, capsys):
        out_path = tmp_path / "series.csv"
        code, _, _ = run_cli(["simulate", "--config",
                              str(CONFIG_DIR / "frozen_sim.json"),
                              "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == dy.SERIES_CSV_HEADER
        data = np.array([[float(x) for x in row.split(",")[:10]]
                         for row in lines[1:]])
        # reconstruct A through the same beam model and check P_z = sin(2At)/2
        setup = rc.frozen_setup(300e3, 0.5, 0.5)
        radius = mo.beam_diameter(100) / 2
        qs = mo.spectroscopic_eqm(1.602176634e-19 * radius**2, 100, 100)
        a_coeff = dy.quadrupole_coefficient_frozen(qs, 100, setup)
        expected = 0.5 * np.sin(2 * a_coeff * data[:, 0])
        assert np.max(np.abs(data[:, 3] - expected)) < 1e-12

    def test_byte_identical_reruns(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            code, _, _ = run_cli(["simulate", "--config",
                                  str(CONFIG_DIR / "frozen_sim.json"),
                                  "--out", str(p)], capsys)
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_oracle_companion_report(self, tmp_path, capsys):
        doc = json.loads((CONFIG_DIR / "frozen_sim.json").read_text())
        # 20 periods of the 2A tone so the companion report can resolve it
        doc["scenario"] = {"mode": "frozen", "t_end_s": 20 * math.pi / 3.0,
                           "steps": 1025, "A_rad_s": 3.0}
        doc["beam"]["L"] = 1
        doc["oracle"] = {"enabled": True, "tolerance": 1e-9}
        del doc["ring"]
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "series.csv"
        code, _, _ = run_cli(["simulate", "--config", str(path),
                              "--out", str(out_path)], capsys)
        assert code == 0
        assert (tmp_path / "series_oracle.csv").exists()
        report = json.loads((tmp_path / "series_comparison.json").read_text())
        assert report["max_abs_deviation"] < 1e-6
        assert report["freq_oracle_rel_err"] < 1e-2

    def test_oracle_runs_once(self, tmp_path, capsys, monkeypatch):
        doc = {"beam": {"kinetic_energy_eV": 3e5, "L": 1, "theta": 1.1, "psi": 0.7,
                        "kind": "tensor"},
               "scenario": {"mode": "resonance", "t_end_s": math.pi, "steps": 33,
                            "Omega_rad_s": 2.0, "A_rad_s": 0.2, "drive": "corotating"},
               "oracle": {"enabled": True, "tolerance": 1e-7}}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(doc))
        original = dy.evolve_oracle
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(dy, "evolve_oracle", counting)
        code, _, _ = run_cli(["simulate", "--config", str(path),
                              "--out", str(tmp_path / "sim.csv")], capsys)
        assert code == 0
        assert len(calls) == 1
        scn = cli.scenario_from_config(cfg.load_config(path, "simulate"))
        expected = io.StringIO()
        dy.write_series_csv(original(scn, rtol=1e-7), expected)
        assert (tmp_path / "sim_oracle.csv").read_text() == expected.getvalue()

    def test_oracle_needs_output_path(self, tmp_path, capsys):
        doc = {"beam": {"kinetic_energy_eV": 3e5, "L": 1, "theta": 1.1, "psi": 0.7,
                        "kind": "tensor"},
               "scenario": {"mode": "frozen", "t_end_s": 1.0, "steps": 3, "A_rad_s": 0.5},
               "oracle": {"enabled": True}}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "--out" in json.loads(err)["message"]

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"beam": {"badkey": 1.0}}))
        code, _, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "config"


    @pytest.mark.parametrize("section, key, value", [
        ("beam", "theta", math.nan), ("scenario", "t_end_s", math.inf)])
    def test_non_finite_literal_exit_code(self, section, key, value, tmp_path, capsys):
        # json reads the NaN and Infinity literals that json.dumps writes here
        doc = json.loads((CONFIG_DIR / "frozen_sim.json").read_text())
        doc[section][key] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "config"


class TestScanCommand:
    def test_scan_csv(self, tmp_path, capsys):
        out_path = tmp_path / "scan.csv"
        code, _, err = run_cli(["scan", "--config",
                                str(CONFIG_DIR / "resonance_scan.json"),
                                "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "omega_rad_s,peak_abs_Pz,argmax"
        rows = [line.split(",") for line in lines[1:]]
        flagged = [row for row in rows if row[2] == "1"]
        assert len(flagged) == 1
        assert float(flagged[0][0]) == pytest.approx(100.0)

    def test_nonbracketing_grid_warns(self, tmp_path, capsys):
        doc = json.loads((CONFIG_DIR / "resonance_scan.json").read_text())
        doc["scan"] = {"omega_values_rad_s": [10.0, 11.0, 12.0]}
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["scan", "--config", str(path),
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 0
        assert "does not bracket" in err


@pytest.mark.parametrize("command, fmt", [
    ("constants", "csv"), ("freeze", "csv"), ("moments", "csv"), ("verify", "csv"),
    ("simulate", "text"), ("scan", "json"), ("scan", "text"),
])
def test_unsupported_format_rejected(command, fmt, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", "unused.json", "--format", fmt])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


class TestVerifyHarness:
    def test_json_output_parses(self, capsys):
        code, out, _ = run_cli(["verify", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 10
        assert all(entry["passed"] is True for entry in doc)

    def test_perturbed_constant_fails_named_criterion(self):
        from oamsim import verify
        result = verify.check_tmp_constant(beta_t_fm3=6.0e4)
        assert not result.passed
        assert result.criterion == "1"

    def test_scenario_from_config_overrides(self):
        doc = cfg.validate_config({
            "beam": {"kinetic_energy_eV": 3e5, "L": 1, "theta": 0.5, "psi": 0.1,
                     "kind": "tensor"},
            "scenario": {"mode": "tmp", "t_end_s": 1.0, "steps": 16,
                         "Omega_rad_s": 5.0, "b_rad_s": -0.25}}, "simulate")
        scn = cli.scenario_from_config(doc)
        assert scn.Omega == 5.0 and scn.b == -0.25

    def test_scenario_from_config_physical_tmp(self):
        doc = cfg.validate_config({
            "beam": {"kinetic_energy_eV": 3e5, "L": 1, "theta": 0.5, "psi": 0.1,
                     "kind": "tensor"},
            "ring": {"B0_T": 1.0},
            "scenario": {"mode": "tmp", "t_end_s": 1.0, "steps": 16}}, "simulate")
        scn = cli.scenario_from_config(doc)
        kin = rc.kinematics(3e5)
        assert scn.Omega == pytest.approx(rc.larmor_omega(kin, 1.0, 0.0))
        assert scn.b == pytest.approx(mo.tmp_coefficient(1.0))
