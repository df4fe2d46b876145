import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oamsim import cli
from oamsim import config as cfg
from oamsim import dynamics as dy
from oamsim import moments as mo
from oamsim import ring_config as rc
from oamsim.errors import ConfigError
from oamsim.verify import _dominant_frequencies

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# runs cli.main on its argv in a fresh interpreter and prints which of
# numpy and scipy it left loaded
FRESH_CLI = ("import sys; from oamsim import cli; rc = cli.main(sys.argv[1:]); "
             "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})); "
             "sys.exit(rc)")


# the same run, printing which of dataclasses and inspect it left loaded
FRESH_CLI_STDLIB = ("import sys; from oamsim import cli; rc = cli.main(sys.argv[1:]); "
                    "print(sorted({m.split('.')[0] for m in sys.modules} "
                    "& {'dataclasses', 'inspect'})); sys.exit(rc)")


# runs cli.main on its argv in a fresh interpreter in which scipy cannot be imported
NO_SCIPY_CLI = ("import sys; sys.modules['scipy'] = None; from oamsim import cli; "
                "sys.exit(cli.main(sys.argv[1:]))")


def fresh_cli(argv, script=FRESH_CLI):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


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

    @pytest.mark.parametrize("section, key, value, message", [
        ("beam", "kinetic_energy_eV", True, "beam.kinetic_energy_eV: expected a number"),
        ("oracle", "enabled", 1, "oracle.enabled: expected a boolean"),
        ("output", "path", 3, "output.path: expected a string"),
        ("scan", "omega_values_rad_s", "100", "scan.omega_values_rad_s: expected a list of "
                                              "numbers"),
        ("scan", "omega_values_rad_s", [100, "x"], "scan.omega_values_rad_s: expected a list "
                                                   "of numbers")],
        ids=["bool-for-number", "int-for-bool", "int-for-string", "string-for-list",
             "string-in-list"])
    def test_value_of_the_wrong_type_rejected(self, section, key, value, message):
        with pytest.raises(ConfigError, match=message):
            cfg.validate_config({section: {key: value}}, "simulate")

    @pytest.mark.parametrize("doc, command, message", [
        ([], "freeze", "configuration must be a JSON object"),
        ({"beam": 3}, "freeze", "section 'beam' must be an object"),
        ({}, "freeze", "command 'freeze' requires a 'beam' section"),
        ({}, "verify", "unknown command 'verify'")],
        ids=["list-document", "scalar-section", "missing-section", "unknown-command"])
    def test_document_rejected(self, doc, command, message):
        with pytest.raises(ConfigError, match=message):
            cfg.validate_config(doc, command)

    def test_list_document_exit_code(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, out, err = run_cli(["freeze", "--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "config",
                                   "message": "configuration must be a JSON object"}

    def test_empty_scan_list_rejected(self, tmp_path, capsys):
        doc = json.loads((CONFIG_DIR / "resonance_scan.json").read_text())
        doc["scan"] = {"omega_values_rad_s": []}
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["scan", "--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "config",
                                   "message": "scan.omega_values_rad_s must be nonempty"}

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
        again = cfg.validate_config(json.loads(json.dumps(normalized)), "moments")
        assert again == normalized

    def test_scan_grid_forms(self):
        doc = {"scan": {"omega_values_rad_s": [1.0, 2.0]}}
        assert cfg.scan_omegas(doc) == [1.0, 2.0]
        doc = {"scan": {"omega_min_rad_s": 0.0, "omega_max_rad_s": 1.0, "points": 3}}
        assert cfg.scan_omegas(doc) == [0.0, 0.5, 1.0]
        with pytest.raises(ConfigError):
            cfg.scan_omegas({"scan": {}})

    @pytest.mark.parametrize("key, value", [("omega_min_rad_s", 0.0),
                                            ("omega_max_rad_s", 1.0), ("points", 3)])
    def test_scan_grid_forms_exclusive(self, key, value, tmp_path, capsys):
        # the list would win and the range be dropped unread
        doc = json.loads((CONFIG_DIR / "resonance_scan.json").read_text())
        doc["scan"] = {"omega_values_rad_s": [90.0, 100.0, 110.0], key: value}
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["scan", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "config",
            "message": f"scan.omega_values_rad_s and scan.{key} are exclusive: "
                       "give the list or omega_min/omega_max/points"}

    def test_shipped_configs_validate(self):
        cfg.load_config(CONFIG_DIR / "ring300kev.json", "freeze")
        cfg.load_config(CONFIG_DIR / "moments100.json", "moments")
        cfg.load_config(CONFIG_DIR / "frozen_sim.json", "simulate")
        cfg.load_config(CONFIG_DIR / "resonance_scan.json", "scan")


# the scenario keys each mode reads besides mode, t_end_s and steps, and a
# valid value for every such key
MODE_READS = {"tmp": {"Omega_rad_s", "b_rad_s"}, "frozen": {"A_rad_s"},
              "resonance": {"Omega_rad_s", "A_rad_s", "grad_amplitude_V_m2",
                            "omega_drive", "phi", "drive"}}
SCENARIO_VALUES = {"Omega_rad_s": 2.0, "b_rad_s": 0.5, "A_rad_s": 0.25,
                   "grad_amplitude_V_m2": 1.0e6, "omega_drive": 4.0, "phi": 0.3,
                   "drive": "linear"}


def simulate_doc(mode, keys):
    return {"beam": {"kinetic_energy_eV": 3e5, "L": 1, "theta": 1.1, "psi": 0.7,
                     "kind": "tensor"},
            "scenario": {"mode": mode, "t_end_s": 1.0, "steps": 8,
                         **{key: SCENARIO_VALUES[key] for key in keys}}}


class TestScenarioKeysPerMode:
    @pytest.mark.parametrize("mode", sorted(MODE_READS))
    def test_keys_the_mode_reads_accepted(self, mode):
        cfg.validate_config(simulate_doc(mode, MODE_READS[mode]), "simulate")

    @pytest.mark.parametrize("mode, key", [
        (mode, key) for mode in sorted(MODE_READS) for key in sorted(SCENARIO_VALUES)
        if key not in MODE_READS[mode]])
    def test_key_the_mode_does_not_read_rejected(self, mode, key, tmp_path, capsys):
        # everything the mode needs is there, so only the foreign key is at fault
        doc = simulate_doc(mode, MODE_READS[mode] | {key})
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "config",
                                   "message": f"scenario.{key} is not read in {mode} mode"}


# a valid value for each section some command does not read, and the
# shipped config each command runs on
SECTION_VALUES = {"scenario": {"mode": "frozen", "t_end_s": 1.0, "steps": 8},
                  "scan": {"points": 3}, "oracle": {"enabled": False}}
COMMAND_CONFIGS = {"freeze": "ring300kev.json", "moments": "moments100.json",
                   "simulate": "frozen_sim.json", "scan": "resonance_scan.json"}


def shipped_doc_with(command, section, value):
    doc = json.loads((CONFIG_DIR / COMMAND_CONFIGS[command]).read_text())
    doc[section] = value
    return doc


class TestSectionsPerCommand:
    @pytest.mark.parametrize("command, section", [
        ("freeze", "scenario"), ("freeze", "scan"), ("freeze", "oracle"),
        ("moments", "scenario"), ("moments", "scan"), ("moments", "oracle"),
        ("simulate", "scan")])
    def test_section_the_command_does_not_read_rejected(self, command, section,
                                                        tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(shipped_doc_with(command, section, SECTION_VALUES[section])))
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "config", "message": f"section {section!r} is not read by {command!r}"}

    @pytest.mark.parametrize("command, section, key, value", [
        ("freeze", "beam", "density_path", "density.txt"),
        ("simulate", "beam", "density_path", "density.txt"),
        ("scan", "beam", "density_path", "density.txt"),
        ("freeze", "beam", "L", 1), ("freeze", "beam", "theta", 1.1),
        ("freeze", "beam", "psi", 0.7), ("freeze", "beam", "kind", "tensor"),
        ("moments", "beam", "theta", 1.1), ("moments", "beam", "psi", 0.7),
        ("moments", "beam", "kind", "tensor"), ("scan", "oracle", "tolerance", 1e-9),
        ("scan", "scenario", "omega_drive", 12345.0)])
    def test_key_the_command_does_not_read_rejected(self, command, section, key, value,
                                                    tmp_path, capsys):
        # the shipped config runs as it is; one key the command drops is a config error
        doc = json.loads((CONFIG_DIR / COMMAND_CONFIGS[command]).read_text())
        doc.setdefault(section, {})[key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "config", "message": f"{section}.{key} is not read by {command!r}"}

    @pytest.mark.parametrize("oracle", [{"tolerance": 1e-3},
                                        {"enabled": False, "tolerance": 1e-3}])
    def test_tolerance_without_the_oracle_rejected(self, oracle, tmp_path, capsys):
        doc = json.loads((CONFIG_DIR / COMMAND_CONFIGS["simulate"]).read_text())
        doc["oracle"] = oracle
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "config", "message": "oracle.tolerance is not read by 'simulate' "
                                          "unless oracle.enabled is true"}

    @pytest.mark.parametrize("command", ["freeze", "moments"])
    def test_report_output_format_rejected(self, command, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(shipped_doc_with(command, "output", {"format": "json"})))
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["message"] == (
            f"output.format is not read by {command!r}: --format json|text sets its format")

    @pytest.mark.parametrize("command, fmt", [
        ("freeze", "text"), ("freeze", "json"), ("moments", "text"), ("moments", "json")])
    def test_report_output_path_writes_the_bytes_of_stdout(self, command, fmt,
                                                           tmp_path, capsys):
        shipped = str(CONFIG_DIR / COMMAND_CONFIGS[command])
        code, printed, _ = run_cli([command, "--config", shipped, "--format", fmt], capsys)
        assert code == 0
        target = tmp_path / "report.txt"
        path = tmp_path / "run.json"
        path.write_text(json.dumps(shipped_doc_with(command, "output", {"path": str(target)})))
        code, out, _ = run_cli([command, "--config", str(path), "--format", fmt], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text() == printed


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


def density_moments_config(tmp_path):
    """tmp_path/m.json: moments at L = 10 of a uniform disc sampled at 1000
    radii in tmp_path/disc.txt; returns its path as a string."""
    a = 2.0e-9
    density = tmp_path / "disc.txt"
    density.write_text("\n".join(f"{a * i / 1000:.17g} 1.0" for i in range(1, 1001)) + "\n")
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "beam": {"kinetic_energy_eV": 3e5, "L": 10, "density_path": str(density)},
        "ring": {"R0_m": 0.5, "n": 0.5}}))
    return str(path)


REPORT_RUNS = pytest.mark.parametrize("argv", [
    ["constants"],
    ["freeze", "--config", str(CONFIG_DIR / "ring300kev.json")],
    ["moments", "--config", str(CONFIG_DIR / "moments100.json")],
], ids=["constants", "freeze", "moments"])


class TestReportCommandsStartWithoutNumpy:
    """constants, freeze and moments print closed-form floats and import no numpy."""

    @REPORT_RUNS
    def test_fresh_run_leaves_numpy_and_scipy_unloaded(self, argv, tmp_path):
        # importing oamsim.cli and running the command both stay numpy-free
        out = tmp_path / "report.txt"
        assert fresh_cli([*argv, "--out", str(out)]) == "[]"
        assert out.read_text()

    @REPORT_RUNS
    def test_fresh_run_leaves_dataclasses_and_inspect_unloaded(self, argv, tmp_path):
        # the report layer's records are NamedTuples, so nothing loads dataclasses
        out = tmp_path / "report.txt"
        assert fresh_cli([*argv, "--out", str(out)], FRESH_CLI_STDLIB) == "[]"
        assert out.read_text()

    def test_density_route_loads_numpy_and_not_scipy(self, tmp_path):
        # numpy integrates the density on demand; scipy is never a runtime import
        out = tmp_path / "report.json"
        loaded = fresh_cli(["moments", "--config", density_moments_config(tmp_path),
                            "--format", "json", "--out", str(out)])
        assert loaded == "['numpy']"
        # SHA-256 of the same report before the numerical imports were deferred
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "6b125616c278a7afc840ca276aab76a743e15d94c5d32a2e4f3a8df3d3d4d49f")


@pytest.mark.parametrize("command", ["constants", "freeze", "moments", "moments-density",
                                     "simulate-oracle", "scan", "verify"])
def test_no_command_imports_scipy(command, tmp_path):
    # every command exits 0 in an interpreter where importing scipy fails
    out = tmp_path / "out.txt"
    argv = {
        "constants": ["constants"],
        "freeze": ["freeze", "--config", str(CONFIG_DIR / "ring300kev.json")],
        "moments": ["moments", "--config", str(CONFIG_DIR / "moments100.json")],
        "moments-density": ["moments", "--config", density_moments_config(tmp_path)],
        "simulate-oracle": ["simulate", "--config", small_oracle_config(tmp_path, out)],
        "scan": ["scan", "--config", str(CONFIG_DIR / "resonance_scan.json")],
        "verify": ["verify"],
    }[command]
    fresh_cli([*argv, "--out", str(out)], NO_SCIPY_CLI)
    assert out.read_text()


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
        # 20 periods of the 2A tone so the spectral estimator can resolve it
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
        assert set(report) == {"L", "drive", "kind", "max_abs_deviation", "mode",
                               "oracle_diagnostics", "rwa_amplitude_bound"}
        assert report["max_abs_deviation"] < 1e-6
        oracle = np.loadtxt(tmp_path / "series_oracle.csv", delimiter=",", skiprows=1,
                            usecols=(0, 3))
        [(freq, _)] = _dominant_frequencies(oracle[:, 0], oracle[:, 1])
        assert freq == pytest.approx(2 * 3.0, rel=1e-2)

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

    def test_overflowing_phases_exit_1_and_write_nothing(self, tmp_path, capsys):
        doc = {"beam": {"kinetic_energy_eV": 3e5, "L": 1, "theta": 1.1, "psi": 0.7,
                        "kind": "tensor"},
               "scenario": {"mode": "tmp", "t_end_s": 10.0, "steps": 5,
                            "Omega_rad_s": 1e308, "b_rad_s": 1.0},
               "oracle": {"enabled": True}}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "out" / "sim.csv"
        out_path.parent.mkdir()
        code, out, err = run_cli(["simulate", "--config", str(path),
                                  "--out", str(out_path)], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "numerical"
        assert "phases overflow" in json.loads(err)["message"]
        assert list(out_path.parent.iterdir()) == []

    def test_finite_extreme_phases_run(self, tmp_path, capsys):
        doc = {"beam": {"kinetic_energy_eV": 3e5, "L": 1, "theta": 1.1, "psi": 0.7,
                        "kind": "tensor"},
               "scenario": {"mode": "tmp", "t_end_s": 1e-10, "steps": 5,
                            "Omega_rad_s": 1e307, "b_rad_s": 1.0},
               "oracle": {"enabled": True}}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(["simulate", "--config", str(path),
                              "--out", str(tmp_path / "sim.csv")], capsys)
        assert code == 0
        for name, defined in (("sim.csv", (0, 1, 2, 3)), ("sim_oracle.csv", range(10))):
            data = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1, usecols=defined)
            assert np.all(np.isfinite(data))
        report = json.loads((tmp_path / "sim_comparison.json").read_text())
        assert math.isfinite(report["max_abs_deviation"])

    def test_oracle_over_the_budget_exits_1_before_building_operators(self, tmp_path, capsys,
                                                                      monkeypatch):
        # at L = 20000 the frozen term's parity blocks alone take 11.9 GiB
        def no_work(*args):
            raise AssertionError("build_operators called")
        monkeypatch.setattr(dy, "build_operators", no_work)
        doc = json.loads((CONFIG_DIR / "frozen_sim.json").read_text())
        doc["beam"]["L"] = 20000
        doc["scenario"]["steps"] = 3
        doc["oracle"] = {"enabled": True}
        path = tmp_path / "large.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["simulate", "--config", str(path),
                                  "--out", str(tmp_path / "large.csv")], capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "numerical", "message": "the parity blocks of the 1-term Hamiltonian "
                                             "at L = 20000 need 11.9 GiB, over the 1 GiB budget"}

    def test_failed_oracle_writes_nothing(self, tmp_path, capsys):
        # the closed form succeeds and the oracle is over its budget: no file,
        # the closed form's included, is left behind
        doc = json.loads((CONFIG_DIR / "frozen_sim.json").read_text())
        doc["beam"]["L"] = 20000
        doc["scenario"]["steps"] = 3
        doc["oracle"] = {"enabled": True}
        path = tmp_path / "large.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "out" / "large.csv"
        out_path.parent.mkdir()
        code, out, err = run_cli(["simulate", "--config", str(path),
                                  "--out", str(out_path)], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "numerical"
        assert list(out_path.parent.iterdir()) == []

    @pytest.mark.parametrize("content, message", [(None, "cannot read config"),
                                                  ("{\"beam\": ", "is not valid JSON")],
                             ids=["missing", "invalid"])
    def test_unreadable_config_exit_code(self, content, message, tmp_path, capsys):
        path = tmp_path / "sim.json"
        if content is not None:
            path.write_text(content)
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "config"
        assert message in json.loads(err)["message"]

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"beam": {"badkey": 1.0}}))
        code, _, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "config"

    @pytest.mark.parametrize("ring", [{"R0_m": 0.5, "n": 0.5, "B0_T": 2.0},
                                      {"n": 0.5, "B0_T": 2.0}], ids=["R0-n-B0", "n-B0"])
    @pytest.mark.parametrize("command", ["simulate", "moments", "freeze"])
    def test_ring_with_both_field_forms_rejected(self, command, ring, tmp_path, capsys):
        doc = {"beam": {"kinetic_energy_eV": 3e5, "L": 1, "theta": 0.5, "psi": 0.1,
                        "kind": "tensor"},
               "ring": ring,
               "scenario": {"mode": "tmp", "t_end_s": 1.0, "steps": 16}}
        if command != "simulate":
            del doc["scenario"]
        path = tmp_path / "both.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "config", "message": "ring.n and ring.B0_T are exclusive: give R0_m + n "
                                          "(frozen solve) or B0_T (direct field)"}

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

    def test_output_path_writes_the_bytes_of_out(self, tmp_path, capsys):
        by_flag = tmp_path / "flag.csv"
        code, _, _ = run_cli(["scan", "--config", str(CONFIG_DIR / "resonance_scan.json"),
                              "--out", str(by_flag)], capsys)
        assert code == 0
        doc = json.loads((CONFIG_DIR / "resonance_scan.json").read_text())
        doc["output"] = {"path": str(tmp_path / "config.csv"), "format": "csv"}
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["scan", "--config", str(path)], capsys)
        assert code == 0
        assert out == ""
        assert (tmp_path / "config.csv").read_bytes() == by_flag.read_bytes()

    @pytest.mark.parametrize("section, value, message", [
        ("output", {"format": "json"}, "scan writes csv only: output.format must be 'csv'"),
        ("oracle", {"enabled": True}, "scan has no oracle: oracle.enabled must be false"),
        # the mode is the fault, not the missing ring its coefficients would come from
        ("scenario", {"mode": "tmp", "t_end_s": 1.0, "steps": 8},
         "scan requires scenario.mode = 'resonance'"),
        ("scenario", {"mode": "frozen", "t_end_s": 1.0, "steps": 8},
         "scan requires scenario.mode = 'resonance'"),
    ], ids=["json", "oracle", "tmp-no-ring", "frozen-no-ring"])
    def test_section_scan_cannot_honour_rejected(self, section, value, message,
                                                 tmp_path, capsys):
        doc = json.loads((CONFIG_DIR / "resonance_scan.json").read_text())
        doc[section] = value
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["scan", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "config", "message": message}

    def test_overflowing_phase_exits_1_and_writes_nothing(self, tmp_path, capsys,
                                                           monkeypatch):
        def never(*args):
            raise AssertionError("the closed form ran")

        monkeypatch.setattr(dy, "_resonance_pz", never)
        doc = json.loads((CONFIG_DIR / "resonance_scan.json").read_text())
        doc["scenario"]["t_end_s"] = 10.0
        doc["scenario"]["steps"] = 11
        doc["scan"] = {"omega_values_rad_s": [100.0, 1e308]}
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "out" / "scan.csv"
        out_path.parent.mkdir()
        code, out, err = run_cli(["scan", "--config", str(path), "--out", str(out_path)],
                                 capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "numerical"
        assert list(out_path.parent.iterdir()) == []

    def test_nonbracketing_grid_warns(self, tmp_path, capsys):
        doc = json.loads((CONFIG_DIR / "resonance_scan.json").read_text())
        doc["scan"] = {"omega_values_rad_s": [10.0, 11.0, 12.0]}
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["scan", "--config", str(path),
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 0
        assert "does not bracket" in err


@pytest.mark.parametrize("argv", [
    ["constants"],
    ["freeze", "--config", str(CONFIG_DIR / "ring300kev.json")],
    ["moments", "--config", str(CONFIG_DIR / "moments100.json")],
    ["simulate", "--config", str(CONFIG_DIR / "frozen_sim.json")],
    ["scan", "--config", str(CONFIG_DIR / "resonance_scan.json")],
    ["verify"],
], ids=["constants", "freeze", "moments", "simulate", "scan", "verify"])
def test_output_path_that_cannot_be_opened_is_a_config_error(argv, tmp_path, monkeypatch,
                                                              capsys):
    from oamsim import verify
    monkeypatch.setattr(verify, "run_all", lambda: [])
    out_path = str(tmp_path / "missing" / "out")
    code, out, err = run_cli(argv + ["--out", out_path], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "config",
        "message": f"cannot open output path {out_path!r}: No such file or directory"}


def small_oracle_config(tmp_path, out_path):
    """tmp_path/sim.json: a 16-step frozen L = 1 simulate with the oracle on,
    writing to out_path; returns its path as a string."""
    doc = json.loads((CONFIG_DIR / "frozen_sim.json").read_text())
    doc["scenario"] = {"mode": "frozen", "t_end_s": 1.0, "steps": 16, "A_rad_s": 3.0}
    doc["beam"]["L"] = 1
    doc["oracle"] = {"enabled": True}
    doc["output"]["path"] = str(out_path)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("blocked", ["out.csv", "out_oracle.csv", "out_comparison.json",
                                     "output.path"])
def test_simulate_companion_file_that_cannot_be_opened_is_a_config_error(blocked, tmp_path,
                                                                          capsys):
    # a directory where simulate writes one of its three files; output.path
    # names a file in a missing directory.  Every file is opened before any
    # is written, and those the run created are removed, so none is left
    out_path = tmp_path / "out.csv"
    if blocked == "output.path":
        out_path = tmp_path / "missing" / "out.csv"
    else:
        (tmp_path / blocked).mkdir()
    code, out, err = run_cli(["simulate", "--config", small_oracle_config(tmp_path, out_path)],
                             capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "config"
    assert error["message"].startswith("cannot open output path ")
    left = {"sim.json"} | ({blocked} if blocked != "output.path" else set())
    assert {p.name for p in tmp_path.iterdir()} == left


def test_simulate_with_oracle_to_a_device_is_a_config_error(tmp_path, monkeypatch, capsys):
    # a link to /dev/null: the companion files would be created beside the
    # link, so the run is refused before any work and leaves nothing
    def no_work(scn):
        raise AssertionError("closed_form ran")
    monkeypatch.setattr(dy, "closed_form", no_work)
    out_path = tmp_path / "out.csv"
    out_path.symlink_to(os.devnull)
    code, out, err = run_cli(["simulate", "--config", small_oracle_config(tmp_path, out_path)],
                             capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "config",
        "message": f"cannot open output path {str(out_path)!r}: not a regular file, "
                   "and oracle.enabled writes two more files beside it"}
    assert {p.name for p in tmp_path.iterdir()} == {"sim.json", "out.csv"}


def test_simulate_keeps_existing_files_on_failure_and_replaces_them_on_success(tmp_path,
                                                                              capsys):
    # earlier outputs longer than the new ones: a failed open leaves their
    # bytes, and a successful run leaves exactly a fresh run's bytes
    earlier = {name: name * 10000 for name in ("out.csv", "out_oracle.csv")}
    for name, text in earlier.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "out_comparison.json").mkdir()
    config = small_oracle_config(tmp_path, tmp_path / "out.csv")
    assert run_cli(["simulate", "--config", config], capsys)[0] == 2
    for name, text in earlier.items():
        assert (tmp_path / name).read_text() == text
    (tmp_path / "out_comparison.json").rmdir()
    assert run_cli(["simulate", "--config", config], capsys)[0] == 0
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    assert run_cli(["simulate", "--config", config, "--out", str(fresh / "out.csv")],
                   capsys)[0] == 0
    for name in ("out.csv", "out_oracle.csv", "out_comparison.json"):
        assert (tmp_path / name).read_bytes() == (fresh / name).read_bytes(), name


def test_simulate_writer_that_raises_leaves_exactly_the_bytes_it_wrote(tmp_path, monkeypatch):
    # the files are rewritten in place over longer earlier ones; a writer that
    # fails partway, past the write buffer, leaves what it wrote and no byte
    # of the earlier files: the companions, not yet written, are left empty
    names = ("out.csv", "out_oracle.csv", "out_comparison.json")
    for name in names:
        (tmp_path / name).write_text("#" * 100000)
    written = "0123456789\n" * 2000

    def partial(series, fileobj):
        fileobj.write(written)
        raise RuntimeError("writer failed")
    monkeypatch.setattr(dy, "write_series_csv", partial)
    with pytest.raises(RuntimeError, match="writer failed"):
        cli.main(["simulate", "--config", small_oracle_config(tmp_path, tmp_path / "out.csv")])
    assert (tmp_path / "out.csv").read_bytes() == written.encode()
    assert (tmp_path / "out_oracle.csv").read_bytes() == b""
    assert (tmp_path / "out_comparison.json").read_bytes() == b""


# runs cli.main on argv[2:] in a fresh interpreter that can write no file past
# argv[1] bytes: the write that crosses it is cut short and the next fails (EFBIG)
SIZE_LIMITED_CLI = ("import resource, signal, sys; from oamsim import cli; "
                    "signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
                    "resource.setrlimit(resource.RLIMIT_FSIZE, "
                    "(int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_FSIZE)[1])); "
                    "sys.exit(cli.main(sys.argv[2:]))")


@pytest.mark.parametrize("argv", [
    ["constants", "--format", "json"],
    ["freeze", "--config", str(CONFIG_DIR / "ring300kev.json")],
    ["scan", "--config", str(CONFIG_DIR / "resonance_scan.json")],
    ["simulate", "--config", str(CONFIG_DIR / "frozen_sim.json")],
], ids=["constants", "freeze", "scan", "simulate"])
def test_failed_write_leaves_exactly_the_bytes_that_reached_the_file(argv, tmp_path, capsys):
    # a write (simulate) or the last flush (the others) fails; the file is cut
    # where the descriptor stands, so it holds the head of a fresh run's bytes
    # and none of the longer earlier file
    pytest.importorskip("resource")
    fresh = tmp_path / "fresh"
    assert run_cli(argv + ["--out", str(fresh)], capsys)[0] == 0
    expected = fresh.read_bytes()
    limit = len(expected) // 2
    out = tmp_path / "out"
    out.write_bytes(b"#" * (3 * len(expected)))
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", SIZE_LIMITED_CLI, str(limit), *argv,
                           "--out", str(out)], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode != 0
    assert "File too large" in proc.stderr
    assert out.read_bytes() == expected[:limit]


@pytest.mark.parametrize("earlier", ["longer", "shorter"])
@pytest.mark.parametrize("argv", [
    ["scan", "--config", str(CONFIG_DIR / "resonance_scan.json")],
    ["moments", "--config", str(CONFIG_DIR / "moments100.json"), "--format", "json"],
], ids=["scan", "moments"])
def test_out_over_an_existing_file_writes_the_bytes_of_a_fresh_run(argv, earlier, tmp_path,
                                                                   capsys):
    fresh = tmp_path / "fresh"
    assert run_cli(argv + ["--out", str(fresh)], capsys)[0] == 0
    expected = fresh.read_bytes()
    out = tmp_path / "out"
    out.write_bytes(b"#" * (3 * len(expected) if earlier == "longer" else 10))
    assert run_cli(argv + ["--out", str(out)], capsys)[0] == 0
    assert out.read_bytes() == expected


@pytest.mark.parametrize("argv", [
    ["scan", "--config", str(CONFIG_DIR / "resonance_scan.json")],
    ["constants"],
], ids=["scan", "constants"])
def test_out_to_the_null_device_exits_0(argv, capsys):
    # a device is written but never cut
    code, out, err = run_cli(argv + ["--out", os.devnull], capsys)
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize("argv, written", [
    (["constants", "--format", "json"], ["out"]),
    (["freeze", "--config", str(CONFIG_DIR / "ring300kev.json")], ["out"]),
    (["moments", "--config", str(CONFIG_DIR / "moments100.json"), "--format", "json"], ["out"]),
    (["verify"], ["out"]),
    (["scan", "--config", str(CONFIG_DIR / "resonance_scan.json")], ["out"]),
    (["simulate", "--format", "json"], ["out", "out_comparison.json", "out_oracle"]),
], ids=["constants", "freeze", "moments", "verify", "scan", "simulate"])
def test_files_hold_newlines_untranslated_where_the_line_separator_is_crlf(
        argv, written, tmp_path, monkeypatch, capsys):
    # the pure-Python io translates "\n" to os.linesep at open, as Windows
    # does, unless a file is opened with newline=""
    import _pyio

    from oamsim import verify
    monkeypatch.setattr(verify, "run_all", lambda: [])
    monkeypatch.setattr(cli, "open", _pyio.open, raising=False)
    monkeypatch.setattr(os, "linesep", "\r\n")
    if argv[0] == "simulate":
        argv = argv + ["--config", small_oracle_config(tmp_path, tmp_path / "unused.csv")]
    out = tmp_path / "files"
    out.mkdir()
    assert run_cli(argv + ["--out", str(out / "out")], capsys)[0] == 0
    assert sorted(p.name for p in out.iterdir()) == written
    for name in written:
        text = (out / name).read_bytes()
        assert text.endswith(b"\n") and b"\r" not in text, name


@pytest.mark.parametrize("energy", [1e-300, 1e200])
@pytest.mark.parametrize("command, config", [("freeze", "ring300kev.json"),
                                             ("moments", "moments100.json"),
                                             ("simulate", "frozen_sim.json")])
def test_energy_past_the_float_range_exits_1_and_writes_nothing(command, config, energy,
                                                                tmp_path, capsys):
    # 1e-300 eV rounds beta to 0 in the frozen ring; at 1e200 eV gamma**2 overflows
    doc = json.loads((CONFIG_DIR / config).read_text())
    doc["beam"]["kinetic_energy_eV"] = energy
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    out_path = tmp_path / "out" / "result"
    out_path.parent.mkdir()
    code, out, err = run_cli([command, "--config", str(path), "--out", str(out_path)], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "numerical"
    assert list(out_path.parent.iterdir()) == []


@pytest.mark.parametrize("command, config", [("freeze", "ring300kev.json"),
                                             ("moments", "moments100.json"),
                                             ("simulate", "frozen_sim.json")])
def test_ring_whose_field_gradients_overflow_exits_1_and_writes_nothing(command, config,
                                                                        tmp_path, capsys):
    # at 300 keV and R0 = 1e-152 m the fields are finite, dEr/dR overflows
    doc = json.loads((CONFIG_DIR / config).read_text())
    doc["ring"]["R0_m"] = 1e-152
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    out_path = tmp_path / "out" / "result"
    out_path.parent.mkdir()
    code, out, err = run_cli([command, "--config", str(path), "--out", str(out_path)], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "numerical", "message": (
        "the frozen ring's fields at 300000.0 eV and R0 = 1e-152 m are beyond the float range")}
    assert list(out_path.parent.iterdir()) == []


@pytest.mark.parametrize("content", [
    b'{"beam": {"kinetic_energy_eV": 300000.0}, "ring": {"R0_m": 0.5, "n": 0.5, "\xe9": 1}}',
    b'{"beam": {"kinetic_energy_eV": ' + b"9" * 5000 + b'}}',
    b"[" * 100000,
], ids=["not-utf8", "5000-digit-integer", "100000-nested"])
def test_config_that_cannot_be_decoded_exits_2_and_writes_nothing(content, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_bytes(content)
    out_path = tmp_path / "out" / "result"
    out_path.parent.mkdir()
    code, out, err = run_cli(["freeze", "--config", str(path), "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "config"
    assert error["message"].startswith(f"{path} is not valid JSON: ")
    assert list(out_path.parent.iterdir()) == []


@pytest.mark.parametrize("command, config, section, key, grid", [
    ("simulate", "frozen_sim.json", "scenario", "steps", "sample times"),
    ("scan", "resonance_scan.json", "scan", "points", "scan frequencies"),
], ids=["simulate-steps", "scan-points"])
def test_grid_over_the_budget_exits_1_before_allocating(command, config, section, key, grid,
                                                        tmp_path, monkeypatch, capsys):
    def no_grid(*args):
        raise AssertionError("linspace called")
    monkeypatch.setattr(np, "linspace", no_grid)
    doc = json.loads((CONFIG_DIR / config).read_text())
    doc[section][key] = 10**30
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    out_path = tmp_path / "out" / "result.csv"
    out_path.parent.mkdir()
    code, out, err = run_cli([command, "--config", str(path), "--out", str(out_path)], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "numerical", "message": f"the {10**30} {grid} need "
                                                                "7.45e+21 GiB, over the 1 GiB budget"}
    assert list(out_path.parent.iterdir()) == []


@pytest.mark.parametrize("oracle", [False, True], ids=["closed-form", "with-oracle"])
def test_closed_form_over_the_budget_exits_1_before_allocating(oracle, tmp_path, monkeypatch,
                                                               capsys):
    # the grid of 10**8 samples (0.75 GiB) fits the budget; the closed form's arrays do not
    def no_array(*args, **kwargs):
        raise AssertionError("array allocated")
    monkeypatch.setattr(np, "linspace", no_array)
    monkeypatch.setattr(np, "full", no_array)
    doc = json.loads((CONFIG_DIR / "frozen_sim.json").read_text())
    doc["scenario"]["steps"] = 10**8
    doc["oracle"]["enabled"] = oracle
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    out_path = tmp_path / "out" / "result.csv"
    out_path.parent.mkdir()
    code, out, err = run_cli(["simulate", "--config", str(path), "--out", str(out_path)], capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "numerical", "message": "12 arrays of the 100000000 "
                                                                "samples need 8.94 GiB, over the "
                                                                "1 GiB budget"}
    assert list(out_path.parent.iterdir()) == []


_BEAM = {"kinetic_energy_eV": 3e5, "L": 1, "theta": 1.1, "psi": 0.7, "kind": "tensor"}
_TMP = {"beam": _BEAM, "ring": {"B0_T": 1e200},
        "scenario": {"mode": "tmp", "t_end_s": 1.0, "steps": 8}}
_FROZEN = {"beam": _BEAM, "ring": {"R0_m": 0.5, "n": 0.5},
           "scenario": {"mode": "frozen", "t_end_s": 1.0, "steps": 8}}
_RESONANCE = {"beam": _BEAM, "ring": {"B0_T": 1.0},
              "scenario": {"mode": "resonance", "t_end_s": 1.0, "steps": 8,
                           "grad_amplitude_V_m2": 1.0}}
_TINY_GRID = {"beam": _BEAM, "scenario": {"mode": "tmp", "t_end_s": 5e-324, "steps": 3,
                                          "Omega_rad_s": 1.0, "b_rad_s": 0.5}}
_SPECTROSCOPIC = f"the spectroscopic EQM at j = {10**160}, K = {10**160} is beyond the float range"
_MODEL_R2 = f"<r^2> of the diameter-model beam at L = {10**200} is beyond the float range"
_FROZEN_SIM = json.loads((CONFIG_DIR / "frozen_sim.json").read_text())
_COUPLING = (f"the quadrupole coupling's 8 L^2 hbar at L = {5 * 10**153} is beyond the "
             "float range")
_SPACING = ("the time grid's spacing 5e-324 s / 2 is below the smallest normal float "
            "2.2250738585072014e-308: its sample times would not be strictly increasing")


@pytest.mark.parametrize("command, fmt, doc, update, message", [
    ("moments", "text", {"beam": {"kinetic_energy_eV": 3e5, "L": 1}}, {"ring": {"B0_T": 1e-310}},
     "beam waist at B = 1e-310 T is beyond the float range: |e B| underflows to 0"),
    ("moments", "json", {"beam": {"kinetic_energy_eV": 3e5, "L": 10**21}},
     {"ring": {"B0_T": 1e-303}}, f"<r^2> of the Landau state at B = 1e-303 T, n_r = 0, "
                                 f"l_z = {10**21} is beyond the float range"),
    ("simulate", None, _TMP, {}, "the TMP coefficient at B = 1e+200 T is beyond the float range"),
    ("moments", "text", {"beam": {"kinetic_energy_eV": 3e5, "L": 10**160}},
     {"ring": {"B0_T": 1.0}}, _SPECTROSCOPIC),
    ("moments", "text", {"beam": {"kinetic_energy_eV": 3e5, "L": 10**200}},
     {"ring": {"B0_T": 1.0}}, _MODEL_R2),
    ("simulate", None, _FROZEN, {"beam": {**_BEAM, "L": 10**160}}, _SPECTROSCOPIC),
    ("simulate", None, _FROZEN, {"beam": {**_BEAM, "L": 10**200}}, _MODEL_R2),
    ("simulate", None, _RESONANCE, {"beam": {**_BEAM, "L": 10**160}}, _SPECTROSCOPIC),
    ("simulate", None, _RESONANCE, {"beam": {**_BEAM, "L": 10**200}}, _MODEL_R2),
    ("simulate", None, _FROZEN_SIM, {"beam": {**_FROZEN_SIM["beam"], "L": 5 * 10**153},
                                     "scenario": {**_FROZEN_SIM["scenario"], "steps": 4}},
     _COUPLING),
    ("simulate", None, _TINY_GRID, {}, _SPACING),
    ("simulate", None, _TINY_GRID, {"oracle": {"enabled": True}}, _SPACING),
], ids=["moments-B-underflow", "moments-landau-r2-overflow", "tmp-b-overflow",
        "moments-L-1e160", "moments-L-1e200", "frozen-L-1e160", "frozen-L-1e200",
        "resonance-L-1e160", "resonance-L-1e200", "frozen-coupling-L-5e153", "tiny-grid",
        "tiny-grid-oracle"])
def test_values_past_the_float_range_exit_1_and_write_nothing(command, fmt, doc, update,
                                                              message, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**doc, **update}))
    out_path = tmp_path / "out" / "result"
    out_path.parent.mkdir()
    argv = [command, "--config", str(path), "--out", str(out_path)]
    code, out, err = run_cli(argv + (["--format", fmt] if fmt else []), capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "numerical", "message": message}
    assert list(out_path.parent.iterdir()) == []


def test_simulate_at_a_theta_whose_half_angle_rounds_to_0_exits_0(tmp_path, capsys):
    # the oracle's coherent state at theta = 5e-324 is the north pole |L, L>
    config = Path(small_oracle_config(tmp_path, tmp_path / "out.csv"))
    doc = json.loads(config.read_text())
    doc["beam"].update(L=2, theta=5e-324)
    config.write_text(json.dumps(doc))
    code, out, err = run_cli(["simulate", "--config", str(config)], capsys)
    assert (code, out, err) == (0, "", "")
    report = json.loads((tmp_path / "out_comparison.json").read_text())
    assert report["max_abs_deviation"] < 1e-12


# a coefficient the run needs that neither the scenario nor the ring gives
@pytest.mark.parametrize("command, ring, scenario, message", [
    ("simulate", {"B0_T": 1.0}, {"mode": "frozen"},
     "frozen mode requires ring.R0_m and ring.n"),
    ("simulate", None, {"mode": "tmp"}, "ring section must provide R0_m+n or B0_T"),
    ("simulate", {"R0_m": 0.5}, {"mode": "resonance", "A_rad_s": 0.25},
     "ring section must provide R0_m+n or B0_T"),
    ("moments", {"R0_m": 0.5}, None, "ring section must provide R0_m+n or B0_T"),
    ("simulate", None, {"mode": "resonance", "Omega_rad_s": 2.0},
     "resonance mode requires scenario.grad_amplitude_V_m2 or scenario.A_rad_s"),
    ("scan", None, {"mode": "resonance", "Omega_rad_s": 2.0},
     "resonance mode requires scenario.grad_amplitude_V_m2 or scenario.A_rad_s"),
], ids=["frozen-without-R0-n", "tmp-without-ring", "resonance-R0-only", "moments-R0-only",
        "resonance-without-A", "scan-without-A"])
def test_coefficients_the_config_cannot_give_rejected(command, ring, scenario, message,
                                                     tmp_path, capsys):
    doc = {"beam": {"kinetic_energy_eV": 3e5, "L": 1, "theta": 1.1, "psi": 0.7,
                    "kind": "tensor"}}
    if command == "moments":
        doc["beam"] = {"kinetic_energy_eV": 3e5, "L": 1}
    if ring is not None:
        doc["ring"] = ring
    if scenario is not None:
        doc["scenario"] = {"t_end_s": 1.0, "steps": 8, **scenario}
    if command == "scan":
        doc["scan"] = {"omega_values_rad_s": [3.0, 4.0, 5.0]}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([command, "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "config", "message": message}


def test_density_file_errors_exit_without_traceback(tmp_path, capsys):
    # a missing file is a config error (exit 2); a bad entry a numerical one (exit 1)
    density = tmp_path / "density.txt"
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "beam": {"kinetic_energy_eV": 3e5, "L": 10, "density_path": str(density)},
        "ring": {"B0_T": 1.0}}))
    code, out, err = run_cli(["moments", "--config", str(path)], capsys)
    assert (code, out, json.loads(err)["error"]) == (2, "", "config")
    assert "beam.density_path" in json.loads(err)["message"]
    for row, reason in (("1e-9 x", "numbers"), ("1e-9 inf", "finite")):
        density.write_text(f"0.0 1.0\n{row}\n2e-9 1.0\n")
        code, out, err = run_cli(["moments", "--config", str(path)], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "numerical",
            "message": f"{density}:2: entries must be {reason}, got {row!r}"}


def test_parser_reused_across_calls_matches_fresh_runs(capsys):
    # main parses every call with one parser: two commands with a usage error
    # between them exit and print as they do each in its own interpreter
    runs = [["freeze", "--config", str(CONFIG_DIR / "ring300kev.json"), "--format", "json"],
            ["scan", "--config", "unused.json", "--format", "json"],
            ["moments", "--config", str(CONFIG_DIR / "moments100.json")]]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for argv in runs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "oamsim.cli", *argv], env=env,
                               capture_output=True, text=True)
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr)
    assert cli._parser.cache_info().misses == 1


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

    def test_scenario_from_config_resonance_coupling_from_gradient(self):
        doc = cfg.validate_config({
            "beam": {"kinetic_energy_eV": 3e5, "L": 10, "theta": 0.5, "psi": 0.1,
                     "kind": "tensor"},
            "scenario": {"mode": "resonance", "t_end_s": 1.0, "steps": 16,
                         "Omega_rad_s": 5.0, "grad_amplitude_V_m2": 2.5e6}}, "simulate")
        scn = cli.scenario_from_config(doc)
        assert scn.A == dy.quadrupole_coupling(mo.beam_model_eqm(10)[2], 10, 2.5e6)
        assert scn.A != 0.0 and scn.omega_drive == 10.0

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
