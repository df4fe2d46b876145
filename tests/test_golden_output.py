"""Golden-output guard: SHA-256 of the bytes the CLI writes for fixed inputs.

The digests pin the serialization (CSV and JSON series, scan CSV, the text
and JSON reports) and the closed forms bit for bit.  A change that alters
any of these bytes on purpose must update the digest here and say why in
CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from oamsim import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

RESONANCE_DOC = {
    "beam": {"kinetic_energy_eV": 3e5, "L": 1, "theta": 1.1, "psi": 0.7,
             "kind": "vector"},
    "scenario": {"mode": "resonance", "t_end_s": 3.141592653589793, "steps": 2001,
                 "Omega_rad_s": 50.0, "A_rad_s": 1.0, "omega_drive": 101.5, "phi": 0.3},
}
# psi > 0 puts -0.0 into P_rho at t = 0
TMP_DOC = {
    "beam": {"kinetic_energy_eV": 3e5, "L": 1, "theta": 1.1, "psi": 0.7,
             "kind": "tensor"},
    "scenario": {"mode": "tmp", "t_end_s": 20.0, "steps": 1001,
                 "Omega_rad_s": 8.0, "b_rad_s": 1.0},
}
# vector kind over a grid several scan blocks long
WIDE_SCAN_DOC = {
    "beam": {"kinetic_energy_eV": 3e5, "L": 1, "theta": 0.9, "psi": 0.4,
             "kind": "vector"},
    "scenario": {"mode": "resonance", "t_end_s": 3.141592653589793, "steps": 4001,
                 "Omega_rad_s": 50.0, "A_rad_s": 1.0, "phi": 0.2},
    "scan": {"omega_min_rad_s": 60.0, "omega_max_rad_s": 140.0, "points": 401},
}
# weak coupling on a coarse grid: h = omega' dt >= pi/2 for 302 of the 401
# frequencies, so the scan evaluates every sample instead of searching
COARSE_SCAN_DOC = {
    "beam": {"kinetic_energy_eV": 3e5, "L": 1, "theta": 1.2, "psi": 0.5,
             "kind": "tensor"},
    "scenario": {"mode": "resonance", "t_end_s": 10.0, "steps": 64,
                 "Omega_rad_s": 50.0, "A_rad_s": 1e-4, "phi": 0.1},
    "scan": {"omega_min_rad_s": 60.0, "omega_max_rad_s": 140.0, "points": 401},
}

# case: (command, config file, document or None, --format, SHA-256 of stdout)
CASES = {
    "constants-text": ("constants", None, "text",
                       "41154331f3d82d055d3df50d4439cf3439c3567dc6cb5bb2079525299eeedb25"),
    "constants-json": ("constants", None, "json",
                       "8b47dd91a6cd433e3893a781d1122bc1a131a0ee0bf5b2da744909178d1a448f"),
    "freeze-text": ("freeze", "ring300kev.json", "text",
                    "0783591d6abff66516c7daaeb4754c3ca7a9489331534297ebe5623b3f406ee6"),
    "freeze-json": ("freeze", "ring300kev.json", "json",
                    "7890bcfe44bc43775333fadce7fead89b62d0ec2ff9a435185390ae8ac6eab3d"),
    "moments-text": ("moments", "moments100.json", "text",
                     "29be2f54de7e5d411f8643ff888cc4a04339f227694e3f589e96f308a39f1715"),
    "moments-json": ("moments", "moments100.json", "json",
                     "2e8d11c0c7467b93a2b85320c170e6b4b599f6969f19c3ae550b26e401940695"),
    "frozen-csv": ("simulate", "frozen_sim.json", "csv",
                   "0338e525506223b9ade7f82004b236014928a06c20943f1888d09986cba0530d"),
    "frozen-json": ("simulate", "frozen_sim.json", "json",
                    "a1a1c9fd88ed55a021e00f5c93bc30d6196edd6e98b652f7fe29803c77e4a0b3"),
    "scan-csv": ("scan", "resonance_scan.json", "csv",
                 "0703821017788182360b1cd4623d163322a8e7a0eb4b291e47d319cf0f39c867"),
    "resonance-json": ("simulate", RESONANCE_DOC, "json",
                       "7a049848729f183bd801fb76d834f7162d1f2f43dedbfa1d1b90e3757431116b"),
    "tmp-csv": ("simulate", TMP_DOC, "csv",
                "1a3549e9f81caff303dcd6617f42a42628eab224b5c581bbb51e44d882e8bb78"),
    "wide-scan-csv": ("scan", WIDE_SCAN_DOC, "csv",
                      "26101fed3c006f36ea8d3fdd27aeab4d686e4e6ed218041b1968aad7a68fd50f"),
    "coarse-scan-csv": ("scan", COARSE_SCAN_DOC, "csv",
                        "6a2a255401b0389c34e6a2be81bb1af6e14458106c72fcb05b3ae5a7bc12cf92"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_bytes_pinned(case, tmp_path, capsys):
    command, config, fmt, digest = CASES[case]
    argv = [command, "--format", fmt]
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    elif config is not None:
        argv += ["--config", str(CONFIG_DIR / config)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert case != "tmp-csv" or ",-0," in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
