"""Run-configuration documents: strict JSON schema with unit-suffixed keys.

A configuration is a JSON object of sections; every key carries its unit in
the name where one applies.  Unknown sections or keys are rejected so that a
typo can never silently change the physics.
"""

import json
import math

from .errors import ConfigError, require_budget

# section -> key -> (type, validator or None)
_POSITIVE = ("must be > 0", lambda v: v > 0)
_NONNEG = ("must be >= 0", lambda v: v >= 0)
_FRACTION = ("must satisfy 0 < n < 1", lambda v: 0.0 < v < 1.0)
_INT_GE1 = ("must be an integer >= 1", lambda v: v >= 1)
_INT_GE2 = ("must be an integer >= 2", lambda v: v >= 2)

SCHEMA = {
    "beam": {
        "kinetic_energy_eV": (float, _NONNEG),
        "L": (int, _INT_GE1),
        "theta": (float, None),
        "psi": (float, None),
        "kind": (("vector", "tensor"), None),
        "density_path": (str, None),
    },
    "ring": {
        "R0_m": (float, _POSITIVE),
        "B0_T": (float, None),
        "n": (float, _FRACTION),
    },
    "scenario": {
        "mode": (("tmp", "frozen", "resonance"), None),
        "t_end_s": (float, _POSITIVE),
        "steps": (int, _INT_GE2),
        "omega_drive": (float, None),
        "phi": (float, None),
        "drive": (("corotating", "linear"), None),
        "grad_amplitude_V_m2": (float, None),
        "Omega_rad_s": (float, None),
        "b_rad_s": (float, None),
        "A_rad_s": (float, None),
    },
    "scan": {
        "omega_values_rad_s": (list, None),
        "omega_min_rad_s": (float, None),
        "omega_max_rad_s": (float, None),
        "points": (int, _INT_GE2),
    },
    "output": {
        "path": (str, None),
        "format": (("csv", "json"), None),
    },
    "oracle": {
        "enabled": (bool, None),
        "tolerance": (float, _POSITIVE),
    },
}

# scenario keys each mode reads besides mode, t_end_s and steps, and the keys
# of which it requires one (none: it requires none); any other scenario key
# would be dropped unread, so validate_config rejects it
MODE_KEYS = {
    "tmp": (("Omega_rad_s", "b_rad_s"), ()),
    "frozen": (("A_rad_s",), ()),
    "resonance": (("Omega_rad_s", "A_rad_s", "grad_amplitude_V_m2", "omega_drive", "phi",
                   "drive"), ("grad_amplitude_V_m2", "A_rad_s")),
}

# What each command reads.  For each section it reads: the keys it reads
# (None: all of the schema's), the keys it requires (None: the section may be
# absent), and for a key of which it accepts only some values, those values
# with the error that names the rule.  Any other section or key would be
# dropped unread, so validate_config rejects it.
_BEAM = ("kinetic_energy_eV", "L", "theta", "psi", "kind")
_RUN = ("mode", "t_end_s", "steps")
_ANY = (None, None, {})
# freeze and moments take their format from --format only
_REPORT_OUTPUT = (None, None, {"format": ((), "output.format is not read by {command!r}: "
                                               "--format json|text sets its format")})
READS = {
    "freeze": {"beam": (("kinetic_energy_eV",), ("kinetic_energy_eV",), {}),
               "ring": (None, ("R0_m", "n"), {}), "output": _REPORT_OUTPUT},
    "moments": {"beam": (("kinetic_energy_eV", "L", "density_path"),
                         ("kinetic_energy_eV", "L"), {}),
                "ring": (None, (), {}), "output": _REPORT_OUTPUT},
    "simulate": {"beam": (_BEAM, _BEAM, {}), "ring": _ANY, "scenario": (None, _RUN, {}),
                 "output": _ANY, "oracle": _ANY},
    "scan": {"beam": (_BEAM, _BEAM, {}), "ring": _ANY,
             # the scan grid sets the drive frequency
             "scenario": (tuple(k for k in SCHEMA["scenario"] if k != "omega_drive"), _RUN,
                          {"mode": (("resonance",), "scan requires scenario.mode = 'resonance'")}),
             "scan": (None, (), {}),
             "output": (None, None, {"format": (
                 ("csv",), "scan writes csv only: output.format must be 'csv'")}),
             "oracle": (("enabled",), None, {"enabled": (
                 (False,), "scan has no oracle: oracle.enabled must be false")})},
}


def _finite_float(section, key, x):
    """x as a float; json's NaN and Infinity literals, or an integer beyond the float range, fail."""
    try:
        x = float(x)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{section}.{key}: expected a finite number, got {x!r}")
    return x


def _check_value(section, key, value):
    typ, constraint = SCHEMA[section][key]
    if isinstance(typ, tuple):
        if value not in typ:
            raise ConfigError(f"{section}.{key}: expected one of {typ}, got {value!r}")
        return value
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{section}.{key}: expected a number, got {value!r}")
        value = _finite_float(section, key, value)
    elif typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{section}.{key}: expected an integer, got {value!r}")
    elif typ is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{section}.{key}: expected a boolean, got {value!r}")
    elif typ is str:
        if not isinstance(value, str):
            raise ConfigError(f"{section}.{key}: expected a string, got {value!r}")
    elif typ is list:
        if not isinstance(value, list) or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in value):
            raise ConfigError(f"{section}.{key}: expected a list of numbers, got {value!r}")
        value = [_finite_float(section, key, x) for x in value]
    if constraint is not None:
        message, ok = constraint
        if not ok(value):
            raise ConfigError(f"{section}.{key}: {message}, got {value}")
    return value


def validate_config(doc, command):
    """Validate a configuration dict for a CLI command; returns the normalized dict."""
    if command not in READS:
        raise ConfigError(f"unknown command {command!r}")
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    out = {}
    for section, content in doc.items():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section {section!r}")
        if not isinstance(content, dict):
            raise ConfigError(f"section {section!r} must be an object")
        out[section] = {}
        for key, value in content.items():
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            out[section][key] = _check_value(section, key, value)
    if {"n", "B0_T"} <= out.get("ring", {}).keys():
        raise ConfigError("ring.n and ring.B0_T are exclusive: give R0_m + n (frozen "
                          "solve) or B0_T (direct field)")
    reads = READS[command]
    for section, (_, required, _) in reads.items():
        if required is not None and section not in out:
            raise ConfigError(f"command {command!r} requires a {section!r} section")
        for key in required or ():
            if key not in out[section]:
                raise ConfigError(f"command {command!r} requires {section}.{key}")
    for section, content in out.items():
        if section not in reads:
            raise ConfigError(f"section {section!r} is not read by {command!r}")
        keys, _, accepts = reads[section]
        for key, value in content.items():
            if keys is not None and key not in keys:
                raise ConfigError(f"{section}.{key} is not read by {command!r}")
            if key in accepts and value not in accepts[key][0]:
                raise ConfigError(accepts[key][1].format(command=command))
    oracle = out.get("oracle", {})
    if "tolerance" in oracle and not oracle.get("enabled", False):
        raise ConfigError(f"oracle.tolerance is not read by {command!r} "
                          "unless oracle.enabled is true")
    if "scenario" in out:
        scenario = out["scenario"]
        mode = scenario["mode"]
        keys, one_of = MODE_KEYS[mode]
        for key in scenario:
            if key not in _RUN + keys:
                raise ConfigError(f"scenario.{key} is not read in {mode} mode")
        if one_of and not any(key in scenario for key in one_of):
            raise ConfigError(f"{mode} mode requires "
                              + " or ".join(f"scenario.{key}" for key in one_of))
    return out


def load_config(path, command):
    """Load and validate a JSON configuration file.

    Every decoding failure is a ConfigError: ValueError covers invalid JSON
    (json.JSONDecodeError), bytes that do not decode (UnicodeDecodeError) and
    an integer literal past Python's digit limit; RecursionError covers
    nesting too deep for the parser.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return validate_config(doc, command)


def scan_omegas(doc):
    """Resolve the drive-frequency grid of a scan section."""
    scan = doc.get("scan", {})
    needed = ("omega_min_rad_s", "omega_max_rad_s", "points")
    if "omega_values_rad_s" in scan:
        values = scan["omega_values_rad_s"]
        if not values:
            raise ConfigError("scan.omega_values_rad_s must be nonempty")
        for key in needed:
            if key in scan:
                raise ConfigError(f"scan.omega_values_rad_s and scan.{key} are exclusive: "
                                  "give the list or omega_min/omega_max/points")
        return list(values)
    if all(k in scan for k in needed):
        require_budget(f"the {scan['points']} scan frequencies", scan["points"] * 8)
        import numpy as np
        return list(np.linspace(scan["omega_min_rad_s"], scan["omega_max_rad_s"],
                                scan["points"]))
    raise ConfigError(
        "scan section needs omega_values_rad_s or omega_min/omega_max/points")
