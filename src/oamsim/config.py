"""Run-configuration documents: strict JSON schema with unit-suffixed keys.

A configuration is a JSON object of sections; every key carries its unit in
the name where one applies.  Unknown sections or keys are rejected so that a
typo can never silently change the physics.
"""

import json
import math

from .errors import ConfigError

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

REQUIRED = {
    "freeze": {"beam": ("kinetic_energy_eV",), "ring": ("R0_m", "n")},
    "moments": {"beam": ("kinetic_energy_eV", "L"), "ring": ()},
    "simulate": {"beam": ("kinetic_energy_eV", "L", "theta", "psi", "kind"),
                 "scenario": ("mode", "t_end_s", "steps")},
    "scan": {"beam": ("kinetic_energy_eV", "L", "theta", "psi", "kind"),
             "scenario": ("mode", "t_end_s", "steps"),
             "scan": ()},
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
    if command not in REQUIRED:
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
    for section, keys in REQUIRED[command].items():
        if section not in out:
            raise ConfigError(f"command {command!r} requires a {section!r} section")
        for key in keys:
            if key not in out[section]:
                raise ConfigError(f"command {command!r} requires {section}.{key}")
    return out


def load_config(path, command):
    """Load and validate a JSON configuration file."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return validate_config(doc, command)


def dump_config(doc):
    """Serialize a configuration deterministically (round-trips with load)."""
    return json.dumps(doc, indent=2, sort_keys=True)


def scan_omegas(doc):
    """Resolve the drive-frequency grid of a scan section."""
    scan = doc.get("scan", {})
    if "omega_values_rad_s" in scan:
        values = scan["omega_values_rad_s"]
        if not values:
            raise ConfigError("scan.omega_values_rad_s must be nonempty")
        return list(values)
    needed = ("omega_min_rad_s", "omega_max_rad_s", "points")
    if all(k in scan for k in needed):
        import numpy as np
        return list(np.linspace(scan["omega_min_rad_s"], scan["omega_max_rad_s"],
                                scan["points"]))
    raise ConfigError(
        "scan section needs omega_values_rad_s or omega_min/omega_max/points")
