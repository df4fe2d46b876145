"""Twisted-electron electromagnetic moments and intrinsic-OAM ring dynamics.

The public names below are loaded from their submodule on first use, so
``import oamsim`` (and the report commands of ``oamsim.cli``) do not pay for
numpy until a numerical function is reached.
"""

import importlib

from .errors import ConfigError, ConvergenceError, DomainError

__version__ = "0.1.0"

_EXPORTS = {
    "am_core": ("AmOperators", "build_operators", "coherent_state", "polarization_tensor",
                "polarization_vector", "tensor_mixture"),
    "dynamics": ("ComparisonReport", "DynamicsScenario", "PolarizationSeries",
                 "ScanResult", "SplittingTable", "build_hamiltonian", "closed_form",
                 "evolve_oracle", "level_splitting", "oracle_vs_closed_form",
                 "quadrupole_coefficient_frozen", "quadrupole_coupling", "resonance_scan"),
    "moments": ("EcqmTensor", "MomentSet", "beam_diameter", "delta_omega_estimate",
                "ecqm", "intrinsic_eqm", "moment_set", "quadrupole_tensor_operator",
                "spectroscopic_eqm", "tmp_coefficient", "tmp_electron"),
    "ring_config": ("Kinematics", "LandauGeometry", "RingSetup", "field_gradients",
                    "frozen_residual", "frozen_setup", "kinematics", "landau_geometry",
                    "larmor_omega"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["ConfigError", "ConvergenceError", "DomainError", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
