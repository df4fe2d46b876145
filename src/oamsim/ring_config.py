"""Relativistic kinematics, frozen-OAM ring solving, and Landau-state geometry.

Sign conventions: the electron charge is e = -|e|; the ring magnetic field
B0 points along +z; electrons circulate counterclockwise (omega > 0); the
stored radial electric field component E is negative (pointing inward), so
electric and magnetic forces on the electron are oppositely directed.
"""

import math
import numbers
from typing import NamedTuple

from .constants import C, E_CHARGE, HBAR, M_E, gamma_from_kinetic_energy
from .errors import DomainError, require_finite


class Kinematics(NamedTuple):
    """Relativistic state of the beam centroid."""

    kinetic_energy_ev: float
    gamma: float
    beta_tilde: float
    velocity: float         # m/s


class RingSetup(NamedTuple):
    """Field configuration of a storage ring, frozen or generic."""

    kin: Kinematics
    B0: float               # average vertical field [T]
    E: float                # radial electric field component [V/m], signed
    R0: float               # ring radius [m]
    n: float                # field index
    omega: float            # orbital angular velocity [rad/s]
    Omega: float            # Larmor angular velocity, z-component [rad/s]


class LandauGeometry(NamedTuple):
    """Transverse geometry of a Landau/twisted state in a uniform field."""

    B: float                # [T]
    w_m: float              # beam waist [m]
    mean_r2: float          # <r^2> [m^2]
    n_r: int                # radial quantum number
    l_z: int                # OAM projection


def kinematics(kinetic_energy_ev):
    """Relativistic kinematics of an electron with the given kinetic energy."""
    if not 0 <= kinetic_energy_ev < math.inf:    # written so that NaN fails too
        raise DomainError(f"kinetic energy must be finite and >= 0 eV, got {kinetic_energy_ev}")
    gamma = gamma_from_kinetic_energy(kinetic_energy_ev)
    try:
        beta = math.sqrt(1.0 - 1.0 / gamma**2)
    except OverflowError:    # from about 6.9e159 eV
        raise DomainError(f"kinetic energy {kinetic_energy_ev} eV puts gamma**2 beyond "
                          "the float range") from None
    return Kinematics(kinetic_energy_ev=float(kinetic_energy_ev), gamma=gamma,
                      beta_tilde=beta, velocity=beta * C)


def larmor_omega(kin, B, E):
    """z-component of the OAM Larmor angular velocity in vertical B and radial E.

    Scalar reduction of the precession operator for a centroid with purely
    azimuthal momentum in ideal fields:

        Omega_z = -e/(2 gamma m_e) * (B + beta_tilde * E / c),   e = -|e|.

    The one-half factor is the orbital (g = 1) moment; with it, the frozen
    field configuration of frozen_setup satisfies Omega_z = omega exactly.
    E is the signed radial field component in V/m (negative = inward).
    """
    return E_CHARGE / (2.0 * kin.gamma * M_E) * (B + kin.beta_tilde * E / C)


def frozen_setup(kinetic_energy_ev, R0, n):
    """Solve the frozen-OAM ring for the given energy, radius and field index.

    The orbital angular velocity follows from R0 = V/omega, the vertical
    field from omega = |e| B0 / (gamma m (gamma^2 + 1)), and the radial
    electric field from B0 = (2/beta^2 - 1) beta x E, all in closed form.
    The resulting Larmor frequency equals omega to rounding.  A ring whose
    fields, frequencies or field gradients overflow is a DomainError.
    """
    if not kinetic_energy_ev > 0:
        raise DomainError("frozen setup requires kinetic energy > 0 eV")
    if not 0 < R0 < math.inf:
        raise DomainError(f"ring radius must be finite and positive, got {R0}")
    if not 0.0 < n < 1.0:
        raise DomainError(f"field index must satisfy 0 < n < 1, got {n}")
    kin = kinematics(kinetic_energy_ev)
    if kin.beta_tilde == 0.0:    # gamma rounds to 1 below about 5.7e-11 eV
        raise DomainError(f"kinetic energy {kinetic_energy_ev} eV rounds beta to 0: "
                          "the frozen ring has no finite field")
    omega = kin.velocity / R0
    B0 = omega * kin.gamma * M_E * (kin.gamma**2 + 1.0) / E_CHARGE
    # B0 = (2/beta^2 - 1) * beta x E with E radial (inward) and B0 vertical.
    E = -B0 * C / ((2.0 / kin.beta_tilde**2 - 1.0) * kin.beta_tilde)
    Omega = larmor_omega(kin, B0, E)
    setup = RingSetup(kin=kin, B0=B0, E=E, R0=float(R0), n=float(n), omega=omega, Omega=Omega)
    # finite E and Omega make B0 and omega finite; the gradients grow as 1/R0^2
    # and can overflow where the fields do not (R0 = 1e-152 m at 300 keV)
    if not all(map(math.isfinite, (E, Omega, *field_gradients(setup)))):
        raise DomainError(f"the frozen ring's fields at {kinetic_energy_ev} eV and R0 = {R0} m "
                          "are beyond the float range")
    return setup


def frozen_residual(setup):
    """|Omega - omega| / |omega| for a ring setup."""
    if setup.omega == 0.0:
        raise DomainError("residual undefined for omega = 0")
    return abs(setup.Omega - setup.omega) / abs(setup.omega)


def field_gradients(setup):
    """Radial gradients (dBz/dR [T/m], dEr/dR of the quasielectric field [V/m^2]).

    dBz/dR = -n B0 / R0; the co-moving quasielectric field E_r = beta c B_z
    gives dEr/dR = -beta n B0 c / R0 at the interface (V/m^2).
    """
    dbz_dr = -setup.n * setup.B0 / setup.R0
    der_dr = setup.kin.beta_tilde * dbz_dr * C
    return dbz_dr, der_dr


def _integral(value):
    """Whether value is a whole number; an integer is finite, and math.isfinite
    overflows past the float range."""
    return isinstance(value, numbers.Integral) or (math.isfinite(value) and int(value) == value)


def landau_geometry(B, n_r, l_z):
    """Beam waist and mean square radius of a Landau state.

    w_m = 2 sqrt(hbar/|e B|);  <r^2> = (w_m^2/2)(2 n_r + |l_z| + 1).
    A field whose |e B| underflows to 0, or an <r^2> past the float range,
    is a DomainError.
    """
    if not math.isfinite(B):
        raise DomainError(f"field must be finite, got {B}")
    if B == 0:
        raise DomainError("beam waist diverges at B = 0")
    if E_CHARGE * abs(B) == 0:    # |B| below about 1.5e-305 T
        raise DomainError(f"beam waist at B = {B} T is beyond the float range: "
                          "|e B| underflows to 0")
    if not (_integral(n_r) and n_r >= 0):
        raise DomainError(f"radial quantum number must be an integer >= 0, got {n_r}")
    if not _integral(l_z):
        raise DomainError(f"l_z must be an integer, got {l_z}")
    w_m = 2.0 * math.sqrt(HBAR / (E_CHARGE * abs(B)))
    mean_r2 = require_finite(f"<r^2> of the Landau state at B = {B} T, n_r = {n_r}, l_z = {l_z}",
                             lambda: 0.5 * w_m**2 * (2 * int(n_r) + abs(int(l_z)) + 1))
    return LandauGeometry(B=float(B), w_m=w_m, mean_r2=mean_r2,
                          n_r=int(n_r), l_z=int(l_z))
