"""Electromagnetic moments of the twisted electron.

Covers the tensor magnetic polarizability (TMP), intrinsic and spectroscopic
electric quadrupole moments (EQM), the quadrupole tensor operator, the
current-loop quadrupole moment of the orbiting spin (ECQM), and the
order-of-magnitude scale estimates used for ring experiments.

Charges are stored in coulombs with the electron sign convention e = -|e|
already folded in, so the intrinsic EQM Q0 = -e <r^2> comes out positive.

numpy is imported inside the functions that take or return arrays, so the
scalar moments behind the report commands load no numpy.
"""

import math
import numbers
from typing import NamedTuple

from .constants import (ALPHA, E_SIGNED, FM, GAUSSIAN_B2_J_PER_M3, HBAR,
                        HBAR_C_EV_M, LAMBDA_BAR_C)
from .errors import ConfigError, DomainError, require_int
from .ring_config import landau_geometry


class MomentSet(NamedTuple):
    """Moments of a beam model in a given field."""

    beta_T_fm3: float    # tensor magnetic polarizability [fm^3]
    Q0_Cm2: float        # intrinsic EQM [C m^2]
    Qs_Cm2: float        # spectroscopic EQM [C m^2]
    w_m: float           # beam waist for the configured field [m]
    mean_r2: float       # <r^2> of the beam model [m^2]


class EcqmTensor(NamedTuple):
    """Current quadrupole moment tensor, traceless symmetric, in C m^2.

    rows holds the components as three tuples of floats; components is the
    same tensor as a (3, 3) ndarray.
    """

    rows: tuple

    @property
    def components(self):
        import numpy as np
        return np.array(self.rows)


def _in_float_range(what, compute):
    """compute(), refused as a DomainError naming what when it leaves the float range.

    A Python int or a float ** raises OverflowError there, and float
    arithmetic gives inf or NaN; either is refused.
    """
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{what} is beyond the float range")
    return value


def tmp_electron():
    """Tensor magnetic polarizability e^2 hbar^2/(8 m^3) in fm^3.

    With Gaussian-unit e^2 = alpha hbar c this is (alpha/8) lambda_bar_C^3,
    about 5.25e4 fm^3 for the electron.
    """
    return ALPHA / 8.0 * (LAMBDA_BAR_C / FM) ** 3


def tmp_coefficient(B):
    """TMP dynamics coefficient b = -beta_T B^2 in rad/s for a field B [T].

    The Gaussian-convention product beta_T B^2 (beta_T a volume) converts to
    joules as beta_T[m^3] * (4 pi / mu_0) * B[T]^2; dividing by hbar gives
    the angular-frequency coefficient of the Lz^2 Hamiltonian term.  A
    coefficient beyond the float range is a DomainError.
    """
    beta_t_m3 = tmp_electron() * FM**3
    return _in_float_range(f"the TMP coefficient at B = {B} T",
                           lambda: -beta_t_m3 * GAUSSIAN_B2_J_PER_M3 * B**2 / HBAR)


def tmp_energy_shift(beta_T_fm3, L, B, angle):
    """Energy shift -beta_T (L . B)^2 in angular-frequency units [rad/s].

    angle is the angle between L and B; the projection L B cos(angle) enters
    squared.  Uses the same Gaussian-to-SI conversion as tmp_coefficient.
    """
    require_int("L", L, 1)
    if not (math.isfinite(B) and B >= 0):
        raise DomainError(f"B must be finite and >= 0, got {B}")
    for name, value in (("beta_T", beta_T_fm3), ("angle", angle)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    beta_t_m3 = beta_T_fm3 * FM**3
    proj_sq = (L * B * math.cos(angle)) ** 2
    return -beta_t_m3 * GAUSSIAN_B2_J_PER_M3 * proj_sq / HBAR


def load_radial_density(path):
    """Read a two-column radial density file (r [m], density >= 0).

    Lines starting with '#' are comments.  Returns (r, rho) arrays.  A path
    that cannot be read is a ConfigError naming beam.density_path; a file
    that is not text, or a row that is not two finite numbers, is a
    DomainError naming the path (and line).
    """
    import numpy as np
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"beam.density_path {str(path)!r} cannot be read: "
                          f"{exc.strerror}") from None
    except UnicodeDecodeError:
        raise DomainError(f"{path}: not a text file") from None
    rows = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise DomainError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
        try:
            row = tuple(float(x) for x in parts)
        except ValueError:
            raise DomainError(f"{path}:{lineno}: entries must be numbers, "
                              f"got {stripped!r}") from None
        if not all(map(math.isfinite, row)):
            raise DomainError(f"{path}:{lineno}: entries must be finite, got {stripped!r}")
        rows.append(row)
    if not rows:
        raise DomainError(f"{path}: no data rows")
    r = np.array([row[0] for row in rows])
    rho = np.array([row[1] for row in rows])
    if np.any(np.diff(r) <= 0):
        raise DomainError(f"{path}: radial grid must be strictly increasing")
    if np.any(rho < 0):
        raise DomainError(f"{path}: density must be nonnegative")
    return r, rho


def _simpson(y, x):
    """Composite Simpson integral of samples y on the increasing grid x.

    The rule and its operation order are those of scipy >= 1.11's
    simpson(y, x=x): a parabola through each pair of intervals from the
    start, summed, and for an even sample count Cartwright's correction for
    the last interval, the parabola through the last three samples
    integrated over it.
    """
    import numpy as np
    h = np.diff(x)
    k = (len(y) - 1) // 2 * 2           # the intervals the pairs cover
    h0, h1 = h[0:k:2], h[1:k:2]
    hsum = h0 + h1
    h0_h1 = h0 / h1
    total = np.sum(hsum / 6.0 * (y[0:k:2] * (2.0 - 1.0 / h0_h1)
                                 + y[1:k:2] * (hsum * (hsum / (h0 * h1)))
                                 + y[2:k + 1:2] * (2.0 - h0_h1)))
    if k < len(y) - 1:
        # 1-element arrays: numpy's array power rounds b**3 unlike the scalar one
        a, b = h[-2:, None]
        total += ((2 * b**2 + 3 * a * b) / (6 * (b + a)) * y[-1]
                  + (b**2 + 3.0 * a * b) / (6 * a) * y[-2]
                  - b**3 / (6 * a * (a + b)) * y[-3])[0]
    return total


def mean_square_radius(r, rho):
    """<r^2> = int(rho r^3 dr) / int(rho r dr) by composite Simpson quadrature.

    Simpson's rule on the pairs of intervals from r[0]; with an even number
    of samples the last interval takes Cartwright's correction, the parabola
    through the last three samples (_simpson).  This is scipy >= 1.11's
    simpson(y, x=x) to the bit; scipy 1.10 averaged two rules instead.
    """
    import numpy as np
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if r.shape != rho.shape or r.ndim != 1 or r.size < 3:
        raise DomainError("density table needs matching 1-d arrays of length >= 3")
    if np.any(np.diff(r) <= 0):
        raise DomainError("radial grid must be strictly increasing")
    if np.any(rho < 0):
        raise DomainError("density must be nonnegative")
    norm = _simpson(rho * r, r)
    if norm <= 0:
        raise DomainError("density has zero (or negative) norm")
    return _simpson(rho * r**3, r) / norm


def intrinsic_eqm(mean_r2):
    """Intrinsic EQM Q0 = -e <r^2> in C m^2 (positive for the electron), <r^2> in m^2."""
    if not (math.isfinite(mean_r2) and mean_r2 >= 0):
        raise DomainError(f"<r^2> must be finite and >= 0, got {mean_r2}")
    return -E_SIGNED * mean_r2


def spectroscopic_eqm(Q0, j, K):
    """Spectroscopic EQM  Qs = (3 K^2 - j(j+1)) / ((j+1)(2j+3)) * Q0.

    j may be integer or half-integer; K is the projection of the total
    angular momentum on the symmetry axis, |K| <= j.  A j or K whose
    products leave the float range is a DomainError.
    """
    for name, value in (("Q0", Q0), ("j", j), ("K", K)):
        # an integer is finite, and math.isfinite overflows past the float range
        if not isinstance(value, numbers.Integral) and not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if j < 0.5:
        raise DomainError(f"j must be >= 1/2, got {j}")
    if abs(K) > j:
        raise DomainError(f"|K| = {abs(K)} exceeds j = {j}")
    return _in_float_range(
        f"the spectroscopic EQM at j = {j}, K = {K}",
        lambda: (3.0 * K**2 - j * (j + 1.0)) / ((j + 1.0) * (2.0 * j + 3.0)) * Q0)


def quadrupole_tensor_operator(ops, Qs):
    """Quadrupole tensor operator on the operators' |L, m> space, as a 3x3 nest of matrices.

    Q_ij = Qs / (2 L (2L-1)) * [ 3 {L_i, L_j} - 2 delta_ij L(L+1) ], the
    brackets from rows of am_core.OBSERVABLES.  Each component is Hermitian;
    the diagonals are integer before the prefactor, so Q_xx + Q_yy + Q_zz
    vanishes exactly.  The stretched-state expectation <L,L|Q_zz|L,L> equals Qs.
    """
    from .am_core import OBSERVABLES, TENSOR_PAIRS
    pref = Qs / (2.0 * ops.L * (2.0 * ops.L - 1.0))
    out = [[None] * 3 for _ in range(3)]
    for (a, b), row in zip(TENSOR_PAIRS, OBSERVABLES[3:]):
        bracket = 3.0 * row - (2.0 * (a == b), 0, 0, 0, 0, 0)   # 3 {L_a, L_b} - 2 delta_ab L(L+1)
        out[a][b] = out[b][a] = pref * ops.observable(bracket)
    return out


def ecqm(L_vec, s_vec, epsilon_ev):
    """Current quadrupole moment of an orbiting magnetic moment, in C m^2.

    Q_ij = -(1/(2 eps)) [3 L_i mu_j + 3 L_j mu_i - 2 delta_ij (L . mu)] with
    mu = e s / eps; L and s are dimensionless (units of hbar), eps is the
    total energy in eV.  The natural-unit inverse energies become lengths
    through hbar c.
    """
    if not (math.isfinite(epsilon_ev) and epsilon_ev > 0):
        raise DomainError(f"total energy must be finite and positive, got {epsilon_ev}")
    lv = [float(x) for x in L_vec]
    sv = [float(x) for x in s_vec]
    if len(lv) != 3 or len(sv) != 3:
        raise DomainError("L_vec and s_vec must have three components each")
    if not all(map(math.isfinite, lv + sv)):
        raise DomainError(f"L_vec and s_vec must be finite, got {lv} and {sv}")
    scale = -0.5 * E_SIGNED * (HBAR_C_EV_M / epsilon_ev) ** 2
    dot = lv[0] * sv[0] + lv[1] * sv[1] + lv[2] * sv[2]
    t = [[3.0 * (lv[i] * sv[j] + sv[i] * lv[j]) for j in range(3)] for i in range(3)]
    for i in range(3):
        t[i][i] -= 2.0 * dot
    return EcqmTensor(rows=tuple(tuple(scale * x for x in row) for row in t))


def delta_omega_estimate(L, grad_E):
    """Order-of-magnitude spin-precession correction L |dE/dX| 1e-10 s^-1.

    grad_E is the maximum electric-field gradient in V/m^2.  The product is
    a literal scaling estimate, not a calibrated prediction.
    """
    require_int("L", L, 1)
    if not math.isfinite(grad_E):
        raise DomainError(f"grad_E must be finite, got {grad_E}")
    return L * abs(grad_E) * 1.0e-10


def beam_diameter(L):
    """Vortex-beam diameter model d = 10 nm * (L / 50), linear in the OAM."""
    require_int("L", L, 1)
    return 10.0e-9 * (L / 50.0)


def eqm_scale_check(L, R0):
    """Length scale <r^2>/R0 [m] with the diameter-model <r^2> of beam_model_eqm.

    Order-of-magnitude only; compare against the reduced Compton wavelength.
    """
    if not (math.isfinite(R0) and R0 > 0):
        raise DomainError(f"R0 must be finite and positive, got {R0}")
    return beam_model_eqm(L)[0] / R0


def beam_model_eqm(L):
    """(<r^2>, Q0, Qs) of the diameter-model beam, with <r^2> = (d(L)/2)^2.

    Qs is evaluated in the stretched configuration j = K = L.  An L whose
    <r^2> or Qs leaves the float range is a DomainError.
    """
    mean_r2 = _in_float_range(f"<r^2> of the diameter-model beam at L = {L}",
                              lambda: (0.5 * beam_diameter(L)) ** 2)
    q0 = intrinsic_eqm(mean_r2)
    return mean_r2, q0, spectroscopic_eqm(q0, L, L)


def moment_set(L, B):
    """Assemble the MomentSet for OAM L in a vertical field B [T].

    w_m comes from the Landau geometry of the field (n_r = 0, l_z = L); Q0
    and Qs use the measured-diameter beam model, with Qs evaluated in the
    stretched configuration j = K = L.
    """
    geo = landau_geometry(B, 0, L)
    mean_r2_model, q0, qs = beam_model_eqm(L)
    return MomentSet(beta_T_fm3=tmp_electron(), Q0_Cm2=q0, Qs_Cm2=qs,
                     w_m=geo.w_m, mean_r2=mean_r2_model)
