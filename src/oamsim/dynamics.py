"""Intrinsic-OAM polarization dynamics in storage-ring fields.

Three scenario modes isolate one bilinear interaction each:

* ``tmp``       H = Omega Lz + b Lz^2           (b = -beta_T B^2)
* ``frozen``    H = 2 A Lr^2                    (Lr along a fixed co-moving axis)
* ``resonance`` H = Omega Lz + quadrupole drive at omega_drive

The resonance drive comes in two models: ``linear``, the physical oscillation
2 A cos(omega t + phi) Lr^2, and ``corotating``, the rotating quadrupole

    (A/2) [ (Lx^2 - Ly^2) cos(omega t + phi) + {Lx, Ly} sin(omega t + phi) ],

whose rotating-frame dynamics matches the closed-form solutions without any
rotating-wave truncation.  Every mode is one instance of

    H(t) = H0 + sum_k a_k f_k(omega t + phi) H_k,

built once by ``hamiltonian_terms``; ``tmp`` and ``frozen`` have no drive
terms.  The verification oracle propagates these exactly from one
eigendecomposition, the corotating drive in the frame rotating at
omega/2 where it is static; only the linear drive uses a time-ordered
piecewise-constant-Hamiltonian propagator refined by substep halving.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .am_core import (build_operators, coherent_state, polarization_batch,
                      tensor_mixture)
# kept importable from dynamics: perfbench's tracer self-test patches it here
from .am_core import polarization_tensor  # noqa: F401
from .constants import HBAR
from .errors import ConvergenceError, DomainError
from .ring_config import field_gradients

SERIES_CSV_HEADER = "t,P_rho,P_phi,P_z,P_rr,P_pp,P_zz,P_rp,P_rz,P_pz,source"

_MODES = ("tmp", "frozen", "resonance")
_KINDS = ("vector", "tensor")
_DRIVES = ("corotating", "linear")
_BLOCK_BYTES = 2 * 2**20           # states the oracle holds per streamed block
_INTERVAL_BUDGET_BYTES = 2**30     # unitaries _interval_unitaries may allocate
_CSV_BLOCK_ROWS = 4096             # rows formatted per write


@dataclass(frozen=True)
class DynamicsScenario:
    """Coefficients, initial direction, and time grid for one dynamics run."""

    mode: str
    L: int
    Omega: float = 0.0          # Larmor z-frequency [rad/s]
    b: float = 0.0              # TMP coefficient [rad/s], tmp mode
    A: float = 0.0              # quadrupole coefficient [rad/s]
    omega_drive: float = 0.0    # drive frequency [rad/s], resonance mode
    phi: float = 0.0            # drive phase [rad]
    theta: float = 0.0          # initial polar angle [rad]
    psi: float = 0.0            # initial azimuth [rad]
    kind: str = "vector"
    t_end: float = 1.0          # [s]
    steps: int = 256
    drive: str = "corotating"   # resonance drive model

    def __post_init__(self):
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.drive not in _DRIVES:
            raise DomainError(f"drive must be one of {_DRIVES}, got {self.drive!r}")
        if int(self.L) != self.L or self.L < 1:
            raise DomainError(f"L must be an integer >= 1, got {self.L}")
        if self.steps < 2:
            raise DomainError(f"steps must be >= 2, got {self.steps}")
        if not self.t_end > 0:
            raise DomainError(f"t_end must be positive, got {self.t_end}")
        # each mode keeps exactly one bilinear term
        if self.mode == "frozen" and (self.Omega != 0.0 or self.b != 0.0):
            raise DomainError("frozen mode requires Omega = 0 and b = 0")
        if self.mode == "tmp" and self.A != 0.0:
            raise DomainError("tmp mode requires A = 0")
        if self.mode == "resonance" and self.b != 0.0:
            raise DomainError("resonance mode requires b = 0")

    def times(self):
        return np.linspace(0.0, self.t_end, self.steps)


@dataclass
class PolarizationSeries:
    """Time series of polarization states; NaN marks components a source does not define."""

    times: np.ndarray            # (n,)
    P: np.ndarray                # (n, 3)
    Pt: np.ndarray               # (n, 3, 3)
    source: str                  # "closed_form" | "oracle"
    diagnostics: Optional[dict] = None

    def __len__(self):
        return len(self.times)

    def validate(self, vec_tol=1e-10, trace_tol=1e-10):
        """Check series invariants on all components the source defines."""
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("series times must be strictly increasing")
        full_vec = ~np.any(np.isnan(self.P), axis=1)
        if np.any(full_vec):
            norms = np.linalg.norm(self.P[full_vec], axis=1)
            if np.max(norms) > 1.0 + vec_tol:
                raise DomainError(f"|P| exceeds 1 by more than {vec_tol}")
        diag = self.Pt[:, (0, 1, 2), (0, 1, 2)]
        full_tensor = ~np.any(np.isnan(self.Pt.reshape(len(self), 9)), axis=1)
        if np.any(full_tensor):
            traces = diag[full_tensor].sum(axis=1)
            if np.max(np.abs(traces - 1.0)) > trace_tol:
                raise DomainError(f"tensor trace deviates from 1 beyond {trace_tol}")
        return self


@dataclass(frozen=True)
class SplittingTable:
    """Quadrupole level shifts [rad/s], labeled by the Lr projection."""

    levels: tuple                # ((label, shift_rad_s), ...)
    coefficient: float           # shift per m_r^2 [rad/s]

    @property
    def shifts(self):
        return np.array([s for _, s in self.levels])


@dataclass(frozen=True)
class ComparisonReport:
    """Oracle vs closed form: pointwise deviation and extracted frequencies."""

    mode: str
    L: int
    kind: str
    drive: str
    max_abs_deviation: float
    freq_expected: float
    freq_oracle: float
    freq_closed: float
    freq_oracle_rel_err: float
    freq_closed_rel_err: float
    amplitude_factor: float      # oracle/closed peak amplitude (informational for L > 1)
    rwa_amplitude_bound: Optional[float]
    oracle: PolarizationSeries   # the series compared; its diagnostics carry the refinement


@dataclass(frozen=True)
class ScanResult:
    """Resonance scan: peak |P_z| per drive frequency."""

    omegas: np.ndarray
    peaks: np.ndarray
    argmax_index: int
    oracle_peaks: Optional[np.ndarray] = None


def quadrupole_coefficient_frozen(Qs, L, setup):
    """Frozen-mode quadrupole coefficient A = -Qs beta n B0 c / (8 L^2 R0 hbar) [rad/s].

    Equivalently Qs (dEr/dR) / (8 L^2 hbar) with the quasielectric gradient
    of the setup; zero field index gives zero.
    """
    if L < 1:
        raise DomainError(f"L must be >= 1, got {L}")
    _, der_dr = field_gradients(setup)
    return Qs * der_dr / (8.0 * L**2 * HBAR)


def quadrupole_coefficient_resonance(Qs, L, grad_amplitude):
    """Resonance-mode coefficient A = -Qs G / (8 L^2 hbar) [rad/s].

    grad_amplitude is the amplitude G of the oscillating quasielectric
    gradient in V/m^2.
    """
    if L < 1:
        raise DomainError(f"L must be >= 1, got {L}")
    return -Qs * grad_amplitude / (8.0 * L**2 * HBAR)


def hamiltonian_terms(scn, ops):
    """Decompose the scenario Hamiltonian (units of rad/s) into (H0, drive terms).

    Returns (H0, ((a_k, f_k, H_k), ...)) with H(t) = H0 + sum_k a_k f_k(phase) H_k
    and phase = omega_drive t + phi; an empty tuple means H is time-independent.
    """
    if ops.L != scn.L:
        raise DomainError(f"operators are for L={ops.L}, scenario has L={scn.L}")
    if scn.mode == "tmp":
        return scn.Omega * ops.Lz + scn.b * (ops.Lz @ ops.Lz), ()
    lxx = ops.Lx @ ops.Lx
    if scn.mode == "frozen":
        return 2.0 * scn.A * lxx, ()
    h0 = scn.Omega * ops.Lz
    if scn.drive == "linear":
        return h0, ((2.0 * scn.A, np.cos, lxx),)
    return h0, ((0.5 * scn.A, np.cos, lxx - ops.Ly @ ops.Ly),
                (0.5 * scn.A, np.sin, ops.Lx @ ops.Ly + ops.Ly @ ops.Lx))


def build_hamiltonian(scn, ops, t):
    """Effective Hamiltonian at time t; an array of n times gives an (n, dim, dim) stack."""
    h, terms = hamiltonian_terms(scn, ops)
    phase = scn.omega_drive * t + scn.phi
    for a, f, hk in terms:
        h = h + np.asarray(a * f(phase))[..., None, None] * hk
    return h


def initial_state(scn, ops):
    """Initial beam state: coherent (vector kind) or antiparallel mixture (tensor kind)."""
    if scn.kind == "vector":
        return coherent_state(ops, scn.theta, scn.psi)
    return tensor_mixture(ops, scn.theta, scn.psi)


def _interval_unitaries(scn, ops, n_sub):
    """Time-ordered unitaries for each output interval, n_sub substeps each."""
    times = scn.times()
    n_out = len(times) - 1
    need = n_out * n_sub * ops.dim**2 * 16
    if need > _INTERVAL_BUDGET_BYTES:
        raise ConvergenceError(
            f"{n_sub} substeps over {n_out} intervals need {need / 2**30:.3g} GiB of "
            f"unitaries, over the {_INTERVAL_BUDGET_BYTES / 2**30:g} GiB budget")
    dt_out = times[1] - times[0]
    dt_sub = dt_out / n_sub
    # midpoint sampling of H within each substep
    offsets = (np.arange(n_sub) + 0.5) * dt_sub
    t_mid = (times[:-1, None] + offsets[None, :]).ravel()
    chunk = max(1, 262144 // max(1, n_sub)) * n_sub
    blocks = []
    for start in range(0, t_mid.size, chunk):
        w, v = np.linalg.eigh(build_hamiltonian(scn, ops, t_mid[start:start + chunk]))
        phases = np.exp(-1j * dt_sub * w)
        blocks.append(np.einsum("nik,nk,njk->nij", v, phases, v.conj()))
    u = np.concatenate(blocks, axis=0) if len(blocks) > 1 else blocks[0]
    u = u.reshape(n_out, n_sub, ops.dim, ops.dim)
    # pairwise time-ordered reduction along the substep axis
    while u.shape[1] > 1:
        if u.shape[1] % 2:
            tail = u[:, -1:]
            u = np.concatenate([np.matmul(u[:, 1::2], u[:, 0:-1:2]), tail], axis=1)
        else:
            u = np.matmul(u[:, 1::2], u[:, 0::2])
    out = u[:, 0]
    # project the accumulated products back onto the unitary group so rounding
    # drift does not leak into trace/norm preservation over long runs
    w, _, vh = np.linalg.svd(out)
    return np.matmul(w, vh)


def _propagate(scn, ops, n_sub):
    """Piecewise-constant propagation across the output grid, n_sub substeps per interval.

    Returns an (n, dim) array of state vectors or an (n, dim, dim) array of
    density matrices.
    """
    data = initial_state(scn, ops).data
    us = _interval_unitaries(scn, ops, n_sub)
    out = np.empty((len(us) + 1,) + data.shape, dtype=complex)
    out[0] = data
    for k, uk in enumerate(us):
        if data.ndim == 1:
            data = uk @ data
        else:
            data = uk @ data @ uk.conj().T
            data = 0.5 * (data + data.conj().T)   # keep rounding off the Hermiticity
        out[k + 1] = data
    return out


def _refine(scn, ops, rtol, max_halvings, fixed_substeps):
    """Piecewise propagation, substeps doubled until the final state converges.

    Returns the states and the refinement record.
    """
    prev = None
    n_sub = 1 if fixed_substeps is None else fixed_substeps
    for level in range(max_halvings + 1):
        data = _propagate(scn, ops, n_sub)
        if fixed_substeps is not None:
            return data, dict(n_substeps=n_sub, refinement_delta=None)
        p_final, pt_final = polarization_batch(data[-1:], ops)
        if prev is not None:
            delta = max(np.max(np.abs(p_final - prev[0])),
                        np.max(np.abs(pt_final - prev[1])))
            if delta < rtol:
                return data, dict(n_substeps=n_sub, refinement_delta=float(delta),
                                  refinement_levels=level)
        prev = (p_final, pt_final)
        n_sub *= 2
    raise ConvergenceError(
        f"oracle did not converge to {rtol} after {max_halvings} substep halvings")


def _spectral_states(times, state0, ops, h, frame, n_block):
    """Exact states U(t) state0 U(t)^dagger (or U(t) state0 for a vector), with
    U(t) = exp(-i frame t Lz) exp(-i h t), on the grid times.

    One eigendecomposition of the time-independent h; the states are then
    built n_block samples at a time.  The frame rotation is an elementwise
    phase because Lz is diagonal.
    """
    w, v = np.linalg.eigh(h)
    m = ops.Lz.diagonal().real
    if state0.ndim == 1:
        c0 = v.conj().T @ state0
    else:
        r0 = v.conj().T @ state0 @ v
    for start in range(0, len(times), n_block):
        t = times[start:start + n_block, None]
        ph = np.exp(-1j * t * w)
        frame_ph = np.exp(-1j * (frame * t) * m)
        if state0.ndim == 1:
            yield frame_ph * ((ph * c0) @ v.T)
        else:
            rho = v @ (ph[:, :, None] * r0 * ph.conj()[:, None, :]) @ v.conj().T
            yield frame_ph[:, :, None] * rho * frame_ph.conj()[:, None, :]


def _series_from_states(scn, ops, blocks, diagnostics, keep_states):
    """Extract P/Pt and merge the invariant diagnostics, one block of states at a time."""
    times = scn.times()
    p = np.empty((len(times), 3))
    pt = np.empty((len(times), 3, 3))
    kept = []
    start = 0
    for block in blocks:
        stop = start + len(block)
        p[start:stop], pt[start:stop] = polarization_batch(block, ops)
        for key, value in _state_diagnostics(block).items():
            merge = min if key == "min_eigenvalue" else max
            diagnostics[key] = merge(diagnostics.get(key, value), value)
        if keep_states:
            kept.append(block)
        start = stop
    series = PolarizationSeries(times=times, P=p, Pt=pt, source="oracle",
                                diagnostics=diagnostics).validate()
    return series, (np.concatenate(kept) if keep_states else None)


def _state_diagnostics(data):
    """Unitarity bookkeeping: norm/trace/Hermiticity/positivity over a stack of states."""
    diag = {}
    if data.ndim == 2:
        norms = np.linalg.norm(data, axis=1)
        diag["max_norm_dev"] = float(np.max(np.abs(norms - 1.0)))
    else:
        traces = np.trace(data, axis1=1, axis2=2).real
        diag["max_trace_dev"] = float(np.max(np.abs(traces - 1.0)))
        diag["max_herm_dev"] = float(np.max(np.abs(data - data.conj().transpose(0, 2, 1))))
        diag["min_eigenvalue"] = float(np.min(np.linalg.eigvalsh(data)))
    return diag


def evolve_oracle(scn, ops=None, rtol=1e-9, max_halvings=20, fixed_substeps=None,
                  return_states=False):
    """Matrix-propagator oracle for a dynamics scenario.

    Each Hamiltonian class has one propagator, named by
    diagnostics["propagator"]:

    * "spectral" (tmp, frozen, corotating drive): H is constant in the lab
      frame or in the frame rotating about z at omega_drive/2, so
      U(t) = exp(-i (omega_drive t/2) Lz) exp(-i H_rot t) is evaluated
      exactly from one eigendecomposition; rtol and max_halvings do not
      apply and fixed_substeps is rejected.
    * "piecewise" (linear drive): piecewise-constant-Hamiltonian
      propagation with midpoint sampling; the substep count per output
      interval is doubled until the final-time polarization (vector and
      tensor) changes by less than rtol, up to max_halvings doublings.
      fixed_substeps disables the refinement (used for convergence-order
      studies).  The diagnostics add the refinement record.

    States are processed in blocks of about 2 MB.  Returns a
    PolarizationSeries (and the raw state array when return_states=True);
    diagnostics carry the norm or trace, Hermiticity and positivity checks
    over every sample.
    """
    if ops is None:
        ops = build_operators(scn.L)
    h0, terms = hamiltonian_terms(scn, ops)
    state0 = initial_state(scn, ops).data
    n_block = max(1, _BLOCK_BYTES // state0.nbytes)
    if not terms or scn.drive == "corotating":
        if fixed_substeps is not None:
            raise DomainError("fixed_substeps applies only to the piecewise "
                              "propagator of the linear drive")
        # the corotating drive is static in the frame rotating at omega_drive/2
        frame = 0.5 * scn.omega_drive if terms else 0.0
        h = build_hamiltonian(scn, ops, 0.0) - frame * ops.Lz if terms else h0
        blocks = _spectral_states(scn.times(), state0, ops, h, frame, n_block)
        diag = {"propagator": "spectral"}
    else:
        data, diag = _refine(scn, ops, rtol, max_halvings, fixed_substeps)
        diag["propagator"] = "piecewise"
        blocks = (data[i:i + n_block] for i in range(0, len(data), n_block))
    series, states = _series_from_states(scn, ops, blocks, diag, return_states)
    return (series, states) if return_states else series


def _nan_series(scn):
    times = scn.times()
    p = np.full((len(times), 3), np.nan)
    pt = np.full((len(times), 3, 3), np.nan)
    return times, p, pt


def closed_form_tmp(scn):
    """Closed-form TMP beating of an initially tensor-polarized beam (exact at L=1).

    P_rho = -1/2 sin(2 theta) sin(Omega t + psi) sin(b t),
    P_phi = +1/2 sin(2 theta) cos(Omega t + psi) sin(b t),  P_z = 0.
    For L > 1 the shape holds up to a constant amplitude factor.
    """
    if scn.mode != "tmp":
        raise DomainError("closed_form_tmp requires mode='tmp'")
    if scn.kind != "tensor":
        raise DomainError("the TMP closed form describes a tensor-polarized beam")
    times, p, pt = _nan_series(scn)
    env = 0.5 * np.sin(2.0 * scn.theta) * np.sin(scn.b * times)
    arg = scn.Omega * times + scn.psi
    p[:, 0] = -env * np.sin(arg)
    p[:, 1] = env * np.cos(arg)
    p[:, 2] = 0.0
    return PolarizationSeries(times=times, P=p, Pt=pt, source="closed_form")


def closed_form_frozen(scn):
    """Closed-form P_z under the frozen-OAM quadrupole interaction.

    vector:  P_z = cos(2At) cos(theta) + 1/2 sin^2(theta) sin(2At) sin(2 psi)
    tensor:  P_z = 1/2 sin^2(theta) sin(2At) sin(2 psi)
    """
    if scn.mode != "frozen":
        raise DomainError("closed_form_frozen requires mode='frozen'")
    times, p, pt = _nan_series(scn)
    s2 = np.sin(scn.theta) ** 2
    osc = 0.5 * s2 * np.sin(2.0 * scn.A * times) * np.sin(2.0 * scn.psi)
    if scn.kind == "vector":
        p[:, 2] = np.cos(2.0 * scn.A * times) * np.cos(scn.theta) + osc
    else:
        p[:, 2] = osc
    return PolarizationSeries(times=times, P=p, Pt=pt, source="closed_form")


def closed_form_resonance(scn):
    """Closed-form P_z near the omega = 2 Omega quadrupole resonance.

    With omega' = sqrt((2 Omega - omega)^2 + A^2):

    tensor:  P_z = (A/omega') sin^2(theta) sin(w't/2) [ ((2Omega-omega)/omega')
                    sin(w't/2) cos(2 psi - phi) + cos(w't/2) sin(2 psi - phi) ]
    vector:  adds (1 - 2 A^2/omega'^2 sin^2(w't/2)) cos(theta).

    Exact for the corotating drive model; the linear drive obeys it within
    rotating-wave corrections of order A/omega.
    """
    if scn.mode != "resonance":
        raise DomainError("closed_form_resonance requires mode='resonance'")
    detuning = 2.0 * scn.Omega - scn.omega_drive
    omega_p = math.hypot(detuning, scn.A)
    if omega_p == 0.0:
        raise DomainError("resonance closed form undefined for A = 0 at zero detuning")
    times, p, pt = _nan_series(scn)
    half = 0.5 * omega_p * times
    s_half, c_half = np.sin(half), np.cos(half)
    alpha = 2.0 * scn.psi - scn.phi
    s2 = np.sin(scn.theta) ** 2
    pz = (scn.A / omega_p) * s2 * s_half * (
        (detuning / omega_p) * s_half * np.cos(alpha) + c_half * np.sin(alpha))
    if scn.kind == "vector":
        pz = pz + (1.0 - 2.0 * (scn.A / omega_p)**2 * s_half**2) * np.cos(scn.theta)
    p[:, 2] = pz
    return PolarizationSeries(times=times, P=p, Pt=pt, source="closed_form")


def closed_form(scn):
    """Dispatch the closed-form solution for the scenario mode."""
    if scn.mode == "tmp":
        return closed_form_tmp(scn)
    if scn.mode == "frozen":
        return closed_form_frozen(scn)
    return closed_form_resonance(scn)


def resonance_scan(base, omega_values, with_oracle=False, oracle_rtol=1e-7):
    """Peak |P_z| of the resonance closed form over a drive-frequency grid.

    with_oracle adds the oracle's peak per frequency, at tolerance oracle_rtol.
    """
    omegas = np.asarray(list(omega_values), dtype=float)
    if omegas.size == 0:
        raise DomainError("resonance scan needs a nonempty frequency grid")
    if base.mode != "resonance":
        raise DomainError("resonance scan requires a resonance-mode scenario")

    def peak(omega):
        scn = replace(base, omega_drive=float(omega))
        series = closed_form_resonance(scn)
        return float(np.nanmax(np.abs(series.P[:, 2])))

    def oracle_peak(omega):
        scn = replace(base, omega_drive=float(omega))
        series = evolve_oracle(scn, rtol=oracle_rtol)
        return float(np.max(np.abs(series.P[:, 2])))

    peaks = np.array([peak(w) for w in omegas])
    oracle_peaks = np.array([oracle_peak(w) for w in omegas]) if with_oracle else None
    return ScanResult(omegas=omegas, peaks=peaks,
                      argmax_index=int(np.argmax(peaks)),
                      oracle_peaks=oracle_peaks)


def level_splitting(ops, Qs, L, dEr_dR):
    """Quadrupole splitting of the |L, m_r> levels by a quasielectric gradient.

    The interaction -Qs/(4 L^2) (dEr/dR) Lr^2 shifts the level with Lr
    projection m_r by coefficient * m_r^2, linear in the gradient (and in
    the field index that produces it).
    """
    if L < 1:
        raise DomainError(f"L must be >= 1, got {L}")
    if ops.L != L:
        raise DomainError(f"operators are for L={ops.L}, expected {L}")
    coeff = -Qs * dEr_dR / (4.0 * L**2 * HBAR)
    # eigenbasis of Lr (nondegenerate) fixes stable labels for Lr^2
    w, v = np.linalg.eigh(ops.Lx)
    order = np.argsort(-w)       # m_r = L .. -L, matching the basis convention
    levels = []
    for idx in order:
        m_r = int(round(w[idx]))
        overlaps = np.round(np.abs(v[:, idx]) ** 2, 9)  # deterministic tie-break
        overlap_m = ops.L - int(np.argmax(overlaps))
        label = f"m_r={m_r:+d} (max overlap m={overlap_m:+d})"
        levels.append((label, float(coeff * w[idx] ** 2)))
    return SplittingTable(levels=tuple(levels), coefficient=float(coeff))


def dominant_frequencies(times, values, n_peaks=1, pad=8):
    """Dominant angular frequencies of a uniformly sampled real signal.

    Hann-windowed, zero-padded rFFT with quadratic interpolation of the
    log-magnitude around each spectral peak.  Returns a list of
    (omega_rad_s, amplitude) sorted by descending amplitude.  The frequency
    resolution before interpolation is 2*pi/(pad * T_window).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    dt = times[1] - times[0]
    if not np.allclose(np.diff(times), dt, rtol=1e-9, atol=0.0):
        raise DomainError("frequency extraction needs a uniform time grid")
    x = values - values.mean()
    n = x.size
    window = np.hanning(n)
    spec = np.abs(np.fft.rfft(x * window, n=int(pad) * n))
    # local maxima, skipping the DC shoulder of the window
    interior = np.arange(2, spec.size - 1)
    is_peak = (spec[interior] > spec[interior - 1]) & (spec[interior] >= spec[interior + 1])
    candidates = interior[is_peak]
    if candidates.size == 0:
        return [(0.0, 0.0)] * n_peaks
    candidates = candidates[np.argsort(-spec[candidates])]
    picked = []
    min_sep = max(2, int(0.5 * pad))  # suppress sidelobe picks next to a chosen peak
    for k in candidates:
        if all(abs(k - p) > min_sep for p in picked):
            picked.append(int(k))
        if len(picked) == n_peaks:
            break
    out = []
    for k in picked:
        lm, l0, lp = np.log(spec[k - 1:k + 2] + 1e-300)
        denom = lm - 2.0 * l0 + lp
        delta = 0.5 * (lm - lp) / denom if denom != 0.0 else 0.0
        freq = (k + delta) / (pad * n * dt)
        amp = spec[k] / window.sum() * 2.0
        out.append((2.0 * math.pi * freq, float(amp)))
    while len(out) < n_peaks:
        out.append((0.0, 0.0))
    return out


def _beat_frequency(times, signal):
    """Beat half-splitting of a two-line signal: (omega_hi - omega_lo)/2."""
    peaks = dominant_frequencies(times, signal, n_peaks=2)
    w = sorted(p[0] for p in peaks)
    return 0.5 * (w[1] - w[0]), 0.5 * (w[1] + w[0])


def oracle_vs_closed_form(scn, ops=None, oracle_rtol=1e-9):
    """Compare the matrix-propagator oracle against the closed-form solution.

    Pointwise deviations are taken over the components the closed form
    defines.  Frequencies are extracted from both series with the same
    spectral estimator and compared to the analytic value (2|A| frozen,
    |b| tmp beat, omega' resonance).  For the linear resonance drive the
    deviation is only bounded by rotating-wave corrections; the report
    carries that bound (5 A/omega) instead of a tight match.
    """
    if ops is None:
        ops = build_operators(scn.L)
    oracle = evolve_oracle(scn, ops=ops, rtol=oracle_rtol)
    closed = closed_form(scn)
    defined = ~np.isnan(closed.P)
    dev = float(np.max(np.abs(np.where(defined, oracle.P - closed.P, 0.0))))

    # dominant coherences of near-stretched states sit at the (2L-1)-scaled
    # line spacing; at L = 1 this reduces to the closed-form frequency
    stretched = 2 * scn.L - 1
    if scn.mode == "tmp":
        expected = abs(scn.b) * stretched
        f_or, _ = _beat_frequency(oracle.times, oracle.P[:, 1])
        f_cl, _ = _beat_frequency(closed.times, closed.P[:, 1])
        sig_or, sig_cl = oracle.P[:, 1], closed.P[:, 1]
    elif scn.mode == "frozen":
        expected = 2.0 * abs(scn.A) * stretched
        f_or = dominant_frequencies(oracle.times, oracle.P[:, 2])[0][0]
        f_cl = dominant_frequencies(closed.times, closed.P[:, 2])[0][0]
        sig_or, sig_cl = oracle.P[:, 2], closed.P[:, 2]
    else:
        expected = (math.hypot(2.0 * scn.Omega - scn.omega_drive, scn.A)
                    if scn.L == 1 else math.nan)
        f_or = dominant_frequencies(oracle.times, oracle.P[:, 2])[0][0]
        f_cl = dominant_frequencies(closed.times, closed.P[:, 2])[0][0]
        sig_or, sig_cl = oracle.P[:, 2], closed.P[:, 2]

    amp_cl = float(np.max(np.abs(sig_cl)))
    amp_or = float(np.max(np.abs(sig_or)))
    factor = amp_or / amp_cl if amp_cl > 0 else math.nan
    rwa = (5.0 * abs(scn.A) / abs(scn.omega_drive)
           if scn.mode == "resonance" and scn.drive == "linear" and scn.omega_drive
           else None)
    return ComparisonReport(
        mode=scn.mode, L=scn.L, kind=scn.kind, drive=scn.drive,
        max_abs_deviation=dev, freq_expected=expected,
        freq_oracle=f_or, freq_closed=f_cl,
        freq_oracle_rel_err=abs(f_or - expected) / expected if expected else math.nan,
        freq_closed_rel_err=abs(f_cl - expected) / expected if expected else math.nan,
        amplitude_factor=factor, rwa_amplitude_bound=rwa, oracle=oracle)


def _series_columns(series):
    """The ten numeric CSV/JSON columns as (name, array) pairs, in layout order."""
    pt = series.Pt
    return (("t", series.times), ("P_rho", series.P[:, 0]), ("P_phi", series.P[:, 1]),
            ("P_z", series.P[:, 2]), ("P_rr", pt[:, 0, 0]), ("P_pp", pt[:, 1, 1]),
            ("P_zz", pt[:, 2, 2]), ("P_rp", pt[:, 0, 1]), ("P_rz", pt[:, 0, 2]),
            ("P_pz", pt[:, 1, 2]))


def write_series_csv(series, fileobj):
    """Write a PolarizationSeries as CSV with the canonical column layout.

    Every value is printed with 17 significant digits, so it reads back exactly.
    """
    fileobj.write(SERIES_CSV_HEADER + "\n")
    row = ",".join(["{:.17g}"] * 10) + ",{}\n"
    table = np.column_stack([col for _, col in _series_columns(series)])
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        fileobj.write("".join(row.format(*values, series.source)
                              for values in table[start:start + _CSV_BLOCK_ROWS].tolist()))


def series_to_dict(series):
    """Column-oriented dict mirroring the CSV layout (JSON-serializable)."""
    out = {k: [None if math.isnan(x) else x for x in map(float, v)]
           for k, v in _series_columns(series)}
    out["source"] = series.source
    return out
