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
fourth-order commutator-free Magnus propagator refined by substep halving.
"""

import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .am_core import (antiparallel_pair, build_operators, coherent_state,
                      expi_hermitian, polarization_batch)
# kept importable from dynamics: perfbench's tracer self-test patches it here
from .am_core import polarization_tensor  # noqa: F401
from .constants import HBAR
from .errors import ConvergenceError, DomainError
from .ring_config import field_gradients

SERIES_CSV_HEADER = "t,P_rho,P_phi,P_z,P_rr,P_pp,P_zz,P_rp,P_rz,P_pz,source"

_MODES = ("tmp", "frozen", "resonance")
_KINDS = ("vector", "tensor")
_DRIVES = ("corotating", "linear")
_BLOCK_BYTES = 2 * 2**20           # oracle members, or scan kernel arrays, per streamed block
_RHO_SAMPLES = 64                  # samples at which tensor diagnostics rebuild rho
_INTERVAL_BUDGET_BYTES = 2**30     # substep unitaries one _propagate run may compute
_CHUNK_BYTES = 32 * 2**20          # substep unitaries it holds per streamed chunk
# fourth-order commutator-free Magnus step: Gauss-Legendre nodes within a
# substep and the weights of H at those nodes in the two exponentials
_GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_CF4_WEIGHTS = (0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0)
_CSV_BLOCK_ROWS = 4096             # rows formatted per write
_SCAN_ARRAYS = 8                   # arrays of the block's shape _resonance_pz holds at once
# how json writes the floats float.__repr__ spells nan, inf and -inf
_JSON_NONFINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _is_int(value):
    """True for an integer, numpy's included, but not for a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in (int, float) and not math.isfinite(value):
                raise DomainError(f"{f.name} must be finite, got {value}")
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.drive not in _DRIVES:
            raise DomainError(f"drive must be one of {_DRIVES}, got {self.drive!r}")
        if int(self.L) != self.L or self.L < 1:
            raise DomainError(f"L must be an integer >= 1, got {self.L}")
        if not _is_int(self.steps) or self.steps < 2:
            raise DomainError(f"steps must be an integer >= 2, got {self.steps}")
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
    """Initial beam as an ensemble (weights, members) of pure states.

    The vector kind is its coherent state with weight 1; the tensor kind is
    that state and its antipode with weight 1/2 each, the members of
    am_core.tensor_mixture.  members is a (k, dim) stack.
    """
    if scn.kind == "vector":
        return np.ones(1), coherent_state(ops, scn.theta, scn.psi).data[None]
    a, b = antiparallel_pair(ops, scn.theta, scn.psi)
    return np.full(2, 0.5), np.stack([a.data, b.data])


def _density_matrices(weights, members):
    """rho = sum_k w_k |m_k><m_k| for each sample of an (n, k, dim) member stack."""
    return (members.swapaxes(1, 2) * weights) @ members.conj()


def _propagate(scn, ops, members, n_sub):
    """Propagate a (k, dim) member stack; returns the (n, k, dim) members at every sample.

    Each output interval takes n_sub fourth-order commutator-free Magnus
    substeps (Blanes & Moan, Appl. Numer. Math. 56 (2006) 1519): on [s, s + h],
    exp(-i h (a2 H1 + a1 H2)) exp(-i h (a1 H1 + a2 H2)) with H1, H2 sampled at
    the Gauss-Legendre nodes s + c1 h, s + c2 h.  Per chunk of whole intervals
    (about _CHUNK_BYTES of substep unitaries, at least one interval) the
    substeps are multiplied in time order, and the interval products are
    projected onto the unitary group and applied to the members.
    """
    times = scn.times()
    n_out = len(times) - 1
    dim = ops.dim
    need = n_out * n_sub * dim**2 * 16
    if need > _INTERVAL_BUDGET_BYTES:
        raise ConvergenceError(
            f"{n_sub} substeps over {n_out} intervals need {need / 2**30:.3g} GiB of "
            f"unitaries, over the {_INTERVAL_BUDGET_BYTES / 2**30:g} GiB budget")
    dt_sub = (times[1] - times[0]) / n_sub
    sub_starts = np.arange(n_sub) * dt_sub
    per_chunk = max(1, _CHUNK_BYTES // (n_sub * dim**2 * 16))
    a1, a2 = _CF4_WEIGHTS
    out = np.empty((n_out + 1,) + members.shape, dtype=complex)
    out[0] = members
    for start in range(0, n_out, per_chunk):
        # substep-major, so each substep's unitaries over the chunk are contiguous
        s = (sub_starts[:, None] + times[:-1][start:start + per_chunk]).ravel()
        h1, h2 = (build_hamiltonian(scn, ops, s + c * dt_sub) for c in _GAUSS_NODES)
        # the later exponential acts on the left
        u = np.matmul(expi_hermitian(a2 * h1 + a1 * h2, dt_sub),
                      expi_hermitian(a1 * h1 + a2 * h2, dt_sub)).reshape(n_sub, -1, dim, dim)
        interval = u[0]
        for substep in u[1:]:
            interval = substep @ interval
        # project the products back onto the unitary group so rounding drift
        # does not leak into norm and trace preservation over long runs
        w, _, vh = np.linalg.svd(interval)
        for i, step in enumerate(w @ vh, start=start + 1):
            members = members @ step.T
            out[i] = members
    return out


def _ensemble_polarization(weights, members, ops):
    """Weighted P and Pt of an (n, k, dim) member stack, from one polarization_batch."""
    n, k, dim = members.shape
    p, pt = polarization_batch(members.reshape(n * k, dim), ops)
    return weights @ p.reshape(n, k, 3), (weights @ pt.reshape(n, k, 9)).reshape(n, 3, 3)


def _refine(scn, ops, weights, members, rtol, max_halvings, fixed_substeps):
    """Piecewise propagation, substeps doubled until the final state converges.

    Returns the (n, k, dim) members and the refinement record.
    """
    prev = None
    n_sub = 1 if fixed_substeps is None else fixed_substeps
    for level in range(max_halvings + 1):
        data = _propagate(scn, ops, members, n_sub)
        if fixed_substeps is not None:
            return data, dict(n_substeps=n_sub, refinement_delta=None)
        p_final, pt_final = _ensemble_polarization(weights, data[-1:], ops)
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


def _spectral_states(times, members, ops, h, frame, n_block):
    """Exact members U(t) m_k, U(t) = exp(-i frame t Lz) exp(-i h t), on the grid times.

    One eigendecomposition of the time-independent h; the (n, k, dim)
    members are then built n_block samples at a time.  The frame rotation
    is an elementwise phase because Lz is diagonal.
    """
    w, v = np.linalg.eigh(h)
    m = ops.Lz.diagonal().real
    k, dim = members.shape
    c0 = members @ v.conj()
    for start in range(0, len(times), n_block):
        t = times[start:start + n_block, None, None]
        ph = np.exp(-1j * t * w)
        frame_ph = np.exp(-1j * (frame * t) * m)
        yield frame_ph * ((ph * c0).reshape(-1, dim) @ v.T).reshape(-1, k, dim)


def _series_from_states(scn, ops, weights, blocks, diagnostics, keep_states):
    """Extract P/Pt and merge the invariant diagnostics, one block of members at a time.

    rho is rebuilt for the diagnostics at _RHO_SAMPLES evenly spaced samples
    of the whole grid, first and last included, whatever the block split.
    """
    times = scn.times()
    n = len(times)
    p = np.empty((n, 3))
    pt = np.empty((n, 3, 3))
    rebuilt = np.linspace(0, n - 1, min(n, _RHO_SAMPLES)).round().astype(int)
    kept = []
    start = 0
    for block in blocks:
        stop = start + len(block)
        p[start:stop], pt[start:stop] = _ensemble_polarization(weights, block, ops)
        local = rebuilt[(rebuilt >= start) & (rebuilt < stop)] - start
        for key, value in _state_diagnostics(weights, block, local).items():
            merge = min if key == "min_eigenvalue" else max
            diagnostics[key] = merge(diagnostics.get(key, value), value)
        if keep_states:
            kept.append(block)
        start = stop
    series = PolarizationSeries(times=times, P=p, Pt=pt, source="oracle",
                                diagnostics=diagnostics).validate()
    return series, (np.concatenate(kept) if keep_states else None)


def _state_diagnostics(weights, members, rebuilt):
    """Unitarity bookkeeping over an (n, k, dim) block of members.

    Every member's norm, and for a mixture the trace sum_k w_k |m_k|^2, is
    checked at every sample.  With fixed positive weights rho is Hermitian
    and positive by construction, so those two are checked on rho rebuilt
    at the block-local samples rebuilt only.
    """
    norms = np.linalg.norm(members, axis=2)
    diag = {"max_norm_dev": float(np.max(np.abs(norms - 1.0)))}
    if len(weights) > 1:
        diag["max_trace_dev"] = float(np.max(np.abs(norms**2 @ weights - 1.0)))
        if len(rebuilt):
            rho = _density_matrices(weights, members[rebuilt])
            diag["max_herm_dev"] = float(np.max(np.abs(rho - rho.conj().swapaxes(1, 2))))
            diag["min_eigenvalue"] = float(np.min(np.linalg.eigvalsh(rho)))
    return diag


def evolve_oracle(scn, ops=None, rtol=1e-9, max_halvings=20, fixed_substeps=None,
                  return_states=False):
    """Matrix-propagator oracle for a dynamics scenario.

    The beam is an ensemble of pure members with fixed weights (see
    initial_state): one coherent state for the vector kind, a coherent state
    and its antipode at 1/2 each for the tensor kind.  Each member is
    propagated as a state vector and P, Pt are the weighted sums over
    members.  Each Hamiltonian class has one propagator, named by
    diagnostics["propagator"]:

    * "spectral" (tmp, frozen, corotating drive): H is constant in the lab
      frame or in the frame rotating about z at omega_drive/2, so
      U(t) = exp(-i (omega_drive t/2) Lz) exp(-i H_rot t) is evaluated
      exactly from one eigendecomposition; rtol and max_halvings do not
      apply and fixed_substeps is rejected.
    * "piecewise" (linear drive): fourth-order commutator-free Magnus
      propagation, two exponentials per substep; the substep count per output
      interval is doubled until the final-time polarization (vector and
      tensor) changes by less than rtol, up to max_halvings doublings.
      fixed_substeps, an integer >= 1, disables the refinement (used for
      convergence-order studies).  The diagnostics add the refinement record.

    Members are processed in blocks of about 2 MB.  Returns a
    PolarizationSeries, and with return_states=True also the states: an
    (n, dim) array of state vectors for the vector kind, an (n, dim, dim)
    array of density matrices rho(t) for the tensor kind.  The diagnostics
    carry max_norm_dev over every member at every sample; tensor runs add
    max_trace_dev at every sample, and max_herm_dev and min_eigenvalue of
    rho rebuilt at _RHO_SAMPLES evenly spaced samples.
    """
    if not rtol > 0:
        raise DomainError(f"rtol must be positive, got {rtol}")
    if fixed_substeps is not None and (not _is_int(fixed_substeps) or fixed_substeps < 1):
        raise DomainError(f"fixed_substeps must be an integer >= 1, got {fixed_substeps!r}")
    if ops is None:
        ops = build_operators(scn.L)
    h0, terms = hamiltonian_terms(scn, ops)
    weights, members = initial_state(scn, ops)
    n_block = max(1, _BLOCK_BYTES // members.nbytes)
    if not terms or scn.drive == "corotating":
        if fixed_substeps is not None:
            raise DomainError("fixed_substeps applies only to the piecewise "
                              "propagator of the linear drive")
        # the corotating drive is static in the frame rotating at omega_drive/2
        frame = 0.5 * scn.omega_drive if terms else 0.0
        h = build_hamiltonian(scn, ops, 0.0) - frame * ops.Lz if terms else h0
        blocks = _spectral_states(scn.times(), members, ops, h, frame, n_block)
        diag = {"propagator": "spectral"}
    else:
        data, diag = _refine(scn, ops, weights, members, rtol, max_halvings,
                             fixed_substeps)
        diag["propagator"] = "piecewise"
        blocks = (data[i:i + n_block] for i in range(0, len(data), n_block))
    series, states = _series_from_states(scn, ops, weights, blocks, diag, return_states)
    if not return_states:
        return series
    return series, (states[:, 0] if len(weights) == 1 else _density_matrices(weights, states))


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
    times, p, pt = _nan_series(scn)
    p[:, 2] = _resonance_pz(scn, [scn.omega_drive], times)[0]
    return PolarizationSeries(times=times, P=p, Pt=pt, source="closed_form")


def _resonance_pz(scn, omegas, times):
    """Resonance closed-form P_z, one row per drive frequency in the list omegas.

    The per-frequency factors are Python floats, so each row has the bits
    of a one-frequency evaluation.
    """
    factors = []
    for omega in omegas:
        detuning = 2.0 * scn.Omega - omega
        omega_p = math.hypot(detuning, scn.A)
        if omega_p == 0.0:
            raise DomainError("resonance closed form undefined for A = 0 at zero detuning")
        factors.append((omega_p, scn.A / omega_p, detuning / omega_p,
                        2.0 * (scn.A / omega_p)**2))
    omega_p, amp, tilt, depth = np.array(factors).T[:, :, None]
    half = 0.5 * omega_p * times
    s_half, c_half = np.sin(half), np.cos(half)
    alpha = 2.0 * scn.psi - scn.phi
    s2 = np.sin(scn.theta) ** 2
    pz = amp * s2 * s_half * (tilt * s_half * np.cos(alpha) + c_half * np.sin(alpha))
    if scn.kind == "vector":
        pz = pz + (1.0 - depth * s_half**2) * np.cos(scn.theta)
    return pz


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

    def oracle_peak(omega):
        scn = replace(base, omega_drive=float(omega))
        series = evolve_oracle(scn, rtol=oracle_rtol)
        return float(np.max(np.abs(series.P[:, 2])))

    # the closed form is evaluated over (frequencies, times) blocks; the
    # kernel's arrays of the block's shape together hold about _BLOCK_BYTES
    times = base.times()
    rows = max(1, _BLOCK_BYTES // (_SCAN_ARRAYS * times.nbytes))
    peaks = np.empty(len(omegas))
    for start in range(0, len(omegas), rows):
        pz = _resonance_pz(base, omegas[start:start + rows].tolist(), times)
        peaks[start:start + rows] = np.nanmax(np.abs(pz), axis=1)
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
    if times.size < 2:
        raise DomainError(f"frequency extraction needs at least 2 samples, got {times.size}")
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


def _all_nan(col):
    return len(col) > 0 and bool(np.isnan(col).all())


def write_series_csv(series, fileobj):
    """Write a PolarizationSeries as CSV with the canonical column layout.

    Every value is printed with 17 significant digits, so it reads back
    exactly; a column that is NaN in every row is written as the literal nan
    without formatting its values.
    """
    fileobj.write(SERIES_CSV_HEADER + "\n")
    columns = [col for _, col in _series_columns(series)]
    undefined = [_all_nan(col) for col in columns]
    row = ",".join("nan" if u else "%.17g" for u in undefined)
    row += "," + series.source.replace("%", "%%") + "\n"
    table = np.column_stack([col for col, u in zip(columns, undefined) if not u])
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        block = table[start:start + _CSV_BLOCK_ROWS]
        fileobj.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_series_json(series, fileobj):
    """Write a PolarizationSeries as one JSON object of columns plus "source".

    The bytes are those of json.dumps(doc, indent=2) + "\n" for the dict of
    the CSV columns as lists: one value per line, null for NaN, float repr
    for finite values, Infinity and -Infinity for infinities.
    """
    fileobj.write("{\n")
    for name, col in _series_columns(series):
        if _all_nan(col):
            text = ["null"] * len(col)
        else:
            text = map(float.__repr__, col.tolist())
            if not np.isfinite(col).all():
                text = (_JSON_NONFINITE.get(v, v) for v in text)
        values = "[\n    " + ",\n    ".join(text) + "\n  ]" if len(col) else "[]"
        fileobj.write(f"  {json.dumps(name)}: {values},\n")
    fileobj.write(f"  \"source\": {json.dumps(series.source)}\n}}\n")
