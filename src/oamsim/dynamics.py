"""Intrinsic-OAM polarization dynamics in storage-ring fields.

Three scenario modes isolate one bilinear interaction each:

* ``tmp``       H = Omega Lz + b Lz^2           (b = -beta_T B^2)
* ``frozen``    H = 2 A Lr^2                    (Lr along a fixed co-moving axis)
* ``resonance`` H = Omega Lz + quadrupole drive at omega_drive

The resonance drive comes in two models: ``linear``, the physical oscillation
2 A cos(omega t + phi) Lr^2, and ``corotating``, the rotating quadrupole

    (A/2) [ (Lx^2 - Ly^2) cos(omega t + phi) + {Lx, Ly} sin(omega t + phi) ],

which is static in the frame rotating at omega/2 and needs no rotating-wave
truncation.  The tmp closed form is exact at every L.  The frozen and
resonance closed forms are the L = 1 formulas evaluated at every L.  They
are exact only at L = 1, the resonance form only for the corotating drive;
at L > 1 they are off by more than a constant factor (ROADMAP.md items 6
and 9).  Every mode is one instance of

    H(t) = sum_k a_k f_k(omega t + phi) H_k,

each H_k a row of am_core.OBSERVABLES (``hamiltonian_terms``); ``tmp`` and
``frozen`` have only static terms, f_k = 1.  The verification oracle builds
each term on the two parity blocks of exp(i pi Lz), never on the whole
space, and propagates exactly from one eigendecomposition per block, the
corotating drive in the frame rotating at omega/2 where it is static; only
the linear drive uses a time-ordered fourth-order commutator-free Magnus
propagator refined by substep halving, in real arithmetic.
"""

import json
import math
import numbers
import sys
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Optional

import numpy as np

from . import floattext
from .am_core import (OBSERVABLES, PARITY_BLOCKS, TENSOR_PAIRS, _ensemble_polarization,
                      build_operators, coherent_state, tensor_mixture)
# kept importable from dynamics: perfbench's tracer self-test patches it here
from .am_core import polarization_tensor  # noqa: F401
from .constants import HBAR
from .errors import (ConvergenceError, DomainError, require_budget, require_finite,
                     require_int)
from .ring_config import field_gradients

# the numeric series columns, in CSV and JSON order; the tensor follows TENSOR_PAIRS
_COLUMNS = ("t", "P_rho", "P_phi", "P_z") + tuple(
    "P_" + "rpz"[i] + "rpz"[j] for i, j in TENSOR_PAIRS)
SERIES_CSV_HEADER = ",".join(_COLUMNS + ("source",))

_JSON_SEPARATOR = ",\n    "         # between the values of a JSON series column
# the coefficient fields each mode reads; every other one must keep its
# default, which the mode would drop unread
_READS = {"tmp": ("Omega", "b"), "frozen": ("A",),
          "resonance": ("Omega", "A", "omega_drive", "phi", "drive")}
# every coefficient field, the drive's first, in the order messages list them
_COEFFICIENTS = ("omega_drive", "phi", "drive", "Omega", "b", "A")
_CHOICES = {"mode": tuple(_READS), "kind": ("vector", "tensor"),
            "drive": ("corotating", "linear")}
_ORACLE_RTOL = 1e-9                # the piecewise oracle's default refinement tolerance
_BLOCK_BYTES = 2 * 2**20           # oracle members per streamed block; a scan block's kernel arrays
_CHUNK_BYTES = 2 * 2**20           # substep unitaries it holds per streamed chunk
# fourth-order commutator-free Magnus step: Gauss-Legendre nodes within a
# substep and the weights of H at those nodes in the two exponentials
_GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_CF4_WEIGHTS = (0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0)
# float64 arrays of a kernel call's sample count that resonance_scan,
# _peak_samples and _resonance_pz hold at once (about 10 per sample, measured)
_SCAN_ARRAYS = 10
# float64 arrays of the sample count that closed_form holds at once, the
# grid and P included (tmp 11, resonance 10, frozen 6 to 7, measured)
_CLOSED_FORM_ARRAYS = 12
# the scan's peak search needs its margin above this share of |K0| + R + 1 +
# R omega' t_end (4096 ulp); rounding in P_z and in the sample phases is
# estimated at about 20 ulp of that scale
_SCAN_ROUNDING = 2.0**-40


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
            # an integer is finite, and math.isfinite overflows past the float range
            if (f.type in (int, float) and not isinstance(value, numbers.Integral)
                    and not math.isfinite(value)):
                raise DomainError(f"{f.name} must be finite, got {value}")
            if f.name in _CHOICES and value not in _CHOICES[f.name]:
                raise DomainError(f"{f.name} must be one of {_CHOICES[f.name]}, got {value!r}")
        require_int("L", self.L, 1)
        require_int("steps", self.steps, 2)
        if not self.t_end > 0:
            raise DomainError(f"t_end must be positive, got {self.t_end}")
        # linspace's samples (at most 2**27 within the budget of times())
        # increase strictly when the spacing t_end / (steps - 1) is a normal
        # float; Python compares an int steps and a float quotient exactly
        if self.steps - 1 > self.t_end / sys.float_info.min:
            raise DomainError(f"the time grid's spacing {self.t_end} s / {self.steps - 1} is "
                              f"below the smallest normal float {sys.float_info.min}: its "
                              "sample times would not be strictly increasing")
        defaults = {f.name: f.default for f in fields(self)}
        unread = [name for name in _COEFFICIENTS if name not in _READS[self.mode]]
        if any(getattr(self, name) != defaults[name] for name in unread):
            raise DomainError(f"{self.mode} mode requires "
                              + ", ".join(f"{name} = {defaults[name]!r}" for name in unread))
        # every phase the closed forms and the oracle evaluate lies within the
        # Hamiltonian's scale times t_end plus k psi (k <= 2L), 2 theta and phi
        try:
            scale = ((2.0 * abs(self.Omega) + abs(self.omega_drive)) * self.L
                     + (abs(self.b) + 2.0 * abs(self.A)) * self.L * (self.L + 1))
            phase = (scale * self.t_end + 2.0 * (self.L * abs(self.psi) + abs(self.theta))
                     + abs(self.phi))
        except OverflowError:    # an L beyond the float range
            phase = math.inf
        if not math.isfinite(phase):
            raise DomainError("the scenario's phases overflow: |Hamiltonian| * t_end "
                              "plus the angles' multiples is not a finite float")

    def times(self, arrays=1):
        """The steps sample times from 0 to t_end; a grid over the budget is refused first.

        arrays counts the float64 arrays of the grid's length that the caller
        holds at once, the grid included; they are refused next, before any
        is allocated.
        """
        require_budget(f"the {self.steps} sample times", self.steps * 8)
        require_budget(f"{arrays} arrays of the {self.steps} samples", arrays * self.steps * 8)
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

    def validate(self):
        """Check series invariants on all components the source defines, at 1e-10.

        The oracle defines every cell and diagnostic, so there a NaN is an error.
        """
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("series times must be strictly increasing")
        if self.source == "oracle":
            numbers = [v for v in (self.diagnostics or {}).values() if isinstance(v, float)]
            if np.isnan(self.P).any() or np.isnan(self.Pt).any() or np.isnan(numbers).any():
                raise DomainError("oracle series has a NaN cell or diagnostic")
        full_vec = ~np.any(np.isnan(self.P), axis=1)
        if np.any(full_vec):
            norms = np.linalg.norm(self.P[full_vec], axis=1)
            if np.max(norms) > 1.0 + 1e-10:
                raise DomainError("|P| exceeds 1 by more than 1e-10")
        diag = self.Pt[:, (0, 1, 2), (0, 1, 2)]
        full_tensor = ~np.isnan(self.Pt).any(axis=(1, 2))
        if np.any(full_tensor):
            traces = diag[full_tensor].sum(axis=1)
            if np.max(np.abs(traces - 1.0)) > 1e-10:
                raise DomainError("tensor trace deviates from 1 beyond 1e-10")
        return self


class SplittingTable(NamedTuple):
    """Quadrupole level shifts [rad/s], labeled by the Lr projection."""

    levels: tuple                # ((label, shift_rad_s), ...)
    coefficient: float           # shift per m_r^2 [rad/s]

    @property
    def shifts(self):
        return np.array([s for _, s in self.levels])


class ComparisonReport(NamedTuple):
    """Oracle vs closed form: the largest pointwise deviation and the linear drive's RWA bound."""

    mode: str
    L: int
    kind: str
    drive: str
    max_abs_deviation: float
    rwa_amplitude_bound: Optional[float]
    oracle: PolarizationSeries   # the series compared; its diagnostics carry the refinement


class ScanResult(NamedTuple):
    """Resonance scan: peak |P_z| per drive frequency."""

    omegas: np.ndarray
    peaks: np.ndarray
    argmax_index: int
    oracle_peaks: Optional[np.ndarray] = None


def quadrupole_coupling(Qs, L, gradient):
    """Quadrupole coupling A = -Qs G / (8 L^2 hbar) [rad/s], the A of the 2 A Lr^2 term.

    gradient is the quasielectric field gradient G in V/m^2: dEr/dR for a
    level splitting, the amplitude of the oscillating gradient for a
    resonance drive.  A denominator past the float range (from about
    L = 4.7e153, where Qs can still be finite) is a DomainError.
    """
    require_int("L", L, 1)
    denominator = require_finite(f"the quadrupole coupling's 8 L^2 hbar at L = {L}",
                                 lambda: 8.0 * L**2 * HBAR)
    return -Qs * gradient / denominator


def quadrupole_coefficient_frozen(Qs, L, setup):
    """Frozen-mode coefficient A = +Qs (dEr/dR) / (8 L^2 hbar) [rad/s]; zero index gives zero.

    This is minus quadrupole_coupling at the setup's quasielectric gradient:
    the frozen mode keeps the opposite sign to level_splitting and the
    resonance drive until the sign is settled (ROADMAP.md, "One quadrupole
    coupling"); dropping the negation changes the frozen series.
    """
    return -quadrupole_coupling(Qs, L, field_gradients(setup)[1])


def hamiltonian_terms(scn):
    """Decompose the scenario Hamiltonian (units of rad/s) into its terms.

    Returns ((a_k, f_k, t_k), ...) with H(t) = sum_k a_k f_k(phase) H_k, phase =
    omega_drive t + phi, and f_k None for a static term.  Each t_k is a row of
    am_core.OBSERVABLES or a real combination of rows, H_k = ops.observable(t_k):
    2 Lx^2 is {Lx, Lx}, and the two corotating terms sum to
    (A/4) (L+^2 exp(-i phase) + h.c.).
    """
    lz, xx, yy, zz, xy = OBSERVABLES[2:7]
    if scn.mode == "tmp":
        return (scn.Omega, None, lz), (0.5 * scn.b, None, zz)
    if scn.mode == "frozen":
        return ((scn.A, None, xx),)
    if scn.drive == "linear":
        return (scn.Omega, None, lz), (scn.A, np.cos, xx)
    return (scn.Omega, None, lz), (0.25 * scn.A, np.cos, xx - yy), (0.5 * scn.A, np.sin, xy)


def build_hamiltonian(scn, t):
    """Effective Hamiltonian at time t; an array of n times gives an (n, dim, dim) stack."""
    ops = build_operators(scn.L)
    return _evaluate(scn, [(a, f, ops.observable(row)) for a, f, row in hamiltonian_terms(scn)], t)


def _evaluate(scn, terms, t):
    """H(t), the terms (a_k, f_k, H_k) summed in order, each H_k a matrix."""
    phase = scn.omega_drive * t + scn.phi
    first, *rest = (np.asarray(a if f is None else a * f(phase))[..., None, None] * hk
                    for a, f, hk in terms)
    return sum(rest, first)


def initial_state(scn, ops):
    """Initial beam (weights, members), members a (k, dim) stack of pure states.

    The vector kind is its coherent state with weight 1; the tensor kind is
    am_core.tensor_mixture, that state and its antipode with weight 1/2 each.
    """
    if scn.kind == "vector":
        return np.ones(1), coherent_state(ops, scn.theta, scn.psi)[None]
    return tensor_mixture(ops, scn.theta, scn.psi)


def _mul(a, b):
    """a @ b for stacks of complex matrices held as (real, imaginary) pairs on
    the first axis: four real matmuls, ar br, ai br, ar bi and ai bi, in two calls."""
    out = a @ b[0]
    cross = a @ b[1]
    out[0] -= cross[1]
    out[1] += cross[0]
    return out


def _expi_pair(h, scale):
    """exp(-i scale h) for a stack of real symmetric h = V diag(w) V^T, from one
    real eigh, as the pair (V cos(scale w) V^T, -V sin(scale w) V^T)."""
    w, v = np.linalg.eigh(h)
    phase = scale * w[..., None, :]
    return (v * np.stack([np.cos(phase), np.sin(-phase)])) @ v.swapaxes(-1, -2)


def _ordered_product(u):
    """u_{n-1} ... u_1 u_0 over axis 1 of a (real, imaginary) pair stack,
    multiplying adjacent pairs in ceil(log2(n)) rounds."""
    while u.shape[1] > 1:
        even = u.shape[1] // 2 * 2
        pairs = _mul(u[:, 1:even:2], u[:, :even:2])
        u = pairs if even == u.shape[1] else np.concatenate([pairs, u[:, even:]], axis=1)
    return u[:, 0]


def _polar_step(x):
    """One Newton-Schulz step X (3 I - X^H X)/2 towards the unitary polar factor
    of a (real, imaginary) pair stack; it squares X's distance from unitarity."""
    xh = x.swapaxes(-1, -2).copy()
    xh[1] *= -1.0
    c = _mul(xh, x)
    c *= -0.5
    d = c.shape[-1]
    c[0, ..., range(d), range(d)] += 1.5
    return _mul(x, c)


def _prefix_products(u):
    """P_i = u_i ... u_1 u_0 for every i along axis 1 of a (real, imaginary)
    pair stack: the products of adjacent pairs, their prefix products (the odd
    i), then one product more for each even i; about 2n products in 2 log2(n)
    rounds."""
    n = u.shape[1]
    if n == 1:
        return u
    p = u.copy()
    p[:, 1::2] = _prefix_products(_mul(u[:, 1::2], u[:, :n - 1:2]))
    p[:, 2::2] = _mul(u[:, 2::2], p[:, 1:n - 1:2])
    return p


def _propagate(scn, blocks, members, n_sub):
    """Propagate a (k, dim) member stack; returns the (n, k, dim) members at every sample.

    Each output interval takes n_sub fourth-order commutator-free Magnus
    substeps (Blanes & Moan, Appl. Numer. Math. 56 (2006) 1519): on [s, s + h],
    exp(-i h (a2 H1 + a1 H2)) exp(-i h (a1 H1 + a2 H2)) with H1, H2 sampled at
    the Gauss-Legendre nodes s + c1 h, s + c2 h.

    blocks holds the terms (a_k, f_k, H_k) of H(t) on each parity block of
    am_core.PARITY_BLOCKS, in that order, as evolve_oracle builds them.  They
    must be real, as the linear drive's are (else DomainError).  So H(t) is
    real symmetric tridiagonal on each block, and each block's member
    components are propagated on their own, one chunk of whole intervals at
    a time (about _CHUNK_BYTES of the block's substep unitaries, at least
    one interval).
    Every exponential comes from a real eigh, and every unitary is held as
    its (real, imaginary) pair, so that a product is four real matmuls.  The
    substeps are multiplied in time order, one Newton-Schulz step takes each
    interval product back to the unitary group (so rounding drift does not
    leak into norm and trace preservation over long runs), and prefix
    products give the propagator from the chunk's start to every sample,
    which one matmul applies to the members.  A diagonal block (the 1x1 odd
    block at L = 1) needs no eigh: its exponentials commute, so that
    propagator is the phase of the summed exponents.  A level's substep
    unitaries, n_out n_sub sum_b d_b^2 complex entries over blocks of size
    d_b, must fit the 1 GiB budget (else ConvergenceError, before any work).
    """
    times = scn.times()
    n_out = len(times) - 1
    k, dim = members.shape
    sizes = [len(block[0][2]) for block in blocks]
    require_budget(f"{n_sub} substeps over {n_out} intervals",
                   n_out * n_sub * sum(d * d for d in sizes) * 16, of="unitaries")
    if any(hk.imag.any() for block in blocks for _, _, hk in block):
        raise DomainError("the piecewise propagator needs real Hamiltonian terms")
    dt_sub = (times[1] - times[0]) / n_sub
    sub_starts = np.arange(n_sub) * dt_sub
    nodes = dt_sub * np.array(_GAUSS_NODES)[:, None]
    a1, a2 = _CF4_WEIGHTS
    # each exponential's weights on H at the two nodes, the later one first
    node_weights = np.array([[a2, a1], [a1, a2]])
    out = np.empty((n_out + 1, k, dim), dtype=complex)
    out[0] = members
    for rows, block, d in zip(PARITY_BLOCKS, blocks, sizes):
        block = [(a, f, hk.real) for a, f, hk in block]
        diagonal = not any(np.diagonal(hk, 1).any() for _, _, hk in block)
        per_chunk = max(1, _CHUNK_BYTES // (n_sub * d * d * 16))
        state = members[:, rows].T
        for start in range(0, n_out, per_chunk):
            # substep-major, so each substep's unitaries over the chunk are contiguous
            s = (sub_starts[:, None] + times[:-1][start:start + per_chunk]).ravel()
            h = _evaluate(scn, block, s + nodes)
            x = (node_weights @ h.reshape(2, -1)).reshape(h.shape)
            if diagonal:
                # commuting exponentials: the propagator from the chunk's start
                # is the phase of the summed exponents
                phase = dt_sub * np.diagonal(x, 0, 2, 3).sum(0).reshape(n_sub, -1, d).sum(0)
                moved = np.exp(-1j * phase.cumsum(0))[..., None] * state
            else:
                later, earlier = _expi_pair(x, dt_sub).swapaxes(0, 1)
                # the later exponential acts on the left
                substeps = _mul(later, earlier).reshape(2, n_sub, -1, d, d)
                p = _prefix_products(_polar_step(_ordered_product(substeps)))
                moved = ((p[0] + 1j * p[1]).reshape(-1, d) @ state).reshape(-1, d, k)
            out[start + 1:start + 1 + len(moved), :, rows] = moved.swapaxes(1, 2)
            state = moved[-1]
    return out


def _refine(scn, ops, blocks, weights, members, rtol, max_halvings, fixed_substeps):
    """Piecewise propagation, substeps doubled until the final state converges.

    Returns the (n, k, dim) members and the refinement record.
    """
    prev = None
    n_sub = 1 if fixed_substeps is None else fixed_substeps
    for level in range(max_halvings + 1):
        data = _propagate(scn, blocks, members, n_sub)
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

    h is the pair of block Hamiltonians on am_core.PARITY_BLOCKS, in that
    order: every static and corotating Hamiltonian here couples m only to m
    and m +- 2, so it commutes with exp(i pi Lz) and is block diagonal in
    them.  Each block, about dim/2, gets one eigendecomposition; eigh
    returns a diagonal block's (tmp) eigenpairs exactly, as its sorted
    diagonal and a permutation.  The (n, k, dim) members are then built
    n_block samples at a time, with one projection matmul per parity block.
    The frame rotation is an elementwise phase because Lz is diagonal, and
    is skipped for frame = 0.
    """
    k, dim = members.shape
    parts = []
    for rows, block in zip(PARITY_BLOCKS, h):
        w, v = np.linalg.eigh(block)
        parts.append((rows, w, v, members[:, rows] @ v.conj()))
    for start in range(0, len(times), n_block):
        t = times[start:start + n_block, None, None]
        out = np.empty((len(t), k, dim), dtype=complex)
        for rows, w, v, c0 in parts:
            # exp(-i t w) from cos and sin of the real phase, which takes
            # less time than np.exp of a complex array
            phase = t * w
            rotation = np.empty(phase.shape, dtype=complex)
            np.cos(phase, out=rotation.real)
            np.sin(-phase, out=rotation.imag)
            evolved = rotation * c0
            out[:, :, rows] = (evolved.reshape(-1, len(w)) @ v.T).reshape(evolved.shape)
        if frame:
            out *= np.exp(-1j * (frame * t) * ops.m)
        yield out


def _series_from_states(scn, ops, weights, blocks, diagnostics, states):
    """Extract P/Pt and merge the invariant diagnostics, one block of members at a time.

    Unless states is None, each block is also written into states, an
    (n, k, dim) array; numpy skips the copy of a block that is already that
    slice of it.
    """
    times = scn.times()
    n = len(times)
    p = np.empty((n, 3))
    pt = np.empty((n, 3, 3))
    start = 0
    for block in blocks:
        stop = start + len(block)
        p[start:stop], pt[start:stop] = _ensemble_polarization(weights, block, ops)
        for key, value in _state_diagnostics(weights, block).items():
            # numpy's minimum and maximum keep a NaN, where Python's may drop
            # it; on a tie they return their second argument, as Python's
            # return their first
            merge = np.minimum if key == "min_eigenvalue" else np.maximum
            diagnostics[key] = float(merge(value, diagnostics.get(key, value)))
        if states is not None:
            states[start:stop] = block
        start = stop
    return PolarizationSeries(times=times, P=p, Pt=pt, source="oracle",
                              diagnostics=diagnostics).validate()


def _state_diagnostics(weights, members):
    """Unitarity bookkeeping over an (n, k, dim) block of members, at every sample.

    Every member's norm, and for a mixture the trace sum_k w_k |m_k|^2, is
    checked.  A mixture's rho = M W M^H has rank 2 < dim, so its spectrum is
    dim - 2 zeros and the two eigenvalues of W G, G = M^H M the Gram matrix
    of the two members; G is Hermitian by construction, and so is rho.
    """
    norms = np.linalg.norm(members, axis=2)
    diag = {"max_norm_dev": float(np.max(np.abs(norms - 1.0)))}
    if len(weights) > 1:
        g = norms**2
        diag["max_trace_dev"] = float(np.max(np.abs(g @ weights - 1.0)))
        overlap = np.einsum("nd,nd->n", members[:, 0].conj(), members[:, 1])
        (w1, w2), (g11, g22) = weights, g.T
        # closed-form eigenvalues of the 2x2 W G; the discriminant is >= 0
        # exactly and is clipped only against rounding
        disc = np.maximum((w1 * g11 - w2 * g22)**2 + 4.0 * w1 * w2 * np.abs(overlap)**2, 0.0)
        low = 0.5 * (w1 * g11 + w2 * g22 - np.sqrt(disc))
        diag["max_herm_dev"] = 0.0
        diag["min_eigenvalue"] = float(np.minimum(np.min(low), 0.0))
    return diag


def evolve_oracle(scn, rtol=_ORACLE_RTOL, max_halvings=20, fixed_substeps=None,
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
      exactly from one eigendecomposition per parity block (see
      _spectral_states); rtol and max_halvings do not apply and
      fixed_substeps is rejected.
    * "piecewise" (linear drive): fourth-order commutator-free Magnus
      propagation, two exponentials per substep; the substep count per output
      interval is doubled until the final-time polarization (vector and
      tensor) changes by less than rtol, up to max_halvings (an integer
      >= 0) doublings.
      fixed_substeps, an integer >= 1, disables the refinement (used for
      convergence-order studies).  The diagnostics add the refinement record.

    The terms' parity blocks, len(hamiltonian_terms(scn)) ((L+1)^2 + L^2) 16
    bytes, must fit the 1 GiB budget (else ConvergenceError, before any
    work).  Members are processed in blocks of about 2 MB.  Returns a
    PolarizationSeries, and with return_states=True the pair (series,
    members): the (n, k, dim) lab-frame members at every sample, with
    initial_state's weights, n k dim 16 bytes.  The diagnostics carry
    max_norm_dev over every member at every sample; tensor runs add
    max_trace_dev, max_herm_dev and min_eigenvalue of rho at every sample
    (see _state_diagnostics).
    """
    if not rtol > 0:
        raise DomainError(f"rtol must be positive, got {rtol}")
    require_int("max_halvings", max_halvings, 0)
    if fixed_substeps is not None:
        require_int("fixed_substeps", fixed_substeps, 1)
    terms = hamiltonian_terms(scn)
    require_budget(f"the parity blocks of the {len(terms)}-term Hamiltonian at L = {scn.L}",
                   len(terms) * ((scn.L + 1)**2 + scn.L**2) * 16)
    ops = build_operators(scn.L)
    # each term on each parity block, (a_k, f_k, H_k) with H_k a (d_b, d_b) block
    blocks = [[(a, f, ops.observable(row, rows)) for a, f, row in terms]
              for rows in PARITY_BLOCKS]
    weights, members = initial_state(scn, ops)
    n_block = max(1, _BLOCK_BYTES // members.nbytes)
    if scn.drive == "corotating":
        if fixed_substeps is not None:
            raise DomainError("fixed_substeps applies only to the piecewise "
                              "propagator of the linear drive")
        # the corotating drive is static in the frame rotating at omega_drive/2;
        # tmp and frozen have omega_drive = 0 and no frame
        frame = 0.5 * scn.omega_drive
        h = [_evaluate(scn, block, 0.0) - frame * np.diag(ops.m[rows])
             for rows, block in zip(PARITY_BLOCKS, blocks)]
        parts = _spectral_states(scn.times(), members, ops, h, frame, n_block)
        states = np.empty((scn.steps, *members.shape), dtype=complex) if return_states else None
        diag = {"propagator": "spectral"}
    else:
        states, diag = _refine(scn, ops, blocks, weights, members, rtol, max_halvings,
                               fixed_substeps)
        diag["propagator"] = "piecewise"
        parts = (states[i:i + n_block] for i in range(0, len(states), n_block))
    series = _series_from_states(scn, ops, weights, parts, diag, states)
    return (series, states) if return_states else series


def closed_form(scn):
    """The closed form of the scenario's mode; NaN marks the components it does not define.

    tmp: TMP beating of an initially tensor-polarized beam, exact at every L
    (one-axis twisting about z, the mean over the member and its antipode),

        env   = sin(theta) Im[(cos(b t) + i cos(theta) sin(b t))^(2L - 1)],
        P_rho = -env sin(Omega t + psi),  P_phi = env cos(Omega t + psi),  P_z = 0;

    at L = 1, env = 1/2 sin(2 theta) sin(b t).

    frozen: P_z under the frozen-OAM quadrupole interaction,

        vector:  P_z = cos(2At) cos(theta) + 1/2 sin^2(theta) sin(2At) sin(2 psi)
        tensor:  P_z = 1/2 sin^2(theta) sin(2At) sin(2 psi)

    resonance: P_z near the omega = 2 Omega quadrupole resonance; with
    omega' = sqrt((2 Omega - omega)^2 + A^2),

        tensor:  P_z = (A/omega') sin^2(theta) sin(w't/2) [ ((2Omega-omega)/omega')
                        sin(w't/2) cos(2 psi - phi) + cos(w't/2) sin(2 psi - phi) ]
        vector:  adds (1 - 2 A^2/omega'^2 sin^2(w't/2)) cos(theta).

    The frozen and resonance forms are the L = 1 formulas evaluated at every
    L, exact only at L = 1 (ROADMAP.md item 6).  The resonance form is exact
    there only for the corotating drive model; the linear drive obeys it
    within rotating-wave corrections of order A/omega.  At L > 1 the
    resonance line is (2L - 1) times wider and peaks higher than the formula
    says (ROADMAP.md item 9).
    No closed form defines the tensor: Pt is a read-only NaN view.
    """
    if scn.mode == "tmp" and scn.kind != "tensor":
        raise DomainError("the TMP closed form describes a tensor-polarized beam")
    times = scn.times(_CLOSED_FORM_ARRAYS)
    p = np.full((len(times), 3), np.nan)
    if scn.mode == "tmp":
        bt = scn.b * times
        twist = np.cos(bt) + 1j * (np.cos(scn.theta) * np.sin(bt))
        env = np.sin(scn.theta) * (twist ** (2 * scn.L - 1)).imag
        arg = scn.Omega * times + scn.psi
        p[:, 0] = -env * np.sin(arg)
        p[:, 1] = env * np.cos(arg)
        p[:, 2] = 0.0
    elif scn.mode == "frozen":
        osc = 0.5 * np.sin(scn.theta) ** 2 * np.sin(2.0 * scn.A * times) * np.sin(2.0 * scn.psi)
        p[:, 2] = (osc if scn.kind == "tensor"
                   else np.cos(2.0 * scn.A * times) * np.cos(scn.theta) + osc)
    else:
        p[:, 2] = _resonance_pz(scn, _resonance_factors(scn, [scn.omega_drive]), 0, times)
    return PolarizationSeries(times=times, P=p, Pt=np.broadcast_to(np.nan, (len(times), 3, 3)),
                              source="closed_form")


def _resonance_factors(scn, omegas):
    """(omega', A/omega', detuning/omega', depth) of each drive frequency in omegas.

    depth, 2 (A/omega')^2, is None for the tensor kind, which has no depth
    term.  The factors have the bits of Python float arithmetic: omega' comes
    from math.hypot and the square in depth from Python's **, because np.hypot
    and numpy's square differ from them in the last bit for about one
    frequency in a thousand; the subtraction and divisions are IEEE
    operations either way.
    """
    detuning = 2.0 * scn.Omega - np.asarray(omegas, dtype=float)
    omega_p = np.array([math.hypot(d, scn.A) for d in detuning.tolist()])
    if np.any(omega_p == 0.0):
        raise DomainError("resonance closed form undefined for A = 0 at zero detuning")
    amp = scn.A / omega_p
    depth = 2.0 * np.array([x**2 for x in amp.tolist()]) if scn.kind == "vector" else None
    return omega_p, amp, detuning / omega_p, depth


def _resonance_pz(scn, factors, row, times):
    """Resonance closed-form P_z at times, each at frequency row (one, or one per time) of factors.

    Every operation is elementwise, so each value has the bits of a
    one-frequency evaluation at that time.
    """
    omega_p, amp, tilt, depth = factors
    half = 0.5 * omega_p[row] * times
    s_half, c_half = np.sin(half), np.cos(half)
    alpha = 2.0 * scn.psi - scn.phi
    s2 = np.sin(scn.theta) ** 2
    pz = amp[row] * s2 * s_half * (tilt[row] * s_half * np.cos(alpha) + c_half * np.sin(alpha))
    if scn.kind == "vector":
        pz = pz + (1.0 - depth[row] * s_half**2) * np.cos(scn.theta)
    return pz


def _peak_search(scn, factors, n):
    """How each drive frequency's peak |P_z| is found on the scenario's n-point grid.

    factors is _resonance_factors' tuple for the frequencies.  With
    sin^2 x = (1 - cos 2x)/2 and sin x cos x = sin 2x / 2 the closed form is
    P_z = K0 + R cos(omega' t - delta), with extrema at omega' t = delta +
    pi k, and it is monotone between them.  With h = omega' dt, samples j and
    j + 1 for j = floor((delta + pi k)/h) bracket an extremum: the nearer lies
    within h/2 of it, every other sample on its flanks at least h from it.
    Where a flank rises to an end of the run rather than to an extremum, the
    end sample lies above the next by at least R (1 - cos h).  So in exact
    arithmetic every sample other than these two per extremum in
    [0, omega' t_end] and the first and last lies below one of them in |P_z|
    by at least R min(cos(h/2) - cos h, 2 sin^2(h/2)), which is
    R (cos(h/2) - cos h).

    Returns (width, first, delta, h), one entry per frequency: width is the
    number of samples the search gathers, two per extremum and the two ends,
    and first is the k of the first extremum in the run.  width is n for a
    frequency evaluated over the whole grid instead: one with h >= pi/2, a
    margin within _SCAN_ROUNDING of its scale, or at least n samples to
    gather.
    """
    omega_p, amp, tilt, depth = factors
    # an overflow leaves NaN or inf here, and such a row fails the test
    with np.errstate(all="ignore"):
        s2 = math.sin(scn.theta) ** 2
        alpha = 2.0 * scn.psi - scn.phi
        k0 = 0.5 * amp * s2 * tilt * math.cos(alpha)
        k1, k2 = -k0, 0.5 * amp * s2 * math.sin(alpha)
        if scn.kind == "vector":
            k0 = k0 + (1.0 - 0.5 * depth) * math.cos(scn.theta)
            k1 = k1 + 0.5 * depth * math.cos(scn.theta)
        r = np.hypot(k1, k2)
        h = omega_p * (scn.t_end / (n - 1))
        span = omega_p * scn.t_end
        # R (cos(h/2) - cos h) = 2 R sin(0.75 h) sin(0.25 h), without cancellation
        gap = 2.0 * r * np.sin(0.75 * h) * np.sin(0.25 * h)
        trusted = (h < 0.5 * math.pi) & (gap > _SCAN_ROUNDING * (np.abs(k0) + r + 1.0 + r * span))
        delta = np.arctan2(k2, k1)
        first = np.ceil(-delta / math.pi)
        width = 2.0 * (np.floor((span - delta) / math.pi) - first) + 4.0
    width = np.where(trusted & (width < n), width, n).astype(np.intp)
    return width, first, delta, h


def _peak_samples(n, rows, width, first, delta, h):
    """(row, index) of the width samples of each frequency in rows, contiguous and in order.

    A searched frequency takes its first and last sample, then j and j + 1 at
    each extremum (_peak_search); a whole-grid frequency takes every sample.
    """
    row = np.repeat(rows, width[rows])
    # each sample's place among its frequency's, the index itself on a whole-grid row
    index = np.arange(len(row)) - np.repeat(np.cumsum(width[rows]) - width[rows], width[rows])
    searched = np.flatnonzero(width[row] < n)
    # places 0 and 1 are the ends, 2 e + 2 and 2 e + 3 are j and j + 1 at extremum e
    r, p = row[searched], index[searched] - 2
    near = np.floor((delta[r] + math.pi * (first[r] + p // 2)) / h[r]) + p % 2
    index[searched] = np.where(p < 0, (p + 2) * (n - 1), np.clip(near, 0, n - 1))
    return row, index


def resonance_scan(base, omega_values, with_oracle=False, oracle_rtol=_ORACLE_RTOL):
    """Peak |P_z| of the resonance closed form over a drive-frequency grid.

    Each peak is the exact maximum over the time grid, found from the two
    samples around each analytic extremum of P_z and the two ends
    (_peak_search).  A frequency whose search cannot be trusted, or would
    gather as many samples as the grid has, evaluates every sample instead.
    Either way each evaluated sample has the bits of the whole-grid closed
    form.  The frequencies are evaluated in grid order, each kernel call on
    the samples of as many as fit in _BLOCK_BYTES, and at least one.
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

    times = base.times()
    n = len(times)
    # a non-finite or overflowing frequency gives a non-finite omega' t_end
    # and is refused here, before any sample is evaluated
    with np.errstate(over="ignore", invalid="ignore"):
        factors = _resonance_factors(base, omegas)
        finite = np.isfinite(factors[0] * base.t_end)
    if not np.all(finite):
        raise DomainError("resonance scan frequencies must be finite with a finite omega' "
                          f"t_end, got omega' = {factors[0][~finite][0]} at t_end = {base.t_end}")
    search = _peak_search(base, factors, n)
    # samples per kernel call: the _SCAN_ARRAYS arrays of its samples then
    # hold at most _BLOCK_BYTES together
    cap = _BLOCK_BYTES // (_SCAN_ARRAYS * times.itemsize)
    ends = np.cumsum(search[0])
    starts = ends - search[0]
    peaks = np.empty(len(omegas))
    start = 0
    while start < len(omegas):
        stop = max(start + 1, int(np.searchsorted(ends, starts[start] + cap, "right")))
        row, index = _peak_samples(n, np.arange(start, stop), *search)
        pz = _resonance_pz(base, factors, row, times[index])
        # each frequency's maximum; every phase is finite, so no sample is NaN
        peaks[start:stop] = np.maximum.reduceat(np.abs(pz), starts[start:stop] - starts[start])
        start = stop
    oracle_peaks = np.array([oracle_peak(w) for w in omegas]) if with_oracle else None
    return ScanResult(omegas=omegas, peaks=peaks,
                      argmax_index=int(np.argmax(peaks)),
                      oracle_peaks=oracle_peaks)


def level_splitting(L, Qs, dEr_dR):
    """Quadrupole splitting of the |L, m_r> levels by a quasielectric gradient.

    The interaction 2 A Lr^2, A = quadrupole_coupling(Qs, L, dEr/dR), shifts
    the level with Lr projection m_r by coefficient * m_r^2, coefficient =
    2 A, linear in the gradient (and in the field index that produces it).
    The levels run m_r = L .. -L, each labeled by its projection.
    """
    coeff = 2.0 * quadrupole_coupling(Qs, L, dEr_dR)
    levels = tuple((f"m_r={m_r:+d}", float(coeff * m_r**2))
                   for m_r in range(L, -L - 1, -1))
    return SplittingTable(levels=levels, coefficient=float(coeff))


def oracle_vs_closed_form(scn, oracle_rtol=_ORACLE_RTOL):
    """Compare the matrix-propagator oracle against the closed-form solution.

    The deviation is the largest |oracle - closed form| over the components
    the closed form defines, at every sample.  For the linear resonance drive
    it is only bounded by rotating-wave corrections; the report carries that
    bound (5 A/omega) instead of a tight match.
    """
    oracle = evolve_oracle(scn, rtol=oracle_rtol)
    closed = closed_form(scn)
    defined = ~np.isnan(closed.P)
    dev = float(np.max(np.abs(np.where(defined, oracle.P - closed.P, 0.0))))
    rwa = (5.0 * abs(scn.A) / abs(scn.omega_drive)
           if scn.mode == "resonance" and scn.drive == "linear" and scn.omega_drive
           else None)
    return ComparisonReport(mode=scn.mode, L=scn.L, kind=scn.kind, drive=scn.drive,
                            max_abs_deviation=dev, rwa_amplitude_bound=rwa, oracle=oracle)


def _series_columns(series):
    """The ten numeric CSV/JSON columns as (name, array) pairs, in layout order."""
    arrays = [series.times, *series.P.T, *(series.Pt[:, i, j] for i, j in TENSOR_PAIRS)]
    return tuple(zip(_COLUMNS, arrays))


def _all_nan(col):
    return len(col) > 0 and bool(np.isnan(col).all())


def write_series_csv(series, fileobj):
    """Write a PolarizationSeries as CSV with the canonical column layout.

    Each cell is '%.17g' % x, which reads back exactly: nan, inf and -inf for
    non-finite values.  A column that is NaN in every row is written as the
    literal nan without formatting its values; the others are formatted by
    floattext.text_rows, which gives the same bytes block by block.
    """
    fileobj.write(SERIES_CSV_HEADER + "\n")
    columns = ["nan" if _all_nan(col) else col for _, col in _series_columns(series)]
    for text in floattext.text_rows(columns, "," + series.source + "\n", floattext.G17):
        fileobj.write(text)


def write_series_json(series, fileobj):
    """Write a PolarizationSeries as one JSON object of columns plus "source".

    The bytes are those of json.dumps(doc, indent=2) + "\n" for the dict of
    the CSV columns as lists: one value per line, null for NaN, float repr
    for finite values, Infinity and -Infinity for infinities.  A column that
    is NaN in every row is written without formatting its values; the others
    are formatted by floattext.text_rows, block by block.
    """
    fileobj.write("{\n")
    nulls = None    # an all-NaN column's text, built on first use: every column has one length
    for name, col in _series_columns(series):
        if not len(col):
            fileobj.write(f"  {json.dumps(name)}: [],\n")
            continue
        fileobj.write(f"  {json.dumps(name)}: [\n    ")
        if _all_nan(col):
            if nulls is None:
                nulls = "null" + ",\n    null" * (len(col) - 1)
            fileobj.write(nulls)
        else:
            # every value is followed by the separator, which the last must not be
            blocks = floattext.text_rows([col], _JSON_SEPARATOR, floattext.JSON)
            text = next(blocks)
            for block in blocks:
                fileobj.write(text)
                text = block
            fileobj.write(text[:-len(_JSON_SEPARATOR)])
        fileobj.write("\n  ],\n")
    fileobj.write(f"  \"source\": {json.dumps(series.source)}\n}}\n")
