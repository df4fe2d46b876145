"""Acceptance checks: reference-value reproductions and property suites.

Each check returns a CheckResult with per-assertion details; run_all executes
the full battery.  The CLI ``verify`` command and the acceptance test module
both drive these functions, so the pass/fail criteria live in one place.
"""

import functools
import math
import time
from typing import NamedTuple

import numpy as np

from . import am_core, dynamics, moments, ring_config
from .constants import E_CHARGE
from .errors import DomainError
from .reference import REF_BETA_T_FM3, REF_RING, REF_W_M_1T_M
from .reference import rel_deviation as _rel


class CheckResult(NamedTuple):
    criterion: str
    label: str
    passed: bool
    details: list
    elapsed_s: float
    info: dict

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.criterion}: {self.label} ({self.elapsed_s:.3f}s)"


def _assert(details, name, ok, measured):
    details.append(f"{'ok ' if ok else 'BAD'} {name}: {measured}")
    return bool(ok)


def _criterion(number, label, limit_s):
    """Make a check body into acceptance criterion `number`.

    The body takes a fresh details list (then the check's own arguments),
    adds its assertions to it and returns (ok, info).  The whole body is
    timed, and its runtime is asserted below limit_s as the last detail,
    in the bound's unit (ms below 1 s) to 4 significant digits.
    """
    scale, unit = (1e3, "ms") if limit_s < 1.0 else (1.0, "s")
    bound = f"runtime < {limit_s * scale:g} {unit}"

    def decorate(body):
        @functools.wraps(body)
        def check(*args, **kwargs):
            details = []
            t0 = time.perf_counter()
            ok, info = body(details, *args, **kwargs)
            elapsed = time.perf_counter() - t0
            ok &= _assert(details, bound, elapsed < limit_s, f"{elapsed * scale:.4g} {unit}")
            return CheckResult(number, label, ok, details, elapsed, info)
        return check
    return decorate


@_criterion("1", "tensor magnetic polarizability value", 1e-3)
def check_tmp_constant(details, beta_t_fm3=None):
    """Criterion 1: beta_T within 0.5% of 5.25e4 fm^3, under 1 ms."""
    value = moments.tmp_electron() if beta_t_fm3 is None else beta_t_fm3
    ok = _assert(details, "beta_T rel dev vs 5.25e4 fm^3 <= 0.5%",
                 _rel(value, REF_BETA_T_FM3) <= 5e-3,
                 f"{value:.6g} fm^3, dev {_rel(value, REF_BETA_T_FM3):.2e}")
    return ok, {"beta_T_fm3": value}


@_criterion("2", "Landau beam waist at 1 T", 1e-3)
def check_beam_waist(details):
    """Criterion 2: w_m(1 T) within 1% of 5.1e-8 m, under 1 ms."""
    w = ring_config.landau_geometry(1.0, 0, 0).w_m
    ok = _assert(details, "w_m(1 T) rel dev vs 5.1e-8 m <= 1%",
                 _rel(w, REF_W_M_1T_M) <= 1e-2,
                 f"{w:.6g} m, dev {_rel(w, REF_W_M_1T_M):.2e}")
    return ok, {"w_m_m": w}


@_criterion("3", "worked frozen-ring example", 1e-2)
def check_worked_ring(details):
    """Criterion 3: the 300 keV / 0.5 m frozen ring reproduces its reference numbers."""
    s = ring_config.frozen_setup(300e3, 0.5, 0.5)
    ok = _assert(details, "beta_tilde within 0.001 of 0.777",
                 abs(s.kin.beta_tilde - REF_RING["beta_tilde"]) <= 1e-3,
                 f"{s.kin.beta_tilde:.6f}")
    ok &= _assert(details, "B0 within 1% of 0.0148 T",
                  _rel(s.B0, REF_RING["B0_T"]) <= 1e-2, f"{s.B0:.6g} T")
    ok &= _assert(details, "|E| within 1% of 2.46 MV/m",
                  _rel(abs(s.E), REF_RING["E_V_m"]) <= 1e-2, f"{abs(s.E):.6g} V/m")
    f_hz = s.omega / (2.0 * math.pi)
    ok &= _assert(details, "f within 1% of 7.41e7 Hz",
                  _rel(f_hz, REF_RING["f_Hz"]) <= 1e-2, f"{f_hz:.6g} Hz")
    return ok, {"B0_T": s.B0, "E_V_m": s.E, "f_Hz": f_hz}


@_criterion("4", "frozen-field residuals", 1.0)
def check_frozen_residuals(details):
    """Criterion 4: |Omega-omega|/omega < 1e-10 for 50 random frozen setups, under 1 s."""
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(50):
        energy = rng.uniform(50e3, 2e6)
        r0 = rng.uniform(0.1, 5.0)
        n = rng.uniform(0.05, 0.95)
        setup = ring_config.frozen_setup(energy, r0, n)
        worst = max(worst, ring_config.frozen_residual(setup))
    ok = _assert(details, "max residual over 50 setups < 1e-10",
                 worst < 1e-10, f"{worst:.3e}")
    return ok, {"worst_residual": worst}


def _tmp_scenario(periods, steps, L=1):
    return dynamics.DynamicsScenario(
        mode="tmp", L=L, Omega=8.0, b=1.0, theta=math.pi / 4, psi=0.3,
        kind="tensor", t_end=periods * 2.0 * math.pi, steps=steps)


def _frozen_scenario(periods, steps, kind="tensor"):
    # A = 0.5 so the P_z tone sits at 2A = 1 rad/s
    return dynamics.DynamicsScenario(
        mode="frozen", L=1, A=0.5, theta=math.pi / 2, psi=math.pi / 4,
        kind=kind, t_end=periods * 2.0 * math.pi, steps=steps)


def _resonance_scenario(periods, steps, drive="corotating"):
    return dynamics.DynamicsScenario(
        mode="resonance", L=1, Omega=0.25, A=1.0, omega_drive=0.5, phi=0.0,
        theta=math.pi / 2, psi=math.pi / 4, kind="tensor",
        t_end=periods * 2.0 * math.pi, steps=steps, drive=drive)


def _dominant_frequencies(times, values, n_peaks=1):
    """Dominant angular frequencies of a uniformly sampled real signal.

    Hann-windowed rFFT, zero-padded to pad = 8 times the signal length, with
    quadratic interpolation of the log-magnitude around each spectral peak.
    Returns a list of (omega_rad_s, amplitude) sorted by descending
    amplitude.  The frequency resolution before interpolation is
    2*pi/(pad * T_window).
    """
    pad = 8
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
    spec = np.abs(np.fft.rfft(x * window, n=pad * n))
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


def _oracle_frequency_error(scn, column, expected, beat=False):
    """Relative error against expected of the oracle's strongest line in P[:, column].

    beat=True measures the half-splitting (omega_hi - omega_lo)/2 of the two
    strongest lines instead.
    """
    series = dynamics.evolve_oracle(scn)
    peaks = _dominant_frequencies(series.times, series.P[:, column], n_peaks=2 if beat else 1)
    w = sorted(p[0] for p in peaks)
    measured = 0.5 * (w[1] - w[0]) if beat else w[0]
    return abs(measured - expected) / expected


@_criterion("5", "oracle vs closed-form dynamics", 30.0)
def check_oracle_vs_closed_form(details):
    """Criterion 5: frequency matches at 0.1%, pointwise closed-form agreement at 1e-6,
    and at 1e-9 for tmp at L = 2 and 3."""
    info = {}

    scn = _frozen_scenario(32, 8192)
    frozen_rel = _oracle_frequency_error(scn, 2, 2.0 * abs(scn.A))
    ok = _assert(details, "frozen P_z frequency = 2A within 0.1%",
                 frozen_rel < 1e-3, f"rel err {frozen_rel:.2e}")
    scn = _tmp_scenario(32, 8192)
    tmp_rel = _oracle_frequency_error(scn, 1, abs(scn.b), beat=True)
    ok &= _assert(details, "tmp beat frequency = b within 0.1%",
                  tmp_rel < 1e-3, f"rel err {tmp_rel:.2e}")
    scn = _resonance_scenario(24, 2048)
    resonance_rel = _oracle_frequency_error(
        scn, 2, math.hypot(2.0 * scn.Omega - scn.omega_drive, scn.A))
    ok &= _assert(details, "resonance (corotating, omega=2*Omega) frequency = A within 0.1%",
                  resonance_rel < 1e-3, f"rel err {resonance_rel:.2e}")

    dev_f = dynamics.oracle_vs_closed_form(_frozen_scenario(10, 4096)).max_abs_deviation
    ok &= _assert(details, "frozen pointwise deviation over 10 periods < 1e-6",
                  dev_f < 1e-6, f"{dev_f:.2e}")
    dev_t = dynamics.oracle_vs_closed_form(_tmp_scenario(10, 4096)).max_abs_deviation
    ok &= _assert(details, "tmp pointwise deviation over 10 periods < 1e-6",
                  dev_t < 1e-6, f"{dev_t:.2e}")

    # measured L > 1 amplitude factors of P_phi, oracle over closed form,
    # recorded but never asserted, and the pointwise deviation, asserted
    for L in (2, 3):
        scn = _tmp_scenario(8, 2048, L=L)
        report = dynamics.oracle_vs_closed_form(scn)
        factor = float(np.max(np.abs(report.oracle.P[:, 1]))
                       / np.max(np.abs(dynamics.closed_form(scn).P[:, 1])))
        info[f"tmp_L{L}_amplitude_factor"] = factor
        details.append(f"info tmp L={L} amplitude factor (not asserted): {factor:.4f}")
        dev = report.max_abs_deviation
        ok &= _assert(details, f"tmp L={L} pointwise deviation over 8 periods < 1e-9",
                      dev < 1e-9, f"{dev:.2e}")

    info.update(frozen_rel=frozen_rel, tmp_rel=tmp_rel, resonance_rel=resonance_rel,
                frozen_dev=dev_f, tmp_dev=dev_t)
    return ok, info


@_criterion("6", "resonance scan", 30.0)
def check_resonance_scan(details):
    """Criterion 6: 41-point scan peaks at the grid point nearest 2*Omega.

    The detuned tail must obey the A/|2 Omega - omega| envelope (10% slack).
    For this drive phase (2 psi - phi = pi/2) the exact tail is
    A/(2 omega'), which the measured values must match within 10%.
    """
    omega_0, a = 50.0, 1.0
    base = dynamics.DynamicsScenario(
        mode="resonance", L=1, Omega=omega_0, A=a, omega_drive=2 * omega_0,
        phi=0.0, theta=math.pi / 2, psi=math.pi / 4, kind="tensor",
        t_end=math.pi / a, steps=4001, drive="corotating")
    grid = 2 * omega_0 + np.linspace(-20 * a, 20 * a, 41)
    result = dynamics.resonance_scan(base, grid)
    nearest = int(np.argmin(np.abs(result.omegas - 2 * omega_0)))
    ok = _assert(details, "argmax at grid point nearest 2*Omega",
                 result.argmax_index == nearest,
                 f"argmax omega {result.omegas[result.argmax_index]:.6g}")
    detuning = np.abs(result.omegas - 2 * omega_0)
    tail = detuning >= 3 * a
    envelope = a / detuning[tail]
    bound_ok = np.all(result.peaks[tail] <= 1.1 * envelope)
    ok &= _assert(details, "detuned tail within the A/|2*Omega-omega| envelope (10%)",
                  bool(bound_ok),
                  f"max peak/envelope {np.max(result.peaks[tail]/envelope):.3f}")
    exact = a / (2.0 * np.hypot(detuning[tail], a))
    tight_ok = np.all(np.abs(result.peaks[tail] / exact - 1.0) <= 0.1)
    ok &= _assert(details, "tail matches the exact closed-form maximum within 10%",
                  bool(tight_ok),
                  f"max rel dev {np.max(np.abs(result.peaks[tail]/exact - 1.0)):.3f}")
    return ok, {"argmax_omega": float(result.omegas[result.argmax_index])}


@_criterion("7", "operator algebra and tensor traces", 5.0)
def check_algebra_suite(details):
    """Criterion 7: operator algebra for L in 1..20 and tensor traces for 200 random states."""
    worst_comm = worst_lsq = worst_herm = 0.0
    for L in range(1, 21):
        ops = am_core.build_operators(L)
        eye = np.eye(ops.dim)
        lx, ly, lz = ops.Lx, ops.Ly, ops.Lz     # each access builds the matrix
        for a, b, c in ((lx, ly, lz), (ly, lz, lx), (lz, lx, ly)):
            worst_comm = max(worst_comm, np.max(np.abs(a @ b - b @ a - 1j * c)))
        worst_lsq = max(worst_lsq, np.max(np.abs(ops.Lsq - L * (L + 1) * eye)))
        for m in (lx, ly, lz):
            worst_herm = max(worst_herm, np.max(np.abs(m - m.conj().T)))
    rng = np.random.default_rng(7)
    worst_trace = 0.0
    for _ in range(200):
        L = int(rng.integers(1, 7))
        ops = am_core.build_operators(L)
        # a beam of one member, or of 2 to dim members with Dirichlet weights
        k = 1 if rng.random() < 0.5 else int(rng.integers(2, ops.dim + 1))
        members = rng.normal(size=(k, ops.dim)) + 1j * rng.normal(size=(k, ops.dim))
        members /= np.linalg.norm(members, axis=1, keepdims=True)
        pt = am_core.polarization_tensor((rng.dirichlet(np.ones(k)), members), ops)
        worst_trace = max(worst_trace, abs(np.trace(pt) - 1.0))
    ok = _assert(details, "commutators [Li,Lj]=i e_ijk Lk at 1e-12 for L=1..20",
                 worst_comm < 1e-12, f"worst {worst_comm:.2e}")
    ok &= _assert(details, "Lsq = L(L+1) I at 1e-12", worst_lsq < 1e-12,
                  f"worst {worst_lsq:.2e}")
    ok &= _assert(details, "Hermiticity at 1e-12", worst_herm < 1e-12,
                  f"worst {worst_herm:.2e}")
    ok &= _assert(details, "tensor trace = 1 at 1e-10 for 200 random states",
                  worst_trace < 1e-10, f"worst {worst_trace:.2e}")
    return ok, {"worst_commutator": worst_comm, "worst_trace_dev": worst_trace}


@_criterion("8", "quadrupole level splitting", 1.0)
def check_level_splitting(details):
    """Criterion 8: splittings vanish at n=0, scale linearly in n, ratios {0,1,1} at L=1."""
    qs = moments.spectroscopic_eqm(moments.intrinsic_eqm(
        ring_config.landau_geometry(0.0148, 0, 1).mean_r2), 1, 1)
    setup = ring_config.frozen_setup(300e3, 0.5, 0.5)

    _, der0 = ring_config.field_gradients(setup._replace(n=0.0))
    tab0 = dynamics.level_splitting(1, qs, der0)
    ok = _assert(details, "all shifts zero at n = 0",
                 np.all(tab0.shifts == 0.0), f"max {np.max(np.abs(tab0.shifts)):.2e}")

    # linearity across three decades of field index
    ns = np.array([1e-3, 1e-2, 1e-1, 0.9])
    slopes = []
    for n in ns:
        s = ring_config.frozen_setup(300e3, 0.5, float(n))
        _, der = ring_config.field_gradients(s)
        tab = dynamics.level_splitting(1, qs, der)
        slopes.append(np.max(tab.shifts) / n)
    slopes = np.array(slopes)
    lin_dev = np.max(np.abs(slopes / slopes[0] - 1.0))
    ok &= _assert(details, "shift/n constant over 3 decades within 1e-9",
                  lin_dev < 1e-9, f"max rel dev {lin_dev:.2e}")

    _, der = ring_config.field_gradients(setup)
    tab = dynamics.level_splitting(1, qs, der)
    ratios = np.sort(tab.shifts / np.max(np.abs(tab.shifts)))
    ok &= _assert(details, "L=1 eigenvalue ratios {0, 1, 1}",
                  np.allclose(ratios, [0.0, 1.0, 1.0], atol=1e-12),
                  f"{np.round(ratios, 12)}")
    return ok, {}


@_criterion("9", "order-of-magnitude scales", 1e-2)
def check_scale_estimates(details):
    """Criterion 9: Qs/(|e| R0) lands near 1e-16 m and the precession estimate is literal."""
    ms = moments.moment_set(100, 0.0148)
    scale = ms.Qs_Cm2 / (E_CHARGE * 0.5)
    ok = _assert(details, "Qs/(|e| R0) within factor 3 of 1e-16 m (L=100, R0=0.5 m)",
                 1e-16 / 3.0 <= scale <= 3e-16, f"{scale:.3e} m")
    d1 = moments.delta_omega_estimate(100, 1.0)
    d2 = moments.delta_omega_estimate(1000, 1.0e6)
    ok &= _assert(details, "precession estimate L*|dE/dX|*1e-10 exact",
                  d1 == 1e-8 and math.isclose(d2, 0.1),
                  f"{d1:.3e} s^-1, {d2:.3e} s^-1")
    return ok, {"Qs_over_eR0_m": scale}


@_criterion("10", "oracle property suite", 30.0)
def check_oracle_properties(details):
    """Criterion 10: unitarity/trace/positivity, energy conservation, convergence order."""
    ok = True
    runs = {
        "tmp/tensor": _tmp_scenario(4, 1024),
        "frozen/vector": _frozen_scenario(4, 1024, kind="vector"),
        "resonance/tensor": _resonance_scenario(3, 512),
        # the linear drive takes the refined piecewise propagator
        "linear-drive resonance/tensor": _resonance_scenario(3, 512, drive="linear"),
    }
    for name, scn in runs.items():
        series = dynamics.evolve_oracle(scn, rtol=1e-9)
        d = series.diagnostics
        # every key must be present: a dropped diagnostic fails, it does not pass
        keys = ["max_norm_dev"]
        if scn.kind == "tensor":
            keys += ["max_trace_dev", "max_herm_dev", "min_eigenvalue"]
        missing = [k for k in keys if k not in d]
        within = not missing and all(
            d[k] > -1e-10 if k == "min_eigenvalue" else d[k] < 1e-10 for k in keys)
        ok &= _assert(details, f"{name} norm, trace, Hermiticity, positivity at 1e-10",
                      within, f"missing {missing}" if missing else f"{d}")

    # energy conservation for time-independent H
    scn = dynamics.DynamicsScenario(mode="tmp", L=2, Omega=3.0, b=0.7, theta=0.9,
                                    psi=0.4, kind="vector", t_end=50.0, steps=2048)
    _, members = dynamics.evolve_oracle(scn, return_states=True)
    states = members[:, 0]    # the vector beam's one member
    h = dynamics.build_hamiltonian(scn, 0.0)
    energies = np.einsum("ni,ij,nj->n", states.conj(), h, states).real
    drift = np.max(np.abs(energies - energies[0])) / abs(energies[0])
    ok &= _assert(details, "energy conservation (time-independent H) at 1e-9",
                  drift < 1e-9, f"rel drift {drift:.2e}")

    # step-halving convergence order on a time-dependent run
    scn_lin = dynamics.DynamicsScenario(
        mode="resonance", L=1, Omega=2.0, A=0.5, omega_drive=4.0, phi=0.2,
        theta=1.0, psi=0.5, kind="vector", t_end=2 * math.pi, steps=64,
        drive="linear")
    finals = []
    for n_sub in (8, 16, 32):
        series = dynamics.evolve_oracle(scn_lin, fixed_substeps=n_sub)
        finals.append(np.concatenate([series.P[-1], series.Pt[-1].ravel()]))
    d1 = np.max(np.abs(finals[0] - finals[1]))
    d2 = np.max(np.abs(finals[1] - finals[2]))
    order = math.log2(d1 / d2)
    ok &= _assert(details, "step-halving convergence order >= 2",
                  order >= 1.9, f"measured order {order:.3f}")
    return ok, {"convergence_order": order, "energy_drift": drift}


CHECKS = (
    check_tmp_constant,
    check_beam_waist,
    check_worked_ring,
    check_frozen_residuals,
    check_oracle_vs_closed_form,
    check_resonance_scan,
    check_algebra_suite,
    check_level_splitting,
    check_scale_estimates,
    check_oracle_properties,
)


def run_all():
    """Execute every acceptance check; returns the list of CheckResults."""
    return [check() for check in CHECKS]
