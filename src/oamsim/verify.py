"""Acceptance checks: reference-value reproductions and property suites.

Each check returns a CheckResult with per-assertion details; run_all executes
the full battery.  The CLI ``verify`` command and the acceptance test module
both drive these functions, so the pass/fail criteria live in one place.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import am_core, dynamics, moments, ring_config
from .constants import E_CHARGE, LAMBDA_BAR_C, M2_FIELD_T

# Published reference values the implementation must reproduce.
REF_BETA_T_FM3 = 5.25e4          # tensor magnetic polarizability [fm^3]
REF_W_M_1T_M = 5.1e-8            # beam waist at 1 T [m]
REF_LAMBDA_BAR_C_M = 3.86e-13    # reduced Compton wavelength [m]
REF_M2_FIELD_T = 4.41e9          # electron m^2 as a field scale [T]
REF_RING = {                     # 300 keV, R0 = 0.5 m frozen ring
    "beta_tilde": 0.777,
    "B0_T": 0.0148,
    "E_V_m": 2.46e6,
    "f_Hz": 7.41e7,
}


@dataclass
class CheckResult:
    criterion: str
    label: str
    passed: bool
    details: list = field(default_factory=list)
    elapsed_s: float = 0.0
    info: dict = field(default_factory=dict)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.criterion}: {self.label} ({self.elapsed_s:.3f}s)"


def _assert(details, name, ok, measured):
    details.append(f"{'ok ' if ok else 'BAD'} {name}: {measured}")
    return bool(ok)


def _rel(measured, reference):
    return abs(measured - reference) / abs(reference)


def check_tmp_constant(beta_t_fm3=None):
    """Criterion 1: beta_T within 0.5% of 5.25e4 fm^3, under 1 ms."""
    moments.tmp_electron()  # warm up
    t0 = time.perf_counter()
    value = moments.tmp_electron()
    elapsed = time.perf_counter() - t0
    if beta_t_fm3 is not None:
        value = beta_t_fm3
    details = []
    ok = _assert(details, "beta_T rel dev vs 5.25e4 fm^3 <= 0.5%",
                 _rel(value, REF_BETA_T_FM3) <= 5e-3,
                 f"{value:.6g} fm^3, dev {_rel(value, REF_BETA_T_FM3):.2e}")
    ok &= _assert(details, "runtime < 1 ms", elapsed < 1e-3, f"{elapsed*1e3:.4f} ms")
    return CheckResult("1", "tensor magnetic polarizability value", ok, details, elapsed,
                       {"beta_T_fm3": value})


def check_beam_waist():
    """Criterion 2: w_m(1 T) within 1% of 5.1e-8 m, under 1 ms."""
    ring_config.landau_geometry(1.0, 0, 0)
    t0 = time.perf_counter()
    w = ring_config.landau_geometry(1.0, 0, 0).w_m
    elapsed = time.perf_counter() - t0
    details = []
    ok = _assert(details, "w_m(1 T) rel dev vs 5.1e-8 m <= 1%",
                 _rel(w, REF_W_M_1T_M) <= 1e-2,
                 f"{w:.6g} m, dev {_rel(w, REF_W_M_1T_M):.2e}")
    ok &= _assert(details, "runtime < 1 ms", elapsed < 1e-3, f"{elapsed*1e3:.4f} ms")
    return CheckResult("2", "Landau beam waist at 1 T", ok, details, elapsed,
                       {"w_m_m": w})


def check_worked_ring():
    """Criterion 3: the 300 keV / 0.5 m frozen ring reproduces its reference numbers."""
    ring_config.frozen_setup(300e3, 0.5, 0.5)
    t0 = time.perf_counter()
    s = ring_config.frozen_setup(300e3, 0.5, 0.5)
    elapsed = time.perf_counter() - t0
    details = []
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
    ok &= _assert(details, "runtime < 10 ms", elapsed < 1e-2, f"{elapsed*1e3:.3f} ms")
    return CheckResult("3", "worked frozen-ring example", ok, details, elapsed,
                       {"B0_T": s.B0, "E_V_m": s.E, "f_Hz": f_hz})


def check_frozen_residuals(samples=50, seed=20260810):
    """Criterion 4: |Omega-omega|/omega < 1e-10 for random frozen setups, under 1 s."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(samples):
        energy = rng.uniform(50e3, 2e6)
        r0 = rng.uniform(0.1, 5.0)
        n = rng.uniform(0.05, 0.95)
        setup = ring_config.frozen_setup(energy, r0, n)
        worst = max(worst, ring_config.frozen_residual(setup))
    elapsed = time.perf_counter() - t0
    details = []
    ok = _assert(details, f"max residual over {samples} setups < 1e-10",
                 worst < 1e-10, f"{worst:.3e}")
    ok &= _assert(details, "runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s")
    return CheckResult("4", "frozen-field residuals", ok, details, elapsed,
                       {"worst_residual": worst})


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


def check_oracle_vs_closed_form():
    """Criterion 5: frequency matches at 0.1% and pointwise closed-form agreement at 1e-6."""
    t0 = time.perf_counter()
    details = []
    info = {}

    rep_f = dynamics.oracle_vs_closed_form(_frozen_scenario(32, 8192))
    ok = _assert(details, "frozen P_z frequency = 2A within 0.1%",
                 rep_f.freq_oracle_rel_err < 1e-3,
                 f"rel err {rep_f.freq_oracle_rel_err:.2e}")
    rep_t = dynamics.oracle_vs_closed_form(_tmp_scenario(32, 8192))
    ok &= _assert(details, "tmp beat frequency = b within 0.1%",
                  rep_t.freq_oracle_rel_err < 1e-3,
                  f"rel err {rep_t.freq_oracle_rel_err:.2e}")
    rep_r = dynamics.oracle_vs_closed_form(_resonance_scenario(24, 2048))
    ok &= _assert(details, "resonance (corotating, omega=2*Omega) frequency = A within 0.1%",
                  rep_r.freq_oracle_rel_err < 1e-3,
                  f"rel err {rep_r.freq_oracle_rel_err:.2e}")

    dev_f = dynamics.oracle_vs_closed_form(_frozen_scenario(10, 4096)).max_abs_deviation
    ok &= _assert(details, "frozen pointwise deviation over 10 periods < 1e-6",
                  dev_f < 1e-6, f"{dev_f:.2e}")
    dev_t = dynamics.oracle_vs_closed_form(_tmp_scenario(10, 4096)).max_abs_deviation
    ok &= _assert(details, "tmp pointwise deviation over 10 periods < 1e-6",
                  dev_t < 1e-6, f"{dev_t:.2e}")

    # measured L > 1 amplitude factors, recorded but never asserted
    for L in (2, 3):
        rep = dynamics.oracle_vs_closed_form(_tmp_scenario(8, 2048, L=L))
        info[f"tmp_L{L}_amplitude_factor"] = rep.amplitude_factor
        details.append(f"info tmp L={L} amplitude factor (not asserted): "
                       f"{rep.amplitude_factor:.4f}")

    elapsed = time.perf_counter() - t0
    ok &= _assert(details, "runtime < 30 s", elapsed < 30.0, f"{elapsed:.2f} s")
    info.update(frozen_rel=rep_f.freq_oracle_rel_err, tmp_rel=rep_t.freq_oracle_rel_err,
                resonance_rel=rep_r.freq_oracle_rel_err,
                frozen_dev=dev_f, tmp_dev=dev_t)
    return CheckResult("5", "oracle vs closed-form dynamics", ok, details, elapsed, info)


def check_resonance_scan():
    """Criterion 6: 41-point scan peaks at the grid point nearest 2*Omega.

    The detuned tail must obey the A/|2 Omega - omega| envelope (10% slack).
    For this drive phase (2 psi - phi = pi/2) the exact tail is
    A/(2 omega'), which the measured values must match within 10%.
    """
    t0 = time.perf_counter()
    omega_0, a = 50.0, 1.0
    base = dynamics.DynamicsScenario(
        mode="resonance", L=1, Omega=omega_0, A=a, omega_drive=2 * omega_0,
        phi=0.0, theta=math.pi / 2, psi=math.pi / 4, kind="tensor",
        t_end=math.pi / a, steps=4001, drive="corotating")
    grid = 2 * omega_0 + np.linspace(-20 * a, 20 * a, 41)
    result = dynamics.resonance_scan(base, grid)
    details = []
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
    elapsed = time.perf_counter() - t0
    ok &= _assert(details, "runtime < 30 s", elapsed < 30.0, f"{elapsed:.2f} s")
    return CheckResult("6", "resonance scan", ok, details, elapsed,
                       {"argmax_omega": float(result.omegas[result.argmax_index])})


def check_algebra_suite(seed=7, n_states=200):
    """Criterion 7: operator algebra for L in 1..20 and tensor traces for random states."""
    t0 = time.perf_counter()
    worst_comm = worst_lsq = worst_herm = 0.0
    for L in range(1, 21):
        ops = am_core.build_operators(L)
        eye = np.eye(ops.dim)
        pairs = ((ops.Lx, ops.Ly, ops.Lz), (ops.Ly, ops.Lz, ops.Lx),
                 (ops.Lz, ops.Lx, ops.Ly))
        for a, b, c in pairs:
            worst_comm = max(worst_comm, np.max(np.abs(a @ b - b @ a - 1j * c)))
        worst_lsq = max(worst_lsq, np.max(np.abs(ops.Lsq - L * (L + 1) * eye)))
        for m in (ops.Lx, ops.Ly, ops.Lz):
            worst_herm = max(worst_herm, np.max(np.abs(m - m.conj().T)))
    rng = np.random.default_rng(seed)
    worst_trace = 0.0
    for _ in range(n_states):
        L = int(rng.integers(1, 7))
        ops = am_core.build_operators(L)
        if rng.random() < 0.5:
            vec = rng.normal(size=ops.dim) + 1j * rng.normal(size=ops.dim)
            state = am_core.pure_state(vec / np.linalg.norm(vec))
        else:
            raw = rng.normal(size=(ops.dim, ops.dim)) + 1j * rng.normal(size=(ops.dim, ops.dim))
            rho = raw @ raw.conj().T
            state = am_core.mixed_state(rho / np.trace(rho).real)
        pt = am_core.polarization_tensor(state, ops)
        worst_trace = max(worst_trace, abs(np.trace(pt) - 1.0))
    elapsed = time.perf_counter() - t0
    details = []
    ok = _assert(details, "commutators [Li,Lj]=i e_ijk Lk at 1e-12 for L=1..20",
                 worst_comm < 1e-12, f"worst {worst_comm:.2e}")
    ok &= _assert(details, "Lsq = L(L+1) I at 1e-12", worst_lsq < 1e-12,
                  f"worst {worst_lsq:.2e}")
    ok &= _assert(details, "Hermiticity at 1e-12", worst_herm < 1e-12,
                  f"worst {worst_herm:.2e}")
    ok &= _assert(details, f"tensor trace = 1 at 1e-10 for {n_states} random states",
                  worst_trace < 1e-10, f"worst {worst_trace:.2e}")
    ok &= _assert(details, "runtime < 5 s", elapsed < 5.0, f"{elapsed:.2f} s")
    return CheckResult("7", "operator algebra and tensor traces", ok, details, elapsed,
                       {"worst_commutator": worst_comm, "worst_trace_dev": worst_trace})


def check_level_splitting():
    """Criterion 8: splittings vanish at n=0, scale linearly in n, ratios {0,1,1} at L=1."""
    t0 = time.perf_counter()
    details = []
    qs = moments.spectroscopic_eqm(moments.intrinsic_eqm(
        ring_config.landau_geometry(0.0148, 0, 1)), 1, 1)
    setup = ring_config.frozen_setup(300e3, 0.5, 0.5)
    ops = am_core.build_operators(1)

    _, der0 = ring_config.field_gradients(
        ring_config.RingSetup(kin=setup.kin, B0=setup.B0, E=setup.E, R0=setup.R0,
                              n=0.0, omega=setup.omega, Omega=setup.Omega))
    tab0 = dynamics.level_splitting(ops, qs, 1, der0)
    ok = _assert(details, "all shifts zero at n = 0",
                 np.all(tab0.shifts == 0.0), f"max {np.max(np.abs(tab0.shifts)):.2e}")

    # linearity across three decades of field index
    ns = np.array([1e-3, 1e-2, 1e-1, 0.9])
    slopes = []
    for n in ns:
        s = ring_config.frozen_setup(300e3, 0.5, float(n))
        _, der = ring_config.field_gradients(s)
        tab = dynamics.level_splitting(ops, qs, 1, der)
        slopes.append(np.max(tab.shifts) / n)
    slopes = np.array(slopes)
    lin_dev = np.max(np.abs(slopes / slopes[0] - 1.0))
    ok &= _assert(details, "shift/n constant over 3 decades within 1e-9",
                  lin_dev < 1e-9, f"max rel dev {lin_dev:.2e}")

    _, der = ring_config.field_gradients(setup)
    tab = dynamics.level_splitting(ops, qs, 1, der)
    ratios = np.sort(tab.shifts / np.max(np.abs(tab.shifts)))
    ok &= _assert(details, "L=1 eigenvalue ratios {0, 1, 1}",
                  np.allclose(ratios, [0.0, 1.0, 1.0], atol=1e-12),
                  f"{np.round(ratios, 12)}")
    elapsed = time.perf_counter() - t0
    ok &= _assert(details, "runtime < 1 s", elapsed < 1.0, f"{elapsed:.2f} s")
    return CheckResult("8", "quadrupole level splitting", ok, details, elapsed, {})


def check_scale_estimates():
    """Criterion 9: Qs/(|e| R0) lands near 1e-16 m and the precession estimate is literal."""
    t0 = time.perf_counter()
    details = []
    ms = moments.moment_set(100, 0.0148)
    scale = ms.Qs_Cm2 / (E_CHARGE * 0.5)
    ok = _assert(details, "Qs/(|e| R0) within factor 3 of 1e-16 m (L=100, R0=0.5 m)",
                 1e-16 / 3.0 <= scale <= 3e-16, f"{scale:.3e} m")
    d1 = moments.delta_omega_estimate(100, 1.0)
    d2 = moments.delta_omega_estimate(1000, 1.0e6)
    ok &= _assert(details, "precession estimate L*|dE/dX|*1e-10 exact",
                  d1 == 1e-8 and math.isclose(d2, 0.1),
                  f"{d1:.3e} s^-1, {d2:.3e} s^-1")
    elapsed = time.perf_counter() - t0
    ok &= _assert(details, "runtime < 10 ms", elapsed < 1e-2, f"{elapsed*1e3:.2f} ms")
    return CheckResult("9", "order-of-magnitude scales", ok, details, elapsed,
                       {"Qs_over_eR0_m": scale})


def check_oracle_properties():
    """Criterion 10: unitarity/trace/positivity, energy conservation, convergence order."""
    t0 = time.perf_counter()
    details = []
    ok = True
    runs = {
        "tmp/tensor": _tmp_scenario(4, 1024),
        "frozen/vector": _frozen_scenario(4, 1024, kind="vector"),
        "resonance/tensor": _resonance_scenario(3, 512),
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
    ops = am_core.build_operators(2)
    _, states = dynamics.evolve_oracle(scn, ops=ops, return_states=True)
    h = dynamics.build_hamiltonian(scn, ops, 0.0)
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
    elapsed = time.perf_counter() - t0
    ok &= _assert(details, "runtime < 30 s", elapsed < 30.0, f"{elapsed:.2f} s")
    return CheckResult("10", "oracle property suite", ok, details, elapsed,
                       {"convergence_order": order, "energy_drift": drift})


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


def constants_report():
    """Reference-value comparison table for the constants command."""
    w_m = ring_config.landau_geometry(1.0, 0, 0).w_m
    beta_t = moments.tmp_electron()
    rows = [
        ("beta_T_fm3", beta_t, REF_BETA_T_FM3),
        ("lambda_bar_C_m", LAMBDA_BAR_C, REF_LAMBDA_BAR_C_M),
        ("m2_field_T", M2_FIELD_T, REF_M2_FIELD_T),
        ("w_m_1T_m", w_m, REF_W_M_1T_M),
    ]
    return [{"quantity": name, "computed": value, "reference": ref,
             "rel_deviation": _rel(value, ref)} for name, value, ref in rows]
