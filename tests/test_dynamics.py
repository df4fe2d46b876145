import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from oamsim import am_core as am
from oamsim import dynamics as dy
from oamsim import moments as mo
from oamsim import ring_config as rc
from oamsim.constants import C, E_CHARGE, HBAR
from oamsim.errors import ConvergenceError, DomainError


def tmp_scn(**kw):
    base = dict(mode="tmp", L=1, Omega=8.0, b=1.0, theta=np.pi / 4, psi=0.3,
                kind="tensor", t_end=10 * 2 * np.pi, steps=2048)
    base.update(kw)
    return dy.DynamicsScenario(**base)


def frozen_scn(**kw):
    base = dict(mode="frozen", L=1, A=0.5, theta=np.pi / 2, psi=np.pi / 4,
                kind="tensor", t_end=10 * 2 * np.pi, steps=2048)
    base.update(kw)
    return dy.DynamicsScenario(**base)


def partly_defined_series():
    """A hand-built series with -0.0, +-inf and NaN in some rows of a column only."""
    times = np.linspace(0.0, 1.0, 7)
    p = np.full((7, 3), np.nan)
    p[:, 0] = [0.25, np.nan, -0.0, np.inf, np.nan, -np.inf, 1e-300]
    p[:, 2] = np.sin(times)
    pt = np.full((7, 3, 3), np.nan)
    pt[::2, 1, 1] = 1.0 / 3.0
    return dy.PolarizationSeries(times=times, P=p, Pt=pt, source="closed_form")


def empty_series():
    return dy.PolarizationSeries(times=np.empty(0), P=np.empty((0, 3)),
                                 Pt=np.empty((0, 3, 3)), source="oracle")


def resonance_scn(**kw):
    base = dict(mode="resonance", L=1, Omega=0.25, A=1.0, omega_drive=0.5,
                phi=0.0, theta=np.pi / 2, psi=np.pi / 4, kind="tensor",
                t_end=2 * 2 * np.pi, steps=512, drive="corotating")
    base.update(kw)
    return dy.DynamicsScenario(**base)


class TestScenarioValidation:
    def test_mode_isolation(self):
        with pytest.raises(DomainError):
            dy.DynamicsScenario(mode="frozen", L=1, Omega=1.0, A=1.0)
        with pytest.raises(DomainError):
            dy.DynamicsScenario(mode="tmp", L=1, b=1.0, A=1.0)
        with pytest.raises(DomainError):
            dy.DynamicsScenario(mode="resonance", L=1, b=1.0, A=1.0)

    def test_grid_and_kind(self):
        with pytest.raises(DomainError):
            dy.DynamicsScenario(mode="tmp", L=1, steps=1)
        with pytest.raises(DomainError):
            dy.DynamicsScenario(mode="tmp", L=1, t_end=0.0)
        with pytest.raises(DomainError):
            dy.DynamicsScenario(mode="tmp", L=1, kind="mixed")
        with pytest.raises(DomainError):
            dy.DynamicsScenario(mode="precession", L=1)
        with pytest.raises(DomainError):
            dy.DynamicsScenario(mode="tmp", L=0)

    @pytest.mark.parametrize("field, value", [
        ("t_end", math.inf), ("theta", math.nan), ("psi", -math.inf), ("b", math.nan),
        ("steps", math.inf), ("L", math.nan)])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(DomainError, match="finite"):
            tmp_scn(**{field: value})

    @pytest.mark.parametrize("steps", [2.5, 2.0, True])
    def test_steps_must_be_an_integer(self, steps):
        with pytest.raises(DomainError, match="integer"):
            dy.DynamicsScenario(mode="tmp", L=1, steps=steps)

    def test_non_finite_coefficient_rejected_before_the_oracle(self):
        with pytest.raises(DomainError, match="finite"):
            dy.evolve_oracle(frozen_scn(A=math.nan))


class TestBuildHamiltonian:
    def test_all_zero(self):
        ops = am.build_operators(1)
        scn = tmp_scn(Omega=0.0, b=0.0)
        assert np.all(dy.build_hamiltonian(scn, ops, 0.0) == 0.0)

    def test_tmp_L1_matrix(self):
        ops = am.build_operators(1)
        scn = tmp_scn(Omega=0.0, b=1.0)
        assert np.allclose(dy.build_hamiltonian(scn, ops, 0.0),
                           np.diag([1.0, 0.0, 1.0]))

    def test_frozen_time_independent(self):
        ops = am.build_operators(2)
        scn = frozen_scn(L=2)
        h0 = dy.build_hamiltonian(scn, ops, 0.0)
        h1 = dy.build_hamiltonian(scn, ops, 17.3)
        assert np.array_equal(h0, h1)
        assert dy.hamiltonian_terms(scn, ops)[1] == ()

    @pytest.mark.parametrize("drive", ["linear", "corotating"])
    def test_resonance_hermitian(self, drive):
        ops = am.build_operators(3)
        scn = resonance_scn(L=3, drive=drive)
        h0, terms = dy.hamiltonian_terms(scn, ops)
        assert len(terms) == (1 if drive == "linear" else 2)
        ts = (0.0, 0.37, 2.9)
        stack = dy.build_hamiltonian(scn, ops, np.array(ts))
        for i, t in enumerate(ts):
            h = dy.build_hamiltonian(scn, ops, t)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12
            phase = scn.omega_drive * t + scn.phi
            expected = h0 + sum(a * f(phase) * hk for a, f, hk in terms)
            assert np.allclose(h, expected, rtol=0.0, atol=1e-14)
            assert np.allclose(stack[i], h, rtol=0.0, atol=1e-14)

    def test_dimension_mismatch(self):
        ops = am.build_operators(2)
        with pytest.raises(DomainError):
            dy.build_hamiltonian(tmp_scn(), ops, 0.0)


class TestQuadrupoleCoefficients:
    def test_zero_index(self):
        s = rc.frozen_setup(300e3, 0.5, 0.5)
        flat = rc.RingSetup(kin=s.kin, B0=s.B0, E=s.E, R0=s.R0, n=0.0,
                            omega=s.omega, Omega=s.Omega)
        assert dy.quadrupole_coefficient_frozen(1e-35, 100, flat) == 0.0

    def test_inverse_square_L(self):
        s = rc.frozen_setup(300e3, 0.5, 0.5)
        a100 = dy.quadrupole_coefficient_frozen(1e-35, 100, s)
        a200 = dy.quadrupole_coefficient_frozen(1e-35, 200, s)
        assert a200 == pytest.approx(a100 / 4.0, rel=1e-12)

    def test_closed_form_value(self):
        s = rc.frozen_setup(300e3, 0.5, 0.5)
        qs = 1.6e-35
        a = dy.quadrupole_coefficient_frozen(qs, 100, s)
        expected = -qs * s.kin.beta_tilde * s.n * s.B0 * C / (8 * 100**2 * s.R0 * HBAR)
        assert a == pytest.approx(expected, rel=1e-12)

    def test_worked_ring_term_hierarchy(self):
        # quadrupole Hamiltonian term sits ~5-6 orders below the Larmor term
        s = rc.frozen_setup(300e3, 0.5, 0.5)
        L = 100
        q0 = E_CHARGE * (0.5 * mo.beam_diameter(L)) ** 2
        qs = mo.spectroscopic_eqm(q0, L, L)
        a = dy.quadrupole_coefficient_frozen(qs, L, s)
        ratio = abs(2 * a) * L**2 / (s.Omega * L)
        assert -6.5 < math.log10(ratio) < -4.5

    def test_resonance_coefficient_sign(self):
        a = dy.quadrupole_coefficient_resonance(1.6e-35, 10, 1.0e6)
        assert a == pytest.approx(-1.6e-35 * 1e6 / (8 * 100 * HBAR), rel=1e-12)


class TestOracleBasics:
    def test_pure_precession(self):
        # Omega Lz alone: P_z constant, transverse pair rotates rigidly
        scn = tmp_scn(b=0.0, Omega=2.0, kind="vector", theta=0.9, psi=0.4,
                      t_end=6.0, steps=512)
        series = dy.evolve_oracle(scn)
        t = series.times
        assert np.max(np.abs(series.P[:, 2] - np.cos(0.9))) < 1e-9
        norms = np.linalg.norm(series.P, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9
        expected_rho = np.sin(0.9) * np.cos(2.0 * t + 0.4)
        assert np.max(np.abs(series.P[:, 0] - expected_rho)) < 1e-9

    def test_tensor_rotates_rigidly(self):
        scn = tmp_scn(b=0.0, Omega=2.0, kind="vector", theta=0.9, psi=0.4,
                      t_end=6.0, steps=256)
        series = dy.evolve_oracle(scn)
        pt0 = series.Pt[0]
        for i in (50, 128, 255):
            a = 2.0 * series.times[i]
            rot = np.array([[np.cos(a), -np.sin(a), 0.0],
                            [np.sin(a), np.cos(a), 0.0],
                            [0.0, 0.0, 1.0]])
            back = rot.T @ series.Pt[i] @ rot
            assert np.max(np.abs(back - pt0)) < 1e-9

    def test_unitarity_diagnostics(self):
        series = dy.evolve_oracle(frozen_scn(steps=512))
        d = series.diagnostics
        assert d["max_trace_dev"] < 1e-10
        assert d["max_herm_dev"] < 1e-10
        assert d["min_eigenvalue"] > -1e-10

    def test_energy_conservation(self):
        scn = tmp_scn(kind="vector", steps=512)
        ops = am.build_operators(1)
        series, states = dy.evolve_oracle(scn, ops=ops, return_states=True)
        h = dy.build_hamiltonian(scn, ops, 0.0)
        e = np.einsum("ni,ij,nj->n", states.conj(), h, states).real
        assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-9

    def test_von_neumann_identity(self):
        # d rho/dt from the propagated states matches -i[H, rho]
        dt = 1e-4
        scn = frozen_scn(t_end=2 * dt, steps=3)
        ops = am.build_operators(1)
        _, states = dy.evolve_oracle(scn, ops=ops, return_states=True)
        h = dy.build_hamiltonian(scn, ops, 0.0)
        lhs = (states[2] - states[0]) / (2 * dt)
        rhs = -1j * (h @ states[1] - states[1] @ h)
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_convergence_budget_error(self):
        with pytest.raises(ConvergenceError):
            dy.evolve_oracle(resonance_scn(steps=64, drive="linear"), max_halvings=0)

    def test_interval_memory_budget(self):
        scn = resonance_scn(steps=2001, drive="linear")
        with pytest.raises(ConvergenceError, match="GiB budget"):
            dy.evolve_oracle(scn, fixed_substeps=2**20)

    @pytest.mark.parametrize("kw", [
        dict(fixed_substeps=0), dict(fixed_substeps=-1), dict(fixed_substeps=2.5),
        dict(fixed_substeps=True), dict(rtol=0.0), dict(rtol=-1e-9), dict(rtol=math.nan),
    ], ids=["sub-0", "sub-neg", "sub-float", "sub-bool", "rtol-0", "rtol-neg", "rtol-nan"])
    def test_piecewise_arguments_rejected_before_work(self, kw, monkeypatch):
        def no_work(L):
            raise AssertionError("operators built before the arguments were checked")
        monkeypatch.setattr(dy, "build_operators", no_work)
        with pytest.raises(DomainError):
            dy.evolve_oracle(resonance_scn(steps=64, drive="linear"), **kw)

    def test_fixed_substeps_rejected_on_spectral_class(self):
        for scn in (frozen_scn(steps=8), resonance_scn(steps=8)):
            with pytest.raises(DomainError):
                dy.evolve_oracle(scn, fixed_substeps=4)

    @pytest.mark.parametrize("scn, propagator", [
        (frozen_scn(steps=8), "spectral"),
        (tmp_scn(steps=8), "spectral"),
        (resonance_scn(steps=8), "spectral"),
        (resonance_scn(steps=8, drive="linear"), "piecewise"),
    ])
    def test_propagator_named(self, scn, propagator):
        d = dy.evolve_oracle(scn, rtol=1e-6).diagnostics
        assert d["propagator"] == propagator
        assert ("n_substeps" in d) == (propagator == "piecewise")

    def test_convergence_order(self):
        assert _linear_drive_order() > 1.9

    def test_fourth_order(self):
        # the commutator-free Magnus step: the error falls 16x per halving
        assert _linear_drive_order() >= 3.8


def _linear_drive_order():
    """Measured step-halving order on the linear drive of verify criterion 10."""
    scn = dy.DynamicsScenario(mode="resonance", L=1, Omega=2.0, A=0.5,
                              omega_drive=4.0, phi=0.2, theta=1.0, psi=0.5,
                              kind="vector", t_end=2 * np.pi, steps=64,
                              drive="linear")
    finals = []
    for n_sub in (8, 16, 32):
        series = dy.evolve_oracle(scn, fixed_substeps=n_sub)
        finals.append(np.concatenate([series.P[-1], series.Pt[-1].ravel()]))
    d1 = np.max(np.abs(finals[0] - finals[1]))
    d2 = np.max(np.abs(finals[1] - finals[2]))
    return math.log2(d1 / d2)


def _reference_state(scn, ops):
    """The scenario's initial state built from am_core alone: a vector or a density matrix."""
    if scn.kind == "vector":
        return am.coherent_state(ops, scn.theta, scn.psi).data
    return am.tensor_mixture(ops, scn.theta, scn.psi).data


def _expm_reference(series, scn, ops, generator):
    """P/Pt of U(t) state0 (U(t)^dagger) with U(t) = generator(t) from scipy's expm."""
    data = _reference_state(scn, ops)
    states = []
    for t in series.times:
        u = generator(t)
        states.append(u @ data if data.ndim == 1 else u @ data @ u.conj().T)
    return am.polarization_batch(np.array(states), ops)


class TestSpectralOracle:
    @pytest.mark.parametrize("scn", [
        frozen_scn(L=20, A=-0.7, theta=1.1, psi=2.3, t_end=1.0, steps=41),
        tmp_scn(L=2, kind="vector", theta=0.9, psi=0.4, t_end=5.0, steps=301),
    ], ids=["frozen-L20-tensor", "tmp-L2-vector"])
    def test_static_matches_expm(self, scn):
        from scipy.linalg import expm
        ops = am.build_operators(scn.L)
        h = dy.build_hamiltonian(scn, ops, 0.0)
        series = dy.evolve_oracle(scn, ops=ops)
        p, pt = _expm_reference(series, scn, ops, lambda t: expm(-1j * t * h))
        assert np.max(np.abs(series.P - p)) < 1e-10
        assert np.max(np.abs(series.Pt - pt)) < 1e-10

    @pytest.mark.parametrize("L", [1, 3])
    @pytest.mark.parametrize("kind", ["vector", "tensor"])
    def test_corotating_matches_rotating_frame_expm(self, L, kind):
        # U(t) = exp(-i (omega t/2) Lz) exp(-i H_rot t), each factor from expm
        from scipy.linalg import expm
        scn = resonance_scn(L=L, kind=kind, Omega=1.8, A=0.4, omega_drive=3.3,
                            phi=0.35, theta=1.2, psi=0.6, t_end=3 * np.pi, steps=97)
        ops = am.build_operators(L)
        h_rot = dy.build_hamiltonian(scn, ops, 0.0) - 0.5 * scn.omega_drive * ops.Lz
        series = dy.evolve_oracle(scn, ops=ops)
        p, pt = _expm_reference(
            series, scn, ops,
            lambda t: expm(-0.5j * scn.omega_drive * t * ops.Lz) @ expm(-1j * t * h_rot))
        assert np.max(np.abs(series.P - p)) < 1e-10
        assert np.max(np.abs(series.Pt - pt)) < 1e-10

    def test_corotating_frame_solves_lab_equation(self):
        # independent of the frame reduction: i d(rho)/dt = [H(t), rho] with the lab H(t)
        scn = resonance_scn(L=2, phi=0.4, omega_drive=0.6, t_end=3.0, steps=30001)
        ops = am.build_operators(2)
        _, states = dy.evolve_oracle(scn, ops=ops, return_states=True)
        times = scn.times()
        dt = times[1]
        for k in (1, 7700, 29000):
            h = dy.build_hamiltonian(scn, ops, times[k])
            lhs = (states[k + 1] - states[k - 1]) / (2 * dt)
            rhs = -1j * (h @ states[k] - states[k] @ h)
            assert np.max(np.abs(lhs - rhs)) < 1e-7

    @pytest.mark.parametrize("scn", [
        frozen_scn(L=3, steps=1003),
        tmp_scn(L=3, kind="vector", steps=1003),
        resonance_scn(L=2, steps=1003),
        resonance_scn(L=1, steps=257, drive="linear"),
    ], ids=["frozen", "tmp-vector", "corotating", "linear"])
    def test_block_split_invariant(self, scn, monkeypatch):
        # 1003 and 257 samples are not multiples of 2, 7 or 64.  A one-sample
        # block goes through BLAS's matrix-vector kernel, whose rounding may
        # differ in the last bit from the matrix-matrix kernel's.
        whole = dy.evolve_oracle(scn, rtol=1e-6)
        _, members = dy.initial_state(scn, am.build_operators(scn.L))
        state_bytes = members.nbytes
        for per_block in (1, 2, 7, 64):
            monkeypatch.setattr(dy, "_BLOCK_BYTES", per_block * state_bytes)
            split = dy.evolve_oracle(scn, rtol=1e-6)
            assert np.max(np.abs(split.P - whole.P)) <= 1e-14
            assert np.max(np.abs(split.Pt - whole.Pt)) <= 1e-14
            assert split.diagnostics == whole.diagnostics


class TestPiecewiseOracle:
    @pytest.mark.parametrize("L, kind", [(1, "vector"), (2, "vector"),
                                         (1, "tensor"), (2, "tensor")],
                             ids=["1", "2", "tensor-1", "tensor-2"])
    def test_linear_drive_matches_ode_solver(self, L, kind):
        # an independent integrator of i d(psi)/dt = H(t) psi, or of
        # i d(rho)/dt = [H(t), rho] on the flattened rho: a propagator that
        # samples H(t) at shifted times still self-converges, but not to this
        from scipy.integrate import solve_ivp
        scn = resonance_scn(L=L, kind=kind, Omega=2.0, A=0.4, omega_drive=4.3,
                            phi=0.3, theta=1.1, psi=0.5, t_end=2 * np.pi, steps=97,
                            drive="linear")
        ops = am.build_operators(L)
        series = dy.evolve_oracle(scn, ops=ops, rtol=1e-10)
        state0 = _reference_state(scn, ops)
        shape = state0.shape

        def rhs(t, y):
            h = dy.build_hamiltonian(scn, ops, t)
            if len(shape) == 1:
                return -1j * (h @ y)
            rho = y.reshape(shape)
            return (-1j * (h @ rho - rho @ h)).ravel()

        sol = solve_ivp(rhs, (0.0, scn.t_end), state0.ravel(), method="DOP853",
                        t_eval=series.times, rtol=1e-12, atol=1e-13)
        p, pt = am.polarization_batch(sol.y.T.reshape((-1,) + shape), ops)
        assert np.max(np.abs(series.P - p)) < 1e-9
        assert np.max(np.abs(series.Pt - pt)) < 1e-9

    def test_long_run_preserves_norm_and_trace(self):
        # 500 intervals of 64 substeps each: the products of the substep
        # unitaries drift off the unitary group unless they are projected back
        scn = resonance_scn(Omega=2.0, A=0.1, omega_drive=4.3, phi=0.1, t_end=5.0,
                            steps=501, drive="linear")
        d = dy.evolve_oracle(scn, fixed_substeps=64).diagnostics
        assert d["max_norm_dev"] < 1e-13
        assert d["max_trace_dev"] < 1e-13

    @pytest.mark.parametrize("intervals_per_chunk", [1, 5])
    def test_chunk_split_invariant(self, intervals_per_chunk, monkeypatch):
        # 63 intervals of 8 substeps: one per chunk, or 5 per chunk with a
        # 3-interval remainder
        scn = resonance_scn(steps=64, drive="linear")
        ops = am.build_operators(1)
        _, members = dy.initial_state(scn, ops)
        whole = dy._propagate(scn, ops, members, 8)
        monkeypatch.setattr(dy, "_CHUNK_BYTES", intervals_per_chunk * 8 * ops.dim**2 * 16)
        split = dy._propagate(scn, ops, members, 8)
        assert np.max(np.abs(split - whole)) <= 1e-15


class TestClosedFormTmp:
    def test_initial_zero(self):
        series = dy.closed_form_tmp(tmp_scn())
        assert np.allclose(series.P[0], 0.0)

    def test_point_value(self):
        # theta=pi/4, Omega=0, psi=0, b=1: P_phi(pi/2) = 1/2
        scn = tmp_scn(Omega=0.0, b=1.0, theta=np.pi / 4, psi=0.0,
                      t_end=np.pi, steps=3)
        series = dy.closed_form_tmp(scn)
        assert series.P[1, 1] == pytest.approx(0.5, rel=1e-12)

    def test_zero_tilt_stays_zero(self):
        series = dy.closed_form_tmp(tmp_scn(theta=0.0))
        assert np.max(np.abs(np.nan_to_num(series.P))) == 0.0

    def test_requires_tensor_kind(self):
        with pytest.raises(DomainError):
            dy.closed_form_tmp(tmp_scn(kind="vector"))

    def test_mode_guard(self):
        with pytest.raises(DomainError):
            dy.closed_form_tmp(frozen_scn())

    def test_oracle_matches_pointwise(self):
        scn = tmp_scn(steps=1024)
        rep = dy.oracle_vs_closed_form(scn)
        assert rep.max_abs_deviation < 1e-6
        assert rep.amplitude_factor == pytest.approx(1.0, abs=1e-6)

    def test_spectral_lines_at_omega_pm_b(self):
        scn = tmp_scn(steps=8192, t_end=32 * 2 * np.pi)
        series = dy.evolve_oracle(scn)
        peaks = dy.dominant_frequencies(series.times, series.P[:, 1], n_peaks=2)
        freqs = sorted(p[0] for p in peaks)
        assert freqs[0] == pytest.approx(8.0 - 1.0, rel=1e-3)
        assert freqs[1] == pytest.approx(8.0 + 1.0, rel=1e-3)


class TestClosedFormFrozen:
    def test_vector_initial_value(self):
        scn = frozen_scn(kind="vector", theta=0.8)
        series = dy.closed_form_frozen(scn)
        assert series.P[0, 2] == pytest.approx(np.cos(0.8), rel=1e-12)

    def test_tensor_zero_tilt(self):
        series = dy.closed_form_frozen(frozen_scn(theta=0.0))
        assert np.max(np.abs(series.P[:, 2])) == 0.0

    def test_tensor_quarter_period(self):
        # 2At = pi/2 with A = 0.5 at t = pi/2
        scn = frozen_scn(t_end=np.pi, steps=3)
        series = dy.closed_form_frozen(scn)
        assert series.P[1, 2] == pytest.approx(0.5, rel=1e-12)

    def test_oracle_frequency_2A(self):
        rep = dy.oracle_vs_closed_form(frozen_scn(steps=8192, t_end=32 * 2 * np.pi))
        assert rep.freq_expected == pytest.approx(1.0)
        assert rep.freq_oracle_rel_err < 1e-3
        assert rep.max_abs_deviation < 1e-6

    def test_theta_zero_vector_regime(self):
        # fully z-polarized vector beam: closed form P_z = cos(2At); the
        # oracle confirms this regime is real, not a formula artifact
        scn = frozen_scn(kind="vector", theta=0.0, steps=1024)
        rep = dy.oracle_vs_closed_form(scn)
        assert rep.max_abs_deviation < 1e-9

    def test_stretched_factor_L2(self):
        # dominant P_z tone for L=2 sits at (2L-1) * 2A
        scn = frozen_scn(L=2, steps=8192, t_end=16 * 2 * np.pi)
        rep = dy.oracle_vs_closed_form(scn)
        assert rep.freq_expected == pytest.approx(3.0)
        assert rep.freq_oracle_rel_err < 1e-2


class TestClosedFormResonance:
    def test_zero_coupling_tensor(self):
        scn = resonance_scn(A=0.0, omega_drive=0.6)
        series = dy.closed_form_resonance(scn)
        assert np.max(np.abs(series.P[:, 2])) == 0.0

    def test_exact_resonance_envelope(self):
        scn = resonance_scn(t_end=4 * np.pi, steps=4097)
        series = dy.closed_form_resonance(scn)
        expected = 0.5 * np.sin(series.times) * np.sin(2 * (np.pi / 4))
        assert np.max(np.abs(series.P[:, 2] - expected)) < 1e-12

    def test_vector_initial_value(self):
        scn = resonance_scn(kind="vector", theta=0.7)
        series = dy.closed_form_resonance(scn)
        assert series.P[0, 2] == pytest.approx(np.cos(0.7), rel=1e-12)

    def test_degenerate_domain_error(self):
        scn = resonance_scn(A=0.0, Omega=0.5, omega_drive=1.0)
        with pytest.raises(DomainError):
            dy.closed_form_resonance(scn)

    def test_corotating_oracle_exact(self):
        rep = dy.oracle_vs_closed_form(resonance_scn())
        assert rep.max_abs_deviation < 1e-6
        assert rep.rwa_amplitude_bound is None

    def test_linear_drive_within_rwa_bound(self):
        scn = resonance_scn(Omega=25.0, omega_drive=50.0, A=1.0, drive="linear",
                            t_end=2 * np.pi, steps=256)
        rep = dy.oracle_vs_closed_form(scn, oracle_rtol=1e-8)
        assert rep.rwa_amplitude_bound == pytest.approx(0.1)
        assert rep.max_abs_deviation < rep.rwa_amplitude_bound


class TestResonanceScan:
    def test_argmax_and_envelope(self):
        base = resonance_scn(Omega=50.0, omega_drive=100.0, t_end=np.pi, steps=2001)
        grid = 100.0 + np.linspace(-20, 20, 41)
        res = dy.resonance_scan(base, grid)
        assert res.omegas[res.argmax_index] == pytest.approx(100.0)
        assert res.peaks[res.argmax_index] == pytest.approx(0.5, abs=1e-5)
        det = np.abs(res.omegas - 100.0)
        tail = det >= 3.0
        assert np.all(res.peaks[tail] <= 1.1 / det[tail])

    def test_flat_zero_for_zero_coupling(self):
        base = resonance_scn(A=0.0, t_end=np.pi, steps=64)
        res = dy.resonance_scan(base, [99.0, 100.0, 101.0])
        assert np.all(res.peaks == 0.0)

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            dy.resonance_scan(resonance_scn(), [])

    @pytest.mark.parametrize("kind", ["vector", "tensor"])
    def test_blocks_match_per_frequency_closed_form(self, kind, monkeypatch):
        # 23 frequencies, with 2 Omega among them, in blocks of 1, 4 (with a
        # 3-row remainder) and all at once
        base = resonance_scn(kind=kind, Omega=50.0, phi=0.4, theta=1.1, psi=0.3,
                             t_end=np.pi, steps=1001)
        grid = np.linspace(89.0, 111.0, 23)
        expected = [np.nanmax(np.abs(dy.closed_form_resonance(
            replace(base, omega_drive=w)).P[:, 2])) for w in grid]
        row_bytes = dy._SCAN_ARRAYS * base.times().nbytes
        for rows in (1, 4, len(grid)):
            monkeypatch.setattr(dy, "_BLOCK_BYTES", rows * row_bytes)
            assert np.array_equal(dy.resonance_scan(base, grid).peaks, expected)

    def test_zero_coupling_on_resonance_raises(self, monkeypatch):
        base = resonance_scn(A=0.0, t_end=np.pi, steps=64)
        monkeypatch.setattr(dy, "_BLOCK_BYTES", 2 * dy._SCAN_ARRAYS * base.times().nbytes)
        with pytest.raises(DomainError, match="A = 0 at zero detuning"):
            dy.resonance_scan(base, [0.3, 0.4, 0.5, 0.6])

    def test_with_oracle(self):
        base = resonance_scn(t_end=np.pi / 2, steps=128)
        grid = [0.4, 0.5, 0.6]
        res = dy.resonance_scan(base, grid, with_oracle=True, oracle_rtol=1e-6)
        assert res.oracle_peaks is not None
        assert np.max(np.abs(res.oracle_peaks - res.peaks)) < 1e-4


class TestLevelSplitting:
    def test_zero_gradient(self):
        ops = am.build_operators(1)
        tab = dy.level_splitting(ops, 1e-35, 1, 0.0)
        assert np.all(tab.shifts == 0.0)

    def test_L1_ratios(self):
        ops = am.build_operators(1)
        tab = dy.level_splitting(ops, 1.6e-35, 1, -1e4)
        ratios = np.sort(tab.shifts / np.max(np.abs(tab.shifts)))
        assert np.allclose(ratios, [0.0, 1.0, 1.0], atol=1e-12)

    def test_linear_in_gradient(self):
        ops = am.build_operators(2)
        t1 = dy.level_splitting(ops, 1e-35, 2, -1e3)
        t2 = dy.level_splitting(ops, 1e-35, 2, -2e3)
        assert np.allclose(t2.shifts, 2.0 * t1.shifts, rtol=1e-12)

    def test_shift_sum_matches_operator_trace(self):
        for L in (1, 2, 5):
            ops = am.build_operators(L)
            tab = dy.level_splitting(ops, 1.3e-35, L, -4e3)
            expected = tab.coefficient * L * (L + 1) * (2 * L + 1) / 3.0
            assert np.sum(tab.shifts) == pytest.approx(expected, rel=1e-12)

    def test_labels_carry_projection(self):
        ops = am.build_operators(1)
        tab = dy.level_splitting(ops, 1e-35, 1, -1e3)
        labels = [label for label, _ in tab.levels]
        assert labels[0].startswith("m_r=+1")
        assert labels[1].startswith("m_r=+0")
        assert labels[2].startswith("m_r=-1")


class TestSpectralEstimator:
    def test_two_tone_accuracy(self):
        t = np.linspace(0.0, 40 * 2 * np.pi / 7.3, 8192)
        y = 0.4 * np.sin(7.3 * t + 0.2) + 0.25 * np.sin(9.1 * t + 1.0)
        peaks = dy.dominant_frequencies(t, y, n_peaks=2)
        freqs = sorted(p[0] for p in peaks)
        assert freqs[0] == pytest.approx(7.3, rel=5e-4)
        assert freqs[1] == pytest.approx(9.1, rel=5e-4)

    @pytest.mark.parametrize("n", [0, 1])
    def test_needs_two_samples(self, n):
        with pytest.raises(DomainError, match="2 samples"):
            dy.dominant_frequencies(np.zeros(n), np.ones(n))

    def test_needs_uniform_grid(self):
        t = np.array([0.0, 0.1, 0.3, 0.4])
        with pytest.raises(DomainError):
            dy.dominant_frequencies(t, np.zeros_like(t))


class TestSeriesSerialization:
    def test_csv_header_and_shape(self):
        series = dy.closed_form_frozen(frozen_scn(steps=5))
        buf = io.StringIO()
        dy.write_series_csv(series, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,P_rho,P_phi,P_z,P_rr,P_pp,P_zz,P_rp,P_rz,P_pz,source"
        assert len(lines) == 6
        assert lines[1].endswith(",closed_form")
        assert lines[1].split(",")[1] == "nan"   # P_rho undefined in frozen closed form

    def test_csv_full_precision_round_trip(self):
        series = dy.evolve_oracle(frozen_scn(steps=17))
        buf = io.StringIO()
        dy.write_series_csv(series, buf)
        row = buf.getvalue().splitlines()[3].split(",")
        assert float(row[3]) == series.P[2, 2]

    def test_csv_deterministic(self):
        a, b = io.StringIO(), io.StringIO()
        dy.write_series_csv(dy.evolve_oracle(frozen_scn(steps=33)), a)
        dy.write_series_csv(dy.evolve_oracle(frozen_scn(steps=33)), b)
        assert a.getvalue() == b.getvalue()

    def test_csv_bytes_match_per_cell_format(self):
        def per_cell(series):
            lines = [dy.SERIES_CSV_HEADER + "\n"]
            for i in range(len(series)):
                p, t = series.P[i], series.Pt[i]
                row = [series.times[i], p[0], p[1], p[2],
                       t[0, 0], t[1, 1], t[2, 2], t[0, 1], t[0, 2], t[1, 2]]
                lines.append(",".join(f"{x:.17g}" for x in row) + f",{series.source}\n")
            return "".join(lines)

        # frozen and resonance closed forms carry NaN columns; tmp at theta = 0
        # carries -0.0; 9000 rows span three write blocks; the hand-built
        # series has columns that are NaN or infinite in some rows only
        closed_tmp = dy.closed_form_tmp(tmp_scn(theta=0.0, steps=9000))
        assert np.any(np.signbit(closed_tmp.P) & (closed_tmp.P == 0.0))
        for series in (closed_tmp, partly_defined_series(), empty_series(),
                       dy.closed_form_frozen(frozen_scn(steps=4099)),
                       dy.closed_form_resonance(resonance_scn(steps=300)),
                       dy.evolve_oracle(frozen_scn(L=2, steps=300)),
                       dy.evolve_oracle(resonance_scn(steps=65, drive="linear"), rtol=1e-6)):
            buf = io.StringIO()
            dy.write_series_csv(series, buf)
            assert buf.getvalue() == per_cell(series)

    @pytest.mark.parametrize("series", [
        dy.closed_form_tmp(tmp_scn(theta=0.0, steps=301)),
        dy.closed_form_frozen(frozen_scn(steps=301)),
        dy.closed_form_resonance(resonance_scn(kind="vector", steps=301)),
        dy.evolve_oracle(frozen_scn(L=2, steps=301)),
        partly_defined_series(),
        empty_series(),
    ], ids=["tmp", "frozen", "resonance", "oracle", "partly-defined", "empty"])
    def test_json_bytes_match_json_dumps(self, series):
        pt = series.Pt
        doc = {"t": series.times, "P_rho": series.P[:, 0], "P_phi": series.P[:, 1],
               "P_z": series.P[:, 2], "P_rr": pt[:, 0, 0], "P_pp": pt[:, 1, 1],
               "P_zz": pt[:, 2, 2], "P_rp": pt[:, 0, 1], "P_rz": pt[:, 0, 2],
               "P_pz": pt[:, 1, 2]}
        doc = {k: [None if math.isnan(x) else x for x in v.tolist()] for k, v in doc.items()}
        doc["source"] = series.source
        buf = io.StringIO()
        dy.write_series_json(series, buf)
        assert buf.getvalue() == json.dumps(doc, indent=2) + "\n"

    def test_json_dict_nan_handling(self):
        buf = io.StringIO()
        dy.write_series_json(dy.closed_form_frozen(frozen_scn(steps=4)), buf)
        doc = json.loads(buf.getvalue())
        assert doc["source"] == "closed_form"
        assert doc["P_rho"][0] is None
        assert doc["P_z"][0] == 0.0

    def test_validate_rejects_bad_times(self):
        series = dy.closed_form_frozen(frozen_scn(steps=8))
        series.times[3] = series.times[2]
        with pytest.raises(DomainError):
            series.validate()
