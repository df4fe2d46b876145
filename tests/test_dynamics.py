import io
import math

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
            dy.evolve_oracle(resonance_scn(steps=64), max_halvings=0)

    def test_convergence_order(self):
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
        assert math.log2(d1 / d2) > 1.9


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

    def test_json_dict_nan_handling(self):
        doc = dy.series_to_dict(dy.closed_form_frozen(frozen_scn(steps=4)))
        assert doc["source"] == "closed_form"
        assert doc["P_rho"][0] is None
        assert doc["P_z"][0] == 0.0

    def test_validate_rejects_bad_times(self):
        series = dy.closed_form_frozen(frozen_scn(steps=8))
        series.times[3] = series.times[2]
        with pytest.raises(DomainError):
            series.validate()
