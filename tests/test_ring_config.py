import math
import re

import numpy as np
import pytest

from oamsim import ring_config as rc
from oamsim.constants import C, E_CHARGE, HBAR, LAMBDA_BAR_C, M2_FIELD_T, M_E, M_E_C2_EV
from oamsim.errors import DomainError


class TestKinematics:
    def test_at_rest(self):
        kin = rc.kinematics(0.0)
        assert kin.gamma == 1.0
        assert kin.beta_tilde == 0.0

    def test_300kev_beta(self):
        kin = rc.kinematics(300e3)
        assert abs(kin.beta_tilde - 0.777) < 1e-3

    def test_gamma_arithmetic(self):
        kin = rc.kinematics(300e3)
        gamma = 1.0 + 300e3 / M_E_C2_EV
        assert kin.gamma == pytest.approx(gamma, rel=1e-14)
        assert kin.beta_tilde == pytest.approx(math.sqrt(1 - 1 / gamma**2), rel=1e-14)

    def test_negative_energy(self):
        with pytest.raises(DomainError):
            rc.kinematics(-1.0)

    def test_gamma_squared_overflow_is_a_domain_error(self):
        # gamma**2 overflows from about 6.9e159 eV; the energy just below still works
        assert rc.kinematics(6.8e159).beta_tilde == 1.0
        for energy in (7e159, 3e305, 1e308):
            with pytest.raises(DomainError, match="gamma\\*\\*2 beyond the float range"):
                rc.kinematics(energy)


class TestFrozenSetup:
    def test_worked_example(self):
        s = rc.frozen_setup(300e3, 0.5, 0.5)
        assert abs(s.kin.beta_tilde - 0.777) < 1e-3
        assert abs(s.B0 - 0.0148) / 0.0148 < 1e-2
        assert abs(abs(s.E) - 2.46e6) / 2.46e6 < 1e-2
        assert abs(s.omega / (2 * math.pi) - 7.41e7) / 7.41e7 < 1e-2

    def test_radius_round_trip(self):
        s = rc.frozen_setup(300e3, 0.5, 0.5)
        assert abs(s.kin.velocity / s.omega - 0.5) / 0.5 < 1e-10

    def test_arbitrary_setup_residual(self):
        s = rc.frozen_setup(100e3, 1.0, 0.3)
        assert rc.frozen_residual(s) < 1e-10

    def test_field_relation_round_trip(self):
        # B0 = (2/beta^2 - 1) beta x E re-substituted, 50 random setups
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = rc.frozen_setup(rng.uniform(50e3, 2e6), rng.uniform(0.1, 5.0), 0.4)
            beta = s.kin.beta_tilde
            lhs = s.B0
            rhs = -(2.0 / beta**2 - 1.0) * beta * s.E / C
            assert abs(lhs - rhs) / abs(lhs) < 1e-10
            # R0 * omega = V
            assert abs(s.R0 * s.omega - s.kin.velocity) / s.kin.velocity < 1e-12

    def test_b0_monotone_in_energy(self):
        energies = np.linspace(50e3, 2e6, 25)
        b0s = [rc.frozen_setup(e, 1.0, 0.5).B0 for e in energies]
        assert np.all(np.diff(b0s) > 0)

    @pytest.mark.parametrize("energy,r0,n", [(0.0, 1.0, 0.5), (1e5, -1.0, 0.5),
                                             (1e5, 1.0, 0.0), (1e5, 1.0, 1.0)])
    def test_rejects_bad_inputs(self, energy, r0, n):
        with pytest.raises(DomainError):
            rc.frozen_setup(energy, r0, n)

    @pytest.mark.parametrize("energy, message", [
        # gamma rounds to 1, so beta is 0 and 2 / beta**2 has no value
        (5e-324, "rounds beta to 0"), (1e-300, "rounds beta to 0"), (1e-11, "rounds beta to 0"),
        # B0 grows as gamma**3 and overflows before gamma**2 does
        (1e108, "fields at 1e+108 eV and R0 = 0.5 m are beyond the float range"),
        (1e155, "beyond the float range"),
        # gamma**2 overflows
        (1e200, "puts gamma**2 beyond the float range"), (1e308, "gamma**2")])
    def test_energies_past_the_float_range_are_domain_errors(self, energy, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            rc.frozen_setup(energy, 0.5, 0.5)

    def test_fields_past_the_float_range_at_a_small_radius(self):
        assert math.isfinite(rc.frozen_setup(3e5, 1e-150, 0.5).Omega)
        with pytest.raises(DomainError, match="beyond the float range"):
            rc.frozen_setup(3e5, 1e-300, 0.5)

    def test_field_gradients_past_the_float_range_at_a_small_radius(self):
        # the gradients grow as 1/R0^2 and overflow before the fields do
        setup = rc.frozen_setup(3e5, 1e-151, 0.5)
        assert all(map(math.isfinite, rc.field_gradients(setup)))
        with pytest.raises(DomainError, match="R0 = 1e-152 m are beyond the float range"):
            rc.frozen_setup(3e5, 1e-152, 0.5)


@pytest.mark.parametrize("call", [
    lambda: rc.kinematics(math.nan), lambda: rc.kinematics(math.inf),
    lambda: rc.frozen_setup(math.nan, 0.5, 0.5), lambda: rc.frozen_setup(math.inf, 0.5, 0.5),
    lambda: rc.frozen_setup(3e5, math.nan, 0.5), lambda: rc.frozen_setup(3e5, math.inf, 0.5),
    lambda: rc.frozen_setup(3e5, 0.5, math.nan),
    lambda: rc.landau_geometry(math.nan, 0, 1), lambda: rc.landau_geometry(-math.inf, 0, 1),
    lambda: rc.landau_geometry(1.0, math.nan, 1), lambda: rc.landau_geometry(1.0, 0, math.nan),
    lambda: rc.landau_geometry(1.0, 0, math.inf),
], ids=["kin-nan", "kin-inf", "frozen-energy-nan", "frozen-energy-inf", "frozen-R0-nan",
        "frozen-R0-inf", "frozen-n-nan", "landau-B-nan", "landau-B-inf", "landau-n_r-nan",
        "landau-l_z-nan", "landau-l_z-inf"])
def test_non_finite_inputs_rejected(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("B, l_z, message", [
    (1e-310, 0, "beam waist at B = 1e-310 T is beyond the float range: |e B| underflows to 0"),
    (-1e-306, 3, "beam waist at B = -1e-306 T is beyond the float range: "
                 "|e B| underflows to 0"),
    (1e-303, 10**21, f"<r^2> of the Landau state at B = 1e-303 T, n_r = 0, l_z = {10**21} "
                     "is beyond the float range"),
], ids=["B-underflow", "negative-B-underflow", "mean-r2-overflow"])
def test_landau_geometry_past_the_float_range_rejected(B, l_z, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        rc.landau_geometry(B, 0, l_z)


@pytest.mark.parametrize("n_r, l_z", [(0, 10**400), (0, -10**400), (10**400, 0)],
                         ids=["l_z", "negative-l_z", "n_r"])
def test_landau_geometry_integers_past_the_float_range_rejected(n_r, l_z):
    # an integer is finite; its <r^2> is not a float
    message = (f"<r^2> of the Landau state at B = 1.0 T, n_r = {n_r}, l_z = {l_z} "
               "is beyond the float range")
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        rc.landau_geometry(1.0, n_r, l_z)


def test_landau_geometry_near_the_float_range_keeps_its_formula():
    geo = rc.landau_geometry(1e-303, 0, 1)
    w_m = 2.0 * math.sqrt(HBAR / (E_CHARGE * 1e-303))
    assert (geo.w_m, geo.mean_r2) == (w_m, 0.5 * w_m**2 * 2)


class TestLarmorOmega:
    def test_zero_fields(self):
        kin = rc.kinematics(300e3)
        assert rc.larmor_omega(kin, 0.0, 0.0) == 0.0

    def test_pure_magnetic(self):
        # orbital moment precession |e| B / (2 gamma m); the worked-ring field
        # gives 8.20e8 rad/s at 300 keV
        kin = rc.kinematics(300e3)
        omega = rc.larmor_omega(kin, 0.0148, 0.0)
        expected = E_CHARGE * 0.0148 / (2.0 * kin.gamma * M_E)
        assert omega == pytest.approx(expected, rel=1e-14)
        assert abs(omega - 8.20e8) / 8.20e8 < 1e-2

    def test_frozen_fields_match_orbit(self):
        s = rc.frozen_setup(300e3, 0.5, 0.5)
        omega = rc.larmor_omega(s.kin, s.B0, s.E)
        assert abs(omega - 2 * math.pi * 7.41e7) / (2 * math.pi * 7.41e7) < 1e-2
        assert abs(omega - s.omega) / s.omega < 1e-12


class TestFieldGradients:
    def test_zero_index(self):
        s = rc.frozen_setup(300e3, 0.5, 0.5)
        flat = rc.RingSetup(kin=s.kin, B0=s.B0, E=s.E, R0=s.R0, n=0.0,
                            omega=s.omega, Omega=s.Omega)
        assert rc.field_gradients(flat) == (0.0, 0.0)

    def test_worked_example_gradient(self):
        s = rc.frozen_setup(300e3, 0.5, 0.5)
        dbz, der = rc.field_gradients(s)
        assert abs(dbz - (-0.5 * s.B0 / 0.5)) < 1e-12
        assert der == pytest.approx(s.kin.beta_tilde * dbz * C, rel=1e-14)
        assert abs(dbz + 0.0148) < 2e-4


class TestLandauGeometry:
    def test_waist_1T(self):
        geo = rc.landau_geometry(1.0, 0, 0)
        assert abs(geo.w_m - 5.1e-8) / 5.1e-8 < 1e-2

    def test_ground_state_radius(self):
        geo = rc.landau_geometry(1.0, 0, 0)
        assert geo.mean_r2 == pytest.approx(0.5 * geo.w_m**2, rel=1e-14)
        assert abs(geo.mean_r2 - 1.31e-15) / 1.31e-15 < 1e-2

    def test_inverse_sqrt_scaling(self):
        w1 = rc.landau_geometry(1.0, 0, 0).w_m
        w4 = rc.landau_geometry(4.0, 0, 0).w_m
        assert w4 == pytest.approx(0.5 * w1, rel=1e-12)

    def test_linear_scaling_in_quanta(self):
        w = rc.landau_geometry(2.0, 0, 0).w_m
        for n_r, l_z in [(0, 0), (1, 0), (0, 5), (3, -7)]:
            geo = rc.landau_geometry(2.0, n_r, l_z)
            assert geo.mean_r2 == pytest.approx(
                0.5 * w**2 * (2 * n_r + abs(l_z) + 1), rel=1e-12)

    def test_rejects_zero_field(self):
        with pytest.raises(DomainError):
            rc.landau_geometry(0.0, 0, 0)

    def test_rejects_negative_n_r(self):
        with pytest.raises(DomainError):
            rc.landau_geometry(1.0, -1, 0)


class TestFrozenResidual:
    def test_by_construction(self):
        assert rc.frozen_residual(rc.frozen_setup(300e3, 0.5, 0.5)) < 1e-10

    def test_perturbed_field(self):
        s = rc.frozen_setup(300e3, 0.5, 0.5)
        bumped = rc.RingSetup(kin=s.kin, B0=1.01 * s.B0, E=s.E, R0=s.R0, n=s.n,
                              omega=s.omega,
                              Omega=rc.larmor_omega(s.kin, 1.01 * s.B0, s.E))
        res = rc.frozen_residual(bumped)
        # +1% on B0 shifts Omega by 0.01 * |e| B0/(2 gamma m) relative to omega
        expected = 0.01 * E_CHARGE * s.B0 / (2 * s.kin.gamma * M_E) / s.omega
        assert res == pytest.approx(expected, rel=1e-6)

    def test_electric_field_removed(self):
        s = rc.frozen_setup(300e3, 0.5, 0.5)
        no_e = rc.RingSetup(kin=s.kin, B0=s.B0, E=0.0, R0=s.R0, n=s.n,
                            omega=s.omega, Omega=rc.larmor_omega(s.kin, s.B0, 0.0))
        res = rc.frozen_residual(no_e)
        expected = abs(E_CHARGE * s.B0 / (2 * s.kin.gamma * M_E) - s.omega) / s.omega
        assert res == pytest.approx(expected, rel=1e-12)
        assert res > 0.5

    def test_zero_omega(self):
        s = rc.frozen_setup(300e3, 0.5, 0.5)
        stopped = rc.RingSetup(kin=s.kin, B0=s.B0, E=s.E, R0=s.R0, n=s.n,
                               omega=0.0, Omega=s.Omega)
        with pytest.raises(DomainError):
            rc.frozen_residual(stopped)


class TestConstantsTable:
    def test_compton_wavelength(self):
        assert abs(LAMBDA_BAR_C - 3.86e-13) / 3.86e-13 < 2e-3

    def test_mass_squared_field_scale(self):
        assert abs(M2_FIELD_T - 4.41e9) / 4.41e9 < 2e-3

    def test_against_scipy_codata(self):
        from scipy import constants as sc
        assert M_E == pytest.approx(sc.m_e, rel=1e-9)
        assert E_CHARGE == sc.e
        assert LAMBDA_BAR_C == pytest.approx(
            sc.physical_constants["reduced Compton wavelength"][0], rel=1e-9)
