import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oamsim
from oamsim import am_core as am
from oamsim import moments as mo
from oamsim import ring_config as rc
from oamsim.constants import E_CHARGE, HBAR_C_EV_M, LAMBDA_BAR_C, M_E_C2_EV
from oamsim.errors import ConfigError, DomainError


class TestTmpPolarizability:
    def test_reference_value(self):
        assert abs(mo.tmp_electron() - 5.25e4) / 5.25e4 < 5e-3

    def test_deuteron_ratio(self):
        ratio = mo.tmp_electron() / 0.195
        assert 2.6e5 < ratio < 2.8e5


class TestTmpEnergyShift:
    def test_zero_field(self):
        assert mo.tmp_energy_shift(5.25e4, 10, 0.0, 0.0) == 0.0

    def test_perpendicular(self):
        assert abs(mo.tmp_energy_shift(5.25e4, 100, 1.0, math.pi / 2)) < 1e-15

    def test_dual_route_conversion(self):
        # package route (SI, 4*pi/mu_0) against frozen cgs arithmetic
        value = mo.tmp_energy_shift(mo.tmp_electron(), 100, 1.0, 0.0)
        beta_cm3 = mo.tmp_electron() * 1e-39      # fm^3 -> cm^3
        b_gauss_sq = (1.0e4) ** 2                 # (1 T)^2 in G^2
        hbar_cgs = 1.054571817e-27                # erg s
        cgs = -beta_cm3 * b_gauss_sq * 100**2 / hbar_cgs
        assert value == pytest.approx(cgs, rel=1e-9)
        assert value == pytest.approx(-4.9803e4, rel=1e-4)

    def test_matches_dynamics_coefficient(self):
        b = mo.tmp_coefficient(1.0)
        assert mo.tmp_energy_shift(mo.tmp_electron(), 100, 1.0, 0.0) == pytest.approx(
            b * 100**2, rel=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            mo.tmp_energy_shift(5.25e4, 0, 1.0, 0.0)
        with pytest.raises(DomainError):
            mo.tmp_energy_shift(5.25e4, 1, -1.0, 0.0)


class TestIntrinsicEqm:
    def test_landau_closed_form(self):
        geo = rc.landau_geometry(1.0, 0, 100)
        q0 = mo.intrinsic_eqm(geo.mean_r2)
        assert q0 == pytest.approx(E_CHARGE * 0.5 * geo.w_m**2 * 101, rel=1e-12)
        assert q0 > 0

    def test_uniform_disc(self):
        a = 2.0e-9
        r = np.linspace(1e-15, a, 4001)
        rho = np.ones_like(r)
        q0 = mo.intrinsic_eqm(mo.mean_square_radius(r, rho))
        assert q0 == pytest.approx(E_CHARGE * a**2 / 2.0, rel=1e-6)

    def test_narrow_ring(self):
        a, sigma = 1.0e-9, 1.0e-12
        r = np.linspace(a - 8 * sigma, a + 8 * sigma, 2001)
        rho = np.exp(-0.5 * ((r - a) / sigma) ** 2)
        q0 = mo.intrinsic_eqm(mo.mean_square_radius(r, rho))
        assert q0 == pytest.approx(E_CHARGE * a**2, rel=1e-5)

    def test_quadrature_convergence(self):
        a = 1.0e-9
        r_coarse = np.linspace(1e-15, a, 801)
        r_fine = np.linspace(1e-15, a, 1601)
        density = lambda r: np.exp(-((r / a) ** 2)) * (r / a)
        v1 = mo.mean_square_radius(r_coarse, density(r_coarse))
        v2 = mo.mean_square_radius(r_fine, density(r_fine))
        assert abs(v1 - v2) / v2 < 1e-6

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 11, 12, 999, 1000, 4096, 4097])
    def test_simpson_matches_scipy_on_non_uniform_grids(self, n):
        import scipy
        from scipy.integrate import simpson
        if n % 2 == 0 and tuple(map(int, scipy.__version__.split(".")[:2])) < (1, 11):
            pytest.skip("before 1.11 scipy averages two rules for an even sample count")
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = np.cumsum(rng.uniform(0.1, 1.0, n)) * 1e-9
            y = rng.uniform(0.0, 2.0, n) * x**3
            assert mo._simpson(y, x) == pytest.approx(simpson(y, x=x), rel=1e-15, abs=0)

    def test_zero_norm_density(self):
        r = np.linspace(1e-12, 1e-9, 11)
        with pytest.raises(DomainError):
            mo.mean_square_radius(r, np.zeros_like(r))

    @pytest.mark.parametrize("r, rho, message", [
        ([0.0, 1.0], [1.0, 1.0], "matching 1-d arrays of length >= 3"),
        ([0.0, 2.0, 1.0], [1.0, 1.0, 1.0], "radial grid must be strictly increasing"),
        ([0.0, 1.0, 2.0], [1.0, -1.0, 1.0], "density must be nonnegative")],
        ids=["two-samples", "non-increasing", "negative"])
    def test_bad_density_table_rejected(self, r, rho, message):
        with pytest.raises(DomainError, match=message):
            mo.mean_square_radius(np.array(r), np.array(rho))

    def test_density_file_round_trip(self, tmp_path):
        a = 1.5e-9
        r = np.linspace(1e-15, a, 501)
        rho = np.ones_like(r)
        path = tmp_path / "disc.txt"
        lines = ["# uniform disc profile", "# r_m density"]
        lines += [f"{ri:.17g} {di:.17g}" for ri, di in zip(r, rho)]
        path.write_text("\n".join(lines) + "\n")
        r2, rho2 = mo.load_radial_density(path)
        assert np.array_equal(r, r2) and np.array_equal(rho, rho2)
        assert mo.intrinsic_eqm(mo.mean_square_radius(r2, rho2)) == pytest.approx(
            E_CHARGE * a**2 / 2.0, rel=1e-5)

    @pytest.mark.parametrize("content, message", [
        ("# r_m density\n# none\n", "density.txt: no data rows"),
        ("0.0 1.0\n1.0 -0.5\n2.0 1.0\n", "density.txt: density must be nonnegative")],
        ids=["comments-only", "negative"])
    def test_density_file_without_a_valid_profile(self, tmp_path, content, message):
        path = tmp_path / "density.txt"
        path.write_text(content)
        with pytest.raises(DomainError, match=message):
            mo.load_radial_density(path)

    def test_density_file_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0 2.0 3.0\n")
        with pytest.raises(DomainError):
            mo.load_radial_density(bad)
        nonmono = tmp_path / "nonmono.txt"
        nonmono.write_text("1.0 1.0\n0.5 1.0\n2.0 1.0\n")
        with pytest.raises(DomainError):
            mo.load_radial_density(nonmono)

    @pytest.mark.parametrize("row,reason", [("1.0 abc", "numbers"), ("1.0,2.0 3.0", "numbers"),
                                            ("1.0 nan", "finite"), ("inf 1.0", "finite"),
                                            ("1.0 -inf", "finite")])
    def test_density_file_entries_are_finite_numbers(self, tmp_path, row, reason):
        path = tmp_path / "density.txt"
        path.write_text(f"# r_m density\n0.0 1.0\n{row}\n2.0 1.0\n")
        with pytest.raises(DomainError, match=f"density.txt:3: entries must be {reason}"):
            mo.load_radial_density(path)

    def test_binary_density_file_is_a_domain_error(self, tmp_path):
        path = tmp_path / "density.bin"
        path.write_bytes(b"\xff\xfe\x00 1.0\n")
        with pytest.raises(DomainError, match="density.bin: not a text file"):
            mo.load_radial_density(path)

    def test_unreadable_density_path_is_a_config_error(self, tmp_path):
        for path in (tmp_path / "missing.txt", tmp_path):
            with pytest.raises(ConfigError, match="beam.density_path"):
                mo.load_radial_density(path)

    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy is imported only when a sampled density is integrated
        src = str(Path(oamsim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, oamsim.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"


class TestSpectroscopicEqm:
    def test_magic_projection_vanishes(self):
        j = 6.0
        K = math.sqrt(j * (j + 1.0) / 3.0)
        assert abs(mo.spectroscopic_eqm(1.0, j, K)) < 1e-14

    def test_large_j_stretched(self):
        ratio = mo.spectroscopic_eqm(1.0, 1000, 1000)
        assert ratio == pytest.approx(1999000.0 / 2005003.0, rel=1e-12)

    def test_spin_half_vanishes(self):
        assert mo.spectroscopic_eqm(1.0, 0.5, 0.5) == 0.0
        assert mo.spectroscopic_eqm(1.0, 0.5, -0.5) == 0.0

    def test_bounded_by_intrinsic(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            j = float(rng.integers(1, 50))
            K = float(rng.integers(-int(j), int(j) + 1))
            assert abs(mo.spectroscopic_eqm(1.0, j, K)) <= 1.0

    def test_monotone_approach_at_stretched(self):
        ratios = [mo.spectroscopic_eqm(1.0, j, j) for j in (10, 100, 1000, 10000)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1.0

    def test_rejects_bad_projection(self):
        with pytest.raises(DomainError):
            mo.spectroscopic_eqm(1.0, 2, 3)

    def test_rejects_j_below_one_half(self):
        with pytest.raises(DomainError, match="j must be >= 1/2, got 0.25"):
            mo.spectroscopic_eqm(1.0, 0.25, 0.0)


class TestQuadrupoleTensorOperator:
    @pytest.mark.parametrize("L", [3, 100])
    def test_traceless_and_hermitian(self, L):
        ops = am.build_operators(L)
        q = mo.quadrupole_tensor_operator(ops, 2.5)
        assert np.array_equal(q[0][0] + q[1][1] + q[2][2], np.zeros((ops.dim, ops.dim)))
        for a in range(3):
            for b in range(3):
                assert np.array_equal(q[a][b], q[a][b].conj().T)

    def test_stretched_expectation_is_qs(self):
        for L in (1, 2, 5):
            ops = am.build_operators(L)
            q = mo.quadrupole_tensor_operator(ops, 1.7)
            stretched = np.zeros(ops.dim)
            stretched[0] = 1.0
            val = stretched @ q[2][2] @ stretched
            assert val.real == pytest.approx(1.7, rel=1e-12)

    def test_L1_zz_eigenvalue(self):
        # explicit 3x3: Q_zz = (3 Qs/2) (2 Lz^2 - 4/3 I); on |1,1> this is Qs
        ops = am.build_operators(1)
        qs = 0.9
        q = mo.quadrupole_tensor_operator(ops, qs)
        expected = 1.5 * qs * (2.0 * np.diag([1.0, 0.0, 1.0]) - (4.0 / 3.0) * np.eye(3))
        assert np.allclose(q[2][2], expected, atol=1e-12)

    @pytest.mark.parametrize("L", [1, 2, 5, 20, 100])
    def test_components_from_anticommutators_bit_for_bit(self, L):
        # Q_ij = pref (3 {L_i, L_j} - 2 delta_ij L(L+1)): the bracket's band
        # entries written out from m and c, equal bit for bit; the dense
        # anticommutators within 4 ulp of L(L+1) per unit coefficient
        ops = am.build_operators(L)
        m, c = ops.m, ops.c
        lpp = np.diag(c[:-1] * c[1:], 2)                 # L+^2
        lpz = np.diag(c * (m[:-1] + m[1:]), 1)           # {L+, Lz}
        ll = L * (L + 1.0)
        banded = {(0, 0): np.diag(ll - 3.0 * m * m) + 1.5 * (lpp + lpp.T),
                  (1, 1): np.diag(ll - 3.0 * m * m) - 1.5 * (lpp + lpp.T),
                  (2, 2): np.diag(6.0 * m * m - 2.0 * ll),
                  (0, 1): -1.5j * lpp + 1.5j * lpp.T,
                  (0, 2): 1.5 * (lpz + lpz.T),
                  (1, 2): -1.5j * lpz + 1.5j * lpz.T}
        comps = (ops.Lx, ops.Ly, ops.Lz)
        qs = -1.3e-36
        pref = qs / (2.0 * L * (2.0 * L - 1.0))
        q = mo.quadrupole_tensor_operator(ops, qs)
        for (a, b), bracket in banded.items():
            assert np.array_equal(q[a][b], pref * bracket)
            assert np.array_equal(q[b][a], q[a][b])
            anti = comps[a] @ comps[b] + comps[b] @ comps[a]
            dense = pref * (3.0 * anti - 2.0 * ll * (a == b) * np.eye(ops.dim))
            assert np.max(np.abs(q[a][b] - dense)) <= 4.0 * 2.0**-52 * ll * 3.0 * abs(pref)

    def test_zz_commutes_with_lz(self):
        ops = am.build_operators(2)
        q = mo.quadrupole_tensor_operator(ops, 1.0)
        comm = q[2][2] @ ops.Lz - ops.Lz @ q[2][2]
        assert np.max(np.abs(comm)) < 1e-12


class TestEcqm:
    def test_zero_spin(self):
        t = mo.ecqm([0, 0, 100], [0, 0, 0], M_E_C2_EV)
        assert np.all(t.components == 0.0)

    def test_parallel_alignment(self):
        L, s, eps = 100.0, 0.5, 2.0 * M_E_C2_EV
        t = mo.ecqm([0, 0, L], [0, 0, s], eps)
        expected_zz = 2.0 * E_CHARGE * (HBAR_C_EV_M / eps) ** 2 * L * s
        assert t.components[2, 2] == pytest.approx(expected_zz, rel=1e-12)

    def test_traceless_symmetric_random(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            lv = rng.normal(size=3) * 50
            sv = rng.normal(size=3) * 0.5
            t = mo.ecqm(lv, sv, rng.uniform(0.5, 5.0) * M_E_C2_EV).components
            assert abs(np.trace(t)) < 1e-12 * max(1.0, np.max(np.abs(t)) / 1e-30)
            assert np.max(np.abs(t - t.T)) == 0.0

    def test_magnitude_scale(self):
        # |Q_curr| ~ |e| L lambda_bar^2 within an order of magnitude for L=100
        t = mo.ecqm([0, 0, 100], [0, 0, 0.5], M_E_C2_EV)
        scale = E_CHARGE * 100 * LAMBDA_BAR_C**2
        mag = np.max(np.abs(t.components))
        assert scale / 10 < mag < scale * 10

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(DomainError):
            mo.ecqm([0, 0, 1], [0, 0, 0.5], 0.0)

    def test_rejects_a_two_vector(self):
        with pytest.raises(DomainError, match="three components each"):
            mo.ecqm([0, 1], [0, 0, 0.5], M_E_C2_EV)


class TestScaleEstimates:
    def test_delta_omega(self):
        assert mo.delta_omega_estimate(100, 0.0) == 0.0
        assert mo.delta_omega_estimate(100, 1.0) == 1e-8
        assert mo.delta_omega_estimate(1000, 1e6) == pytest.approx(0.1)

    def test_eqm_scale_worked_numbers(self):
        assert mo.eqm_scale_check(100, 0.5) == pytest.approx(2e-16, rel=1e-12)
        assert mo.eqm_scale_check(50, 0.5) == pytest.approx(5e-17, rel=1e-12)

    def test_diameter_model(self):
        assert mo.beam_diameter(50) == pytest.approx(10e-9)
        assert mo.beam_diameter(100) == pytest.approx(20e-9)

    def test_compton_comparison(self):
        ratio = mo.eqm_scale_check(100, 0.5) / LAMBDA_BAR_C
        assert 1e-4 < ratio < 1e-3

    @pytest.mark.parametrize("call", [
        lambda: mo.eqm_scale_check(3, math.nan), lambda: mo.eqm_scale_check(3, math.inf),
        lambda: mo.tmp_energy_shift(5e4, 2, math.nan, 0.0),
        lambda: mo.tmp_energy_shift(5e4, 2, math.inf, 0.0),
        lambda: mo.tmp_energy_shift(5e4, 2, 1.0, math.nan),
        lambda: mo.tmp_energy_shift(math.nan, 2, 1.0, 0.0),
        lambda: mo.delta_omega_estimate(3, math.nan), lambda: mo.delta_omega_estimate(3, math.inf),
        lambda: mo.spectroscopic_eqm(1.0, math.nan, 1),
        lambda: mo.spectroscopic_eqm(1.0, math.inf, 1),
        lambda: mo.spectroscopic_eqm(1.0, 2, math.nan),
        lambda: mo.spectroscopic_eqm(1.0, 2, -math.inf),
        lambda: mo.ecqm([0, 0, 1], [0, 0, 0.5], math.nan),
        lambda: mo.ecqm([0, 0, 1], [0, 0, 0.5], math.inf),
        lambda: mo.ecqm([0, math.nan, 1], [0, 0, 0.5], 6.0e5),
        lambda: mo.ecqm([0, 0, 1], [0, 0, math.inf], 6.0e5),
        lambda: mo.intrinsic_eqm(math.nan), lambda: mo.intrinsic_eqm(-1.0e-18),
    ], ids=["scale-R0-nan", "scale-R0-inf", "tmp-B-nan", "tmp-B-inf", "tmp-angle-nan",
            "tmp-beta-nan", "delta-omega-nan", "delta-omega-inf", "qs-j-nan", "qs-j-inf",
            "qs-K-nan", "qs-K-inf", "ecqm-energy-nan", "ecqm-energy-inf", "ecqm-L-nan",
            "ecqm-s-inf", "q0-r2-nan", "q0-r2-negative"])
    def test_non_finite_scalars_rejected(self, call):
        with pytest.raises(DomainError, match="finite"):
            call()

    @pytest.mark.parametrize("call, what", [
        (lambda: mo.tmp_coefficient(1e200), "the TMP coefficient at B = 1e+200 T"),
        (lambda: mo.tmp_coefficient(-1e154), "the TMP coefficient at B = -1e+154 T"),
        (lambda: mo.spectroscopic_eqm(1.0, 10**160, 10**160),
         f"the spectroscopic EQM at j = {10**160}, K = {10**160}"),
        (lambda: mo.spectroscopic_eqm(1.0, 10**400, 1),
         f"the spectroscopic EQM at j = {10**400}, K = 1"),
        (lambda: mo.spectroscopic_eqm(1.0, 8e153, 8e153),
         "the spectroscopic EQM at j = 8e+153, K = 8e+153"),
        (lambda: mo.beam_model_eqm(10**200),
         f"<r^2> of the diameter-model beam at L = {10**200}"),
        (lambda: mo.beam_model_eqm(10**400),
         f"<r^2> of the diameter-model beam at L = {10**400}"),
    ], ids=["tmp-B-squared-overflows", "tmp-b-inf", "qs-K-squared-overflows",
            "qs-j-past-float", "qs-nan", "model-r2-overflows", "model-L-past-float"])
    def test_values_past_the_float_range_rejected(self, call, what):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == f"{what} is beyond the float range"


class TestMomentSet:
    def test_signs_and_bounds(self):
        ms = mo.moment_set(100, 0.0148)
        assert ms.Q0_Cm2 > 0
        assert abs(ms.Qs_Cm2) <= abs(ms.Q0_Cm2)
        assert ms.beta_T_fm3 == mo.tmp_electron()
        assert ms.mean_r2 == pytest.approx((10e-9) ** 2, rel=1e-12)
