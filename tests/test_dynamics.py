import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oamsim import am_core as am
from oamsim import dynamics as dy
from oamsim import moments as mo
from oamsim import ring_config as rc
from oamsim.constants import C, E_CHARGE, HBAR
from oamsim.errors import ConvergenceError, DomainError
from oamsim.verify import _dominant_frequencies as dominant_frequencies


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


def boundary_series():
    """A hand-built series at the edges of the cell kernel: the powers of ten
    where '%.17g' or repr changes notation with their float neighbours,
    subnormals and +-1e300."""
    edges = np.array([1e-5, 1e-4, 1e16, 1e17])
    values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                             [5e-324, -2.5e-323, 2.2250738585072009e-308, 1e300, -1e300]])
    n = len(values)
    p = np.stack([values, -values, values[::-1]], axis=1)
    pt = np.repeat(p, 3, axis=1).reshape(n, 3, 3)
    return dy.PolarizationSeries(times=np.arange(n, dtype=float), P=p, Pt=pt,
                                 source="oracle")


def assert_same_text(got, want):
    """got == want, compared line by line: pytest's own diff of two texts of
    megabytes takes minutes."""
    got, want = got.split("\n"), want.split("\n")
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"line {i}"
    assert len(got) == len(want)


def empty_series():
    return dy.PolarizationSeries(times=np.empty(0), P=np.empty((0, 3)),
                                 Pt=np.empty((0, 3, 3)), source="oracle")


def ensemble_rho(scn, members):
    """rho = sum_k w_k |m_k><m_k| at each sample of evolve_oracle's (n, k, dim) members."""
    weights, _ = dy.initial_state(scn, am.build_operators(scn.L))
    return np.einsum("k,nki,nkj->nij", weights, members, members.conj())


def parity_terms(scn, ops):
    """The scenario's terms on each parity block, as evolve_oracle builds them."""
    return [[(a, f, ops.observable(row, rows)) for a, f, row in dy.hamiltonian_terms(scn)]
            for rows in am.PARITY_BLOCKS]


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

    @pytest.mark.parametrize("fields", [
        dict(Omega=1e308, t_end=10.0), dict(b=1e308, t_end=2.0), dict(L=10**400),
        dict(psi=1e308), dict(theta=1e308), dict(L=2**40, b=1e300)],
        ids=["Omega", "b", "L-beyond-float", "psi", "theta", "L-times-b"])
    def test_overflowing_phases_rejected(self, fields):
        with pytest.raises(DomainError, match="phases overflow"):
            tmp_scn(**fields)

    @pytest.mark.parametrize("fields", [
        dict(mode="tmp", Omega=1e307, t_end=1e-10),
        dict(mode="frozen", A=1e307, t_end=1e-10),
        dict(mode="resonance", Omega=1e307, omega_drive=2e307, A=1e306, t_end=1e-10)],
        ids=["tmp", "frozen", "resonance"])
    def test_finite_extreme_phases_run(self, fields):
        scn = dy.DynamicsScenario(L=1, theta=0.7, psi=0.3, kind="tensor", steps=64, **fields)
        rep = dy.oracle_vs_closed_form(scn)
        closed = dy.closed_form(scn)
        defined = ~np.isnan(closed.P[0])
        assert np.all(np.isfinite(closed.P[:, defined]))
        assert np.all(np.isfinite(rep.oracle.P)) and np.all(np.isfinite(rep.oracle.Pt))
        assert np.isfinite(rep.max_abs_deviation)

    @pytest.mark.parametrize("mode", ["tmp", "frozen"])
    @pytest.mark.parametrize("field, value", [
        ("omega_drive", 0.5), ("phi", -0.3), ("drive", "linear")])
    def test_drive_fields_rejected_outside_resonance(self, mode, field, value):
        # only the resonance drive reads them; elsewhere they would be dropped unread
        with pytest.raises(DomainError, match=f"{mode} mode requires omega_drive = 0"):
            dy.DynamicsScenario(mode=mode, L=1, **{field: value})

    @pytest.mark.parametrize("mode, field", [
        ("tmp", "A"), ("tmp", "omega_drive"), ("tmp", "phi"), ("tmp", "drive"),
        ("frozen", "Omega"), ("frozen", "b"), ("frozen", "omega_drive"), ("frozen", "phi"),
        ("frozen", "drive"), ("resonance", "b")])
    def test_coefficient_the_mode_does_not_read_rejected(self, mode, field):
        value = {"Omega": 1.0, "b": 1.0, "A": 1.0, "omega_drive": 0.5, "phi": -0.3,
                 "drive": "linear"}[field]
        with pytest.raises(DomainError, match=f"^{mode} mode requires "):
            dy.DynamicsScenario(mode=mode, L=1, **{field: value})

    def test_non_finite_coefficient_rejected_before_the_oracle(self):
        with pytest.raises(DomainError, match="finite"):
            dy.evolve_oracle(frozen_scn(A=math.nan))


@pytest.mark.parametrize("value", [True, 2.0, 2.5, 0])
@pytest.mark.parametrize("call", [
    lambda v: dy.DynamicsScenario(mode="tmp", L=v),
    lambda v: am.build_operators(v),
    lambda v: dy.quadrupole_coefficient_frozen(1e-35, v, rc.frozen_setup(3e5, 0.5, 0.5)),
    lambda v: dy.quadrupole_coupling(1e-35, v, 1e6),
    lambda v: mo.beam_diameter(v),
    lambda v: mo.delta_omega_estimate(v, 1e6),
    lambda v: dy.DynamicsScenario(mode="tmp", L=1, steps=v),
    # 0 halvings is allowed, so that case tries -1
    lambda v: dy.evolve_oracle(resonance_scn(steps=8, drive="linear"), max_halvings=v or -1),
    lambda v: dy.evolve_oracle(resonance_scn(steps=8, drive="linear"), fixed_substeps=v),
], ids=["scenario-L", "operators-L", "frozen-coefficient-L", "resonance-coefficient-L",
        "beam-diameter-L", "delta-omega-L", "steps",
        "max-halvings", "fixed-substeps"])
def test_integer_arguments_rejected(call, value):
    with pytest.raises(DomainError, match="must be an integer >="):
        call(value)


@pytest.mark.parametrize("steps, bounded", [(10**30, True), (2**53 + 1, True),
                                            (2**27 + 1, True), (2**27, False)],
                         ids=["1e30", "2^53+1", "over", "grid-fits"])
def test_time_grid_budget_checked_before_allocation(steps, bounded, monkeypatch):
    # float64 samples: 2**27 of them take exactly 1 GiB
    def no_grid(*args):
        raise AssertionError("linspace called")
    monkeypatch.setattr(np, "linspace", no_grid)
    scn = tmp_scn(steps=steps)
    if not bounded:
        with pytest.raises(AssertionError, match="linspace called"):
            scn.times()
        return
    with pytest.raises(ConvergenceError, match="GiB budget") as err:
        scn.times()
    assert str(err.value) == (f"the {steps} sample times need {steps * 8 / 2**30:.3g} GiB, "
                              "over the 1 GiB budget")


@pytest.mark.parametrize("scn", [tmp_scn(steps=10**8), frozen_scn(steps=10**8),
                                 frozen_scn(steps=10**8, kind="vector"),
                                 dy.DynamicsScenario(mode="resonance", L=1, Omega=0.25, A=1.0,
                                                     omega_drive=0.5, steps=10**8)],
                         ids=["tmp", "frozen", "frozen-vector", "resonance"])
def test_closed_form_budget_checked_before_allocation(scn, monkeypatch):
    # the grid alone (0.75 GiB) fits the budget; the closed form's arrays do not
    def no_array(*args, **kwargs):
        raise AssertionError("array allocated")
    monkeypatch.setattr(np, "linspace", no_array)
    monkeypatch.setattr(np, "full", no_array)
    with pytest.raises(ConvergenceError) as err:
        dy.closed_form(scn)
    assert str(err.value) == ("12 arrays of the 100000000 samples need 8.94 GiB, "
                              "over the 1 GiB budget")


def test_time_grid_past_the_float_range_is_refused():
    # a JSON integer has no size limit, and 8 * 10**400 bytes no float value
    with pytest.raises(ConvergenceError, match="sample times need inf GiB, over the 1 GiB budget"):
        tmp_scn(steps=10**400).times()


@pytest.mark.parametrize("t_end, steps", [(5e-324, 3), (1e-300, 10**9),
                                          (sys.float_info.min, 3)],
                         ids=["zero", "subnormal", "half-of-normal"])
def test_time_grid_with_a_subnormal_spacing_is_refused(t_end, steps):
    with pytest.raises(DomainError,
                       match="below the smallest normal float 2.2250738585072014e-308"):
        tmp_scn(t_end=t_end, steps=steps)


@pytest.mark.parametrize("steps", [2, 3, 2**20])
def test_time_grid_at_the_smallest_normal_spacing_increases_strictly(steps):
    times = tmp_scn(t_end=sys.float_info.min * (steps - 1), steps=steps).times()
    assert times[1] == sys.float_info.min
    assert np.all(np.diff(times) > 0)


class TestBuildHamiltonian:
    def test_all_zero(self):
        scn = tmp_scn(Omega=0.0, b=0.0)
        assert np.all(dy.build_hamiltonian(scn, 0.0) == 0.0)

    def test_tmp_L1_matrix(self):
        scn = tmp_scn(Omega=0.0, b=1.0)
        assert np.allclose(dy.build_hamiltonian(scn, 0.0),
                           np.diag([1.0, 0.0, 1.0]))

    def test_frozen_time_independent(self):
        scn = frozen_scn(L=2)
        h0 = dy.build_hamiltonian(scn, 0.0)
        h1 = dy.build_hamiltonian(scn, 17.3)
        assert np.array_equal(h0, h1)
        assert all(f is None for _, f, _ in dy.hamiltonian_terms(scn))

    @pytest.mark.parametrize("drive", ["linear", "corotating"])
    def test_resonance_hermitian(self, drive):
        ops = am.build_operators(3)
        scn = resonance_scn(L=3, drive=drive)
        (omega, static, lz), *terms = dy.hamiltonian_terms(scn)
        assert static is None
        assert len(terms) == (1 if drive == "linear" else 2)
        h0 = omega * ops.observable(lz)
        ts = (0.0, 0.37, 2.9)
        stack = dy.build_hamiltonian(scn, np.array(ts))
        for i, t in enumerate(ts):
            h = dy.build_hamiltonian(scn, t)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12
            phase = scn.omega_drive * t + scn.phi
            expected = h0 + sum(a * f(phase) * ops.observable(row) for a, f, row in terms)
            assert np.allclose(h, expected, rtol=0.0, atol=1e-14)
            assert np.allclose(stack[i], h, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("L", [1, 3])
    @pytest.mark.parametrize("mode", ["tmp", "frozen", "linear", "corotating"])
    def test_explicit_products_bit_for_bit(self, mode, L):
        # the band entries written out from m and c, equal bit for bit; the
        # dense products of the module docstring within 4 ulp of L(L+1)
        ops = am.build_operators(L)
        lx, ly, lz = ops.Lx, ops.Ly, ops.Lz
        if mode == "tmp":
            scn = tmp_scn(L=L, Omega=1.3, b=-0.61)
        elif mode == "frozen":
            scn = frozen_scn(L=L, A=-0.37)
        else:
            scn = resonance_scn(L=L, Omega=1.3, A=0.37, omega_drive=2.1, phi=0.4,
                                drive=mode)
        m = ops.m
        lpp = np.diag(ops.c[:-1] * ops.c[1:], 2)                  # L+^2
        axx = np.diag(L * (L + 1.0) - m * m) + 0.5 * (lpp + lpp.T)  # 2 Lx^2

        def banded(t):
            phase = scn.omega_drive * t + scn.phi
            cos = np.asarray(scn.A * np.cos(phase))[..., None, None]
            if mode == "tmp":
                return scn.Omega * lz + scn.b * np.diag(m * m)
            if mode == "frozen":
                return scn.A * axx
            if mode == "linear":
                return scn.Omega * lz + cos * axx
            sin = np.asarray(0.5 * scn.A * np.sin(phase))[..., None, None]
            return (scn.Omega * lz + 0.25 * cos * (lpp + lpp.T)
                    + sin * (-0.5j * lpp + 0.5j * lpp.T))

        def dense(t):
            phase = scn.omega_drive * t + scn.phi
            cos = np.asarray(np.cos(phase))[..., None, None]
            sin = np.asarray(np.sin(phase))[..., None, None]
            if mode == "tmp":
                return scn.Omega * lz + scn.b * (lz @ lz)
            if mode == "frozen":
                return 2.0 * scn.A * (lx @ lx)
            if mode == "linear":
                return scn.Omega * lz + 2.0 * scn.A * cos * (lx @ lx)
            return (scn.Omega * lz + 0.5 * scn.A * cos * (lx @ lx - ly @ ly)
                    + 0.5 * scn.A * sin * (lx @ ly + ly @ lx))

        # per unit coefficient of a product: |Omega| + |b| + 2 |A| bounds their sum
        tol = 4.0 * 2.0**-52 * L * (L + 1) * (abs(scn.Omega) + abs(scn.b) + 2.0 * abs(scn.A))
        for t in (0.0, 0.37, 2.9, np.array([0.0, 0.37, 2.9, 11.3])):
            h = dy.build_hamiltonian(scn, t)
            assert np.array_equal(h, banded(t))
            assert np.max(np.abs(h - dense(t))) <= tol


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

    @pytest.mark.parametrize("L", [5 * 10**153, 10**200], ids=["5e153", "1e200"])
    def test_denominator_past_the_float_range_rejected(self, L):
        # 8 L^2 hbar overflows from about L = 4.7e153, where Qs is still finite
        with pytest.raises(DomainError, match=f"^the quadrupole coupling's 8 L\\^2 hbar at "
                                              f"L = {L} is beyond the float range$"):
            dy.quadrupole_coupling(1.6e-35, L, 1.0e6)

    def test_resonance_coefficient_sign(self):
        a = dy.quadrupole_coupling(1.6e-35, 10, 1.0e6)
        assert a == pytest.approx(-1.6e-35 * 1e6 / (8 * 100 * HBAR), rel=1e-12)


class TestOracleBasics:
    @pytest.mark.parametrize("scn", [
        tmp_scn(L=3, steps=64),
        frozen_scn(L=3, steps=64),
        resonance_scn(L=3, phi=0.4, steps=64),
        resonance_scn(L=3, phi=0.4, steps=64, drive="linear"),
    ], ids=["tmp", "frozen", "corotating", "linear"])
    def test_builds_only_parity_blocks(self, scn, monkeypatch):
        # every operator the oracle builds is a 4x4 or 3x3 parity block of
        # the 7-dimensional L = 3 space, never the whole space
        shapes = []
        observable = am.AmOperators.observable

        def recorded(self, *args):
            out = observable(self, *args)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(am.AmOperators, "observable", recorded)
        dy.evolve_oracle(scn, rtol=1e-6, return_states=True)
        assert shapes and set(shapes) == {(4, 4), (3, 3)}

    @pytest.mark.parametrize("L", [1, 3, 100])
    def test_initial_state_is_the_am_core_beam(self, L):
        # the tensor beam is tensor_mixture itself, the vector beam the
        # coherent vector at weight 1, to the bit
        ops = am.build_operators(L)
        weights, members = dy.initial_state(frozen_scn(L=L, theta=1.1, psi=2.3), ops)
        mix_weights, mix_members = am.tensor_mixture(ops, 1.1, 2.3)
        assert np.array_equal(weights, mix_weights) and np.array_equal(members, mix_members)
        weights, members = dy.initial_state(tmp_scn(L=L, kind="vector", theta=1.1, psi=2.3), ops)
        assert np.array_equal(weights, [1.0])
        assert np.array_equal(members, am.coherent_state(ops, 1.1, 2.3)[None])

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

    def test_negative_weight_shows_in_min_eigenvalue(self):
        # rho = 1.5 |a><a| - 0.5 |b><b| on orthonormal a, b has eigenvalue -0.5
        rng = np.random.default_rng(7)
        z = rng.normal(size=(5, 7, 2)) + 1j * rng.normal(size=(5, 7, 2))
        members = np.linalg.qr(z)[0].swapaxes(1, 2)
        d = dy._state_diagnostics(np.array([1.5, -0.5]), members)
        assert d["min_eigenvalue"] == pytest.approx(-0.5, abs=1e-14)
        assert d["max_norm_dev"] < 1e-14 and d["max_trace_dev"] < 1e-14
        assert d["max_herm_dev"] < 1e-14

    def test_nan_member_stays_visible(self):
        # a NaN member in the second of two blocks: Python's min and max merged
        # it away, and validate skipped its rows, so the run read as clean
        scn = frozen_scn(steps=8)
        ops = am.build_operators(1)
        weights, members = dy.initial_state(scn, ops)
        states = np.repeat(members[None], 8, axis=0)
        states[6, 1, 0] = np.nan
        assert math.isnan(dy._state_diagnostics(weights, states[4:])["min_eigenvalue"])
        diag = {}
        with pytest.raises(DomainError, match="NaN"):
            dy._series_from_states(scn, ops, weights, [states[:4], states[4:]], diag, None)
        for key in ("max_norm_dev", "max_trace_dev", "min_eigenvalue"):
            assert math.isnan(diag[key]), key

    @pytest.mark.parametrize("where", ["P", "Pt", "diagnostic"])
    def test_validate_rejects_nan_in_oracle_series(self, where):
        series = dy.evolve_oracle(frozen_scn(steps=8))
        if where == "diagnostic":
            series.diagnostics["max_trace_dev"] = math.nan
        else:
            getattr(series, where).flat[4] = np.nan
        with pytest.raises(DomainError, match="NaN"):
            series.validate()

    @pytest.mark.parametrize("where, cell, message", [
        ("P", (5, 2), "exceeds 1"), ("Pt", (5, 2, 2), "trace deviates")])
    def test_validate_rejects_broken_invariants(self, where, cell, message):
        # a valid series with P set to a unit vector and one entry moved by
        # 2e-10: |P| or the tensor's trace is past 1e-10 from 1
        series = dy.evolve_oracle(frozen_scn(steps=8))
        series.P[5] = [0.0, 0.0, 1.0]
        series.validate()
        getattr(series, where)[cell] += 2e-10
        with pytest.raises(DomainError, match=message):
            series.validate()

    @pytest.mark.parametrize("L, bounded", [(20000, True), (5793, True), (5792, False)],
                             ids=["L20000", "over", "blocks-fit"])
    def test_term_blocks_budget_checked_before_any_work(self, L, bounded, monkeypatch):
        # frozen mode has one term; its two parity blocks take
        # ((L+1)^2 + L^2) 16 bytes, over 1 GiB from L = 5793 on
        def no_work(*args):
            raise AssertionError("build_operators called")
        monkeypatch.setattr(dy, "build_operators", no_work)
        scn = frozen_scn(L=L, steps=3)
        if not bounded:
            with pytest.raises(AssertionError, match="build_operators called"):
                dy.evolve_oracle(scn)
            return
        with pytest.raises(ConvergenceError, match="GiB budget") as err:
            dy.evolve_oracle(scn)
        need = ((L + 1)**2 + L**2) * 16
        assert f"1-term Hamiltonian at L = {L} need {need / 2**30:.3g} GiB," in str(err.value)

    @pytest.mark.parametrize("kind, k", [("vector", 1), ("tensor", 2)])
    def test_returned_members_at_paper_scale(self, kind, k):
        # L = 100 and 2001 steps: (n, k, dim) members, 12.9 MB for the tensor beam
        scn = frozen_scn(L=100, A=-0.7, theta=1.1, psi=2.3, steps=2001, kind=kind)
        series, members = dy.evolve_oracle(scn, return_states=True)
        assert members.shape == (2001, k, 201)
        assert np.max(np.abs(np.linalg.norm(members, axis=2) - 1.0)) < 1e-12
        ops = am.build_operators(100)
        weights, first = dy.initial_state(scn, ops)
        assert np.max(np.abs(members[0] - first)) < 1e-13
        p, _ = am.polarization_batch(members[::400].reshape(-1, 201), ops)
        assert np.max(np.abs(weights @ p.reshape(-1, k, 3) - series.P[::400])) < 1e-14

    def test_energy_conservation(self):
        scn = tmp_scn(kind="vector", steps=512)
        _, members = dy.evolve_oracle(scn, return_states=True)
        states = members[:, 0]
        h = dy.build_hamiltonian(scn, 0.0)
        e = np.einsum("ni,ij,nj->n", states.conj(), h, states).real
        assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-9

    def test_von_neumann_identity(self):
        # d rho/dt from the propagated states matches -i[H, rho]
        dt = 1e-4
        scn = frozen_scn(t_end=2 * dt, steps=3)
        _, members = dy.evolve_oracle(scn, return_states=True)
        states = ensemble_rho(scn, members)
        h = dy.build_hamiltonian(scn, 0.0)
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

    @pytest.mark.parametrize("n_sub, bounded", [(256, True), (128, False)],
                             ids=["over", "blocks-fit"])
    def test_interval_budget_counts_parity_blocks(self, n_sub, bounded, monkeypatch):
        # L = 10: blocks of 11 and 10 hold 221 entries a unitary, the dense
        # matrix 441; at 128 substeps the blocks fit (0.84 GiB), dense would not
        def no_work(*args):
            raise AssertionError("eigh called")
        monkeypatch.setattr(np.linalg, "eigh", no_work)
        scn = resonance_scn(L=10, steps=2001, drive="linear")
        if not bounded:
            with pytest.raises(AssertionError, match="eigh called"):
                dy.evolve_oracle(scn, fixed_substeps=n_sub)
            return
        with pytest.raises(ConvergenceError, match="GiB budget") as err:
            dy.evolve_oracle(scn, fixed_substeps=n_sub)
        need = 2000 * n_sub * (11**2 + 10**2) * 16
        assert f"need {need / 2**30:.3g} GiB of unitaries" in str(err.value)

    @pytest.mark.parametrize("drive_term", ["corotating", "lx"])
    def test_piecewise_terms_real_within_parity_blocks(self, drive_term):
        # the corotating drive's {Lx, Ly} is imaginary and Lx couples m to
        # m +- 1: either would be lost by the per-block real arithmetic; Lx
        # has no parity block to be built on
        scn = resonance_scn(steps=8, drive="linear")
        ops = am.build_operators(1)
        _, members = dy.initial_state(scn, ops)
        if drive_term == "corotating":
            with pytest.raises(DomainError, match="real Hamiltonian terms"):
                dy._propagate(scn, parity_terms(resonance_scn(steps=8), ops), members, 2)
        else:
            with pytest.raises(DomainError, match="across the parity blocks"):
                ops.observable(am.OBSERVABLES[0], am.PARITY_BLOCKS[0])

    @pytest.mark.parametrize("kw", [
        dict(fixed_substeps=0), dict(fixed_substeps=-1), dict(fixed_substeps=2.5),
        dict(fixed_substeps=True), dict(rtol=0.0), dict(rtol=-1e-9), dict(rtol=math.nan),
        dict(max_halvings=-1), dict(max_halvings=2.5), dict(max_halvings=True),
        dict(max_halvings=-1, fixed_substeps=4),
    ], ids=["sub-0", "sub-neg", "sub-float", "sub-bool", "rtol-0", "rtol-neg", "rtol-nan",
            "halvings-neg", "halvings-float", "halvings-bool", "halvings-neg-fixed"])
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
    """The scenario's initial rho = sum_k w_k |m_k><m_k|, its beam built from am_core alone."""
    if scn.kind == "vector":
        weights, members = np.ones(1), am.coherent_state(ops, scn.theta, scn.psi)[None]
    else:
        weights, members = am.tensor_mixture(ops, scn.theta, scn.psi)
    return np.einsum("k,ki,kj->ij", weights, members, members.conj())


def _dense_polarization(rho, ops):
    """P and unit-trace Pt of an (n, dim, dim) stack of rho, each from Tr(rho O)
    with the dense L_i and their products."""
    comps = (ops.Lx, ops.Ly, ops.Lz)

    def expectation(op):
        return np.einsum("nij,ji->n", rho, op).real

    p = np.stack([expectation(op) for op in comps], axis=1) / ops.L
    pt = np.empty((len(rho), 3, 3))
    for i in range(3):
        for j in range(3):
            val = 3.0 * expectation(comps[i] @ comps[j] + comps[j] @ comps[i])
            if i == j:
                val -= 2.0 * ops.L * (ops.L + 1.0)
            pt[:, i, j] = val / (2.0 * ops.L * (2.0 * ops.L - 1.0)) + (i == j) / 3.0
    return p, pt


def _expm_reference(series, scn, ops, generator):
    """P/Pt of U(t) rho0 U(t)^dagger with U(t) = generator(t) from scipy's expm."""
    rho = _reference_state(scn, ops)
    states = []
    for t in series.times:
        u = generator(t)
        states.append(u @ rho @ u.conj().T)
    return _dense_polarization(np.array(states), ops)


class TestSpectralOracle:
    @pytest.mark.parametrize("scn", [
        frozen_scn(L=20, A=-0.7, theta=1.1, psi=2.3, t_end=1.0, steps=41),
        tmp_scn(L=2, kind="vector", theta=0.9, psi=0.4, t_end=5.0, steps=301),
    ], ids=["frozen-L20-tensor", "tmp-L2-vector"])
    def test_static_matches_expm(self, scn):
        from scipy.linalg import expm
        ops = am.build_operators(scn.L)
        h = dy.build_hamiltonian(scn, 0.0)
        series = dy.evolve_oracle(scn)
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
        h_rot = dy.build_hamiltonian(scn, 0.0) - 0.5 * scn.omega_drive * ops.Lz
        series = dy.evolve_oracle(scn)
        p, pt = _expm_reference(
            series, scn, ops,
            lambda t: expm(-0.5j * scn.omega_drive * t * ops.Lz) @ expm(-1j * t * h_rot))
        assert np.max(np.abs(series.P - p)) < 1e-10
        assert np.max(np.abs(series.Pt - pt)) < 1e-10

    @pytest.mark.parametrize("L", [2, 3, 20])
    @pytest.mark.parametrize("case", ["tmp", "frozen", "corotating", "corotating-phi0"])
    def test_parity_blocks_match_dense_expm(self, case, L):
        # the members themselves, phases included, against exp(-i frame t Lz) exp(-i h t)
        # on the whole space; 7 samples in blocks of 3 so a block boundary is crossed
        from scipy.linalg import expm
        scn = {"tmp": tmp_scn(L=L, Omega=1.3, b=-0.61, theta=0.9, psi=0.4),
               "frozen": frozen_scn(L=L, A=-0.37, theta=1.1, psi=2.3),
               "corotating": resonance_scn(L=L, Omega=1.3, A=0.37, omega_drive=2.1, phi=0.4,
                                           theta=1.2, psi=0.6),
               "corotating-phi0": resonance_scn(L=L, Omega=1.3, A=0.37, omega_drive=2.1,
                                                theta=1.2, psi=0.6)}[case]
        ops = am.build_operators(L)
        _, members = dy.initial_state(scn, ops)
        frame = 0.5 * scn.omega_drive
        h = dy.build_hamiltonian(scn, 0.0) - frame * ops.Lz
        blocks = [h[rows, rows] for rows in am.PARITY_BLOCKS]
        times = np.linspace(0.0, 3.0, 7)
        got = np.concatenate(list(dy._spectral_states(times, members, ops, blocks, frame, 3)))
        for t, states in zip(times, got):
            u = expm(-1j * frame * t * ops.Lz) @ expm(-1j * t * h)
            assert np.max(np.abs(states - members @ u.T)) < 1e-10

    def test_corotating_frame_solves_lab_equation(self):
        # independent of the frame reduction: i d(rho)/dt = [H(t), rho] with the lab H(t)
        scn = resonance_scn(L=2, phi=0.4, omega_drive=0.6, t_end=3.0, steps=30001)
        _, members = dy.evolve_oracle(scn, return_states=True)
        states = ensemble_rho(scn, members)
        times = scn.times()
        dt = times[1]
        for k in (1, 7700, 29000):
            h = dy.build_hamiltonian(scn, times[k])
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
        # an independent integrator of i d(rho)/dt = [H(t), rho] on the
        # flattened rho: a propagator that samples H(t) at shifted times still
        # self-converges, but not to this
        from scipy.integrate import solve_ivp
        scn = resonance_scn(L=L, kind=kind, Omega=2.0, A=0.4, omega_drive=4.3,
                            phi=0.3, theta=1.1, psi=0.5, t_end=2 * np.pi, steps=97,
                            drive="linear")
        ops = am.build_operators(L)
        series = dy.evolve_oracle(scn, rtol=1e-10)
        rho0 = _reference_state(scn, ops)
        shape = rho0.shape
        # the dense terms, built once; H(t) = sum_k a_k f_k(omega t + phi) H_k
        terms = [(a, f, ops.observable(row)) for a, f, row in dy.hamiltonian_terms(scn)]

        def rhs(t, y):
            phase = scn.omega_drive * t + scn.phi
            h = sum((a if f is None else a * f(phase)) * hk for a, f, hk in terms)
            rho = y.reshape(shape)
            return (-1j * (h @ rho - rho @ h)).ravel()

        sol = solve_ivp(rhs, (0.0, scn.t_end), rho0.ravel(), method="DOP853",
                        t_eval=series.times, rtol=1e-12, atol=1e-13)
        p, pt = _dense_polarization(sol.y.T.reshape((-1,) + shape), ops)
        assert np.max(np.abs(series.P - p)) < 1e-9
        assert np.max(np.abs(series.Pt - pt)) < 1e-9

    @pytest.mark.parametrize("n_sub", [4, 8])
    @pytest.mark.parametrize("kind", ["vector", "tensor"])
    @pytest.mark.parametrize("L", [1, 3, 5])
    def test_matches_dense_cf4_reference(self, L, kind, n_sub):
        # the same CF4 steps built densely from build_hamiltonian and scipy's
        # expm and multiplied one at a time, without parity blocks, real
        # pairs, polar steps or prefix products; at L = 1 the odd block is
        # the diagonal 1x1 one
        from scipy.linalg import expm
        scn = resonance_scn(L=L, kind=kind, Omega=2.0, A=0.3, omega_drive=4.1, phi=0.7,
                            theta=1.1, psi=0.4, t_end=3.0, steps=25, drive="linear")
        ops = am.build_operators(L)
        series = dy.evolve_oracle(scn, fixed_substeps=n_sub)
        r = math.sqrt(3.0) / 6.0
        h = (series.times[1] - series.times[0]) / n_sub
        u = np.eye(ops.dim, dtype=complex)
        unitaries = [u]
        for t in series.times[:-1]:
            for s in t + h * np.arange(n_sub):
                h1, h2 = (dy.build_hamiltonian(scn, s + c * h) for c in (0.5 - r, 0.5 + r))
                u = (expm(-1j * h * ((0.25 - r) * h1 + (0.25 + r) * h2))
                     @ expm(-1j * h * ((0.25 + r) * h1 + (0.25 - r) * h2)) @ u)
            unitaries.append(u)
        rho = _reference_state(scn, ops)
        p, pt = _dense_polarization(np.array([v @ rho @ v.conj().T for v in unitaries]), ops)
        assert np.max(np.abs(series.P - p)) <= 1e-12
        assert np.max(np.abs(series.Pt - pt)) <= 1e-12

    def test_polar_step_squares_the_unitarity_defect(self):
        # X = Q (I + E) with E Hermitian and complex, of norm about 1e-6: one
        # Newton-Schulz step leaves a defect of order 1e-12 in both parts
        rng = np.random.default_rng(3)
        z = rng.normal(size=(4, 5, 5)) + 1j * rng.normal(size=(4, 5, 5))
        q = np.linalg.qr(z)[0]
        e = 1e-7 * (z + z.conj().swapaxes(1, 2))
        x = q @ (np.eye(5) + e)
        pr, pi = dy._polar_step(np.stack([x.real, x.imag]))
        y = pr + 1j * pi
        assert np.max(np.abs(x.conj().swapaxes(1, 2) @ x - np.eye(5))) > 1e-7
        assert np.max(np.abs(y.conj().swapaxes(1, 2) @ y - np.eye(5))) < 1e-10
        assert np.max(np.abs(y - q)) < 1e-10

    def test_long_run_preserves_norm_and_trace(self):
        # 500 intervals of 64 substeps each: the products of the substep
        # unitaries drift off the unitary group unless they are projected back
        scn = resonance_scn(Omega=2.0, A=0.1, omega_drive=4.3, phi=0.1, t_end=5.0,
                            steps=501, drive="linear")
        d = dy.evolve_oracle(scn, fixed_substeps=64).diagnostics
        assert d["max_norm_dev"] < 1e-13
        assert d["max_trace_dev"] < 1e-13

    @pytest.mark.parametrize("chunk_bytes", [1, 5760], ids=["single-intervals", "11-and-45"])
    def test_chunk_split_invariant(self, chunk_bytes, monkeypatch):
        # 63 intervals of 8 substeps at L = 1, chunked per parity block by
        # _CHUNK_BYTES // (8 d^2 16): 1 byte gives every block one interval
        # per chunk; 5760 bytes gives the 2x2 block 11 per chunk (an
        # 8-interval remainder) and the 1x1 block 45 (an 18-interval remainder)
        scn = resonance_scn(steps=64, drive="linear")
        ops = am.build_operators(1)
        _, members = dy.initial_state(scn, ops)
        blocks = parity_terms(scn, ops)
        whole = dy._propagate(scn, blocks, members, 8)
        monkeypatch.setattr(dy, "_CHUNK_BYTES", chunk_bytes)
        split = dy._propagate(scn, blocks, members, 8)
        assert np.max(np.abs(split - whole)) <= 1e-15


class TestClosedFormTmp:
    def test_initial_zero(self):
        series = dy.closed_form(tmp_scn())
        assert np.allclose(series.P[0], 0.0)

    def test_point_value(self):
        # theta=pi/4, Omega=0, psi=0, b=1: P_phi(pi/2) = 1/2
        scn = tmp_scn(Omega=0.0, b=1.0, theta=np.pi / 4, psi=0.0,
                      t_end=np.pi, steps=3)
        series = dy.closed_form(scn)
        assert series.P[1, 1] == pytest.approx(0.5, rel=1e-12)

    def test_zero_tilt_stays_zero(self):
        series = dy.closed_form(tmp_scn(theta=0.0))
        assert np.max(np.abs(np.nan_to_num(series.P))) == 0.0

    def test_requires_tensor_kind(self):
        with pytest.raises(DomainError):
            dy.closed_form(tmp_scn(kind="vector"))

    def test_oracle_matches_pointwise(self):
        scn = tmp_scn(steps=1024)
        rep = dy.oracle_vs_closed_form(scn)
        assert rep.max_abs_deviation < 1e-6
        # the P_phi amplitudes of the two series agree at L = 1
        ratio = (np.max(np.abs(rep.oracle.P[:, 1]))
                 / np.max(np.abs(dy.closed_form(scn).P[:, 1])))
        assert ratio == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("L", [1, 2, 3, 20, 100])
    @pytest.mark.parametrize("b", [0.7, -0.7])
    def test_exact_at_every_L(self, L, b):
        # one-axis twisting: the closed form is the oracle's at every L
        scn = tmp_scn(L=L, Omega=3.0, b=b, theta=1.1, psi=0.3, t_end=2.0, steps=401)
        assert dy.oracle_vs_closed_form(scn).max_abs_deviation <= 1e-10

    def test_spectral_lines_at_omega_pm_b(self):
        scn = tmp_scn(steps=8192, t_end=32 * 2 * np.pi)
        series = dy.evolve_oracle(scn)
        peaks = dominant_frequencies(series.times, series.P[:, 1], n_peaks=2)
        freqs = sorted(p[0] for p in peaks)
        assert freqs[0] == pytest.approx(8.0 - 1.0, rel=1e-3)
        assert freqs[1] == pytest.approx(8.0 + 1.0, rel=1e-3)


class TestClosedFormFrozen:
    def test_vector_initial_value(self):
        scn = frozen_scn(kind="vector", theta=0.8)
        series = dy.closed_form(scn)
        assert series.P[0, 2] == pytest.approx(np.cos(0.8), rel=1e-12)

    def test_tensor_zero_tilt(self):
        series = dy.closed_form(frozen_scn(theta=0.0))
        assert np.max(np.abs(series.P[:, 2])) == 0.0

    def test_tensor_quarter_period(self):
        # 2At = pi/2 with A = 0.5 at t = pi/2
        scn = frozen_scn(t_end=np.pi, steps=3)
        series = dy.closed_form(scn)
        assert series.P[1, 2] == pytest.approx(0.5, rel=1e-12)

    def test_oracle_frequency_2A(self):
        scn = frozen_scn(steps=8192, t_end=32 * 2 * np.pi)
        assert 2 * scn.A == 1.0
        rep = dy.oracle_vs_closed_form(scn)
        [(freq, _)] = dominant_frequencies(rep.oracle.times, rep.oracle.P[:, 2])
        assert freq == pytest.approx(2 * scn.A, rel=1e-3)
        assert rep.max_abs_deviation < 1e-6

    def test_theta_zero_vector_regime(self):
        # fully z-polarized vector beam: closed form P_z = cos(2At); the
        # oracle confirms this regime is real, not a formula artifact
        scn = frozen_scn(kind="vector", theta=0.0, steps=1024)
        rep = dy.oracle_vs_closed_form(scn)
        assert rep.max_abs_deviation < 1e-9

    def test_stretched_factor_L2(self):
        # dominant P_z tone for L=2 sits at (2L-1) * 2A = 3
        scn = frozen_scn(L=2, steps=8192, t_end=16 * 2 * np.pi)
        series = dy.evolve_oracle(scn)
        [(freq, _)] = dominant_frequencies(series.times, series.P[:, 2])
        assert freq == pytest.approx(3 * 2 * scn.A, rel=1e-2)


class TestClosedFormResonance:
    def test_zero_coupling_tensor(self):
        scn = resonance_scn(A=0.0, omega_drive=0.6)
        series = dy.closed_form(scn)
        assert np.max(np.abs(series.P[:, 2])) == 0.0

    def test_exact_resonance_envelope(self):
        scn = resonance_scn(t_end=4 * np.pi, steps=4097)
        series = dy.closed_form(scn)
        expected = 0.5 * np.sin(series.times) * np.sin(2 * (np.pi / 4))
        assert np.max(np.abs(series.P[:, 2] - expected)) < 1e-12

    def test_vector_initial_value(self):
        scn = resonance_scn(kind="vector", theta=0.7)
        series = dy.closed_form(scn)
        assert series.P[0, 2] == pytest.approx(np.cos(0.7), rel=1e-12)

    def test_degenerate_domain_error(self):
        scn = resonance_scn(A=0.0, Omega=0.5, omega_drive=1.0)
        with pytest.raises(DomainError):
            dy.closed_form(scn)

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


def record_kernel_calls(monkeypatch):
    """Record each call of the scan's closed-form kernel, in order: the
    frequency rows it evaluates and the number of samples of each, its width;
    a row whose width is the grid's evaluates the whole grid."""
    kernel, calls = dy._resonance_pz, []

    def recorded(scn, factors, row, times):
        rows, width = np.unique(row, return_counts=True)
        calls.append((rows.tolist(), width.tolist()))
        return kernel(scn, factors, row, times)

    monkeypatch.setattr(dy, "_resonance_pz", recorded)
    return calls


def whole_grid_maximum(base, w):
    """The closed form's maximum |P_z| over the whole grid at drive frequency w."""
    factors = dy._resonance_factors(base, [w])
    return np.nanmax(np.abs(dy._resonance_pz(base, factors, 0, base.times())))


def scan_widths(base, grid):
    """The number of samples the scan evaluates for each frequency of grid."""
    return dy._peak_search(base, dy._resonance_factors(base, grid), base.steps)[0]


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

    def test_other_mode_rejected(self):
        with pytest.raises(DomainError, match="requires a resonance-mode scenario"):
            dy.resonance_scan(frozen_scn(), [1.0])

    @pytest.mark.parametrize("kind", ["vector", "tensor"])
    def test_blocks_match_per_frequency_closed_form(self, kind, monkeypatch):
        # 23 frequencies, with 2 Omega among them, gathering 4 to 24 samples
        # each: one frequency per call, calls of at most 4 widest rows' samples
        # (as many frequencies as fit, in grid order), and all in one call
        base = resonance_scn(kind=kind, Omega=50.0, phi=0.4, theta=1.1, psi=0.3,
                             t_end=np.pi, steps=1001)
        grid = np.linspace(89.0, 111.0, 23)
        expected = [np.nanmax(np.abs(dy.closed_form(
            replace(base, omega_drive=w)).P[:, 2])) for w in grid]
        widest = 24
        assert scan_widths(base, grid).max() == widest
        sample_bytes = dy._SCAN_ARRAYS * base.times().itemsize
        for samples, blocks in ((1, [1] * 23), (4 * widest, [4, 10, 6, 3]),
                                (23 * widest, [23])):
            monkeypatch.setattr(dy, "_BLOCK_BYTES", samples * sample_bytes)
            calls = record_kernel_calls(monkeypatch)
            assert np.array_equal(dy.resonance_scan(base, grid).peaks, expected)
            assert [len(rows) for rows, _ in calls] == blocks
            assert all(sum(width) <= samples or len(rows) == 1 for rows, width in calls)

    # id: (scenario overrides, drive frequencies, how the scan evaluates them);
    # "search" gathers the samples next to each extremum and at the ends,
    # "whole" evaluates every sample of the grid
    GRID = np.linspace(80.0, 120.0, 41)
    SEARCH_CASES = {
        "vector": ({"kind": "vector"}, GRID, {"search"}),
        "tensor": ({}, GRID, {"search"}),
        "tensor-theta-0": ({"theta": 0.0}, GRID, {"whole"}),
        # 2 psi - phi = 0: the tensor P_z vanishes at 2 Omega, which then has
        # no margin
        "tensor-alpha-0": ({"phi": 0.6}, GRID, {"search", "whole"}),
        "vector-alpha-0": ({"kind": "vector", "phi": 0.6}, GRID, {"search"}),
        "vector-alpha-quarter": ({"kind": "vector", "phi": 0.6 - np.pi / 2},
                                 GRID, {"search"}),
        "tensor-alpha-quarter": ({"phi": 0.6 - np.pi / 2}, GRID, {"search"}),
        # P_z barely moves over the run: no margin above rounding
        "weak-on-resonance": ({"kind": "vector", "A": 1e-6},
                              100.0 + np.array([-1e-6, 0.0, 1e-6]), {"whole"}),
        "steps-2": ({"steps": 2}, GRID, {"whole"}),
        "steps-3": ({"steps": 3}, GRID, {"whole"}),
        "steps-4": ({"steps": 4}, GRID, {"whole"}),
        # h = omega' dt > pi/2 away from resonance; within 5 of 2 Omega it is
        # below pi/2, and those three frequencies search
        "undersampled": ({"kind": "vector", "steps": 16}, np.linspace(0.0, 200.0, 41),
                         {"search", "whole"}),
        "long-run": ({"kind": "vector", "t_end": 1e3, "steps": 4001},
                     100.0 + np.linspace(-1.5, 1.5, 7), {"search"}),
        # 2 psi - phi = -0.5: near 2 Omega, |P_z| falls from its first sample
        # and no extremum lies in the run; further out one does
        "short-run": ({"kind": "vector", "phi": 1.1, "t_end": 0.5},
                      100.0 + np.linspace(-8.0, 0.0, 5), {"search"}),
    }

    @staticmethod
    def search_scn(overrides):
        return resonance_scn(**{"Omega": 50.0, "theta": 1.1, "psi": 0.3, "phi": 0.4,
                                "t_end": np.pi, "steps": 1001, **overrides})

    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_peak_search_equals_whole_grid_maximum(self, case, monkeypatch):
        overrides, grid, paths = self.SEARCH_CASES[case]
        base = self.search_scn(overrides)
        expected = [whole_grid_maximum(base, w) for w in grid]
        calls = record_kernel_calls(monkeypatch)
        assert np.array_equal(dy.resonance_scan(base, grid).peaks, expected)
        assert {"whole" if w == base.steps else "search"
                for _, width in calls for w in width} == paths
        assert sum(len(rows) for rows, _ in calls) == len(grid)

    def test_fallback_is_per_frequency(self, monkeypatch):
        # the frequencies a 41-frequency scan evaluates over the whole grid are
        # those a scan of each frequency alone does: here only 2 Omega itself
        overrides, grid, _ = self.SEARCH_CASES["tensor-alpha-0"]
        base = self.search_scn(overrides)
        calls = record_kernel_calls(monkeypatch)
        untrusted = []
        for w in grid:
            calls.clear()
            dy.resonance_scan(base, [w])
            if calls == [([0], [base.steps])]:
                untrusted.append(w)
        calls.clear()
        dy.resonance_scan(base, grid)
        whole_rows = [grid[r] for rows, width in calls
                      for r, w in zip(rows, width) if w == base.steps]
        assert untrusted == [100.0]
        assert sorted(whole_rows) == untrusted

    @pytest.mark.parametrize("kind", ["vector", "tensor"])
    def test_large_scan_blocks_stay_in_bound_and_few(self, kind, monkeypatch):
        # 2001 frequencies x 4001 steps: the kernel's arrays hold at most
        # _BLOCK_BYTES, the scan takes a handful of kernel calls, and they
        # evaluate the samples the search gathers and no other (44,636 for
        # the vector kind, 44,458 for the tensor kind, of 8,006,001)
        base = self.search_scn({"kind": kind, "steps": 4001})
        grid = np.linspace(80.0, 120.0, 2001)
        calls = record_kernel_calls(monkeypatch)
        dy.resonance_scan(base, grid)
        itemsize = base.times().itemsize
        assert all(sum(width) * itemsize <= dy._BLOCK_BYTES / dy._SCAN_ARRAYS
                   for _, width in calls)
        assert sum(len(rows) for rows, _ in calls) == 2001
        assert sum(sum(width) for _, width in calls) == scan_widths(base, grid).sum()
        assert len(calls) <= 4

    def test_random_scans_equal_whole_grid_maxima(self):
        # seeded scenarios over both kinds, 2 to 4001 steps, A from 1e-7 and
        # t_end up to 1e3, with 2 psi - phi near 0 in a third of them, and
        # detunings out to h = omega' dt of about 1.6, so both the search and
        # the whole-grid fallback run
        seen = {"steps": set(), "A": [], "t_end": [], "paths": set()}
        for seed in range(320):
            rng = np.random.default_rng(seed)
            steps = int(round(np.exp(rng.uniform(np.log(2.0), np.log(4001.0)))))
            psi = rng.uniform(-7.0, 7.0)
            near_zero = rng.uniform() < 1.0 / 3.0
            base = resonance_scn(
                kind=("vector", "tensor")[seed % 2], steps=steps,
                Omega=rng.uniform(1.0, 100.0), A=10.0**rng.uniform(-7.0, 0.5),
                t_end=10.0**rng.uniform(-2.0, 3.0), theta=rng.uniform(0.0, np.pi),
                psi=psi, phi=2.0 * psi + (rng.normal(scale=1e-3) if near_zero
                                          else rng.uniform(-7.0, 7.0)))
            reach = rng.uniform(0.01, 1.6) * (steps - 1) / base.t_end
            grid = 2.0 * base.Omega + reach * rng.uniform(-1.0, 1.0, int(rng.integers(1, 30)))
            if seed % 5 == 0:
                grid = np.append(grid, 2.0 * base.Omega)
            expected = [whole_grid_maximum(base, w) for w in grid]
            assert np.array_equal(dy.resonance_scan(base, grid).peaks, expected), seed
            width = scan_widths(base, grid)
            seen["paths"] |= {"whole" if w == steps else "search" for w in width}
            seen["steps"].add(steps)
            seen["A"].append(base.A)
            seen["t_end"].append(base.t_end)
        assert seen["paths"] == {"search", "whole"}
        assert min(seen["steps"]) == 2 and max(seen["steps"]) > 3000
        assert min(seen["A"]) < 1e-6 and max(seen["t_end"]) > 500.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_frequency_raises(self, bad, monkeypatch):
        def never(*args):
            raise AssertionError("the closed form ran")

        monkeypatch.setattr(dy, "_resonance_pz", never)
        with pytest.raises(DomainError, match="finite"):
            dy.resonance_scan(resonance_scn(), [bad, 100.0])

    def test_overflowing_phase_raises_before_the_kernel(self, monkeypatch):
        calls = record_kernel_calls(monkeypatch)
        base = resonance_scn(Omega=50.0, omega_drive=100.0, t_end=10.0, steps=11)
        with pytest.raises(DomainError, match="finite omega' t_end"):
            dy.resonance_scan(base, [100.0, 1e308])
        assert calls == []

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
        tab = dy.level_splitting(1, 1e-35, 0.0)
        assert np.all(tab.shifts == 0.0)

    def test_L1_ratios(self):
        tab = dy.level_splitting(1, 1.6e-35, -1e4)
        ratios = np.sort(tab.shifts / np.max(np.abs(tab.shifts)))
        assert np.allclose(ratios, [0.0, 1.0, 1.0], atol=1e-12)

    def test_linear_in_gradient(self):
        t1 = dy.level_splitting(2, 1e-35, -1e3)
        t2 = dy.level_splitting(2, 1e-35, -2e3)
        assert np.allclose(t2.shifts, 2.0 * t1.shifts, rtol=1e-12)

    def test_shift_sum_matches_operator_trace(self):
        for L in (1, 2, 5):
            tab = dy.level_splitting(L, 1.3e-35, -4e3)
            expected = tab.coefficient * L * (L + 1) * (2 * L + 1) / 3.0
            assert np.sum(tab.shifts) == pytest.approx(expected, rel=1e-12)

    def test_labels_carry_projection(self):
        tab = dy.level_splitting(1, 1e-35, -1e3)
        labels = [label for label, _ in tab.levels]
        assert labels[0].startswith("m_r=+1")
        assert labels[1].startswith("m_r=+0")
        assert labels[2].startswith("m_r=-1")


class TestSpectralEstimator:
    def test_two_tone_accuracy(self):
        t = np.linspace(0.0, 40 * 2 * np.pi / 7.3, 8192)
        y = 0.4 * np.sin(7.3 * t + 0.2) + 0.25 * np.sin(9.1 * t + 1.0)
        peaks = dominant_frequencies(t, y, n_peaks=2)
        freqs = sorted(p[0] for p in peaks)
        assert freqs[0] == pytest.approx(7.3, rel=5e-4)
        assert freqs[1] == pytest.approx(9.1, rel=5e-4)

    @pytest.mark.parametrize("n", [0, 1])
    def test_needs_two_samples(self, n):
        with pytest.raises(DomainError, match="2 samples"):
            dominant_frequencies(np.zeros(n), np.ones(n))

    def test_needs_uniform_grid(self):
        t = np.array([0.0, 0.1, 0.3, 0.4])
        with pytest.raises(DomainError):
            dominant_frequencies(t, np.zeros_like(t))


class TestSeriesSerialization:
    def test_csv_header_and_shape(self):
        series = dy.closed_form(frozen_scn(steps=5))
        buf = io.StringIO()
        dy.write_series_csv(series, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,P_rho,P_phi,P_z,P_rr,P_pp,P_zz,P_rp,P_rz,P_pz,source"
        assert len(lines) == 6
        assert lines[1].endswith(",closed_form")
        assert lines[1].split(",")[1] == "nan"   # P_rho undefined in frozen closed form

    @pytest.mark.parametrize("closed", [
        lambda: dy.closed_form(tmp_scn(steps=5000)),
        lambda: dy.closed_form(frozen_scn(steps=5000, kind="vector")),
        lambda: dy.closed_form(resonance_scn(steps=5000))],
        ids=["tmp", "frozen", "resonance"])
    def test_closed_form_tensor_is_a_read_only_nan_view(self, closed):
        series = closed()
        assert not series.Pt.flags.writeable and np.isnan(series.Pt).all()
        assert series.Pt.strides == (0, 0, 0)
        # the bytes are those of a writable NaN tensor
        full = replace(series, Pt=np.full((len(series), 3, 3), np.nan))
        for write in (dy.write_series_csv, dy.write_series_json):
            a, b = io.StringIO(), io.StringIO()
            write(series, a)
            write(full, b)
            assert a.getvalue() == b.getvalue()
        series.validate()

    def test_csv_header_constant_is_the_readme_header(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert f"exact header\n\n```\n{dy.SERIES_CSV_HEADER}\n```\n" in readme

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
        # series have columns that are NaN or infinite in some rows only, and
        # values where the notation changes or the kernel hands over
        closed_tmp = dy.closed_form(tmp_scn(theta=0.0, steps=9000))
        assert np.any(np.signbit(closed_tmp.P) & (closed_tmp.P == 0.0))
        for series in (closed_tmp, partly_defined_series(), boundary_series(), empty_series(),
                       dy.closed_form(frozen_scn(steps=4099)),
                       dy.closed_form(resonance_scn(steps=300)),
                       dy.evolve_oracle(frozen_scn(L=2, steps=300)),
                       dy.evolve_oracle(resonance_scn(steps=65, drive="linear"), rtol=1e-6)):
            buf = io.StringIO()
            dy.write_series_csv(series, buf)
            assert_same_text(buf.getvalue(), per_cell(series))

    @pytest.mark.parametrize("series", [
        dy.closed_form(tmp_scn(theta=0.0, steps=301)),
        dy.closed_form(frozen_scn(steps=301)),
        dy.closed_form(resonance_scn(kind="vector", steps=301)),
        dy.evolve_oracle(frozen_scn(L=2, steps=301)),
        partly_defined_series(),
        empty_series(),
        boundary_series(),
        dy.closed_form(tmp_scn(theta=0.0, steps=9000)),
    ], ids=["tmp", "frozen", "resonance", "oracle", "partly-defined", "empty", "boundary",
            "tmp-9000-rows"])
    def test_json_bytes_match_json_dumps(self, series):
        # tmp at theta = 0 carries -0.0; 9000 rows span three write blocks;
        # the hand-built series have columns that are NaN or infinite in
        # some rows only, and values where the notation changes or the
        # kernel hands over to repr
        pt = series.Pt
        doc = {"t": series.times, "P_rho": series.P[:, 0], "P_phi": series.P[:, 1],
               "P_z": series.P[:, 2], "P_rr": pt[:, 0, 0], "P_pp": pt[:, 1, 1],
               "P_zz": pt[:, 2, 2], "P_rp": pt[:, 0, 1], "P_rz": pt[:, 0, 2],
               "P_pz": pt[:, 1, 2]}
        doc = {k: [None if math.isnan(x) else x for x in v.tolist()] for k, v in doc.items()}
        doc["source"] = series.source
        buf = io.StringIO()
        dy.write_series_json(series, buf)
        assert_same_text(buf.getvalue(), json.dumps(doc, indent=2) + "\n")

    def test_json_dict_nan_handling(self):
        buf = io.StringIO()
        dy.write_series_json(dy.closed_form(frozen_scn(steps=4)), buf)
        doc = json.loads(buf.getvalue())
        assert doc["source"] == "closed_form"
        assert doc["P_rho"][0] is None
        assert doc["P_z"][0] == 0.0

    def test_validate_rejects_bad_times(self):
        series = dy.closed_form(frozen_scn(steps=8))
        series.times[3] = series.times[2]
        with pytest.raises(DomainError):
            series.validate()
