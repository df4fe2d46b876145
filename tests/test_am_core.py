import numpy as np
import pytest

from oamsim import am_core as am
from oamsim.errors import DomainError


def direction(theta, psi):
    return np.array([np.sin(theta) * np.cos(psi),
                     np.sin(theta) * np.sin(psi),
                     np.cos(theta)])


class TestBuildOperators:
    def test_lz_diagonal_L1(self):
        ops = am.build_operators(1)
        assert np.allclose(ops.Lz, np.diag([1.0, 0.0, -1.0]))

    def test_commutator_L1(self):
        ops = am.build_operators(1)
        res = ops.Lx @ ops.Ly - ops.Ly @ ops.Lx - 1j * ops.Lz
        assert np.max(np.abs(res)) < 1e-12

    def test_lsq_L5(self):
        ops = am.build_operators(5)
        assert np.max(np.abs(ops.Lsq - 30.0 * np.eye(11))) < 1e-12

    @pytest.mark.parametrize("L", range(1, 13))
    def test_algebra_invariants(self, L):
        ops = am.build_operators(L)
        triples = ((ops.Lx, ops.Ly, ops.Lz), (ops.Ly, ops.Lz, ops.Lx),
                   (ops.Lz, ops.Lx, ops.Ly))
        for a, b, c in triples:
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12
        assert np.max(np.abs(ops.Lsq - L * (L + 1) * np.eye(ops.dim))) < 1e-12
        for m in (ops.Lx, ops.Ly, ops.Lz):
            assert np.max(np.abs(m - m.conj().T)) < 1e-14

    @pytest.mark.parametrize("bad", [0, -3, 1.5])
    def test_rejects_bad_L(self, bad):
        with pytest.raises(DomainError):
            am.build_operators(bad)


class TestCoherentState:
    def test_theta_zero_is_highest_weight(self):
        ops = am.build_operators(1)
        st = am.coherent_state(ops, 0.0, 2.3)
        assert abs(abs(st.data[0]) - 1.0) < 1e-12
        assert np.allclose(am.polarization_vector(st, ops), [0, 0, 1], atol=1e-12)

    def test_equatorial(self):
        ops = am.build_operators(1)
        st = am.coherent_state(ops, np.pi / 2, 0.0)
        assert np.allclose(am.polarization_vector(st, ops), [1, 0, 0], atol=1e-10)

    def test_large_L_direction(self):
        ops = am.build_operators(10)
        st = am.coherent_state(ops, np.pi / 4, np.pi / 3)
        p = am.polarization_vector(st, ops)
        assert np.max(np.abs(p - direction(np.pi / 4, np.pi / 3))) < 1e-10

    @pytest.mark.parametrize("L", [1, 3])
    def test_direction_grid(self, L):
        ops = am.build_operators(L)
        thetas = np.linspace(0.0, np.pi, 12)
        psis = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        for theta in thetas:
            for psi in psis:
                p = am.polarization_vector(am.coherent_state(ops, theta, psi), ops)
                assert np.max(np.abs(p - direction(theta, psi))) < 1e-10
                assert abs(np.linalg.norm(p) - 1.0) < 1e-10


class TestTensorMixture:
    @pytest.mark.parametrize("L,theta,psi", [(1, 0.7, 1.1), (2, np.pi / 2, 0.0),
                                             (5, 2.2, -0.4), (3, 0.0, 0.0)])
    def test_vector_polarization_vanishes(self, L, theta, psi):
        ops = am.build_operators(L)
        mix = am.tensor_mixture(ops, theta, psi)
        assert np.max(np.abs(am.polarization_vector(mix, ops))) < 1e-10

    def test_theta_zero_is_pm_mixture(self):
        ops = am.build_operators(1)
        mix = am.tensor_mixture(ops, 0.0, 0.0)
        expected = 0.5 * (np.diag([1.0, 0, 0]) + np.diag([0, 0, 1.0]))
        assert np.max(np.abs(mix.data - expected)) < 1e-12

    def test_tensor_matches_coherent(self):
        # mixing antiparallel beams keeps the coherent-state tensor
        ops = am.build_operators(4)
        theta, psi = 1.1, 0.6
        mix = am.tensor_mixture(ops, theta, psi)
        coh = am.coherent_state(ops, theta, psi)
        assert np.max(np.abs(am.polarization_tensor(mix, ops)
                             - am.polarization_tensor(coh, ops))) < 1e-10

    def test_tensor_component_self_consistency(self):
        # P_rr from an explicit trace against the packaged extraction
        ops = am.build_operators(1)
        mix = am.tensor_mixture(ops, np.pi / 2, 0.0)
        rho = mix.data
        raw = (3.0 * np.trace(rho @ (2.0 * ops.Lx @ ops.Lx)).real - 4.0) / 2.0
        pt = am.polarization_tensor(mix, ops)
        assert abs(pt[0, 0] - (raw + 1.0 / 3.0)) < 1e-12


class TestPolarizationExtraction:
    def test_highest_weight_vector(self):
        ops = am.build_operators(1)
        st = am.pure_state([1.0, 0.0, 0.0])
        assert np.allclose(am.polarization_vector(st, ops), [0, 0, 1])

    def test_maximally_mixed(self):
        ops = am.build_operators(2)
        st = am.mixed_state(np.eye(5) / 5.0)
        assert np.max(np.abs(am.polarization_vector(st, ops))) < 1e-14
        assert np.allclose(am.polarization_tensor(st, ops),
                           np.eye(3) / 3.0, atol=1e-12)

    def test_dimension_mismatch(self):
        ops = am.build_operators(2)
        st = am.pure_state([1.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            am.polarization_vector(st, ops)
        with pytest.raises(DomainError):
            am.polarization_tensor(st, ops)

    def test_unit_trace_convention(self):
        ops = am.build_operators(1)
        st = am.pure_state([1.0, 0.0, 0.0])
        assert abs(np.trace(am.polarization_tensor(st, ops)) - 1.0) < 1e-10

    def test_traceless_variant_m0(self):
        # bare quadrupole form on |1,0>: P_zz = (3*0 - 2*2)/(2*1*1) = -2
        ops = am.build_operators(1)
        st = am.pure_state([0.0, 1.0, 0.0])
        pt = am.polarization_tensor(st, ops, traceless=True)
        assert abs(pt[2, 2] - (-2.0)) < 1e-12
        assert abs(np.trace(pt)) < 1e-12

    def test_random_states_trace_one(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            L = int(rng.integers(1, 6))
            ops = am.build_operators(L)
            vec = rng.normal(size=ops.dim) + 1j * rng.normal(size=ops.dim)
            st = am.pure_state(vec / np.linalg.norm(vec))
            pt = am.polarization_tensor(st, ops)
            assert abs(np.trace(pt) - 1.0) < 1e-10
            assert np.max(np.abs(pt - pt.T)) < 1e-12
            assert np.linalg.norm(am.polarization_vector(st, ops)) <= 1.0 + 1e-10


def _per_state_polarization(state, ops):
    """Reference: one expectation per observable, anticommutators rebuilt."""
    comps = (ops.Lx, ops.Ly, ops.Lz)
    p = np.array([state.expectation(op) / ops.L for op in comps])
    t = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            val = 3.0 * state.expectation(comps[i] @ comps[j] + comps[j] @ comps[i])
            if i == j:
                val -= 2.0 * ops.L * (ops.L + 1.0)
            t[i, j] = val / (2.0 * ops.L * (2.0 * ops.L - 1.0))
    return p, t + np.eye(3) / 3.0


class TestBatchedExtraction:
    @pytest.mark.parametrize("L", [1, 2, 7, 20])
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_matches_per_state_formula(self, L, kind):
        rng = np.random.default_rng(L)
        ops = am.build_operators(L)
        states = []
        for _ in range(9):
            if kind == "pure":
                vec = rng.normal(size=ops.dim) + 1j * rng.normal(size=ops.dim)
                states.append(am.pure_state(vec / np.linalg.norm(vec)))
            else:
                raw = rng.normal(size=(ops.dim, 3)) + 1j * rng.normal(size=(ops.dim, 3))
                rho = raw @ raw.conj().T
                states.append(am.mixed_state(rho / np.trace(rho).real))
        p, pt = am.polarization_batch(np.array([st.data for st in states]), ops)
        for k, st in enumerate(states):
            p_ref, pt_ref = _per_state_polarization(st, ops)
            assert np.max(np.abs(p[k] - p_ref)) < 1e-12
            assert np.max(np.abs(pt[k] - pt_ref)) < 1e-12
            assert np.max(np.abs(am.polarization_vector(st, ops) - p_ref)) < 1e-12
            assert np.max(np.abs(am.polarization_tensor(st, ops) - pt_ref)) < 1e-12

    def test_observable_stack(self):
        ops = am.build_operators(3)
        obs = ops.observables
        assert obs.shape == (9, 7, 7)
        assert np.array_equal(obs[2], ops.Lz)
        assert np.allclose(obs[6], ops.Lx @ ops.Ly + ops.Ly @ ops.Lx, atol=0)
        assert ops.observables is obs


class TestInitialPolarizationClosed:
    def test_equatorial_vector(self):
        pol = am.initial_polarization_closed(np.pi / 2, 0.0, "vector")
        assert np.allclose(pol.P, [1, 0, 0], atol=1e-12)
        assert abs(pol.Pt[0, 0] - 1.0) < 1e-12
        assert abs(pol.Pt[1, 1] + 0.5) < 1e-12
        assert abs(pol.Pt[2, 2] + 0.5) < 1e-12

    def test_tensor_kind_zero_vector(self):
        pol = am.initial_polarization_closed(0.8, 2.1, "tensor")
        assert np.all(pol.P == 0.0)
        ref = am.initial_polarization_closed(0.8, 2.1, "vector")
        assert np.allclose(pol.Pt, ref.Pt)

    def test_rp_component(self):
        pol = am.initial_polarization_closed(np.pi / 2, np.pi / 4, "vector")
        assert abs(pol.Pt[0, 1] - 0.75) < 1e-12

    def test_diagonal_sum_rule(self):
        for theta, psi in [(0.0, 1.0), (0.7, 0.3), (np.pi / 2, 2.0)]:
            pol = am.initial_polarization_closed(theta, psi, "vector")
            assert abs(np.trace(pol.Pt)) < 1e-12

    def test_published_zz_variant(self):
        theta, psi = 0.0, 1.0
        default = am.initial_polarization_closed(theta, psi, "vector")
        printed = am.initial_polarization_closed(theta, psi, "vector",
                                                 published_zz=True)
        assert abs(default.Pt[2, 2] - 1.0) < 1e-12
        expected = 0.5 * (3.0 * np.cos(psi) ** 2 - 1.0)
        assert abs(printed.Pt[2, 2] - expected) < 1e-12
        # only the zz entry differs
        mask = np.ones((3, 3), dtype=bool)
        mask[2, 2] = False
        assert np.allclose(default.Pt[mask], printed.Pt[mask])

    def test_rejects_bad_kind(self):
        with pytest.raises(DomainError):
            am.initial_polarization_closed(0.1, 0.2, "scalar")


class TestStateValidation:
    def test_pure_norm(self):
        with pytest.raises(DomainError):
            am.pure_state([1.0, 1.0, 0.0])

    def test_mixed_trace(self):
        with pytest.raises(DomainError):
            am.mixed_state(np.eye(3))

    def test_mixed_hermiticity(self):
        rho = np.eye(3) / 3.0
        rho[0, 1] = 0.5
        with pytest.raises(DomainError):
            am.mixed_state(rho)

    def test_mixed_positivity(self):
        rho = np.diag([0.7, 0.5, -0.2])
        with pytest.raises(DomainError):
            am.mixed_state(rho)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            am.pure_state([bad, 0.0, 0.0])
        with pytest.raises(DomainError):
            am.mixed_state(np.diag([bad, 0.5, 0.5]))
