import numpy as np
import pytest

from oamsim import am_core as am
from oamsim.errors import DomainError


def direction(theta, psi):
    return np.array([np.sin(theta) * np.cos(psi),
                     np.sin(theta) * np.sin(psi),
                     np.cos(theta)])


def pure(vec):
    """The beam of one state vector, at weight 1."""
    return np.ones(1), np.asarray(vec, dtype=complex)[None]


def density(beam):
    """rho = sum_k w_k |m_k><m_k| of a beam (weights, members)."""
    weights, members = beam
    return np.einsum("k,ki,kj->ij", weights, members, members.conj())


def random_beam(rng, dim, k):
    """k random unit members of dimension dim with Dirichlet weights."""
    members = rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))
    members /= np.linalg.norm(members, axis=1, keepdims=True)
    return rng.dirichlet(np.ones(k)), members


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
        vec = am.coherent_state(ops, 0.0, 2.3)
        assert abs(abs(vec[0]) - 1.0) < 1e-12
        assert np.allclose(am.polarization_vector(pure(vec), ops), [0, 0, 1], atol=1e-12)

    def test_equatorial(self):
        ops = am.build_operators(1)
        vec = am.coherent_state(ops, np.pi / 2, 0.0)
        assert np.allclose(am.polarization_vector(pure(vec), ops), [1, 0, 0], atol=1e-10)

    def test_large_L_direction(self):
        ops = am.build_operators(10)
        vec = am.coherent_state(ops, np.pi / 4, np.pi / 3)
        p = am.polarization_vector(pure(vec), ops)
        assert np.max(np.abs(p - direction(np.pi / 4, np.pi / 3))) < 1e-10

    @pytest.mark.parametrize("L", [1, 3])
    def test_direction_grid(self, L):
        ops = am.build_operators(L)
        thetas = np.linspace(0.0, np.pi, 12)
        psis = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        for theta in thetas:
            for psi in psis:
                p = am.polarization_vector(pure(am.coherent_state(ops, theta, psi)), ops)
                assert np.max(np.abs(p - direction(theta, psi))) < 1e-10
                assert abs(np.linalg.norm(p) - 1.0) < 1e-10

    @pytest.mark.parametrize("L", [1, 2, 3, 20, 100])
    def test_binomial_amplitudes_match_the_rotation(self, L):
        # the closed form against exp(-i theta (-sin psi Lx + cos psi Ly)) |L, L>
        from scipy.linalg import expm
        ops = am.build_operators(L)
        for theta, psi in ((0.4, 0.0), (np.pi / 2, np.pi / 4), (1.1, -2.3),
                           (2.9, 5.0), (np.pi - 1e-6, 0.7), (-0.6, 1.2), (4.0, 0.3)):
            generator = theta * ops.observable(-np.sin(psi) * am.OBSERVABLES[0]
                                               + np.cos(psi) * am.OBSERVABLES[1])
            rotated = expm(-1j * generator)[:, 0]
            got = am.coherent_state(ops, theta, psi)
            assert np.max(np.abs(got - rotated)) <= 1e-13, (theta, psi)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="needs an extended-precision long double")
    def test_phases_match_a_long_double_reference(self):
        # k psi is exact in 64 mantissa bits for k <= 2L = 200
        ops = am.build_operators(100)
        k = np.arange(ops.dim, dtype=np.longdouble)
        rng = np.random.default_rng(20261019)
        for theta, psi in zip(rng.uniform(0.5, 2.6, 50), rng.uniform(-2 * np.pi, 2 * np.pi, 50)):
            data = am.coherent_state(ops, theta, psi)
            phase = k * np.longdouble(psi)
            deviation = data / np.abs(data) - (np.cos(phase) + 1j * np.sin(phase))
            assert np.max(np.abs(deviation)) <= 1e-15, (theta, psi)

    @pytest.mark.parametrize("L", [1, 4, 100])
    def test_poles_are_exact_basis_vectors(self, L):
        ops = am.build_operators(L)
        north = np.zeros(2 * L + 1, dtype=complex)
        north[0] = 1.0
        assert np.array_equal(am.coherent_state(ops, 0.0, 2.3), north)
        assert np.array_equal(am.coherent_state(ops, np.pi, 0.0), north[::-1])
        south = am.coherent_state(ops, np.pi, 0.4)
        assert np.count_nonzero(south) == 1 and south[-1] == np.exp(2j * L * 0.4)

    @pytest.mark.parametrize("L", [1, 2, 100])
    @pytest.mark.parametrize("theta", [5e-324, -5e-324])
    def test_half_angle_whose_sine_underflows_is_the_north_pole(self, L, theta):
        # 0.5 * theta rounds to 0, so sin(theta / 2) is 0 and its log undefined
        ops = am.build_operators(L)
        got = am.coherent_state(ops, theta, 2.3)
        assert got.tobytes() == am.coherent_state(ops, 0.0, 2.3).tobytes()
        # the next float's half angle is subnormal, not 0: the binomial route
        assert np.count_nonzero(am.coherent_state(ops, 1e-323, 2.3)) > 1


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
        assert np.array_equal(mix[0], [0.5, 0.5])
        assert np.max(np.abs(density(mix) - expected)) < 1e-12

    def test_tensor_matches_coherent(self):
        # mixing antiparallel beams keeps the coherent-state tensor
        ops = am.build_operators(4)
        theta, psi = 1.1, 0.6
        mix = am.tensor_mixture(ops, theta, psi)
        coh = pure(am.coherent_state(ops, theta, psi))
        assert np.max(np.abs(am.polarization_tensor(mix, ops)
                             - am.polarization_tensor(coh, ops))) < 1e-10

    def test_tensor_component_self_consistency(self):
        # P_rr from an explicit trace against the packaged extraction
        ops = am.build_operators(1)
        mix = am.tensor_mixture(ops, np.pi / 2, 0.0)
        rho = density(mix)
        raw = (3.0 * np.trace(rho @ (2.0 * ops.Lx @ ops.Lx)).real - 4.0) / 2.0
        pt = am.polarization_tensor(mix, ops)
        assert abs(pt[0, 0] - (raw + 1.0 / 3.0)) < 1e-12


class TestPolarizationExtraction:
    def test_highest_weight_vector(self):
        ops = am.build_operators(1)
        st = pure([1.0, 0.0, 0.0])
        assert np.allclose(am.polarization_vector(st, ops), [0, 0, 1])

    def test_maximally_mixed(self):
        # the equal-weight beam of the basis vectors
        ops = am.build_operators(2)
        st = (np.full(5, 0.2), np.eye(5, dtype=complex))
        assert np.max(np.abs(am.polarization_vector(st, ops))) < 1e-14
        assert np.allclose(am.polarization_tensor(st, ops),
                           np.eye(3) / 3.0, atol=1e-12)

    def test_dimension_mismatch(self):
        ops = am.build_operators(2)
        st = pure([1.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            am.polarization_vector(st, ops)
        with pytest.raises(DomainError):
            am.polarization_tensor(st, ops)

    def test_unit_trace_convention(self):
        ops = am.build_operators(1)
        st = pure([1.0, 0.0, 0.0])
        assert abs(np.trace(am.polarization_tensor(st, ops)) - 1.0) < 1e-10

    def test_traceless_variant_m0(self):
        # bare quadrupole form on |1,0>: P_zz = (3*0 - 2*2)/(2*1*1) = -2
        ops = am.build_operators(1)
        st = pure([0.0, 1.0, 0.0])
        pt = am.polarization_tensor(st, ops, traceless=True)
        assert abs(pt[2, 2] - (-2.0)) < 1e-12
        assert abs(np.trace(pt)) < 1e-12

    def test_random_states_trace_one(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            L = int(rng.integers(1, 6))
            ops = am.build_operators(L)
            vec = rng.normal(size=ops.dim) + 1j * rng.normal(size=ops.dim)
            st = pure(vec / np.linalg.norm(vec))
            pt = am.polarization_tensor(st, ops)
            assert abs(np.trace(pt) - 1.0) < 1e-10
            assert np.max(np.abs(pt - pt.T)) < 1e-12
            assert np.linalg.norm(am.polarization_vector(st, ops)) <= 1.0 + 1e-10


def _per_state_polarization(beam, ops):
    """Reference: rho built densely from the beam, one Tr(rho O) per observable,
    anticommutators rebuilt."""
    rho = density(beam)

    def expectation(op):
        return np.trace(rho @ op).real

    comps = (ops.Lx, ops.Ly, ops.Lz)
    p = np.array([expectation(op) / ops.L for op in comps])
    t = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            val = 3.0 * expectation(comps[i] @ comps[j] + comps[j] @ comps[i])
            if i == j:
                val -= 2.0 * ops.L * (ops.L + 1.0)
            t[i, j] = val / (2.0 * ops.L * (2.0 * ops.L - 1.0))
    return p, t + np.eye(3) / 3.0


class TestBatchedExtraction:
    @pytest.mark.parametrize("L", [1, 2, 7, 20])
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_matches_per_state_formula(self, L, kind):
        # nine beams of one member, or of three with Dirichlet weights
        rng = np.random.default_rng(L)
        ops = am.build_operators(L)
        beams = [random_beam(rng, ops.dim, 1 if kind == "pure" else 3) for _ in range(9)]
        for beam in beams:
            p_ref, pt_ref = _per_state_polarization(beam, ops)
            assert np.max(np.abs(am.polarization_vector(beam, ops) - p_ref)) < 1e-12
            assert np.max(np.abs(am.polarization_tensor(beam, ops) - pt_ref)) < 1e-12
        members = np.concatenate([m for _, m in beams])
        p, pt = am.polarization_batch(members, ops)
        for k, vec in enumerate(members):
            p_ref, pt_ref = _per_state_polarization(pure(vec), ops)
            assert np.max(np.abs(p[k] - p_ref)) < 1e-12
            assert np.max(np.abs(pt[k] - pt_ref)) < 1e-12


class TestObservableTable:
    @pytest.mark.parametrize("L", [1, 2, 3, 20, 100])
    def test_rows_match_dense_products(self, L):
        ops = am.build_operators(L)
        comps = (ops.Lx, ops.Ly, ops.Lz)
        obs = [ops.observable(row) for row in am.OBSERVABLES]
        for k in range(3):
            assert np.array_equal(obs[k], comps[k])
        lp = np.diag(ops.c, 1)
        assert np.array_equal(ops.Lx, (0.5 * (lp + lp.T)).astype(complex))
        assert np.array_equal(ops.Ly, -0.5j * (lp - lp.T))
        # one rounding per product term of a dense entry: 4 ulp of L(L+1)
        tol = 4.0 * 2.0**-52 * L * (L + 1)
        for (i, j), anti in zip(am.TENSOR_PAIRS, obs[3:]):
            dense = comps[i] @ comps[j] + comps[j] @ comps[i]
            assert np.max(np.abs(anti - dense)) <= tol, (i, j)
            assert np.array_equal(anti, anti.conj().T)

    @pytest.mark.parametrize("L", [1, 2, 3, 20])
    def test_parity_blocks_are_slices_of_the_dense_matrix(self, L):
        # rows without band 1 give each block bit for bit; Lx, Ly, {Lx, Lz}
        # and {Ly, Lz} couple m to m +- 1, across the blocks
        ops = am.build_operators(L)
        rows = list(am.OBSERVABLES) + [am.OBSERVABLES[3] - am.OBSERVABLES[4]]
        for k, row in enumerate(rows):
            dense = ops.observable(row)
            for block in am.PARITY_BLOCKS:
                if k in (0, 1, 7, 8):
                    with pytest.raises(DomainError, match="across the parity blocks"):
                        ops.observable(row, block)
                else:
                    assert np.array_equal(ops.observable(row, block), dense[block, block]), k

    @pytest.mark.parametrize("L", [1, 2, 3, 20, 100])
    def test_casimir_bit_for_bit(self, L):
        ops = am.build_operators(L)
        xx, yy, zz = (ops.observable(row) for row in am.OBSERVABLES[3:6])
        assert np.array_equal(xx + yy + zz, 2.0 * L * (L + 1) * np.eye(ops.dim))


def _random_stacks(L, rng):
    """Six normalized state vectors and four beams of three members for L."""
    dim = 2 * L + 1
    vecs = rng.normal(size=(6, dim)) + 1j * rng.normal(size=(6, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs, [random_beam(rng, dim, 3) for _ in range(4)]


def _expectations(p, pt, L):
    """The nine <L_i>, <{L_i, L_j}> (TENSOR_PAIRS order) that polarization_batch scaled."""
    anti = np.stack([pt[:, i, j] for i, j in am.TENSOR_PAIRS], axis=1)
    anti[:, :3] -= 1.0 / 3.0
    anti = (anti * 2.0 * L * (2.0 * L - 1.0) + np.array([2.0] * 3 + [0.0] * 3) * L * (L + 1)) / 3.0
    return np.hstack([p * L, anti])


class TestBandedAlgebra:
    def test_ladder_coefficients(self):
        ops = am.build_operators(2)
        assert np.array_equal(ops.m, [2.0, 1.0, 0.0, -1.0, -2.0])
        assert np.array_equal(ops.c, np.sqrt([4.0, 6.0, 6.0, 4.0]))
        lp = ops.Lx + 1j * ops.Ly
        assert np.array_equal(lp, np.diag(ops.c, 1).astype(complex))
        assert np.array_equal(ops.Lz, np.diag(ops.m).astype(complex))

    @pytest.mark.parametrize("L", [1, 2, 3, 5, 20, 100])
    def test_matches_dense_contraction(self, L):
        # the nine expectations against the dense contraction with the products
        ops = am.build_operators(L)
        comps = (ops.Lx, ops.Ly, ops.Lz)
        obs = np.stack(list(comps) + [comps[i] @ comps[j] + comps[j] @ comps[i]
                                      for i, j in am.TENSOR_PAIRS])
        vecs, beams = _random_stacks(L, np.random.default_rng(L))
        rhos = np.array([density(beam) for beam in beams])
        dense = {"pure": np.einsum("ni,kij,nj->nk", vecs.conj(), obs, vecs).real,
                 "mixed": np.einsum("nij,kji->nk", rhos, obs).real}
        mixed = (np.array([am.polarization_vector(beam, ops) for beam in beams]),
                 np.array([am.polarization_tensor(beam, ops) for beam in beams]))
        for kind, pol in (("pure", am.polarization_batch(vecs, ops)), ("mixed", mixed)):
            got = _expectations(*pol, L)
            assert np.max(np.abs(got - dense[kind])) <= 1e-12 * L * (L + 1), kind

    @pytest.mark.parametrize("L", [1, 4])
    def test_signs_of_the_ladder_band(self, L):
        # <L+> = <Lx> + i <Ly>: psi = pi/2 points along phi, psi = 0 along rho,
        # for a stack of state vectors and for a beam alike
        ops = am.build_operators(L)
        for psi, axis in ((np.pi / 2, 1), (0.0, 0)):
            vec = am.coherent_state(ops, np.pi / 2, psi)
            for p in (am.polarization_batch(vec[None], ops)[0][0],
                      am.polarization_vector(pure(vec), ops)):
                assert p[axis] == pytest.approx(1.0, abs=1e-12)
                assert np.max(np.abs(np.delete(p, axis))) < 1e-12

    def test_operators_are_a_record_of_four_fields(self):
        ops = am.build_operators(2)
        assert am.AmOperators._fields == ("L", "m", "c", "bands")
        L, m, c, (q0, q1, q2) = ops
        assert L == 2 and m is ops.m and c is ops.c
        assert np.array_equal(q0, [np.ones(5), m, m * m])
        assert np.array_equal(q1, [c, c * (m[:-1] + m[1:])])
        assert np.array_equal(q2, [c[:-1] * c[1:]])

    @pytest.mark.parametrize("L", [1, 2, 7])
    def test_every_array_is_read_only(self, L):
        # every observable reads the bands, so one stray write would corrupt them all
        ops = am.build_operators(L)
        for array in (ops.m, ops.c, *ops.bands):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert np.array_equal(ops.Lz, np.diag(np.arange(L, -L - 1, -1)).astype(complex))

    def test_extraction_memory_is_linear_in_the_stack(self):
        # 4002 states at L = 100, as the frozen tensor oracle at 2001 steps extracts
        import tracemalloc
        ops = am.build_operators(100)
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4002, ops.dim)) + 1j * rng.normal(size=(4002, ops.dim))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            am.polarization_batch(data, ops)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3 * data.nbytes


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

    def test_rejects_bad_kind(self):
        with pytest.raises(DomainError):
            am.initial_polarization_closed(0.1, 0.2, "scalar")


class TestStateValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # 0 times a non-finite psi makes the pole amplitude NaN, and a NaN
        # theta every amplitude; the norm check rejects both
        ops = am.build_operators(1)
        with pytest.raises(DomainError, match="norm"):
            am.coherent_state(ops, 0.0, bad)
        with pytest.raises(DomainError, match="norm"):
            am.coherent_state(ops, np.nan, 0.3)

    @pytest.mark.parametrize("theta, psi", [(np.inf, 0.3), (-np.inf, 0.3), (1.1, np.nan),
                                            (1.1, np.inf), (1.1, -np.inf), (np.pi, np.inf)],
                             ids=["theta-inf", "theta-minus-inf", "psi-nan", "psi-inf",
                                  "psi-minus-inf", "pole-psi-inf"])
    def test_non_finite_angle_is_one_domain_error(self, theta, psi):
        # rejected before any arithmetic: no ValueError, OverflowError or warning
        ops = am.build_operators(2)
        with pytest.raises(DomainError, match="theta and psi must be finite"):
            am.coherent_state(ops, theta, psi)
