"""Angular-momentum operator algebra, beam states, and polarization extraction.

Operators live on the (2L+1)-dimensional space spanned by |L, m> with the
basis ordered m = L, L-1, ..., -L.  Polarization components are reported in
cylindrical axes (rho, phi, z) treated as a fixed right-handed frame of the
co-moving beam description, so (rho, phi, z) map onto Cartesian (x, y, z).
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, require_int

_HERM_TOL = 1e-12
_NORM_TOL = 1e-12
_EIG_TOL = 1e-10
# tensor components (i, j) in the order of AmOperators.observables[3:]
TENSOR_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
# basis indices of the two eigenspaces of exp(i pi Lz), even and odd L - m;
# an operator that couples m only to m and m +- 2 is block diagonal in them
PARITY_BLOCKS = (slice(0, None, 2), slice(1, None, 2))


@dataclass(frozen=True)
class AmOperators:
    """The angular-momentum algebra for quantum number L, basis m = L, L-1, ..., -L.

    m (dim,) is the diagonal of Lz and c (dim-1,) the one nonzero diagonal
    of L+: c[i] = <m_i|L+|m_{i+1}> = sqrt(L(L+1) - m_{i+1}(m_{i+1} + 1)).
    Every operator here is banded in this basis, and polarization_batch
    reads only m and c.  The dense Hermitian matrices Lx, Ly and Lz are
    built from them for the public API, the Hamiltonians and the algebra
    checks; Lsq = Lx^2+Ly^2+Lz^2 only for the checks, on first use.
    """

    L: int
    m: np.ndarray
    c: np.ndarray
    Lx: np.ndarray
    Ly: np.ndarray
    Lz: np.ndarray

    @property
    def dim(self):
        return 2 * self.L + 1

    @cached_property
    def Lsq(self):
        return self.Lx @ self.Lx + self.Ly @ self.Ly + self.Lz @ self.Lz

    @cached_property
    def observables(self):
        """(9, dim, dim) stack: Lx, Ly, Lz, then {Li, Lj} for ij = xx, yy, zz, xy, xz, yz."""
        comps = (self.Lx, self.Ly, self.Lz)
        anti = [comps[i] @ comps[j] + comps[j] @ comps[i] for i, j in TENSOR_PAIRS]
        obs = np.stack(list(comps) + anti)
        obs.flags.writeable = False    # callers keep views of it, e.g. as Hamiltonian terms
        return obs


class QuantumState(NamedTuple):
    """A pure state vector or a mixed-state density matrix on the |L, m> space."""

    kind: str            # "pure" | "mixed"
    data: np.ndarray     # (dim,) complex vector or (dim, dim) density matrix

    @property
    def dim(self):
        return self.data.shape[0]

    def density_matrix(self):
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return self.data

    def expectation(self, op):
        """Real part of <op>; the imaginary residue of Hermitian observables is discarded."""
        if self.kind == "pure":
            val = np.vdot(self.data, op @ self.data)
        else:
            val = np.trace(self.data @ op)
        return float(val.real)


class PolarizationState(NamedTuple):
    """Vector polarization P (rho, phi, z) and symmetric 3x3 tensor Pt."""

    P: np.ndarray
    Pt: np.ndarray


def build_operators(L):
    """Construct the angular-momentum algebra for integer L >= 1.

    The ladder coefficients c are the matrix elements
    sqrt(L(L+1) - m(m+-1)) of L+- in the descending-m basis, so Lz is
    diag(L, L-1, ..., -L) and [Li, Lj] = i e_ijk Lk holds to rounding.
    """
    require_int("L", L, 1)
    L = int(L)
    m = np.arange(L, -L - 1, -1, dtype=float)
    c = np.sqrt(L * (L + 1.0) - m[1:] * (m[1:] + 1.0))
    dim = 2 * L + 1
    # L+ raises m; with descending ordering the raised state sits one row up.
    lp = np.zeros((dim, dim), dtype=complex)
    lp[np.arange(dim - 1), np.arange(1, dim)] = c
    lm = lp.conj().T
    lx = 0.5 * (lp + lm)
    ly = -0.5j * (lp - lm)
    lz = np.diag(m).astype(complex)
    m.flags.writeable = c.flags.writeable = False
    return AmOperators(L=L, m=m, c=c, Lx=lx, Ly=ly, Lz=lz)


def expi_hermitian(matrix, scale=1.0):
    """exp(-1j * scale * matrix) for a Hermitian matrix, or a stack of them, via eigh."""
    w, v = np.linalg.eigh(matrix)
    phase = np.exp(-1j * scale * w)
    return (v * phase[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _validate_pure(vec):
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= _NORM_TOL:    # written so that a NaN norm fails too
        raise DomainError(f"pure state norm {norm} deviates from 1 beyond {_NORM_TOL}")


def _validate_mixed(rho):
    if not np.isfinite(rho).all():
        raise DomainError("density matrix has non-finite entries")
    if not np.max(np.abs(rho - rho.conj().T)) <= _HERM_TOL:
        raise DomainError("density matrix is not Hermitian")
    tr = np.trace(rho).real
    if not abs(tr - 1.0) <= _NORM_TOL:
        raise DomainError(f"density matrix trace {tr} deviates from 1 beyond {_NORM_TOL}")
    if np.min(np.linalg.eigvalsh(rho)) < -_EIG_TOL:
        raise DomainError("density matrix has an eigenvalue below the positivity tolerance")


def pure_state(vec):
    """Wrap and validate a pure state vector."""
    vec = np.asarray(vec, dtype=complex)
    _validate_pure(vec)
    return QuantumState(kind="pure", data=vec)


def mixed_state(rho):
    """Wrap and validate a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    _validate_mixed(rho)
    return QuantumState(kind="mixed", data=rho)


def coherent_state(ops, theta, psi):
    """Highest-weight state |L, L> rotated so <L>/L points along
    (sin(theta) cos(psi), sin(theta) sin(psi), cos(theta)).

    The rotation is exp(-i theta (-sin(psi) Lx + cos(psi) Ly)) applied to
    |L, L>, i.e. a rotation by theta about the axis obtained by turning
    e_y through psi about z.
    """
    generator = theta * (-np.sin(psi) * ops.Lx + np.cos(psi) * ops.Ly)
    u = expi_hermitian(generator)
    vec = u[:, 0].copy()   # |L, L> is the first basis vector
    return pure_state(vec)


def antiparallel_pair(ops, theta, psi):
    """Coherent states with direction (theta, psi) and its antipode (pi - theta, psi + pi)."""
    return coherent_state(ops, theta, psi), coherent_state(ops, np.pi - theta, psi + np.pi)


def tensor_mixture(ops, theta, psi):
    """Equal mixture of coherent states with antiparallel mean directions.

    The result has zero vector polarization; its polarization tensor matches
    the single coherent state with direction (theta, psi).
    """
    a, b = antiparallel_pair(ops, theta, psi)
    rho = 0.5 * (a.density_matrix() + b.density_matrix())
    return mixed_state(rho)


def polarization_batch(data, ops, traceless=False):
    """Vector and tensor polarization of a stack of states, from the bands of the algebra.

    data is an (n, dim) stack of state vectors or an (n, dim, dim) stack of
    density matrices.  Returns P of shape (n, 3), P_i = <L_i>/L in cylindrical
    axes (rho, phi, z), and Pt of shape (n, 3, 3), the rank-2 tensor

        T_ij = (3 <L_i L_j + L_j L_i> - 2 L(L+1) delta_ij) / (2L(2L-1)),

    which is traceless by construction.  The default convention adds
    delta_ij/3 so that the tensor has unit trace (the maximally mixed state
    then maps to diag(1/3, 1/3, 1/3)); pass traceless=True for the bare form.

    Lz is diagonal, L+ has the one band c (AmOperators), and L-+ = (L+-)^H,
    so the nine expectations take only the diagonals of rho = |psi><psi| (or
    of each density matrix) at offsets 0, -1 and -2: the trace and five sums,

        tr = Tr rho,  <Lz> = sum m rho_ii,  <Lz^2> = sum m^2 rho_ii,
        <L+> = sum c_i rho_{i+1,i},  <{L+, Lz}> = sum c_i (m_i + m_{i+1}) rho_{i+1,i},
        <L+^2> = sum c_i c_{i+1} rho_{i+2,i}.

    Then <Lx> + i <Ly> = <L+>, <{Lx, Lz}> + i <{Ly, Lz}> = <{L+, Lz}>,
    <{Lx, Lx}> = L(L+1) tr - <Lz^2> + Re <L+^2>, <{Ly, Ly}> the same with
    -Re <L+^2>, <{Lz, Lz}> = 2 <Lz^2> and <{Lx, Ly}> = Im <L+^2>.  Time and
    memory are O(n dim); the dense observables are never contracted.
    """
    data = np.asarray(data)
    n, dim = data.shape[:2]
    if dim != ops.dim:
        raise DomainError(
            f"state dimension {dim} does not match operators for L={ops.L}")
    m, c = ops.m, ops.c

    def band(k):
        """rho_{i+k,i} for every state, as a contiguous (n, dim - k) array."""
        if data.ndim == 3:
            return np.ascontiguousarray(np.diagonal(data, -k, 1, 2))
        prod = data[:, :dim - k].conj()
        prod *= data[:, k:]
        return prod

    # np.array(...).T rather than np.stack: this runs once per block or
    # refinement level, where small stacks pay mostly call overhead
    tr, lz, lzz = (np.ascontiguousarray(band(0).real) @ np.array([np.ones(dim), m, m * m]).T).T
    lp, lpz = (band(1) @ np.array([c, c * (m[:-1] + m[1:])]).T).T
    lpp = band(2) @ (c[:-1] * c[1:])
    L = ops.L
    scalar = L * (L + 1.0) * tr - lzz
    # <L_i> for i = x, y, z, then <{L_i, L_j}> in TENSOR_PAIRS order
    ev = np.array([lp.real, lp.imag, lz, scalar + lpp.real, scalar - lpp.real, 2.0 * lzz,
                   lpp.imag, lpz.real, lpz.imag]).T
    p = ev[:, :3] / L
    vals = 3.0 * ev[:, 3:]
    vals[:, :3] -= 2.0 * L * (L + 1.0)
    vals /= 2.0 * L * (2.0 * L - 1.0)
    pt = np.empty((n, 3, 3))
    for k, (i, j) in enumerate(TENSOR_PAIRS):
        pt[:, i, j] = pt[:, j, i] = vals[:, k]
    if not traceless:
        pt[:, (0, 1, 2), (0, 1, 2)] += 1.0 / 3.0
    return p, pt


def polarization_vector(state, ops):
    """P_i = <L_i>/L in cylindrical axes (rho, phi, z); see polarization_batch."""
    return polarization_batch(state.data[None], ops)[0][0]


def polarization_tensor(state, ops, traceless=False):
    """Rank-2 polarization tensor of one state; see polarization_batch."""
    return polarization_batch(state.data[None], ops, traceless)[1][0]


def initial_polarization_closed(theta, psi, kind):
    """Classical-limit initial polarization for a beam aimed along (theta, psi).

    Evaluates the closed-form parametrization

        P_rr = (3 sin^2(th) cos^2(ps) - 1)/2,  P_pp = (3 sin^2(th) sin^2(ps) - 1)/2,
        P_zz = (3 cos^2(th) - 1)/2,            P_rp = 3/4 sin^2(th) sin(2 ps),
        P_rz = 3/4 sin(2 th) cos(ps),          P_pz = 3/4 sin(2 th) sin(ps),

    whose diagonal sums to zero (traceless convention; this differs from the
    unit-trace convention of polarization_tensor by delta_ij/3).  For
    kind="vector" the vector part is (sin(th)cos(ps), sin(th)sin(ps), cos(th));
    for kind="tensor" it is zero and the tensor is unchanged.
    """
    if kind not in ("vector", "tensor"):
        raise DomainError(f"kind must be 'vector' or 'tensor', got {kind!r}")
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(psi), np.cos(psi)
    if kind == "vector":
        p = np.array([st * cp, st * sp, ct])
    else:
        p = np.zeros(3)
    pt = np.array([
        [0.5 * (3.0 * st**2 * cp**2 - 1.0),
         0.75 * st**2 * np.sin(2.0 * psi),
         0.75 * np.sin(2.0 * theta) * cp],
        [0.75 * st**2 * np.sin(2.0 * psi),
         0.5 * (3.0 * st**2 * sp**2 - 1.0),
         0.75 * np.sin(2.0 * theta) * sp],
        [0.75 * np.sin(2.0 * theta) * cp,
         0.75 * np.sin(2.0 * theta) * sp,
         0.5 * (3.0 * ct**2 - 1.0)],
    ])
    return PolarizationState(P=p, Pt=pt)
