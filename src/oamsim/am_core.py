"""Angular-momentum operator algebra, beam states, and polarization extraction.

Operators live on the (2L+1)-dimensional space spanned by |L, m> with the
basis ordered m = L, L-1, ..., -L.  Polarization components are reported in
cylindrical axes (rho, phi, z) treated as a fixed right-handed frame of the
co-moving beam description, so (rho, phi, z) map onto Cartesian (x, y, z).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

_HERM_TOL = 1e-12
_NORM_TOL = 1e-12
_EIG_TOL = 1e-10
# tensor components in the order of AmOperators.observables[3:]
_TENSOR_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class AmOperators:
    """Dense Hermitian matrices Lx, Ly, Lz (and Lx^2+Ly^2+Lz^2) for quantum number L."""

    L: int
    Lx: np.ndarray
    Ly: np.ndarray
    Lz: np.ndarray
    Lsq: np.ndarray

    @property
    def dim(self):
        return 2 * self.L + 1

    @cached_property
    def observables(self):
        """(9, dim, dim) stack: Lx, Ly, Lz, then {Li, Lj} for ij = xx, yy, zz, xy, xz, yz."""
        comps = (self.Lx, self.Ly, self.Lz)
        anti = [comps[i] @ comps[j] + comps[j] @ comps[i] for i, j in _TENSOR_PAIRS]
        return np.stack(list(comps) + anti)

    def component(self, axis):
        """Return the operator for axis 'rho'/'x', 'phi'/'y' or 'z'."""
        try:
            return {"rho": self.Lx, "x": self.Lx,
                    "phi": self.Ly, "y": self.Ly,
                    "z": self.Lz}[axis]
        except KeyError:
            raise DomainError(f"unknown axis {axis!r}") from None


@dataclass(frozen=True)
class QuantumState:
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


@dataclass(frozen=True)
class PolarizationState:
    """Vector polarization P (rho, phi, z) and symmetric 3x3 tensor Pt."""

    P: np.ndarray
    Pt: np.ndarray


def build_operators(L):
    """Construct dense angular-momentum matrices for integer L >= 1.

    Uses the ladder operators L+- with matrix elements
    sqrt(L(L+1) - m(m+-1)) in the descending-m basis, so Lz is
    diag(L, L-1, ..., -L) and [Li, Lj] = i e_ijk Lk holds to rounding.
    """
    if int(L) != L or L < 1:
        raise DomainError(f"L must be an integer >= 1, got {L}")
    L = int(L)
    m = np.arange(L, -L - 1, -1, dtype=float)
    dim = 2 * L + 1
    # L+ raises m; with descending ordering the raised state sits one row up.
    lp = np.zeros((dim, dim), dtype=complex)
    lp[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(
        L * (L + 1.0) - m[1:] * (m[1:] + 1.0))
    lm = lp.conj().T
    lx = 0.5 * (lp + lm)
    ly = -0.5j * (lp - lm)
    lz = np.diag(m).astype(complex)
    lsq = lx @ lx + ly @ ly + lz @ lz
    return AmOperators(L=L, Lx=lx, Ly=ly, Lz=lz, Lsq=lsq)


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
    """Vector and tensor polarization of a stack of states, in one contraction.

    data is an (n, dim) stack of state vectors or an (n, dim, dim) stack of
    density matrices.  Returns P of shape (n, 3), P_i = <L_i>/L in cylindrical
    axes (rho, phi, z), and Pt of shape (n, 3, 3), the rank-2 tensor

        T_ij = (3 <L_i L_j + L_j L_i> - 2 L(L+1) delta_ij) / (2L(2L-1)),

    which is traceless by construction.  The default convention adds
    delta_ij/3 so that the tensor has unit trace (the maximally mixed state
    then maps to diag(1/3, 1/3, 1/3)); pass traceless=True for the bare form.
    Only the real part of each expectation is kept: the imaginary residue of
    a Hermitian observable is rounding.
    """
    data = np.asarray(data)
    n, dim = data.shape[:2]
    if dim != ops.dim:
        raise DomainError(
            f"state dimension {dim} does not match operators for L={ops.L}")
    obs = ops.observables
    if data.ndim == 2:
        # <psi|O|psi> = sum_ij conj(psi_i) O_ij psi_j
        ev = np.einsum("nkj,nj->nk", np.tensordot(data.conj(), obs, axes=(1, 1)), data).real
    else:
        # Tr(rho O) = sum_ij rho_ij O_ji = sum_ij rho_ij conj(O_ij) for Hermitian O
        ev = (data.reshape(n, dim * dim) @ obs.reshape(len(obs), dim * dim).conj().T).real
    L = ops.L
    p = ev[:, :3] / L
    vals = 3.0 * ev[:, 3:]
    vals[:, :3] -= 2.0 * L * (L + 1.0)
    vals /= 2.0 * L * (2.0 * L - 1.0)
    pt = np.empty((n, 3, 3))
    for k, (i, j) in enumerate(_TENSOR_PAIRS):
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


def polarization_state(state, ops):
    """Bundle vector and (unit-trace) tensor polarization of a state."""
    p, pt = polarization_batch(state.data[None], ops)
    return PolarizationState(P=p[0], Pt=pt[0])


def initial_polarization_closed(theta, psi, kind, published_zz=False):
    """Classical-limit initial polarization for a beam aimed along (theta, psi).

    Evaluates the closed-form parametrization

        P_rr = (3 sin^2(th) cos^2(ps) - 1)/2,  P_pp = (3 sin^2(th) sin^2(ps) - 1)/2,
        P_zz = (3 cos^2(th) - 1)/2,            P_rp = 3/4 sin^2(th) sin(2 ps),
        P_rz = 3/4 sin(2 th) cos(ps),          P_pz = 3/4 sin(2 th) sin(ps),

    whose diagonal sums to zero (traceless convention; this differs from the
    unit-trace convention of polarization_tensor by delta_ij/3).  For
    kind="vector" the vector part is (sin(th)cos(ps), sin(th)sin(ps), cos(th));
    for kind="tensor" it is zero and the tensor is unchanged.

    published_zz=True substitutes the widely printed variant
    P_zz = (3 cos^2(th) cos^2(ps) - 1)/2, which violates the zero-sum rule at
    theta=0 and is retained only for traceability.
    """
    if kind not in ("vector", "tensor"):
        raise DomainError(f"kind must be 'vector' or 'tensor', got {kind!r}")
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(psi), np.cos(psi)
    if kind == "vector":
        p = np.array([st * cp, st * sp, ct])
    else:
        p = np.zeros(3)
    if published_zz:
        pzz = 0.5 * (3.0 * ct**2 * cp**2 - 1.0)
    else:
        pzz = 0.5 * (3.0 * ct**2 - 1.0)
    pt = np.array([
        [0.5 * (3.0 * st**2 * cp**2 - 1.0),
         0.75 * st**2 * np.sin(2.0 * psi),
         0.75 * np.sin(2.0 * theta) * cp],
        [0.75 * st**2 * np.sin(2.0 * psi),
         0.5 * (3.0 * st**2 * sp**2 - 1.0),
         0.75 * np.sin(2.0 * theta) * sp],
        [0.75 * np.sin(2.0 * theta) * cp,
         0.75 * np.sin(2.0 * theta) * sp,
         pzz],
    ])
    return PolarizationState(P=p, Pt=pt)
