"""Angular-momentum operator algebra, beam states, and polarization extraction.

Operators live on the (2L+1)-dimensional space spanned by |L, m> with the
basis ordered m = L, L-1, ..., -L.  A beam is the pair (weights, members):
a (k, dim) stack of pure member vectors and their (k,) weights, which sum
to 1; its polarization is the weighted sum of the members'.  Polarization
components are reported in cylindrical axes (rho, phi, z) treated as a fixed
right-handed frame of the co-moving beam description, so (rho, phi, z) map
onto Cartesian (x, y, z).
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, require_int

_NORM_TOL = 1e-12
# tensor components (i, j) in the order of OBSERVABLES[3:]
TENSOR_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
# Lx, Ly, Lz, then {L_i, L_j} in TENSOR_PAIRS order, as rows t over the band
# quantities Q of AmOperators.bands: O = sum_q t_q Q_q, each Q above the diagonal
# plus its adjoint, so <O> sums t_q <Q_q> on the diagonal, 2 Re(t_q <Q_q>) above.
OBSERVABLES = np.array([
    # L(L+1) Lz  Lz^2  L+     {L+,Lz} L+^2
    [0,      0,  0,    0.5,   0,      0],        # Lx = (L+ + L-)/2
    [0,      0,  0,    -0.5j, 0,      0],        # Ly = (L+ - L-)/2i
    [0,      1,  0,    0,     0,      0],        # Lz
    [1,      0,  -1,   0,     0,      0.5],      # {Lx, Lx} = L(L+1) - Lz^2 + (L+^2 + L-^2)/2
    [1,      0,  -1,   0,     0,      -0.5],     # {Ly, Ly} = L(L+1) - Lz^2 - (L+^2 + L-^2)/2
    [0,      0,  2,    0,     0,      0],        # {Lz, Lz}
    [0,      0,  0,    0,     0,      -0.5j],    # {Lx, Ly} = (L+^2 - L-^2)/2i
    [0,      0,  0,    0,     0.5,    0],        # {Lx, Lz} = ({L+, Lz} + {L-, Lz})/2
    [0,      0,  0,    0,     -0.5j,  0],        # {Ly, Lz} = ({L+, Lz} - {L-, Lz})/2i
])
OBSERVABLES.flags.writeable = False
# the rows as real weights on the diagonal <Q>, then on Re and Im of each band
# <Q>, as 2 Re(t <Q>) = 2 Re t Re<Q> - 2 Im t Im<Q>: contiguous, for BLAS
_WEIGHTS = np.hstack([OBSERVABLES[:, :3].real, 2.0 * np.stack(
    [OBSERVABLES[:, 3:].real, -OBSERVABLES[:, 3:].imag], axis=-1).reshape(9, 6)])
# basis indices of the two eigenspaces of exp(i pi Lz), even and odd L - m;
# an operator that couples m only to m and m +- 2 is block diagonal in them
PARITY_BLOCKS = (slice(0, None, 2), slice(1, None, 2))


class AmOperators(NamedTuple):
    """The angular-momentum algebra for quantum number L, basis m = L, L-1, ..., -L.

    m (dim,) is the diagonal of Lz and c (dim-1,) the one nonzero diagonal
    of L+: c[i] = <m_i|L+|m_{i+1}> = sqrt(L(L+1) - m_{i+1}(m_{i+1} + 1)).
    Every operator here is banded: bands holds the band quantities Q of
    OBSERVABLES at offsets 0, 1 and 2, as the arrays (1, Lz, Lz^2),
    (L+, {L+, Lz}) and (L+^2,), and observable(t) makes a row t a dense
    Hermitian matrix, or one parity block of it.  build_operators makes
    every array read-only.  Lx, Ly, Lz and Lsq = Lx^2 + Ly^2 + Lz^2 (public
    API, checks) build a dense matrix on each access.
    """

    L: int
    m: np.ndarray
    c: np.ndarray
    bands: tuple
    Lx = property(lambda self: self.observable(OBSERVABLES[0]))
    Ly = property(lambda self: self.observable(OBSERVABLES[1]))
    Lz = property(lambda self: self.observable(OBSERVABLES[2]))

    @property
    def Lsq(self):
        lx, ly, lz = self.Lx, self.Ly, self.Lz
        return lx @ lx + ly @ ly + lz @ lz

    @property
    def dim(self):
        return 2 * self.L + 1

    def observable(self, coeffs, rows=slice(None)):
        """Matrix of a row of OBSERVABLES or a real combination of rows, on the
        basis indices rows: the whole space, or one of PARITY_BLOCKS.

        The diagonal t_0 L(L+1) + t_1 m + t_2 m^2 is exact for integer t_0,
        t_1, t_2.  On a parity block band 2 is the first off-diagonal, and a
        nonzero band 1, which couples the blocks, is a DomainError.
        """
        t, index, q = np.asarray(coeffs), range(self.dim)[rows], self.bands
        d = len(index)
        out = np.zeros((d, d), dtype=complex)
        flat = out.reshape(-1)      # diagonal k of out is flat[k::d + 1], cut at row d - k
        flat[::d + 1] = (t[:3].real * (self.L * (self.L + 1.0), 1.0, 1.0)) @ q[0][:, rows]
        for k, band in ((1, t[3:5] @ q[1]), (2, t[5:] @ q[2])):
            if k % index.step:
                if band.any():
                    raise DomainError(f"the row couples m to m +- {k}, across the parity blocks")
                continue
            band, j = band[rows], k // index.step
            flat[j:(d - j) * d:d + 1] = band
            flat[j * d::d + 1] = band.conj()
        return out


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
    bands = (np.array([np.ones(2 * L + 1), m, m * m]), np.array([c, c * (m[:-1] + m[1:])]),
             np.array([c[:-1] * c[1:]]))
    for array in (m, c, *bands):
        array.flags.writeable = False
    return AmOperators(L=L, m=m, c=c, bands=bands)


def _unit_norm(vec):
    """vec, after checking that its norm is 1 within _NORM_TOL."""
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= _NORM_TOL:    # written so that a NaN norm fails too
        raise DomainError(f"pure state norm {norm} deviates from 1 beyond {_NORM_TOL}")
    return vec


def coherent_state(ops, theta, psi):
    """Highest-weight state |L, L> rotated so <L>/L points along
    (sin(theta) cos(psi), sin(theta) sin(psi), cos(theta)).

    The rotation is exp(-i theta (-sin(psi) Lx + cos(psi) Ly)) applied to
    |L, L>, i.e. a rotation by theta about the axis obtained by turning
    e_y through psi about z.  Its amplitudes are binomial: with k = L - m,

        c_k = sqrt(C(2L, k)) cos^(2L-k)(theta/2) sin^k(theta/2) exp(i k psi),

    taken in log space with the sign of each factor, so that none overflows
    or underflows before the product does.  At theta = 0 and theta = pi the
    state is exactly |L, L> and exp(2i L psi) |L, -L>; at |theta| = 5e-324,
    whose half angle rounds to 0, it is |L, L> too.  Returns the (dim,)
    vector.  A non-finite theta or psi, which has no unit-norm state, is a
    DomainError before any arithmetic, as is a norm off 1 by more than 1e-12.
    """
    if not (math.isfinite(theta) and math.isfinite(psi)):
        raise DomainError(f"theta and psi must be finite for a unit-norm state, "
                          f"got theta={theta}, psi={psi}")
    n = 2 * ops.L
    cos_half, sin_half = math.cos(0.5 * theta), math.sin(0.5 * theta)
    if sin_half == 0.0 or theta == np.pi:
        # a vanishing half-angle factor would make 0 log 0 = NaN
        end = 0 if sin_half == 0.0 else n
        vec = np.zeros(n + 1, dtype=complex)
        vec[end] = np.exp(1j * end * psi)
        return _unit_norm(vec)
    k = np.arange(n + 1)
    # C(2L, k) as exact integers, whose logs round once
    log_abs = (0.5 * np.array([math.log(math.comb(n, j)) for j in range(n + 1)])
               + (n - k) * math.log(abs(cos_half)) + k * math.log(abs(sin_half)))
    sign = np.sign(cos_half) ** (n - k) * np.sign(sin_half) ** k
    # k psi rounds once.  With psi = hi + lo, hi on 53 - bit_length(n) bits,
    # every k hi is exact, so the rounding error of k psi is known to about
    # 1e-30 and undone to first order: exp(i e) = 1 + i e + O(e^2).  Where
    # k psi is exact the correction is 0 and changes no bit.
    mantissa, exponent = math.frexp(psi)
    shift = 53 - n.bit_length()
    hi = math.ldexp(round(math.ldexp(mantissa, shift)), exponent - shift)
    phase = k * psi
    rounding = (k * hi - phase) + k * (psi - hi)
    return _unit_norm(sign * np.exp(log_abs) * (np.exp(1j * phase) * (1.0 + 1j * rounding)))


def tensor_mixture(ops, theta, psi):
    """Beam of the coherent states with direction (theta, psi) and its antipode
    (pi - theta, psi + pi), weight 1/2 each: (weights (2,), members (2, dim)).

    It has zero vector polarization; its polarization tensor matches the
    single coherent state with direction (theta, psi).
    """
    return np.full(2, 0.5), np.stack([coherent_state(ops, theta, psi),
                                      coherent_state(ops, np.pi - theta, psi + np.pi)])


def polarization_batch(data, ops, traceless=False):
    """Vector and tensor polarization of a stack of states, from the bands of the algebra.

    data is an (n, dim) stack of state vectors; a beam's members are such a
    stack (polarization_vector and polarization_tensor weight them).  Returns
    P of shape (n, 3), P_i = <L_i>/L in cylindrical axes (rho, phi, z), and
    Pt of shape (n, 3, 3), the rank-2 tensor

        T_ij = (3 <L_i L_j + L_j L_i> - 2 L(L+1) delta_ij) / (2L(2L-1)),

    which is traceless by construction.  The default convention adds
    delta_ij/3 so that the tensor has unit trace (the maximally mixed beam,
    every basis vector at weight 1/dim, then maps to diag(1/3, 1/3, 1/3));
    pass traceless=True for the bare form.

    Lz is diagonal, L+ has the one band c (AmOperators), and L-+ = (L+-)^H,
    so the nine expectations take only the diagonals of rho = |psi><psi| at
    offsets 0, -1 and -2, rho_{i+k,i} = conj(psi_i) psi_{i+k}: the trace and
    five sums,

        tr = Tr rho,  <Lz> = sum m rho_ii,  <Lz^2> = sum m^2 rho_ii,
        <L+> = sum c_i rho_{i+1,i},  <{L+, Lz}> = sum c_i (m_i + m_{i+1}) rho_{i+1,i},
        <L+^2> = sum c_i c_{i+1} rho_{i+2,i},

    the <Q> of OBSERVABLES, whose rows combine them into the nine, e.g.
    <{Lx, Lx}> = L(L+1) tr - <Lz^2> + Re <L+^2>.  Time and memory are
    O(n dim); no dense observable is built.
    """
    data = np.asarray(data)
    n, dim = data.shape[:2]
    if dim != ops.dim:
        raise DomainError(
            f"state dimension {dim} does not match operators for L={ops.L}")

    def band(k):
        """rho_{i+k,i} for every state, as an (n, dim - k) array."""
        prod = data[:, :dim - k].conj()
        prod *= data[:, k:]
        return prod

    L, q = ops.L, ops.bands
    diag = np.ascontiguousarray(band(0).real) @ q[0].T
    diag[:, 0] *= L * (L + 1.0)
    upper = np.hstack([band(k) @ q[k].T for k in (1, 2)])
    # rows <L_i> for i = x, y, z, then <{L_i, L_j}> in TENSOR_PAIRS order
    ev = _WEIGHTS[:, :3] @ diag.T
    ev += _WEIGHTS[:, 3:] @ upper.view(float).T
    p = ev[:3].T / L
    vals = 3.0 * ev[3:].T
    vals[:, :3] -= 2.0 * L * (L + 1.0)
    vals /= 2.0 * L * (2.0 * L - 1.0)
    pt = np.empty((n, 3, 3))
    for k, (i, j) in enumerate(TENSOR_PAIRS):
        pt[:, i, j] = pt[:, j, i] = vals[:, k]
    if not traceless:
        pt[:, (0, 1, 2), (0, 1, 2)] += 1.0 / 3.0
    return p, pt


def _ensemble_polarization(weights, members, ops, traceless=False):
    """Weighted P (n, 3) and Pt (n, 3, 3) of an (n, k, dim) member stack with
    (k,) weights, from one polarization_batch of its n k members."""
    n, k, dim = members.shape
    p, pt = polarization_batch(members.reshape(n * k, dim), ops, traceless)
    return weights @ p.reshape(n, k, 3), (weights @ pt.reshape(n, k, 9)).reshape(n, 3, 3)


def polarization_vector(beam, ops):
    """P_i = <L_i>/L in cylindrical axes (rho, phi, z) of a beam (weights,
    members); see polarization_batch."""
    weights, members = beam
    return _ensemble_polarization(weights, np.asarray(members)[None], ops)[0][0]


def polarization_tensor(beam, ops, traceless=False):
    """Rank-2 polarization tensor of a beam (weights, members); see polarization_batch."""
    weights, members = beam
    return _ensemble_polarization(weights, np.asarray(members)[None], ops, traceless)[1][0]


def initial_polarization_closed(theta, psi, kind):
    """Classical-limit initial polarization for a beam aimed along n(theta, psi).

    n = (sin(th) cos(ps), sin(th) sin(ps), cos(th)) is the vector part for
    kind="vector" and zero for kind="tensor".  Both have the traceless tensor
    P_ij = (3 n_i n_j - delta_ij)/2, e.g. P_rz = 3/4 sin(2 th) cos(ps); the
    unit-trace convention of polarization_tensor adds delta_ij/3.
    """
    if kind not in ("vector", "tensor"):
        raise DomainError(f"kind must be 'vector' or 'tensor', got {kind!r}")
    n = np.array([np.sin(theta) * np.cos(psi), np.sin(theta) * np.sin(psi), np.cos(theta)])
    pt = 1.5 * np.outer(n, n) - 0.5 * np.eye(3)
    return PolarizationState(P=n if kind == "vector" else np.zeros(3), Pt=pt)
