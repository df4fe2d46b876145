"""Exact symmetries of the Hamiltonian as relations between two runs.

Each relation maps one scenario to another whose polarization follows from
the first without any reference solution, so it holds at every L for the
oracle and for the closed forms alike:

* conjugation: H = 2 A Lx^2 is real in the |L, m> basis, so complex
  conjugation maps (A, psi) to (-A, -psi) and flips P_y and the y row and
  column of Pt (Wigner, Group Theory (1959), ch. 26);
* rotation about z: exp(-i alpha Lz) maps the corotating drive at phase phi
  to phi + 2 alpha and the beam at azimuth psi to psi + alpha, so P and Pt
  rotate by alpha, and the closed-form P_z, a function of 2 psi - phi, is
  unchanged;
* time scaling: H -> k H over t_end / k gives the same states at the same
  sample indices;
* cross-mode: the linear drive at omega = phi = Omega = 0 is the frozen
  Hamiltonian with the same A, propagated piecewise instead of spectrally;
  and either resonance drive at A = 0 is tmp at b = 0, both pure Larmor
  precession Omega Lz;
* member exchange: the tensor beam at the antipodal direction
  (pi - theta, psi + pi) holds the same two members, swapped.

The tmp Hamiltonian Omega Lz + b Lz^2 is real too, so conjugation maps
(Omega, b, psi) to (-Omega, -b, -psi) with the same flips.  Every relation
runs for both beam kinds where it applies, at L = 1, 2, 3 and 20, and at
L = 100 where the oracle's path is spectral (tmp, frozen and the corotating
drive).
"""

import numpy as np
import pytest

from oamsim import dynamics as dy

LS = (1, 2, 3, 20)
SPECTRAL_LS = LS + (100,)   # the spectral path also runs at the paper's scale
KINDS = ("vector", "tensor")
BOUND = 1e-12
FLIP = np.array([1.0, -1.0, 1.0])   # complex conjugation flips P_y


def draw(L):
    """Seeded beam direction and coefficients, one set per L."""
    rng = np.random.default_rng(L)
    return dict(theta=rng.uniform(0.3, 2.8), psi=rng.uniform(-np.pi, np.pi),
                A=rng.uniform(0.2, 0.6) * rng.choice((-1.0, 1.0)),
                Omega=rng.uniform(1.5, 2.5), phi=rng.uniform(-np.pi, np.pi),
                b=rng.uniform(0.2, 0.6) * rng.choice((-1.0, 1.0)))


def assert_close(p, pt, q, qt):
    assert np.max(np.abs(p - q)) <= BOUND
    assert np.max(np.abs(pt - qt)) <= BOUND


def assert_same_defined(p, q):
    """Two closed-form P arrays agree within BOUND where defined, and are NaN alike."""
    assert np.array_equal(np.isnan(p), np.isnan(q))
    assert np.max(np.abs(np.nan_to_num(p - q))) <= BOUND


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("L", SPECTRAL_LS)
def test_conjugation_on_frozen(L, kind):
    d = draw(L)
    scn = dy.DynamicsScenario(mode="frozen", L=L, A=d["A"], theta=d["theta"], psi=d["psi"],
                              kind=kind, t_end=3.0, steps=61)
    mirror = dy.DynamicsScenario(mode="frozen", L=L, A=-d["A"], theta=d["theta"],
                                 psi=-d["psi"], kind=kind, t_end=3.0, steps=61)
    a, b = dy.evolve_oracle(scn), dy.evolve_oracle(mirror)
    assert_close(b.P, b.Pt, a.P * FLIP, a.Pt * FLIP[:, None] * FLIP)
    assert np.max(np.abs(dy.closed_form(mirror).P[:, 2] - dy.closed_form(scn).P[:, 2])) <= BOUND


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("L", SPECTRAL_LS)
def test_conjugation_on_tmp(L, kind):
    d = draw(L)

    def scenario(sign):
        return dy.DynamicsScenario(mode="tmp", L=L, Omega=sign * d["Omega"], b=sign * d["b"],
                                   theta=d["theta"], psi=sign * d["psi"], kind=kind,
                                   t_end=3.0, steps=61)

    a, b = dy.evolve_oracle(scenario(1.0)), dy.evolve_oracle(scenario(-1.0))
    assert_close(b.P, b.Pt, a.P * FLIP, a.Pt * FLIP[:, None] * FLIP)
    if kind == "tensor":    # the tmp closed form describes the tensor beam only
        assert_same_defined(dy.closed_form(scenario(-1.0)).P,
                            dy.closed_form(scenario(1.0)).P * FLIP)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("L", SPECTRAL_LS)
def test_rotation_about_z_on_corotating(L, kind):
    d = draw(L)
    alpha = 0.7
    base = dict(mode="resonance", L=L, Omega=d["Omega"], A=d["A"],
                omega_drive=2.0 * d["Omega"] + 0.3, theta=d["theta"], kind=kind,
                t_end=4.0, steps=81)
    scn = dy.DynamicsScenario(psi=d["psi"], phi=d["phi"], **base)
    turned = dy.DynamicsScenario(psi=d["psi"] + alpha, phi=d["phi"] + 2.0 * alpha, **base)
    c, s = np.cos(alpha), np.sin(alpha)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    a, b = dy.evolve_oracle(scn), dy.evolve_oracle(turned)
    assert_close(b.P, b.Pt, a.P @ rot.T, rot @ a.Pt @ rot.T)
    pz, turned_pz = (dy.closed_form(x).P[:, 2] for x in (scn, turned))
    assert np.max(np.abs(turned_pz - pz)) <= BOUND


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("L", LS)
def test_time_scaling_on_linear_drive(L, kind):
    d = draw(L)
    k = 3.0

    def scenario(scale):
        return dy.DynamicsScenario(
            mode="resonance", L=L, Omega=scale * d["Omega"], A=scale * 0.1,
            omega_drive=scale * (2.0 * d["Omega"] + 0.3), phi=d["phi"], theta=d["theta"],
            psi=d["psi"], kind=kind, t_end=2.0 / scale, steps=41, drive="linear")

    a, b = dy.evolve_oracle(scenario(1.0)), dy.evolve_oracle(scenario(k))
    assert_close(b.P, b.Pt, a.P, a.Pt)
    pz, scaled_pz = (dy.closed_form(scenario(x)).P[:, 2] for x in (1.0, k))
    assert np.max(np.abs(scaled_pz - pz)) <= BOUND


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("L", LS)
def test_undriven_linear_drive_is_frozen(L, kind):
    d = draw(L)
    beam = dict(L=L, A=d["A"], theta=d["theta"], psi=d["psi"], kind=kind,
                t_end=2.0, steps=41)
    linear = dy.evolve_oracle(dy.DynamicsScenario(mode="resonance", drive="linear", **beam))
    frozen = dy.evolve_oracle(dy.DynamicsScenario(mode="frozen", **beam))
    assert linear.diagnostics["propagator"] == "piecewise"
    assert frozen.diagnostics["propagator"] == "spectral"
    assert_close(linear.P, linear.Pt, frozen.P, frozen.Pt)


@pytest.mark.parametrize("L, kind, drive", [
    (L, kind, drive) for drive in ("corotating", "linear") for kind in KINDS for L in LS]
    + [(100, kind, "corotating") for kind in KINDS])
def test_resonance_without_quadrupole_is_larmor_precession(L, kind, drive):
    d = draw(L)
    beam = dict(L=L, Omega=d["Omega"], theta=d["theta"], psi=d["psi"], kind=kind,
                t_end=3.0, steps=61)
    resonance = dy.DynamicsScenario(mode="resonance", omega_drive=2.0 * d["Omega"] + 0.3,
                                    phi=d["phi"], drive=drive, **beam)
    tmp = dy.DynamicsScenario(mode="tmp", **beam)
    a, b = dy.evolve_oracle(resonance), dy.evolve_oracle(tmp)
    assert_close(a.P, a.Pt, b.P, b.Pt)
    if kind == "tensor":    # the one column both closed forms define
        assert np.max(np.abs(dy.closed_form(resonance).P[:, 2]
                             - dy.closed_form(tmp).P[:, 2])) <= BOUND


@pytest.mark.parametrize("L, case", [
    (L, case) for case in ("tmp", "frozen", "corotating", "linear") for L in LS]
    + [(100, case) for case in ("tmp", "frozen", "corotating")])
def test_member_exchange_on_tensor_beam(L, case):
    d = draw(L)
    coefficients = {
        "tmp": dict(mode="tmp", Omega=d["Omega"], b=d["b"]),
        "frozen": dict(mode="frozen", A=d["A"]),
        "corotating": dict(mode="resonance", Omega=d["Omega"], A=d["A"],
                           omega_drive=2.0 * d["Omega"] + 0.3, phi=d["phi"]),
        "linear": dict(mode="resonance", Omega=d["Omega"], A=d["A"],
                       omega_drive=2.0 * d["Omega"] + 0.3, phi=d["phi"], drive="linear"),
    }[case]

    def scenario(theta, psi):
        return dy.DynamicsScenario(L=L, theta=theta, psi=psi, kind="tensor", t_end=2.0,
                                   steps=41, **coefficients)

    beam, antipode = scenario(d["theta"], d["psi"]), scenario(np.pi - d["theta"], d["psi"] + np.pi)
    a, b = dy.evolve_oracle(beam), dy.evolve_oracle(antipode)
    assert_close(b.P, b.Pt, a.P, a.Pt)
    assert_same_defined(dy.closed_form(antipode).P, dy.closed_form(beam).P)
