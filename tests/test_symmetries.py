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
  Hamiltonian with the same A, propagated piecewise instead of spectrally.
"""

import numpy as np
import pytest

from oamsim import dynamics as dy

LS = (1, 3, 20)
BOUND = 1e-12


def draw(L):
    """Seeded beam direction and coefficients, one set per L."""
    rng = np.random.default_rng(L)
    return dict(theta=rng.uniform(0.3, 2.8), psi=rng.uniform(-np.pi, np.pi),
                A=rng.uniform(0.2, 0.6) * rng.choice((-1.0, 1.0)),
                Omega=rng.uniform(1.5, 2.5), phi=rng.uniform(-np.pi, np.pi))


def assert_close(p, pt, q, qt):
    assert np.max(np.abs(p - q)) <= BOUND
    assert np.max(np.abs(pt - qt)) <= BOUND


@pytest.mark.parametrize("L", LS)
def test_conjugation_on_frozen(L):
    d = draw(L)
    scn = dy.DynamicsScenario(mode="frozen", L=L, A=d["A"], theta=d["theta"], psi=d["psi"],
                              kind="tensor", t_end=3.0, steps=61)
    mirror = dy.DynamicsScenario(mode="frozen", L=L, A=-d["A"], theta=d["theta"],
                                 psi=-d["psi"], kind="tensor", t_end=3.0, steps=61)
    flip = np.array([1.0, -1.0, 1.0])
    a, b = dy.evolve_oracle(scn), dy.evolve_oracle(mirror)
    assert_close(b.P, b.Pt, a.P * flip, a.Pt * flip[:, None] * flip)
    assert np.max(np.abs(dy.closed_form(mirror).P[:, 2] - dy.closed_form(scn).P[:, 2])) <= BOUND


@pytest.mark.parametrize("L", LS)
def test_rotation_about_z_on_corotating(L):
    d = draw(L)
    alpha = 0.7
    base = dict(mode="resonance", L=L, Omega=d["Omega"], A=d["A"],
                omega_drive=2.0 * d["Omega"] + 0.3, theta=d["theta"], kind="tensor",
                t_end=4.0, steps=81)
    scn = dy.DynamicsScenario(psi=d["psi"], phi=d["phi"], **base)
    turned = dy.DynamicsScenario(psi=d["psi"] + alpha, phi=d["phi"] + 2.0 * alpha, **base)
    c, s = np.cos(alpha), np.sin(alpha)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    a, b = dy.evolve_oracle(scn), dy.evolve_oracle(turned)
    assert_close(b.P, b.Pt, a.P @ rot.T, rot @ a.Pt @ rot.T)
    pz, turned_pz = (dy.closed_form_resonance(x).P[:, 2] for x in (scn, turned))
    assert np.max(np.abs(turned_pz - pz)) <= BOUND


@pytest.mark.parametrize("L", LS)
def test_time_scaling_on_linear_drive(L):
    d = draw(L)
    k = 3.0

    def scenario(scale):
        return dy.DynamicsScenario(
            mode="resonance", L=L, Omega=scale * d["Omega"], A=scale * 0.1,
            omega_drive=scale * (2.0 * d["Omega"] + 0.3), phi=d["phi"], theta=d["theta"],
            psi=d["psi"], kind="tensor", t_end=2.0 / scale, steps=41, drive="linear")

    a, b = dy.evolve_oracle(scenario(1.0)), dy.evolve_oracle(scenario(k))
    assert_close(b.P, b.Pt, a.P, a.Pt)
    pz, scaled_pz = (dy.closed_form_resonance(scenario(x)).P[:, 2] for x in (1.0, k))
    assert np.max(np.abs(scaled_pz - pz)) <= BOUND


@pytest.mark.parametrize("L", LS)
def test_undriven_linear_drive_is_frozen(L):
    d = draw(L)
    beam = dict(L=L, A=d["A"], theta=d["theta"], psi=d["psi"], kind="tensor",
                t_end=2.0, steps=41)
    linear = dy.evolve_oracle(dy.DynamicsScenario(mode="resonance", drive="linear", **beam))
    frozen = dy.evolve_oracle(dy.DynamicsScenario(mode="frozen", **beam))
    assert linear.diagnostics["propagator"] == "piecewise"
    assert frozen.diagnostics["propagator"] == "spectral"
    assert_close(linear.P, linear.Pt, frozen.P, frozen.Pt)
