"""The quadrupole chain Q0 -> Qs -> coupling A -> level splitting, pinned bit for bit.

The literals are float.hex of the values the chain gave when it was written as
three separate formulas.  They pin the arithmetic, not just the physics: a
reordered product or quotient changes the last bit and fails here.
"""

import numpy as np
import pytest

from oamsim import dynamics as dy
from oamsim import moments as mo
from oamsim import ring_config as rc

# (L, K, field index): (frozen coefficient, coupling at G = dEr/dR,
# level_splitting coefficient); Qs is the diameter-model Qs at projection K,
# on the 300 keV / 0.5 m ring
CHAIN = {
    (1, 1, 0.001): ("-0x1.56ab619ea97f1p-10", "0x1.56ab619ea97f1p-10", "0x1.56ab619ea97f1p-9"),
    (1, 1, 0.5): ("-0x1.4ea35d54f1862p-1", "0x1.4ea35d54f1862p-1", "0x1.4ea35d54f1862p+0"),
    (1, 1, 0.9): ("-0x1.2d2ca0cc72f8bp+0", "0x1.2d2ca0cc72f8bp+0", "0x1.2d2ca0cc72f8bp+1"),
    (1, 0, 0.001): ("0x1.56ab619ea97f1p-9", "-0x1.56ab619ea97f1p-9", "-0x1.56ab619ea97f1p-8"),
    (1, 0, 0.5): ("0x1.4ea35d54f1862p+0", "-0x1.4ea35d54f1862p+0", "-0x1.4ea35d54f1862p+1"),
    (1, 0, 0.9): ("0x1.2d2ca0cc72f8bp+1", "-0x1.2d2ca0cc72f8bp+1", "-0x1.2d2ca0cc72f8bp+2"),
    (2, 2, 0.001): ("-0x1.e9871dbe16b58p-9", "0x1.e9871dbe16b58p-9", "0x1.e9871dbe16b58p-8"),
    (2, 2, 0.5): ("-0x1.de0df30ba22d4p+0", "0x1.de0df30ba22d4p+0", "0x1.de0df30ba22d4p+1"),
    (2, 2, 0.9): ("-0x1.ae3fc12411f58p+1", "0x1.ae3fc12411f58p+1", "0x1.ae3fc12411f58p+2"),
    (2, 0, 0.001): ("0x1.e9871dbe16b58p-9", "-0x1.e9871dbe16b58p-9", "-0x1.e9871dbe16b58p-8"),
    (2, 0, 0.5): ("0x1.de0df30ba22d4p+0", "-0x1.de0df30ba22d4p+0", "-0x1.de0df30ba22d4p+1"),
    (2, 0, 0.9): ("0x1.ae3fc12411f58p+1", "-0x1.ae3fc12411f58p+1", "-0x1.ae3fc12411f58p+2"),
    (3, 3, 0.001): ("-0x1.64f285aff08f1p-8", "0x1.64f285aff08f1p-8", "0x1.64f285aff08f1p-7"),
    (3, 3, 0.5): ("-0x1.5c94d68dd0ebbp+1", "0x1.5c94d68dd0ebbp+1", "0x1.5c94d68dd0ebbp+2"),
    (3, 3, 0.9): ("-0x1.39b9277fa26dbp+2", "0x1.39b9277fa26dbp+2", "0x1.39b9277fa26dbp+3"),
    (3, 0, 0.001): ("0x1.1d8ed1598d3f3p-8", "-0x1.1d8ed1598d3f3p-8", "-0x1.1d8ed1598d3f3p-7"),
    (3, 0, 0.5): ("0x1.16dd787173efbp+1", "-0x1.16dd787173efbp+1", "-0x1.16dd787173efbp+2"),
    (3, 0, 0.9): ("0x1.f5f50bff6a490p+1", "-0x1.f5f50bff6a490p+1", "-0x1.f5f50bff6a490p+2"),
    (7, 7, 0.001): ("-0x1.1e9b9400781e8p-7", "0x1.1e9b9400781e8p-7", "0x1.1e9b9400781e8p-6"),
    (7, 7, 0.5): ("-0x1.17e3ee88754dcp+2", "0x1.17e3ee88754dcp+2", "0x1.17e3ee88754dcp+3"),
    (7, 7, 0.9): ("-0x1.f7cd7a28d325ap+2", "0x1.f7cd7a28d325ap+2", "0x1.f7cd7a28d325ap+3"),
    (7, 0, 0.001): ("0x1.60bf7b144511ep-8", "-0x1.60bf7b144511ep-8", "-0x1.60bf7b144511ep-7"),
    (7, 0, 0.5): ("0x1.587afe31cb737p+1", "-0x1.587afe31cb737p+1", "-0x1.587afe31cb737p+2"),
    (7, 0, 0.9): ("0x1.36084b2cd0b4ap+2", "-0x1.36084b2cd0b4ap+2", "-0x1.36084b2cd0b4ap+3"),
}

# L: (<r^2>, Q0, Qs) of the diameter model
BEAM_MODEL = {
    1: ("0x1.79ca10c924224p-67", "0x1.1723773bc4c4fp-129", "0x1.be9f252c6e07fp-133"),
    100: ("0x1.cd2b297d889bdp-54", "0x1.54becb0c75b26p-116", "0x1.4ab94e85c819fp-116"),
}


@pytest.mark.parametrize("L, K, n", sorted(CHAIN))
def test_chain_bit_for_bit(L, K, n):
    frozen, coupling, coefficient = CHAIN[L, K, n]
    qs = mo.spectroscopic_eqm(mo.beam_model_eqm(L)[1], L, K)
    setup = rc.frozen_setup(300e3, 0.5, n)
    gradient = rc.field_gradients(setup)[1]
    assert dy.quadrupole_coefficient_frozen(qs, L, setup).hex() == frozen
    assert dy.quadrupole_coupling(qs, L, gradient).hex() == coupling
    tab = dy.level_splitting(L, qs, gradient)
    assert tab.coefficient.hex() == coefficient
    # the shift of m_r = L .. -L is the coefficient times the integer m_r^2
    m_r = np.arange(L, -L - 1, -1)
    assert np.array_equal(tab.shifts, float.fromhex(coefficient) * m_r**2)


@pytest.mark.parametrize("L", sorted(BEAM_MODEL))
def test_beam_model_eqm_bit_for_bit(L):
    assert tuple(x.hex() for x in mo.beam_model_eqm(L)) == BEAM_MODEL[L]
