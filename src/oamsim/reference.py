"""Published reference values and the constants report that compares them.

Kept free of numpy so that the ``constants`` command starts without it; the
acceptance checks in ``verify`` read the same values from here.
"""

from . import moments, ring_config
from .constants import LAMBDA_BAR_C, M2_FIELD_T

# Published reference values the implementation must reproduce.
REF_BETA_T_FM3 = 5.25e4          # tensor magnetic polarizability [fm^3]
REF_W_M_1T_M = 5.1e-8            # beam waist at 1 T [m]
REF_LAMBDA_BAR_C_M = 3.86e-13    # reduced Compton wavelength [m]
REF_M2_FIELD_T = 4.41e9          # electron m^2 as a field scale [T]
REF_RING = {                     # 300 keV, R0 = 0.5 m frozen ring
    "beta_tilde": 0.777,
    "B0_T": 0.0148,
    "E_V_m": 2.46e6,
    "f_Hz": 7.41e7,
}


def rel_deviation(measured, reference):
    """|measured - reference| / |reference|."""
    return abs(measured - reference) / abs(reference)


def constants_report():
    """Reference-value comparison table for the constants command."""
    w_m = ring_config.landau_geometry(1.0, 0, 0).w_m
    beta_t = moments.tmp_electron()
    rows = [
        ("beta_T_fm3", beta_t, REF_BETA_T_FM3),
        ("lambda_bar_C_m", LAMBDA_BAR_C, REF_LAMBDA_BAR_C_M),
        ("m2_field_T", M2_FIELD_T, REF_M2_FIELD_T),
        ("w_m_1T_m", w_m, REF_W_M_1T_M),
    ]
    return [{"quantity": name, "computed": value, "reference": ref,
             "rel_deviation": rel_deviation(value, ref)} for name, value, ref in rows]
