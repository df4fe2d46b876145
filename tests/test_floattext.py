"""floattext gives the bytes of '%.17g' % x for every float64 it formats."""

import numpy as np

from oamsim import floattext


def kernel_lines(values):
    return "".join(floattext.csv_rows([values], "\n")).split("\n")[:-1]


def test_kernel_matches_percent_format():
    rng = np.random.default_rng(20190218)
    tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    subnormals = np.ldexp(rng.integers(1, 2**52, 1000).astype(float), -1074)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                         np.finfo(float).max, -np.finfo(float).max,
                         np.finfo(float).tiny, -np.finfo(float).tiny])
    # odd multiples of 2**-18 in [0.1, 1) have 18 significant digits, the
    # last a 5: exact ties that '%.17g' rounds half to even
    ties = (2 * rng.integers(2**17 // 10 + 1, 2**17, 5000) + 1) * 2.0**-18
    sign = rng.choice([-1.0, 1.0], 200000)
    values = np.concatenate([
        rng.integers(0, 2**64, 200000, dtype=np.uint64).view(np.float64),
        rng.uniform(-1.0, 1.0, 600000),
        sign * 10.0 ** rng.uniform(-300.0, 300.0, 200000),
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        twos, np.nextafter(twos, 0.0), np.nextafter(twos, np.inf),
        subnormals, -subnormals, specials, ties, -ties])
    assert len(values) >= 10**6
    got = kernel_lines(values)
    want = ["%.17g" % v for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad[:5]

    exact = floattext._significands(np.concatenate([ties, -ties]))[2]
    assert not exact.any()
    exact = floattext._significands(np.array([0.0, -0.0, 0.5, 1e-280, 1e280]))[2]
    assert exact.all()
    exact = floattext._significands(specials[2:])[2]
    assert not exact.any()
