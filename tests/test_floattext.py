"""floattext gives the bytes of '%.17g' % x and of repr(x) for every float64 it formats."""

import numpy as np

from oamsim import floattext


def assert_kernel_text(values, style, want):
    """The kernel writes values in style, one a line, as the text want."""
    got = "".join(floattext.text_rows([values], "\n", style))
    if got != want:
        got, want = got.split("\n"), want.split("\n")
        bad = [(w, g) for w, g in zip(want, got) if w != g]
        assert len(got) == len(want) and not bad[:5]


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
    assert_kernel_text(values, floattext.G17,
                       "\n".join(map("%.17g".__mod__, values.tolist())) + "\n")

    exact = floattext._significands(np.concatenate([ties, -ties]))[2]
    assert not exact.any()
    exact = floattext._significands(np.array([0.0, -0.0, 0.5, 1e-280, 1e280]))[2]
    assert exact.all()
    exact = floattext._significands(specials[2:])[2]
    assert not exact.any()


def test_kernel_matches_repr():
    rng = np.random.default_rng(20190219)
    # with the notation switches: fixed from 1e-4, e-notation from 1e16
    tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    subnormals = np.ldexp(rng.integers(1, 2**52, 1000).astype(float), -1074)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                         np.finfo(float).max, -np.finfo(float).max,
                         np.finfo(float).tiny, -np.finfo(float).tiny])
    # few significant digits, where repr is shorter than '%.17g'
    short = np.concatenate([np.round(rng.uniform(-1000.0, 1000.0, 53000), k)
                            for k in range(12)])
    # whole numbers of up to six digits times 1e10 to 1e24: the ends of the
    # interval that reads back are often whole on the 17-digit scale
    scaled = rng.integers(1, 10**6, 50000) * 10.0 ** rng.integers(10, 25, 50000)
    # odd multiples of 2**-2 in [2**49, 1e15) end in a 5 at the 17th digit,
    # and both 16-digit neighbours read back: exact ties of the shortest
    # digits, which repr rounds half to even
    ties = (2 * rng.integers(2**50, 2 * 10**15, 5000) + 1) * 0.25
    sign = rng.choice([-1.0, 1.0], 50000)
    values = np.concatenate([
        rng.integers(0, 2**64, 50000, dtype=np.uint64).view(np.float64),
        rng.uniform(-1.0, 1.0, 200000),
        sign * 10.0 ** rng.uniform(-300.0, 300.0, 50000),
        short, scaled, tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        twos, np.nextafter(twos, 0.0), np.nextafter(twos, np.inf),
        subnormals, -subnormals, specials, ties, -ties])
    assert len(values) >= 10**6
    # repr spells no finite value with "nan" or "inf"
    want = "\n".join(map(repr, values.tolist())) + "\n"
    assert_kernel_text(values, floattext.JSON,
                       want.replace("nan", "null").replace("inf", "Infinity"))

    normal_twos = twos[twos >= np.finfo(float).tiny]
    for flagged in (ties, -ties, normal_twos, -normal_twos, specials[2:]):
        assert not floattext._shortest(flagged)[2].any()
    exact = floattext._shortest(np.array([0.0, -0.0, 0.1, 0.3, 3.0, 1e-280, 1e280]))[2]
    assert exact.all()
