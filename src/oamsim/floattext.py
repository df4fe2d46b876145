"""The exact text of ``'%.17g' % x`` and of ``repr(x)`` for float64 arrays, built with numpy.

``text_rows`` is the one entry point.  It lays each value out as a
NUL-padded uint8 field of a fixed width, copies the fields into rows of
bytes, and turns each block of rows into one text with a single
``bytes.translate(None, b"\\0")``.  A ``Style`` says how the cells spell
their values: ``G17`` as ``'%.17g' % x`` (CSV cells), ``JSON`` as
``repr(x)`` with ``null``, ``Infinity`` and ``-Infinity`` for the
non-finite values (JSON cells).

Two lookup tables, built with numpy at import, give a field its characters.
``_GROUPS`` holds the four digit bytes of each of the 10**4 groups of four
digits, so that a 17-digit significand is its leading digit and four
lookups.  ``_EXPONENTS`` holds the ``e+XX`` or ``e-XXX`` word of each
decimal exponent, for the cells in e-notation.

A finite value with 1e-280 <= |x| <= 1e280 is scaled by 10**(16 - e),
e = floor(log10 |x|), as a double-double: Dekker's exact two-product of x
with the high part of the power of ten, plus x times its low part.  That
carries the 17-digit significand and its fraction part to about 1e-14, and
rounding to the nearest integer is exact unless the fraction lies within
_TIE_GUARD of one half.  Such near-ties (exact ties, as odd multiples of
2**-18 in [0.1, 1), must round half to even), NaN, infinities, subnormals and
values outside that range are formatted one at a time by ``'%.17g'`` itself.

The digits of ``repr(x)`` are the multiple of the largest power of ten among
the integers within half an ulp of x on the same scale, the nearest to x.
Besides the values ``'%.17g'`` formats itself, ``repr`` formats those whose
binary significand is a power of two (the next float below them is half as
far as the one above), and those where an end of that interval or a tie of
the rounding to the power of ten lies within _TIE_GUARD.
"""

from typing import NamedTuple

import numpy as np

WIDTH = 32                  # bytes per field: four little-endian uint64 words
_BLOCK_ROWS = 4096          # CSV rows formatted per kernel call
_CHUNK = 4096               # values per pass, so that its temporaries stay in cache
_E_MIN, _E_MAX = -281, 281  # decimal exponents the scaling table covers
_FAST_MIN, _FAST_MAX = 1e-280, 1e280   # magnitudes the kernel rounds itself
_TIE_GUARD = 1e-9           # far above the 1e-14 error of the scaled fraction
_SPLIT = 134217729.0        # 2**27 + 1, Veltkamp's splitting constant
_LOW = 10**16               # the 17-digit significands are _LOW <= n < 10 * _LOW
_U8, _U32, _U56 = np.uint64(8), np.uint64(32), np.uint64(56)
# the JSON cells of the values float.__repr__ spells nan, inf and -inf (NaN is undefined)
_JSON_NONFINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _split(a):
    """(high, low) halves of a with 26-bit high significands, high + low == a."""
    c = a * _SPLIT
    high = c - (c - a)
    return high, a - high


def _power_table():
    """Rows hi, the two halves of hi and lo, with hi[i] + lo[i] = 10**(16 - _E_MAX + i)
    to about 2**-104.

    Every 16th power is split exactly from Python ints; the powers between
    are those times 10**r, r < 16, which is a double, by the exact two-product.
    """
    coarse = []
    for k in range(16 - _E_MAX, 16 - _E_MIN + 1, 16):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den                      # correctly rounded
        n, d = hi.as_integer_ratio()
        coarse.append((hi, (num * d - n * den) / (den * d)))
    i = np.arange(_E_MAX - _E_MIN + 1)
    hi, lo = np.array(coarse, dtype=np.float64).T[:, i // 16]
    r = 10.0 ** (i % 16)
    p = hi * r
    (h1, h2), (r1, r2) = _split(hi), _split(r)
    err = ((h1 * r1 - p) + h1 * r2 + h2 * r1) + h2 * r2 + lo * r
    top = p + err
    return np.stack([top, *_split(top), err - (top - p)])


_POWERS = _power_table()
# the 10**4 groups of four decimal digits as byte values 0-9 in the low four
# bytes of a little-endian word, the most significant digit in the lowest byte
_DIGITS = np.arange(10, dtype="<u8")
_GROUPS = (_DIGITS[:, None, None, None] | _DIGITS[:, None, None] << _U8
           | _DIGITS[:, None] << np.uint64(16) | _DIGITS << np.uint64(24)).ravel()
_ASCII_ZEROS = np.uint64(0x3030303030303030)


def _words(rows):
    """Little-endian uint64 words of equal-length byte strings, one column per string."""
    return np.frombuffer(b"".join(rows), dtype="<u8").reshape(len(rows), -1).T.copy()


# A field is four words: the sign and the "0.000" prefix in word 0; the body
# in words 1 to 3, bytes 0-17 the digits and the point, bytes 18-22 the
# exponent.  Each table has one column per index it is taken at, the last
# column of _POINT empty.
_BELOW = _words([b"\xff" * k + bytes(24 - k) for k in range(19)])     # bytes < k set
_POINT = _words([bytes(k) + b"." + bytes(23 - k) for k in range(18)] + [bytes(24)])
_LEADING = _words([b"\0" + b"0.000"[:k] + bytes(7 - k) for k in range(6)])[0]

# "e", the sign and two or three digits ("e+05", "e-123") in bytes 2-6 of a
# word, for each decimal exponent from _E_MIN to _E_MAX + 1 (a rounding
# carry may raise _E_MAX by one)
_EXPONENTS = _words([(b"\0\0e%+03d" % e).ljust(8, b"\0")
                     for e in range(_E_MIN, _E_MAX + 2)])[0]


def _scale(a, e):
    """a * 10**(16 - e) as hi + lo, |lo| <= ulp(hi) / 2, so hi is an integer from 2**53."""
    b, b1, b2, b_lo = _POWERS.take(_E_MAX - e, axis=1)
    a1, a2 = _split(a)
    p = a * b
    t = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
    t += a * b_lo
    hi = p + t
    return hi, t - (hi - p)


def _decade(hi, lo):
    """+1 where hi + lo >= 10**17, -1 where it is below 10**16, else 0."""
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    return up.astype(np.intp) - down.astype(np.intp)


def _scaled(x):
    """(n, frac, e, fast): |x| * 10**(16 - e) = n + frac, to about 1e-14, for
    the values fast marks, the finite ones with _FAST_MIN <= |x| <= _FAST_MAX.

    n is an integer with 10**16 <= n <= 10**17 and |frac| <= 1/2.
    """
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scale(a, e)
    # log10 may be one off next to a power of ten: rescale those values
    near = np.flatnonzero(fast & ((hi <= 1e16) | (hi >= 1e17)))
    if near.size:
        shift = _decade(hi[near], lo[near])
        redo = near[shift != 0]
        if redo.size:
            e[redo] += shift[shift != 0]
            hi[redo], lo[redo] = _scale(a[redo], e[redo])
            fast[redo] &= _decade(hi[redo], lo[redo]) == 0
    whole = np.rint(lo)        # near-ties are left to the fallback, so no tie is rounded here
    return hi.astype(np.int64) + whole.astype(np.int64), lo - whole, e, fast


def _significands(x):
    """(n, e, exact): x rounded to n * 10**(e - 16) with 10**16 <= n < 10**17.

    exact marks the values the kernel rounds itself: zeros (n = e = 0) and
    the finite values in range whose rounding is not a near-tie.
    """
    n, frac, e, fast = _scaled(x)
    _carry(n, e)
    return n, e, _zeros(x, n, e, fast & (np.abs(frac) < 0.5 - _TIE_GUARD))


def _shortest(x):
    """(n, e, exact): the digits of repr(x), n * 10**(e - 16) with 10**16 <= n < 10**17.

    n * 10**(e - 16) is the decimal with the fewest significant digits that
    reads back as x, the nearest to x of those.  exact marks the values
    whose digits are certain: zeros and the values _significands rounds
    itself whose significand is not a power of two (there the values that
    read back as x reach half as far below it as above) and where neither
    the ends of that interval nor a tie of the final rounding lie within
    _TIE_GUARD.
    """
    n, frac, e, fast = _scaled(x)
    mantissa, p = np.frexp(np.where(fast, x, 1.0))
    # half an ulp of x on the scale of n: the decimals nearer than that to
    # n + frac read back as x; the integers among them are [first, last]
    half = np.ldexp(_POWERS[0].take(_E_MAX - e), p - 54)
    low, high = frac - half, frac + half
    exact = (fast & (np.abs(frac) < 0.5 - _TIE_GUARD) & (np.abs(mantissa) != 0.5)
             & (np.abs(low - np.rint(low)) > _TIE_GUARD)
             & (np.abs(high - np.rint(high)) > _TIE_GUARD))
    first = n + np.ceil(low).astype(np.int64)
    last = n + np.floor(high).astype(np.int64)
    # [first, last] is under 23 integers wide (half an ulp is at most
    # 10**17 * 2**-53 on this scale), so it holds at most one multiple of
    # 100, and that one is then the multiple of the largest power of ten in
    # it.  Without one, the multiple of 10 nearest n + frac lies in the
    # window if any does, the window being symmetric about n + frac; else n
    hundred = last // 100 * 100
    q, r = np.divmod(n, 10)
    over = (2 * r - 10) + 2.0 * frac         # sign of the distance past the midpoint
    tens = (hundred < first) & (last // 10 * 10 >= first)
    exact &= ~tens | (np.abs(over) > _TIE_GUARD)
    n = np.where(hundred >= first, hundred, np.where(tens, (q + (over > 0.0)) * 10, n))
    _carry(n, e)
    return n, e, _zeros(x, n, e, exact)


def _carry(n, e):
    """Where n was rounded up to 10**17, one digit more: n = 10**16 at e + 1."""
    carry = n == 10 * _LOW
    n[carry] = _LOW
    e[carry] += 1


def _zeros(x, n, e, exact):
    """Set n = e = 0 at the zeros of x and mark them exact."""
    zero = x == 0.0
    n[zero] = 0
    e[zero] = 0
    return exact | zero


def _digit_words(n):
    """The 17 decimal digits of each 0 <= n < 10**17, most significant first,
    as byte values 0-9 in the bytes of three little-endian words, shape (3, len(n))."""
    top = n // np.int64(10**8)
    lead = top // np.int64(10**8)
    # two groups of 8 digits, each as two groups of 4 spread over the bytes of a word
    v = np.empty((2, len(n)), dtype=np.int64)
    v[0] = top - lead * np.int64(10**8)
    v[1] = n - top * np.int64(10**8)
    high = v // np.int64(10**4)
    v = _GROUPS.take(high) | _GROUPS.take(v - high * np.int64(10**4)) << _U32
    words = np.empty((3, len(n)), dtype="<u8")
    words[0] = v[0] << _U8 | lead.astype("<u8")
    words[1] = v[1] << _U8 | v[0] >> _U56
    words[2] = v[1] >> _U56
    return words


class Style(NamedTuple):
    """How the cells of a text spell their values."""

    digits: object      # x -> (n, e, exact), as _significands
    sci_from: int       # fixed notation for -4 <= e < sci_from, else e-notation
    point_zero: bool    # a fixed cell with no digit after the point ends in ".0"
    fallback: object    # float -> text, for the values digits does not mark exact


def _json_number(v):
    """json.dumps(v) with NaN as null: repr(v), null, Infinity or -Infinity."""
    text = float.__repr__(v)
    return _JSON_NONFINITE.get(text, text)


G17 = Style(_significands, 17, False, "%.17g".__mod__)     # '%.17g' % x
JSON = Style(_shortest, 16, True, _json_number)            # repr(x), non-finite as in JSON


def _fill(x, out, style):
    """Write the fields of x, spelled as style says, into the zeroed rows of out."""
    n, e, exact = style.digits(x)
    body = _digit_words(n)
    fixed = (e >= -4) & (e < style.sci_from)
    # digits before the point: X + 1 in fixed notation, none below 1, one in e-notation
    lead = np.where(fixed, np.maximum(e + 1, 0), 1)
    # last nonzero digit, from the highest nonzero byte of each word; the
    # digit bytes are below 16, so a word converts to float without carrying
    # into the next power of two
    high = (np.frexp(body[:2].astype(np.float64))[1] - 1) >> 3
    last = np.where(body[2] != 0, 16, np.where(high[1] >= 0, high[1] + 8, high[0]))
    # trailing zeros dropped, but for one after the point if style keeps it
    keep = np.maximum(lead + fixed if style.point_zero else lead, last + 1)
    body |= _ASCII_ZEROS
    body &= _BELOW.take(keep, axis=1)
    # the point goes in at byte lead, the digits from there on one byte up
    below = _BELOW.take(lead, axis=1)
    moved = body & ~below
    body &= below
    body |= moved << _U8
    body[1:] |= moved[:-1] >> _U56
    body |= _POINT.take(np.where((keep > lead) & (lead > 0), lead, 18), axis=1)
    sci = np.flatnonzero(~fixed)
    if sci.size:
        body[2, sci] |= _EXPONENTS.take(e[sci] - _E_MIN)
    leading = _LEADING.take(np.where(fixed & (e < 0), 1 - e, 0))   # "0." and -X - 1 zeros
    leading |= np.signbit(x).astype("<u8") * np.uint64(45)
    words = out.view("<u8")
    words[:, 0] = leading
    words[:, 1:] = body.T
    for i in np.flatnonzero(~exact):
        text = style.fallback(x[i]).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)


def text_rows(columns, tail, style):
    """Yield the text of rows, _BLOCK_ROWS rows at a time.

    columns holds equal-length sequences of floats, whose cells are spelled
    as style says, and strings written in every row; cells are joined by ","
    and each row ends with tail.  A string must not contain NUL.
    """
    # one row's bytes, with a NUL field where each array's cell goes
    line, offsets, arrays = bytearray(), [], []
    for j, col in enumerate(columns):
        if j:
            line += b","
        if isinstance(col, str):
            line += col.encode()
        else:
            offsets.append(len(line))
            arrays.append(col)
            line += bytes(WIDTH)
    line = np.frombuffer(bytes(line + tail.encode()), dtype=np.uint8)
    for start in range(0, len(arrays[0]) if arrays else 0, _BLOCK_ROWS):
        cells = np.asarray(np.column_stack([col[start:start + _BLOCK_ROWS] for col in arrays]),
                           dtype=np.float64)
        # each value as a NUL-padded field, _CHUNK values per pass
        x = cells.ravel()
        fields = np.zeros((len(x), WIDTH), dtype=np.uint8)
        for i in range(0, len(x), _CHUNK):
            _fill(x[i:i + _CHUNK], fields[i:i + _CHUNK], style)
        fields = fields.reshape(cells.shape + (WIDTH,))
        rows = np.empty((len(fields), len(line)), dtype=np.uint8)
        rows[:] = line
        for k, offset in enumerate(offsets):
            rows[:, offset:offset + WIDTH] = fields[:, k]
        # release each array once its copy is made, so that about three
        # copies of a block's text are alive at a time
        del fields
        text = rows.tobytes()
        del rows
        yield text.translate(None, b"\0").decode()
