"""Exact bulk ``%.{sig}g``: float64 arrays to the bytes Python prints.

:func:`format_g` gives, for every element x of a float64 array, the
ASCII of ``'%.{sig}g' % x`` as one numpy ``S`` array, so that a profile
chunk costs a few array operations instead of one Python conversion
per value.  Python's conversion rounds the exact binary value correctly
to ``sig`` digits; so does this one:

* |x| is scaled into [10^(sig-1), 10^sig) by an exact long-double power
  of ten, in one correctly rounded multiplication or division, and
  rounded to an integer there.  The scaled value is then within eps/2
  relative of the exact one (eps of ``np.longdouble``), so the integer
  is the correctly rounded digit string unless the scaled value lies
  within eps 2^ceil(sig log2 10) of a rounding tie: 1/64 at 17 digits
  with the x87 80-bit format, 2^-23 at 12.
* Those values, zero, and values whose power of ten is not exact in
  long double are formatted by Python's own ``'%.{sig}g'``, which
  overwrites their laid-out cells.  The bytes therefore never depend on
  the platform's long double: a narrower one only sends more values to
  Python (every value at 17 digits, if long double is a double).

A scaled value within that window of 10^(sig-1) needs no such care:
whether its exact value lies just below 10^(sig-1) or just above, it
rounds to the digits 10^(sig-1) at the same decimal exponent.

The layout, %g's choice between fixed and exponent notation with its
trailing zeros stripped, is one index table per ``sig`` into each
value's digits and symbols, keyed by notation, kept digits and sign.
Every table is built on first use.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


# The float type values are scaled in; the tests narrow it to a double.
_WIDE = np.longdouble


@lru_cache(maxsize=None)
def _powers(dtype: type) -> np.ndarray:
    """10^0, 10^1, ... in ``dtype``, as far as ``dtype`` holds them exactly.

    10^k = 5^k 2^k is exact while 5^k fits the significand: k <= 27 for
    the x87 80-bit long double, 22 for a double.
    """
    bits = np.finfo(dtype).nmant + 1
    top = max(k for k in range(64) if 5 ** k < 2 ** bits)
    powers = np.ones(top + 1, dtype=dtype)
    for k in range(1, top + 1):
        powers[k] = powers[k - 1] * 10
    powers.flags.writeable = False
    return powers


@lru_cache(maxsize=None)
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The digit lookup tables.

    The ASCII of 0000 ... 9999 as uint32 words, each one's count of
    trailing zeros (4 for 0000), and the exponent suffixes "-999" ...
    "+999" as uint32 words, indexed by exponent + 999.
    """
    def ascii_digits(n: np.ndarray, count: int) -> list:  # n's last count digits, leftmost first
        return [n // 10 ** k % 10 + ord("0") for k in range(count - 1, -1, -1)]

    def words(columns: list) -> np.ndarray:  # one byte per column, four columns per word
        return np.stack(columns, axis=1).astype(np.uint8).view(np.uint32).ravel()

    i, e = np.arange(10000), np.arange(-999, 1000)
    four = words(ascii_digits(i, 4))
    zeros = sum((i % 10 ** k == 0).astype(np.int64) for k in range(1, 5))
    suffix = words([np.where(e < 0, ord("-"), ord("+")), *ascii_digits(np.abs(e), 3)])
    for table in (four, zeros, suffix):
        table.flags.writeable = False
    return four, zeros, suffix


# Each value's symbol row is uint32 words: its digits, zero-padded on the
# left to four per word, then _SYMBOLS, its exponent suffix, and NULs.
_SYMBOLS = b".0-e"
# Values formatted at a time; bounds the working arrays at about 2 MB.
_BLOCK = 8192


@lru_cache(maxsize=None)
def _layout_table(sig: int) -> np.ndarray:
    """Where each byte of a %.{sig}g string comes from, per (notation, kept digits, sign).

    Row ``(notation * (sig + 1) + kept) * 2 + negative`` lists, byte by
    byte, the byte of the value's symbol row that the string shows,
    padded with a NUL byte.  Notation n < sig + 4 is fixed with exponent
    n - 4; sig + 4 and sig + 5 are exponent notation with two and three
    exponent digits.  ``kept`` is the count of digits left once trailing
    zeros are stripped, at least 1.
    """
    first = -sig % 4  # the byte of the first digit
    point, zero, minus, e, esign = range(first + sig, first + sig + 5)
    nul = esign + 4
    rows = []
    for notation in range(sig + 6):
        for kept in range(sig + 1):
            for negative in (0, 1):
                digits = [first + i for i in range(kept)]
                row = [minus] if negative else []
                exponent = notation - 4
                if notation >= sig + 4:
                    row += digits[:1] + ([point, *digits[1:]] if kept > 1 else [])
                    row += [e, esign] + list(range(esign + 1 + (notation == sig + 4), esign + 4))
                elif exponent >= 0:
                    row += [first + i for i in range(exponent + 1)]
                    row += [point, *digits[exponent + 1:]] if kept > exponent + 1 else []
                else:
                    row += [zero, point] + [zero] * (-exponent - 1) + digits
                rows.append(row)
    width = max(map(len, rows))
    table = np.full((len(rows), width), nul, dtype=np.intp)
    for i, row in enumerate(rows):
        table[i, :len(row)] = row
    table.flags.writeable = False
    return table


def _scaled_digits(a: np.ndarray, sig: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Digits and decimal exponent of each |x| in ``a``, and which need Python.

    The digits are the integer D < 10^sig with |x| ~ D 10^(X - sig + 1);
    they are right wherever the returned mask is False.
    """
    powers = _powers(_WIDE)
    lo, hi = powers[sig - 1], powers[sig]
    window = np.ldexp(np.finfo(_WIDE).eps, (10 ** sig).bit_length())
    positive = a > 0.0
    estimate = np.floor(np.log10(np.where(positive, a, 1.0))).astype(np.int64)
    shift = (sig - 1) - estimate
    # one correction step below may move the shift by one either way
    exact = positive & (np.abs(shift) < len(powers) - 1)
    shift[~exact] = 0
    wide = a.astype(_WIDE)
    wide[~exact] = lo

    def scaled(rows) -> np.ndarray:
        k = shift[rows]
        out = wide[rows] * powers[np.abs(k)]
        down = np.flatnonzero(k < 0)
        if down.size:
            out[down] = wide[rows][down] / powers[-k[down]]
        return out

    s = scaled(slice(None))
    step = (s >= hi).astype(np.int64) - (s < lo)
    moved = np.flatnonzero(step)
    if moved.size:
        shift[moved] -= step[moved]
        s[moved] = scaled(moved)
    nearest = np.rint(s)
    tie = np.abs(s - nearest) >= 0.5 - window
    fallback = ~exact | (s < lo) | (s >= hi) | tie
    digits = nearest.astype(np.int64)
    carry = digits == 10 ** sig
    digits[carry] = 10 ** (sig - 1)
    return digits, (sig - 1) - shift + carry, fallback


def format_g(values: np.ndarray, sig: int) -> np.ndarray:
    """``'%.{sig}g' % x`` for each finite x of ``values``, as a numpy ``S`` array.

    ``sig`` is 2 ... 17.  Each string is padded with NUL bytes to the
    array's width, which ``.tolist()`` drops.  Works through
    :data:`_BLOCK` values at a time.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    text = np.empty(x.size, dtype=f"S{_layout_table(sig).shape[1]}")
    for start in range(0, x.size, _BLOCK):
        block = x[start:start + _BLOCK]
        digits, exponent, fallback = _scaled_digits(np.abs(block), sig)
        text[start:start + _BLOCK] = _layout(digits, exponent, np.signbit(block), sig)
        slow = np.flatnonzero(fallback)
        text[start + slow] = [b"%.*g" % (sig, v) for v in block[slow].tolist()]
    return text


def _layout(digits: np.ndarray, exponent: np.ndarray, negative: np.ndarray,
            sig: int) -> np.ndarray:
    """The %.{sig}g strings of digits D < 10^sig and decimal exponents X, signed."""
    four, zeros, suffix = _digit_tables()
    words = -(-sig // 4)
    parts = np.empty((digits.size, words), dtype=np.int64)  # four digits each
    rest = digits
    for word in range(words - 1, 0, -1):
        quotient = rest // 10000
        parts[:, word] = rest - quotient * 10000
        rest = quotient
    parts[:, 0] = rest
    symbols = np.empty((digits.size, words + 3), dtype=np.uint32)
    symbols[:, :words] = four[parts]
    symbols[:, words] = np.frombuffer(_SYMBOLS, dtype=np.uint32)
    symbols[:, words + 1] = suffix[exponent + 999]
    symbols[:, words + 2] = 0
    trailing = zeros[parts[:, -1]]
    rows = np.flatnonzero(parts[:, -1] == 0)  # the rows whose words so far are all zero
    for word in range(words - 2, -1, -1):
        trailing[rows] += zeros[parts[rows, word]]
        rows = rows[parts[rows, word] == 0]
    kept = np.maximum(sig - trailing, 1)
    notation = np.where((exponent >= -4) & (exponent < sig), exponent + 4,
                        np.where(np.abs(exponent) < 100, sig + 4, sig + 5))
    table = _layout_table(sig)
    key = (notation * (sig + 1) + kept) * 2 + negative
    index = table[key]
    index += (np.arange(digits.size) * (symbols.itemsize * symbols.shape[1]))[:, None]
    return symbols.view(np.uint8).ravel()[index].view(f"S{table.shape[1]}").ravel()
