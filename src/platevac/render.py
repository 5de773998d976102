"""Exact bulk ``%.{sig}g``: float64 arrays to the bytes Python prints.

:func:`format_g` gives, for every element x of a float64 array, the
ASCII of ``'%.{sig}g' % x`` as one numpy ``S`` array, so that a profile
chunk costs a few array operations instead of one Python conversion
per value.  Python rounds the exact binary value correctly to ``sig``
digits; so does this, in double-double arithmetic, on every platform:

* |x| = m 2^e is scaled into [10^(sig-1), 10^sig) by 10^k = (hi + lo) 2^b,
  rounded to 107 bits.  With m hi exact by Dekker's product (Numer.
  Math. 18, 224 (1971)), the pair (top, rest) is m 10^k to 2^-100 relative.
* The pair, unrounded, decides the range, and the digits are
  ``rint(top) + rint((top - rint(top)) + rest)``: correctly rounded
  unless the pair lies within 2^-40 of a tie.  Python's own
  ``'%.{sig}g'`` formats those, in practice the exact decimal ties, over
  their laid-out cells.  Zero lays out as the digits 0 at exponent 0.

A scaled value near 10^(sig-1) or 10^sig needs no such care: on either
side of the bound it rounds to the digits 10^(sig-1) at one exponent.

The layout, %g's choice between fixed and exponent notation with its
trailing zeros stripped, is one index table per ``sig`` into each
value's digits and symbols, keyed by notation, kept digits and sign.
Every table is built on first use.

``platevac profile`` writes its rows through :func:`_render_plan`, which
reads off the columns which cells are literal text and which arrays to
convert, and :func:`_write_rows`, which converts them by
:func:`format_g` a chunk of rows at a time.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


_SHIFTS = range(-310, 345)  # every k that |x| may need at 2 ... 17 digits


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = high + low, each of at most 26 bits, so that their products are exact."""
    t = x * 134217729.0  # Veltkamp's split by 2^27 + 1
    high = t - (t - x)
    return high, x - high


@lru_cache(maxsize=None)
def _powers() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10^k = (hi + lo) 2^b to 107 bits, hi in [1/2, 1], indexed by k - _SHIFTS[0]."""
    hi, lo, b = [], [], []
    for k in _SHIFTS:  # 10^k = m 2^s, m rounded to 107 bits
        q = 10 ** abs(k)
        s = q.bit_length() - 107 if k >= 0 else -106 - q.bit_length()
        twice = (q << 1 - s if s < 1 else q >> s - 1) if k >= 0 else (1 << 1 - s) // q
        m = (twice + 1) >> 1
        hi.append((m + (1 << 53)) >> 54)
        lo.append(m - (hi[-1] << 54))
        b.append(s + 107)
    tables = (np.ldexp(np.array(hi, dtype=np.float64), -53),
              np.ldexp(np.array(lo, dtype=np.float64), -107), np.array(b, dtype=np.int64))
    for table in tables:
        table.flags.writeable = False
    return tables


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
    # int32: half the bytes of intp to add a block's row offsets to, and
    # _BLOCK rows of symbols stay far below 2^31 bytes
    table = np.full((len(rows), width), nul, dtype=np.int32)
    for i, row in enumerate(rows):
        table[i, :len(row)] = row
    table.flags.writeable = False
    return table


def _scaled_digits(a: np.ndarray, sig: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Digits and decimal exponent of each |x| in ``a``, and which need Python.

    The digits are the integer D < 10^sig with |x| ~ D 10^(X - sig + 1),
    D = X = 0 for zero; they are right wherever the returned mask is False.
    """
    hi, lo, b = _powers()
    lower, upper = float(10 ** (sig - 1)), float(10 ** sig)
    m, e = np.frexp(a)
    positive = a > 0.0
    shift = (sig - 1) - np.floor(np.log10(np.where(positive, a, 1.0))).astype(np.int64)

    def scaled(rows) -> tuple[np.ndarray, np.ndarray]:  # the pair (top, rest)
        k = shift[rows] - _SHIFTS[0]
        x, h = m[rows], hi[k]
        (x1, x2), (h1, h2) = _halves(x), _halves(h)
        top = x * h
        rest = (((x1 * h1 - top) + x1 * h2 + x2 * h1) + x2 * h2) + x * lo[k]
        return np.ldexp(top, e[rows] + b[k]), np.ldexp(rest, e[rows] + b[k])

    # log10 misses the exponent by at most one, so one step corrects it
    top, rest = scaled(slice(None))
    step = ((top - upper) + rest >= 0).astype(np.int64) - (((top - lower) + rest < 0) & positive)
    moved = np.flatnonzero(step)
    if moved.size:
        shift[moved] -= step[moved]
        top[moved], rest[moved] = scaled(moved)
    nearest = np.rint(top)
    fraction = (top - nearest) + rest
    up = np.rint(fraction)
    digits = nearest.astype(np.int64) + up.astype(np.int64)
    carry = digits == 10 ** sig
    digits[carry] = 10 ** (sig - 1)
    return digits, (sig - 1) - shift + carry, np.abs(fraction - up) >= 0.5 - 2.0 ** -40


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
    index = np.take(table, (notation * (sig + 1) + kept) * 2 + negative, axis=0)
    stride = symbols.itemsize * symbols.shape[1]
    index += np.arange(0, digits.size * stride, stride, dtype=index.dtype)[:, None]
    return np.take(symbols.view(np.uint8).ravel(), index).view(f"S{table.shape[1]}").ravel()


# Profile rows rendered and written at a time, so that the text of one
# chunk is all that is held at once.
_ROW_CHUNK = 4096


def _render_plan(columns: dict[str, np.ndarray], sig: int) -> tuple[list[str], list, list[int]]:
    """Each column's cell in the row template, and what fills the cells.

    Read off the values, bit for bit: a column that holds one value is
    converted once and written as literal text; a column whose values
    are all negative (sign bit set) is converted as its magnitude,
    behind a literal minus, since ``'%g' % v`` is ``'-'`` and the
    digits of ``-v``; every other column is converted as it is.  A
    column whose converted values repeat an earlier one's bit for bit
    shares that conversion.  Each converted cell is a %s.  Returns the
    cells, the arrays to convert and each %s cell's index into them;
    the profile's z grid always varies, so there is at least one array.
    """
    cells, sources, slots = [], [], []
    for values in columns.values():
        bits = values.view(np.uint64)
        if (bits == bits[0]).all():
            cells.append(format(float(values[0]), f".{sig}g"))
            continue
        negative = bool(np.signbit(values).all())
        shown = -values if negative else values
        index = next((i for i, source in enumerate(sources) if source[0] == shown[0]
                      and np.array_equal(source.view(np.uint64), shown.view(np.uint64))), None)
        if index is None:
            index = len(sources)
            sources.append(shown)
        cells.append("-%s" if negative else "%s")
        slots.append(index)
    return cells, sources, slots


def _write_rows(out, row: str, sep: str, sources: list, slots: list[int], sig: int) -> None:
    """Write every row of the template ``row``, joined by ``sep``.

    Each source is converted once per row by :func:`format_g`,
    which gives the bytes of ``'%.{sig}g' % v``, so the rows match
    ``cli._fmt`` digit for digit; ``slots`` names the source of each %s
    in ``row``.  The rows go in chunks of :data:`_ROW_CHUNK`.  A chunk's
    rows are laid out as one byte matrix, the template's text in every
    row and each cell at its full width, and written without the cells'
    NUL padding.
    """
    pieces = [np.frombuffer(piece.encode("ascii"), dtype=np.uint8)
              for piece in (sep + row).split("%s")]
    skip = len(sep)  # the first row has no separator before it
    for start in range(0, len(sources[0]), _ROW_CHUNK):
        chunk = np.stack([values[start:start + _ROW_CHUNK] for values in sources], axis=1)
        cells = format_g(chunk.ravel(), sig)
        width = cells.itemsize
        cells = cells.view(np.uint8).reshape(*chunk.shape, width)
        text = np.empty((len(chunk), sum(map(len, pieces)) + width * len(slots)), dtype=np.uint8)
        at = 0
        for slot, piece in enumerate(pieces):
            text[:, at:at + len(piece)] = piece
            at += len(piece)
            if slot < len(slots):
                text[:, at:at + width] = cells[:, slots[slot]]
                at += width
        text = text.ravel()[0 if start else skip:]
        out.write(str(text[text != 0], "ascii"))
