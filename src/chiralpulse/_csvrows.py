"""CSV rows of floats, written byte for byte as the ``%.15g`` row template would.

``format_rows(values, tail)`` renders an (R, W) float table as R lines of W
comma-separated ``%.15g`` values, each line ending in `tail`.  It returns
the bytes of ``(row * R) % tuple(values.ravel())`` with
``row = ",".join(["%.15g"] * W) + tail``.  CPython writes 15 significant
digits outside the 14-digit fast path of its float-to-string conversion, at
about 0.7 us per value, so tables of ``VECTOR_MIN_VALUES`` values or more
are rendered in numpy instead, for every value that ``%g`` writes in fixed
notation:

* a value x != 0 whose rounded decimal exponent X lies in [-4, 14] (at 15
  digits ``%g`` switches to exponent notation outside that range) prints as
  N * 10**(X - 14), with N the 15-digit integer nearest |x| * 10**(14 - X).
  10**(14 - X) is an exact double, so the exact product is a double-double
  hi + lo (Dekker's TwoProduct with a Veltkamp split).  It is rounded half
  to even, the tie rule of CPython's correctly rounded conversion, by exact
  comparisons; lo is formed only where it can decide them.  A product that
  rounds up to 10**15 is 10**14 at the next exponent;
* each value owns a 40-byte cell: its separator, the sign, ``0.000`` and
  the 15 digits of N with a point after each, written four digits at a
  time from a table.  A mask looked up by (X, last nonzero digit, sign)
  zeroes every byte that ``%g`` does not write (the point is kept only
  where fraction digits follow it, trailing zeros go), and
  ``bytes.translate`` deletes the zero bytes of a block of rows at once.
  The first cell of a row carries the previous row's tail as a marker byte.

The rounding runs once over the whole table; the cells, their compaction
and the splice of the fallback rows (below) run one block of
``BLOCK_VALUES`` values at a time, in one block-sized buffer, and
``write_table`` writes each block as it is made, so no step holds or copies
the cells or the bytes of the whole table.  A default ``pulses.csv``
(4001 rows of 3 values) is four blocks of 1000 rows and one of a single row.

Every row that holds any other value (exponent notation, or a value that is
not finite) is formatted by the ``%`` template and spliced back in its
place.  A table takes the template alone when it, or the part of it left to
the numpy path, holds fewer than ``VECTOR_MIN_VALUES`` values: the numpy
path costs about 150 us plus 0.12 us per value, so it first wins at 300 to
500 values.  The cutoff sits above the 804 values of a population trace,
nearly every row of which holds a population that prints in exponent
notation.
"""

from __future__ import annotations

import functools

import numpy as np

FLOAT_FORMAT = "%.15g"
VECTOR_MIN_VALUES = 1000
BLOCK_VALUES = 3000     # values per block of rows on the numpy path, by measurement

_SPLITTER = 134217729.0          # 2**27 + 1: Veltkamp's split into 26-bit halves
_POW10 = np.array([10.0 ** k for k in range(23)])   # exact doubles


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: x = high + low exactly, each with at most 26 significant bits."""
    c = _SPLITTER * x
    high = c - (c - x)
    return high, x - high


def _units(data: bytes) -> np.ndarray:
    """`data` as native 8-byte units: storing them back keeps the byte order."""
    return np.frombuffer(data, dtype=np.uint64)


_POW10_HIGH, _POW10_LOW = _split(_POW10)


# The lookup tables are built on first use, so that commands writing only
# small tables do not pay for them at import.
@functools.cache
def _chunk_tables() -> tuple[np.ndarray, np.ndarray]:
    """For every 4-digit chunk 0000..9999: "d.d.d.d." as one unit, and its
    trailing zero digits (4 for 0000)."""
    chunks = np.arange(10000)
    text = np.full((10000, 8), ord("."), dtype=np.uint8)
    trailing_zeros = np.zeros(10000, dtype=np.intp)
    for place in range(4):
        text[:, 6 - 2 * place] = ord("0") + chunks // 10 ** place % 10
        trailing_zeros += chunks % 10 ** (place + 1) == 0
    return text.view(np.uint64).ravel(), trailing_zeros


# A value's cell: separator, fallback marker, unused, sign, "0.00", then N
# padded to 16 digits, so the pad digit is the third zero after the point
# and N's digit j sits at byte 10 + 2j, followed by a point.
_CELL_UNIT0 = b"\0\0\0-0.00"
_CELL_BYTES = 40
_CELL_UNITS = _CELL_BYTES // 8
_ROW_MARK, _FALLBACK_MARK = b"\x01", b"\x02"
_COMMA = _units(b",".ljust(8, b"\0"))[0]
_KEEP_SEPARATOR = _units(b"\xff".ljust(8, b"\0"))[0]
_FALLBACK = _units((b"\0" + _FALLBACK_MARK).ljust(8, b"\0"))[0]


@functools.cache
def _cell_masks() -> tuple[np.ndarray, np.ndarray]:
    """Per key 2 * ((X + 4) * 15 + last digit) + sign (then 570 + sign for ±0):
    the masked first unit of the cell, and the masks of its four digit units."""
    keep = np.zeros((286, 2, _CELL_BYTES), dtype=bool)
    for exponent in range(-4, 15):
        for last in range(15):
            cell = keep[(exponent + 4) * 15 + last, :]
            if exponent < 0:
                cell[:, 4:6] = True                              # "0."
                cell[:, 6:6 - exponent - 1] = True               # zeros after the point
                cell[:, 10:11 + 2 * last:2] = True
            else:
                cell[:, 10:11 + 2 * max(exponent, last):2] = True
                if last > exponent:
                    cell[:, 11 + 2 * exponent] = True            # the point
    keep[-1, :, 4] = True                                        # 0 and -0
    keep[:, 1, 3] = True                                         # the sign
    bytes_kept = np.where(keep, 0xFF, 0).astype(np.uint8).reshape(-1, _CELL_BYTES)
    units = bytes_kept.view(np.uint64)
    return units[:, 0] & _units(_CELL_UNIT0)[0], np.ascontiguousarray(units[:, 1:].T)


_ZERO_KEY = 570


def _low_part(a: np.ndarray, k: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """lo with a * 10**k = hi + lo exactly, for hi = fl(a * 10**k) (Dekker's TwoProduct)."""
    a_high, a_low = _split(a)
    p_high, p_low = _POW10_HIGH[k], _POW10_LOW[k]
    return ((a_high * p_high - hi) + a_high * p_low + a_low * p_high) + a_low * p_low


def _fixed_notation(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fixed, key, chunks) per value: whether ``%.15g`` writes it in fixed notation,
    its cell key and the (4, n) 4-digit chunks of N; key and chunks hold only where
    fixed does."""
    a = np.abs(flat)
    zero = a == 0
    # |x| >= 1e15 or below 9.9999999999999995e-5 prints in exponent notation
    fixed = (a > 9.9e-5) & (a < 1e15)
    a = np.where(fixed, a, 1.0)
    k = np.maximum(14 - np.floor(np.log10(a)).astype(np.intp), 0)
    hi = a * np.take(_POW10, k)
    # The exact product is hi + lo with |lo| <= ulp(hi) / 2, and ulp(hi) >= 2**-6
    # on [1e14, 1e15].  lo only matters where hi is a bound of that range or a
    # tie: an integer plus 1/2.  Next to a power of ten the exponent estimate
    # may be one off, since numpy's SIMD log10 may err by a few ulp.
    edge = np.flatnonzero((hi <= 1e14) | (hi >= 1e15))
    if len(edge):
        h, l = hi[edge], _low_part(a[edge], k[edge], hi[edge])
        k[edge] += (((h < 1e14) | ((h == 1e14) & (l < 0))).astype(np.intp)
                    - ((h > 1e15) | ((h == 1e15) & (l >= 0))))
        hi[edge] = a[edge] * np.take(_POW10, k[edge])
    whole = np.floor(hi)
    frac = hi - whole
    n = whole + (frac > 0.5)
    ties = np.flatnonzero(frac == 0.5)
    if len(ties):
        w, l = whole[ties], _low_part(a[ties], k[ties], hi[ties])
        n[ties] = w + ((l > 0) | ((l == 0) & (np.floor(0.5 * w) != 0.5 * w)))
    carry = np.flatnonzero(n == 1e15)
    if len(carry):
        n[carry] = 1e14
        k[carry] -= 1
    fixed &= (k >= 0) & (k <= 18)
    fixed |= zero

    digits = n.astype(np.int64)
    # the float stage goes before the digit stage: with both alive, a default
    # pulses.csv grew the heap past glibc's trim threshold, and each call faulted
    # about 120 pages back in (ru_minflt)
    del a, hi, whole, frac, n
    high8 = digits // 100000000
    low8 = digits - high8 * 100000000
    del digits
    chunks = np.empty((4, len(low8)), dtype=np.int64)
    np.floor_divide(high8, 10000, out=chunks[0])
    np.subtract(high8, chunks[0] * 10000, out=chunks[1])
    np.floor_divide(low8, 10000, out=chunks[2])
    np.subtract(low8, chunks[2] * 10000, out=chunks[3])
    del high8, low8
    # the last nonzero chunk (chunk 0 holds N's first three digits, never 0)
    # and the last nonzero digit of N within it
    nonzero = chunks[1:] != 0
    last_chunk = np.where(nonzero[2], 3, np.where(nonzero[1], 2, nonzero[0].astype(np.intp)))
    last = np.where(nonzero[2], chunks[3], np.where(nonzero[1], chunks[2],
                                                    np.where(nonzero[0], chunks[1], chunks[0])))
    last_digit = 4 * last_chunk + 2 - np.take(_chunk_tables()[1], last)
    key = 30 * (18 - k) + 2 * last_digit + np.signbit(flat)
    key[zero] = _ZERO_KEY + np.signbit(flat[zero])
    return fixed, key, chunks


def _template(values: np.ndarray, tail: str) -> str:
    """The ``%`` template's text of `values`, `tail` after every row."""
    row = ",".join([FLOAT_FORMAT] * values.shape[1]) + tail
    return row * len(values) % tuple(values.ravel().tolist())


def format_rows(values, tail: str = "\n") -> bytes:
    """The bytes of ``(row * R) % tuple(values.ravel())``, row = W ``%.15g`` fields + `tail`.

    `tail` is a non-empty line end without ``%`` and without the bytes 0, 1
    and 2, which mark deleted bytes, row ends and fallback rows.  The bytes
    are those of ``_row_blocks``, joined.
    """
    return b"".join(_row_blocks(values, tail))


def _row_blocks(values, tail: str):
    """``format_rows`` in pieces: one per block of ``BLOCK_VALUES`` values on the numpy path.

    The decision between the template and the numpy path, and the rounding
    and digits of ``_fixed_notation``, are made once for the whole table.  The
    cells, their compaction and the splice of the fallback rows are made one
    block of rows at a time, in one block-sized cell buffer, so no step holds
    a second copy of the whole table's bytes.
    """
    values = np.asarray(values, dtype=float)
    rows, width = values.shape
    tail_bytes = tail.encode()
    if values.size < VECTOR_MIN_VALUES:
        yield _template(values, tail).encode()
        return
    fixed, key, chunks = _fixed_notation(values.ravel())
    fallback = np.unique(np.flatnonzero(~fixed) // width)
    if (rows - len(fallback)) * width < VECTOR_MIN_VALUES:
        yield _template(values, tail).encode()
        return
    row_mark = tail_bytes if len(tail_bytes) == 1 else _ROW_MARK
    mark = _units(row_mark.ljust(8, b"\0"))[0]
    quads = _chunk_tables()[0]
    first_units, digit_masks = _cell_masks()
    block = max(1, BLOCK_VALUES // width)
    buffer = np.empty((min(block, rows) * width, _CELL_UNITS), dtype=np.uint64)
    for start in range(0, rows, block):
        stop = min(start + block, rows)
        lo, hi = start * width, stop * width
        cells, keys = buffer[:hi - lo], key[lo:hi]
        # keys of values outside fixed notation may leave the table; their rows are dropped
        cells[:, 0] = np.take(first_units, keys, mode="clip")
        for unit in range(4):
            np.bitwise_and(np.take(quads, chunks[unit, lo:hi]),
                           np.take(digit_masks[unit], keys, mode="clip"), out=cells[:, unit + 1])
        by_row = cells.reshape(stop - start, width * _CELL_UNITS)
        # every row but the table's first starts with the previous row's tail
        by_row[0 if start else 1:, 0] |= mark
        for column in range(1, width):
            by_row[:, column * _CELL_UNITS] |= _COMMA
        # a fallback row keeps only its leading tail marker, then a fallback marker
        here = fallback[np.searchsorted(fallback, start):np.searchsorted(fallback, stop)]
        local = here - start
        by_row[local, 1:] = 0
        by_row[local, 0] = (by_row[local, 0] & _KEEP_SEPARATOR) | _FALLBACK
        body = cells.tobytes().translate(None, b"\0")
        if row_mark != tail_bytes:
            body = body.replace(row_mark, tail_bytes)
        if len(here):
            parts = [b""] * (2 * len(here) + 1)
            parts[0::2] = body.split(_FALLBACK_MARK)
            lines = _template(values[here], _FALLBACK_MARK.decode()).encode()
            parts[1::2] = lines.split(_FALLBACK_MARK)[:-1]
            body = b"".join(parts)
        yield body
    yield tail_bytes


def write_table(path, metadata: dict, header: str, values, tail: str = "\n") -> None:
    """Write the only CSV format: a ``# key = value`` line per `metadata` item, `header`,
    then the ``format_rows`` of `values`, each block of rows as it is made.  The
    file is binary, so every platform writes the same bytes: "\\n" line ends,
    UTF-8 text.
    """
    text = "".join(f"# {key} = {value}\n" for key, value in metadata.items()) + header + "\n"
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.writelines(_row_blocks(values, tail))
