"""Exact `'%.12g'` text for the trajectory CSV, without one call per value.

`write_rows` writes rows of float64 columns as `'%.12g'` values joined by
',', each row ending in a bare newline: byte for byte what `'%.12g' % v`
gives for every value.

A value v whose e = floor(log10 |v|) lies in -4..11 is printed in fixed
notation from its 12-digit mantissa

    y = |v| 10^(11 - e),   r = rint(y).

10^(11 - e) is exact for these e and y < 2^40, so the product's rounding
error is below 6.1e-5: when y lies at least 1e-4 from a half integer, r
is the correctly rounded mantissa of the exact |v|, the one C's printf and
Python print (Gay, "Correctly Rounded Binary-Decimal and Decimal-Binary
Conversions", 1990).  The kernel also requires 1e11 <= y and r < 1e12,
which holds only when e is the decimal exponent of the rounded value,
whatever log10's last bits are: a log10 one decade off puts y below 1e11
or r at 1e12 or above.  Zeros print as "0" and "-0".  Every other value (a
near tie, a mantissa that rounds up to 1e12, a value in exponent notation,
nan, inf) goes through `'%.12g'` itself and is spliced in at its byte
offset.

The text of a value is built in 31 fixed byte slots: the sign, "0." and
three zeros (for e < 0), the 12 digits each followed by a point, and the
separator.  A mask row, looked up by (e, trailing zero digits, sign),
keeps the slots that `'%.12g'` prints, and one `np.compress` per block
packs them.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["write_rows"]

# values per block.  A block's temporaries, up to 31 bytes a value for the
# slots and their mask and 24 for the digit chunks, then stay small enough
# that glibc's malloc keeps reusing the same heap pages for them.  With
# 1024-row blocks of the case study's 17 columns every block's temporaries
# were mapped fresh and page-faulted, about 9 800 faults per CSV
_BLOCK_VALUES = 2048

# byte slots of one value: 0 the sign, 1-2 "0.", 3-5 the zeros after it,
# 6-29 the 12 digits each followed by a point, 30 the separator
_SLOTS = 31
# mask rows: 0 for a zero, 1..16 for e = -4..11, and one for a value
# formatted apart, of which only the separator is kept
_APART = 17
_CHUNK = np.array([1e8, 1e4, 1.0])[:, None]
# trailing zero digits of the whole mantissa behind each 4-digit chunk
_CHUNK_TAIL = np.array([8, 4, 0], dtype=np.int8)[:, None]


@functools.cache
def _tables():
    """The kernel's lookup tables, built on the first CSV written:

    pow10   10^(11 - e) at index e + 5 for e = -4..11, NaN at e = -5 and 12,
            so that a value of another decade never passes the mantissa test
    quads   the bytes "d.d.d.d." of each 4-digit chunk, as one uint64
    zeros   the trailing zero digits of each chunk; 12 for 0000, so that
            the least over a mantissa's chunks is the nonzero chunk's
    masks   the kept slots of each (row, trailing zeros 0..12, sign)
    lengths the kept slot count of each mask
    """
    pow10 = np.array([np.nan] + [10 ** k for k in range(15, -1, -1)]
                     + [np.nan])
    quads = np.full((10 ** 4, 8), ord("."), np.uint8)
    quads[:, ::2] = np.indices((10,) * 4).reshape(4, -1).T + ord("0")
    zeros = np.zeros(10 ** 4, np.int8)
    for k in (10, 100, 1000):
        zeros[::k] += 1
    zeros[0] = 12

    e = np.arange(-4, 12)[:, None, None]
    last = 11 - np.arange(13)[:, None]  # the last nonzero digit
    j = np.arange(12)
    masks = np.zeros((_APART + 1, 13, 2, _SLOTS), bool)
    fixed = masks[1:_APART]
    fixed[..., 1:3] = (e < 0)[..., None]
    fixed[..., 3:6] = (np.arange(3) < -1 - e)[:, :, None]
    fixed[..., 6:30:2] = (j <= np.maximum(e, last))[:, :, None]
    fixed[..., 7:30:2] = ((j == e) & (last > e))[:, :, None]
    masks[0, ..., 6] = True
    masks[:_APART, :, 1, 0] = True
    masks[..., 30] = True
    masks = masks.reshape(-1, _SLOTS)
    return (pow10, quads.view(np.uint64).ravel(), zeros, masks,
            np.count_nonzero(masks, axis=1))


def _block_text(vals: np.ndarray, slots: np.ndarray) -> bytes:
    """The text of the values vals, one row of slots each, whose
    separators are already in place."""
    pow10, quads, zeros, masks, lengths = _tables()
    a = np.abs(vals)
    # log10(0) divides by zero and a signaling NaN is invalid; neither
    # value passes the tests below
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.fmin(np.fmax(np.floor(np.log10(a)), -5.0), 12.0)
        y = a * pow10[(e + 5.0).astype(np.intp)]
        r = np.rint(y)
        ok = (y >= 1e11) & (r < 1e12) & (np.abs(y - r) < 0.4999)
        zero = a == 0.0
    chunks = np.floor(np.where(ok, r, 0.0) / _CHUNK)
    chunks[1:] -= 1e4 * chunks[:-1]
    chunks = chunks.astype(np.intp)
    slots[:, 6:30] = np.take(quads, chunks.T).view(np.uint8)
    tail = zeros[chunks]
    tail += _CHUNK_TAIL
    row = np.where(ok, e + 5.0, np.where(zero, 0.0, float(_APART)))
    idx = (row.astype(np.intp) * 13 + tail.min(axis=0)) * 2 + np.signbit(vals)
    text = np.compress(np.take(masks, idx, axis=0).ravel(),
                       slots.ravel()).tobytes()
    apart = np.flatnonzero(row == _APART)
    if not apart.size:
        return text
    # each value formatted apart goes in just before its separator
    offsets = np.cumsum(lengths[idx])[apart] - 1
    parts, start = [], 0
    for offset, v in zip(offsets.tolist(), vals[apart].tolist()):
        parts += (text[start:offset], b"%.12g" % v)
        start = offset
    parts.append(text[start:])
    return b"".join(parts)


def write_rows(fh, columns: list[np.ndarray]) -> None:
    """Write the rows of the real columns (each 1-D, or 2-D for several
    columns) to the binary file fh as `'%.12g'` values, ',' between them
    and '\\n' after each row."""
    n_cols = sum(1 if col.ndim == 1 else col.shape[1] for col in columns)
    rows = max(1, _BLOCK_VALUES // n_cols)
    slots = np.empty((rows, n_cols, _SLOTS), np.uint8)
    slots[:] = np.frombuffer(b"-0.000" + b"0." * 12 + b",", np.uint8)
    slots[:, -1, 30] = ord("\n")
    for a in range(0, len(columns[0]), rows):
        block = np.column_stack([col[a:a + rows] for col in columns])
        fh.write(_block_text(block.ravel(),
                             slots[:len(block)].reshape(-1, _SLOTS)))
