"""CSV text of a float64 table, byte for byte ``'%.17g' % v`` for every value.

Python's ``%`` costs several hundred nanoseconds per value, and the CLI
writes hundreds of thousands of them per figure.  :func:`csv_rows` renders a
whole table with array operations instead:

1. **Scale.**  ``k = floor(log10|v|)`` estimates the decimal exponent, and
   ``y = |v| * 10**(16 - k)`` is formed as a Dekker double-double product
   (T. J. Dekker, Numer. Math. 18 (1971) 224): ``|v|`` and the high part of
   a table entry ``10**s ~ hi + lo`` (each correctly rounded from the exact
   power) are split into 26-bit halves, so ``|v| * hi`` is exactly
   ``y_hi + e``, and ``y_lo = e + fl(|v| * lo)``.
2. **Round.**  ``y_hi >= 1e16 > 2**53`` is an integer, so the 17-digit
   integer ``D = round(y)`` is ``y_hi + floor(y_lo)`` plus one when the
   fraction of ``y_lo`` exceeds one half.
3. **Cut** ``D`` into a leading digit and four 4-digit groups, each read
   from a table of ASCII quadruples.
4. **Lay out** each value in a 32-byte slot holding every byte ``%g`` could
   print: sign, the ``0.000`` of exponents -4 to -1, the digits, a copy of
   them one byte to the right (the fraction, after a decimal point), and
   ``e+XXX``.  One mask per (form, stripped zeros) class keeps the bytes
   that ``%g`` prints, in fixed or exponent form, without trailing fraction
   zeros or a bare point, and sets every other byte to NUL.
5. **Squeeze** the NULs out with ``bytes.translate``.

Why the digits are exact: the table entries are within 2**-106 of
``10**s`` relative, the split product is exact, and the two roundings that
form ``y_lo`` add at most 2**-105 relative, so ``y_hi + y_lo`` is within
``4e-15`` of the true ``y < 1e17``.  The fraction that decides the rounding
is therefore off by at most ``4e-15``, and a value whose fraction lies more
than ``_TIE_WINDOW = 1e-6`` from one half rounds as the correctly rounded
``%`` does.  The same window guards the exponent: ``y`` must be at least
``1e16 + _TIE_WINDOW`` and ``D`` below ``1e17``, otherwise ``log10`` was
off by one.  Just below a power of ten, ``log10`` can round up to it; the
first test catches that.  The second guards against a ``log10`` that
rounds down, which NumPy does not rule out.

Fallbacks.  Each of these values is formatted by ``'%.17g' % v`` on its
own, which stays the reference the tests compare against: zeros aside,
anything outside ``[1e-280, 1e280)`` in magnitude (non-finite, subnormal,
or beyond the power table), a fraction within the window of a tie (exact
ties included, which ``%`` breaks to even), and an exponent estimate that
misses.  Zeros take the fast path as ``D = 0``.

The slots are read and written as native ``uint64`` words laid out for a
little-endian host.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

_TIE_WINDOW = 1e-6
# fast path |v| in [10**_K_MIN, 10**_K_MAX); log10 may round one below _K_MIN
_K_MIN, _K_MAX = -280, 280
_LOWEST, _HIGHEST = float(f"1e{_K_MIN}"), float(f"1e{_K_MAX}")
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for 53-bit significands
_U64 = np.uint64


def _powers_of_ten() -> tuple[NDArray[np.float64], ...]:
    """``(hi, lo, hi's high half, hi's low half)`` of ``10**(16 - k)``, indexed by ``_K_MAX - k``.

    ``hi`` and ``lo`` are correctly rounded from exact integer arithmetic;
    ``k`` runs from ``_K_MAX`` down to ``_K_MIN - 1``.
    """
    neg_hi, neg_lo, q = [], [], 1
    for _ in range(_K_MAX - 16):  # 10**-1 ... 10**(16 - _K_MAX)
        q *= 10
        hi = 1 / q
        m, d = hi.as_integer_ratio()  # hi = m / d, d a power of two
        neg_hi.append(hi)
        neg_lo.append(math.ldexp((d - m * q) / q, 1 - d.bit_length()))
    pos_hi, pos_lo, p = [], [], 1
    for _ in range(18 - _K_MIN):  # 10**0 ... 10**(17 - _K_MIN)
        hi = float(p)
        pos_hi.append(hi)
        pos_lo.append(float(p - int(hi)))
        p *= 10
    hi = np.array(neg_hi[::-1] + pos_hi)
    c = hi * _SPLIT
    hh = c - (c - hi)
    return hi, np.array(neg_lo[::-1] + pos_lo), hh, hi - hh


_P_HI, _P_LO, _P_HH, _P_HL = _powers_of_ten()

# the ASCII digits of 0000 ... 9999, one little-endian uint32 each
_DIGITS4 = np.empty((10, 10, 10, 10, 4), np.uint8)
for _place in range(4):
    _DIGITS4[..., _place] = np.arange(48, 58, dtype=np.uint8).reshape([10 if i == _place else 1 for i in range(4)])
_DIGITS4 = _DIGITS4.view("<u4").ravel()

# slot bytes 24..31: NUL, 'e', exponent sign, 2 or 3 exponent digits (NUL
# first below 100), NUL, then the separator: ',' at k + _EXP_OFFSET and
# '\n' at _TAIL_ROW past it
_EXP_OFFSET = 1 - _K_MIN
_k = np.arange(_K_MIN - 1, _K_MAX + 1)
_ak = np.abs(_k)
_tail = np.zeros((2, _k.size, 8), np.uint8)
_tail[:, :, 1] = ord("e")
_tail[:, :, 2] = np.where(_k < 0, ord("-"), ord("+"))
_tail[:, :, 3] = np.where(_ak >= 100, 48 + _ak // 100, 0)
_tail[:, :, 4] = 48 + _ak // 10 % 10
_tail[:, :, 5] = 48 + _ak % 10
_tail[0, :, 7] = ord(",")
_tail[1, :, 7] = ord("\n")
_TAIL = _tail.view(_U64).ravel()
_TAIL_ROW = _k.size
del _place, _k, _ak, _tail

# slot bytes 0..7: sign (set per value), "0.000", NUL, leading digit (set per value)
_HEAD = np.frombuffer(b"\x000.000\x00\x00", _U64)[0]
_ASCII_ZEROS = np.frombuffer(b"00000000", _U64)[0]
_EXP_FORM = 21  # forms 0..20 are the fixed exponents -4..16


def _slot_masks() -> tuple[NDArray[np.uint64], ...]:
    """Per class ``17 * form + stripped``: (keep of the slot, keep of the shifted slot, constant bytes).

    A slot holds the leading digit at byte 7 and the 16 others at 8..23;
    the shifted slot (one byte to the right) holds digit i at byte 8 + i.
    ``stripped`` trailing zeros of the 17 digits are dropped, and the point
    goes with them when no fraction digit is left.
    """
    form = np.arange(22)[:, None, None]
    kept = 17 - np.arange(17)[None, :, None]  # digits 0 .. kept - 1 are printed
    j = np.arange(32)
    exp, small = form == _EXP_FORM, form < 4
    # d.ddd e+XX | 0.000ddd (exponents -4 .. -1) | ddd.ddd (exponents 0 .. 16)
    point = np.where(exp, 8, np.where(small, 99, form + 4))  # 99: no point among the digits
    keep = (j == 0) | (j == 31)  # sign, separator
    keep = keep | exp & ((j == 7) | (j >= 25) & (j < 30))
    keep = keep | small & ((j >= 1) & (j < 6 - form) | (j >= 7) & (j < 7 + kept))
    keep = keep | ~exp & ~small & (j >= 7) & (j < point)
    fraction = 8 + kept > point + 1
    keep_shifted = fraction & (j > point) & (j < 8 + kept)
    masks = np.stack([keep, keep_shifted, fraction & (j == point)]).astype(np.uint8)
    masks[:2] *= 255
    masks[2] *= ord(".")
    return masks.reshape(3, 22 * 17, 32).view(_U64)


_KEEP, _KEEP_SHIFTED, _CONST = _slot_masks()


def _digits(v: NDArray[np.float64]) -> tuple[NDArray[np.int64], NDArray[np.int64], NDArray[np.bool_]]:
    """17-digit integers ``D``, exponents ``k`` with ``|v| ~ D * 10**(k - 16)``, and the fast-path mask."""
    a = np.abs(v)
    fast = (a >= _LOWEST) & (a < _HIGHEST)  # False for NaN and inf
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    i = _K_MAX - k
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    hi = a * _P_HI.take(i)
    lo = ah * _P_HH.take(i)  # the exact rounding error of hi, then the lo product
    lo -= hi
    lo += ah * _P_HL.take(i)
    lo += al * _P_HH.take(i)
    lo += al * _P_HL.take(i)
    lo += a * _P_LO.take(i)
    whole = np.floor(lo)
    lo -= whole
    lo -= 0.5  # the fraction less one half
    D = hi.astype(np.int64)
    D += whole.astype(np.int64)
    D += lo > 0.0
    fast &= np.abs(lo) >= _TIE_WINDOW
    hi -= 1e16
    hi += whole
    hi += 0.5
    hi += lo  # y - 1e16
    fast &= hi >= _TIE_WINDOW
    fast &= D < 10**17
    zero = v == 0.0
    D[zero] = 0
    k[zero] = 0
    fast |= zero
    return D, k, fast


def csv_rows(table: NDArray[np.float64]) -> bytes:
    """The rows of a 2-D float64 table as CSV text: ``'%.17g' % v`` per value, ``,`` between, ``\\n`` after."""
    rows, cols = table.shape
    v = np.ascontiguousarray(table, dtype=np.float64).ravel()
    n = v.size
    D, k, fast = _digits(v)
    # one 32-byte slot per value after an 8-byte pad, so that the shifted
    # view below is the slot stream one byte to the right
    buf = np.empty(8 + 32 * n, np.uint8)
    buf[:8] = 0
    slots = buf[8:].view(_U64).reshape(n, 4)
    lead, rest = np.divmod(D, 10**16)
    lead += 48
    slots[:, 0] = lead.view(_U64) * _U64(1 << 56) + _HEAD
    slots.view(np.uint8)[:, 0] = np.signbit(v).view(np.uint8) * np.uint8(ord("-"))
    halves = np.empty((n, 2), np.int64)
    np.divmod(rest, 10**8, out=(halves[:, 0], halves[:, 1]))
    quads_hi, quads_lo = np.divmod(halves, 10**4)
    words = slots.view("<u4")
    words[:, 2:6:2] = _DIGITS4.take(quads_hi)
    words[:, 3:6:2] = _DIGITS4.take(quads_lo)
    tail = k.reshape(rows, cols) + _EXP_OFFSET
    tail[:, -1] += _TAIL_ROW
    slots[:, 3] = _TAIL.take(tail.ravel())
    # trailing '0' digits: the leading zero bytes of (digits ^ '0'), whose
    # bytes are at most 9, read off the float64 exponent of each word
    zeros = (slots[:, 1:3] ^ _ASCII_ZEROS).astype(np.float64).view(np.int64)
    zeros >>= 52
    np.subtract(1086, zeros, out=zeros)
    zeros >>= 3
    np.minimum(zeros, 8, out=zeros)
    stripped = zeros[:, 1] + (zeros[:, 1] == 8) * zeros[:, 0]
    fixed = (k >= -4) & (k <= 16)
    np.minimum(stripped, np.where(fixed & (k > 0), 16 - k, 16), out=stripped)
    cls = np.where(fixed, k + 4, _EXP_FORM)
    cls *= 17
    cls += stripped
    shifted = np.frombuffer(buf, _U64, count=4 * n, offset=7)
    shifted = shifted & _KEEP_SHIFTED.take(cls, axis=0).ravel()
    flat = slots.ravel()
    flat &= _KEEP.take(cls, axis=0).ravel()
    flat |= shifted
    flat |= _CONST.take(cls, axis=0).ravel()
    slot_bytes = slots.view(np.uint8)
    for j, value in zip(np.flatnonzero(~fast).tolist(), v[~fast].tolist()):
        text = ("%.17g" % value).encode()
        slot_bytes[j, :31] = 0
        slot_bytes[j, : len(text)] = np.frombuffer(text, np.uint8)
    return slots.tobytes().translate(None, b"\0")
