"""A batch ``%.17g``: every field of a float block printed at once, as
``template % tuple(row)`` prints each row.

:func:`format_rows` is the large-block path of ``bct.format_rows``,
which imports this module on first use.  The digits come from Dekker's
error-free TwoProduct (as in ``core.two_product``) with per-exponent
powers of ten, filled lazily with exact int arithmetic; the text is put
together from byte tables with numpy.  A field that the kernel cannot
settle exactly, or that ``%.17g`` prints in exponent notation, goes
through ``'%.17g' % x`` itself, so the output is the same byte for byte.

Once a thread has printed a block of a given size, its calls allocate
no array: every intermediate, and the row buffer the text is put
together in, is written with ``out=`` into that thread's scratch arrays.
They grow to the largest block the thread has printed, at most one
kernel block of ``_KERNEL_FIELDS`` fields, and are kept: about 280 bytes
a field, near 2.3 MB in all.  A row longer than a kernel block is one
block, whose arrays are freed after its call.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import NamedTuple

import numpy as np


# A finite nonzero double |x| = f * 2^e (frexp, 0.5 <= f < 1) lies in
# [10^k_e, 2 * 10^(k_e + 1)) for k_e, the largest k with 10^k <= 2^(e - 1).
# So y = f * T_e with T_e = 2^e * 10^(16 - k_e) lies in [1e16, 2e17): below
# 1e17 - 1/2 the 17 significant digits are round(y) with exponent k_e, from
# there on (f carries) round(y / 10) with exponent k_e + 1.  Both scales
# are kept as double-double pairs (hi, lo), exact to about 2^-106
# relative, and y = p + q + f * lo with (p, q) = TwoProduct(f, hi): p >= 2^53
# is an integer, and r = q + f * lo (|r| < 48) carries an error of about
# 2^-46, so D = p + round(r) is the correctly rounded digit string.
# Fields whose r lies within 2^-30 of a half-integer (a tie, or too close
# to call), that %.17g prints in exponent notation (k < -4 or k > 16) or
# that are not finite go through '%.17g' % x itself.

# 2^13 fields keep a thread's scratch near 2.3 MB and still print a
# 100-sample order-16 evolve (6,700 fields) in one block
_KERNEL_FIELDS = 1 << 13
_FIELD = "%.17g"
_E_MIN = -1073  # frexp's least exponent of a nonzero double; 1024 is its largest
_EXPONENTS = 1024 - _E_MIN + 1
_TIE_MARGIN = 2.0**-30
_SPLITTER = 134217729.0  # 2^27 + 1, Veltkamp's split into 26-bit halves
_LARGEST = float(np.finfo(float).max)
# Filled lazily per binary exponent e: the least double f that carries
# (NaN until filled), and at row 2 * (e - _E_MIN) + carry the decimal
# exponent k = k_e + carry, T_e / 10^carry as (hi, lo), the largest
# |r - round(r)| the kernel spells (-1 where %.17g prints exponent
# notation: every field falls back) and the first spelling class of k.
_CARRY_FROM = np.full(_EXPONENTS, np.nan)
_DECIMAL = np.zeros(2 * _EXPONENTS, np.int64)
_SCALE_HI = np.zeros(2 * _EXPONENTS)
_SCALE_LO = np.zeros(2 * _EXPONENTS)
_SPELL_LIMIT = np.zeros(2 * _EXPONENTS)
_CLASS_BASE = np.zeros(2 * _EXPONENTS, np.int64)

# A field is spelled in a slot of 24 bytes, three uint64 words, the longest
# %.17g text ("-0.000" and 17 digits in fixed notation, 24 bytes in
# exponent notation); its NULs are dropped with the rest of the block's.
# The 17 digits sit at bytes 6-22: the sign, "0." and up to three zeros
# (k < 0) come before them, and for 0 <= k < 16 the digits after the
# decimal point move up one byte to make room for it at byte 7 + k.
_SLOT_WORDS = 3
_FIRST_DIGIT = 6
# (k + 4) * 36 + 2 * digits kept + sign, for -4 <= k <= 16; 0 digits kept is a zero
_CLASSES = 21 * 36
# bytes of the row buffer per bytes.translate call, in whole rows: each
# bytes object stays far below glibc's mmap threshold (128 KB by default)
# unless one row alone is longer (about 1,000 fields)
_TEXT_BYTES = 1 << 15
# scratch rows a field takes, 8 bytes each: 10 float64, 14 int64 and 6
# uint64 rows, and one shared by two rows of flags and frexp's exponents
_SCRATCH_ROWS = 31


class _Scratch(threading.local):
    """One thread's kernel arrays, grown to the largest block it has printed.

    A block of more than ``_KERNEL_FIELDS`` fields (one long row) gets
    arrays for that call only, so that what a thread keeps stays bounded.
    """

    def __init__(self):
        self.rows = np.empty((_SCRATCH_ROWS, 0))
        self.text = np.empty(0, np.uint64)

    def arrays(self, n: int) -> np.ndarray:
        """``_SCRATCH_ROWS`` contiguous float64 rows of ``n`` fields."""
        if n > _KERNEL_FIELDS:
            return np.empty((_SCRATCH_ROWS, n))
        if self.rows.shape[1] < n:
            self.rows = np.empty((_SCRATCH_ROWS, n))
        return self.rows[:, :n]

    def segments(self, n: int, width: int) -> np.ndarray:
        """The row buffer: ``n`` contiguous segments of ``width`` uint64 words."""
        if n > _KERNEL_FIELDS:
            return np.empty((n, width), np.uint64)
        if self.text.size < n * width:
            self.text = np.empty(n * width, np.uint64)
        return self.text[: n * width].reshape(n, width)


_scratch = _Scratch()


def format_rows(template: str, fields: np.ndarray) -> list[str] | None:
    """``[template % tuple(row) for row in fields]`` for a 2-D float64 block.

    None when the template holds anything but ``%.17g`` fields, one per
    column, and plain ASCII text around them.
    """
    layout = _template_layout(template)
    if layout is None or len(layout[1]) != fields.shape[1]:
        return None
    first, literals = layout
    width = _SLOT_WORDS + literals.shape[1]
    row_bytes = 8 * width * fields.shape[1]
    part_bytes = max(1, _TEXT_BYTES // row_bytes) * row_bytes
    lines = []
    step = max(1, _KERNEL_FIELDS // fields.shape[1])
    for start in range(0, len(fields), step):
        block = fields[start : start + step]
        # one segment per field, its slot and then the literal text after it,
        # so that each slot word is one 1-D strided view (numpy buffers, about
        # 55 KB a call, a ufunc whose out is strided in two dimensions); a
        # row's last segment ends it and starts the next, so each part's
        # first line takes the first piece and its last line is dropped
        segments = _scratch.segments(block.size, width)
        segments.reshape(*block.shape, width)[:, :, _SLOT_WORDS:] = literals
        field_bytes(block, segments[:, :_SLOT_WORDS])
        text = memoryview(segments.reshape(-1).view(np.uint8))
        for at in range(0, len(text), part_bytes):
            part = text[at : at + part_bytes].tobytes().translate(None, b"\0")
            part = part.decode("ascii").split("\n")
            part[0] = first + part[0]
            del part[-1]
            lines += part
    return lines


@functools.lru_cache(maxsize=16)
def _template_layout(template: str) -> tuple[str, np.ndarray] | None:
    """The template's first literal piece, and the pieces after its fields as uint64 rows.

    Each piece after a field is NUL-padded to whole words; the last one
    is followed by the newline and the first piece of the next row.
    None when the template has no field, or a piece holds anything but
    plain ASCII text: a ``%``, NUL or newline.
    """
    pieces = template.split(_FIELD)
    literal = "".join(pieces)
    if len(pieces) < 2 or not literal.isascii() or any(c in literal for c in "%\0\n"):
        return None
    after = pieces[1:]
    after[-1] += "\n" + pieces[0]
    width = -(-max(map(len, after)) // 8) * 8
    literals = np.zeros((len(after), width), np.uint8)
    for row, piece in enumerate(after):
        literals[row, : len(piece)] = np.frombuffer(piece.encode("ascii"), np.uint8)
    literals = literals.view(np.uint64)
    literals.setflags(write=False)  # cached, so shared by every call
    return pieces[0], literals


def field_bytes(x: np.ndarray, slots: np.ndarray) -> None:
    """Write '%.17g' % v for each double v of x, NUL-padded, into 24-byte slots.

    ``slots`` is an (x.size, 3) uint64 array whose rows take the fields
    in x's C order; its rows may be strided.
    """
    n = x.size
    tables = _spelling_tables()
    scratch = _scratch.arrays(n)
    v, m, f, t, p, q, ah, al, bh, bl = scratch[:10]
    ints = scratch[10:24].view(np.int64)
    sign, index, row, significand, quot, rest, a, b, b_hi, b_lo, c_hi, c_lo, last, cls = ints
    w0, w1, w2, s1, s2, u = scratch[24:30].view(np.uint64)
    flag, fallback = scratch[30].view(bool)[: 2 * n].reshape(2, n)
    exponent = scratch[30].view(np.int32)[n : 2 * n]

    # every take uses mode="clip": under mode="raise" numpy fills a copy of out
    np.copyto(v.reshape(x.shape), x)
    np.right_shift(v.view(np.int64), 63, out=sign)  # -1 where the sign bit is set
    np.abs(v, out=m)
    np.fmin(m, _LARGEST, out=m)  # inf and nan, printed by the fallback, as a finite double
    np.frexp(m, out=(f, exponent))  # a zero takes f = 0 and spells "0" at any k
    np.copyto(index, exponent)
    np.subtract(index, _E_MIN, out=index)
    _CARRY_FROM.take(index, out=t, mode="clip")
    if math.isnan(t.min()):
        _fill_scales(index)
        _CARRY_FROM.take(index, out=t, mode="clip")
    np.greater_equal(f, t, out=flag)
    np.copyto(row, flag)
    np.add(row, index, out=row)
    np.add(row, index, out=row)

    # (p, q) = TwoProduct(f, hi), as core.two_product computes it, and r = q + f * lo
    hi = bl
    _SCALE_HI.take(row, out=hi, mode="clip")
    np.multiply(f, hi, out=p)
    for whole, upper, lower in ((f, ah, al), (hi, bh, bl)):
        np.multiply(whole, _SPLITTER, out=t)
        np.subtract(t, whole, out=upper)
        np.subtract(t, upper, out=upper)
        np.subtract(whole, upper, out=lower)
    np.multiply(ah, bh, out=q)
    np.subtract(q, p, out=q)
    for left, right in ((ah, bl), (al, bh), (al, bl)):
        np.multiply(left, right, out=t)
        np.add(q, t, out=q)
    _SCALE_LO.take(row, out=t, mode="clip")
    np.multiply(f, t, out=t)
    r = np.add(q, t, out=q)
    # D = p + round(r); |r - round(r)| near 1/2 is a tie or too close to call
    rounded = np.add(r, 0.5, out=t)
    np.floor(rounded, out=rounded)
    np.subtract(r, rounded, out=r)
    np.abs(r, out=r)
    _SPELL_LIMIT.take(row, out=ah, mode="clip")
    np.greater(r, ah, out=fallback)
    np.copyto(significand, p, casting="unsafe")
    np.copyto(rest, rounded, casting="unsafe")
    np.add(significand, rest, out=significand)

    # the 17 digits split as a (2 digits), b_hi and b_lo (4 each), c_hi (3)
    # and c_lo (4): a fills bytes 6-7 of the slot, b bytes 8-15, c bytes 16-22
    for number, base, high, low in (
        (significand, 10**7, quot, c_lo),
        (c_lo, 10**4, c_hi, c_lo),
        (quot, 10**8, a, b),
        (b, 10**4, b_hi, b_lo),
    ):
        # floor_divide by a scalar is about 3 times faster than divmod
        np.floor_divide(number, base, out=high)
        np.multiply(high, base, out=rest)
        np.subtract(number, rest, out=low)
    chunks = (a, b_hi, b_lo, c_hi, c_lo)
    for chunk, table, word in zip(chunks, tables.digits, (w0, w1, s1, w2, s2)):
        table.take(chunk, out=word, mode="clip")
    np.bitwise_or(w1, s1, out=w1)
    np.bitwise_or(w2, s2, out=w2)
    # twice the number of the last nonzero digit, counted from 1 (0 for a zero)
    tables.last[0].take(a, out=last, mode="clip")
    for chunk, table in zip(chunks[1:], tables.last[1:]):
        table.take(chunk, out=rest, mode="clip")
        np.maximum(last, rest, out=last)
    _CLASS_BASE.take(row, out=cls, mode="clip")
    np.add(cls, last, out=cls)
    np.subtract(cls, sign, out=cls)

    # the digits after a decimal point: all 17 moved up one byte
    np.left_shift(w1, 8, out=s1)
    np.right_shift(w0, 56, out=u)
    np.bitwise_or(s1, u, out=s1)
    np.left_shift(w2, 8, out=s2)
    np.right_shift(w1, 56, out=u)
    np.bitwise_or(s2, u, out=s2)
    # slot word = digits kept in place | digits kept moved up | sign, zeros and point
    for word, spelled, moved, keep, move, marks in zip(
        range(_SLOT_WORDS), (w0, w1, w2), (None, s1, s2), tables.keep, tables.move, tables.marks
    ):
        keep.take(cls, out=u, mode="clip")
        np.bitwise_and(spelled, u, out=spelled)
        if moved is not None:
            move.take(cls, out=u, mode="clip")
            np.bitwise_and(moved, u, out=moved)
            np.bitwise_or(spelled, moved, out=spelled)
        marks.take(cls, out=u, mode="clip")
        np.bitwise_or(spelled, u, out=slots[:, word])

    if fallback.any():
        at = np.flatnonzero(fallback)
        texts = [(_FIELD % y).encode("ascii").ljust(8 * _SLOT_WORDS, b"\0") for y in v[at].tolist()]
        slots[at] = np.frombuffer(b"".join(texts), np.uint64).reshape(-1, _SLOT_WORDS)


def _ratio(twos: int, tens: int) -> tuple[int, int]:
    """2^twos * 10^tens as a (numerator, denominator) pair of ints."""
    num, den = 1, 1
    if twos >= 0:
        num <<= twos
    else:
        den <<= -twos
    if tens >= 0:
        num *= 10**tens
    else:
        den *= 10**-tens
    return num, den


def _at_least(num: int, den: int, other_num: int, other_den: int) -> bool:
    """num / den >= other_num / other_den, for positive denominators."""
    return num * other_den >= other_num * den


def _double_double(num: int, den: int) -> tuple[float, float]:
    """num / den as hi + lo, each correctly rounded (int true division rounds correctly)."""
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


def _fill_scales(e_index: np.ndarray) -> None:
    # a set, not np.unique: that imports numpy.ma, about 15 ms
    for index in set(e_index[np.isnan(_CARRY_FROM.take(e_index))].tolist()):
        e = index + _E_MIN
        # the largest k with 10^k <= 2^(e - 1), settled exactly
        k = math.floor((e - 1) * math.log10(2.0))
        while not _at_least(*_ratio(e - 1, -k), 1, 1):
            k -= 1
        while _at_least(*_ratio(e - 1, -k - 1), 1, 1):
            k += 1
        for carry in (0, 1):
            row = 2 * index + carry
            _DECIMAL[row] = k + carry
            _SCALE_HI[row], _SCALE_LO[row] = _double_double(*_ratio(e, 16 - carry - k))
            fixed = -4 <= k + carry <= 16
            _SPELL_LIMIT[row] = 0.5 - _TIE_MARGIN if fixed else -1.0
            _CLASS_BASE[row] = (k + carry + 4) * 36 if fixed else 0
        # f * T_e >= 1e17 - 1/2 exactly when f >= (2 * 10^17 - 1) / (2 * T_e),
        # that is when f >= this quotient rounded up to a double
        num, den = _ratio(e + 1, 16 - k)
        num, den = (2 * 10**17 - 1) * den, num
        least = num / den
        if not _at_least(*least.as_integer_ratio(), num, den):
            least = math.nextafter(least, math.inf)
        _CARRY_FROM[index] = least  # last: the exponent is ready once this is a number


class _Tables(NamedTuple):
    """The read-only tables the kernel spells fields from.

    ``digits`` spells the chunks a, b_hi, b_lo, c_hi and c_lo of the 17
    digits (2, 4, 4, 3 and 4 of them) at their bytes of slot words 0, 1,
    1, 2 and 2, and ``last`` gives twice the number of a chunk's last
    nonzero digit among the 17 (0 when it has none).  Row w of ``keep``,
    ``move`` and ``marks`` gives, per spelling class, word w's digit bytes
    kept in place (those before a decimal point, or all), its digit bytes
    kept after moving up one byte (none in word 0), and the sign, "0." and
    zeros, or point, that it adds.
    """

    digits: tuple[np.ndarray, ...]
    last: tuple[np.ndarray, ...]
    keep: np.ndarray
    move: np.ndarray
    marks: np.ndarray


@functools.cache
def _spelling_tables() -> _Tables:
    digits, last = [], []
    first = 1
    # each chunk's width, and its first byte in its slot word
    for width, offset in ((2, _FIRST_DIGIT), (4, 0), (4, 4), (3, 0), (4, 3)):
        n = np.arange(10**width)
        spelled = np.zeros((n.size, 8), np.uint8)
        for j in range(width):
            spelled[:, offset + j] = n // 10 ** (width - 1 - j) % 10 + ord("0")
        digits.append(spelled.view(np.uint64).ravel())
        trailing = sum(n % 10**i == 0 for i in range(1, width))
        last.append(np.where(n > 0, 2 * (first + width - 1 - trailing), 0))
        first += width
    keep, move, marks = np.zeros((3, _CLASSES, 8 * _SLOT_WORDS), np.uint8)
    for cls in range(_CLASSES):
        k, kept, negative = cls // 36 - 4, cls % 36 // 2, cls % 2
        if kept == 0:  # a zero, at whatever k its exponent gives
            k, kept = 0, 1
        start = _FIRST_DIGIT
        if k < 0:
            keep[cls, start : start + kept] = 0xFF
            prefix = b"0." + b"0" * (-k - 1)
            marks[cls, start - len(prefix) : start] = np.frombuffer(prefix, np.uint8)
            sign_at = start - len(prefix) - 1
        else:
            keep[cls, start : start + k + 1] = 0xFF
            if kept > k + 1:
                marks[cls, start + k + 1] = ord(".")
                move[cls, start + k + 2 : start + kept + 1] = 0xFF
            sign_at = start - 1
        if negative:
            marks[cls, sign_at] = ord("-")
    # per word, one contiguous table over the classes
    words = [np.ascontiguousarray(table.view(np.uint64).T) for table in (keep, move, marks)]
    for table in digits + last + words:
        table.setflags(write=False)
    return _Tables(tuple(digits), tuple(last), *words)
