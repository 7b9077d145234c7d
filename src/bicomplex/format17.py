"""A batch ``%.17g`` and its mirror: every field of a float block printed
at once, as ``template % tuple(row)`` prints each row, and every field of
a large ``.bct`` payload read at once, as ``float`` reads each one.

:func:`format_rows` is the large-block path of ``bct.format_rows``, and
:func:`read_rows` the large-payload path of ``bct.parse``; both import
this module on first use.  The writer's digits come from Dekker's
error-free TwoProduct (``core.two_product``) with per-exponent
powers of ten, filled lazily with exact int arithmetic; the text is put
together from byte tables with numpy.  A field that the kernel cannot
settle exactly, or that ``%.17g`` prints in exponent notation, goes
through ``'%.17g' % x`` itself, so the output is the same byte for byte.
The reader takes the payload as one text of rows ended by "\n", checks
its layout on its bytes, turns each plain decimal field into an exact
integer with word arithmetic and scales it by a double-double power of
ten with the same TwoProduct; a field of any other form, or whose value
it cannot round with certainty, is read by ``float`` itself, so the bits
are the same.  A payload of any other layout (a blank line, CRLF) is
left whole to ``bct``'s reference scan.

Once a thread has printed or read a block of a given size, its calls
allocate no array: every intermediate, and the row buffer the text is
put together in, is written with ``out=`` into that thread's scratch
arrays.  They grow to the largest block the thread has handled, at most
one kernel block of ``_KERNEL_FIELDS`` fields, and are kept: about 280
bytes a field for printing, near 2.3 MB in all, and about 150 for
reading, plus 4 bytes a payload byte for the reader's byte positions.
A row longer than a kernel block is one block when printed, whose arrays
are freed after its call; when read, it sends the payload to ``bct``'s
reference scan.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import NamedTuple

import numpy as np

from .core import two_product


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
_LARGEST = float(np.finfo(float).max)
# Filled lazily per binary exponent e: the least double f that carries
# (NaN until filled), and at row 2 * (e - _E_MIN) + carry, for the decimal
# exponent k = k_e + carry, T_e / 10^carry as (hi, lo), the largest
# |r - round(r)| the kernel spells (-1 where %.17g prints exponent
# notation: every field falls back) and the first spelling class of k.
_CARRY_FROM = np.full(_EXPONENTS, np.nan)
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
    """One thread's kernel arrays, grown to the largest block it has printed or read.

    A block larger than one kernel block (one long row) gets arrays for
    that call only, so that what a thread keeps stays bounded.
    """

    def __init__(self):
        self.rows = np.empty(0)
        self.text = np.empty(0, np.uint64)
        self.positions = np.empty(0, np.int32)

    def words(self, size: int) -> np.ndarray:
        """``size`` contiguous float64 words, the writer's and the reader's intermediates."""
        if size > _SCRATCH_ROWS * _KERNEL_FIELDS:
            return np.empty(size)
        if self.rows.size < size:
            self.rows = np.empty(size)
        return self.rows[:size]

    def arrays(self, n: int) -> np.ndarray:
        """``_SCRATCH_ROWS`` contiguous float64 rows of ``n`` fields."""
        return self.words(_SCRATCH_ROWS * n).reshape(_SCRATCH_ROWS, n)

    def segments(self, n: int, width: int) -> np.ndarray:
        """The row buffer: ``n`` contiguous segments of ``width`` uint64 words."""
        if n > _KERNEL_FIELDS:
            return np.empty((n, width), np.uint64)
        if self.text.size < n * width:
            self.text = np.empty(n * width, np.uint64)
        return self.text[: n * width].reshape(n, width)

    def ramp(self, nbytes: int) -> np.ndarray:
        """0, 1, ..., nbytes - 1, nbytes at most ``_KERNEL_BYTES``: the reader's byte positions."""
        if self.positions.size < nbytes:
            self.positions = np.arange(nbytes, dtype=np.int32)
        return self.positions[:nbytes]


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

    # (p, q) = TwoProduct(f, hi), with hi in the row of its low half, and r = q + f * lo
    _SCALE_HI.take(row, out=bl, mode="clip")
    two_product(f, bl, p, q, ah, al, bh, bl)
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


# -- reading -------------------------------------------------------------------

# The reader mirrors the writer.  The payload text is read as one ASCII
# byte string between blank pads, in blocks of whole rows.
# A block's layout is checked without tokens: bytes from "+" up are token
# bytes, and every other byte but a blank is an event, as is each token's
# first byte.  The events must run "(", a token per field and ")" for each
# atom, then "\n", row after row.  A field's last byte lies before the
# event after it, past one blank at most, and the 24 bytes that end there
# are read as three little-endian words.  Word masks drop the bytes before
# the token (and a leading "-"), turn its "." into a zero and check that
# every other byte is a digit; three multiply-shift steps then turn each
# word's 8 digits into a number.  With the point read as a zero the digits
# give D' = ip * 10^(f + 1) + fp, where ip and fp are the digits before
# and after the point and f is the count of the latter, so
# m = (D' - fp) / 10 + fp, exact in uint64 below 10^19.  The value
# q = m * 10^-f takes m = m_h + m_l (m_h the double nearest m) and 10^-f
# as a double-double (hi, lo): y = p + r with (p, e) = TwoProduct(m_h, hi)
# and r = e + m_h * lo + m_l * hi, so that q - y = (p - y) + r to about
# 2^-100 of y.  y is q correctly rounded unless |q - y| is within 2^-30 of
# half the gap below y (the smaller gap at a power of two).  A value
# m * 10^-f with m < 10^19 that is not a midpoint lies at least 2^-64 of
# itself from every one, so only exact ties (which y may miss) and values
# just above a power of two come that near.  float() reads the fields that
# are no such token (an exponent, "+", "_", or anything else but digits),
# that are longer than 24 bytes, that have 20 digits or more (leading
# zeros and the point's zero included), that are that near a midpoint, or
# that have two blanks or more after them.  A block whose events do not
# match, a field that float() rejects or a value that is not finite
# rejects the whole payload: the caller's reference path decides it.

_PAD = " " * 24  # so that every 24-byte window ending in a token lies in the text
_TOKEN = 0x2B  # "+", the least token byte
_WINDOW = 24
# bytes a block reads at most, 24 a field: its byte masks fit in its field rows
_KERNEL_BYTES = _WINDOW * _KERNEL_FIELDS
# scratch rows a field takes, 8 bytes each, after the block's event positions
# and bytes: 16 int64, uint64 or float64 rows, one for the digit check, D'
# and the sign bit in turn, and one shared by three rows of flags
_READ_ROWS = 18
_READ_MARGIN = 0.5 - _TIE_MARGIN


def _bytes_word(byte: int) -> int:
    """``byte`` in each of a uint64's 8 bytes."""
    return int.from_bytes(bytes([byte]) * 8, "little")


_ZEROS, _POINT, _LOW7, _HIGH, _PAST_NINE = map(_bytes_word, (0x30, 0x2E ^ 0x30, 0x7F, 0x80, 0x76))
# each word's weight in the 24-byte window: the point's bit, 8 * byte + 7,
# reads exactly as a double
_WORD_WEIGHTS = np.array([[1.0], [2.0**64], [2.0**128]])
_KEEP_ROWS = np.array([[0], [_WINDOW + 1], [2 * (_WINDOW + 1)]])


class _ReadTables(NamedTuple):
    """The read-only tables the reader takes its masks and scales from.

    ``keep`` holds at index ``25 * w + L`` word w of the mask of the last
    L bytes of a 24-byte window.  The others are indexed by the point's
    place, ``p + 1`` for a point at byte p of the window and 0 for none:
    ``divisor`` is 10^f for the f digits after the point (at most 10^19,
    and 10^19 without a point, so that fp takes every digit), and the rows
    of ``scale`` are 10^-f as a double-double (hi, lo).
    """

    keep: np.ndarray
    divisor: np.ndarray
    scale: np.ndarray


@functools.cache
def _reading_tables() -> _ReadTables:
    keep = np.zeros((_SLOT_WORDS, _WINDOW + 1), np.uint64)
    for length in range(_WINDOW + 1):
        mask = ((1 << 8 * length) - 1) << 8 * (_WINDOW - length)
        for word in range(_SLOT_WORDS):
            keep[word, length] = mask >> 64 * word & (1 << 64) - 1
    after = [0] + [_WINDOW - place for place in range(1, _WINDOW + 1)]
    divisor = np.array([10**19] + [10 ** min(f, 19) for f in after[1:]], np.uint64)
    scale = np.array([_double_double(1, 10**f) for f in after]).T.copy()
    tables = _ReadTables(keep.ravel(), divisor, scale)
    for table in tables:
        table.setflags(write=False)
    return tables


@functools.lru_cache(maxsize=16)
def _row_events(atoms: int, arity: int) -> np.ndarray:
    """One row's events: "(", a token byte per field and ")" for each atom, then "\\n"."""
    row = np.array(([ord("(")] + [_TOKEN] * arity + [ord(")")]) * atoms + [ord("\n")], np.uint8)
    row.setflags(write=False)
    return row


def read_rows(text: str, rows: int, atoms: int, arity: int) -> np.ndarray | None:
    """The payload text as a (rows, atoms, arity) array, each field as ``float`` reads it.

    ``text`` is what follows a document's header lines.  It must hold
    ``rows`` lines, each ended by "\n" or by the text's end and each of
    ``atoms`` atoms ``(f1 ... f_arity)`` of finite fields between blanks
    or tabs.  None when it does not hold such rows, or when the reader
    cannot tell: a byte that is not ASCII, a blank line, a line break
    other than "\n" (CRLF), a separator other than blanks and parens, or
    a row of more than one kernel block of fields or bytes.
    """
    text = text.replace("\t", " ")
    # an atom takes 2 * arity + 1 bytes at least: a declared size that the
    # text cannot hold allocates nothing
    if not text.isascii() or len(text) < rows * atoms * (2 * arity + 1):
        return None
    if not text.endswith("\n"):
        text += "\n"
    ends = [-1]
    # a line more than declared is enough to reject
    while len(ends) <= rows + 1 and (end := text.find("\n", ends[-1] + 1)) >= 0:
        ends.append(end)
    if len(ends) != rows + 1:
        return None
    sizes = [b - a for a, b in zip(ends, ends[1:])]  # each row with its "\n"
    if atoms * arity > _KERNEL_FIELDS or max(sizes) > _KERNEL_BYTES:
        return None  # a row longer than one block
    data = "".join((_PAD, "\n", text, _PAD)).encode("ascii")
    values = np.empty((rows, atoms * arity))
    first, start = 0, len(_PAD) + 1
    while first < rows:
        # whole rows, at most one kernel block of fields and of bytes
        last, end = first + 1, start + sizes[first]
        while (
            last < rows
            and (last + 1 - first) * atoms * arity <= _KERNEL_FIELDS
            and end + sizes[last] - start <= _KERNEL_BYTES
        ):
            end += sizes[last]
            last += 1
        if not _read_block(data, start, end, values[first:last], atoms, arity):
            return None
        first, start = last, end
    return values.reshape(rows, atoms, arity)


def _read_block(data: bytes, lo: int, hi: int, out: np.ndarray, atoms: int, arity: int) -> bool:
    """Read the rows in ``data[lo:hi]`` into ``out`` (rows, atoms * arity); False rejects them."""
    k, n = out.shape[0], out.size
    per_row = atoms * (arity + 2) + 1
    nb, events = hi - lo, k * per_row
    position_words, event_words = -(-events // 2), -(-events // 8)
    arena = _scratch.words(position_words + event_words + max(-(-3 * nb // 8), _READ_ROWS * n))
    positions = arena[:position_words].view(np.int32)[:events]
    event_bytes = arena[position_words : position_words + event_words].view(np.uint8)[:events]
    shared = arena[position_words + event_words :]
    block = np.frombuffer(data, np.uint8, nb, lo)

    # the events: separators other than blanks, and token starts
    low, event, start = shared.view(bool)[: 3 * nb].reshape(3, nb)
    np.less(block, _TOKEN, out=low)
    np.not_equal(block, ord(" "), out=event)
    np.logical_and(event, low, out=event)
    start[0] = not low[0]  # a row starts after "\n"
    np.greater(low[:-1], low[1:], out=start[1:])
    np.logical_or(event, start, out=event)
    if np.count_nonzero(event) != events:
        return False
    np.compress(event, _scratch.ramp(nb), out=positions)
    block.take(positions, out=event_bytes, mode="clip")

    def at_fields(array: np.ndarray, after: int = 0) -> np.ndarray:
        """The (rows, atoms, arity) view of a per-event array at each field's event, or after it."""
        atom = array.reshape(k, per_row)[:, :-1].reshape(k, atoms, arity + 2)
        return atom[:, :, 1 + after : 1 + after + arity]

    rows = shared[: _READ_ROWS * n].reshape(_READ_ROWS, n)
    flags = rows[17].view(bool)
    negative, flag, aux = flags[:n], flags[n : 2 * n], flags[2 * n : 3 * n]
    np.equal(at_fields(event_bytes), ord("-"), out=negative.reshape(k, atoms, arity))
    np.minimum(event_bytes, _TOKEN, out=event_bytes)
    mismatch = rows[:2].view(bool).ravel()[:events].reshape(k, per_row)
    np.not_equal(event_bytes.reshape(k, per_row), _row_events(atoms, arity), out=mismatch)
    if mismatch.any():
        return False

    # each field's last byte and its length without a sign; two blanks or
    # more after it leave a blank there, and float() reads the field
    last, length, word, shift, back, place = rows[:6].view(np.int64)
    np.subtract(at_fields(positions, 1), 1, out=last.reshape(k, atoms, arity))
    byte = aux.view(np.uint8)
    for _ in range(2):
        block.take(last, out=byte, mode="clip")
        np.less(byte, _TOKEN, out=flag)
        np.subtract(last, flag, out=last)
    shape = (k, atoms, arity)
    np.subtract(last.reshape(shape), at_fields(positions), out=length.reshape(shape))
    np.add(length, 1, out=length)
    np.subtract(length, negative, out=length)
    np.greater(length, _WINDOW, out=aux)
    np.logical_or(flag, aux, out=flag)

    # the window of 24 bytes that ends at the last byte, from aligned words
    np.add(last, lo - _WINDOW + 1, out=word)
    np.bitwise_and(word, 7, out=shift)
    np.left_shift(shift, 3, out=shift)
    np.subtract(64, shift, out=back)
    np.right_shift(word, 3, out=word)
    aligned = np.frombuffer(data, np.uint64, len(data) // 8)
    gathered = rows[6:10].view(np.uint64)
    for row in gathered:
        aligned.take(word, out=row, mode="clip")
        np.add(word, 1, out=word)
    x, t = rows[10:13].view(np.uint64), rows[13:16].view(np.uint64)
    np.right_shift(gathered[:3], shift.view(np.uint64), out=x)
    np.left_shift(gathered[1:], back.view(np.uint64), out=t)  # a shift by 64 gives 0
    np.bitwise_or(x, t, out=x)

    tables = _reading_tables()
    # digit values in the token's bytes, zeros before it; the point is 0x1E
    keep = gathered[:3]
    np.add(length, _KEEP_ROWS, out=t.view(np.int64))
    tables.keep.take(t.view(np.int64), out=keep, mode="clip")
    np.bitwise_xor(x, _ZEROS, out=x)
    np.bitwise_and(x, keep, out=x)
    point = t
    np.bitwise_xor(x, _POINT, out=point)
    np.add(point, _LOW7, out=point)
    np.bitwise_and(point, _HIGH, out=point)
    np.bitwise_xor(point, _HIGH, out=point)  # the high bit of each "."
    np.right_shift(point, 7, out=keep)
    np.multiply(keep, 0x2E ^ 0x30, out=keep)
    np.bitwise_xor(x, keep, out=x)  # the point as a zero
    np.add(x, _PAST_NINE, out=keep)
    np.bitwise_and(keep, _HIGH, out=keep)  # the high bit of each byte past 9
    digits = rows[16].view(np.uint64)
    np.bitwise_or(keep[0], keep[1], out=digits)
    np.bitwise_or(digits, keep[2], out=digits)
    np.not_equal(digits, 0, out=aux)
    np.logical_or(flag, aux, out=flag)
    # each word's 8 digits as a number, the first byte the most significant
    for factor, bits, mask in ((10, 8, 0x00FF00FF00FF00FF), (100, 16, 0x0000FFFF0000FFFF)):
        np.multiply(x, factor << bits | 1, out=x)
        np.right_shift(x, bits, out=x)
        np.bitwise_and(x, mask, out=x)
    np.multiply(x, 10000 << 32 | 1, out=x)
    np.right_shift(x, 32, out=x)
    np.greater_equal(x[0], 1000, out=aux)  # D' of 20 digits or more
    np.logical_or(flag, aux, out=flag)
    np.minimum(x[0], 999, out=x[0])  # so that D' < 2^64, and m_h converts back exactly
    np.multiply(x[0], 10**16, out=digits)
    np.multiply(x[1], 10**8, out=x[1])
    np.add(digits, x[1], out=digits)
    np.add(digits, x[2], out=digits)

    # the point's place: one point at most, and a digit besides it
    count = x.view(np.uint8)[:, :n]
    np.bitwise_count(point, out=count)
    np.add(count[0], count[1], out=count[0])
    np.add(count[0], count[2], out=count[0])
    np.greater(count[0], 1, out=aux)
    np.logical_or(flag, aux, out=flag)
    bit = gathered[:3].view(np.float64)
    np.copyto(bit, point, casting="unsafe")
    np.multiply(bit, _WORD_WEIGHTS, out=bit)
    np.add(bit[0], bit[1], out=bit[0])
    np.add(bit[0], bit[2], out=bit[0])
    exponent = bit[1].view(np.int32)[:n]
    np.frexp(bit[0], out=(bit[2], exponent))
    np.right_shift(exponent, 3, out=place, casting="unsafe")
    np.minimum(place, 1, out=word)
    np.less_equal(length, word, out=aux)
    np.logical_or(flag, aux, out=flag)

    # m = (D' - fp) / 10 + fp, with fp = D' mod 10^f
    fraction, m = x[1], x[2]
    tables.divisor.take(place, out=fraction, mode="clip")
    np.remainder(digits, fraction, out=fraction)
    np.subtract(digits, fraction, out=m)
    np.floor_divide(m, 10, out=m)
    np.add(m, fraction, out=m)
    # word is free by now: with rows 6-13 it makes _scale's nine rows
    y = _scale(m, place, (*rows[6:14], rows[2]), digits, tables.scale, flag, aux)

    sign = digits
    np.copyto(sign, negative)
    np.left_shift(sign, 63, out=sign)
    np.bitwise_or(y.view(np.uint64), sign, out=out.reshape(-1).view(np.uint64))
    if flag.any():
        starts = at_fields(positions).ravel()
        values = out.reshape(-1)
        for i in np.flatnonzero(flag).tolist():
            value = _read_field(data[lo + starts[i] : lo + last[i] + 1])
            if value is None:
                return False
            values[i] = value
    return True


def _scale(m, place, rows, rest, scale, flag, aux) -> np.ndarray:
    """m * 10^-f, in one of ``rows``; flags the values too near a midpoint to call.

    ``rows`` are nine float64 rows of scratch and ``rest`` one uint64 row.
    """
    high, low, y, p, e, a_hi, a_lo, b_hi, b = rows
    np.copyto(high, m, casting="unsafe")
    np.copyto(rest, high, casting="unsafe")
    np.subtract(m, rest, out=rest)
    np.copyto(low, rest.view(np.int64), casting="unsafe")  # m - m_h, exactly
    # (p, e) = TwoProduct(m_h, hi), with hi kept in y
    scale[0].take(place, out=y, mode="clip")
    two_product(high, y, p, e, a_hi, a_lo, b_hi, b)
    # r = e + m_h * lo + m_l * hi, y = p + r, and |q - y| = |(p - y) + r|
    scale[1].take(place, out=b, mode="clip")
    np.multiply(high, b, out=b)
    np.add(e, b, out=e)
    np.multiply(low, y, out=b)
    np.add(e, b, out=e)
    np.add(p, e, out=y)
    np.subtract(p, y, out=p)
    np.add(p, e, out=p)
    np.abs(p, out=p)
    below = b.view(np.uint64)
    np.maximum(y.view(np.uint64), 1, out=below)
    np.subtract(below, 1, out=below)
    np.subtract(y, b, out=b)  # the gap below y, 0 below a zero
    np.multiply(b, _READ_MARGIN, out=b)
    np.greater(p, b, out=aux)
    np.logical_or(flag, aux, out=flag)
    return y


def _read_field(token: bytes) -> float | None:
    """``float(token)``; None where float() rejects it or reads inf or nan."""
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None
