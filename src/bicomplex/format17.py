"""A batch ``%.17g``: every field of a float block printed at once, as
``template % tuple(row)`` prints each row.

:func:`format_rows` is the large-block path of ``bct.format_rows``,
which imports this module on first use.  The digits come from error-free
double-double arithmetic (``core.two_product``) with per-exponent
powers of ten, filled lazily with exact int arithmetic; the text is put
together from byte tables with numpy.  A field that the kernel cannot
settle exactly, or that ``%.17g`` prints in exponent notation, goes
through ``'%.17g' % x`` itself, so the output is the same byte for byte.
"""

from __future__ import annotations

import functools
import math

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
# 2^-46, so D = p + floor(r) + (frac(r) > 1/2) is the correctly rounded
# digit string.  Fields whose frac(r) lies within 2^-30 of 1/2 (a tie,
# or too close to call), that %.17g prints in exponent notation (k < -4
# or k > 16) or that are not finite go through '%.17g' % x itself.

_KERNEL_FIELDS = 1 << 15
_FIELD = "%.17g"
_E_MIN = -1073  # frexp's least exponent of a nonzero double; 1024 is its largest
_EXPONENTS = 1024 - _E_MIN + 1
_TIE_MARGIN = 2.0**-30
# Filled lazily per binary exponent e: the least double f that carries,
# and at row 2 * (e - _E_MIN) + carry the decimal exponent k_e + carry,
# whether %.17g prints it in fixed notation, and T_e / 10^carry as (hi, lo).
_FILLED = np.zeros(_EXPONENTS, bool)
_CARRY_FROM = np.zeros(_EXPONENTS)
_DECIMAL = np.zeros(2 * _EXPONENTS, np.int64)
_FIXED = np.zeros(2 * _EXPONENTS, bool)
_SCALE_HI = np.zeros(2 * _EXPONENTS)
_SCALE_LO = np.zeros(2 * _EXPONENTS)
# A field is spelled in 40 bytes, five uint64 words, whose NULs are then
# dropped: the sign, "0." and up to three zeros (k < 0), then digit j at
# byte 6 + 2j followed by the decimal point where j = k.
_FIELD_WORDS = 5
_CLASSES = 21 * 18  # (k + 4) * 18 + digits kept, for -4 <= k <= 16


def format_rows(template: str, fields: np.ndarray) -> list[str] | None:
    """``[template % tuple(row) for row in fields]`` for a 2-D float64 block.

    None when the template holds anything but ``%.17g`` fields, one per
    column, and plain ASCII text around them.
    """
    layout = _template_layout(template)
    if layout is None or len(layout) != fields.shape[1] + 1:
        return None
    lines = []
    # the kernel's scratch arrays take some 250 bytes a field: in one block,
    # 1.3 million fields took 318 MB and ran no faster than the template
    step = max(1, _KERNEL_FIELDS // fields.shape[1])
    for start in range(0, len(fields), step):
        block = fields[start : start + step]
        text = field_bytes(block.ravel()).reshape(*block.shape, -1)
        # each field follows its literal piece, both padded with NUL, which is then dropped
        buf = np.zeros((len(block), len(layout), layout.shape[1] + text.shape[2]), np.uint8)
        buf[:, :, : layout.shape[1]] = layout
        buf[:, :-1, layout.shape[1] :] = text
        lines += buf.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    return lines


@functools.lru_cache(maxsize=16)
def _template_layout(template: str) -> np.ndarray | None:
    """The template's literal pieces around its %.17g fields, as NUL-padded uint8 rows.

    The last piece ends in the newline that separates rows.  None when a
    piece holds anything but plain ASCII text: a ``%``, NUL or newline.
    """
    pieces = template.split(_FIELD)
    literal = "".join(pieces)
    if not literal.isascii() or any(c in literal for c in "%\0\n"):
        return None
    pieces[-1] += "\n"
    width = max(map(len, pieces))
    layout = np.zeros((len(pieces), width), np.uint8)
    for row, piece in enumerate(pieces):
        layout[row, : len(piece)] = np.frombuffer(piece.encode("ascii"), np.uint8)
    layout.setflags(write=False)  # cached, so shared by every call
    return layout


def field_bytes(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v for each double v of the vector x: rows of an (n, 40) NUL-padded uint8 array."""
    digit_words, last_digit, masks, marks, minus = _spelling_tables()
    magnitude = np.abs(x)
    finite = np.isfinite(x)
    regular = finite & (magnitude > 0.0)
    f, e = np.frexp(magnitude)
    # zeros, and the non-finite fields printed below, take f = 0 and k = 0
    f = np.where(regular, f, 0.0)
    e_index = np.where(regular, e, 1) - _E_MIN
    if not _FILLED.take(e_index).all():
        _fill_scales(e_index)
    row = 2 * e_index + (f >= _CARRY_FROM.take(e_index))
    p, q = two_product(f, _SCALE_HI.take(row))
    r = q + f * _SCALE_LO.take(row)
    whole = np.floor(r)
    frac = r - whole
    significand = p.astype(np.int64) + (whole + (frac > 0.5)).astype(np.int64)
    spelled = _FIXED.take(row) & (np.abs(frac - 0.5) >= _TIE_MARGIN)
    k = np.where(spelled, _DECIMAL.take(row), 0)

    # digit chunks: the leading digit (word 0), then four of four digits;
    # the last nonzero digit, counted from 1, gives the digits kept
    chunk = np.empty((x.size, _FIELD_WORDS), np.int64)
    digits = np.ones(x.size, np.int8)
    quotient = significand
    for word in range(4, 0, -1):
        rest = quotient // 10000
        column = quotient - rest * 10000
        chunk[:, word] = column
        np.maximum(digits, last_digit[word - 1].take(column), out=digits)
        quotient = rest
    chunk[:, 0] = quotient + 10000
    words = digit_words.take(chunk)
    spelling = (k + 4) * 18 + digits
    words &= masks.take(spelling, axis=0)
    words |= marks.take(spelling, axis=0)
    words[:, 0] |= np.where(np.signbit(x), minus, 0)
    out = words.view(np.uint8)
    fallback = np.flatnonzero(~(finite & spelled))
    if fallback.size:
        width = out.shape[1]
        text = [("%.17g" % v).encode("ascii").ljust(width, b"\0") for v in x[fallback].tolist()]
        out[fallback] = np.frombuffer(b"".join(text), np.uint8).reshape(-1, width)
    return out


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
    for index in set(e_index[~_FILLED.take(e_index)].tolist()):
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
            _FIXED[row] = -4 <= k + carry <= 16
            _SCALE_HI[row], _SCALE_LO[row] = _double_double(*_ratio(e, 16 - carry - k))
        # f * T_e >= 1e17 - 1/2 exactly when f >= (2 * 10^17 - 1) / (2 * T_e),
        # that is when f >= this quotient rounded up to a double
        num, den = _ratio(e + 1, 16 - k)
        num, den = (2 * 10**17 - 1) * den, num
        least = num / den
        if not _at_least(*least.as_integer_ratio(), num, den):
            least = math.nextafter(least, math.inf)
        _CARRY_FROM[index] = least
        _FILLED[index] = True


@functools.cache
def _spelling_tables() -> tuple[np.ndarray, ...]:
    """The read-only tables the kernel spells fields from; the byte tables as uint64 words.

    ``digit_words`` spells chunk 0000..9999 in one of words 1-4 (a digit
    on every even byte) and, at 10000 + d, the leading digit d in word
    0.  ``last_digit[w - 1]`` numbers the last nonzero digit of a chunk
    in word w among the 17 (0 when there is none).  Per class, ``masks``
    keeps the digits printed (up to the last nonzero one, and the integer
    part's zeros) and ``marks`` adds "0.000" or the decimal point;
    ``minus`` is the sign in word 0.
    """
    n = np.arange(10000)
    spelled = np.zeros((10010, 8), np.uint8)
    spelled[:10000, ::2] = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], 1) + ord("0")
    spelled[10000:, 6] = np.arange(10) + ord("0")
    kept = 4 - sum(n % 10**i == 0 for i in range(1, 5))
    last_digit = np.stack([np.where(kept > 0, 4 * w - 3 + kept, 0) for w in range(1, 5)])
    # class (k + 4) * 18 + nd
    k, nd = np.divmod(np.arange(_CLASSES), 18)
    k -= 4
    masks = np.zeros((_CLASSES, 8 * _FIELD_WORDS), np.uint8)
    masks[:, 6::2] = np.where(np.arange(17) < np.maximum(nd, k + 1)[:, None], 0xFF, 0)
    marks = np.zeros_like(masks)
    zeros = (np.arange(5) < 1 - k[:, None]) & (k[:, None] < 0)
    marks[:, 1:6] = np.where(zeros, np.frombuffer(b"0.000", np.uint8), 0)
    point = np.flatnonzero((k >= 0) & (nd > k + 1))
    marks[point, 7 + 2 * k[point]] = ord(".")
    minus = np.frombuffer(b"-".ljust(8, b"\0"), np.uint64)[0]
    tables = (
        spelled.view(np.uint64).ravel(),
        last_digit.astype(np.int8),
        masks.view(np.uint64),
        marks.view(np.uint64),
    )
    for table in tables:
        table.setflags(write=False)
    return (*tables, minus)
