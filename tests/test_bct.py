import decimal
import functools
import math
import operator
import os
import pathlib
import re
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bicomplex import Bicomplex, BicomplexMatrix, Ket, Operator, ScalarProductSpec
from bicomplex import bct, format17
from bicomplex.core import E1, J, ONE, BicomplexArray

from helpers import oracle_parse, oracle_render, random_matrix, random_spd


class TestAtoms:
    def test_scalar_one(self):
        doc = bct.parse("bct v1\nkind: scalar\ndim: 1\n(1 0 0 0)\n")
        assert doc.value == ONE

    def test_scalar_j_from_imaginary_z2(self):
        # z2 = i1 makes the element i1*i2 = j
        doc = bct.parse("bct v1\nkind: scalar\ndim: 1\n(0 0 0 1)\n")
        assert doc.value == J

    def test_seventeen_digits_round_trip(self):
        w = Bicomplex(complex(1 / 3, -2 / 7), complex(1e-17, 12345.6789))
        doc = bct.document_for(w)
        assert bct.parse(bct.render(doc)).value == w


class TestRoundTrips:
    def test_all_kinds_bit_exact(self):
        rng = np.random.default_rng(7)
        docs = [
            bct.document_for(Bicomplex(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))),
            bct.document_for(Ket(rng.standard_normal(3) + 1j * rng.standard_normal(3),
                                 rng.standard_normal(3) + 1j * rng.standard_normal(3), "b7")),
            bct.document_for(random_matrix(rng, 3)),
            bct.document_for(Operator(random_matrix(rng, 2), "lab")),
            bct.document_for(ScalarProductSpec(random_spd(rng, 2), random_spd(rng, 2))),
        ]
        for doc in docs:
            text = bct.render(doc)
            again = bct.parse(text)
            assert again == doc
            assert bct.render(again) == text

    def test_ket_default_basis(self):
        doc = bct.parse("bct v1\nkind: ket\ndim: 2\n(1 0 0 0) (0 0 0 0)\n")
        assert doc.basis == "canonical"
        assert "basis: canonical" in bct.render(doc)

    def test_operator_keeps_basis_label(self):
        doc = bct.document_for(Operator(BicomplexMatrix.identity(2), "lab"))
        assert bct.parse(bct.render(doc)).value.basis_id == "lab"


class TestParseErrors:
    def test_bad_header(self):
        with pytest.raises(bct.ParseError) as info:
            bct.parse("hello\n")
        assert info.value.line == 1

    def test_unknown_kind(self):
        with pytest.raises(bct.ParseError) as info:
            bct.parse("bct v1\nkind: tensor\ndim: 1\n(0 0 0 0)\n")
        assert info.value.line == 2

    def test_bad_dim(self):
        with pytest.raises(bct.ParseError) as info:
            bct.parse("bct v1\nkind: scalar\ndim: zero\n(0 0 0 0)\n")
        assert info.value.line == 3

    def test_atom_arity(self):
        with pytest.raises(bct.ParseError) as info:
            bct.parse("bct v1\nkind: scalar\ndim: 1\n(1 0 0)\n")
        assert info.value.line == 4

    def test_bad_number_position(self):
        with pytest.raises(bct.ParseError) as info:
            bct.parse("bct v1\nkind: ket\ndim: 2\n(1 0 0 0) (1 0 oops 0)\n")
        assert info.value.line == 4 and info.value.column == 11

    def test_row_count_mismatch(self):
        with pytest.raises(bct.DimMismatch):
            bct.parse("bct v1\nkind: matrix\ndim: 2\n(1 0 0 0) (0 0 0 0)\n")

    def test_atom_count_mismatch(self):
        with pytest.raises(bct.DimMismatch):
            bct.parse("bct v1\nkind: ket\ndim: 3\n(1 0 0 0)\n")

    def test_stray_text(self):
        with pytest.raises(bct.ParseError):
            bct.parse("bct v1\nkind: scalar\ndim: 1\n(1 0 0 0) junk\n")

    def test_basis_on_wrong_kind(self):
        with pytest.raises(bct.ParseError):
            bct.parse("bct v1\nkind: scalar\ndim: 1\nbasis: b\n(1 0 0 0)\n")


class TestSpecKind:
    def test_spec_uses_complex_atoms(self):
        text = (
            "bct v1\nkind: spec\ndim: 2\n"
            "(2 0) (0 0.5)\n(0 -0.5) (1 0)\n"
            "(1 0) (0 0)\n(0 0) (1 0)\n"
        )
        doc = bct.parse(text)
        spec = doc.to_spec()
        assert spec.dim == 2
        assert spec.grams[0, 0, 1] == 0.5j

    def test_to_spec_validates(self):
        text = (
            "bct v1\nkind: spec\ndim: 1\n"
            "(-1 0)\n(1 0)\n"
        )
        doc = bct.parse(text)
        with pytest.raises(ValueError):
            doc.to_spec()

    def test_kind_mismatch(self):
        doc = bct.parse("bct v1\nkind: scalar\ndim: 1\n(1 0 0 0)\n")
        with pytest.raises(bct.KindMismatch):
            doc.to_spec()


class TestDocumentFor:
    def test_scalar_diag_atom(self):
        # e1 = (1 + j)/2 prints as z1 = 1/2, z2 = i1/2
        text = bct.render(bct.document_for(E1))
        assert text.splitlines()[-1] == "(0.5 0 0 0.5)"

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            bct.document_for("not a value")


# One malformed input per ParseError branch of bct.parse, with the exact
# (class, line, column, message) it raises.
PARSE_ERRORS = [
    ("", bct.ParseError, 1, 1, "expected header 'bct v1'"),
    ("hello\n", bct.ParseError, 1, 1, "expected header 'bct v1'"),
    ("bct v1\nkind: scalar\n", bct.ParseError, 2, 1, "missing 'kind:' and 'dim:' headers"),
    ("bct v1\nsort: scalar\ndim: 1\n(1 0 0 0)\n", bct.ParseError, 2, 1, "expected 'kind: <kind>'"),
    ("bct v1\nkind: tensor\ndim: 1\n(0 0 0 0)\n", bct.ParseError, 2, 7, "unknown kind 'tensor'"),
    (
        "bct v1\nkind: scalar\nsize: 1\n(0 0 0 0)\n",
        bct.ParseError, 3, 1, "expected 'dim: <positive integer>'",
    ),
    (
        "bct v1\nkind: scalar\ndim: zero\n(0 0 0 0)\n",
        bct.ParseError, 3, 6, "dimension is not an integer",
    ),
    ("bct v1\nkind: ket\ndim: 0\n", bct.ParseError, 3, 6, "dimension must be positive, got 0"),
    (
        "bct v1\nkind: scalar\ndim: 2\n(0 0 0 0)\n",
        bct.DimMismatch, 3, 6, "scalar documents have dim 1",
    ),
    (
        "bct v1\nkind: scalar\ndim: 1\nbasis: b\n(1 0 0 0)\n",
        bct.ParseError, 4, 1, "kind 'scalar' takes no basis header",
    ),
    (
        "bct v1\nkind: ket\ndim: 1\nbasis:   \n(1 0 0 0)\n",
        bct.ParseError, 4, 8, "empty basis label",
    ),
    (
        "bct v1\nkind: ket\ndim: 2\n(1 0 0 0) x (0 0 0 0)\n",
        bct.ParseError, 4, 10, "unexpected text 'x'",
    ),
    (
        "bct v1\nkind: ket\ndim: 2\n(1 0 0 0) (0 0 0 0) tail\n",
        bct.ParseError, 4, 20, "unexpected text 'tail'",
    ),
    (
        "bct v1\nkind: ket\ndim: 2\n(1 0 0 0) (0 0 0)\n",
        bct.ParseError, 4, 11, "atom needs 4 numbers, got 3",
    ),
    (
        "bct v1\nkind: spec\ndim: 1\n(1 0 0)\n(1 0)\n",
        bct.ParseError, 4, 1, "atom needs 2 numbers, got 3",
    ),
    (
        "bct v1\nkind: ket\ndim: 2\n(1 0 0 0) (1 0 oops 0)\n",
        bct.ParseError, 4, 11, "bad number 'oops'",
    ),
    (
        "bct v1\nkind: ket\ndim: 2\n(1 0 0 0) (1 nan 0 0)\n",
        bct.ParseError, 4, 11, "non-finite number 'nan'",
    ),
    (
        "bct v1\nkind: matrix\ndim: 1\n  (1e999 0 0 0)\n",
        bct.ParseError, 4, 3, "non-finite number '1e999'",
    ),
    (
        "bct v1\nkind: ket\ndim: 3\n(1 0 0 0)\n",
        bct.DimMismatch, 4, 1, "expected 3 atoms per row, got 1",
    ),
    (
        "bct v1\nkind: matrix\ndim: 2\n(1 0 0 0) (0 0 0 0)\n\n",
        bct.DimMismatch, 5, 1, "expected 2 payload rows for kind 'matrix', got 1",
    ),
    (
        "bct v1\nkind: scalar\ndim: 1\n(1 0 0 0)\n(1 0 0 0)\n",
        bct.DimMismatch, 5, 1, "expected 1 payload rows for kind 'scalar', got 2",
    ),
]


@pytest.mark.parametrize("text, cls, line, column, message", PARSE_ERRORS)
def test_parse_error_table(text, cls, line, column, message):
    with pytest.raises(bct.ParseError) as info:
        bct.parse(text)
    assert type(info.value) is cls
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"line {line}, column {column}: {message}"


# -- generated documents and texts --------------------------------------------

# doubles that stress the %.17g round trip: signed zeros, subnormals, the
# ends of the range, and values that need all 17 digits
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
    0.1, 1 / 3, -2 / 3, 9007199254740993.0, 0.30000000000000004, 1e-17, 123456789.12345679,
]
FLOATS = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
LABELS = st.from_regex(r"[A-Za-z0-9_.\-]{1,8}", fullmatch=True)


def _complex_array(draw, shape):
    size = int(np.prod(shape))
    fields = draw(st.lists(FLOATS, min_size=2 * size, max_size=2 * size))
    return np.array(fields, dtype=float).view(complex).reshape(shape)


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(bct.KINDS))
    dim = 1 if kind == "scalar" else draw(st.integers(1, 3))
    if kind == "scalar":
        z1, z2 = _complex_array(draw, (2,))
        return bct.document_for(Bicomplex(z1, z2))
    if kind == "ket":
        z1, z2 = _complex_array(draw, (2, dim))
        return bct.document_for(Ket(z1, z2, draw(LABELS)))
    if kind == "spec":
        return bct.BctDocument("spec", dim, tuple(_complex_array(draw, (2, dim, dim))))
    z1, z2 = _complex_array(draw, (2, dim, dim))
    matrix = BicomplexMatrix(z1, z2)
    if kind == "matrix":
        return bct.document_for(matrix)
    return bct.document_for(Operator(matrix, draw(LABELS)))


class TestRoundTripProperties:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(documents())
    def test_render_parse_render(self, doc):
        text = bct.render(doc)
        assert text == oracle_render(doc)
        again = bct.parse(text)
        assert again == doc
        # %.17g tells every double apart, -0.0 included, so equal text is equal bits
        assert bct.render(again) == text


@functools.cache
def kernel_values() -> np.ndarray:
    """Doubles that the batch %.17g kernel must print as '%.17g' % v does, in a fixed order."""
    rng = np.random.default_rng(1971)
    powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
    boundaries = np.array([1e-5, 9.9999999999999995e-05, 1e16, 1e17, 99999999999999999.0])
    # the doubles around 10^p (1 - 5e-18), where 17 digits round up to 10^p
    carries = np.array([float(f"99999999999999995e{p}") for p in range(-340, 292)])
    small_ties = rng.integers(1, 2**12, 10000) * 2.0 ** rng.integers(-70, 60, 10000)
    families = [
        # random bit patterns: every binary exponent, subnormals, inf and nan
        rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64),
        rng.standard_normal(30000) * 10.0 ** rng.uniform(-30, 30, 30000),
        # m * 2^e with small m: many have 18 significant digits ending in 5
        small_ties,
        np.array([3 * 2.0**-24, 2.0**-24, 5 * 2.0**-60, 2.0**60, 3 * 2.0**56]),
        powers,
        np.nextafter(powers, 0.0),
        np.nextafter(powers, np.inf),
        boundaries,
        np.nextafter(boundaries, 0.0),
        np.nextafter(boundaries, np.inf),
        carries,
        np.nextafter(carries, 0.0),
        np.nextafter(carries, np.inf),
        np.array([0.0, np.inf, np.nan, -np.nan, 5e-324, 2.2250738585072014e-308,
                  np.nextafter(2.2250738585072014e-308, 0.0), 1.7976931348623157e308]),
    ]
    values = np.concatenate(families)
    return np.concatenate([values, -values])


EVOLVE_ROW = "%.17g\t" + bct.atoms_template(16, sep="\t") + "\t%.17g\t%.17g"


def _fixed_class(text: str) -> tuple[str, int, int] | None:
    """(sign, decimal exponent, significant digits) of a %.17g field in fixed notation."""
    sign, text = ("-", text[1:]) if text.startswith("-") else ("+", text)
    if not text[0].isdigit() or "e" in text:
        return None
    whole, _, fraction = text.partition(".")
    if whole != "0" or text == "0":
        return sign, len(whole) - 1, max(len((whole + fraction).rstrip("0")), 1)
    significant = fraction.lstrip("0")
    return sign, len(significant) - len(fraction) - 1, len(significant.rstrip("0"))


def _double(bits: int) -> float:
    """The double whose IEEE 754 bit pattern is ``bits``."""
    return float(np.uint64(bits).view(np.float64))


@st.composite
def fixed_notation_fields(draw):
    """Random bit patterns of binary exponents -17 to 56, about where %.17g prints fixed notation."""
    sign = draw(st.sampled_from([0, 1 << 63]))
    exponent = draw(st.integers(1023 - 17, 1023 + 56))
    return _double(sign | exponent << 52 | draw(st.integers(0, 2**52 - 1)))


@st.composite
def tie_fields(draw):
    """(D + 1/2) * 10^-s for a 17-digit D: exactly the double j * 2^-(s + 1), j * 5^s = 2D + 1."""
    s = draw(st.integers(2, 24))
    low = -(-(2 * 10**16 + 1) // 5**s)
    high = min((2 * 10**17 - 1) // 5**s, 2**53 - 1)
    j = 2 * draw(st.integers(low // 2, (high - 1) // 2)) + 1
    return draw(st.sampled_from([1.0, -1.0])) * math.ldexp(j, -s - 1)


@st.composite
def power_of_two_fields(draw):
    """2^e and its neighbours, of either sign."""
    power = math.ldexp(1.0, draw(st.integers(-1074, 1023)))
    value = draw(st.sampled_from([power, math.nextafter(power, 0.0), math.nextafter(power, math.inf)]))
    return draw(st.sampled_from([1.0, -1.0])) * value


WRITER_FIELDS = st.one_of(
    st.integers(0, 2**64 - 1).map(_double),  # every exponent, subnormals, inf and nan
    fixed_notation_fields(),
    tie_fields(),
    power_of_two_fields(),
    # subnormals of either sign
    st.builds(operator.or_, st.integers(1, 2**52 - 1), st.sampled_from([0, 1 << 63])).map(_double),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)
WRITER_TEMPLATES = [
    bct.atoms_template(8), bct.atoms_template(8, sep="\t"), bct.atoms_template(8, 2), EVOLVE_ROW
]


class TestBatchFormat:
    """``format_rows``' batch kernel writes what ``template % tuple(row)`` writes."""

    # the writer's oracle: its example count comes from the active profile,
    # as the reader's do, and CI runs it again under "text-oracle"
    @settings(derandomize=True, deadline=None)
    @given(
        st.sampled_from(WRITER_TEMPLATES),
        st.lists(WRITER_FIELDS, min_size=1, max_size=100),
        st.integers(0, 2),
    )
    def test_any_doubles_print_as_percent(self, template, values, extra_rows):
        count = template.count("%.17g")
        rows = -(-bct.BATCH_MIN_FIELDS // count) + extra_rows
        block = np.resize(np.array(values), (rows, count))
        want = [template % tuple(row) for row in block.tolist()]
        got = bct.format_rows(template, block)
        assert [(w, g) for w, g in zip(want, got) if w != g][:3] == [] and len(got) == len(want)

    @pytest.mark.parametrize(
        "template, count",
        [(bct.atoms_template(8), 32), (bct.atoms_template(8, sep="\t"), 32), (EVOLVE_ROW, 67)],
        ids=["space", "tab", "evolve"],
    )
    def test_same_text_as_percent(self, monkeypatch, template, count):
        values = kernel_values()
        values = np.resize(values, -(-values.size // count) * count)
        block = values.reshape(-1, count)
        small = block[: (bct.BATCH_MIN_FIELDS - 1) // count]
        assert small.size < bct.BATCH_MIN_FIELDS <= block.size
        kernel_calls = []
        field_bytes = format17.field_bytes

        def counted(x, slots):
            kernel_calls.append(x.size)
            field_bytes(x, slots)

        monkeypatch.setattr(format17, "field_bytes", counted)
        for fields in (block, small, small[0]):
            want = [template % tuple(row) for row in np.atleast_2d(fields).tolist()]
            got = bct.format_rows(template, fields)
            mismatches = [(w, g) for w, g in zip(want, got) if w != g]
            assert (len(got), mismatches[:3]) == (len(want), [])
        # the large block went through the kernel, in parts, and the small ones did not
        assert len(kernel_calls) > 1 and sum(kernel_calls) == block.size

    def test_every_field_class(self):
        # each spelling of fixed notation, both signs: decimal exponent -4..16
        # with 1..17 significant digits, found among values drawn per class
        rng = np.random.default_rng(17)
        values = []
        for k in range(-4, 17):
            for nd in range(1, 18):
                draws = rng.integers(10 ** (nd - 1), 10**nd, 40) // 10 * 10 + rng.integers(1, 10, 40)
                digits = np.arange(1, 10) if nd == 1 else draws
                values += [float(f"{d}e{k - nd + 1}") for d in digits.tolist()]
        values = np.array(values + [0.0])
        block = np.concatenate([values, -values]).reshape(-1, 2)
        want = ["%.17g %.17g" % tuple(row) for row in block.tolist()]
        assert bct.format_rows("%.17g %.17g", block) == want
        classes = {_fixed_class(text) for row in want for text in row.split()}
        assert {(sign, k, nd) for sign in "+-" for k in range(-4, 17) for nd in range(1, 18)} <= classes

    def test_carry_thresholds_are_exact(self):
        # per binary exponent e, the least f in [0.5, 1] whose 17 digits round up to 10^17
        format17._fill_scales(np.arange(format17._EXPONENTS))
        for index in range(format17._EXPONENTS):
            e = index + format17._E_MIN
            # the largest k with 10^k <= 2^(e - 1), from the digits of the exact
            # integer 2^|e - 1| (a power of two above 1 is no power of ten)
            k = len(str(2 ** (e - 1))) - 1 if e >= 1 else -len(str(2 ** (1 - e)))
            twice_scale, den = format17._ratio(e + 1, 16 - k)  # 2 * 2^e * 10^(16 - k), over den
            least = float(format17._CARRY_FROM[index])
            for f, carries in ((least, True), (math.nextafter(least, 0.0), False)):
                num, f_den = f.as_integer_ratio()
                assert (num * twice_scale >= (2 * 10**17 - 1) * f_den * den) is carries

    def test_threads_render_their_own_blocks(self):
        # each thread spells into scratch arrays of its own, sized to its own
        # blocks; more threads than cores, switching as often as they can
        rng = np.random.default_rng(29)
        jobs = [
            (EVOLVE_ROW, rng.standard_normal((100, 67)) * 10.0 ** rng.integers(-5, 18, (100, 67))),
            (EVOLVE_ROW, rng.standard_normal((9, 67))),
            (bct.atoms_template(32), rng.standard_normal((32, 128))),
            (bct.atoms_template(8, 2), -rng.random((600, 16))),
        ]
        mismatches, done = [], []

        def render(template, block):
            want = [template % tuple(row) for row in block.tolist()]
            for _ in range(200):
                got = format17.format_rows(template, block)
                if got != want:
                    mismatches.append([(w, g) for w, g in zip(want, got) if w != g][:3])
                    return
            done.append(template)

        threads = [threading.Thread(target=render, args=job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert (mismatches, len(done)) == ([], len(jobs))

    def test_no_scratch_allocated_after_warm_up(self):
        # numpy reports its data buffers to tracemalloc: after one call on a
        # block of this size, a call holds little more than the lines it returns
        rng = np.random.default_rng(31)
        block = rng.standard_normal((100, 67)) * 10.0 ** rng.integers(-5, 18, (100, 67))
        format17.format_rows(EVOLVE_ROW, block)
        tracemalloc.start()
        try:
            lines = format17.format_rows(EVOLVE_ROW, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lines == [EVOLVE_ROW % tuple(row) for row in block.tolist()]
        text = sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))
        assert peak <= text + 128 * 1024

    def test_a_row_longer_than_a_kernel_block_is_not_kept(self):
        # a thread keeps scratch for at most one kernel block
        row = np.random.default_rng(37).standard_normal((1, format17._KERNEL_FIELDS + 4))
        template = " ".join(["%.17g"] * row.shape[1])
        kept = format17._scratch.rows, format17._scratch.text
        assert bct.format_rows(template, row) == [template % tuple(row[0].tolist())]
        assert format17._scratch.rows is kept[0] and format17._scratch.text is kept[1]

    def test_templates_the_kernel_leaves_alone(self):
        block = np.full((bct.BATCH_MIN_FIELDS, 1), 0.25)
        for template in ("%.17g%%", "%.17g\u00e9", "a\n%.17g"):
            assert bct.format_rows(template, block) == [template % (0.25,)] * len(block)
        for template in ("%.17g %.17g", "no field"):
            with pytest.raises(TypeError):
                bct.format_rows(template, block)


# Replacements and insertions that a reader must reject, or accept exactly
# as float() and str.split() do.
FIELDS = ["nan", "-inf", "inf", "1e999", "-1e999", "1_0", "1__0", "0x10", "1e", "--1",
          "infinity", "\u0661", "+.5", "5.", "1e-400"]
# whitespace to str.split and str.strip; \x0b, \x1c, \x85 and \u2028 also end a line
SPACES = ["\t", "\u00a0", "\u2003", "\u3000", "\x1f", "\x0b", "\x1c", "\x85", "\u2028"]
SNIPPETS = ["(", ")", "((", "))", "()", " 0", "0 ", "junk", "\u200b", "\n", "\r\n", "\n\n",
            " \t\n", "(0 0 0 0)", "(0 0)", "\n(0 0 0 0)\n", "(1 2 3 4 5)"] + SPACES
_FIELD_RE = re.compile(r"[^()\s]+")
_ATOM_RE = re.compile(r"\([^()]*\)")


def _occurrence(draw, pattern, text):
    spans = [m.span() for m in pattern.finditer(text)]
    return draw(st.sampled_from(spans)) if spans else None


@st.composite
def mutated_texts(draw):
    """A rendered document with one to three edits to its payload."""
    rendered = bct.render(draw(documents()))
    cut = rendered.index("\n(") + 1
    head, text = rendered[:cut], rendered[cut:]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(
            ["insert", "delete", "field", "atom", "line", "crlf", "space"]
        ))
        if op == "insert":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(SNIPPETS)) + text[at:]
        elif op == "delete":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + text[at + draw(st.integers(1, 3)):]
        elif op == "field":
            span = _occurrence(draw, _FIELD_RE, text)
            if span:
                text = text[:span[0]] + draw(st.sampled_from(FIELDS)) + text[span[1]:]
        elif op == "atom":
            span = _occurrence(draw, _ATOM_RE, text)
            if span:
                atom = text[span[0]:span[1]]
                atoms = draw(st.sampled_from(["", atom + atom, atom + " " + atom]))
                text = text[:span[0]] + atoms + text[span[1]:]
        elif op == "line":
            lines = text.split("\n")
            i = draw(st.integers(0, len(lines) - 1))
            lines[i:i + 1] = draw(st.sampled_from([[], [lines[i]] * 2, [lines[i], ""], ["   "]]))
            text = "\n".join(lines)
        elif op == "crlf":
            head = head.replace("\n", "\r\n")
            text = text.replace("\n", "\r\n")
        else:
            text = text.replace(" ", draw(st.sampled_from(SPACES)), 1)
    return head + text


HEADERS = [f"bct v1\nkind: {kind}\ndim: {dim}\n" for kind in bct.KINDS for dim in (1, 2)]
TEXTS = st.one_of(
    mutated_texts(),
    st.builds(operator.add, st.sampled_from(HEADERS), st.text(max_size=80)),
    st.builds(
        operator.add,
        st.sampled_from(HEADERS),
        st.lists(st.sampled_from(SNIPPETS + FIELDS + ["1", "-0", " "]), max_size=20).map("".join),
    ),
    st.text(max_size=80),
)


def _outcome(parse, text):
    try:
        doc = parse(text)
    except bct.ParseError as exc:
        return ("error", type(exc), exc.line, exc.column, str(exc))
    return ("document", doc.kind, doc.dim, doc.basis, oracle_render(doc))


class TestParseOracle:
    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(TEXTS)
    def test_same_document_or_same_error(self, text):
        # anything but a ParseError escaping either parser fails the test
        assert _outcome(bct.parse, text) == _outcome(oracle_parse, text)


# Rows whose "(" count per line is what the kind needs but whose atom
# structure is wrong: the reference scan must report each exactly as the
# oracle does.
KET2 = "bct v1\nkind: ket\ndim: 2\n"
MATRIX2 = "bct v1\nkind: matrix\ndim: 2\n"
STRUCTURE_EDGES = {
    "atom split across two lines": MATRIX2 + "(1 2 3 4) (5 6\n(7 8) 1 2 3 4)\n",
    "atom split, both parens counted": MATRIX2 + "(1 2 3 4) (5 6 7 8\n) (1 2 3 4) (5 6 7 8)\n",
    "stray text line": MATRIX2 + "(1 2 3 4) (5 6 7 8)\njunk\n(1 2 3 4) (5 6 7 8)\n",
    "stray text line with parens": KET2 + "x)(x)(\n",
    "close-open with no space": KET2 + ")(1 2 3 4)(5 6 7 8\n",
    "close-open inside an atom": KET2 + "(1 2)(3 4) (5 6 7 8)\n",
    "field glued after a paren": KET2 + "(1 2 3 4)5 (6 7 8 9)\n",
    "field glued before a paren": KET2 + "1(2 3 4 5) (6 7 8 9)\n",
    "row of empty atoms": KET2 + "() ()\n",
    "extra close paren": KET2 + "(1 2 3 4) (5 6 7 8))\n",
    "nested open paren": KET2 + "((1 2 3 4) 5 6 7 8)\n",
    "spec atom with bicomplex arity": "bct v1\nkind: spec\ndim: 1\n(1 0 0 0)\n(1 0)\n",
    "third atom on the row": KET2 + "(1 2 3 4) (5 6 7 8) (9 0 1 2)\n",
    "second row": KET2 + "(1 2 3 4) (5 6 7 8)\n(1 2 3 4) (5 6 7 8)\n",
}


class TestPayloadStructureEdges:
    @pytest.mark.parametrize("text", STRUCTURE_EDGES.values(), ids=STRUCTURE_EDGES.keys())
    def test_rejected_as_the_oracle_rejects(self, text):
        outcome = _outcome(bct.parse, text)
        assert outcome[0] == "error"
        assert outcome == _outcome(oracle_parse, text)

    def test_adjacent_atoms_accepted(self):
        text = KET2 + "(1 2 3 4)(5 6 7 8)\n"
        assert _outcome(bct.parse, text) == _outcome(oracle_parse, text)
        assert bct.parse(text).value == Ket([1 + 2j, 5 + 6j], [3 + 4j, 7 + 8j])


# -- the load cache ----------------------------------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"
# one golden file of each kind
GOLDEN_KINDS = {
    "scalar": "scalar_mixed.bct",
    "ket": "ket_regular_n3.bct",
    "matrix": "matrix_random_n3.bct",
    "operator": "operator_selfadjoint_n2.bct",
    "spec": "spec_general_n3.bct",
}


def reachable_arrays(value) -> list[np.ndarray]:
    """Every numpy array a document's value holds, lazily derived stacks included."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [array for item in value for array in reachable_arrays(item)]
    if not type(value).__module__.startswith("bicomplex"):
        return []
    if isinstance(value, BicomplexArray):
        value.components  # built on first use, then kept
    names = [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]
    names += list(getattr(value, "__dict__", {}))
    return [array for name in names for array in reachable_arrays(getattr(value, name, None))]


class TestLoadCache:
    @pytest.mark.parametrize("kind", GOLDEN_KINDS)
    def test_second_load_is_the_same_document(self, cold_cache, kind):
        path = GOLDEN / GOLDEN_KINDS[kind]
        first = bct.load(path)
        assert first.kind == kind
        assert bct.load(path) is first
        assert first == bct.parse(path.read_text())
        assert bct._parse_bytes.cache_info().misses == 1

    def test_content_is_the_key(self, cold_cache, tmp_path):
        text = (GOLDEN / "matrix_random_n3.bct").read_text()
        (tmp_path / "a.bct").write_text(text)
        (tmp_path / "b.bct").write_text(text)
        assert bct.load(tmp_path / "a.bct") is bct.load(tmp_path / "b.bct")

    def test_rewritten_file_is_parsed_again(self, cold_cache, tmp_path):
        path = tmp_path / "m.bct"
        bct.save(path, bct.document_for(BicomplexMatrix.identity(2)))
        assert bct.load(path).value == BicomplexMatrix.identity(2)
        bct.save(path, bct.document_for(BicomplexMatrix.zeros(2)))
        assert bct.load(path).value == BicomplexMatrix.zeros(2)

    @pytest.mark.parametrize(
        "data", [b"bct v1\nkind: scalar\ndim: 1\n(1 0 0)\n", b"bct v1\nkind: scalar\xff\n"]
    )
    def test_malformed_file_raises_on_every_load(self, cold_cache, tmp_path, data):
        path = tmp_path / "bad.bct"
        path.write_bytes(data)
        for _ in range(3):
            with pytest.raises(bct.ParseError):
                bct.load(path)
        assert bct._parse_bytes.cache_info().currsize == 0

    def test_missing_file_raises_on_every_load(self, cold_cache, tmp_path):
        for _ in range(2):
            with pytest.raises(OSError):
                bct.load(tmp_path / "missing.bct")

    def test_keeps_the_last_four_contents(self, cold_cache, tmp_path):
        paths = []
        for i in range(5):
            paths.append(tmp_path / f"s{i}.bct")
            bct.save(paths[-1], bct.document_for(Bicomplex(i)))
        docs = [bct.load(path) for path in paths]
        assert [bct.load(path) is doc for path, doc in zip(paths[1:], docs[1:])] == [True] * 4
        assert bct.load(paths[0]) is not docs[0]

    def test_parse_is_not_cached(self):
        text = (GOLDEN / "matrix_random_n3.bct").read_text()
        assert bct.parse(text) is not bct.parse(text)

    @pytest.mark.parametrize("kind", GOLDEN_KINDS)
    def test_loaded_arrays_are_read_only(self, cold_cache, kind):
        doc = bct.load(GOLDEN / GOLDEN_KINDS[kind])
        arrays = reachable_arrays(doc)
        if kind == "spec":
            arrays += reachable_arrays(doc.to_spec())
        assert len(arrays) == {"scalar": 0, "ket": 3, "matrix": 3, "operator": 3, "spec": 4}[kind]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0


# -- the payload reader ------------------------------------------------------------
#
# format17.read_rows reads large payloads for bct.parse.  Its fields must
# have the bits float() gives them, and a payload it rejects goes to the
# reference reader, so parse gives the same document or the same error.
# The hypothesis tests here take their example count from the active
# profile: CI runs them again under the "text-oracle" profile.


def _payload_rows(tokens: list[str], atoms: int = 8, arity: int = 4) -> list[str]:
    """Rows of atoms holding ``tokens`` in order, padded with "0" to whole rows."""
    per_row = atoms * arity
    tokens = tokens + ["0"] * (-len(tokens) % per_row)
    rows = []
    for at in range(0, len(tokens), per_row):
        row = tokens[at : at + per_row]
        fields = (" ".join(row[a : a + arity]) for a in range(0, per_row, arity))
        rows.append(" ".join(f"({atom})" for atom in fields))
    return rows


def reader_bits(tokens: list[str]) -> list[int] | None:
    """The bits the reader gives ``tokens``, or None where it rejects them."""
    rows = _payload_rows(tokens)
    values = format17.read_rows("\n".join(rows), len(rows), 8, 4)
    return None if values is None else values.reshape(-1)[: len(tokens)].view(np.uint64).tolist()


def float_bits(tokens: list[str]) -> list[int] | None:
    """The bits float() gives ``tokens``, or None where it rejects one or reads it as inf or nan."""
    try:
        values = [float(token) for token in tokens]
    except ValueError:
        return None
    if not all(map(math.isfinite, values)):
        return None
    return np.array(values).view(np.uint64).tolist()


def _fixed(value: Fraction, digits: int) -> str:
    """``value`` to ``digits`` significant digits, in fixed notation."""
    with decimal.localcontext() as context:
        context.prec = digits
        number = +decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
    return format(number, "f")


def _midpoints(y: float) -> list[Fraction]:
    """The midpoints between positive double ``y`` and its neighbours."""
    return [(Fraction(y) + Fraction(math.nextafter(y, to))) / 2 for to in (0.0, math.inf)]


# fixed-notation magnitudes that %.17g prints, and a little beyond
FIXED_FLOATS = st.floats(min_value=1e-7, max_value=1e18)
SIGNS = st.sampled_from(["", "-"])


@st.composite
def double_tokens(draw):
    """Doubles of every binary exponent as %.17g, %.16g and repr print them, and fixed forms."""
    any_double = st.floats(allow_nan=False, allow_infinity=False)
    x = draw(st.one_of(any_double, FIXED_FLOATS, FIXED_FLOATS))
    form = draw(st.sampled_from(["%.17g", "%.16g", "repr", "%.20f", "%.3f"]))
    return repr(x) if form == "repr" else form % x


@st.composite
def midpoint_tokens(draw):
    """Decimals of 16 to 21 significant digits near a midpoint between two doubles.

    Half of the doubles are powers of two, where the gap below is half the gap above.
    """
    e = draw(st.integers(-20, 62))
    y = 2.0**e if draw(st.booleans()) else draw(st.floats(1.0, 2.0)) * 2.0**e
    middle = draw(st.sampled_from(_midpoints(y)))
    digits = draw(st.integers(16, 21))
    unit = Fraction(10) ** (math.floor(math.log10(middle)) - digits + 1)
    near = middle + draw(st.integers(-2, 2)) * unit
    near += draw(st.sampled_from([0, unit / 3, -unit / 7]))
    return draw(SIGNS) + _fixed(near, digits)


class TestReaderTokens:
    @settings(derandomize=True, deadline=None)
    @given(st.lists(double_tokens(), min_size=1, max_size=64))
    def test_doubles_read_as_float_reads_them(self, tokens):
        assert reader_bits(tokens) == float_bits(tokens)

    @settings(derandomize=True, deadline=None)
    @given(st.lists(midpoint_tokens(), min_size=1, max_size=64))
    def test_decimals_near_midpoints(self, tokens):
        assert reader_bits(tokens) == float_bits(tokens)

    def test_midpoints_next_to_powers_of_two(self, monkeypatch):
        # 2^k - 2^(k-54) lies halfway to the double below 2^k, 2^k + 2^(k-53)
        # halfway to the one above, and both have 19 digits or fewer.  The
        # reader decides the integers next to the lower one itself, with
        # the gap below 2^k, half the gap above it
        calls = []

        def counted(token):
            calls.append(token.decode())
            return read_field(token)

        read_field = format17._read_field
        monkeypatch.setattr(format17, "_read_field", counted)
        below, tokens = [], []
        for k in range(54, 64):
            lower, upper = (int(middle) for middle in _midpoints(2.0**k))
            below += [str(lower + step) for step in (-1, 1)]
            tokens += [str(lower), str(upper), str(upper - 1), str(upper + 1)]
        for k in range(-8, 54):  # halfway points with digits after the point
            tokens += [_fixed(middle, 60).rstrip("0") for middle in _midpoints(2.0**k)]
        tokens += below
        assert reader_bits(tokens) == float_bits(tokens)
        assert set(calls) & set(below) == set()

    def test_ties_between_doubles(self):
        # halfway between neighbours in [2^49, 2^53): 17 to 20 digits, 1 to 4
        # after the point.  A tie's double-double value may land on either
        # side of it (about 1 in 1,500 here without the midpoint test), so
        # float() must decide each one, ties to even
        rng = np.random.default_rng(53)
        e = rng.integers(49, 53, 8192)
        lows = rng.integers(2**52, 2**53, 8192)
        tokens = []
        for low, exponent in zip(lows.tolist(), e.tolist()):
            middle = (Fraction(low) + Fraction(1, 2)) * Fraction(2) ** (exponent - 52)
            tokens.append(_fixed(middle, 30).rstrip("0"))
        assert reader_bits(tokens) == float_bits(tokens)

    @pytest.mark.parametrize(
        "token",
        ["-0", "0", ".5", "5.", "-.5", "-5.", "007", "-007.50", "0000000000000000000000.5",
         "0.00000000000000000000001", ".00000000000000000000001", "1234567890123456789",
         "9999999999999999999", "12345678901234567890", "0.1234567890123456789012",
         "12345678901234567890123456", "-0.000000000000000000000000000001", "1_0", "+1", "+.5",
         "1e5", "1E-5", "0.5e+10", "-1.7976931348623157e308", "5e-324"],
    )
    def test_special_forms(self, token):
        tokens = ["1.25", token, "-3"]
        assert reader_bits(tokens) == float_bits(tokens)

    @pytest.mark.parametrize(
        "token", ["1-2", "1..2", "-", ".", "1e", "+-1", "--1", "-.", "1.2.3", "1/2", "1,2", "nan",
                  "-inf", "1e400", "0x10"],
    )
    def test_forms_float_rejects_or_reads_as_non_finite(self, token):
        assert reader_bits(["1.25", token, "-3"]) is None


@pytest.fixture
def reader_everywhere(monkeypatch):
    """bct.parse with every payload, however small, offered to the reader first."""
    monkeypatch.setattr(bct, "READ_MIN_FIELDS", 1)


class TestReaderDocuments:
    @settings(derandomize=True, deadline=None)
    @given(TEXTS)
    def test_same_document_or_same_error(self, text):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bct, "READ_MIN_FIELDS", 1)
            assert _outcome(bct.parse, text) == _outcome(oracle_parse, text)

    @pytest.mark.parametrize("text", STRUCTURE_EDGES.values(), ids=STRUCTURE_EDGES.keys())
    def test_structure_edges(self, reader_everywhere, text):
        assert _outcome(bct.parse, text) == _outcome(oracle_parse, text)

    @pytest.mark.parametrize("name", sorted(path.name for path in GOLDEN.glob("*.bct")))
    def test_golden_files(self, reader_everywhere, name):
        text = (GOLDEN / name).read_text()
        assert _outcome(bct.parse, text) == _outcome(oracle_parse, text)

    def test_layouts_the_reader_reads_itself(self, reader_everywhere, monkeypatch):
        # tabs, wide blanks and a missing last newline never reach the
        # reference reader
        calls = []
        monkeypatch.setattr(bct, "_read_payload", lambda *args: calls.append(args))
        text = bct.render(bct.document_for(random_matrix(np.random.default_rng(3), 3)))
        head, payload = text.split("\n", 3)[:3], text.split("\n", 3)[3]
        variants = {
            "tabs": payload.replace(" ", "\t"),
            "no last newline": payload.rstrip("\n"),
            "wide blanks": payload.replace(" ", "   "),
        }
        for name, body in variants.items():
            assert bct.parse("\n".join(head) + "\n" + body) == bct.parse(text), name
        assert calls == []

    @pytest.mark.parametrize("layout", ["crlf", "crlf in the payload", "blank lines"])
    def test_odd_layouts_go_whole_to_the_reference(self, monkeypatch, layout):
        # CRLF and blank lines are read once, by the reference scan alone,
        # to the document of the "\n" text
        text = _operator_text(16, 61)
        assert 16 * 16 * 4 >= bct.READ_MIN_FIELDS
        want = bct.parse(text)
        head, payload = text.split("\n", 4)[:4], text.split("\n", 4)[4]
        odd = {
            "crlf": text.replace("\n", "\r\n"),
            "crlf in the payload": "\n".join(head) + "\n" + payload.replace("\n", "\r\n"),
            "blank lines": "\n".join(head) + "\n" + payload.replace("\n", "\n\n"),
        }[layout]
        calls = []
        read_payload = bct._read_payload
        monkeypatch.setattr(
            bct, "_read_payload", lambda *args: calls.append(args) or read_payload(*args)
        )
        assert bct.parse(odd) == want
        assert len(calls) == 1

    @pytest.mark.parametrize("dim", [10**9, 10**12])
    def test_declared_size_beyond_the_text(self, dim):
        # far more fields declared than the text holds: the same error, and no allocation
        text = f"bct v1\nkind: ket\ndim: {dim}\n" + "(1 2 3 4) " * 300 + "\n"
        assert _outcome(bct.parse, text) == _outcome(oracle_parse, text)

    def test_large_payload_goes_through_the_reader(self, monkeypatch):
        calls = []
        read_rows = format17.read_rows
        monkeypatch.setattr(
            format17, "read_rows", lambda *args: calls.append(args) or read_rows(*args)
        )
        small = bct.render(bct.document_for(random_matrix(np.random.default_rng(5), 15)))
        large = bct.render(bct.document_for(random_matrix(np.random.default_rng(5), 16)))
        assert 15 * 15 * 4 < bct.READ_MIN_FIELDS <= 16 * 16 * 4
        assert bct.parse(small) == oracle_parse(small) and calls == []
        assert bct.parse(large) == oracle_parse(large) and len(calls) == 1


def _operator_text(order: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    return bct.render(bct.document_for(Operator(random_matrix(rng, order), "canonical")))


class TestReaderScratch:
    def test_warm_parse_allocates_little(self):
        # numpy reports its buffers to tracemalloc: after one parse of this
        # size, a parse holds the text's lines, the joined rows and their
        # bytes, and its result, but no scratch array (about 620 KB here)
        text = _operator_text(32, 41)
        doc = bct.parse(text)
        tracemalloc.start()
        try:
            bct.parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = doc.value.matrix.z1.nbytes + doc.value.matrix.z2.nbytes
        assert peak <= 4 * len(text) + 3 * payload + 64 * 1024

    def test_threads_read_their_own_documents(self):
        # more threads than cores, switching as often as they can, each
        # reading with scratch arrays of its own
        texts = [_operator_text(order, seed) for seed, order in enumerate((16, 32, 24, 40))]
        grams = tuple(random_spd(np.random.default_rng(seed), 24) for seed in (5, 6))
        texts.append(bct.render(bct.BctDocument("spec", 24, grams)))
        wants = [oracle_parse(text) for text in texts]
        mismatches, done = [], []

        def read(text, want):
            for _ in range(30):
                if bct.parse(text) != want:
                    mismatches.append(text[:40])
                    return
            done.append(text)

        threads = [threading.Thread(target=read, args=job) for job in zip(texts, wants)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert (mismatches, len(done)) == ([], len(texts))

    def test_order_128_keeps_bounded_scratch(self):
        # 65,536 fields, read in blocks of at most one kernel block: a fresh
        # thread keeps scratch for one block, not for the payload
        text = _operator_text(128, 43)
        kept = []

        def read():
            doc = bct.parse(text)
            kept.append((doc, format17._scratch.rows.size, format17._scratch.positions.size))

        thread = threading.Thread(target=read)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        doc, words, positions = kept[0]
        assert doc == oracle_parse(text)
        assert 0 < words <= format17._SCRATCH_ROWS * format17._KERNEL_FIELDS
        assert 0 < positions <= format17._KERNEL_BYTES < len(text) // 4

    def test_a_row_longer_than_a_block_goes_to_the_reference(self):
        atoms = format17._KERNEL_FIELDS // 4 + 1
        rng = np.random.default_rng(47)
        z1, z2 = rng.standard_normal((2, atoms)) + 1j * rng.standard_normal((2, atoms))
        text = bct.render(bct.document_for(Ket(z1, z2)))
        assert format17.read_rows(text.split("\n", 4)[4], 1, atoms, 4) is None
        assert bct.parse(text) == oracle_parse(text)

    @pytest.mark.parametrize("command", ["info", "det"])
    def test_fresh_small_commands_never_import_the_reader(self, command):
        src = str(pathlib.Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        path = GOLDEN / "matrix_random_n3.bct"
        code = (
            "import sys; from bicomplex import cli; "
            f"code = cli.main([{command!r}, {str(path)!r}]); "
            "print(code, 'bicomplex.format17' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False"


# -- the reference reader ----------------------------------------------------------
#
# Payloads below READ_MIN_FIELDS, and those the vectorized reader declines,
# are read by bct._read_payload, the scan that also locates the first error.
# Raising the threshold past every payload sends sizes to it that the
# default route never does.


@functools.cache
def _large_texts() -> dict[str, tuple[str, str]]:
    """Order-32 payloads by name, each with the outcome it must have: "document" or "error"."""
    operator_text = _operator_text(32, 53)
    grams = tuple(random_spd(np.random.default_rng(seed), 32) for seed in (7, 8))
    spec_text = bct.render(bct.BctDocument("spec", 32, grams))
    rows = operator_text.splitlines(keepends=True)
    head, last = "".join(rows[:-1]), rows[-1]
    return {
        "operator": ("document", operator_text),
        "spec": ("document", spec_text),
        "non-finite last field": ("error", head + last.rsplit(" ", 1)[0] + " 1e400)\n"),
        "a row short": ("error", head),
        "an atom short": ("error", head + last.rsplit(" (", 1)[0]),
        "glued text": ("error", spec_text.replace(") (", ")x (", 1)),
    }


@pytest.fixture
def reference_everywhere(monkeypatch):
    """bct.parse with every payload, however large, read by the reference scan only."""
    calls = []
    monkeypatch.setattr(bct, "READ_MIN_FIELDS", math.inf)
    monkeypatch.setattr(format17, "read_rows", lambda *args: calls.append(args))
    yield
    assert calls == []


class TestReferenceReader:
    @pytest.mark.parametrize("name", sorted(path.name for path in GOLDEN.glob("*.bct")))
    def test_golden_files(self, reference_everywhere, name):
        text = (GOLDEN / name).read_text()
        assert _outcome(bct.parse, text) == _outcome(oracle_parse, text)

    @pytest.mark.parametrize("name", list(_large_texts()))
    def test_order_32_payloads(self, reference_everywhere, name):
        want, text = _large_texts()[name]
        outcome = _outcome(bct.parse, text)
        assert outcome[0] == want
        assert outcome == _outcome(oracle_parse, text)

    @pytest.mark.parametrize("text", STRUCTURE_EDGES.values(), ids=STRUCTURE_EDGES.keys())
    def test_structure_edges(self, reference_everywhere, text):
        assert _outcome(bct.parse, text) == _outcome(oracle_parse, text)

    def test_a_row_longer_than_a_block_is_read_by_the_scan(self, monkeypatch):
        atoms = format17._KERNEL_FIELDS // 4 + 1
        rng = np.random.default_rng(59)
        z1, z2 = rng.standard_normal((2, atoms)) + 1j * rng.standard_normal((2, atoms))
        text = bct.render(bct.document_for(Ket(z1, z2)))
        calls = []
        read_payload = bct._read_payload
        monkeypatch.setattr(
            bct, "_read_payload", lambda *args: calls.append(args) or read_payload(*args)
        )
        outcome = _outcome(bct.parse, text)
        assert len(calls) == 1 and outcome[:3] == ("document", "ket", 2049)
        assert outcome == _outcome(oracle_parse, text)
