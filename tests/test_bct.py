import functools
import math
import operator
import pathlib
import re
import sys
import threading
import tracemalloc

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
        assert spec.gram(1)[0, 1] == 0.5j

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


class TestBatchFormat:
    """``format_rows``' batch kernel writes what ``template % tuple(row)`` writes."""

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
            e, k = index + format17._E_MIN, int(format17._DECIMAL[2 * index])
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
# structure is wrong: the one-pass payload read must reject each, and the
# atom-by-atom scan must report it exactly as the oracle does.
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
