import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bicomplex import Bicomplex, BicomplexMatrix, Ket, Operator, ScalarProductSpec
from bicomplex import bct
from bicomplex.core import E1, J, ONE

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
