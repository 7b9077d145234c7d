"""The .bct text container: one format for scalars, kets, matrices,
operators and scalar-product specs.

Grammar (line oriented, 1-based positions in errors):

    bct v1
    kind: scalar | ket | matrix | operator | spec
    dim: <positive integer>
    basis: <label>              # ket and operator only; defaults to "canonical"
    <payload rows>

The payload atom is ``(re1 im1 re2 im2)``, four finite decimal literals with
z1 = re1 + im1*i1 and z2 = re2 + im2*i1.  A scalar is one atom, a ket
one row of dim atoms, a matrix or operator dim rows of dim atoms
(row-major).  A spec stores two Gram matrices as 2*dim rows of dim
complex atoms ``(re im)``, G1 first.  Numbers are printed with 17
significant digits, so parse and render round-trip bit-exactly.

The payload is read in one pass: each row must hold exactly as many
``(`` and ``)`` as atoms, then the joined rows are split into one token
list that must repeat ``( field ... field )``; every field goes through
``float`` at once and the array is reshaped to (rows, atoms, arity),
the (re, im) pairs viewed as complex.  Only a rejected payload is
scanned again, atom by atom, to raise the first error with its line
and column; that scan never builds a document.  Rendering fills one
``%.17g`` template per row from the row's float fields.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NoReturn, Sequence

import numpy as np

from .core import Bicomplex, BicomplexError
from .hilbert import Ket, ScalarProductSpec
from .matrix import BicomplexMatrix
from .operators import Operator

KINDS = ("scalar", "ket", "matrix", "operator", "spec")
DEFAULT_BASIS = "canonical"


class ParseError(BicomplexError):
    """Malformed .bct input; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DimMismatch(ParseError):
    """Payload size disagrees with the declared dimension."""


class KindMismatch(BicomplexError):
    """Document kind not accepted by the consuming command."""

    def __init__(self, expected: Sequence[str], got: str):
        super().__init__(f"expected kind {' or '.join(expected)}, got {got!r}")
        self.expected = tuple(expected)
        self.got = got


@dataclass(frozen=True, eq=False)
class BctDocument:
    """A parsed .bct file: kind, dimension, optional basis label, value.

    The value is the matching domain object, except for kind "spec"
    where the raw Gram matrix pair is kept (semantic validation happens
    in :meth:`to_spec`).
    """

    kind: str
    dim: int
    value: object
    basis: str | None = None

    def __eq__(self, other):
        if not isinstance(other, BctDocument):
            return NotImplemented
        if (self.kind, self.dim, self.basis) != (other.kind, other.dim, other.basis):
            return False
        if self.kind == "spec":
            return np.array_equal(self.value[0], other.value[0]) and np.array_equal(
                self.value[1], other.value[1]
            )
        return self.value == other.value

    def to_spec(self) -> ScalarProductSpec:
        if self.kind != "spec":
            raise KindMismatch(("spec",), self.kind)
        return ScalarProductSpec(self.value[0], self.value[1])


def document_for(value, basis: str | None = None) -> BctDocument:
    """Wrap a domain object in a document, inferring the kind."""
    if isinstance(value, Bicomplex):
        return BctDocument("scalar", 1, value)
    if isinstance(value, Ket):
        return BctDocument("ket", value.dim, value, value.basis_id)
    if isinstance(value, Operator):
        return BctDocument("operator", value.dim, value, value.basis_id)
    if isinstance(value, BicomplexMatrix):
        return BctDocument("matrix", value.order, value)
    if isinstance(value, ScalarProductSpec):
        return BctDocument("spec", value.dim, tuple(np.array(value.grams)))
    raise TypeError(f"no document kind for {type(value).__name__}")


# -- rendering -----------------------------------------------------------------

# one atom of 2 (spec) or 4 (bicomplex) fields; %.17g round-trips every double
_ATOM_FORMAT = {2: "(%.17g %.17g)", 4: "(%.17g %.17g %.17g %.17g)"}


def format_bicomplex_atom(w: Bicomplex) -> str:
    return _ATOM_FORMAT[4] % (w.z1.real, w.z1.imag, w.z2.real, w.z2.imag)


def format_complex_atom(value: complex) -> str:
    return _ATOM_FORMAT[2] % (value.real, value.imag)


def atoms_template(count: int, arity: int = 4, sep: str = " ") -> str:
    """A %-template for ``count`` atoms of ``arity`` fields, joined by ``sep``."""
    return sep.join([_ATOM_FORMAT[arity]] * count)


def atom_fields(*parts: np.ndarray) -> np.ndarray:
    """The atom fields of equally shaped complex arrays, in print order.

    The last axis of the entries is flattened into one axis holding, per
    entry, the real and imaginary part of each part in turn: two parts
    (z1, z2) give bicomplex atoms, one part gives complex atoms.
    """
    stacked = np.stack(parts, axis=-1).astype(complex, copy=False)
    return stacked.view(float).reshape(*stacked.shape[:-2], -1)


def format_rows(template: str, fields: np.ndarray) -> list[str]:
    """One line per row of ``fields`` (a vector is one row), filled into ``template``."""
    return [template % tuple(row) for row in np.atleast_2d(fields).tolist()]


def render(doc: BctDocument) -> str:
    lines = ["bct v1", f"kind: {doc.kind}", f"dim: {doc.dim}"]
    if doc.kind in ("ket", "operator"):
        lines.append(f"basis: {doc.basis if doc.basis is not None else DEFAULT_BASIS}")
    if doc.kind == "scalar":
        lines.append(format_bicomplex_atom(doc.value))
    elif doc.kind in ("ket", "matrix", "operator"):
        value = doc.value.matrix if doc.kind == "operator" else doc.value
        lines += format_rows(atoms_template(value.z1.shape[-1]), atom_fields(value.z1, value.z2))
    elif doc.kind == "spec":
        for gram in doc.value:
            gram = np.asarray(gram)
            lines += format_rows(atoms_template(gram.shape[-1], 2), atom_fields(gram))
    else:
        raise ValueError(f"unknown kind {doc.kind!r}")
    return "\n".join(lines) + "\n"


# -- parsing ------------------------------------------------------------------

_ATOM = re.compile(r"\(([^()]*)\)")


def _read_payload(
    lines: list[str], start: int, arity: int, atoms_needed: int, rows_needed: int
) -> np.ndarray | None:
    """Every payload number as a (rows, atoms, arity) array, in one conversion.

    Returns None when the payload has any error; :func:`_locate_error`
    then finds and raises the first one.  With both parens counted per
    row, tokens that run "(", ``arity`` fields, ")" over and over leave no
    atom across two rows and no other text: what the atom scan accepts.
    """
    rows = []
    for line in lines[start:]:
        if line.count("(") == atoms_needed and line.count(")") == atoms_needed:
            rows.append(line)
        elif line.strip():
            return None
    if len(rows) != rows_needed:
        return None
    tokens = " ".join(rows).replace("(", " ( ").replace(")", " ) ").split()
    unit = arity + 2
    opens = ["("] * (rows_needed * atoms_needed)
    if tokens[::unit] != opens or tokens[unit - 1 :: unit] != [")"] * len(opens):
        return None
    del tokens[::unit]  # the "(" tokens, then the ")" ones: the fields remain
    del tokens[arity :: arity + 1]
    try:
        values = np.fromiter(map(float, tokens), float, count=len(tokens))
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return values.reshape(rows_needed, atoms_needed, arity)


def _scan_atoms(line: str, line_no: int, arity: int) -> int:
    """Check one row atom by atom, raising its first error; returns the atom count."""
    count = 0
    cursor = 0
    for match in _ATOM.finditer(line):
        gap = line[cursor : match.start()]
        if gap.strip():
            raise ParseError(f"unexpected text {gap.strip()!r}", line_no, cursor + 1)
        fields = match.group(1).split()
        if len(fields) != arity:
            raise ParseError(
                f"atom needs {arity} numbers, got {len(fields)}", line_no, match.start() + 1
            )
        for field in fields:
            try:
                value = float(field)
            except ValueError:
                raise ParseError(f"bad number {field!r}", line_no, match.start() + 1) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite number {field!r}", line_no, match.start() + 1)
        count += 1
        cursor = match.end()
    if line[cursor:].strip():
        raise ParseError(f"unexpected text {line[cursor:].strip()!r}", line_no, cursor + 1)
    return count


def _locate_error(
    lines: list[str], start: int, kind: str, arity: int, atoms_needed: int, rows_needed: int
) -> NoReturn:
    """Raise the first error of a payload that :func:`_read_payload` rejected.

    Rows are checked in order, atom by atom; the row count is checked last.
    """
    rows = 0
    for line_no in range(start, len(lines)):
        line = lines[line_no]
        if not line.strip():
            continue
        atoms = _scan_atoms(line, line_no + 1, arity)
        if atoms != atoms_needed:
            raise DimMismatch(f"expected {atoms_needed} atoms per row, got {atoms}", line_no + 1)
        rows += 1
    raise DimMismatch(
        f"expected {rows_needed} payload rows for kind {kind!r}, got {rows}", len(lines)
    )


def parse(text: str) -> BctDocument:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "bct v1":
        raise ParseError("expected header 'bct v1'", 1)
    if len(lines) < 3:
        raise ParseError("missing 'kind:' and 'dim:' headers", len(lines) or 1)

    kind_line = lines[1].strip()
    if not kind_line.startswith("kind:"):
        raise ParseError("expected 'kind: <kind>'", 2)
    kind = kind_line[len("kind:") :].strip()
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}", 2, len("kind: ") + 1)

    dim_line = lines[2].strip()
    if not dim_line.startswith("dim:"):
        raise ParseError("expected 'dim: <positive integer>'", 3)
    try:
        dim = int(dim_line[len("dim:") :].strip())
    except ValueError:
        raise ParseError("dimension is not an integer", 3, len("dim: ") + 1) from None
    if dim < 1:
        raise ParseError(f"dimension must be positive, got {dim}", 3, len("dim: ") + 1)
    if kind == "scalar" and dim != 1:
        raise DimMismatch("scalar documents have dim 1", 3, len("dim: ") + 1)

    basis = None
    payload_start = 3
    if len(lines) > 3 and lines[3].strip().startswith("basis:"):
        if kind not in ("ket", "operator"):
            raise ParseError(f"kind {kind!r} takes no basis header", 4)
        basis = lines[3].strip()[len("basis:") :].strip()
        if not basis:
            raise ParseError("empty basis label", 4, len("basis: ") + 1)
        payload_start = 4
    if kind in ("ket", "operator") and basis is None:
        basis = DEFAULT_BASIS

    rows_needed = {"scalar": 1, "ket": 1, "matrix": dim, "operator": dim, "spec": 2 * dim}[kind]
    atoms_needed = {"scalar": 1, "ket": dim, "matrix": dim, "operator": dim, "spec": dim}[kind]
    arity = 2 if kind == "spec" else 4

    values = _read_payload(lines, payload_start, arity, atoms_needed, rows_needed)
    if values is None:
        _locate_error(lines, payload_start, kind, arity, atoms_needed, rows_needed)
    # (re, im) field pairs viewed as complex keep every bit, -0.0 included
    parts = values.view(complex)
    if kind == "spec":
        gram = parts[..., 0]
        return BctDocument("spec", dim, (gram[:dim], gram[dim:]))
    z1, z2 = parts[..., 0], parts[..., 1]
    if kind == "scalar":
        return BctDocument("scalar", 1, Bicomplex(z1.item(), z2.item()))
    if kind == "ket":
        return BctDocument("ket", dim, Ket(z1[0], z2[0], basis), basis)
    matrix = BicomplexMatrix(z1, z2)
    if kind == "matrix":
        return BctDocument("matrix", dim, matrix)
    return BctDocument("operator", dim, Operator(matrix, basis), basis)


def load(path) -> BctDocument:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"non-ASCII byte 0x{data[exc.start]:02x}",
            data.count(b"\n", 0, exc.start) + 1,
            exc.start - line_start + 1,
        ) from None
    return parse(text)


def save(path, doc: BctDocument) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(render(doc))
