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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Bicomplex, BicomplexError
from .hilbert import Ket, ScalarProductSpec
from .matrix import BicomplexMatrix
from .operators import Operator

KINDS = ("scalar", "ket", "matrix", "operator", "spec")
DEFAULT_BASIS = "canonical"

_ATOM = re.compile(r"\(([^()]*)\)")


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
        return BctDocument("spec", value.dim, (np.array(value.g1), np.array(value.g2)))
    raise TypeError(f"no document kind for {type(value).__name__}")


# -- rendering -----------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def format_bicomplex_atom(w: Bicomplex) -> str:
    return f"({_fmt(w.z1.real)} {_fmt(w.z1.imag)} {_fmt(w.z2.real)} {_fmt(w.z2.imag)})"


def format_complex_atom(value: complex) -> str:
    return f"({_fmt(value.real)} {_fmt(value.imag)})"


def render(doc: BctDocument) -> str:
    lines = ["bct v1", f"kind: {doc.kind}", f"dim: {doc.dim}"]
    if doc.kind in ("ket", "operator"):
        lines.append(f"basis: {doc.basis if doc.basis is not None else DEFAULT_BASIS}")
    if doc.kind == "scalar":
        lines.append(format_bicomplex_atom(doc.value))
    elif doc.kind == "ket":
        ket: Ket = doc.value
        lines.append(" ".join(format_bicomplex_atom(ket.coeff(i)) for i in range(ket.dim)))
    elif doc.kind in ("matrix", "operator"):
        matrix = doc.value.matrix if doc.kind == "operator" else doc.value
        for i in range(matrix.order):
            lines.append(
                " ".join(format_bicomplex_atom(matrix.entry(i, j)) for j in range(matrix.order))
            )
    elif doc.kind == "spec":
        for gram in doc.value:
            for row in np.asarray(gram):
                lines.append(" ".join(format_complex_atom(complex(v)) for v in row))
    else:
        raise ValueError(f"unknown kind {doc.kind!r}")
    return "\n".join(lines) + "\n"


# -- parsing ------------------------------------------------------------------


def _parse_atoms(line: str, line_no: int, arity: int) -> list[tuple[float, ...]]:
    atoms = []
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
        values = []
        for field in fields:
            try:
                value = float(field)
            except ValueError:
                raise ParseError(f"bad number {field!r}", line_no, match.start() + 1) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite number {field!r}", line_no, match.start() + 1)
            values.append(value)
        atoms.append(tuple(values))
        cursor = match.end()
    if line[cursor:].strip():
        raise ParseError(f"unexpected text {line[cursor:].strip()!r}", line_no, cursor + 1)
    return atoms


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

    rows = []
    line_no = payload_start
    for line_no in range(payload_start, len(lines)):
        line = lines[line_no]
        if not line.strip():
            continue
        atoms = _parse_atoms(line, line_no + 1, arity)
        if len(atoms) != atoms_needed:
            raise DimMismatch(
                f"expected {atoms_needed} atoms per row, got {len(atoms)}", line_no + 1
            )
        rows.append(atoms)
    if len(rows) != rows_needed:
        raise DimMismatch(
            f"expected {rows_needed} payload rows for kind {kind!r}, got {len(rows)}",
            len(lines),
        )

    if kind == "scalar":
        (a, b, c, d) = rows[0][0]
        return BctDocument("scalar", 1, Bicomplex(complex(a, b), complex(c, d)))
    if kind == "ket":
        z1 = np.array([complex(a, b) for (a, b, _, _) in rows[0]])
        z2 = np.array([complex(c, d) for (_, _, c, d) in rows[0]])
        return BctDocument("ket", dim, Ket(z1, z2, basis), basis)
    if kind in ("matrix", "operator"):
        z1 = np.array([[complex(a, b) for (a, b, _, _) in row] for row in rows])
        z2 = np.array([[complex(c, d) for (_, _, c, d) in row] for row in rows])
        matrix = BicomplexMatrix(z1, z2)
        if kind == "matrix":
            return BctDocument("matrix", dim, matrix)
        return BctDocument("operator", dim, Operator(matrix, basis), basis)
    g1 = np.array([[complex(a, b) for (a, b) in row] for row in rows[:dim]])
    g2 = np.array([[complex(a, b) for (a, b) in row] for row in rows[dim:]])
    return BctDocument("spec", dim, (g1, g2))


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
