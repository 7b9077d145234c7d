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

Every field is read with the bits ``float`` gives it.  ``parse`` splits
off only the header lines, where each ends in "\n" alone, and a payload
of at least ``READ_MIN_FIELDS`` (1,024) fields goes first, as one text,
to the vectorized reader of :mod:`bicomplex.format17`, imported on first
use: it checks the layout on the payload's bytes, reads plain
``[-]digits[.digits]`` fields of up to 19 digits with word arithmetic
and one double-double product each, and leaves every other field, and
any value too near a rounding midpoint, to ``float`` itself.  Every
smaller payload, every other layout (a header line that does not end
in "\n" alone, a blank line or CRLF in the payload) and every payload
the reader does not accept whole is read by one reference scan over the
text's ``splitlines()``: row by row, atom by atom, each field converted
by ``float`` as it is checked, so that the first error it meets is the
one raised, with its line and column, and no array is built before the
whole payload is read.  Within a process
the reader overtakes the scan near 240 fields, but importing it costs a
fresh process about 10 ms, more than it saves on one payload below
1,024 fields: the commands that read only small files never load it.

Rendering writes each row as ``template % tuple(row)`` would, byte for
byte.  A block of at least ``BATCH_MIN_FIELDS`` (512) fields goes
through the numpy kernel of :mod:`bicomplex.format17`, imported on first
use: every field's 17 significant digits come from one double-double
product with a per-exponent power of ten (tables filled lazily, with
exact int arithmetic), its text is put together from digit chunk tables
and joined with the template's literal pieces, all in scratch arrays
that each thread keeps for its next block.  Fields whose rounding is a
tie or too close to call, that ``%.17g`` prints in exponent notation, or
that are not finite are printed by ``'%.17g' % x`` itself.  Smaller
blocks (scalars, order <= 8 matrices, eigenvalue lists) fill the
template row by row: below about 256 fields the kernel's fixed cost is
more than it saves.

``load`` parses each distinct file content once per process: it reads
the file on every call and looks its bytes up in a cache of the last 4
documents loaded, keyed on those exact bytes.  Four covers the most files
one command reads (``evolve --spec`` reads 3), so in-process callers that
run several commands on one input (``det``, ``inv``, ``gram-schmidt`` and
``check`` on one matrix) pay for one parse.  Errors are not cached, and a
cached document is shared by every later load, so its payload arrays are
read-only.  ``parse`` and ``render`` are not cached.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Sequence

import numpy as np

from .core import DEFAULT_TOLERANCE, Bicomplex, BicomplexError, SlottedValue, Tolerance
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


class BctDocument(SlottedValue):
    """A parsed .bct file: kind, dimension, optional basis label, value.

    The value is the matching domain object, except for kind "spec"
    where the raw Gram matrix pair is kept (semantic validation happens
    in :meth:`to_spec`).
    """

    __slots__ = ("kind", "dim", "value", "basis")

    def __init__(self, kind: str, dim: int, value: object, basis: str | None = None):
        self.kind = kind
        self.dim = dim
        self.value = value
        self.basis = basis

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

    def to_spec(self, tol: Tolerance = DEFAULT_TOLERANCE) -> ScalarProductSpec:
        if self.kind != "spec":
            raise KindMismatch(("spec",), self.kind)
        return ScalarProductSpec(self.value[0], self.value[1], tol)


def document_for(value) -> BctDocument:
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
    """One line per row of ``fields`` (a vector is one row), filled into ``template``.

    Each line is ``template % tuple(row)``, byte for byte.  A float block
    of at least ``BATCH_MIN_FIELDS`` fields, under a template of plain
    ASCII text around its ``%.17g`` fields, is printed by the batch
    kernel in :mod:`bicomplex.format17`; every other block row by row.
    """
    fields = np.atleast_2d(fields)
    if fields.size >= BATCH_MIN_FIELDS and fields.dtype == np.float64 and fields.ndim == 2:
        # imported here: compiling the kernel would cost every `bct` process
        # about 2 ms, and those that print only small blocks never run it
        from . import format17

        lines = format17.format_rows(template, fields)
        if lines is not None:
            return lines
    return [template % tuple(row) for row in fields.tolist()]


# below about 256 fields the kernel's fixed cost is more than it saves
BATCH_MIN_FIELDS = 512


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

# payloads of at least this many fields go to the reader in format17 first:
# on a 2-core VM, parsing in a warm process, it breaks even with the
# reference scan near 240 fields and reads 1,024 in about 1/3 of its time
# (0.25 against 0.74 ms for an order-16 matrix); below 1,024 its import
# costs a fresh process more than it saves
READ_MIN_FIELDS = 1024


def _read_payload(
    lines: list[str], start: int, kind: str, arity: int, atoms_needed: int, rows_needed: int
) -> np.ndarray:
    """Every payload number as a (rows, atoms, arity) array; raises the payload's first error.

    The reference reader: the non-blank rows are read in order, atom by
    atom, each field converted by ``float`` as it is checked, and the row
    count is checked last.  No array is built unless the whole payload is
    valid.
    """
    values = []
    rows = 0
    for line_no, line in enumerate(lines[start:], start + 1):
        if not line.strip():
            continue
        atoms = cursor = 0
        for match in _ATOM.finditer(line):
            gap = line[cursor : match.start()].strip()
            if gap:
                raise ParseError(f"unexpected text {gap!r}", line_no, cursor + 1)
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
                values.append(value)
            atoms += 1
            cursor = match.end()
        if line[cursor:].strip():
            raise ParseError(f"unexpected text {line[cursor:].strip()!r}", line_no, cursor + 1)
        if atoms != atoms_needed:
            raise DimMismatch(f"expected {atoms_needed} atoms per row, got {atoms}", line_no)
        rows += 1
    if rows != rows_needed:
        raise DimMismatch(
            f"expected {rows_needed} payload rows for kind {kind!r}, got {rows}", len(lines)
        )
    return np.array(values).reshape(rows, atoms_needed, arity)


def parse(text: str) -> BctDocument:
    # the four lines that may be headers, split off alone where each ends in
    # "\n" alone; else every line, as the reference scan reads them
    head = text.split("\n", 4)
    whole = len(head) < 5 or any(line.splitlines() != [line] for line in head[:4])
    lines = text.splitlines() if whole else head[:4]
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

    values = None
    # the payload after headers that were split off alone, as one text;
    # any other layout goes to the reference scan
    if not whole and rows_needed * atoms_needed * arity >= READ_MIN_FIELDS:
        # imported here, as format_rows imports it: small payloads never need it
        from . import format17

        values = format17.read_rows("\n".join(head[payload_start:]), rows_needed, atoms_needed, arity)
    if values is None:
        if not whole:
            lines = text.splitlines()
        values = _read_payload(lines, payload_start, kind, arity, atoms_needed, rows_needed)
    # a loaded document is shared by every later load of the same bytes,
    # so the payload, and the spec's Gram views of it, stay read-only
    values.setflags(write=False)
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
    """The document in the file at ``path``, parsed once per distinct content.

    The file is read on every call and its bytes are the key of a cache
    of the last 4 documents (one command reads at most 3 files): a
    rewritten file is parsed again, a missing one raises OSError, and a
    malformed one raises its ParseError on every call.  Later loads of
    the same bytes return the same document, so it must not be mutated;
    its arrays are read-only.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    return _parse_bytes(data)


@functools.lru_cache(maxsize=4)
def _parse_bytes(data: bytes) -> BctDocument:
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
