"""Shared random generators and oracles for the test suite.

Everything takes an explicit numpy Generator so tests stay reproducible
under their own seeds.  ``oracle_parse`` and ``oracle_render`` are the
.bct reader and writer as they were before the payload moved to whole
arrays: one regex match and one ``float`` per atom field, one f-string
per printed atom.  The tests hold ``bct.parse`` and ``bct.render`` to
them.
"""

from __future__ import annotations

import math
import re

import numpy as np

from bicomplex import Bicomplex, BicomplexMatrix, Ket, Operator, ScalarProductSpec
from bicomplex.bct import DEFAULT_BASIS, KINDS, BctDocument, DimMismatch, ParseError


def random_bicomplex(rng, scale: float = 1.0) -> Bicomplex:
    a, b, c, d = rng.standard_normal(4) * scale
    return Bicomplex(complex(a, b), complex(c, d))


def random_matrix(rng, n: int, scale: float = 1.0) -> BicomplexMatrix:
    z1 = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * scale
    z2 = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * scale
    return BicomplexMatrix(z1, z2)


def random_well_conditioned(rng, n: int, cond_cap: float = 100.0) -> BicomplexMatrix:
    while True:
        matrix = random_matrix(rng, n)
        conds = [np.linalg.cond(matrix.component(k)) for k in (1, 2)]
        if max(conds) <= cond_cap:
            return matrix


def random_hermitian(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def hermitize(g: np.ndarray) -> np.ndarray:
    """Make a matrix bitwise Hermitian (survives text round-trips)."""
    return 0.5 * (g + g.conj().T)


def random_spd(rng, n: int) -> np.ndarray:
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitize(b.conj().T @ b + n * np.eye(n))


def random_spec(rng, n: int) -> ScalarProductSpec:
    return ScalarProductSpec(random_spd(rng, n), random_spd(rng, n))


def random_self_adjoint(rng, n: int, basis_id: str = "canonical") -> Operator:
    """Self-adjoint under the identity spec: both components Hermitian."""
    return Operator(
        BicomplexMatrix.from_components(random_hermitian(rng, n), random_hermitian(rng, n)),
        basis_id,
    )


def random_ket(rng, n: int, basis_id: str = "canonical") -> Ket:
    z1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return Ket(z1, z2, basis_id)


def random_basis_kets(rng, n: int, basis_id: str = "canonical") -> list[Ket]:
    from bicomplex.hilbert import coefficient_matrix

    while True:
        kets = [random_ket(rng, n, basis_id) for _ in range(n)]
        if not coefficient_matrix(kets).is_singular():
            return kets


# -- .bct oracles: the atom-by-atom reader and writer ---------------------------

_ATOM = re.compile(r"\(([^()]*)\)")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _format_bicomplex_atom(w: Bicomplex) -> str:
    return f"({_fmt(w.z1.real)} {_fmt(w.z1.imag)} {_fmt(w.z2.real)} {_fmt(w.z2.imag)})"


def _format_complex_atom(value: complex) -> str:
    return f"({_fmt(value.real)} {_fmt(value.imag)})"


def oracle_render(doc: BctDocument) -> str:
    lines = ["bct v1", f"kind: {doc.kind}", f"dim: {doc.dim}"]
    if doc.kind in ("ket", "operator"):
        lines.append(f"basis: {doc.basis if doc.basis is not None else DEFAULT_BASIS}")
    if doc.kind == "scalar":
        lines.append(_format_bicomplex_atom(doc.value))
    elif doc.kind == "ket":
        ket: Ket = doc.value
        lines.append(" ".join(_format_bicomplex_atom(ket.coeff(i)) for i in range(ket.dim)))
    elif doc.kind in ("matrix", "operator"):
        matrix = doc.value.matrix if doc.kind == "operator" else doc.value
        for i in range(matrix.order):
            lines.append(
                " ".join(_format_bicomplex_atom(matrix.entry(i, j)) for j in range(matrix.order))
            )
    elif doc.kind == "spec":
        for gram in doc.value:
            for row in np.asarray(gram):
                lines.append(" ".join(_format_complex_atom(complex(v)) for v in row))
    else:
        raise ValueError(f"unknown kind {doc.kind!r}")
    return "\n".join(lines) + "\n"


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


def oracle_parse(text: str) -> BctDocument:
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
