"""Shared random generators and oracles for the test suite.

Everything takes an explicit numpy Generator so tests stay reproducible
under their own seeds.  ``oracle_parse`` and ``oracle_render`` are the
.bct reader and writer as they were before the payload moved to whole
arrays: one regex match and one ``float`` per atom field, one f-string
per printed atom.  The tests hold ``bct.parse`` and ``bct.render`` to
them.  ``oracle_pairs`` and ``oracle_reconstruct`` are the spectral
route as it was before eigensystems stayed stacked: one ``EigenPair``
per eigenvalue, and one rank-one operator per pair (``outer_product``),
added in order.
``oracle_gram_schmidt`` is the QR route as it was before the basis stayed
stacked: one ``Ket`` per output column and one scalar null-cone test per
pivot.  The ``old_*`` oracles are the five null-cone tests as they were
before ``core.null_cone_codes`` replaced them, each with its own way of
handling range.  ``bench_workloads`` loads the benchmark's job
generator, and ``bench_golden`` reads the golden calls of its cli
workload.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import pathlib
import re
import sys

import numpy as np

from bicomplex import (
    Bicomplex,
    BicomplexMatrix,
    Classification,
    DimensionMismatch,
    EigenPair,
    Ket,
    NotABasis,
    NullConePivot,
    Operator,
    ScalarProductSpec,
)
from bicomplex.core import (
    DEFAULT_TOLERANCE,
    KetClassification,
    NonFinite,
    Tolerance,
    parts_from_components,
    stack_components,
)
from bicomplex.hilbert import coefficient_matrix
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
        conds = [np.linalg.cond(matrix.components[k - 1]) for k in (1, 2)]
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
    while True:
        kets = [random_ket(rng, n, basis_id) for _ in range(n)]
        if not coefficient_matrix(kets).is_singular():
            return kets


# -- spectral oracles: one EigenPair and one rank-one operator per eigenvalue ------


def oracle_pairs(values: np.ndarray, vectors: np.ndarray, basis_id: str) -> list[EigenPair]:
    """Join the (2, m) and (2, n, m) component eigensystems pair by pair, index to index."""
    return [
        EigenPair(
            Bicomplex.from_idempotent(*values[:, i]),
            Ket.from_components(*vectors[..., i], basis_id),
        )
        for i in range(values.shape[1])
    ]


def outer_product(spec: ScalarProductSpec, phi: Ket, psi: Ket) -> Operator:
    """The rank-one operator sending chi to (psi, chi) * phi: phi_k (G_k psi_k)^H per component."""
    right = np.conj(np.matvec(spec.grams, psi.components))
    parts = phi.components[:, :, None] * right[:, None, :]
    return Operator(BicomplexMatrix.from_components(*parts), phi.basis_id)


def oracle_reconstruct(spec: ScalarProductSpec, pairs) -> Operator:
    """sum_l lambda_l |phi_l><phi_l|, one outer product per pair, summed in order."""
    total = outer_product(spec, pairs[0].ket, pairs[0].ket).scale(pairs[0].value)
    for pair in pairs[1:]:
        total = total + outer_product(spec, pair.ket, pair.ket).scale(pair.value)
    return total


# -- Gram-Schmidt oracle: one Ket per output column, one scalar test per pivot ------


def oracle_gram_schmidt(
    spec: ScalarProductSpec, kets, tol: Tolerance = DEFAULT_TOLERANCE
) -> list[Ket]:
    kets = list(kets)
    if len(kets) != spec.dim:
        raise DimensionMismatch(f"expected {spec.dim} kets, got {len(kets)}")
    for ket in kets[1:]:
        kets[0]._check_compatible(ket)
    matrix = coefficient_matrix(kets)
    if matrix.is_singular(tol):
        raise NotABasis("input kets do not form a basis")

    chol_h = spec.chols.conj().mT
    q, r = np.linalg.qr(chol_h @ matrix.components)
    pivots = np.diagonal(r, axis1=1, axis2=2)
    for index, (a, b) in enumerate(zip(*np.abs(pivots) ** 2)):
        if Bicomplex.from_idempotent(a, b).classify(tol) is not Classification.INVERTIBLE:
            raise NullConePivot(index)
    columns = np.linalg.solve(chol_h, q * (pivots / np.abs(pivots))[:, None])
    return [Ket.from_components(*columns[..., i], kets[0].basis_id) for i in range(len(kets))]


# -- null-cone oracles: the five relative tests before core.null_cone_codes ----------


def old_code(m1: float, m2: float, eps_null: float) -> int:
    """The test of ``Bicomplex.classify`` and ``Ket.classify``, as a null_cone_codes code."""
    scale = max(m1, m2)
    if scale == 0.0:
        return 0
    if m1 <= eps_null * scale:
        return 1
    if m2 <= eps_null * scale:
        return 2
    return 3


def old_classify(w: Bicomplex, tol: Tolerance = DEFAULT_TOLERANCE) -> Classification:
    c1, c2 = w.to_idempotent()
    return tuple(Classification)[old_code(abs(c1), abs(c2), tol.eps_null)]


def old_ket_classify(psi: Ket, tol: Tolerance = DEFAULT_TOLERANCE) -> KetClassification:
    m1, m2 = (float(m) for m in np.abs(psi.components).max(axis=1))
    return tuple(KetClassification)[old_code(m1, m2, tol.eps_null)]


def old_classify_det(matrix: BicomplexMatrix, tol: Tolerance = DEFAULT_TOLERANCE) -> Classification:
    """The determinant test: moduli where both are normal, a log threshold otherwise."""
    with np.errstate(over="ignore", invalid="ignore"):
        d1, d2 = np.linalg.det(matrix.components)
    if np.isfinite(d1) and np.isfinite(d2):
        if min(abs(d1), abs(d2)) >= np.finfo(float).tiny:
            return old_classify(Bicomplex.from_idempotent(d1, d2), tol)
    elif np.abs(matrix.components).max() > math.sqrt(np.finfo(float).max):
        raise NonFinite("determinant overflows")
    l1, l2 = np.linalg.slogdet(matrix.components).logabsdet
    if max(l1, l2) == -math.inf:
        return Classification.ZERO
    threshold = math.log(tol.eps_null) + max(l1, l2)
    if l1 <= threshold:
        return Classification.NULL_CONE_1
    if l2 <= threshold:
        return Classification.NULL_CONE_2
    return Classification.INVERTIBLE


def _old_pivot_moduli(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(stack_components(*parts_from_components(a, b)))


def old_pivots_rejected(pivots: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """The Gram-Schmidt pivot test on the squares, rerun on scaled moduli where they overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = np.abs(pivots) ** 2
        m1, m2 = _old_pivot_moduli(a, b)
        overflow = ~np.isfinite(np.maximum(m1, m2))
        if overflow.any():
            moduli = np.abs(pivots[:, overflow])
            m1[overflow], m2[overflow] = _old_pivot_moduli(*(moduli / moduli.max(axis=0)) ** 2)
    scale = np.maximum(m1, m2)
    return ~np.isfinite(scale) | (m1 <= tol.eps_null * scale) | (m2 <= tol.eps_null * scale)


def old_null_cone_count(vectors: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """The ``null-cone-outputs`` count over the columns of a (2, n, n) component stack."""
    m1, m2 = np.abs(vectors).max(axis=1)
    scale = np.maximum(m1, m2)
    return int(((m1 <= tol.eps_null * scale) | (m2 <= tol.eps_null * scale)).sum())


@functools.cache
def bench_workloads():
    """``bench/workloads.py``, the benchmark's seeded job generator, loaded from its file."""
    path = pathlib.Path(__file__).parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


def bench_golden() -> dict[str, tuple[str, ...]]:
    """The golden files and subcommands of the benchmark's cli workload."""
    return bench_workloads().GOLDEN


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
