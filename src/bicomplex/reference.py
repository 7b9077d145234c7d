"""Direct-arithmetic reference implementations.

Everything here works entry by entry in bicomplex arithmetic, without
the idempotent component shortcut used by the fast paths.  The check
runner and the test suite compare the two routes against each other;
keep these independent of the implementations they validate.

Costs are exponential (cofactor expansion) or cubic with scalar Python
loops, so these are only meant for small orders.
"""

from __future__ import annotations

from typing import Sequence

from .core import (
    DEFAULT_TOLERANCE,
    Bicomplex,
    Classification,
    DimensionMismatch,
    ONE,
    Tolerance,
    ZERO,
)
from .hilbert import (
    Ket,
    NotABasis,
    NullConePivot,
    ScalarProductSpec,
    coefficient_matrix,
    normalize,
    scalar_product,
)
from .matrix import BicomplexMatrix, SingularMatrix


def det_cofactor(matrix: BicomplexMatrix) -> Bicomplex:
    """Determinant by recursive cofactor expansion over the ring."""
    entries = [[matrix.entry(i, j) for j in range(matrix.order)] for i in range(matrix.order)]
    return _det_rows(entries)


def _det_rows(rows: list[list[Bicomplex]]) -> Bicomplex:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = ZERO
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * _det_rows(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def matmul_entrywise(a: BicomplexMatrix, b: BicomplexMatrix) -> BicomplexMatrix:
    """Triple-loop ring product, one bicomplex multiply at a time."""
    n = a.order
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for k in range(n):
                acc = acc + a.entry(i, k) * b.entry(k, j)
            row.append(acc)
        rows.append(row)
    return BicomplexMatrix.from_entries(rows)


def gauss_jordan_inverse(
    matrix: BicomplexMatrix, tol: Tolerance = DEFAULT_TOLERANCE
) -> BicomplexMatrix:
    """Inverse by Gauss-Jordan elimination in bicomplex arithmetic.

    Pivots are chosen by largest Euclidean norm within the column and
    must be invertible ring elements; a column whose remaining entries
    are all in the null cone aborts, which can happen even for some
    nonsingular matrices.  Good enough as an independent cross-check on
    well-conditioned inputs.
    """
    n = matrix.order
    work = [[matrix.entry(i, j) for j in range(n)] for i in range(n)]
    result = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]

    for col in range(n):
        pivot_row = None
        best = -1.0
        for row in range(col, n):
            candidate = work[row][col]
            if candidate.classify(tol) is Classification.INVERTIBLE:
                norm = candidate.euclid_norm()
                if norm > best:
                    best = norm
                    pivot_row = row
        if pivot_row is None:
            raise SingularMatrix((1, 2))
        work[col], work[pivot_row] = work[pivot_row], work[col]
        result[col], result[pivot_row] = result[pivot_row], result[col]

        inv_pivot = work[col][col].inverse(tol)
        work[col] = [value * inv_pivot for value in work[col]]
        result[col] = [value * inv_pivot for value in result[col]]
        for row in range(n):
            if row == col:
                continue
            factor = work[row][col]
            if factor == ZERO:
                continue
            work[row] = [value - factor * pivot for value, pivot in zip(work[row], work[col])]
            result[row] = [value - factor * pivot for value, pivot in zip(result[row], result[col])]

    return BicomplexMatrix.from_entries(result)


def scalar_product_direct(spec: ScalarProductSpec, psi: Ket, phi: Ket) -> Bicomplex:
    """Scalar product summed over bicomplex Gram entries, term by term.

    Builds the ring-valued Gram matrix G1*e1 + G2*e2 once and evaluates
    sum_ij conj3(psi_i) * G_ij * phi_j without projecting anything.
    """
    gram = BicomplexMatrix.from_components(*spec.grams)
    total = ZERO
    for i in range(psi.dim):
        left = psi.coeff(i).conjugate(3)
        for j in range(phi.dim):
            total = total + left * gram.entry(i, j) * phi.coeff(j)
    return total


def gram_schmidt_ring(
    spec: ScalarProductSpec, kets: Sequence[Ket], tol: Tolerance = DEFAULT_TOLERANCE
) -> list[Ket]:
    """Orthonormalize a basis by the Gram-Schmidt recursion in ring arithmetic.

    Applies

        out_k = in_k - sum_l (out_l, in_k) / (out_l, out_l) * out_l

    in bicomplex arithmetic (plus one refinement sweep, since a single
    classical pass loses roughly cond**2 digits), then normalizes.  The
    oracle for ``hilbert.gram_schmidt``, which factors each component
    with QR instead.
    """
    kets = list(kets)
    if len(kets) != spec.dim:
        raise DimensionMismatch(f"expected {spec.dim} kets, got {len(kets)}")
    for ket in kets[1:]:
        kets[0]._check_compatible(ket)
    if coefficient_matrix(kets).is_singular(tol):
        raise NotABasis("input kets do not form a basis")

    ortho: list[Ket] = []
    self_products: list[Bicomplex] = []
    for ket in kets:
        current = ket
        for _ in range(2):
            for prev, prod in zip(ortho, self_products):
                coeff = scalar_product(spec, prev, current) / prod
                current = current - coeff * prev
        prod = scalar_product(spec, current, current)
        if prod.classify(tol) is not Classification.INVERTIBLE:
            raise NullConePivot(len(ortho))
        ortho.append(current)
        self_products.append(prod)
    return [normalize(spec, ket, tol) for ket in ortho]
