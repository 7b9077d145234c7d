"""Direct-arithmetic reference routes that ``bct check`` compares against.

``det_cofactor`` and ``scalar_product_direct`` work entry by entry in
bicomplex arithmetic, without the idempotent component shortcut used by
the fast paths; ``checks`` and the test suite compare the two routes
against each other, so keep these independent of the implementations
they validate.  The ring oracles that only the tests use (the entrywise
product, the Gauss-Jordan inverse and the ring Gram-Schmidt recursion)
are in ``tests/oracles.py``.

Cofactor expansion costs exponential time and the scalar product
quadratic Python loops, so these are only meant for small orders.
"""

from __future__ import annotations

from .core import ZERO, Bicomplex
from .hilbert import Ket, ScalarProductSpec
from .matrix import BicomplexMatrix


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
