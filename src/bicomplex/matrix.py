"""Dense square matrices over the bicomplex ring.

A matrix A splits entrywise along the idempotents as A = A1*e1 + A2*e2
with A1, A2 complex matrices, and determinant, singularity and inverse
all reduce to the two components:

    det(A) = det(A1)*e1 + det(A2)*e2,
    A**-1  = inv(A1)*e1 + inv(A2)*e2   (defined iff det(A) is invertible).

A matrix is singular when its determinant lies in the null cone, i.e.
when at least one component determinant vanishes.  When a component
determinant overflows, the same relative test runs on the component
log-moduli instead, so a large regular matrix can still be inverted
although its determinant is not representable.  Storage is the
canonical (z1, z2) pair of complex arrays (``core.BicomplexArray``);
determinant, inverse and condition numbers are each one batched LAPACK
call on the ``(2, n, n)`` component stack.  The product stays in (z1, z2)
ring form, so the component law that ``checks`` verifies compares two
independent routes.  Matrices are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    DEFAULT_TOLERANCE,
    Bicomplex,
    BicomplexArray,
    BicomplexError,
    Classification,
    DimensionMismatch,
    NonFinite,
    Tolerance,
    as_bicomplex,
)


class SingularMatrix(BicomplexError):
    """Raised when a matrix with a null-cone (or zero) determinant is inverted.

    ``components`` lists the idempotent components whose determinant
    vanished: (1,), (2,) or (1, 2).
    """

    def __init__(self, components: tuple[int, ...]):
        labels = " and ".join(str(k) for k in components)
        super().__init__(f"matrix is singular: component {labels} determinant vanishes")
        self.components = components


class MatrixInverse(NamedTuple):
    """Inverse matrix together with the two component condition estimates."""

    matrix: "BicomplexMatrix"
    cond1: float
    cond2: float


class BicomplexMatrix(BicomplexArray):
    """An n-by-n array of bicomplex entries."""

    __slots__ = ()
    ndim = 2

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_entries(cls, rows: Sequence[Sequence]) -> BicomplexMatrix:
        entries = [[as_bicomplex(value) for value in row] for row in rows]
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("rows must all have length equal to the row count")
        z1 = np.array([[w.z1 for w in row] for row in entries], dtype=complex)
        z2 = np.array([[w.z2 for w in row] for row in entries], dtype=complex)
        return cls(z1, z2)

    @classmethod
    def identity(cls, n: int) -> BicomplexMatrix:
        return cls(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))

    @classmethod
    def zeros(cls, n: int) -> BicomplexMatrix:
        return cls(np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex))

    @classmethod
    def diagonal(cls, values: Sequence) -> BicomplexMatrix:
        values = [as_bicomplex(v) for v in values]
        z1 = np.diag([w.z1 for w in values]).astype(complex)
        z2 = np.diag([w.z2 for w in values]).astype(complex)
        return cls(z1, z2)

    # -- views -----------------------------------------------------------

    @property
    def order(self) -> int:
        return self.z1.shape[0]

    def entry(self, i: int, j: int) -> Bicomplex:
        return Bicomplex(self.z1[i, j], self.z2[i, j])

    def transpose(self) -> BicomplexMatrix:
        return BicomplexMatrix(self.z1.T.copy(), self.z2.T.copy())

    def max_norm(self) -> float:
        """Largest entrywise Euclidean norm."""
        return float(np.sqrt(np.abs(self.z1) ** 2 + np.abs(self.z2) ** 2).max())

    # -- ring operations ---------------------------------------------------

    def __matmul__(self, other):
        if not isinstance(other, BicomplexMatrix):
            return NotImplemented
        self._check_compatible(other)
        return BicomplexMatrix(
            self.z1 @ other.z1 - self.z2 @ other.z2,
            self.z1 @ other.z2 + self.z2 @ other.z1,
        )

    def matvec(self, z1: np.ndarray, z2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply to a coefficient vector given as its (z1, z2) parts."""
        if z1.shape != (self.order,):
            raise DimensionMismatch(f"vector length {z1.shape[0]} != order {self.order}")
        return self.z1 @ z1 - self.z2 @ z2, self.z1 @ z2 + self.z2 @ z1

    def __eq__(self, other):
        if not isinstance(other, BicomplexMatrix):
            return NotImplemented
        return np.array_equal(self.z1, other.z1) and np.array_equal(self.z2, other.z2)

    def __repr__(self):
        return f"BicomplexMatrix(order={self.order})"

    def _check_compatible(self, other: BicomplexMatrix):
        if self.order != other.order:
            raise DimensionMismatch(f"orders differ: {self.order} vs {other.order}")

    # -- determinant and inverse --------------------------------------------

    def _component_dets(self) -> np.ndarray:
        # an overflowing determinant is reported by the callers, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            return np.linalg.det(self.components)

    def det(self) -> Bicomplex:
        """Determinant via the component determinants (LU under the hood).

        Raises NonFinite, with both component moduli, when one overflows.
        """
        d1, d2 = self._component_dets()
        if not (np.isfinite(d1) and np.isfinite(d2)):
            raise _det_overflow(d1, d2)
        return Bicomplex.from_idempotent(d1, d2)

    def _classify_det(self, tol: Tolerance = DEFAULT_TOLERANCE) -> Classification:
        """``det().classify(tol)``, also when a component determinant overflows.

        Then the component log-moduli from ``slogdet`` take the place of
        the moduli in the same relative null-cone test, as long as the
        product of any two entries is finite; beyond that the overflow
        raises NonFinite as in ``det``.
        """
        d1, d2 = self._component_dets()
        if np.isfinite(d1) and np.isfinite(d2):
            return Bicomplex.from_idempotent(d1, d2).classify(tol)
        if np.abs(self.components).max() > _ENTRY_LIMIT:
            raise _det_overflow(d1, d2)
        l1, l2 = np.linalg.slogdet(self.components).logabsdet
        threshold = math.log(tol.eps_null) + max(l1, l2)
        if l1 <= threshold:
            return Classification.NULL_CONE_1
        if l2 <= threshold:
            return Classification.NULL_CONE_2
        return Classification.INVERTIBLE

    def is_singular(self, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        return self._classify_det(tol) is not Classification.INVERTIBLE

    def inverse(self, tol: Tolerance = DEFAULT_TOLERANCE) -> MatrixInverse:
        """Componentwise inverse, plus condition estimates for both components.

        The residual of A @ inv(A) scales with the reported conditions;
        callers decide how much accuracy to expect.
        """
        require_nonsingular(self, tol)
        cond1, cond2 = np.linalg.cond(self.components)
        inverse = BicomplexMatrix.from_components(*np.linalg.inv(self.components))
        return MatrixInverse(inverse, float(cond1), float(cond2))


# largest entry component modulus whose square is finite
_ENTRY_LIMIT = math.sqrt(np.finfo(float).max)


def _det_overflow(d1: complex, d2: complex) -> NonFinite:
    moduli = tuple(np.abs([d1, d2]).tolist())
    return NonFinite(f"determinant overflows: component moduli {moduli}")


# idempotent components whose determinant vanishes, by det classification
_VANISHING = {
    Classification.ZERO: (1, 2),
    Classification.NULL_CONE_1: (1,),
    Classification.NULL_CONE_2: (2,),
}


def require_nonsingular(matrix: BicomplexMatrix, tol: Tolerance = DEFAULT_TOLERANCE) -> None:
    """Raise SingularMatrix unless the determinant is invertible."""
    vanishing = _VANISHING.get(matrix._classify_det(tol))
    if vanishing is not None:
        raise SingularMatrix(vanishing)
