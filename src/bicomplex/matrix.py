"""Dense square matrices over the bicomplex ring.

A matrix A splits entrywise along the idempotents as A = A1*e1 + A2*e2
with A1, A2 complex matrices, and determinant, singularity and inverse
all reduce to the two components:

    det(A) = det(A1)*e1 + det(A2)*e2,
    A**-1  = inv(A1)*e1 + inv(A2)*e2   (defined iff det(A) is invertible).

A matrix is singular when its determinant lies in the null cone, i.e.
when at least one component determinant vanishes against the other
(``_classify_det``, also where a determinant is not representable).
Storage is the canonical (z1, z2) pair of complex arrays
(``core.BicomplexArray``); determinant, inverse, condition numbers and
QR factorization are each one batched LAPACK call on the ``(2, n, n)``
component stack.  The singularity test's log-moduli and the QR read the
stack with each column (one ket, shared by both components) divided
exactly by a power of two of its own (``_ket_scaled``); the condition
numbers and the inverse read it divided by the power of two of its
largest part (``core.scaled_down``).  So singularity, the inverse and
orthonormal rows do not depend on where in the double range A or any of
its columns lies.  The determinant keeps ``np.linalg.det`` of the stack
as it is, so an overflowing one is reported.  Each is computed once per
matrix and kept, as is the transposed copy: the commands of one process
share a loaded matrix (``bct.load``), so ``det``, ``inv``,
``gram-schmidt`` and ``check`` on one document factorize A and its
transpose once each, and the rows' Gram-Schmidt under the standard
product is the kept QR of the transpose.  Only results that do not
depend on a ``Tolerance`` are kept; the null-cone tests run on every
call.  The product stays in (z1, z2) ring form, so the component law
that ``checks`` verifies compares two independent routes.  Matrices are
immutable and all operations are pure; two threads that race on a first
use compute the same value twice.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    _CLASSIFICATIONS,
    DEFAULT_TOLERANCE,
    Bicomplex,
    BicomplexArray,
    BicomplexError,
    Classification,
    DimensionMismatch,
    NonFinite,
    Tolerance,
    as_bicomplex,
    null_cone_codes,
    scaled_down,
)


class SingularMatrix(BicomplexError):
    """Raised when a matrix with a null-cone (or zero) determinant is inverted.

    ``components`` lists the idempotent components whose determinant
    vanished: (1,), (2,) or (1, 2).  A component whose reciprocal
    condition number is below machine epsilon makes the matrix
    numerically singular, as in LAPACK's xGESVX, with that ``reason``.
    """

    def __init__(self, components: tuple[int, ...], reason: str = "determinant vanishes"):
        labels = " and ".join(str(k) for k in components)
        super().__init__(f"matrix is singular: component {labels} {reason}")
        self.components = components


class MatrixInverse(NamedTuple):
    """Inverse matrix together with the two component condition estimates."""

    matrix: "BicomplexMatrix"
    cond1: float
    cond2: float


class BicomplexMatrix(BicomplexArray):
    """An n-by-n array of bicomplex entries."""

    __slots__ = ("_dets", "_inverse", "_qr", "_transpose")
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
        """The transposed copy, made on first use and kept.

        Its own transpose is a new copy, not this matrix, so ``det-transpose``
        compares the LU factorizations of two separate matrices.
        """
        try:
            return self._transpose
        except AttributeError:
            self._transpose = BicomplexMatrix(self.z1.T.copy(), self.z2.T.copy())
            return self._transpose

    # -- ring operations ---------------------------------------------------

    def __matmul__(self, other):
        if not isinstance(other, BicomplexMatrix):
            return NotImplemented
        self._check_compatible(other)
        return BicomplexMatrix(*self.matvec(other.z1, other.z2))

    def matvec(self, z1: np.ndarray, z2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (z1, z2) parts of the ring product with a vector or matrix given as its parts.

        Where the product overflows its parts are infinite or NaN, without
        numpy warnings: the constructors of kets and matrices raise NonFinite.
        """
        if z1.shape[0] != self.order:
            raise DimensionMismatch(f"vector length {z1.shape[0]} != order {self.order}")
        with np.errstate(over="ignore", invalid="ignore"):
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
        """The read-only pair (det A1, det A2), one batched LU on first use, then kept."""
        try:
            return self._dets
        except AttributeError:
            # an overflowing determinant is reported by the callers, not as a numpy warning
            with np.errstate(over="ignore", invalid="ignore"):
                dets = np.linalg.det(self.components)
            dets.setflags(write=False)
            self._dets = dets
            return dets

    def det(self) -> Bicomplex:
        """Determinant via the component determinants (LU under the hood).

        The component determinants are computed once per matrix and kept.
        Raises NonFinite, with both component moduli, when one overflows.
        """
        d1, d2 = self._component_dets()
        if not (np.isfinite(d1) and np.isfinite(d2)):
            moduli = tuple(np.abs([d1, d2]).tolist())
            raise NonFinite(f"determinant overflows: component moduli {moduli}")
        return Bicomplex.from_idempotent(d1, d2)

    def _classify_det(self, tol: Tolerance = DEFAULT_TOLERANCE) -> Classification:
        """``det().classify(tol)``, also when a component determinant is not normal.

        Both determinants are divided by the power of two of their largest
        part first, which is exact, so their recombination cannot
        overflow.  When one overflows, or is zero or subnormal, the moduli
        come from the ``slogdet`` log-moduli of the ket-scaled stack
        (``_ket_scaled``) as exp(l_k - max(l1, l2)): its column scales
        shift both log-moduli alike, an exactly singular component has
        log-modulus -inf and still vanishes, and one that only under- or
        overflowed does not.
        """
        d1, d2 = self._component_dets()
        if np.isfinite(d1) and np.isfinite(d2) and min(abs(d1), abs(d2)) >= _TINY:
            return Bicomplex.from_idempotent(*scaled_down((d1, d2))[0]).classify(tol)
        with np.errstate(over="ignore", invalid="ignore"):
            logs = np.linalg.slogdet(self._ket_scaled()).logabsdet
        if not (logs < math.inf).all():
            # the LU overflowed on a column left near the top of the double range:
            # the determinant is not finite either, and det raises NonFinite
            return self.det().classify(tol)
        if logs.max() == -math.inf:
            return Classification.ZERO
        return _CLASSIFICATIONS[null_cone_codes(np.exp(logs - logs.max()), tol.eps_null)]

    def is_singular(self, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        return self._classify_det(tol) is not Classification.INVERTIBLE

    def inverse(self, tol: Tolerance = DEFAULT_TOLERANCE) -> MatrixInverse:
        """Componentwise inverse, plus condition estimates for both components.

        The residual of A @ inv(A) scales with the reported conditions;
        callers decide how much accuracy to expect.  A condition estimate
        above 1/eps (or not finite) raises SingularMatrix: the matrix is
        numerically singular.  Both are computed on the component stack
        divided by the power of two of its largest part, and the inverse
        is scaled back exactly, so neither depends on where in the double
        range A lies; an inverse beyond that range raises NonFinite.  The
        singularity test under ``tol`` runs on every call; the inverse and
        the conditions are computed once per matrix and the same
        ``MatrixInverse`` is returned after that.
        """
        require_nonsingular(self, tol)
        try:
            return self._inverse
        except AttributeError:
            scaled, exponent = scaled_down(self.components)
            conds = np.linalg.cond(scaled)
            ill = tuple(k for k, cond in enumerate(conds, 1) if not cond <= _COND_LIMIT)
            if ill:
                raise SingularMatrix(ill, "reciprocal condition number is below machine epsilon")
            # inv(A / 2**k) = 2**k inv(A); an inverse that overflows is the constructor's NonFinite
            with np.errstate(over="ignore"):
                components, _ = scaled_down(np.linalg.inv(scaled), exponent)
            inverse = BicomplexMatrix.from_components(*components)
            self._inverse = MatrixInverse(inverse, *map(float, conds))
            return self._inverse

    def qr(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only QR factorizations (Q, R) of the ket-scaled component stack, ``(2, n, n)``.

        Each column is divided by its own power of two first
        (``_ket_scaled``), which is exact: Q is that of the components,
        column j of R is theirs divided by column j's power, and so the
        ratio of a ket's two pivots is theirs.  One batched LAPACK call on
        first use, then kept: ``gram_schmidt`` under the standard product
        reads its columns and pivot ratios from it.
        """
        try:
            return self._qr
        except AttributeError:
            q, r = np.linalg.qr(self._ket_scaled())
            q.setflags(write=False)
            r.setflags(write=False)
            self._qr = q, r
            return self._qr

    def _ket_scaled(self) -> np.ndarray:
        """The component stack with each column divided exactly by a power of two of its own.

        Column j, ket j of both components, is divided by 2**s_j with s_j
        the binary exponent of its largest part, lowered (to no less than
        0) where that would take its smallest nonzero part below the
        normal range.  So no part loses a bit, a column's largest part
        ends at most max(1, its own), and A * 2**k gives the stack of A
        unless a column of either spans more than the normal range.  The
        QR of X D, D a positive diagonal, has the Q of X, and its slogdet
        shifts both components' log-moduli alike.
        """
        parts = np.ascontiguousarray(self.components).view(float)
        moduli = np.abs(parts).reshape(2, self.order, self.order, 2)
        largest = np.frexp(moduli.max(axis=(0, 1, 3)))[1]
        smallest = np.frexp(np.where(moduli > 0, moduli, np.inf).min(axis=(0, 1, 3)))[1]
        # a part of binary exponent e stays normal when divided by 2**(e - frexp(_TINY)[1])
        shifts = np.minimum(largest, np.maximum(smallest - np.frexp(_TINY)[1], 0))
        return np.ldexp(parts, -np.repeat(shifts, 2)).view(complex)


# smallest normal modulus: below it a determinant has lost relative precision
_TINY = np.finfo(float).tiny
# largest condition estimate of an invertible component: 1/eps, as LAPACK's xGESVX
_COND_LIMIT = 1.0 / np.finfo(float).eps


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
