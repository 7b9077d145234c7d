"""Finite-dimensional free modules over the bicomplex ring.

A ket is a coefficient vector relative to a declared reference basis.
Splitting every coefficient along the idempotents turns one module
element into a pair of complex vectors, and a scalar product into a
pair of ordinary Hermitian inner products:

    (psi, phi) = <psi_1, phi_1>_G1 * e1 + <psi_2, phi_2>_G2 * e2,

linear in the second slot and conjugate (kind-3) symmetric.  With both
Gram matrices Hermitian positive definite, (psi, psi) always lands in
the positive hyperbolic cone, every ket outside the null cone can be
normalized, and any basis can be orthogonalized.  Gram-Schmidt runs as
one QR factorization per component (LAPACK, through numpy); the
recursion written directly in ring arithmetic is kept in
``reference.gram_schmidt_ring`` as the oracle the tests compare against.

Kets carry their basis label; mixing labels raises instead of silently
coercing.  All values are immutable and operations pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    DEFAULT_TOLERANCE,
    Bicomplex,
    BicomplexArray,
    BicomplexError,
    Classification,
    DimensionMismatch,
    Hyperbolic,
    KetClassification,
    Tolerance,
    as_bicomplex,
)
from .matrix import BicomplexMatrix, require_nonsingular

REFERENCE_BASIS = "canonical"

# residual bound used when verifying claimed-orthogonal inputs
ORTHOGONALITY_TOL = 1e-10


class BasisMismatch(BicomplexError):
    """Raised when kets from different bases meet in one operation."""


class NotABasis(BicomplexError):
    """Raised when a supposed basis fails linear independence."""


class NullConePivot(BicomplexError):
    """Raised when an orthogonalization pivot self-product degenerates.

    For an exact basis this cannot happen; numerically it signals that
    the input was not a basis within tolerance.
    """

    def __init__(self, index: int):
        super().__init__(f"self-product of orthogonalized ket {index} lies in the null cone")
        self.index = index


class NullConeKet(BicomplexError):
    """Raised when a null-cone (or zero) ket is normalized."""

    def __init__(self, classification: KetClassification):
        super().__init__(f"ket cannot be normalized: {classification.value}")
        self.classification = classification


class NonPositiveNorm(BicomplexError):
    """Raised if a self-product component is not positive (defensive)."""


class Ket(BicomplexArray):
    """A module element: bicomplex coefficients in a labelled basis."""

    __slots__ = ("basis_id",)
    ndim = 1

    def __init__(self, z1: np.ndarray, z2: np.ndarray, basis_id: str = REFERENCE_BASIS):
        super().__init__(z1, z2)
        self.basis_id = str(basis_id)

    def _new(self, z1: np.ndarray, z2: np.ndarray) -> Ket:
        return Ket(z1, z2, self.basis_id)

    @classmethod
    def from_coeffs(cls, coeffs: Sequence, basis_id: str = REFERENCE_BASIS) -> Ket:
        values = [as_bicomplex(c) for c in coeffs]
        return cls(
            np.array([w.z1 for w in values], dtype=complex),
            np.array([w.z2 for w in values], dtype=complex),
            basis_id,
        )

    @classmethod
    def standard(cls, dim: int, index: int, basis_id: str = REFERENCE_BASIS) -> Ket:
        z1 = np.zeros(dim, dtype=complex)
        z1[index] = 1.0
        return cls(z1, np.zeros(dim, dtype=complex), basis_id)

    @classmethod
    def zero(cls, dim: int, basis_id: str = REFERENCE_BASIS) -> Ket:
        return cls(np.zeros(dim, dtype=complex), np.zeros(dim, dtype=complex), basis_id)

    # -- views ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.z1.shape[0]

    def coeff(self, index: int) -> Bicomplex:
        return Bicomplex(self.z1[index], self.z2[index])

    def coeffs(self) -> list[Bicomplex]:
        return [self.coeff(i) for i in range(self.dim)]

    def sup_norm(self) -> float:
        return float(np.sqrt(np.abs(self.z1) ** 2 + np.abs(self.z2) ** 2).max())

    def classify(self, tol: Tolerance = DEFAULT_TOLERANCE) -> KetClassification:
        """Null-cone test: component k must vanish in every coefficient."""
        m1 = float(np.abs(self.component(1)).max())
        m2 = float(np.abs(self.component(2)).max())
        scale = max(m1, m2)
        if scale == 0.0:
            return KetClassification.ZERO
        if m1 <= tol.eps_null * scale:
            return KetClassification.NULL_CONE_1
        if m2 <= tol.eps_null * scale:
            return KetClassification.NULL_CONE_2
        return KetClassification.REGULAR

    # -- module structure -------------------------------------------------

    def _check_compatible(self, other: Ket):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions differ: {self.dim} vs {other.dim}")
        if self.basis_id != other.basis_id:
            raise BasisMismatch(f"bases differ: {self.basis_id!r} vs {other.basis_id!r}")

    def __eq__(self, other):
        if not isinstance(other, Ket):
            return NotImplemented
        return (
            self.basis_id == other.basis_id
            and np.array_equal(self.z1, other.z1)
            and np.array_equal(self.z2, other.z2)
        )

    def __repr__(self):
        return f"Ket(dim={self.dim}, basis_id={self.basis_id!r})"


class ScalarProductSpec:
    """A bicomplex scalar product, given by its two component Gram matrices.

    Any pair of Hermitian positive-definite complex matrices (G1, G2)
    defines a valid product; (I, I) is the standard one.  Cholesky
    factors are kept for the eigensolver reduction and Gram-Schmidt.
    """

    __slots__ = ("g1", "g2", "chol1", "chol2")

    def __init__(self, g1: np.ndarray, g2: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE):
        g1 = np.array(g1, dtype=complex)
        g2 = np.array(g2, dtype=complex)
        for name, g in (("G1", g1), ("G2", g2)):
            if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] == 0:
                raise ValueError(f"{name} must be a nonempty square matrix, got {g.shape}")
            scale = max(float(np.abs(g).max()), 1.0)
            if float(np.abs(g - g.conj().T).max()) > tol.eps_eq * scale:
                raise ValueError(f"{name} is not Hermitian within tolerance")
        if g1.shape != g2.shape:
            raise ValueError(f"Gram matrix shapes differ: {g1.shape} vs {g2.shape}")
        try:
            chol1 = np.linalg.cholesky(g1)
            chol2 = np.linalg.cholesky(g2)
        except np.linalg.LinAlgError as exc:
            raise ValueError("Gram matrices must be positive definite") from exc
        for arr in (g1, g2, chol1, chol2):
            arr.setflags(write=False)
        self.g1 = g1
        self.g2 = g2
        self.chol1 = chol1
        self.chol2 = chol2

    @classmethod
    def identity(cls, dim: int) -> ScalarProductSpec:
        eye = np.eye(dim, dtype=complex)
        return cls(eye, eye)

    @property
    def dim(self) -> int:
        return self.g1.shape[0]

    def gram(self, k: int) -> np.ndarray:
        if k == 1:
            return self.g1
        if k == 2:
            return self.g2
        raise ValueError(f"component index must be 1 or 2, got {k!r}")

    def cholesky(self, k: int) -> np.ndarray:
        return self.chol1 if k == 1 else self.chol2

    def is_closed_under_reference(self, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        """True when complex-coefficient kets always get complex products.

        Equivalent to the two Gram matrices coinciding; the property is
        tied to the reference basis.
        """
        scale = max(float(np.abs(self.g1).max()), float(np.abs(self.g2).max()), 1.0)
        return float(np.abs(self.g1 - self.g2).max()) <= tol.eps_eq * scale


class HyperbolicNorm(NamedTuple):
    """Self-product of a ket as a hyperbolic value, plus the flat norm.

    ``flat`` is sqrt((x1 + x2)/2), the norm of the underlying complex
    vector space of doubled dimension.
    """

    value: Hyperbolic
    flat: float


@dataclass(frozen=True)
class Basis:
    """n kets, expressed in a parent basis, that are linearly independent.

    Construction enforces what independence over the ring requires: the
    change-of-basis matrix is nonsingular and no member lies in the
    null cone.
    """

    id: str
    vectors: tuple[Ket, ...]
    tol: Tolerance = field(default=DEFAULT_TOLERANCE, compare=False)

    def __post_init__(self):
        vectors = tuple(self.vectors)
        object.__setattr__(self, "vectors", vectors)
        if not vectors:
            raise ValueError("a basis needs at least one ket")
        dim = vectors[0].dim
        parent = vectors[0].basis_id
        if len(vectors) != dim:
            raise NotABasis(f"{len(vectors)} kets cannot span a module of dimension {dim}")
        for ket in vectors:
            if ket.dim != dim or ket.basis_id != parent:
                raise NotABasis("basis kets must share dimension and parent basis")
        for index, ket in enumerate(vectors):
            if ket.classify(self.tol) is not KetClassification.REGULAR:
                raise NotABasis(f"ket {index} lies in the null cone")
        if coefficient_matrix(vectors).is_singular(self.tol):
            raise NotABasis("change-of-basis matrix is singular")

    @property
    def dim(self) -> int:
        return self.vectors[0].dim

    @property
    def parent_id(self) -> str:
        return self.vectors[0].basis_id


def coefficient_matrix(kets: Sequence[Ket]) -> BicomplexMatrix:
    """Matrix whose columns are the kets' coefficient vectors."""
    z1 = np.column_stack([k.z1 for k in kets])
    z2 = np.column_stack([k.z2 for k in kets])
    return BicomplexMatrix(z1, z2)


def row_kets(matrix: BicomplexMatrix, basis_id: str = REFERENCE_BASIS) -> list[Ket]:
    """Kets whose coefficient vectors are the matrix rows."""
    return [Ket(matrix.z1[i], matrix.z2[i], basis_id) for i in range(matrix.order)]


def scalar_product(spec: ScalarProductSpec, psi: Ket, phi: Ket) -> Bicomplex:
    """The bicomplex scalar product; linear in the second argument."""
    psi._check_compatible(phi)
    if psi.dim != spec.dim:
        raise DimensionMismatch(f"ket dimension {psi.dim} != spec dimension {spec.dim}")
    s1 = np.vdot(psi.component(1), spec.g1 @ phi.component(1))
    s2 = np.vdot(psi.component(2), spec.g2 @ phi.component(2))
    return Bicomplex.from_idempotent(complex(s1), complex(s2))


def ket_norm(spec: ScalarProductSpec, psi: Ket, tol: Tolerance = DEFAULT_TOLERANCE) -> HyperbolicNorm:
    value = Hyperbolic.from_bicomplex(scalar_product(spec, psi, psi), tol)
    flat = math.sqrt(max((value.x1 + value.x2) / 2.0, 0.0))
    return HyperbolicNorm(value, flat)


def normalize(spec: ScalarProductSpec, psi: Ket, tol: Tolerance = DEFAULT_TOLERANCE) -> Ket:
    """Rescale so the self-product is exactly one.

    The factor is e1/sqrt(a) + e2/sqrt(b) for self-product a*e1 + b*e2,
    which exists precisely because psi is outside the null cone.
    """
    classification = psi.classify(tol)
    if classification is not KetClassification.REGULAR:
        raise NullConeKet(classification)
    c1, c2 = scalar_product(spec, psi, psi).to_idempotent()
    a, b = c1.real, c2.real
    if a <= 0.0 or b <= 0.0:
        raise NonPositiveNorm(f"self-product components ({a!r}, {b!r}) must be positive")
    return psi.scale(Bicomplex.from_idempotent(1.0 / math.sqrt(a), 1.0 / math.sqrt(b)))


def gram_schmidt(
    spec: ScalarProductSpec, kets: Sequence[Ket], tol: Tolerance = DEFAULT_TOLERANCE
) -> list[Ket]:
    """Orthonormalize a basis under the given scalar product.

    The bicomplex recursion is two complex Gram-Schmidt runs, one per
    component.  With G_k = L L^H and the input kets as the columns of
    X_k, run k is the QR factorization L^H X_k = Q_k R_k with diag(R_k)
    made positive real; the output is L^{-H} Q_k.  Before normalization
    ket i has self-product |R1_ii|^2 e1 + |R2_ii|^2 e2, which must be
    invertible.
    """
    kets = list(kets)
    if len(kets) != spec.dim:
        raise DimensionMismatch(f"expected {spec.dim} kets, got {len(kets)}")
    for ket in kets[1:]:
        kets[0]._check_compatible(ket)
    matrix = coefficient_matrix(kets)
    if matrix.is_singular(tol):
        raise NotABasis("input kets do not form a basis")

    columns, self_products = [], []
    for k in (1, 2):
        chol_h = spec.cholesky(k).conj().T
        q, r = np.linalg.qr(chol_h @ matrix.component(k))
        pivots = np.diagonal(r)
        self_products.append(np.abs(pivots) ** 2)
        columns.append(np.linalg.solve(chol_h, q * np.exp(1j * np.angle(pivots))))
    for index, (a, b) in enumerate(zip(*self_products)):
        if Bicomplex.from_idempotent(a, b).classify(tol) is not Classification.INVERTIBLE:
            raise NullConePivot(index)
    out1, out2 = columns
    return [Ket.from_components(out1[:, i], out2[:, i], kets[0].basis_id) for i in range(len(kets))]


def mix_orthogonal_bases(
    spec: ScalarProductSpec,
    kets: Sequence[Ket],
    permutation: Sequence[int],
    basis_id: str | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Basis:
    """Build a new orthogonal basis by permuting the e2 projections.

    Taking component 1 of ket l together with component 2 of ket
    sigma(l) keeps orthogonality, so n! distinct orthogonal bases arise
    from a single orthogonal one.  The output is verified.
    """
    kets = list(kets)
    n = len(kets)
    if sorted(permutation) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {list(permutation)!r}")
    parent = kets[0].basis_id
    mixed = [
        Ket.from_components(kets[l].component(1), kets[permutation[l]].component(2), parent)
        for l in range(n)
    ]
    scale = max(ket.sup_norm() for ket in mixed) ** 2
    for i in range(n):
        for j in range(i + 1, n):
            residual = scalar_product(spec, mixed[i], mixed[j]).euclid_norm()
            if residual > ORTHOGONALITY_TOL * max(1.0, scale):
                raise NotABasis("input kets were not orthogonal: mix is not orthogonal either")
    if basis_id is None:
        basis_id = f"{parent}/mix-" + "-".join(str(i) for i in permutation)
    return Basis(basis_id, tuple(mixed), tol)


def riesz_representation(
    spec: ScalarProductSpec, values: Sequence, basis_id: str = REFERENCE_BASIS
) -> Ket:
    """The unique ket whose scalar products reproduce a linear functional.

    ``values`` lists the functional on the reference basis kets; the
    component vectors solve one conjugated Gram system each.
    """
    coeffs = [as_bicomplex(v) for v in values]
    if len(coeffs) != spec.dim:
        raise DimensionMismatch(f"expected {spec.dim} functional values, got {len(coeffs)}")
    functional = Ket.from_coeffs(coeffs)
    parts = [np.conj(np.linalg.solve(spec.gram(k).T, functional.component(k))) for k in (1, 2)]
    return Ket.from_components(*parts, basis_id)


def change_basis(
    psi: Ket,
    transform: BicomplexMatrix,
    new_basis_id: str | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Ket:
    """Re-express a ket in the basis whose members are the transform columns.

    Column l of the transform holds the new basis ket l written in the
    current basis, so coefficients change by the inverse action, solved
    per component.
    """
    if new_basis_id is None:
        new_basis_id = psi.basis_id + "'"
    if transform.order != psi.dim:
        raise DimensionMismatch(f"transform order {transform.order} != ket dimension {psi.dim}")
    require_nonsingular(transform, tol)
    parts = [np.linalg.solve(transform.component(k), psi.component(k)) for k in (1, 2)]
    return Ket.from_components(*parts, new_basis_id)


def project_basis(basis: Basis, k: int) -> list[np.ndarray]:
    """Complex component vectors of the basis kets; checked to have full rank."""
    vectors = [ket.component(k) for ket in basis.vectors]
    if np.linalg.matrix_rank(np.column_stack(vectors)) != basis.dim:
        raise NotABasis(f"component {k} projections are linearly dependent")
    return vectors
