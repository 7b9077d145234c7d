"""Finite-dimensional free modules over the bicomplex ring.

A ket is a coefficient vector relative to a declared reference basis.
Splitting every coefficient along the idempotents turns one module
element into a pair of complex vectors, and a scalar product into a
pair of ordinary Hermitian inner products:

    (psi, phi) = <psi_1, phi_1>_G1 * e1 + <psi_2, phi_2>_G2 * e2,

linear in the second slot and conjugate (kind-3) symmetric.  With both
Gram matrices Hermitian positive definite, (psi, psi) always lands in
the positive hyperbolic cone, every ket outside the null cone can be
normalized, and any basis can be orthogonalized.  A scalar-product spec
holds its Gram matrices and their Cholesky factors as ``(2, n, n)``
stacks, matching the component stacks of kets and matrices, so each
product, solve and factorization below is one batched numpy call over
both components.  Gram-Schmidt is one batched QR factorization (LAPACK,
through numpy); the recursion written directly in ring arithmetic is
kept in ``reference.gram_schmidt_ring`` as the oracle the tests compare
against.  Its basis stays stacked: ``KetColumns`` holds the kets as the
columns of one coefficient matrix, from the rows ``row_kets`` takes to
the QR, the pivot test, the null-cone count and the printed rows, and
builds a ``Ket`` only when one is indexed.

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
    DimensionMismatch,
    Hyperbolic,
    KetClassification,
    Tolerance,
    as_bicomplex,
    component_index,
    parts_from_components,
    stack_components,
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
        m1, m2 = (float(m) for m in np.abs(self.components).max(axis=1))
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
    defines a valid product; (I, I) is the standard one.  ``grams`` is
    the read-only stack (G1, G2) and ``chols`` the stack of their lower
    Cholesky factors, kept for the eigensolver reduction and Gram-Schmidt.
    """

    __slots__ = ("grams", "chols")

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
        grams = np.stack([g1, g2])
        try:
            chols = np.linalg.cholesky(grams)
        except np.linalg.LinAlgError as exc:
            raise ValueError("Gram matrices must be positive definite") from exc
        grams.setflags(write=False)
        chols.setflags(write=False)
        self.grams = grams
        self.chols = chols

    @classmethod
    def identity(cls, dim: int) -> ScalarProductSpec:
        eye = np.eye(dim, dtype=complex)
        return cls(eye, eye)

    @property
    def dim(self) -> int:
        return self.grams.shape[-1]

    def gram(self, k: int) -> np.ndarray:
        return self.grams[component_index(k)]

    def cholesky(self, k: int) -> np.ndarray:
        return self.chols[component_index(k)]

    def is_closed_under_reference(self, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        """True when complex-coefficient kets always get complex products.

        Equivalent to the two Gram matrices coinciding; the property is
        tied to the reference basis.
        """
        g1, g2 = self.grams
        scale = max(float(np.abs(self.grams).max()), 1.0)
        return float(np.abs(g1 - g2).max()) <= tol.eps_eq * scale


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


class KetColumns(Sequence):
    """n kets kept as the columns of one n-by-n coefficient matrix, in one basis.

    An index builds one :class:`Ket` (column ``index`` of ``matrix``), a
    slice a list of them; ``coefficient_matrix`` hands back ``matrix``
    itself.
    """

    __slots__ = ("matrix", "basis_id")

    def __init__(self, matrix: BicomplexMatrix, basis_id: str = REFERENCE_BASIS):
        self.matrix = matrix
        self.basis_id = str(basis_id)

    def __len__(self) -> int:
        return self.matrix.order

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        return Ket(self.matrix.z1[:, index], self.matrix.z2[:, index], self.basis_id)


def coefficient_matrix(kets: Sequence[Ket]) -> BicomplexMatrix:
    """Matrix whose columns are the kets' coefficient vectors."""
    if isinstance(kets, KetColumns):
        return kets.matrix
    return BicomplexMatrix(*np.stack([[k.z1, k.z2] for k in kets], axis=-1))


def row_kets(matrix: BicomplexMatrix, basis_id: str = REFERENCE_BASIS) -> KetColumns:
    """Kets whose coefficient vectors are the matrix rows."""
    # transpose copies, so the columns are laid out as a stacked ket list would be
    return KetColumns(matrix.transpose(), basis_id)


def scalar_product(spec: ScalarProductSpec, psi: Ket, phi: Ket) -> Bicomplex:
    """The bicomplex scalar product; linear in the second argument."""
    psi._check_compatible(phi)
    if psi.dim != spec.dim:
        raise DimensionMismatch(f"ket dimension {psi.dim} != spec dimension {spec.dim}")
    s1, s2 = np.vecdot(psi.components, np.matvec(spec.grams, phi.components))
    return Bicomplex.from_idempotent(s1, s2)


def ket_norm(spec: ScalarProductSpec, psi: Ket, tol: Tolerance = DEFAULT_TOLERANCE) -> HyperbolicNorm:
    value = Hyperbolic.from_bicomplex(scalar_product(spec, psi, psi), tol)
    flat = math.sqrt(max((value.x1 + value.x2) / 2.0, 0.0))
    return HyperbolicNorm(value, flat)


def ket_norms(
    spec: ScalarProductSpec, z1: np.ndarray, z2: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[np.ndarray, np.ndarray]:
    """Self-products (x1, x2) of the kets whose coefficient vectors are the rows of (z1, z2).

    Row by row this is the arithmetic of
    ``Hyperbolic.from_bicomplex(scalar_product(spec, psi, psi), tol)``,
    so the coordinates agree with it bit for bit; the first row it would
    reject raises the same error.
    """
    if z1.shape[-1] != spec.dim:
        raise DimensionMismatch(f"ket dimension {z1.shape[-1]} != spec dimension {spec.dim}")
    # contiguous rows: a strided row is summed in a different order
    rows = np.ascontiguousarray(stack_components(z1, z2))
    s1, s2 = np.vecdot(rows, np.matvec(spec.grams[:, None], rows))
    # Bicomplex.from_idempotent, then Bicomplex.to_idempotent
    w1, w2 = parts_from_components(s1, s2)
    c1, c2 = stack_components(w1, w2)
    scale = np.maximum(np.maximum(np.abs(c1), np.abs(c2)), 1.0)
    rejected = ~(np.isfinite(c1) & np.isfinite(c2))
    rejected |= np.maximum(np.abs(c1.imag), np.abs(c2.imag)) > tol.eps_eq * scale
    if rejected.any():
        # the scalar path raises its own error, message included, for that row
        i = int(np.argmax(rejected))
        Hyperbolic.from_bicomplex(Bicomplex(w1[i], w2[i]), tol)
    return c1.real, c2.real


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
) -> KetColumns:
    """Orthonormalize a basis under the given scalar product.

    The bicomplex recursion is two complex Gram-Schmidt runs, one per
    component.  With G_k = L L^H and the input kets as the columns of
    X_k, run k is the QR factorization L^H X_k = Q_k R_k with diag(R_k)
    made positive real; the output is L^{-H} Q_k, one coefficient
    matrix.  Before normalization ket i has self-product
    |R1_ii|^2 e1 + |R2_ii|^2 e2, which must be invertible.
    """
    if not isinstance(kets, KetColumns):
        kets = list(kets)
    if len(kets) != spec.dim:
        raise DimensionMismatch(f"expected {spec.dim} kets, got {len(kets)}")
    if not isinstance(kets, KetColumns):
        for ket in kets[1:]:
            kets[0]._check_compatible(ket)
        kets = KetColumns(coefficient_matrix(kets), kets[0].basis_id)
    if kets.matrix.is_singular(tol):
        raise NotABasis("input kets do not form a basis")

    chol_h = spec.chols.conj().mT
    q, r = np.linalg.qr(chol_h @ kets.matrix.components)
    pivots = np.diagonal(r, axis1=1, axis2=2)
    # Bicomplex.from_idempotent(a, b).classify(tol), for every pivot at once; an
    # overflow shows as a non-finite scale and is raised below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = np.abs(pivots) ** 2
        m1, m2 = np.abs(stack_components(*parts_from_components(a, b)))
    scale = np.maximum(m1, m2)
    rejected = ~np.isfinite(scale) | (m1 <= tol.eps_null * scale) | (m2 <= tol.eps_null * scale)
    if rejected.any():
        index = int(np.argmax(rejected))
        # the scalar path raises its own NonFinite for a pivot that overflows
        Bicomplex.from_idempotent(a[index], b[index]).to_idempotent()
        raise NullConePivot(index)
    columns = np.linalg.solve(chol_h, q * np.exp(1j * np.angle(pivots))[:, None])
    return KetColumns(BicomplexMatrix.from_components(*columns), kets.basis_id)


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
    parts = np.linalg.solve(spec.grams.mT, functional.components[..., None])[..., 0]
    return Ket.from_components(*np.conj(parts), basis_id)


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
    parts = np.linalg.solve(transform.components, psi.components[..., None])[..., 0]
    return Ket.from_components(*parts, new_basis_id)


def project_basis(basis: Basis, k: int) -> list[np.ndarray]:
    """Complex component vectors of the basis kets; checked to have full rank."""
    vectors = [ket.component(k) for ket in basis.vectors]
    if np.linalg.matrix_rank(np.column_stack(vectors)) != basis.dim:
        raise NotABasis(f"component {k} projections are linearly dependent")
    return vectors
