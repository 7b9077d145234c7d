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
both components.  Gram-Schmidt is one batched QR factorization, which
the tests check against the ring-arithmetic recursion of
``gram_schmidt_ring`` in ``tests/oracles.py``, and its basis stays
stacked as ``KetColumns``.  The standard product (I, I) is one kept spec
per order (``ScalarProductSpec.identity``); under it Gram-Schmidt skips
the Cholesky route and reads the QR that the kets' coefficient matrix
keeps along with its determinants, inverse and transpose
(``BicomplexMatrix.qr``).

Kets carry their basis label; mixing labels raises instead of silently
coercing.  All values are immutable and operations pure.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .core import (
    _KET_CLASSIFICATIONS,
    DEFAULT_TOLERANCE,
    Bicomplex,
    BicomplexArray,
    BicomplexError,
    DimensionMismatch,
    Hyperbolic,
    KetClassification,
    SlottedValue,
    Tolerance,
    as_bicomplex,
    entry_norms,
    null_cone_codes,
    parts_from_components,
    scaled_down,
    stack_components,
    within,
)
from .matrix import BicomplexMatrix

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

    def classify(self, tol: Tolerance = DEFAULT_TOLERANCE) -> KetClassification:
        """Null-cone test: component k must vanish in every coefficient."""
        moduli = np.abs(self.components).max(axis=1)
        return _KET_CLASSIFICATIONS[null_cone_codes(moduli, tol.eps_null)]

    def scaled_down(self) -> Ket:
        """This ket divided exactly by the power of two of its largest part."""
        (z1, z2), _ = scaled_down((self.z1, self.z2))
        return Ket(z1, z2, self.basis_id)

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
    ``standard`` is true only for the kept specs of ``identity``.
    """

    __slots__ = ("grams", "chols", "standard")

    def __init__(self, g1: np.ndarray, g2: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE):
        g1 = np.asarray(g1, dtype=complex)
        g2 = np.asarray(g2, dtype=complex)
        for name, g in (("G1", g1), ("G2", g2)):
            if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] == 0:
                raise ValueError(f"{name} must be a nonempty square matrix, got {g.shape}")
        if g1.shape != g2.shape:
            raise ValueError(f"Gram matrix shapes differ: {g1.shape} vs {g2.shape}")
        grams = np.stack([g1, g2])
        for name, defect in zip(("G1", "G2"), hermitian_defect(grams)):
            if not within(defect, tol.eps_eq):
                raise ValueError(f"{name} is not Hermitian within tolerance")
        try:
            chols = np.linalg.cholesky(grams)
        except np.linalg.LinAlgError as exc:
            raise ValueError("Gram matrices must be positive definite") from exc
        grams.setflags(write=False)
        chols.setflags(write=False)
        self.grams = grams
        self.chols = chols
        self.standard = False

    @classmethod
    def identity(cls, dim: int) -> ScalarProductSpec:
        """The standard product (I, I) of order ``dim``: one kept spec per order.

        The specs of the 8 most recently used orders are kept, read-only.
        ``gram_schmidt`` under one skips the Cholesky route, whose product
        and solve against L = I change nothing.
        """
        return _standard_spec(dim)

    @property
    def dim(self) -> int:
        return self.grams.shape[-1]

    def is_closed_under_reference(self, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        """True when complex-coefficient kets always get complex products.

        Equivalent to the two Gram matrices coinciding; the property is
        tied to the reference basis.
        """
        # on both divided by one power of two, so the difference cannot overflow
        grams, _ = scaled_down(self.grams)
        return within(np.abs(grams[0] - grams[1]).max(), tol.eps_eq, np.abs(grams).max())


def hermitian_defect(grams: np.ndarray) -> np.ndarray:
    """max|G - G^H| / max|G| of each Gram matrix of a stack; a zero G reads 0.

    Relative to max|G| alone, so G and 2^k G are Hermitian together; taken
    on each G divided by the power of two of its largest part
    (``scaled_down``), which is exact, so neither the difference nor its
    modulus overflows.
    """
    scaled = np.stack([scaled_down(gram)[0] for gram in grams])
    scales = np.abs(scaled).max(axis=(-2, -1))
    defects = np.abs(scaled - scaled.conj().mT).max(axis=(-2, -1))
    return defects / np.where(scales > 0, scales, 1.0)


@functools.lru_cache(maxsize=8)
def _standard_spec(dim: int) -> ScalarProductSpec:
    eye = np.eye(dim, dtype=complex)
    spec = ScalarProductSpec(eye, eye)
    spec.standard = True
    return spec


class Basis(SlottedValue):
    """n kets, expressed in a parent basis, that are linearly independent.

    Construction enforces what independence over the ring requires: the
    change-of-basis matrix is nonsingular and no member lies in the
    null cone.  Equality compares ``id`` and ``vectors``.
    """

    __slots__ = ("id", "vectors", "tol")

    def __init__(self, id: str, vectors: Sequence[Ket], tol: Tolerance = DEFAULT_TOLERANCE):
        self.id = id
        self.vectors = vectors = tuple(vectors)
        self.tol = tol
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

    def _key(self) -> tuple:
        return self.id, self.vectors

    @property
    def dim(self) -> int:
        return self.vectors[0].dim


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
    # the kept transposed copy: its columns are laid out as a stacked ket list would
    # be, and its determinants serve gram_schmidt's singularity test
    return KetColumns(matrix.transpose(), basis_id)


def scalar_product(spec: ScalarProductSpec, psi: Ket, phi: Ket) -> Bicomplex:
    """The bicomplex scalar product; linear in the second argument."""
    psi._check_compatible(phi)
    if psi.dim != spec.dim:
        raise DimensionMismatch(f"ket dimension {psi.dim} != spec dimension {spec.dim}")
    s1, s2 = _gram_products(psi.components, spec.grams, phi.components)
    return Bicomplex.from_idempotent(s1, s2)


def _gram_products(a: np.ndarray, grams: np.ndarray | None, b: np.ndarray) -> np.ndarray:
    """The products a^H G b (``np.vecdot``), G skipped when None.

    Where one leaves the double range it is inf or NaN, which the callers
    report as NonFinite, without numpy warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.vecdot(a, b if grams is None else np.matvec(grams, b))


def gram_defects(spec: ScalarProductSpec, vectors: np.ndarray) -> np.ndarray:
    """Entry norms of the matrix (phi_i, phi_j) - delta_ij of m kets, Euclidean norm.

    ``vectors`` stacks the kets' component vectors V_k as columns, (2, n, m),
    and the matrix is one Gram product V_k^H G_k V_k - I per component:
    every orthogonality test reads it from here.
    """
    if vectors.shape[1] != spec.dim:
        raise DimensionMismatch(f"ket dimension {vectors.shape[1]} != spec dimension {spec.dim}")
    # a product beyond the double range is an infinite or NaN residual, a failing test
    with np.errstate(over="ignore", invalid="ignore"):
        defects = vectors.conj().mT @ spec.grams @ vectors - np.eye(vectors.shape[-1])
    return entry_norms(*parts_from_components(*defects))


def ket_norms(
    spec: ScalarProductSpec, z1: np.ndarray, z2: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[np.ndarray, np.ndarray]:
    """Self-products (x1, x2) of the kets whose coefficient vectors are the rows of (z1, z2).

    Row by row this is the arithmetic of
    ``Hyperbolic.from_bicomplex(scalar_product(spec, psi, psi), tol)``,
    so the coordinates agree with it bit for bit; the first row it would
    reject raises the same error.  Under the kept standard spec the
    product by I is skipped.
    """
    if z1.shape[-1] != spec.dim:
        raise DimensionMismatch(f"ket dimension {z1.shape[-1]} != spec dimension {spec.dim}")
    # contiguous rows: a strided row is summed in a different order
    rows = np.ascontiguousarray(stack_components(z1, z2))
    s1, s2 = _gram_products(rows, None if spec.standard else spec.grams[:, None], rows)
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
    # the same unit ket, exactly, from a self-product that does not under- or
    # overflow with the ket's scale
    psi = psi.scaled_down()
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
    matrix.  L is first divided exactly by the power of two of its
    largest part, and each column of X_k, one ket shared by both
    components, by a power of two of its own
    (``BicomplexMatrix._ket_scaled``): that leaves Q_k as it is, scales
    the columns of R_k and not the ratio of a ket's two pivots, and
    overflows only where the unscaled QR does.  Under the kept standard
    spec L = I, so the product and the solve are skipped and the QR is
    the one the coefficient matrix keeps (``BicomplexMatrix.qr``); the
    pivot test and the phase fix-up below still run on every call.
    Before normalization ket i has self-product |R1_ii|^2 e1 + |R2_ii|^2
    e2, which must be invertible.  Its null-cone test runs on the pivot
    moduli divided by the power of two of the larger one before they are
    squared: the division is exact, so the test is the one on the
    squares wherever those are normal, and the squares do not depend on
    the scale of the kets or the spec.
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

    if spec.standard:
        q, r = kets.matrix.qr()
    else:
        # L / 2**k and each ket by its own power of two, exact: Q does not depend
        # on either scale, and the output under- or overflows only where L^-H Q does
        chol_h, exponent = scaled_down(spec.chols.conj().mT)
        q, r = np.linalg.qr(chol_h @ kets.matrix._ket_scaled())
    pivots = np.diagonal(r, axis1=1, axis2=2)
    moduli = np.abs(pivots)
    # Bicomplex.from_idempotent(a, b).classify(tol) for every pivot self-product
    # a e1 + b e2 at once, on the moduli divided by a power of two per pivot
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = np.ldexp(moduli, -np.frexp(moduli.max(axis=0))[1]) ** 2
        round_trip = stack_components(*parts_from_components(a, b))
        codes = null_cone_codes(np.abs(round_trip), tol.eps_null)
        # the phase of each pivot, exactly -1 for a negative real one, with pivot
        # and modulus first divided exactly by the modulus's power of two: the
        # complex division forms 1/modulus, which overflows where that is
        # subnormal; a zero pivot gives NaN columns, which its test rejects
        shifts = -np.frexp(moduli)[1]
        parts = np.ldexp(np.ascontiguousarray(pivots).view(float), np.repeat(shifts, 2, axis=-1))
        columns = q * (parts.view(complex) / np.ldexp(moduli, shifts))[:, None]
    rejected = codes != 3
    if rejected.any():
        raise NullConePivot(int(np.argmax(rejected)))
    if not spec.standard:
        columns, _ = scaled_down(np.linalg.solve(chol_h, columns), exponent)
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
        Ket.from_components(kets[l].components[0], kets[permutation[l]].components[1], parent)
        for l in range(n)
    ]
    # the cross products (phi_i, phi_j), i < j, of the mixed kets
    vectors = np.stack([ket.components for ket in mixed], axis=-1)
    residual = float(np.triu(gram_defects(spec, vectors), 1).max())
    scale = max(1.0, *(ket.max_norm() for ket in mixed))
    if not within(residual, ORTHOGONALITY_TOL, scale, scale):
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
