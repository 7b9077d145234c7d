"""Linear operators on the module: adjoints, spectra, evolution.

An operator is a bicomplex matrix in a declared basis.  Everything
spectral reduces to the two complex component matrices, which each step
below takes as the matrix's ``(2, n, n)`` component stack in one batched
numpy call: an operator is self-adjoint (unitary) exactly when both
components are Hermitian (unitary) with respect to their Gram matrices,
eigenvalue problems decouple into two complex ones, and

    f(A) = f1(A1)*e1 + f2(A2)*e2,    exp(A) = exp(A1)*e1 + exp(A2)*e2.

Self-adjoint operators admit an orthonormal eigenket basis with
hyperbolic eigenvalues and the rank-one expansion
H = sum_l lambda_l |phi_l><phi_l|; exp(i1*H) is unitary, and
U(t, t0) = exp(-i1*(t - t0)*H / hbar) propagates the time-independent
Schroedinger dynamics while conserving every self-product.  Evolution
runs on that expansion: the generator is diagonalized once per call,
and every sample time costs one phase vector, so the propagator is
unitary to rounding however long the window.  ``op_exp`` (scaling and
squaring) is kept as the independent route that tests compare it with.

Component eigenproblems are reduced to standard Hermitian ones through
the Cholesky factors of the Gram matrices and handed to LAPACK
(one ``numpy.linalg.eigh`` for both components); a unitary component is
diagonalized by one ``eigh`` of a generic real combination of its
commuting Hermitian and skew-Hermitian parts, with any cluster that
combination leaves coupled split by the Hermitian part, one component
at a time since the clusters differ.  Any pairing of component
eigenpairs is algebraically valid; the canonical output sorts
self-adjoint spectra ascending by real part and unitary spectra by
phase angle, index to index.  Both decompositions return an
``Eigensystem``, stacked from ``eigh`` through the reconstruction
(V diag(lambda) V^H G_k) and the checks; indexing builds an ``EigenPair``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DEFAULT_TOLERANCE,
    Bicomplex,
    BicomplexArray,
    BicomplexError,
    Classification,
    DimensionMismatch,
    NonFinite,
    ONE,
    Tolerance,
    as_bicomplex,
    approx_eq,
    parts_from_components,
    stack_components,
)
from .hilbert import BasisMismatch, Ket, ScalarProductSpec, scalar_product
from .matrix import BicomplexMatrix

__all__ = [
    "EigenPair",
    "Eigensystem",
    "EvolutionConfig",
    "InvalidXi",
    "NoConvergence",
    "NotSelfAdjoint",
    "NotUnitary",
    "Operator",
    "OrthogonalityRecord",
    "OrthogonalityReport",
    "SeriesDivergence",
    "adjoint",
    "compose",
    "conjugate_by_basis",
    "eigendecompose_self_adjoint",
    "eigendecompose_unitary",
    "eigenket_orthogonality_check",
    "evolution_operator",
    "evolve_samples",
    "evolve_series",
    "is_self_adjoint",
    "is_unitary",
    "op_exp",
    "op_exp_spectral",
    "op_function",
    "outer_product",
    "schrodinger_residual",
    "spectral_reconstruct",
]

# weight of the skew-Hermitian part in the one Hermitian matrix whose
# eigenvectors diagonalize a unitary component; any irrational value
# separates all eigenvalues except pairs mirrored about the direction
# (1, NORMAL_MIX) in the complex plane, which the Hermitian part splits
NORMAL_MIX = (math.sqrt(5.0) - 1.0) / 2.0


class NotSelfAdjoint(BicomplexError):
    """Raised when an operation requires a self-adjoint operator."""


class NotUnitary(BicomplexError):
    """Raised when an operation requires a unitary operator."""


class InvalidXi(BicomplexError):
    """Raised for a left-hand constant that is not real-componented and invertible."""


class NoConvergence(BicomplexError):
    """Raised when a unitary component is left with off-diagonal residue.

    This happens when the input is not normal enough for a common
    eigenbasis.
    """


class SeriesDivergence(BicomplexError):
    """Raised when operator series terms fail to decay within the step cap."""


@dataclass(frozen=True)
class Operator:
    """Matrix representation of a linear operator in a labelled basis."""

    matrix: BicomplexMatrix
    basis_id: str = "canonical"

    @property
    def dim(self) -> int:
        return self.matrix.order

    @classmethod
    def identity(cls, dim: int, basis_id: str = "canonical") -> Operator:
        return cls(BicomplexMatrix.identity(dim), basis_id)

    # operators combine like kets: same dimension and basis label, any
    # bicomplex (or scalar) factor
    _check_compatible = Ket._check_compatible
    __mul__ = __rmul__ = BicomplexArray.__mul__

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._check_compatible(other)
        return Operator(self.matrix + other.matrix, self.basis_id)

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._check_compatible(other)
        return Operator(self.matrix - other.matrix, self.basis_id)

    def __matmul__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return compose(self, other)

    def scale(self, factor) -> Operator:
        return Operator(self.matrix.scale(factor), self.basis_id)

    def apply(self, psi: Ket) -> Ket:
        if psi.dim != self.dim:
            raise DimensionMismatch(f"ket dimension {psi.dim} != operator dimension {self.dim}")
        if psi.basis_id != self.basis_id:
            raise BasisMismatch(f"bases differ: {self.basis_id!r} vs {psi.basis_id!r}")
        z1, z2 = self.matrix.matvec(psi.z1, psi.z2)
        return Ket(z1, z2, self.basis_id)


@dataclass(frozen=True)
class EigenPair:
    """An eigenvalue with a (non-null-cone) eigenket."""

    value: Bicomplex
    ket: Ket


class Eigensystem(Sequence):
    """Eigenpairs kept as arrays; an index builds one :class:`EigenPair`, a slice an Eigensystem.

    ``values`` stacks the (z1, z2) parts of the m eigenvalues, shape (2, m),
    and ``kets`` those of the eigenkets, shape (2, n, m), ket l in column l;
    ``value_components`` and ``ket_components`` split them along e1/e2.
    """

    def __init__(self, values: np.ndarray, kets: np.ndarray, basis_id: str):
        self.values, self.kets, self.basis_id = values, kets, basis_id
        if not (np.isfinite(values).all() and np.isfinite(kets).all()):
            list(self)  # raises the NonFinite of the first pair that has a non-finite part
        self.value_components = stack_components(*values)
        self.ket_components = stack_components(*kets)

    @classmethod
    def of(cls, pairs: Sequence[EigenPair]) -> Eigensystem:
        """Nonempty eigenpairs as one eigensystem; an eigensystem is returned as it is."""
        if isinstance(pairs, cls):
            return pairs
        kets = [pair.ket for pair in pairs]
        for ket in kets[1:]:
            kets[0]._check_compatible(ket)
        values = np.array([[pair.value.z1, pair.value.z2] for pair in pairs]).T
        return cls(values, np.stack([[ket.z1, ket.z2] for ket in kets], axis=-1), kets[0].basis_id)

    def __len__(self) -> int:
        return self.values.shape[1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Eigensystem(self.values[:, index], self.kets[..., index], self.basis_id)
        (z1, z2), (k1, k2) = self.values[:, index], self.kets[..., index]
        return EigenPair(Bicomplex(z1, z2), Ket(k1, k2, self.basis_id))


def compose(a: Operator, b: Operator) -> Operator:
    """The operator acting as a after b; its matrix is the product."""
    a._check_compatible(b)
    return Operator(a.matrix @ b.matrix, a.basis_id)


def conjugate_by_basis(
    a: Operator,
    transform: BicomplexMatrix,
    new_basis_id: str | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Operator:
    """Representation of the same operator in the transform's column basis.

    Column l of the transform expresses new basis ket l in the current
    basis; the matrix becomes inv(L) @ A @ L, leaving the spectrum
    untouched.
    """
    if transform.order != a.dim:
        raise DimensionMismatch(f"transform order {transform.order} != operator dimension {a.dim}")
    inverse = transform.inverse(tol).matrix
    if new_basis_id is None:
        new_basis_id = a.basis_id + "'"
    return Operator(inverse @ a.matrix @ transform, new_basis_id)


def adjoint(spec: ScalarProductSpec, a: Operator) -> Operator:
    """The unique operator with (psi, A phi) = (adjoint(A) psi, phi).

    Componentwise inv(G_k) @ A_k^H @ G_k; for identity Gram matrices
    this is the conjugate transpose.
    """
    if spec.dim != a.dim:
        raise DimensionMismatch(f"spec dimension {spec.dim} != operator dimension {a.dim}")
    parts = np.linalg.solve(spec.grams, a.matrix.components.conj().mT @ spec.grams)
    return Operator(BicomplexMatrix.from_components(*parts), a.basis_id)


def is_self_adjoint(spec: ScalarProductSpec, a: Operator, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    residual = (adjoint(spec, a).matrix - a.matrix).max_norm()
    return residual <= tol.eps_eq * max(1.0, a.matrix.max_norm())


def is_unitary(spec: ScalarProductSpec, a: Operator, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    product = compose(adjoint(spec, a), a)
    residual = (product.matrix - BicomplexMatrix.identity(a.dim)).max_norm()
    return residual <= tol.eps_eq * max(1.0, a.matrix.max_norm() ** 2)


def outer_product(spec: ScalarProductSpec, phi: Ket, psi: Ket) -> Operator:
    """The rank-one operator sending chi to (psi, chi) * phi."""
    phi._check_compatible(psi)
    if phi.dim != spec.dim:
        raise DimensionMismatch(f"ket dimension {phi.dim} != spec dimension {spec.dim}")
    right = np.conj(np.matvec(spec.grams, psi.components))
    parts = phi.components[:, :, None] * right[:, None, :]
    return Operator(BicomplexMatrix.from_components(*parts), phi.basis_id)


def _cholesky_reduce(
    spec: ScalarProductSpec, matrix: BicomplexMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Both components as standard problems: the stacks (L^H A_k L^{-H}, L^{-H}).

    With G_k = L L^H, the reduced matrix is Hermitian (unitary) whenever
    A_k is G_k-self-adjoint (G_k-unitary), and back-transformed
    orthonormal eigenvectors L^{-H} Y are G_k-orthonormal.
    """
    chol_h = spec.chols.conj().mT
    inv_chol_h = np.linalg.inv(chol_h)
    return chol_h @ matrix.components @ inv_chol_h, inv_chol_h


def _hermitian_eigh(
    spec: ScalarProductSpec, matrix: BicomplexMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and G_k-orthonormal eigenvectors of both components, stacked."""
    reduced, inv_chol_h = _cholesky_reduce(spec, matrix)
    # eigh reads one triangle; averaging keeps both halves of a matrix
    # that is Hermitian only to rounding
    values, vectors = np.linalg.eigh(0.5 * (reduced + reduced.conj().mT))
    return values, inv_chol_h @ vectors


def _coupled_clusters(transformed: np.ndarray, threshold: float) -> list[np.ndarray]:
    """Runs of consecutive indices joined by off-diagonal entries above threshold."""
    n = transformed.shape[0]
    rows, cols = np.nonzero(np.abs(np.triu(transformed, 1)) > threshold)
    reach = np.arange(n)
    np.maximum.at(reach, rows, cols)
    reach = np.maximum.accumulate(reach)
    ends = np.flatnonzero(reach == np.arange(n))[:-1] + 1
    return [cluster for cluster in np.split(np.arange(n), ends) if len(cluster) > 1]


def _component_unitary_eig(
    reduced: np.ndarray, inv_chol_h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (by phase angle) and G_k-orthonormal eigenvectors of one reduced component.

    The Hermitian and skew parts of a normal matrix commute, so the
    eigenvectors of herm + NORMAL_MIX * skew diagonalize both (Bunse-
    Gerstner, Byers & Mehrmann 1993), except within a cluster of
    eigenvalues that the mix maps to one value: two points of the unit
    circle mirrored about the direction (1, NORMAL_MIX).  Such a cluster
    shows as coupling in the transformed matrix, and one ``eigh`` of the
    Hermitian part restricted to it separates its members, whose real
    parts differ.  The off-diagonal residue is then checked, since the
    argument fails for non-normal input.
    """
    scale = max(float(np.linalg.norm(reduced, "fro")), 1e-300)
    hermitian_part = 0.5 * (reduced + reduced.conj().T)
    skew_part = -0.5j * (reduced - reduced.conj().T)
    _, vectors = np.linalg.eigh(hermitian_part + NORMAL_MIX * skew_part)
    transformed = vectors.conj().T @ reduced @ vectors
    clusters = _coupled_clusters(transformed, 1e-12 * scale)
    for cluster in clusters:
        block = vectors[:, cluster]
        _, rotation = np.linalg.eigh(block.conj().T @ hermitian_part @ block)
        vectors[:, cluster] = block @ rotation
    if clusters:
        transformed = vectors.conj().T @ reduced @ vectors
    values = np.diag(transformed).copy()
    residual = float(np.linalg.norm(transformed - np.diag(values), "fro"))
    if residual > 1e-10 * scale:
        raise NoConvergence(
            f"unitary component not diagonalized: off-diagonal residual {residual:.3e}"
        )
    order = np.argsort(np.angle(values), kind="stable")
    return values[order], inv_chol_h @ vectors[:, order]


def eigendecompose_self_adjoint(
    spec: ScalarProductSpec, h: Operator, tol: Tolerance = DEFAULT_TOLERANCE
) -> Eigensystem:
    """Orthonormal eigenkets and hyperbolic eigenvalues of a self-adjoint operator.

    Component eigenvalues are sorted ascending by real part and matched
    index to index; the other pairings are equally valid and reachable
    through basis mixing.
    """
    if not is_self_adjoint(spec, h, tol):
        raise NotSelfAdjoint("operator is not self-adjoint under the given scalar product")
    values, vectors = _hermitian_eigh(spec, h.matrix)
    return Eigensystem(parts_from_components(*values), parts_from_components(*vectors), h.basis_id)


def eigendecompose_unitary(
    spec: ScalarProductSpec, u: Operator, tol: Tolerance = DEFAULT_TOLERANCE
) -> Eigensystem:
    """Orthonormal eigenkets of a unitary operator, sorted by phase angle."""
    if not is_unitary(spec, u, tol):
        raise NotUnitary("operator is not unitary under the given scalar product")
    reduced, inv_chol_h = _cholesky_reduce(spec, u.matrix)
    values, vectors = zip(*map(_component_unitary_eig, reduced, inv_chol_h))
    return Eigensystem(parts_from_components(*values), parts_from_components(*vectors), u.basis_id)


def spectral_reconstruct(spec: ScalarProductSpec, pairs: Sequence[EigenPair]) -> Operator:
    """Rebuild sum_l lambda_l |phi_l><phi_l| from orthonormal eigenpairs.

    Component k is V diag(lambda) V^H G_k, V holding the eigenket components as columns.
    """
    if not pairs:
        raise ValueError("need at least one eigenpair")
    system = Eigensystem.of(pairs)
    vectors = system.ket_components
    if vectors.shape[1] != spec.dim:
        raise DimensionMismatch(f"ket dimension {vectors.shape[1]} != spec dimension {spec.dim}")
    parts = (vectors * system.value_components[:, None, :]) @ (vectors.conj().mT @ spec.grams)
    return Operator(BicomplexMatrix.from_components(*parts), system.basis_id)


@dataclass(frozen=True)
class OrthogonalityRecord:
    """Cross product of one eigenket pair; unconstrained when the
    eigenvalue difference falls in the null cone."""

    first: int
    second: int
    constrained: bool
    residual: float


@dataclass(frozen=True)
class OrthogonalityReport:
    records: tuple[OrthogonalityRecord, ...]
    tolerance: float

    @property
    def max_constrained_residual(self) -> float:
        residuals = [r.residual for r in self.records if r.constrained]
        return max(residuals, default=0.0)

    @property
    def unconstrained_pairs(self) -> list[tuple[int, int]]:
        return [(r.first, r.second) for r in self.records if not r.constrained]

    @property
    def passed(self) -> bool:
        return self.max_constrained_residual <= self.tolerance


def eigenket_orthogonality_check(
    spec: ScalarProductSpec,
    pairs: Sequence[EigenPair],
    residual_tol: float = 1e-10,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> OrthogonalityReport:
    """Verify that eigenkets with invertible eigenvalue gaps are orthogonal.

    Pairs whose eigenvalue difference lies in the null cone carry no
    orthogonality constraint; they are reported but never asserted.
    """
    records = []
    # each pair is built once, however often the pairs below use it
    for (i, first), (j, second) in itertools.combinations(enumerate(pairs), 2):
        constrained = (first.value - second.value).classify(tol) is Classification.INVERTIBLE
        residual = scalar_product(spec, first.ket, second.ket).euclid_norm()
        records.append(OrthogonalityRecord(i, j, constrained, residual))
    return OrthogonalityReport(tuple(records), residual_tol)


# -- operator series and exponential ------------------------------------------


def op_function(
    a: Operator,
    coeffs: Iterable,
    truncation: float = 1e-14,
    max_terms: int = 1000,
) -> Operator:
    """Power series sum_n c_n A^n, summed componentwise.

    The series is truncated once two consecutive terms fall below
    ``truncation`` relative to the running sums in both components (a
    finite coefficient sequence is summed in full).  Terms that fail to
    decay within ``max_terms`` raise SeriesDivergence.
    """
    components = a.matrix.components
    powers = np.broadcast_to(np.eye(a.dim, dtype=complex), components.shape)
    totals = np.zeros(components.shape, dtype=complex)
    streak = 0
    for index, coeff in enumerate(coeffs):
        if index >= max_terms:
            raise SeriesDivergence(f"series terms did not decay within {max_terms} terms")
        factors = np.array(as_bicomplex(coeff).to_idempotent())
        if index > 0:
            powers = powers @ components
        terms = factors[:, None, None] * powers
        totals += terms
        term_size = max(np.linalg.norm(terms, 1, axis=(1, 2)))
        sum_size = max(*np.linalg.norm(totals, 1, axis=(1, 2)), 1e-300)
        if term_size <= truncation * sum_size:
            streak += 1
            if streak >= 2 and index >= 1:
                break
        else:
            streak = 0
    return Operator(BicomplexMatrix.from_components(*totals), a.basis_id)


def _expm(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring exponential with a truncated Taylor core."""
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 1))
    if not math.isfinite(norm):
        raise NonFinite("matrix exponential of a non-finite matrix")
    # smallest s with norm / 2**s <= 0.5, for every finite norm (norm / 0.5
    # and 2.0**s overflow from about 9e307 on)
    mantissa, exponent = math.frexp(norm)
    squarings = 0 if norm <= 0.5 else exponent + (mantissa > 0.5)
    scaled = a * math.ldexp(1.0, -squarings)
    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 64):
        term = term @ scaled / k
        result = result + term
        if np.linalg.norm(term, 1) <= 1e-16 * np.linalg.norm(result, 1):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def op_exp(a: Operator) -> Operator:
    """exp(A), computed per component by scaling and squaring."""
    return Operator(BicomplexMatrix.from_components(*map(_expm, a.matrix.components)), a.basis_id)


def op_exp_spectral(
    spec: ScalarProductSpec,
    h: Operator,
    prefactor: Bicomplex = ONE,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Operator:
    """exp(prefactor * H) through the eigenket expansion of a self-adjoint H.

    Cross-checks the scaling-and-squaring route; not the default path.
    """
    system = eigendecompose_self_adjoint(spec, h, tol)
    exponents = np.array(prefactor.to_idempotent())[:, None] * system.value_components
    values = parts_from_components(*np.exp(exponents))
    return spectral_reconstruct(spec, Eigensystem(values, system.kets, h.basis_id))


# -- evolution ------------------------------------------------------------------


@dataclass(frozen=True)
class EvolutionConfig:
    """Time window, step count and constants for evolving states.

    ``steps`` is the number of sample times in [t0, t1], used both for
    the emitted time series and the finite-difference consistency check.
    ``xi``, when set, multiplies the time derivative and is folded into
    the generator; it must equal its kind-3 conjugate (both idempotent
    components real) and be invertible.
    """

    hbar: float
    t0: float
    t1: float
    steps: int = 100
    xi: Bicomplex | None = None

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0.0):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar!r}")
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise ValueError("t0 and t1 must be finite")
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps!r}")
        if self.xi is not None:
            if not approx_eq(self.xi.conjugate(3), self.xi):
                raise InvalidXi("xi must equal its kind-3 conjugate (real idempotent components)")
            if self.xi.classify() is not Classification.INVERTIBLE:
                raise InvalidXi("xi must be invertible")

    def sample_times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps)


@dataclass(frozen=True)
class _Eigenbasis:
    """H' and, stacked over k, component k of H' / hbar as V diag(frequencies) V^H G_k."""

    generator: Operator
    frequencies: np.ndarray
    vectors: np.ndarray
    # V^H G_k, with V^H G_k V = I: takes a component array to its eigen-coefficients
    coefficients: np.ndarray

    def propagate(self, coeffs: np.ndarray, elapsed) -> np.ndarray:
        """V (exp(-i1 frequencies (t - t0)) * coeffs), one phase column per elapsed time."""
        phases = np.exp(-1j * np.multiply.outer(self.frequencies, np.atleast_1d(elapsed)))
        return self.vectors @ (phases * coeffs)


def _eigenbasis(
    cfg: EvolutionConfig, h: Operator, spec: ScalarProductSpec | None, tol: Tolerance
) -> _Eigenbasis:
    """H' = inv(xi) * H, checked self-adjoint under spec (default: identity), and its eigenbasis."""
    h_eff = h if cfg.xi is None else h.scale(cfg.xi.inverse())
    if spec is None:
        spec = ScalarProductSpec.identity(h.dim)
    if not is_self_adjoint(spec, h_eff, tol):
        raise NotSelfAdjoint("effective Hamiltonian is not self-adjoint")
    values, vectors = _hermitian_eigh(spec, h_eff.matrix)
    return _Eigenbasis(h_eff, values / cfg.hbar, vectors, vectors.conj().mT @ spec.grams)


def evolution_operator(
    cfg: EvolutionConfig,
    h: Operator,
    spec: ScalarProductSpec | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Operator:
    """U(t1, t0) = exp(-i1 (t1 - t0) H' / hbar), a unitary propagator.

    Built per component as V diag(exp(-i1 lambda (t1 - t0) / hbar)) V^H G_k
    from one eigensolve of H', so it is unitary to rounding for any
    window; at t1 == t0 it is the exact identity.
    """
    basis = _eigenbasis(cfg, h, spec, tol)
    elapsed = cfg.t1 - cfg.t0
    if elapsed == 0.0:
        return Operator.identity(h.dim, h.basis_id)
    parts = basis.propagate(basis.coefficients, elapsed)
    return Operator(BicomplexMatrix.from_components(*parts), h.basis_id)


@dataclass(frozen=True)
class _Evolution:
    """The eigenbasis of H' and the evolved state: component k at sample j in [k - 1, :, j]."""

    cfg: EvolutionConfig
    basis: _Eigenbasis
    state: Ket
    components: np.ndarray

    def samples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """See :func:`evolve_samples`."""
        times = self.cfg.sample_times()
        # Ket.from_components of every sample at once
        z1, z2 = parts_from_components(*self.components).mT
        frozen = times == self.cfg.t0
        z1[frozen] = self.state.z1
        z2[frozen] = self.state.z2
        if not (np.isfinite(z1).all() and np.isfinite(z2).all()):
            raise NonFinite("Ket entries must be finite")
        return times, z1, z2

    def schrodinger_residual(self, step: float = 1e-5) -> float:
        """See :func:`schrodinger_residual`."""
        basis = self.basis
        coeffs = basis.coefficients @ self.components
        ahead = basis.propagate(coeffs, step)
        behind = basis.propagate(coeffs, -step)
        rhs = basis.generator.matrix.components @ self.components
        factor = 1j * self.cfg.hbar / (2.0 * step)
        defect_sq = (np.abs((ahead - behind) * factor - rhs) ** 2).sum(axis=0)
        rhs_sq = (np.abs(rhs) ** 2).sum(axis=0)
        # the sup norm of a ket is sqrt(max((|c1|^2 + |c2|^2) / 2)) over its coefficients
        defect = np.sqrt(0.5 * defect_sq.max(axis=0))
        scale = np.maximum(np.sqrt(0.5 * rhs_sq.max(axis=0)), 1e-300)
        return float((defect / scale).max())


def _evolve(
    cfg: EvolutionConfig, h: Operator, state: Ket, spec: ScalarProductSpec | None, tol: Tolerance
) -> _Evolution:
    """Diagonalize H' once and propagate the state to every sample time.

    ``evolve_samples`` and ``schrodinger_residual`` each call this; a
    caller that needs both results calls it once.
    """
    basis = _eigenbasis(cfg, h, spec, tol)
    h._check_compatible(state)
    coeffs = basis.coefficients @ state.components[..., None]
    return _Evolution(cfg, basis, state, basis.propagate(coeffs, cfg.sample_times() - cfg.t0))


def evolve_samples(
    cfg: EvolutionConfig,
    h: Operator,
    state: Ket,
    spec: ScalarProductSpec | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sample times in [t0, t1] and the evolved state's (z1, z2) parts, one row per sample.

    All samples come from one eigensolve of H':
    psi_k(t) = V (exp(-i1 lambda (t - t0) / hbar) * V^H G_k psi_k).  A
    sample at t == t0 is the input ket itself.
    """
    return _evolve(cfg, h, state, spec, tol).samples()


def evolve_series(
    cfg: EvolutionConfig,
    h: Operator,
    state: Ket,
    spec: ScalarProductSpec | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> list[tuple[float, Ket]]:
    """The evolved state at each sample time, as kets; see :func:`evolve_samples`."""
    times, z1, z2 = evolve_samples(cfg, h, state, spec, tol)
    return [
        (float(t), state if t == cfg.t0 else Ket(a, b, h.basis_id))
        for t, a, b in zip(times, z1, z2)
    ]


def schrodinger_residual(
    cfg: EvolutionConfig,
    h: Operator,
    state: Ket,
    spec: ScalarProductSpec | None = None,
    step: float = 1e-5,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """Largest relative defect of i1 hbar dpsi/dt = H' psi along the samples.

    The derivative is a central difference with the given step, taken at
    s = 0 on each sample psi(t) through the semigroup property: the
    eigen-coefficients of psi(t) are advanced by exp(-/+ i1 lambda s / hbar).
    The right-hand side applies the components of H' itself, so the
    check tests the eigensystem against the operator.  The result floors
    at roughly step**2 plus rounding amplified by 1/step, whatever
    |t - t0|.
    """
    return _evolve(cfg, h, state, spec, tol).schrodinger_residual(step)
