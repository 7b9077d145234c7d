"""Linear operators on the module: adjoints, spectra, evolution.

An operator is a bicomplex matrix in a declared basis.  Everything
spectral reduces to the two complex component matrices: an operator is
self-adjoint (unitary) exactly when both components are Hermitian
(unitary) with respect to their Gram matrices, eigenvalue problems
decouple into two complex ones, and

    f(A) = f1(A1)*e1 + f2(A2)*e2,    exp(A) = exp(A1)*e1 + exp(A2)*e2.

Self-adjoint operators admit an orthonormal eigenket basis with
hyperbolic eigenvalues and the rank-one expansion
H = sum_l lambda_l |phi_l><phi_l|; exp(i1*H) is unitary, and
U(t, t0) = exp(-i1*(t - t0)*H / hbar) propagates the time-independent
Schroedinger dynamics while conserving every self-product.

Component eigenproblems are reduced to standard Hermitian ones through
the Cholesky factors of the Gram matrices and handed to LAPACK
(``numpy.linalg.eigh``); a unitary component is diagonalized by one
``eigh`` of a generic real combination of its commuting Hermitian and
skew-Hermitian parts.  Any pairing of component eigenpairs is
algebraically valid; the canonical output sorts self-adjoint spectra
ascending by real part and unitary spectra by phase angle, index to
index.
"""

from __future__ import annotations

import cmath
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
)
from .hilbert import BasisMismatch, Ket, ScalarProductSpec, scalar_product
from .matrix import BicomplexMatrix

__all__ = [
    "EigenPair",
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
# (1, NORMAL_MIX) in the complex plane
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
    eigenbasis, or when two eigenvalues mirror each other about the
    direction that ``NORMAL_MIX`` selects.
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

    def component(self, k: int) -> np.ndarray:
        return self.matrix.component(k)

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
    parts = []
    for k in (1, 2):
        component = a.matrix.component(k)
        gram = spec.gram(k)
        parts.append(np.linalg.solve(gram, component.conj().T @ gram))
    return Operator(BicomplexMatrix.from_components(parts[0], parts[1]), a.basis_id)


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
    parts = [
        np.outer(phi.component(k), np.conj(spec.gram(k) @ psi.component(k)))
        for k in (1, 2)
    ]
    return Operator(BicomplexMatrix.from_components(parts[0], parts[1]), phi.basis_id)


def _cholesky_reduce(
    spec: ScalarProductSpec, matrix: BicomplexMatrix, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Component k as a standard problem: (L^H A_k L^{-H}, L^{-H}).

    With G_k = L L^H, the reduced matrix is Hermitian (unitary) whenever
    A_k is G_k-self-adjoint (G_k-unitary), and back-transformed
    orthonormal eigenvectors L^{-H} Y are G_k-orthonormal.
    """
    chol_h = spec.cholesky(k).conj().T
    inv_chol_h = np.linalg.inv(chol_h)
    return chol_h @ matrix.component(k) @ inv_chol_h, inv_chol_h


def _component_hermitian_eigh(
    spec: ScalarProductSpec, matrix: BicomplexMatrix, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and G_k-orthonormal eigenvectors of component k."""
    reduced, inv_chol_h = _cholesky_reduce(spec, matrix, k)
    # eigh reads one triangle; averaging keeps both halves of a matrix
    # that is Hermitian only to rounding
    values, vectors = np.linalg.eigh(0.5 * (reduced + reduced.conj().T))
    return values, inv_chol_h @ vectors


def _component_unitary_eig(
    spec: ScalarProductSpec, matrix: BicomplexMatrix, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (by phase angle) and G_k-orthonormal eigenvectors of component k.

    The Hermitian and skew parts of a normal matrix commute, so the
    eigenvectors of herm + NORMAL_MIX * skew diagonalize both (Bunse-
    Gerstner, Byers & Mehrmann 1993).  The off-diagonal residue of the
    transformed matrix is checked, since that argument fails for
    non-normal input and for eigenvalues the mix maps to one value.
    """
    reduced, inv_chol_h = _cholesky_reduce(spec, matrix, k)
    hermitian_part = 0.5 * (reduced + reduced.conj().T)
    skew_part = -0.5j * (reduced - reduced.conj().T)
    _, vectors = np.linalg.eigh(hermitian_part + NORMAL_MIX * skew_part)
    transformed = vectors.conj().T @ reduced @ vectors
    values = np.diag(transformed).copy()
    residual = float(np.linalg.norm(transformed - np.diag(values), "fro"))
    if residual > 1e-10 * max(float(np.linalg.norm(reduced, "fro")), 1e-300):
        raise NoConvergence(
            f"unitary component not diagonalized: off-diagonal residual {residual:.3e}"
        )
    order = np.argsort(np.angle(values), kind="stable")
    return values[order], inv_chol_h @ vectors[:, order]


def _pair_components(solve, spec: ScalarProductSpec, a: Operator) -> list[EigenPair]:
    """Join the two component eigensystems that ``solve`` returns, index to index."""
    (values1, vectors1), (values2, vectors2) = (solve(spec, a.matrix, k) for k in (1, 2))
    return [
        EigenPair(
            Bicomplex.from_idempotent(values1[i], values2[i]),
            Ket.from_components(vectors1[:, i], vectors2[:, i], a.basis_id),
        )
        for i in range(a.dim)
    ]


def eigendecompose_self_adjoint(
    spec: ScalarProductSpec, h: Operator, tol: Tolerance = DEFAULT_TOLERANCE
) -> list[EigenPair]:
    """Orthonormal eigenkets and hyperbolic eigenvalues of a self-adjoint operator.

    Component eigenvalues are sorted ascending by real part and matched
    index to index; the other pairings are equally valid and reachable
    through basis mixing.
    """
    if not is_self_adjoint(spec, h, tol):
        raise NotSelfAdjoint("operator is not self-adjoint under the given scalar product")
    return _pair_components(_component_hermitian_eigh, spec, h)


def eigendecompose_unitary(
    spec: ScalarProductSpec, u: Operator, tol: Tolerance = DEFAULT_TOLERANCE
) -> list[EigenPair]:
    """Orthonormal eigenkets of a unitary operator, sorted by phase angle."""
    if not is_unitary(spec, u, tol):
        raise NotUnitary("operator is not unitary under the given scalar product")
    return _pair_components(_component_unitary_eig, spec, u)


def spectral_reconstruct(spec: ScalarProductSpec, pairs: Sequence[EigenPair]) -> Operator:
    """Rebuild sum_l lambda_l |phi_l><phi_l| from orthonormal eigenpairs."""
    if not pairs:
        raise ValueError("need at least one eigenpair")
    total = outer_product(spec, pairs[0].ket, pairs[0].ket).scale(pairs[0].value)
    for pair in pairs[1:]:
        total = total + outer_product(spec, pair.ket, pair.ket).scale(pair.value)
    return total


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
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            gap = pairs[i].value - pairs[j].value
            constrained = gap.classify(tol) is Classification.INVERTIBLE
            residual = scalar_product(spec, pairs[i].ket, pairs[j].ket).euclid_norm()
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
    components = [a.matrix.component(k) for k in (1, 2)]
    n = a.dim
    powers = [np.eye(n, dtype=complex) for _ in components]
    totals = [np.zeros((n, n), dtype=complex) for _ in components]
    streak = 0
    for index, coeff in enumerate(coeffs):
        if index >= max_terms:
            raise SeriesDivergence(f"series terms did not decay within {max_terms} terms")
        factors = as_bicomplex(coeff).to_idempotent()
        if index > 0:
            powers = [power @ component for power, component in zip(powers, components)]
        terms = [factor * power for factor, power in zip(factors, powers)]
        for total, term in zip(totals, terms):
            total += term
        term_size = max(np.linalg.norm(term, 1) for term in terms)
        sum_size = max(*(np.linalg.norm(total, 1) for total in totals), 1e-300)
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
    return Operator(
        BicomplexMatrix.from_components(_expm(a.matrix.component(1)), _expm(a.matrix.component(2))),
        a.basis_id,
    )


def _exp_scalar(w: Bicomplex) -> Bicomplex:
    c1, c2 = w.to_idempotent()
    return Bicomplex.from_idempotent(cmath.exp(c1), cmath.exp(c2))


def op_exp_spectral(
    spec: ScalarProductSpec,
    h: Operator,
    prefactor: Bicomplex = ONE,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Operator:
    """exp(prefactor * H) through the eigenket expansion of a self-adjoint H.

    Cross-checks the scaling-and-squaring route; not the default path.
    """
    pairs = eigendecompose_self_adjoint(spec, h, tol)
    scaled = [
        EigenPair(_exp_scalar(prefactor * pair.value), pair.ket) for pair in pairs
    ]
    return spectral_reconstruct(spec, scaled)


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


def _effective_hamiltonian(
    cfg: EvolutionConfig, h: Operator, spec: ScalarProductSpec | None, tol: Tolerance
) -> Operator:
    """The generator H' = inv(xi) * H, checked self-adjoint (default spec: identity)."""
    h_eff = h if cfg.xi is None else h.scale(cfg.xi.inverse())
    if spec is None:
        spec = ScalarProductSpec.identity(h.dim)
    if not is_self_adjoint(spec, h_eff, tol):
        raise NotSelfAdjoint("effective Hamiltonian is not self-adjoint")
    return h_eff


def _propagator(cfg: EvolutionConfig, h_eff: Operator, elapsed: float) -> Operator:
    return op_exp(h_eff.scale(Bicomplex(complex(0.0, -elapsed / cfg.hbar))))


def evolution_operator(
    cfg: EvolutionConfig,
    h: Operator,
    spec: ScalarProductSpec | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Operator:
    """U(t1, t0) = exp(-i1 (t1 - t0) H / hbar), a unitary propagator."""
    h_eff = _effective_hamiltonian(cfg, h, spec, tol)
    return _propagator(cfg, h_eff, cfg.t1 - cfg.t0)


def evolve_series(
    cfg: EvolutionConfig,
    h: Operator,
    state: Ket,
    spec: ScalarProductSpec | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> list[tuple[float, Ket]]:
    """The evolved state at each sample time in [t0, t1]."""
    h_eff = _effective_hamiltonian(cfg, h, spec, tol)
    return [
        (float(t), _propagator(cfg, h_eff, float(t) - cfg.t0).apply(state))
        for t in cfg.sample_times()
    ]


def schrodinger_residual(
    cfg: EvolutionConfig,
    h: Operator,
    state: Ket,
    spec: ScalarProductSpec | None = None,
    step: float = 1e-5,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """Largest relative defect of i1 hbar dpsi/dt = H psi along the samples.

    The derivative is a central difference with the given step, so the
    result floors at roughly step**2 plus rounding amplified by 1/step.
    """
    h_eff = _effective_hamiltonian(cfg, h, spec, tol)
    worst = 0.0
    factor = Bicomplex(complex(0.0, cfg.hbar / (2.0 * step)))
    for t in cfg.sample_times():
        elapsed = float(t) - cfg.t0
        ahead = _propagator(cfg, h_eff, elapsed + step).apply(state)
        behind = _propagator(cfg, h_eff, elapsed - step).apply(state)
        lhs = (ahead - behind).scale(factor)
        rhs = h_eff.apply(_propagator(cfg, h_eff, elapsed).apply(state))
        scale = max(rhs.sup_norm(), 1e-300)
        worst = max(worst, (lhs - rhs).sup_norm() / scale)
    return worst
