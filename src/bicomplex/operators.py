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

Component eigenproblems are reduced once, through the Cholesky factors
of the Gram matrices, for both spectral classes: the one reduction
decides self-adjointness, so no adjoint is formed for it, and feeds
either LAPACK ``eigh`` (self-adjoint) or the per-component unitary
solve, whose eigenvectors one back-transform takes to G_k-orthonormal
ones.  Both decompositions return a stacked ``Eigensystem``, in the
order their docstrings give.
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
    ONE,
    SlottedValue,
    Tolerance,
    approx_eq,
    entry_norms,
    null_cone_codes,
    parts_from_components,
    ratio,
    scaled_down,
    stack_components,
    within,
)
from .hilbert import BasisMismatch, Ket, ScalarProductSpec, gram_defects
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
    "OrthogonalityReport",
    "adjoint",
    "compose",
    "eigendecompose_self_adjoint",
    "eigendecompose_unitary",
    "eigenket_orthogonality_check",
    "evolution_operator",
    "evolve_series",
    "is_self_adjoint",
    "is_unitary",
    "op_exp",
    "op_exp_spectral",
    "schrodinger_residual",
    "spectral_reconstruct",
]

# weight of the skew-Hermitian part in the one Hermitian matrix whose
# eigenvectors diagonalize a unitary component; any irrational value
# separates all eigenvalues except pairs mirrored about the direction
# (1, NORMAL_MIX) in the complex plane, which the Hermitian part splits
NORMAL_MIX = (math.sqrt(5.0) - 1.0) / 2.0

# phase lambda s / hbar of the fastest eigen-mode over the default Schroedinger
# step s: a central difference's truncation (phase^2 / 6) and rounding
# (eps / phase) balance here (Nocedal & Wright, Numerical Optimization, 8.1)
SCHRODINGER_PHASE = (3.0 * np.finfo(float).eps) ** (1.0 / 3.0)


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


class Operator(SlottedValue):
    """Matrix representation of a linear operator in a labelled basis."""

    __slots__ = ("matrix", "basis_id")

    def __init__(self, matrix: BicomplexMatrix, basis_id: str = "canonical"):
        self.matrix = matrix
        self.basis_id = basis_id

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

    def scale(self, factor) -> Operator:
        return Operator(self.matrix.scale(factor), self.basis_id)

    def apply(self, psi: Ket) -> Ket:
        if psi.dim != self.dim:
            raise DimensionMismatch(f"ket dimension {psi.dim} != operator dimension {self.dim}")
        if psi.basis_id != self.basis_id:
            raise BasisMismatch(f"bases differ: {self.basis_id!r} vs {psi.basis_id!r}")
        z1, z2 = self.matrix.matvec(psi.z1, psi.z2)
        return Ket(z1, z2, self.basis_id)


class EigenPair(NamedTuple):
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
    def from_components(cls, values: np.ndarray, kets: np.ndarray, basis_id: str) -> Eigensystem:
        """The eigensystem of the (2, m) value and (2, n, m) ket component stacks."""
        # kept round trip: every eigen-check reads the components of the pairs `bct` prints
        return cls(parts_from_components(*values), parts_from_components(*kets), basis_id)

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


def adjoint(spec: ScalarProductSpec, a: Operator) -> Operator:
    """The unique operator with (psi, A phi) = (adjoint(A) psi, phi).

    Componentwise inv(G_k) @ A_k^H @ G_k.  Under the kept standard spec
    this is the conjugate transpose of the component stack, taken without
    the product and the solve by I.
    """
    if spec.dim != a.dim:
        raise DimensionMismatch(f"spec dimension {spec.dim} != operator dimension {a.dim}")
    if spec.standard:
        parts = a.matrix.components.conj().mT
    else:
        # G / 2**k (exact) leaves inv(G) A^H G as it is and keeps A^H G in range
        grams, _ = scaled_down(spec.grams)
        parts = np.linalg.solve(grams, a.matrix.components.conj().mT @ grams)
    return Operator(BicomplexMatrix.from_components(*parts), a.basis_id)


def is_self_adjoint(spec: ScalarProductSpec, a: Operator, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    return _reduce_self_adjoint(spec, a.matrix, tol).self_adjoint


def _unitary_defect(star: Operator, a: Operator, tol: Tolerance) -> tuple[float, bool]:
    """The largest entry norm of A*A - I, and whether it is within eps_eq * max(1, ||A||)**2.

    ``star`` is the adjoint of ``a``, already formed.  The product is
    formed from the (z1, z2) parts, as ring multiplication does; where it
    overflows, the residual is infinite or NaN and fails.
    """
    z1, z2 = star.matrix.matvec(a.matrix.z1, a.matrix.z2)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(entry_norms(z1 - np.eye(a.dim), z2).max())
    scale = max(1.0, a.matrix.max_norm())
    return residual, within(residual, tol.eps_eq, scale, scale)


def is_unitary(spec: ScalarProductSpec, a: Operator, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    return _unitary_defect(adjoint(spec, a), a, tol)[1]


class _Reduction(NamedTuple):
    """A's components as standard problems, and whether A is self-adjoint.

    ``scaled`` stacks R_k = C A_k C^{-1} / 2**``exponent`` (see
    ``_reduce_self_adjoint``), Hermitian (unitary) exactly when A_k is
    G_k-self-adjoint (G_k-unitary); ``back`` is L^{-H}, which takes
    orthonormal eigenvectors of R_k to G_k-orthonormal ones, None where
    L = I.
    """

    scaled: np.ndarray
    exponent: int
    back: np.ndarray | None
    self_adjoint: bool

    def back_transform(self, vectors: np.ndarray) -> np.ndarray:
        """The stack L^{-H} Y of G_k-orthonormal eigenvectors, from orthonormal ones Y of R_k."""
        # + 0.0 turns -0.0 into +0.0, as the back-transform by L = I does
        return vectors + 0.0 if self.back is None else self.back @ vectors


def _reduce_self_adjoint(
    spec: ScalarProductSpec, matrix: BicomplexMatrix, tol: Tolerance
) -> _Reduction:
    """The Cholesky reduction of A, and whether A* = A within eps_eq * ||A||.

    With G_k = L L^H, C = L^H / 2**k and R_k = C A_k C^{-1} = L^H A_k
    L^{-H}: dividing L by a power of two (exact) leaves R_k as it is and
    keeps C A_k in range.  A_k* - A_k = C^{-1} (R_k^H - R_k) C, so the
    reduction that both eigensolves read decides self-adjointness, and no
    adjoint is formed.  Under the kept standard spec C = I.  Both A* - A
    and A are taken divided by one power of two, that of A's largest
    component part, which is exact: neither R nor the difference
    overflows, and an exact rescaling of A keeps the answer.
    The largest entry norms of both read hypot(|c1|, |c2|), sqrt(2) times
    that of the (z1, z2) parts, a factor their ratio cancels.
    """
    if spec.dim != matrix.order:
        raise DimensionMismatch(f"spec dimension {spec.dim} != operator dimension {matrix.order}")
    components, exponent = scaled_down(matrix.components)
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.standard:
            reduced, back = components, None
            defect = reduced.conj().mT - reduced
        else:
            chol_h, k = scaled_down(spec.chols.conj().mT)
            inv_chol_h = np.linalg.inv(chol_h)
            back = scaled_down(inv_chol_h, k)[0]
            reduced = chol_h @ components @ inv_chol_h
            defect = inv_chol_h @ ((reduced.conj().mT - reduced) @ chol_h)
        residual = float(entry_norms(*defect).max())
    scale = float(entry_norms(*components).max())
    return _Reduction(reduced, exponent, back, within(residual, tol.eps_eq, scale))


def _hermitian_eigh(reduction: _Reduction) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and G_k-orthonormal eigenvectors of both components, stacked.

    Under the kept standard spec the components go to ``eigh`` as they
    are, without the back-transform by L = I.
    """
    # eigh reads one triangle; averaging keeps both halves of a matrix
    # that is Hermitian only to rounding.  Halving would lose the last bit
    # of a subnormal entry, so a stack R whose largest part is below 1/2 is
    # first scaled up, exactly, by that part's power of two, and its
    # eigenvalues are scaled back.  A larger R goes to eigh as it is:
    # scaled back from unit scale, an eigenvalue within an ulp of the
    # largest double could round past it.  An R beyond the double range
    # goes at unit scale, and its eigenvalues overflow
    scaled, exponent = scaled_down(reduction.scaled)
    exponent += reduction.exponent
    if 0 < exponent <= 1024:
        scaled, exponent = scaled_down(reduction.scaled, -reduction.exponent)[0], 0
    values, vectors = np.linalg.eigh(0.5 * scaled + 0.5 * scaled.conj().mT)
    with np.errstate(over="ignore"):
        values = np.ldexp(values, exponent)
    return values, reduction.back_transform(vectors)


def _unitary_eig(reduction: _Reduction) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (by phase angle) and G_k-orthonormal eigenvectors of both components, stacked.

    Each component is solved at A's own scale: R_k is the reduction
    scaled back by its power of two, which is exact.
    """
    reduced = scaled_down(reduction.scaled, -reduction.exponent)[0]
    values, vectors = map(np.stack, zip(*map(_component_unitary_eig, reduced)))
    return values, reduction.back_transform(vectors)


def _coupled_clusters(transformed: np.ndarray, threshold: float) -> list[np.ndarray]:
    """Runs of consecutive indices joined by off-diagonal entries above threshold."""
    n = transformed.shape[0]
    rows, cols = np.nonzero(np.abs(np.triu(transformed, 1)) > threshold)
    reach = np.arange(n)
    np.maximum.at(reach, rows, cols)
    reach = np.maximum.accumulate(reach)
    ends = np.flatnonzero(reach == np.arange(n))[:-1] + 1
    return [cluster for cluster in np.split(np.arange(n), ends) if len(cluster) > 1]


def _component_unitary_eig(reduced: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (by phase angle) and orthonormal eigenvectors of one reduced component.

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
    if not within(residual, 1e-10, scale):
        raise NoConvergence(
            f"unitary component not diagonalized: off-diagonal residual {residual:.3e}"
        )
    order = np.argsort(np.angle(values), kind="stable")
    return values[order], vectors[:, order]


def eigendecompose_self_adjoint(
    spec: ScalarProductSpec, h: Operator, tol: Tolerance = DEFAULT_TOLERANCE
) -> Eigensystem:
    """Orthonormal eigenkets and hyperbolic eigenvalues of a self-adjoint operator.

    Component eigenvalues are sorted ascending by real part and matched
    index to index; the other pairings are equally valid and reachable
    through basis mixing.
    """
    reduction = _reduce_self_adjoint(spec, h.matrix, tol)
    if not reduction.self_adjoint:
        raise NotSelfAdjoint("operator is not self-adjoint under the given scalar product")
    return Eigensystem.from_components(*_hermitian_eigh(reduction), h.basis_id)


def eigendecompose_unitary(
    spec: ScalarProductSpec, u: Operator, tol: Tolerance = DEFAULT_TOLERANCE
) -> Eigensystem:
    """Orthonormal eigenkets of a unitary operator, sorted by phase angle.

    The components are reduced as for a self-adjoint operator; under the
    kept standard spec they are diagonalized as they are.
    """
    if not is_unitary(spec, u, tol):
        raise NotUnitary("operator is not unitary under the given scalar product")
    reduction = _reduce_self_adjoint(spec, u.matrix, tol)
    return Eigensystem.from_components(*_unitary_eig(reduction), u.basis_id)


def spectral_reconstruct(spec: ScalarProductSpec, pairs: Sequence[EigenPair]) -> Operator:
    """Rebuild sum_l lambda_l |phi_l><phi_l| from orthonormal eigenpairs.

    Component k is V diag(lambda) V^H G_k, V holding the eigenket components as columns.
    """
    if not pairs:
        raise ValueError("need at least one eigenpair")
    system = Eigensystem.of(pairs)
    parts = _reconstructed_components(spec, system.value_components, system.ket_components)
    # an entry beyond the double range raises the constructor's NonFinite
    return Operator(BicomplexMatrix.from_components(*parts), system.basis_id)


def _reconstructed_components(
    spec: ScalarProductSpec, values: np.ndarray, vectors: np.ndarray
) -> np.ndarray:
    """The component stack of sum_l lambda_l |phi_l><phi_l|: V diag(lambda) V^H G_k.

    ``values`` and ``vectors`` are the (2, m) and (2, n, m) component
    stacks of the eigenvalues and eigenkets.  An entry beyond the double
    range is infinite or NaN, without numpy warnings.
    """
    if vectors.shape[1] != spec.dim:
        raise DimensionMismatch(f"ket dimension {vectors.shape[1]} != spec dimension {spec.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        return (vectors * values[:, None, :]) @ (vectors.conj().mT @ spec.grams)


class OrthogonalityReport(NamedTuple):
    """Largest cross product of eigenkets i < j with an invertible eigenvalue gap; the others."""

    max_constrained_residual: float
    unconstrained_pairs: list[tuple[int, int]]
    tolerance: float

    @property
    def passed(self) -> bool:
        return within(self.max_constrained_residual, self.tolerance)


def eigenket_orthogonality_check(
    spec: ScalarProductSpec,
    pairs: Sequence[EigenPair],
    residual_tol: float = 1e-10,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> OrthogonalityReport:
    """Verify that eigenkets with invertible eigenvalue gaps are orthogonal.

    Pairs whose eigenvalue difference lies in the null cone carry no
    orthogonality constraint; they are reported but never asserted.  The
    cross products (phi_i, phi_j), i < j, are read from ``hilbert.gram_defects``.
    """
    system = Eigensystem.of(pairs)
    residuals = gram_defects(spec, system.ket_components)
    values = system.value_components
    codes = null_cone_codes(np.abs(values[:, :, None] - values[:, None, :]), tol.eps_null)
    constrained, free = np.triu(codes == 3, 1), np.triu(codes != 3, 1)
    return OrthogonalityReport(
        float(residuals[constrained].max(initial=0.0)),
        [tuple(pair) for pair in np.argwhere(free).tolist()],
        residual_tol,
    )


# -- operator exponential -------------------------------------------------------


def _expm(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring exponential with a truncated Taylor core."""
    n = a.shape[0]
    # the 1-norm of a / 2**k, which cannot overflow, and k
    reduced, shift = scaled_down(a)
    norm = float(np.linalg.norm(reduced, 1))
    # smallest s with norm / 2**s <= 0.5, from the norm's binary exponent (norm / 0.5
    # and 2.0**s overflow from about 9e307 on)
    mantissa, exponent = math.frexp(norm)
    squarings = max(0, exponent + shift + (mantissa > 0.5))
    scaled = a * math.ldexp(1.0, -squarings)
    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 64):
        term = term @ scaled / k
        result = result + term
        if np.linalg.norm(term, 1) <= 1e-16 * np.linalg.norm(result, 1):
            break
    # an overflow is reported by the callers as NonFinite, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
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
    parts = _reconstructed_components(spec, np.exp(exponents), system.ket_components)
    # an entry beyond the double range raises the constructor's NonFinite
    return Operator(BicomplexMatrix.from_components(*parts), h.basis_id)


# -- evolution ------------------------------------------------------------------


class EvolutionConfig(SlottedValue):
    """Time window, step count and constants for evolving states.

    ``steps`` is the number of sample times in [t0, t1], used both for
    the emitted time series and the finite-difference consistency check.
    ``xi``, when set, multiplies the time derivative and is folded into
    the generator; it must equal its kind-3 conjugate (both idempotent
    components real) and be invertible, both tested under ``tol``.
    """

    __slots__ = ("hbar", "t0", "t1", "steps", "xi")

    def __init__(
        self,
        hbar: float,
        t0: float,
        t1: float,
        steps: int = 100,
        xi: Bicomplex | None = None,
        tol: Tolerance = DEFAULT_TOLERANCE,
    ):
        if not (math.isfinite(hbar) and hbar > 0.0):
            raise ValueError(f"hbar must be positive and finite, got {hbar!r}")
        if not math.isfinite(t1 - t0):
            raise ValueError("t0, t1 and t1 - t0 must be finite")
        if steps < 1:
            raise ValueError(f"steps must be at least 1, got {steps!r}")
        if xi is not None:
            if not approx_eq(xi.conjugate(3), xi, tol):
                raise InvalidXi("xi must equal its kind-3 conjugate (real idempotent components)")
            if xi.classify(tol) is not Classification.INVERTIBLE:
                raise InvalidXi("xi must be invertible")
        self.hbar = hbar
        self.t0 = t0
        self.t1 = t1
        self.steps = steps
        self.xi = xi

    def sample_times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps)


class _Eigenbasis(NamedTuple):
    """H' and, stacked over k, component k of H' / hbar as V diag(frequencies) V^H G_k."""

    generator: Operator
    frequencies: np.ndarray
    vectors: np.ndarray
    # V^H G_k, with V^H G_k V = I: takes a component array to its eigen-coefficients
    coefficients: np.ndarray

    def propagate(self, coeffs: np.ndarray, elapsed) -> np.ndarray:
        """V (exp(-i1 frequencies (t - t0)) * coeffs), one phase column per elapsed time."""
        elapsed = np.atleast_1d(elapsed)
        # the largest phase is the product of the largest factors (a float product does not warn)
        if not math.isfinite(float(np.abs(self.frequencies).max()) * float(np.abs(elapsed).max())):
            raise NonFinite("phases lambda (t - t0) / hbar overflow")
        phases = np.exp(-1j * np.multiply.outer(self.frequencies, elapsed))
        return self.vectors @ (phases * coeffs)


def _eigenbasis(
    cfg: EvolutionConfig, h: Operator, spec: ScalarProductSpec | None, tol: Tolerance
) -> _Eigenbasis:
    """H' = inv(xi) * H, checked self-adjoint under spec (default: identity), and its eigenbasis.

    Under the kept standard spec the eigen-coefficients V^H G_k are V^H,
    taken without the product by I.
    """
    h_eff = h if cfg.xi is None else h.scale(cfg.xi.inverse(tol))
    if spec is None:
        spec = ScalarProductSpec.identity(h.dim)
    reduction = _reduce_self_adjoint(spec, h_eff.matrix, tol)
    if not reduction.self_adjoint:
        raise NotSelfAdjoint("effective Hamiltonian is not self-adjoint")
    values, vectors = _hermitian_eigh(reduction)
    # |lambda| / hbar beyond the double range is reported here, not as numpy warnings
    if not ratio(float(np.abs(values).max()), cfg.hbar) < math.inf:
        raise NonFinite("eigenfrequencies lambda / hbar overflow")
    frequencies = values / cfg.hbar
    if spec.standard:
        # C-contiguous like the product V^H I: BLAS multiplies a transposed
        # view with another kernel, which moves last digits of the states
        coefficients = np.ascontiguousarray(vectors.conj().mT)
    else:
        coefficients = vectors.conj().mT @ spec.grams
    return _Eigenbasis(h_eff, frequencies, vectors, coefficients)


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


class _Evolution(NamedTuple):
    """The eigenbasis of H' and the evolved state: component k at sample j in [k - 1, :, j]."""

    cfg: EvolutionConfig
    basis: _Eigenbasis
    state: Ket
    components: np.ndarray

    def samples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sample times and the evolved state's (z1, z2) parts, one row per sample."""
        times = self.cfg.sample_times()
        # Ket.from_components of every sample at once
        z1, z2 = parts_from_components(*self.components).mT
        frozen = times == self.cfg.t0
        z1[frozen] = self.state.z1
        z2[frozen] = self.state.z2
        if not (np.isfinite(z1).all() and np.isfinite(z2).all()):
            raise NonFinite("Ket entries must be finite")
        return times, z1, z2

    def schrodinger_residual(self, step: float | None = None) -> float:
        """See :func:`schrodinger_residual`."""
        basis = self.basis
        if step is None:
            # the smallest normal double stands in for H' = 0, whose difference
            # quotient vanishes at any step
            peak = max(float(np.abs(basis.frequencies).max()), np.finfo(float).tiny)
            step = SCHRODINGER_PHASE / peak
        # the defect and H' psi are linear in psi and in H': dividing both exactly
        # by powers of two keeps their products finite and leaves each ratio as it is
        states, _ = scaled_down(self.components)
        generator, exponent = scaled_down(basis.generator.matrix.components)
        coeffs = basis.coefficients @ states
        ahead = basis.propagate(coeffs, step)
        behind = basis.propagate(coeffs, -step)
        rhs = generator @ states
        # the factor overflows only where hbar / |H'| nears the double range and the
        # frequencies underflow; the residual is then nan, a failing check
        with np.errstate(over="ignore", invalid="ignore"):
            factor = 1j * np.ldexp(self.cfg.hbar / (2.0 * step), -exponent)
            defect = (ahead - behind) * factor - rhs
        # the sup norm of each sample's ket, over its coefficients: on the components
        # entry_norms reads sqrt(2) times the parts' norm, a factor the ratio cancels
        defect, rhs = (entry_norms(*c).max(axis=0) for c in (defect, rhs))
        return float((defect / np.maximum(rhs, 1e-300)).max())


def _evolve(
    cfg: EvolutionConfig, h: Operator, state: Ket, spec: ScalarProductSpec | None, tol: Tolerance
) -> _Evolution:
    """Diagonalize H' once and propagate the state to every sample time.

    ``evolve_series`` and ``schrodinger_residual`` each call this; a
    caller that needs both results calls it once.
    """
    basis = _eigenbasis(cfg, h, spec, tol)
    h._check_compatible(state)
    # a state beyond the double range gives inf or NaN samples, which ``samples``
    # reports as NonFinite, without numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = basis.coefficients @ state.components[..., None]
        components = basis.propagate(coeffs, cfg.sample_times() - cfg.t0)
    return _Evolution(cfg, basis, state, components)


def evolve_series(
    cfg: EvolutionConfig,
    h: Operator,
    state: Ket,
    spec: ScalarProductSpec | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> list[tuple[float, Ket]]:
    """The evolved state at each sample time in [t0, t1], as (time, ket) pairs.

    All samples come from one eigensolve of H':
    psi_k(t) = V (exp(-i1 lambda (t - t0) / hbar) * V^H G_k psi_k).  A
    sample at t == t0 is the input ket itself.
    """
    times, z1, z2 = _evolve(cfg, h, state, spec, tol).samples()
    return [
        (float(t), state if t == cfg.t0 else Ket(a, b, h.basis_id))
        for t, a, b in zip(times, z1, z2)
    ]


def schrodinger_residual(
    cfg: EvolutionConfig,
    h: Operator,
    state: Ket,
    spec: ScalarProductSpec | None = None,
    step: float | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """Largest relative defect of i1 hbar dpsi/dt = H' psi along the samples.

    The derivative is a central difference with step s, taken at s = 0
    on each sample psi(t) through the semigroup property: the
    eigen-coefficients of psi(t) are advanced by exp(-/+ i1 lambda s / hbar).
    The right-hand side applies the components of H' itself, so the
    check tests the eigensystem against the operator.  With the phase
    w = max|lambda| s / hbar, the result floors at roughly w**2 / 6 plus
    eps / w, whatever |t - t0|.  The default step puts w at
    ``SCHRODINGER_PHASE`` = (3 eps)**(1/3), where that floor is lowest
    (about 4e-11) at every scale of H' and hbar; the rounding part grows
    with max|lambda| |psi| / |H' psi|, i.e. for a state confined to slow modes.
    """
    return _evolve(cfg, h, state, spec, tol).schrodinger_residual(step)
