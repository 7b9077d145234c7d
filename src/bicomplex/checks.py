"""The verification layer: every residual check a `bct` command reports.

Each `verify_*` function checks one computed result (a determinant, an
inverse, an exponential, an orthonormalized basis, a spectrum, an
evolved series) and the `check_*` suites re-derive everything a
document's kind promises.  Both use independent routes where one exists
(cofactor determinants, direct Gram-entry scalar products).  Results
report a residual relative to its scale, a tolerance and whether the
check passed, and a verdict passes only when every check does.  The
probe kets are a function of the dimension alone (``_probe_kets``).

One rule decides every check, ``core.within``: a check passes when its
residual is within the tolerance times its scale, and fails when the
residual, the scale or the bound is not finite.  The relative residual
is ``core.ratio``, which forms no product of scales, so a scale beyond
the double range fails a check instead of reading as a zero residual.
Entrywise norms are ``core.entry_norms``.  ``reference`` keeps its own
arithmetic.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    DEFAULT_TOLERANCE,
    Bicomplex,
    Classification,
    Hyperbolic,
    KetClassification,
    NonFinite,
    ONE,
    Tolerance,
    entry_norms,
    null_cone_codes,
    parts_from_components,
    ratio,
    within,
)
from .hilbert import (
    Ket,
    NotABasis,
    NullConePivot,
    ScalarProductSpec,
    coefficient_matrix,
    gram_defects,
    gram_schmidt,
    hermitian_defect,
    normalize,
    row_kets,
    scalar_product,
)
from .matrix import BicomplexMatrix, MatrixInverse, SingularMatrix
from .operators import (
    EigenPair,
    Eigensystem,
    Operator,
    _Evolution,
    _self_adjoint,
    _unitary_defect,
    adjoint,
    eigendecompose_self_adjoint,
    eigendecompose_unitary,
    spectral_reconstruct,
)
from .reference import det_cofactor, scalar_product_direct

COFACTOR_MAX_ORDER = 5


class CheckResult(NamedTuple):
    """A residual relative to its scale, and its tolerance."""

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return within(self.residual, self.tolerance)


def _result(name: str, residual: float, bound: float, *scale: float, floor: float = 0.0):
    """The check of residual / max(floor, product of the scale factors) against ``bound``."""
    return CheckResult(name, ratio(float(residual), *scale, floor=floor), float(bound))


def _probe_kets(dim: int, basis_id: str) -> tuple[Ket, Ket]:
    """A generic ket p and its mirror p' = (z1, -z2), from the dimension alone.

    The real and imaginary parts of p's z1 and then of its z2, in turn,
    are the terms k * 0x9E3779B97F4A7C15 mod 2**64, k = 1 .. 4 * dim, of a
    64-bit Weyl sequence (the increment is 2**64 over the golden ratio),
    each with its top 53 bits read exactly as a double in [-1, 1): integer
    arithmetic, so no libm or platform rounding enters.  The pair maps to
    itself under z2 -> -z2, so the probe checks commute with the e1 <-> e2
    mirror.
    """
    terms = np.arange(1, 4 * dim + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z1, z2 = ((terms >> np.uint64(11)) * 2.0**-52 - 1.0).view(complex).reshape(2, dim)
    return Ket(z1, z2, basis_id), Ket(z1, -z2, basis_id)


def _probe_defect(dim: int, basis_id: str, fast, direct) -> float:
    """Largest |fast - direct| / max(1, |fast|) of two routes to one value over the probe pairs."""
    probes = _probe_kets(dim, basis_id)
    pairs = [(fast(psi, phi), direct(psi, phi)) for psi in probes for phi in probes]
    return max(ratio((f - d).euclid_norm(), f.euclid_norm(), floor=1.0) for f, d in pairs)


def check_scalar(w: Bicomplex, tol: Tolerance) -> tuple[list[CheckResult], list[str]]:
    results, notes = [], []
    scale = max(1.0, w.euclid_norm())

    round_trip = (Bicomplex.from_idempotent(*w.to_idempotent()) - w).euclid_norm()
    results.append(_result("idempotent-round-trip", round_trip, tol.eps_eq, scale))
    involution = max((w.conjugate(k).conjugate(k) - w).euclid_norm() for k in (1, 2, 3))
    results.append(_result("conjugation-involution", involution, tol.eps_eq, scale))

    modulus = w.modulus_squared("j")
    squared = Hyperbolic.from_bicomplex(modulus, tol)
    negative = max(0.0, -min(squared.x1, squared.x2))
    results.append(_result("modulus-j-positive", negative, tol.eps_eq, scale, scale))
    consistency = abs(w.euclid_norm() - math.sqrt(max(modulus.z1.real, 0.0)))
    results.append(_result("norm-consistency", consistency, tol.eps_eq, scale))

    classification = w.classify(tol)
    if classification is Classification.INVERTIBLE:
        results.append(
            _result("inverse-residual", (w * w.inverse(tol) - ONE).euclid_norm(), 1e-12)
        )
    else:
        notes.append(f"inverse: skipped ({classification.value})")
    root = w.nth_root(3)
    results.append(_result("cube-root-residual", (root**3 - w).euclid_norm(), 1e-12, scale))
    return results, notes


def check_ket(psi: Ket, spec: ScalarProductSpec | None, tol: Tolerance):
    results, notes = [], []
    if spec is None:
        spec = ScalarProductSpec.identity(psi.dim)
    rebuilt = Ket.from_components(*psi.components, psi.basis_id)
    scale = max(1.0, psi.sup_norm())
    results.append(_result("component-round-trip", (rebuilt - psi).sup_norm(), tol.eps_eq, scale))

    ket_class = psi.classify(tol)
    self_product = scalar_product(spec, psi, psi)
    # classified on the exactly rescaled ket, whose self-product does not
    # underflow when the ket is small
    scaled = psi.scaled_down()
    product_class = scalar_product(spec, scaled, scaled).classify(tol)
    consistent = ket_class.value == product_class.value or (
        ket_class is KetClassification.REGULAR and product_class is Classification.INVERTIBLE
    )
    results.append(_result("classification-consistency", 0.0 if consistent else 1.0, 0.0))

    squared = self_product.to_idempotent()
    negative = max(0.0, -min(squared.c1.real, squared.c2.real))
    results.append(_result("self-product-positive", negative, tol.eps_eq, scale, scale))

    if ket_class is KetClassification.REGULAR:
        unit = normalize(spec, psi, tol)
        results.append(
            _result("normalize-unit", (scalar_product(spec, unit, unit) - ONE).euclid_norm(), 1e-10)
        )
    else:
        notes.append(f"normalize: skipped ({ket_class.value})")
    return results, notes


def check_matrix(matrix: BicomplexMatrix, tol: Tolerance):
    results, notes = [], []
    n = matrix.order
    det = matrix.det()
    results.extend(verify_determinant(matrix, det))
    if n > COFACTOR_MAX_ORDER:
        notes.append(f"det-idempotent-vs-direct: skipped (order {n} > {COFACTOR_MAX_ORDER})")

    norm = matrix.max_norm()
    squared = matrix @ matrix
    law = float(np.abs(squared.components - matrix.components @ matrix.components).max())
    results.append(_result("product-component-law", law, 1e-10, norm, norm, floor=1.0))

    # det.classify(tol), also where a component determinant is not normal
    classification = matrix._classify_det(tol)
    if classification is Classification.INVERTIBLE:
        try:
            results.extend(verify_inverse(matrix, matrix.inverse(tol)))
        except SingularMatrix as exc:
            notes.append(f"inverse: skipped ({exc})")
        spec = ScalarProductSpec.identity(n)
        try:
            ortho = gram_schmidt(spec, row_kets(matrix, "check-rows"), tol)
        except (NullConePivot, NotABasis) as exc:
            results.append(_result("orthogonalize-rows", math.inf, 1e-10))
            notes.append(f"orthogonalize-rows: {type(exc).__name__}: {exc}")
        else:
            results.append(_result("orthogonalize-rows", orthonormal_defect(spec, ortho), 1e-10))
    else:
        notes.append(f"inverse: skipped (singular, det {classification.value})")
        notes.append("orthogonalize-rows: skipped (singular)")
    return results, notes


def verify_determinant(matrix: BicomplexMatrix, det: Bicomplex) -> list[CheckResult]:
    """det against the cofactor expansion (orders up to COFACTOR_MAX_ORDER) and det(A^T),
    relative to max(1, |det|, max_norm**n)."""
    bound, floor = [matrix.max_norm()] * matrix.order, max(1.0, det.euclid_norm())
    results = []
    if matrix.order <= COFACTOR_MAX_ORDER:
        residual = (det - det_cofactor(matrix)).euclid_norm()
        results.append(_result("det-idempotent-vs-direct", residual, 1e-9, *bound, floor=floor))
    transposed = (matrix.transpose().det() - det).euclid_norm()
    results.append(_result("det-transpose", transposed, 1e-9, *bound, floor=floor))
    return results


def verify_inverse(matrix: BicomplexMatrix, inverse: MatrixInverse) -> list[CheckResult]:
    """A inv(A) = I and inv(A) A = A inv(A), to 1e-10 times the worse condition.

    The conditions are finite: ``inverse`` refuses a numerically singular matrix.
    """
    bound = 1e-10 * max(inverse.cond1, inverse.cond2, 1.0)
    right = matrix @ inverse.matrix
    residual = (right - BicomplexMatrix.identity(matrix.order)).max_norm()
    return [
        _result("inverse-residual", residual, bound),
        _result("inverse-left-right", (inverse.matrix @ matrix - right).max_norm(), bound),
    ]


def verify_exponential(forward: BicomplexMatrix, backward: BicomplexMatrix) -> list[CheckResult]:
    """exp(A) exp(-A) = I, relative to the product of the two max norms."""
    residual = (forward @ backward - BicomplexMatrix.identity(forward.order)).max_norm()
    scale = forward.max_norm(), backward.max_norm()
    return [_result("exp-inverse-consistency", residual, 1e-9, *scale, floor=1.0)]


def verify_gram_schmidt(
    spec: ScalarProductSpec, kets: Sequence[Ket], tol: Tolerance
) -> list[CheckResult]:
    """The output kets are orthonormal and none lies in the null cone."""
    vectors = coefficient_matrix(kets).components
    # Ket.classify, column by column
    null_cone = (null_cone_codes(np.abs(vectors).max(axis=1), tol.eps_null) != 3).sum()
    return [
        _result("orthonormal-defect", orthonormal_defect(spec, vectors), 1e-10),
        _result("null-cone-outputs", null_cone, 0.0),
    ]


def verify_evolution(
    evolution: _Evolution, norms: tuple[np.ndarray, np.ndarray]
) -> list[CheckResult]:
    """Self-product drift over the samples' norms (x1, x2), and the Schroedinger residual.

    The residual reuses the evolution's eigensystem (recomputing it gives
    the same bits) and applies H' itself on the right-hand side.
    """
    x1, x2 = norms
    drift = max(np.abs(x1 - x1[0]).max(), np.abs(x2 - x2[0]).max())
    return [
        _result("norm-conservation", drift, 1e-9, max(1.0, x1[0], x2[0])),
        _result("schrodinger-residual", evolution.schrodinger_residual(), 1e-5),
    ]


def check_operator(op: Operator, spec: ScalarProductSpec | None, tol: Tolerance):
    results, notes = check_matrix(op.matrix, tol)
    if spec is None:
        spec = ScalarProductSpec.identity(op.dim)

    star = adjoint(spec, op)
    twice = (adjoint(spec, star).matrix - op.matrix).max_norm()
    results.append(_result("adjoint-involution", twice, 1e-10, op.matrix.max_norm(), floor=1.0))

    defining = _probe_defect(
        op.dim, op.basis_id, lambda psi, phi: scalar_product(spec, psi, op.apply(phi)),
        lambda psi, phi: scalar_product(spec, star.apply(psi), phi))
    results.append(_result("adjoint-defining-relation", defining, 1e-10))

    if _self_adjoint(star, op, tol):
        notes.append("spectral-class: self-adjoint")
        system = eigendecompose_self_adjoint(spec, op, tol)
        results.extend(verify_self_adjoint_spectrum(spec, op, system))
        return results, notes
    defect, unitary = _unitary_defect(star, op, tol)
    if unitary:
        notes.append("spectral-class: unitary")
        system = eigendecompose_unitary(spec, op, tol)
        results.append(_result("unitary-defect", defect, 1e-10))
        # lambda conj3(lambda) - 1 is (|c1|^2 - 1) e1 + (|c2|^2 - 1) e2
        defects = np.abs(system.value_components) ** 2 - 1.0
        modulus = entry_norms(*parts_from_components(*defects)).max()
        results.append(_result("eigenvalue-unit-modulus", modulus, 1e-9))
        results.extend(_eigenbasis_results(spec, system))
    else:
        results.append(_result("spectral-class", 1.0, 0.0))
        notes.append(
            "spectral-class: neither self-adjoint nor unitary; spectral decomposition unavailable"
        )
    return results, notes


def verify_self_adjoint_spectrum(
    spec: ScalarProductSpec, op: Operator, pairs: Sequence[EigenPair]
) -> list[CheckResult]:
    """Reconstruction, real eigenvalues and an orthonormal, complete eigenbasis."""
    system = Eigensystem.of(pairs)
    # both residuals relative to H, so that H and 2^k H pass or fail together;
    # the zero operator has no scale, and its residuals are absolute
    scale = op.matrix.max_norm() or 1.0
    rebuilt = spectral_reconstruct(spec, system)
    imag = np.abs(system.value_components.imag).max()
    return [
        _result("spectral-reconstruction", (rebuilt.matrix - op.matrix).max_norm(), 1e-9, scale),
        _result("eigenvalue-imag-parts", imag, 1e-10, scale),
    ] + _eigenbasis_results(spec, system)


def _eigenbasis_results(spec: ScalarProductSpec, system: Eigensystem) -> list[CheckResult]:
    return [
        _result("eigenket-orthonormal", orthonormal_defect(spec, system.ket_components), 1e-10),
        _result("completeness", completeness_defect(spec, system.ket_components), 1e-10),
    ]


def orthonormal_defect(spec: ScalarProductSpec, kets: Sequence[Ket] | np.ndarray) -> float:
    """Largest |(phi_i, phi_j) - delta_ij| over i <= j, Euclidean norm.

    Read from ``hilbert.gram_defects``; ``kets`` may also be the (2, n, m)
    stack V of their component vectors.
    """
    vectors = kets if isinstance(kets, np.ndarray) else coefficient_matrix(kets).components
    return float(np.triu(gram_defects(spec, vectors)).max())


def completeness_defect(spec: ScalarProductSpec, kets: Sequence[Ket] | np.ndarray) -> float:
    """Largest entry of sum_l |phi_l><phi_l| - I, Euclidean norm.

    Per component the sum is V_k V_k^H G_k, V_k holding the kets'
    component vectors as columns (or ``kets`` is V).
    """
    vectors = kets if isinstance(kets, np.ndarray) else coefficient_matrix(kets).components
    defects = vectors @ (vectors.conj().mT @ spec.grams) - np.eye(vectors.shape[1])
    return float(entry_norms(*parts_from_components(*defects)).max())


def check_spec(g1: np.ndarray, g2: np.ndarray, tol: Tolerance):
    results, notes = [], []
    # the residuals ScalarProductSpec tests
    asymmetry = hermitian_defect(np.stack([g1, g2]))
    for name, residual in zip(("hermitian-g1", "hermitian-g2"), asymmetry):
        results.append(_result(name, residual, tol.eps_eq))
    try:
        spec = ScalarProductSpec(g1, g2, tol)
    except ValueError as exc:
        results.append(_result("positive-definite", 1.0, 0.0))
        notes.append(f"positive-definite: {exc}")
        return results, notes
    results.append(_result("positive-definite", 0.0, 0.0))

    worst = _probe_defect(spec.dim, "check-probes", functools.partial(scalar_product, spec),
                          functools.partial(scalar_product_direct, spec))
    results.append(_result("decomposition-vs-direct", worst, 1e-12))
    notes.append(
        "closed-under-reference: " + ("yes" if spec.is_closed_under_reference(tol) else "no")
    )
    return results, notes


def run_checks(doc, spec: ScalarProductSpec | None, tol: Tolerance = DEFAULT_TOLERANCE):
    """Dispatch on document kind; returns (results, notes).

    A suite whose arithmetic overflows ends in a failing
    ``finite-arithmetic`` check and a note instead of its other results.
    """
    try:
        return _run_suite(doc, spec, tol)
    except NonFinite as exc:
        return [_result("finite-arithmetic", math.inf, 0.0)], [f"finite-arithmetic: {exc}"]


def _run_suite(doc, spec: ScalarProductSpec | None, tol: Tolerance):
    if doc.kind == "scalar":
        return check_scalar(doc.value, tol)
    if doc.kind == "ket":
        return check_ket(doc.value, spec, tol)
    if doc.kind == "matrix":
        return check_matrix(doc.value, tol)
    if doc.kind == "operator":
        return check_operator(doc.value, spec, tol)
    if doc.kind == "spec":
        return check_spec(doc.value[0], doc.value[1], tol)
    raise ValueError(f"unknown kind {doc.kind!r}")
