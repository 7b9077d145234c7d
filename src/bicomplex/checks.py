"""The verification layer: every residual check a `bct` command reports.

Each `verify_*` function checks one computed result (a determinant, an
inverse, an exponential, an orthonormalized basis, a spectrum, an
evolved series) and the `check_*` suites re-derive everything a
document's kind promises.  Both use independent routes where one exists
(cofactor determinants, direct Gram-entry scalar products).  Results
are (name, residual, tolerance) triples; a verdict passes only when
every residual is within bounds.  Probe vectors come from a fixed seed
so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
)
from .hilbert import (
    Ket,
    NotABasis,
    NullConePivot,
    ScalarProductSpec,
    coefficient_matrix,
    gram_schmidt,
    normalize,
    row_kets,
    scalar_product,
)
from .matrix import BicomplexMatrix, MatrixInverse
from .operators import (
    EigenPair,
    Eigensystem,
    Operator,
    _Evolution,
    adjoint,
    compose,
    eigendecompose_self_adjoint,
    eigendecompose_unitary,
    is_self_adjoint,
    is_unitary,
    spectral_reconstruct,
)
from .reference import det_cofactor, scalar_product_direct

PROBE_SEED = 271828
COFACTOR_MAX_ORDER = 5


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _result(name: str, residual: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(residual), float(tolerance))


def _probe_kets(dim: int, count: int, basis_id: str) -> list[Ket]:
    rng = np.random.default_rng(PROBE_SEED)
    # per ket, in draw order: re z1, im z1, re z2, im z2
    draws = rng.standard_normal((count, 2, 2, dim))
    return [Ket(*(re + 1j * im), basis_id) for re, im in draws.transpose(0, 2, 1, 3)]


def check_scalar(w: Bicomplex, tol: Tolerance) -> tuple[list[CheckResult], list[str]]:
    results, notes = [], []
    scale = max(1.0, w.euclid_norm())

    c1, c2 = w.to_idempotent()
    results.append(
        _result(
            "idempotent-round-trip",
            (Bicomplex.from_idempotent(c1, c2) - w).euclid_norm() / scale,
            tol.eps_eq,
        )
    )
    involution = max((w.conjugate(k).conjugate(k) - w).euclid_norm() for k in (1, 2, 3))
    results.append(_result("conjugation-involution", involution / scale, tol.eps_eq))

    modulus = w.modulus_squared("j")
    squared = Hyperbolic.from_bicomplex(modulus, tol)
    results.append(
        _result(
            "modulus-j-positive",
            max(0.0, -min(squared.x1, squared.x2)) / scale**2,
            tol.eps_eq,
        )
    )
    results.append(
        _result(
            "norm-consistency",
            abs(w.euclid_norm() - math.sqrt(max(modulus.z1.real, 0.0))) / scale,
            tol.eps_eq,
        )
    )

    classification = w.classify(tol)
    if classification is Classification.INVERTIBLE:
        results.append(
            _result("inverse-residual", (w * w.inverse(tol) - ONE).euclid_norm(), 1e-12)
        )
    else:
        notes.append(f"inverse: skipped ({classification.value})")
    root = w.nth_root(3)
    results.append(_result("cube-root-residual", (root**3 - w).euclid_norm() / scale, 1e-12))
    return results, notes


def check_ket(psi: Ket, spec: ScalarProductSpec | None, tol: Tolerance):
    results, notes = [], []
    if spec is None:
        spec = ScalarProductSpec.identity(psi.dim)
    rebuilt = Ket.from_components(*psi.components, psi.basis_id)
    scale = max(1.0, psi.sup_norm())
    results.append(_result("component-round-trip", (rebuilt - psi).sup_norm() / scale, tol.eps_eq))

    ket_class = psi.classify(tol)
    self_product = scalar_product(spec, psi, psi)
    product_class = self_product.classify(tol)
    consistent = ket_class.value == product_class.value or (
        ket_class is KetClassification.REGULAR and product_class is Classification.INVERTIBLE
    )
    results.append(_result("classification-consistency", 0.0 if consistent else 1.0, 0.0))

    squared = self_product.to_idempotent()
    results.append(
        _result(
            "self-product-positive",
            max(0.0, -min(squared.c1.real, squared.c2.real)) / scale**2,
            tol.eps_eq,
        )
    )

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

    entry_scale = max(matrix.max_norm(), 1.0)
    squared = matrix @ matrix
    law = float(np.abs(squared.components - matrix.components @ matrix.components).max())
    results.append(_result("product-component-law", law / max(1.0, entry_scale**2), 1e-10))

    classification = det.classify(tol)
    if classification is Classification.INVERTIBLE:
        results.extend(verify_inverse(matrix, matrix.inverse(tol)))
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
    """det against the cofactor expansion (orders up to COFACTOR_MAX_ORDER) and det(A^T)."""
    scale = max(det.euclid_norm(), max(matrix.max_norm(), 1.0) ** matrix.order, 1e-30)
    results = []
    if matrix.order <= COFACTOR_MAX_ORDER:
        reference = det_cofactor(matrix)
        residual = (det - reference).euclid_norm() / scale
        results.append(_result("det-idempotent-vs-direct", residual, 1e-9))
    transposed = (matrix.transpose().det() - det).euclid_norm() / scale
    results.append(_result("det-transpose", transposed, 1e-9))
    return results


def verify_inverse(matrix: BicomplexMatrix, inverse: MatrixInverse) -> list[CheckResult]:
    """A inv(A) = I and inv(A) A = A inv(A), to 1e-10 times the worse condition."""
    cond = max(inverse.cond1, inverse.cond2, 1.0)
    right = matrix @ inverse.matrix
    return [
        _result(
            "inverse-residual",
            (right - BicomplexMatrix.identity(matrix.order)).max_norm(),
            1e-10 * cond,
        ),
        _result("inverse-left-right", (inverse.matrix @ matrix - right).max_norm(), 1e-10 * cond),
    ]


def verify_exponential(forward: BicomplexMatrix, backward: BicomplexMatrix) -> list[CheckResult]:
    """exp(A) exp(-A) = I, relative to the product of the two max norms."""
    residual = (forward @ backward - BicomplexMatrix.identity(forward.order)).max_norm()
    scale = max(1.0, forward.max_norm() * backward.max_norm())
    return [_result("exp-inverse-consistency", residual / scale, 1e-9)]


def verify_gram_schmidt(
    spec: ScalarProductSpec, kets: Sequence[Ket], tol: Tolerance
) -> list[CheckResult]:
    """The output kets are orthonormal and none lies in the null cone."""
    vectors = coefficient_matrix(kets).components
    # Ket.classify, column by column: a component vanishing against the larger one
    m1, m2 = np.abs(vectors).max(axis=1)
    scale = np.maximum(m1, m2)
    null_cone = ((m1 <= tol.eps_null * scale) | (m2 <= tol.eps_null * scale)).sum()
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
    scale = max(1.0, x1[0], x2[0])
    drift = float(max(np.abs(x1 - x1[0]).max(), np.abs(x2 - x2[0]).max()) / scale)
    return [
        _result("norm-conservation", drift, 1e-9),
        _result("schrodinger-residual", evolution.schrodinger_residual(), 1e-5),
    ]


def check_operator(op: Operator, spec: ScalarProductSpec | None, tol: Tolerance):
    results, notes = check_matrix(op.matrix, tol)
    if spec is None:
        spec = ScalarProductSpec.identity(op.dim)
    scale = max(1.0, op.matrix.max_norm())

    star = adjoint(spec, op)
    twice = adjoint(spec, star)
    results.append(_result("adjoint-involution", (twice.matrix - op.matrix).max_norm() / scale, 1e-10))

    probes = _probe_kets(op.dim, 2, op.basis_id)
    defining = 0.0
    for psi in probes:
        for phi in probes:
            left = scalar_product(spec, psi, op.apply(phi))
            right = scalar_product(spec, star.apply(psi), phi)
            defining = max(defining, (left - right).euclid_norm() / max(1.0, left.euclid_norm()))
    results.append(_result("adjoint-defining-relation", defining, 1e-10))

    if is_self_adjoint(spec, op, tol):
        notes.append("spectral-class: self-adjoint")
        system = eigendecompose_self_adjoint(spec, op, tol)
        results.extend(verify_self_adjoint_spectrum(spec, op, system))
    elif is_unitary(spec, op, tol):
        notes.append("spectral-class: unitary")
        system = eigendecompose_unitary(spec, op, tol)
        defect = (compose(star, op).matrix - BicomplexMatrix.identity(op.dim)).max_norm()
        results.append(_result("unitary-defect", defect, 1e-10))
        # lambda conj3(lambda) - 1 is (|c1|^2 - 1) e1 + (|c2|^2 - 1) e2
        modulus = _entry_norms(*(np.abs(system.value_components) ** 2 - 1.0)).max()
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
    scale = max(1.0, op.matrix.max_norm())
    rebuilt = spectral_reconstruct(spec, system)
    c1, c2 = system.value_components
    # Bicomplex.euclid_norm of each eigenvalue
    norms = [math.hypot(a.real, a.imag, b.real, b.imag) for a, b in zip(*system.values.tolist())]
    imag = (np.maximum(abs(c1.imag), abs(c2.imag)) / np.maximum(1.0, norms)).max()
    return [
        _result("spectral-reconstruction", (rebuilt.matrix - op.matrix).max_norm() / scale, 1e-9),
        _result("eigenvalue-imag-parts", imag, 1e-10),
    ] + _eigenbasis_results(spec, system)


def _eigenbasis_results(spec: ScalarProductSpec, system: Eigensystem) -> list[CheckResult]:
    return [
        _result("eigenket-orthonormal", orthonormal_defect(spec, system.ket_components), 1e-10),
        _result("completeness", completeness_defect(spec, system.ket_components), 1e-10),
    ]


def _entry_norms(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Euclidean norms of the entries of the bicomplex matrix d1*e1 + d2*e2."""
    return np.sqrt(0.5 * (np.abs(d1) ** 2 + np.abs(d2) ** 2))


def orthonormal_defect(spec: ScalarProductSpec, kets: Sequence[Ket] | np.ndarray) -> float:
    """Largest |(phi_i, phi_j) - delta_ij| over i <= j, Euclidean norm.

    Computed from one Gram matrix V_k^H G_k V_k per component, V_k
    holding the kets' component vectors as columns (or ``kets`` is V).
    """
    vectors = kets if isinstance(kets, np.ndarray) else coefficient_matrix(kets).components
    defects = vectors.conj().mT @ spec.grams @ vectors - np.eye(vectors.shape[-1])
    return float(np.triu(_entry_norms(*defects)).max())


def completeness_defect(spec: ScalarProductSpec, kets: Sequence[Ket] | np.ndarray) -> float:
    """Largest entry of sum_l |phi_l><phi_l| - I, Euclidean norm.

    Per component the sum is V_k V_k^H G_k, V_k holding the kets'
    component vectors as columns (or ``kets`` is V).
    """
    vectors = kets if isinstance(kets, np.ndarray) else coefficient_matrix(kets).components
    defects = vectors @ (vectors.conj().mT @ spec.grams) - np.eye(vectors.shape[1])
    return float(_entry_norms(*defects).max())


def check_spec(g1: np.ndarray, g2: np.ndarray, tol: Tolerance):
    results, notes = [], []
    grams = np.stack([g1, g2])
    scales = np.maximum(np.abs(grams).max(axis=(1, 2)), 1.0)
    asymmetry = np.abs(grams - grams.conj().mT).max(axis=(1, 2)) / scales
    for name, residual in zip(("hermitian-g1", "hermitian-g2"), asymmetry):
        results.append(_result(name, residual, tol.eps_eq))
    try:
        spec = ScalarProductSpec(g1, g2, tol)
    except ValueError as exc:
        results.append(_result("positive-definite", 1.0, 0.0))
        notes.append(f"positive-definite: {exc}")
        return results, notes
    results.append(_result("positive-definite", 0.0, 0.0))

    probes = _probe_kets(spec.dim, 2, "check-probes")
    worst = 0.0
    for psi in probes:
        for phi in probes:
            fast = scalar_product(spec, psi, phi)
            direct = scalar_product_direct(spec, psi, phi)
            worst = max(worst, (fast - direct).euclid_norm() / max(1.0, fast.euclid_norm()))
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
