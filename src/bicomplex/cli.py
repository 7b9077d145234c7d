"""Command-line interface around the .bct container.

Every computation path re-verifies its defining residual and reports it;
the final verdict line is "pass" only when all residuals are within
tolerance.  Exit codes: 0 verdict pass, 1 unreadable or malformed
input, 2 violated precondition (singular matrix, non-self-adjoint
Hamiltonian, ...), 3 completed run with verdict fail.  Output depends
only on the input bytes and flags.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import bct
from .bct import BctDocument, KindMismatch, ParseError
from .checks import (
    COFACTOR_MAX_ORDER,
    CheckResult,
    orthonormal_defect,
    run_checks,
    verify_self_adjoint_spectrum,
)
from .core import Bicomplex, BicomplexError, Tolerance
from .reference import det_cofactor
from .hilbert import (
    Ket,
    Hyperbolic,
    ScalarProductSpec,
    gram_schmidt,
    scalar_product,
)
from .matrix import BicomplexMatrix
from .operators import (
    EvolutionConfig,
    Operator,
    eigendecompose_self_adjoint,
    evolve_series,
    op_exp,
    schrodinger_residual,
)


@dataclass
class Report:
    """One command's outcome: payload lines, residual checks, notes.

    The verdict is pass exactly when every residual is within its
    declared tolerance; rendering is deterministic.
    """

    command: str
    lines: list[str]
    checks: list[CheckResult]
    notes: list[str]

    @property
    def verdict(self) -> str:
        return "pass" if all(c.passed for c in self.checks) else "fail"

    @property
    def exit_code(self) -> int:
        return 0 if self.verdict == "pass" else 3

    def render(self) -> str:
        out = [f"command: {self.command}"]
        out.extend(self.lines)
        for check in self.checks:
            status = "pass" if check.passed else "fail"
            out.append(
                f"check {check.name}: residual {check.residual:.3e} "
                f"tol {check.tolerance:g} {status}"
            )
        out.extend(f"note: {n}" for n in self.notes)
        out.append(f"verdict: {self.verdict}")
        return "\n".join(out)


def _emit(command: str, lines: list[str], checks: list[CheckResult], notes: list[str]) -> int:
    report = Report(command, lines, checks, notes)
    print(report.render())
    return report.exit_code


def _load(path: str) -> BctDocument:
    return bct.load(path)


def _load_spec(path: str | None, dim: int) -> ScalarProductSpec:
    if path is None:
        return ScalarProductSpec.identity(dim)
    doc = _load(path)
    if doc.kind != "spec":
        raise KindMismatch(("spec",), doc.kind)
    try:
        spec = doc.to_spec()
    except ValueError as exc:
        raise BicomplexError(f"invalid scalar-product spec: {exc}") from exc
    if spec.dim != dim:
        raise BicomplexError(f"spec dimension {spec.dim} does not match input dimension {dim}")
    return spec


def _require_kind(doc: BctDocument, kinds: tuple[str, ...]):
    if doc.kind not in kinds:
        raise KindMismatch(kinds, doc.kind)


def _as_matrix(doc: BctDocument) -> BicomplexMatrix:
    return doc.value.matrix if doc.kind == "operator" else doc.value


def _result_block(value, basis: str | None = None) -> list[str]:
    return ["result:"] + bct.render(bct.document_for(value, basis)).rstrip("\n").split("\n")


# -- subcommands ---------------------------------------------------------------


def _cmd_info(args, tol: Tolerance) -> int:
    doc = _load(args.file)
    lines = [f"file: {args.file}", f"kind: {doc.kind}", f"dim: {doc.dim}"]
    if doc.basis is not None:
        lines.append(f"basis: {doc.basis}")
    if doc.kind == "scalar":
        w: Bicomplex = doc.value
        c1, c2 = w.to_idempotent()
        lines.append(f"idempotent: {bct.format_complex_atom(c1)} {bct.format_complex_atom(c2)}")
        lines.append(f"classification: {w.classify(tol).value}")
        lines.append(f"euclidean-norm: {w.euclid_norm():.17g}")
    elif doc.kind == "ket":
        psi: Ket = doc.value
        lines.append(f"classification: {psi.classify(tol).value}")
        spec = ScalarProductSpec.identity(psi.dim)
        product = scalar_product(spec, psi, psi)
        lines.append(f"self-product: {bct.format_bicomplex_atom(product)}")
    elif doc.kind in ("matrix", "operator"):
        matrix = _as_matrix(doc)
        det = matrix.det()
        lines.append(f"det: {bct.format_bicomplex_atom(det)}")
        lines.append(f"classification: {det.classify(tol).value}")
        lines.append(f"singular: {'yes' if matrix.is_singular(tol) else 'no'}")
    else:
        try:
            spec = doc.to_spec()
        except ValueError as exc:
            lines.append(f"valid: no ({exc})")
        else:
            closed = spec.is_closed_under_reference(tol)
            lines.append("valid: yes")
            lines.append(f"closed-under-reference: {'yes' if closed else 'no'}")
    return _emit("info", lines, [], [])


def _component_rows(component: np.ndarray) -> list[str]:
    if component.ndim == 1:
        return [" ".join(bct.format_complex_atom(complex(v)) for v in component)]
    return [
        " ".join(bct.format_complex_atom(complex(v)) for v in row) for row in component
    ]


def _cmd_idempotent(args, tol: Tolerance) -> int:
    doc = _load(args.file)
    _require_kind(doc, ("scalar", "ket", "matrix", "operator"))
    lines = [f"file: {args.file}"]
    if doc.kind == "scalar":
        c1, c2 = doc.value.to_idempotent()
        lines.append(f"component 1: {bct.format_complex_atom(c1)}")
        lines.append(f"component 2: {bct.format_complex_atom(c2)}")
    else:
        value = doc.value if doc.kind == "ket" else _as_matrix(doc)
        for k in (1, 2):
            lines.append(f"component {k}:")
            lines.extend(_component_rows(value.component(k)))
    return _emit("idempotent", lines, [], [])


def _cmd_det(args, tol: Tolerance) -> int:
    doc = _load(args.file)
    _require_kind(doc, ("matrix", "operator"))
    matrix = _as_matrix(doc)
    det = matrix.det()
    lines = [f"file: {args.file}"]
    lines += _result_block(det)
    lines.append(f"classification: {det.classify(tol).value}")

    checks = []
    notes = []
    scale = max(det.euclid_norm(), max(matrix.max_norm(), 1.0) ** matrix.order, 1e-30)
    if matrix.order <= COFACTOR_MAX_ORDER:
        reference = det_cofactor(matrix)
        checks.append(
            CheckResult("det-idempotent-vs-direct", (det - reference).euclid_norm() / scale, 1e-9)
        )
    else:
        notes.append(f"det-idempotent-vs-direct: skipped (order > {COFACTOR_MAX_ORDER})")
    checks.append(
        CheckResult("det-transpose", (matrix.transpose().det() - det).euclid_norm() / scale, 1e-9)
    )
    return _emit("det", lines, checks, notes)


def _cmd_inv(args, tol: Tolerance) -> int:
    doc = _load(args.file)
    _require_kind(doc, ("matrix", "operator"))
    matrix = _as_matrix(doc)
    inverse = matrix.inverse(tol)
    result = (
        Operator(inverse.matrix, doc.basis) if doc.kind == "operator" else inverse.matrix
    )
    lines = [f"file: {args.file}"]
    lines += _result_block(result)

    identity = BicomplexMatrix.identity(matrix.order)
    cond = max(inverse.cond1, inverse.cond2, 1.0)
    checks = [
        CheckResult("inverse-residual", (matrix @ inverse.matrix - identity).max_norm(), 1e-10 * cond),
        CheckResult(
            "inverse-left-right",
            (inverse.matrix @ matrix - matrix @ inverse.matrix).max_norm(),
            1e-10 * cond,
        ),
    ]
    notes = [f"condition-estimates: {inverse.cond1:.3e} {inverse.cond2:.3e}"]
    return _emit("inv", lines, checks, notes)


def _cmd_gram_schmidt(args, tol: Tolerance) -> int:
    doc = _load(args.file)
    _require_kind(doc, ("matrix",))
    matrix: BicomplexMatrix = doc.value
    n = matrix.order
    spec = _load_spec(args.spec, n)
    rows = [Ket(matrix.z1[i, :].copy(), matrix.z2[i, :].copy(), "input-rows") for i in range(n)]
    ortho = gram_schmidt(spec, rows, tol)

    result = BicomplexMatrix(
        np.vstack([k.z1 for k in ortho]), np.vstack([k.z2 for k in ortho])
    )
    lines = [f"file: {args.file}"]
    lines += _result_block(result)

    null_cone = sum(1 for k in ortho if k.classify(tol).value != "regular")
    checks = [
        CheckResult("orthonormal-defect", orthonormal_defect(spec, ortho), 1e-10),
        CheckResult("null-cone-outputs", float(null_cone), 0.0),
    ]
    return _emit("gram-schmidt", lines, checks, [])


def _cmd_spectral(args, tol: Tolerance) -> int:
    doc = _load(args.file)
    _require_kind(doc, ("operator", "matrix"))
    op = doc.value if doc.kind == "operator" else Operator(doc.value)
    spec = _load_spec(args.spec, op.dim)
    pairs = eigendecompose_self_adjoint(spec, op, tol)

    lines = [f"file: {args.file}"]
    for i, pair in enumerate(pairs):
        lines.append(f"eigenvalue {i}: {bct.format_bicomplex_atom(pair.value)}")
    for i, pair in enumerate(pairs):
        atoms = " ".join(bct.format_bicomplex_atom(pair.ket.coeff(l)) for l in range(op.dim))
        lines.append(f"eigenket {i}: {atoms}")

    return _emit("spectral", lines, verify_self_adjoint_spectrum(spec, op, pairs), [])


def _cmd_exp(args, tol: Tolerance) -> int:
    doc = _load(args.file)
    _require_kind(doc, ("matrix", "operator"))
    matrix = _as_matrix(doc)
    op = Operator(matrix, doc.basis or "canonical")
    result = op_exp(op)
    back = op_exp(op.scale(-1))
    value = result if doc.kind == "operator" else result.matrix
    lines = [f"file: {args.file}"]
    lines += _result_block(value)

    identity = BicomplexMatrix.identity(matrix.order)
    residual = (result.matrix @ back.matrix - identity).max_norm()
    scale = max(1.0, result.matrix.max_norm() * back.matrix.max_norm())
    checks = [CheckResult("exp-inverse-consistency", residual / scale, 1e-9)]
    return _emit("exp", lines, checks, [])


def _cmd_evolve(args, tol: Tolerance) -> int:
    ham_doc = _load(args.hamiltonian)
    _require_kind(ham_doc, ("operator", "matrix"))
    op = ham_doc.value if ham_doc.kind == "operator" else Operator(ham_doc.value)
    state_doc = _load(args.state)
    _require_kind(state_doc, ("ket",))
    state: Ket = state_doc.value
    spec = _load_spec(args.spec, op.dim)

    xi = None
    if args.xi is not None:
        xi_doc = bct.parse(f"bct v1\nkind: scalar\ndim: 1\n{args.xi}\n")
        xi = xi_doc.value
    try:
        cfg = EvolutionConfig(hbar=args.hbar, t0=args.t0, t1=args.t1, steps=args.samples, xi=xi)
    except ValueError as exc:
        raise BicomplexError(f"invalid evolution settings: {exc}") from exc

    series = evolve_series(cfg, op, state, spec, tol)
    lines = [
        f"hamiltonian: {args.hamiltonian}",
        f"state: {args.state}",
        f"hbar: {args.hbar:.17g}",
        f"t0: {args.t0:.17g}",
        f"t1: {args.t1:.17g}",
        f"samples: {args.samples}",
        "columns: t\tket-atoms\tnorm-e1\tnorm-e2",
    ]
    norms = []
    for t, ket in series:
        product = scalar_product(spec, ket, ket)
        hyper = Hyperbolic.from_bicomplex(product, tol)
        norms.append(hyper)
        atoms = "\t".join(bct.format_bicomplex_atom(ket.coeff(i)) for i in range(ket.dim))
        lines.append(f"{t:.17g}\t{atoms}\t{hyper.x1:.17g}\t{hyper.x2:.17g}")

    base = norms[0]
    scale = max(1.0, base.x1, base.x2)
    drift = max(max(abs(h.x1 - base.x1), abs(h.x2 - base.x2)) for h in norms) / scale
    fd = schrodinger_residual(cfg, op, state, spec, tol=tol)
    checks = [
        CheckResult("norm-conservation", drift, 1e-9),
        CheckResult("schrodinger-residual", fd, 1e-5),
    ]
    return _emit("evolve", lines, checks, [])


def _cmd_check(args, tol: Tolerance) -> int:
    doc = _load(args.file)
    spec = None
    if args.spec is not None and doc.kind in ("ket", "operator"):
        dim = doc.dim
        spec = _load_spec(args.spec, dim)
    results, notes = run_checks(doc, spec, tol)
    lines = [f"file: {args.file}", f"kind: {doc.kind}", f"dim: {doc.dim}"]
    return _emit("check", lines, results, notes)


# -- dispatch ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bct",
        description="Bicomplex linear algebra on .bct container files.",
    )
    parser.add_argument("--eps-null", type=float, default=1e-12, help="null-cone threshold")
    parser.add_argument("--eps-eq", type=float, default=1e-12, help="approximate-equality threshold")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, handler in (
        ("info", _cmd_info),
        ("idempotent", _cmd_idempotent),
        ("det", _cmd_det),
        ("inv", _cmd_inv),
        ("exp", _cmd_exp),
    ):
        p = sub.add_parser(name)
        p.add_argument("file")
        p.set_defaults(handler=handler)

    p = sub.add_parser("gram-schmidt")
    p.add_argument("file")
    p.add_argument("--spec", default=None, help="scalar-product spec file")
    p.set_defaults(handler=_cmd_gram_schmidt)

    p = sub.add_parser("spectral")
    p.add_argument("file")
    p.add_argument("--spec", default=None, help="scalar-product spec file")
    p.set_defaults(handler=_cmd_spectral)

    p = sub.add_parser("evolve")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--hbar", type=float, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--xi", default=None, help="left-hand constant as a bicomplex atom")
    p.add_argument("--spec", default=None, help="scalar-product spec file")
    p.set_defaults(handler=_cmd_evolve)

    p = sub.add_parser("check")
    p.add_argument("file")
    p.add_argument("--spec", default=None, help="scalar-product spec file")
    p.set_defaults(handler=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        tol = Tolerance(eps_null=args.eps_null, eps_eq=args.eps_eq)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    try:
        return args.handler(args, tol)
    except ParseError as exc:
        print(f"parse error: {exc}")
        return 1
    except OSError as exc:
        print(f"cannot read input: {exc}")
        return 1
    except BicomplexError as exc:
        print(f"error: {type(exc).__name__}: {exc}")
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
