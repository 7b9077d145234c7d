"""Command-line interface around the .bct container.

Every subcommand loads its input, computes, and hands the result to
the verification layer in ``checks`` (the same checks ``bct check``
runs), which re-derives its defining residuals; the final verdict line
is "pass" only when all residuals are within tolerance.  Exit codes:
0 verdict pass, 1 unreadable or malformed input, 2 violated
precondition (singular matrix, non-self-adjoint Hamiltonian, a result
that overflows, ...), 3 completed run with verdict fail.  Output
depends on the input bytes and flags; at order 128, info, det, inv,
gram-schmidt, spectral and check print other last digits with one
OpenBLAS thread than with two.  The golden corpus (order <= 3) does not.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass

import numpy as np

from . import bct
from .bct import BctDocument, KindMismatch, ParseError
from .checks import (
    COFACTOR_MAX_ORDER,
    CheckResult,
    run_checks,
    verify_determinant,
    verify_evolution,
    verify_exponential,
    verify_gram_schmidt,
    verify_inverse,
    verify_self_adjoint_spectrum,
)
from .core import Bicomplex, BicomplexError, Tolerance
from .hilbert import (
    Ket,
    ScalarProductSpec,
    coefficient_matrix,
    gram_schmidt,
    ket_norms,
    row_kets,
    scalar_product,
)
from .matrix import BicomplexMatrix
from .operators import (
    EvolutionConfig,
    Operator,
    _evolve,
    eigendecompose_self_adjoint,
    op_exp,
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


def _load_spec(path: str | None, dim: int) -> ScalarProductSpec:
    if path is None:
        return ScalarProductSpec.identity(dim)
    doc = bct.load(path)
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
    doc = bct.load(args.file)
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


def _cmd_idempotent(args, tol: Tolerance) -> int:
    doc = bct.load(args.file)
    _require_kind(doc, ("scalar", "ket", "matrix", "operator"))
    lines = [f"file: {args.file}"]
    if doc.kind == "scalar":
        c1, c2 = doc.value.to_idempotent()
        lines.append(f"component 1: {bct.format_complex_atom(c1)}")
        lines.append(f"component 2: {bct.format_complex_atom(c2)}")
    else:
        value = doc.value if doc.kind == "ket" else _as_matrix(doc)
        template = bct.atoms_template(doc.dim, 2)
        for k, component in enumerate(value.components, 1):
            lines.append(f"component {k}:")
            lines.extend(bct.format_rows(template, bct.atom_fields(component)))
    return _emit("idempotent", lines, [], [])


def _cmd_det(args, tol: Tolerance) -> int:
    doc = bct.load(args.file)
    _require_kind(doc, ("matrix", "operator"))
    matrix = _as_matrix(doc)
    det = matrix.det()
    lines = [f"file: {args.file}"]
    lines += _result_block(det)
    lines.append(f"classification: {det.classify(tol).value}")

    notes = []
    if matrix.order > COFACTOR_MAX_ORDER:
        notes.append(f"det-idempotent-vs-direct: skipped (order > {COFACTOR_MAX_ORDER})")
    return _emit("det", lines, verify_determinant(matrix, det), notes)


def _cmd_inv(args, tol: Tolerance) -> int:
    doc = bct.load(args.file)
    _require_kind(doc, ("matrix", "operator"))
    matrix = _as_matrix(doc)
    inverse = matrix.inverse(tol)
    result = (
        Operator(inverse.matrix, doc.basis) if doc.kind == "operator" else inverse.matrix
    )
    lines = [f"file: {args.file}"]
    lines += _result_block(result)
    notes = [f"condition-estimates: {inverse.cond1:.3e} {inverse.cond2:.3e}"]
    return _emit("inv", lines, verify_inverse(matrix, inverse), notes)


def _cmd_gram_schmidt(args, tol: Tolerance) -> int:
    doc = bct.load(args.file)
    _require_kind(doc, ("matrix",))
    matrix: BicomplexMatrix = doc.value
    spec = _load_spec(args.spec, matrix.order)
    ortho = gram_schmidt(spec, row_kets(matrix, "input-rows"), tol)

    lines = [f"file: {args.file}"]
    lines += _result_block(coefficient_matrix(ortho).transpose())
    return _emit("gram-schmidt", lines, verify_gram_schmidt(spec, ortho, tol), [])


def _cmd_spectral(args, tol: Tolerance) -> int:
    doc = bct.load(args.file)
    _require_kind(doc, ("operator", "matrix"))
    op = doc.value if doc.kind == "operator" else Operator(doc.value)
    spec = _load_spec(args.spec, op.dim)
    system = eigendecompose_self_adjoint(spec, op, tol)
    value_rows = bct.format_rows(bct.atoms_template(1), bct.atom_fields(*system.values[..., None]))
    ket_rows = bct.format_rows(bct.atoms_template(op.dim), bct.atom_fields(*system.kets.mT))
    lines = [f"file: {args.file}"]
    lines += [f"eigenvalue {i}: {row}" for i, row in enumerate(value_rows)]
    lines += [f"eigenket {i}: {row}" for i, row in enumerate(ket_rows)]

    return _emit("spectral", lines, verify_self_adjoint_spectrum(spec, op, system), [])


def _cmd_exp(args, tol: Tolerance) -> int:
    doc = bct.load(args.file)
    _require_kind(doc, ("matrix", "operator"))
    matrix = _as_matrix(doc)
    op = Operator(matrix, doc.basis or "canonical")
    result = op_exp(op)
    back = op_exp(op.scale(-1))
    value = result if doc.kind == "operator" else result.matrix
    lines = [f"file: {args.file}"]
    lines += _result_block(value)
    return _emit("exp", lines, verify_exponential(result.matrix, back.matrix), [])


def _cmd_evolve(args, tol: Tolerance) -> int:
    ham_doc = bct.load(args.hamiltonian)
    _require_kind(ham_doc, ("operator", "matrix"))
    op = ham_doc.value if ham_doc.kind == "operator" else Operator(ham_doc.value)
    state_doc = bct.load(args.state)
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

    evolution = _evolve(cfg, op, state, spec, tol)
    times, z1, z2 = evolution.samples()
    lines = [
        f"hamiltonian: {args.hamiltonian}",
        f"state: {args.state}",
        f"hbar: {args.hbar:.17g}",
        f"t0: {args.t0:.17g}",
        f"t1: {args.t1:.17g}",
        f"samples: {args.samples}",
        "columns: t\tket-atoms\tnorm-e1\tnorm-e2",
    ]
    norms = ket_norms(spec, z1, z2, tol)
    template = "%.17g\t" + bct.atoms_template(op.dim, sep="\t") + "\t%.17g\t%.17g"
    lines += bct.format_rows(template, np.column_stack([times, bct.atom_fields(z1, z2), *norms]))

    return _emit("evolve", lines, verify_evolution(evolution, norms), [])


def _cmd_check(args, tol: Tolerance) -> int:
    doc = bct.load(args.file)
    spec = None
    if args.spec is not None and doc.kind in ("ket", "operator"):
        spec = _load_spec(args.spec, doc.dim)
    results, notes = run_checks(doc, spec, tol)
    lines = [f"file: {args.file}", f"kind: {doc.kind}", f"dim: {doc.dim}"]
    return _emit("check", lines, results, notes)


# -- dispatch ------------------------------------------------------------------


@functools.cache
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
        ("gram-schmidt", _cmd_gram_schmidt),
        ("spectral", _cmd_spectral),
        ("evolve", _cmd_evolve),
        ("check", _cmd_check),
    ):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        if name == "evolve":
            p.add_argument("--hamiltonian", required=True)
            p.add_argument("--state", required=True)
            p.add_argument("--hbar", type=float, required=True)
            p.add_argument("--t0", type=float, required=True)
            p.add_argument("--t1", type=float, required=True)
            p.add_argument("--samples", type=int, default=100)
            p.add_argument("--xi", default=None, help="left-hand constant as a bicomplex atom")
        else:
            p.add_argument("file")
        if name in ("gram-schmidt", "spectral", "evolve", "check"):
            p.add_argument("--spec", default=None, help="scalar-product spec file")
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
