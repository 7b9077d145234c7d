"""Command-line interface around the .bct container.

One table, ``_COMMANDS``, gives each subcommand its handler, the input
kinds it accepts and those that read ``--spec``, and builds the
argparse subcommands in ``bct --help`` order.  One runner,
``_dispatch``, loads the input, rejects a kind not accepted
(``KindMismatch``), resolves the spec (the kept standard product
without ``--spec``), calls the handler and renders its payload lines,
checks and notes under the ``file:`` header; ``evolve``'s handler loads
its two files itself.

Handlers verify through ``checks`` (the same checks ``bct check``
runs), which re-derives their defining residuals; the verdict line is
"pass" only when all residuals are within tolerance.  Exit codes: 0
verdict pass, 1 unreadable or malformed input, or a stdout that closed
or failed before the report was written (nothing is printed to stderr
then), 2 violated precondition (singular matrix, non-self-adjoint
Hamiltonian, a result that overflows, a size that needs more memory
than there is, ...), 3 completed run with verdict fail.  The ``bct``
console script (:func:`entry`) flushes stdout and stderr and ends the
process with ``os._exit``, skipping interpreter finalization, so
``atexit`` handlers that other code registers do not run in a ``bct``
process; in-process callers of :func:`main` return normally.  Output
depends on the input bytes and flags; at order 128, info, det, inv,
gram-schmidt, spectral and check print other last digits with one
OpenBLAS thread than with two.  The golden corpus (order <= 3) does
not.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

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
from .core import DEFAULT_TOLERANCE, Bicomplex, BicomplexError, Tolerance
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
    InvalidXi,
    Operator,
    _evolve,
    eigendecompose_self_adjoint,
    op_exp,
)


def _emit(
    command: str, lines: list[str], checks: list[CheckResult], notes: list[str]
) -> tuple[str, int]:
    """One command's report (payload lines, residual checks, notes, verdict) and exit code.

    The verdict is pass, exit code 0, exactly when every residual is
    within its declared tolerance, and fail, exit code 3, otherwise.
    """
    out = [f"command: {command}", *lines]
    for check in checks:
        status = "pass" if check.passed else "fail"
        out.append(
            f"check {check.name}: residual {check.residual:.3e} tol {check.tolerance:g} {status}"
        )
    out.extend(f"note: {n}" for n in notes)
    passed = all(check.passed for check in checks)
    out.append(f"verdict: {'pass' if passed else 'fail'}")
    return "\n".join(out), 0 if passed else 3


def _load_spec(
    path: str | None, dim: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> ScalarProductSpec:
    if path is None:
        return ScalarProductSpec.identity(dim)
    doc = bct.load(path)
    try:
        spec = doc.to_spec(tol)
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


def _result_block(value) -> list[str]:
    # the rendered document, as one piece without its final newline, which _emit's join restores
    return ["result:", bct.render(bct.document_for(value))[:-1]]


# -- subcommands ---------------------------------------------------------------
# handler(args, document, spec, tol) -> (payload lines, checks, notes)


def _cmd_info(args, doc: BctDocument, spec, tol: Tolerance):
    lines = [f"kind: {doc.kind}", f"dim: {doc.dim}"]
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
        product = scalar_product(ScalarProductSpec.identity(psi.dim), psi, psi)
        lines.append(f"self-product: {bct.format_bicomplex_atom(product)}")
    elif doc.kind in ("matrix", "operator"):
        matrix = _as_matrix(doc)
        det = matrix.det()
        lines.append(f"det: {bct.format_bicomplex_atom(det)}")
        lines.append(f"classification: {det.classify(tol).value}")
        lines.append(f"singular: {'yes' if matrix.is_singular(tol) else 'no'}")
    else:
        try:
            spec = doc.to_spec(tol)
        except ValueError as exc:
            lines.append(f"valid: no ({exc})")
        else:
            closed = spec.is_closed_under_reference(tol)
            lines.append("valid: yes")
            lines.append(f"closed-under-reference: {'yes' if closed else 'no'}")
    return lines, [], []


def _cmd_idempotent(args, doc: BctDocument, spec, tol: Tolerance):
    if doc.kind == "scalar":
        c1, c2 = doc.value.to_idempotent()
        return [f"component 1: {bct.format_complex_atom(c1)}",
                f"component 2: {bct.format_complex_atom(c2)}"], [], []
    value = doc.value if doc.kind == "ket" else _as_matrix(doc)
    template = bct.atoms_template(doc.dim, 2)
    lines = []
    for k, component in enumerate(value.components, 1):
        lines.append(f"component {k}:")
        lines.extend(bct.format_rows(template, bct.atom_fields(component)))
    return lines, [], []


def _cmd_det(args, doc: BctDocument, spec, tol: Tolerance):
    matrix = _as_matrix(doc)
    det = matrix.det()
    lines = _result_block(det) + [f"classification: {det.classify(tol).value}"]
    notes = []
    if matrix.order > COFACTOR_MAX_ORDER:
        notes.append(f"det-idempotent-vs-direct: skipped (order > {COFACTOR_MAX_ORDER})")
    return lines, verify_determinant(matrix, det), notes


def _cmd_inv(args, doc: BctDocument, spec, tol: Tolerance):
    matrix = _as_matrix(doc)
    inverse = matrix.inverse(tol)
    result = Operator(inverse.matrix, doc.basis) if doc.kind == "operator" else inverse.matrix
    notes = [f"condition-estimates: {inverse.cond1:.3e} {inverse.cond2:.3e}"]
    return _result_block(result), verify_inverse(matrix, inverse), notes


def _cmd_gram_schmidt(args, doc: BctDocument, spec, tol: Tolerance):
    ortho = gram_schmidt(spec, row_kets(doc.value, "input-rows"), tol)
    lines = _result_block(coefficient_matrix(ortho).transpose())
    return lines, verify_gram_schmidt(spec, ortho, tol), []


def _cmd_spectral(args, doc: BctDocument, spec, tol: Tolerance):
    op = doc.value if doc.kind == "operator" else Operator(doc.value)
    system = eigendecompose_self_adjoint(spec, op, tol)
    value_rows = bct.format_rows(bct.atoms_template(1), bct.atom_fields(*system.values[..., None]))
    ket_rows = bct.format_rows(bct.atoms_template(op.dim), bct.atom_fields(*system.kets.mT))
    lines = [f"eigenvalue {i}: {row}" for i, row in enumerate(value_rows)]
    lines += [f"eigenket {i}: {row}" for i, row in enumerate(ket_rows)]
    return lines, verify_self_adjoint_spectrum(spec, op, system), []


def _cmd_exp(args, doc: BctDocument, spec, tol: Tolerance):
    op = Operator(_as_matrix(doc), doc.basis or "canonical")
    result = op_exp(op)
    back = op_exp(op.scale(-1))
    value = result if doc.kind == "operator" else result.matrix
    return _result_block(value), verify_exponential(result.matrix, back.matrix), []


def _cmd_evolve(args, doc, spec, tol: Tolerance):
    ham_doc = bct.load(args.hamiltonian)
    _require_kind(ham_doc, ("operator", "matrix"))
    op = ham_doc.value if ham_doc.kind == "operator" else Operator(ham_doc.value)
    state_doc = bct.load(args.state)
    _require_kind(state_doc, ("ket",))
    spec = _load_spec(args.spec, op.dim, tol)

    xi = None if args.xi is None else _parse_xi(args.xi)
    try:
        cfg = EvolutionConfig(args.hbar, args.t0, args.t1, args.samples, xi, tol)
    except ValueError as exc:
        raise BicomplexError(f"invalid evolution settings: {exc}") from exc

    evolution = _evolve(cfg, op, state_doc.value, spec, tol)
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
    return lines, verify_evolution(evolution, norms), []


def _parse_xi(text: str) -> Bicomplex:
    """``--xi`` as one atom of four finite numbers; InvalidXi gives the reason it is not.

    Its bytes must be ASCII, as a document's are: ``float`` would read any
    Unicode decimal digit.
    """
    try:
        os.fsencode(text).decode("ascii")
        values = bct._read_payload([text], 0, "scalar", 4, 1, 1)
    except UnicodeDecodeError as exc:
        raise InvalidXi(f"--xi {text!a}: non-ASCII byte 0x{exc.object[exc.start]:02x}") from None
    except ParseError as exc:
        # the reason alone: a line and column would point into no file
        raise InvalidXi(f"--xi {text!a}: {str(exc).partition(': ')[2]}") from None
    return Bicomplex(*values.view(complex).ravel().tolist())


def _cmd_check(args, doc: BctDocument, spec, tol: Tolerance):
    results, notes = run_checks(doc, spec, tol)
    return [f"kind: {doc.kind}", f"dim: {doc.dim}"], results, notes


# -- dispatch ------------------------------------------------------------------

# name -> (handler, the input kinds it accepts, the input kinds that read
# --spec), in ``bct --help`` order.  Accepted kinds None: the handler loads
# its own inputs (evolve: --hamiltonian, whose kinds read --spec, and --state).
_COMMANDS = {
    "info": (_cmd_info, bct.KINDS, ()),
    "idempotent": (_cmd_idempotent, ("scalar", "ket", "matrix", "operator"), ()),
    "det": (_cmd_det, ("matrix", "operator"), ()),
    "inv": (_cmd_inv, ("matrix", "operator"), ()),
    "exp": (_cmd_exp, ("matrix", "operator"), ()),
    "gram-schmidt": (_cmd_gram_schmidt, ("matrix",), ("matrix",)),
    "spectral": (_cmd_spectral, ("operator", "matrix"), ("operator", "matrix")),
    "evolve": (_cmd_evolve, None, ("operator", "matrix")),
    "check": (_cmd_check, bct.KINDS, ("ket", "operator")),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bct",
        description="Bicomplex linear algebra on .bct container files.",
    )
    parser.add_argument("--eps-null", type=float, default=1e-12, help="null-cone threshold")
    parser.add_argument("--eps-eq", type=float, default=1e-12, help="approximate-equality threshold")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, kinds, spec_kinds) in _COMMANDS.items():
        p = sub.add_parser(name)
        if kinds is None:
            for flag in ("--hamiltonian", "--state"):
                p.add_argument(flag, required=True)
            for flag in ("--hbar", "--t0", "--t1"):
                p.add_argument(flag, type=float, required=True)
            p.add_argument("--samples", type=int, default=100)
            p.add_argument("--xi", default=None, help="left-hand constant as a bicomplex atom")
        else:
            p.add_argument("file")
        if spec_kinds:
            p.add_argument("--spec", default=None, help="scalar-product spec file")
    return parser


def _dispatch(args, tol: Tolerance) -> tuple[str, int]:
    """Load the input, check its kind, resolve --spec, run the handler and render its report."""
    handler, kinds, spec_kinds = _COMMANDS[args.subcommand]
    header, doc, spec = [], None, None
    if kinds is not None:
        doc = bct.load(args.file)
        _require_kind(doc, kinds)
        if doc.kind in spec_kinds:
            spec = _load_spec(args.spec, doc.dim, tol)
        header.append(f"file: {args.file}")
    lines, checks, notes = handler(args, doc, spec, tol)
    return _emit(args.subcommand, header + lines, checks, notes)


def _run(args) -> tuple[str, int]:
    """What one parsed command line prints, and its exit code."""
    try:
        tol = Tolerance(eps_null=args.eps_null, eps_eq=args.eps_eq)
    except ValueError as exc:
        return f"error: {exc}", 2
    try:
        return _dispatch(args, tol)
    except ParseError as exc:
        return f"parse error: {exc}", 1
    except OSError as exc:
        return f"cannot read input: {exc}", 1
    except BicomplexError as exc:
        return f"error: {type(exc).__name__}: {exc}", 2
    except MemoryError as exc:
        # a size the machine cannot hold (``evolve --samples 100000000000``)
        return f"error: MemoryError: {exc}", 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if sys.stdout is None:
        # stdout was closed when the process started: no report can be written
        return 1
    text, code = _run(args)
    try:
        print(text)
    except OSError:
        # the reader closed stdout early (``bct ... | head -1``) or the
        # write failed: nothing more can be reported, and stderr stays quiet
        return 1
    return code


def entry():
    """The ``bct`` console script: :func:`main`, then ``os._exit`` after flushing.

    Skipping interpreter finalization saves a good share of a short
    call.  A flush that fails ends the call with 1, as a failed write in
    :func:`main` does.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            code = 1
    os._exit(code)


if __name__ == "__main__":
    entry()
