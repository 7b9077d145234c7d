"""Command-line interface around the .bct container.

One table, ``_COMMANDS``, gives each subcommand its inputs (each
argument with the document kinds it accepts, in load order), the kinds
of the first input that read ``--spec``, and three stages: compute,
verify and render.  It builds the argparse subcommands in ``bct --help``
order.  One runner, ``_dispatch``, loads the inputs in order, rejecting
a kind not accepted (``KindMismatch``) before it loads the next, and
writes one ``argument: path`` header line per input (``file:``, or
``evolve``'s ``hamiltonian:`` and ``state:``).  It then resolves the
spec against the first input (the kept standard product without
``--spec``), computes the command's value, verifies it and renders its
payload lines, which it prints with the checks and notes.

Verify stages check through ``checks`` (the same checks ``bct check``
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


def _as_matrix(doc: BctDocument) -> BicomplexMatrix:
    return doc.value.matrix if doc.kind == "operator" else doc.value


def _as_operator(doc: BctDocument) -> Operator:
    return doc.value if doc.kind == "operator" else Operator(doc.value)


def _render_result(value) -> list[str]:
    # the computed value's last item as a document, in one piece without its final
    # newline, which _emit's join restores
    return ["result:", bct.render(bct.document_for(value[-1]))[:-1]]


# -- subcommands ---------------------------------------------------------------
# Each command is three stages, which _dispatch runs in this order:
# compute(docs, spec, tol, args) -> value, with docs the inputs in load order;
# verify(value, spec, tol) -> (checks, notes); render(value) -> payload lines.


def _no_checks(value, spec, tol: Tolerance):
    return [], []


def _info(docs, spec, tol: Tolerance, args) -> list[str]:
    doc = docs[0]
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
    return lines


def _idempotent(docs, spec, tol: Tolerance, args) -> list[str]:
    doc = docs[0]
    if doc.kind == "scalar":
        c1, c2 = doc.value.to_idempotent()
        return [f"component 1: {bct.format_complex_atom(c1)}",
                f"component 2: {bct.format_complex_atom(c2)}"]
    value = doc.value if doc.kind == "ket" else _as_matrix(doc)
    template = bct.atoms_template(doc.dim, 2)
    lines = []
    for k, component in enumerate(value.components, 1):
        lines += [f"component {k}:", *bct.format_rows(template, bct.atom_fields(component))]
    return lines


def _det(docs, spec, tol: Tolerance, args):
    matrix = _as_matrix(docs[0])
    det = matrix.det()
    return matrix, det.classify(tol), det


def _verify_det(value, spec, tol: Tolerance):
    matrix, _, det = value
    skipped = f"det-idempotent-vs-direct: skipped (order > {COFACTOR_MAX_ORDER})"
    return verify_determinant(matrix, det), [skipped] if matrix.order > COFACTOR_MAX_ORDER else []


def _inv(docs, spec, tol: Tolerance, args):
    matrix = _as_matrix(docs[0])
    inverse = matrix.inverse(tol)
    result = Operator(inverse.matrix, docs[0].basis) if docs[0].kind == "operator" else inverse.matrix
    return matrix, inverse, result


def _verify_inv(value, spec, tol: Tolerance):
    matrix, inverse, _ = value
    notes = [f"condition-estimates: {inverse.cond1:.3e} {inverse.cond2:.3e}"]
    return verify_inverse(matrix, inverse), notes


def _orthonormalize(docs, spec, tol: Tolerance, args):
    ortho = gram_schmidt(spec, row_kets(docs[0].value, "input-rows"), tol)
    return ortho, coefficient_matrix(ortho).transpose()


def _spectral(docs, spec, tol: Tolerance, args):
    op = _as_operator(docs[0])
    return op, eigendecompose_self_adjoint(spec, op, tol)


def _render_spectral(value) -> list[str]:
    op, system = value
    value_rows = bct.format_rows(bct.atoms_template(1), bct.atom_fields(*system.values[..., None]))
    ket_rows = bct.format_rows(bct.atoms_template(op.dim), bct.atom_fields(*system.kets.mT))
    lines = [f"eigenvalue {i}: {row}" for i, row in enumerate(value_rows)]
    return lines + [f"eigenket {i}: {row}" for i, row in enumerate(ket_rows)]


def _exp(docs, spec, tol: Tolerance, args):
    op = Operator(_as_matrix(docs[0]), docs[0].basis or "canonical")
    result = op_exp(op)
    return op, result, result if docs[0].kind == "operator" else result.matrix


def _verify_exp(value, spec, tol: Tolerance):
    op, result, _ = value
    return verify_exponential(result.matrix, op_exp(op.scale(-1)).matrix), []


def _evolve_samples(docs, spec, tol: Tolerance, args):
    xi = None if args.xi is None else _parse_xi(args.xi)
    try:
        cfg = EvolutionConfig(args.hbar, args.t0, args.t1, args.samples, xi, tol)
    except ValueError as exc:
        raise BicomplexError(f"invalid evolution settings: {exc}") from exc
    evolution = _evolve(cfg, _as_operator(docs[0]), docs[1].value, spec, tol)
    times, z1, z2 = evolution.samples()
    return evolution, times, z1, z2, ket_norms(spec, z1, z2, tol)


def _render_evolution(value) -> list[str]:
    evolution, times, z1, z2, norms = value
    cfg = evolution.cfg
    lines = [f"hbar: {cfg.hbar:.17g}", f"t0: {cfg.t0:.17g}", f"t1: {cfg.t1:.17g}",
             f"samples: {cfg.steps}", "columns: t\tket-atoms\tnorm-e1\tnorm-e2"]
    template = "%.17g\t" + bct.atoms_template(z1.shape[1], sep="\t") + "\t%.17g\t%.17g"
    return lines + bct.format_rows(template, np.column_stack([times, bct.atom_fields(z1, z2), *norms]))


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


# -- dispatch ------------------------------------------------------------------

# name -> (inputs, each argument with the kinds it accepts, in load order; the
# kinds of the first input that read --spec; compute; verify; render), in
# ``bct --help`` order.  The stages look up the names they call when they run,
# so a name replaced in this module (``_evolve``, a traced function) is called.
_COMMANDS = {
    "info": ({"file": bct.KINDS}, (), _info, _no_checks, list),
    "idempotent": ({"file": ("scalar", "ket", "matrix", "operator")}, (), _idempotent,
                   _no_checks, list),
    "det": ({"file": ("matrix", "operator")}, (), _det, _verify_det,
            lambda value: _render_result(value) + [f"classification: {value[1].value}"]),
    "inv": ({"file": ("matrix", "operator")}, (), _inv, _verify_inv, _render_result),
    "exp": ({"file": ("matrix", "operator")}, (), _exp, _verify_exp, _render_result),
    "gram-schmidt": ({"file": ("matrix",)}, ("matrix",), _orthonormalize,
                     lambda value, spec, tol: (verify_gram_schmidt(spec, value[0], tol), []),
                     _render_result),
    "spectral": ({"file": ("operator", "matrix")}, ("operator", "matrix"), _spectral,
                 lambda value, spec, tol: (verify_self_adjoint_spectrum(spec, *value), []),
                 _render_spectral),
    "evolve": ({"hamiltonian": ("operator", "matrix"), "state": ("ket",)}, ("operator", "matrix"),
               _evolve_samples, lambda value, spec, tol: (verify_evolution(value[0], value[-1]), []),
               _render_evolution),
    "check": ({"file": bct.KINDS}, ("ket", "operator"), lambda docs, spec, tol, args: docs[0],
              lambda doc, spec, tol: run_checks(doc, spec, tol),
              lambda doc: [f"kind: {doc.kind}", f"dim: {doc.dim}"]),
}


def _ascii(convert):
    """``convert`` as an argparse type that refuses non-ASCII text.

    ``float`` and ``int`` read any Unicode decimal digit, where ``--xi``
    and a document's fields must be ASCII.  The name stays ``convert``'s,
    which argparse's usage error prints ("invalid float value: ...").
    """

    def parse(text: str):
        text.encode("ascii")  # any other text raises UnicodeEncodeError, a ValueError
        return convert(text)

    parse.__name__ = convert.__name__
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bct",
        description="Bicomplex linear algebra on .bct container files.",
    )
    number, count = _ascii(float), _ascii(int)
    parser.add_argument("--eps-null", type=number, default=1e-12, help="null-cone threshold")
    parser.add_argument("--eps-eq", type=number, default=1e-12, help="approximate-equality threshold")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (inputs, spec_kinds, *_) in _COMMANDS.items():
        p = sub.add_parser(name)
        for argument in inputs:
            if argument == "file":
                p.add_argument("file")
            else:
                p.add_argument(f"--{argument}", required=True)
        if name == "evolve":
            for flag in ("--hbar", "--t0", "--t1"):
                p.add_argument(flag, type=number, required=True)
            p.add_argument("--samples", type=count, default=100)
            p.add_argument("--xi", default=None, help="left-hand constant as a bicomplex atom")
        if spec_kinds:
            p.add_argument("--spec", default=None, help="scalar-product spec file")
    return parser


def _dispatch(args, tol: Tolerance) -> tuple[str, int]:
    """Load the inputs in order, resolve --spec, then compute, verify and render the report."""
    inputs, spec_kinds, compute, verify, render = _COMMANDS[args.subcommand]
    docs = []
    for argument, kinds in inputs.items():
        doc = bct.load(getattr(args, argument))
        if doc.kind not in kinds:
            raise KindMismatch(kinds, doc.kind)
        docs.append(doc)
    header = [f"{argument}: {getattr(args, argument)}" for argument in inputs]
    spec = _load_spec(args.spec, docs[0].dim, tol) if docs[0].kind in spec_kinds else None
    value = compute(docs, spec, tol, args)
    checks, notes = verify(value, spec, tol)
    return _emit(args.subcommand, header + render(value), checks, notes)


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
