"""Seeded extreme-value fuzz of every `bct` subcommand, run in process through ``cli.main``.

Documents of orders 1-3 take their fields from a palette of extreme
doubles (+-0, the smallest subnormal, 1e-300, 1e150, 1e300, +-the largest
double) and from Gaussians at several decimal exponents; half the
operators are built self-adjoint (z1 Hermitian, z2 skew-Hermitian), some
of those with one entry spoiled.  Each subcommand runs with and without
``--spec``, where it reads one, under well-conditioned specs at three
scales.  Every call must exit 0-3 with no exception and no
RuntimeWarning, and print no infinite tolerance.  A ``verdict: pass``
must survive an exact oracle:

- ``inv``: the printed inverse X has an exact (``Fraction``) residual
  max_k |A_k X_k - I| within the printed ``inverse-residual`` tolerance;
- ``gram-schmidt``: the printed rows, as the columns of V, have an exact
  Gram residual D_k = V_k^H G_k V_k - I under the call's spec whose
  largest entry norm, sqrt((|D1_ij|^2 + |D2_ij|^2) / 2), is within the
  printed ``orthonormal-defect`` tolerance;
- ``spectral``, ``evolve`` and ``check``'s ``spectral-class: self-adjoint``:
  G_k A_k is Hermitian for both components, measured exactly on the parts
  divided by 2^k, k the exponent of the largest part.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bicomplex import cli

import exact

HUGE = 1.7976931348623157e308
PALETTE = (0.0, -0.0, 5e-324, 1e-300, 1e150, 1e300, HUGE, -HUGE)
EXPONENTS = (-300, -150, 0, 150, 300)
SPEC_SCALES = (1.0, 1e300, 1e-300)
# relative asymmetry above which an operator is refuted as self-adjoint: the
# library's own bound is eps_eq = 1e-12 relative to A, so this leaves a wide margin
ASYMMETRY = 1e-6

_ATOM = re.compile(r"\(([^()]*)\)")
_INVERSE_TOL = re.compile(r"^check inverse-residual: residual \S+ tol (\S+) pass$", re.M)
_ORTHONORMAL_TOL = re.compile(r"^check orthonormal-defect: residual \S+ tol (\S+) pass$", re.M)


# -- documents --------------------------------------------------------------------


def _field(rng) -> float:
    draw = rng.random()
    if draw < 0.35:
        return 0.0
    if draw < 0.7:
        return PALETTE[rng.integers(len(PALETTE))]
    return float(rng.standard_normal() * 10.0 ** rng.choice(EXPONENTS))


def _parts(rng, shape) -> tuple[np.ndarray, np.ndarray]:
    """Random (z1, z2) parts, complex arrays of ``shape``, from the palette."""
    fields = np.array([_field(rng) for _ in range(4 * math.prod(shape))]).reshape(4, *shape)
    return fields[0] + 1j * fields[1], fields[2] + 1j * fields[3]


def _self_adjoint_parts(rng, n) -> tuple[np.ndarray, np.ndarray]:
    """Parts of an operator self-adjoint under the standard product, maybe one entry spoiled."""
    z1, z2 = _parts(rng, (n, n))
    z1 = np.triu(z1, 1) + np.triu(z1, 1).conj().T + np.diag(z1.diagonal().real)
    z2 = np.triu(z2, 1) - np.triu(z2, 1).conj().T + 1j * np.diag(z2.diagonal().imag)
    if rng.random() < 0.3:
        i, j = rng.integers(n, size=2)
        z2[i, j] = complex(_field(rng), _field(rng))
    return z1, z2


def _atoms(*parts: complex) -> str:
    return "(" + " ".join(repr(float(x)) for p in parts for x in (p.real, p.imag)) + ")"


def _write(path, kind: str, n: int, rows: list[str]) -> str:
    path.write_text(f"bct v1\nkind: {kind}\ndim: {n}\n" + "".join(row + "\n" for row in rows))
    return str(path)


def _square_rows(z1, z2) -> list[str]:
    return [" ".join(_atoms(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(z1, z2)]


def _spec(n: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """A well-conditioned Gram pair of order n, times ``scale``."""
    g1 = np.diag(np.arange(1.0, n + 1)).astype(complex)
    g2 = np.diag(np.arange(n, 0.0, -1)).astype(complex)
    for i in range(n - 1):
        g1[i, i + 1], g2[i, i + 1] = 0.25 + 0.125j, -0.25
    g1, g2 = (g + np.triu(g, 1).conj().T for g in (g1, g2))
    return g1 * scale, g2 * scale


# -- exact oracles ------------------------------------------------------------------


def _largest_exponent(*arrays: np.ndarray) -> int:
    parts = np.concatenate([np.asarray(a, dtype=complex).ravel().view(float) for a in arrays])
    return int(np.frexp(np.abs(parts).max())[1])


def _asymmetry(z1, z2, grams) -> float:
    """max_k max|G_k A_k - (G_k A_k)^H| / (max|G| max|A_k|), exactly, on parts divided by 2^k."""
    k = _largest_exponent(z1, z2)
    z1, z2 = np.ldexp(z1.view(float), -k).view(complex), np.ldexp(z2.view(float), -k).view(complex)
    g = _largest_exponent(*grams)
    grams = [np.ldexp(np.asarray(x, dtype=complex).view(float), -g).view(complex) for x in grams]
    components = exact.components(z1, z2)
    largest = max(exact.abs2(c) for comp in components for row in comp for c in row)
    if largest == 0:
        return 0.0
    gram_largest = max(exact.abs2(exact.pair(x)) for gram in grams for x in gram.ravel())
    worst = Fraction(0)
    for comp, gram in zip(components, grams):
        product = exact.matmul([[exact.pair(x) for x in row] for row in gram], comp)
        n = len(product)
        for i in range(n):
            for j in range(n):
                a, b = product[i][j], product[j][i]
                worst = max(worst, exact.abs2((a[0] - b[0], a[1] + b[1])))
    return math.sqrt(worst / (largest * gram_largest))


def _printed_parts(output: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (z1, z2) parts of the order-n matrix printed as the result in ``output``."""
    block = output.split("\nresult:\n", 1)[1].split("\ncheck ", 1)[0]
    fields = [[float(x) for x in atom.split()] for atom in _ATOM.findall(block)]
    x1 = np.array([complex(a, b) for a, b, _, _ in fields]).reshape(n, n)
    x2 = np.array([complex(c, d) for _, _, c, d in fields]).reshape(n, n)
    return x1, x2


def _inverse_residual(z1, z2, output: str) -> Fraction:
    """max_k |A_k X_k - I|^2 for the inverse X printed in ``output``, exactly."""
    n = z1.shape[0]
    x1, x2 = _printed_parts(output, n)
    worst = Fraction(0)
    for a, x in zip(exact.components(z1, z2), exact.components(x1, x2)):
        product = exact.matmul(a, x)
        for i in range(n):
            for j in range(n):
                re_, im_ = product[i][j]
                worst = max(worst, exact.abs2((re_ - (i == j), im_)))
    return worst


def _gram_residual(output: str, grams) -> Fraction:
    """max_ij (|D1_ij|^2 + |D2_ij|^2) / 2, D_k = V_k^H G_k V_k - I, exactly.

    The kets are the rows printed in ``output``; the quantity is the
    square of ``orthonormal-defect``'s largest entry norm.
    """
    v1, v2 = (x.T for x in _printed_parts(output, len(grams[0])))
    defects = [exact.gram_defect(v, exact.matrix(np.asarray(gram, dtype=complex)))
               for v, gram in zip(exact.components(v1, v2), grams)]
    return max((exact.abs2(a) + exact.abs2(b)) / 2
               for r1, r2 in zip(*defects) for a, b in zip(r1, r2))


# -- the run ------------------------------------------------------------------------


def _call(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert [str(w.message) for w in caught] == [], argv
    text = out.getvalue()
    assert code in (0, 1, 2, 3), (argv, text)
    assert " tol inf " not in text, (argv, text)
    return code, text


def _assert_self_adjoint(argv, text, parts, grams):
    """The oracle behind a call that treated the operator as self-adjoint."""
    asymmetry = _asymmetry(*parts, grams)
    assert asymmetry <= ASYMMETRY, (argv, asymmetry, text)


@pytest.mark.parametrize("seed", range(4))
def test_extreme_values(tmp_path, seed):
    rng = np.random.default_rng([2718, seed])
    for n in (1, 2, 3):
        specs = []
        for s, scale in enumerate(SPEC_SCALES):
            grams = _spec(n, scale)
            rows = [" ".join(f"({float(x.real)!r} {float(x.imag)!r})" for x in row)
                    for g in grams for row in g]
            path = _write(tmp_path / f"g{n}_{s}.bct", "spec", n, rows)
            specs.append((path, grams))
            _call(["info", path])
            _call(["check", path])

        for d in range(3):
            scalar = _write(tmp_path / f"s{n}_{d}.bct", "scalar", 1, [_atoms(*_parts(rng, ()))])
            for sub in ("info", "idempotent", "check"):
                _call([sub, scalar])

        kets = []
        for d in range(3):
            z1, z2 = _parts(rng, (n,))
            ket = _write(tmp_path / f"k{n}_{d}.bct", "ket", n,
                         [" ".join(_atoms(a, b) for a, b in zip(z1, z2))])
            kets.append(ket)
            for sub in ("info", "idempotent", "check"):
                _call([sub, ket])
            _call(["check", ket, "--spec", specs[d][0]])

        for d in range(12):
            kind = ("matrix", "operator")[d % 2]
            parts = _self_adjoint_parts(rng, n) if d % 4 == 1 else _parts(rng, (n, n))
            path = _write(tmp_path / f"m{n}_{d}.bct", kind, n, _square_rows(*parts))
            spec_path, grams = specs[d % 3]
            for sub in ("info", "idempotent", "det", "exp"):
                _call([sub, path])
            code, text = _call(["inv", path])
            if code == 0:
                (tol,) = map(float, _INVERSE_TOL.findall(text))
                residual = _inverse_residual(*parts, text)
                assert residual <= Fraction(tol) ** 2, (path, float(residual) ** 0.5, text)
            standard = (np.eye(n), np.eye(n))
            if kind == "matrix":
                for spec_argv, spec_grams in ((), standard), (("--spec", spec_path), grams):
                    argv = ["gram-schmidt", path, *spec_argv]
                    code, text = _call(argv)
                    if code == 0:
                        (tol,) = map(float, _ORTHONORMAL_TOL.findall(text))
                        residual = _gram_residual(text, spec_grams)
                        assert residual <= Fraction(tol) ** 2, (argv, float(residual) ** 0.5, text)
                _call(["check", path])
            for spec_argv, spec_grams in ((), standard), (("--spec", spec_path), grams):
                argv = ["spectral", path, *spec_argv]
                code, text = _call(argv)
                if code == 0:
                    _assert_self_adjoint(argv, text, parts, spec_grams)
                argv = ["evolve", "--hamiltonian", path, "--state", kets[d % 3], *spec_argv,
                        "--hbar", "1", "--t0", "0", "--t1", "1", "--samples", "3"]
                code, text = _call(argv)
                if code == 0:
                    _assert_self_adjoint(argv, text, parts, spec_grams)
                if kind == "operator":
                    argv = ["check", path, *spec_argv]
                    code, text = _call(argv)
                    if "\nnote: spectral-class: self-adjoint\n" in text:
                        _assert_self_adjoint(argv, text, parts, spec_grams)
