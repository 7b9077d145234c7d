import collections
import contextlib
import errno
import io
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bicomplex import bct, checks, cli, hilbert, operators
from bicomplex.cli import main
from bicomplex.core import Bicomplex, BicomplexError, E1, I1, J, ONE
from bicomplex.hilbert import Ket, ScalarProductSpec, scalar_product
from bicomplex.matrix import BicomplexMatrix, MatrixInverse
from bicomplex.operators import Operator

from helpers import (
    bench_golden,
    bench_workloads,
    random_hermitian,
    random_ket,
    random_matrix,
    random_self_adjoint,
    random_spec,
    random_well_conditioned,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def workdir(tmp_path):
    bct.save(tmp_path / "diag.bct", bct.document_for(BicomplexMatrix.diagonal([E1, ONE])))
    bct.save(
        tmp_path / "h.bct",
        bct.document_for(
            Operator(
                BicomplexMatrix.from_entries([[J, Bicomplex(0.5)], [Bicomplex(0.5), Bicomplex(2)]])
            )
        ),
    )
    bct.save(tmp_path / "psi.bct", bct.document_for(Ket.from_coeffs([1, I1])))
    return tmp_path


class TestDet:
    def test_diag_e1_prints_atom_and_classification(self, capsys, workdir):
        code, out = run(capsys, "det", str(workdir / "diag.bct"))
        assert code == 0
        assert "(0.5 0 0 0.5)" in out
        assert "classification: null_cone_2" in out
        assert "verdict: pass" in out

    def test_kind_mismatch_exit_2(self, capsys, workdir):
        code, out = run(capsys, "det", str(workdir / "psi.bct"))
        assert code == 2
        assert "KindMismatch" in out


# a regular order-3 matrix whose entries and inverse scale exactly by any power of two
SCALED_ROWS = [[2.0, -1.0, 0.5], [1.0, 3.0, 1.0], [0.0, 1.0, -4.0]]


def _save_scaled(path, k: int) -> str:
    rows = [[math.ldexp(x, k) for x in row] for row in SCALED_ROWS]
    bct.save(path, bct.document_for(BicomplexMatrix.from_entries(rows)))
    return str(path)


def _result_fields(out: str) -> list[float]:
    block = out.split("\nresult:\n", 1)[1].split("\ncheck ", 1)[0]
    return [float(x) for atom in re.findall(r"\(([^()]*)\)", block) for x in atom.split()]


class TestInv:
    @pytest.mark.parametrize("k", [-500, 500, 1000])
    def test_inverse_scales_exactly(self, capsys, tmp_path, k):
        # LAPACK inverts the unit-scaled stack, so inv(A 2^k) = inv(A) 2^-k to the bit
        code, out = run(capsys, "inv", _save_scaled(tmp_path / "a.bct", 0))
        assert code == 0, out
        expected = [math.ldexp(x, -k) for x in _result_fields(out)]
        code, out = run(capsys, "inv", _save_scaled(tmp_path / "scaled.bct", k))
        assert (code, out.endswith("verdict: pass\n")) == (0, True), out
        assert _result_fields(out) == expected

    def test_overflowing_inverse(self, capsys, tmp_path):
        # A 2^-1040 is regular, but its inverse lies beyond the double range: inv
        # exits 2, and check skips the inverse with a note and keeps its other results
        path = _save_scaled(tmp_path / "a.bct", -1040)
        code, out = run(capsys, "inv", path)
        assert (code, out) == (2, "error: NonFinite: BicomplexMatrix entries must be finite\n")
        code, out = run(capsys, "check", path)
        assert code == 0, out
        assert re.findall(r"^check ([\w-]+): .* pass$", out, re.M) == [
            "det-idempotent-vs-direct", "det-transpose", "product-component-law",
            "orthogonalize-rows",
        ]
        assert "\nnote: inverse: skipped (BicomplexMatrix entries must be finite)\n" in out

    def test_identity(self, capsys, tmp_path):
        bct.save(tmp_path / "eye.bct", bct.document_for(BicomplexMatrix.identity(2)))
        code, out = run(capsys, "inv", str(tmp_path / "eye.bct"))
        assert code == 0
        assert "check inverse-residual" in out

    def test_singular_exit_2(self, capsys, workdir):
        code, out = run(capsys, "inv", str(workdir / "diag.bct"))
        assert code == 2
        assert "SingularMatrix" in out
        assert "component 2" in out


class TestSpectral:
    def test_self_adjoint(self, capsys, workdir):
        code, out = run(capsys, "spectral", str(workdir / "h.bct"))
        assert code == 0
        assert out.count("eigenvalue ") == 2
        assert out.count("eigenket ") == 2
        assert "check spectral-reconstruction" in out

    @pytest.mark.parametrize("n", [64, 128])
    def test_large_order_general_spec(self, capsys, tmp_path, n):
        rng = np.random.default_rng(n)
        spec = random_spec(rng, n)
        # inv(G_k) @ S_k with S_k Hermitian is self-adjoint under the spec
        parts = [np.linalg.solve(spec.grams[k - 1], random_hermitian(rng, n)) for k in (1, 2)]
        h = Operator(BicomplexMatrix.from_components(*parts))
        bct.save(tmp_path / "h.bct", bct.document_for(h))
        bct.save(tmp_path / "g.bct", bct.document_for(spec))
        code, out = run(
            capsys, "spectral", str(tmp_path / "h.bct"), "--spec", str(tmp_path / "g.bct")
        )
        assert code == 0
        assert out.count("eigenvalue ") == n
        passed = [
            line.split(":")[0]
            for line in out.splitlines()
            if line.startswith("check ") and line.endswith(" pass")
        ]
        assert passed == [
            "check spectral-reconstruction",
            "check eigenvalue-imag-parts",
            "check eigenket-orthonormal",
            "check completeness",
        ]

    @pytest.mark.parametrize(
        "name",
        ["matrix_identity_n2", "matrix_diag_e1_1", "operator_selfadjoint_n2", "diag(1e-310, 2e-310)"],
    )
    def test_zero_residuals_below_the_double_range(self, capsys, tmp_path, name):
        # exact residuals of 0 under a scale whose product lies below 2^-1024
        # once read as infinite; the golden inputs are scaled exactly by 2^-1040
        if name.startswith("diag("):
            doc = bct.document_for(Operator(BicomplexMatrix.diagonal([1e-310, 2e-310])))
        else:
            doc = bct.load(GOLDEN / f"{name}.bct")
            value = doc.value.matrix if doc.kind == "operator" else doc.value
            tiny = value.scale(2.0**-1040)
            doc = bct.document_for(Operator(tiny, doc.basis) if doc.kind == "operator" else tiny)
        bct.save(tmp_path / "tiny.bct", doc)
        code, out = run(capsys, "spectral", str(tmp_path / "tiny.bct"))
        assert code == 0, out
        checks = [line for line in out.splitlines() if line.startswith("check ")]
        assert len(checks) == 4 and all(line.endswith(" pass") for line in checks), out

    def test_subnormal_eigenvalues(self, capsys, tmp_path):
        # half of 5e-324 rounds to 0: the eigensolve runs at unit scale
        doc = bct.document_for(Operator(BicomplexMatrix.diagonal([5e-324, 5e-324])))
        bct.save(tmp_path / "tiny.bct", doc)
        code, out = run(capsys, "spectral", str(tmp_path / "tiny.bct"))
        assert code == 0, out
        assert out.count(": (4.9406564584124654e-324 0 0 0)\n") == 2
        assert "check spectral-reconstruction: residual 0.000e+00 tol 1e-09 pass\n" in out

    def test_non_self_adjoint_exit_2(self, capsys):
        code, out = run(capsys, "spectral", str(GOLDEN / "counter_nonselfadjoint_n2.bct"))
        assert code == 2
        assert "NotSelfAdjoint" in out


class TestGramSchmidt:
    def test_random_rows(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        matrix = BicomplexMatrix(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        )
        bct.save(tmp_path / "m.bct", bct.document_for(matrix))
        code, out = run(capsys, "gram-schmidt", str(tmp_path / "m.bct"))
        assert code == 0
        assert "check orthonormal-defect" in out

    def test_real_rows_give_real_rows(self, capsys, tmp_path):
        # a negative real pivot has the phase -1 exactly, so the Gram-Schmidt
        # basis of real rows has no imaginary (im1) and no z2 part at all
        matrix = BicomplexMatrix.from_entries([[-2, 1, 0], [1, 3, 1], [0, 1, -4]])
        bct.save(tmp_path / "m.bct", bct.document_for(matrix))
        code, out = run(capsys, "gram-schmidt", str(tmp_path / "m.bct"))
        assert code == 0, out
        atoms = re.findall(r"\(([^()]*)\)", out.split("\nresult:\n", 1)[1])
        assert len(atoms) == 9
        for atom in atoms:
            _, im1, re2, im2 = map(float, atom.split())
            assert (im1, re2, im2) == (0.0, 0.0, 0.0), atom

    @pytest.mark.parametrize(
        "case", ["diag(1e-310, 1)", "diag(1e-310, 1) --spec", "order 3 scaled by 2^-1040"]
    )
    def test_subnormal_pivots(self, capsys, tmp_path, case):
        # a pivot's phase is formed on pivot and modulus scaled to unit size: the
        # complex division forms 1/modulus, which overflows below about 5.6e-309
        if case.startswith("diag"):
            matrix = BicomplexMatrix.diagonal([1e-310, 1.0])
        else:
            matrix = random_matrix(np.random.default_rng(3), 3).scale(2.0**-1040)
        bct.save(tmp_path / "m.bct", bct.document_for(matrix))
        spec = ["--spec", str(GOLDEN / "spec_identity_n2.bct")] if case.endswith("--spec") else []
        code, out = run(capsys, "gram-schmidt", str(tmp_path / "m.bct"), *spec)
        assert code == 0, out
        assert out.endswith("verdict: pass\n"), out
        if case == "diag(1e-310, 1)":
            assert "\n(1 0 0 0) (0 0 0 0)\n(0 0 0 0) (1 0 0 0)\n" in out
            code, out = run(capsys, "check", str(tmp_path / "m.bct"))
            assert code == 0, out
            assert "check orthogonalize-rows: residual 0.000e+00 tol 1e-10 pass\n" in out

    @pytest.mark.parametrize("spec", [False, True])
    @pytest.mark.parametrize("k", [-1040, -500, 500, 1000])
    def test_rows_do_not_depend_on_scale(self, capsys, tmp_path, k, spec):
        # LAPACK factorizes the ket-scaled stack: A 2^k has A's orthonormal rows
        argv = ["--spec", str(GOLDEN / "spec_general_n3.bct")] if spec else []
        code, out = run(capsys, "gram-schmidt", _save_scaled(tmp_path / "a.bct", 0), *argv)
        assert code == 0, out
        expected = out.split("\nresult:\n", 1)[1]
        code, out = run(capsys, "gram-schmidt", _save_scaled(tmp_path / "scaled.bct", k), *argv)
        assert code == 0, out
        assert out.split("\nresult:\n", 1)[1] == expected

    # kets 2^1080 apart, a ket whose own parts span 2^1100, and a regular matrix whose
    # determinant overflows: each ket is scaled exactly by a power of two of its own
    WIDE = {
        "diag(2^500, 2^-580)": [[2.0**500, 0.0], [0.0, 2.0**-580]],
        "rows (2^500, 0), (2^500, 2^-600)": [[2.0**500, 0.0], [2.0**500, 2.0**-600]],
        "diag(2^1000, 2^1000, 2^-100)": [
            [2.0**1000, 0.0, 0.0], [0.0, 2.0**1000, 0.0], [0.0, 0.0, 2.0**-100],
        ],
    }

    @pytest.mark.parametrize("spec", [False, True])
    @pytest.mark.parametrize("name", list(WIDE))
    def test_kets_of_any_scale(self, capsys, tmp_path, name, spec):
        # each ket spans the flag of I's, so the rows are those of I, to the bit
        rows = self.WIDE[name]
        n = len(rows)
        golden = "spec_identity_n2.bct" if n == 2 else "spec_general_n3.bct"
        argv = ["--spec", str(GOLDEN / golden)] if spec else []
        bct.save(tmp_path / "eye.bct", bct.document_for(BicomplexMatrix.identity(n)))
        code, out = run(capsys, "gram-schmidt", str(tmp_path / "eye.bct"), *argv)
        assert code == 0, out
        expected = out.split("\nresult:\n", 1)[1]
        bct.save(tmp_path / "m.bct", bct.document_for(BicomplexMatrix.from_entries(rows)))
        code, out = run(capsys, "gram-schmidt", str(tmp_path / "m.bct"), *argv)
        assert code == 0, out
        assert out.split("\nresult:\n", 1)[1] == expected
        if n == 2 and not spec:
            code, out = run(capsys, "check", str(tmp_path / "m.bct"))
            assert code == 0, out
            assert "check orthogonalize-rows: residual 0.000e+00 tol 1e-10 pass\n" in out

    def test_null_cone_pivot_exit_2(self, capsys):
        code, out = run(capsys, "gram-schmidt", str(GOLDEN / "counter_nullcone_pivot_n2.bct"))
        assert code == 2
        assert "NullConePivot" in out

    def test_no_ket_per_row(self, capsys, monkeypatch, tmp_path, cold_cache):
        # the rows stay one coefficient matrix from the QR to the printed rows
        matrix = random_well_conditioned(np.random.default_rng(8), 8)
        bct.save(tmp_path / "m.bct", bct.document_for(matrix))
        built = []
        init = Ket.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Ket, "__init__", counting_init)
        code, out = run(capsys, "gram-schmidt", str(tmp_path / "m.bct"))
        assert code == 0
        assert "check null-cone-outputs: residual 0.000e+00" in out
        assert built == []


class TestExp:
    def test_exp_identity_content(self, capsys, tmp_path):
        bct.save(tmp_path / "zero.bct", bct.document_for(BicomplexMatrix.zeros(2)))
        code, out = run(capsys, "exp", str(tmp_path / "zero.bct"))
        assert code == 0
        assert "(1 0 0 0) (0 0 0 0)" in out


class TestEvolve:
    def test_frozen_time_reproduces_state_bit_for_bit(self, capsys, workdir):
        state_text = (workdir / "psi.bct").read_text()
        state_atoms = state_text.splitlines()[-1].split(") (")
        code, out = run(
            capsys,
            "evolve",
            "--hamiltonian", str(workdir / "h.bct"),
            "--state", str(workdir / "psi.bct"),
            "--hbar", "1", "--t0", "0.25", "--t1", "0.25", "--samples", "1",
        )
        assert code == 0
        table_row = [line for line in out.splitlines() if line.startswith("0.25\t")][0]
        for atom in state_atoms:
            assert atom.strip("()\n ") in table_row

    def test_one_batched_eigensolve_per_run(self, capsys, monkeypatch, workdir, cold_cache):
        shapes = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        code, out = run(
            capsys,
            "evolve",
            "--hamiltonian", str(GOLDEN / "operator_selfadjoint_n2.bct"),
            "--state", str(workdir / "psi.bct"),
            "--hbar", "1", "--t0", "0", "--t1", "3", "--samples", "5",
        )
        assert code == 0
        assert "check schrodinger-residual" in out
        assert shapes == [(2, 2, 2)]

    def test_norm_conservation_reported(self, capsys, workdir):
        code, out = run(
            capsys,
            "evolve",
            "--hamiltonian", str(workdir / "h.bct"),
            "--state", str(workdir / "psi.bct"),
            "--hbar", "0.5", "--t0", "0", "--t1", "2.0", "--samples", "7",
        )
        assert code == 0
        assert "check norm-conservation" in out
        assert "check schrodinger-residual" in out
        assert "verdict: pass" in out
        assert len([l for l in out.splitlines() if "\t" in l and not l.startswith("columns")]) == 7

    def test_long_window_golden_hamiltonian(self, capsys, workdir):
        code, out = run(
            capsys,
            "evolve",
            "--hamiltonian", str(GOLDEN / "operator_selfadjoint_n2.bct"),
            "--state", str(workdir / "psi.bct"),
            "--hbar", "1", "--t0", "0", "--t1", "1e6", "--samples", "100",
        )
        assert code == 0, out
        assert re.search(r"^check norm-conservation: residual \S+ tol 1e-09 pass$", out, re.M)
        assert re.search(r"^check schrodinger-residual: residual \S+ tol 1e-05 pass$", out, re.M)

    def test_xi_flag_matches_folded_hamiltonian(self, capsys, workdir):
        code_xi, out_xi = run(
            capsys,
            "evolve",
            "--hamiltonian", str(workdir / "h.bct"),
            "--state", str(workdir / "psi.bct"),
            "--hbar", "1", "--t0", "0", "--t1", "1", "--samples", "3",
            "--xi", "(1.25 0 0 0.75)",
        )
        assert code_xi == 0
        doc = bct.load(workdir / "h.bct")
        xi = Bicomplex(1.25, 0.75j)
        folded = Operator(doc.value.matrix.scale(xi.inverse()), doc.value.basis_id)
        bct.save(workdir / "hfold.bct", bct.document_for(folded))
        code_direct, out_direct = run(
            capsys,
            "evolve",
            "--hamiltonian", str(workdir / "hfold.bct"),
            "--state", str(workdir / "psi.bct"),
            "--hbar", "1", "--t0", "0", "--t1", "1", "--samples", "3",
        )
        assert code_direct == 0
        table = lambda text: [l for l in text.splitlines() if "\t" in l and not l.startswith("columns")]
        for row_xi, row_direct in zip(table(out_xi), table(out_direct)):
            got = [float(x) for x in row_xi.replace("(", " ").replace(")", " ").split()]
            expected = [float(x) for x in row_direct.replace("(", " ").replace(")", " ").split()]
            assert max(abs(g - e) for g, e in zip(got, expected)) <= 1e-10

    def test_norm_rounding_below_eps_eq_exit_2(self, capsys, tmp_path):
        # A zero Hamiltonian is self-adjoint under any spec; the self-products of
        # the (constant) state under a general spec carry imaginary rounding of
        # about 1e-15, which --eps-eq 1e-300 rejects as not hyperbolic.
        rng = np.random.default_rng(8)
        zero = BicomplexMatrix(np.zeros((8, 8)), np.zeros((8, 8)))
        bct.save(tmp_path / "z.bct", bct.document_for(Operator(zero)))
        bct.save(tmp_path / "psi8.bct", bct.document_for(random_ket(rng, 8)))
        bct.save(tmp_path / "g8.bct", bct.document_for(random_spec(rng, 8)))
        code, out = run(
            capsys,
            "--eps-eq", "1e-300",
            "evolve",
            "--hamiltonian", str(tmp_path / "z.bct"),
            "--state", str(tmp_path / "psi8.bct"),
            "--spec", str(tmp_path / "g8.bct"),
            "--hbar", "1", "--t0", "0", "--t1", "1", "--samples", "3",
        )
        assert code == 2
        assert out.startswith("error: NotHyperbolic: Bicomplex(")
        assert out.rstrip().endswith("is not hyperbolic within tolerance")

    @pytest.mark.parametrize(
        "scale, hbar",
        [(1e-8, 1), (1e-3, 1), (1, 1), (1e3, 1), (1e6, 1), (1e100, 1), (1e200, 1),
         (1, 1e-3), (1, 1e7)],
    )
    def test_checks_hold_at_every_scale(self, capsys, tmp_path, scale, hbar):
        # the Schroedinger step follows max|lambda| / hbar, so the check's floor does
        # not move with the scale of H or hbar
        rng = np.random.default_rng(8)
        h = random_self_adjoint(rng, 8)
        bct.save(tmp_path / "h.bct", bct.document_for(h.scale(scale)))
        bct.save(tmp_path / "psi.bct", bct.document_for(random_ket(rng, 8)))
        code, out = run(
            capsys,
            "evolve",
            "--hamiltonian", str(tmp_path / "h.bct"),
            "--state", str(tmp_path / "psi.bct"),
            "--hbar", repr(hbar), "--t0", "0", "--t1", "1", "--samples", "10",
        )
        assert code == 0, out
        assert re.search(r"^check norm-conservation: residual \S+ tol 1e-09 pass$", out, re.M)
        assert re.search(r"^check schrodinger-residual: residual \S+ tol 1e-05 pass$", out, re.M)

    def test_invalid_xi_exit_2(self, capsys, workdir):
        code, out = run(
            capsys,
            "evolve",
            "--hamiltonian", str(workdir / "h.bct"),
            "--state", str(workdir / "psi.bct"),
            "--hbar", "1", "--t0", "0", "--t1", "1", "--samples", "2",
            "--xi", "(0.5 0 0 0.5)",
        )
        assert code == 2
        assert "InvalidXi" in out

    @pytest.mark.parametrize(
        "xi, reason",
        [
            ("(1 0 0)", "atom needs 4 numbers, got 3"),
            ("(nan 0 0 0)", "non-finite number 'nan'"),
            ("(1 0 0 0) (1 0 0 0)", "expected 1 atoms per row, got 2"),
            ("", "expected 1 payload rows for kind 'scalar', got 0"),
            # U+FF11 and U+0660, which float reads as 1 and 0
            ("(\uff11 0 0 0)", "non-ASCII byte 0xef"),
            ("(1 0 0 \u0660)", "non-ASCII byte 0xd9"),
            ("(1 0 0 0)\u00e9", "non-ASCII byte 0xc3"),
        ],
    )
    def test_xi_that_is_not_one_finite_atom_exit_2(self, capsys, workdir, xi, reason):
        # a usage error, with the reason and no line or column in a document
        code, out = run(
            capsys,
            "evolve",
            "--hamiltonian", str(workdir / "h.bct"),
            "--state", str(workdir / "psi.bct"),
            "--hbar", "1", "--t0", "0", "--t1", "1", "--samples", "2",
            "--xi", xi,
        )
        assert (code, out) == (2, f"error: InvalidXi: --xi {xi!a}: {reason}\n")


class TestToleranceFlags:
    """--eps-null and --eps-eq reach the scalar-product spec and --xi as well."""

    @pytest.fixture
    def skew(self, tmp_path):
        # G1's off-diagonal entries differ by 1e-10 i1: Hermitian within 1e-8, not 1e-12
        (tmp_path / "g.bct").write_text(
            "bct v1\nkind: spec\ndim: 2\n"
            "(1 0) (0.5 1e-10)\n(0.5 0) (1 0)\n(1 0) (0 0)\n(0 0) (1 0)\n"
        )
        bct.save(tmp_path / "h.bct", bct.document_for(Operator(BicomplexMatrix.identity(2))))
        return str(tmp_path / "g.bct"), str(tmp_path / "h.bct")

    def test_eps_eq_reaches_spec_validation(self, capsys, skew):
        spec, h = skew
        assert "valid: no (G1 is not Hermitian within tolerance)\n" in run(capsys, "info", spec)[1]
        assert "valid: yes\n" in run(capsys, "--eps-eq", "1e-8", "info", spec)[1]
        for argv in (
            ["spectral", h, "--spec", spec],
            ["check", h, "--spec", spec],
            ["evolve", "--hamiltonian", h, "--state", str(GOLDEN / "ket_nullcone_n2.bct"),
             "--spec", spec, "--hbar", "1", "--t0", "0", "--t1", "1", "--samples", "3"],
        ):
            code, out = run(capsys, *argv)
            assert (code, out) == (2, "error: BicomplexError: invalid scalar-product spec: "
                                      "G1 is not Hermitian within tolerance\n")
            code, out = run(capsys, "--eps-eq", "1e-8", *argv)
            assert (code, out.splitlines()[-1]) == (0, "verdict: pass"), out

    XI_ARGV = [
        "evolve",
        "--hamiltonian", str(GOLDEN / "operator_selfadjoint_n2.bct"),
        "--state", str(GOLDEN / "ket_nullcone_n2.bct"),
        "--hbar", "1", "--t0", "0", "--t1", "1", "--samples", "3",
    ]

    def test_eps_null_reaches_xi(self, capsys):
        # components 1.9999999 and 1e-7: null_cone_2 under eps_null = 1e-6
        argv = [*self.XI_ARGV, "--xi", "(1 0 0 0.9999999)"]
        assert run(capsys, *argv)[0] != 2
        code, out = run(capsys, "--eps-null", "1e-6", *argv)
        assert (code, out) == (2, "error: InvalidXi: xi must be invertible\n")

    def test_eps_eq_reaches_xi(self, capsys):
        # z1 = 1 + 1e-10 i1 equals its kind-3 conjugate within 1e-8, not 1e-12
        argv = [*self.XI_ARGV, "--xi", "(1 1e-10 0 0)"]
        code, out = run(capsys, *argv)
        assert (code, out) == (
            2, "error: InvalidXi: xi must equal its kind-3 conjugate (real idempotent components)\n"
        )
        code, out = run(capsys, "--eps-eq", "1e-8", *argv)
        assert (code, out.splitlines()[-1]) == (0, "verdict: pass"), out


class TestInfoAndIdempotent:
    def test_info_scalar(self, capsys, tmp_path):
        bct.save(tmp_path / "e1.bct", bct.document_for(E1))
        code, out = run(capsys, "info", str(tmp_path / "e1.bct"))
        assert code == 0
        assert "classification: null_cone_2" in out
        assert f"euclidean-norm: {math.sqrt(0.5):.17g}" in out

    def test_idempotent_scalar(self, capsys, tmp_path):
        bct.save(tmp_path / "e1.bct", bct.document_for(E1))
        code, out = run(capsys, "idempotent", str(tmp_path / "e1.bct"))
        assert code == 0
        assert "component 1: (1 0)" in out
        assert "component 2: (0 0)" in out

    def test_idempotent_rejects_spec(self, capsys):
        code, out = run(capsys, "idempotent", str(GOLDEN / "spec_identity_n2.bct"))
        assert code == 2


class TestErrorPaths:
    def test_parse_error_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.bct"
        bad.write_text("not a document\n")
        code, out = run(capsys, "info", str(bad))
        assert code == 1
        assert "parse error" in out

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, out = run(capsys, "info", str(tmp_path / "absent.bct"))
        assert code == 1

    @pytest.mark.parametrize("number", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_atom_exit_1(self, capsys, tmp_path, number):
        bad = tmp_path / "bad.bct"
        bad.write_text(f"bct v1\nkind: scalar\ndim: 1\n(1 {number} 0 0)\n")
        code, out = run(capsys, "info", str(bad))
        assert code == 1
        assert out.startswith("parse error: line 4, column 1: non-finite number")

    def test_non_ascii_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.bct"
        bad.write_bytes(b"bct v1\nkind: scalar\ndim: 1\n(1 0 0 0) \xc3\xa9\n")
        code, out = run(capsys, "info", str(bad))
        assert code == 1
        assert out == "parse error: line 4, column 11: non-ASCII byte 0xc3\n"

    def test_zero_samples_exit_2(self, capsys, workdir):
        code, out = run(
            capsys,
            "evolve",
            "--hamiltonian", str(workdir / "h.bct"),
            "--state", str(workdir / "psi.bct"),
            "--hbar", "1", "--t0", "0", "--t1", "1", "--samples", "0",
        )
        assert code == 2
        assert out.startswith("error: ")
        assert "steps must be at least 1" in out

    def test_memory_error_exit_2(self, capsys, monkeypatch, workdir):
        # what numpy raises for 1e11 samples, raised before anything is allocated
        error = np._core._exceptions._ArrayMemoryError((100000000000,), np.dtype(float))

        def no_room(*args):
            raise error

        monkeypatch.setattr(cli, "_evolve", no_room)
        code, out = run(
            capsys,
            "evolve",
            "--hamiltonian", str(workdir / "h.bct"),
            "--state", str(workdir / "psi.bct"),
            "--hbar", "1", "--t0", "0", "--t1", "1", "--samples", "100000000000",
        )
        assert (code, out) == (2, f"error: MemoryError: {error}\n")
        assert "Unable to allocate" in out

    def test_bad_tolerance_exit_2(self, capsys, workdir):
        code, out = run(capsys, "--eps-null", "0.5", "det", str(workdir / "diag.bct"))
        assert code == 2


class TestConsoleScript:
    """The `bct` script path: `entry()` in a fresh interpreter, ended by `os._exit`."""

    SCRIPT = "import sys; from bicomplex.cli import entry; sys.argv[0] = 'bct'; entry()"

    def spawn(self, argv, unbuffered, **kwargs):
        src = str(pathlib.Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.Popen(
            [sys.executable, "-c", self.SCRIPT, *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, **kwargs,
        )

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize(
        "expected, argv",
        [
            (0, ["det", str(GOLDEN / "matrix_identity_n2.bct")]),
            (1, ["det", "BAD"]),
            (2, ["spectral", str(GOLDEN / "counter_nonselfadjoint_n2.bct")]),
            (3, ["check", str(GOLDEN / "counter_nonselfadjoint_n2.bct")]),
            # |lambda| / hbar overflows: NonFinite, and no numpy warning on stderr
            (2, ["evolve", "--hamiltonian", "HUGE", "--state", "PSI", "--hbar", "1e-300",
                 "--t0", "0", "--t1", "1", "--samples", "5"]),
            # lambda (t - t0) / hbar overflows at the last sample: the same
            (2, ["evolve", "--hamiltonian", str(GOLDEN / "operator_selfadjoint_n2.bct"),
                 "--state", str(GOLDEN / "ket_nullcone_n2.bct"), "--hbar", "1",
                 "--t0", "0", "--t1", "1e308"]),
            # t1 - t0 overflows: invalid evolution settings, before any sample time
            (2, ["evolve", "--hamiltonian", str(GOLDEN / "operator_selfadjoint_n2.bct"),
                 "--state", str(GOLDEN / "ket_nullcone_n2.bct"), "--hbar", "1",
                 "--t0=-1e308", "--t1", "1e308"]),
        ],
    )
    def test_same_output_as_main(self, capsys, tmp_path, expected, argv, unbuffered):
        rng = np.random.default_rng(8)
        inputs = {"BAD": tmp_path / "bad.bct", "HUGE": tmp_path / "h.bct", "PSI": tmp_path / "psi.bct"}
        inputs["BAD"].write_text("bct v1\nkind: matrix\ndim: 2\n(1 0 0\n")
        bct.save(inputs["HUGE"], bct.document_for(random_self_adjoint(rng, 4).scale(1e300)))
        bct.save(inputs["PSI"], bct.document_for(random_ket(rng, 4)))
        argv = [str(inputs.get(arg, arg)) for arg in argv]
        code, out = run(capsys, *argv)
        assert code == expected
        proc = self.spawn(argv, unbuffered)
        stdout, stderr = proc.communicate(timeout=120)
        assert (proc.returncode, stdout.decode(), stderr.decode()) == (code, out, "")

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_reader_that_stops_early(self, tmp_path, unbuffered):
        # about 400 kB of rows: more than a pipe holds, so the call is still
        # writing when the reader closes its end
        path = tmp_path / "m64.bct"
        bct.save(path, bct.document_for(random_matrix(np.random.default_rng(64), 64)))
        proc = self.spawn(["idempotent", str(path)], unbuffered)
        assert proc.stdout.readline() == b"command: idempotent\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), stderr) == (1, b"")

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_stdout_closed_from_the_start(self, unbuffered):
        # fd 1 closed before the interpreter starts: sys.stdout is None
        argv = ["det", str(GOLDEN / "matrix_random_n3.bct")]
        proc = self.spawn(argv, unbuffered, preexec_fn=lambda: os.close(1))
        stdout, stderr = proc.communicate(timeout=120)
        assert (proc.returncode, stdout, stderr) == (1, b"", b"")


class TestDeterminism:
    def test_identical_runs_identical_output(self, capsys, workdir):
        _, first = run(capsys, "check", str(workdir / "h.bct"))
        _, second = run(capsys, "check", str(workdir / "h.bct"))
        assert first == second

    def test_evolve_deterministic(self, capsys, workdir):
        args = (
            "evolve",
            "--hamiltonian", str(workdir / "h.bct"),
            "--state", str(workdir / "psi.bct"),
            "--hbar", "1", "--t0", "0", "--t1", "1.5", "--samples", "11",
        )
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second


class TestOverflow:
    """Inputs at the top of the double range: exit 2 where a result overflows (a failing
    check, exit 3), and 0 with a passing verdict where none does."""

    INPUTS = {
        "scalar": "bct v1\nkind: scalar\ndim: 1\n(1e308 1e308 1e308 0)\n",
        "matrix": "bct v1\nkind: matrix\ndim: 2\n(1e308 0 0 0) (0 0 0 0)\n(0 0 0 0) (1e308 0 0 0)\n",
        "upper": "bct v1\nkind: matrix\ndim: 2\n(1e308 0 0 0) (1e308 0 0 0)\n(0 0 0 0) (1e308 0 0 0)\n",
        # finite parts whose idempotent moduli and euclidean norm exceed the double range
        "modulus": "bct v1\nkind: scalar\ndim: 1\n(1.5e308 1.5e308 0 0)\n",
    }

    @pytest.mark.parametrize(
        "kind, sub, expected",
        [
            ("scalar", "info", 2),
            ("scalar", "idempotent", 2),
            ("scalar", "check", 3),
            ("matrix", "info", 2),
            ("matrix", "idempotent", 0),
            ("matrix", "det", 2),
            # LAPACK factorizes rescaled stacks: only the determinant overflows
            ("matrix", "inv", 0),
            ("matrix", "exp", 2),
            ("matrix", "gram-schmidt", 0),
            ("upper", "gram-schmidt", 0),
            # halving before adding keeps 0.5 A + 0.5 A^H in range: eigenvalues 1e308
            ("matrix", "spectral", 0),
            ("matrix", "check", 3),
            ("modulus", "info", 2),
            ("modulus", "check", 3),
        ],
    )
    def test_documented_exit_code(self, capsys, tmp_path, kind, sub, expected):
        path = tmp_path / "big.bct"
        path.write_text(self.INPUTS[kind])
        code, out = run(capsys, sub, str(path))
        assert code == expected
        if sub == "check":
            assert "\ncheck finite-arithmetic: residual inf tol 0 fail\n" in out
            assert "\nnote: finite-arithmetic: " in out
            assert out.endswith("verdict: fail\n")
        elif code == 2:
            assert out.startswith("error: NonFinite: ")
        else:
            assert out.endswith("verdict: pass\n"), out

    @pytest.mark.parametrize("sub", ["spectral", "evolve", "check"])
    def test_adjoint_residual_overflow(self, capsys, recwarn, tmp_path, sub):
        # every entry is finite but A^H - A overflows: an infinite residual fails the test
        path = tmp_path / "big.bct"
        path.write_text(
            "bct v1\nkind: operator\ndim: 2\n"
            "(1 0 0 0) (1.5e308 0 0 0)\n(-1.5e308 0 0 0) (1 0 0 0)\n"
        )
        argv = [sub, str(path)]
        if sub == "evolve":
            state = str(GOLDEN / "ket_nullcone_n2.bct")
            argv = [sub, "--hamiltonian", str(path), "--state", state,
                    "--hbar", "1", "--t0", "0", "--t1", "1"]
        code = main(argv)
        out, err = capsys.readouterr()
        assert (err, list(recwarn)) == ("", [])
        if sub == "check":
            assert code == 3
            assert "\ncheck finite-arithmetic: residual inf tol 0 fail\n" in out
        else:
            assert code == 2
            assert out.startswith("error: NotSelfAdjoint: ")

    def test_unitary_residual_overflow(self, capsys, recwarn, tmp_path):
        # finite and invertible, but A*A overflows: the infinite unitary residual
        # fails the unitary test, and the rest of the suite still runs
        path = tmp_path / "big.bct"
        path.write_text(
            "bct v1\nkind: operator\ndim: 2\n(1 0 0 0) (1e300 0 0 0)\n(0 0 0 0) (1 0 0 0)\n"
        )
        code = main(["check", str(path)])
        out, err = capsys.readouterr()
        assert (code, err, list(recwarn)) == (3, "", [])
        names = re.findall(r"^check ([\w-]+): ", out, re.M)
        # the condition estimate overflows: numerically singular, so no inverse is checked
        assert names == [
            "det-idempotent-vs-direct", "det-transpose", "product-component-law",
            "orthogonalize-rows", "adjoint-involution", "adjoint-defining-relation",
            "spectral-class",
        ]
        assert "\nnote: inverse: skipped (matrix is singular: component 1 and 2 reciprocal " in out
        assert "\ncheck spectral-class: residual 1.000e+00 tol 0 fail\n" in out
        assert "\nnote: spectral-class: neither self-adjoint nor unitary; " in out
        assert "finite-arithmetic" not in out


class TestDeterminantOverflow:
    """An order-8 Hermitian operator with entries near 1e150: det overflows, its inverse does not."""

    SCRIPT = (
        "import sys\n"
        "from bicomplex.cli import main\n"
        "for sub in ('info', 'det', 'inv', 'check'):\n"
        "    code = main([sub, sys.argv[1]])\n"
        "    print(f'exit {sub} {code}')\n"
    )

    def test_inverse_exists_det_reports_inf(self, tmp_path):
        op = random_self_adjoint(np.random.default_rng(150), 8).scale(1e150)
        path = tmp_path / "hbig8.bct"
        bct.save(path, bct.document_for(op))
        src = str(pathlib.Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0
        assert done.stderr == ""
        out = done.stdout
        assert re.findall(r"^exit (\w+) (\d)$", out, re.M) == [
            ("info", "2"), ("det", "2"), ("inv", "0"), ("check", "3"),
        ]
        overflow = "determinant overflows: component moduli (inf, inf)"
        assert out.count(f"error: NonFinite: {overflow}\n") == 2
        assert f"note: finite-arithmetic: {overflow}\n" in out
        assert "check finite-arithmetic: residual inf tol 0 fail\n" in out
        assert "check inverse-residual: " in out
        assert re.search(r"\bnan\b", out) is None


class TestSmallDeterminant:
    """1e-50 times the identity of order 8: both component determinants underflow to 0."""

    @pytest.fixture
    def tiny(self, tmp_path):
        path = tmp_path / "tiny8.bct"
        bct.save(path, bct.document_for(BicomplexMatrix.identity(8).scale(1e-50)))
        return str(path)

    @pytest.mark.parametrize("sub, count", [("inv", 2), ("gram-schmidt", 2), ("check", 5)])
    def test_inverted_and_orthogonalized(self, capsys, tiny, sub, count):
        code, out = run(capsys, sub, tiny)
        assert code == 0, out
        checks = [line for line in out.splitlines() if line.startswith("check ")]
        assert len(checks) == count
        assert all(line.endswith(" pass") for line in checks)

    def test_det_prints_the_zero_it_computes(self, capsys, tiny):
        code, out = run(capsys, "det", tiny)
        assert code == 0
        assert "\n(0 0 0 0)\nclassification: zero\n" in out
        code, out = run(capsys, "info", tiny)
        assert code == 0
        assert "det: (0 0 0 0)\nclassification: zero\nsingular: no\n" in out


def test_overflowing_gram_schmidt_pivots(capsys, tmp_path):
    # rows near 1e150 under G1 = G2 = 1e100 I: the pivot self-products are near 1e400
    rows = random_well_conditioned(np.random.default_rng(3), 3).scale(1e150)
    bct.save(tmp_path / "big.bct", bct.document_for(rows))
    gram = 1e100 * np.eye(3)
    bct.save(tmp_path / "g.bct", bct.document_for(ScalarProductSpec(gram, gram)))
    code, out = run(
        capsys, "gram-schmidt", str(tmp_path / "big.bct"), "--spec", str(tmp_path / "g.bct")
    )
    assert code == 0, out
    assert re.search(r"^check orthonormal-defect: residual \S+ tol 1e-10 pass$", out, re.M)
    assert re.search(r"\b(nan|inf)\b", out) is None


# -- the load cache ------------------------------------------------------------------


GOLDEN_CALLS = [(name, sub) for name, subs in bench_golden().items() for sub in subs]


class TestLoadCache:
    @pytest.mark.parametrize("name, sub", GOLDEN_CALLS, ids=[" ".join(c) for c in GOLDEN_CALLS])
    def test_cold_and_warm_cache_print_the_same(self, capsys, cold_cache, name, sub):
        path = str(GOLDEN / name)
        cold = run(capsys, sub, path)
        hits = bct._parse_bytes.cache_info().hits
        warm = run(capsys, sub, path)
        assert bct._parse_bytes.cache_info().hits == hits + 1
        assert warm == cold

    def test_one_parse_per_linalg_job(self, capsys, monkeypatch, tmp_path, cold_cache):
        matrix = random_well_conditioned(np.random.default_rng(10), 8)
        bct.save(tmp_path / "m.bct", bct.document_for(matrix))
        parsed = []
        parse = bct.parse

        def counting_parse(text):
            parsed.append(len(text))
            return parse(text)

        monkeypatch.setattr(bct, "parse", counting_parse)
        for sub in ("det", "inv", "gram-schmidt", "check"):
            code, _ = run(capsys, sub, str(tmp_path / "m.bct"))
            assert code == 0, sub
        assert len(parsed) == 1

    def test_commands_leave_cached_documents_unchanged(self, capsys, cold_cache):
        spec = str(GOLDEN / "spec_general_n3.bct")
        for path in sorted(GOLDEN.glob("*.bct")):
            doc = bct.load(path)
            for sub in SUBCOMMANDS[:-2] + ("check",):
                run(capsys, sub, str(path))
            run(capsys, "check", str(path), "--spec", spec)
            assert bct.load(path) is doc
            assert doc == bct.parse(path.read_text())


def _bits(*arrays) -> list[bytes]:
    return [np.asarray(array).tobytes() for array in arrays]


def _outcome(call):
    """The bits of a det or inverse result, or the error it raised."""
    try:
        value = call()
    except BicomplexError as exc:
        return type(exc), str(exc)
    if isinstance(value, MatrixInverse):
        return _bits(value.matrix.z1, value.matrix.z2, [value.cond1, value.cond2])
    return _bits([value.z1, value.z2])


SQUARE_INPUTS = sorted(
    path.name for path in GOLDEN.glob("*.bct")
    if path.name.startswith(("matrix_", "operator_", "counter_"))
) + ["random_n8", "random_n32"]


class TestKeptFactorizations:
    """Every command of a process shares one loaded matrix and its kept factorizations."""

    @pytest.mark.parametrize("name", SQUARE_INPUTS)
    def test_same_bits_as_a_fresh_matrix(self, capsys, tmp_path, cold_cache, name):
        path = GOLDEN / name
        if name.startswith("random_n"):
            n = int(name[len("random_n"):])
            path = tmp_path / f"{name}.bct"
            bct.save(path, bct.document_for(random_matrix(np.random.default_rng(n), n)))
        doc = bct.load(path)
        psi = tmp_path / "psi.bct"
        bct.save(psi, bct.document_for(random_ket(np.random.default_rng(1), doc.dim)))
        for sub in SUBCOMMANDS[:-2] + ("check",):
            run(capsys, sub, str(path))
        run(capsys, "evolve", "--hamiltonian", str(path), "--state", str(psi),
            "--hbar", "1", "--t0", "0", "--t1", "1", "--samples", "5")
        assert bct.load(path) is doc

        kept = doc.value.matrix if doc.kind == "operator" else doc.value
        fresh = BicomplexMatrix(kept.z1, kept.z2)
        dets = kept._component_dets()
        assert kept._component_dets() is dets and not dets.flags.writeable
        assert _bits(dets) == _bits(fresh._component_dets())
        assert _outcome(kept.det) == _outcome(fresh.det)
        assert kept._classify_det() is fresh._classify_det()
        assert _outcome(kept.inverse) == _outcome(fresh.inverse)
        if not kept.is_singular():
            assert kept.inverse() is kept.inverse()
        transposed, fresh_transposed = kept.transpose(), fresh.transpose()
        assert kept.transpose() is transposed
        assert _bits(transposed.z1, transposed.z2, transposed._component_dets()) == _bits(
            fresh_transposed.z1, fresh_transposed.z2, fresh_transposed._component_dets()
        )

    @staticmethod
    def _counted_linalg(monkeypatch, *names) -> collections.Counter:
        """Calls to each named ``np.linalg`` function from here on, counted by name."""
        calls = collections.Counter()
        for name in names:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    def test_factorizations_per_linalg_job(self, capsys, monkeypatch, tmp_path, cold_cache):
        path = tmp_path / "m32.bct"
        bct.save(path, bct.document_for(random_matrix(np.random.default_rng(32), 32)))
        # the order's kept standard spec exists; building it is its one Cholesky
        ScalarProductSpec.identity(32)
        calls = self._counted_linalg(monkeypatch, "det", "cond", "inv", "qr", "cholesky", "solve")
        for sub in ("det", "inv", "gram-schmidt", "check"):
            code, out = run(capsys, sub, str(path))
            assert code == 0, out
        # A and its transpose are each factorized once; the rows' Gram-Schmidt under
        # the standard product is the kept QR of the transpose, with no Cholesky route
        assert calls == {"det": 2, "cond": 1, "inv": 1, "qr": 1}

        bct._parse_bytes.cache_clear()
        calls.clear()
        code, out = run(capsys, "check", str(path))
        assert code == 0, out
        assert calls == {"det": 2, "cond": 1, "inv": 1, "qr": 1}

    def test_factorizations_per_evolve_job(self, capsys, monkeypatch, tmp_path, cold_cache):
        rng = np.random.default_rng(16)
        h, psi = tmp_path / "h16.bct", tmp_path / "psi16.bct"
        bct.save(h, bct.document_for(random_self_adjoint(rng, 16)))
        bct.save(psi, bct.document_for(random_ket(rng, 16)))
        ScalarProductSpec.identity(16)
        calls = self._counted_linalg(monkeypatch, "cholesky", "solve", "inv", "eigh")
        code, out = run(capsys, "evolve", "--hamiltonian", str(h), "--state", str(psi),
                        "--hbar", "1", "--t0", "0", "--t1", "10", "--samples", "100")
        assert code == 0, out
        # under the standard product the adjoint is the conjugate transpose and the
        # components go to eigh as they are: nothing is solved against I or inverted
        assert calls == {"eigh": 1}

    def test_factorizations_per_spectral_job(self, capsys, monkeypatch, tmp_path, cold_cache):
        # the spectral workload's first job at seed 1, order 32
        (job, *_) = bench_workloads().make_jobs("spectral", 1, str(tmp_path), str(GOLDEN))
        calls = self._counted_linalg(monkeypatch, "cholesky", "solve", "inv", "eigh")
        code, out = run(capsys, *job.commands[0])
        assert code == 0, out
        # the spec's Cholesky factors, the inverse of L^H and one batched eigh:
        # self-adjointness is read from the reduction, with no adjoint solve
        assert calls == {"cholesky": 1, "inv": 1, "eigh": 1}

    LINALG = ("det", "cond", "inv", "qr", "cholesky", "solve", "eigh")

    def test_one_inverse_per_unitary_check(self, capsys, monkeypatch, cold_cache):
        hilbert._standard_spec.cache_clear()
        calls = self._counted_linalg(monkeypatch, *self.LINALG)
        code, out = run(capsys, "check", str(GOLDEN / "operator_unitary_n2.bct"))
        assert code == 0, out
        assert "\nnote: spectral-class: unitary\n" in out
        # the check suite's inverse of A; under the standard product the unitary
        # eigensolve skips the Cholesky reduction and inverts no L = I.  The
        # Cholesky factor is the kept standard spec's, built by the rows' check
        assert calls == {"cholesky": 1, "cond": 1, "det": 2, "eigh": 2, "inv": 1, "qr": 1}

    def test_one_reduction_per_unitary_check_under_a_spec(self, capsys, monkeypatch, cold_cache):
        # the unitary eigensolve reads the reduction that decided self-adjointness
        # and the adjoint that decided unitarity: neither is formed again.  The
        # inverses are A's and that of L^H, the solves those of the two adjoints
        # (check's adjoint and its adjoint, for the involution)
        hilbert._standard_spec.cache_clear()
        calls = self._counted_linalg(monkeypatch, *self.LINALG)
        code, out = run(capsys, "check", str(GOLDEN / "operator_unitary_n2.bct"),
                        "--spec", str(GOLDEN / "spec_identity_n2.bct"))
        assert code == 0, out
        assert "\nnote: spectral-class: unitary\n" in out
        assert calls == {
            "cholesky": 2, "cond": 1, "det": 2, "eigh": 2, "inv": 2, "qr": 1, "solve": 2
        }

    @staticmethod
    def _counted_adjoints(monkeypatch) -> list:
        """Calls to ``operators.adjoint`` from here on, under each name that binds it."""
        calls, original = [], operators.adjoint

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (operators, checks):
            monkeypatch.setattr(module, "adjoint", counted)
        return calls

    @pytest.mark.parametrize("name", ["operator_selfadjoint_n2.bct", "operator_unitary_n2.bct"])
    def test_adjoints_per_operator_check(self, capsys, monkeypatch, cold_cache, name):
        adjoints = self._counted_adjoints(monkeypatch)
        code, out = run(capsys, "check", str(GOLDEN / name))
        assert code == 0, out
        # A*, A** for the involution and the eigendecomposition's own class test:
        # the suite's class tests and its unitary-defect line reuse A*
        assert len(adjoints) <= 3

    def test_adjoints_per_spec_operator_job(self, capsys, monkeypatch, tmp_path, cold_cache):
        # the cli workload's order-8 operator and spec at seed 5
        (argv,) = [
            job.commands[0]
            for job in bench_workloads().make_jobs("cli", 5, str(tmp_path), str(GOLDEN))
            if job.commands[0][:2] == ["check", str(tmp_path / "h8.bct")]
        ]
        adjoints = self._counted_adjoints(monkeypatch)
        solves = self._counted_linalg(monkeypatch, "solve")
        code, out = run(capsys, *argv)
        assert code == 0, out
        # one solve per adjoint under a general spec
        assert solves["solve"] == len(adjoints) <= 3
        adjoints.clear()
        solves.clear()
        code, out = run(capsys, "spectral", *argv[1:])
        assert code == 0, out
        assert (len(adjoints), solves) == (0, {})

    def test_standard_product_prints_as_the_identity_spec(self, capsys, tmp_path, cold_cache):
        """The kept standard spec's shortcuts print the bytes of the Cholesky route under I."""
        rng = np.random.default_rng(17)
        h, psi, spec = tmp_path / "h16.bct", tmp_path / "psi16.bct", tmp_path / "id16.bct"
        bct.save(h, bct.document_for(random_self_adjoint(rng, 16)))
        bct.save(psi, bct.document_for(random_ket(rng, 16)))
        bct.save(spec, bct.document_for(ScalarProductSpec(np.eye(16), np.eye(16))))
        evolve = ("evolve", "--hbar", "1", "--t0", "-0.5", "--t1", "100", "--samples", "100")
        calls = [(*evolve, "--hamiltonian", str(h), "--state", str(psi), "--spec", str(spec))]
        state = str(GOLDEN / "ket_nullcone_n2.bct")
        identity = ("--spec", str(GOLDEN / "spec_identity_n2.bct"))
        for name in ("matrix_identity_n2", "operator_selfadjoint_n2", "operator_unitary_n2",
                     "counter_nonselfadjoint_n2", "counter_nullcone_pivot_n2"):
            path = str(GOLDEN / f"{name}.bct")
            calls += [("spectral", path, *identity), ("check", path, *identity),
                      (*evolve, "--hamiltonian", path, "--state", state, *identity)]
        for call in calls:
            # the spec file builds a spec that is not the kept standard one
            assert run(capsys, *call[:-2]) == run(capsys, *call), call


def _swapped_adjoint(spec, a):
    star = operators.adjoint(spec, a)
    return Operator(BicomplexMatrix.from_components(*star.matrix.components[::-1]), a.basis_id)


def _unconjugated_adjoint(spec, a):
    """inv(G_k) A_k^H G_k, with A_2^T for A_2^H."""
    parts = a.matrix.components.conj().mT
    parts[1] = parts[1].conj()
    parts = np.linalg.solve(spec.grams, parts @ spec.grams)
    return Operator(BicomplexMatrix.from_components(*parts), a.basis_id)


def _gramless_adjoint(spec, a):
    return Operator(BicomplexMatrix.from_components(*a.matrix.components.conj().mT), a.basis_id)


def _swapped_product(spec, psi, phi):
    return scalar_product(ScalarProductSpec(*spec.grams[::-1]), psi, phi)


def _gramless_product(spec, psi, phi):
    return scalar_product(ScalarProductSpec.identity(spec.dim), psi, phi)


def _check_line(out: str, name: str) -> str:
    (line,) = [line for line in out.splitlines() if line.startswith(f"check {name}: ")]
    return line


class TestProbeChecks:
    """The probe checks catch a wrong adjoint or scalar product, and need no numpy.random."""

    @pytest.fixture
    def spec_operator(self, tmp_path):
        """``check`` argv for an order-4 operator under a general spec."""
        rng = np.random.default_rng(4)
        bct.save(tmp_path / "a.bct", bct.document_for(Operator(random_matrix(rng, 4))))
        bct.save(tmp_path / "g.bct", bct.document_for(random_spec(rng, 4)))
        return ["check", str(tmp_path / "a.bct"), "--spec", str(tmp_path / "g.bct")]

    # each mutant on each input where it is not the adjoint: without a spec the
    # standard product has no Gram weighting to drop
    @pytest.mark.parametrize("mutant, operator", [
        (_swapped_adjoint, "spec"),
        (_unconjugated_adjoint, "spec"),
        (_gramless_adjoint, "spec"),
        (_swapped_adjoint, "operator_unitary_n2.bct"),
        (_unconjugated_adjoint, "operator_unitary_n2.bct"),
    ])
    def test_wrong_adjoint_fails_the_defining_relation(
        self, capsys, monkeypatch, spec_operator, mutant, operator
    ):
        argv = spec_operator if operator == "spec" else ["check", str(GOLDEN / operator)]
        doc = bct.load(argv[1])
        spec = cli._load_spec(argv[3] if len(argv) > 2 else None, doc.dim)
        wrong = mutant(spec, doc.value).matrix - operators.adjoint(spec, doc.value).matrix
        assert wrong.max_norm() > 0.1 * doc.value.matrix.max_norm()
        assert _check_line(run(capsys, *argv)[1], "adjoint-defining-relation").endswith(" pass")
        monkeypatch.setattr(checks, "adjoint", mutant)
        assert _check_line(run(capsys, *argv)[1], "adjoint-defining-relation").endswith(" fail")

    @pytest.mark.parametrize("mutant", [_swapped_product, _gramless_product])
    def test_wrong_scalar_product_fails_decomposition_vs_direct(self, capsys, monkeypatch, mutant):
        argv = ["check", str(GOLDEN / "spec_general_n3.bct")]
        assert _check_line(run(capsys, *argv)[1], "decomposition-vs-direct").endswith(" pass")
        monkeypatch.setattr(checks, "scalar_product", mutant)
        assert _check_line(run(capsys, *argv)[1], "decomposition-vs-direct").endswith(" fail")

    @pytest.mark.parametrize("name", ["operator_unitary_n2.bct", "spec_general_n3.bct"])
    def test_no_numpy_random(self, name):
        script = (
            "import sys\nfrom bicomplex.cli import main\ncode = main(sys.argv[1:])\n"
            "print('exit', code, 'numpy.random' in sys.modules)"
        )
        src = str(pathlib.Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script, "check", str(GOLDEN / name)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == "exit 0 False"


# -- output layout of every subcommand on every golden file ----------------------------

SUBCOMMANDS = ("info", "idempotent", "det", "inv", "exp", "gram-schmidt", "spectral", "evolve", "check")

_CHECK_LINE = re.compile(r"^check (\S+): residual \S+ tol \S+ (pass|fail)$")
_NUMBER = re.compile(r"(?<![\w.])[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def layout(out: str) -> tuple[str, ...]:
    """The check lines as "<name> <pass|fail>" and the notes with numbers as '#'."""
    rows = []
    for line in out.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            rows.append(f"{match[1]} {match[2]}")
        elif line.startswith("check "):
            rows.append(f"malformed: {line}")
        elif line.startswith("note: "):
            rows.append(_NUMBER.sub("#", line[len("note: "):]))
    return tuple(rows)


DET = ("det-idempotent-vs-direct pass", "det-transpose pass")
INV = ("inverse-residual pass", "inverse-left-right pass", "condition-estimates: # #")
EXP = ("exp-inverse-consistency pass",)
SPECTRUM = (
    "spectral-reconstruction pass",
    "eigenvalue-imag-parts pass",
    "eigenket-orthonormal pass",
    "completeness pass",
)
EVOLVE = ("norm-conservation pass", "schrodinger-residual pass")
MATRIX_SUITE = DET + (
    "product-component-law pass",
    "inverse-residual pass",
    "inverse-left-right pass",
    "orthogonalize-rows pass",
)
ADJOINT = ("adjoint-involution pass", "adjoint-defining-relation pass")
SCALAR_SUITE = (
    "idempotent-round-trip pass",
    "conjugation-involution pass",
    "modulus-j-positive pass",
    "norm-consistency pass",
)
SPEC_SUITE = (
    "hermitian-g1 pass",
    "hermitian-g2 pass",
    "positive-definite pass",
    "decomposition-vs-direct pass",
)
READABLE = {"info": (0, ()), "idempotent": (0, ())}
SQUARE = {**READABLE, "det": (0, DET), "inv": (0, INV), "exp": (0, EXP)}

# (exit code, layout) of every call that is not rejected with exit 2
GOLDEN_LAYOUT = {
    "counter_nonselfadjoint_n2.bct": {
        **SQUARE,
        "check": (
            3,
            MATRIX_SUITE
            + ADJOINT
            + (
                "spectral-class fail",
                "spectral-class: neither self-adjoint nor unitary; "
                "spectral decomposition unavailable",
            ),
        ),
    },
    "counter_nullcone_pivot_n2.bct": {
        **SQUARE,
        "check": (
            3,
            MATRIX_SUITE[:-1]
            + (
                "orthogonalize-rows fail",
                "orthogonalize-rows: NullConePivot: "
                "self-product of orthogonalized ket # lies in the null cone",
            ),
        ),
    },
    "ket_nullcone_n2.bct": {
        **READABLE,
        "check": (
            0,
            (
                "component-round-trip pass",
                "classification-consistency pass",
                "self-product-positive pass",
                "normalize: skipped (null_cone_2)",
            ),
        ),
    },
    "ket_regular_n3.bct": {
        **READABLE,
        "check": (
            0,
            (
                "component-round-trip pass",
                "classification-consistency pass",
                "self-product-positive pass",
                "normalize-unit pass",
            ),
        ),
    },
    "matrix_diag_e1_1.bct": {
        **READABLE,
        "det": (0, DET),
        "exp": (0, EXP),
        "spectral": (0, SPECTRUM),
        "evolve": (0, EVOLVE),
        "check": (
            0,
            MATRIX_SUITE[:3]
            + ("inverse: skipped (singular, det null_cone_2)", "orthogonalize-rows: skipped (singular)"),
        ),
    },
    "matrix_identity_n2.bct": {
        **SQUARE,
        "gram-schmidt": (0, ("orthonormal-defect pass", "null-cone-outputs pass")),
        "spectral": (0, SPECTRUM),
        "evolve": (0, EVOLVE),
        "check": (0, MATRIX_SUITE),
    },
    "matrix_random_n3.bct": {
        **SQUARE,
        "gram-schmidt": (0, ("orthonormal-defect pass", "null-cone-outputs pass")),
        "check": (0, MATRIX_SUITE),
    },
    "operator_selfadjoint_n2.bct": {
        **SQUARE,
        "spectral": (0, SPECTRUM),
        "evolve": (0, EVOLVE),
        "check": (0, MATRIX_SUITE + ADJOINT + SPECTRUM + ("spectral-class: self-adjoint",)),
    },
    "operator_unitary_n2.bct": {
        **SQUARE,
        "check": (
            0,
            MATRIX_SUITE
            + ADJOINT
            + (
                "unitary-defect pass",
                "eigenvalue-unit-modulus pass",
                "eigenket-orthonormal pass",
                "completeness pass",
                "spectral-class: unitary",
            ),
        ),
    },
    "scalar_e1.bct": {
        **READABLE,
        "check": (0, SCALAR_SUITE + ("cube-root-residual pass", "inverse: skipped (null_cone_2)")),
    },
    "scalar_j.bct": {
        **READABLE,
        "check": (0, SCALAR_SUITE + ("inverse-residual pass", "cube-root-residual pass")),
    },
    "scalar_mixed.bct": {
        **READABLE,
        "check": (0, SCALAR_SUITE + ("inverse-residual pass", "cube-root-residual pass")),
    },
    "scalar_one.bct": {
        **READABLE,
        "check": (0, SCALAR_SUITE + ("inverse-residual pass", "cube-root-residual pass")),
    },
    "spec_general_n3.bct": {
        "info": (0, ()),
        "check": (0, SPEC_SUITE + ("closed-under-reference: no",)),
    },
    "spec_identity_n2.bct": {
        "info": (0, ()),
        "check": (0, SPEC_SUITE + ("closed-under-reference: yes",)),
    },
}


def test_golden_layout_covers_corpus():
    assert sorted(path.name for path in GOLDEN.glob("*.bct")) == sorted(GOLDEN_LAYOUT)


@pytest.mark.parametrize("name", sorted(GOLDEN_LAYOUT))
def test_output_layout(capsys, workdir, name):
    path = str(GOLDEN / name)
    for sub in SUBCOMMANDS:
        if sub == "evolve":
            argv = [
                "evolve", "--hamiltonian", path, "--state", str(workdir / "psi.bct"),
                "--hbar", "1", "--t0", "0", "--t1", "1", "--samples", "3",
            ]
        else:
            argv = [sub, path]
        code, out = run(capsys, *argv)
        assert code in (0, 1, 2, 3)
        expected = GOLDEN_LAYOUT[name].get(sub)
        if expected is None:
            assert code == 2, (sub, out)
            assert out.startswith("error: ") and out.count("\n") == 1, (sub, out)
        else:
            assert (code, layout(out)) == expected, sub


def test_determinant_skip_notes(capsys, tmp_path):
    rng = np.random.default_rng(6)
    parts = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) for _ in range(2)]
    bct.save(tmp_path / "m6.bct", bct.document_for(BicomplexMatrix(*parts)))
    code, out = run(capsys, "det", str(tmp_path / "m6.bct"))
    assert code == 0
    assert "\nnote: det-idempotent-vs-direct: skipped (order > 5)\n" in out
    assert "check det-idempotent-vs-direct" not in out
    code, out = run(capsys, "check", str(tmp_path / "m6.bct"))
    assert code == 0
    assert "\nnote: det-idempotent-vs-direct: skipped (order 6 > 5)\n" in out
    assert "check det-idempotent-vs-direct" not in out


# -- the input kinds, specs and options each subcommand takes ---------------------

KIND_FILES = {
    "scalar": "scalar_one.bct",
    "ket": "ket_nullcone_n2.bct",
    "matrix": "matrix_identity_n2.bct",
    "operator": "operator_selfadjoint_n2.bct",
    "spec": "spec_identity_n2.bct",
}
# the kinds each subcommand accepts, in the order its error names them;
# info and check accept every kind
ACCEPTED_KINDS = {
    "idempotent": ("scalar", "ket", "matrix", "operator"),
    "det": ("matrix", "operator"),
    "inv": ("matrix", "operator"),
    "exp": ("matrix", "operator"),
    "gram-schmidt": ("matrix",),
    "spectral": ("operator", "matrix"),
    "evolve --hamiltonian": ("operator", "matrix"),
    "evolve --state": ("ket",),
}
EVOLVE_SETTINGS = ("--hbar", "1", "--t0", "0", "--t1", "1", "--samples", "3")
NOT_POSITIVE_DEFINITE = (
    "bct v1\nkind: spec\ndim: 2\n(1 0) (0 0)\n(0 0) (-1 0)\n(1 0) (0 0)\n(0 0) (1 0)\n"
)


def evolve_argv(hamiltonian="operator", state="ket", spec=None) -> list[str]:
    argv = ["evolve", "--hamiltonian", str(GOLDEN / KIND_FILES[hamiltonian]),
            "--state", str(GOLDEN / KIND_FILES[state]), *EVOLVE_SETTINGS]
    return argv if spec is None else argv + ["--spec", spec]


def kind_error(command: str, got: str) -> str:
    expected = " or ".join(ACCEPTED_KINDS[command])
    return f"error: KindMismatch: expected kind {expected}, got {got!r}\n"


@pytest.mark.parametrize(
    "command, kind",
    [(command, kind) for command, kinds in ACCEPTED_KINDS.items()
     for kind in KIND_FILES if kind not in kinds],
)
def test_rejected_kind_error(capsys, command, kind):
    if command.startswith("evolve"):
        argv = evolve_argv(**{command.split("--")[1]: kind})
    else:
        argv = [command, str(GOLDEN / KIND_FILES[kind])]
    assert run(capsys, *argv) == (2, kind_error(command, kind))


@pytest.fixture
def bad_specs(tmp_path):
    """Spec files of the wrong kind, of the wrong order and not positive definite, and their errors.

    The errors are those on an order-2 input.
    """
    path = tmp_path / "not_pd.bct"
    path.write_text(NOT_POSITIVE_DEFINITE)
    return [
        (str(GOLDEN / "matrix_identity_n2.bct"),
         "error: KindMismatch: expected kind spec, got 'matrix'\n"),
        (str(GOLDEN / "spec_general_n3.bct"),
         "error: BicomplexError: spec dimension 3 does not match input dimension 2\n"),
        (str(path), "error: BicomplexError: invalid scalar-product spec: "
                    "Gram matrices must be positive definite\n"),
    ]


@pytest.mark.parametrize(
    "sub, kind",
    [("gram-schmidt", "matrix"), ("spectral", "operator"), ("spectral", "matrix"),
     ("check", "operator"), ("check", "ket"), ("evolve", "operator")],
)
def test_bad_spec_error(capsys, bad_specs, sub, kind):
    for spec, expected in bad_specs:
        if sub == "evolve":
            argv = evolve_argv(kind, spec=spec)
        else:
            argv = [sub, str(GOLDEN / KIND_FILES[kind]), "--spec", spec]
        assert run(capsys, *argv) == (2, expected)


@pytest.mark.parametrize("kind", ["scalar", "matrix", "spec"])
def test_check_reads_spec_only_for_kets_and_operators(capsys, bad_specs, kind):
    plain = run(capsys, "check", str(GOLDEN / KIND_FILES[kind]))
    for spec, _ in bad_specs:
        assert run(capsys, "check", str(GOLDEN / KIND_FILES[kind]), "--spec", spec) == plain


def test_evolve_reports_hamiltonian_then_state_then_spec(capsys, bad_specs):
    spec, spec_error = bad_specs[0]
    assert run(capsys, *evolve_argv("scalar", "matrix", spec)) == (
        2, kind_error("evolve --hamiltonian", "scalar")
    )
    assert run(capsys, *evolve_argv("operator", "matrix", spec)) == (
        2, kind_error("evolve --state", "matrix")
    )
    assert run(capsys, *evolve_argv("operator", "ket", spec)) == (2, spec_error)



MISSING = str(GOLDEN / "missing.bct")
XI_OF_THREE = "(1 0 0)"


def golden_of(kind: str) -> str:
    return str(GOLDEN / KIND_FILES[kind])


@pytest.mark.parametrize(
    "faults, expected",
    [
        ({"--hamiltonian": golden_of("ket"), "--state": golden_of("matrix")},
         (2, kind_error("evolve --hamiltonian", "ket"))),
        ({"--hamiltonian": golden_of("ket"), "--state": MISSING},
         (2, kind_error("evolve --hamiltonian", "ket"))),
        ({"--state": golden_of("matrix"), "--xi": XI_OF_THREE},
         (2, kind_error("evolve --state", "matrix"))),
        ({"--spec": str(GOLDEN / "spec_general_n3.bct"), "--xi": XI_OF_THREE},
         (2, "error: BicomplexError: spec dimension 3 does not match input dimension 2\n")),
        ({"--spec": MISSING, "--xi": XI_OF_THREE},
         (1, f"cannot read input: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {MISSING!r}\n")),
        ({"--xi": XI_OF_THREE, "--hbar": "-1"},
         (2, f"error: InvalidXi: --xi {XI_OF_THREE!a}: atom needs 4 numbers, got 3\n")),
    ],
    ids=["hamiltonian-kind, state-kind", "hamiltonian-kind, state-missing", "state-kind, xi",
         "spec-order, xi", "spec-missing, xi", "xi, hbar"],
)
def test_evolve_reports_the_first_of_two_faults(capsys, faults, expected):
    # the runner loads --hamiltonian and checks its kind, then --state, then
    # resolves --spec against --hamiltonian; only then are --xi and the
    # evolution settings read
    argv = evolve_argv()
    flags = {**dict(zip(argv[1::2], argv[2::2])), **faults}
    assert run(capsys, "evolve", *[word for pair in flags.items() for word in pair]) == expected


# the order-16 matrix diag(2 + 0.5 i2), one row per line: 1,024 fields, read
# by the vectorized reader when its layout allows
ORDER_16 = [" ".join("(2 0 0.5 0)" if i == j else "(0 0 0 0)" for j in range(16))
            for i in range(16)]


def order_16(rows: list[str], end: str = "\n") -> str:
    return "bct v1\nkind: matrix\ndim: 16\n" + "\n".join(rows) + end


def order_16_edited(row: int, atom: str) -> str:
    """ORDER_16 with the first zero atom of ``row`` replaced by ``atom``."""
    rows = list(ORDER_16)
    rows[row] = rows[row].replace("(0 0 0 0)", atom, 1)
    return order_16(rows)


@pytest.mark.parametrize(
    "argv, documents, code, line",
    [
        (["check", "g.bct"], {"g.bct": NOT_POSITIVE_DEFINITE}, 3,
         "note: positive-definite: Gram matrices must be positive definite"),
        (["info", "g.bct"], {"g.bct": NOT_POSITIVE_DEFINITE}, 0,
         "valid: no (Gram matrices must be positive definite)"),
        ([*evolve_argv(), "--hbar", "-1"], {}, 2,
         "error: BicomplexError: invalid evolution settings: "
         "hbar must be positive and finite, got -1.0"),
        ([*evolve_argv(), "--t0=-1e308", "--t1=1e308"], {}, 2,
         "error: BicomplexError: invalid evolution settings: t0, t1 and t1 - t0 must be finite"),
        ([*evolve_argv(), "--state", str(GOLDEN / "ket_regular_n3.bct")], {}, 2,
         "error: DimensionMismatch: dimensions differ: 2 vs 3"),
        ([*evolve_argv(), "--state", "psi.bct"],
         {"psi.bct": "bct v1\nkind: ket\ndim: 2\nbasis: lab\n(1 0 0 0) (0 1 0 0)\n"}, 2,
         "error: BasisMismatch: bases differ: 'canonical' vs 'lab'"),
        # eigenfrequency 1e300 over a window of 1e10
        ([*evolve_argv(), "--hamiltonian", "h.bct", "--t1", "1e10"],
         {"h.bct": "bct v1\nkind: operator\ndim: 2\n"
                   "(1e300 0 0 0) (0 0 0 0)\n(0 0 0 0) (1 0 0 0)\n"},
         2, "error: NonFinite: phases lambda (t - t0) / hbar overflow"),
        # one row longer than a reader block: the reference scan reads it
        (["info", "psi.bct"],
         {"psi.bct": "bct v1\nkind: ket\ndim: 2049\n" + " ".join(["(1 0 0.5 0)"] * 2049) + "\n"},
         0, "classification: regular"),
        (["info", "a.bct"], {"a.bct": order_16(ORDER_16, end="")}, 0, "singular: no"),
        (["info", "a.bct"], {"a.bct": order_16(ORDER_16[:8])}, 1,
         "parse error: line 11, column 1: expected 16 payload rows for kind 'matrix', got 8"),
        (["info", "a.bct"], {"a.bct": order_16_edited(5, ")0 0 0 0(")}, 1,
         "parse error: line 9, column 1: unexpected text ')0 0 0 0('"),
        (["info", "a.bct"], {"a.bct": order_16_edited(9, "(0x10 0 0 0)")}, 1,
         "parse error: line 13, column 1: bad number '0x10'"),
        # a field of 1e20 in a block of the batch writer
        (["idempotent", "a.bct"], {"a.bct": order_16_edited(0, "(1e20 0 0 0)")}, 0,
         "(2 -0.5) (1e+20 0)" + " (0 0)" * 14),
    ],
    ids=["check-spec-not-positive-definite", "info-spec-not-positive-definite",
         "evolve-negative-hbar", "evolve-infinite-window", "evolve-state-dimension",
         "evolve-state-basis", "evolve-phases-overflow", "info-ket-2049",
         "info-no-final-newline", "info-rows-missing", "info-swapped-parens",
         "info-bad-number", "idempotent-field-1e20"],
)
def test_outcomes_only_these_inputs_reach(capsys, tmp_path, argv, documents, code, line):
    # each call is also one of tools/parity.py's error calls
    for name, text in documents.items():
        (tmp_path / name).write_text(text)
    got, out = run(capsys, *[str(tmp_path / arg) if arg in documents else arg for arg in argv])
    assert got == code and line in out.splitlines(), out


NON_ASCII_DIGITS = ["\uff11", "\u0660"]  # FULLWIDTH DIGIT ONE, ARABIC-INDIC DIGIT ZERO


@pytest.mark.parametrize("digit", NON_ASCII_DIGITS, ids=["U+FF11", "U+0660"])
@pytest.mark.parametrize("flag", ["--eps-null", "--eps-eq", "--hbar", "--t0", "--t1", "--samples"])
def test_numeric_flags_refuse_non_ascii_digits(capsys, flag, digit):
    # float() and int() read any Unicode decimal digit; the flags take ASCII
    # text only, as --xi and a document's fields do, and end as argparse's
    # usage error for a value that is no number
    def usage_error(value):
        argv = evolve_argv()
        argv = [flag, value, *argv] if flag.startswith("--eps") else argv + [flag, value]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        return exit_info.value.code, captured.out, captured.err

    code, out, err = usage_error(digit)
    assert (code, out) == (2, "")
    assert err == usage_error("abc")[2].replace("'abc'", repr(digit))
    assert f"argument {flag}: invalid " in err

def test_help_lists_subcommands_and_options(capsys, monkeypatch):
    # wide enough that argparse prints each usage on one line
    monkeypatch.setenv("COLUMNS", "400")
    usages = []
    for argv in ([], *([sub] for sub in SUBCOMMANDS)):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--help"])
        assert exit_info.value.code == 0
        usages.append(capsys.readouterr().out.splitlines()[0])
    assert usages == [
        "usage: bct [-h] [--eps-null EPS_NULL] [--eps-eq EPS_EQ] "
        "{info,idempotent,det,inv,exp,gram-schmidt,spectral,evolve,check} ...",
        "usage: bct info [-h] file",
        "usage: bct idempotent [-h] file",
        "usage: bct det [-h] file",
        "usage: bct inv [-h] file",
        "usage: bct exp [-h] file",
        "usage: bct gram-schmidt [-h] [--spec SPEC] file",
        "usage: bct spectral [-h] [--spec SPEC] file",
        "usage: bct evolve [-h] --hamiltonian HAMILTONIAN --state STATE --hbar HBAR --t0 T0 "
        "--t1 T1 [--samples SAMPLES] [--xi XI] [--spec SPEC]",
        "usage: bct check [-h] [--spec SPEC] file",
    ]


# -- every input ends in a documented exit code ---------------------------------

GOLDEN_BYTES = [path.read_bytes() for path in sorted(GOLDEN.glob("*.bct"))]
# bytes and snippets that reach the header, payload, number and encoding checks
BYTE_SNIPPETS = [b"(", b")", b"()", b")(", b" ", b"\t", b"\n", b"\r\n", b"-", b"0", b"9", b"e",
                 b".", b"nan", b"1e308", b"1e-320", b"\x00", b"\xff", b"dim: 9\n", b"kind: spec\n"]


@st.composite
def mutated_golden(draw):
    """A golden file with one to four byte-level edits anywhere in it."""
    data = draw(st.sampled_from(GOLDEN_BYTES))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["insert", "delete", "replace", "line"]))
        if op == "insert":
            data = data[:at] + draw(st.sampled_from(BYTE_SNIPPETS)) + data[at:]
        elif op == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 4)):]
        elif op == "replace":
            data = data[:at] + draw(st.sampled_from(BYTE_SNIPPETS)) + data[at + 1:]
        else:
            lines = data.split(b"\n")
            i = draw(st.integers(0, len(lines) - 1))
            lines[i:i + 1] = draw(st.sampled_from([[], [lines[i]] * 2]))
            data = b"\n".join(lines)
    return data


def _file_calls(path: str) -> list[list[str]]:
    """Every subcommand that reads a file, with the fuzzed file in each file slot."""
    spec = str(GOLDEN / "spec_identity_n2.bct")
    hamiltonian = str(GOLDEN / "operator_selfadjoint_n2.bct")
    state = str(GOLDEN / "ket_nullcone_n2.bct")
    evolve = ["evolve", "--hbar", "1", "--t0", "0", "--t1", "2", "--samples", "3"]
    calls = [[sub, path] for sub in ("info", "idempotent", "det", "inv", "exp")]
    for sub in ("gram-schmidt", "spectral", "check"):
        calls += [[sub, path], [sub, path, "--spec", spec], [sub, hamiltonian, "--spec", path]]
    calls += [
        evolve + ["--hamiltonian", path, "--state", state],
        evolve + ["--hamiltonian", hamiltonian, "--state", path],
        evolve + ["--hamiltonian", hamiltonian, "--state", state, "--spec", path],
    ]
    return calls


class TestExitCodeContract:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.one_of(mutated_golden(), st.binary(max_size=120)))
    def test_any_bytes_end_in_a_documented_exit_code(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzzed.bct"
        path.write_bytes(data)
        for argv in _file_calls(str(path)):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3), argv
