import math
import pathlib

import numpy as np
import pytest

from bicomplex import bct
from bicomplex.cli import main
from bicomplex.core import Bicomplex, E1, I1, J, ONE
from bicomplex.hilbert import Ket
from bicomplex.matrix import BicomplexMatrix
from bicomplex.operators import Operator

from helpers import random_hermitian, random_spec

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


class TestInv:
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
        parts = [np.linalg.solve(spec.gram(k), random_hermitian(rng, n)) for k in (1, 2)]
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

    def test_null_cone_pivot_exit_2(self, capsys):
        code, out = run(capsys, "gram-schmidt", str(GOLDEN / "counter_nullcone_pivot_n2.bct"))
        assert code == 2
        assert "NullConePivot" in out


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

    def test_bad_tolerance_exit_2(self, capsys, workdir):
        code, out = run(capsys, "--eps-null", "0.5", "det", str(workdir / "diag.bct"))
        assert code == 2


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
