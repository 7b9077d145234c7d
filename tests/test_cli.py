import contextlib
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

from bicomplex import bct
from bicomplex.cli import main
from bicomplex.core import Bicomplex, E1, I1, J, ONE
from bicomplex.hilbert import Ket
from bicomplex.matrix import BicomplexMatrix
from bicomplex.operators import Operator

from helpers import (
    random_hermitian,
    random_ket,
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

    def test_no_ket_per_row(self, capsys, monkeypatch, tmp_path):
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

    def test_one_batched_eigensolve_per_run(self, capsys, monkeypatch, workdir):
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


class TestOverflow:
    """Inputs whose arithmetic overflows end in exit 2 (or a failing check, exit 3)."""

    INPUTS = {
        "scalar": "bct v1\nkind: scalar\ndim: 1\n(1e308 1e308 1e308 0)\n",
        "matrix": "bct v1\nkind: matrix\ndim: 2\n(1e308 0 0 0) (0 0 0 0)\n(0 0 0 0) (1e308 0 0 0)\n",
    }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "kind, sub, expected",
        [
            ("scalar", "info", 2),
            ("scalar", "idempotent", 2),
            ("scalar", "check", 3),
            ("matrix", "info", 2),
            ("matrix", "idempotent", 0),
            ("matrix", "det", 2),
            ("matrix", "inv", 2),
            ("matrix", "exp", 2),
            ("matrix", "gram-schmidt", 2),
            ("matrix", "spectral", 2),
            ("matrix", "check", 3),
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
