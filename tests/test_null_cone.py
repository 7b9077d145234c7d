"""The one null-cone test, ``core.null_cone_codes``, and the sites that call it.

Parity: on moduli from 1e-290 to 1e290, at eps_null * scale and at its
``nextafter`` neighbours, in both component orders, the helper and every
site give the label of the formula they replaced (the ``old_*`` oracles
of ``helpers``) wherever that formula's values are normal.

Scale: dividing by a power of two is exact, so every golden call of the
benchmark's cli workload keeps its exit code and verdict when its input
is scaled by 2**k, for k down to -900 and up to 500, except the calls
whose result truly overflows, and none writes to stderr.  The same holds
for the benchmark's generated inputs (the cli workload's order-8 files
and the first order-32 spectral job) when an operator and its spec are
scaled together or one at a time, and the eigenvalues scale with the
operator.  The tests that hold at one scale only when they are relative
(a spec's Hermitian and closed-under-reference tests, a self-adjoint
spectrum's checks) give the same answer at every scale.
"""

import contextlib
import functools
import io
import math
import pathlib
import re
import warnings

import numpy as np
import pytest

from bicomplex import (
    Bicomplex,
    BicomplexMatrix,
    Ket,
    NullConePivot,
    ScalarProductSpec,
    Tolerance,
    gram_schmidt,
    normalize,
    scalar_product,
)
from bicomplex import bct
from bicomplex.checks import verify_gram_schmidt, verify_self_adjoint_spectrum
from bicomplex.cli import main
from bicomplex.core import null_cone_codes
from bicomplex.hilbert import KetColumns
from bicomplex.operators import Eigensystem, Operator, eigendecompose_self_adjoint

from helpers import (
    bench_golden,
    bench_workloads,
    old_classify,
    old_classify_det,
    old_code,
    old_ket_classify,
    old_null_cone_count,
    old_pivots_rejected,
    random_ket,
    random_spec,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
EPS_NULL = (1e-14, 1e-12, 1e-9, 1e-6)
TINY = np.finfo(float).tiny
HUGE = np.finfo(float).max
# decades, and odd mantissas between them
FINE_SCALES = np.geomspace(1e-290, 1e290, 1741)
SITE_SCALES = 10.0 ** np.arange(-290.0, 291.0, 10.0)


def boundary_cases(eps_null: float, scales: np.ndarray) -> np.ndarray:
    """(2, m) moduli: eps_null * scale and its two neighbours against scale, in both orders."""
    edge = eps_null * scales
    small = np.concatenate([np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)])
    large = np.tile(scales, 3)
    return np.concatenate([np.stack([small, large]), np.stack([large, small])], axis=1)


class TestHelper:
    @pytest.mark.parametrize("eps_null", EPS_NULL)
    def test_plain_test_on_boundary_moduli(self, eps_null):
        moduli = boundary_cases(eps_null, FINE_SCALES)
        expected = [old_code(m1, m2, eps_null) for m1, m2 in zip(*moduli.tolist())]
        assert null_cone_codes(moduli, eps_null).tolist() == expected
        assert set(expected) == {1, 2, 3}

    def test_zero_and_non_finite_moduli(self):
        inf, nan = math.inf, math.nan
        moduli = [
            [0.0, 0.0, 1.0, inf, inf, 1.0, nan, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0, inf, inf, 1.0, nan, 5e-324],
        ]
        assert null_cone_codes(moduli, 1e-12).tolist() == [0, 1, 2, 0, 0, 0, 3, 3, 1]

    def test_subnormal_moduli(self):
        # 5 units of 5e-324 against eps_null * large = 4.6 units: the ratio is
        # 1.09e-12, regular, but the plain test rounds its bound up to 5 units
        large, small = 4.6e12 * 5e-324, 5 * 5e-324
        moduli = [[large, small, 1e-310], [small, large, 1e-323]]
        assert null_cone_codes(moduli, 1e-12).tolist() == [3, 3, 2]

    def test_shapes(self):
        assert null_cone_codes((1.0, 1e-13), 1e-12) == 2
        moduli = np.ones((2, 3, 4))
        moduli[0, 1, 2] = 0.0
        codes = null_cone_codes(moduli, 1e-12)
        assert codes.shape == (3, 4)
        assert codes[1, 2] == 1 and (codes == 3).sum() == 11

    @pytest.mark.parametrize("k", [-900, -537, -1, 1, 537, 900])
    def test_power_of_two_scale_keeps_codes(self, k):
        moduli = boundary_cases(1e-12, 10.0 ** np.arange(-5.0, 6.0))
        scaled = np.ldexp(moduli, k)
        # where the scaled smaller modulus is still normal
        normal = scaled.min(axis=0) >= TINY
        assert normal.sum() >= moduli.shape[1] // 2
        codes = null_cone_codes(moduli, 1e-12)[normal]
        assert np.array_equal(null_cone_codes(scaled, 1e-12)[normal], codes)


def site_cases(eps_null: float) -> list[tuple[float, float]]:
    return list(zip(*boundary_cases(eps_null, SITE_SCALES).tolist()))


class TestSites:
    """Each caller of null_cone_codes against the formula it replaced."""

    @pytest.mark.parametrize("eps_null", EPS_NULL)
    def test_scalar_classify(self, eps_null):
        tol = Tolerance(eps_null=eps_null)
        labels = set()
        for m1, m2 in site_cases(eps_null):
            w = Bicomplex.from_idempotent(m1, m2)
            labels.add(w.classify(tol))
            assert w.classify(tol) is old_classify(w, tol), (m1, m2)
        assert len(labels) == 3

    @pytest.mark.parametrize("eps_null", EPS_NULL)
    def test_ket_classify(self, eps_null):
        tol = Tolerance(eps_null=eps_null)
        labels = set()
        for m1, m2 in site_cases(eps_null):
            psi = Ket.from_components(np.array([m1, 0.5 * m1]), np.array([0.25 * m2, m2]))
            labels.add(psi.classify(tol))
            assert psi.classify(tol) is old_ket_classify(psi, tol), (m1, m2)
        assert len(labels) == 3

    @pytest.mark.parametrize("eps_null", EPS_NULL)
    def test_determinant(self, eps_null):
        tol = Tolerance(eps_null=eps_null)
        labels = set()
        for m1, m2 in site_cases(eps_null):
            matrix = BicomplexMatrix.from_components([[m1]], [[m2]])
            labels.add(matrix._classify_det(tol))
            assert matrix._classify_det(tol) is old_classify_det(matrix, tol), (m1, m2)
        assert len(labels) == 3

    @pytest.mark.parametrize("eps_null", EPS_NULL)
    @pytest.mark.parametrize("entry", [1e-50, 1e50])
    def test_determinant_log_moduli(self, eps_null, entry):
        # order 8: determinants near 1e-400 (zero) or 1e400 (overflow), components
        # apart by a ratio well away from eps_null, so rounding cannot decide
        tol = Tolerance(eps_null=eps_null)
        base = entry * np.eye(8)
        for ratio in (0.0, eps_null * 1e-3, eps_null * 1e3, 1.0):
            other = base.copy()
            other[0, 0] *= ratio
            for c1, c2 in ((base, other), (other, base)):
                matrix = BicomplexMatrix.from_components(c1, c2)
                assert matrix._classify_det(tol) is old_classify_det(matrix, tol)

    @pytest.mark.parametrize("eps_null", EPS_NULL)
    def test_gram_schmidt_pivots(self, eps_null):
        # diagonal kets: QR leaves the diagonal as the pivots; pivot 1 mirrors
        # pivot 0 at unit scale, so the determinant stays regular.  The test is
        # on the squared moduli, so its boundary lies at sqrt(eps_null) * scale.
        tol = Tolerance(eps_null=eps_null)
        spec = ScalarProductSpec.identity(2)
        outcomes = set()
        for m1, m2 in zip(*boundary_cases(math.sqrt(eps_null), SITE_SCALES).tolist()):
            scale = max(m1, m2)
            kets = KetColumns(BicomplexMatrix.from_components(
                np.diag([m1, m2 / scale]), np.diag([m2, m1 / scale])
            ))
            pivots = np.diagonal(
                np.linalg.qr(spec.chols.conj().mT @ kets.matrix.components)[1], axis1=1, axis2=2
            )
            moduli = np.abs(pivots)
            if moduli.min() < math.sqrt(TINY) or moduli.max() > math.sqrt(HUGE):
                # the old test squared these moduli out of range (and rescaled an
                # overflow inexactly): it is asked about each pivot times the power
                # of two that brings it to unit scale, an exact scale
                pivots = pivots * np.ldexp(1.0, -np.frexp(moduli.max(axis=0))[1])
            rejected = old_pivots_rejected(pivots, tol)
            expected = int(np.argmax(rejected)) if rejected.any() else None
            try:
                gram_schmidt(spec, kets, tol)
                got = None
            except NullConePivot as exc:
                got = exc.index
            assert got == expected, (m1, m2)
            outcomes.add(got)
        # pivot 0 both rejected and accepted
        assert 0 in outcomes and outcomes - {0}

    @pytest.mark.parametrize("eps_null", EPS_NULL)
    def test_null_cone_count(self, eps_null):
        tol = Tolerance(eps_null=eps_null)
        spec = ScalarProductSpec.identity(1)
        counts = set()
        for m1, m2 in site_cases(eps_null):
            kets = KetColumns(BicomplexMatrix.from_components([[m1]], [[m2]]))
            # the orthonormal defect of moduli near 1e290 overflows; only the count matters
            with np.errstate(over="ignore", invalid="ignore"):
                results = {r.name: r.residual for r in verify_gram_schmidt(spec, kets, tol)}
            count = old_null_cone_count(kets.matrix.components, tol)
            assert results["null-cone-outputs"] == count, (m1, m2)
            counts.add(count)
        assert counts == {0, 1}


def test_scaled_kets_normalize_to_the_same_bits():
    # the self-product of a ket at 2**-600 underflows; normalize scales the ket first
    rng = np.random.default_rng(5)
    spec = random_spec(rng, 3)
    psi = random_ket(rng, 3)
    unit = normalize(spec, psi)
    # the formula on the unscaled self-product, bit for bit
    c1, c2 = scalar_product(spec, psi, psi).to_idempotent()
    factor = Bicomplex.from_idempotent(1.0 / math.sqrt(c1.real), 1.0 / math.sqrt(c2.real))
    assert psi.scale(factor) == unit
    parts = np.stack([psi.z1, psi.z2]).view(float)
    for k in (-900, -600, -300, 300, 500):
        scaled = Ket(*np.ldexp(parts, k).view(complex))
        assert normalize(spec, scaled) == unit, k


# -- golden calls on inputs scaled by 2**k -----------------------------------------------

SCALES = (-900, -600, -300, 300, 500)
_NUMBER = re.compile(r"[^\s()]+")


def run_captured(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr (every warning included) of one in-process ``bct`` call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), stderr


def verdict_line(out: str) -> str | None:
    verdicts = [line for line in out.splitlines() if line.startswith("verdict: ")]
    return verdicts[-1] if verdicts else None


def run_quietly(*argv) -> tuple[int, str | None, str]:
    """Exit code, verdict and stderr (every warning included) of one in-process ``bct`` call."""
    code, out, stderr = run_captured(*argv)
    return code, verdict_line(out), stderr


def outcome(*argv) -> tuple[int, str | None]:
    """Exit code and verdict of one in-process ``bct`` call."""
    return run_quietly(*argv)[:2]


@functools.lru_cache(maxsize=None)
def unscaled_outcome(name: str, sub: str) -> tuple[int, str | None]:
    return outcome(sub, str(GOLDEN / name))


def write_scaled(path: pathlib.Path, target: pathlib.Path, k: int) -> str:
    """The .bct file at ``path`` with each payload number multiplied by 2**k (exact)."""
    lines = [
        _NUMBER.sub(lambda m: repr(math.ldexp(float(m.group()), k)), line)
        if line.startswith("(") else line
        for line in path.read_text().splitlines()
    ]
    target.write_text("\n".join(lines) + "\n")
    return str(target)


@pytest.fixture(scope="module")
def scaled_dir(tmp_path_factory):
    """Every golden file with each payload number multiplied by 2**k (exact), per k."""
    root = tmp_path_factory.mktemp("scaled")
    for k in SCALES:
        (root / str(k)).mkdir()
        for path in GOLDEN.glob("*.bct"):
            write_scaled(path, root / str(k) / path.name, k)
    return root


_ENTRIES_OVERFLOW = (2, None)  # error: NonFinite
# the calls whose outcome at 2**k is not the unscaled one, with the outcome they have:
# exp(A) truly overflows from 2**300 on; so does the determinant of matrix_random_n3
# at 2**500; and unitarity is not homogeneous, so a scaled unitary fails its check,
# at every scale now that self-adjointness is tested relative to the operator's scale
SCALED_EXEMPTIONS = {
    **{
        ("exp", name, k): _ENTRIES_OVERFLOW
        for name, subs in bench_golden().items() if "exp" in subs for k in (300, 500)
    },
    ("info", "matrix_random_n3.bct", 500): _ENTRIES_OVERFLOW,
    ("det", "matrix_random_n3.bct", 500): _ENTRIES_OVERFLOW,
    ("check", "matrix_random_n3.bct", 500): (3, "verdict: fail"),
    **{("check", "operator_unitary_n2.bct", k): (3, "verdict: fail") for k in SCALES},
}
SCALED_CALLS = [
    pytest.param(name, sub, k, id=f"{sub} {name} 2^{k}")
    for name, subs in bench_golden().items() for sub in subs for k in SCALES
]


def test_scaled_exemptions_are_golden_calls():
    assert len([key for key in SCALED_EXEMPTIONS if key[0] == "exp"]) == 10
    calls = {(sub, name, k) for name, subs in bench_golden().items()
             for sub in subs for k in SCALES}
    assert set(SCALED_EXEMPTIONS) <= calls


@pytest.mark.parametrize("name, sub, k", SCALED_CALLS)
def test_scaled_golden_call_keeps_exit_code_and_verdict(scaled_dir, name, sub, k):
    code, verdict, stderr = run_quietly(sub, str(scaled_dir / str(k) / name))
    assert stderr == ""
    expected = SCALED_EXEMPTIONS.get((sub, name, k)) or unscaled_outcome(name, sub)
    assert (code, verdict) == expected


# -- generated inputs: an operator and its spec scaled together ---------------------------

# operator files (with hbar for evolve) and spec files, scaled per side
OPERATOR_FILES = ("m8", "h8", "h32")
SPEC_FILES = ("g8", "g32")
SIDES = ("joint", "operator", "spec")
GENERATED_CALLS = {
    "spectral 8": ("spectral", "{h8}", "--spec", "{g8}"),
    "check 8": ("check", "{h8}", "--spec", "{g8}"),
    "gram-schmidt 8": ("gram-schmidt", "{m8}", "--spec", "{g8}"),
    "evolve 8": ("evolve", "--hamiltonian", "{h8}", "--state", "{psi8}", "--spec", "{g8}",
                 "--hbar", "{hbar}", "--t0", "0", "--t1", "{t1}", "--samples", "10"),
    "spectral 32": ("spectral", "{h32}", "--spec", "{g32}"),
    "check 32": ("check", "{h32}", "--spec", "{g32}"),
}


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """argv(call, side, k): a call on the benchmark's seed-5 inputs, ``side`` scaled by 2**k.

    The inputs are the cli workload's order-8 matrix, operator, spec and
    ket and the first spectral job's order-32 operator and spec; k = 0
    gives the files as written.
    """
    workloads = bench_workloads()
    root = tmp_path_factory.mktemp("generated")
    for name in ("cli", "spectral"):
        (root / name).mkdir()
    jobs = workloads.make_jobs("cli", 5, str(root / "cli"), str(GOLDEN))
    (evolve,) = [job.commands[0] for job in jobs if job.commands[0][0] == "evolve"]
    spectral = workloads.make_jobs("spectral", 5, str(root / "spectral"), str(GOLDEN))
    _, h32, _, g32 = spectral[0].commands[0]
    sources = {name: str(root / "cli" / f"{name}.bct") for name in ("m8", "h8", "g8", "psi8")}
    sources.update(h32=h32, g32=g32)
    scaled = {}
    for k in SCALES:
        (root / str(k)).mkdir()
        for name in OPERATOR_FILES + SPEC_FILES:
            target = root / str(k) / f"{name}.bct"
            scaled[name, k] = write_scaled(pathlib.Path(sources[name]), target, k)

    def argv(call: str, side: str, k: int) -> list[str]:
        paths = dict(sources, t1=evolve[evolve.index("--t1") + 1], hbar="1")
        if k and side != "spec":
            paths.update({name: scaled[name, k] for name in OPERATOR_FILES}, hbar=repr(2.0 ** k))
        if k and side != "operator":
            paths.update({name: scaled[name, k] for name in SPEC_FILES})
        return [arg.format(**paths) for arg in GENERATED_CALLS[call]]

    return argv


def eigenvalue_fields(out: str) -> np.ndarray:
    rows = [line.split(": ", 1)[1] for line in out.splitlines() if line.startswith("eigenvalue ")]
    return np.array([[float(x) for x in row.strip("()").split()] for row in rows])


@pytest.fixture(scope="module")
def generated_unscaled(generated):
    """Exit code, verdict and eigenvalue fields of every generated call on the files as written."""
    outcomes = {}
    for call in GENERATED_CALLS:
        code, out, stderr = run_captured(*generated(call, "joint", 0))
        assert stderr == ""
        outcomes[call] = code, verdict_line(out), eigenvalue_fields(out)
    return outcomes


# the calls whose outcome at 2**k is not the unscaled one, with the outcome they have:
# check's matrix suite takes the operator's determinant, which truly overflows from
# 2**300 on (about 2**2400 at order 8, 2**9600 at order 32): finite-arithmetic fails
GENERATED_EXEMPTIONS = {
    (call, side, k): (3, "verdict: fail")
    for call in ("check 8", "check 32") for side in ("joint", "operator") for k in (300, 500)
}


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("call", GENERATED_CALLS)
def test_scaled_generated_call_keeps_exit_code_and_verdict(
    generated, generated_unscaled, call, side, k
):
    code, out, stderr = run_captured(*generated(call, side, k))
    assert stderr == ""
    expected_code, expected_verdict, eigenvalues = generated_unscaled[call]
    expected = GENERATED_EXEMPTIONS.get((call, side, k), (expected_code, expected_verdict))
    assert (code, verdict_line(out)) == expected
    if eigenvalues.size and code == 0:
        # H scaled by c has its eigenvalues scaled by c; a spec scaled alone leaves them
        scale = 1.0 if side == "spec" else 2.0 ** k
        got = eigenvalue_fields(out) / scale
        assert np.abs(got - eigenvalues).max() <= 1e-12 * np.abs(eigenvalues).max()


def test_spectral_of_a_self_adjoint_operator_near_1e200(tmp_path):
    # the max norm squared entries near 1e200: the reconstruction residual was inf/inf = nan
    lines = [
        _NUMBER.sub(lambda m: repr(float(m.group()) * 1e200), line)
        if line.startswith("(") else line
        for line in (GOLDEN / "operator_selfadjoint_n2.bct").read_text().splitlines()
    ]
    path = tmp_path / "big.bct"
    path.write_text("\n".join(lines) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["spectral", str(path)]) == 0
    assert err.getvalue() == ""
    checks = re.findall(r"^check (\S+): residual (\S+) tol \S+ (\w+)$", out.getvalue(), re.M)
    assert [name for name, _, _ in checks] == [
        "spectral-reconstruction", "eigenvalue-imag-parts", "eigenket-orthonormal", "completeness",
    ]
    assert all(status == "pass" and float(r) <= 1e-13 for _, r, status in checks), checks


def test_inverse_of_a_near_overflow_scalar_matrix(tmp_path):
    # det components 1.5e308 each: recombining them unscaled overflowed to inf
    path = tmp_path / "big.bct"
    path.write_text("bct v1\nkind: matrix\ndim: 1\n(1.5e308 0 0 0)\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["inv", str(path)]) == 0
    assert "\n(6.6666666666666677e-309 0 0 0)\n" in out.getvalue()
    assert "verdict: pass" in out.getvalue()


@pytest.mark.parametrize("sub, prefix", [("det", "\n(1.5"), ("info", "\ndet: (1.5")])
def test_determinant_of_a_near_overflow_scalar_matrix(tmp_path, sub, prefix):
    # c1 + c2 = 3e308 overflows; halving first recombines the determinant.  numpy's
    # det goes through the log-modulus, so it is 1.5e308 to about 1e-14 relative.
    path = tmp_path / "big.bct"
    path.write_text("bct v1\nkind: matrix\ndim: 1\n(1.5e308 0 0 0)\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([sub, str(path)]) == 0
    text = out.getvalue()
    assert text.endswith("verdict: pass\n")
    atom = re.search(re.escape(prefix) + r"[^ ]*e\+308 0 0 0\)", text).group()
    assert math.isclose(float(atom.split("(")[1].split()[0]), 1.5e308, rel_tol=1e-13)


# det 1, but max_norm**3 is 1e360: the determinant scale used to raise OverflowError
HUGE_ENTRY_3X3 = (
    "bct v1\nkind: matrix\ndim: 3\n"
    "(1 0 0 0) (0 0 0 0) (1e120 0 0 0)\n"
    "(0 0 0 0) (1 0 0 0) (0 0 0 0)\n"
    "(0 0 0 0) (0 0 0 0) (1 0 0 0)\n"
)


@pytest.mark.parametrize("sub, codes", [("det", (0,)), ("check", (0, 3))])
def test_huge_entry_with_unit_determinant(tmp_path, sub, codes):
    path = tmp_path / "huge3.bct"
    path.write_text(HUGE_ENTRY_3X3)
    code, verdict, stderr = run_quietly(sub, str(path))
    assert code in codes and stderr == ""
    assert verdict == ("verdict: pass" if code == 0 else "verdict: fail")


# -- tests that are relative to the input's own scale -----------------------------------

# G1 = [[1, 0.5], [0, 1]] is 0.5 away from Hermitian; G1 = I and G2 = diag(1, 1 + 1e-9)
# differ by 1e-9: both far above eps_eq = 1e-12 relative to max|G|, at every scale
NON_HERMITIAN_SPEC = "(1 0) (0.5 0)\n(0 0) (1 0)\n(1 0) (0 0)\n(0 0) (1 0)\n"
NOT_CLOSED_SPEC = "(1 0) (0 0)\n(0 0) (1 0)\n(1 0) (0 0)\n(0 0) (1.000000001 0)\n"


def scaled_spec(tmp_path: pathlib.Path, payload: str, k: int) -> str:
    source = tmp_path / "spec.bct"
    source.write_text("bct v1\nkind: spec\ndim: 2\n" + payload)
    return write_scaled(source, tmp_path / f"spec_{k}.bct", k)


@pytest.mark.parametrize("k", (0, *SCALES))
def test_non_hermitian_gram_is_rejected_at_every_scale(tmp_path, k):
    # with a floor of 1 under max|G|, the same G1 times 2^-600 passed as Hermitian
    path = scaled_spec(tmp_path, NON_HERMITIAN_SPEC, k)
    code, out, stderr = run_captured("info", path)
    assert (code, stderr) == (0, "")
    assert "\nvalid: no (G1 is not Hermitian within tolerance)\n" in out
    code, out, stderr = run_captured("check", path)
    assert (code, verdict_line(out), stderr) == (3, "verdict: fail", "")
    assert "check hermitian-g1: residual 5.000e-01 tol 1e-12 fail\n" in out


@pytest.mark.parametrize("k", (0, *SCALES))
def test_gram_pair_closed_under_reference_at_every_scale(tmp_path, k):
    path = scaled_spec(tmp_path, NOT_CLOSED_SPEC, k)
    code, out, stderr = run_captured("info", path)
    assert (code, stderr) == (0, "")
    assert "\nvalid: yes\nclosed-under-reference: no\n" in out


def spectrum_checks(op: Operator, system: Eigensystem) -> dict[str, bool]:
    spec = ScalarProductSpec.identity(op.dim)
    return {r.name: r.passed for r in verify_self_adjoint_spectrum(spec, op, system)}


def test_zero_eigenvalues_fail_for_a_tiny_operator():
    # H / 2^900 has eigenvalues near 2^-900; zeros in their place once passed
    # every check, the residuals being compared with 1 instead of with H
    path = GOLDEN / "operator_selfadjoint_n2.bct"
    matrix = bct.load(path).value.matrix
    op = Operator(BicomplexMatrix(matrix.z1 * 2.0**-900, matrix.z2 * 2.0**-900))
    system = eigendecompose_self_adjoint(ScalarProductSpec.identity(op.dim), op)
    assert all(spectrum_checks(op, system).values())
    zeros = Eigensystem(np.zeros_like(system.values), system.kets, system.basis_id)
    assert spectrum_checks(op, zeros)["spectral-reconstruction"] is False
    # complex eigenvalues far below 1, but as large as H itself
    imaginary = Eigensystem(system.values * (1 + 1j), system.kets, system.basis_id)
    assert spectrum_checks(op, imaginary)["eigenvalue-imag-parts"] is False


def test_zero_operator_spectrum():
    # H = 0 has no scale to be relative to: its residuals are absolute
    op = Operator(BicomplexMatrix(np.zeros((2, 2), complex), np.zeros((2, 2), complex)))
    system = eigendecompose_self_adjoint(ScalarProductSpec.identity(2), op)
    assert np.array_equal(system.values, np.zeros((2, 2)))
    assert spectrum_checks(op, system) == dict.fromkeys(
        ["spectral-reconstruction", "eigenvalue-imag-parts", "eigenket-orthonormal", "completeness"],
        True,
    )
    ones = Eigensystem(np.full_like(system.values, 1j), system.kets, system.basis_id)
    checks = spectrum_checks(op, ones)
    assert not checks["spectral-reconstruction"] and not checks["eigenvalue-imag-parts"]
