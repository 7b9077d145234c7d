"""The e1 <-> e2 mirror: an exact oracle for every ``bct`` output, at every order.

Write w = c1·e1 + c2·e2, with c1 = z1 - i1·z2 and c2 = z1 + i1·z2.
Negating z2 swaps c1 and c2 exactly in floating point, and every command
does the same complex work on each component.  So on the mirrored input
(z2 negated in every atom, the ``--xi`` atom too, and G1 and G2 swapped in
a spec) each call prints the mirror of what it prints on the original:
z2 negated in every bicomplex atom, and these pairs swapped:

- ``component 1`` and ``component 2``: the ``idempotent`` blocks, the two
  idempotent components ``info`` prints for a scalar, and the
  ``SingularMatrix`` messages;
- ``null_cone_1`` and ``null_cone_2``;
- the ``norm-e1`` and ``norm-e2`` columns of ``evolve``;
- the two ``condition-estimates`` of ``inv``.

The mirrored input paths map back to the original ones.  Every other
byte and the exit code are equal, the lines of ``check``'s probe checks
included, because the probe kets map to themselves under the mirror.

Numeric fields are compared as floats, so -0.0 equals 0.0: a +0 in z2
negates to -0, and the mirrored run prints ``0`` there.

The inputs are every golden file under every subcommand, error exits
included, with each ``--spec`` golden file where the kind reads a spec;
the benchmark's cli workload's order-8 inputs, ``evolve`` with and
without ``--xi``; and one generated input per subcommand at orders 64
and 128.
"""

import contextlib
import io
import math
import pathlib
import re

import numpy as np
import pytest

from bicomplex import bct, cli
from bicomplex.hilbert import ScalarProductSpec
from bicomplex.matrix import BicomplexMatrix
from bicomplex.operators import Operator

from helpers import bench_workloads, random_hermitian, random_ket, random_matrix, random_spd

GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_FILES = sorted(path.name for path in GOLDEN.glob("*.bct"))
SPECS = ("spec_general_n3.bct", "spec_identity_n2.bct")
KETS = ("ket_regular_n3.bct", "ket_nullcone_n2.bct")
# real idempotent components 1.75 and 0.75, so invertible and its own kind-3 conjugate
XI = "(1.25 0 0 0.5)"
EVOLVE_TIMES = ["--hbar", "1", "--t0", "0", "--t1", "2", "--samples", "5"]

# a number: bct prints no non-finite atom
_FIELD = r"(-?[\d.][^()\s]*)"
_ATOM4 = re.compile(rf"\({_FIELD} {_FIELD} {_FIELD} {_FIELD}\)")
# the component numbers that swap; "component 1 and 2" names both and stays as it is
_COMPONENT = re.compile(r"(?<=null_cone_)[12]|(?<=component )[12](?! and)")
_NUMBER = re.compile(r"(?<![\w.+-])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf|nan)(?![\w.])")


# -- the mirror of an input ------------------------------------------------------------


def _negate(field: str) -> str:
    return field[1:] if field.startswith("-") else "-" + field


def mirror_atoms(text: str) -> str:
    """``text`` with z2 negated in every bicomplex atom."""
    return _ATOM4.sub(lambda m: f"({m[1]} {m[2]} {_negate(m[3])} {_negate(m[4])})", text)


def mirror_input(text: str) -> str:
    """A .bct document's mirror: z2 negated, or G1 and G2 swapped in a spec."""
    lines = text.splitlines()
    if lines[1] != "kind: spec":
        return mirror_atoms(text)
    dim = int(lines[2][len("dim:"):])
    head, rows = lines[:3], lines[3:]
    return "\n".join(head + rows[dim:] + rows[:dim]) + "\n"


# -- the mirror of an output -----------------------------------------------------------


def mirror_output(text: str) -> str:
    """What the mirrored run should print, given what the original run printed."""
    lines = mirror_atoms(text).split("\n")
    heads = [i for i, line in enumerate(lines) if re.match(r"component [12]:", line)]
    if heads:
        # idempotent: component 1's line or block, then component 2's, swapped here
        # and relabelled below
        first, second = heads
        end = 2 * second - first
        lines[first:end] = lines[second:end] + lines[first:second]
    for i, line in enumerate(lines):
        if line.startswith("idempotent: "):
            a, b = re.findall(r"\([^()]*\)", line)
            lines[i] = f"idempotent: {b} {a}"
        elif line.startswith("note: condition-estimates: "):
            head, a, b = line.rsplit(" ", 2)
            lines[i] = f"{head} {b} {a}"
        elif "\t" in line and not line.startswith("columns: "):
            # an evolve sample: t, the ket's atoms, norm-e1, norm-e2
            *rest, e1, e2 = line.split("\t")
            lines[i] = "\t".join(rest + [e2, e1])
    return _COMPONENT.sub(lambda m: "21"[int(m[0]) - 1], "\n".join(lines))


def _fields(text: str) -> tuple[list[str], list[float]]:
    return _NUMBER.split(text), [float(x) for x in _NUMBER.findall(text)]


def assert_same_up_to_zero_sign(got: str, expected: str):
    """Equal text between numbers, and equal numbers as floats (-0.0 == 0.0, NaN == NaN)."""
    if got == expected:
        return
    got_text, got_numbers = _fields(got)
    expected_text, expected_numbers = _fields(expected)
    assert got_text == expected_text
    assert len(got_numbers) == len(expected_numbers)
    differ = [
        (i, a, b) for i, (a, b) in enumerate(zip(got_numbers, expected_numbers))
        if not (a == b or (math.isnan(a) and math.isnan(b)))
    ]
    assert not differ, f"{len(differ)} numbers differ, first {differ[:3]}"


# -- running a call and its mirror -----------------------------------------------------


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def assert_mirrored(argv: list[str], mirror_dir: pathlib.Path):
    """Run ``argv`` and its mirror: same exit code, mirrored output.

    Every argument that names an existing file is replaced by a mirrored
    copy in ``mirror_dir``, and the ``--xi`` atom by its mirror.
    """
    paths, mirrored = {}, []
    for arg in argv:
        if pathlib.Path(arg).is_file():
            target = mirror_dir / f"{len(paths)}-{pathlib.Path(arg).name}"
            if arg not in paths:
                target.write_text(mirror_input(pathlib.Path(arg).read_text()))
                paths[arg] = str(target)
            arg = paths[arg]
        elif arg.startswith("("):
            arg = mirror_atoms(arg)
        mirrored.append(arg)
    code, out = run(argv)
    mirror_code, mirror_out = run(mirrored)
    for original, copy in paths.items():
        mirror_out = mirror_out.replace(copy, original)
    assert mirror_code == code
    assert_same_up_to_zero_sign(mirror_out, mirror_output(out))
    return code, out


def test_mirror_of_an_output():
    """The output transform on a hand-written report of each kind."""
    original = "\n".join([
        "file: m.bct",
        "(1 -2 0 -0.5) (3 4 -5 6)",
        "classification: null_cone_1",
        "note: condition-estimates: 1.000e+00 2.000e+00",
        "error: SingularMatrix: matrix is singular: component 2 determinant vanishes",
        "note: inverse: skipped (matrix is singular: component 1 and 2 determinant vanishes)",
        "columns: t\tket-atoms\tnorm-e1\tnorm-e2",
        "0.5\t(1 2 3 4)\t7\t8",
    ])
    assert mirror_output(original) == "\n".join([
        "file: m.bct",
        "(1 -2 -0 0.5) (3 4 5 -6)",
        "classification: null_cone_2",
        "note: condition-estimates: 2.000e+00 1.000e+00",
        "error: SingularMatrix: matrix is singular: component 1 determinant vanishes",
        "note: inverse: skipped (matrix is singular: component 1 and 2 determinant vanishes)",
        "columns: t\tket-atoms\tnorm-e1\tnorm-e2",
        "0.5\t(1 2 -3 -4)\t8\t7",
    ])
    blocks = "command: idempotent\ncomponent 1:\n(1 2)\n(3 4)\ncomponent 2:\n(5 6)\n(7 8)"
    assert mirror_output(blocks) == (
        "command: idempotent\ncomponent 1:\n(5 6)\n(7 8)\ncomponent 2:\n(1 2)\n(3 4)"
    )
    scalar = "component 1: (1 2)\ncomponent 2: (3 4)\nidempotent: (1 2) (3 4)"
    assert mirror_output(scalar) == "component 1: (3 4)\ncomponent 2: (1 2)\nidempotent: (3 4) (1 2)"
    with pytest.raises(AssertionError):
        assert_same_up_to_zero_sign("(1 0 -0 2)", "(1 0 0 -2)")
    assert_same_up_to_zero_sign("(1 0 -0 nan)", "(1 -0 0 nan)")


# -- the golden corpus -------------------------------------------------------------------


def _reads_spec(sub: str, name: str) -> bool:
    _, _, spec_kinds = cli._COMMANDS[sub]
    kind = bct.load(GOLDEN / name).kind
    return kind in spec_kinds


def _golden_calls():
    for sub in cli._COMMANDS:
        for name in GOLDEN_FILES:
            spec_variants = [[]] + ([["--spec", str(GOLDEN / s)] for s in SPECS]
                                    if _reads_spec(sub, name) else [])
            if sub != "evolve":
                for spec in spec_variants:
                    yield pytest.param([sub, str(GOLDEN / name), *spec],
                                       id=" ".join([sub, name, *spec[1:2]]).replace(str(GOLDEN) + "/", ""))
                continue
            for ket in KETS:
                for extra in spec_variants + [["--xi", XI]]:
                    argv = ["evolve", "--hamiltonian", str(GOLDEN / name),
                            "--state", str(GOLDEN / ket), *extra, *EVOLVE_TIMES]
                    label = " ".join(["evolve", name, ket, *extra[1:2]])
                    yield pytest.param(argv, id=label.replace(str(GOLDEN) + "/", ""))


@pytest.mark.parametrize("argv", list(_golden_calls()))
def test_golden_call(tmp_path, argv):
    assert_mirrored(argv, tmp_path)


def test_golden_calls_cover_every_subcommand_and_exit_code(tmp_path):
    calls = [param.values[0] for param in _golden_calls()]
    assert {argv[0] for argv in calls} == set(cli._COMMANDS)
    assert {run(argv)[0] for argv in calls} == {0, 2, 3}


# -- the benchmark's order-8 inputs --------------------------------------------------------


@pytest.fixture(scope="module")
def order8_calls(tmp_path_factory):
    """The cli workload's calls on its generated inputs at seed 1, and evolve with --xi."""
    root = tmp_path_factory.mktemp("cli8")
    jobs = bench_workloads().make_jobs("cli", 1, str(root), str(GOLDEN))
    calls = [job.commands[0] for job in jobs if str(root) in " ".join(job.commands[0])]
    (evolve,) = [argv for argv in calls if argv[0] == "evolve"]
    return calls + [evolve + ["--xi", XI]]


def test_order8_inputs(order8_calls, tmp_path):
    assert len(order8_calls) == 22
    codes = [assert_mirrored(argv, tmp_path)[0] for argv in order8_calls]
    assert codes == [0] * len(codes)


# -- one generated input per subcommand at orders 64 and 128 ------------------------------


@pytest.fixture(scope="module", params=[64, 128])
def large_inputs(request, tmp_path_factory):
    """An order-n matrix, ket, spec and operator self-adjoint under the spec."""
    n = request.param
    root = tmp_path_factory.mktemp(f"order{n}")
    rng = np.random.default_rng(n)
    spec = ScalarProductSpec(random_spd(rng, n), random_spd(rng, n))
    parts = [np.linalg.solve(spec.gram(k), random_hermitian(rng, n)) for k in (1, 2)]
    docs = {
        "m": random_matrix(rng, n),
        "h": Operator(BicomplexMatrix.from_components(*parts)),
        "g": spec,
        "psi": random_ket(rng, n),
    }
    paths = {}
    for name, value in docs.items():
        paths[name] = str(root / f"{name}.bct")
        bct.save(paths[name], bct.document_for(value))
    return paths


LARGE_CALLS = {
    "info": ["info", "{m}"],
    "idempotent": ["idempotent", "{m}"],
    "det": ["det", "{m}"],
    "inv": ["inv", "{m}"],
    "exp": ["exp", "{m}"],
    "gram-schmidt": ["gram-schmidt", "{m}", "--spec", "{g}"],
    "spectral": ["spectral", "{h}", "--spec", "{g}"],
    "check matrix": ["check", "{m}"],
    "check operator": ["check", "{h}", "--spec", "{g}"],
    "evolve": ["evolve", "--hamiltonian", "{h}", "--state", "{psi}", "--spec", "{g}",
               "--xi", XI, "--hbar", "1", "--t0", "0", "--t1", "3", "--samples", "10"],
}


@pytest.mark.parametrize("call", LARGE_CALLS)
def test_large_order(large_inputs, tmp_path, call):
    argv = [arg.format(**large_inputs) for arg in LARGE_CALLS[call]]
    code, _ = assert_mirrored(argv, tmp_path)
    assert code == 0
