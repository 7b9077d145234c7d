"""Digests of `bct` output over a fixed call list, and the calls where two trees differ.

Usage, from the repository root:

    python tools/parity.py                 # one line per call
    python tools/parity.py --against REV   # the calls whose output differs at REV
    python tools/parity.py --reach         # the src functions and statements no call or
                                           # acceptance or fuzz test reaches

The calls run in process through ``bicomplex.cli.main`` under
``OPENBLAS_NUM_THREADS=1``:

- every call of ``bench/workloads.GOLDEN`` on ``tests/golden``;
- the ``--spec`` variants of its ``gram-schmidt``, ``spectral`` and
  ``check`` calls, with each golden spec;
- every job of every workload at seed 1, on inputs that
  ``bench/workloads`` writes into a temporary directory;
- the commands of the first ``spectral`` and the first ``linalg`` job
  again, on copies of their inputs in each odd layout of ``LAYOUTS``:
  CRLF everywhere, CRLF in the payload only, a blank line between rows,
  and tabs for blanks;
- the error paths: ``info`` on each document of ``MALFORMED``, one per
  message that ``bct.parse`` and its payload reader raise; a kind a
  command does not accept; a missing file, an invalid tolerance and an
  invalid ``--xi``; ``exp`` on ``(-800 0 0 0)``, whose exp(-A) overflows;
  ``gram-schmidt`` and ``check`` on matrices with subnormal pivots; and
  ``inv``, ``gram-schmidt``, ``check`` and ``gram-schmidt --spec`` on
  matrices whose determinant overflows though their inverse and
  orthonormal rows do not;
- the outcomes that only rarer inputs reach: ``spectral --spec``,
  ``check`` and ``info`` on a spec that is not positive definite, and
  ``info`` on one that is not Hermitian; ``evolve`` with a negative
  ``--hbar``, no samples, an infinite window, three ``--xi`` values it
  refuses (a non-ASCII byte, a value that is not its kind-3 conjugate,
  a zero divisor), phases that overflow and a state of another
  dimension or basis; ``info`` on a scalar whose norm overflows;
  ``info`` on payloads of at least ``bct.READ_MIN_FIELDS`` fields that
  the vectorized reader leaves to the reference scan; and
  ``idempotent`` on a block of the batch writer with a field of 1e20.

The inputs of the last two groups are written into the temporary
directory too.

Each line reads the exit code, the sha256 of stdout and of stderr, and
the call, with the input directories written as ``<golden>`` and
``<work>`` in the call and in its output, so that the digests do not
depend on where the files are.  An exception that escapes ``main``
reads exit code ``-``, its type and message standing in for stderr.

``--against REV`` exports REV with ``git archive`` and runs the same
calls, on the same input files, under its ``src``; it prints each call
whose exit code, stdout or stderr differs, with the first differing
line, then the count.

``--reach`` runs the same calls in the worker process under
``sys.settrace``, from before ``bicomplex`` is imported, then, still
traced, the tests of ``REACH_TESTS`` (``tests/test_acceptance.py`` and
``tests/test_fuzz.py``) through ``pytest.main``; it prints their pytest
summary line.  A test that fails under the trace still counts what it
ran: acceptance test 01 fails its fixed 1.0 s bound there, because the
trace slows the ring arithmetic it times, which is why the union is a
tool and not a tier-1 test.  It then prints each function defined in
``src/bicomplex`` (found with ``ast``, methods and nested functions
included) that neither the calls nor the tests entered, as
``module:line qualname``, then the count; then each statement that
neither executed, as ``module:line`` and its first source line, then
the count and the count of each module.  A line event counts for the
innermost statement whose lines hold it, so a condition or call written
over several lines counts for its statement; string expressions
(docstrings) run no code and are left out.  The unit tests are not
traced, so what only they run is listed.  This mode needs pytest (the
``test`` extra of ``pyproject.toml``).

The exit status is 0 in every mode: the tool reports.
"""

from __future__ import annotations

import argparse
import ast
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
SPECS = ("spec_identity_n2.bct", "spec_general_n3.bct")
SPEC_SUBCOMMANDS = ("gram-schmidt", "spectral", "check")
SEED = 1
# the test modules that --reach runs under the trace after the calls
REACH_TESTS = ("tests/test_acceptance.py", "tests/test_fuzz.py")
# a document's text from its header lines (each ended by "\n") and its payload
LAYOUTS = {
    "crlf": lambda head, payload: (head + payload).replace("\n", "\r\n"),
    "crlf-payload": lambda head, payload: head + payload.replace("\n", "\r\n"),
    "blank-rows": lambda head, payload: head + payload.rstrip("\n").replace("\n", "\n\n") + "\n",
    "tabs": lambda head, payload: head + payload.replace(" ", "\t"),
}
LAYOUT_WORKLOADS = ("spectral", "linalg")
# one document per ParseError or DimMismatch message
MALFORMED = {
    "no-header": b"bct v2\nkind: scalar\ndim: 1\n(1 0 0 0)\n",
    "no-dim": b"bct v1\nkind: scalar\n",
    "no-kind": b"bct v1\ntype: scalar\ndim: 1\n(1 0 0 0)\n",
    "unknown-kind": b"bct v1\nkind: tensor\ndim: 1\n(1 0 0 0)\n",
    "no-dim-line": b"bct v1\nkind: scalar\nsize: 1\n(1 0 0 0)\n",
    "dim-x": b"bct v1\nkind: ket\ndim: x\n(1 0 0 0)\n",
    "dim-0": b"bct v1\nkind: ket\ndim: 0\n(1 0 0 0)\n",
    "scalar-dim-2": b"bct v1\nkind: scalar\ndim: 2\n(1 0 0 0)\n",
    "matrix-basis": b"bct v1\nkind: matrix\ndim: 1\nbasis: lab\n(1 0 0 0)\n",
    "empty-basis": b"bct v1\nkind: ket\ndim: 1\nbasis:\n(1 0 0 0)\n",
    "atom-of-3": b"bct v1\nkind: scalar\ndim: 1\n(1 0 0)\n",
    "text-before": b"bct v1\nkind: ket\ndim: 2\n(1 0 0 0) x(0 0 0 0)\n",
    "text-after": b"bct v1\nkind: scalar\ndim: 1\n(1 0 0 0)x\n",
    "bad-number": b"bct v1\nkind: scalar\ndim: 1\n(1 0 0x1 0)\n",
    "field-1e400": b"bct v1\nkind: scalar\ndim: 1\n(1e400 0 0 0)\n",
    "row-short": b"bct v1\nkind: matrix\ndim: 2\n(1 0 0 0) (0 0 0 0)\n(0 0 0 0)\n",
    "rows-missing": b"bct v1\nkind: matrix\ndim: 2\n(1 0 0 0) (0 0 0 0)\n",
    "non-ascii": b"bct v1\nkind: scalar\ndim: 1\n(1 0 0 0) \xc3\xa9\n",
}


def calls(workdir: str) -> list[list[str]]:
    """The call list, each call once, with the workload inputs written under ``workdir``."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    found = []
    for name, subs in workloads.GOLDEN.items():
        path = os.path.join(GOLDEN_DIR, name)
        found += [[sub, path] for sub in subs]
        for sub in SPEC_SUBCOMMANDS:
            if sub in subs:
                found += [[sub, path, "--spec", os.path.join(GOLDEN_DIR, s)] for s in SPECS]
    for workload in workloads.WORKLOADS:
        directory = os.path.join(workdir, workload)
        os.makedirs(directory)
        jobs = workloads.make_jobs(workload, SEED, directory, GOLDEN_DIR)
        for job in jobs:
            found += job.commands
        if workload in LAYOUT_WORKLOADS:
            found += _layout_calls(jobs[0].commands, os.path.join(directory, "layouts"))
    found += _error_calls(os.path.join(workdir, "errors"))
    unique = {json.dumps(argv): argv for argv in found}
    return list(unique.values())


def _layout_calls(commands: list[list[str]], directory: str) -> list[list[str]]:
    """``commands`` in each layout, on copies of their .bct inputs written under ``directory``."""
    found = []
    for layout, rewrite in LAYOUTS.items():
        os.makedirs(os.path.join(directory, layout))
        for argv in commands:
            copy = list(argv)
            for at, arg in enumerate(argv):
                if not arg.endswith(".bct"):
                    continue
                with open(arg, "rb") as handle:
                    lines = handle.read().decode("ascii").splitlines(keepends=True)
                headers = 4 if lines[3].startswith("basis:") else 3
                copy[at] = os.path.join(directory, layout, os.path.basename(arg))
                with open(copy[at], "wb") as handle:
                    text = rewrite("".join(lines[:headers]), "".join(lines[headers:]))
                    handle.write(text.encode("ascii"))
            found.append(copy)
    return found


def _error_calls(directory: str) -> list[list[str]]:
    """Calls that end in an error or on an edge of the double range, on inputs written there."""
    os.makedirs(directory)

    def write(name: str, data: bytes) -> str:
        path = os.path.join(directory, name + ".bct")
        with open(path, "wb") as handle:
            handle.write(data)
        return path

    def matrix(rows: list[list[float]]) -> bytes:
        payload = "".join(" ".join("(%.17g 0 0 0)" % x for x in row) + "\n" for row in rows)
        return f"bct v1\nkind: matrix\ndim: {len(rows)}\n{payload}".encode("ascii")

    golden = lambda name: os.path.join(GOLDEN_DIR, name)
    found = [["info", write(name, data)] for name, data in MALFORMED.items()]
    evolve = ["evolve", "--hamiltonian", golden("operator_selfadjoint_n2.bct"), "--hbar", "1",
              "--t0", "0", "--t1", "1", "--samples", "2"]
    found += [
        ["det", golden("ket_regular_n3.bct")],
        evolve + ["--state", golden("matrix_identity_n2.bct")],
        evolve + ["--state", golden("ket_nullcone_n2.bct"), "--xi", "(1 0 0)"],
        ["info", os.path.join(directory, "missing.bct")],
        ["--eps-null", "1", "info", golden("scalar_one.bct")],
        ["exp", write("exp-800", matrix([[-800.0]]))],
    ]
    rows = ([2, -1, 0.5], [1, 3, 1], [0, 1, -4])
    scaled = lambda k: matrix([[math.ldexp(x, k) for x in row] for row in rows])
    diag = write("diag-subnormal", matrix([[1e-310, 0.0], [0.0, 1.0]]))
    subnormal = write("order-3-subnormal", scaled(-1040))
    for path in (diag, subnormal):
        found += [["gram-schmidt", path], ["check", path]]
    found.append(["gram-schmidt", diag, "--spec", golden("spec_identity_n2.bct")])
    found.append(["gram-schmidt", subnormal, "--spec", golden("spec_general_n3.bct")])
    # the determinant overflows; the inverse and the orthonormal rows do not
    huge = [
        (write("diag-1e308", matrix([[1e308, 0.0], [0.0, 1e308]])), "spec_identity_n2.bct"),
        (write("upper-1e308", matrix([[1e308, 1e308], [0.0, 1e308]])), "spec_identity_n2.bct"),
        (write("order-3-huge", scaled(1000)), "spec_general_n3.bct"),
    ]
    for path, spec in huge:
        found += [["inv", path], ["gram-schmidt", path], ["check", path],
                  ["gram-schmidt", path, "--spec", golden(spec)]]
    # kets 2^1080 apart, and a ket whose own parts span 2^1100: scaling flushes no part
    wide = [write("diag-wide", matrix([[2.0**500, 0.0], [0.0, 2.0**-580]])),
            write("ket-wide", matrix([[2.0**500, 0.0], [2.0**500, 2.0**-600]]))]
    for path in wide:
        found += [["gram-schmidt", path], ["check", path],
                  ["gram-schmidt", path, "--spec", golden("spec_identity_n2.bct")]]
    # specs that are not positive definite or not Hermitian
    spec_of = lambda g1: ("bct v1\nkind: spec\ndim: 2\n" + "".join(
        " ".join("(%.17g 0)" % x for x in row) + "\n" for row in (*g1, (1, 0), (0, 1)))).encode()
    indefinite = write("spec-indefinite", spec_of([(1, 2), (2, 1)]))
    found += [["spectral", golden("operator_selfadjoint_n2.bct"), "--spec", indefinite],
              ["check", indefinite], ["info", indefinite],
              ["info", write("spec-not-hermitian", spec_of([(1, 2), (0, 1)]))]]
    # evolution settings and inputs that evolve refuses, the last three --xi
    # values for a non-ASCII byte, a value that is not its kind-3 conjugate
    # and a zero divisor
    state = evolve + ["--state", golden("ket_nullcone_n2.bct")]
    other_basis = b"bct v1\nkind: ket\ndim: 2\nbasis: lab\n(1 0 0 0) (0 1 0 0)\n"
    huge_operator = (b"bct v1\nkind: operator\ndim: 2\n"
                     b"(1e300 0 0 0) (0 0 0 0)\n(0 0 0 0) (1 0 0 0)\n")
    found += [state + flags for flags in (
        ["--hbar", "-1"], ["--samples", "0"], ["--t0=-1e308", "--t1=1e308"],
        ["--xi", "(1 0 0 0)\u00e9"], ["--xi", "(0 1 0 0)"], ["--xi", "(0.5 0 0 0.5)"],
        ["--hamiltonian", write("operator-1e300", huge_operator), "--t1", "1e10"],
    )]
    found += [evolve + ["--state", golden("ket_regular_n3.bct")],
              evolve + ["--state", write("ket-other-basis", other_basis)],
              ["info", write("scalar-norm-1e308", b"bct v1\nkind: scalar\ndim: 1\n"
                                                 b"(1.7e308 0 1.7e308 0)\n")]]
    # payloads of at least READ_MIN_FIELDS fields that the vectorized reader
    # leaves to the reference scan: a ket whose one row is longer than a reader
    # block, and order-16 matrices without the final newline, with rows
    # missing, with an atom's parentheses swapped and with a field that float()
    # rejects
    rows = [" ".join("(2 0 0.5 0)" if i == j else "(0 0 0 0)" for j in range(16))
            for i in range(16)]
    edit = lambda at, atom: rows[:at] + [rows[at].replace("(0 0 0 0)", atom, 1)] + rows[at + 1 :]
    order_16 = "bct v1\nkind: matrix\ndim: 16\n"
    for name, text in (
        ("ket-2049", "bct v1\nkind: ket\ndim: 2049\n" + " ".join(["(1 0 0.5 0)"] * 2049) + "\n"),
        ("order-16-no-final-newline", order_16 + "\n".join(rows)),
        ("order-16-rows-missing", order_16 + "\n".join(rows[:8]) + "\n"),
        ("order-16-swapped-parens", order_16 + "\n".join(edit(5, ")0 0 0 0(")) + "\n"),
        ("order-16-field-0x10", order_16 + "\n".join(edit(9, "(0x10 0 0 0)")) + "\n"),
    ):
        found.append(["info", write(name, text.encode("ascii"))])
    # a block for the batch writer with a field of 1e20, whose power of ten
    # has a negative exponent
    large = order_16 + "\n".join(edit(0, "(1e20 0 0 0)")) + "\n"
    found.append(["idempotent", write("order-16-entry-1e20", large.encode("ascii"))])
    return found


def run_calls(argvs: list[list[str]]) -> list[list]:
    """[exit code, stdout, stderr] of each call through ``bicomplex.cli.main``."""
    from bicomplex import cli

    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        # a fresh filter list per call shows each warning as a new process would
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("default")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # reported as a result, not raised
                code = "-"
                err.write(f"{type(exc).__name__}: {exc}\n")
        results.append([code, out.getvalue(), err.getvalue()])
    return results


def _worker(src: str, calls_file: str, out_file: str, reach: bool) -> None:
    """Write the calls' results, or with ``reach`` what they and ``REACH_TESTS`` ran of the package.

    That is ``{"entered": [file, first line] of each code entered,
    "lines": [file, line] of each line event in a frame of the package,
    "tests": the last line of pytest's report}``.
    """
    package = os.path.join(os.path.realpath(src), "bicomplex") + os.sep
    entered, lines, inside = set(), set(), {}

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        entered.add(code)
        if code.co_filename not in inside:
            inside[code.co_filename] = os.path.realpath(code.co_filename).startswith(package)
        return local if inside[code.co_filename] else None

    if reach:
        sys.settrace(trace)
    sys.path.insert(0, src)
    import bicomplex

    if not os.path.abspath(bicomplex.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"imported bicomplex from {bicomplex.__file__}, not from {src}")
    with open(calls_file) as handle:
        argvs = json.load(handle)
    results = run_calls(argvs)
    if reach:
        import pytest

        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            pytest.main(["-q", "-p", "no:cacheprovider",
                         *(os.path.join(ROOT, path) for path in REACH_TESTS)])
        sys.settrace(None)
        results = {
            "entered": sorted({(code.co_filename, code.co_firstlineno) for code in entered}),
            "lines": sorted(lines),
            "tests": report.getvalue().strip().splitlines()[-1],
        }
    with open(out_file, "w") as handle:
        json.dump(results, handle)


def _results(src: str, argvs: list[list[str]], scratch: str, *flags: str) -> list[list]:
    """The worker's output for the calls under the tree whose sources are ``src``.

    The worker is a fresh interpreter; ``flags`` are passed on to it.
    """
    calls_file = os.path.join(scratch, "calls.json")
    out_file = os.path.join(scratch, "results.json")
    with open(calls_file, "w") as handle:
        json.dump(argvs, handle)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", src, calls_file, out_file, *flags],
        env=env, check=True,
    )
    with open(out_file) as handle:
        return json.load(handle)


def _modules(package: str):
    """(real path, module name, source) of each module of ``package``, by file name."""
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.realpath(os.path.join(package, name))
            with open(path) as handle:
                yield path, f"{os.path.basename(package)}.{name[:-3]}", handle.read()


def functions(package: str) -> list[tuple[tuple[str, int], str]]:
    """Each function defined in ``package``'s modules: its code's (file, first line) and its label.

    The first line is that of the first decorator, as ``co_firstlineno``
    reads it; the label is ``module:line qualname`` with the ``def`` line.
    """
    found = []
    for path, module, source in _modules(package):
        pending = [(ast.parse(source, path), "")]
        while pending:
            node, prefix = pending.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append(((path, first), f"{module}:{child.lineno} {prefix}{child.name}"))
                    pending.append((child, f"{prefix}{child.name}.<locals>."))
                elif isinstance(child, ast.ClassDef):
                    pending.append((child, f"{prefix}{child.name}."))
                else:
                    pending.append((child, prefix))
    return sorted(found, key=lambda item: (item[0][0], item[0][1]))


def statements(package: str) -> list[tuple[str, int, list[int], str]]:
    """Each statement of ``package``'s modules: its file, first line, the lines it owns, its label.

    A statement owns the lines of its range that no statement nested in
    it holds; a function or class starts at its first decorator.  The
    label is ``module:line`` and the statement's first source line.
    String expressions (docstrings) run no code and are not listed.
    """
    found = []
    for path, module, source in _modules(package):
        text = source.splitlines()
        nodes = []
        for node in ast.walk(ast.parse(source, path)):
            if not isinstance(node, ast.stmt):
                continue
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                continue
            decorators = getattr(node, "decorator_list", [])
            first = min([node.lineno] + [d.lineno for d in decorators])
            nodes.append((first, node.end_lineno, node.lineno))
        # in order of first line, nested after their parent: each takes its lines over
        owner = {}
        for at, (first, last, _) in sorted(enumerate(nodes), key=lambda item: item[1][0]):
            owner.update(dict.fromkeys(range(first, last + 1), at))
        owned = {}
        for line, at in owner.items():
            owned.setdefault(at, []).append(line)
        for at, (first, _, line) in enumerate(nodes):
            label = f"{module}:{line} {text[line - 1].strip()}"
            found.append((path, first, owned.get(at, []), label))
    return sorted(found, key=lambda item: (item[0], item[1]))


def _reach(argvs: list[list[str]], scratch: str) -> None:
    """Print the functions, then the statements, of ``src/bicomplex`` that neither the calls
    nor ``REACH_TESTS`` reach, and the count of each module's statements."""
    src = os.path.join(ROOT, "src")
    traced = _results(src, argvs, scratch, "--reach")
    print(f"{' '.join(REACH_TESTS)} under the trace: {traced['tests']}")
    runs = f"{len(argvs)} calls and {len(REACH_TESTS)} test modules"
    entered = {(os.path.realpath(path), line) for path, line in traced["entered"]}
    defined = functions(os.path.join(src, "bicomplex"))
    unreached = [label for key, label in defined if key not in entered]
    for label in unreached:
        print(label)
    print(f"{len(unreached)} of {len(defined)} functions in src/bicomplex entered by none of "
          f"{runs}")
    ran = {(os.path.realpath(path), line) for path, line in traced["lines"]}
    listed = statements(os.path.join(src, "bicomplex"))
    missed = [label for path, _, lines, label in listed
              if not any((path, line) in ran for line in lines)]
    for label in missed:
        print(label)
    print(f"{len(missed)} of {len(listed)} statements in src/bicomplex executed by none of {runs}")
    modules = collections.Counter(label.split(":")[0].rpartition(".")[2] for label in missed)
    print("by module: " + ", ".join(f"{module} {count}" for module, count in modules.most_common()))


def _normalize(text: str, workdir: str) -> str:
    return text.replace(workdir, "<work>").replace(GOLDEN_DIR, "<golden>")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _first_difference(ours: str, theirs: str, width: int = 40) -> str:
    """Where two texts first differ: line, column and ``width`` characters of each from there."""
    a, b = ours.splitlines(), theirs.splitlines()
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    x, y = (lines[at] if at < len(lines) else None for lines in (a, b))
    if x is None or y is None:
        return f"line {at + 1}: {x!r} against {y!r}"[: 3 * width]
    column = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
    start = max(0, column - width // 4)
    x, y = x[start : start + width], y[start : start + width]
    return f"line {at + 1}, column {column + 1}: {x!r} against {y!r}"


def _export(rev: str, directory: str) -> str:
    """The sources of ``rev``, exported with ``git archive`` under ``directory``."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.12 and in the later patch releases before it
        if hasattr(tarfile, "data_filter"):
            tar.extractall(directory, filter="data")
        else:
            tar.extractall(directory)
    return os.path.join(directory, "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--against", metavar="REV", help="list the calls that differ at REV")
    mode.add_argument("--reach", action="store_true",
                      help="list the src functions and statements that no call and no test of "
                           "REACH_TESTS reaches")
    parser.add_argument("--worker", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        _worker(*args.worker, args.reach)
        return 0

    with tempfile.TemporaryDirectory(prefix="parity-") as scratch:
        workdir = os.path.join(scratch, "work")
        argvs = calls(workdir)
        if args.reach:
            _reach(argvs, scratch)
            return 0
        labels = [_normalize(" ".join(argv), workdir) for argv in argvs]
        normalized = lambda results: [
            [code, _normalize(out, workdir), _normalize(err, workdir)] for code, out, err in results
        ]
        ours = normalized(_results(os.path.join(ROOT, "src"), argvs, scratch))
        if args.against is None:
            for label, (code, out, err) in zip(labels, ours):
                print(f"{code} {_digest(out)} {_digest(err)} {label}")
            return 0
        tree = _export(args.against, os.path.join(scratch, "tree"))
        theirs = normalized(_results(tree, argvs, scratch))
        differing = 0
        for label, mine, other in zip(labels, ours, theirs):
            if mine == other:
                continue
            differing += 1
            print(f"differs: {label}")
            if mine[0] != other[0]:
                print(f"  exit {mine[0]} against {other[0]}")
            for stream, index in (("stdout", 1), ("stderr", 2)):
                if mine[index] != other[index]:
                    print(f"  {stream} {_first_difference(mine[index], other[index])}")
        print(f"{differing} of {len(argvs)} calls differ from {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
