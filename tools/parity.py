"""Digests of `bct` output over a fixed call list, and the calls where two trees differ.

Usage, from the repository root:

    python tools/parity.py                 # one line per call
    python tools/parity.py --against REV   # the calls whose output differs at REV
    python tools/parity.py --reach         # the src functions that no call enters

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
  and ``gram-schmidt`` and ``check`` on matrices with subnormal pivots.
  Their inputs are written into the temporary directory too.

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
``sys.setprofile``, from before ``bicomplex`` is imported, and prints
each function defined in ``src/bicomplex`` (found with ``ast``, methods
and nested functions included) that no call entered, as
``module:line qualname``, then the count.

The exit status is 0 in every mode: the tool reports.
"""

from __future__ import annotations

import argparse
import ast
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
    diag = write("diag-subnormal", matrix([[1e-310, 0.0], [0.0, 1.0]]))
    scaled = [[math.ldexp(x, -1040) for x in row] for row in ([2, -1, 0.5], [1, 3, 1], [0, 1, -4])]
    scaled = write("order-3-subnormal", matrix(scaled))
    for path in (diag, scaled):
        found += [["gram-schmidt", path], ["check", path]]
    found.append(["gram-schmidt", diag, "--spec", golden("spec_identity_n2.bct")])
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
    """Write the calls' results, or with ``reach`` the [file, first line] of each code entered."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    if reach:
        sys.setprofile(profile)
    sys.path.insert(0, src)
    import bicomplex

    if not os.path.abspath(bicomplex.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"imported bicomplex from {bicomplex.__file__}, not from {src}")
    with open(calls_file) as handle:
        argvs = json.load(handle)
    results = run_calls(argvs)
    sys.setprofile(None)
    if reach:
        results = sorted({(code.co_filename, code.co_firstlineno) for code in entered})
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


def functions(package: str) -> list[tuple[tuple[str, int], str]]:
    """Each function defined in ``package``'s modules: its code's (file, first line) and its label.

    The first line is that of the first decorator, as ``co_firstlineno``
    reads it; the label is ``module:line qualname`` with the ``def`` line.
    """
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(package, name))
        module = f"{os.path.basename(package)}.{name[:-3]}"
        with open(path) as handle:
            pending = [(ast.parse(handle.read(), path), "")]
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


def _reach(argvs: list[list[str]], scratch: str) -> None:
    """Print the functions of ``src/bicomplex`` that none of the calls enters, then the count."""
    src = os.path.join(ROOT, "src")
    traced = _results(src, argvs, scratch, "--reach")
    entered = {(os.path.realpath(path), line) for path, line in traced}
    defined = functions(os.path.join(src, "bicomplex"))
    unreached = [label for key, label in defined if key not in entered]
    for label in unreached:
        print(label)
    print(f"{len(unreached)} of {len(defined)} functions in src/bicomplex entered by none of "
          f"{len(argvs)} calls")


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
    mode.add_argument("--reach", action="store_true", help="list the src functions no call enters")
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
