"""Seeded job lists for the four benchmark workloads.

A job is one generated input run through its workload's fixed command
sequence.  The job list depends on (workload, seed) alone, so
`pass_ratio`, `accuracy_digits` and every traced call count repeat
exactly from run to run.  Inputs are written as `.bct` text by this
module's own writer; the library only ever sees the files.

Each job may carry an independent check of its output, computed here
with numpy and nothing from `bicomplex`.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("spectral", "evolve", "linalg", "cli")

# Jobs per pass, sized so that one pass takes about 9 s on a 2-core
# 2 GHz virtual machine at the seed commit and a 20 s run covers two passes.  A cli
# pass is every applicable call on the golden files and the generated
# inputs (79), about 26 s there, so a cli run is one pass.
PASS_JOBS = {"spectral": 24, "evolve": 24, "linalg": 40}

SPECTRAL_ORDER = 32
EVOLVE_ORDER = 16
EVOLVE_SAMPLES = 100
EVOLVE_XI_SHARE = 0.25
LINALG_ORDER = 32
CLI_ORDER = 8

# Every file of tests/golden/ with the subcommands whose documented
# preconditions it meets (kind accepted, matrix regular for inv and
# gram-schmidt, operator self-adjoint for spectral).  The counter_*
# files are built to fail their check suites: exit 3, verdict fail.
GOLDEN = {
    "scalar_one.bct": ("info", "idempotent", "check"),
    "scalar_j.bct": ("info", "idempotent", "check"),
    "scalar_e1.bct": ("info", "idempotent", "check"),
    "scalar_mixed.bct": ("info", "idempotent", "check"),
    "ket_regular_n3.bct": ("info", "idempotent", "check"),
    "ket_nullcone_n2.bct": ("info", "idempotent", "check"),
    "matrix_identity_n2.bct": (
        "info", "idempotent", "det", "inv", "exp", "gram-schmidt", "spectral", "check",
    ),
    "matrix_random_n3.bct": ("info", "idempotent", "det", "inv", "exp", "gram-schmidt", "check"),
    "matrix_diag_e1_1.bct": ("info", "idempotent", "det", "exp", "spectral", "check"),
    "operator_selfadjoint_n2.bct": ("info", "idempotent", "det", "inv", "exp", "spectral", "check"),
    "operator_unitary_n2.bct": ("info", "idempotent", "det", "inv", "exp", "check"),
    "spec_identity_n2.bct": ("info", "check"),
    "spec_general_n3.bct": ("info", "check"),
    "counter_nonselfadjoint_n2.bct": ("check",),
    "counter_nullcone_pivot_n2.bct": ("check",),
}

_CHECK_LINE = re.compile(r"^check (\S+): residual (\S+) tol (\S+) (pass|fail)$")
_ATOM = re.compile(r"\(([^()]*)\)")


@dataclass
class Job:
    """One input and the commands run on it, each expected to exit `expect`."""

    name: str
    commands: list[list[str]]
    expect: int = 0
    verify: Callable[[list[str]], str | None] | None = None


# -- .bct writer -----------------------------------------------------------------


def _num(x: float) -> str:
    return f"{x:.17g}"


def _to_pair(c1: np.ndarray, c2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z1, z2) storage from the idempotent components c1 = z1 - i z2, c2 = z1 + i z2."""
    return 0.5 * (c1 + c2), 0.5j * (c1 - c2)


def _atom4(z1: complex, z2: complex) -> str:
    return f"({_num(z1.real)} {_num(z1.imag)} {_num(z2.real)} {_num(z2.imag)})"


def _write(path: str, kind: str, dim: int, rows: list[str]) -> str:
    head = ["bct v1", f"kind: {kind}", f"dim: {dim}"]
    if kind in ("ket", "operator"):
        head.append("basis: canonical")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(head + rows) + "\n")
    return path


def write_square(path: str, kind: str, c1: np.ndarray, c2: np.ndarray) -> str:
    z1, z2 = _to_pair(c1, c2)
    rows = [" ".join(_atom4(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(z1, z2)]
    return _write(path, kind, c1.shape[0], rows)


def write_ket(path: str, c1: np.ndarray, c2: np.ndarray) -> str:
    z1, z2 = _to_pair(c1, c2)
    return _write(path, "ket", c1.shape[0], [" ".join(_atom4(a, b) for a, b in zip(z1, z2))])


def write_spec(path: str, g1: np.ndarray, g2: np.ndarray) -> str:
    rows = [
        " ".join(f"({_num(v.real)} {_num(v.imag)})" for v in row) for g in (g1, g2) for row in g
    ]
    return _write(path, "spec", g1.shape[0], rows)


# -- random inputs -----------------------------------------------------------------


def _gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = _gaussian(rng, n, n)
    return 0.5 * (a + a.conj().T)


def _gram(rng: np.random.Generator, n: int) -> np.ndarray:
    """A Hermitian positive-definite Gram matrix with condition number of order 10."""
    a = _gaussian(rng, n, n)
    return a @ a.conj().T / n + np.eye(n)


def _self_adjoint(rng, n):
    """Components G_k^{-1} A_k (self-adjoint under (G_1, G_2)), their G_k and A_k."""
    grams = (_gram(rng, n), _gram(rng, n))
    herms = (_hermitian(rng, n), _hermitian(rng, n))
    ops = tuple(np.linalg.solve(g, a) for g, a in zip(grams, herms))
    return ops, grams, herms


# -- output parsing ------------------------------------------------------------------


def check_lines(output: str) -> list[tuple[str, float, float, bool]]:
    found = []
    for line in output.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            found.append((m.group(1), float(m.group(2)), float(m.group(3)), m.group(4) == "pass"))
    return found


def verdict(output: str) -> str | None:
    for line in reversed(output.splitlines()):
        if line.startswith("verdict: "):
            return line[len("verdict: "):]
    return None


def _atoms(text: str) -> list[tuple[float, ...]]:
    return [tuple(float(f) for f in m.group(1).split()) for m in _ATOM.finditer(text)]


def _components(atoms: list[tuple[float, ...]]) -> tuple[np.ndarray, np.ndarray]:
    z1 = np.array([complex(a, b) for a, b, _, _ in atoms])
    z2 = np.array([complex(c, d) for _, _, c, d in atoms])
    return z1 - 1j * z2, z1 + 1j * z2


def _result_matrix(output: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    lines = output.splitlines()
    start = lines.index("result:") + 4
    c1, c2 = _components(_atoms("\n".join(lines[start:start + n])))
    return c1.reshape(n, n), c2.reshape(n, n)


def _relative(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max()) / max(1.0, float(np.abs(b).max()))


# -- workloads ---------------------------------------------------------------------


def spectral_jobs(rng, workdir):
    """`bct spectral H --spec G` on order-32 G-self-adjoint operators."""
    jobs = []
    for i in range(PASS_JOBS["spectral"]):
        ops, grams, herms = _self_adjoint(rng, SPECTRAL_ORDER)
        h = write_square(os.path.join(workdir, f"h{i}.bct"), "operator", *ops)
        g = write_spec(os.path.join(workdir, f"g{i}.bct"), *grams)
        expected = []
        for gram, herm in zip(grams, herms):
            inv_l = np.linalg.inv(np.linalg.cholesky(gram))
            expected.append(np.linalg.eigvalsh(inv_l @ herm @ inv_l.conj().T))

        def verify(outputs, expected=expected):
            values = _atoms("\n".join(
                line for line in outputs[0].splitlines() if line.startswith("eigenvalue ")
            ))
            if len(values) != SPECTRAL_ORDER:
                return f"{len(values)} eigenvalues, expected {SPECTRAL_ORDER}"
            for got, want in zip(_components(values), expected):
                if _relative(np.sort(got.real), want) > 1e-8 or float(np.abs(got.imag).max()) > 1e-8:
                    return "eigenvalues differ from the generalized Hermitian eigenvalues"
            return None

        jobs.append(Job(f"spectral-{i}", [["spectral", h, "--spec", g]], verify=verify))
    return jobs


def evolve_windows(count):
    """Windows t1 - t0 log-uniform on [1, 1e6]: the midpoints of `count` equal strata.

    The same windows for every seed keep the cost mix, and the share of
    windows long enough to meet the known unitarity drift, alike across
    seeds.
    """
    return 10.0 ** (6.0 * (np.arange(count) + 0.5) / count)


def evolve_jobs(rng, workdir):
    """`bct evolve` over 100 samples on order-16 Hamiltonians and kets."""
    count = PASS_JOBS["evolve"]
    windows = evolve_windows(count)
    # every fourth window, from short to long, passes --xi
    with_xi = set(range(round(1 / EVOLVE_XI_SHARE) - 1, count, round(1 / EVOLVE_XI_SHARE)))
    jobs = []
    for i in range(count):
        n = EVOLVE_ORDER
        comps = (_hermitian(rng, n), _hermitian(rng, n))
        psi = (_gaussian(rng, n), _gaussian(rng, n))
        h = write_square(os.path.join(workdir, f"h{i}.bct"), "operator", *comps)
        state = write_ket(os.path.join(workdir, f"psi{i}.bct"), *psi)
        t0 = float(rng.uniform(-1.0, 1.0))
        t1 = t0 + float(windows[i])
        argv = ["evolve", "--hamiltonian", h, "--state", state, "--hbar", "1",
                "--t0", repr(t0), "--t1", repr(t1), "--samples", str(EVOLVE_SAMPLES)]
        xi = (1.0, 1.0)
        if i in with_xi:
            xi = tuple(float(x) for x in rng.uniform(0.5, 2.0, 2))
            argv += ["--xi", f"({_num((xi[0] + xi[1]) / 2)} 0 0 {_num((xi[0] - xi[1]) / 2)})"]

        def verify(outputs, comps=comps, psi=psi, xi=xi, t0=t0, t1=t1):
            rows = [line.split("\t") for line in outputs[0].splitlines() if "\t" in line][1:]
            if len(rows) != EVOLVE_SAMPLES:
                return f"{len(rows)} samples, expected {EVOLVE_SAMPLES}"
            times = np.array([float(r[0]) for r in rows])
            if _relative(times, np.linspace(t0, t1, EVOLVE_SAMPLES)) > 1e-15:
                return "sample times differ from linspace(t0, t1)"
            first = _components(_atoms(" ".join(rows[0][1:-2])))
            last = _components(_atoms(" ".join(rows[-1][1:-2])))
            for k in range(2):
                if _relative(first[k], psi[k]) > 1e-14:
                    return "state at t0 differs from the input ket"
                values, vectors = np.linalg.eigh(comps[k] / xi[k])
                phase = np.exp(-1j * values * (t1 - t0))
                reference = vectors @ (phase * (vectors.conj().T @ psi[k]))
                # the scaling-and-squaring propagator drifts about 1e-15 * |t|
                if _relative(last[k], reference) > 1e-12 * max(1.0, t1 - t0):
                    return "final state differs from the eigenbasis propagator"
            return None

        label = f"evolve-{i} window {t1 - t0:.3g}" + (f" xi {xi[0]:.3g},{xi[1]:.3g}" if i in with_xi else "")
        jobs.append(Job(label, [argv], verify=verify))
    return [jobs[int(i)] for i in rng.permutation(count)]


def linalg_jobs(rng, workdir):
    """`det`, `inv`, `gram-schmidt` and `check` in turn on one order-32 matrix."""
    jobs = []
    n = LINALG_ORDER
    for i in range(PASS_JOBS["linalg"]):
        comps = (_gaussian(rng, n, n), _gaussian(rng, n, n))
        path = write_square(os.path.join(workdir, f"m{i}.bct"), "matrix", *comps)

        def verify(outputs, comps=comps):
            dets = _components(_atoms(outputs[0].split("result:")[1].splitlines()[4]))
            for k in range(2):
                want = np.linalg.det(comps[k])
                if abs(dets[k][0] - want) > 1e-8 * abs(want):
                    return "det differs from the component determinants"
            inverse = _result_matrix(outputs[1], n)
            ortho = _result_matrix(outputs[2], n)
            for k in range(2):
                cond = np.linalg.cond(comps[k])
                if float(np.abs(comps[k] @ inverse[k] - np.eye(n)).max()) > 1e-10 * cond:
                    return "inverse fails A @ inv(A) = I"
                if float(np.abs(ortho[k] @ ortho[k].conj().T - np.eye(n)).max()) > 1e-10:
                    return "gram-schmidt rows are not orthonormal"
            return None

        commands = [[sub, path] for sub in ("det", "inv", "gram-schmidt", "check")]
        jobs.append(Job(f"linalg-{i}", commands, verify=verify))
    return jobs


def cli_jobs(rng, workdir, golden_dir):
    """Every applicable `bct` call on the golden files and on generated order-8 inputs."""
    n = CLI_ORDER
    ops, grams, _ = _self_adjoint(rng, n)
    m = write_square(os.path.join(workdir, "m8.bct"), "matrix", _gaussian(rng, n, n), _gaussian(rng, n, n))
    h = write_square(os.path.join(workdir, "h8.bct"), "operator", *ops)
    g = write_spec(os.path.join(workdir, "g8.bct"), *grams)
    psi = write_ket(os.path.join(workdir, "psi8.bct"), _gaussian(rng, n), _gaussian(rng, n))
    t1 = float(rng.uniform(1.0, 10.0))

    jobs = []
    for name, subs in GOLDEN.items():
        path = os.path.join(golden_dir, name)
        expect = 3 if name.startswith("counter_") else 0
        jobs += [Job(f"{sub} {name}", [[sub, path]], expect=expect) for sub in subs]
    spec = ["--spec", g]
    calls = [["info", p] for p in (m, h, g, psi)]
    calls += [["idempotent", p] for p in (m, h, psi)]
    calls += [[sub, p] for sub in ("det", "inv", "exp") for p in (m, h)]
    calls += [["gram-schmidt", m], ["gram-schmidt", m, *spec], ["spectral", h, *spec]]
    calls.append(["evolve", "--hamiltonian", h, "--state", psi, *spec, "--hbar", "1",
                  "--t0", "0", "--t1", repr(t1), "--samples", "10"])
    calls += [["check", m], ["check", h, *spec], ["check", psi, *spec], ["check", g]]
    jobs += [Job(" ".join(os.path.basename(a) for a in argv), [argv]) for argv in calls]
    return [jobs[int(i)] for i in rng.permutation(len(jobs))]


def make_jobs(workload: str, seed: int, workdir: str, golden_dir: str) -> list[Job]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "cli":
        return cli_jobs(rng, workdir, golden_dir)
    return {"spectral": spectral_jobs, "evolve": evolve_jobs, "linalg": linalg_jobs}[workload](
        rng, workdir
    )
