"""Benchmark of verified `bct` jobs, end to end and layer by layer.

Usage, from the repository root:

    python3 bench/run.py --workload {spectral,evolve,linalg,cli} --seed N \
        --seconds S --trace {0,1}

One process drives `bicomplex` through its documented entry points only:
`bicomplex.cli.main(argv)` in-process, and the `bct` console script
(`bicomplex.cli:entry`) as a subprocess for the `cli` workload.  Load is
a closed loop: one job at a time, at most one child process.  Each job's
stdout is captured and checked; see bench/README.md for the workloads,
the metrics and how times are scaled to a reference host speed.

With `--trace 0` the last stdout line is a JSON object holding the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced pass.  Lines before it, starting with `#`, describe the host and
the run, including the unscaled wall times.
"""

import os

# One BLAS thread in this process and its children, set before numpy loads:
# extra BLAS threads compete with the timing loop on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from time import perf_counter

import numpy as np

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
CHILD = os.path.join(ROOT, "bench", "child.py")
WORK_ROOT = os.path.join(ROOT, ".bench_build")

BCT_SCRIPT = "import sys; from bicomplex.cli import entry; sys.argv[0] = 'bct'; entry()"
SETUP_SCRIPT = "import time, bicomplex.cli; print(repr(time.perf_counter()))"
SETUP_REPEATS = 9
WARMUP_WINDOW_S = 1.0
WARMUP_AGREEMENT = 0.10
WARMUP_MAX_S = 5.0
CHILD_TIMEOUT_S = 120
# Residuals are floored at this share of their tolerance, so an exact
# zero counts as the 15.65 digits a double holds.
RESIDUAL_FLOOR = 2.0 ** -52
# `check` lines print the residual to 4 significant digits and the
# tolerance to 6, so a residual within this share of its tolerance may
# print on the other side of it; its pass/fail status is not re-derived.
PRINTED_PRECISION = 5e-4

# This host's instruction rate swings by up to 2x within seconds (other
# tenants), which moves every wall time with it.  A short calibration
# kernel runs between timed jobs; a job's wall time is scaled by
# (kernel rate around it) / REFERENCE_RATE, i.e. reported as it would
# read on a host that runs the kernel REFERENCE_RATE times per second.
# The rate around job i is the mean of the kernel runs from before job
# i-1 to after job i+1.  The kernel calls nothing in bicomplex.  The
# benchmark and its children are kept on one CPU, so the kernel sees the
# CPU the job ran on.
REFERENCE_RATE = 5000.0
CALIB_ROUNDS = 25


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def blas_build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


class Clock:
    """Rates of a calibration kernel run between timed pieces of work."""

    def __init__(self):
        self._a = np.linspace(-1.0, 1.0, 256).reshape(16, 16) * (0.25 + 0.125j)
        self._last = self._kernel()

    def _kernel(self) -> float:
        """Rounds per second of a fixed pure-Python plus numpy kernel."""
        start = perf_counter()
        for _ in range(CALIB_ROUNDS):
            acc, z = 0j, 0.999 + 0.001j
            for k in range(500):
                acc = acc * z + k
            b = self._a
            for _ in range(20):
                b = b @ self._a
        return CALIB_ROUNDS / (perf_counter() - start)

    def rate(self) -> float:
        """Kernel rate around the work done since the last call: before and after it."""
        before, self._last = self._last, self._kernel()
        return 0.5 * (before + self._last)


def scaled(walls, rates):
    """Wall times at the reference speed, each with the rate smoothed over its neighbours."""
    out = []
    for i, wall in enumerate(walls):
        near = rates[max(0, i - 1):i + 2]
        out.append(wall * sum(near) / len(near) / REFERENCE_RATE)
    return out


class Runner:
    """Runs jobs, one at a time, in-process or as `bct` subprocesses."""

    def __init__(self, workload, cli, workdir):
        self.cli = cli
        self.subprocess = workload == "cli"
        self.spans_file = os.path.join(workdir, "spans.npz")
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.tracer = None

    def _inprocess(self, argv):
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed job, not a failed benchmark
            return None, buf.getvalue(), f"{type(exc).__name__}: {exc}"
        return code, buf.getvalue(), None

    def _child(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-c", BCT_SCRIPT, *argv]
        else:
            cmd = [sys.executable, CHILD, self.spans_file, *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        error = proc.stderr.strip().splitlines()[-1] if "Traceback" in proc.stderr else None
        return proc.returncode, proc.stdout, error

    def run(self, job):
        """Run a job; returns (wall seconds, [(exit code, stdout, error)] per command)."""
        tracer = self.tracer
        if tracer is not None:
            root = tracer.begin(spans.STARTUP if self.subprocess else spans.JOB)
        start = perf_counter()
        if self.subprocess:
            results = [self._child(job.commands[0])]
        else:
            results = [self._inprocess(argv) for argv in job.commands]
        wall = perf_counter() - start
        if tracer is not None:
            tracer.finish(root)
            if self.subprocess:
                tracer.adopt(self.spans_file, root)
        return wall, results


def judge(job, results):
    """(passed, failure, digits) for one job.

    `failure` is set when the job did not end in a documented, consistent
    outcome or its output is wrong; `passed` when every command's exit
    code and verdict match the expected outcome; `digits` is the smallest
    log10(tol / residual) over the job's checks with tol > 0.
    """
    digits = []
    passed = True
    want = "pass" if job.expect == 0 else "fail"
    for code, out, error in results:
        if error is not None:
            return False, error, None
        if code not in (0, 1, 2, 3):
            return False, f"exit code {code}", None
        checks = workloads.check_lines(out)
        for name, residual, tol, ok in checks:
            rounded = math.isfinite(residual) and (
                abs(residual - tol) <= PRINTED_PRECISION * max(residual, tol))
            if ok != (residual <= tol) and not rounded:
                return False, f"check {name}: status disagrees with residual", None
            if tol > 0:
                if math.isfinite(residual):
                    digits.append(math.log10(tol / max(residual, tol * RESIDUAL_FLOOR)))
                else:
                    digits.append(-math.inf)
        said = workloads.verdict(out)
        if code in (0, 3):
            consistent = "pass" if all(c[3] for c in checks) else "fail"
            if said != consistent or (code == 0) != (said == "pass"):
                return False, f"verdict {said!r} and exit code {code} disagree with the checks", None
        passed = passed and code == job.expect and said == want
    if passed and job.verify is not None:
        try:
            wrong = job.verify([out for _, out, _ in results])
        except (ValueError, IndexError) as exc:
            wrong = f"output does not parse: {type(exc).__name__}: {exc}"
        if wrong is not None:
            return False, wrong, None
    return passed, None, (min(digits) if digits else None)


class Tally:
    """Outcomes and times of timed jobs."""

    def __init__(self):
        self.walls = []
        self.rates = []
        self.passed = 0
        self.failures = []
        self.not_passed = set()
        self.digits = []

    def add(self, job, wall, rate, passed, failure, digits):
        self.walls.append(wall)
        self.rates.append(rate)
        self.passed += passed
        if failure is not None:
            self.failures.append(f"{job.name}: {failure}")
        elif not passed:
            self.not_passed.add(job.name)
        if digits is not None:
            self.digits.append(digits)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    if not os.path.isfile(os.path.join(SRC, "bicomplex", "__init__.py")):
        fail(f"no bicomplex sources under {SRC}; run from a checkout of the repository")
    if not os.path.isdir(GOLDEN_DIR):
        fail(f"no golden corpus at {GOLDEN_DIR}")
    sys.path.insert(0, SRC)

    import bicomplex
    import bicomplex.cli as cli

    if not os.path.abspath(bicomplex.__file__).startswith(SRC + os.sep):
        fail(f"imported bicomplex from {bicomplex.__file__}, not from {SRC}")

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        jobs = workloads.make_jobs(args.workload, args.seed, workdir, GOLDEN_DIR)
        runner = Runner(args.workload, cli, workdir)
        result = measure(args, jobs, runner, cpu)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def warm_up(jobs, runner) -> list[float]:
    """Untimed runs of the workload's own jobs until two ~1 s windows agree."""
    windows = []
    index = 0
    start = perf_counter()
    while perf_counter() - start < WARMUP_MAX_S:
        window_start = perf_counter()
        count = 0
        while count == 0 or perf_counter() - window_start < WARMUP_WINDOW_S:
            runner.run(jobs[index % len(jobs)])
            index += 1
            count += 1
        windows.append((perf_counter() - window_start) / count)
        if len(windows) >= 3 and abs(windows[-1] - windows[-2]) <= WARMUP_AGREEMENT * windows[-2]:
            break
    return windows


def setup_time(env) -> float:
    """Seconds from spawning a fresh interpreter to `import bicomplex.cli` done."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout) - start


def measure(args, jobs, runner, cpu):
    def timed_pass(tally):
        start = perf_counter()
        for job in jobs:
            wall, results = runner.run(job)
            rate = clock.rate()
            tally.add(job, wall, rate, *judge(job, results))
        return perf_counter() - start

    windows = warm_up(jobs, runner)
    clock = Clock()
    info = {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": blas_build(),
        "blas_threads": blas_threads(),
        "jobs_per_pass": len(jobs),
        "warmup_windows_ms": [round(1e3 * w, 1) for w in windows],
    }
    tally = Tally()
    if args.trace:
        timed_pass(tally)
        untraced_rate = len(jobs) / sum(scaled(tally.walls, tally.rates))
        runner.tracer = tracer = spans.Tracer()
        if not runner.subprocess:
            tracer.install()
        traced = Tally()
        timed_pass(traced)
        speed = statistics.median(traced.rates) / REFERENCE_RATE
        metrics = {}
        units = {"calls": "count", "self_ms": "ms", "share": "ratio"}
        for key, value in tracer.layer_metrics().items():
            kind = key.rsplit(".", 1)[1]
            metrics[key] = (value * speed if kind == "self_ms" else value, units[kind])
        traced_rate = len(jobs) / sum(scaled(traced.walls, traced.rates))
        metrics["trace.overhead"] = (1.0 - traced_rate / untraced_rate, "ratio")
        metrics["host.calib_rate"] = (statistics.median(tally.rates + traced.rates), "1/s")
        info["absent_names"] = tracer.absent
        for name in ("walls", "rates", "failures", "digits"):
            getattr(tally, name).extend(getattr(traced, name))
        tally.passed += traced.passed
    else:
        setup_time(runner.env)
        setup, setup_rates = [], []
        for _ in range(SETUP_REPEATS):
            setup.append(setup_time(runner.env))
            setup_rates.append(clock.rate())
        measured = 0.0
        while True:
            last = timed_pass(tally)
            measured += last
            if measured + 0.5 * last > args.seconds:
                break
        rss = resource.getrusage(
            resource.RUSAGE_CHILDREN if runner.subprocess else resource.RUSAGE_SELF
        ).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(scaled(setup, setup_rates)), "s"),
            **latency_metrics(scaled(tally.walls, tally.rates)),
            "pass_ratio": (tally.passed / len(tally.walls), "ratio"),
            "accuracy_digits": (statistics.median(tally.digits), "digits"),
            "peak_rss_mb": (rss / 1024.0, "MB"),
        }
        info["measured_s"] = round(measured, 3)
        info["passes"] = len(tally.walls) // len(jobs)
        info["latency_samples"] = len(tally.walls)
        info["latency_p90_beyond"] = len(tally.walls) - math.ceil(0.9 * len(tally.walls))
        info["unscaled"] = {k: round(v, 4) for k, (v, _) in latency_metrics(tally.walls).items()}
        info["calib_rate"] = round(statistics.median(tally.rates), 1)
        info["setup_s_unscaled"] = round(statistics.median(setup), 4)
    for failure in tally.failures[:20]:
        print(f"# failed: {failure}")
    for name in sorted(tally.not_passed):
        print(f"# not passed: {name}")
    print("# " + json.dumps(info))
    return {
        "correct": not tally.failures,
        "attempted": len(tally.walls),
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def latency_metrics(walls):
    return {
        "jobs_per_s": (len(walls) / sum(walls), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(walls), "ms"),
        "latency_p90_ms": (1e3 * statistics.quantiles(walls, n=10, method="inclusive")[8], "ms"),
    }


if __name__ == "__main__":
    main()
