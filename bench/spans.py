"""Per-layer tracing of `bicomplex`, installed from outside the package.

Each layer is a set of public names.  `Tracer.install` replaces each name
with a timing wrapper in every `bicomplex.*` namespace that holds it
(`cli.py` and `checks.py` bind names with `from .x import y`, so
patching the defining module alone would miss their calls).  A name
that no longer exists is reported absent instead of failing.

Spans (layer, start, end, parent) stay in memory, in flat arrays, until
the run ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__neg__", "__pos__", "__pow__")

# (layer, module, public names); "Class.attr" wraps a class attribute.
LAYERS = (
    ("core", "core", tuple(f"Bicomplex.{d}" for d in _DUNDERS) + (
        "Bicomplex.inverse", "Bicomplex.classify", "Bicomplex.to_idempotent",
        "Bicomplex.from_idempotent")),
    ("matrix", "matrix", ("BicomplexMatrix.det", "BicomplexMatrix.inverse",
                          "BicomplexMatrix.__matmul__", "BicomplexMatrix.is_singular",
                          "BicomplexMatrix.transpose", "matmul")),
    ("hilbert", "hilbert", ("scalar_product", "gram_schmidt", "normalize",
                            "ScalarProductSpec.__init__", "ket_classify")),
    ("operators.eigen", "operators", ("eigendecompose_self_adjoint", "eigendecompose_unitary")),
    ("operators.expm", "operators", ("op_exp", "op_exp_spectral")),
    ("operators.evolve", "operators", ("evolve_series", "schrodinger_residual",
                                       "evolution_operator")),
    ("operators.other", "operators", ("adjoint", "is_self_adjoint", "is_unitary",
                                      "outer_product", "spectral_reconstruct", "op_project")),
    ("checks", "checks", ("run_checks", "check_scalar", "check_ket", "check_matrix",
                          "check_operator", "check_spec")),
    ("reference", "reference", ("det_cofactor", "scalar_product_direct", "matmul_entrywise",
                                "gauss_jordan_inverse")),
    ("bct", "bct", ("parse", "render", "load", "document_for", "format_bicomplex_atom",
                    "format_complex_atom")),
    ("cli", "cli", ("main",)),
    # a fresh interpreter and `import bicomplex.cli`: the root span of a `bct` subprocess
    ("startup", None, ()),
)
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS)
STARTUP = LAYER_NAMES.index("startup")
JOB = len(LAYER_NAMES)  # root span of an in-process job: the benchmark's own capture


class Tracer:
    """Records spans; one instance per process."""

    def __init__(self):
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open = [-1]
        self.absent: list[str] = []

    def begin(self, layer: int) -> int:
        index = len(self.start)
        self.layer.append(layer)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._open.pop()

    def _wrap(self, fn, layer: int):
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            index = begin(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public name of every layer in all loaded `bicomplex` modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "bicomplex" or name.startswith("bicomplex."))]
        for layer, (_, module_name, names) in enumerate(LAYERS):
            home = sys.modules.get(f"bicomplex.{module_name}") if module_name else None
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                raw = None if owner is None else vars(owner).get(attr)
                if raw is None:
                    self.absent.append(f"{module_name}.{name}")
                    continue
                if owner_name:
                    self._wrap_attribute(owner, attr, raw, layer)
                    continue
                wrapped = self._wrap(raw, layer)
                for module in modules:
                    if vars(module).get(attr) is raw:
                        setattr(module, attr, wrapped)

    def _wrap_attribute(self, cls, attr, raw, layer):
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(self._wrap(raw.__func__, layer)))
        else:
            setattr(cls, attr, self._wrap(raw, layer))

    def columns(self):
        return (np.frombuffer(self.layer, dtype=np.int8).astype(np.int64),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int32).astype(np.int64))

    def dump(self, path: str) -> None:
        layer, start, end, parent = self.columns()
        np.savez(path, layer=layer, start=start, end=end, parent=parent,
                 absent=np.array(self.absent, dtype=str))

    def adopt(self, path: str, root: int) -> None:
        """Append the spans a child process dumped, under the span `root`."""
        with np.load(path) as data:
            offset = len(self.start)
            parent = data["parent"]
            self.layer.extend(data["layer"].astype(np.int8).tolist())
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.parent.extend(np.where(parent < 0, root, parent + offset).tolist())
            self.absent.extend(a for a in data["absent"].tolist() if a not in self.absent)

    def layer_metrics(self) -> dict[str, float]:
        """Per-job calls and self time, and share of job wall time, per layer."""
        layer, start, end, parent = self.columns()
        duration = end - start
        child = parent >= 0
        self_time = duration - np.bincount(parent[child], weights=duration[child],
                                           minlength=len(duration))
        roots = ~child
        jobs = int(roots.sum())
        wall = float(duration[roots].sum())
        calls = np.bincount(layer, minlength=JOB + 1)
        busy = np.bincount(layer, weights=self_time, minlength=JOB + 1)
        metrics = {}
        for index, name in enumerate(LAYER_NAMES):
            metrics[f"{name}.calls"] = calls[index] / jobs
            metrics[f"{name}.self_ms"] = 1e3 * busy[index] / jobs
            metrics[f"{name}.share"] = busy[index] / wall
        return metrics
