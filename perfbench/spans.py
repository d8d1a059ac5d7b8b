"""In-memory timing spans around buresgeo's public functions.

A traced run replaces each listed function, in every buresgeo module
namespace that holds it, with a wrapper that records one span per call:
its name, start, end, the span that caused it, the request it belongs
to and how many rows (leading batch items) it was handed.  Functions
find their callees through module globals at call time, so patching the
namespaces is enough to see nested calls without editing the package.
Self time is a span's duration minus the time its direct children cover.
"""

import csv
import math
import time

import numpy as np

# (module, function, how to count the rows of one call)
LAYERS = (
    ("qubit", "random_bloch_indexed", "indices"),
    ("qubit", "as_bloch_vector", "vectors"),
    ("qubit", "validate_density_matrix", "matrices"),
    ("qubit", "density_from_bloch", "vectors"),
    ("qubit", "sqrt_density", "matrices"),
    ("qubit", "hermitian_eigenvalues", "matrices"),
    ("measures", "bures_fidelity_matrix", "matrices"),
    ("measures", "bures_fidelity_closed", "vectors"),
    ("measures", "trace_distance_bloch", "vectors"),
    ("hyperbolic", "fidelity_hyperbolic", "vectors"),
    ("hyperbolic", "triangle", "one"),
    ("hyperbolic", "geodesic_points", "count"),
    ("verify", "_route_spread", "vectors"),
    ("verify", "sweep", "trials"),
    ("verify", "compare", "one"),
    ("cli", "main", "one"),
)

LAYER_NAMES = tuple(f"{module}.{function}" for module, function, _ in LAYERS)


def _batch(x, core_ndim: int) -> int:
    shape = x.shape if isinstance(x, np.ndarray) else np.shape(x)
    return math.prod(shape[: len(shape) - core_ndim])


def _arg(args, kwargs, position: int, keyword: str):
    return args[position] if len(args) > position else kwargs[keyword]


_ROWS = {
    "indices": lambda a, k: int(np.size(_arg(a, k, 2, "indices"))),
    "vectors": lambda a, k: _batch(a[0], 1),
    "matrices": lambda a, k: _batch(a[0], 2),
    "count": lambda a, k: int(_arg(a, k, 2, "count")),
    "trials": lambda a, k: int(_arg(a, k, 1, "trials")),
    "one": lambda a, k: 1,
}


class Tracer:
    """Collects spans in memory; ``install`` patches the package in place."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, request_id, name, start_ns, end_ns, rows)
        self.request = -1
        self.stats = {name: [0, 0, 0] for name in LAYER_NAMES}  # calls, rows, self_ns
        self._stack = []  # [span_id, ns covered by direct children]

    def _wrap(self, name: str, fn, rows_of):
        stack = self._stack
        spans = self.spans
        stat = self.stats[name]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rows = rows_of(args, kwargs)
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((span_id, parent, self.request, name, start, end, rows))
                stat[0] += 1
                stat[1] += rows
                stat[2] += end - start - frame[1]

        return traced

    def install(self, package) -> None:
        """Wrap every listed function in each buresgeo namespace that binds it."""
        modules = [package] + [getattr(package, name) for name in ("qubit", "measures", "hyperbolic", "verify", "cli")]
        for module_name, function, rows_kind in LAYERS:
            original = getattr(getattr(package, module_name), function)
            wrapper = self._wrap(f"{module_name}.{function}", original, _ROWS[rows_kind])
            for module in modules:
                if getattr(module, function, None) is original:
                    setattr(module, function, wrapper)

    def root_ns(self) -> int:
        """Time covered by spans that no other listed span encloses."""
        return sum(end - start for _, parent, _, _, start, end, _ in self.spans if parent == -1)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["span_id", "parent_id", "request_id", "name", "start_ns", "end_ns", "rows"])
            writer.writerows(sorted(self.spans))
