"""Layer tracing from outside the program: spans around each public function.

Each traced function is wrapped, and the wrapper is bound in place of the
original under every name that refers to it in any thresholdwalk module
namespace.  That catches calls made through ``from .x import f`` copies as
well as module-global lookups (``upper_bounds`` calls ``kemeny_from_code``
as a global of ``kemeny``).  Spans live in flat arrays so the 500k spans of
a traced n = 20 search stay small in memory; they are written out when the
run ends.  The program is single-threaded in a traced run (search uses one
worker), so one stack gives every span its parent.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from pathlib import Path

# Layer -> public functions whose calls and self time the traced run reports.
LAYERS = {
    "codes": ("parse_code", "code_from_index", "degree_profile", "build_graph"),
    "kemeny": ("kemeny_from_code", "kemeny_degree_form", "kemeny_spectral_form", "upper_bounds"),
    "spectral": ("laplacian_spectrum", "spanning_tree_count", "pseudo_inverse"),
    "resistance": ("resistance_matrix", "verify_orderings"),
    "oracle": (
        "kemeny_eigen_oracle",
        "resistance_oracle",
        "spanning_tree_oracle",
        "accessibility_oracle",
        "two_forest_matrix",
    ),
    "search": ("max_kemeny_search",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)


def package_modules() -> list:
    """Every loaded thresholdwalk module, the package itself included."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "thresholdwalk" or name.startswith("thresholdwalk."))
    ]


class Tracer:
    """Installs span-recording wrappers; use as a context manager around the traced pass."""

    def __init__(self) -> None:
        self.request_id = -1
        self._name = array("i")
        self._parent = array("i")
        self._request = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        names, parents, requests = self._name, self._parent, self._request
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = begin
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        modules = package_modules()
        by_module = {module.__name__.rsplit(".", 1)[-1]: module for module in modules}
        for name_id, span_name in enumerate(SPAN_NAMES):
            layer, func = span_name.split(".")
            original = getattr(by_module.get(layer), func, None)
            if original is None:  # a later version may drop or rename a function
                continue
            wrapper = self._wrap(name_id, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def calls_and_self_time(self) -> tuple[list[int], list[float]]:
        """Per span name: call count and self time (duration minus direct children)."""
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        for index in range(len(names)):
            duration = ends[index] - starts[index]
            calls[names[index]] += 1
            self_s[names[index]] += duration
            parent = parents[index]
            if parent >= 0:
                self_s[names[parent]] -= duration
        return calls, self_s

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: request, name, parent span index, start, end (perf_counter s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as out:
            out.write("request\tname\tparent\tstart_s\tend_s\n")
            for index in range(len(self._name)):
                out.write(
                    f"{self._request[index]}\t{SPAN_NAMES[self._name[index]]}\t"
                    f"{self._parent[index]}\t{self._start[index]!r}\t{self._end[index]!r}\n"
                )
