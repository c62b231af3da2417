"""Spans around calls into fqsvt's public functions, installed from outside.

`from .x import y` copies a reference, so wrapping a function in its own
module does not reach callers that imported it by name. `install` therefore
imports every fqsvt submodule and replaces the function in each namespace
that binds it. A function that a refactor renamed or removed is reported as
missing instead of failing the run.

Spans stay in memory; `summary` folds them into per-function call counts and
self time (span duration minus the time covered by its child spans).
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

# Public functions traced per fqsvt module. `bands` and `bosehubbard` take
# milliseconds on the benchmark inputs and are left out.
LAYERS = {
    "linalg": ("eigh", "trace_norm"),
    "chebyshev": ("heaviside_filter", "certify_filter"),
    "qsp": ("synthesize_symmetric", "extract_pq"),
    "blockenc": ("dilate_hermitian",),
    "qsvt": ("assemble_full", "predicted_blocks"),
    "feedforward": ("run_multiband", "run_1fqsvt", "extract_kraus", "channel_distance"),
    "baselines": ("random_walk_success", "adiabatic_leakage_scaling"),
    "cli": ("cmd_project", "cmd_verify"),
}


def span_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index, time covered by children].
        self.spans: list[list] = []
        self._open: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else None
            span = [name, time.perf_counter(), 0.0, parent, 0.0]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
                if parent is not None:
                    spans[parent][4] += span[2] - span[1]

        return traced

    def install(self, package: str = "fqsvt") -> None:
        root = importlib.import_module(package)
        for info in pkgutil.iter_modules(root.__path__):
            importlib.import_module(f"{package}.{info.name}")
        namespaces = [m for name, m in sys.modules.items()
                      if name == package or name.startswith(package + ".")]
        for module, fns in LAYERS.items():
            home = sys.modules.get(f"{package}.{module}")
            for fn in fns:
                original = getattr(home, fn, None)
                if not callable(original):
                    self.missing.append(f"{module}.{fn}")
                    continue
                wrapper = self.wrap(f"{module}.{fn}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)

    def summary(self) -> dict:
        """Span name -> {"calls", "self_s"}; every traced name appears, missing ones too."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in span_names()}
        for name, start, end, _, covered in self.spans:
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - covered
        return out
