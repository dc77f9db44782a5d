"""Span tracer over the package's module-level functions.

The package looks its collaborators up by module-level name at call time
(``spectra_perturb.bounds.schur_decompose``,
``spectra_perturb.campaigns.evaluate_all``, ...).  Rebinding every module
attribute that holds a layer function to a timing wrapper therefore
records one span per call without editing the package.  Spans carry a
parent link and the index of the benchmark operation they belong to;
they are kept in flat arrays and written out once, when the run ends.
"""

from __future__ import annotations

import array
import functools
import sys
import time

import numpy as np

PACKAGE = "spectra_perturb"

#: Layers, as ``<module>.<function>`` under the package.  A name that the
#: package no longer defines is reported with 0 calls.
LAYERS = (
    "campaigns.run_campaign",
    "campaigns.run_trial",
    "ensembles.random_case",
    "bounds.make_case",
    "bounds.evaluate_all",
    "decomp.schur_decompose",
    "decomp.reorder_schur",
    "decomp.eigenvalues",
    "decomp.validate_schur_form",
    "decomp.numerical_rank",
    "decomp.spectral_norm",
    "matching.optimal_match",
    "quantities.delta",
    "quantities.w_lower",
    "bounds.henrici_delta_upper",
    "bounds.sun_delta_lower",
    "matrices.is_normal",
    "matrices.is_hermitian",
    "matrices.as_matrix",
    "matrices.load_matrix",
    "cli.main",
)


class Tracer:
    """Records spans for the calls into :data:`LAYERS` while installed.

    Use as a context manager; ``op`` is set by the caller to the index of
    the operation in progress, so that spans of one operation share it.
    """

    def __init__(self):
        self.layers = LAYERS
        self.op = -1
        self.layer = array.array("h")
        self.parent = array.array("q")
        self.op_of = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack = [-1]
        self._patched: list = []

    def __enter__(self) -> "Tracer":
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for index, qualname in enumerate(self.layers):
            module_name, attr = qualname.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(index, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, index: int, fn):
        layer, parent, op_of = self.layer, self.parent, self.op_of
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(layer)
            layer.append(index)
            parent.append(stack[-1])
            op_of.append(tracer.op)
            start.append(0)
            end.append(0)
            stack.append(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                start[span] = t0
                stack.pop()

        return traced

    def totals(self, op_scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Calls and self time in milliseconds, one entry per layer.

        A span's self time is its duration minus the durations of its
        direct children, times ``op_scale`` of its operation (the scale
        to the host's reference speed, reference.py).
        """
        layer = np.frombuffer(self.layer, dtype=np.int16).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = (
            np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        ).astype(np.float64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=layer.size)
        self_ns = (duration - children) * op_scale[np.frombuffer(self.op_of, dtype=np.int64)]
        calls = np.bincount(layer, minlength=len(self.layers))
        self_ms = np.bincount(layer, weights=self_ns, minlength=len(self.layers)) / 1e6
        return calls, self_ms

    def save(self, path) -> None:
        np.savez(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.layer, dtype=np.int16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op_of, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
