"""Host self-time and call counts per simulator layer, from cProfile.

A layer is a ``repro`` package.  Every profiled function is credited to
the package that owns its source file; nothing under ``src/`` is
instrumented.  Three buckets sit beside the packages: ``stdlib`` is all
code outside the repository (interpreter builtins, the standard
library, numpy), ``misc`` is repository code outside the named packages
(``repro/errors.py``, ``repro/units.py``, ...), and ``bench`` is this
benchmark's own code on the timed path.
"""

from __future__ import annotations

import cProfile
import os

LAYERS = (
    "sim", "hw", "spdk", "core", "oskernel", "reliability", "backends",
    "cache", "serving", "net", "obs", "workloads", "stdlib", "misc",
    "bench",
)


class LayerProfile:
    """Folds one cProfile run into ``{layer: [self_seconds, calls]}``."""

    def __init__(self, repro_dir, bench_dir):
        self._repro = os.path.join(os.path.realpath(repro_dir), "")
        self._bench = os.path.join(os.path.realpath(bench_dir), "")
        self._owner = {}

    def _layer_of(self, filename):
        layer = self._owner.get(filename)
        if layer is None:
            path = os.path.realpath(filename)
            if path.startswith(self._repro):
                package = path[len(self._repro):].split(os.sep)[0]
                layer = package if package in LAYERS else "misc"
            elif path.startswith(self._bench):
                layer = "bench"
            else:
                layer = "stdlib"
            self._owner[filename] = layer
        return layer

    def measure(self, fn):
        """Run ``fn()`` under cProfile; return ``(result, folded)``."""
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = fn()
        finally:
            profiler.disable()
        folded = {layer: [0.0, 0] for layer in LAYERS}
        for entry in profiler.getstats():
            code = entry.code
            # builtins and C methods carry a description string, not code
            layer = (
                "stdlib" if isinstance(code, str)
                else self._layer_of(code.co_filename)
            )
            folded[layer][0] += entry.inlinetime
            folded[layer][1] += entry.callcount
        return result, folded
