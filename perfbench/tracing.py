"""Spans around every public function of the udsets layers, from outside.

``Tracer.install()`` replaces each public function of the measured modules
with a wrapper, in every ``udsets`` namespace that holds it (the package, the
defining module, and modules that imported the name, such as
``udsets.witness.j0_values``).  A wrapper records a span (name, id, parent
id, pass id, start, end, self time) and, for the functions in ``COUNTERS``,
the work the call did.  Spans stay in memory until ``dump``.

A layer's self time is its span's duration minus the time covered by its
child spans.  Spans nest strictly because the library is single-threaded.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
import tracemalloc
from collections import defaultdict
from functools import wraps
from pathlib import Path

LAYERS = (
    "bessel", "torus", "gridio", "constructions", "udgraph", "registry", "witness", "simplex",
)


def _lattice_points(cutoff):
    """Exact number of integer (a, b) with a^2 + b^2 <= cutoff."""
    c = int(cutoff)
    amax = math.isqrt(c)
    return sum(2 * math.isqrt(c - a * a) + 1 for a in range(-amax, amax + 1))


# Work counts per call: name -> {suffix: f(bound arguments, result)}.
COUNTERS = {
    "bessel.j0_values": {"points": lambda a, r: int(getattr(r, "size", 1))},
    "simplex.solve_lp": {
        "iterations": lambda a, r: r.iterations,
        "infeasible": lambda a, r: int(r.status == "infeasible"),
        "optimal": lambda a, r: int(r.status == "optimal"),
    },
    "witness.verify_witness": {
        "grid_points": lambda a, r: math.floor(a["tail_start"] / a["grid_step"]) + 1,
    },
    "witness.certify_bound": {
        "attempts": lambda a, r: len(r.attempts),
        "certified_attempts": lambda a, r: sum(1 for *_, v in r.attempts if v == "certified"),
    },
    "torus.spectrum": {
        "lattice_points": lambda a, r: _lattice_points(a["cutoff_m"]),
        "fft_cells": lambda a, r: a["A"].side ** 2,
    },
    "torus.pair_correlation": {"terms": lambda a, r: len(a["S"].ms)},
    "constructions.rasterize_report": {"cells": lambda a, r: r.grid.side ** 2},
    "gridio.save_gridset": {"bytes": lambda a, r: Path(a["path"]).stat().st_size},
    "gridio.write_paircorr_csv": {"bytes": lambda a, r: Path(a["path"]).stat().st_size},
    "udgraph.greedy_mis": {"vertices": lambda a, r: a["G"].n_vertices},
    "udgraph.glauber_sample": {"steps": lambda a, r: a["steps"]},
    "udgraph.subset_stats": {"offset_rolls": lambda a, r: len(a["G"].offsets)},
    "udgraph.block_decomposition": {"blocks": lambda a, r: r.n_blocks},
    "udgraph.max_is_exact": {"vertices": lambda a, r: a["G"].n_vertices},
}

# Calls whose peak traced allocation is recorded as <name>.peak_mb.
PEAK_MEMORY = {"torus.spectrum"}


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """In-memory span recorder; ``active`` gates recording, not wrapping."""

    def __init__(self):
        self.active = False
        self.pass_id = None
        self.spans = []
        self.stats = defaultdict(lambda: defaultdict(float))  # pass -> metric -> value
        self._stack = []  # [span id, start, child time]
        self._next_id = 0
        self._patched = []  # (namespace, attribute, original)
        self.names = []  # every metric a wrapped function can record

    # -- wrapping ----------------------------------------------------------

    def install(self):
        wrappers = {}  # original function -> its wrapper
        for layer in LAYERS:
            module = sys.modules[f"udsets.{layer}"]
            for name, fn in public_functions(module).items():
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "udsets" and not modname.startswith("udsets."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, qualname, fn):
        counter = COUNTERS.get(qualname)
        sig = inspect.signature(fn) if counter else None
        peak = qualname in PEAK_MEMORY
        self.names += [f"{qualname}.{k}" for k in ("calls", "s", "errors", *(counter or ()))]
        if peak:
            self.names.append(f"{qualname}.peak_mb")
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer._call(qualname, fn, args, kwargs, counter, sig, peak)

        return wrapper

    def _call(self, qualname, fn, args, kwargs, counter, sig, peak):
        stats = self.stats[self.pass_id]
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        if peak:
            tracemalloc.start()
        frame = [span_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        error = None
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            stats[f"{qualname}.errors"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            self_s = duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            stats[f"{qualname}.calls"] += 1
            stats[f"{qualname}.s"] += self_s
            if peak:
                peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                key = f"{qualname}.peak_mb"
                stats[key] = max(stats[key], peak_bytes / 2**20)
            self.spans.append({
                "id": span_id, "parent": parent, "pass": self.pass_id,
                "name": qualname, "start": frame[1], "end": end,
                "self_s": self_s, "error": error,
            })
        if counter:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            for suffix, count in counter.items():
                stats[f"{qualname}.{suffix}"] += count(bound.arguments, result)
        return result

    # -- output ------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
