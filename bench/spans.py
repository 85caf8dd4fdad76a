"""In-memory span tracer that wraps vxsim's module-level names from outside.

The package is not edited: ``install`` rebinds the names each vxsim module
calls through (``vxsim.evolution.step``, the ``fft2``/``ifft2`` each module
imported, ``vxsim.runner.evolve_two_flavor`` and so on) to wrappers that
record one span per call.  A span is ``[name, start, end, parent]``; spans of
one worker process share the tracer's run id.  Self time of a span is its
duration minus its direct children's durations, so the self times of all
spans under ``runner.run`` add up to the ``runner.run`` span exactly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, attribute, span name).  Each entry rebinds the name in the module
# that calls through it, so calls made elsewhere are not counted twice.
WRAPPED = (
    ("vxsim.evolution", "step", "evolution.step"),
    ("vxsim.evolution", "fft2", "evolution.fft"),
    ("vxsim.evolution", "ifft2", "evolution.fft"),
    ("vxsim.two_flavor", "fft2", "two_flavor.fft"),
    ("vxsim.two_flavor", "ifft2", "two_flavor.fft"),
    ("vxsim.two_flavor", "eigh_tridiagonal", "two_flavor.tridiag"),
    # spectral derivatives used by gauge, beams and the trap set-up
    ("vxsim.grid", "fft2", "grid.fft"),
    ("vxsim.grid", "ifft2", "grid.fft"),
    ("vxsim.runner", "run_adiabatic_loading", "evolution.loading"),
    ("vxsim.runner", "evolve_two_flavor", "two_flavor.evolve"),
    ("vxsim.runner", "gauge_potentials", "gauge.gauge_potentials"),
    ("vxsim.runner", "solve_traps", "gauge.solve_traps"),
    ("vxsim.runner", "winding", "diagnostics.winding"),
    ("vxsim.runner", "circulation", "diagnostics.circulation"),
    ("vxsim.runner", "compare_states", "diagnostics.compare_states"),
    ("vxsim.runner", "analytic_state", "diagnostics.analytic_state"),
    ("vxsim.runner", "write_field", "fieldio.write"),
)

# The runner's per-step snapshot closures, passed to the two steppers under
# these keywords, are runner work: they get spans of their own.
SNAPSHOT_KWARGS = {"evolution.loading": "snapshot_cb", "two_flavor.evolve": "callback"}

FFT_SPANS = ("evolution.fft", "two_flavor.fft", "grid.fft")

# modules self time is charged to; ``beams``, ``grid`` and ``cli`` are thin
# and count inside their callers, apart from their transforms (``fft``)
MODULES = ("runner", "evolution", "two_flavor", "fft", "gauge", "diagnostics", "fieldio")


def module_of(name: str) -> str:
    return "fft" if name in FFT_SPANS else name.split(".", 1)[0]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter
        snapshot_kwarg = SNAPSHOT_KWARGS.get(name)

        def traced(*args, **kwargs):
            if kwargs.get(snapshot_kwarg) is not None:
                kwargs[snapshot_kwarg] = self.wrap("runner.snapshot", kwargs[snapshot_kwarg])
            rec = [name, clock(), 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                rec[2] = clock()

        return traced

    def install(self):
        import importlib

        for module, attr, name in WRAPPED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def summarize(spans: list[list]) -> dict:
    """Per-name call counts, total and self seconds, and per-module self
    seconds of the spans under the (single) ``runner.run`` root."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    root = []
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_s[name] += dur
        if parent >= 0:
            self_s[spans[parent][0]] -= dur
        # spans start in order, so a parent's root is known before its child's
        root.append(i if parent < 0 else root[parent])
    module_self = {m: 0.0 for m in MODULES}
    for i, (name, start, end, parent) in enumerate(spans):
        if spans[root[i]][0] != "runner.run":
            continue
        dur = end - start
        module_self[module_of(name)] += dur
        if parent >= 0:
            module_self[module_of(spans[parent][0])] -= dur
    return {"calls": dict(calls), "total": dict(total), "self": dict(self_s),
            "module_self": module_self}
