"""Spans and work counters recorded from outside the library.

Only the traced run installs these. Every wrapper lives here and is put in
place by attribute assignment on the imported modules, so nothing under
src/ changes and the untraced run executes the library as shipped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

import adiasearch as a
import adiasearch.cli

# (defining module, function, span name). The wrapper replaces the function
# in every adiasearch module that holds it, so calls made through the
# package namespace and module-internal calls are both seen.
SPANNED = (
    (a.runtime, "reproduce_table", "runtime.table"),
    (a.runtime, "running_time_integral", "runtime.running_time"),
    (a.runtime, "optimal_schedule", "runtime.tabulate"),
    (a.dynamics, "evolve", "dynamics.evolve"),
    (a.dynamics, "rk4_propagate", "dynamics.rk4"),
    (adiasearch.cli, "main", "cli.main"),
)
# Spans whose function takes the public schedule= argument; the tracer
# passes a CountingSchedule there when the caller gave none or a plain
# linear one, which computes the same values.
SCHEDULE_TAKERS = ("runtime.running_time", "runtime.tabulate")


class CountingSchedule(a.LinearSchedule):
    """The linear schedule, counting calls to f and the points evaluated.

    A subclass, so any isinstance fast path in the library is taken the
    same way. Only evaluations made inside a runtime span are counted.
    """

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def f(self, s):
        tracer = self._tracer
        if tracer.runtime_depth:
            tracer.integrand_calls += 1
            tracer.integrand_points += s.size if isinstance(s, np.ndarray) else 1
        return a.LinearSchedule.f(self, s)


class Tracer:
    """Spans kept in memory as [name, parent index, start, end], and counts.

    Counters are plain attributes because they are bumped on hot paths.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.runtime_depth = 0
        self.integrand_calls = 0
        self.integrand_points = 0
        self.rk4_steps = 0
        self.matvec_calls = 0
        self.matvec_bytes = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def counts(self) -> dict[str, int]:
        return {
            "runtime.integrand_calls": self.integrand_calls,
            "runtime.integrand_points": self.integrand_points,
            "dynamics.rk4_steps": self.rk4_steps,
            "hamiltonian.matvec_calls": self.matvec_calls,
            "hamiltonian.matvec_bytes": self.matvec_bytes,
        }

    def _spanned(self, name: str, fn):
        tracer = self
        signature = inspect.signature(fn)
        in_runtime = name.startswith("runtime.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            if name in SCHEDULE_TAKERS:
                schedule = bound.arguments.get("schedule")
                if schedule is None or type(schedule) is a.LinearSchedule:
                    bound.arguments["schedule"] = CountingSchedule(tracer)
            elif name == "dynamics.rk4":
                tracer.rk4_steps += int(bound.arguments["nsteps"])
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append([name, parent, time.perf_counter(), None])
            tracer._stack.append(index)
            tracer.runtime_depth += in_runtime
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                tracer.runtime_depth -= in_runtime
                tracer._stack.pop()
                tracer.spans[index][3] = time.perf_counter()

        return wrapper

    def _counted_apply(self, fn):
        tracer = self

        @functools.wraps(fn)
        def apply(applier, f, g, psi):
            out = fn(applier, f, g, psi)
            tracer.matvec_calls += 1
            # computed, not measured: read state and diagonal, write result
            tracer.matvec_bytes += psi.nbytes + applier.final_diag.nbytes + out.nbytes
            return out

        return apply

    def _replace(self, owner, attr: str, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "adiasearch" or key.startswith("adiasearch.")]
        for home, attr, name in SPANNED:
            original = getattr(home, attr)
            wrapped = self._spanned(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._replace(module, attr, wrapped)
        cls = a.MatrixFreeHamiltonian
        self._replace(cls, "apply", self._counted_apply(cls.apply))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def child_totals(self) -> Counter:
        """Time covered by direct children, keyed (parent index, child name)
        and (parent index, None) for all children together."""
        totals: Counter = Counter()
        for name, parent, start, end in self.spans:
            if parent is not None:
                totals[parent, name] += end - start
                totals[parent, None] += end - start
        return totals
