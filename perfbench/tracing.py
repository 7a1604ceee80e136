"""Spans around public calls and per-kind counters on model methods.

The traced pass wraps the public entry points a workload calls (``run_chain``,
``min_ess_report``, each CLI verb, and ``run_chain``/``build_model`` as
``dhmc.cli`` binds them) in spans, and the model methods in counters.  Model
calls get a count and a total time per kind instead of one span each, because
a coordinate-wise chain makes millions of them.

Every ``CHECK_EVERY``-th ``potential_diff`` call is also compared against the
reference ``potential(new) - potential(old)``, computed with the unwrapped
methods so that the check neither counts as a model call nor adds to model
time.  Time spent checking is kept apart, and span self-times exclude it.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from contextlib import contextmanager

MODEL_KINDS = ("potential", "potential_diff", "grad_smooth")

# Prime, so the subsample does not lock onto the sweep length of a workload.
CHECK_EVERY = 61
# Tolerance of the fast-path check, relative to the magnitude of the two
# potentials (not of their difference, which can cancel to ~0).
REL_TOL = 1e-9

Span = namedtuple("Span", "name start end parent inner_s")


class Tracer:
    """In-memory spans and model-call counters for one traced round."""

    def __init__(self):
        self.spans = []
        self._stack = []
        # kind -> [calls, seconds]; lists so the wrappers update them in place
        self.counters = {kind: [0, 0.0] for kind in MODEL_KINDS}
        self.check_s = 0.0
        self.checked = 0
        self.mismatches = []

    def calls(self, kind: str) -> int:
        return self.counters[kind][0]

    def seconds(self, kind: str) -> float:
        return self.counters[kind][1]

    def model_s(self) -> float:
        return sum(c[1] for c in self.counters.values())

    def _inner_s(self) -> float:
        """Time spent in model calls and fast-path checks so far."""
        return self.model_s() + self.check_s

    def span(self, name: str, fn):
        """Wrap ``fn`` so that every call records a span named ``name``."""
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            inner0 = self._inner_s()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, t0, t1, parent,
                                       self._inner_s() - inner0)
        return wrapper

    def total_s(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_s(self, name: str) -> float:
        """Summed self time of the spans called ``name``.

        Self time is a span's duration minus its child spans and minus the
        model calls and checks made directly inside it.
        """
        child_dur = [0.0] * len(self.spans)
        child_inner = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_dur[s.parent] += s.end - s.start
                child_inner[s.parent] += s.inner_s
        total = 0.0
        for i, s in enumerate(self.spans):
            if s.name == name:
                own_inner = s.inner_s - child_inner[i]
                total += (s.end - s.start) - child_dur[i] - own_inner
        return total

    def _counted(self, fn, counter):
        pc = time.perf_counter

        def wrapper(*args):
            t0 = pc()
            out = fn(*args)
            counter[1] += pc() - t0
            counter[0] += 1
            return out
        return wrapper

    def _checked_diff(self, name, diff, potential, counter):
        pc = time.perf_counter

        def wrapper(theta, j, value):
            t0 = pc()
            out = diff(theta, j, value)
            counter[1] += pc() - t0
            counter[0] += 1
            if counter[0] % CHECK_EVERY == 0:
                self._check(name, potential, theta, j, value, out)
            return out
        return wrapper

    def _check(self, name, potential, theta, j, value, got):
        t0 = time.perf_counter()
        old = potential(theta)
        moved = theta.copy()
        moved[j] = value
        new = potential(moved)
        want = new - old
        if want == math.inf:
            ok = got == math.inf
        else:
            scale = max(1.0, abs(old), abs(new))
            ok = math.isfinite(got) and abs(got - want) <= REL_TOL * scale
        self.checked += 1
        if not ok:
            self.mismatches.append(
                f"{name}: potential_diff(j={int(j)}, value={float(value)!r}) "
                f"= {float(got)!r}, reference {float(want)!r}")
        self.check_s += time.perf_counter() - t0

    def instrument(self, model):
        """Install counters on the model instance; returns an undo function.

        A model without ``potential_diff`` keeps it unset, so the program
        takes the same path as when untraced.
        """
        originals = {kind: getattr(model, kind, None) for kind in MODEL_KINDS}
        saved = {kind: model.__dict__[kind] for kind in MODEL_KINDS
                 if kind in model.__dict__}
        for kind, fn in originals.items():
            if fn is None:
                continue
            if kind == "potential_diff":
                wrapper = self._checked_diff(model.name, fn,
                                             originals["potential"],
                                             self.counters[kind])
            else:
                wrapper = self._counted(fn, self.counters[kind])
            setattr(model, kind, wrapper)

        def undo():
            for kind in MODEL_KINDS:
                if kind in saved:
                    setattr(model, kind, saved[kind])
                else:
                    model.__dict__.pop(kind, None)
        return undo


@contextmanager
def patched(module, name: str, wrap):
    """Replace ``module.name`` by ``wrap(module.name)`` inside the block."""
    original = getattr(module, name)
    setattr(module, name, wrap(original))
    try:
        yield
    finally:
        setattr(module, name, original)
