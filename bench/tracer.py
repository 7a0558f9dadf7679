"""Spans recorded from outside the library by swapping in timing wrappers.

While `Tracer.installed()` is active, the functions and methods listed in
TARGETS are replaced, in their defining module and in every paradiff module
that imported them by name, by wrappers that time each call. A SPAN call
gets its own record (name, start, end, parent). A LEAF runs 10^5 times or
more per solve, so it only adds its count and time to an aggregate kept
under the innermost open span. Everything stays in memory; `to_json` dumps
it when the run ends. Nothing under src/ is modified.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

SPAN, LEAF = "span", "leaf"

# (module, attribute or Class.method, span name, kind). Leaves must not
# call other targets: their time is charged whole to the enclosing span.
TARGETS = [
    ("fem", "build_fine_grid", "fem.build_fine_grid", SPAN),
    ("fem", "generate_field", "fem.generate_field", SPAN),
    ("fem", "assemble_fine", "fem.assemble_fine", SPAN),
    ("fem", "reference_solve", "fem.reference_solve", SPAN),
    ("msbasis", "build_multiscale_space", "msbasis.build_multiscale_space", SPAN),
    ("msbasis", "build_coarse_partition", "msbasis.build_coarse_partition", SPAN),
    ("msbasis", "detect_continua", "msbasis.detect_continua", SPAN),
    ("msbasis", "build_nlmc_basis", "msbasis.build_nlmc_basis", SPAN),
    ("msbasis", "split_spaces", "msbasis.split_spaces", SPAN),
    ("msbasis", "project_coarse", "msbasis.project_coarse", SPAN),
    ("msbasis", "project_load", "msbasis.project_load", SPAN),
    ("msbasis", "subspace_angle", "msbasis.subspace_angle", SPAN),
    ("stepping", "project_initial", "stepping.project_initial", SPAN),
    ("stepping", "SplitPropagators.stability_max_step", "stepping.stability_max_step", SPAN),
    ("stepping", "SplitPropagators.coarse_step", "stepping.coarse_step", SPAN),
    ("stepping", "SplitPropagators.fine_interval", "stepping.fine_interval", SPAN),
    ("stepping", "SplitPropagators.split_step", "stepping.split_step", LEAF),
    ("allatonce", "WaveformRelaxation.__init__", "allatonce.WaveformRelaxation.init", SPAN),
    ("allatonce", "WaveformRelaxation.solve", "allatonce.WaveformRelaxation.solve", SPAN),
    ("allatonce", "ImplicitAllAtOnce.solve", "allatonce.ImplicitAllAtOnce.solve", LEAF),
    ("allatonce", "build_rhs", "allatonce.build_rhs", LEAF),
    ("parareal", "build_fine_propagator", "parareal.build_fine_propagator", SPAN),
    ("parareal", "run_parareal", "parareal.run_parareal", SPAN),
    ("parareal", "initial_sweep", "parareal.initial_sweep", SPAN),
    ("parareal", "check_stop", "parareal.check_stop", SPAN),
    ("parareal", "SequentialFine.propagate", "parareal.fine.propagate", SPAN),
    ("parareal", "AllAtOnceFine.propagate", "parareal.fine.propagate", SPAN),
    ("experiment", "build_pipeline", "experiment.build_pipeline", SPAN),
    ("experiment", "run_single", "experiment.run_single", SPAN),
]

MODULES = ("fem", "msbasis", "stepping", "allatonce", "parareal", "experiment")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        # (parent span index, leaf name) -> [calls, seconds]
        self.leaves: dict[tuple[int, str], list] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), float("nan"), self._open[-1] if self._open else -1))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def add_leaf(self, name: str, seconds: float) -> None:
        key = (self._open[-1] if self._open else -1, name)
        entry = self.leaves.get(key)
        if entry is None:
            self.leaves[key] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def _wrap(self, fn, name: str, kind: str):
        if kind == LEAF:
            clock = self.clock

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.add_leaf(name, clock() - start)

            return leaf

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return spanned

    @contextmanager
    def installed(self):
        """Swap every target for its wrapper; restore the originals on exit."""
        package = importlib.import_module("paradiff")
        modules = {m: importlib.import_module(f"paradiff.{m}") for m in MODULES}
        undo = []
        try:
            for module, target, name, kind in TARGETS:
                cls, _, attr = target.rpartition(".")
                if cls:
                    holders = [getattr(modules[module], cls)]
                    original = holders[0].__dict__[attr]
                else:
                    original = getattr(modules[module], attr)
                    holders = [
                        m for m in (package, *modules.values()) if m.__dict__.get(attr) is original
                    ]
                wrapper = self._wrap(original, name, kind)
                for holder in holders:
                    setattr(holder, attr, wrapper)
                    undo.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    # ---- aggregates -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus what its child spans and leaves cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        for (parent, _), (_, seconds) in self.leaves.items():
            if parent >= 0:
                own[parent] -= seconds
        return own

    def calls(self, name: str) -> tuple[int, float]:
        """(count, total seconds) of the spans or leaves called name."""
        durations = [s.end - s.start for s in self.spans if s.name == name]
        count, total = len(durations), float(sum(durations))
        for (_, leaf), (n, seconds) in self.leaves.items():
            if leaf == name:
                count += n
                total += seconds
        return count, total

    def self_time(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_times()) if s.name == name)

    def leaf_calls_per_span(self, leaf: str, span: str) -> list[int]:
        """Leaf call count under each span of the given name, in span order."""
        counts = {i: 0 for i, s in enumerate(self.spans) if s.name == span}
        for (parent, name), (n, _) in self.leaves.items():
            if name == leaf and parent in counts:
                counts[parent] += n
        return list(counts.values())

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def to_json(self) -> dict:
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "spans": [[s.name, s.start - t0, s.end - t0, s.parent] for s in self.spans],
            "leaves": [[parent, name, n, seconds] for (parent, name), (n, seconds) in self.leaves.items()],
        }


def critical_path(tracer: Tracer, run_index: int) -> float:
    """Modelled parareal wall time with one core per interval.

    Walks the direct children of one run_parareal span in order: the initial
    coarse sweep and every coarse call are serial, and the fine calls of an
    iteration (closed by its check_stop) overlap, so only the slowest counts.
    """
    total, slowest = 0.0, 0.0
    for s in tracer.children(run_index):
        duration = s.end - s.start
        if s.name == "parareal.fine.propagate":
            slowest = max(slowest, duration)
        elif s.name in ("parareal.initial_sweep", "stepping.coarse_step"):
            total += duration
        elif s.name == "parareal.check_stop":
            total += slowest
            slowest = 0.0
    return total + slowest
