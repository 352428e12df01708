"""Per-layer tracing of walkdelta, installed from outside the package.

``LayerTrace.install`` replaces public functions and methods of the imported
walkdelta modules with wrappers that record spans, timers and counters;
``uninstall`` puts the originals back. Every module that imported a function
by name gets the wrapper too, so calls between layers are seen. Nothing in
the package itself changes.

Coarse calls (a verifier check, one ``exact_deltas``, one eigendecomposition)
become spans: name, start, end, parent span and operation; each span adds
its duration to the timer ``<name>_s`` and one to the count ``<name>_calls``.
Hot calls (one walk step, one neighbour generation, one Z[sqrt 2] add or
multiply) only add to timers and counters, so that tracing them stays cheap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> (module, function) whose calls it records
SPANS = {
    "verifier.orbit_check": ("verifier", "orbit_check"),
    "verifier.end_to_end": ("verifier", "end_to_end"),
    "verifier.sign_and_promise": ("verifier", "sign_and_promise_check"),
    "verifier.exact_deltas": ("verifier", "exact_deltas"),
    "spectral.corner_entry": ("spectral", "corner_entry"),
    "circuits.overlap": ("circuits", "overlap"),
    "estimator.reachable_component": ("estimator", "reachable_component"),
    "estimator.delta_moment": ("estimator", "delta_moment"),
    "estimator.sample": ("estimator", "noisy_estimate"),
}


class LayerTrace:
    """Spans, timers and counters of one traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op = 0
        self.reset()

    def reset(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._spaces: dict[int, object] = {}

    def take(self) -> dict:
        """Every timer, counter and maximum since the last take, then reset."""
        out = {f"{k}_s": v for k, v in self.seconds.items()}
        out.update(self.counts)
        out.update(self.maxima)
        self.reset()
        return out

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.seconds[name] += rec["end"] - rec["start"]
            self.counts[f"{name}_calls"] += 1

    @contextmanager
    def operation(self, name: str):
        """One operation, as a fresh ``walkdelta`` process would run it.

        The clock image caches are emptied first, as they are in a new
        process, so their misses count the same in every round.
        """
        from walkdelta import clock

        caches = (clock.forward_images, clock.backward_images)
        for cache in caches:
            cache.cache_clear()
        self._op += 1
        try:
            with self.span(name):
                yield
        finally:
            self.counts["clock.image_cache_misses"] += sum(
                c.cache_info().misses for c in caches
            )
            self.counts["rewriting.vertices_interned"] += sum(
                len(space) for space in self._spaces.values()
            )
            self._spaces.clear()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from walkdelta import circuits, clock, estimator, rewriting, spectral, verifier

        modules = {
            "verifier": verifier,
            "spectral": spectral,
            "circuits": circuits,
            "estimator": estimator,
        }
        for name, (module, attr) in SPANS.items():
            self._replace(modules[module], attr, self._spanned(name))
        self._replace(rewriting, "step", self._step)
        self._replace(estimator, "spectral_measure", self._spectral_measure)
        for method in ("neighbors", "weighted_neighbors"):
            self._replace_method(clock.ClockSystem, method, self._neighbors)
        for method in ("__add__", "__mul__"):
            self._replace_method(circuits.Root2Frac, method, self._root2_op)
        self._replace_method(verifier.ReachableGraph, "__init__", self._reachable_graph)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, module, attr: str, make) -> None:
        """Wrap module.attr, and every walkdelta name bound to the same object."""
        original = getattr(module, attr)
        wrapper = functools.wraps(original)(make(original))
        for name, mod in list(sys.modules.items()):
            if name != "walkdelta" and not name.startswith("walkdelta."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _replace_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, functools.wraps(original)(make(original)))

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    def _step(self, fn):
        def step(system, v):
            t0 = time.perf_counter()
            out = fn(system, v)
            self.seconds["rewriting.step"] += time.perf_counter() - t0
            self.counts["rewriting.steps"] += 1
            entries = out.entries
            maxima = self.maxima
            maxima["rewriting.max_frontier"] = max(
                maxima["rewriting.max_frontier"], len(entries)
            )
            maxima["rewriting.max_int_bits"] = max(
                maxima["rewriting.max_int_bits"],
                max(map(int.bit_length, entries.values()), default=0),
            )
            self._spaces[id(out.space)] = out.space
            return out

        return step

    def _spectral_measure(self, fn):
        def spectral_measure(graph, state):
            self.maxima["estimator.eigh_dim"] = max(self.maxima["estimator.eigh_dim"], len(graph))
            with self.span("estimator.spectral_measure"):
                return fn(graph, state)

        return spectral_measure

    def _neighbors(self, fn):
        def neighbors(system, s):
            t0 = time.perf_counter()
            try:
                return fn(system, s)
            finally:
                self.seconds["clock.neighbors"] += time.perf_counter() - t0
                self.counts["clock.neighbors_calls"] += 1

        return neighbors

    def _root2_op(self, fn):
        def op(a, b):
            self.counts["circuits.root2_ops"] += 1
            return fn(a, b)

        return op

    def _reachable_graph(self, fn):
        def init(graph, *args, **kwargs):
            with self.span("verifier.reachable_graph"):
                fn(graph, *args, **kwargs)
            self.counts["verifier.reachable_graph_vertices"] += len(graph)

        return init
