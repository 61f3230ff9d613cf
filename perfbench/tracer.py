"""Spans and counters around cclab's layers, recorded from outside.

`Tracer.install` replaces public functions at the module bindings their
callers use (for example `cclab.measures.minimize_max`, which `disc` and
the prefix games look up at call time) with wrappers that time each call
as a span.  A span knows its parent, so each layer's self time is its
duration minus the time of the spans it caused.  Wrappers record only
between `start` and `stop`, so the output checkers run untraced.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = -1
        # (span id, parent id or -1, name, op index, start, end), in end order
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, name, start, child time]
        # (op index, span name) -> [calls, seconds, self seconds]
        self._layers: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self._caches: dict[str, Callable] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}

    # -- recording -----------------------------------------------------------

    def within(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def timed(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """fn wrapped in a span; after(args, result) records counts."""

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = len(self.spans) + len(self._stack)
            frame = [span_id, name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[2]
                layer = self._layers[self.op, name]
                layer[0] += 1
                layer[1] += duration
                layer[2] += duration - frame[3]
                parent = -1
                if self._stack:
                    self._stack[-1][3] += duration
                    parent = self._stack[-1][0]
                self.spans.append((span_id, parent, name, self.op, frame[2], end))
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        setattr(owner, attr, self.timed(name, getattr(owner, attr), after))

    def watch_cache(self, name: str, cached: Callable) -> None:
        """Count hits and misses of an lru_cache between start and stop."""
        self._caches[name] = cached

    def start(self, op: int) -> None:
        if not self._cache_start:
            self._cache_start = {
                name: (c.cache_info().hits, c.cache_info().misses)
                for name, c in self._caches.items()
            }
        self.op = op
        self.active = True

    def stop(self) -> None:
        self.active = False
        for name, cached in self._caches.items():
            hits, misses = self._cache_start[name]
            info = cached.cache_info()
            self.counts[f"{name}.cache_hits"] = info.hits - hits
            self.counts[f"{name}.cache_misses"] = info.misses - misses

    # -- results -------------------------------------------------------------

    def layers(self) -> list[list]:
        """[op index, span name, calls, seconds, self seconds] rows."""
        return [[op, name, *figures] for (op, name), figures in sorted(self._layers.items())]


def install(tracer: Tracer) -> None:
    """Wrap the layers the workloads reach, at their callers' bindings."""
    from cclab import compilers, majority, measures, pipeline, protocols, randomized

    def lp_rows(rows: int) -> None:
        tracer.maxima["lp.rows_max"] = max(tracer.maxima["lp.rows_max"], rows)

    def after_minimize(args, result) -> None:
        lp_rows(len(args[0]))

    def after_maximize(args, result) -> None:
        lp_rows(len(args[0][0]))
        if tracer.within("measures.bp"):
            tracer.counts["measures.bp.prefix_games"] += 1

    for module in (measures, randomized):
        tracer.patch(module, "minimize_max", "lp", after_minimize)
        tracer.patch(module, "maximize_min", "lp", after_maximize)
    tracer.patch(measures, "linprog", "measures.highs")
    tracer.patch(measures, "best_rectangle", "measures.separation")

    tracer.watch_cache("measures.disc", measures.disc)
    computed: dict[int, object] = {}

    def after_disc(args, result) -> None:
        # A cache hit returns the same object; count each solve once.
        if id(result) not in computed:
            computed[id(result)] = result
            tracer.counts["measures.disc.iterations"] += result.iterations

    tracer.patch(measures, "disc", "measures.disc", after_disc)

    bp_measure = measures.bp_measure

    def scored_bp(measure, f, eps):
        timed_apply = tracer.timed("measures.bp.score", measure.apply)
        return bp_measure(measures.MeasureFn(measure.name, timed_apply), f, eps)

    def after_bp(args, result) -> None:
        tracer.counts["measures.bp.candidates"] += result.candidate_count

    measures.bp_measure = tracer.timed("measures.bp", scored_bp, after_bp)

    def after_mc(args, result) -> None:
        tracer.counts["measures.mc.restarts_used"] += result.restarts_used

    tracer.patch(measures, "mc", "measures.mc", after_mc)

    for module in (compilers, randomized):
        tracer.patch(module, "compile_majority", "compilers.majority")
    tracer.watch_cache("majority.form", majority.majority_form)
    tracer.patch(compilers, "majority_form", "majority.form")

    def after_amplify(args, result) -> None:
        tracer.counts["randomized.amplify.support"] += len(result.support)

    tracer.patch(randomized, "amplify", "randomized.amplify", after_amplify)
    tracer.patch(randomized.RandomizedPPProtocol, "error", "randomized.error")
    for module in (protocols, randomized, pipeline, measures):
        tracer.patch(module, "pp_matrix", "protocols.pp_matrix")
    tracer.patch(pipeline, "run_pipeline", "pipeline.run")
