"""The traced run: spans around the calls into each layer's public names.

:class:`Tracer` replaces public names where their callers look them up
(module globals, class attributes), times every call, and keeps one span
per call — name, start, end, parent — in memory.  Per-node protocol
callbacks and per-node RNG spawns are too many to keep one by one, so
they are summed per layer instead (``HOT``); the enclosing span's self
time still excludes them.  A span's self time is its duration minus the
time its child spans and summed calls cover.

Pool workers are forked from the traced process: in them the tracer
puts every name back and re-wraps only ``check_invariants``, whose
timings ride the pool's telemetry ship-back as ``perfbench_span``
records.  Fabric workers are fresh interpreters and run unwrapped; their
numbers come from the records the program writes (see ``run.py``).
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

HOT = ("protocols.callback", "rng.spawn")


class ProgramProxy:
    """Forwards a ``NodeProgram``, timing ``act``/``on_observe``/``is_done``."""

    __slots__ = ("_program", "_act", "_observe", "_is_done", "_acc")

    def __init__(self, program: Any, acc: list[float]) -> None:
        self._program = program
        self._act = program.act
        self._observe = program.on_observe
        self._is_done = program.is_done
        self._acc = acc

    def act(self, ctx: Any) -> Any:
        t0 = perf_counter()
        intent = self._act(ctx)
        acc = self._acc
        acc[0] += perf_counter() - t0
        acc[1] += 1
        return intent

    def on_observe(self, ctx: Any, heard: Any) -> None:
        t0 = perf_counter()
        self._observe(ctx, heard)
        acc = self._acc
        acc[0] += perf_counter() - t0
        acc[1] += 1

    def is_done(self, ctx: Any) -> bool:
        t0 = perf_counter()
        done = self._is_done(ctx)
        acc = self._acc
        acc[0] += perf_counter() - t0
        acc[1] += 1
        return done

    def __getattr__(self, name: str) -> Any:
        return getattr(self._program, name)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index]
        self.hot: dict[str, list[float]] = {name: [0.0, 0] for name in HOT}
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.top_s = 0.0  # summed duration of spans without a parent
        self._stack: list[list[Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._fork_hook = False

    # -- spans ------------------------------------------------------------

    def _hot_total(self) -> float:
        return sum(acc[0] for acc in self.hot.values())

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        # frame: span index, children's duration, summed calls inside
        # children, summed-call clock at entry
        frame = [index, 0.0, 0.0, self._hot_total()]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            hot = self._hot_total() - frame[3]
            span[1], span[2] = start, end
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1] - (hot - frame[2])
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration
                self._stack[-1][2] += hot
            else:
                self.top_s += duration

    def self_total(self) -> float:
        """Summed self time of every span and every summed call."""
        return sum(self.self_s.values()) + self._hot_total()

    # -- patching ---------------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span(self, name: str) -> Callable[[Any], Any]:
        """A ``make`` for :meth:`patch`: wrap the original in a span."""

        def make(original: Any) -> Any:
            def traced(*args: Any, **kwargs: Any) -> Any:
                return self.call(name, original, *args, **kwargs)

            return traced

        return make

    def summed(self, name: str) -> Callable[[Any], Any]:
        """A ``make`` for :meth:`patch`: add the original's time to ``HOT`` ``name``."""
        acc = self.hot[name]

        def make(original: Any) -> Any:
            def timed(*args: Any, **kwargs: Any) -> Any:
                t0 = perf_counter()
                result = original(*args, **kwargs)
                acc[0] += perf_counter() - t0
                acc[1] += 1
                return result

            return timed

        return make

    def proxied(self, name: str, *, returns_pair: bool = False) -> Callable[[Any], Any]:
        """A ``make`` for program factories: a span, and proxies for the
        programs it returns (``returns_pair``: ``(programs, params)``)."""
        acc = self.hot["protocols.callback"]

        def make(original: Any) -> Any:
            def factory(*args: Any, **kwargs: Any) -> Any:
                made = self.call(name, original, *args, **kwargs)
                programs = made[0] if returns_pair else made
                wrapped = {node: ProgramProxy(p, acc) for node, p in programs.items()}
                return (wrapped, made[1]) if returns_pair else wrapped

            return factory

        return make

    def install(self) -> None:
        """Patch the public names each layer's callers look up."""
        from repro import chaos, rng
        from repro.experiments import exp_gap
        from repro.fabric import coordinator
        from repro.protocols import decay_broadcast
        from repro.sim import engine, mtstreams, vectorized

        self.patch(exp_gap, "c_n", self.span("graphs.build"))
        self.patch(chaos, "random_gnp", self.span("graphs.build"))
        self.patch(exp_gap, "make_round_robin_programs", self.proxied("protocols.make"))
        self.patch(exp_gap, "make_dfs_programs", self.proxied("protocols.make"))
        self.patch(
            decay_broadcast,
            "make_broadcast_programs",
            self.proxied("protocols.make", returns_pair=True),
        )
        self.patch(rng, "spawn_for_node", self.summed("rng.spawn"))
        self.patch(engine.Engine, "__init__", self.span("engine.init"))
        self.patch(engine.Engine, "run", self._engine_run)
        self.patch(mtstreams, "init_streams", self.span("mtstreams.init"))
        self.patch(exp_gap, "resilient_map", self.span("parallel.map"))
        self.patch(chaos, "resilient_map", self.span("parallel.map"))
        self.patch(chaos, "check_invariants", self.span("chaos.check"))
        self.patch(exp_gap, "run_gap_table", self.span("experiments.gap_table"))
        self.patch(coordinator, "run_fabric", self.span("fabric.run"))
        batch = vectorized.DecayBroadcastBatch
        self.patch(batch, "__init__", self.span("vectorized.init"))
        self.patch(batch, "run", self._vector_run)
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._enter_child)
            self._fork_hook = True

    def restore(self) -> None:
        """Put every patched name back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _enter_child(self) -> None:
        """In a forked pool worker: unwrap every name, then time only
        ``check_invariants``, whose records ride the chunk ship-back."""
        if not self._patches:
            return
        self.restore()
        from repro import chaos

        chaos.check_invariants = _emitting("chaos.check")(chaos.check_invariants)

    # -- wrappers that also count work -----------------------------------

    def _engine_run(self, original: Any) -> Any:
        def run(engine_self: Any, *args: Any, **kwargs: Any) -> Any:
            first = engine_self.slot
            result = self.call("engine.run", original, engine_self, *args, **kwargs)
            self.counts["engine.slots"] += engine_self.slot - first
            return result

        return run

    def _vector_run(self, original: Any) -> Any:
        def run(batch_self: Any, *args: Any, **kwargs: Any) -> Any:
            results = self.call("vectorized.run", original, batch_self, *args, **kwargs)
            self.counts["vectorized.trials"] += len(results)
            self.counts["vectorized.slots"] += sum(r.slots for r in results)
            return results

        return run

    def write(self, path: Path) -> None:
        """Write the spans and summed calls out as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": self.spans,
            "summed": {name: {"s": acc[0], "calls": acc[1]} for name, acc in self.hot.items()},
        }
        path.write_text(json.dumps(payload))


def _emitting(name: str) -> Callable[[Any], Any]:
    """Wrap a callable so each call's seconds go out as a telemetry record."""

    def make(original: Any) -> Any:
        from repro.telemetry.core import event

        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = perf_counter()
            result = original(*args, **kwargs)
            event("perfbench_span", name=name, dur_s=perf_counter() - t0)
            return result

        return timed

    return make
