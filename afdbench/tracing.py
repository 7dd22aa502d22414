"""Layer spans for the traced run, recorded from the benchmark's own code.

:func:`layers_patched` wraps the public entry point of each layer of the
library for the duration of a ``with`` block and restores the originals
on exit.  Every call becomes a span; a span's *self* time is its duration
minus the time covered by the spans it caused, so nested layers (the
scheduler inside a compile, ``check_safety`` inside ``check_limit``) are
attributed once.  Spans are aggregated as they close: per layer, the self
time and call count, plus the per-call durations the report takes
percentiles of.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List

#: Layers whose per-call durations are kept (for percentiles).
KEEP_DURATIONS = ("runner", "cache.key", "cache.get", "cache.put")


def untraced(_name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """The span of the untraced path: just the call."""
    return fn(*args, **kwargs)


class Tracer:
    """Aggregates spans by layer name as they close."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.steps = 0
        self._child_s: List[float] = []

    def span(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self.self_s[name] += duration - self._child_s.pop()
            self.calls[name] += 1
            if name in KEEP_DURATIONS:
                self.durations[name].append(duration)
            if self._child_s:
                self._child_s[-1] += duration


def _layer_entry_points():
    """(owner, attribute, layer) for each wrapped public entry point."""
    import repro.compiled.system as compiled_system
    import repro.timed.registry as timed_registry
    from repro.cache.store import ResultStore
    from repro.core.afd import AFD
    from repro.faults.oracles import AfdValidityOracle
    from repro.ioa.scheduler import Scheduler
    from repro.problems.base import CrashProblem
    from repro.system.network import SystemBuilder

    return (
        (Scheduler, "run", "ioa"),
        (SystemBuilder, "build", "system"),
        (compiled_system, "compile_spec", "compiled"),
        (AFD, "check_limit", "core.check_limit"),
        (AFD, "check_safety", "core.check_safety"),
        (CrashProblem, "check_conditional", "problems"),
        (AfdValidityOracle, "check", "faults"),
        (timed_registry, "build_automaton", "timed"),
        (ResultStore, "key_for", "cache.key"),
        (ResultStore, "get", "cache.get"),
        (ResultStore, "put", "cache.put"),
    )


def _wrap(tracer: Tracer, layer: str, original: Callable[..., Any]) -> Callable[..., Any]:
    if layer == "ioa":

        def counted(*args: Any, **kwargs: Any) -> Any:
            execution = tracer.span(layer, original, *args, **kwargs)
            tracer.steps += len(execution)
            return execution

        return counted

    def traced(*args: Any, **kwargs: Any) -> Any:
        return tracer.span(layer, original, *args, **kwargs)

    return traced


@contextlib.contextmanager
def layers_patched(tracer: Tracer) -> Iterator[Tracer]:
    """Route every layer entry point through ``tracer`` inside the block.

    The library imports these names at call time (or looks them up on the
    class), so patching the defining module or class reaches every caller.
    """
    saved = []
    try:
        for owner, attribute, layer in _layer_entry_points():
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(tracer, layer, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
