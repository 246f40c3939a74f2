"""Per-layer tracing from outside the program.

The tracer wraps the public entry points of each kalisim layer while a traced
operation runs and restores them afterwards, so an untraced operation runs
none of its code. A span's self time is its duration minus the time of the
spans it encloses; spans are aggregated per name (calls and self time) as
they close instead of being stored, because a perfect-sampling run opens
millions.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

# What Tracer.instrument wraps for the duration of a traced operation, besides
# the lazy ``RandomStream.generator``: (kalisim submodule, function, span name)
# and the model's methods with their span names.
MODULE_FUNCTIONS = (
    ("perfect", "perfect_sample", "perfect.perfect_sample"),
    ("perfect", "backward_clan", "perfect.backward_clan"),
    ("perfect", "forward_accept", "perfect.forward_accept"),
    ("forward", "forward_simulate", "forward.forward_simulate"),
)
MODEL_METHODS = {
    "sample_neighborhood": "models.sample_neighborhood",
    "component_value": "models.component_value",
    "local_bound": "models.local_bound",
}


def entry_points(kalisim, model) -> list:
    """Everything ``Tracer.instrument`` wraps, as the program sees it now.

    Two equal snapshots, one taken before tracing and one after, show that no
    wrapper was left behind.
    """
    return (
        [getattr(getattr(kalisim, module), fn) for module, fn, _ in MODULE_FUNCTIONS]
        + [kalisim.RandomStream.__dict__["generator"]]
        + [model.__dict__.get(method) for method in MODEL_METHODS]
    )


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.clan_sizes: list[int] = []
        # one slot per open span, accumulating the time of its child spans
        self._open: list[list[float]] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``after`` sees each result."""
        clock = time.perf_counter
        open_spans = self._open
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += span
                calls[name] += 1
                self_s[name] += span - children[0]
            if after is not None:
                after(result)
            return result

        return traced

    def self_total(self) -> float:
        return sum(self.self_s.values())

    # -- instrumentation -------------------------------------------------------

    def instrument_ledger(self, ledger) -> None:
        """Wrap the ledger an operation receives; it is dropped with the ledger."""

        def realized(result):
            fresh, old = result
            self.counters["sampling.realize_new.fresh_points"] += len(fresh)
            self.counters["sampling.realize_new.reused_points"] += len(old)

        ledger.advance = self.wrap("sampling.advance", ledger.advance)
        ledger.realize_new = self.wrap("sampling.realize_new", ledger.realize_new, realized)

    @contextmanager
    def instrument(self, kalisim, model):
        """Wrap the module-level entry points, the model's methods and the lazy
        ``RandomStream.generator`` for the duration of the block."""
        after = {"perfect.backward_clan": lambda graph: self.clan_sizes.append(graph.clan_size())}
        stream_cls = kalisim.RandomStream
        saved = [(getattr(kalisim, module), fn, name) for module, fn, name in MODULE_FUNCTIONS]
        originals = [getattr(mod, fn) for mod, fn, _ in saved]
        lazy_generator = stream_cls.__dict__["generator"]
        build = self.wrap("sampling.rng_build", lazy_generator.fget)

        def generator(stream):
            # the property caches its generator in ``_gen``; only a first
            # access constructs one, and only that is counted and timed
            return build(stream) if stream._gen is None else stream._gen

        try:
            for (mod, fn, name), original in zip(saved, originals):
                setattr(mod, fn, self.wrap(name, original, after.get(name)))
            for method, name in MODEL_METHODS.items():
                setattr(model, method, self.wrap(name, getattr(model, method)))
            stream_cls.generator = property(generator)
            yield self
        finally:
            stream_cls.generator = lazy_generator
            for method in MODEL_METHODS:
                model.__dict__.pop(method, None)
            for (mod, fn, _), original in zip(saved, originals):
                setattr(mod, fn, original)
