"""Per-layer timing from outside the program.

A :class:`LayerTracer` replaces chosen functions and methods of the
``repro`` package with timing wrappers for the length of a ``with``
block and puts the originals back when the block exits.  Each wrapper
records, under a span name, the call count, the inclusive time and the
self time (inclusive time minus the time spent in wrapped calls made
from inside it).  Self times of all spans therefore add up to the time
spent inside the outermost wrapped calls, which is what lets a traced
pass be reconciled against its wall time.

Nothing here is imported by the program: untraced passes run the
unmodified code.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

perf_counter = time.perf_counter


class LayerTracer:
    """Timing wrappers installed on named callables, restored on exit."""

    def __init__(self) -> None:
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, bool, object]] = []

    # -- installation ----------------------------------------------------

    def _replace(self, owner, attr: str, replacement) -> None:
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, replacement)

    def time_calls(self, owner, attr: str, span: str, on_return=None) -> None:
        """Time every call of ``owner.attr`` under ``span``.

        ``on_return(tracer, args, result)`` runs after the call returns;
        it counts work done (pages moved, say) and is charged to the
        caller's self time, not to ``span``.
        """
        original = getattr(owner, attr)
        stack = self._stack
        inclusive, self_time, calls = self.inclusive, self.self_time, self.calls

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return_value = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                inclusive[span] += elapsed
                self_time[span] += elapsed - children
                calls[span] += 1
                if stack:
                    stack[-1] += elapsed
            if on_return is not None:
                on_return(self, args, return_value)
            return return_value

        self._replace(owner, attr, timed)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under ``name`` without timing them."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, counted)

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextlib.contextmanager
    def installed(self, install):
        """Run ``install(self)`` to place the wrappers; restore them on exit."""
        try:
            install(self)
            yield self
        finally:
            self.restore()

    # -- results ---------------------------------------------------------

    def top_level_seconds(self) -> float:
        """Time spent inside outermost wrapped calls (the sum of self times)."""
        return sum(self.self_time.values())
