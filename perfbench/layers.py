"""Per-layer attribution measured from outside the program.

The tracer replaces a layer's entry point — at the name its caller looks
up, e.g. ``repro.execsim.simulator.evaluate_partition`` — with a wrapper
that times the call.  A layer's self time is its wrapped time minus the
time of wrapped calls nested inside it, so self times never double
count.  Count-only wrappers (``Box`` construction and intersection) add
no timing.  ``uninstall`` restores every original attribute.

The tracer is single-threaded by design: the replay and trace-generation
workloads run on one thread.  The served path is split from the server's
own event times instead (see ``worker.serve_layers``).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

perf_counter = time.perf_counter


class Tracer:
    """Self time and call counts per layer, for wrapped entry points."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[float] = []
        self._undo: list[tuple[Any, str, Any]] = []

    @contextmanager
    def discarding(self) -> Iterator[None]:
        """Run a block whose wrapped calls leave no trace in the figures."""
        self_s, counts = dict(self.self_s), Counter(self.counts)
        try:
            yield
        finally:
            self.self_s.clear()
            self.self_s.update(self_s)
            self.counts.clear()
            self.counts.update(counts)

    def swap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until uninstall."""
        # read the raw class/module attribute, so a plain function is
        # wrapped as a function (and binds as a method on a class)
        orig = vars(owner)[attr]
        setattr(owner, attr, make(orig))
        self._undo.append((owner, attr, orig))

    def time(self, owner: Any, attr: str, layer: str, *,
             count: str | None = None) -> None:
        """Time every call of ``owner.attr`` as ``layer``.

        ``count`` names the call counter (default ``<layer>.calls``).
        """
        counter = count or f"{layer}.calls"
        stack = self._stack
        self_s = self.self_s
        counts = self.counts

        def make(orig: Callable) -> Callable:
            def timed(*args: Any, **kwargs: Any) -> Any:
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    nested = stack.pop()
                    self_s[layer] += dt - nested
                    if stack:
                        stack[-1] += dt
                    counts[counter] += 1

            timed.__wrapped__ = orig  # type: ignore[attr-defined]
            return timed

        self.swap(owner, attr, make)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under ``name`` (no timing)."""
        counts = self.counts

        def make(orig: Callable) -> Callable:
            def counted(*args: Any, **kwargs: Any) -> Any:
                counts[name] += 1
                return orig(*args, **kwargs)

            counted.__wrapped__ = orig  # type: ignore[attr-defined]
            return counted

        self.swap(owner, attr, make)

    def count_delta(self, owner: Any, attr: str, name: str,
                    read: Callable[[Any], int]) -> None:
        """Add ``read(self_arg)`` after − before each call to ``name``."""
        counts = self.counts

        def make(orig: Callable) -> Callable:
            def delta(obj: Any, *args: Any, **kwargs: Any) -> Any:
                before = read(obj)
                try:
                    return orig(obj, *args, **kwargs)
                finally:
                    counts[name] += read(obj) - before

            delta.__wrapped__ = orig  # type: ignore[attr-defined]
            return delta

        self.swap(owner, attr, make)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def install_box_counts(tracer: Tracer) -> None:
    """``box.constructions`` and ``box.intersections`` (both entry points)."""
    from repro.amr.box import Box

    tracer.count(Box, "__post_init__", "box.constructions")
    tracer.count(Box, "intersection", "box.intersections")
    tracer.count(Box, "intersects", "box.intersections")


def install_replay_layers(tracer: Tracer) -> None:
    """The paper pipeline's layers below ``PragmaRuntime.run_adaptive``."""
    from repro.core import meta_partitioner
    from repro.execsim import reuse, simulator
    from repro.partitioners.base import Partitioner

    # the simulator first, so the remainder layer wraps everything else
    tracer.time(simulator.ExecutionSimulator, "run", "simulator",
                count="simulator.runs")
    tracer.time(meta_partitioner, "classify_hierarchy", "classify")
    tracer.time(reuse, "diff_hierarchies", "diff")
    tracer.time(reuse.UnitsReuseCache, "units_for", "units")
    tracer.count_delta(reuse.UnitsReuseCache, "units_for", "units.reused",
                       lambda cache: cache.hits)
    tracer.time(reuse, "composite_load_map", "units",
                count="units.map_builds")
    tracer.time(reuse, "update_composite_load_map", "units",
                count="units.map_updates")
    tracer.time(simulator, "build_units", "units")
    tracer.time(Partitioner, "partition", "partition")
    tracer.time(simulator, "evaluate_partition", "pac")
    tracer.time(simulator, "per_step_comm_times", "cost")
    install_box_counts(tracer)


def install_tracegen_layers(tracer: Tracer) -> None:
    """The AMR layers below ``generate_trace`` plus ``AdaptationTrace.save``."""
    from repro.amr import grid, regrid
    from repro.amr.trace import AdaptationTrace
    from repro.apps.rm3d import RM3D

    tracer.time(regrid.Regridder, "regrid", "regrid",
                count="regrid.calls")
    tracer.time(RM3D, "error_field", "fields")
    tracer.time(RM3D, "load_field", "fields")
    tracer.time(regrid, "cluster_flags", "cluster")
    tracer.time(grid.Level, "add", "level_add")
    tracer.time(AdaptationTrace, "save", "trace.save",
                count="trace.saves")
    install_box_counts(tracer)
