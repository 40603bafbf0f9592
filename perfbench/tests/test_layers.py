"""The tracer's self times add up and its wrappers come off again."""

from __future__ import annotations

import time
from types import SimpleNamespace

from layers import Tracer


def make_module():
    mod = SimpleNamespace()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        mod.inner()
        mod.inner()

    mod.inner, mod.outer = inner, outer
    return mod


def test_self_times_exclude_nested_layers():
    mod = make_module()
    tracer = Tracer()
    tracer.time(mod, "outer", "outer")
    tracer.time(mod, "inner", "inner")
    t0 = time.perf_counter()
    mod.outer()
    wall = time.perf_counter() - t0
    total = tracer.self_s["outer"] + tracer.self_s["inner"]
    assert abs(total - wall) < 0.005
    assert tracer.self_s["inner"] >= 0.04
    assert 0.01 <= tracer.self_s["outer"] < tracer.self_s["inner"]
    assert tracer.counts == {"outer.calls": 1, "inner.calls": 2}


def test_uninstall_restores_every_attribute():
    mod = make_module()
    before = (mod.outer, mod.inner)
    tracer = Tracer()
    tracer.time(mod, "outer", "outer")
    tracer.count(mod, "inner", "n")
    tracer.count_delta(mod, "outer", "d", lambda _: 0)
    assert (mod.outer, mod.inner) != before
    tracer.uninstall()
    assert (mod.outer, mod.inner) == before


def test_class_methods_stay_methods():
    class Thing:
        hits = 0

        def work(self, n):
            self.hits += n
            return n

    tracer = Tracer()
    tracer.time(Thing, "work", "work")
    tracer.count_delta(Thing, "work", "hits", lambda t: t.hits)
    thing = Thing()
    assert thing.work(3) == 3
    assert tracer.counts["hits"] == 3
    assert tracer.counts["work.calls"] == 1
    tracer.uninstall()
    assert "work" in vars(Thing) and not hasattr(Thing.work, "__wrapped__")
