"""Accounting tests for the traced run.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

* Self times of the wrapped layers plus each root's untimed remainder
  add up to the root spans (tolerance: 1 microsecond per root).
* On ``cosim``, the wrapped ``send``, ``emit`` and ``schedule`` totals
  agree with cProfile's cumulative times for the same functions, call
  counts exactly and times within ``PROFILE_TOLERANCE``.
* Restoring the wrappers leaves the program exactly as it was.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import layers  # noqa: E402
import models  # noqa: E402

harness.import_program()

import workload_cosim  # noqa: E402

#: Allowed relative gap between a wrapper's total and cProfile's
#: cumulative time for the same function, both taken in one profiled
#: run, after removing cProfile's per-call hook cost that the wrapper's
#: clock sees and cProfile's does not (measured on an empty method).
#: What remains is that cost's jitter, a larger share the shorter the
#: function: ``schedule`` takes about a microsecond per call.
PROFILE_TOLERANCE = {"engine.send": 0.10, "trace.emit": 0.20,
                     "kernel.schedule": 0.40}

#: Allowed gap, per root, between a root's duration and the sum of the
#: layer self times plus its untimed remainder.
ROOT_TOLERANCE_NS = 1000


def _cosim(tmp_path, seed=7):
    path = str(tmp_path / "soc.xmi")
    models.write_soc(path, seed)
    return path, workload_cosim.start(path)


def test_toy_nesting_accounts_exactly():
    class Toy:
        def outer(self, depth):
            time.sleep(0.0005)
            for _ in range(3):
                self.inner(depth)

        def inner(self, depth):
            if depth:
                self.outer(depth - 1)

    tracer = layers.Tracer()
    tracer.wrap_method(Toy, "outer", "toy.outer", "a", span=True)
    tracer.wrap_method(Toy, "inner", "toy.inner", "b")
    for index in range(3):
        with tracer.root("op", f"op:{index}"):
            Toy().outer(2)
    tracer.restore()
    roots_ns, accounted_ns = tracer.accounting()
    assert abs(roots_ns - accounted_ns) <= ROOT_TOLERANCE_NS * 3
    assert abs(sum(tracer.breakdown().values()) - 1.0) < 1e-6
    assert tracer.count("toy.outer") == 3 * 13
    assert tracer.count("toy.inner") == 3 * 39
    spans = {span["id"]: span for span in tracer.spans}
    for span in spans.values():
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["group"] == span["group"]
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]


def test_cosim_layers_account_for_each_root(tmp_path):
    path, simulation = _cosim(tmp_path)
    tracer = layers.Tracer()
    gaps = []

    def traced(name, group, work):
        roots_before, accounted_before = tracer.accounting()
        with tracer.root(name, group):
            work()
        roots_after, accounted_after = tracer.accounting()
        gaps.append((roots_after - roots_before)
                    - (accounted_after - accounted_before))

    for index in range(1, 6):
        layers.wrap_simulation(tracer, simulation)
        layers.wrap_xmi(tracer)
        traced("start", f"start:{index}",
               lambda: workload_cosim.start(path).close())
        traced("segment", "sim:1",
               lambda: simulation.run(until=index * 200.0))
        tracer.restore()
    simulation.close()
    assert len(gaps) == 10
    assert all(abs(gap) <= ROOT_TOLERANCE_NS for gap in gaps), gaps
    for name in ("engine.send", "engine.step", "trace.emit",
                 "kernel.schedule", "kernel.run", "cosim.construct",
                 "compile.machine", "xmi.read_file"):
        assert tracer.count(name) > 0, name
        assert 0 <= tracer.self_s(name) <= tracer.total_s(name)


def test_wrappers_agree_with_cprofile(tmp_path):
    class Empty:
        def ping(self, first, second):
            return None

    path, simulation = _cosim(tmp_path, seed=11)
    simulation.run(until=100.0)
    originals = {
        "engine.send": type(simulation.parts["s0_ram"].runtime).send,
        "trace.emit": type(simulation.bus).emit,
        "kernel.schedule": type(simulation.simulator).schedule,
        "empty.ping": Empty.ping,
    }
    tracer = layers.Tracer()
    layers.wrap_simulation(tracer, simulation)
    tracer.wrap_method(Empty, "ping", "empty.ping", "probe")
    profiler = cProfile.Profile()
    with tracer.root("segment", "sim:1"):
        profiler.enable()
        simulation.run(until=3000.0)
        empty = Empty()
        for _ in range(20000):
            empty.ping(1, 2)
        profiler.disable()
    tracer.restore()
    simulation.close()
    stats = pstats.Stats(profiler).stats

    def profiled(name):
        code = originals[name].__code__
        calls, _primitive, _tottime, cumtime, _callers = stats[
            (code.co_filename, code.co_firstlineno, code.co_name)]
        assert calls == tracer.count(name), name
        return cumtime

    # the wrapper's clock also sees cProfile's hooks around the call it
    # brackets: a fixed cost per call, measured on an empty method
    boundary = (tracer.total_s("empty.ping") - profiled("empty.ping")) \
        / tracer.count("empty.ping")
    for name, tolerance in PROFILE_TOLERANCE.items():
        cumtime = profiled(name)
        wrapped = tracer.total_s(name) - boundary * tracer.count(name)
        assert abs(wrapped - cumtime) <= tolerance * cumtime, \
            (name, wrapped, cumtime)


def test_restore_leaves_the_program_untouched(tmp_path):
    import repro.asl
    import repro.xmi

    _path, simulation = _cosim(tmp_path)
    before = (type(simulation.simulator).__dict__["schedule"],
              type(simulation.bus).__dict__["emit"],
              repro.asl.evaluate, repro.xmi.read_file)
    tracer = layers.Tracer()
    layers.wrap_simulation(tracer, simulation)
    layers.wrap_xmi(tracer)
    assert type(simulation.simulator).__dict__["schedule"] is not before[0]
    tracer.restore()
    after = (type(simulation.simulator).__dict__["schedule"],
             type(simulation.bus).__dict__["emit"],
             repro.asl.evaluate, repro.xmi.read_file)
    simulation.close()
    assert all(a is b for a, b in zip(before, after))
