"""Layer timing from outside the program: wrap public entry points.

A :class:`Tracer` replaces functions and methods of the program with
timing wrappers for the duration of a traced operation and puts the
originals back afterwards.  Two kinds of wrapper exist:

* per-event calls (``send``, ``emit``, ``schedule`` ...) aggregate into
  a call count plus total and self time;
* coarse calls (construction, ``run``, ``run_seed``, a service request,
  a store load, a build stage) additionally record a span with a name,
  start, end, parent and the id of the seed, job or build it belongs to.

Every wrapper pushes a frame on one stack, so a call's *self* time is
its duration minus the durations of the wrapped calls it made.  The
benchmark opens a root span around each operation; the root's own self
time is the part no wrapper accounted for, so per-name self times plus
the roots' remainders add up exactly to the roots' durations.

Work done in forked children (campaign pool workers, daemon workers,
the codegen process pool) never passes through these wrappers.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_clock = time.perf_counter_ns


class Tracer:
    """Wrappers, a frame stack, per-name aggregates and spans."""

    def __init__(self):
        #: name -> [calls, total_ns, self_ns]
        self.calls: Dict[str, List[int]] = {}
        #: name -> layer, for :meth:`layer_self_ns`
        self.layer_of: Dict[str, str] = {}
        #: finished spans (plain dicts)
        self.spans: List[Dict[str, Any]] = []
        #: root name -> [roots, total_ns, untimed_ns]
        self.roots: Dict[str, List[int]] = {}
        self._stack: List[List[Any]] = []   # [child_ns, span_id]
        self._patches: List[Tuple[Any, str, Any]] = []
        self._next_span = 0
        self.group: Optional[str] = None
        #: factor applied by :meth:`total_s` and :meth:`self_s` (set to
        #: the run's host-speed factor to report reference seconds)
        self.scale = 1.0

    # -- installing wrappers ----------------------------------------------

    def wrap_method(self, cls: type, attr: str, name: str, layer: str,
                    span: bool = False) -> None:
        """Wrap ``attr`` on the class of ``cls``'s MRO that defines it
        (once, when several wrapped classes share that definition)."""
        for owner in cls.__mro__:
            if attr in owner.__dict__:
                original = owner.__dict__[attr]
                if callable(original) and not any(
                        patched is owner and patched_attr == attr
                        for patched, patched_attr, _ in self._patches):
                    self._patch(owner, attr, original,
                                self._wrapper(original, name, layer, span))
                return

    def wrap_function(self, function: Callable, name: str, layer: str,
                      span: bool = False) -> None:
        """Wrap every module-level binding of ``function`` in the loaded
        ``repro`` modules (``from x import f`` copies included)."""
        wrapper = self._wrapper(function, name, layer, span)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._patch(module, attr, function, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any,
               replacement: Any) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back (newest patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(self, function: Callable, name: str, layer: str,
                 span: bool) -> Callable:
        stats = self.calls.setdefault(name, [0, 0, 0])
        self.layer_of[name] = layer
        stack = self._stack

        if not span:
            def wrapper(*args, **kwargs):
                frame = [0, None]
                stack.append(frame)
                start = _clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    elapsed = _clock() - start
                    stack.pop()
                    stats[0] += 1
                    stats[1] += elapsed
                    stats[2] += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed
        else:
            def wrapper(*args, **kwargs):
                parent = self._open_span_id()
                self._next_span += 1
                frame = [0, self._next_span]
                stack.append(frame)
                start = _clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    end = _clock()
                    elapsed = end - start
                    stack.pop()
                    stats[0] += 1
                    stats[1] += elapsed
                    stats[2] += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed
                    self.spans.append({
                        "id": frame[1], "name": name, "parent": parent,
                        "group": self.group, "start_ns": start,
                        "end_ns": end, "self_ns": elapsed - frame[0]})
        functools.update_wrapper(wrapper, function)
        return wrapper

    def _open_span_id(self) -> Optional[int]:
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    # -- root spans (one per benchmark operation) --------------------------

    @contextmanager
    def root(self, name: str, group: str) -> Iterator[None]:
        """Time one operation of the workload as a root span."""
        if self._stack:
            raise RuntimeError(f"root span {name!r} opened inside a span")
        self.group = group
        self._next_span += 1
        frame = [0, self._next_span]
        self._stack.append(frame)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            elapsed = end - start
            totals = self.roots.setdefault(name, [0, 0, 0])
            totals[0] += 1
            totals[1] += elapsed
            totals[2] += elapsed - frame[0]
            self.spans.append({
                "id": frame[1], "name": name, "parent": None,
                "group": group, "start_ns": start, "end_ns": end,
                "self_ns": elapsed - frame[0]})
            self.group = None

    def run_root(self, name: str, group: str, work: Callable[[], Any]):
        """``work()`` as one root span; returns its result."""
        with self.root(name, group):
            return work()

    # -- reading the aggregates --------------------------------------------

    def count(self, name: str) -> int:
        return self.calls.get(name, [0, 0, 0])[0]

    def total_s(self, name: str) -> float:
        return self.calls.get(name, [0, 0, 0])[1] / 1e9 * self.scale

    def self_s(self, name: str) -> float:
        return self.calls.get(name, [0, 0, 0])[2] / 1e9 * self.scale

    def layer_self_ns(self) -> Dict[str, int]:
        """Self time per layer, summed over the layer's wrapped names."""
        layers: Dict[str, int] = {}
        for name, (_calls, _total, self_ns) in self.calls.items():
            layer = self.layer_of[name]
            layers[layer] = layers.get(layer, 0) + self_ns
        return layers

    def accounting(self) -> Tuple[int, int]:
        """(sum of root durations, layer self times + untimed remainders)."""
        roots_ns = sum(total for _n, total, _u in self.roots.values())
        untimed = sum(untimed for _n, _t, untimed in self.roots.values())
        return roots_ns, sum(self.layer_self_ns().values()) + untimed

    def breakdown(self) -> Dict[str, float]:
        """Each layer's share of the root spans' time, plus the share no
        wrapper accounted for (``untimed``); the shares add up to 1."""
        roots_ns = sum(total for _n, total, _u in self.roots.values())
        if not roots_ns:
            return {}
        shares = {layer: self_ns / roots_ns
                  for layer, self_ns in sorted(self.layer_self_ns().items())}
        shares["untimed"] = sum(untimed for _n, _t, untimed
                                in self.roots.values()) / roots_ns
        return shares



# -- the program's entry points ----------------------------------------------

def wrap_simulation(tracer: Tracer, simulation: Any) -> None:
    """Wrap the simulation layers, finding classes from a live
    :class:`~repro.simulation.SystemSimulation` so module moves inside
    the program do not break the wrappers."""
    import repro.asl
    import repro.statemachines

    kernel = type(simulation.simulator)
    tracer.wrap_method(kernel, "run", "kernel.run", "kernel", span=True)
    tracer.wrap_method(kernel, "schedule", "kernel.schedule", "kernel")
    tracer.wrap_method(kernel, "schedule_call", "kernel.schedule_call",
                       "kernel")
    tracer.wrap_method(type(simulation), "__init__", "cosim.construct",
                       "cosim", span=True)
    engines = {type(part.runtime) for part in simulation.parts.values()
               if part.runtime is not None}
    for engine in sorted(engines, key=lambda cls: cls.__qualname__):
        tracer.wrap_method(engine, "send", "engine.send", "statemachines")
        tracer.wrap_method(engine, "step", "engine.step", "statemachines")
    # the compiler: beside the compiled engine, else the package export
    compilers = [getattr(sys.modules[engine.__module__], "compile_machine",
                         None) for engine in engines]
    compilers.append(getattr(repro.statemachines, "compile_machine", None))
    compiler = next((found for found in compilers if found is not None),
                    None)
    if compiler is not None:
        tracer.wrap_function(compiler, "compile.machine", "statemachines")
    if simulation.bus is not None:
        tracer.wrap_method(type(simulation.bus), "emit", "trace.emit",
                           "trace")
    cosim_module = sys.modules[type(simulation).__module__]
    injector = getattr(cosim_module, "FaultInjector", None)
    if injector is not None:
        tracer.wrap_method(injector, "route", "faults.route", "faults")
    tracer.wrap_function(repro.asl.evaluate, "asl.evaluate", "asl")
    tracer.wrap_function(repro.asl.execute, "asl.execute", "asl")


def wrap_xmi(tracer: Tracer) -> None:
    import repro.xmi

    for name in ("read_file", "read_model", "write_file", "write_model"):
        tracer.wrap_function(getattr(repro.xmi, name), f"xmi.{name}",
                             "xmi", span=True)


# -- per-layer metrics shared by the simulation workloads ---------------------

def simulation_metrics(out: Any, tracer: Tracer, per: float) -> None:
    """Counts and self times per operation of the kernel, the engines,
    ASL, the trace bus and the fault injector."""
    out.metric("kernel.schedules", (tracer.count("kernel.schedule")
                                    + tracer.count("kernel.schedule_call"))
               / per, "count")
    out.metric("kernel.self_s", sum(
        tracer.self_s(name) for name in
        ("kernel.run", "kernel.schedule", "kernel.schedule_call")) / per,
        "s")
    for name, calls in (("engine.send", "engine.sends"),
                        ("engine.step", "engine.steps"),
                        ("asl.evaluate", "asl.evaluates"),
                        ("asl.execute", "asl.executes"),
                        ("trace.emit", "trace.emits"),
                        ("faults.route", "faults.routes")):
        out.metric(calls, tracer.count(name) / per, "count")
        out.metric(f"{name}_s", tracer.self_s(name) / per, "s")


def construction_metrics(out: Any, tracer: Tracer, per: float) -> None:
    """Simulation construction and machine compilation per operation."""
    out.metric("cosim.construct_s", tracer.total_s("cosim.construct") / per,
               "s")
    out.metric("compile.machines", tracer.count("compile.machine") / per,
               "count")
    out.metric("compile.s", tracer.total_s("compile.machine") / per, "s")
