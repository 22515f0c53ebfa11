"""Multi-backend code generation.

The four backends (VHDL, Verilog, SystemC, Python) each read the model
scope and write their own file set.  :func:`generate_all` runs them one
after another in the fixed :data:`BACKENDS` order;
:func:`generate_units` is its per-component, store-backed form for
incremental builds.

Backends do not fan out over a pool.  A process pool lost to the
sequential loop on a 16-component PSM (523–534 elements, 2-core host):
200 ms vs 177 ms median for ``generate --backend all``, slower in 19
of 20 interleaved pairs, with ~1 MB more peak RSS.  Threads bought
nothing at 25 components (73 ms vs 72 ms).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..errors import CodegenError
from ..metamodel.element import Element
from ..perf import PERF
from . import python_gen, systemc, verilog, vhdl

#: Fixed backend order — output dicts always iterate in this order.
BACKENDS: Tuple[str, ...] = ("vhdl", "verilog", "systemc", "python")

_GENERATORS: Dict[str, Callable[[Element], Dict[str, str]]] = {
    "vhdl": vhdl.generate,
    "verilog": verilog.generate,
    "systemc": systemc.generate,
    "python": lambda scope: {
        "generated.py": python_gen.generate_module(scope)},
}


def _ordered(backends: Sequence[str]) -> List[str]:
    """The requested backends in :data:`BACKENDS` order."""
    unknown = [name for name in backends if name not in _GENERATORS]
    if unknown:
        raise CodegenError(f"unknown codegen backends: {unknown!r} "
                           f"(available: {sorted(_GENERATORS)})")
    return [name for name in BACKENDS if name in backends]


def generate_all(scope: Element, backends: Sequence[str] = BACKENDS
                 ) -> Dict[str, Dict[str, str]]:
    """Run the requested backends; returns ``{backend: {filename:
    text}}`` in :data:`BACKENDS` order.

    Per-backend wall time lands in ``PERF`` under
    ``codegen.<backend>.wall_s``.
    """
    results: Dict[str, Dict[str, str]] = {}
    for backend in _ordered(backends):
        with PERF.timed(f"codegen.{backend}.wall_s"):
            results[backend] = _GENERATORS[backend](scope)
    return results


#: The former parallel entry point, bound to the same function so code
#: that looks it up (or wraps it) by this name keeps working.
generate_all_parallel = generate_all


def generate_units(scope: Element,
                   backends: Sequence[str] = BACKENDS
                   ) -> Dict[str, Dict[str, Dict[str, str]]]:
    """Per-unit, store-backed code generation.

    The build-graph view of codegen: one artifact per (backend,
    hardware component), keyed by the backend, the component's
    qualified name (the files print it) and the subtree fingerprints
    (:func:`repro.metamodel.model.element_fingerprint`) of the
    component and of each of its generalizations (the backends read
    inherited attributes).  With an
    active :mod:`repro.store`, unchanged components are served warm and
    only edited components regenerate — editing one part of a SoC
    regenerates exactly that part's units.  Returns ``{backend:
    {component qualified name: {filename: text}}}`` in fixed
    :data:`BACKENDS` order; unit content is byte-identical to running
    the backend over that component alone.
    """
    from ..metamodel.model import element_fingerprint
    from ..store import get_active_store
    from .base import hardware_components

    ordered = _ordered(backends)
    components = hardware_components(scope)
    if not components:
        raise CodegenError("no components found to generate units for")
    store = get_active_store()

    results: Dict[str, Dict[str, Dict[str, str]]] = {}
    with PERF.timed("codegen.units_s"):
        for backend in ordered:
            units: Dict[str, Dict[str, str]] = {}
            for component in components:
                unit_name = component.qualified_name or component.name
                label = f"{backend}:{unit_name}"
                inputs = tuple(element_fingerprint(classifier) for classifier
                               in (component,) + component.all_generals())
                store_key = None
                if store is not None:
                    store_key = store.make_key("codegen", backend, unit_name,
                                               *inputs)
                    payload = store.load("codegen", store_key,
                                         inputs=inputs, label=label)
                    if isinstance(payload, dict) and payload and all(
                            isinstance(name, str)
                            and isinstance(text, str)
                            for name, text in payload.items()):
                        units[unit_name] = dict(payload)
                        continue
                files = _GENERATORS[backend](component)
                if store is not None:
                    store.save("codegen", store_key, files,
                               inputs=inputs,
                               meta={"backend": backend,
                                     "component": unit_name},
                               label=label)
                units[unit_name] = files
            results[backend] = units
    return results
