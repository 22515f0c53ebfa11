"""Multi-backend code generation.

The four backends (VHDL, Verilog, SystemC, Python) each read the model
scope and write their own file set.  :func:`generate_all` runs them one
after another in the fixed :data:`BACKENDS` order; it is the one path
from a model to code (``repro generate``).

Generated files are not stored: a store-backed per-component form made
cold 16-component builds take 191/204 ms against 126/130 ms (2-core
host) and saved at most ~20 ms warm.

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
