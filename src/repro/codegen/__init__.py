"""Code generation (subsystem S9): the paper's open question, answered.

Three HDL backends and the testbenches share one analysis of the PSM
and one RTL lowering of it (:mod:`repro.codegen.base`: the port list
and the transition rows), which each renders in its own syntax:

* :mod:`repro.codegen.vhdl` — entities + synchronous FSM architectures;
* :mod:`repro.codegen.verilog` — modules + always-block FSMs;
* :mod:`repro.codegen.systemc` — SC_MODULEs with SC_METHOD FSMs;
* :mod:`repro.codegen.testbench` — VHDL and Verilog benches;

and :mod:`repro.codegen.python_gen` emits executable Python from the
model compiler's tables: exactly the machines it compiles, checked
against both engines by a differential test; other classes are
skipped with the compiler's reason.

``generate_all`` runs every backend over a scope; ``validators`` checks
structural validity of the results.  The ASL transpilers the backends
share live in :mod:`repro.asl.transpile` (re-exported here), so the
compiled engine uses them without loading this package.
"""

from ..asl.transpile import (
    PYTHON_PRELUDE,
    Untranslatable,
    to_c_expression,
    to_python_expression,
    to_python_statements,
    to_verilog_expression,
    to_vhdl_expression,
)
from . import python_gen, systemc, testbench, validators, verilog, vhdl
from .pipeline import (
    BACKENDS,
    generate_all,
    generate_all_parallel,
    generate_units,
)
from .base import (
    CodeWriter,
    MachineView,
    TransitionView,
    analyze_machine,
    collect_assigned_names,
    collect_sends,
    sanitize,
)
from .validators import (
    VALIDATORS,
    check_python,
    check_systemc,
    check_verilog,
    check_vhdl,
)


__all__ = [
    "python_gen", "systemc", "testbench", "validators", "verilog", "vhdl",
    "CodeWriter", "MachineView", "TransitionView", "analyze_machine",
    "collect_assigned_names", "collect_sends", "sanitize",
    "PYTHON_PRELUDE", "Untranslatable", "to_c_expression",
    "to_python_expression", "to_python_statements",
    "to_verilog_expression", "to_vhdl_expression",
    "VALIDATORS", "check_python", "check_systemc", "check_verilog",
    "check_vhdl",
    "BACKENDS", "generate_all", "generate_all_parallel", "generate_units",
]
