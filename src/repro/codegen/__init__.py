"""Code generation (subsystem S9): the paper's open question, answered.

Four backends share one analysis of the PSM:

* :mod:`repro.codegen.vhdl` — entities + synchronous FSM architectures;
* :mod:`repro.codegen.verilog` — modules + always-block FSMs;
* :mod:`repro.codegen.systemc` — SC_MODULEs with SC_METHOD FSMs;
* :mod:`repro.codegen.python_gen` — complete, executable Python whose
  behaviour matches the interpreted model.

``generate_all`` runs every backend over a scope; ``validators`` checks
structural validity of the results.
"""

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
from .transpile import (
    PYTHON_PRELUDE,
    Untranslatable,
    to_c_expression,
    to_python_expression,
    to_python_statements,
    to_verilog_expression,
    to_vhdl_expression,
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
