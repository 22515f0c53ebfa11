"""The import boundary: a process loads only the code its command runs.

``src/`` imports nothing outside the standard library, the compiled
engine imports nothing from :mod:`repro.codegen`, and
:mod:`repro.faults` loads its campaign runner (and with it
:mod:`repro.durable`) on first use, as :mod:`repro.store` loads its
modules.  Each check runs in a fresh
interpreter, because this test process has long since imported
everything.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro.metamodel as mm
from repro import xmi
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.statemachines import StateMachine

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Prepended to a check: ``import networkx`` then raises ImportError,
#: as on an interpreter where it is not installed.
WITHOUT_NETWORKX = "import sys\nsys.modules['networkx'] = None\n"


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter; returns its standard output."""
    path = [SRC] + [entry for entry in
                    os.environ.get("PYTHONPATH", "").split(os.pathsep)
                    if entry]
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout


def write_soc(path):
    """D8's SoC: a traffic generator, a decoding bus and a RAM."""
    model = mm.Model("demo")
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x800)
    ram = make_memory("Ram", size_bytes=0x800)
    make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)],
             package=model)
    xmi.write_file(str(path), model)


def write_lint_model(path):
    """One machine with an unreachable state and a completion livelock."""
    model = mm.Model("lint")
    ctl = model.add(mm.UmlClass("Ctl", is_active=True))
    machine = StateMachine("ctl")
    region = machine.region
    idle, spin, loop = (region.add_state(name)
                        for name in ("Idle", "Spin", "Loop"))
    region.add_transition(region.add_initial(), idle)
    region.add_transition(idle, spin, trigger="go")
    region.add_transition(spin, loop)
    region.add_transition(loop, spin)
    region.add_state("Orphan")
    ctl.add_behavior(machine, as_classifier_behavior=True)
    xmi.write_file(str(path), model)


def test_the_cli_imports_without_networkx():
    out = run_python(WITHOUT_NETWORKX + "import repro.cli\nprint('ok')\n")
    assert out == "ok\n"


def test_validate_reports_lint_findings_without_networkx(tmp_path):
    model = tmp_path / "lint.xmi"
    write_lint_model(model)
    out = run_python(WITHOUT_NETWORKX + textwrap.dedent("""
        import runpy
        sys.argv = ["repro", "validate", sys.argv[1]]
        try:
            runpy.run_module("repro", run_name="__main__")
        except SystemExit as exit:
            print("exit", exit.code)
        """), str(model))
    assert out.splitlines() == [
        "[warning] statemachine-lint @ ctl: state 'Orphan' is unreachable",
        "[warning] statemachine-lint @ ctl: completion livelock through "
        "states: Loop, Spin",
        "0 error(s), 2 warning(s), 2 finding(s) total",
        "exit 0",
    ]


def test_src_imports_only_the_standard_library():
    """Every module of the package, imported together, loads nothing an
    interpreter with only the standard library would lack."""
    out = run_python("""
        import pkgutil
        import sys
        baseline = set(sys.modules)
        import repro
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if module.name != "repro.__main__":
                __import__(module.name)
        stdlib = getattr(sys, "stdlib_module_names", None)
        if stdlib is None:  # before Python 3.10
            print("[]")
        else:
            # multiprocessing registers the main module as __mp_main__
            print(sorted({name.partition(".")[0] for name in sys.modules}
                         - baseline - stdlib - {"repro", "__mp_main__"}))
        """)
    assert out == "[]\n"


def test_a_compiled_simulation_loads_no_generator_and_no_runner(tmp_path):
    model = tmp_path / "soc.xmi"
    write_soc(model)
    out = run_python("""
        import sys
        import repro.metamodel as mm
        from repro import xmi
        from repro.simulation import SystemSimulation

        top = xmi.read_file(sys.argv[1]).model.resolve("Soc", mm.Component)
        with SystemSimulation(top, quantum=1.0, default_latency=1.0,
                              engine="compiled") as simulation:
            simulation.run(until=200.0)
            print(sorted(set(simulation.compile_report.values())),
                  simulation.messages_delivered > 0)
        print(sorted(name for name in sys.modules
                     if name.startswith("repro.codegen")
                     or name in ("repro.faults.runner", "repro.durable")))
        """, str(model))
    assert out.splitlines() == ["['compiled'] True", "[]"]


def test_repro_simulate_loads_no_generator_and_no_runner(tmp_path):
    model = tmp_path / "soc.xmi"
    write_soc(model)
    out = run_python("""
        import runpy
        import sys
        sys.argv = ["repro", "simulate", sys.argv[1], "--top", "Soc",
                    "--until", "100"]
        try:
            runpy.run_module("repro", run_name="__main__")
        except SystemExit as exit:
            assert not exit.code, exit.code
        print(sorted(name for name in sys.modules
                     if name.startswith("repro.codegen")
                     or name == "repro.faults.runner"))
        """, str(model))
    assert out.splitlines()[-1] == "[]"
    assert "  m0_cpu               [compiled]" in out.splitlines()


def test_the_campaign_runner_loads_on_first_use():
    out = run_python("""
        import sys
        import repro.faults
        print("repro.faults.runner" in sys.modules)
        from repro.faults import CampaignSpec, run_campaign
        from repro.faults import runner
        print(run_campaign is runner.run_campaign,
              CampaignSpec is runner.CampaignSpec,
              "repro.durable" in sys.modules)
        try:
            repro.faults.no_such_name
        except AttributeError as error:
            print(error)
        """)
    assert out.splitlines() == [
        "False",
        "True True True",
        "module 'repro.faults' has no attribute 'no_such_name'",
    ]


def test_the_store_loads_on_first_use():
    """Without ``--store`` or ``$REPRO_STORE`` a command asks for the
    active store and gets None, loading none of the store's modules."""
    out = run_python("""
        import os
        import sys
        os.environ.pop("REPRO_STORE", None)
        import repro.cli
        from repro.store import get_active_store
        store_modules = ("repro.store.artifacts", "repro.store.graph",
                         "repro.store.registry", "repro.durable")
        print(get_active_store(),
              [name for name in store_modules if name in sys.modules])
        from repro.store import ArtifactStore
        from repro.store import artifacts
        print(ArtifactStore is artifacts.ArtifactStore,
              [name for name in store_modules if name not in sys.modules])
        try:
            repro.store.no_such_name
        except AttributeError as error:
            print(error)
        """)
    assert out.splitlines() == [
        "None []",
        "True ['repro.store.registry']",  # until ModelRegistry is asked
        "module 'repro.store' has no attribute 'no_such_name'",
    ]
