"""Golden digest manifest of the code generators' output.

One package holding the nine ``repro.hw`` IP cores (with the SoC
profile applied) goes through every backend (``generate_all``) plus the
VHDL and Verilog testbench generators.  Each file's blake2b digest must
equal the checked-in manifest ``tests/golden/codegen.json``, so a
change meant to leave the generated code alone (a cache, a refactor)
is checked byte for byte on every file.  A deliberate output change
must regenerate the manifest::

    PYTHONPATH=src python tests/test_codegen_golden.py --regenerate
"""

import hashlib
import json
import pathlib

import repro.metamodel as mm
from repro.codegen import generate_all
from repro.codegen.base import hardware_components
from repro.codegen.testbench import (
    generate_verilog_testbench,
    generate_vhdl_testbench,
)
from repro.hw import (
    make_arbiter,
    make_dma,
    make_fifo,
    make_interrupt_controller,
    make_memory,
    make_retry_master,
    make_timer,
    make_traffic_generator,
    make_uart_tx,
)
from repro.profiles.soc import create_soc_profile

MANIFEST = pathlib.Path(__file__).parent / "golden" / "codegen.json"

FACTORIES = (make_arbiter, make_dma, make_fifo, make_interrupt_controller,
             make_memory, make_retry_master, make_timer,
             make_traffic_generator, make_uart_tx)


def ip_package():
    profile = create_soc_profile()
    package = mm.Package("ip_cores")
    for factory in FACTORIES:
        package.add(factory(profile=profile))
    return package


def generated_files():
    """``{backend/filename: text}`` for every backend and testbench."""
    package = ip_package()
    files = {f"{backend}/{name}": text
             for backend, produced in generate_all(package).items()
             for name, text in produced.items()}
    for component in hardware_components(package):
        stem = component.name.lower()
        files[f"vhdl/{stem}_tb.vhd"] = generate_vhdl_testbench(component)
        files[f"verilog/{stem}_tb.v"] = generate_verilog_testbench(component)
    return files


def digest(text):
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def manifest():
    return {name: digest(text)
            for name, text in sorted(generated_files().items())}


class TestCodegenGolden:
    def test_every_file_matches_the_manifest(self):
        expected = json.loads(MANIFEST.read_text())
        produced = manifest()
        assert sorted(produced) == sorted(expected)
        changed = [name for name in expected
                   if produced[name] != expected[name]]
        assert changed == []

    def test_the_manifest_covers_all_four_backends_and_both_benches(self):
        expected = json.loads(MANIFEST.read_text())
        assert len(expected) == 46
        backends = {name.split("/")[0] for name in expected}
        assert backends == {"vhdl", "verilog", "systemc", "python"}
        assert sum(name.endswith("_tb.vhd") for name in expected) == 9
        assert sum(name.endswith("_tb.v") for name in expected) == 9


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        MANIFEST.parent.mkdir(exist_ok=True)
        MANIFEST.write_text(json.dumps(manifest(), indent=1) + "\n")
        print(f"regenerated {MANIFEST}")
