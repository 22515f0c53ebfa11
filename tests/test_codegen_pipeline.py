"""Multi-backend codegen: one sequential path, deterministic order."""

import pytest

from repro.codegen import BACKENDS, generate_all, generate_all_parallel
from repro.errors import CodegenError
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.metamodel import Model


def soc_model():
    model = Model("pipeline_test")
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x400)
    ram = make_memory("Ram", size_bytes=0x400)
    make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x400)],
             package=model)
    return model


class TestDeterminism:
    def test_byte_identical_to_sequential(self):
        """All backends at once equal each backend run alone, in
        :data:`BACKENDS` order."""
        model = soc_model()
        together = generate_all(model)
        assert list(together) == list(BACKENDS)
        for backend in BACKENDS:
            assert together[backend] \
                == generate_all(model, backends=(backend,))[backend]

    def test_repeated_runs_identical(self):
        model = soc_model()
        assert generate_all(model) == generate_all(model)

    def test_backend_subset_keeps_canonical_order(self):
        result = generate_all(soc_model(), backends=("python", "vhdl"))
        assert list(result) == ["vhdl", "python"]

    def test_former_parallel_name_is_the_same_function(self):
        assert generate_all_parallel is generate_all


class TestErrors:
    def test_unknown_backend_rejected(self):
        with pytest.raises(CodegenError):
            generate_all(soc_model(), backends=("fortran",))


class TestPerfCounters:
    def test_per_backend_wall_time_recorded(self):
        from repro.perf import PERF

        PERF.reset()
        generate_all(soc_model())
        for backend in BACKENDS:
            stats = PERF.stats(f"codegen.{backend}.wall_s")
            assert stats is not None and stats["count"] == 1
