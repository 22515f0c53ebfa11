"""Byte-determinism of the observability outputs (PR 4).

The trace streams of the interpreted and compiled engines are already
lockstep-identical (test_trace_bus.py); everything PR 4 derives from
those streams — coverage reports, collapsed profiles, flight-recorder
dumps, metrics renderings — must therefore be byte-identical too.
These tests are the executable statement of that guarantee, including
under a seeded fault campaign.
"""

import pytest

from repro.engine import ENGINE_MODES
from repro.faults import FaultCampaign, FaultSpec
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.observability import to_prometheus
from repro.simulation import SystemSimulation


def soc_top():
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x1000)
    ram = make_memory("Ram", size_bytes=0x800)
    return make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)])


def campaign(seed=1234):
    return FaultCampaign(
        [FaultSpec("drop", signal="ReadResp", probability=0.25),
         FaultSpec("delay", signal="WriteAck", delay=3.0, jitter=2.0,
                   probability=0.3),
         FaultSpec("corrupt", signal="Write", field="addr", xor=0x4000,
                   window=(20, 60), max_count=5)],
        name="lockstep", seed=seed)


def observe(engine, until=120.0, faults=None, seed=None):
    """One instrumented run; returns the textual artifacts."""
    with SystemSimulation(soc_top(), engine=engine, faults=faults,
                          fault_seed=seed, coverage=True, profile=True,
                          flight_recorder=128) as sim:
        sim.run(until=until)
        suite = sim.observability
        return {
            "coverage": suite.coverage_report().to_json(indent=2),
            "profile_time": "\n".join(suite.profile_lines("time")),
            "profile_steps": "\n".join(suite.profile_lines("steps")),
            "flight": suite.recorder.dump_text(sim, reason="lockstep",
                                               detail="end-of-run"),
        }


class TestLockstepArtifacts:
    @pytest.fixture(scope="class")
    def artifacts(self):
        # keyed by whether the engine is the compiled one
        return {engine == "compiled": observe(engine)
                for engine in ENGINE_MODES}

    def test_coverage_reports_byte_identical(self, artifacts):
        assert artifacts[False]["coverage"] == artifacts[True]["coverage"]
        assert '"total_percent"' in artifacts[False]["coverage"]

    def test_time_profiles_byte_identical(self, artifacts):
        assert artifacts[False]["profile_time"] \
            == artifacts[True]["profile_time"]
        assert artifacts[False]["profile_time"]  # non-trivial

    def test_step_profiles_byte_identical(self, artifacts):
        assert artifacts[False]["profile_steps"] \
            == artifacts[True]["profile_steps"]

    def test_flight_dumps_byte_identical(self, artifacts):
        assert artifacts[False]["flight"] == artifacts[True]["flight"]
        assert artifacts[False]["flight"].startswith('{"buffered"')


class TestLockstepUnderFaults:
    def test_campaign_artifacts_byte_identical(self):
        interpreted = observe("interpreted", faults=campaign(), seed=7)
        compiled = observe("compiled", faults=campaign(), seed=7)
        assert interpreted == compiled
        # the dump embeds the injector RNG state — still identical
        assert '"injector_rng"' in interpreted["flight"]

    def test_different_seeds_diverge(self):
        # sanity: the equality above is not vacuous
        first = observe("interpreted", faults=campaign(), seed=1)
        second = observe("interpreted", faults=campaign(), seed=2)
        assert first["flight"] != second["flight"]


class TestRerunDeterminism:
    def test_same_mode_reruns_identical(self):
        assert observe("compiled") == observe("compiled")

    def test_prometheus_of_equal_coverage_identical(self):
        first = observe("interpreted", until=60.0)
        second = observe("interpreted", until=60.0)
        from repro.observability import CoverageReport

        snapshot = {"counters": {}, "histograms": {}, "observations": {}}
        assert to_prometheus(
            snapshot, coverage=CoverageReport.from_json(first["coverage"])) \
            == to_prometheus(
                snapshot, coverage=CoverageReport.from_json(
                    second["coverage"]))
