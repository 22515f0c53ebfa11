"""The warm-start lockstep gate (PR 8): an active artifact store must
be unobservable.  A simulation run under a cold store and again under
a warm one owes byte-identical trace streams to a store-less
reference — on both engines, plain and under a seeded fault campaign
— and a campaign sweep run against a warm store owes byte-identical
reports.  The store may only ever change *when* work happens, never
*what* comes out."""

import os

import pytest

import repro
import repro.metamodel as mm
import repro.store as store_mod
from repro import xmi
from repro.engine import TraceBus, TraceRecorder
from repro.faults import CampaignSpec, FaultCampaign, FaultSpec, \
    run_campaign
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.simulation import SystemSimulation
from repro.store import STORE_ENV, ArtifactStore, using_store

ENGINES = ("interpreted", "compiled")


@pytest.fixture(autouse=True)
def _isolated_store_state():
    os.environ.pop(STORE_ENV, None)
    store_mod._ACTIVE = None
    yield
    os.environ.pop(STORE_ENV, None)
    store_mod._ACTIVE = False


def replicated_top(pairs=2):
    cpu = make_traffic_generator("Cpu", period=2.0,
                                 address_range=0x1000)
    ram = make_memory("Ram", size_bytes=0x800)
    top = mm.Component("Soc")
    for index in range(pairs):
        cpu_part = top.add_part(f"cpu{index}", cpu)
        ram_part = top.add_part(f"ram{index}", ram)
        top.connect(cpu.port("bus"), ram.port("bus"),
                    cpu_part, ram_part, check=False)
    return top


def campaign(seed=1234):
    return FaultCampaign(
        [FaultSpec("drop", signal="ReadResp", probability=0.25),
         FaultSpec("delay", signal="WriteAck", delay=3.0, jitter=2.0,
                   probability=0.3)],
        name="store-lockstep", seed=seed)


def traced_run(engine, store, faults=None, seed=None, until=40.0):
    """One fresh build + traced run under ``store`` (None = no store).

    ``reset_ids`` makes every build id-identical, so a rebuild stands
    in for "another process opening the same store directory"."""
    repro.reset_ids()
    top = replicated_top()
    bus = TraceBus()
    recorder = TraceRecorder(bus)
    with using_store(store):
        with SystemSimulation(top, engine=engine, bus=bus,
                              faults=faults, fault_seed=seed) as sim:
            sim.run(until=until)
    return recorder.to_jsonl()


class TestWarmStartLockstep:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_cold_and_warm_match_the_storeless_reference(self, engine,
                                                         tmp_path):
        reference = traced_run(engine, store=None)
        cold = traced_run(engine, store=ArtifactStore(tmp_path))
        warm = traced_run(engine, store=ArtifactStore(tmp_path))
        assert reference  # non-vacuous: the trace has events
        assert cold == reference
        assert warm == reference

    @pytest.mark.parametrize("engine", ENGINES)
    def test_under_fault_campaign(self, engine, tmp_path):
        reference = traced_run(engine, store=None, faults=campaign(),
                               seed=7)
        cold = traced_run(engine, store=ArtifactStore(tmp_path),
                          faults=campaign(), seed=7)
        warm = traced_run(engine, store=ArtifactStore(tmp_path),
                          faults=campaign(), seed=7)
        assert cold == reference
        assert warm == reference


class TestCampaignWithStore:
    def _spec(self, tmp_path, engine):
        model = mm.Model("design")
        package = model.create_package("design")
        cpu = make_traffic_generator("Cpu", period=2.0,
                                     address_range=0x1000)
        ram = make_memory("Ram", size_bytes=0x800)
        make_soc("Soc", masters=[cpu],
                 slaves=[(ram, "bus", 0, 0x800)], package=package)
        model_file = tmp_path / "soc.xmi"
        xmi.write_file(str(model_file), model)
        campaign_file = tmp_path / "campaign.json"
        campaign_file.write_text(campaign().to_json())
        return CampaignSpec(seeds=[1, 2, 3], model=str(model_file),
                            top="design::Soc",
                            campaign=str(campaign_file), until=30.0,
                            name="store-sweep", engine=engine)

    @pytest.mark.parametrize("engine", ("interpreted", "compiled"))
    def test_store_backed_sweep_is_byte_identical(self, engine,
                                                  tmp_path):
        spec = self._spec(tmp_path, engine)
        reference = run_campaign(spec, workers=0)
        with using_store(ArtifactStore(tmp_path / "store")):
            cold = run_campaign(spec, workers=0)
        with using_store(ArtifactStore(tmp_path / "store")):
            warm = run_campaign(spec, workers=0)
        assert cold.to_json() == reference.to_json()
        assert warm.to_json() == reference.to_json()

