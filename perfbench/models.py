"""The inputs the workloads hand to the program, all derived from the
benchmark's seed: the D8 SoC as XMI, D11's fault mix, D19's service
campaign and D16's five-property reference suite."""

from __future__ import annotations

import json
import random


def write_soc(path: str, seed: int, address_range: int = 0x800) -> None:
    """D8's SoC: one traffic generator, a bus and a 0x800-byte RAM.

    The seed picks the generator's LCG start, and with it the address
    stream; ``address_range`` above 0x800 makes some accesses miss the
    RAM (D11's setting).
    """
    from repro import xmi
    from repro.hw import make_memory, make_soc, make_traffic_generator
    from repro.metamodel import Model

    model = Model("soc")
    cpu = make_traffic_generator("Cpu", period=2.0,
                                 address_range=address_range)
    for attribute in cpu.attributes:
        if attribute.name == "seed":
            attribute.set_default(random.Random(seed).randrange(1, 2**31))
    ram = make_memory("Ram", size_bytes=0x800)
    make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)],
             package=model)
    xmi.write_file(path, model)


def write_fault_mix(path: str, seed: int) -> None:
    """D11's five-fault mix (drop, duplicate, corrupt, delay, reorder)."""
    from repro.faults import FaultCampaign, FaultSpec

    campaign = FaultCampaign(
        [FaultSpec("drop", signal="ReadResp", probability=0.15),
         FaultSpec("duplicate", signal="Read", probability=0.1),
         FaultSpec("corrupt", signal="Write", field="addr", xor=0x4000,
                   probability=0.1),
         FaultSpec("delay", signal="WriteAck", delay=2.0, jitter=1.0,
                   probability=0.2),
         FaultSpec("reorder", signal="ReadResp", window=(50.0, 200.0))],
        name="mix", seed=seed)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(campaign.to_json())


def write_service_faults(path: str, seed: int) -> None:
    """D19's service campaign: dropped reads and delayed messages."""
    from repro.faults import FaultCampaign, FaultSpec

    campaign = FaultCampaign(
        [FaultSpec("drop", signal="Read", probability=0.3),
         FaultSpec("delay", delay=1.5, probability=0.4)],
        name="svc", seed=seed)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(campaign.to_json())


def write_reference_suite(path: str) -> None:
    """D16's five-kind reference property suite."""
    from repro.properties import (PropertySuite, absence, bounded_liveness,
                                  interaction_conformance, precedence,
                                  response)

    suite = PropertySuite([
        response("read-answered",
                 trigger={"signal": "Read", "part": "s0_ram"},
                 reaction={"signal": "ReadResp", "part": "m0_cpu"},
                 within=4.0),
        precedence("resp-after-read",
                   first={"signal": "Read", "part": "s0_ram"},
                   then={"signal": "ReadResp", "part": "m0_cpu"}),
        absence("no-nak", never={"signal": "Nak"}),
        bounded_liveness("traffic-flows",
                         match={"signal": "Read", "part": "s0_ram"},
                         at_least=3, by=30.0),
        interaction_conformance(
            "read-handshake",
            messages=[("bus", "s0_ram", "Read"),
                      ("bus", "m0_cpu", "ReadResp")],
            loop=(0, 256)),
    ], name="reference")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(suite.to_dict(), handle, sort_keys=True)


def seed_block(seed: int, salt: str, count: int) -> list:
    """``count`` consecutive run seeds, placed by the benchmark seed."""
    base = random.Random(f"{salt}:{seed}").randrange(1, 10**6) * 100
    return list(range(base, base + count))
