"""Fault injection & resilience (subsystem S11, PR 2).

The answer to the "hole in the head" critique of executable UML for
SoCs: early simulation is only a credible verification argument if the
model can be exercised under *adversarial* conditions — lost, delayed,
duplicated and corrupted bus transactions, hung cores, IRQ storms.

* :class:`FaultCampaign` / :class:`FaultSpec` — declarative, seedable,
  JSON-serializable fault descriptions addressed by part/port/connector
  and windowed in simulated time.
* :class:`FaultInjector` — deterministic application of a campaign over
  the cosimulation routing layer.
* :class:`ResilienceReport` — structured, byte-deterministic record of
  injections, part failures, quarantines, restarts, restores and
  kernel incidents; merges order-independently across seeds.
* :func:`run_campaign` / :class:`CampaignSpec` — crash-tolerant,
  resumable multi-seed sweep runner (process pool, watchdog + retry,
  append-only journal; PR 5).

Kernel-side robustness (watchdog, livelock/deadlock detection, bounded
queues) lives in :mod:`repro.simulation.kernel`; the graceful part
degradation policies live in :mod:`repro.simulation.cosim`.
"""

from .campaign import FAULT_KINDS, FaultCampaign, FaultSpec
from .injector import FaultInjector
from .report import PART_ERROR_POLICIES, ResilienceReport
from .runner import (
    CampaignResult,
    CampaignSpec,
    backoff_delay,
    read_journal,
    run_campaign,
    run_seed,
)

__all__ = [
    "FAULT_KINDS",
    "FaultCampaign",
    "FaultSpec",
    "FaultInjector",
    "PART_ERROR_POLICIES",
    "ResilienceReport",
    "CampaignResult",
    "CampaignSpec",
    "backoff_delay",
    "read_journal",
    "run_campaign",
    "run_seed",
]
