"""Dynamic EBSN simulation (extension beyond the paper's static snapshot).

The paper arranges one static snapshot of events and users. Real EBSNs
are dynamic: organisers post events ahead of their start times, users
register over time, and once an event starts its attendee list is frozen.
This subpackage replays that lifecycle so the static algorithms can be
evaluated *in situ*:

* :func:`~repro.simulation.simulator.simulate` -- replays a timeline of
  event postings, user arrivals and event freezes over a GEACC
  instance, first-come-first-served or, with ``rebatch=<solver>``,
  re-arranging everything not yet frozen just before each freeze;
* :func:`~repro.simulation.workload.random_timeline` -- workload
  generator for posting/arrival/start times.

The ablation benchmark ``benchmarks/test_ablation_policies.py`` compares
both against the clairvoyant offline optimum of the same instance.
"""

from repro.simulation.simulator import SimulationResult, simulate
from repro.simulation.workload import (
    ARRIVE,
    FREEZE,
    POST,
    Timeline,
    random_timeline,
)

__all__ = [
    "simulate",
    "SimulationResult",
    "Timeline",
    "random_timeline",
    "POST",
    "ARRIVE",
    "FREEZE",
]
