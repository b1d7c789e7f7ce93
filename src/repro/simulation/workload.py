"""Timelines for the dynamic-EBSN simulator.

A :class:`Timeline` assigns, for each event of an instance, a posting
time and a start (freeze) time, and for each user an arrival time.
:meth:`Timeline.moments` puts these in the one replay order that both
the simulator and the service load generator walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import Instance
from repro.exceptions import ReproError

#: Moment kinds, in their tie-break order within one instant: posts,
#: then arrivals, then freezes -- a user arriving exactly at an event's
#: start time still catches it.
POST, ARRIVE, FREEZE = 0, 1, 2


@dataclass(frozen=True)
class Timeline:
    """Event posting/start times and user arrival times.

    Attributes:
        post_times: ``(n_events,)`` -- when each event becomes visible.
        start_times: ``(n_events,)`` -- when each event freezes; must be
            strictly after its posting time.
        arrival_times: ``(n_users,)`` -- when each user registers.
    """

    post_times: np.ndarray
    start_times: np.ndarray
    arrival_times: np.ndarray

    def __post_init__(self) -> None:
        if self.post_times.shape != self.start_times.shape:
            raise ReproError("post_times and start_times must align")
        if np.any(self.start_times <= self.post_times):
            raise ReproError("every event must start after it is posted")

    @property
    def horizon(self) -> float:
        """Last instant anything happens."""
        last_start = float(self.start_times.max()) if self.start_times.size else 0.0
        last_arrival = (
            float(self.arrival_times.max()) if self.arrival_times.size else 0.0
        )
        return max(last_start, last_arrival)

    def moments(self) -> list[tuple[float, int, int]]:
        """Every post, arrival and freeze as ``(time, kind, entity)``, in order.

        ``kind`` is :data:`POST`, :data:`ARRIVE` or :data:`FREEZE`;
        ``entity`` is the event or user index. Ties sort by kind, then
        by index.
        """
        moments = [(float(t), POST, e) for e, t in enumerate(self.post_times)]
        moments += [(float(t), ARRIVE, u) for u, t in enumerate(self.arrival_times)]
        moments += [(float(t), FREEZE, e) for e, t in enumerate(self.start_times)]
        moments.sort()
        return moments

    def validate_against(self, instance: Instance) -> None:
        """Check the timeline covers exactly the instance's entities."""
        if self.post_times.shape[0] != instance.n_events:
            raise ReproError(
                f"timeline covers {self.post_times.shape[0]} events, "
                f"instance has {instance.n_events}"
            )
        if self.arrival_times.shape[0] != instance.n_users:
            raise ReproError(
                f"timeline covers {self.arrival_times.shape[0]} users, "
                f"instance has {instance.n_users}"
            )


def random_timeline(
    instance: Instance,
    rng: np.random.Generator,
    horizon: float = 100.0,
    min_lead_time: float = 10.0,
) -> Timeline:
    """Sample a random timeline for ``instance``.

    Events are posted uniformly over the first part of the horizon and
    start after a lead time of at least ``min_lead_time``; users arrive
    uniformly over the whole horizon (so late arrivals miss early
    events -- the effect the rebatch policy must cope with).
    """
    if horizon <= min_lead_time:
        raise ReproError("horizon must exceed min_lead_time")
    post = rng.uniform(0.0, horizon - min_lead_time, size=instance.n_events)
    lead = rng.uniform(min_lead_time, horizon / 2, size=instance.n_events)
    start = np.minimum(post + lead, horizon)
    # Guarantee strict ordering even after the clamp above.
    start = np.maximum(start, post + 1e-6)
    arrivals = rng.uniform(0.0, horizon, size=instance.n_users)
    return Timeline(post_times=post, start_times=start, arrival_times=arrivals)
