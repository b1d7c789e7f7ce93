"""The open remainder of a live store, kept up to date between batches.

Every engine batch solves the *restricted instance* the
simulator's rebatch (:func:`~repro.simulation.simulate`) builds: open
events keep their capacity, frozen and cancelled ones drop to zero, and
a pair's similarity is zeroed when the user's frozen seats conflict with
the event. :class:`OpenRemainder` holds that instance as persistent
arrays and folds in only what changed since the last batch:

* similarities of new events (rows) and new users (columns), copied from
  the store's own buffer (:meth:`ArrangementStore.similarities`);
* rows of events that froze, were cancelled or were retired drop to
  zero;
* the frozen-conflict mask grows as events freeze or new events conflict
  with frozen ones. Frozen seats are only ever released by a retire,
  which is rare, so a retire rebuilds everything from scratch;
* conflict components only ever merge (conflict edges arrive with new
  events and are never removed), so they live in one
  :class:`~repro.core.conflicts.DisjointSet`.

Buffers are allocated on the first batch and grown by doubling, so a
store that never runs a batch allocates none, and a batch allocates
nothing in proportion to the whole store except on growth.
"""

from __future__ import annotations

import numpy as np

from repro.core.conflicts import DisjointSet
from repro.service.store import ArrangementStore, ChangeLog, grown_to


class OpenRemainder:
    """Masked similarities, capacities and conflict components of a store.

    Attributes:
        n_events: Events folded in so far (a watermark: ids are
            append-only).
        n_users: Users folded in so far.
    """

    def __init__(self) -> None:
        self.n_events = 0
        self.n_users = 0
        self._sims = np.zeros((0, 0))
        self._capacity = np.zeros(0, dtype=np.int64)
        self._component = np.zeros(0, dtype=np.intp)
        self._components = DisjointSet()

    @property
    def sims(self) -> np.ndarray:
        """``(|V|, |U|)`` similarities, zero wherever no seat may go."""
        return self._sims[: self.n_events, : self.n_users]

    @property
    def event_capacities(self) -> np.ndarray:
        """Each event's capacity if it is open, else 0."""
        return self._capacity[: self.n_events]

    @property
    def components(self) -> np.ndarray:
        """Each event's conflict component, named by its smallest member."""
        return self._component[: self.n_events]

    def sync(self, store: ArrangementStore, changes: ChangeLog) -> tuple[range, range]:
        """Fold in everything that changed since the last sync.

        Returns the ids of the events and users that are new to the
        remainder: everything after a retire, which rebuilds it.
        """
        if changes.retired:
            self.n_events = self.n_users = 0
            self._components = DisjointSet()
        old_events, old_users = self.n_events, self.n_users
        n_events, n_users = store.n_events, store.n_users
        new_events, new_users = range(old_events, n_events), range(old_users, n_users)
        self._sims = grown_to(self._sims, (n_events, n_users))
        self._capacity = grown_to(self._capacity, (n_events,))
        self._component = grown_to(self._component, (n_events,))
        raw = store.similarities()
        sims, capacity = self._sims, self._capacity

        for event in {*new_events, *changes.events}:
            capacity[event] = store.event_capacity(event) if store.is_open(event) else 0
        is_open = capacity[:n_events] > 0
        # Rows of zero-capacity events never matter; zeroing them keeps
        # every "best similarity" below a real candidate.
        if new_users:
            np.multiply(
                raw[:old_events, old_users:],
                is_open[:old_events, None],
                out=sims[:old_events, old_users:n_users],
            )
        if new_events:
            np.multiply(
                raw[old_events:], is_open[old_events:, None],
                out=sims[old_events:n_events, :n_users],
            )
        for event in changes.events:
            if event < old_events and not is_open[event]:
                sims[event, :n_users] = 0.0

        # Frozen-conflict mask: (v, u) is blocked while u holds a frozen
        # event conflicting with v.
        components = self._components
        for event in new_events:
            components.add(event)
            for other in store.event_conflicts(event):
                if other < event:
                    components.union(event, other)
                if store.is_frozen(other):
                    self._block([event], other, store)
        for event in changes.events:
            if store.is_frozen(event):
                self._block(sorted(store.event_conflicts(event)), event, store)
        if new_events:
            self._component[:n_events] = [components.find(e) for e in range(n_events)]
        self.n_events, self.n_users = n_events, n_users
        return new_events, new_users

    def _block(self, events: list[int], frozen: int, store: ArrangementStore) -> None:
        holders = sorted(store.users_of(frozen))
        if events and holders:
            self._sims[np.ix_(events, holders)] = 0.0
