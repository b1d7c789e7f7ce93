"""Property: the typed-buffer digest separates exactly what the canonical
state separates.

``ArrangementStore.digest`` hashes the state's typed buffers instead of
its canonical JSON. Over service-driven command histories, and over
copies of each history's store that differ from it in exactly one thing
(a lifecycle flag, one attribute by one ulp, one moved seat, one
conflict edge, one counter), two stores have equal digests if and only
if their canonical states are equal.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings

from repro.service.journal import replay
from repro.service.store import FROZEN, STATE_BUFFERS, ArrangementStore
from tests.property.test_prop_journal import command_scripts, drive


def rebuilt(store: ArrangementStore, edit=None, **counters: int) -> ArrangementStore:
    """A copy of ``store`` through its buffers, after ``edit(buffers)``."""
    buffers = {
        name: buf.copy() for (name, _), buf in zip(STATE_BUFFERS, store.state_buffers())
    }
    if edit is not None:
        edit(buffers)
    base = {
        "seq": store.seq,
        "requests_seen": store.requests_seen,
        "batches_committed": store.batches_committed,
    }
    return ArrangementStore.from_buffers(
        store.config, {**base, **counters}, [buffers[name] for name, _ in STATE_BUFFERS]
    )


def one_thing_variants(store: ArrangementStore) -> list[ArrangementStore]:
    """Copies of ``store`` that each differ from it in exactly one thing."""
    variants = [
        rebuilt(store, seq=store.seq + 1),
        rebuilt(store, requests_seen=store.requests_seen + 1),
        rebuilt(store, batches_committed=store.batches_committed + 1),
    ]
    if store.n_events:

        def flip_flag(buffers: dict) -> None:
            buffers["event_flags"][0] ^= FROZEN

        def one_ulp(buffers: dict) -> None:
            attrs = buffers["event_attributes"]
            attrs[0, 0] = np.nextafter(attrs[0, 0], np.inf)

        variants += [rebuilt(store, flip_flag), rebuilt(store, one_ulp)]
    if store.n_users:

        def user_ulp(buffers: dict) -> None:
            attrs = buffers["user_attributes"]
            attrs[-1, -1] = np.nextafter(attrs[-1, -1], -np.inf)

        variants.append(rebuilt(store, user_ulp))
    if store.n_events >= 2:
        pairs = {tuple(p) for p in store.state_buffers()[3].tolist()}
        toggled = (0, 1)

        def toggle_edge(buffers: dict) -> None:
            edges = pairs ^ {toggled}
            buffers["conflicts"] = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)

        variants.append(rebuilt(store, toggle_edge))
    seats = {tuple(p) for p in store.state_buffers()[6].tolist()}
    movable = [
        (event, user, other)
        for event, user in sorted(seats)
        for other in range(store.n_users)
        if (event, other) not in seats
    ]
    if movable:
        event, user, other = movable[0]

        def move_seat(buffers: dict) -> None:
            moved = (seats - {(event, user)}) | {(event, other)}
            buffers["seats"] = np.array(sorted(moved), dtype=np.int64).reshape(-1, 2)
            buffers["user_remaining"][user] += 1
            buffers["user_remaining"][other] -= 1

        variants.append(rebuilt(store, move_seat))
    return variants


@settings(max_examples=25, deadline=None)
@given(first=command_scripts(), second=command_scripts())
def test_digest_equal_iff_canonical_state_equal(first, second, tmp_path_factory) -> None:
    base = tmp_path_factory.mktemp("digest")
    live = drive(base / "a.jsonl", *first)
    other = drive(base / "b.jsonl", *second)
    replayed, _ = replay(base / "a.jsonl")
    pool = [live, replayed, rebuilt(live), other, *one_thing_variants(live)]
    assert live.digest() == replayed.digest() == rebuilt(live).digest()
    for a, b in itertools.combinations(pool, 2):
        assert (a.digest() == b.digest()) == (a.canonical_state() == b.canonical_state())
    for variant in one_thing_variants(live):
        assert variant.digest() != live.digest()
