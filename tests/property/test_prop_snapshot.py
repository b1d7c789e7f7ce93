"""Property: snapshot + tail recovery is indistinguishable from replay.

For an *arbitrary* command sequence and *arbitrary* snapshot points,
recovering through the ladder (newest snapshot + journal tail) must
produce exactly the state a full journal replay produces -- same
canonical digest, same seq. The snapshot is an optimisation, never an
alternative history.

Reuses the service-driven command scripts of
:mod:`tests.property.test_prop_journal` so the journals carry every
record shape the serving layer can emit (events, conflicts, committed
micro-batch deltas, freezes, cancellations).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.journal import iter_records, replay
from repro.service.snapshot import recover_state, write_snapshot
from repro.service.store import ArrangementStore
from tests.property.test_prop_journal import command_scripts, drive


@settings(max_examples=25, deadline=None)
@given(
    script=command_scripts(),
    snapshot_fractions=st.lists(
        st.floats(0.0, 1.0), min_size=1, max_size=3, unique=True
    ),
)
def test_snapshot_plus_tail_equals_full_replay(
    script, snapshot_fractions, tmp_path_factory
) -> None:
    ops, seed = script
    base = tmp_path_factory.mktemp("snap")
    journal_path = base / "journal.jsonl"
    snapshot_dir = base / "snapshots"
    live = drive(journal_path, ops, seed)

    # Re-fold the journal, dropping snapshots at the drawn seqs (the
    # journal itself stays untrimmed so full replay remains possible).
    snap_seqs = sorted({int(f * live.seq) for f in snapshot_fractions})
    store: ArrangementStore | None = None
    for item, _ in iter_records(journal_path):
        if store is None:
            store = ArrangementStore(item.config)
            if 0 in snap_seqs:
                write_snapshot(store, snapshot_dir)
            continue
        store.apply(item)
        if store.seq in snap_seqs:
            write_snapshot(store, snapshot_dir)

    full, full_durable = replay(journal_path)
    recovered, durable, report = recover_state(journal_path, snapshot_dir)
    assert durable == full_durable
    assert recovered == full
    assert recovered.digest() == full.digest() == live.digest()
    assert recovered.seq == live.seq
    recovered.check_invariants()
    assert report.rung == "snapshot+tail"
    assert report.snapshot_seq == max(snap_seqs)
    assert report.records_replayed == live.seq - max(snap_seqs)
