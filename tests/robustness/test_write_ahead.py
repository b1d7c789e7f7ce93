"""The service's write-ahead order and fsync-before-ack, under FaultFS.

``test_faultfs.py`` sweeps crashes through the journal and snapshot
layers driven by hand. These tests drive :class:`ArrangementService`
itself, so they pin the order its write-ahead spine
(``_journal_and_apply``) keeps: a command's record is appended and
fsync'd, and only then does the store change.

* A crash at a command's record ``write`` or at its ``fsync`` must
  leave the live store exactly as it was before the command, and the
  durable world must recover to that same state. A spine that applies
  before it appends fails the first check.
* After every acknowledged step -- creation, each command, each
  compaction -- the durable world alone (nothing un-fsync'd survives)
  must recover, without a config to fall back on, to the live state.
  A journal writer that returns before its ``fsync`` fails this.
"""

import functools
from pathlib import Path
from typing import Callable

import pytest

from repro.robustness.faultfs import FaultFS, SimulatedCrash
from repro.service.frontend import ArrangementService
from repro.service.journal import Journal
from repro.service.snapshot import list_snapshots
from repro.service.store import ArrangementStore, StoreConfig

CONFIG = StoreConfig(dimension=2, t=10.0)

#: The virtual root every FaultFS run mounts; nothing real lives here.
ROOT = Path("/faultfs-virtual")
JOURNAL = ROOT / "journal.jsonl"
SNAPSHOTS = ROOT / "snapshots"

Step = Callable[[ArrangementService], object]

#: One step per command kind, each journaling exactly one record.
STEPS: list[tuple[str, Step]] = [
    ("post", lambda s: s.post_event(capacity=2, attributes=[1.0, 1.0])),
    ("register", lambda s: s.register_user(capacity=1, attributes=[2.0, 2.0])),
    ("post-conflicting", lambda s: s.post_event(capacity=1, attributes=[5.0, 5.0], conflicts=[0])),
    ("register-second", lambda s: s.register_user(capacity=2, attributes=[6.0, 4.0])),
    ("request", lambda s: s.request_assignment(0, wait=False)),
    ("batch", lambda s: s.run_pending_batch()),
    ("freeze", lambda s: s.freeze_event(0)),
]


def create(fs: FaultFS, **kwargs: object) -> ArrangementService:
    return ArrangementService.create(JOURNAL, CONFIG, fs=fs, threaded=False, **kwargs)


def recover_world(target: Path) -> tuple[ArrangementStore, Journal]:
    """Recover a materialised world with no config to fall back on."""
    journal, store = Journal.recover(
        target / JOURNAL.name, snapshot_dir=target / SNAPSHOTS.name
    )
    journal.close()
    return store, journal


def recover_durable(fs: FaultFS, target: Path) -> ArrangementStore:
    """Materialise the durable world and recover it."""
    fs.materialise(target, "durable")
    return recover_world(target)[0]


@functools.cache
def reference_run() -> tuple[list[str], list[tuple[int, str]]]:
    """One crash-free run: the op kinds, and each step's first op index
    and the store digest before it."""
    fs = FaultFS(ROOT)
    service = create(fs)
    starts = []
    for name, step in STEPS:
        starts.append((fs.op_count, service.store.digest()))
        seq = service.seq
        step(service)
        assert service.seq == seq + 1, f"{name} journaled {service.seq - seq} records"
    return list(fs.ops), starts


@pytest.mark.parametrize("kind", ["write", "fsync"])
@pytest.mark.parametrize("step", range(len(STEPS)), ids=[name for name, _ in STEPS])
def test_crash_at_a_commands_record_leaves_the_store_untouched(
    tmp_path: Path, step: int, kind: str
) -> None:
    ops, starts = reference_run()
    mark, before = starts[step]
    end = starts[step + 1][0] if step + 1 < len(starts) else len(ops)
    assert kind in ops[mark:end], f"{STEPS[step][0]} never calls {kind}"
    fs = FaultFS(ROOT, crash_at=ops.index(kind, mark) + 1)
    service = create(fs)
    for _, earlier in STEPS[:step]:
        earlier(service)
    assert service.store.digest() == before
    name, crashing = STEPS[step]
    with pytest.raises(SimulatedCrash, match=kind):
        crashing(service)
    # The record never became durable, so the store must not have moved.
    assert service.store.digest() == before, f"{name}: store changed before its fsync"
    assert recover_durable(fs, tmp_path).digest() == before


def test_every_acknowledged_step_is_durable(tmp_path: Path) -> None:
    """The durable world recovers to the live state after every ack.

    Compactions keep two snapshots, so the journal rewrite keeps a tail
    from the older one; the durable world must also survive losing the
    newest snapshot (one ladder rung down) with nothing lost.
    """
    fs = FaultFS(ROOT)
    service = create(fs, snapshot_dir=SNAPSHOTS, retain=2)
    compact = ArrangementService.compact
    steps: list[tuple[str, Step]] = [
        ("create", lambda s: None),
        *STEPS[:4],
        ("compact", compact),
        *STEPS[4:6],
        ("compact-again", compact),
        STEPS[6],
        ("compact-and-prune", compact),
    ]
    for index, (name, step) in enumerate(steps):
        step(service)
        live = service.store.digest()
        target = tmp_path / f"{index}-{name}"
        assert recover_durable(fs, target).digest() == live, name
        snapshots = list_snapshots(target / SNAPSHOTS.name)
        if len(snapshots) > 1:
            newest = snapshots[0][1]
            newest.write_bytes(newest.read_bytes()[:-1])
            store, journal = recover_world(target)
            assert journal.last_recovery is not None
            assert journal.last_recovery.snapshots_rejected, name
            assert store.digest() == live, f"{name}: older snapshot + tail"
