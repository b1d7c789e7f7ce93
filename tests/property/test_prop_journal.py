"""Property-based crash-recovery tests for the service journal.

Two invariants the serving layer stands on:

* **crash safety** -- truncate a journal at *any* byte past the header
  (the kill -9 window: a partial final ``write``) and ``replay`` must
  reconstruct exactly the state of the durable record prefix, never
  raising and never inventing or losing an accepted command;
* **batch-boundary independence** -- however a command stream is sliced
  into micro-batches, each run's journal replays to that run's exact
  live state (solver outputs travel as ``commit_batch`` deltas, so
  replay never re-solves and cannot drift from what the service
  acknowledged).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.frontend import ArrangementService
from repro.service.journal import Journal, encode_line, replay
from repro.service.store import ArrangementStore, StoreConfig

CONFIG = StoreConfig(dimension=2, t=10.0)

OPS = ("post", "register", "request", "freeze", "cancel")


@st.composite
def command_scripts(draw, min_ops: int = 3, max_ops: int = 14):
    """A random op sequence plus the seed that fleshes out its payloads."""
    ops = draw(
        st.lists(st.sampled_from(OPS), min_size=min_ops, max_size=max_ops)
    )
    seed = draw(st.integers(0, 2**16))
    return ops, seed


def drive(
    journal_path: Path,
    ops: list[str],
    seed: int,
    batch_after: list[bool] | None = None,
) -> ArrangementStore:
    """Run ``ops`` through a synchronous service; returns its live store.

    ``batch_after[i]`` forces a micro-batch right after op ``i`` --
    the knob the batch-boundary-independence property turns. The final
    batch always runs (``close`` drains stragglers).
    """
    rng = np.random.default_rng(seed)
    service = ArrangementService.create(journal_path, CONFIG, threaded=False)
    with service:
        store = service.store
        for index, op in enumerate(ops):
            if op == "post":
                known = store.n_events
                conflicts = [
                    e for e in range(known) if rng.random() < 0.3
                ]
                service.post_event(
                    capacity=int(rng.integers(0, 4)),
                    attributes=[float(x) for x in rng.uniform(0, 10, 2)],
                    conflicts=conflicts,
                )
            elif op == "register":
                service.register_user(
                    capacity=int(rng.integers(1, 3)),
                    attributes=[float(x) for x in rng.uniform(0, 10, 2)],
                )
            elif op == "request" and store.n_users:
                user = int(rng.integers(0, store.n_users))
                service.request_assignment(user, wait=False)
            elif op == "freeze" and store.open_events():
                candidates = store.open_events()
                service.freeze_event(
                    candidates[int(rng.integers(0, len(candidates)))]
                )
            elif op == "cancel" and store.open_events():
                candidates = store.open_events()
                service.cancel_event(
                    candidates[int(rng.integers(0, len(candidates)))]
                )
            if batch_after is not None and batch_after[index]:
                service.run_pending_batch()
        service.check_invariants()
    return service.store


@settings(max_examples=25, deadline=None)
@given(script=command_scripts(), cut_fraction=st.floats(0.0, 1.0))
def test_replay_after_arbitrary_truncation_matches_durable_prefix(
    script, cut_fraction, tmp_path_factory
) -> None:
    """Kill -9 at any byte: replay == the state of the records that fit."""
    ops, seed = script
    base = tmp_path_factory.mktemp("crash")
    live = drive(base / "full.jsonl", ops, seed)
    blob = (base / "full.jsonl").read_bytes()
    header_end = blob.index(b"\n") + 1

    cut = header_end + int(cut_fraction * (len(blob) - header_end))
    torn = base / "torn.jsonl"
    torn.write_bytes(blob[:cut])
    recovered, durable = replay(torn)

    # Reference: exactly the records whose final newline survived.
    durable_prefix = blob[: blob.rindex(b"\n", 0, cut) + 1] if cut else b""
    assert cut >= header_end  # the header itself is always durable
    reference = base / "reference.jsonl"
    reference.write_bytes(durable_prefix)
    expected, expected_durable = replay(reference)

    assert durable == len(durable_prefix)
    assert expected_durable == len(durable_prefix)
    assert recovered == expected
    assert recovered.digest() == expected.digest()
    recovered.check_invariants()
    # And the untruncated journal still reproduces the live state.
    full_replay, _ = replay(base / "full.jsonl")
    assert full_replay.digest() == live.digest()


@settings(max_examples=25, deadline=None)
@given(
    script=command_scripts(),
    boundaries=st.lists(st.booleans(), min_size=14, max_size=14),
)
def test_replay_is_independent_of_batch_boundaries(
    script, boundaries, tmp_path_factory
) -> None:
    """Any batching of the same commands: each journal replays to its
    own acknowledged state, byte-identical digest included."""
    ops, seed = script
    base = tmp_path_factory.mktemp("batches")
    for label, batch_after in (
        ("eager", [True] * len(ops)),          # a batch after every op
        ("lazy", [False] * len(ops)),          # one final batch only
        ("drawn", boundaries[: len(ops)]),     # arbitrary boundaries
    ):
        path = base / f"{label}.jsonl"
        live = drive(path, ops, seed, batch_after=batch_after)
        recovered, _ = replay(path)
        assert recovered == live
        assert recovered.digest() == live.digest()
        recovered.check_invariants()


def scan_tail(path: Path, base_seq: int) -> bytes:
    """What compaction at ``base_seq`` must leave: the decode/re-encode oracle."""
    scanned = Journal.scan(path)
    header = next(scanned)[0]
    parts = [Journal._header(header.config, base_seq)]
    parts += [encode_line(record) for record, _ in scanned if record["seq"] > base_seq]
    return b"".join(parts)


@settings(max_examples=25, deadline=None)
@given(script=command_scripts(), data=st.data())
def test_rewrite_tail_equals_reencoded_records(script, data, tmp_path_factory) -> None:
    """Compacting at any seqs, in order, leaves exactly the header plus
    the re-encoded records past each base -- and a journal that still
    replays to the live state from the base's store."""
    ops, seed = script
    path = tmp_path_factory.mktemp("rewrite") / "journal.jsonl"
    live = drive(path, ops, seed)
    journal, store = Journal.recover(path)
    with journal:
        assert store == live
        bases = sorted(
            data.draw(st.lists(st.integers(0, journal.seq), max_size=4), label="bases")
        )
        for base_seq in bases:
            expected = scan_tail(path, base_seq)
            journal.rewrite_tail(base_seq)
            assert path.read_bytes() == expected
            assert journal.base_seq == base_seq
            assert journal.size_bytes == len(expected)
        record = journal.append("register_user", {"capacity": 1, "attributes": [1.0, 2.0]})
        assert record["seq"] == live.seq + 1
    tail = [item for item, _ in Journal.scan(path)][1:]
    assert [r["seq"] for r in tail] == list(range(journal.base_seq + 1, live.seq + 2))
