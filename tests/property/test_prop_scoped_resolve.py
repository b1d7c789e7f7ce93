"""Re-solving only the changed clusters equals re-solving everything.

The engine re-solves only the conflict clusters a batch changed and
proves, per batch, that the full Greedy re-solve would have accepted no
pair crossing into the rest (falling back to the full re-solve when it
cannot). The property: two synchronous services fed the same random
command script -- one as shipped, one whose scope is forced to every
open event -- write byte-identical journals after every batch.

Attributes are quantised around three cluster centres, so similarity
ties are common and the tie-breaking of the scoped sub-instance is
exercised against the whole instance's.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.frontend import ArrangementService
from repro.service.store import StoreConfig

CONFIG = StoreConfig(dimension=2, t=10.0)

#: Conflict-component "themes": each event conflicts only within one.
CENTRES = ((1.0, 1.0), (9.0, 9.0), (1.0, 9.0))

OPS = ("post",) * 4 + ("register",) * 3 + ("request",) * 5 + ("freeze", "cancel", "batch")


@st.composite
def command_scripts(draw):
    """Ops, each with the integer that fleshes out its payload."""
    return draw(
        st.lists(
            st.tuples(st.sampled_from(OPS), st.integers(0, 2**16)),
            min_size=8,
            max_size=50,
        )
    )


def _attributes(centre: int, r: int) -> list[float]:
    x, y = CENTRES[centre]
    return [x + (r % 3) - 1.0, y + (r // 3 % 3) - 1.0]


def _full_scope(clusters, open_events, stale, movers):
    return open_events


def _theme(attributes: tuple[float, ...]) -> int:
    return min(
        range(len(CENTRES)),
        key=lambda k: abs(attributes[0] - CENTRES[k][0]) + abs(attributes[1] - CENTRES[k][1]),
    )


def _apply(services: list[ArrangementService], op: str, r: int) -> None:
    """Issue one op, decoded from ``r`` against the shared state."""
    store = services[0].store
    open_events = store.open_events()
    if op == "post":
        theme = r % len(CENTRES)
        # Conflicts stay inside one theme, so the conflict graph has a
        # component per theme at least.
        siblings = [
            e for e in range(store.n_events)
            if _theme(store.event_attributes(e)) == theme
        ]
        call = ("post_event", 1 + (r >> 5) % 3, _attributes(theme, r >> 2),
                siblings[-2:] if r >> 7 & 1 else [])
    elif op == "register":
        call = ("register_user", (1, 1, 1, 2, 3)[r % 5], _attributes(r // 5 % 3, r >> 4))
    elif op == "request" and store.n_users:
        # Most requests are served at once, as a closed-loop client's.
        call = ("request_assignment", r % store.n_users, r >> 8 & 3 != 0)
    elif op == "freeze" and open_events:
        call = ("freeze_event", open_events[r % len(open_events)])
    elif op == "cancel" and open_events:
        call = ("cancel_event", open_events[r % len(open_events)])
    elif op == "batch":
        call = ("run_pending_batch",)
    else:
        return
    for service in services:
        if call[0] == "request_assignment":
            service.request_assignment(call[1], wait=False)
            if call[2]:
                service.run_pending_batch()
        else:
            getattr(service, call[0])(*call[1:])


@settings(max_examples=60, deadline=None)
@given(script=command_scripts())
def test_scoped_batches_write_the_full_resolve_journal(tmp_path_factory, script) -> None:
    root: Path = tmp_path_factory.mktemp("scoped")
    shipped = ArrangementService.create(root / "scoped.jsonl", CONFIG, threaded=False)
    full = ArrangementService.create(root / "full.jsonl", CONFIG, threaded=False)
    full.engine._scope = _full_scope
    services = [shipped, full]
    try:
        for op, r in script:
            _apply(services, op, r)
            if op == "batch":
                assert shipped.journal.path.read_bytes() == full.journal.path.read_bytes()
    finally:
        for service in services:
            service.close()
    assert shipped.journal.path.read_bytes() == full.journal.path.read_bytes()
    assert full.engine.stats["scoped"] == 0
    shipped.store.check_invariants()


def test_the_script_alphabet_reaches_scoped_batches(tmp_path: Path) -> None:
    """Guard against a vacuous property: scoped batches do happen."""
    rng = np.random.default_rng(0)
    shipped = ArrangementService.create(tmp_path / "j.jsonl", CONFIG, threaded=False)
    full = ArrangementService.create(tmp_path / "f.jsonl", CONFIG, threaded=False)
    full.engine._scope = _full_scope
    with shipped, full:
        for op in ["post"] * 6 + ["register", "request", "batch"] * 12:
            _apply([shipped, full], op, int(rng.integers(0, 2**16)))
    assert shipped.journal.path.read_bytes() == full.journal.path.read_bytes()
    assert shipped.engine.stats["scoped"] > 0
