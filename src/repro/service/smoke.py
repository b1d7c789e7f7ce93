"""End-to-end crash-recovery smoke: serve, mutate, kill -9, recover.

Three scenarios, two drivers: CI runs ``python -m repro.service.smoke``
(exit 0 = the crash-recovery invariant held in every scenario), and
``tests/service/test_crash_smoke.py`` calls :func:`run_smoke` (one
shard and four) and :func:`run_compaction_smoke` so the same end-to-end
paths are exercised by the tier-1 suite. Every ``geacc serve`` here
fronts a shard fleet whose root is ``--journal``.

Scenarios A (``run_smoke(shards=1)``) and C (``run_smoke(shards=4)``)
share one body:

1. start ``geacc serve --shards N`` on an ephemeral port with a fresh
   fleet root;
2. post four corner events and a sibling conflicting with the first,
   register users, request assignments over HTTP and assert every user
   got a seat; check the topology in ``GET /state`` (N shards, four
   conflict components, events on every shard up to four);
3. ``kill -9`` the server mid-stream (an un-acknowledged command may be
   in flight -- that is the point);
4. restart ``geacc serve`` from the same root;
5. assert every shard's recovered digest equals an independent
   :func:`repro.service.journal.replay` of its journal, that the
   recovered global digest equals the pre-crash one, that the restart
   reports its recovery rung and keeps its topology, that the
   assignments from step 2 survived, and that a new user near the
   conflicting sibling is seated on its component.

Scenario B (:func:`run_compaction_smoke`, one shard) kills the server
in the widest compaction crash window -- after the snapshot is durably
written but before the journal is trimmed (the hidden
``--crash-after-snapshot`` serve flag hard-exits there) -- then
restarts and requires the recovered digest to equal the pre-crash one
via the snapshot + tail ladder rung. A second pass compacts for real,
kill -9s immediately after, and requires the same equality from the
trimmed journal.

After every restart each shard's recovery rung and timings
(``snapshot_ms``, ``replay_ms``) are printed, and a shard that had
compacted must have recovered on ``snapshot+tail`` from a
``geacc-snapshot-v2`` file.

Uses ``urllib`` (a client, not a server -- ``tests/test_boundaries.py``
keeps server-side socket modules inside this package, and the
subprocess boundary is exactly what a kill -9 needs anyway).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.exceptions import ServiceError
from repro.service.journal import replay as replay_journal
from repro.service.sharding import ShardManager
from repro.service.snapshot import SNAPSHOT_FORMAT, snapshot_path

#: How long to wait for the server to print its listening line.
STARTUP_TIMEOUT_S = 30.0


def _request(base: str, method: str, path: str, payload: dict | None = None) -> dict:
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def _check_recoveries(root: Path, state: dict, say) -> None:
    """Report each shard's recovery; one that had compacted must have
    recovered on ``snapshot+tail`` from a ``geacc-snapshot-v2`` file."""
    for row in state["sharding"]["per_shard"]:
        recovery = row["last_recovery"]
        say(
            f"shard {row['shard']} recovered: rung={recovery['rung']} "
            f"snapshot_ms={recovery['snapshot_ms']} replay_ms={recovery['replay_ms']}"
        )
        if not (row["snapshots"] and row["snapshots"]["count"]):
            continue
        if recovery["rung"] != "snapshot+tail":
            raise ServiceError(
                f"compacted shard {row['shard']} recovered on {recovery['rung']}"
            )
        snapshot = snapshot_path(
            ShardManager.snapshot_dir(root, row["shard"]), recovery["snapshot_seq"]
        )
        header = json.loads(snapshot.read_bytes().split(b"\n", 1)[0])
        if header.get("format") != SNAPSHOT_FORMAT:
            raise ServiceError(
                f"shard {row['shard']} recovered from a {header.get('format')} "
                f"snapshot, not {SNAPSHOT_FORMAT}"
            )


class ServeProcess:
    """A ``geacc serve`` subprocess plus its parsed base URL."""

    def __init__(self, root: Path, extra_args: tuple[str, ...] = ()) -> None:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--journal",
                str(root),
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--dimension",
                "2",
                *extra_args,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.base = self._await_listening()

    def _await_listening(self) -> str:
        assert self.process.stdout is not None
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        lines: list[str] = []
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            lines.append(line)
            if "listening on " in line:
                return line.rsplit("listening on ", 1)[1].strip()
        self.process.kill()
        raise ServiceError(
            "geacc serve never reported its address; output was:\n" + "".join(lines)
        )

    def kill9(self) -> None:
        """SIGKILL -- no cleanup handlers, no flushes, a real crash."""
        self.process.send_signal(signal.SIGKILL)
        self.process.wait()

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def run_smoke(
    workdir: str | Path | None = None, verbose: bool = False, shards: int = 1
) -> None:
    """Run the kill -9 scenario; raises :class:`ServiceError` on failure.

    ``shards=1`` is scenario A, ``shards=4`` scenario C.
    """

    def say(message: str) -> None:
        if verbose:
            print(message, flush=True)

    # Four well-separated corners (t defaults to 10000): on a fleet,
    # best-similarity routing sends each user to the shard owning its
    # corner's event.
    corners = [
        [1000.0, 1000.0],
        [9000.0, 1000.0],
        [1000.0, 9000.0],
        [9000.0, 9000.0],
    ]
    serve_args = ("--shards", str(shards))
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        root = Path(tmp) / "fleet"
        server = ServeProcess(root, serve_args)
        try:
            say(f"serving at {server.base} (fleet {root}, shards {shards})")
            events = [
                _request(
                    server.base,
                    "POST",
                    "/events",
                    {"capacity": 2, "attributes": corner},
                )["event"]
                for corner in corners
            ]
            # A conflicting sibling must land on its component's shard.
            rival = _request(
                server.base,
                "POST",
                "/events",
                {
                    "capacity": 2,
                    "attributes": [1050.0, 1050.0],
                    "conflicts": [events[0]],
                },
            )["event"]
            users = []
            for corner in corners:
                user = _request(
                    server.base,
                    "POST",
                    "/users",
                    {"capacity": 1, "attributes": [corner[0] + 5.0, corner[1] - 5.0]},
                )["user"]
                users.append(user)
                assigned = _request(
                    server.base, "POST", "/assignments", {"user": user}
                )
                if not assigned["events"]:
                    raise ServiceError(f"user {user} got no seat: {assigned}")
            seated = _request(server.base, "GET", f"/assignments/{users[0]}")
            pre_crash = _request(server.base, "GET", "/state")
            say(f"pre-crash state: {pre_crash}")
            topology = pre_crash["sharding"]
            if topology["shards"] != shards:
                raise ServiceError(f"expected a {shards}-shard topology: {topology}")
            # rival joined events[0]'s component: 5 events, 4 components.
            if topology["components"] != len(corners):
                raise ServiceError(
                    f"expected {len(corners)} conflict components, got {topology}"
                )
            populated = sum(
                1 for shard in topology["per_shard"] if shard["n_events"] > 0
            )
            if populated != min(shards, len(corners)):
                raise ServiceError(f"expected events on every shard, got {topology}")
        finally:
            server.kill9()
        say("killed -9; restarting from the fleet root")

        server = ServeProcess(root, serve_args)
        try:
            post_crash = _request(server.base, "GET", "/state")
            say(f"post-crash state: {post_crash}")
            for row in post_crash["sharding"]["per_shard"]:
                journal = ShardManager.journal_path(root, row["shard"])
                recovered_store, _ = replay_journal(journal)
                if row["digest"] != recovered_store.digest():
                    raise ServiceError(
                        f"recovered shard {row['shard']} diverges from reference "
                        f"replay: {row['digest']} != {recovered_store.digest()}"
                    )
            if post_crash["digest"] != pre_crash["digest"]:
                raise ServiceError(
                    "recovered state does not match pre-crash state: "
                    f"{post_crash['digest']} != {pre_crash['digest']}"
                )
            if not post_crash.get("last_recovery"):
                raise ServiceError(f"restart reported no recovery rung: {post_crash}")
            _check_recoveries(root, post_crash, say)
            if post_crash["sharding"]["shards"] != shards:
                raise ServiceError(f"topology did not survive the crash: {post_crash}")
            survived = _request(server.base, "GET", f"/assignments/{users[0]}")
            if survived != seated:
                raise ServiceError(
                    f"assignment {seated} did not survive the crash: {survived}"
                )
            # The service still accepts work after recovery -- including
            # on the component the conflict edge grew.
            late = _request(
                server.base,
                "POST",
                "/users",
                {"capacity": 1, "attributes": [1040.0, 1060.0]},
            )["user"]
            late_assigned = _request(
                server.base, "POST", "/assignments", {"user": late}
            )
            if not {rival, events[0]} & set(late_assigned["events"]):
                raise ServiceError(
                    f"post-recovery user {late} was not seated on its corner: "
                    f"{late_assigned}"
                )
        finally:
            server.terminate()
    say("crash-recovery smoke passed")


def run_compaction_smoke(
    workdir: str | Path | None = None, verbose: bool = False
) -> None:
    """Kill -9 mid-compaction; require clean snapshot+tail recovery."""

    def say(message: str) -> None:
        if verbose:
            print(message, flush=True)

    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        root = Path(tmp) / "fleet"
        # --compact-bytes 0 disables the automatic trigger so the POST
        # /compact below is the only compaction; --crash-after-snapshot
        # hard-exits between the snapshot write and the journal trim.
        server = ServeProcess(
            root, extra_args=("--compact-bytes", "0", "--crash-after-snapshot")
        )
        try:
            say(f"serving at {server.base} (fleet {root})")
            event = _request(
                server.base,
                "POST",
                "/events",
                {"capacity": 3, "attributes": [10.0, 20.0]},
            )["event"]
            user = _request(
                server.base,
                "POST",
                "/users",
                {"capacity": 2, "attributes": [11.0, 19.0]},
            )["user"]
            _request(server.base, "POST", "/assignments", {"user": user})
            pre_crash = _request(server.base, "GET", "/state")
            say(f"pre-crash state: {pre_crash}")
            try:
                _request(server.base, "POST", "/compact")
            except (urllib.error.URLError, ConnectionError, OSError):
                pass  # the process died mid-request -- that is the scenario
            else:
                raise ServiceError(
                    "compaction answered despite --crash-after-snapshot"
                )
            exit_code = server.process.wait(timeout=30)
            say(f"server hard-exited mid-compaction with code {exit_code}")
            if exit_code == 0:
                raise ServiceError("mid-compaction crash exited 0")
        finally:
            server.terminate()

        # Restart (no crash flag): the snapshot is durable, the journal
        # untrimmed -- recovery must take the snapshot + tail rung.
        server = ServeProcess(root, extra_args=("--compact-bytes", "0"))
        try:
            post_crash = _request(server.base, "GET", "/state")
            say(f"post-crash state: {post_crash}")
            if post_crash["digest"] != pre_crash["digest"]:
                raise ServiceError(
                    "state after mid-compaction crash diverges: "
                    f"{post_crash['digest']} != {pre_crash['digest']}"
                )
            recovery = post_crash["last_recovery"]
            if not recovery or recovery["rung"] != "snapshot+tail":
                raise ServiceError(
                    f"expected snapshot+tail recovery, got {recovery}"
                )
            snapshots = post_crash["sharding"]["per_shard"][0]["snapshots"]
            if not snapshots or snapshots["count"] < 1:
                raise ServiceError(
                    f"mid-compaction snapshot did not survive: {snapshots}"
                )
            _check_recoveries(root, post_crash, say)
            # Now compact for real and kill -9 right after: recovery from
            # the *trimmed* journal must still reproduce the state.
            stats = _request(server.base, "POST", "/compact")
            say(f"real compaction: {stats}")
            second = _request(
                server.base,
                "POST",
                "/users",
                {"capacity": 1, "attributes": [9.0, 21.0]},
            )["user"]
            _request(server.base, "POST", "/assignments", {"user": second})
            pre_kill = _request(server.base, "GET", "/state")
        finally:
            server.kill9()
        say("killed -9 after compaction; restarting")

        server = ServeProcess(root, extra_args=("--compact-bytes", "0"))
        try:
            final = _request(server.base, "GET", "/state")
            say(f"final state: {final}")
            if final["digest"] != pre_kill["digest"]:
                raise ServiceError(
                    "state after post-compaction crash diverges: "
                    f"{final['digest']} != {pre_kill['digest']}"
                )
            _check_recoveries(root, final, say)
            base_seq = final["sharding"]["per_shard"][0]["journal_base_seq"]
            if base_seq != stats["shards"][0]["base_seq"]:
                raise ServiceError(
                    f"journal base seq {base_seq} does not match the "
                    f"compaction's {stats['shards'][0]['base_seq']}"
                )
        finally:
            server.terminate()
    say("mid-compaction crash-recovery smoke passed")


def main() -> int:
    try:
        run_smoke(verbose=True, shards=1)
        run_compaction_smoke(verbose=True)
        run_smoke(verbose=True, shards=4)
    except ServiceError as exc:
        print(f"SMOKE FAILED: {exc}", file=sys.stderr)
        return 1
    print("service crash-recovery smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
