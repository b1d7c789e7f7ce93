"""HTTP front-end: JSON API, status codes, overload shedding."""

import http.client
import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.service.http import make_server
from repro.service.sharding import ShardCoordinator
from repro.service.store import StoreConfig

CONFIG = StoreConfig(dimension=2, t=10.0)


@pytest.fixture()
def served(tmp_path: Path):
    service = ShardCoordinator.create(tmp_path / "fleet", CONFIG, 1, batch_ms=1.0)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.port}", service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


def call(base: str, method: str, path: str, payload: dict | None = None) -> dict:
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def test_full_api_surface(served) -> None:
    base, _service = served
    assert call(base, "GET", "/healthz") == {"ok": True}
    event = call(
        base, "POST", "/events",
        {"capacity": 2, "attributes": [1.0, 1.0]},
    )["event"]
    rival = call(
        base, "POST", "/events",
        {"capacity": 1, "attributes": [9.0, 9.0], "conflicts": [event]},
    )["event"]
    user = call(
        base, "POST", "/users", {"capacity": 1, "attributes": [1.5, 1.5]}
    )["user"]
    assigned = call(base, "POST", "/assignments", {"user": user})
    assert assigned == {"user": user, "events": [event]}
    assert call(base, "GET", f"/assignments/{user}") == assigned
    state = call(base, "GET", "/state")
    assert state["n_events"] == 2
    assert state["n_assignments"] == 1
    assert len(state["digest"]) == 64
    call(base, "POST", f"/events/{event}/freeze")
    call(base, "POST", f"/events/{rival}/cancel")
    state = call(base, "GET", "/state")
    assert state["open_events"] == 0


def expect_http_error(base: str, method: str, path: str, payload=None) -> urllib.error.HTTPError:
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        call(base, method, path, payload)
    return excinfo.value


def post_with_content_length(port: int, path: str, length: str) -> tuple[int, dict]:
    """POST with a raw ``Content-Length`` header and no body."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.putrequest("POST", path)
        connection.putheader("Content-Length", length)
        connection.endheaders()
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def test_client_errors_are_400_with_reason(served) -> None:
    base, _service = served
    error = expect_http_error(
        base, "POST", "/events", {"capacity": -3, "attributes": [1.0, 1.0]}
    )
    assert error.code == 400
    assert "non-negative" in json.loads(error.read())["error"]
    assert expect_http_error(base, "POST", "/assignments", {"user": 99}).code == 400
    assert expect_http_error(base, "POST", "/events/99/freeze").code == 400


def test_malformed_body_is_400(served) -> None:
    base, _service = served
    request = urllib.request.Request(
        base + "/events", data=b"[1, 2, 3]", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400


def test_unknown_routes_are_404(served) -> None:
    base, _service = served
    assert expect_http_error(base, "GET", "/nope").code == 404
    assert expect_http_error(base, "POST", "/events/0/explode").code == 404
    assert expect_http_error(base, "GET", "/assignments/not-an-int").code == 404


def test_overload_is_503_with_retry_after(tmp_path: Path) -> None:
    # One queue slot and a long coalescing window: the second request
    # arrives while the first still occupies the slot.
    service = ShardCoordinator.create(
        tmp_path / "fleet", CONFIG, 1, batch_ms=1500.0, max_pending=1
    )
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.port}"
    try:
        call(base, "POST", "/events", {"capacity": 2, "attributes": [1.0, 1.0]})
        first = call(base, "POST", "/users", {"capacity": 1, "attributes": [1.0, 1.0]})
        second = call(base, "POST", "/users", {"capacity": 1, "attributes": [2.0, 2.0]})
        results: list[dict] = []
        blocker = threading.Thread(
            target=lambda: results.append(
                call(base, "POST", "/assignments", {"user": first["user"]})
            )
        )
        blocker.start()
        deadline = threading.Event()
        # Wait until the first request owns the queue slot.
        for _ in range(200):
            if service.state_summary()["pending"]:
                break
            deadline.wait(0.01)
        error = expect_http_error(
            base, "POST", "/assignments", {"user": second["user"]}
        )
        assert error.code == 503
        assert error.headers.get("Retry-After") == "1"
        blocker.join(timeout=30)
        assert results and results[0]["events"] == [0]
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


@pytest.mark.parametrize("sharded", [False, True], ids=["service", "fleet"])
@pytest.mark.parametrize(
    "path, payload",
    [
        ("/events", {"capacity": 1}),
        ("/events", {"capacity": 1, "attributes": None}),
        ("/events", {"capacity": 1, "attributes": [1.0, 1.0], "conflicts": ["0"]}),
        ("/events", {"capacity": 1, "attributes": [1.0, 1.0], "conflicts": [0, "x"]}),
        ("/users", {"capacity": 1}),
        ("/users", {"capacity": 1, "attributes": None}),
        ("/assignments", {"user": "0"}),
        ("/events", {"capacity": True, "attributes": [1.0, 1.0]}),
        ("/events", {"capacity": 1, "attributes": [True, 1.0]}),
        ("/assignments", {"user": True}),
        ("/events", {"capacity": 1, "attributes": [1.0, 1.0], "conflicts": [False]}),
        ("/events", {"capacity": 2**63, "attributes": [1.0, 1.0]}),
        pytest.param("/events", "abc", id="/events-content-length-abc"),
        pytest.param("/events", "-5", id="/events-content-length-negative"),
    ],
)
def test_malformed_fields_are_400_on_both_backends(
    tmp_path: Path, sharded: bool, path: str, payload: dict | str
) -> None:
    # A str payload is sent as a raw, bad Content-Length with no body.
    backend = ShardCoordinator.create(
        tmp_path / "fleet", CONFIG, 2 if sharded else 1, threaded=False
    )
    server = make_server(backend)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.port}"
    try:
        call(base, "POST", "/events", {"capacity": 1, "attributes": [1.0, 1.0]})
        # Two users, so a boolean user id (``true`` == 1) names a real one.
        for _ in range(2):
            call(base, "POST", "/users", {"capacity": 1, "attributes": [1.0, 1.0]})
        seq = call(base, "GET", "/state")["seq"]
        if isinstance(payload, str):
            status, reply = post_with_content_length(server.port, path, payload)
            assert status == 400, reply
        else:
            error = expect_http_error(base, "POST", path, payload)
            assert error.code == 400, json.loads(error.read())
        # Rejected before anything was journaled.
        assert call(base, "GET", "/state")["seq"] == seq
    finally:
        server.shutdown()
        server.server_close()
        backend.close()
        thread.join(timeout=10)


@pytest.mark.parametrize("sharded", [False, True])
def test_state_reports_the_engine_block_on_both_backends(
    tmp_path: Path, sharded: bool
) -> None:
    backend = ShardCoordinator.create(
        tmp_path / "fleet", CONFIG, 2 if sharded else 1, threaded=False
    )
    server = make_server(backend)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.port}"
    try:
        corners = ([1.0, 1.0], [9.0, 9.0], [1.0, 9.0], [9.0, 1.0])
        for corner in corners:
            call(base, "POST", "/events", {"capacity": 1, "attributes": corner})
        for corner in corners:
            user = call(base, "POST", "/users", {"capacity": 1, "attributes": corner})
            call(base, "POST", "/assignments", {"user": user["user"]})
        state = call(base, "GET", "/state")
        engine = state["engine"]
        assert set(engine) == {"batches", "scoped", "full", "scope_refused", "last_outcome"}
        # An engine's first batch is full; later ones need one corner.
        assert engine["batches"] == engine["scoped"] + engine["full"] == 4
        assert engine["scoped"] >= 2
        assert engine["last_outcome"] == "optimal"
        rows = [row["engine"] for row in state["sharding"]["per_shard"]]
        for key in ("batches", "scoped", "full", "scope_refused"):
            assert engine[key] == sum(row[key] for row in rows)
    finally:
        server.shutdown()
        server.server_close()
        backend.close()
        thread.join(timeout=10)
