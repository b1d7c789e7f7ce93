"""HTTP front-end: JSON API, status codes, overload shedding."""

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.service.frontend import ArrangementService
from repro.service.http import make_server
from repro.service.sharding import ShardCoordinator
from repro.service.store import StoreConfig

CONFIG = StoreConfig(dimension=2, t=10.0)


@pytest.fixture()
def served(tmp_path: Path):
    service = ArrangementService.create(
        tmp_path / "j.jsonl", CONFIG, batch_ms=1.0
    )
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
    service = ArrangementService.create(
        tmp_path / "j.jsonl", CONFIG, batch_ms=1500.0, max_pending=1
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
            if service.engine.pending:
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
    ],
)
def test_malformed_fields_are_400_on_both_backends(
    tmp_path: Path, sharded: bool, path: str, payload: dict
) -> None:
    backend = (
        ShardCoordinator.create(tmp_path / "fleet", CONFIG, 2, threaded=False)
        if sharded
        else ArrangementService.create(tmp_path / "j.jsonl", CONFIG, batch_ms=1.0)
    )
    server = make_server(backend)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.port}"
    try:
        call(base, "POST", "/events", {"capacity": 1, "attributes": [1.0, 1.0]})
        call(base, "POST", "/users", {"capacity": 1, "attributes": [1.0, 1.0]})
        seq = call(base, "GET", "/state")["seq"]
        error = expect_http_error(base, "POST", path, payload)
        assert error.code == 400, json.loads(error.read())
        # Rejected before anything was journaled.
        assert call(base, "GET", "/state")["seq"] == seq
    finally:
        server.shutdown()
        server.server_close()
        backend.close()
        thread.join(timeout=10)
