"""Stdlib JSON-over-HTTP front-end for the arrangement service.

A deliberately small API over :class:`~repro.service.frontend.
ArrangementService`, served by ``http.server.ThreadingHTTPServer`` (one
thread per connection; blocking assignment requests park their handler
thread on the engine future, they do not hold the state lock):

====================================  =========================================
``POST /events``                      ``{"capacity", "attributes", "conflicts"?}`` -> ``201 {"event"}``
``POST /users``                       ``{"capacity", "attributes"}`` -> ``201 {"user"}``
``POST /assignments``                 ``{"user"}`` -> ``200 {"user", "events"}`` (blocks for the batch)
``POST /events/<id>/freeze``          -> ``200``
``POST /events/<id>/cancel``          -> ``200``
``POST /compact``                     -> ``200`` compaction stats (admin; snapshot + journal trim)
``GET  /assignments/<user>``          -> ``200 {"user", "events"}``
``GET  /state``                       -> ``200`` canonical summary (seq, digest, MaxSum, ...)
``GET  /healthz``                     -> ``200 {"ok": true}``
====================================  =========================================

Error mapping: a rejected command is ``400`` with the
:class:`~repro.exceptions.ServiceError` message; admission-control
overload is ``503`` with ``Retry-After``; an unmatched route is ``404``.
Overload is the *only* backpressure signal -- the server never queues
beyond the engine's bound, so it degrades instead of stalling.

This module is the one sanctioned home of ``http.server`` in the tree:
``geacc-lint`` rule R8 bans socket/HTTP primitives everywhere outside
``repro/service/``.
"""

from __future__ import annotations

import json
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from typing import TYPE_CHECKING, Union

from repro.exceptions import ServiceError, ServiceOverloadedError
from repro.service.frontend import ArrangementService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.sharding import ShardCoordinator

#: Anything the handlers can front: one service, or a shard fleet behind
#: its coordinator (same duck-typed command/read surface).
Backend = Union[ArrangementService, "ShardCoordinator"]

#: Retry-After hint (seconds) sent with 503 overload responses.
RETRY_AFTER_S = 1

_EVENT_ACTION = re.compile(r"^/events/(\d+)/(freeze|cancel)$")
_USER_ASSIGNMENTS = re.compile(r"^/assignments/(\d+)$")


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: Backend):
        super().__init__(address, _Handler)
        self.service = service

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        return int(self.server_address[1])


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer  # narrowed for handler code below

    protocol_version = "HTTP/1.1"

    # Quiet by default: the CLI decides what to log, not every request.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            if self.path == "/healthz":
                self._reply(200, {"ok": True})
            elif self.path == "/state":
                self._reply(200, self.server.service.state_summary())
            else:
                match = _USER_ASSIGNMENTS.match(self.path)
                if match:
                    user = int(match.group(1))
                    events = self.server.service.assignments_of(user)
                    self._reply(200, {"user": user, "events": list(events)})
                else:
                    self._reply(404, {"error": f"no route {self.path}"})
        except ServiceError as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        try:
            body = self._read_json()
            service = self.server.service
            if self.path == "/events":
                event = service.post_event(
                    capacity=body.get("capacity"),
                    attributes=body.get("attributes"),
                    conflicts=body.get("conflicts"),
                )
                self._reply(201, {"event": event, "seq": service.seq})
            elif self.path == "/users":
                user = service.register_user(
                    capacity=body.get("capacity"),
                    attributes=body.get("attributes"),
                )
                self._reply(201, {"user": user, "seq": service.seq})
            elif self.path == "/assignments":
                user = body.get("user")
                events = service.request_assignment(user)
                self._reply(200, {"user": user, "events": list(events)})
            elif self.path == "/compact":
                stats = service.compact()
                self._reply(200, stats.to_json())
            else:
                match = _EVENT_ACTION.match(self.path)
                if match:
                    event, action = int(match.group(1)), match.group(2)
                    if action == "freeze":
                        service.freeze_event(event)
                    else:
                        service.cancel_event(event)
                    self._reply(200, {"event": event, action: True})
                else:
                    self._reply(404, {"error": f"no route {self.path}"})
        except ServiceOverloadedError as exc:
            self._reply(
                503, {"error": str(exc)}, headers={"Retry-After": str(RETRY_AFTER_S)}
            )
        except ServiceError as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _read_json(self) -> dict:
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            # The body's end is unknown, so the connection cannot be reused.
            self.close_connection = True
            raise ServiceError(
                f"Content-Length must be a non-negative integer, got {header!r}"
            )
        length = int(header)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceError(f"request body is not JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise ServiceError("request body must be a JSON object")
        return body

    def _reply(
        self, status: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        blob = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(blob)


def make_server(
    service: Backend, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind the JSON API (port 0 = ephemeral; read ``server.port``)."""
    return ServiceHTTPServer((host, port), service)
