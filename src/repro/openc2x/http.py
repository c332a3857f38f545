"""A simulated HTTP hop between co-located devices.

In the testbed the HTTP legs run over wired LAN / USB-Ethernet between
the Jetson boards and the APU2 units, so the cost is dominated by
stack traversal and the OpenC2X web server's service time rather than
propagation.  Each request pays::

    request latency -> server service time -> response latency

with configurable means and jitter.  Requests are processed FIFO by a
single-worker server (matching OpenC2X's simple embedded web server):
a burst of polls queues up.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Tuple

import numpy as np

from repro.sim.kernel import Simulator

Handler = Callable[[Dict[str, Any]], Tuple[int, Dict[str, Any]]]


@dataclasses.dataclass(frozen=True)
class HttpConfig:
    """Latency parameters of one HTTP hop."""

    #: One-way network latency mean (s); LAN scale.
    latency_mean: float = 0.3e-3
    #: One-way latency jitter std-dev (s).
    latency_std: float = 0.1e-3
    #: Server-side processing time mean (s).
    service_mean: float = 0.8e-3
    #: Server-side processing jitter std-dev (s).
    service_std: float = 0.3e-3
    #: Probability a request (or its response) is lost in transit --
    #: fault injection; clients need a timeout to survive this.
    drop_probability: float = 0.0


@dataclasses.dataclass(frozen=True)
class HttpResponse:
    """What a client callback receives."""

    status: int
    body: Dict[str, Any]
    requested_at: float
    responded_at: float

    @property
    def round_trip(self) -> float:
        """Request-to-response wall time (s)."""
        return self.responded_at - self.requested_at

    @property
    def ok(self) -> bool:
        """Whether the status is 2xx."""
        return 200 <= self.status < 300


class HttpServer:
    """A single-worker HTTP server bound to a unit."""

    def __init__(self, sim: Simulator, rng: np.random.Generator,
                 name: str, config: Optional[HttpConfig] = None):
        self.sim = sim
        self.rng = rng
        self.name = name
        self.config = config or HttpConfig()
        self._routes: Dict[str, Handler] = {}
        self._queue: Deque[Tuple[str, Dict[str, Any],
                                 Callable[[int, Dict[str, Any]], None],
                                 float]] = deque()
        self._busy = False
        self.requests_served = 0
        #: Fault-injection seam: an offline server (crashed process /
        #: powered-down board) silently drops requests; clients only
        #: survive through their timeouts.
        self.online = True
        self.requests_dropped = 0

    def route(self, path: str, handler: Handler) -> None:
        """Register *handler* for POSTs to *path*."""
        self._routes[path] = handler

    def submit(self, path: str, body: Dict[str, Any],
               respond: Callable[[int, Dict[str, Any]], None]) -> None:
        """Accept a request (already past the network leg)."""
        if not self.online:
            self.requests_dropped += 1
            obs = self.sim.obs
            if obs is not None:
                obs.count("http.requests_dropped", device=self.name)
            return
        self._queue.append((path, body, respond, self.sim.now))
        if not self._busy:
            self._serve_next()

    def _serve_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        path, body, respond, accepted_at = self._queue.popleft()
        service = max(0.0, float(self.rng.normal(
            self.config.service_mean, self.config.service_std)))
        self.sim.schedule(service,
                          lambda: self._finish(path, body, respond,
                                               accepted_at))

    def _finish(self, path: str, body: Dict[str, Any],
                respond: Callable[[int, Dict[str, Any]], None],
                accepted_at: float) -> None:
        handler = self._routes.get(path)
        if handler is None:
            status, response = 404, {"error": f"no route {path}"}
        else:
            try:
                status, response = handler(body)
            except Exception as err:  # noqa: BLE001 - server error path
                status, response = 500, {"error": str(err)}
        self.requests_served += 1
        obs = self.sim.obs
        if obs is not None:
            obs.count("http.requests_served", device=self.name,
                      status=str(status))
            obs.record_span("http.request", accepted_at, self.sim.now,
                            device=self.name)
            obs.observe("http.queue_service_ms",
                        (self.sim.now - accepted_at) * 1000.0)
        respond(status, response)
        self._serve_next()


class HttpClient:
    """Issues requests against :class:`HttpServer` instances."""

    def __init__(self, sim: Simulator, rng: np.random.Generator,
                 name: str = "client"):
        self.sim = sim
        self.rng = rng
        self.name = name
        self.requests_sent = 0

    def _latency(self, config: HttpConfig) -> float:
        return max(0.0, float(self.rng.normal(
            config.latency_mean, config.latency_std)))

    #: Status used for client-side timeouts (no response arrived).
    TIMEOUT_STATUS = 0

    def post(self, server: HttpServer, path: str,
             body: Optional[Dict[str, Any]] = None,
             callback: Optional[Callable[[HttpResponse], None]] = None,
             timeout: Optional[float] = None,
             ) -> None:
        """POST *body* to *path* on *server*.

        *callback*, if given, receives the :class:`HttpResponse` in its
        own zero-delay event once the response arrives.  With *timeout*
        set, a lost request/response resolves after *timeout* seconds
        with ``status == TIMEOUT_STATUS`` instead of hanging forever;
        whichever of response and timeout comes first wins, once.
        """
        body = body or {}
        requested_at = self.sim.now
        self.requests_sent += 1
        resolved = False

        def finish(status: int, response_body: Dict[str, Any]) -> None:
            nonlocal resolved
            if resolved:
                return  # timeout already fired (or duplicate)
            resolved = True
            if callback is not None:
                response = HttpResponse(
                    status=status,
                    body=response_body,
                    requested_at=requested_at,
                    responded_at=self.sim.now,
                )
                self.sim.schedule(0.0, lambda: callback(response))

        def respond(status: int, response_body: Dict[str, Any]) -> None:
            if self._dropped(server):
                return  # response lost in transit
            self.sim.schedule(self._latency(server.config),
                              lambda: finish(status, response_body))

        if self._dropped(server):
            pass  # request lost in transit: only the timeout can fire
        else:
            self.sim.schedule(
                self._latency(server.config),
                lambda: server.submit(path, body, respond))
        if timeout is not None:
            self.sim.schedule(
                timeout, lambda: finish(self.TIMEOUT_STATUS,
                                        {"error": "timeout"}))

    def _dropped(self, server: HttpServer) -> bool:
        probability = server.config.drop_probability
        return probability > 0 and self.rng.random() < probability
