"""The Message Handler: the Python script polling the OBU.

Paper, Section III-D2: "a Python script running at the Jetson TX2 is
constantly communicating with the OpenC2X's HTTP API hosted at the
OBU, through POST requests sent to ``/request_denm``.  If no DENM is
found, it only returns an HTTP 200 success status code.  If a DENM was
received by the OBU ... power to the wheels is interrupted by the
control logic at the Jetson, stopping the car."

The handler issues one poll, waits for the response, sleeps
``poll_interval`` and repeats.  The poll interval directly bounds the
step-4 -> step-5 latency (ablation A2 sweeps it).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.openc2x.http import HttpClient, HttpResponse, HttpServer
from repro.sim.kernel import Simulator
from repro.vehicle.motion_planner import MotionPlanner

EventHook = Callable[[str, Dict[str, Any]], None]


class MessageHandler:
    """Polls the OBU's ``/request_denm`` endpoint and triggers stops."""

    def __init__(
        self,
        sim: Simulator,
        obu_server: HttpServer,
        planner: MotionPlanner,
        rng: Optional[np.random.Generator] = None,
        poll_interval: float = 0.02,
        stop_on_denm: bool = True,
        resume_on_termination: bool = False,
        enabled: bool = True,
    ):
        self.sim = sim
        self.obu_server = obu_server
        self.planner = planner
        self.poll_interval = poll_interval
        self.stop_on_denm = stop_on_denm
        self.resume_on_termination = resume_on_termination
        self.client = HttpClient(sim, rng or np.random.default_rng(0),
                                 name="message-handler")
        self._hooks: List[EventHook] = []
        self.polls = 0
        self.timeouts = 0
        self.retries = 0
        self.denms_handled = 0
        self.last_denm: Optional[Dict[str, Any]] = None
        self._running = False
        #: Whether a poll cycle is in flight.  A stop() followed by a
        #: start() before that cycle ends resumes it, not a second loop.
        self._looping = False
        self._consecutive_timeouts = 0
        if enabled:
            self.start()

    def start(self) -> None:
        """Start the polling loop (idempotent)."""
        self._running = True
        if self._looping:
            return
        self._looping = True
        self._consecutive_timeouts = 0
        self.sim.schedule(0.0, self._poll)

    def stop(self) -> None:
        """Stop polling after the in-flight request completes."""
        self._running = False

    def on_event(self, hook: EventHook) -> None:
        """Register a measurement hook (``denm_handled`` events)."""
        self._hooks.append(hook)

    def _emit(self, event: str, **fields: Any) -> None:
        record = {"sim_time": self.sim.now}
        record.update(fields)
        for hook in self._hooks:
            hook(event, record)

    #: Give up on a poll after this long (lost request/response).
    REQUEST_TIMEOUT = 0.5
    #: First retry delay after a timed-out poll (s); doubles per
    #: consecutive timeout up to RETRY_BACKOFF_CAP.
    RETRY_BACKOFF_INITIAL = 5e-3
    RETRY_BACKOFF_CAP = 0.2

    def _poll(self) -> None:
        if not self._running:
            self._looping = False
            return
        self.polls += 1
        poll_started = self.sim.now
        self.client.post(
            self.obu_server, "/request_denm",
            callback=lambda response: self._on_response(response,
                                                        poll_started),
            timeout=self.REQUEST_TIMEOUT)

    def _on_response(self, response: HttpResponse,
                     poll_started: float) -> None:
        obs = self.sim.obs
        if obs is not None:
            obs.count("obu.polls", device="message-handler")
            obs.record_span("obu.poll", poll_started, self.sim.now,
                            device="message-handler")
            obs.observe("obu.poll_rtt_ms",
                        (self.sim.now - poll_started) * 1000.0)
        if response.status == self.client.TIMEOUT_STATUS:
            # The OBU (or the hop to it) is unresponsive: retry with
            # capped exponential backoff rather than waiting out the
            # regular poll tick -- a recovered OBU is re-polled
            # quickly, a dead one is not hammered.
            self.timeouts += 1
            if obs is not None:
                obs.count("obu.poll_timeouts", device="message-handler")
            self._consecutive_timeouts += 1
            backoff = min(
                self.RETRY_BACKOFF_CAP,
                self.RETRY_BACKOFF_INITIAL
                * 2 ** (self._consecutive_timeouts - 1))
            self.retries += 1
            self._emit("poll_retry", attempt=self._consecutive_timeouts,
                       backoff=backoff)
            self._sleep(backoff)
            return
        self._consecutive_timeouts = 0
        if response.ok and "denm" in response.body:
            self._handle_denm(response.body["denm"])
        self._sleep(self.poll_interval)

    def _sleep(self, delay: float) -> None:
        # The wake-up after a sleep is its own zero-delay event: golden
        # traces, digests and the kernel.events counter pin that order.
        self.sim.schedule(delay, lambda: self.sim.schedule(0.0, self._poll))

    def _handle_denm(self, denm_json: Dict[str, Any]) -> None:
        self.denms_handled += 1
        obs = self.sim.obs
        if obs is not None:
            obs.count("obu.denms_handled", device="message-handler")
        self.last_denm = denm_json
        self._emit("denm_handled", denm=denm_json)
        if denm_json.get("termination") is not None:
            # All-clear: resume driving if configured to.
            if self.resume_on_termination and hasattr(self.planner,
                                                      "resume"):
                self.planner.resume()
            return
        if not self.stop_on_denm:
            return
        self.planner.emergency_stop(reason="denm")
