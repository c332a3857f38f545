"""What the traced pass wraps in ``repro``, and the per-layer metrics.

The layers are the packages under ``src/repro``.  Three kinds of
wrapper, all installed from here and removed after every traced unit:

1. ``EventQueue.push``: each scheduled callback becomes a frame of
   ``<layer>.event``, charged to the layer that defined it (``sim`` when
   it comes from outside the package).
2. ``NetworkInterface.on_receive``, ``BtpMux.register`` and
   ``HttpServer.route``: each registered callback becomes a frame of
   ``<layer>.callback``.
3. Public entry points called across layers, each a frame of its own
   site (``net.transmit``, ``vision.hough``, ``analysis.det``, ...).

The unit itself is the outermost frame, charged to the layer of the
entry point it calls (``core`` for the simulations).  ``sim.self_s`` is
therefore the kernel loop plus callbacks defined in ``repro/sim``.
"""

from __future__ import annotations

import functools
import statistics
from typing import Any, Callable, Dict, List, Mapping, Optional

from tracer import Patch, Tracer

#: The packages under ``src/repro`` that the workloads exercise.
LAYERS = ("sim", "core", "vision", "vehicle", "net", "asn1", "geonet",
          "facilities", "messages", "security", "openc2x", "roadside",
          "obs", "analysis")

#: Analyzer phases: metric ``analysis.<phase>_s`` is site ``analysis.<phase>``.
ANALYSIS_PHASES = ("parse", "det", "project_build", "sch", "eff", "fpr",
                   "suppress")


def patches(tracer: Tracer) -> List[Patch]:
    """Every wrapper the traced pass installs."""
    from repro.analysis import engine
    from repro.analysis.interproc import project
    from repro.analysis.registry import rule_families
    from repro.asn1.types import Asn1Type
    from repro.geonet.btp import BtpMux
    from repro.geonet.router import GeoNetRouter
    from repro.messages.cam import Cam
    from repro.messages.cpm import Cpm
    from repro.messages.denm import Denm
    from repro.messages.spat import Mapem, Spatem
    from repro.net.medium import WirelessMedium
    from repro.net.nic import NetworkInterface
    from repro.obs.context import ObsAggregate, ObsContext
    from repro.openc2x.http import HttpClient, HttpServer
    from repro.security.entity import SecurityEntity
    from repro.sim.kernel import EventQueue, Simulator
    from repro.vehicle import line_follow

    timed = tracer.timed
    charged = tracer.charged

    # Every scheduled event passes through here: with the exact
    # signature a push costs half what the general wrapper's does.
    def charge_events(original: Callable[..., Any]) -> Callable[..., Any]:
        def push(queue: Any, when: float, callback: Callable[[], None],
                 site: Optional[str] = None) -> Any:
            return original(queue, when, charged(callback, "event", "sim"),
                            site)
        return functools.wraps(original)(push)

    out: List[Patch] = [
        (EventQueue, "push", charge_events),
        (NetworkInterface, "on_receive", tracer.charging(1, "callback")),
        (BtpMux, "register", tracer.charging(2, "callback")),
        (HttpServer, "route", tracer.charging(2, "callback")),
        (Simulator, "run", timed("sim.run")),
        (Simulator, "run_until", timed("sim.run")),
        # Where the vehicle imports them, so no other caller is wrapped.
        (line_follow, "canny", timed("vision.canny")),
        (line_follow, "probabilistic_hough", timed("vision.hough")),
        (Asn1Type, "to_bytes", timed("asn1.encode")),
        (Asn1Type, "from_bytes", timed("asn1.decode")),
        (WirelessMedium, "transmit", timed("net.transmit")),
        (HttpServer, "submit", timed("openc2x.submit")),
        (HttpClient, "post", timed("openc2x.post")),
        (SecurityEntity, "sign_async", timed("security.sign")),
        (SecurityEntity, "verify_async", timed("security.verify")),
        (ObsContext, "to_dict", timed("obs.to_dict", keep=True)),
        (ObsContext, "from_dict", timed("obs.from_dict")),
        (ObsAggregate, "add_run", timed("obs.fold")),
        (engine, "_check_file", timed("analysis.parse")),
        (project, "build_project", timed("analysis.project_build")),
        (engine, "apply_suppressions", timed("analysis.suppress")),
    ]
    for name in ("send_shb", "send_gbc", "send_guc"):
        out.append((GeoNetRouter, name, timed("geonet.send")))
    # Not count: the observer's hottest call (a third of the frames on
    # fleet_observed, ~3 points of trace.overhead); its time stays with
    # the layer that counts.  Not profile: it returns a context
    # manager, so its frame would close before the measured block runs.
    for name in ("observe", "set_gauge", "span", "record_span",
                 "kernel_step"):
        out.append((ObsContext, name, timed("obs.record")))
    # Not decode: every receiver decodes every frame, mostly from a
    # memo, and a frame per reception would double the trace overhead.
    for cls in (Cam, Denm, Cpm, Spatem, Mapem):
        out.append((cls, "encode", timed("messages.encode")))
    # Rule checks are generators: materialise them inside the frame.
    wrapped = set()
    for family in rule_families():
        method = "check" if family.scope == "per-file" else "check_project"
        for rule in family.rules:
            if (type(rule), method) in wrapped:
                continue
            wrapped.add((type(rule), method))
            out.append((type(rule), method,
                        timed(f"analysis.{family.prefix.lower()}",
                              materialize=True)))
    return out


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(self_s: Mapping[str, float], calls: Mapping[str, float],
                  counters: Mapping[str, float], obs_payloads: List[Any],
                  pair_ratios: List[float]) -> Dict[str, float]:
    """Every per-layer metric, from one traced pass.

    *self_s* / *calls* are per site, *counters* are summed over the
    traced units' outputs, *obs_payloads* are the ``ObsContext.to_dict``
    results the units produced, and *pair_ratios* are traced over
    untraced wall time of each unit; their median is robust to a pair
    that a slow spell of the host hit.  Times and counts are reported
    per traced unit (one per pair).
    """
    from repro.core.fingerprint import canonical_json

    units = len(pair_ratios)
    self_s = {site: seconds / units for site, seconds in self_s.items()}
    calls = {site: n / units for site, n in calls.items()}
    counters = {name: value / units for name, value in counters.items()}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0.0)
    for site, seconds in self_s.items():
        layer = site.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds
        layer_calls[layer] = layer_calls.get(layer, 0.0) + calls[site]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
        metrics[f"{layer}.calls"] = layer_calls[layer]

    def count(name: str) -> float:
        return counters.get(name, 0)

    events = sum(n for site, n in calls.items() if site.endswith(".event"))
    rx_attempts = count("net.rx_attempts")
    sizes = [len(canonical_json(payload)) for payload in obs_payloads]
    traced_total = sum(layer_self.values())
    metrics.update({
        "vision.canny_s": self_s.get("vision.canny", 0.0),
        "vision.hough_s": self_s.get("vision.hough", 0.0),
        "vision.frames": calls.get("vision.canny", 0),
        "vehicle.callbacks": (calls.get("vehicle.event", 0)
                              + calls.get("vehicle.callback", 0)),
        "net.frames_sent": count("net.frames_sent"),
        "net.rx_attempts": rx_attempts,
        "net.delivered": count("net.delivered"),
        "net.delivery_ratio": _per(count("net.delivered"), rx_attempts),
        "net.host_us_per_rx": 1e6 * _per(layer_self["net"], rx_attempts),
        "asn1.encodes": calls.get("asn1.encode", 0),
        "asn1.decodes": calls.get("asn1.decode", 0),
        "facilities.cams_sent": count("facilities.cams_sent"),
        "facilities.cams_received": count("facilities.cams_received"),
        "openc2x.http_requests": calls.get("openc2x.submit", 0),
        "roadside.frames_processed": count("roadside.frames_processed"),
        "sim.events": events,
        "sim.host_us_per_event": 1e6 * _per(layer_self["sim"], events),
        "obs.span_events": sum(len(p["span_events"])
                               for p in obs_payloads) / units,
        "obs.payload_bytes": statistics.median(sizes) if sizes else 0,
        "analysis.files": count("analysis.files"),
        "trace.overhead": statistics.median(pair_ratios) - 1.0,
        "trace.coverage": _per(traced_total - layer_self["sim"],
                               traced_total),
    })
    for phase in ANALYSIS_PHASES:
        metrics[f"analysis.{phase}_s"] = self_s.get(f"analysis.{phase}", 0.0)
    return metrics
