"""The Object Detection Service.

Consumes road-side camera frames, runs the (simulated) YOLO detector
and publishes :class:`DetectionEvent` batches.  The service is
inference-bound: while a frame is being processed, newly captured
frames are dropped -- this is what makes the effective processing rate
~4 FPS even though the camera captures faster, and it is the dominant
contributor to the step-1 -> step-2 delay.

The service also estimates each tracked object's motion vector from
consecutive sightings (the paper: the service "determines the
dynamics of the vehicles (motion direction vector)").
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Tuple

from repro.roadside.camera import CameraFrame
from repro.roadside.yolo import Detection, SimulatedYolo
from repro.sim.kernel import Simulator


@dataclasses.dataclass(frozen=True)
class DetectionEvent:
    """One processed frame's worth of detections."""

    detections: Tuple[Detection, ...]
    captured_at: float       # when the camera took the frame
    completed_at: float      # when YOLO output became available (step 2)
    motion_vectors: Dict[str, Tuple[float, float]] = dataclasses.field(
        default_factory=dict)

    @property
    def pipeline_latency(self) -> float:
        """Frame capture -> YOLO output (s)."""
        return self.completed_at - self.captured_at


class ObjectDetectionService:
    """Camera frames -> detection events, at inference speed."""

    def __init__(
        self,
        sim: Simulator,
        yolo: SimulatedYolo,
        publish: Callable[[DetectionEvent], None],
    ):
        self.sim = sim
        self.yolo = yolo
        self.publish = publish
        self._busy = False
        self.frames_received = 0
        self.frames_dropped = 0
        self.frames_processed = 0
        self._last_seen: Dict[str, Tuple[float, Tuple[float, float]]] = {}

    def on_frame(self, frame: CameraFrame) -> None:
        """Topic/camera callback."""
        self.frames_received += 1
        obs = self.sim.obs
        if self._busy:
            self.frames_dropped += 1
            if obs is not None:
                obs.count("pipeline.frames_dropped", device="rsu")
            return
        self._busy = True
        inference = self.yolo.sample_inference_time()
        if obs is not None:
            obs.count("pipeline.frames_accepted", device="rsu")
            obs.observe("pipeline.inference_ms", inference * 1000.0)
        detections = self.yolo.detect(frame.objects)
        positions = {obj.name: obj.position for obj in frame.objects}
        self.sim.schedule(
            inference,
            lambda: self._complete(frame, detections, positions))

    def _complete(self, frame: CameraFrame, detections: List[Detection],
                  positions: Dict[str, Tuple[float, float]]) -> None:
        self._busy = False
        self.frames_processed += 1
        motion = self._update_motion(frame.captured_at, detections,
                                     positions)
        event = DetectionEvent(
            detections=tuple(detections),
            captured_at=frame.captured_at,
            completed_at=self.sim.now,
            motion_vectors=motion,
        )
        obs = self.sim.obs
        if obs is not None:
            obs.count("pipeline.frames_processed", device="rsu")
            obs.record_span("pipeline.detect", frame.captured_at,
                            self.sim.now, device="rsu")
        self.publish(event)

    def _update_motion(self, captured_at: float,
                       detections: List[Detection],
                       positions: Dict[str, Tuple[float, float]],
                       ) -> Dict[str, Tuple[float, float]]:
        motion: Dict[str, Tuple[float, float]] = {}
        for detection in detections:
            pos = positions.get(detection.object_name)
            if pos is None:
                continue
            previous = self._last_seen.get(detection.object_name)
            if previous is not None:
                t_prev, (x_prev, y_prev) = previous
                dt = captured_at - t_prev
                if dt > 1e-6:
                    motion[detection.object_name] = (
                        (pos[0] - x_prev) / dt, (pos[1] - y_prev) / dt)
            self._last_seen[detection.object_name] = (captured_at, pos)
        return motion
