"""Roadside DAQ simulator.

Synthesizes high-rate sensor physics internally and publishes exactly one
payload per sensor per simulated second: the arithmetic mean of that
second's internal samples, stamped at the end-of-second boundary. Topics
follow the ``site/<site>/daq/<daq>/sensor/<id>`` convention and are mapped
onto bus subjects.

A failed publish keeps the payload in a one-slot retry buffer and tries
again at the next tick; a second consecutive failure drops the older
sample, which surfaces downstream as a sequence gap, the same signature
a flaky cell link leaves in the field.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import wire
from .timeutil import US_PER_SECOND, parse_rfc3339
from .wire import SamplePayload, Subject, mqtt_topic_to_subject

logger = logging.getLogger(__name__)

EPC = "EPC"
SCG = "SCG"
MOISTURE = "MOISTURE"
TEMPERATURE = "TEMPERATURE"

SENSOR_KINDS = frozenset({EPC, SCG, MOISTURE, TEMPERATURE})

DEFAULT_UNITS = {EPC: "kPa", SCG: "microstrain", MOISTURE: "vwc", TEMPERATURE: "degF"}

DAY_SECONDS = 86_400.0

PublishFn = Callable[[str, SamplePayload], None]


@dataclass
class SensorSpec:
    """Describes one simulated sensor.

    EPC/SCG ride a baseline with periodic half-sine load-pass pulses;
    TEMPERATURE is a 24 h sinusoid; MOISTURE drifts linearly. Gaussian
    noise with ``noise_sigma`` is added on top of every internal sample.
    """

    sensor_id: str
    kind: str
    unit: str = ""
    rate_hz: int = 100
    noise_sigma: float = 0.0
    # EPC / SCG
    baseline: float = 0.0
    pulse_amplitude: float = 1.0
    pulse_period_s: float = 10.0
    pulse_width_s: float = 2.0
    # TEMPERATURE
    mean: float = 70.0
    amplitude: float = 10.0
    phase_s: float = 0.0
    # MOISTURE
    start: float = 0.3
    drift_per_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SENSOR_KINDS:
            raise ValueError(f"unknown sensor kind {self.kind!r}")
        if self.rate_hz < 1:
            raise ValueError("internal rate must be >= 1 Hz")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")
        try:
            Subject((self.sensor_id,))  # id must be a legal subject token
        except wire.InvalidSubject as exc:
            raise ValueError(str(exc)) from exc
        if not self.unit:
            self.unit = DEFAULT_UNITS[self.kind]


@dataclass
class Scenario:
    site: str
    daq: str
    sensors: list[SensorSpec]
    seed: int = 0
    start_time_us: int = 1  # simulated epoch of second 0
    duration_s: int = 60

    def __post_init__(self) -> None:
        # an empty sensor list is legal: the pipeline runs and publishes nothing
        try:
            Subject((self.site, self.daq))  # ids must be legal tokens
        except wire.InvalidSubject as exc:
            raise ValueError(str(exc)) from exc

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        obj = json.loads(text)
        start = obj.get("start_time", 1)
        if isinstance(start, str):
            start = parse_rfc3339(start)
        sensors = [SensorSpec(sensor_id=s.pop("id"), **s) for s in obj["sensors"]]
        return cls(
            site=str(obj["site"]),
            daq=str(obj["daq"]),
            sensors=sensors,
            seed=int(obj.get("seed", 0)),
            start_time_us=int(start),
            duration_s=int(obj.get("duration_s", 60)),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        return cls.from_json(Path(path).read_text())


def waveform(spec: SensorSpec, t: np.ndarray | float) -> np.ndarray | float:
    """Deterministic signal value(s) at simulated second(s) ``t``, no noise."""
    t = np.asarray(t, dtype=float)
    if spec.kind in (EPC, SCG):
        x = np.mod(t, spec.pulse_period_s)
        pulse = np.where(
            x < spec.pulse_width_s,
            np.sin(np.pi * x / spec.pulse_width_s),
            0.0,
        )
        return spec.baseline + spec.pulse_amplitude * pulse
    if spec.kind == TEMPERATURE:
        return spec.mean + spec.amplitude * np.sin(
            2.0 * np.pi * (t - spec.phase_s) / DAY_SECONDS
        )
    # MOISTURE
    return spec.start + spec.drift_per_s * t


def synth_value(
    spec: SensorSpec, t: float, rng: np.random.Generator | None = None
) -> float:
    """One internal sample at simulated time ``t`` (noise drawn from ``rng``)."""
    v = float(waveform(spec, t))
    if spec.noise_sigma > 0 and rng is not None:
        v += spec.noise_sigma * rng.standard_normal()
    return float(v)


class _SensorState:
    def __init__(self, spec: SensorSpec, seed: int, index: int):
        self.spec = spec
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        self.seq = 0
        self.pending: SamplePayload | None = None


class ScenarioRun:
    """Advances a scenario one simulated second at a time."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.states = [
            _SensorState(spec, scenario.seed, i)
            for i, spec in enumerate(scenario.sensors)
        ]

    def topic(self, spec: SensorSpec) -> str:
        s = self.scenario
        return f"site/{s.site}/daq/{s.daq}/sensor/{spec.sensor_id}"

    def tick(self, second: int) -> list[tuple[str, SamplePayload]]:
        """Payloads due at the end of simulated second ``second`` (0-based).

        Any pending retry precedes the fresh sample so arrival order stays
        seq-ascending on a healthy link.
        """
        out: list[tuple[str, SamplePayload]] = []
        for state in self.states:
            spec = state.spec
            if state.pending is not None:
                out.append((self.topic(spec), state.pending))
                state.pending = None
            times = second + np.arange(spec.rate_hz, dtype=float) / spec.rate_hz
            values = np.asarray(waveform(spec, times), dtype=float)
            if spec.noise_sigma > 0:
                values = values + spec.noise_sigma * state.rng.standard_normal(
                    spec.rate_hz
                )
            state.seq += 1
            payload = SamplePayload(
                ts=self.scenario.start_time_us + (second + 1) * US_PER_SECOND,
                v=float(values.mean()),
                seq=state.seq,
                unit=spec.unit,
            )
            out.append((self.topic(spec), payload))
        return out

    def note_failure(self, topic: str, payload: SamplePayload) -> None:
        """Stash a failed publish for retry; an older pending one is dropped."""
        for state in self.states:
            if self.topic(state.spec) == topic:
                if state.pending is not None:
                    logger.warning(
                        "%s: dropping seq %d after repeated publish failure",
                        topic,
                        state.pending.seq,
                    )
                state.pending = payload
                return


@dataclass
class RunReport:
    published: int = 0
    failed: int = 0


def run_scenario(
    scenario: Scenario,
    publish: PublishFn,
    speedup: float = 1.0,
    on_publish: Callable[[str, SamplePayload, int], None] | None = None,
    clock=time,
) -> RunReport:
    """Drive a scenario to completion against a publish function.

    ``publish`` raising marks that payload failed (retried next tick).
    ``on_publish(sensor_id, payload, wall_us)`` fires after each success.
    """
    if speedup < 1:
        raise ValueError("speedup must be >= 1")
    run = ScenarioRun(scenario)
    report = RunReport()
    t0 = clock.monotonic()
    for second in range(scenario.duration_s):
        due = t0 + (second + 1) / speedup
        delay = due - clock.monotonic()
        if delay > 0:
            clock.sleep(delay)
        for topic, payload in run.tick(second):
            try:
                publish(topic, payload)
            except Exception as exc:
                logger.warning("publish to %s failed: %s", topic, exc)
                run.note_failure(topic, payload)
                report.failed += 1
            else:
                report.published += 1
                if on_publish is not None:
                    on_publish(topic.rsplit("/", 1)[1], payload, time.time_ns() // 1000)
    return report


def bus_publisher(client) -> PublishFn:
    """Adapt a :class:`~paveharvest.client.BusClient` into a publish function."""

    def publish(topic: str, payload: SamplePayload) -> None:
        client.publish(mqtt_topic_to_subject(topic), payload.encode())

    return publish
