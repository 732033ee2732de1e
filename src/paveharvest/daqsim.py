"""Roadside DAQ simulator.

Synthesizes high-rate sensor physics internally and publishes exactly one
payload per sensor per simulated second: the arithmetic mean of that
second's internal samples, stamped at the end-of-second boundary. Topics
follow the ``site/<site>/daq/<daq>/sensor/<id>`` convention and are mapped
onto bus subjects.

:class:`ScenarioRun` only generates. The delivery rule belongs to
:func:`run_scenario`: a failed publish keeps the payload in its topic's
one-slot retry buffer and is tried again ahead of that topic's next
fresh sample; a second failure while the slot is full drops the older
sample with a WARNING, which surfaces downstream as a sequence gap, the
same signature a flaky cell link leaves in the field. After the last
tick each waiting payload gets one more attempt, and one that fails
again is dropped with the same WARNING, so no loss is silent.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import logging
import numbers
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import wire
from .timeutil import US_PER_SECOND, now_us, parse_rfc3339
from .tsstore import TS_END
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

_DROP_WARNING = "%s: dropping seq %d after repeated publish failure"

_FIELD_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real}


def _validate(obj, *token_fields: str) -> None:
    """Raise ValueError naming the first field of dataclass ``obj`` whose
    value is not of its annotated type (a bool is not a number here), or
    that ``token_fields`` names and is not a concrete subject token."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES.get(f.type, object)):
            raise ValueError(f"field {f.name!r} must be {f.type}, got {value!r}")
    for name in token_fields:
        token = getattr(obj, name)
        try:
            subject = Subject((token,))
        except wire.InvalidSubject as exc:
            raise ValueError(f"field {name!r}: {exc}") from exc
        if subject.is_pattern:
            raise ValueError(f"field {name!r}: wildcard {token!r} is not a concrete token")


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
        _validate(self, "sensor_id")  # the id is a subject token
        if self.kind not in SENSOR_KINDS:
            raise ValueError(f"unknown sensor kind {self.kind!r}")
        if self.rate_hz < 1:
            raise ValueError("internal rate must be >= 1 Hz")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")
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
        _validate(self, "site", "daq")  # the ids are subject tokens
        if self.duration_s < 0:
            raise ValueError(f"field 'duration_s' must be >= 0, got {self.duration_s}")
        if self.seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ValueError(f"field 'seed' must be >= 0, got {self.seed}")
        first = self.start_time_us + US_PER_SECOND
        last = self.start_time_us + self.duration_s * US_PER_SECOND
        if first <= 0 or last >= TS_END:  # the store keeps 0 < ts < TS_END
            raise ValueError(
                f"field 'start_time_us' gives stamps {first} to {last}, "
                "outside 0 < ts < 2**63"
            )
        ids = collections.Counter(spec.sensor_id for spec in self.sensors)
        if dups := [sensor_id for sensor_id, n in ids.items() if n > 1]:
            # two sensors with one id would publish one subject with the same seqs
            raise ValueError(f"duplicate sensor id {dups[0]!r}")

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a scenario file; a missing, unknown or mistyped field
        raises ValueError naming it. A file with no ``start_time`` starts
        now, so event time runs with the wall."""
        obj = json.loads(text)
        try:
            start = obj.get("start_time", now_us())
            return cls(
                site=str(obj["site"]),
                daq=str(obj["daq"]),
                sensors=[SensorSpec(sensor_id=s.pop("id"), **s) for s in obj["sensors"]],
                seed=obj.get("seed", 0),
                start_time_us=parse_rfc3339(start) if isinstance(start, str) else start,
                duration_s=obj.get("duration_s", 60),
            )
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from exc
        except (TypeError, AttributeError) as exc:  # an unknown field, or not an object
            raise ValueError(f"malformed scenario: {exc}") from exc

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


class _SensorState:
    def __init__(self, scenario: Scenario, index: int):
        self.spec = spec = scenario.sensors[index]
        self.topic = f"site/{scenario.site}/daq/{scenario.daq}/sensor/{spec.sensor_id}"
        self.rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, index]))
        self.seq = 0


class ScenarioRun:
    """Advances a scenario one simulated second at a time."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.states = [_SensorState(scenario, i) for i in range(len(scenario.sensors))]

    def tick(self, second: int) -> list[tuple[str, SamplePayload]]:
        """``(topic, payload)`` per sensor, in scenario order, due at the
        end of simulated second ``second`` (0-based)."""
        out: list[tuple[str, SamplePayload]] = []
        for state in self.states:
            spec = state.spec
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
            out.append((state.topic, payload))
        return out


@dataclass
class RunReport:
    published: int = 0
    failed: int = 0


def run_scenario(
    scenario: Scenario,
    publish: PublishFn,
    speedup: float = 1.0,
    on_publish: Callable[[str, SamplePayload, int], None] | None = None,
) -> RunReport:
    """Drive a scenario to completion against a publish function.

    ``publish`` raising marks that payload failed. A topic's failed payload
    is retried ahead of its next fresh sample, so arrival order stays
    seq-ascending on a healthy link; a failure while an older payload
    waits drops the older one. Payloads still waiting after the last tick
    get one more attempt. ``on_publish(topic, payload, wall_us)`` fires
    after each success.
    """
    if not speedup >= 1:  # NaN too
        raise ValueError(f"speedup must be >= 1, got {speedup}")
    run = ScenarioRun(scenario)
    report = RunReport()
    # topic -> its one failed payload; only send() stores here, and a failure
    # while the slot is full drops the older payload
    retry: dict[str, SamplePayload] = {}

    def send(topic: str, payload: SamplePayload) -> None:
        try:
            publish(topic, payload)
        except Exception as exc:
            logger.warning("publish to %s failed: %s", topic, exc)
            report.failed += 1
            if topic in retry:
                logger.warning(_DROP_WARNING, topic, retry[topic].seq)
            retry[topic] = payload
        else:
            report.published += 1
            if on_publish is not None:
                on_publish(topic, payload, time.time_ns() // 1000)

    t0 = time.monotonic()
    for second in range(scenario.duration_s):
        due = t0 + (second + 1) / speedup
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        for topic, payload in run.tick(second):
            if topic in retry:
                send(topic, retry.pop(topic))
            send(topic, payload)
    for topic in list(retry):  # one more attempt; a payload failing it is dropped
        send(topic, retry.pop(topic))
        if topic in retry:
            logger.warning(_DROP_WARNING, topic, retry.pop(topic).seq)
    return report


def bus_publisher(client) -> PublishFn:
    """Adapt a :class:`~paveharvest.client.BusClient` into a publish function."""

    def publish(topic: str, payload: SamplePayload) -> None:
        client.publish(mqtt_topic_to_subject(topic), payload.encode())

    return publish
