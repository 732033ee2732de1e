"""DAQ simulator: averaging, determinism and retry semantics."""

import logging

import numpy as np
import pytest

from paveharvest.daqsim import (
    EPC,
    MOISTURE,
    SCG,
    TEMPERATURE,
    RunReport,
    Scenario,
    ScenarioRun,
    SensorSpec,
    run_scenario,
    waveform,
)
from paveharvest.timeutil import US_PER_SECOND

from helpers import dropped, failure_patterns


def spec_temperature(**kw):
    return SensorSpec(sensor_id="t1", kind=TEMPERATURE, **kw)


def test_degenerate_sinusoid_is_constant():
    spec = spec_temperature(mean=70.0, amplitude=0.0)
    for t in (0.0, 17.3, 86_399.0):
        assert float(waveform(spec, t)) == 70.0


def test_epc_maxima_spacing_equals_period():
    spec = SensorSpec(
        sensor_id="e1", kind=EPC, baseline=5.0, pulse_amplitude=2.0,
        pulse_period_s=10.0, pulse_width_s=2.0,
    )
    t = np.arange(0, 100, 0.001)
    y = np.asarray(waveform(spec, t))
    peaks = [
        i for i in range(1, len(y) - 1) if y[i] >= y[i - 1] and y[i] > y[i + 1]
    ]
    gaps = np.diff(t[peaks])
    assert np.allclose(gaps, 10.0, atol=0.002)


def test_fixed_seed_replays_identically():
    def scen():
        return Scenario(
            site="65", daq="1", seed=99, duration_s=5,
            sensors=[
                SensorSpec(sensor_id="e1", kind=EPC, noise_sigma=0.4),
                spec_temperature(noise_sigma=0.2),
            ],
        )

    runs = []
    for _ in range(2):
        run = ScenarioRun(scen())
        runs.append([run.tick(k) for k in range(5)])
    assert runs[0] == runs[1]


def test_tick_averages_constant_signal():
    scenario = Scenario(
        site="65", daq="1",
        sensors=[spec_temperature(mean=70.0, amplitude=0.0)],
    )
    run = ScenarioRun(scenario)
    ((topic, payload),) = run.tick(0)
    assert topic == "site/65/daq/1/sensor/t1"
    assert payload.v == 70.0
    assert payload.seq == 1
    assert payload.ts == scenario.start_time_us + US_PER_SECOND


def test_tick_mean_of_ramp():
    # internal values 1..100 within the second -> mean 50.5
    spec = SensorSpec(
        sensor_id="m1", kind=MOISTURE, rate_hz=100, start=1.0, drift_per_s=100.0,
    )
    run = ScenarioRun(Scenario(site="s", daq="d", sensors=[spec]))
    ((_, payload),) = run.tick(0)
    assert payload.v == pytest.approx(50.5, abs=1e-12)


def test_counting_three_sensors_sixty_ticks():
    scenario = Scenario(
        site="65", daq="1", duration_s=60,
        sensors=[
            SensorSpec(sensor_id=f"s{i}", kind=EPC) for i in range(3)
        ],
    )
    published = []
    report = run_scenario(scenario, lambda t, p: published.append((t, p)), speedup=10**9)
    assert report.published == 180
    assert report.failed == 0
    per_sensor = {}
    for topic, payload in published:
        per_sensor.setdefault(topic, []).append(payload.seq)
    assert len(per_sensor) == 3
    for seqs in per_sensor.values():
        assert seqs == list(range(1, 61))


def test_scaling_internal_signal_scales_published_values():
    def scenario(k):
        return Scenario(
            site="s", daq="d", duration_s=10,
            sensors=[
                SensorSpec(
                    sensor_id="e1", kind=EPC, baseline=3.0 * k,
                    pulse_amplitude=2.0 * k, pulse_period_s=4.0,
                )
            ],
        )

    def collect(s):
        vals = []
        run_scenario(s, lambda t, p: vals.append(p.v), speedup=10**9)
        return vals

    base = collect(scenario(1.0))
    scaled = collect(scenario(5.0))
    assert scaled == pytest.approx([5.0 * v for v in base], rel=1e-12)


def test_publish_failure_retries_with_same_seq():
    scenario = Scenario(
        site="s", daq="d", duration_s=3,
        sensors=[spec_temperature(mean=1.0, amplitude=0.0)],
    )
    calls = []
    fail_first = {"armed": True}

    def publish(topic, payload):
        if fail_first["armed"]:
            fail_first["armed"] = False
            raise OSError("link down")
        calls.append(payload.seq)

    report = run_scenario(scenario, publish, speedup=10**9)
    # seq 1 failed once, then was retried ahead of seq 2
    assert calls == [1, 2, 3]
    assert report.failed == 1
    assert report.published == 3


T1 = "site/s/daq/d/sensor/t1"


def test_sustained_outage_drops_oldest_and_leaves_gap(caplog):
    scenario = Scenario(
        site="s", daq="d", duration_s=5,
        sensors=[spec_temperature(mean=1.0, amplitude=0.0)],
    )
    got = []

    def publish(topic, payload):
        if payload.seq < 4:
            raise OSError("link down")
        got.append(payload.seq)

    with caplog.at_level(logging.WARNING, logger="paveharvest.daqsim"):
        report = run_scenario(scenario, publish, speedup=10**9)
    # seqs 1 and 2 are dropped during the outage; seq 3 keeps failing after
    # it and is dropped by the attempt at run end -> a downstream gap
    assert got == [4, 5]
    assert dropped(caplog) == [(T1, 1), (T1, 2), (T1, 3)]
    assert report == RunReport(published=2, failed=8)


def test_retry_waiting_at_run_end_is_attempted_once_more(caplog):
    scenario = Scenario(
        site="s", daq="d", duration_s=3,
        sensors=[spec_temperature(mean=1.0, amplitude=0.0)],
    )
    calls = []
    failures = {3: 1}  # the last tick's publish fails once

    def publish(topic, payload):
        if failures.get(payload.seq, 0):
            failures[payload.seq] -= 1
            raise OSError("link down")
        calls.append(payload.seq)

    with caplog.at_level(logging.WARNING, logger="paveharvest.daqsim"):
        report = run_scenario(scenario, publish, speedup=10**9)
    assert calls == [1, 2, 3]
    assert report == RunReport(published=3, failed=1)
    assert dropped(caplog) == []


def test_retry_failing_at_run_end_is_dropped_with_a_warning(caplog):
    scenario = Scenario(
        site="s", daq="d", duration_s=3,
        sensors=[spec_temperature(mean=1.0, amplitude=0.0)],
    )
    calls = []

    def publish(topic, payload):
        if payload.seq == 3:
            raise OSError("link down")
        calls.append(payload.seq)

    with caplog.at_level(logging.WARNING, logger="paveharvest.daqsim"):
        report = run_scenario(scenario, publish, speedup=10**9)
    assert calls == [1, 2]
    assert report == RunReport(published=2, failed=2)
    assert dropped(caplog) == [(T1, 3)]


def reference_run(scenario, ok):
    """The retry rule as a per-sensor pending slot: each tick emits a
    sensor's pending payload ahead of its fresh one, and a failure stashes
    the payload, dropping an older pending one with a warning. Payloads
    still pending after the last tick get one more attempt, in scenario
    order. ``ok(n)`` says whether the n-th publish attempt succeeds."""
    run = ScenarioRun(scenario)
    pending = {}
    attempts, published, drops = [], [], []

    def attempt(topic, payload):
        success = ok(len(attempts))
        attempts.append((topic, payload, success))
        if success:
            published.append((topic, payload))
        return success

    for second in range(scenario.duration_s):
        due = []
        for topic, payload in run.tick(second):
            if topic in pending:
                due.append((topic, pending.pop(topic)))
            due.append((topic, payload))
        for topic, payload in due:
            if not attempt(topic, payload):
                if topic in pending:
                    drops.append((topic, pending[topic].seq))
                pending[topic] = payload
    for state in run.states:
        payload = pending.pop(state.topic, None)
        if payload is not None and not attempt(state.topic, payload):
            drops.append((state.topic, payload.seq))
    report = RunReport(
        published=sum(a[2] for a in attempts),
        failed=sum(not a[2] for a in attempts),
    )
    return attempts, published, drops, report


def test_run_scenario_matches_the_reference_rule(caplog):
    for scenario, outcomes in failure_patterns():
        want = reference_run(scenario, outcomes.__getitem__)

        attempts, published = [], []

        def publish(topic, payload):
            success = outcomes[len(attempts)]
            attempts.append((topic, payload, success))
            if not success:
                raise OSError("link down")

        def on_publish(topic, payload, wall_us):
            assert isinstance(wall_us, int)
            published.append((topic, payload))

        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="paveharvest.daqsim"):
            report = run_scenario(scenario, publish, speedup=10**9, on_publish=on_publish)
        assert (attempts, published, dropped(caplog), report) == want


def test_scenario_json_round_trip(tmp_path):
    text = """
    {
      "site": "65", "daq": "1", "seed": 7, "duration_s": 12,
      "start_time": "2024-06-01T00:00:00Z",
      "sensors": [
        {"id": "epc3", "kind": "EPC", "noise_sigma": 0.5, "baseline": 100.0,
         "pulse_amplitude": 40.0, "pulse_period_s": 10.0, "pulse_width_s": 2.0},
        {"id": "t1", "kind": "TEMPERATURE", "mean": 70.0, "amplitude": 15.0}
      ]
    }
    """
    path = tmp_path / "scen.json"
    path.write_text(text)
    s = Scenario.from_file(path)
    assert s.site == "65" and s.duration_s == 12
    assert [x.sensor_id for x in s.sensors] == ["epc3", "t1"]
    assert s.sensors[0].unit == "kPa"
    assert s.sensors[1].unit == "degF"


def test_spec_validation():
    with pytest.raises(ValueError):
        SensorSpec(sensor_id="bad.id", kind=EPC)
    with pytest.raises(ValueError):
        SensorSpec(sensor_id="x", kind="LIDAR")
    with pytest.raises(ValueError):
        SensorSpec(sensor_id="x", kind=EPC, rate_hz=0)
    with pytest.raises(ValueError, match="field 'site'"):
        Scenario(site="s.s", daq="d", sensors=[])
    with pytest.raises(ValueError, match="field 'daq'"):
        Scenario(site="s", daq="*", sensors=[])  # a wildcard is no topic level
    with pytest.raises(ValueError, match="field 'sensor_id'"):
        SensorSpec(sensor_id=">", kind=EPC)
    with pytest.raises(ValueError, match="field 'duration_s'"):
        Scenario(site="s", daq="d", sensors=[], duration_s=-3)
    with pytest.raises(ValueError, match="field 'seed'"):
        Scenario(site="s", daq="d", sensors=[], seed=-1)
    # stamps run from start + 1 s to start + duration_s s, in the store's 0 < ts < 2**63
    Scenario(site="s", daq="d", sensors=[], start_time_us=1 - US_PER_SECOND)
    with pytest.raises(ValueError, match="field 'start_time_us'"):
        Scenario(site="s", daq="d", sensors=[], start_time_us=-US_PER_SECOND)
    latest = 2**63 - 1 - 10 * US_PER_SECOND
    Scenario(site="s", daq="d", sensors=[], start_time_us=latest, duration_s=10)
    with pytest.raises(ValueError, match="field 'start_time_us'"):
        Scenario(site="s", daq="d", sensors=[], start_time_us=latest + 1, duration_s=10)


@pytest.mark.parametrize("speedup", [0.5, float("nan")])
def test_run_scenario_rejects_a_speedup_below_one(speedup):
    scenario = Scenario(site="s", daq="d", sensors=[spec_temperature()], duration_s=2)
    with pytest.raises(ValueError, match="speedup must be >= 1"):
        run_scenario(scenario, lambda t, p: pytest.fail("nothing may be published"),
                     speedup=speedup)


def test_duplicate_sensor_ids_are_rejected():
    with pytest.raises(ValueError, match="duplicate sensor id 'e1'"):
        Scenario(
            site="s", daq="d",
            sensors=[SensorSpec("e1", EPC), SensorSpec("e2", SCG), SensorSpec("e1", EPC)],
        )
    with pytest.raises(ValueError, match="duplicate sensor id 'e1'"):
        Scenario.from_json(
            '{"site": "s", "daq": "d", "sensors": '
            '[{"id": "e1", "kind": "EPC"}, {"id": "e1", "kind": "EPC"}]}'
        )


def test_zero_sensor_scenario_publishes_nothing():
    report = run_scenario(
        Scenario(site="s", daq="d", sensors=[], duration_s=10),
        lambda t, p: (_ for _ in ()).throw(AssertionError("no publishes expected")),
        speedup=10**9,
    )
    assert report.published == 0 and report.failed == 0
