"""``live_telemetry``: the bus, the connector and the store under field-shaped traffic.

The system (broker, connector, store) runs in a child interpreter; this
process is the load generator. It uses one thread of its own and two TCP
connections, one ``BusClient`` per DAQ; each client also runs its reader
thread, which here only ever sees ``+OK`` frames. On a machine with two
or more CPUs the generator is confined to the first and the system to
the last. Two phases follow:

- ``paced``: an open loop at ``PACED_RATE`` samples/s, well below today's
  saturation. Every tick both DAQs publish their eight sensors' samples,
  and latency is timed from the tick's due time to the insert.
- ``backfill``: both DAQs replay a buffered backlog of ``BURST_TICKS``
  ticks as fast as the bus accepts it, as after a link outage.

The run starts ``SETUP_REPS`` systems one after the other, timing each
set-up, and each system carries an equal share of rounds that alternate
a paced segment and a burst, each stored before the next starts. So
every figure is sampled from several processes spread over the run, on a
machine whose speed drifts.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

import checks
import common
import tracing

PACED_RATE = 2000  # samples/s over both DAQs
SENSORS_PER_DAQ = 8
DAQS = ("1", "2")
SITE = "65"
TICK_SAMPLES = SENSORS_PER_DAQ * len(DAQS)
PACED_SHARE = 0.2  # of --seconds spent in paced segments
BURST_TICKS = 500  # 8,000 samples: 16 full connector batches, a backlog its 10,000-record queue holds
ROUNDS_PER_SECOND = 0.9  # paced segments and backfill bursts per --seconds
READBACKS = 5  # per system
BASE_TS_US = 1_717_200_000_000_000  # 2024-06-01T00:00:00Z


def scenario(seed: int, daq_index: int):
    """Eight daqsim sensors: pulsed pressure and strain, temperature, moisture."""
    from paveharvest.daqsim import Scenario, SensorSpec

    rng = np.random.default_rng([seed, daq_index])
    sensors = []
    for i in range(3):
        sensors.append(SensorSpec(f"epc{i}", "EPC", rate_hz=4, noise_sigma=0.5,
                                  baseline=float(rng.uniform(80, 120)), pulse_amplitude=40.0,
                                  pulse_period_s=float(rng.uniform(6, 14))))
        sensors.append(SensorSpec(f"scg{i}", "SCG", rate_hz=4, noise_sigma=2.0,
                                  baseline=float(rng.uniform(400, 600)), pulse_amplitude=80.0))
    sensors.append(SensorSpec("t1", "TEMPERATURE", rate_hz=4, noise_sigma=0.1,
                              phase_s=float(rng.uniform(0, 86_400))))
    sensors.append(SensorSpec("m1", "MOISTURE", rate_hz=4, noise_sigma=0.001,
                              drift_per_s=-1e-6))
    start = BASE_TS_US + (seed % 97) * 86_400_000_000
    return Scenario(site=SITE, daq=DAQS[daq_index], sensors=sensors, seed=seed * 2 + daq_index,
                    start_time_us=start)


def make_ticks(seed: int, n_ticks: int):
    """Per tick, the 16 encoded messages of both DAQs with their store identity:
    ``ticks[k] = [(daq_index, subject, payload_bytes, sensor_key, ts, v), ...]``.
    """
    from paveharvest.daqsim import ScenarioRun
    from paveharvest.wire import mqtt_topic_to_subject

    runs = [ScenarioRun(scenario(seed, d)) for d in range(len(DAQS))]
    subjects: dict[str, object] = {}
    ticks = []
    for k in range(n_ticks):
        msgs = []
        for d, run in enumerate(runs):
            for topic, payload in run.tick(k):
                subject = subjects.get(topic)
                if subject is None:
                    subject = subjects[topic] = mqtt_topic_to_subject(topic)
                key = f"{SITE}/{run.scenario.daq}/{topic.rsplit('/', 1)[1]}"
                msgs.append((d, subject, payload.encode(), key, payload.ts, payload.v))
        ticks.append(msgs)
    return ticks


class _System:
    """One started live system: the child process and the generator's two clients."""

    def __init__(self, workdir: Path, trace: bool, index: int, first_tick: int, cpu: str):
        from paveharvest.client import BusClient

        self.first_tick = first_tick
        self.store_dir = workdir / f"store{index}"
        self.out = workdir / f"live{index}.npz"
        p0 = common.probe()
        t0 = time.perf_counter()
        self.proc = common.spawn(["bench/live_system.py", str(self.store_dir), str(self.out),
                                  "1" if trace else "0", cpu])
        port = int(common.read_line(self.proc, "READY").split()[1])
        self.clients = [BusClient("127.0.0.1", port) for _ in DAQS]
        self.raw_setup_s = time.perf_counter() - t0
        self.setup_s = common.at_reference_speed(self.raw_setup_s, (p0, common.probe()))

    def probes(self) -> tuple[float, float]:
        """One speed probe on the generator's CPU and one on the system's."""
        self.proc.stdin.write("probe\n")
        self.proc.stdin.flush()
        return common.probe(), float(common.read_line(self.proc, "PROBE").split()[1])

    def drain(self, tick: int) -> None:
        """Wait until the system has stored every tick before ``tick``."""
        self.proc.stdin.write(f"drain {(tick - self.first_tick) * TICK_SAMPLES}\n")
        self.proc.stdin.flush()
        common.read_line(self.proc, "DRAINED")

    def finish(self, tick: int) -> dict:
        self.proc.stdin.write(f"finish {(tick - self.first_tick) * TICK_SAMPLES}\n")
        self.proc.stdin.flush()
        common.read_line(self.proc, "DONE")
        for c in self.clients:
            c.close()
        common.finish(self.proc)
        with np.load(self.out) as z:
            return {k: z[k] for k in z.files}


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    rounds = max(1, round(ROUNDS_PER_SECOND * seconds / common.SETUP_REPS))
    paced_per_round = max(1, round(PACED_RATE * PACED_SHARE * seconds / TICK_SAMPLES
                                   / (rounds * common.SETUP_REPS)))
    ticks_per_system = rounds * (paced_per_round + BURST_TICKS)
    n_ticks = ticks_per_system * common.SETUP_REPS
    ticks = make_ticks(seed, n_ticks)

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.trace_generator(tracer)
    system_cpu = _split_cpus()

    # Each set-up is timed, and each started system then carries an equal
    # share of the rounds, so that every figure is sampled from several
    # processes spread over the run.
    outs, setups, bursts, paced_wins, read_rates, problems = [], [], [], [], [], []
    raw_setups, burst_probes = [], []
    due_us = np.zeros(n_ticks, dtype=np.int64)
    late_max = 0.0
    for j in range(common.SETUP_REPS):
        k = j * ticks_per_system
        system = _System(workdir, trace, j, k, system_cpu)
        setups.append(system.setup_s)
        raw_setups.append(system.raw_setup_s)
        for _ in range(rounds):
            k, late, win = _paced(system, ticks, k, paced_per_round, due_us)
            late_max = max(late_max, late)
            paced_wins.append(win)
            before = system.probes()
            first, t0, w0 = k, time.perf_counter(), time.time_ns() // 1000
            k = _burst(system, ticks, k)
            bursts.append((first, t0, w0, time.perf_counter()))
            system.drain(k)
            burst_probes.append(before + system.probes())
        published = ticks_per_system * TICK_SAMPLES
        out = system.finish(k)
        problems += checks.check_connector_counts(published, json.loads(str(out["counters"])))
        if len(out["ts"]) != published:
            problems.append(f"{len(out['ts'])} inserts reported for {published} samples")
        mine = _expected(ticks[j * ticks_per_system:k])
        for _ in range(READBACKS):
            got, rate = _read_back(system.store_dir, list(mine))
            read_rates.append(rate)
        problems += checks.check_readback(mine, got)
        outs.append((system, out))

    # which tick each stored sample came from
    first_ts = {key: ts for _, _, _, key, ts, _ in ticks[0]}
    tick_of = np.concatenate([
        np.array([(ts - first_ts[str(o["sensors"][s])]) // 1_000_000
                  for s, ts in zip(o["sensor"].tolist(), o["ts"].tolist())], dtype=np.int64)
        for _, o in outs])
    insert_us = np.concatenate([o["insert_us"] for _, o in outs])
    recv_us = np.concatenate([o["recv_us"] for _, o in outs])
    paced = np.ones(n_ticks, dtype=bool)
    for first, _, _, _ in bursts:
        paced[first:first + BURST_TICKS] = False
    paced = paced[tick_of]
    lat_ms = (insert_us[paced] - due_us[tick_of[paced]]) / 1000.0
    burst_s = []
    for first, _, w0, _ in bursts:
        mine = (tick_of >= first) & (tick_of < first + BURST_TICKS)
        burst_s.append((int(insert_us[mine].max()) - w0) / 1e6 if mine.any() else np.inf)

    burst_samples = BURST_TICKS * TICK_SAMPLES
    # The paced latency is set by the connector's batch age, a timer, and is
    # reported as measured; the burst times are scaled to the reference speed.
    e2e = {
        "setup_s": common.median(setups),
        "throughput_per_s": burst_samples / common.median(
            map(common.at_reference_speed, burst_s, burst_probes)),
        "latency_p50_ms": common.percentile(lat_ms, 50),
    }
    detail = {
        "live_p50_ms": e2e["latency_p50_ms"],
        "live_p99_ms": common.percentile(lat_ms, 99),
        "live_samples": int(paced.sum()),
        "backfill_samples_per_s": e2e["throughput_per_s"],
        "measured_backfill_samples_per_s": burst_samples / common.median(burst_s),
        "backfill_bursts": len(bursts),
        "backfill_burst_samples": burst_samples,
        "backfill_burst_s": [round(x, 4) for x in burst_s],
        "readback_rows_per_s": common.median(read_rates),
        "setup_runs_s": raw_setups,
        "gen_late_ms": late_max * 1000.0,
    }
    layers = {}
    if trace:
        spans = [tracer.spans()] + [
            tracing.Spans.load(str(system.out).replace(".npz", ".spans.npz")) for system, _ in outs]
        windows = [(t0, t0 + s) for (_, t0, _, _), s in zip(bursts, burst_s)]
        publishing = [(t0, t1) for _, t0, _, t1 in bursts]
        polls = np.concatenate([o["polls"] for _, o in outs])
        store_bytes = sum(common.dir_bytes(system.store_dir) for system, _ in outs)
        layers = _layer_metrics(spans, polls, recv_us[paced], insert_us[paced],
                                due_us[tick_of[paced]], paced_wins, windows, publishing,
                                late_max, store_bytes / len(tick_of))
    return {
        "problems": problems[: checks.MAX_PROBLEMS],
        "attempted": n_ticks * TICK_SAMPLES,
        "failed": 0,
        "e2e": e2e,
        "detail": detail,
        "layers": layers,
    }


def _split_cpus() -> str:
    """Confine this process to the first CPU; return the last one for the system.

    The generator then never takes a CPU from the system, and the system's
    threads hand the interpreter lock to each other on one CPU instead of
    waking another, which makes its rate far less sensitive to the host
    scheduling this machine's CPUs. With one CPU nothing is confined.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return "-"
    os.sched_setaffinity(0, cpus[:1])
    return str(cpus[-1])


def _paced(system, ticks, k: int, n: int, due_us):
    """An open-loop segment of ``n`` ticks from tick ``k``, then a drain.

    Returns the next tick, the generator's worst lateness and the segment's window.
    """
    publish = [c.publish for c in system.clients]
    interval = TICK_SAMPLES / PACED_RATE
    late_max = 0.0
    t0 = time.perf_counter()
    wall0 = time.time_ns() // 1000
    for i in range(n):
        due = t0 + i * interval
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late_max = max(late_max, time.perf_counter() - due)
        due_us[k + i] = wall0 + round(i * interval * 1e6)
        for d, subject, payload, *_ in ticks[k + i]:
            publish[d](subject, payload)
    system.drain(k + n)
    return k + n, late_max, (t0, time.perf_counter())


def _burst(system, ticks, k: int) -> int:
    """Publish ``BURST_TICKS`` ticks from tick ``k`` as fast as the bus takes them."""
    publish = [c.publish for c in system.clients]
    for tick in ticks[k:k + BURST_TICKS]:
        for d, subject, payload, *_ in tick:
            publish[d](subject, payload)
    return k + BURST_TICKS


def _expected(ticks) -> dict[str, dict[int, float]]:
    out: dict[str, dict[int, float]] = {}
    for tick in ticks:
        for _, _, _, key, ts, v in tick:
            out.setdefault(key, {})[ts] = v
    return out


def _read_back(store_dir: Path, sensors: list[str]):
    """Reopen the store and query each sensor's whole history; rows/s over the queries."""
    from paveharvest.tsstore import Store

    got, elapsed = {}, 0.0
    with Store(store_dir) as store:
        for sensor in sensors:
            t0 = time.perf_counter()
            got[sensor] = store.query_range(sensor, 0, 2**62)
            elapsed += time.perf_counter() - t0
    return got, sum(map(len, got.values())) / elapsed


def _layer_metrics(spans_list, polls, recv_us, insert_us, due_us, paced_wins, burst_wins,
                   publish_wins, late_max, bytes_per_sample) -> dict:
    """Per-layer figures: busy times and counts summed over the backfill bursts,
    latency splits and batching over the paced segments."""

    def over(windows, fn):
        return sum(fn(s, a, b) for s in spans_list for a, b in windows)

    def calls(name, windows=burst_wins):
        return over(windows, lambda s, a, b: s.calls(name, a, b))

    def busy(name, windows=burst_wins):
        return over(windows, lambda s, a, b: s.busy(name, a, b))

    m = {
        "wire.parse_frame.calls": calls("wire.parse_frame"),
        "wire.parse_frame.busy_s": busy("wire.parse_frame"),
        "wire.encode_frame.busy_s": busy("wire.encode_frame"),
        "broker.route.calls": calls("broker.route"),
        "broker.route.busy_s": busy("broker.route"),
        "router.route.busy_s": busy("router.route"),
        "client.publish.blocked_s": busy("client.publish", publish_wins),
        "connector.ingest.busy_s": busy("connector.ingest"),
        "connector.transform.busy_s": busy("connector.transform"),
        "tsstore.insert.busy_s": busy("tsstore.insert"),
    }
    transit = (recv_us - due_us) / 1000.0
    wait = (insert_us - recv_us) / 1000.0
    m["bus.transit_ms.p50"] = common.percentile(transit, 50)
    m["bus.transit_ms.p99"] = common.percentile(transit, 99)
    m["connector.wait_ms.p50"] = common.percentile(wait, 50)
    m["connector.wait_ms.p99"] = common.percentile(wait, 99)
    from paveharvest.connector import DEFAULT_BATCH_SIZE

    for suffix, wins in (("", burst_wins), (".paced", paced_wins)):
        # every Store.insert of the live system is the connector's batch
        sizes = np.concatenate([s.sizes_of("tsstore.insert", a, b)
                                for s in spans_list for a, b in wins])
        m[f"connector.insert.calls{suffix}"] = int(len(sizes))
        m[f"connector.batch_fill{suffix}"] = (
            float(sizes.mean()) / DEFAULT_BATCH_SIZE if len(sizes) else 0.0)
        in_win = np.zeros(len(polls), dtype=bool)
        for a, b in wins:
            in_win |= (polls[:, 0] >= a) & (polls[:, 0] < b)
        m[f"connector.in_flight.max{suffix}"] = int(polls[in_win, 1].max()) if in_win.any() else 0
    m["gen.late_ms"] = late_max * 1000.0
    m["tsstore.bytes_per_sample"] = bytes_per_sample
    return m
