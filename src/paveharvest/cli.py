"""Single entry point: broker, daqsim, connector, store, etl, dsp, e2e.

Logs go to standard error, machine-readable output (CSV/JSON) to standard
output. Config precedence is flags > PAVEH_* environment variables >
--config JSON file. Exit codes: 0 ok, 2 usage, 3 runtime failure,
4 data-integrity failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import signal
import sys
import threading
import time
from array import array
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import dsp, etl, tsstore, wire
from .broker import Broker
from .client import BusClient
from .connector import DEFAULT_WILDCARD, Connector, sensor_key_for
from .daqsim import Scenario, ScenarioRun, bus_publisher, run_scenario
from .timeutil import (
    US_PER_SECOND,
    format_rfc3339_column,
    parse_duration,
    parse_rfc3339,
)
from .tsstore import Store, verify_segments

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_INTEGRITY = 4

ENV_PREFIX = "PAVEH_"

KIND_FLAGS = {
    "auto": "auto",
    "asg": etl.ASG,
    "csg": etl.CSG,
    "pc": etl.PC,
    "tc": etl.TC,
    "laser": etl.LASER,
    "laser-pre": etl.LASER_PRETRAFFIC,
    "stationary-et": etl.STATIONARY_ET,
    "stationary-mt": etl.STATIONARY_MT,
    "fwd": etl.FWD,
}


class CliError(Exception):
    exit_code = EXIT_RUNTIME


class IntegrityExit(CliError):
    exit_code = EXIT_INTEGRITY


def _is_port(text: str) -> bool:
    return text.isascii() and text.isdigit() and int(text) <= 65535


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not _is_port(port):
        raise CliError(f"address must be host:port, got {text!r}")
    return host, int(port)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc


def _resolve(flag_value, name: str, config: dict, default=None):
    """flags > PAVEH_<NAME> env var > config file entry > default."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"))
    if env is not None:
        return env
    if name in config:
        return config[name]
    return default


def _store_root(args, config: dict) -> str:
    """``--store``, else ``PAVEH_STORE``, else the config file's ``store``."""
    store_root = _resolve(args.store, "store", config)
    if store_root is None:
        raise CliError("--store is required (or PAVEH_STORE)")
    return store_root


def _load_scenario(
    path: str, site: str | None = None, daq: str | None = None, duration_s: int | None = None
) -> Scenario:
    """The scenario file at ``path`` with the given overrides, checked as
    the file's own fields are."""
    changes = {
        name: value
        for name, value in (("site", site), ("daq", daq), ("duration_s", duration_s))
        if value is not None
    }
    return replace(Scenario.from_file(path), **changes)


# --- e2e orchestration -----------------------------------------------------


@dataclass
class PipelineConfig:
    scenario_path: str
    store_root: str
    broker_address: tuple[str, int] = ("127.0.0.1", 0)
    duration_s: int | None = None
    speedup: float = 1.0
    metrics_port: int | None = None


@dataclass
class E2EReport:
    published: int = 0
    stored: int = 0
    accepted: int = 0
    rejected: dict = field(default_factory=dict)
    seq_gaps: int = 0
    duplicate_seq: int = 0
    skew_events: int = 0
    latency_samples: int = 0
    p50_latency_ms: float | None = None
    p99_latency_ms: float | None = None
    max_latency_ms: float | None = None
    duration_s: int = 0
    speedup: float = 1.0
    ok: bool = False

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def human(self) -> str:
        lat = (
            f"p50 {self.p50_latency_ms:.1f} ms, p99 {self.p99_latency_ms:.1f} ms"
            if self.latency_samples
            else "no latency samples"
        )
        return (
            f"published {self.published}, stored {self.stored}, "
            f"seq gaps {self.seq_gaps}, {lat}"
        )


class _LatencyJoin:
    """Publish-to-insert latencies, joined on (store key, seq) as the walls
    arrive. ``on_publish`` fires after the send, so an insert can come
    first; whichever wall comes first waits until the other arrives, and
    a joined sample keeps only its latency."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._published: dict[tuple[str, int], int] = {}
        self._inserted: dict[tuple[str, int], int] = {}
        self.latencies_us = array("q")

    def publish(self, key: tuple[str, int], wall_us: int) -> None:
        with self._lock:
            inserted = self._inserted.pop(key, None)
            if inserted is None:
                self._published[key] = wall_us
            else:
                self.latencies_us.append(inserted - wall_us)

    def insert(self, key: tuple[str, int], wall_us: int) -> None:
        with self._lock:
            published = self._published.pop(key, None)
            if published is None:
                self._inserted[key] = wall_us
            else:
                self.latencies_us.append(wall_us - published)


def _stored(store: Store, scenario: Scenario, keys: dict[str, str]) -> int:
    """How many of the points the scenario publishes the store holds: one
    per sensor at the end of each simulated second, under the store key
    ``keys`` gives its topic. Other data in the store, even between those
    stamps, is not counted."""
    start = scenario.start_time_us
    end = start + scenario.duration_s * US_PER_SECOND + 1
    return sum(
        (sample.ts - start) % US_PER_SECOND == 0
        for key in keys.values()
        for sample in store.query_range(key, start + US_PER_SECOND, end)
    )


def run_e2e(config: PipelineConfig) -> E2EReport:
    """Run broker + connector + daqsim end to end against one store.

    Latency is measured per sample from the wall-clock publish instant to
    the wall-clock insert completion, joined on (store key, seq), so it
    stays meaningful at any speedup.
    """
    scenario = _load_scenario(config.scenario_path, duration_s=config.duration_s)
    report = E2EReport(duration_s=scenario.duration_s, speedup=config.speedup)
    keys = {
        state.topic: sensor_key_for(wire.mqtt_topic_to_subject(state.topic))
        for state in ScenarioRun(scenario).states
    }

    join = _LatencyJoin()

    def on_insert(record, wall_us):
        join.insert((record.sensor_key, record.seq), wall_us)

    broker = Broker(*config.broker_address)
    store = Store(config.store_root)
    connector = None
    publisher_client = None
    try:
        broker.start()
        connector = Connector(
            store,
            broker_addr=broker.address,
            metrics_port=config.metrics_port,
            on_insert=on_insert,
        ).start()
        if not connector.wait_ready(timeout=10):
            raise CliError("connector failed to subscribe within 10 s")
        publisher_client = BusClient(*broker.address)
        run_report = run_scenario(
            scenario,
            bus_publisher(publisher_client),
            speedup=config.speedup,
            on_publish=lambda topic, payload, wall: join.publish(
                (keys[topic], payload.seq), wall
            ),
        )
        report.published = run_report.published
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if connector.metrics_snapshot().received >= run_report.published:
                break
            time.sleep(0.05)
        connector.drain(timeout=30)
    finally:
        if publisher_client is not None:
            publisher_client.close()
        if connector is not None:
            metrics = connector.metrics_snapshot()
            report.accepted = metrics.accepted
            report.rejected = dict(metrics.rejected)
            report.seq_gaps = metrics.seq_gaps
            report.duplicate_seq = metrics.duplicate_seq
            report.skew_events = metrics.skew_events
            connector.stop()
        broker.stop()
        report.stored = _stored(store, scenario, keys)
        store.close()

    latencies = np.sort(np.frombuffer(join.latencies_us, dtype=np.int64))
    report.latency_samples = len(latencies)
    if len(latencies):
        def pct(q: float) -> float:
            rank = max(0, min(len(latencies) - 1, int(q * len(latencies))))
            return int(latencies[rank]) / 1000.0

        report.p50_latency_ms = pct(0.50)
        report.p99_latency_ms = pct(0.99)
        report.max_latency_ms = int(latencies[-1]) / 1000.0
    report.ok = (
        report.published > 0
        and report.stored == report.accepted
        and report.published == report.accepted + sum(report.rejected.values())
    ) or report.published == 0
    return report


# --- subcommands ------------------------------------------------------------


def cmd_broker_serve(args, config) -> int:
    listen = _resolve(args.listen, "listen", config, "127.0.0.1:4222")
    host, port = _parse_addr(listen)
    broker = Broker(host, port).start()
    logger.info("serving on %s:%d", *broker.address)
    try:
        _wait_for_interrupt()
    finally:
        broker.stop()
    return EXIT_OK


def cmd_daqsim_run(args, config) -> int:
    broker = _resolve(args.broker, "broker", config, "127.0.0.1:4222")
    scenario = _load_scenario(args.scenario, args.site, args.daq, args.duration)
    client = BusClient(*_parse_addr(broker))
    try:
        report = run_scenario(
            scenario, bus_publisher(client), speedup=args.speedup
        )
    finally:
        client.close()
    logger.info("published %d, failed %d", report.published, report.failed)
    print(json.dumps({"published": report.published, "failed": report.failed}))
    return EXIT_OK


def cmd_connector_run(args, config) -> int:
    broker = _resolve(args.broker, "broker", config, "127.0.0.1:4222")
    store = Store(_store_root(args, config))
    try:
        connector = Connector(
            store,
            broker_addr=_parse_addr(broker),
            wildcard=args.subject,
            metrics_port=args.metrics_port,
        )
    except wire.InvalidSubject as exc:
        raise UsageError(f"--subject {args.subject!r}: {exc}") from None
    connector.start()
    if connector.metrics_port is not None:
        logger.info("metrics on http://127.0.0.1:%d/metrics", connector.metrics_port)
    try:
        _wait_for_interrupt()
    finally:
        connector.stop()
        store.close()
    return EXIT_OK


def cmd_connector_metrics(args, config) -> int:
    import urllib.request  # only this command fetches; start-up skips the import

    body = urllib.request.urlopen(args.endpoint, timeout=10).read().decode()
    if args.format == "csv":
        print("name,value")
        for line in body.strip().splitlines():
            name, _, value = line.partition(" ")
            print(f"{name},{value}")
    else:
        sys.stdout.write(body)
    return EXIT_OK


def cmd_store_query(args, config) -> int:
    store_root = _store_root(args, config)
    t0 = parse_rfc3339(args.time_from)
    t1 = parse_rfc3339(args.time_to)
    if t0 > t1:
        raise UsageError("--from must not be after --to")
    bucket = None
    if args.bucket:
        try:
            bucket = parse_duration(args.bucket)
        except ValueError as exc:
            raise UsageError(f"--bucket: {exc}") from None
        if not 0 < bucket < tsstore.TS_END:
            raise UsageError("--bucket must be positive and shorter than 2**63 us")
    with Store(store_root) as store:
        if bucket is None:
            samples = store.query_range(args.sensor, t0, t1)
            stamps, values = [s.ts for s in samples], [s.v for s in samples]
        else:
            rows = store.downsample(args.sensor, t0, t1, bucket, args.agg)
            stamps, values = [ts for ts, _ in rows], [v for _, v in rows]
    lines = [f"{stamp},{value}\n" for stamp, value in zip(format_rfc3339_column(stamps), values)]
    sys.stdout.write("ts_rfc3339,value\n" + "".join(lines))
    return EXIT_OK


def cmd_store_check(args, config) -> int:
    issues = verify_segments(_store_root(args, config))
    for issue in issues:
        print(f"{issue.path}: {issue.problem}", file=sys.stderr)
    if issues:
        raise IntegrityExit(f"{len(issues)} segment issue(s)")
    logger.info("store is clean")
    return EXIT_OK


def cmd_etl_process(args, config) -> int:
    in_dir = Path(args.input)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = KIND_FLAGS[args.kind]
    paths = sorted(p for p in in_dir.iterdir() if p.is_file())
    if not paths:
        raise CliError(f"no input files in {in_dir}")
    data_rows: list[etl.DataRow] = []
    laser_tables: list[etl.LaserTable] = []
    metas: list[etl.FileMeta] = []
    for path in paths:
        try:
            result = etl.process_file(path, kind)
        except (etl.EtlError, dsp.DspError, ValueError) as exc:
            raise CliError(f"{path.name}: {exc}") from exc
        metas.append(result.meta)
        data_rows.extend(result.data_rows)
        if result.laser_rows is not None:
            laser_tables.append(result.laser_rows)
        for warning in result.warnings:
            logger.warning("%s: %s", path.name, warning)
    file_info = etl.build_file_info(metas)
    wrote = []
    if data_rows or not laser_tables:
        data_csv, info_csv = etl.emit_normalized(data_rows, file_info)
        (out_dir / "data.csv").write_text(data_csv)
        wrote.append("data.csv")
    if laser_tables:
        laser_csv, info_csv = etl.emit_laser_normalized(
            etl.LaserTable.concat(laser_tables), file_info
        )
        (out_dir / "laser.csv").write_text(laser_csv)
        wrote.append("laser.csv")
    (out_dir / "file_info.csv").write_text(info_csv)
    wrote.append("file_info.csv")
    logger.info(
        "%d file(s) -> %d data rows, %d laser rows (%s)",
        len(paths), len(data_rows), sum(map(len, laser_tables)), ", ".join(wrote),
    )
    return EXIT_OK


def cmd_etl_join(args, config) -> int:
    joined = etl.join_by_filename_id(
        Path(args.data).read_text(), Path(args.fileinfo).read_text()
    )
    if args.output:
        Path(args.output).write_text(joined)
    else:
        sys.stdout.write(joined)
    return EXIT_OK


def cmd_dsp_inspect(args, config) -> int:
    try:
        smoothing = dsp.DspConfig(window=args.window, polyorder=args.order)
    except ValueError as exc:
        raise UsageError(f"--window/--order: {exc}") from None
    lines = Path(args.input).read_text().strip().splitlines()
    start = 1 if lines and not _is_number(lines[0].split(",")[0]) else 0  # a header
    t = np.empty(len(lines) - start)
    y = np.empty(len(t))
    for i, line in enumerate(lines[start:]):
        try:
            t[i], y[i] = map(float, line.split(",")[:2])
        except ValueError:
            raise CliError(
                f"{args.input} line {start + i + 1}: expected t,y numbers, got {line!r}"
            ) from None
    smoothed = dsp.smooth(dsp.Series(t=t, y=y), smoothing)
    print("t,y,y_smoothed")
    for ti, yi, si in zip(t, y, smoothed.y):
        print(f"{ti},{yi},{si}")
    return EXIT_OK


def cmd_e2e_run(args, config) -> int:
    broker = _resolve(args.broker, "broker", config, "127.0.0.1:0")
    pipeline = PipelineConfig(
        scenario_path=args.scenario,
        store_root=_store_root(args, config),
        broker_address=_parse_addr(broker),
        duration_s=args.duration,
        speedup=args.speedup,
        metrics_port=args.metrics_port,
    )
    try:
        report = run_e2e(pipeline)
    except Exception as exc:
        partial = E2EReport(ok=False)
        print(partial.to_json())
        raise CliError(f"pipeline failed: {exc}") from exc
    print(report.to_json())
    logger.info("%s", report.human())
    return EXIT_OK if report.ok else EXIT_RUNTIME


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _wait_for_interrupt() -> None:
    stop = threading.Event()

    def handler(signum, frame):
        stop.set()

    signal.signal(signal.SIGINT, handler)
    signal.signal(signal.SIGTERM, handler)
    while not stop.is_set():
        stop.wait(0.5)


class UsageError(Exception):
    """Validation failure that should exit like a bad flag (code 2)."""


# --- argument plumbing ---------------------------------------------------------


def _speedup(text: str) -> float:
    """A ``--speedup`` value: ``run_scenario`` takes only one >= 1, and a
    bad one fails here, before any connection is made."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value >= 1:  # NaN too
        raise argparse.ArgumentTypeError(f"must be a number >= 1, got {text!r}")
    return value


def _port(text: str) -> int:
    """A ``--metrics-port`` value, 0 (any free port) to 65535."""
    if not _is_port(text):
        raise argparse.ArgumentTypeError(f"must be a port number 0-65535, got {text!r}")
    return int(text)


def _add_broker_commands(sub) -> None:
    serve = sub.add_parser("serve", help="run the broker")
    serve.add_argument("--listen", help="host:port (default 127.0.0.1:4222)")
    serve.set_defaults(func=cmd_broker_serve)


def _add_daqsim_commands(sub) -> None:
    drun = sub.add_parser("run", help="publish a scenario")
    drun.add_argument("--broker", help="broker host:port")
    drun.add_argument("--scenario", required=True)
    drun.add_argument("--site")
    drun.add_argument("--daq")
    drun.add_argument("--speedup", type=_speedup, default=1.0)
    drun.add_argument("--duration", type=int)
    drun.set_defaults(func=cmd_daqsim_run)


def _add_connector_commands(sub) -> None:
    crun = sub.add_parser("run", help="consume and store")
    crun.add_argument("--broker", help="broker host:port")
    crun.add_argument("--store", help="store root directory")
    crun.add_argument("--subject", default=DEFAULT_WILDCARD)
    crun.add_argument("--metrics-port", type=_port)
    crun.set_defaults(func=cmd_connector_run)
    cmet = sub.add_parser("metrics", help="fetch metrics from a connector")
    cmet.add_argument("--endpoint", required=True, help="http://host:port/metrics")
    cmet.add_argument("--format", choices=("text", "csv"), default="text")
    cmet.set_defaults(func=cmd_connector_metrics)


def _add_store_commands(sub) -> None:
    q = sub.add_parser("query", help="range query / downsample as CSV")
    q.add_argument("--store", help="store root directory")
    q.add_argument("--sensor", required=True)
    q.add_argument("--from", dest="time_from", required=True, metavar="RFC3339")
    q.add_argument("--to", dest="time_to", required=True, metavar="RFC3339")
    q.add_argument("--bucket", help="downsample bucket, e.g. 5m")
    q.add_argument("--agg", choices=tsstore.AGGREGATES, default="avg")
    q.set_defaults(func=cmd_store_query)
    chk = sub.add_parser("check", help="verify segment files")
    chk.add_argument("--store", help="store root directory")
    chk.set_defaults(func=cmd_store_check)


def _add_etl_commands(sub) -> None:
    eproc = sub.add_parser("process", help="raw logs to normalized CSV")
    eproc.add_argument("--in", dest="input", required=True)
    eproc.add_argument("--kind", choices=sorted(KIND_FLAGS), default="auto")
    eproc.add_argument("--out", dest="output", required=True)
    eproc.set_defaults(func=cmd_etl_process)
    ejoin = sub.add_parser("join", help="denormalize by filename_id")
    ejoin.add_argument("--data", required=True)
    ejoin.add_argument("--fileinfo", required=True)
    ejoin.add_argument("--out", dest="output")
    ejoin.set_defaults(func=cmd_etl_join)


def _add_dsp_commands(sub) -> None:
    insp = sub.add_parser("inspect", help="smooth a t,y CSV")
    insp.add_argument("--in", dest="input", required=True)
    insp.add_argument("--window", type=int, required=True)
    insp.add_argument("--order", type=int, default=2)
    insp.set_defaults(func=cmd_dsp_inspect)


def _add_e2e_commands(sub) -> None:
    xrun = sub.add_parser("run", help="broker + connector + daqsim")
    xrun.add_argument("--scenario", required=True)
    xrun.add_argument("--store", help="store root directory")
    xrun.add_argument("--broker", help="listen host:port (default ephemeral)")
    xrun.add_argument("--duration", type=int)
    xrun.add_argument("--speedup", type=_speedup, default=1.0)
    xrun.add_argument("--metrics-port", type=_port)
    xrun.set_defaults(func=cmd_e2e_run)


COMMANDS = {  # command: (help, adds its subcommands)
    "broker": ("subject bus", _add_broker_commands),
    "daqsim": ("DAQ simulator", _add_daqsim_commands),
    "connector": ("bus-to-store connector", _add_connector_commands),
    "store": ("time-series store", _add_store_commands),
    "etl": ("static-path processing", _add_etl_commands),
    "dsp": ("signal-processing utilities", _add_dsp_commands),
    "e2e": ("full pipeline run", _add_e2e_commands),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; given a command, only that command's subcommands.

    The other commands are still listed, without subcommands, so help and
    errors read as with the whole tree. One branch costs about a third of
    the whole tree, and a command line runs one command.
    """
    parser = argparse.ArgumentParser(
        prog="paveharvest",
        description="Pavement sensor data harvesting toolkit",
    )
    parser.add_argument("--config", help="JSON config file (lowest precedence)")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_subcommands) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            add_subcommands(p.add_subparsers(dest="subcommand", required=True))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a first word that is not an option can only be the command
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    config = _load_config(args.config)
    try:
        return args.func(args, config)
    except UsageError as exc:
        parser.error(str(exc))  # exits 2
        return EXIT_USAGE  # unreachable
    except (etl.DanglingReference, etl.IntegrityError, tsstore.CorruptSegment) as exc:
        logger.error("data integrity: %s", exc)
        return EXIT_INTEGRITY
    except CliError as exc:
        logger.error("%s", exc)
        return exc.exit_code
    except (
        etl.EtlError,
        wire.WireError,
        tsstore.StoreError,
        dsp.DspError,
        OSError,
        ValueError,
    ) as exc:
        logger.error("%s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
