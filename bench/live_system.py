"""The live system under test, run in its own interpreter.

Usage: ``python3 bench/live_system.py STORE_DIR OUT.npz TRACE(0|1) CPU``.

``CPU`` is the processor the system is confined to, or ``-`` for none.

Composes the system as ``paveharvest.cli.run_e2e`` does (Broker, then
Connector with an ``on_insert`` hook, then Store), prints ``READY <port>``
once the connector's subscription is live, and then reads commands from
standard input:

- ``drain <published>``: wait until the connector has received that many
  samples and stored them, then print ``DRAINED``;
- ``probe``: time one speed probe (``common.probe``) on the system's CPU
  and print ``PROBE <seconds>``;
- ``finish <published>``: drain as above, stop, close the store, write the
  insert records, the connector's counters and (traced) the spans to
  ``OUT.npz``, and print ``DONE``.

Anything else, or the end of input, stops the system without output.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import numpy as np

import paveharvest.cli as cli  # the import a CLI call pays

import common
import tracing


def _drain(connector, received: int) -> None:
    """Wait until the connector has received ``received`` samples and stored them all."""
    deadline = time.monotonic() + 60
    while connector.metrics_snapshot().received < received and time.monotonic() < deadline:
        time.sleep(0.01)
    connector.drain(timeout=30)


def main(argv: list[str]) -> int:
    store_dir, out_path, trace = argv[0], argv[1], argv[2] == "1"
    if argv[3] != "-":
        os.sched_setaffinity(0, {int(argv[3])})  # threads started below inherit it
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.trace_live_system(tracer)

    sensor_ids: dict[str, int] = {}
    rec_sensor, rec_ts, rec_recv, rec_insert = [], [], [], []

    def on_insert(record, wall_us):
        sid = sensor_ids.setdefault(record.sensor_key, len(sensor_ids))
        rec_sensor.append(sid)
        rec_ts.append(record.ts)
        rec_recv.append(record.recv_wall_us)
        rec_insert.append(wall_us)

    broker = cli.Broker("127.0.0.1", 0).start()
    store = cli.Store(store_dir)
    connector = cli.Connector(store, broker_addr=broker.address, on_insert=on_insert).start()
    try:
        if not connector.wait_ready(timeout=10):
            raise RuntimeError("connector did not subscribe within 10 s")

        polls: list[tuple[float, int]] = []
        stop_poll = threading.Event()
        poller = None
        if trace:
            def poll():
                while not stop_poll.wait(0.005):
                    polls.append((time.perf_counter(), connector.metrics_snapshot().in_flight))

            poller = threading.Thread(target=poll, name="bench-in-flight", daemon=True)
            poller.start()

        print(f"READY {broker.address[1]}", flush=True)
        for line in sys.stdin:
            command = line.split()
            if command[:1] == ["probe"]:
                print(f"PROBE {common.probe()!r}", flush=True)
                continue
            if command[:1] != ["drain"]:
                break
            _drain(connector, int(command[1]))
            print("DRAINED", flush=True)
        else:
            command = ["stop"]
        if command[:1] != ["finish"]:
            return 0
        _drain(connector, int(command[1]))
        stop_poll.set()
        if poller is not None:
            poller.join(timeout=5)
        m = connector.metrics_snapshot()
        counters = {
            "received": m.received,
            "accepted": m.accepted,
            "rejected": m.rejected,
            "seq_gaps": m.seq_gaps,
            "duplicate_seq": m.duplicate_seq,
        }
    finally:
        connector.stop()
        broker.stop()
        store.close()

    keys = sorted(sensor_ids, key=sensor_ids.get)
    np.savez(
        out_path,
        sensors=np.array(keys),
        sensor=np.array(rec_sensor, dtype=np.int64),
        ts=np.array(rec_ts, dtype=np.int64),
        recv_us=np.array(rec_recv, dtype=np.int64),
        insert_us=np.array(rec_insert, dtype=np.int64),
        polls=np.array(polls, dtype=np.float64).reshape(-1, 2),
        counters=np.array(json.dumps(counters)),
    )
    if tracer is not None:
        tracer.spans().save(out_path.replace(".npz", ".spans.npz"))
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
