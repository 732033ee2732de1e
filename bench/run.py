"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``BENCHMARK.json`` against the program in this
checkout's ``src``. Standard output carries a line of machine facts, a
line of workload details (the figures under their per-workload names) and,
last, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics untraced and the per-layer metrics
traced. Exits 2 when the program is missing and 1 when a run fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
import traceback

import common

WORKLOADS = ("live_telemetry", "store_history", "etl_archive")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def spec() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def workload_module(name: str):
    if name == "live_telemetry":
        import live as mod
    elif name == "store_history":
        import store_history as mod
    else:
        import etl_archive as mod
    return mod


def main(argv=None) -> int:
    args = parse_args(argv)
    if not common.program_present():
        print(f"no program at {common.SRC / 'paveharvest'}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    bench = spec()
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    common.RUNS.mkdir(exist_ok=True)
    workdir = common.RUNS / f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    workdir.mkdir()
    try:
        out = workload_module(args.workload).run(args.seed, args.seconds, bool(args.trace), workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        common.reap()

    print("machine " + json.dumps(common.machine_facts()), flush=True)
    print("detail " + json.dumps({"workload": args.workload, "seed": args.seed, **out["detail"]}),
          flush=True)
    if args.trace:
        # the traced run's own end-to-end figures, for the tracing overhead
        print("traced_e2e " + json.dumps(out["e2e"]), flush=True)
    for problem in out["problems"]:
        print(f"INCORRECT: {problem}", file=sys.stderr)

    produced = out["layers"] if args.trace else out["e2e"]
    metrics = {}
    for m in wanted:
        if args.trace and m["name"] not in produced:
            produced[m["name"]] = 0  # a layer this workload never calls did no work
        if m["name"] not in produced:
            print(f"workload {args.workload} did not measure {m['name']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": produced[m["name"]], "unit": m["unit"]}
    for path in workdir.iterdir():  # keep only the spans of a traced run
        if args.trace and path.name.endswith(".spans.npz"):
            continue
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
    if not args.trace:
        workdir.rmdir()
    common.emit_result(not out["problems"], out["attempted"], out["failed"], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
