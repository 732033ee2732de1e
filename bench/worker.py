"""A fresh interpreter that runs one workload's in-process part.

Usage: ``python3 bench/worker.py``. It imports ``paveharvest.cli`` as a CLI
call would, prints ``READY``, and reads one command from standard input:
``abandon`` (a set-up that is only timed) or ``run <json>``, where the JSON
names a module of the benchmark, keyword arguments for its ``child_run``
and a file for the result. It prints ``DONE`` once the result is written.
"""

from __future__ import annotations

import importlib
import json
import sys

import paveharvest.cli  # noqa: F401  (the import a CLI call pays)


def main() -> int:
    print("READY", flush=True)
    command = sys.stdin.readline().split(maxsplit=1)
    if not command or command[0] != "run":
        return 0
    job = json.loads(command[1])
    result = importlib.import_module(job["module"]).child_run(**job["kwargs"])
    with open(job["out"], "w") as fh:
        json.dump(result, fh)
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
