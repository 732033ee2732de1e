"""Helpers shared by the benchmark's entry point, its workloads and their child processes.

Everything here is the benchmark's own code: it never changes how the
program under test behaves.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
RUNS = ROOT / ".bench_runs"

#: fresh interpreters started per run to time set-up; the median is reported
SETUP_REPS = 3

#: seconds one ``probe()`` takes on the reference host (a 2-vCPU Intel Xeon
#: VM with Python 3 at its usual speed); every timed figure of the benchmark
#: except the timer-bound live latency is scaled to this speed
PROBE_REF_S = 0.018
PROBE_LOOPS = 40_000


def program_present() -> bool:
    return (SRC / "paveharvest" / "cli.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that must import this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


#: every child process started by this run; ``reap`` stops those still running
CHILDREN: list[subprocess.Popen] = []


def spawn(args: list[str]) -> subprocess.Popen:
    """Start ``python3 <args>`` with line-buffered pipes for a READY handshake."""
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        bufsize=1,
        env=child_env(),
        cwd=ROOT,
    )
    CHILDREN.append(proc)
    return proc


def reap() -> None:
    """Kill and wait for every child still running (after a failure)."""
    for proc in CHILDREN:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def read_line(proc: subprocess.Popen, want: str) -> str:
    """Next stdout line of ``proc``, which must start with ``want``."""
    line = proc.stdout.readline()
    if not line.startswith(want):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child said {line!r}, expected {want}")
    return line.strip()


def finish(proc: subprocess.Popen, timeout: float = 60.0) -> None:
    """Wait for a child to exit; kill it if it overstays, and fail on a bad exit."""
    try:
        code = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("child process did not exit")
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()
    if code != 0:
        raise RuntimeError(f"child process exited with code {code}")


def probe() -> float:
    """Seconds one pass of a fixed reference loop takes now, on the calling CPU.

    The loop does interpreter work of the kinds the program does most:
    integer and dict operations, float formatting and parsing. It creates
    no container object, so garbage collection never runs inside it. A
    shared host's speed drifts from run to run by more than any program
    change the bounds are meant to catch; a probe taken next to each timed
    part reads the speed the part ran at.
    """
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        table[i & 511] = i
        acc += table.get((i * 7) & 511, 0)
        acc += int(float("%.6f" % (i * 0.001)))
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, probes) -> float:
    """``seconds`` scaled to the reference host's speed, by the mean of the
    probes taken next to the timed part."""
    probes = list(probes)
    return seconds * PROBE_REF_S * len(probes) / sum(probes)


def median(values) -> float:
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        raise ValueError("median of nothing")
    mid = n // 2
    return float(vals[mid]) if n % 2 else (vals[mid - 1] + vals[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100], as numpy computes it."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def read_chars() -> int:
    """Bytes this process has read through read-like calls (``rchar``)."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise RuntimeError("no rchar in /proc/self/io")


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }
    return facts


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(module: str) -> str | None:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def _git_commit() -> str | None:
    """HEAD of the checkout, or None where the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """Digest of the program's sources, which names the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "paveharvest").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def emit_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the one-line JSON result, as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )



class _Worker:
    def __init__(self):
        p0 = probe()
        t0 = time.perf_counter()
        self.proc = spawn(["bench/worker.py"])
        read_line(self.proc, "READY")
        self.raw_setup_s = time.perf_counter() - t0
        self.setup_s = at_reference_speed(self.raw_setup_s, (p0, probe()))

    def abandon(self) -> None:
        self.proc.stdin.write("abandon\n")
        self.proc.stdin.flush()
        finish(self.proc)


def run_in_worker(module: str, kwargs: dict, out: Path, timeout: float = 170.0):
    """Start ``SETUP_REPS`` workers one after the other, timing each set-up, and
    run ``module.child_run(**kwargs)`` in the last one.

    Returns its result, the median set-up time at the reference speed and
    each set-up's measured time.
    """
    setups, raw = [], []
    worker = None
    for _ in range(SETUP_REPS):
        if worker is not None:
            worker.abandon()
        worker = _Worker()
        setups.append(worker.setup_s)
        raw.append(worker.raw_setup_s)
    job = {"module": module, "kwargs": kwargs, "out": str(out)}
    worker.proc.stdin.write("run " + json.dumps(job) + "\n")
    worker.proc.stdin.flush()
    read_line(worker.proc, "DONE")
    finish(worker.proc, timeout)
    return json.loads(out.read_text()), median(setups), raw
