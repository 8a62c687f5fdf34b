"""Shared helpers of the benchmark: checkout paths, statistics, processes.

Everything here is plain stdlib so that the helpers can be unit-tested
without importing the program under test.
"""

from __future__ import annotations

import math
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path
from typing import Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Serve latency limit: a request meets the SLO when it got a 200 within it.
SLO_SECONDS = 0.050

#: Store sidecars written by the telemetry layer (``repro.obs``).
OBS_SUFFIXES = (".heartbeats", ".stream.jsonl", ".trace", ".trace.json", ".profile", ".manifest.json")

#: Percentiles a tail metric may be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 50.0)


# -- the program under test -----------------------------------------------------------


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else.

    Exits with status 2 when the checkout holds no program, so a directory
    with only the benchmark fails fast instead of measuring something else.
    """
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        sys.stderr.write(f"perfbench: repro imported from {repro.__file__}, not {SRC}\n")
        raise SystemExit(2)


def product_environment() -> None:
    """Drop every ``REPRO_*`` switch so the program runs with its defaults."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """Environment for a benchmark subprocess: checkout ``src`` first, no
    inherited ``REPRO_*`` switches, plus ``extra``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(extra or {})
    return env


def script(name: str) -> list[str]:
    """Command line running a benchmark script with this interpreter."""
    return [sys.executable, str(HERE / name)]


# -- statistics ---------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, pct: float) -> float:
    """How many of ``n`` samples lie beyond the ``pct`` percentile."""
    return round(n * (100.0 - pct) / 100.0, 9)


def supported_tail(n: int) -> float:
    """The highest of ``TAIL_CANDIDATES`` with at least ten samples beyond it."""
    for pct in TAIL_CANDIDATES:
        if samples_beyond(n, pct) >= 10:
            return pct
    raise ValueError(f"{n} samples support no tail percentile")


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def rel_diff(a: float, b: float) -> float:
    """Relative difference of two results; equal values (two NaNs too) give
    0, and an infinite or NaN value against a different one gives ``inf``."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


# -- processes and files -----------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux ``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def footprint(store: Path) -> dict[str, int]:
    """Bytes and files of a store plus every sidecar next to it.

    Sidecars are the paths that start with the store's file name
    (``<store>.shards/``, ``<store>.leases/``, ``<store>.stream.jsonl``, ...);
    directories are walked recursively.  The ``obs_*`` keys count the
    telemetry sidecars alone.
    """
    out = {"bytes": 0, "files": 0, "obs_bytes": 0, "obs_files": 0}
    for path in sorted(store.parent.glob(store.name + "*")):
        suffix = path.name[len(store.name):]
        files = [path] if path.is_file() else [p for p in path.rglob("*") if p.is_file()]
        size = sum(p.stat().st_size for p in files)
        out["bytes"] += size
        out["files"] += len(files)
        if suffix in OBS_SUFFIXES:
            out["obs_bytes"] += size
            out["obs_files"] += len(files)
    return out


def stop_process(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """Terminate a child politely, then kill it; always reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def steal_seconds() -> float:
    """CPU time the hypervisor ran other guests while this machine's CPUs
    were ready to run, summed over CPUs (``steal`` in ``/proc/stat``);
    0 where the kernel does not report it."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def nproc() -> int:
    """CPUs this process may run on: the lease-worker and connection count."""
    return len(os.sched_getaffinity(0))
