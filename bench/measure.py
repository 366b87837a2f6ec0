"""Small measurement helpers: percentiles with their sample counts, the
machine's speed, peak memory, file hashes and the provenance block of a
results file."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import signal
import statistics
import time
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

# The reference kernel's median time on the machine the bounds were set on
# (2-core Intel Xeon, Python 3.11, numpy 2.4). Scaled times are seconds on
# that machine when the kernel runs at this speed.
REFERENCE_S = 1.8e-3
_REFERENCE_ARRAY = np.arange(1000.0)


class Percentile(NamedTuple):
    value: float
    n: int          # samples the percentile was taken over
    beyond: int     # samples strictly above the value


def percentile(values: Sequence[float], q: float) -> Percentile:
    """The q-th percentile (0 <= q <= 100) by linear interpolation between
    closest ranks, with the sample count and the number of samples above it.

    A tail percentile is only worth quoting when ``beyond`` is at least 10.
    """
    if len(values) == 0:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    values = np.asarray(values, dtype=float)
    value = float(np.percentile(values, q))
    return Percentile(value, values.size, int(np.count_nonzero(values > value)))


class Latencies:
    """Single-call latencies in a buffer of fixed size. The first
    ``capacity`` calls are kept; later calls are only counted. So the
    memory the benchmark holds for them is the same however fast the
    program is, and the percentiles are always taken over the same number
    of calls."""

    def __init__(self, capacity: int):
        # Filled now, so that all of its pages are resident from the start.
        self._kept = np.full(capacity, np.nan)
        self._n = 0
        self.calls = 0

    def add(self, seconds: float) -> None:
        if self._n < self._kept.size:
            self._kept[self._n] = seconds
            self._n += 1
        self.calls += 1

    @property
    def values(self) -> np.ndarray:
        return self._kept[:self._n]

    @property
    def nbytes(self) -> int:
        return self._kept.nbytes


def _reference_kernel() -> int:
    total = 0
    for i in range(30000):
        total += i * i
    a = _REFERENCE_ARRAY
    for _ in range(60):
        a = np.sqrt(a * a + 1.0)
    return total


class SpeedSampler:
    """Measures how fast the machine runs while the benchmark runs.

    Other tenants of a shared machine slow every process on it, by up to
    1.7x and for seconds to minutes at a time. While started, a SIGALRM
    handler runs the reference kernel every ``period`` seconds and records
    how long it took. ``timed`` divides a region's wall time by the
    kernel's speed during the region, which removes most of that slowdown.
    The handler's own time is subtracted from every timing.
    """

    def __init__(self, period: float = 0.1):
        self.period = period
        self.samples: list[float] = []   # kernel seconds, in time order
        self.spent = 0.0                 # seconds spent inside the handler

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        _reference_kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn):
        """Call ``fn()``; return its result, its wall seconds without the
        handler's time, and those seconds scaled to ``REFERENCE_S``: the
        time the region would take where the kernel takes ``REFERENCE_S``.
        """
        n0, spent0 = len(self.samples), self.spent
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0 - (self.spent - spent0)
        during = self.samples[n0:]
        if not during:
            # No tick fell inside the region: take the kernel's speed from
            # the tick before it and one sample now.
            self._sample()
            during = self.samples[max(n0 - 1, 0):]
        return result, seconds, seconds * REFERENCE_S / statistics.fmean(during)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_sha(root: Path) -> str | None:
    """The commit checked out at ``root``, read from ``.git`` without running
    git; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def source_sha256(src: Path) -> str:
    """One sha256 over the relative paths and contents of the ``.py`` files
    under ``src``: it tells whether two runs ran the same program."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(root: Path, numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root / "src" / "voteguard"),
    }
