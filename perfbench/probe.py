"""Machine-speed probe: times units of work corrected for how fast the
machine runs at that moment.

The benchmark is sized on a shared 2-core box whose CPU speed drifts with
its other tenants' load.  The same CPU-bound loop runs anywhere between
1x and 1.8x its best time, in stretches of seconds to minutes, and the
slow-down is not steal time: process CPU time grows with wall time, so
timing by CPU time removes nothing.  Fixed reference kernels, owned by
the benchmark and independent of the program, slow down with it.  Code
of different kinds slows down by different amounts, so each workload
names the kernel whose slow-down follows its own (``PROBE`` in its
module): ``scan`` for ``grid``, whose training is bulk numpy, and
``mixed`` for the rest.

``Clock`` runs the kernel before the first unit of work and after each
one.  A unit's on-CPU seconds (this process's CPU time, at most the wall
time) are scaled by the kernel's nominal time over the mean of the two
kernel times around the unit; off-CPU seconds (sleeps, waits on child
processes, which run beside this one) are kept as measured.  Kernel
times taken right beside each unit follow the load better than one
figure for a whole run, and the noise of single kernel times averages
out over the units of a run.  A corrected time is thus in seconds of a
machine on which the kernel takes its nominal time, about its median
time on the sizing box.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time

import numpy as np

PROBE_RUNS = 3

_RNG = np.random.default_rng(20171204)
_NODES = _RNG.integers(-1, 16, size=16).astype(np.int32)
_MATRIX = _RNG.random((600, 552), dtype=np.float32)
_ORDER = np.argsort(_MATRIX[:, 0])
_ROWS = [{"sha256": f"{i:064x}",
          "engines": {f"e{j}": {"category": "malicious" if j % 3 else
                                "undetected", "result": f"r{j}"}
                      for j in range(20)}}
         for i in range(100)]
_BLOB = _RNG.integers(0, 256, size=1_000_000, dtype=np.uint8).tobytes()


def _walks(n: int) -> None:
    """Interpreted loops of small numpy calls, as in a one-row tree walk."""
    for _ in range(n):
        nodes = _NODES.copy()
        for _ in range(1000):
            pending = np.flatnonzero(nodes >= 0)
            nodes[pending[:2]] -= 1


def _churn(n: int) -> None:
    table = {}
    for i in range(n):
        table[i & 255] = table.get(i & 255, 0) + i


def _scans(n: int) -> None:
    """Gathers and scans of a presorted float32 matrix, as in training."""
    for _ in range(n):
        scan = _MATRIX[_ORDER]
        np.cumsum(scan, axis=0, out=scan)
        scan *= scan
        int(np.argmax(scan))


def _state(n: int) -> None:
    """JSON round trips and hashing, as in state files and datasets."""
    for _ in range(n):
        json.loads(json.dumps(_ROWS))
        hashlib.sha256(_BLOB).hexdigest()


def _scan_kernel() -> None:
    _scans(30)


def _mixed_kernel() -> None:
    _walks(4)
    _churn(100_000)
    _scans(6)
    _state(1)


# kind -> (kernel, about its median time in seconds on the sizing box,
# an Intel Xeon with 2 vCPUs)
KERNELS = {"scan": (_scan_kernel, 0.05), "mixed": (_mixed_kernel, 0.06)}


def probe(kind: str) -> float:
    """Median wall time of PROBE_RUNS back-to-back runs of a kernel."""
    kernel = KERNELS[kind][0]
    times = []
    for _ in range(PROBE_RUNS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime


class Clock:
    """Times callables in corrected seconds (see the module docstring),
    probing with the kernel of the given kind.

    ``wall`` sums the wall seconds of the timed calls, without the probes.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal = KERNELS[kind][1]
        probe(kind)  # the first call pays for imports and cold caches
        self.probes = [probe(kind)]
        self.wall = 0.0

    def time(self, fn, *args) -> tuple:
        """(fn's result, its corrected seconds); a probe follows the call."""
        wall_start, cpu_start = time.perf_counter(), cpu_seconds()
        result = fn(*args)
        wall = time.perf_counter() - wall_start
        on_cpu = min(cpu_seconds() - cpu_start, wall)
        self.wall += wall
        self.probes.append(probe(self.kind))
        around = (self.probes[-2] + self.probes[-1]) / 2
        return result, wall - on_cpu + on_cpu * self.nominal / around
