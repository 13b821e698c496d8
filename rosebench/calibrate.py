"""Host-speed calibration: a fixed piece of work that uses none of ``repro``.

The benchmark's host is two vCPUs of a shared machine whose speed moves
between phases over minutes: in a slow phase every workload, and this
loop, take about twice as long as in a fast one.  So the worker runs
``calibrate`` in the untimed gap before each op and after the last, and
every end-to-end time of the run is multiplied by
``REFERENCE_S / mean(calibration seconds of the run)``: it is scaled to
the reference host.  A change to the program moves its ops but not this
loop, so it shows in full.

The loop mixes the kinds of work the workloads do: interpreted Python
(calls, attributes, floats, dicts), numpy on small arrays, container
allocation, and JSON / hashing / pickle of a payload.  It runs with the
collector disabled after a full collection, so the size of the program's
heap does not reach into it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
from time import perf_counter, process_time

import numpy as np

#: Mean calibration seconds (wall and CPU alike) on the reference host,
#: rounded: two vCPUs of a shared x86-64 Xeon, CPython 3, in a fast phase.
REFERENCE_S = 1.0

_RNG = np.random.default_rng(12345)
_VEC = _RNG.random(512)
_MAT = _RNG.random((48, 48))
_PAYLOAD = {
    f"task-{i}": {"cycles": i * 1_000_003, "trace": [float(j) / 7 for j in range(40)]}
    for i in range(60)
}


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y

    def step(self, dt: float) -> float:
        self.x += self.y * dt
        self.y -= self.x * dt
        return self.x * self.x + self.y * self.y


def _interpreter(n: int) -> float:
    point = _Point(1.0, 0.5)
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(n):
        energy = point.step(0.001)
        table[i & 127] = energy
        acc += table.get((i * 7) & 127, 0.0) * 0.5
    return acc


def _numpy(n: int) -> float:
    acc = 0.0
    for _ in range(n):
        v = np.clip(_VEC * 1.5 - 0.25, 0.0, 1.0)
        acc += float(np.dot(v, _VEC)) + float((_MAT @ v[:48]).sum())
    return acc


def _allocate(n: int) -> int:
    # In batches, so the loop adds little to the process's peak memory.
    total = 0
    for start in range(0, n, 5_000):
        rows = [{"i": i, "pair": (i, i + 1), "tags": [i & 3]} for i in range(start, start + 5_000)]
        total += len(rows)
    return total


def _serialize(n: int) -> int:
    size = 0
    for _ in range(n):
        text = json.dumps(_PAYLOAD, sort_keys=True)
        size += len(hashlib.sha256(text.encode()).hexdigest())
        size += len(pickle.loads(pickle.dumps(_PAYLOAD)))
    return size


def calibrate() -> tuple[float, float]:
    """Run the fixed loop once; returns its (wall, CPU) seconds."""
    gc.collect()
    gc.disable()
    try:
        t0, c0 = perf_counter(), process_time()
        _interpreter(1_800_000)
        _numpy(50_000)
        _allocate(300_000)
        _serialize(320)
        return perf_counter() - t0, process_time() - c0
    finally:
        gc.enable()
