"""Batched mission engine throughput against the serial runner.

This bench runs a fig11-style group (s-shape course, SoC A, rotating DNN
variants, 16 seeds) serially and at several lockstep widths, asserting:

* every batch size produces signatures bit-identical to serial;
* the full-width batch beats serial **per core** by at least
  ``GATE_SPEEDUP``, gated on CPU seconds (``time.process_time``): both
  sides are a single process, so CPU seconds is exactly the per-core
  denominator — and unlike wall-clock it is immune to other-process
  contention on shared CI machines (+-20% wall noise observed).  The
  gate is never skipped on small machines, core count included:
  per-core means a 1-core box measures the same ratio.
* the batch-size scaling curve (1, 4, 8, 16) is recorded so the perf
  trajectory is tracked over time.

The serial environment renders, ray-casts and projects through the same
lane code as the engine (at one lane), so batching now buys only what
it amortizes over lanes: flight control, dynamics and the CNN forward
pass.  On a 2-core shared host, four runs measured 1.30x-1.65x; the gate
sits below the lowest.

Timed sections take the best of N repetitions: the minimum of a
deterministic computation is the least-contended measurement, not a
statistical cherry-pick.  Serial and full-width repetitions alternate,
so a slow phase of the host slows both sides.

Besides the pytest-benchmark record, the bench emits ``BENCH_batch.json``
at the repo root — a small standalone perf record downstream tooling can
diff without parsing the full benchmark JSON.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable

from repro.batch.engine import run_missions_batched
from repro.core.config import CoSimConfig
from repro.core.cosim import run_mission
from repro.sweep.signature import mission_signature

BENCH_RECORD = Path(__file__).resolve().parent.parent / "BENCH_batch.json"

#: Rotating DNN variants, as in the fig11 sweep.
MODELS = ("resnet6", "resnet11", "resnet14", "resnet18")

BATCH_SIZES = (1, 4, 8, 16)
#: Interleaved serial / full-width rounds; the best of each is compared.
REPS = 3
GATE_SPEEDUP = 1.2


def _fig11_style_configs(count: int = 16) -> list[CoSimConfig]:
    return [
        CoSimConfig(
            world="s-shape",
            soc="A",
            model=MODELS[seed % len(MODELS)],
            target_velocity=9.0,
            max_sim_time=8.0,
            seed=seed,
        )
        for seed in range(count)
    ]


def _best_of(reps: int, *fns: Callable[[], Any]) -> list[tuple[float, float, Any]]:
    """(best CPU seconds, best wall seconds, a result) of each ``fn``.

    Each of the ``reps`` rounds runs every ``fn`` in turn, so a host
    slowdown during the bench hits every side alike.
    """
    best: list[tuple[float, float, Any]] = [(float("inf"), float("inf"), None)] * len(fns)
    for _ in range(reps):
        for i, fn in enumerate(fns):
            cpu0, wall0 = time.process_time(), time.perf_counter()
            result = fn()
            cpu = time.process_time() - cpu0
            wall = time.perf_counter() - wall0
            best_cpu, best_wall, best_result = best[i]
            best[i] = (
                min(best_cpu, cpu),
                min(best_wall, wall),
                result if cpu < best_cpu else best_result,
            )
    return best


def test_batch_throughput_and_scaling(benchmark):
    configs = _fig11_style_configs()
    missions = len(configs)
    full_width = BATCH_SIZES[-1]

    # The gated serial and full-width measurements run first (before the
    # scaling sweep below can fragment the allocator), interleaved, under
    # one pytest-benchmark round.  Timings are taken here rather than read
    # back from ``benchmark.stats``, which is ``None`` under
    # --benchmark-disable.
    measured: list[tuple[float, float, Any]] = []

    def _serial_vs_full_width() -> None:
        measured[:] = _best_of(
            REPS,
            lambda: [run_mission(cfg) for cfg in configs],
            lambda: run_missions_batched(configs, batch_size=full_width),
        )

    benchmark.pedantic(_serial_vs_full_width, rounds=1, iterations=1)
    (serial_cpu, serial_wall, serial_results), (batch_cpu, batch_wall, batched_results) = measured
    serial_signatures = [mission_signature(r) for r in serial_results]
    assert [mission_signature(r) for r in batched_results] == serial_signatures

    speedup = serial_cpu / batch_cpu
    assert speedup >= GATE_SPEEDUP, (
        f"batched engine delivered {speedup:.2f}x missions/sec/core "
        f"(serial {serial_cpu:.2f} cpu-s vs batch{full_width} "
        f"{batch_cpu:.2f} cpu-s for {missions} missions); gate is "
        f">={GATE_SPEEDUP}x"
    )

    # Scaling curve: same workload in lockstep chunks of each size.
    curve: list[dict[str, float | int]] = []
    for size in BATCH_SIZES[:-1]:
        ((cpu, _wall, results),) = _best_of(
            1, lambda size=size: run_missions_batched(configs, batch_size=size)
        )
        assert [mission_signature(r) for r in results] == serial_signatures
        curve.append(
            {
                "batch_size": size,
                "cpu_seconds": round(cpu, 3),
                "missions_per_sec_per_core": round(missions / cpu, 3),
            }
        )
    curve.append(
        {
            "batch_size": full_width,
            "cpu_seconds": round(batch_cpu, 3),
            "missions_per_sec_per_core": round(missions / batch_cpu, 3),
        }
    )

    record = {
        "workload": {
            "figure": "fig11-style",
            "world": "s-shape",
            "soc": "A",
            "models": list(MODELS),
            "target_velocity": 9.0,
            "max_sim_time": 8.0,
            "missions": missions,
        },
        "cores_per_run": 1,
        "serial_cpu_seconds": round(serial_cpu, 3),
        "serial_wall_seconds": round(serial_wall, 3),
        "serial_missions_per_sec_per_core": round(missions / serial_cpu, 3),
        "batched_cpu_seconds": round(batch_cpu, 3),
        "batched_wall_seconds": round(batch_wall, 3),
        "batched_missions_per_sec_per_core": round(missions / batch_cpu, 3),
        "speedup": round(speedup, 2),
        "gate_speedup": GATE_SPEEDUP,
        "scaling_curve": curve,
        "signatures_bit_identical": True,
    }
    BENCH_RECORD.write_text(json.dumps(record, indent=2) + "\n")
    benchmark.extra_info.update(record)
