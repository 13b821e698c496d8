"""The two workloads: what one op does and what its outputs must be.

Every op of a workload repeats the same work, so any op's outputs (mission
signatures and simulated counts) must equal the first op's.  The missions
themselves are fixed figure configurations; ``--seed`` sets the order in
which they are submitted (and so, for the batched sweep, which missions
share a lockstep chunk).  Varying the missions' own seeds would vary the
work per op (collisions cost host time), which is not what the benchmark
compares.

* ``mission`` — serial ``run_mission`` over one fig11 column: s-shape
  world, SoC A, resnet6/11/14/18 at 9 m/s, 8 s simulated.
* ``sweep-serve`` — a cold ``SweepRunner(workers=1, batch_size=16)`` over
  the fig11 x fig12 grid (4 models x {6, 9, 12} m/s x 2 seeds) into a
  fresh cache and journal, then the same 24 configs posted to a fresh
  ``SweepService`` over that now-warm cache (empty job log), driven by
  in-process shard workers, and the report fetched through ``dispatch``.
  The first half is the cache-write side, the second the read side.

``op`` returns its result and the CPU seconds of its simulating part,
the denominator of ``sim_mhz``.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import replace
from pathlib import Path
from time import process_time
from typing import Any

from repro import CoSimConfig, run_mission
from repro.core.manifest import config_to_dict
from repro.serve import SweepService, dispatch, run_job_to_completion
from repro.serve.service import CACHE_DIR
from repro.sweep import ResultCache, SweepJournal, SweepRunner, mission_signature

MODELS = ("resnet6", "resnet11", "resnet14", "resnet18")
VELOCITIES = (6.0, 9.0, 12.0)
SIM_SECONDS = 8.0
BATCH_SIZE = 16
SHARDS = 2

BASE = CoSimConfig(
    world="s-shape", soc="A", target_velocity=9.0, max_sim_time=SIM_SECONDS
)


def label(config: CoSimConfig) -> str:
    """A stable name for one mission of the figure grids."""
    return f"{config.model}-{config.target_velocity:g}mps-seed{config.seed}"


def mission_bundle(seed: int, base: CoSimConfig = BASE) -> list[CoSimConfig]:
    """The fig11 column: one mission per model at 9 m/s, in seeded order."""
    configs = [replace(base, model=model) for model in MODELS]
    random.Random(seed).shuffle(configs)
    return configs


def sweep_grid(seed: int) -> list[tuple[str, CoSimConfig]]:
    """The fig11 x fig12 grid (24 tasks over two mission seeds), in seeded order."""
    configs = [
        replace(BASE, model=model, target_velocity=velocity, seed=s)
        for model in MODELS
        for velocity in VELOCITIES
        for s in (0, 1)
    ]
    random.Random(seed).shuffle(configs)
    return [(label(config), config) for config in configs]


def _mission_outputs(results: list[Any]) -> dict[str, Any]:
    """Signatures and simulated counts of a list of mission results."""
    return {
        "signatures": {label(r.config): mission_signature(r) for r in results},
        "counts": {
            "soc_cycles": sum(r.soc_cycles for r in results),
            "inferences": sum(r.inference_count for r in results),
            "sync_steps": sum(r.sync_stats.steps for r in results),
            "packets": sum(
                r.sync_stats.packets_to_rtl + r.sync_stats.packets_from_rtl
                for r in results
            ),
        },
        "cycles": sum(r.soc_cycles for r in results),
        "failures": [r.failure_reason for r in results if r.failure_reason],
    }


def _warm_memos(configs: list[CoSimConfig]) -> None:
    """Fill process-wide memos (graphs, worlds, profiles) with short flights."""
    for config in configs:
        run_mission(replace(config, max_sim_time=0.2))


class Mission:
    name = "mission"
    tasks_per_op = 0

    def __init__(self, seed: int, workdir: Path):
        self.configs = mission_bundle(seed)
        self.missions_per_op = len(self.configs)

    def setup(self) -> None:
        _warm_memos(self.configs)

    def op(self, index: int, tracer: Any = None) -> tuple[list[Any], float]:
        c0 = process_time()
        results = [run_mission(config) for config in self.configs]
        return results, process_time() - c0

    def outputs(self, results: list[Any]) -> dict[str, Any]:
        return _mission_outputs(results)

    def after_op(self, index: int) -> None:
        pass


class SweepServe:
    name = "sweep-serve"

    def __init__(self, seed: int, workdir: Path):
        self.tasks = sweep_grid(seed)
        self.missions_per_op = len(self.tasks)
        self.tasks_per_op = len(self.tasks)
        self.workdir = workdir
        self.body = {
            "name": "bench",
            "tasks": [
                {"name": name, "config": config_to_dict(config)}
                for name, config in self.tasks
            ],
        }

    def _opdir(self, index: int) -> Path:
        return self.workdir / f"op{index:04d}"

    def setup(self) -> None:
        _warm_memos(mission_bundle(0))

    def op(self, index: int, tracer: Any = None) -> tuple[Any, float]:
        # The service's cache directory is the one the cold sweep fills.
        opdir = self._opdir(index)
        c0 = process_time()
        runner = SweepRunner(
            workers=1,
            batch_size=BATCH_SIZE,
            cache=ResultCache(opdir / CACHE_DIR),
            journal=SweepJournal(opdir / "journal.jsonl"),
        )
        report = runner.run(self.tasks)
        sim_cpu = process_time() - c0

        service = SweepService(opdir, shards=SHARDS)
        status, submitted = _call(
            tracer, "serve.api.submit", service, "POST", "/v1/jobs", self.body
        )
        if status != 202:
            raise RuntimeError(f"submit returned {status}: {submitted}")
        job = submitted["job"]
        run_job_to_completion(service, job, workers=SHARDS)
        status, served = _call(tracer, "serve.api.report", service, "GET", f"/v1/jobs/{job}/report")
        if status != 200:
            raise RuntimeError(f"report returned {status}: {served}")
        return (report, served), sim_cpu

    def outputs(self, out: tuple[Any, dict[str, Any]]) -> dict[str, Any]:
        report, served = out
        outputs = _mission_outputs([o.result for o in report.outcomes if o.result is not None])
        failures = outputs["failures"]
        failures += [f"{o.name}: {o.state}" for o in report.outcomes if o.state != "ok"]
        if report.batched_missions != len(self.tasks):
            failures.append(f"{report.batched_missions} of {len(self.tasks)} missions batched")
        outcomes = served["outcomes"]
        failures += [f"{o['name']}: {o['state']}" for o in outcomes if o["state"] != "from_cache"]
        served_signatures = {o["name"]: o["signature"] for o in outcomes}
        if served_signatures != outputs["signatures"]:
            failures.append("served mission signatures differ from the computed ones")
        outputs["report_signature"] = served["signature"]
        outputs["counts"]["served"] = len(outcomes)
        return outputs

    def after_op(self, index: int) -> None:
        shutil.rmtree(self._opdir(index))


def _call(tracer: Any, span: str, *args: Any) -> Any:
    if tracer is None:
        return dispatch(*args)
    return tracer.span(span, dispatch, *args)


WORKLOADS = {w.name: w for w in (Mission, SweepServe)}
