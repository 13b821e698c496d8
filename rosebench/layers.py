"""The layer table: which ``repro`` entry points each traced layer wraps.

Layer names follow the package layout (``env``, ``core``, ``soc``,
``dnn``, ``batch``, ``sweep``, ``serve``, ``obs``).  ``EXPECTED`` names
the layers each workload must exercise; the traced run fails when one of
them records no call, which is how a wrapper bound to a stale name shows.
"""

from __future__ import annotations

import os
from typing import Any

from tracing import Entry


def _frames(args: tuple, kwargs: dict, result: Any) -> float:
    return args[1] if len(args) > 1 else kwargs["frames"]


def _cycles(args: tuple, kwargs: dict, result: Any) -> float:
    return result


def _lanes(args: tuple, kwargs: dict, result: Any) -> float:
    return len(args[1] if len(args) > 1 else kwargs["configs"])


def _missed(args: tuple, kwargs: dict, result: Any) -> float:
    return 1 if result is None else 0


ENTRIES: list[Entry] = [
    # env: the environment simulator (AirSim's role).
    Entry("repro.env.camera:FpvCamera.render", "env.camera"),
    Entry(
        "repro.env.simulator:EnvSimulator.continue_for_frames",
        "env.step",
        measure="env.step.frames",
        amount=_frames,
    ),
    Entry("repro.env.worlds:World.course_coordinates", "env.course"),
    Entry("repro.env.worlds:World.heading_error", "env.course"),
    # core: the synchronizer and its RPC/packet link to the environment.
    Entry("repro.env.rpc:RpcClient.call", "core.rpc"),
    Entry("repro.core.synchronizer:Synchronizer.step", "core.sync", measure="core.sync.steps"),
    Entry("repro.core.synchronizer:Synchronizer.configure", "core.sync"),
    Entry("repro.core.synchronizer:Synchronizer.shutdown", "core.sync"),
    Entry("repro.core.transport:InProcessTransport.send", None, measure="core.sync.packets"),
    Entry("repro.core.cosim:CoSimulation.__init__", "core.mission"),
    Entry("repro.core.cosim:CoSimulation.run", "core.mission"),
    # soc: the FireSim host and the SoC cycle model.
    Entry("repro.soc.firesim:FireSimHost.service", "soc.host"),
    Entry("repro.soc.soc:Soc.step", "soc.step", measure="soc.cycles", amount=_cycles),
    # dnn: the inference cost plan and the calibrated classifier.
    Entry("repro.dnn.runtime:InferenceSession.run", "dnn.infer", measure="soc.inferences"),
    Entry("repro.dnn.calibrated:CalibratedTrailClassifier.infer", "dnn.infer"),
    # batch: the lockstep engine and its camera kernel.
    Entry("repro.batch.kernels:render_lanes", "batch.render"),
    Entry(
        "repro.batch.engine:BatchEngine.__init__",
        "batch.engine",
        measure="batch.missions",
        amount=_lanes,
    ),
    Entry("repro.batch.engine:BatchEngine.run", "batch.engine"),
    # sweep: runner, result cache, journal and signatures.
    Entry("repro.sweep.runner:SweepRunner.run", "sweep.runner"),
    Entry(
        "repro.sweep.cache:ResultCache.get",
        "sweep.cache.read",
        measure="sweep.cache.misses",
        amount=_missed,
        defer="sweep.cache.read",
    ),
    Entry("repro.sweep.cache:ResultCache.put", "sweep.cache.write", defer="sweep.cache.write"),
    Entry("repro.sweep.journal:SweepJournal.begin", "sweep.journal"),
    Entry("repro.sweep.journal:SweepJournal.record_task", "sweep.journal"),
    Entry("repro.sweep.journal:SweepJournal.resume", "sweep.journal"),
    Entry("repro.sweep.journal:SweepJournal.end", "sweep.journal"),
    Entry("repro.sweep.signature:mission_signature", "sweep.signature"),
    # serve: scheduler, job log, shard workers and report assembly.
    *(
        Entry(f"repro.serve.scheduler:Scheduler.{name}", "serve.scheduler")
        for name in ("submit", "lease", "heartbeat", "tick", "complete", "job", "status")
    ),
    *(
        Entry(f"repro.serve.jobs:JobStore.{name}", "serve.jobq")
        for name in (
            "record_submit",
            "record_job_state",
            "record_task",
            "record_lease",
            "record_expire",
            "record_cancel",
        )
    ),
    Entry("repro.serve.workers:ShardWorker.step", "serve.worker"),
    Entry("repro.serve.service:SweepService.report", "serve.report"),
    Entry("repro.serve.service:report_signature", "serve.report"),
    # obs: snapshot merging.
    Entry("repro.obs.aggregate:merge_snapshots", "obs.merge"),
]

#: Spans the benchmark opens itself around its calls into ``dispatch``.
API_SPANS = ("serve.api.submit", "serve.api.report")

LAYERS = sorted({e.layer for e in ENTRIES if e.layer is not None} | set(API_SPANS))

#: Layers each workload must exercise (span-coverage self-check).
EXPECTED: dict[str, tuple[str, ...]] = {
    "mission": (
        "env.camera",
        "env.step",
        "env.course",
        "core.rpc",
        "core.sync",
        "core.mission",
        "soc.host",
        "soc.step",
        "dnn.infer",
    ),
    "sweep-serve": (
        "core.rpc",
        "core.sync",
        "core.mission",
        "soc.host",
        "soc.step",
        "dnn.infer",
        "batch.render",
        "batch.engine",
        "sweep.runner",
        "sweep.cache.read",
        "sweep.cache.write",
        "sweep.journal",
        "sweep.signature",
        "serve.api.submit",
        "serve.api.report",
        "serve.scheduler",
        "serve.jobq",
        "serve.worker",
        "serve.report",
        "obs.merge",
    ),
}

#: Counts that must repeat exactly on every op of a run.
EXACT_COUNTS = (
    "env.camera.calls",
    "env.step.frames",
    "core.rpc.calls",
    "core.sync.steps",
    "core.sync.packets",
    "soc.cycles",
    "soc.inferences",
    "dnn.infer.calls",
    "batch.missions_share",
    "sweep.cache.write.calls",
    "sweep.cache.write.bytes",
    "sweep.journal.appends",
    "sweep.cache.read.calls",
    "sweep.cache.read.bytes",
    "sweep.cache.reads_per_task",
    "sweep.signature.calls",
    "serve.jobq.appends",
)


def layer_metrics(tracer: Any, tasks: int) -> dict[str, float]:
    """One traced op's per-layer figures (call after the op ended).

    File sizes of cache reads and writes are taken here, outside the op,
    from the paths and configs the wrappers collected.
    """
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = tracer.calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
    counts = tracer.counts
    for name in (
        "env.step.frames",
        "core.sync.steps",
        "core.sync.packets",
        "soc.cycles",
        "soc.inferences",
    ):
        metrics[name] = counts.get(name, 0)
    misses = counts.get("sweep.cache.misses", 0)
    metrics["batch.missions_share"] = counts.get("batch.missions", 0) / misses if misses else 0.0
    metrics["sweep.cache.reads_per_task"] = (
        metrics["sweep.cache.read.calls"] / tasks if tasks else 0.0
    )
    metrics["sweep.journal.appends"] = metrics["sweep.journal.calls"]
    metrics["serve.jobq.appends"] = metrics["serve.jobq.calls"]
    read_bytes = 0
    for (cache, config), result in tracer.deferred.get("sweep.cache.read", []):
        if result is not None:
            read_bytes += os.path.getsize(cache._path(cache.key_for(config)))
    metrics["sweep.cache.read.bytes"] = read_bytes
    metrics["sweep.cache.write.bytes"] = sum(
        os.path.getsize(path) for _args, path in tracer.deferred.get("sweep.cache.write", [])
    )
    metrics["py.gc.collections"] = tracer.gc_collections
    metrics["py.gc.self_s"] = tracer.gc_seconds
    return metrics
