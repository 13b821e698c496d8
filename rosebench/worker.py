"""One benchmark process: set up a workload, then time or trace its ops.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It prints ``@@ready`` once set-up is done (the parent times
set-up from process start to that line), and, unless it is a set-up
probe, ``@@result <json>`` after the measured phase.

Each op starts from a full garbage collection, so every op meets the
collector in the same state.  Untraced runs time whole ops and run the
host calibration (``calibrate.py``) before the first op and after each;
their times are reported scaled to the reference host.  Traced runs
alternate an untraced op with a traced one; the difference of their
median walls is the tracing overhead.  Every op's outputs must equal the
first op's and the committed ``reference.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time
from typing import Any

from calibrate import REFERENCE_S, calibrate

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
MIN_OPS = 3
MIN_TRACED_PAIRS = 2
#: Tolerance of the sum-to-whole check (float rounding over ~1e5 spans).
SUM_TOLERANCE_S = 1e-6


def _budget_left(start: float, seconds: float, last_op: float) -> bool:
    """Whether another op of ``last_op`` seconds fits in the budget."""
    return perf_counter() - start + last_op <= seconds


def _compare(name: str, got: Any, want: Any, keys: tuple[str, ...], problems: list[str]) -> int:
    """Count missions whose signature differs; note any other mismatch."""
    got_sigs, want_sigs = got["signatures"], want["signatures"]
    failed = sum(1 for task, sig in want_sigs.items() if got_sigs.get(task) != sig)
    if failed or len(got_sigs) != len(want_sigs):
        problems.append(f"{name}: {failed} of {len(want_sigs)} mission signature(s) differ")
    for key in keys:
        if got.get(key) != want.get(key):
            problems.append(f"{name}: {key} {got.get(key)} != {want.get(key)}")
    return failed


class Checker:
    """Checks each op's outputs against the first op and the reference.

    Mission signatures and simulated counts do not depend on the seed (it
    only orders the missions), so they are checked against the reference
    on every seed; the serve report's digest covers the submission order
    and is checked on the reference seed only.
    """

    def __init__(self, workload: Any, seed: int):
        self.workload = workload
        self.reference = json.loads(REFERENCE.read_text())[workload.name]
        self.reference_keys = (
            ("counts", "report_signature") if seed == REFERENCE_SEED else ("counts",)
        )
        self.first: dict[str, Any] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, index: int, outputs: dict[str, Any]) -> None:
        missions = self.workload.missions_per_op
        self.attempted += missions
        if outputs["failures"]:
            self.problems.append(f"op {index}: {outputs['failures'][:3]}")
        if self.first is None:
            self.first = outputs
            want, name, keys = self.reference, "reference", self.reference_keys
        else:
            want, name, keys = self.first, "op 0", ("counts", "report_signature")
        failed = _compare(f"op {index} vs {name}", outputs, want, keys, self.problems)
        failed = max(failed, len(outputs["failures"]))
        self.failed += min(failed, missions)


def _percentile_line(walls: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    best = None
    for p in (99.9, 99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            best = p
            break
    if best is None:
        return f"op_s: no percentile above p50 has 10 samples beyond it (n={n})"
    value = statistics.quantiles(walls, n=1000, method="inclusive")[int(best * 10) - 1]
    return f"op_s_p{best:g}: {value:.4f} s (n={n})"


def timed_run(workload: Any, seconds: float, checker: Checker) -> dict[str, Any]:
    """Time whole ops, calibrating the host before the first and after each.

    Times are scaled to the reference host (see ``calibrate.py``); the raw
    figures of this host are printed beside them.
    """
    cals = [calibrate()]
    walls: list[float] = []
    sim_cpus: list[float] = []
    cycles = 0
    start = perf_counter()
    index = 0
    while True:
        gc.collect()
        t0 = perf_counter()
        out, sim_cpu = workload.op(index)
        wall = perf_counter() - t0
        outputs = workload.outputs(out)
        workload.after_op(index)
        checker.check(index, outputs)
        walls.append(wall)
        sim_cpus.append(sim_cpu)
        cycles = outputs["cycles"]
        index += 1
        cals.append(calibrate())
        if index >= MIN_OPS and not _budget_left(start, seconds, perf_counter() - t0):
            break
    # The mean, not the median: an op of seconds integrates over the host's
    # second-to-second swings, and so does the mean of the short samples.
    cal_wall = statistics.fmean(c[0] for c in cals)
    wall_scale = REFERENCE_S / cal_wall
    cpu_scale = REFERENCE_S / statistics.fmean(c[1] for c in cals)
    missions = workload.missions_per_op * len(walls)
    raw = {
        "missions_per_s": missions / sum(walls),
        "op_s_p50": statistics.median(walls),
        "sim_mhz": cycles / statistics.median(sim_cpus) / 1e6,
    }
    print(
        "this host, unscaled: "
        + ", ".join(f"{name} {value:.4f}" for name, value in raw.items())
        + f"; calibration mean {cal_wall:.4f} s"
        + f" wall (n={len(cals)}), scale {wall_scale:.4f} wall, {cpu_scale:.4f} CPU"
    )
    print(_percentile_line([wall * wall_scale for wall in walls]))
    return {
        "missions_per_s": raw["missions_per_s"] / wall_scale,
        "op_s_p50": raw["op_s_p50"] * wall_scale,
        "sim_mhz": raw["sim_mhz"] / cpu_scale,
    }


def traced_run(workload: Any, seconds: float, checker: Checker) -> dict[str, Any]:
    from layers import ENTRIES, EXACT_COUNTS, EXPECTED, LAYERS, layer_metrics
    from tracing import Tracer

    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    per_op: list[dict[str, float]] = []
    start = perf_counter()
    index = 0
    while True:
        pair_t0 = perf_counter()
        gc.collect()
        t0 = perf_counter()
        out, _ = workload.op(index)
        plain.append(perf_counter() - t0)
        checker.check(index, workload.outputs(out))
        workload.after_op(index)
        index += 1

        gc.collect()
        tracer.reset()
        tracer.install(ENTRIES)
        try:
            stale = tracer.stale_bindings()
            tracer.push("other")
            try:
                out, _ = workload.op(index, tracer)
            finally:
                wall = tracer.pop()
        finally:
            tracer.uninstall()
        if stale:
            checker.problems.append(f"wrappers missed stale bindings: {stale}")
        traced.append(wall)
        metrics = layer_metrics(tracer, workload.tasks_per_op)
        metrics["other.self_s"] = tracer.self_s["other"]
        claimed = sum(tracer.self_s.values()) + tracer.gc_seconds
        if abs(claimed - wall) > SUM_TOLERANCE_S:
            checker.problems.append(
                f"op {index}: layer self times sum to {claimed:.6f} s, op wall {wall:.6f} s"
            )
        per_op.append(metrics)
        checker.check(index, workload.outputs(out))
        workload.after_op(index)
        index += 1
        if len(traced) >= MIN_TRACED_PAIRS and not _budget_left(
            start, seconds, perf_counter() - pair_t0
        ):
            break

    for name in EXACT_COUNTS:
        values = {m[name] for m in per_op}
        if len(values) > 1:
            checker.problems.append(f"count {name} differs between ops: {sorted(values)}")
    for layer in EXPECTED[workload.name]:
        if any(m[f"{layer}.calls"] == 0 for m in per_op):
            checker.problems.append(f"span coverage: layer {layer} never fired")
    result = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    result.update({name: per_op[0][name] for name in EXACT_COUNTS})
    result["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    _print_table(result, statistics.median(traced), LAYERS)
    return result


def _print_table(result: dict[str, float], wall: float, layers: list[str]) -> None:
    print(f"per-layer self time, median of traced ops (op wall {wall:.4f} s):")
    rows = [(layer, result[f"{layer}.calls"], result[f"{layer}.self_s"]) for layer in layers]
    rows.append(("py.gc", result["py.gc.collections"], result["py.gc.self_s"]))
    rows.append(("other", 1, result["other.self_s"]))
    for layer, calls, self_s in sorted(rows, key=lambda r: -r[2]):
        share = 100 * self_s / wall if wall else 0.0
        print(f"  {layer:<20} {calls:>10g} calls {self_s:>10.4f} s {share:6.1f}%")
    print(f"  trace overhead per op: {result['trace.overhead_s']:.4f} s")


def record(workload: Any, path: Path) -> None:
    """Write one op's outputs as the workload's reference entry."""
    outputs = workload.outputs(workload.op(0)[0])
    workload.after_op(0)
    if outputs["failures"]:
        raise SystemExit(f"reference op failed: {outputs['failures'][:3]}")
    keep = ("signatures", "report_signature", "counts")
    path.write_text(json.dumps({k: outputs[k] for k in keep if k in outputs}))


def fig15(seed: int) -> None:
    """Measured co-simulation throughput against sync granularity."""
    from dataclasses import replace

    from repro import SyncConfig, run_mission
    from repro.analysis.figures import fig15_data
    from workloads import BASE, mission_bundle

    granularities = (10_000_000, 50_000_000, 100_000_000, 400_000_000)
    modelled = {
        p.cycles_per_sync: p.throughput_mhz for p in fig15_data(granularities=granularities)
    }
    print("cycles/sync  measured sim_mhz (host CPU-s)  modelled FireSim MHz (Fig. 15)")
    for cycles in granularities:
        base = replace(BASE, sync=SyncConfig(cycles_per_sync=cycles))
        c0 = process_time()
        results = [run_mission(config) for config in mission_bundle(seed, base)]
        cpu = process_time() - c0
        measured = sum(r.soc_cycles for r in results) / cpu / 1e6
        print(f"{cycles / 1e6:>10.0f}M  {measured:>27.1f}  {modelled[cycles]:>30.1f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--probe", action="store_true", help="exit after set-up")
    parser.add_argument("--record", type=Path, help="write one op's outputs here")
    parser.add_argument("--fig15", action="store_true")
    parser.add_argument(
        "--baseline", action="store_true", help="get ready without importing the program"
    )
    args = parser.parse_args()
    if args.baseline:
        print("@@ready", flush=True)
        return 0
    if args.fig15:
        fig15(args.seed)
        return 0

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    print("@@ready", flush=True)
    if args.probe:
        return 0
    if args.record:
        record(workload, args.record)
        return 0
    checker = Checker(workload, args.seed)
    run = traced_run if args.trace else timed_run
    metrics = run(workload, args.seconds, checker)
    if not args.trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for problem in checker.problems:
        print(f"check failed: {problem}")
    print(
        "@@result "
        + json.dumps(
            {
                "correct": not checker.problems,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
