"""Benchmark of the RoSE reproduction: missions, batched sweeps, warm serve.

Run from the root of a checkout::

    python3 rosebench/run.py --workload mission --seed 0 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
table (spans around calls into ``repro.*`` entry points, see
``layers.py``).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The shared host's speed moves by about 2x over minutes, so every
end-to-end time is scaled to the reference host, which takes that out
while leaving any change of the program in.  The unscaled figures are
printed on the lines before the result.

Set-up is measured in fresh processes: ``SETUP_PROBES`` children each
import the program and warm its memos; the last goes on to the measured
phase.  Before each, a bare child (``--baseline``: Python and numpy, no
``repro``) is timed from spawn to ready.  ``setup_s`` is the median
spawn-to-ready of the program children times ``BASELINE_S`` over the
median of the bare ones: process start and imports slow more than
computation does in the host's slow phases, so they get their own scale.
The measured phase's times are scaled by the host calibration the
measuring child runs between its ops (``calibrate.py``).

Other modes (printed, not gated):

* ``--fig15`` — measured simulation throughput of the ``mission`` bundle
  at several ``cycles_per_sync`` beside the modelled FireSim curve.
* ``--record-reference`` — rewrite ``reference.json`` from seed 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("mission", "sweep-serve")
SETUP_PROBES = 5
#: Seconds a bare worker (Python, numpy, no ``repro``) takes from spawn to
#: ready on the reference host, rounded; ``setup_s`` is scaled by it.
BASELINE_S = 0.1
#: Every child must be done this many seconds after the run started.
DEADLINE_S = 170.0

#: Variables that change the program under measurement.
PINNED_ENV = (
    "REPRO_SWEEP_BATCH",
    "REPRO_SWEEP_WORKERS",
    "REPRO_SWEEP_CACHE_DIR",
    "REPRO_SWEEP_CHAOS",
    "REPRO_CHECK_INVARIANTS",
)

END_TO_END = {
    "setup_s": "s",
    "missions_per_s": "1/s",
    "op_s_p50": "s",
    "sim_mhz": "MHz",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "env.camera.calls": "count",
    "env.camera.self_s": "s",
    "env.step.frames": "count",
    "env.step.self_s": "s",
    "env.course.self_s": "s",
    "core.rpc.calls": "count",
    "core.rpc.self_s": "s",
    "core.sync.steps": "count",
    "core.sync.packets": "count",
    "core.sync.self_s": "s",
    "core.mission.self_s": "s",
    "soc.host.self_s": "s",
    "soc.step.self_s": "s",
    "soc.cycles": "cycles",
    "soc.inferences": "count",
    "dnn.infer.calls": "count",
    "dnn.infer.self_s": "s",
    "batch.render.self_s": "s",
    "batch.engine.self_s": "s",
    "batch.missions_share": "ratio",
    "sweep.runner.self_s": "s",
    "sweep.cache.write.calls": "count",
    "sweep.cache.write.self_s": "s",
    "sweep.cache.write.bytes": "B",
    "sweep.journal.appends": "count",
    "sweep.journal.self_s": "s",
    "sweep.cache.read.calls": "count",
    "sweep.cache.read.self_s": "s",
    "sweep.cache.read.bytes": "B",
    "sweep.cache.reads_per_task": "reads/task",
    "sweep.signature.calls": "count",
    "sweep.signature.self_s": "s",
    "serve.api.submit.self_s": "s",
    "serve.api.report.self_s": "s",
    "serve.scheduler.self_s": "s",
    "serve.jobq.appends": "count",
    "serve.jobq.self_s": "s",
    "serve.worker.self_s": "s",
    "serve.report.self_s": "s",
    "obs.merge.self_s": "s",
    "py.gc.collections": "count",
    "py.gc.self_s": "s",
    "other.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: the workloads are single-process, single-threaded.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One worker process whose stdout is read line by line to a deadline."""

    def __init__(self, args: list[str], root: Path, deadline: float):
        self.deadline = deadline
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args],
            cwd=root,
            env=_child_env(root),
            stdout=subprocess.PIPE,
            text=True,
        )
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.proc.stdout, selectors.EVENT_READ)

    def lines(self):
        """Yield stdout lines until EOF; kill the child past the deadline."""
        while True:
            left = self.deadline - perf_counter()
            if left <= 0 or not self.selector.select(timeout=left):
                self.close()
                raise BenchError("benchmark child exceeded its time limit")
            line = self.proc.stdout.readline()
            if not line:
                return
            yield line.rstrip("\n")

    def wait(self) -> None:
        try:
            code = self.proc.wait(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError("benchmark child exceeded its time limit") from None
        finally:
            self.close()
        if code != 0:
            raise BenchError(f"benchmark child exited with code {code}")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.selector.close()
        self.proc.stdout.close()


def run_child(args: list[str], root: Path, deadline: float) -> tuple[float | None, str | None]:
    """Run one worker; returns (seconds to ready, result payload), each or None."""
    child = Child(args, root, deadline)
    ready = None
    result = None
    try:
        for line in child.lines():
            if line == "@@ready":
                ready = perf_counter() - child.started
            elif line.startswith("@@result "):
                result = line[len("@@result ") :]
            else:
                print(line, flush=True)
        child.wait()
    finally:
        child.close()
    return ready, result


def measure(args: argparse.Namespace, root: Path, workdir: Path) -> dict:
    deadline = perf_counter() + DEADLINE_S
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    setups = []
    baselines = []
    payload = None
    for probe in range(SETUP_PROBES):
        last = probe == SETUP_PROBES - 1
        seconds, _ = run_child(common + ["--workdir", str(workdir), "--baseline"], root, deadline)
        if seconds is None:
            raise BenchError("baseline child never got ready")
        baselines.append(seconds)
        seconds, payload = run_child(
            common + ["--workdir", str(workdir / f"child{probe}")] + ([] if last else ["--probe"]),
            root,
            deadline,
        )
        if seconds is None:
            raise BenchError("benchmark child never finished set-up")
        setups.append(seconds)
    if payload is None:
        raise BenchError("benchmark child printed no result")
    result = json.loads(payload)
    values = result["metrics"]
    if args.trace:
        wanted = PER_LAYER
    else:
        wanted = END_TO_END
        values["setup_s"] = (
            statistics.median(setups) * BASELINE_S / statistics.median(baselines)
        )
        print("setup_s samples, unscaled: " + ", ".join(f"{s:.4f}" for s in setups))
        print("baseline start-up samples: " + ", ".join(f"{s:.4f}" for s in baselines))
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise BenchError(f"metrics missing from the run: {missing}")
    result["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in wanted.items()
    }
    return result


def record_reference(root: Path, workdir: Path) -> None:
    deadline = perf_counter() + 10 * DEADLINE_S
    reference = {}
    for workload in WORKLOADS:
        out = workdir / f"{workload}.json"
        run_child(
            ["--workload", workload, "--seed", "0", "--seconds", "0",
             "--workdir", str(workdir / workload), "--record", str(out)],
            root,
            deadline,
        )
        reference[workload] = json.loads(out.read_text())
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'reference.json'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fig15", action="store_true", help="print the measured Fig. 15 curve")
    parser.add_argument("--record-reference", action="store_true", help="rewrite reference.json")
    args = parser.parse_args()

    pinned = [name for name in PINNED_ENV if name in os.environ]
    if pinned:
        names = ", ".join(pinned)
        print(f"error: unset {names}: they change the program measured", file=sys.stderr)
        return 2
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout (src/repro not found)", file=sys.stderr)
        return 2
    if not (args.fig15 or args.record_reference or args.workload):
        parser.error("--workload is required")

    workdir = root / ".rosebench_work" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.fig15:
            run_child(["--fig15", "--workload", "mission", "--seed", str(args.seed),
                       "--seconds", "0", "--workdir", str(workdir)], root,
                      perf_counter() + 10 * DEADLINE_S)
            return 0
        if args.record_reference:
            record_reference(root, workdir)
            return 0
        result = measure(args, root, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
