"""Fresh-interpreter recovery for one allocator benchmark run.

Usage: ``python3 allocbench/recover.py SPEC.json [--count]``

The writer (``run.py``) leaves a spec describing the state to recover:
a checkpoint for the runtime workloads, or the universe and final active
set for the batch engine, which keeps no checkpoint and recovers by
re-registering.  This script rebuilds that state, runs the first epoch
after it (no new events: it re-solves the committed membership, and a
restored runtime writes its automatic checkpoint), and prints one JSON
line with the timings (interpreter start and imports excluded) and the
epoch's shares, which the writer compares with its own next epoch.  ``--count`` turns
the metrics registry on to report how many components the restored
memo reused.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def recover_runtime(spec: dict, work: Path):
    from repro.resilience import AllocatorRuntime
    from repro.resilience.overload import OverloadRuntime

    path = work / "checkpoint.json"
    shutil.copyfile(spec["checkpoint"], path)
    t0 = time.perf_counter()
    runtime = AllocatorRuntime.restore(str(path))
    t1 = time.perf_counter()
    if spec["workload"] == "overload-ladder":
        record = OverloadRuntime(runtime).advance([])
    else:
        record = runtime.advance([])
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, dict(record.shares)


def recover_batch(spec: dict):
    from repro.perf.shard import BatchAllocationEngine
    from workloads import WORKLOADS

    t0 = time.perf_counter()
    engine = BatchAllocationEngine(WORKLOADS[spec["workload"]].universe(),
                                   jobs=1)
    engine.register(spec["active"])
    t1 = time.perf_counter()
    rates = engine.allocate()
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, rates


def main(argv) -> int:
    from repro import obs

    spec_path = Path(argv[0])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    registry = obs.MetricsRegistry() if "--count" in argv else None
    obs.set_registry(registry)
    if spec["workload"] == "batch-islands":
        restore_s, epoch_s, shares = recover_batch(spec)
    else:
        restore_s, epoch_s, shares = recover_runtime(spec, spec_path.parent)
    reused = None
    if registry is not None:
        counter = registry.counters.get("runtime.shard.reused")
        reused = counter.value if counter is not None else 0.0
    print(json.dumps({
        "restore_ms": restore_s * 1e3,
        "epoch_ms": epoch_s * 1e3,
        "reused": reused,
        "shares": shares,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
