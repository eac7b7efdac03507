"""Steadiness self-check: two traced runs of one seed must agree exactly.

Usage (from the repository root)::

    python3 allocbench/selfcheck.py --seed 1 [--workload NAME ...]

For each workload it runs ``run.py --trace 1`` twice on the same seed and
compares the ``deterministic`` section of the two ``layers.json`` tables
(shard, admission, overload, LP pivot and checkpoint-size counts,
``admit_share`` and ``effective_throughput``).  It prints the memo reuse
after a restart under the writer's hash seed and under another one; the
two are reported, not asserted, because component fingerprints depend on
the hash seed.  Exits 1 on any mismatch or failed run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                          cwd=HERE.parent)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode or not result["correct"]:
        raise RuntimeError(f"{workload}: traced run failed:\n{proc.stdout}"
                           f"{proc.stderr}")
    table = HERE / "out" / workload / f"seed-{seed}" / "layers.json"
    return json.loads(table.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or list(WORKLOADS):
        first, second = (traced_run(workload, args.seed) for _ in range(2))
        a, b = first["deterministic"], second["deterministic"]
        diff = sorted(k for k in a if a[k] != b.get(k))
        ok &= not diff
        reuse = first["metrics"]
        print(f"{workload}: {'identical' if not diff else 'MISMATCH'} "
              f"({len(a)} counts)"
              + "".join(f"\n  {k}: {a[k]} != {b.get(k)}" for k in diff)
              + f"\n  reused after restore: same hash seed "
              f"{reuse['checkpoint.reused_same_hashseed']:g}, other hash "
              f"seed {reuse['checkpoint.reused_after_restore']:g} "
              f"(bitwise diffs "
              f"{reuse['checkpoint.bitwise_diffs_after_restore']:g})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
