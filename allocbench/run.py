"""Allocator epoch benchmark: one command, three seeded workloads.

Usage (from the repository root)::

    python3 allocbench/run.py --workload batch-islands --seed 1 \\
        --seconds 32 --trace 0

Workloads (``workloads.py``): ``batch-islands``, ``runtime-geometric``,
``overload-ladder``.  A run makes one checked pass over the workload's
seeded episode (set-up, cold epoch, 100 or 200 steady epochs), replays
the fresh-interpreter recovery of its final state three times, times
more set-ups and set-up + cold-epoch pairs, then replays the episode at
least once and while ``--seconds`` allow.  Each epoch's latency is the
fastest of its passes.  The first pass checks each epoch's committed
output after its timed window; every replay must commit the same
allocations.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` (epochs) and ``metrics``.

``--trace 0`` reports the end-to-end metrics with all instrumentation
off.  ``--trace 1`` runs one untraced and one traced episode on the same
seed and reports the per-layer metrics; it also writes
``allocbench/out/<workload>/seed-<n>/`` with the span dump
(``spans.jsonl``), the registry snapshot (``registry.json``) and the
per-layer table (``layers.json``).

Run discipline: the script re-executes itself once with
``PYTHONHASHSEED=0`` and one BLAS/OpenMP thread, so every run of a seed
hashes and schedules alike.  Recovery runs under ``PYTHONHASHSEED=1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WRITER_HASHSEED = "0"
RECOVERY_HASHSEED = "1"
PINNED_ENV = {
    "PYTHONHASHSEED": WRITER_HASHSEED,
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Extra set-up + cold-epoch pairs timed per run for ``cold_epoch_ms``
#: (the fastest): at least the first count, more while the pairs have
#: taken less than the second (seconds), at most the third.
COLD_REPEATS = (3, 2.0, 30)

#: Extra set-ups timed per run, the same way, for the ``setup_s`` median:
#: the runtimes set up in milliseconds, so one run times many.
SETUP_REPEATS = (10, 1.0, 200)

#: Passes over the episode per run, at least; more while ``--seconds``
#: allow.
MIN_PASSES = 2

#: Fresh-interpreter replays of the one recovery spec per run;
#: ``recovery_ms`` is the fastest.
RECOVERY_REPEATS = 3

#: Steady epochs between direct-call probes in the traced episode.
PROBE_EVERY = 10

#: Spans kept by the traced episode's tracer (ids stay deterministic).
MAX_SPANS = 1_000_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_epoch_ms": "ms",
    "epoch_p50_ms": "ms",
    "epoch_p90_ms": "ms",
    "arrivals_per_s": "1/s",
    "recovery_ms": "ms",
    "peak_rss_mb": "MB",
    "admit_share": "ratio",
    "effective_throughput": "B",
}


def pin_environment() -> None:
    """Re-exec under the pinned environment unless already in it."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env = {**os.environ, **PINNED_ENV}
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in PINNED_ENV},
    }


class observability_off:
    """Suspend the active registry and tracer (for the output checks)."""

    def __enter__(self):
        from repro import obs

        self.saved = (obs.get_registry(), obs.get_tracer())
        obs.set_registry(None)
        obs.set_tracer(None)

    def __exit__(self, *exc):
        from repro import obs

        obs.set_registry(self.saved[0])
        obs.set_tracer(self.saved[1])
        return False


class Episode:
    """One set-up plus one pass over the plan's epochs."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.latencies_ms = []
        self.offered = 0
        self.admitted = 0
        self.throughput = []
        self.outputs = []
        self.attempted = 0
        self.failures = []
        self.world = None
        self.steady_snapshot = None
        self.probes_ms = {}
        self.duration_s = 0.0

    @property
    def steady_ms(self):
        return self.latencies_ms[1:]


def output_of(rates):
    """An epoch's allocation in a compact form a replay is compared with."""
    import numpy as np

    keys = tuple(sorted(rates))
    return hash(keys), np.fromiter((rates[k] for k in keys), float, len(keys))


def replay_problems(expected, rates):
    from workloads import ORACLE_TOL

    keys_hash, values = output_of(rates)
    if keys_hash != expected[0]:
        return ["replay allocated other flows than the first pass"]
    worst = float(abs(values - expected[1]).max(initial=0.0))
    if worst > ORACLE_TOL:
        return [f"replay differs from the first pass by {worst:.3g}"]
    return []


def run_episode(wl, plan, registry=None, probe=None, reference=None
                ) -> Episode:
    """Set up, then step every epoch of ``plan`` in a closed loop.

    The first pass over a plan runs the workload's checks on every epoch.
    A replay (``reference`` is the first pass) repeats the same
    deterministic work and must commit the first pass's allocation in
    every epoch.  With a ``registry``, its snapshot is taken after the
    cold epoch so the layer table covers steady epochs only.
    ``probe(world)`` runs every ``PROBE_EVERY`` steady epochs, outside the
    timed window, and returns direct-call timings in ms.
    """
    from repro.obs import span

    ep = Episode()
    pending = set()  # arrivals not admitted yet
    gc.collect()
    start = time.perf_counter()
    world = wl.setup(plan)
    ep.setup_s = time.perf_counter() - start
    ep.world = world
    for epoch in range(plan.epochs):
        ep.attempted += 1
        try:
            with span("bench.step", epoch=epoch):
                t0 = time.perf_counter()
                out = wl.step(world, plan, epoch)
                ep.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        except Exception as exc:  # a raised epoch is a failed epoch
            ep.failures.append(f"epoch {epoch}: raised "
                               f"{type(exc).__name__}: {exc}")
            break  # the world's state is undefined after a raise
        with observability_off():
            admitted_flows, rates = wl.outcome(world, out)
            if reference is not None:
                problems = replay_problems(reference.outputs[epoch], rates)
            else:
                problems = wl.check(world, plan, epoch, out)
                ep.outputs.append(output_of(rates))
            if epoch and probe is not None and epoch % PROBE_EVERY == 0:
                for name, ms in probe(world).items():
                    ep.probes_ms.setdefault(name, []).append(ms)
        if problems:
            ep.failures.append(f"epoch {epoch}: " + "; ".join(problems))
        if epoch == 0 and registry is not None:
            ep.steady_snapshot = registry.mergeable_snapshot()
        if epoch:
            # An arrival counts as admitted once, whenever it is; a flow
            # that lost its path and comes back is not a new arrival.
            arrivals = wl.arrivals(plan, epoch)
            ep.offered += len(arrivals)
            pending.update(arrivals)
            for fid in admitted_flows:
                if fid in pending:
                    pending.discard(fid)
                    ep.admitted += 1
        ep.throughput.append(sum(rates.values()))
    ep.duration_s = time.perf_counter() - start
    return ep


def recover(wl, world, workdir: Path, hashseeds,
            count: bool = False):
    """Write one recovery spec and replay it in a fresh interpreter per
    hash seed; every replay must reproduce the original's next epoch.

    Under the writer's hash seed the replay must be bitwise equal.  Under
    another one, component LPs are assembled in another set order and
    may differ in the last bits, so the replay must agree within
    ``ORACLE_TOL`` and the count of bitwise differences is reported.

    Returns ``(spec, [child result per hash seed], problems)``.
    """
    from workloads import ORACLE_TOL

    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    results, problems = [], []
    try:
        spec, reference = wl.recovery_writer(world, workdir)
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        cmd = [sys.executable, str(HERE / "recover.py"), str(spec_path)]
        if count:
            cmd.append("--count")
        for hashseed in hashseeds:
            proc = subprocess.run(
                cmd, env={**os.environ, "PYTHONHASHSEED": hashseed},
                capture_output=True, text=True, timeout=150, check=False)
            if proc.returncode != 0:
                problems.append(f"hash seed {hashseed}: exited "
                                f"{proc.returncode}: "
                                f"{proc.stderr.strip()[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares = result["shares"]
            result["bitwise_diffs"] = sum(
                1 for f in reference if shares.get(f) != reference[f])
            results.append(result)
            worst = max((abs(shares.get(f, math.inf) - reference[f])
                         for f in reference), default=0.0)
            if set(shares) != set(reference) or worst > ORACLE_TOL:
                problems.append(f"hash seed {hashseed}: recovered epoch "
                                f"differs from the original's by {worst:.3g}")
            elif result["bitwise_diffs"] and hashseed == WRITER_HASHSEED:
                problems.append(f"hash seed {hashseed}: recovered epoch "
                                f"is not bitwise equal to the original's")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return spec, results, problems


def batch_probe(engine):
    """Direct calls into the untimed batch hot spots, outside the epoch:
    the induced subgraph of the active set and the component fingerprints."""
    from repro.perf.shard import component_fingerprint, component_problems

    keep = {s.sid for f in engine.analysis.scenario.flows
            if f.flow_id in engine.active for s in f.subflows}
    t0 = time.perf_counter()
    engine.analysis.graph.subgraph(keep)
    t1 = time.perf_counter()
    problems = component_problems(engine.active_analysis())
    t2 = time.perf_counter()
    for p in problems:
        component_fingerprint(p.lp, p.weights, p.backend)
    t3 = time.perf_counter()
    return {"graphs.subgraph_ms": (t1 - t0) * 1e3,
            "shard.fingerprint_ms": (t3 - t2) * 1e3}


def repeats(rule):
    """Yield repeat counts by a ``(least, budget seconds, most)`` rule."""
    least, budget_s, most = rule
    start = time.perf_counter()
    for count in range(most):
        if count >= least and time.perf_counter() - start > budget_s:
            return
        yield count


def end_to_end(wl, plan, seconds: float, out_dir: Path):
    """The end-to-end metrics of one run.

    A checked first pass over the plan, the fresh-interpreter recovery of
    its final state, extra set-ups and set-up + cold-epoch pairs, then
    replays of the whole plan: at least one, more while ``seconds``
    (counted from the start of the first pass, recovery excluded) allow.
    Every epoch's latency is the fastest of its passes: the work of a
    pass is fixed by the seed, and other tenants of a shared host only
    ever add time.  The epoch percentiles are then taken over the plan's
    epochs.
    """
    from workloads import median, percentile

    start = time.perf_counter()
    first = run_episode(wl, plan)
    failures = list(first.failures)
    attempted = first.attempted
    recoveries = []
    if not failures:
        recovery_start = time.perf_counter()
        attempted += RECOVERY_REPEATS
        _, results, problems = recover(
            wl, first.world, out_dir / "recovery",
            (RECOVERY_HASHSEED,) * RECOVERY_REPEATS)
        failures += [f"recovery: {p}" for p in problems]
        recoveries = [r["restore_ms"] + r["epoch_ms"] for r in results]
        start += time.perf_counter() - recovery_start
    first.world = None

    setups = [first.setup_s]
    passes = [first.latencies_ms]
    colds = []
    if not failures:
        for _ in repeats(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            world = wl.setup(plan)
            setups.append(time.perf_counter() - t0)
            world = None
        for _ in repeats(COLD_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            world = wl.setup(plan)
            t1 = time.perf_counter()
            wl.step(world, plan, 0)
            setups.append(t1 - t0)
            colds.append((time.perf_counter() - t1) * 1e3)
            world = None
        last_s = first.duration_s
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - start + last_s <= seconds):
            replay = run_episode(wl, plan, reference=first)
            replay.world = None
            attempted += replay.attempted
            failures += [f"replay {len(passes)}: {f}"
                         for f in replay.failures]
            if replay.failures:
                break
            setups.append(replay.setup_s)
            passes.append(replay.latencies_ms)
            last_s = replay.duration_s
    epoch_ms = [min(p[e] for p in passes)
                for e in range(len(first.latencies_ms))]
    colds += [p[0] for p in passes if p]
    steady = epoch_ms[1:]
    if failures or not (steady and first.offered and recoveries):
        return (dict.fromkeys(END_TO_END_UNITS, 0.0),
                dict.fromkeys(END_TO_END_UNITS, 0), END_TO_END_UNITS,
                attempted, failures)
    print(f"passes: {len(passes)} over {len(steady)} steady epochs; "
          f"extra cold epochs: {len(colds) - len(passes)}")
    metrics = {
        "setup_s": median(setups),
        "cold_epoch_ms": min(colds),
        "epoch_p50_ms": percentile(steady, 50),
        "epoch_p90_ms": percentile(steady, 90),
        "arrivals_per_s": first.offered / (sum(steady) / 1e3),
        "recovery_ms": min(recoveries),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "admit_share": first.admitted / first.offered,
        "effective_throughput": (sum(first.throughput)
                                 / len(first.throughput)),
    }
    samples = {
        "setup_s": len(setups), "cold_epoch_ms": len(colds),
        "epoch_p50_ms": len(steady), "epoch_p90_ms": len(steady),
        "arrivals_per_s": len(steady), "recovery_ms": len(recoveries),
        "peak_rss_mb": 1, "admit_share": first.offered,
        "effective_throughput": len(first.throughput),
    }
    return metrics, samples, END_TO_END_UNITS, attempted, failures


def traced(wl, plan, seed: int, out_dir: Path):
    from repro import obs
    from layers import (
        DETERMINISTIC, PER_LAYER_UNITS, Delta, attribute, per_layer_metrics,
        render,
    )
    from workloads import median

    kind = "batch" if wl.name == "batch-islands" else "runtime"
    untraced = run_episode(wl, plan)
    tracer = obs.SpanTracer(max_spans=MAX_SPANS)
    with obs.using_registry() as reg, obs.using_tracer(tracer):
        ep = run_episode(wl, plan, registry=reg,
                         probe=batch_probe if kind == "batch" else None)
        after = reg.mergeable_snapshot()
    failures = untraced.failures + ep.failures
    attempted = untraced.attempted + ep.attempted
    if failures:
        return (dict.fromkeys(PER_LAYER_UNITS, 0.0),
                dict.fromkeys(PER_LAYER_UNITS, 0), PER_LAYER_UNITS,
                attempted, failures)
    records = tracer.to_records()
    epoch_of = {}
    for rec in sorted(records, key=lambda r: int(r["span"][1:])):
        epoch_of[rec["span"]] = (rec["tags"].get("epoch")
                                 if rec["name"] == "bench.step"
                                 else epoch_of.get(rec["parent"]))
        rec["epoch"] = epoch_of[rec["span"]]
    harness = {}
    for rec in records:
        if rec["name"].startswith("bench.") and rec["epoch"]:
            harness[rec["name"]] = (harness.get(rec["name"], 0.0)
                                    + rec["duration_s"] * 1e3)
    steady = len(ep.steady_ms)
    wall_ms = sum(ep.steady_ms)
    delta = Delta(ep.steady_snapshot, after)
    rows = attribute(kind, delta, harness, wall_ms)

    extra = {name: median(ms) for name, ms in ep.probes_ms.items()}
    extra.setdefault("graphs.subgraph_ms", 0.0)
    extra.setdefault("shard.fingerprint_ms", 0.0)
    extra["overload.max_queue_depth"] = float(
        getattr(ep.world, "max_queue_depth", 0))
    extra["trace.overhead"] = (median(ep.steady_ms)
                               / median(untraced.steady_ms))
    checkpoint = dict.fromkeys(
        ("checkpoint.bytes", "checkpoint.save_ms", "checkpoint.restore_ms",
         "checkpoint.reused_after_restore",
         "checkpoint.reused_same_hashseed",
         "checkpoint.bitwise_diffs_after_restore"), 0.0)
    attempted += 2
    spec, results, problems = recover(
        wl, ep.world, out_dir / "recovery",
        (WRITER_HASHSEED, RECOVERY_HASHSEED), count=True)
    failures += [f"recovery: {p}" for p in problems]
    if kind == "runtime" and len(results) == 2:
        same, other = results
        checkpoint.update({
            "checkpoint.bytes": float(spec["bytes"]),
            "checkpoint.save_ms": spec["save_ms"],
            "checkpoint.restore_ms": other["restore_ms"],
            "checkpoint.reused_after_restore": other["reused"],
            "checkpoint.reused_same_hashseed": same["reused"],
            "checkpoint.bitwise_diffs_after_restore": other["bitwise_diffs"],
        })
    extra.update(checkpoint)
    metrics = per_layer_metrics(kind, delta, rows, steady, extra)

    out_dir.mkdir(parents=True, exist_ok=True)
    obs.dump_jsonl(str(out_dir / "spans.jsonl"), records)
    (out_dir / "registry.json").write_text(
        json.dumps(after, indent=1, sort_keys=True), encoding="utf-8")
    deterministic = {name: metrics[name] for name in DETERMINISTIC}
    deterministic["admit_share"] = ep.admitted / ep.offered
    deterministic["effective_throughput"] = (sum(ep.throughput)
                                             / len(ep.throughput))
    table = {
        "workload": wl.name, "seed": seed, "steady_epochs": steady,
        "wall_ms_per_epoch": wall_ms / steady,
        "deterministic": deterministic,
        "rows": [{"layer": layer, "part": part, "ms_per_epoch": ms / steady,
                  "share": ms / wall_ms} for layer, part, ms in rows],
        "metrics": metrics,
    }
    (out_dir / "layers.json").write_text(
        json.dumps(table, indent=1, sort_keys=True), encoding="utf-8")
    print(render(rows, wall_ms, steady))
    samples = {name: steady for name in metrics}
    return metrics, samples, PER_LAYER_UNITS, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        parser.exit(2, f"no program to benchmark: {ROOT / 'src' / 'repro'} "
                       f"is missing\n")
    pin_environment()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    env = environment()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload: {wl.name} seed={args.seed} "
          f"params={json.dumps(wl.params, sort_keys=True)}")
    plan = wl.inputs(args.seed)
    out_dir = HERE / "out" / wl.name / f"seed-{args.seed}"
    if args.trace:
        metrics, samples, units, attempted, failed = traced(
            wl, plan, args.seed, out_dir)
    else:
        metrics, samples, units, attempted, failed = end_to_end(
            wl, plan, args.seconds, out_dir)
    for name, value in metrics.items():
        print(f"  {name:<34}{value:>14.6g} {units[name]:<6}"
              f" (n={samples[name]})")
    for failure in failed:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
