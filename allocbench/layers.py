"""Per-layer attribution of steady epoch time from one traced episode.

Inputs are two ``MetricsRegistry.mergeable_snapshot()`` dicts taken
after the cold epoch and after the last epoch, plus the harness's own
span totals.  Rows are built from the program's existing timers so that
they do not overlap: a row that contains another row's timer subtracts
it.  ``epoch.unattributed_ms`` is the steady epoch wall time no row
accounts for, so the rows plus it sum to the wall time by construction.
The harness's step spans wrap whole public calls, so time the program
spends outside any of its timers lands there instead of being dropped.

Layer names follow the modules the time is spent in.  Milliseconds are
per steady epoch; counts are totals over the steady epochs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Every per-layer metric, in BENCHMARK.json order, with its unit.
PER_LAYER_UNITS = {
    "shard.components": "count",
    "shard.dirty": "count",
    "shard.reused": "count",
    "shard.dirty_share": "ratio",
    "shard.split_ms": "ms",
    "shard.solve_self_ms": "ms",
    "shard.fingerprint_ms": "ms",
    "contention.analysis_ms": "ms",
    "contention.flow_grouping_ms": "ms",
    "graphs.subgraph_ms": "ms",
    "cliques.enumerate_ms": "ms",
    "cliques.cache_hit_share": "ratio",
    "lp.solves": "count",
    "lp.pivots": "count",
    "lp.solve_ms": "ms",
    "lp.warm_hit_share": "ratio",
    "admission.decisions": "count",
    "admission.admitted": "count",
    "admission.queued": "count",
    "admission.rejected": "count",
    "admission.evicted": "count",
    "admission.useful_share": "ratio",
    "admission.phase_ms": "ms",
    "batch.greedy_fallbacks": "count",
    "phase.apply_ms": "ms",
    "phase.diff_ms": "ms",
    "phase.suspend_ms": "ms",
    "phase.solve_ms": "ms",
    "phase.dampen_ms": "ms",
    "phase.validate_ms": "ms",
    "phase.commit_ms": "ms",
    "topology.builds": "count",
    "topology.build_ms": "ms",
    "overload.breaches": "count",
    "overload.clamps": "count",
    "overload.frozen_arrivals": "count",
    "overload.max_queue_depth": "count",
    "checkpoint.bytes": "bytes",
    "checkpoint.save_ms": "ms",
    "checkpoint.restore_ms": "ms",
    "checkpoint.reused_after_restore": "count",
    "checkpoint.reused_same_hashseed": "count",
    "checkpoint.bitwise_diffs_after_restore": "count",
    "epoch.unattributed_ms": "ms",
    "trace.overhead": "ratio",
}

#: Per-layer counts that must repeat exactly on the same seed.
DETERMINISTIC = (
    "shard.components", "shard.dirty", "shard.reused", "lp.solves",
    "lp.pivots", "admission.decisions", "admission.admitted",
    "admission.queued", "admission.rejected", "admission.evicted",
    "batch.greedy_fallbacks", "topology.builds", "overload.breaches",
    "overload.clamps", "overload.frozen_arrivals",
    "overload.max_queue_depth", "checkpoint.bytes",
)

_PHASES = ("apply", "diff", "suspend", "admit", "solve", "dampen",
           "validate", "commit")


class Delta:
    """Steady-window differences between two mergeable snapshots."""

    def __init__(self, before: dict, after: dict) -> None:
        self.before = before
        self.after = after

    def count(self, *names: str) -> float:
        total = 0.0
        for name in names:
            total += (self.after["counters"].get(name, 0.0)
                      - self.before["counters"].get(name, 0.0))
        return total

    def ms(self, *names: str) -> float:
        total = 0.0
        for name in names:
            after = self.after["timers"].get(name, {}).get("wall_s", 0.0)
            before = self.before["timers"].get(name, {}).get("wall_s", 0.0)
            total += (after - before) * 1e3
        return total

    def observed(self, name: str) -> float:
        after = self.after["histograms"].get(name, [])
        before = self.before["histograms"].get(name, [])
        return sum(after[len(before):])


def share(num: float, den: float) -> float:
    return num / den if den else 0.0


def attribute(kind: str, d: Delta, harness_ms: Dict[str, float],
              wall_ms: float) -> List[Tuple[str, str, float]]:
    """Disjoint ``(layer, part, total_ms)`` rows plus the unattributed row.

    ``kind`` is ``batch`` (release + register + allocate steps) or
    ``runtime`` (one ``advance`` per step, possibly through the overload
    wrapper).
    """
    split = d.ms("perf.shard.split")
    lp = d.observed("runtime.shard.parallel_ms")
    if kind == "batch":
        shard = d.ms("runtime.shard.solve")
        rows = [
            ("perf.shard", "release", harness_ms.get("bench.release", 0.0)),
            ("resilience.admission", "register", d.ms("batch.register")),
            ("core.contention", "active_analysis",
             d.ms("batch.allocate") - shard),
        ]
    else:
        shard = d.ms("runtime.alloc.solve")
        phases = {p: d.ms(f"runtime.phase.{p}") for p in _PHASES}
        clamp = d.ms("runtime.alloc.clamp")
        topo = d.ms("runtime.topology.build")
        rows = [
            ("resilience.runtime", "epoch_self",
             d.ms("runtime.epoch") - sum(phases.values())),
            ("resilience.runtime", "apply", phases["apply"]),
            ("resilience.runtime", "diff", phases["diff"] - topo),
            ("resilience.runtime", "topology_build", topo),
            ("resilience.runtime", "suspend", phases["suspend"]),
            ("resilience.admission", "admit", phases["admit"]),
            ("core.contention", "solve_analysis",
             phases["solve"] - shard - clamp),
            ("resilience.degrade", "overload_clamp", clamp),
            ("resilience.runtime", "dampen", phases["dampen"]),
            ("resilience.runtime", "validate", phases["validate"]),
            ("resilience.runtime", "commit", phases["commit"]),
        ]
    rows += [
        ("perf.shard", "split", split),
        ("lp", "dirty_solve", lp),
        ("perf.shard", "solve_self", shard - split - lp),
    ]
    rows.append(("unattributed", "",
                 wall_ms - sum(ms for _, _, ms in rows)))
    return rows


def per_layer_metrics(kind: str, d: Delta, rows, epochs: int,
                      extra: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metric values; ``extra`` supplies the ones measured
    outside the registry (checkpoint, direct-call probes, overhead)."""
    per = 1.0 / epochs
    row = {(layer, part): ms for layer, part, ms in rows}
    components = d.count("runtime.shard.components")
    dirty = d.count("runtime.shard.dirty")
    hits = d.count("batch.component_hits", "perf.incremental.component_hits")
    misses = d.count("batch.component_misses",
                     "perf.incremental.component_misses")
    warm_hits = d.count("perf.lp.warm.hits")
    admitted = d.count("admission.admit")
    decisions = admitted + d.count("admission.queue", "admission.reject")
    if kind == "batch":
        analysis_ms = row[("core.contention", "active_analysis")]
        admit_ms = d.ms("batch.register")
    else:
        analysis_ms = d.ms("perf.incremental.analysis")
        admit_ms = d.ms("runtime.phase.admit")
    values = {
        "shard.components": components,
        "shard.dirty": dirty,
        "shard.reused": d.count("runtime.shard.reused"),
        "shard.dirty_share": share(dirty, components),
        "shard.split_ms": row[("perf.shard", "split")] * per,
        "shard.solve_self_ms": row[("perf.shard", "solve_self")] * per,
        "contention.analysis_ms": analysis_ms * per,
        "contention.flow_grouping_ms": d.ms("contention.flow_grouping") * per,
        "cliques.enumerate_ms": d.ms(
            "perf.cliques.bitset", "contention.clique_enumeration") * per,
        "cliques.cache_hit_share": share(hits, hits + misses),
        "lp.solves": d.count("lp.simplex.solves", "lp.revised.solves"),
        "lp.pivots": d.count("lp.simplex.pivots", "lp.revised.pivots"),
        "lp.solve_ms": row[("lp", "dirty_solve")] * per,
        "lp.warm_hit_share": share(
            warm_hits, warm_hits + d.count("perf.lp.warm.misses")),
        "admission.decisions": decisions,
        "admission.admitted": admitted,
        "admission.queued": d.count("admission.queue"),
        "admission.rejected": d.count("admission.reject"),
        "admission.evicted": d.count("admission.evicted"),
        "admission.useful_share": share(admitted, decisions),
        "admission.phase_ms": admit_ms * per,
        "batch.greedy_fallbacks": d.count("batch.register.greedy_fallbacks"),
        "topology.builds": d.count("runtime.topology.builds"),
        "topology.build_ms": d.ms("runtime.topology.build") * per,
        "overload.breaches": d.count("runtime.epoch.deadline_breach"),
        "overload.clamps": d.count("runtime.epoch.overload_clamps"),
        "overload.frozen_arrivals": d.count("runtime.epoch.frozen_arrivals"),
        "epoch.unattributed_ms": row[("unattributed", "")] * per,
    }
    for p in _PHASES:
        if p != "admit":
            values[f"phase.{p}_ms"] = d.ms(f"runtime.phase.{p}") * per
    values.update(extra)
    missing = set(PER_LAYER_UNITS) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: values[name] for name in PER_LAYER_UNITS}


def render(rows, wall_ms: float, epochs: int) -> str:
    """Plain-text table: layer, part, ms per steady epoch, share of wall."""
    lines = [f"{'layer':<22}{'part':<18}{'ms/epoch':>10}{'share':>8}"]
    for layer, part, ms in rows:
        lines.append(f"{layer:<22}{part:<18}{ms / epochs:>10.3f}"
                     f"{share(ms, wall_ms):>8.1%}")
    lines.append(f"{'epoch wall':<40}{wall_ms / epochs:>10.3f}{1:>8.1%}")
    return "\n".join(lines)
