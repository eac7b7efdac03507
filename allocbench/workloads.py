"""The three seeded epoch workloads of the allocator benchmark.

Each workload has these parts:

* ``inputs(seed)`` draws everything the program is fed (arrival
  schedules, churn timelines) and returns it as per-epoch lists.  These
  generators live here, not in ``src/``, so a change to the program
  cannot change what the benchmark offers it.
* ``setup(plan)`` builds the universe and constructs the engine or
  runtime up to the point where it is ready for epoch 0.  This is the
  ``setup_s`` window.
* ``step(world, plan, epoch)`` is one caller step, timed from its start
  to the commit: release + register + allocate on the batch engine, or
  one ``advance`` on a runtime.
* ``arrivals(plan, epoch)`` lists the flows the epoch offers, and
  ``outcome(world, out)`` the flows it admitted (re-admissions of flows
  that lost their path included) and its committed rates.
* ``check(world, plan, epoch, out)`` runs after the timed window and
  returns the problems found in the epoch's committed output.
* ``recovery_writer(world, workdir)`` prepares the fresh-interpreter
  recovery: it returns the spec :mod:`recover` restarts from and the
  shares of the original's own next epoch, which the restart must
  reproduce.

Epoch 0 is the cold epoch; every later one is a steady epoch.  All three
workloads drive epochs in a closed loop (the next step starts when the
previous one has committed) while arrivals are open loop in epoch time.

The universe and the cold epoch's membership are fixed per workload;
the seed draws the steady epochs' arrivals and churn.  Cold-epoch and
set-up work is then the same for every seed, and the steady metrics
pool 100 or 200 epochs of seeded dynamics.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Pareto index of every duration draw (finite variance, heavy tail).
TAIL_SHAPE = 2.5

#: Stream key of the fixed draws (membership at epoch 0); the run seed
#: never reaches them.
FIXED = 0

#: Eq. (6) tolerance for committed rates: the runtime validates its own
#: epochs at this tolerance (float simplex results meet their rows to
#: about 1e-6, not 1e-9).
CAPACITY_TOL = 1e-6

#: Largest allowed distance between two allocations of the same
#: analysis that the program's contracts say are equal.
ORACLE_TOL = 1e-9


def pareto_duration(rng: np.random.Generator, mean: float) -> int:
    """Whole-epoch service time >= 1 whose mean is ``mean``.

    ``1 + scale * pareto(a)`` has mean ``1 + scale / (a - 1)``.
    """
    scale = (mean - 1.0) * (TAIL_SHAPE - 1.0)
    return 1 + int(scale * float(rng.pareto(TAIL_SHAPE)))


def rate_problems(analysis, rates: Dict[str, float]) -> List[str]:
    """Eq. (6) and Sec. II-D floor violations of ``rates``."""
    from repro.verify.invariants import (
        check_basic_fairness,
        check_clique_capacity,
    )

    problems = []
    for result in (
        check_clique_capacity(analysis, rates, tol=CAPACITY_TOL),
        check_basic_fairness(analysis, rates),
    ):
        if not result.ok:
            problems.append(f"{result.name}: {result.details}")
    return problems


def record_problems(record, analysis) -> List[str]:
    """Failed runtime self-checks plus the independent rate checks."""
    problems = [f"{name}: {details}"
                for name, details in record.failed_checks()]
    return problems + rate_problems(analysis, record.shares)


def admitted_in(record) -> List[str]:
    return [d["flow"] for d in record.admissions if d["action"] == "admit"]


def runtime_recovery(runtime, workdir: Path, name: str):
    """Checkpoint ``runtime``, then advance the original past it.

    The epoch after the checkpoint carries no events: it re-solves the
    committed membership, the first thing a restarted allocator does, so
    a restored component memo can serve it.  Returns the recovery spec
    and the original's next-epoch shares.
    """
    import time

    path = workdir / "checkpoint.json"
    t0 = time.perf_counter()
    runtime.save(str(path))
    save_ms = (time.perf_counter() - t0) * 1e3
    pristine = workdir / "checkpoint.pristine.json"
    shutil.copyfile(path, pristine)
    spec = {
        "workload": name,
        "checkpoint": str(pristine),
        "save_ms": save_ms,
        "bytes": path.stat().st_size,
    }
    path.unlink()
    reference = runtime.advance([])
    return spec, dict(reference.shares)


# ----------------------------------------------------------------------
# batch-islands
# ----------------------------------------------------------------------
def star_island_universe(islands: int, leaves: int):
    """``islands`` hub-and-spoke cells of one-hop flows, one clique each.

    The contention graph and cliques are handed to ``ContentionAnalysis``
    precomputed, so the build is linear in the flow count.  Each island's
    basic floors sum exactly to capacity, so every membership of the
    universe is admissible.
    """
    from repro.core.contention import (
        ContentionAnalysis,
        contention_graph_from_pairs,
    )
    from repro.core.model import (
        Flow, Network, Scenario, Subflow, SubflowId,
    )

    nodes, links, flows, subflows, pairs, cliques = [], [], [], [], [], []
    for i in range(islands):
        hub = f"h{i}"
        nodes.append(hub)
        island = []
        for j in range(leaves):
            leaf = f"n{i}_{j}"
            nodes.append(leaf)
            links.append((hub, leaf))
            fid = f"f{i}_{j}"
            flows.append(Flow(fid, (hub, leaf), 1.0))
            sid = SubflowId(fid, 1)
            subflows.append(Subflow(sid, hub, leaf, 1.0))
            island.append(sid)
        for a in range(leaves):
            for b in range(a + 1, leaves):
                pairs.append((island[a], island[b]))
        cliques.append(frozenset(island))
    scenario = Scenario(
        Network.from_links(nodes, links), flows,
        name=f"star-islands-{islands}",
    )
    graph = contention_graph_from_pairs(subflows, pairs)
    return ContentionAnalysis(scenario, graph=graph, cliques=cliques)


@dataclass
class BatchPlan:
    """Per-epoch release and register batches for the batch engine."""

    releases: List[List[str]]
    arrivals: List[List[str]]

    @property
    def epochs(self) -> int:
        return len(self.arrivals)


class BatchIslands:
    """``BatchAllocationEngine`` over a star-island universe.

    About 60% of the flows register at epoch 0 and stay; Poisson arrivals
    of finite flows with Pareto service times follow.  Arrivals are drawn
    among the flows the plan knows to be idle, which is exact because the
    universe is admissible: the engine admits every arrival.  A steady
    epoch dirties a few dozen of the 500 islands, so time goes to
    re-deriving the whole universe rather than to the LP.
    """

    name = "batch-islands"
    params = {
        "islands": 500, "leaves": 8, "initial_share": 0.6,
        "arrival_rate": 12.0, "duration_mean": 4.0, "steady_epochs": 100,
        "check_every": 10,
    }

    def inputs(self, seed: int) -> BatchPlan:
        p = self.params
        ids = [f"f{i}_{j}" for i in range(p["islands"])
               for j in range(p["leaves"])]
        fixed = np.random.default_rng([FIXED, 1])
        initial = [fid for fid, u in zip(ids, fixed.random(len(ids)))
                   if u < p["initial_share"]]
        rng = np.random.default_rng([seed, 1])
        busy = set(initial)
        until: Dict[str, int] = {}
        releases: List[List[str]] = [[]]
        arrivals: List[List[str]] = [initial]
        for epoch in range(1, p["steady_epochs"] + 1):
            done = sorted(f for f, u in until.items() if u <= epoch)
            for fid in done:
                del until[fid]
                busy.discard(fid)
            batch = []
            for _ in range(int(rng.poisson(p["arrival_rate"]))):
                fid = ids[int(rng.integers(0, len(ids)))]
                while fid in busy:
                    fid = ids[int(rng.integers(0, len(ids)))]
                busy.add(fid)
                until[fid] = epoch + pareto_duration(rng, p["duration_mean"])
                batch.append(fid)
            releases.append(done)
            arrivals.append(batch)
        return BatchPlan(releases, arrivals)

    def universe(self):
        return star_island_universe(self.params["islands"],
                                    self.params["leaves"])

    def setup(self, plan: BatchPlan):
        from repro.perf.shard import BatchAllocationEngine

        return BatchAllocationEngine(self.universe(), jobs=1)

    def step(self, engine, plan: BatchPlan, epoch: int):
        from repro.obs import span

        with span("bench.release"):
            engine.release(plan.releases[epoch])
        with span("bench.register"):
            decisions = engine.register(plan.arrivals[epoch])
        with span("bench.allocate"):
            rates = engine.allocate()
        return decisions, rates

    def arrivals(self, plan: BatchPlan, epoch: int) -> List[str]:
        return plan.arrivals[epoch]

    def outcome(self, engine, out) -> Tuple[List[str], Dict[str, float]]:
        decisions, rates = out
        return [d.flow_id for d in decisions if d.action == "admit"], rates

    def check(self, engine, plan: BatchPlan, epoch: int, out) -> List[str]:
        decisions, rates = out
        problems = [f"flow {d.flow_id} not admitted ({d.reason})"
                    for d in decisions if d.action != "admit"]
        if set(rates) != engine.active:
            problems.append("allocated flows differ from the active set")
        last = epoch == plan.epochs - 1
        if last or epoch % self.params["check_every"] == 0:
            analysis = engine.active_analysis()
            problems += rate_problems(analysis, rates)
            if last:
                problems += monolithic_problems(analysis, rates)
        return problems

    def recovery_writer(self, engine, workdir: Path):
        """The engine keeps no checkpoint: it recovers by rebuilding the
        universe and re-registering the final active set."""
        spec = {"workload": self.name, "active": sorted(engine.active)}
        return spec, dict(engine.rates)


def monolithic_problems(analysis, rates: Dict[str, float]) -> List[str]:
    """Disagreement with the monolithic Prop. 2 allocation."""
    from repro.core.allocation import basic_fairness_lp_allocation

    mono = basic_fairness_lp_allocation(analysis).shares
    if set(mono) != set(rates):
        return ["sharded and monolithic allocate different flows"]
    worst = max((abs(mono[f] - rates[f]) for f in mono), default=0.0)
    if worst > ORACLE_TOL:
        return [f"sharded differs from monolithic by {worst:.3g}"]
    return []


# ----------------------------------------------------------------------
# runtime-geometric
# ----------------------------------------------------------------------
@dataclass
class EventPlan:
    """Per-epoch churn events for a runtime's ``advance``."""

    events: List[list]

    @property
    def epochs(self) -> int:
        return len(self.events)


class RuntimeGeometric:
    """``AllocatorRuntime`` on one random geometric network under churn.

    One giant contention component is re-solved every epoch, so the LP
    dominates; node and link churn forces DSR reroutes and new topology
    states.  The run ends with a checkpoint and a restart.  The network
    and the epoch-0 membership are fixed (``network_seed``, ``FIXED``);
    the seed draws which flows, nodes and links churn, not how many: in
    every steady epoch ``flow_swaps`` requested flows leave and as many
    idle ones arrive, and in every ``topology_every``-th one the node
    down longest comes back up while another goes down, and likewise
    for links.  LP cost grows faster than linearly with membership and a
    topology change costs a large part of an epoch, so drawing how many
    of each an epoch gets would make the epoch tail a property of the
    seed.
    """

    name = "runtime-geometric"
    params = {"nodes": 120, "flows": 56, "network_seed": 0,
              "initial_share": 0.6, "steady_epochs": 100, "flow_swaps": 4,
              "down_nodes": 2, "down_links": 1, "topology_every": 2,
              "hysteresis": 0.3}

    def scenario(self):
        from repro.scenarios.random_topology import make_random_scenario

        p = self.params
        return make_random_scenario(num_nodes=p["nodes"],
                                    num_flows=p["flows"],
                                    seed=p["network_seed"])

    def inputs(self, seed: int) -> EventPlan:
        from repro.resilience.epochs import ChurnEvent

        p = self.params
        scenario = self.scenario()
        flows = sorted(scenario.flow_ids)
        nodes = sorted(scenario.network.nodes)
        links = sorted(scenario.network.links())
        fixed = np.random.default_rng([FIXED, 2])
        requested = [fid for fid, u in zip(flows, fixed.random(len(flows)))
                     if u < p["initial_share"]]
        events: List[list] = [[ChurnEvent(0, "flow-up", flow=fid)
                               for fid in requested]]
        rng = np.random.default_rng([seed, 2])
        down_nodes: List[str] = []
        down_links: List[Tuple[str, str]] = []

        def pick(pool):
            return pool[int(rng.integers(0, len(pool)))]

        for epoch in range(1, p["steady_epochs"] + 1):
            batch = []
            idle = [fid for fid in flows if fid not in requested]
            leaving = [requested.pop(int(rng.integers(0, len(requested))))
                       for _ in range(p["flow_swaps"])]
            for _ in range(p["flow_swaps"]):
                fid = idle.pop(int(rng.integers(0, len(idle))))
                requested.append(fid)
                batch.append(ChurnEvent(epoch, "flow-up", flow=fid))
            batch += [ChurnEvent(epoch, "flow-down", flow=fid)
                      for fid in leaving]
            events.append(batch)
            if epoch % p["topology_every"]:
                continue
            if len(down_nodes) == p["down_nodes"]:
                batch.append(ChurnEvent(epoch, "node-up",
                                        node=down_nodes.pop(0)))
            down_nodes.append(pick([n for n in nodes if n not in down_nodes]))
            batch.append(ChurnEvent(epoch, "node-down", node=down_nodes[-1]))
            if len(down_links) == p["down_links"]:
                batch.append(ChurnEvent(epoch, "link-up",
                                        link=down_links.pop(0)))
            down_links.append(pick([l for l in links if l not in down_links]))
            batch.append(ChurnEvent(epoch, "link-down", link=down_links[-1]))
        return EventPlan(events)

    def setup(self, plan: EventPlan):
        from repro.resilience import AllocatorRuntime, RuntimeConfig

        return AllocatorRuntime(
            self.scenario(),
            RuntimeConfig(hysteresis=self.params["hysteresis"], jobs=1),
        )

    def step(self, runtime, plan: EventPlan, epoch: int):
        return runtime.advance(plan.events[epoch])

    def arrivals(self, plan: EventPlan, epoch: int) -> List[str]:
        return [ev.flow for ev in plan.events[epoch] if ev.kind == "flow-up"]

    def outcome(self, runtime, record) -> Tuple[List[str], Dict[str, float]]:
        return admitted_in(record), record.shares

    def check(self, runtime, plan, epoch: int, record) -> List[str]:
        return record_problems(record, runtime.current_analysis())

    def recovery_writer(self, runtime, workdir: Path):
        return runtime_recovery(runtime, workdir, self.name)


# ----------------------------------------------------------------------
# overload-ladder
# ----------------------------------------------------------------------
def ladder_islands(k: int, chain: int, span_hops: int, flows_per: int):
    """``k`` disjoint chains, each a multi-clique contention component.

    Each island is a ``chain``-node line carrying ``flows_per`` flows of
    ``span_hops`` hops staggered along it, weights cycling 1/2/3.
    """
    from repro.core.model import Flow, Network, Scenario

    nodes, links, flows = [], [], []
    for i in range(k):
        cn = [f"c{i}_{j}" for j in range(chain)]
        nodes += cn
        links += [(cn[j], cn[j + 1]) for j in range(chain - 1)]
        for j in range(flows_per):
            start = j % (chain - span_hops)
            flows.append(Flow(
                f"f{i}_{j}", tuple(cn[start:start + span_hops + 1]),
                1.0 + (j % 3),
            ))
    return Scenario(Network.from_links(nodes, links), flows,
                    name=f"ladder-islands-{k}")


@dataclass
class OverloadPlan:
    """One-epoch windows of an open-loop trace and the breach schedule."""

    traces: List[object]
    breach_epochs: Tuple[int, ...]

    @property
    def epochs(self) -> int:
        return len(self.traces)


class OverloadLadder:
    """``OverloadRuntime`` over ladder islands, offered far above capacity.

    Breaches are forced on a fixed schedule (three in a row every
    ``cycle`` epochs), so the queue-shed -> freeze -> clamp -> recover
    path repeats identically in every run, independent of wall time.
    Admission probes, not the solve, carry the contention and LP work.
    """

    name = "overload-ladder"
    params = {"islands": 8, "chain": 30, "span": 4, "flows_per": 32,
              "arrival_rate": 30.0, "duration_mean": 6.0,
              "max_queue": 64, "max_queue_age": 8,
              "steady_epochs": 200, "cycle": 20, "breach_at": 10,
              "breach_run": 3}

    def inputs(self, seed: int) -> OverloadPlan:
        from repro.traffic.openloop import ArrivalTrace, FlowArrival

        p = self.params
        ids = sorted(
            f"f{i}_{j}" for i in range(p["islands"])
            for j in range(p["flows_per"])
        )
        epochs = p["steady_epochs"] + 1
        fixed = np.random.default_rng([FIXED, 3])
        rng = np.random.default_rng([seed, 3])
        traces = []
        for epoch in range(epochs):
            draw = fixed if epoch == 0 else rng
            arrivals = tuple(
                FlowArrival(
                    epoch, ids[int(draw.integers(0, len(ids)))],
                    duration=pareto_duration(draw, p["duration_mean"]),
                )
                for _ in range(int(draw.poisson(p["arrival_rate"])))
            )
            # A one-epoch window of the open-loop trace: run_trace resumes
            # at the runtime's next epoch, so each call runs exactly one.
            traces.append(ArrivalTrace(epochs=epoch + 1, arrivals=arrivals))
        breaches = tuple(
            e for e in range(1, epochs)
            if p["breach_at"] <= e % p["cycle"]
            < p["breach_at"] + p["breach_run"]
        )
        return OverloadPlan(traces, breaches)

    def setup(self, plan: OverloadPlan):
        from repro.resilience import AllocatorRuntime, RuntimeConfig
        from repro.resilience.overload import OverloadConfig, OverloadRuntime

        p = self.params
        runtime = AllocatorRuntime(
            ladder_islands(p["islands"], p["chain"], p["span"],
                           p["flows_per"]),
            RuntimeConfig(max_queue=p["max_queue"],
                          max_queue_age=p["max_queue_age"], jobs=1),
        )
        overload = OverloadRuntime(runtime, OverloadConfig())
        overload.force_breach_epochs = set(plan.breach_epochs)
        return overload

    def step(self, overload, plan: OverloadPlan, epoch: int):
        (record,) = overload.run_trace(plan.traces[epoch])
        return record

    def arrivals(self, plan: OverloadPlan, epoch: int) -> List[str]:
        return [a.flow for a in plan.traces[epoch].arrivals]

    def outcome(self, overload, record) -> Tuple[List[str], Dict[str, float]]:
        return admitted_in(record), record.shares

    def check(self, overload, plan, epoch: int, record) -> List[str]:
        problems = record_problems(record,
                                   overload.runtime.current_analysis())
        breached = record.status == "deadline-breach"
        if breached != (epoch in plan.breach_epochs):
            problems.append(f"breach {breached} off the forced schedule")
        return problems

    def recovery_writer(self, overload, workdir: Path):
        return runtime_recovery(overload.runtime, workdir, self.name)


WORKLOADS = {wl.name: wl for wl in (BatchIslands(), RuntimeGeometric(),
                                    OverloadLadder())}


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values: Sequence[float], p: float) -> float:
    """Type-7 percentile (the registry's and NumPy's default rule)."""
    ordered = sorted(values)
    h = (len(ordered) - 1) * p / 100.0
    lo = math.floor(h)
    if lo + 1 >= len(ordered):
        return ordered[-1]
    return ordered[lo] + (h - lo) * (ordered[lo + 1] - ordered[lo])
