"""Tests for the component-sharded allocation engine (``perf/shard.py``).

The contract under test is *bitwise* identity: the Prop. 2 LP
factorizes exactly over connected components of the contention graph,
so the sharded solve — per-component LPs, per-component memo, parallel
fan-out — must reproduce the monolithic
:func:`~repro.core.allocation.basic_fairness_lp_allocation` result to
the last bit, on every library scenario, at any job count, from a cold
or a warm (restored) cache.  Alongside the differentials: dirty
tracking (churn touching one island re-solves only that island), memo
dump/load round-trips, the batch admission API, and the runtime seam.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.allocation import (
    basic_fairness_lp_allocation,
    build_basic_fairness_lp,
)
from repro.core.contention import ContentionAnalysis
from repro.core.model import Flow, Network, Scenario
from repro.graphs import connected_components, maximal_cliques
from repro.obs import registry as obs
from repro.obs.registry import MetricsRegistry
from repro.perf.shard import (
    BatchAllocationEngine,
    ShardedSolver,
    component_problems,
)
from repro.resilience.admission import ADMIT, REASON_FLOOR
from repro.resilience.runtime import AllocatorRuntime, RuntimeConfig
from repro.scenarios.random_topology import make_random_scenario

from tests.test_admission_probe import shortcut_neighbors
from tests.test_lp_revised import LIBRARY

#: fig3's shortcut topology has infeasible basic floors: the monolithic
#: solve raises, and the sharded solve must raise the same way.
INFEASIBLE = {"fig3_shortcut"}
FEASIBLE = sorted(set(LIBRARY) - INFEASIBLE)


def _chain(prefix, n):
    nodes = [f"{prefix}{i}" for i in range(n)]
    links = [(nodes[i], nodes[i + 1]) for i in range(n - 1)]
    return nodes, links


def two_islands(weight_b=1.0):
    """Two disjoint 4-hop chains: exactly two contention components."""
    a_nodes, a_links = _chain("a", 5)
    b_nodes, b_links = _chain("b", 5)
    network = Network.from_links(a_nodes + b_nodes, a_links + b_links)
    flows = [
        Flow("A", tuple(a_nodes), 1.0),
        Flow("B", tuple(b_nodes), weight_b),
    ]
    return Scenario(network, flows, name="two-islands")


class TestLibraryDifferential:
    @pytest.mark.parametrize("name", FEASIBLE)
    def test_sharded_matches_monolithic_bitwise(self, name):
        analysis = ContentionAnalysis(LIBRARY[name]())
        reference = basic_fairness_lp_allocation(analysis).shares
        for jobs in (1, 2):
            shares = ShardedSolver(jobs=jobs).solve(analysis)
            assert shares == reference  # bitwise, no tolerance

    def test_infeasible_scenario_raises_like_monolithic(self):
        analysis = ContentionAnalysis(LIBRARY["fig3_shortcut"]())
        with pytest.raises(RuntimeError, match="basic-fairness LP"):
            basic_fairness_lp_allocation(analysis)
        with pytest.raises(RuntimeError, match="basic-fairness LP"):
            ShardedSolver().solve(analysis)

    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_component_lps_byte_identical_to_monolithic_builder(
        self, name
    ):
        """The single-pass splitter reproduces ``build_basic_fairness_lp``
        exactly: same variable order, objective, constraint coefficient
        insertion order, bounds, labels, and lower bounds."""
        scenario = LIBRARY[name]()
        analysis = ContentionAnalysis(scenario)
        problems = component_problems(analysis)
        assert len(problems) == len(analysis.groups)
        for problem, group in zip(problems, analysis.groups):
            reference = build_basic_fairness_lp(
                analysis, group, scenario.capacity
            )
            assert problem.lp.variables == reference.variables
            assert problem.lp.objective == reference.objective
            assert problem.lp.lower_bounds == reference.lower_bounds
            assert [
                (dict(c.coeffs), c.bound, c.label)
                for c in problem.lp.constraints
            ] == [
                (dict(c.coeffs), c.bound, c.label)
                for c in reference.constraints
            ]
            assert problem.group_ids == tuple(
                f.flow_id for f in group
            )


class TestShardedSolverMemo:
    def test_second_solve_reuses_every_component(self):
        analysis = ContentionAnalysis(two_islands())
        solver = ShardedSolver()
        first = solver.solve(analysis)
        assert solver.last_stats["components"] == 2
        assert solver.last_stats["dirty"] == 2
        second = solver.solve(analysis)
        assert second == first
        assert solver.last_stats["dirty"] == 0
        assert solver.last_stats["reused"] == 2

    def test_dirty_tracking_is_per_component(self):
        """Churn touching island B re-solves B only; A is reused."""
        solver = ShardedSolver()
        solver.solve(ContentionAnalysis(two_islands()))
        churned = ContentionAnalysis(two_islands(weight_b=2.0))
        shares = solver.solve(churned)
        assert solver.last_stats["dirty"] == 1
        assert solver.last_stats["reused"] == 1
        assert shares == basic_fairness_lp_allocation(churned).shares

    def test_memo_disabled_always_solves(self):
        analysis = ContentionAnalysis(two_islands())
        solver = ShardedSolver(memo=False)
        solver.solve(analysis)
        solver.solve(analysis)
        assert solver.last_stats["dirty"] == 2
        assert solver.last_stats["reused"] == 0
        assert solver.dump_state() is None

    def test_lru_eviction_bounds_the_memo(self):
        analysis = ContentionAnalysis(two_islands())
        solver = ShardedSolver(max_entries=1)
        solver.solve(analysis)
        assert len(solver.dump_state()) == 1

    def test_dump_load_round_trip_keeps_reuse_bitwise(self):
        analysis = ContentionAnalysis(two_islands())
        warm = ShardedSolver()
        reference = warm.solve(analysis)
        dump = warm.dump_state()
        restored = ShardedSolver()
        restored.load_state(dump)
        shares = restored.solve(analysis)
        assert shares == reference
        # Same-process fingerprints are stable, so the restored cache
        # hits on every component and its dump replays identically.
        assert restored.last_stats["dirty"] == 0
        assert restored.last_stats["reused"] == 2
        assert restored.dump_state() == dump

    def test_shard_counters_and_latency_observation(self):
        registry = MetricsRegistry()
        obs.set_registry(registry)
        try:
            solver = ShardedSolver()
            analysis = ContentionAnalysis(two_islands())
            solver.solve(analysis)
            solver.solve(analysis)
        finally:
            obs.set_registry(None)
        snap = registry.snapshot()
        assert snap["counters"]["runtime.shard.components"] == 4
        assert snap["counters"]["runtime.shard.dirty"] == 2
        assert snap["counters"]["runtime.shard.reused"] == 2
        assert snap["histograms"]["runtime.shard.parallel_ms"]["count"] == 2


class TestBatchAllocationEngine:
    def test_unknown_flow_raises(self):
        engine = BatchAllocationEngine(ContentionAnalysis(two_islands()))
        with pytest.raises(KeyError, match="unknown flows"):
            engine.register(["A", "nope"])

    def test_register_allocate_release_matches_monolithic(self):
        engine = BatchAllocationEngine(ContentionAnalysis(two_islands()))
        decisions = engine.register(["A", "B"])
        assert [d.action for d in decisions] == [ADMIT, ADMIT]
        rates = engine.allocate()
        assert rates == basic_fairness_lp_allocation(
            engine.active_analysis()
        ).shares
        assert engine.rate_of("A") == rates["A"]
        engine.release(["B"])
        rates = engine.allocate()
        assert set(rates) == {"A"}
        # Island A's component was untouched by the release: reused.
        assert engine.solver.last_stats["reused"] == 1
        assert engine.solver.last_stats["dirty"] == 0
        assert engine.rate_of("B") == 0.0

    def test_duplicate_and_active_ids_are_skipped(self):
        engine = BatchAllocationEngine(ContentionAnalysis(two_islands()))
        engine.register(["A"])
        decisions = engine.register(["A", "B", "B"])
        assert [d.flow_id for d in decisions] == ["B"]

    def test_infeasible_batch_falls_back_to_greedy_fifo(self):
        """A shortcut link gives flow L a 4-subflow clique (> its
        virtual length 3), so its basic floor is infeasible; the batch
        probe over {L, S} fails, the greedy FIFO rejects L and admits
        the 1-hop flow S, and the epoch still solves."""
        nodes = ["a0", "a1", "a2", "a3", "a4"]
        links = [("a0", "a1"), ("a1", "a2"), ("a2", "a3"),
                 ("a3", "a4"), ("a0", "a4")]
        scenario = Scenario(
            Network.from_links(nodes, links),
            [Flow("L", tuple(nodes), 1.0), Flow("S", ("a0", "a1"), 1.0)],
            name="shortcut-batch",
        )
        registry = MetricsRegistry()
        obs.set_registry(registry)
        try:
            engine = BatchAllocationEngine(ContentionAnalysis(scenario))
            decisions = engine.register(["L", "S"])
        finally:
            obs.set_registry(None)
        verdicts = {d.flow_id: d for d in decisions}
        assert verdicts["S"].action == ADMIT
        assert verdicts["L"].action != ADMIT
        assert verdicts["L"].reason == REASON_FLOOR
        counters = registry.snapshot()["counters"]
        assert counters["batch.register.greedy_fallbacks"] >= 1
        rates = engine.allocate()  # the admitted subset is solvable
        assert set(rates) == engine.active == {"S"}
        assert rates == basic_fairness_lp_allocation(
            engine.active_analysis()
        ).shares

    def test_admission_disabled_admits_everything(self):
        scenario = LIBRARY["fig3_shortcut"]()
        engine = BatchAllocationEngine(
            ContentionAnalysis(scenario), admission=False
        )
        decisions = engine.register(scenario.flow_ids)
        assert all(d.action == ADMIT for d in decisions)


class TestBatchEngineRelease:
    def test_release_accepts_a_generator(self):
        """A generator is consumed once: the released flows leave, their
        universe component is re-solved, and the release count is
        right."""
        registry = MetricsRegistry()
        obs.set_registry(registry)
        try:
            engine = BatchAllocationEngine(
                ContentionAnalysis(two_islands())
            )
            engine.register(["A", "B"])
            engine.allocate()
            engine.release(fid for fid in ["B"])
            rates = engine.allocate()
        finally:
            obs.set_registry(None)
        assert registry.snapshot()["counters"]["batch.release.flows"] == 1
        assert engine.active == {"A"}
        assert list(rates) == ["A"]
        assert engine.solver.last_stats["components"] == 1


def ladder_universe(k=3, chain=9, span=3, flows_per=5):
    """``k`` disjoint chains of staggered multi-hop flows: several
    universe components, each splitting into several active components
    whenever a gap opens in its active flows."""
    nodes, links, flows = [], [], []
    for i in range(k):
        cn = [f"c{i}_{j}" for j in range(chain)]
        nodes += cn
        links += [(cn[j], cn[j + 1]) for j in range(chain - 1)]
        for j in range(flows_per):
            start = (2 * j) % (chain - span)
            flows.append(Flow(f"f{i}_{j}", tuple(cn[start:start + span + 1]),
                              1.0 + (j % 3)))
    return Scenario(Network.from_links(nodes, links), flows,
                    name=f"ladder-{k}")


#: Engine universes: ladder islands, random geometric nets (one universe
#: component whose active subsets split), and shortcut topologies, where
#: floors can be infeasible so register falls back to greedy FIFO — and,
#: with a shortcut flow admitted next to a neighbor, a release of that
#: neighbor makes the next allocate raise.
ENGINE_UNIVERSES = {
    "ladder": ladder_universe,
    "random-a": lambda: make_random_scenario(30, 9, seed=1),
    "random-b": lambda: make_random_scenario(36, 10, seed=4),
    "fig3_shortcut": LIBRARY["fig3_shortcut"],
    "shortcut-neighbors": shortcut_neighbors,
}


@functools.lru_cache(maxsize=None)
def engine_universe(name):
    return ContentionAnalysis(ENGINE_UNIVERSES[name]())


def whole_trial_admits(engine, candidates):
    """The admitted subset of ``candidates`` by the whole-trial-set rule.

    Group the candidates by connected component of the trial graph over
    the *whole* universe (active flows plus candidates); a component
    whose batch keeps every floor feasible admits at once, otherwise
    greedy per-flow FIFO decides.
    """
    trial = engine.active | set(candidates)
    graph = engine.analysis.graph.subgraph(
        sid for fid in trial for sid in engine._subflows[fid]
    )
    comp_of = {}
    for idx, comp in enumerate(connected_components(graph)):
        for sid in comp:
            comp_of[sid.flow] = idx
    by_comp = {}
    for fid in candidates:
        by_comp.setdefault(comp_of[fid], []).append(fid)
    active_by_comp = {}
    for fid in engine.analysis.scenario.flow_ids:
        if fid in engine.active:
            active_by_comp.setdefault(comp_of[fid], []).append(fid)
    admitted = set()
    for idx, batch in by_comp.items():
        accepted = list(active_by_comp.get(idx, []))
        if engine._floors_feasible(accepted + batch):
            admitted.update(batch)
            continue
        for fid in batch:
            if engine._floors_feasible(accepted + [fid]):
                admitted.add(fid)
                accepted.append(fid)
    return admitted


class TestBatchEngineDifferential:
    """Random register / release / allocate sequences against the
    whole-universe oracles, checked after every epoch."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_epochs_match_the_whole_universe_oracles(self, data):
        name = data.draw(st.sampled_from(sorted(ENGINE_UNIVERSES)))
        analysis = engine_universe(name)
        ids = analysis.scenario.flow_ids
        engine = BatchAllocationEngine(analysis)
        store = engine.store
        touched = set()  # universe components changed since the last solve
        for _ in range(data.draw(st.integers(1, 6))):
            active = sorted(engine.active)
            released = data.draw(st.lists(
                st.sampled_from(active), unique=True,
            )) if active else []
            arrivals = data.draw(st.lists(st.sampled_from(ids)))
            engine.release(released)
            candidates = list(dict.fromkeys(
                f for f in arrivals if f not in engine.active
            ))
            trial = sorted(engine.active | set(candidates))
            whole_ok = engine._floors_feasible(trial)
            expected = whole_trial_admits(engine, candidates)
            decisions = engine.register(arrivals)
            admitted = {d.flow_id for d in decisions if d.action == ADMIT}
            assert admitted == expected
            if whole_ok:
                assert admitted == set(candidates)
            touched |= {store.component_of(f) for f in released}
            touched |= {store.component_of(f) for f in admitted}

            oracle = engine.active_analysis()
            try:
                reference = basic_fairness_lp_allocation(oracle).shares
            except RuntimeError:
                # A release can leave floors infeasible (shortcut
                # topologies); the engine must fail the same way and
                # retry the same components next epoch.
                with pytest.raises(RuntimeError, match="basic-fairness LP"):
                    engine.allocate()
                continue
            rates = engine.allocate()
            assert list(rates.items()) == list(reference.items())
            assert oracle.cliques == maximal_cliques(oracle.graph)
            if not engine.active:
                assert rates == {}
                touched = set()
                continue
            stats = engine.solver.last_stats
            clean = sum(
                1 for group in oracle.groups
                if store.component_of(group[0].flow_id) not in touched
            )
            assert stats["components"] == len(oracle.groups)
            assert stats["reused"] == stats["components"] - stats["dirty"]
            assert stats["reused"] >= clean
            assert stats["dirty"] <= stats["components"] - clean
            touched = set()

    def test_failed_allocate_keeps_its_components_dirty(self):
        """An allocate that raises commits nothing: the next one retries
        the same universe components instead of dropping them."""
        engine = BatchAllocationEngine(engine_universe("shortcut-neighbors"))
        decisions = engine.register(["S", "L", "F"])
        assert all(d.action == ADMIT for d in decisions)
        engine.allocate()
        engine.release(["S"])  # L's floor no longer fits alone
        for _ in range(2):
            with pytest.raises(RuntimeError, match="basic-fairness LP"):
                engine.allocate()
        engine.register(["S"])
        rates = engine.allocate()
        reference = basic_fairness_lp_allocation(engine.active_analysis())
        assert list(rates.items()) == list(reference.shares.items())

    def test_merge_keeps_universe_order_after_partial_epochs(self):
        """Re-solving only the first universe component must not move
        its shares behind the clean components' in the merged rates."""
        analysis = engine_universe("ladder")
        engine = BatchAllocationEngine(analysis)
        engine.register(analysis.scenario.flow_ids)
        engine.allocate()
        engine.release(["f0_1"])
        rates = engine.allocate()
        assert engine.solver.last_stats["reused"] >= 2
        reference = basic_fairness_lp_allocation(engine.active_analysis())
        assert list(rates.items()) == list(reference.shares.items())


class TestRuntimeShardSeam:
    @pytest.mark.parametrize("name", ["fig4", "parallel_chains", "grid"])
    def test_runtime_sharded_vs_monolithic_journal(self, name):
        """The seam's contract: identical committed journals with the
        sharded backend on or off."""
        scenario = LIBRARY[name]()
        ids = [f.flow_id for f in scenario.flows]

        def journal(sharded):
            runtime = AllocatorRuntime(
                scenario, RuntimeConfig(sharded=sharded)
            )
            runtime.set_active(ids)
            runtime.set_active(ids[1:])
            runtime.set_active(ids)
            return [r.to_dict() for r in runtime.journal]

        assert journal(True) == journal(False)

    def test_churn_one_island_resolves_only_dirty_components(self):
        runtime = AllocatorRuntime(
            two_islands(), RuntimeConfig(admission=False)
        )
        runtime.set_active(["A", "B"])
        assert runtime._shard.last_stats["dirty"] == 2
        runtime.set_active(["A"])  # island B departs; A is untouched
        assert runtime._shard.last_stats == {
            **runtime._shard.last_stats,
            "components": 1, "dirty": 0, "reused": 1,
        }

    def test_unchanged_epoch_counts_as_memo_hit(self):
        registry = MetricsRegistry()
        obs.set_registry(registry)
        try:
            runtime = AllocatorRuntime(
                two_islands(), RuntimeConfig(admission=False)
            )
            first = runtime.set_active(["A", "B"])
            again = runtime.set_active(["A", "B"])
        finally:
            obs.set_registry(None)
        assert again == first
        counters = registry.snapshot()["counters"]
        assert counters["runtime.alloc.memo_hits"] >= 1
        assert counters["runtime.shard.reused"] >= 2
