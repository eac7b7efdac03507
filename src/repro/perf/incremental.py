"""Incremental contention maintenance: the resident component store.

The dynamic experiment rebuilds the subflow contention graph and
re-enumerates its maximal cliques from scratch at every membership
change, even though one flow joining or leaving touches only its own
subflows' edges and the cliques of the connected components it belongs
to.  :class:`IncrementalContention` exploits both facts:

* pairwise contention between two subflows does not depend on which
  *other* flows are active, so the full pairwise graph over every flow
  ever seen (the *universe* graph) is computed once — or handed in
  precomputed — and active-set changes reduce to taking an induced
  subgraph, with no geometry re-checks;
* the maximal cliques of a graph are exactly the union of the maximal
  cliques of its connected components, so clique enumeration is cached
  per component (keyed by the component's vertex set) and only
  components whose membership actually changed are re-enumerated.  This
  is the one per-component clique cache in the package: the runtime's
  topology states and :class:`~repro.perf.shard.BatchAllocationEngine`
  both go through it.

Every active component lies inside one connected component of the
universe graph (a *universe component*), and both the Prop. 2 LP and the
Eq. (6) admission test factor over active components.  The store
therefore keeps a flow -> universe-component index (built lazily on first
use), so a caller that knows which flows changed can analyze just their
universe components with :meth:`IncrementalContention.analysis_of_flows`
— O(those components), not O(universe).  Two callers rely on it:

* the batch engine re-solves only the universe components that register
  and release dirtied (see :mod:`repro.perf.shard`);
* the runtime's admission probe checks Eq. (6) over the candidate's
  universe component only.  That is exact: basic shares are computed
  per contending group, every maximal clique lies inside one group, and
  with admission on the rest of the committed active set is already
  floor-feasible, so groups outside the component cannot change the
  verdict.

The produced :class:`~repro.core.contention.ContentionAnalysis` is
bit-identical to a cold rebuild: the induced subgraph lists vertices in
flow order (the cold build's insertion order), and the merged clique
list is re-sorted with the same canonical key
:func:`repro.graphs.cliques.sort_cliques` uses.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Union,
)

from ..core.contention import ContentionAnalysis, subflows_contend
from ..core.model import Flow, Scenario, Subflow, SubflowId
from ..graphs import Graph, connected_components
from ..graphs.cliques import clique_vertex_order, maximal_cliques, sort_cliques
from ..obs.registry import incr, phase_timer

__all__ = ["IncrementalContention"]

Clique = FrozenSet[SubflowId]


class IncrementalContention:
    """Maintain contention structure for a scenario under flow churn.

    ``scenario`` fixes the network and the initially known flows; the
    *active* subset then evolves via :meth:`add_flow` /
    :meth:`remove_flow` / :meth:`set_active`, and :meth:`analysis`
    produces a :class:`ContentionAnalysis` of the active flows that is
    bit-identical to building one cold from the equivalent
    sub-scenario.  Flows unknown to the base scenario may be introduced
    by passing a :class:`Flow` to :meth:`add_flow`; their pairwise
    contention is computed once on first sight and cached like
    everything else.

    ``graph`` may hand in the universe contention graph precomputed
    (vertices are the scenario flows' :class:`SubflowId` objects), which
    skips the geometric pair scan — the recipe for large synthetic
    universes without geometry.
    """

    def __init__(
        self,
        scenario: Scenario,
        active: Optional[Iterable[str]] = None,
        max_cached_components: int = 1024,
        graph: Optional[Graph] = None,
    ) -> None:
        self.scenario = scenario
        self.max_cached_components = int(max_cached_components)
        self._flows: "Dict[str, Flow]" = {
            f.flow_id: f for f in scenario.flows
        }
        if graph is None:
            with phase_timer("perf.incremental.full_graph_build"):
                graph = Graph()
                subflows: List[Subflow] = []
                for f in scenario.flows:
                    self._add_flow_to_graph(graph, f, subflows)
        self._full = graph
        self._active: Set[str] = (
            set(scenario.flow_ids) if active is None else set(active)
        )
        unknown = self._active - set(self._flows)
        if unknown:
            raise KeyError(f"unknown active flows {sorted(unknown)}")
        self._component_cliques: "OrderedDict[FrozenSet[SubflowId], List[Clique]]" = (
            OrderedDict()
        )
        # Universe-component index, built on first use (see
        # _index_components) and dropped when a new flow extends the
        # universe graph.
        self._component_of: Optional[Dict[str, int]] = None
        self._members: List[List[str]] = []
        self._rank: Dict[SubflowId, int] = {}

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    @property
    def flows(self) -> "Dict[str, Flow]":
        """Every known flow by id, in known-flow (scenario) order."""
        return self._flows

    @property
    def active_ids(self) -> List[str]:
        """Active flow ids, in known-flow (scenario) order."""
        return [fid for fid in self._flows if fid in self._active]

    def add_flow(self, flow: Union[str, Flow]) -> None:
        """Activate a flow; a new :class:`Flow` is registered on the fly."""
        if isinstance(flow, Flow):
            if flow.flow_id not in self._flows:
                self._register_flow(flow)
            flow_id = flow.flow_id
        else:
            flow_id = flow
        if flow_id not in self._flows:
            raise KeyError(f"unknown flow {flow_id!r}")
        self._active.add(flow_id)
        incr("perf.incremental.updates")

    def remove_flow(self, flow_id: str) -> None:
        """Deactivate a flow (its cached contention edges are kept)."""
        self._active.discard(flow_id)
        incr("perf.incremental.updates")

    def set_active(self, flow_ids: Iterable[str]) -> None:
        """Replace the active set wholesale (ids must be known)."""
        wanted = set(flow_ids)
        unknown = wanted - set(self._flows)
        if unknown:
            raise KeyError(f"unknown flows {sorted(unknown)}")
        if wanted != self._active:
            self._active = wanted
            incr("perf.incremental.updates")

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def analysis(self, name: Optional[str] = None) -> ContentionAnalysis:
        """A :class:`ContentionAnalysis` of the currently active flows."""
        return self.analysis_of_flows(self.active_ids, name=name)

    def analysis_for(
        self, flow_ids: Iterable[str], name: Optional[str] = None
    ) -> ContentionAnalysis:
        """Set the active set and analyze it in one step."""
        self.set_active(flow_ids)
        return self.analysis(name=name)

    def analysis_of_flows(
        self, flow_ids: Sequence[str], name: Optional[str] = None
    ) -> ContentionAnalysis:
        """A :class:`ContentionAnalysis` of exactly ``flow_ids``.

        The ids must be known and listed in known-flow order; the
        active set is left alone.  Cost is O(their induced subgraph),
        so a caller that passes one universe component's flows pays for
        that component only.
        """
        with phase_timer("perf.incremental.analysis"):
            flows = [self._flows[fid] for fid in flow_ids]
            graph = self._full.induced_subgraph(
                s.sid for f in flows for s in f.subflows
            )
            cliques = self.cliques_of(graph)
            sub = Scenario(
                self.scenario.network,
                flows,
                name=(name if name is not None
                      else f"{self.scenario.name}-active"),
                capacity=self.scenario.capacity,
            )
            result = ContentionAnalysis(sub, graph=graph, cliques=cliques)
        incr("perf.incremental.analyses")
        return result

    @property
    def full_graph(self) -> Graph:
        """The pairwise contention graph over every known flow."""
        return self._full

    # ------------------------------------------------------------------
    # Universe components
    # ------------------------------------------------------------------
    def component_of(self, flow_id: str) -> int:
        """Index of the universe component holding ``flow_id``.

        Components are the connected components of the universe graph,
        numbered in order of their first vertex.
        """
        if self._component_of is None:
            self._index_components()
        return self._component_of[flow_id]

    def component_members(self, index: int) -> List[str]:
        """Every known flow of universe component ``index``, in
        known-flow order."""
        if self._component_of is None:
            self._index_components()
        return self._members[index]

    def first_vertex(self, flows: Iterable[Flow]) -> int:
        """Universe-graph position of the first subflow of ``flows``.

        Contending flow groups are ordered by exactly this key (their
        first vertex in graph order), so merging per-component results
        sorted by it reproduces a whole-universe analysis's group order.
        """
        if self._component_of is None:
            self._index_components()
        return min(self._rank[s.sid] for f in flows for s in f.subflows)

    def _index_components(self) -> None:
        with phase_timer("perf.incremental.component_index"):
            self._rank = {v: i for i, v in enumerate(self._full)}
            comps = connected_components(self._full)
            component_of: Dict[str, int] = {}
            for idx, comp in enumerate(comps):
                for sid in comp:
                    component_of[sid.flow] = idx
            self._members = [[] for _ in comps]
            for fid in self._flows:
                self._members[component_of[fid]].append(fid)
            self._component_of = component_of

    # ------------------------------------------------------------------
    # Cliques
    # ------------------------------------------------------------------
    def cliques_of(self, graph: Graph) -> List[Clique]:
        """Maximal cliques of ``graph`` (an induced subgraph of the
        universe) via the per-component cache, in canonical order."""
        cliques: List[Clique] = []
        for comp in connected_components(graph):
            key = frozenset(comp)
            cached = self._component_cliques.get(key)
            if cached is None:
                incr("perf.incremental.component_misses")
                cached = maximal_cliques(graph.induced_subgraph(comp))
                self._component_cliques[key] = cached
                while (len(self._component_cliques)
                       > self.max_cached_components):
                    self._component_cliques.popitem(last=False)
            else:
                incr("perf.incremental.component_hits")
                self._component_cliques.move_to_end(key)
            cliques.extend(cached)
        rank = {v: i for i, v in enumerate(clique_vertex_order(graph))}
        return sort_cliques(cliques, rank)

    # ------------------------------------------------------------------
    # Checkpoint support (repro.resilience.checkpoint)
    # ------------------------------------------------------------------
    def export_component_cliques(self) -> List[dict]:
        """JSON-ready dump of the per-component clique cache, LRU order
        preserved (a restored runtime must reproduce the same eviction
        behaviour as one that never crashed)."""
        return [
            {
                "component": sorted([s.flow, s.hop] for s in key),
                "cliques": [
                    sorted([s.flow, s.hop] for s in clique)
                    for clique in cliques
                ],
            }
            for key, cliques in self._component_cliques.items()
        ]

    def seed_component_cliques(self, entries: Iterable[dict]) -> None:
        """Pre-populate the clique cache from an exported dump.

        Value-neutral by construction: a wrong or missing entry merely
        costs a re-enumeration (cache misses recompute from the graph),
        it can never change an analysis result.
        """
        for entry in entries:
            key = frozenset(
                SubflowId(str(f), int(h)) for f, h in entry["component"]
            )
            self._component_cliques[key] = [
                frozenset(SubflowId(str(f), int(h)) for f, h in clique)
                for clique in entry["cliques"]
            ]
            self._component_cliques.move_to_end(key)
            while len(self._component_cliques) > self.max_cached_components:
                self._component_cliques.popitem(last=False)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _add_flow_to_graph(
        self, g: Graph, flow: Flow, existing: List[Subflow]
    ) -> None:
        """Append ``flow``'s subflows and their contention edges to ``g``;
        ``existing`` lists the subflows already in ``g``, in order."""
        network = self.scenario.network
        for sub in flow.subflows:
            g.add_vertex(sub.sid, weight=sub.weight, flow=sub.flow_id,
                         sender=sub.sender, receiver=sub.receiver)
            for other in existing:
                if subflows_contend(network, sub, other):
                    g.add_edge(sub.sid, other.sid)
            existing.append(sub)

    def _register_flow(self, flow: Flow) -> None:
        self.scenario.network.validate_flow(flow)
        existing = [s for f in self._flows.values() for s in f.subflows]
        self._flows[flow.flow_id] = flow
        self._component_of = None
        with phase_timer("perf.incremental.flow_graph_extend"):
            self._add_flow_to_graph(self._full, flow, existing)
