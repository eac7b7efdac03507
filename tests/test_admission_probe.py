"""The runtime's component-local admission probe.

``AllocatorRuntime._admission_reason`` analyzes only the candidate's
universe component (its active flows plus the candidate).  That is exact
because basic shares are per contending group and every Eq. (6) clique
lies inside one group, while the rest of the committed set is already
floor-feasible.  The differential here replays library scenarios under
seeded churn, plus a seeded overload trace, with every probe also
checked against the whole-trial-set predicate, and requires identical
journals; the unit test shows the probe never looks past its island.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.model import Flow, Network, Scenario
from repro.perf import incremental
from repro.resilience import AllocatorRuntime, ChurnEvent, ChurnTimeline
from repro.resilience.admission import REASON_OK, basic_share_feasible
from repro.resilience.overload import OverloadConfig, OverloadRuntime
from repro.sim.rng import RngRegistry
from repro.traffic.openloop import OpenLoopConfig, draw_arrival_trace

from tests.test_lp_revised import LIBRARY


@pytest.fixture(autouse=True)
def _no_active_registry():
    previous = obs.get_registry()
    obs.set_registry(None)
    yield
    obs.set_registry(previous)


def checked(runtime, log):
    """Also judge every probe by the whole-trial-set predicate; log
    ``(flow, local verdict, whole-set verdict)`` for each one."""
    local = runtime._admission_reason

    def probe(topo, active, fid):
        reason, details = local(topo, active, fid)
        if fid not in topo.unroutable and runtime.config.admission:
            whole = topo.analysis_of(topo.ordered(active | {fid}), "whole")
            log.append((fid, reason == REASON_OK,
                        basic_share_feasible(whole)))
        return reason, details

    runtime._admission_reason = probe
    return runtime


def timeline(scenario, name, epochs=10):
    return ChurnTimeline.draw(
        RngRegistry(11).stream(("probe", name)),
        scenario.flow_ids,
        scenario.network.nodes,
        scenario.network.links(),
        epochs=epochs,
        p_flow=0.4,
    )


def ladder(k=3, chain=10, span=3, flows_per=8):
    nodes, links, flows = [], [], []
    for i in range(k):
        cn = [f"c{i}_{j}" for j in range(chain)]
        nodes += cn
        links += [(cn[j], cn[j + 1]) for j in range(chain - 1)]
        for j in range(flows_per):
            start = j % (chain - span)
            flows.append(Flow(f"f{i}_{j}", tuple(cn[start:start + span + 1]),
                              1.0 + (j % 3)))
    return Scenario(Network.from_links(nodes, links), flows, name="ladder")


class TestProbeDifferential:
    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_library_churn_journals_match_the_whole_set_probe(self, name):
        scenario = LIBRARY[name]()
        churn = timeline(scenario, name)
        plain = AllocatorRuntime(scenario)
        plain.run_timeline(churn)
        log = []
        audited = checked(AllocatorRuntime(scenario), log)
        audited.run_timeline(churn)
        assert [r.to_dict() for r in audited.journal] == \
            [r.to_dict() for r in plain.journal]
        assert [entry for entry in log if entry[1] != entry[2]] == []

    def test_library_probes_cover_both_verdicts(self):
        """The replay is not vacuous: probes admit and refuse."""
        log = []
        for name in sorted(LIBRARY):
            scenario = LIBRARY[name]()
            checked(AllocatorRuntime(scenario), log).run_timeline(
                timeline(scenario, name)
            )
        verdicts = {local for _fid, local, _whole in log}
        assert verdicts == {True, False}

    def test_overload_trace_journals_match_the_whole_set_probe(self):
        scenario = ladder()
        trace = draw_arrival_trace(
            np.random.default_rng(5), sorted(scenario.flow_ids), 16,
            OpenLoopConfig(rate=8.0, duration_mean=4.0),
        )

        def run(audit):
            runtime = AllocatorRuntime(scenario)
            log = []
            if audit:
                checked(runtime, log)
            harness = OverloadRuntime(runtime, OverloadConfig())
            harness.force_breach_epochs = {6, 7}
            harness.run_trace(trace)
            return [r.to_dict() for r in runtime.journal], log

        plain, _ = run(False)
        audited, log = run(True)
        assert audited == plain
        assert log
        assert [entry for entry in log if entry[1] != entry[2]] == []


def shortcut_neighbors():
    """A shortcut flow L (4-subflow clique, virtual length 3) whose floor
    fits only while S, in L's group but outside that clique, is active;
    a far-away chain flow F forms a second universe component."""
    nodes = [f"a{j}" for j in range(7)] + ["x0", "x1", "x2"]
    links = [(f"a{j}", f"a{j + 1}") for j in range(6)] + [
        ("a0", "a4"), ("x0", "x1"), ("x1", "x2")]
    flows = [
        Flow("L", ("a0", "a1", "a2", "a3", "a4"), 1.0),
        Flow("S", ("a5", "a6"), 1.0),
        Flow("F", ("x0", "x1", "x2"), 1.0),
    ]
    return Scenario(Network.from_links(nodes, links), flows,
                    name="shortcut-neighbors")


def test_probe_verdict_depends_on_the_active_neighbors():
    """L is refused alone, admitted from the queue once S is active,
    suspended when S leaves and readmitted after S returns — every
    verdict equal to the whole-set probe's."""
    scenario = shortcut_neighbors()

    def up(epoch, *flows):
        return [ChurnEvent(epoch, "flow-up", flow=f) for f in flows]

    def down(epoch, *flows):
        return [ChurnEvent(epoch, "flow-down", flow=f) for f in flows]

    epochs = [up(0, "L", "F"), up(1, "S"), [], down(3, "S"), up(4, "S"), []]
    plain = AllocatorRuntime(scenario)
    log = []
    audited = checked(AllocatorRuntime(scenario), log)
    for events in epochs:
        plain.advance(events)
        audited.advance(events)
    assert [r.to_dict() for r in audited.journal] == \
        [r.to_dict() for r in plain.journal]
    verdicts = [(fid, local) for fid, local, whole in log if fid == "L"]
    assert [entry for entry in log if entry[1] != entry[2]] == []
    assert ("L", False) in verdicts and ("L", True) in verdicts
    assert [r.active for r in plain.journal] == [
        ["F"], ["F", "S"], ["F", "L", "S"], ["F"], ["F", "S"],
        ["F", "L", "S"]]


def two_islands():
    """Two disjoint chains with three 2-hop flows each."""
    nodes, links, flows = [], [], []
    for island in "AB":
        cn = [f"{island}{j}" for j in range(5)]
        nodes += cn
        links += [(cn[j], cn[j + 1]) for j in range(4)]
        flows += [Flow(f"{island}{j}", tuple(cn[j:j + 3]), 1.0)
                  for j in range(3)]
    return Scenario(Network.from_links(nodes, links), flows,
                    name="two-islands")


class TestProbeLocality:
    def test_probe_in_island_a_never_analyzes_island_b(self, monkeypatch):
        runtime = AllocatorRuntime(two_islands())
        runtime.advance([ChurnEvent(0, "flow-up", flow=f)
                         for f in ("A0", "B0", "B1", "B2")])
        assert runtime.active == {"A0", "B0", "B1", "B2"}
        topo = runtime._topology(runtime.down_links, runtime.down_nodes)
        analyzed = []

        class Recording(incremental.ContentionAnalysis):
            def __init__(self, scenario, *args, **kwargs):
                analyzed.append(scenario.flow_ids)
                super().__init__(scenario, *args, **kwargs)

        monkeypatch.setattr(incremental, "ContentionAnalysis", Recording)
        reason, _details = runtime._admission_reason(
            topo, set(runtime.active), "A1"
        )
        assert reason == REASON_OK
        assert analyzed == [["A0", "A1"]]
