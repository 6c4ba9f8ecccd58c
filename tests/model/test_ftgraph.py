"""Unit tests for the FT-extended execution graph."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.gen.suite import generate_case
from repro.model.application import Application, Process, ProcessGraph
from repro.model.fault import FaultModel
from repro.model.ftgraph import build_ft_graph, ft_graph_with_move, instance_id
from repro.model.mapping import ReplicaMapping
from repro.model.merge import merge_application
from repro.model.policy import Policy, PolicyAssignment
from repro.opt.initial import initial_bus_access, initial_mpa
from repro.opt.moves import generate_moves


def _merged_chain():
    g = ProcessGraph("g")
    g.add_process(Process("A", {"N1": 10.0, "N2": 12.0}))
    g.add_process(Process("B", {"N1": 20.0, "N2": 22.0}))
    g.connect("A", "B", size=2)
    return merge_application(Application([g]))


FAULTS = FaultModel(k=2, mu=5.0)


def test_instance_id_format():
    assert instance_id("P1", 0) == "P1:r0"


def test_reexecution_explodes_to_one_instance_each():
    merged = _merged_chain()
    policies = PolicyAssignment.uniform(iter(["A", "B"]), Policy.reexecution(2))
    mapping = ReplicaMapping({"A": ("N1",), "B": ("N2",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    assert len(ft) == 2
    assert ft.replicas("A") == ("A:r0",)
    assert ft.instance("A:r0").reexecutions == 2
    assert ft.instance("A:r0").kill_cost == 3


def test_replication_explodes_to_k_plus_one_instances():
    merged = _merged_chain()
    policies = PolicyAssignment(
        {"A": Policy.replication(2), "B": Policy.reexecution(2)}
    )
    mapping = ReplicaMapping({"A": ("N1", "N2", "N1"), "B": ("N2",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    assert ft.replicas("A") == ("A:r0", "A:r1", "A:r2")
    assert all(ft.instance(i).reexecutions == 0 for i in ft.replicas("A"))


def test_input_groups_list_all_sender_replicas():
    merged = _merged_chain()
    policies = PolicyAssignment(
        {"A": Policy.replication(2), "B": Policy.reexecution(2)}
    )
    mapping = ReplicaMapping({"A": ("N1", "N2", "N1"), "B": ("N2",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    groups = ft.inputs_of("B:r0")
    assert len(groups) == 1
    assert groups[0].sources == ("A:r0", "A:r1", "A:r2")


def test_bus_messages_masked_for_sole_replica():
    merged = _merged_chain()
    policies = PolicyAssignment.uniform(iter(["A", "B"]), Policy.reexecution(2))
    mapping = ReplicaMapping({"A": ("N1",), "B": ("N2",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    out = ft.outgoing_bus_messages("A:r0")
    assert [m.kind for m in out] == ["masked"]
    assert out[0].id == "m_A_B[A:r0]"


def test_plain_replicas_backed_by_guaranteed_frames_up_to_k():
    """One upstream fault can delay a whole replica group past its fast
    slots simultaneously, so enough replicas must own a guaranteed
    (post-WCF) frame that their combined kill price reaches k — without
    that backing a group of pure replicas has no delivery the worst-case
    analysis may rely on.  Replicas beyond the required price stay
    fast-only (no wasted bus slots)."""
    merged = _merged_chain()
    policies = PolicyAssignment(
        {"A": Policy.replication(2), "B": Policy.reexecution(2)}
    )
    mapping = ReplicaMapping({"A": ("N1", "N2", "N1"), "B": ("N2",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    senders = [i for i in ft.replicas("A") if ft.outgoing_bus_messages(i)]
    assert senders  # co-located replicas (A:r1 on B's node) send nothing
    for i in senders:
        assert "fast" in {m.kind for m in ft.outgoing_bus_messages(i)}
    # Every receiver must see delay-immune deliveries whose combined kill
    # price reaches k: a sender co-located with the receiver is immune via
    # its local finish, a remote one via its guaranteed frame.
    for receiver in ft.replicas("B"):
        receiver_node = ft.instances[receiver].node
        immune_price = sum(
            ft.instances[i].kill_cost
            for i in ft.replicas("A")
            if ft.instances[i].node == receiver_node
            or "guaranteed" in {m.kind for m in ft.outgoing_bus_messages(i)}
        )
        assert immune_price >= FAULTS.k


def test_bus_messages_fast_plus_guaranteed_for_reexecuted_replicas():
    merged = _merged_chain()
    policies = PolicyAssignment(
        {"A": Policy.combined(2, 2), "B": Policy.reexecution(2)}
    )
    mapping = ReplicaMapping({"A": ("N1", "N2"), "B": ("N2",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    kinds_r0 = sorted(m.kind for m in ft.outgoing_bus_messages("A:r0"))
    kinds_r1 = sorted(m.kind for m in ft.outgoing_bus_messages("A:r1"))
    # r0 carries the re-execution (e=(1,0)): fast + guaranteed frames.
    assert kinds_r0 == ["fast", "guaranteed"]
    # r1 is co-located with B's node? (N2) -> no remote receiver, no frames,
    # unless B has replicas elsewhere; B lives on N2 only, so r1 sends none.
    assert kinds_r1 == []


def test_no_bus_message_when_colocated():
    merged = _merged_chain()
    policies = PolicyAssignment.uniform(iter(["A", "B"]), Policy.reexecution(2))
    mapping = ReplicaMapping({"A": ("N1",), "B": ("N1",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    assert ft.outgoing_bus_messages("A:r0") == []


def test_policy_not_tolerating_k_rejected():
    merged = _merged_chain()
    policies = PolicyAssignment.uniform(iter(["A", "B"]), Policy.reexecution(1))
    mapping = ReplicaMapping({"A": ("N1",), "B": ("N2",)})
    with pytest.raises(ModelError):
        build_ft_graph(merged, policies, mapping, FAULTS)


def test_mapping_policy_mismatch_rejected():
    merged = _merged_chain()
    policies = PolicyAssignment(
        {"A": Policy.replication(2), "B": Policy.reexecution(2)}
    )
    mapping = ReplicaMapping({"A": ("N1",), "B": ("N2",)})
    with pytest.raises(ModelError):
        build_ft_graph(merged, policies, mapping, FAULTS)


def test_topological_order_respects_dependencies():
    merged = _merged_chain()
    policies = PolicyAssignment(
        {"A": Policy.replication(2), "B": Policy.reexecution(2)}
    )
    mapping = ReplicaMapping({"A": ("N1", "N2", "N1"), "B": ("N2",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    order = ft.topological_order()
    for a_replica in ft.replicas("A"):
        assert order.index(a_replica) < order.index("B:r0")


def test_unknown_instance_raises():
    merged = _merged_chain()
    policies = PolicyAssignment.uniform(iter(["A", "B"]), Policy.reexecution(2))
    mapping = ReplicaMapping({"A": ("N1",), "B": ("N2",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    with pytest.raises(ModelError):
        ft.instance("nope:r0")
    with pytest.raises(ModelError):
        ft.replicas("nope")


def _structure(ft):
    """Every field of an FT graph, with containers compared by value.

    A sender's frame list is ordered (the scheduler packs it in order);
    the id -> frame map and the adjacency lists are not (readiness counts
    and a total heap order make their order irrelevant).
    """
    return (
        ft.instances,
        ft.group_of,
        {iid: tuple(ft.inputs_of(iid)) for iid in ft.instances},
        ft.bus_messages,
        {iid: ft.outgoing_bus_messages(iid) for iid in ft},
        {iid: sorted(succs) for iid, succs in ft._succ.items()},
        {iid: sorted(preds) for iid, preds in ft._pred.items()},
        ft._edges,
    )


@given(
    n=st.integers(6, 12),
    nodes=st.integers(2, 3),
    k=st.integers(1, 3),
    seed=st.integers(0, 7),
    replicated=st.booleans(),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_move_overlay_equals_a_full_rebuild(n, nodes, k, seed, replicated):
    """``ft_graph_with_move`` builds what ``build_ft_graph`` builds, for
    every move of the search neighbourhood: remaps (same replica count)
    and policy moves (the count changes)."""
    case = generate_case(n, nodes, k, mu=5.0, seed=seed)
    merged = merge_application(case.application)
    bus = initial_bus_access(case.application, case.architecture)
    impl = initial_mpa(
        merged, case.architecture, case.faults, bus,
        k + 1 if replicated else 1,
    )
    base = build_ft_graph(merged, impl.policies, impl.mapping, case.faults)
    moves = generate_moves(
        merged, case.faults, impl, list(merged.processes), (1, 2, k + 1)
    )
    assert moves
    for move in moves:
        moved = move.apply(impl)
        overlay = ft_graph_with_move(
            base, merged, moved.policies, moved.mapping, case.faults,
            move.process,
        )
        rebuilt = build_ft_graph(
            merged, moved.policies, moved.mapping, case.faults
        )
        assert _structure(overlay) == _structure(rebuilt)
