"""Delta-kernel parity on the bases the MR and NFT searches price from.

``tests/opt/test_delta_parity.py`` drives default bases (one replica, full
re-execution).  The replication-only search (MR) instead starts from
``k + 1`` pure replicas of every process — fast/guaranteed frame pairs on
every edge, no re-executions — and the non-fault-tolerant reference (NFT)
runs with ``k = 0``.  Along random chains of the moves each search
generates, the unsealed ``cost_view`` and the sealed ``delta_record`` must
be bit-equal to a cold :func:`build_schedule_record` of the moved design.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gen.suite import generate_case
from repro.model.ftgraph import build_ft_graph
from repro.model.merge import merge_application
from repro.opt.initial import initial_bus_access, initial_mpa
from repro.opt.moves import generate_moves
from repro.schedule.incremental import EvalContext
from repro.schedule.list_scheduler import build_schedule_record

_SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _walk_move_chain(n, nodes, k, seed, picks, replicas, replica_counts):
    """Apply one picked move per step; compare delta against cold each time."""
    case = generate_case(n, nodes, k, mu=5.0 if k else 0.0, seed=seed)
    merged = merge_application(case.application)
    faults = case.faults
    bus = initial_bus_access(case.application, case.architecture)
    impl = initial_mpa(merged, case.architecture, faults, bus, replicas)
    for pick in picks:
        ft = build_ft_graph(merged, impl.policies, impl.mapping, faults)
        context = EvalContext.capture(merged, ft, faults, bus)
        moves = generate_moves(
            merged, faults, impl, context.record.critical_path(),
            replica_counts,
        )
        if not moves:
            return
        move = moves[pick % len(moves)]
        candidate = move.apply(impl)

        cold_ft = build_ft_graph(
            merged, candidate.policies, candidate.mapping, faults
        )
        cold = build_schedule_record(merged, cold_ft, faults, bus)

        state, _ = context.delta_schedule(
            candidate.policies, candidate.mapping, move.process
        )
        degree, makespan = state.cost_view()
        assert repr(degree) == repr(cold.degree_of_schedulability())
        assert repr(makespan) == repr(cold.makespan)

        record, stats = context.delta_record(
            candidate.policies, candidate.mapping, move.process
        )
        assert record == cold
        assert repr(record) == repr(cold)
        assert stats.resumed_rank + stats.scheduled == len(cold_ft)
        impl = candidate


@given(
    n=st.integers(8, 14),
    nodes=st.integers(2, 3),
    k=st.integers(1, 3),
    seed=st.integers(0, 7),
    picks=st.lists(st.integers(0, 999), min_size=1, max_size=3),
)
@_SLOW
def test_replicated_base_move_chains_match_cold(n, nodes, k, seed, picks):
    """MR-style base: k+1 pure replicas everywhere, MR's move set."""
    _walk_move_chain(n, nodes, k, seed, picks, k + 1, (k + 1,))


@given(
    n=st.integers(8, 14),
    nodes=st.integers(2, 3),
    seed=st.integers(0, 7),
    picks=st.lists(st.integers(0, 999), min_size=1, max_size=3),
)
@_SLOW
def test_fault_free_base_move_chains_match_cold(n, nodes, seed, picks):
    """NFT base: k = 0, so every move is a remap."""
    _walk_move_chain(n, nodes, 0, seed, picks, 1, ())
