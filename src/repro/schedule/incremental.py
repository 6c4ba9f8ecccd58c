"""Incremental (delta) re-scheduling around a captured base schedule.

The optimizer's neighbourhood moves change one process's mapping/policy;
the rest of the design is untouched.  A cold list-scheduling pass therefore
re-derives mostly identical rows.  This module captures one base schedule
as an :class:`EvalContext` — the sealed record plus the per-step trace and
periodic :class:`~repro.schedule.state.SchedulerSnapshot`s — and replays
*moved* variants against it:

1. **Graph overlay** — :func:`repro.model.ftgraph.ft_graph_with_move`
   rebuilds only the moved process's cone of the FT graph, sharing every
   untouched object with the base by reference.
2. **Prefix resume** — instances whose parameters and priorities are
   unchanged are popped in the base order until the first rank at which a
   changed instance *could* become ready (its base ready rank).  The replay
   restores the deepest snapshot strictly below that rank instead of
   re-scheduling the prefix.
3. **Suffix clean-copy** — after the divergence rank the replay still pops
   from a live heap (order may differ), but an instance whose inputs are
   provably unaffected — senders value-clean with unchanged parameters,
   the MEDL descriptors it reads byte-identical, the same chain predecessor
   with an equal tail row — appends its base placement-log entry verbatim
   instead of re-running the release/worst-case machinery.  With clean
   inputs but a different chain tail, only the chain DP re-runs, on the
   base release row.  Bus packs are copied via a
   per-node cursor into the base pack sequence for as long as a node's pack
   stream matches the base exactly; the first mismatch switches that node
   to live first-fit packing forever.
4. **Convergence** — a recomputed instance whose rows come out equal to the
   base re-enters the clean set, so divergence cones close instead of
   poisoning everything downstream.

A replay builds no record: placements go to the state's placement log,
and :meth:`~repro.schedule.state.SchedulerState.seal` turns the log into a
record only for the candidate the search realizes.  The context's static
tables — per-instance placement constants
(:func:`~repro.schedule.state.instance_static`), the per-instance
:attr:`EvalContext.replay_table` and the base completions — are built
once at capture; a candidate rebuilds only the moved process's constants.
Pricing reads :meth:`~repro.schedule.state.SchedulerState.cost_view`,
which reuses the base completion of every process the replay did not
recompute.

Byte-identity is the contract: the sealed delta record must equal the cold
``build_schedule_record`` of the moved implementation *exactly* (the
property suite in ``tests/opt/test_delta_parity.py`` enforces it, and
DESIGN.md documents the argument).  Whenever a precondition cannot be
established the kernel silently degrades to recomputation — the worst case
is a full replay, never a wrong record.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from repro.model.application import ProcessGraph
from repro.model.fault import FaultModel
from repro.model.ftgraph import FTGraph, ft_graph_with_move
from repro.model.mapping import ReplicaMapping
from repro.model.policy import PolicyAssignment
from repro.schedule.record import ScheduleRecord
from repro.schedule.state import (
    InstanceStatic,
    LogEntry,
    SchedulerSnapshot,
    SchedulerState,
    ScheduleTrace,
    instance_static,
)
from repro.ttp.bus import BusConfig


@dataclass(frozen=True, slots=True)
class MoveCone:
    """The schedule region a single-process design change can reach.

    ``earliest_rank`` is the deepest base placement rank guaranteed to be
    unaffected: every instance whose parameters or priority the move
    changes first becomes ready at or after it, so the base schedule's
    prefix below that rank is byte-reusable.  ``changed`` lists the
    instance ids with changed parameters or priorities (the cone's seeds —
    divergence may spread further during replay, which the kernel tracks
    dynamically).
    """

    process: str
    earliest_rank: int
    changed: frozenset[str]


@dataclass(slots=True)
class DeltaStats:
    """Work accounting of one delta replay (for benchmarks/telemetry)."""

    resumed_rank: int
    copied: int
    recomputed: int

    @property
    def scheduled(self) -> int:
        return self.copied + self.recomputed


class EvalContext:
    """One base schedule, captured with everything delta replays need."""

    __slots__ = (
        "graph",
        "ft",
        "faults",
        "bus",
        "priorities",
        "record",
        "trace",
        "statics",
        "replay_table",
        "completions",
        "no_recovery_rows",
        "base_index",
        "medl_by_id",
        "snapshots",
        "_snapshot_ranks",
        "_ancestors",
        "_pricer",
    )

    def __init__(
        self,
        graph: ProcessGraph,
        ft: FTGraph,
        faults: FaultModel,
        bus: BusConfig,
        priorities: dict[str, float],
        record: ScheduleRecord,
        trace: ScheduleTrace,
        statics: dict[str, InstanceStatic],
        log: list[LogEntry],
        no_recovery_rows: dict[str, tuple[float, ...]],
        medl_by_id: dict,
        snapshots: list[tuple[int, SchedulerSnapshot, dict[str, int]]],
    ) -> None:
        self.graph = graph
        self.ft = ft
        self.faults = faults
        self.bus = bus
        self.priorities = priorities
        self.record = record
        self.trace = trace
        # Per-instance placement constants; a candidate rebuilds only the
        # moved process's entries.
        self.statics = statics
        self.completions = dict(zip(record.processes, record.completions))
        self.no_recovery_rows = no_recovery_rows
        self.medl_by_id = medl_by_id
        self.snapshots = snapshots
        self._snapshot_ranks = [rank for rank, _, _ in snapshots]
        self._ancestors: dict[str, tuple[str, ...]] = {}
        self._pricer = None

        ids = record.instance_ids
        self.base_index = {iid: index for index, iid in enumerate(ids)}

        tail_rows = trace.tail_rows
        chain_pred_tail: dict[str, tuple[float, ...] | None] = {}
        for chain in record.node_chains:
            prev: int | None = None
            for index in chain:
                chain_pred_tail[ids[index]] = (
                    None if prev is None else tail_rows[ids[prev]]
                )
                prev = index

        # Everything a replay reads about one base instance, in one tuple:
        # ``(senders, desc_ids, chain_pred_tail, log_entry, no_recovery_row,
        # tail_row, release)``.  The read sets are taken against the *base*
        # graph — which sender instances and which MEDL descriptors its
        # release row consults — and are valid for every instance the
        # overlay shares with the base (the moved process's own instances
        # never take the copy path).  ``chain_pred_tail`` is the base tail
        # row of its chain predecessor (``None`` when it heads its chain).
        entries = {entry[0]: entry for entry in log}
        releases = trace.releases
        table: dict[str, tuple] = {}
        instances = ft.instances
        bus_messages = ft.bus_messages
        for iid, inst in instances.items():
            senders: list[str] = []
            desc_ids: list[str] = []
            for group in ft.inputs_of(iid):
                message_name = group.message.name
                replicated = len(group.sources) > 1
                for src_iid in group.sources:
                    senders.append(src_iid)
                    if instances[src_iid].node == inst.node:
                        continue
                    fast_id = f"{message_name}[{src_iid}]"
                    desc_ids.append(fast_id)
                    if replicated and f"{fast_id}#g" in bus_messages:
                        desc_ids.append(f"{fast_id}#g")
            table[iid] = (
                tuple(senders),
                tuple(desc_ids),
                chain_pred_tail[iid],
                entries[iid],
                no_recovery_rows[iid],
                tail_rows[iid],
                releases[iid],
            )
        self.replay_table = table

    # -- capture -----------------------------------------------------------

    @classmethod
    def capture(
        cls,
        graph: ProcessGraph,
        ft: FTGraph,
        faults: FaultModel,
        bus: BusConfig,
        *,
        stride: int | None = None,
    ) -> "EvalContext":
        """Run one traced cold schedule, snapshotting every ``stride`` ranks.

        The sealed record is byte-identical to an untraced
        ``build_schedule_record`` — tracing only observes.
        """
        if stride is None:
            # Denser snapshots help small problems (every restore skips
            # more of the prefix proportionally); for big ones the snapshot
            # copies themselves would dominate, so space them out.
            stride = max(8, len(ft) // 8)
        trace = ScheduleTrace()
        state = SchedulerState(graph, ft, faults, bus, trace=trace)
        snapshots: list[tuple[int, SchedulerSnapshot, dict[str, int]]] = []
        pack = trace.pack
        while not state.done:
            rank = state.rank
            if rank % stride == 0:
                counts = {node: len(seq) for node, seq in pack.items()}
                snapshots.append((rank, state.snapshot(), counts))
            state.step()
        record = state.seal()
        return cls(
            graph=graph,
            ft=ft,
            faults=faults,
            bus=bus,
            priorities=state.priorities,
            record=record,
            trace=trace,
            statics=state.statics,
            log=state.log,
            no_recovery_rows=state.no_recovery_rows,
            medl_by_id=state.bus_scheduler.medl.by_id(),
            snapshots=snapshots,
        )

    # -- cone --------------------------------------------------------------

    def cone_of(
        self,
        moved_ft: FTGraph,
        moved_priorities: dict[str, float],
        process: str,
    ) -> MoveCone:
        """Exact impact cone of a single-process change (see Move.cone)."""
        ready_rank = self.trace.ready_rank
        base_priorities = self.priorities
        changed: set[str] = set(self.ft.group_of[process])
        changed.update(moved_ft.group_of[process])
        # Every replica of the process shares its predecessors, so one
        # representative's base ready rank bounds them all (new replicas
        # included — they become ready exactly when the base ones did).
        earliest = ready_rank[self.ft.group_of[process][0]]
        for iid, priority in moved_priorities.items():
            base = base_priorities.get(iid)
            if base is not None and base != priority:
                changed.add(iid)
                rank = ready_rank[iid]
                if rank < earliest:
                    earliest = rank
        # Moving a process also changes which nodes *receive* its input
        # messages, which can create or remove frames of its predecessor
        # senders (a frame exists only if some receiver is remote).  Those
        # frames are packed at the sender's placement rank — possibly far
        # inside the otherwise-unaffected prefix — so a changed frame set
        # bounds the cone at the sender's placement, not its values.
        base_index = self.base_index
        base_out = self.ft._out_bus
        moved_out = moved_ft._out_bus
        for message in self.graph.in_messages(process):
            for src_iid in self.ft.group_of[message.src]:
                before = base_out.get(src_iid)
                after = moved_out.get(src_iid)
                if before is after:
                    continue
                if [m.id for m in before or ()] != [m.id for m in after or ()]:
                    changed.add(src_iid)
                    rank = base_index[src_iid]
                    if rank < earliest:
                        earliest = rank
        return MoveCone(
            process=process,
            earliest_rank=earliest,
            changed=frozenset(changed),
        )

    # -- incremental priorities --------------------------------------------

    def _ancestor_instances(self, process: str) -> tuple[str, ...]:
        """Instances of ``process``'s graph ancestors, descendants first.

        The order is a filtered reversal of the base placement order — a
        valid topological order of the instance DAG, so each ancestor is
        visited only after every affected successor.  Replica-count changes
        on ``process`` never alter *which* processes are its ancestors, so
        the tuple is cached per process across moves.
        """
        cached = self._ancestors.get(process)
        if cached is None:
            ancestor_procs: set[str] = set()
            stack = [process]
            in_messages = self.graph.in_messages
            while stack:
                for message in in_messages(stack.pop()):
                    src = message.src
                    if src not in ancestor_procs:
                        ancestor_procs.add(src)
                        stack.append(src)
            group_of = self.ft.group_of
            member = {
                iid for proc in ancestor_procs for iid in group_of[proc]
            }
            cached = tuple(
                iid
                for iid in reversed(self.record.instance_ids)
                if iid in member
            )
            self._ancestors[process] = cached
        return cached

    def moved_priorities(
        self, moved_ft: FTGraph, process: str
    ) -> dict[str, float]:
        """PCP priorities of the moved design, recomputed incrementally.

        Only the moved process's instances and their ancestors can change
        priority (a non-ancestor's longest path to a sink never runs
        through the moved process), so the base mapping is copied and just
        those entries are recomputed — with the exact arithmetic of
        :func:`repro.schedule.priorities.pcp_priorities`, so every value is
        bit-equal to a full recomputation on ``moved_ft``.
        """
        priorities = dict(self.priorities)
        for iid in self.ft.group_of[process]:
            del priorities[iid]
        mu = self.faults.mu
        round_length = self.bus.round_length
        instances = moved_ft.instances
        succ_of = moved_ft._succ
        for iid in (
            *moved_ft.group_of[process],
            *self._ancestor_instances(process),
        ):
            instance = instances[iid]
            weight = (
                instance.wcet * (1 + instance.reexecutions)
                + instance.reexecutions * mu
            )
            best_tail = 0.0
            for succ in succ_of[iid]:
                edge = (
                    round_length
                    if instances[succ].node != instance.node
                    else 0.0
                )
                tail = edge + priorities[succ]
                if tail > best_tail:
                    best_tail = tail
            priorities[iid] = weight + best_tail
        return priorities

    def _moved_priorities_batch(
        self, fts: list[FTGraph], process: str
    ) -> list[dict[str, float]]:
        """:meth:`moved_priorities` for many overlays of one process at once.

        All overlays share the ancestor closure and visit order, every
        ancestor's PCP weight is computed once, and non-parent ancestors —
        whose successor lists the overlays share with the base by
        reference — fold their per-overlay tails as ``(G,)`` numpy maxima.
        Values are bit-equal to the scalar path: float ``max`` is
        order-independent-exact and the ``edge + priority`` /
        ``weight + best`` additions are the same float64 ops elementwise.
        """
        count = len(fts)
        mu = self.faults.mu
        round_length = self.bus.round_length
        base_priorities = self.priorities
        base_instances = self.ft.instances
        old_group = self.ft.group_of[process]
        parent_processes = {
            message.src for message in self.graph.in_messages(process)
        }

        # Per-overlay new-group priorities: group sizes differ per overlay
        # and successors keep base priorities, so this part stays scalar.
        group_priorities: list[dict[str, float]] = []
        for ft in fts:
            instances = ft.instances
            succ_of = ft._succ
            values: dict[str, float] = {}
            for iid in ft.group_of[process]:
                instance = instances[iid]
                weight = (
                    instance.wcet * (1 + instance.reexecutions)
                    + instance.reexecutions * mu
                )
                best_tail = 0.0
                for succ in succ_of[iid]:
                    edge = (
                        round_length
                        if instances[succ].node != instance.node
                        else 0.0
                    )
                    tail = edge + base_priorities[succ]
                    if tail > best_tail:
                        best_tail = tail
                values[iid] = weight + best_tail
            group_priorities.append(values)

        # Ancestors in the cached topological order (descendants first).
        vectors: dict[str, np.ndarray] = {}
        for iid in self._ancestor_instances(process):
            instance = base_instances[iid]
            weight = (
                instance.wcet * (1 + instance.reexecutions)
                + instance.reexecutions * mu
            )
            node = instance.node
            if instance.process not in parent_processes:
                # Successor list shared with the base by reference: one
                # scan, vectorized over the overlays.
                best = np.zeros(count)
                for succ in self.ft._succ[iid]:
                    edge = (
                        round_length
                        if base_instances[succ].node != node
                        else 0.0
                    )
                    vector = vectors.get(succ)
                    if vector is None:
                        np.maximum(
                            best, edge + base_priorities[succ], out=best
                        )
                    else:
                        np.maximum(best, edge + vector, out=best)
                vectors[iid] = weight + best
            else:
                # Direct parent: its successor list was rebuilt per overlay
                # (it references the moved group), so fold per overlay.
                best = np.empty(count)
                for g, ft in enumerate(fts):
                    instances = ft.instances
                    best_tail = 0.0
                    group_values = group_priorities[g]
                    for succ in ft._succ[iid]:
                        edge = (
                            round_length
                            if instances[succ].node != node
                            else 0.0
                        )
                        vector = vectors.get(succ)
                        if vector is not None:
                            tail = edge + float(vector[g])
                        else:
                            value = group_values.get(succ)
                            if value is None:
                                value = base_priorities[succ]
                            tail = edge + value
                        if tail > best_tail:
                            best_tail = tail
                    best[g] = best_tail
                vectors[iid] = weight + best

        results: list[dict[str, float]] = []
        for g in range(count):
            priorities = dict(base_priorities)
            for iid in old_group:
                del priorities[iid]
            priorities.update(group_priorities[g])
            for iid, vector in vectors.items():
                priorities[iid] = float(vector[g])
            results.append(priorities)
        return results

    # -- delta replay ------------------------------------------------------

    def plan_move(
        self,
        policies: PolicyAssignment,
        mapping: ReplicaMapping,
        process: str,
    ) -> tuple[FTGraph, dict[str, float], MoveCone]:
        """Overlay graph, incremental priorities and impact cone of a move."""
        ft = ft_graph_with_move(
            self.ft, self.graph, policies, mapping, self.faults, process
        )
        priorities = self.moved_priorities(ft, process)
        return ft, priorities, self.cone_of(ft, priorities, process)

    def plan_moves(
        self,
        candidates: list[tuple[PolicyAssignment, ReplicaMapping, str]],
    ) -> list[tuple[FTGraph, dict[str, float], MoveCone]]:
        """:meth:`plan_move` for a whole neighbourhood, sharing per-process
        work: moves of the same process batch their ancestor-closure
        priority recomputation (:meth:`_moved_priorities_batch`) instead of
        redoing it per move.  Result order matches ``candidates``; every
        plan is bit-equal to its scalar :meth:`plan_move` counterpart.
        """
        by_process: dict[str, list[int]] = {}
        for index, (_, _, process) in enumerate(candidates):
            by_process.setdefault(process, []).append(index)
        results: list = [None] * len(candidates)
        for process, indices in by_process.items():
            fts = [
                ft_graph_with_move(
                    self.ft,
                    self.graph,
                    candidates[index][0],
                    candidates[index][1],
                    self.faults,
                    process,
                )
                for index in indices
            ]
            if len(indices) < 4:
                # Too few moves on this process to amortize the batched
                # setup; the scalar path is cheaper.
                for index, ft in zip(indices, fts):
                    priorities = self.moved_priorities(ft, process)
                    results[index] = (
                        ft,
                        priorities,
                        self.cone_of(ft, priorities, process),
                    )
            else:
                for index, ft, priorities in zip(
                    indices, fts, self._moved_priorities_batch(fts, process)
                ):
                    results[index] = (
                        ft,
                        priorities,
                        self.cone_of(ft, priorities, process),
                    )
        return results

    def pricer(self):
        """The lazily built vector pricing kernel over this base context.

        Imported on first use: :mod:`repro.schedule.vector` is only needed
        by the ranking tier, and the import indirection keeps the module
        graph acyclic.
        """
        pricer = self._pricer
        if pricer is None:
            from repro.schedule.vector import NeighbourhoodPricer

            pricer = self._pricer = NeighbourhoodPricer(self)
        return pricer

    def delta_record(
        self,
        policies: PolicyAssignment,
        mapping: ReplicaMapping,
        process: str,
    ) -> tuple[ScheduleRecord, DeltaStats]:
        """Schedule the moved design by replaying against the base.

        ``policies``/``mapping`` must differ from the base implementation
        only in ``process``.  Returns the sealed record — byte-identical
        to a cold schedule of the moved design — plus replay statistics.
        """
        state, stats = self.delta_schedule(policies, mapping, process)
        return state.seal(), stats

    def delta_schedule(
        self,
        policies: PolicyAssignment,
        mapping: ReplicaMapping,
        process: str,
        plan: tuple[FTGraph, dict[str, float], MoveCone] | None = None,
    ) -> tuple[SchedulerState, DeltaStats]:
        """Replay the moved design; returns the completed, *unsealed* state.

        Callers that only price a candidate read
        :meth:`SchedulerState.cost_view` off the returned state and skip
        sealing entirely; the winner of a neighbourhood is sealed once.
        ``plan`` short-circuits the overlay/priorities/cone computation
        when the caller already planned the move (:meth:`plan_moves`).
        """
        graph = self.graph
        faults = self.faults
        ft, priorities, cone = (
            self.plan_move(policies, mapping, process)
            if plan is None
            else plan
        )
        old_group = self.ft.group_of[process]
        new_group = ft.group_of[process]
        statics = dict(self.statics)
        for iid in old_group:
            del statics[iid]
        for iid in new_group:
            statics[iid] = instance_static(ft.instances[iid], faults.mu)

        cursors: dict[str, int] = {}
        # Deepest snapshot strictly below the cone: at any rank < earliest
        # no changed instance is in the heap yet (its base ready rank is
        # >= earliest), so the base heap/arrays restore verbatim.
        slot = bisect_right(self._snapshot_ranks, cone.earliest_rank - 1) - 1
        if slot < 0:
            state = SchedulerState(
                graph, ft, faults, self.bus,
                priorities=priorities, statics=statics,
            )
            resumed = 0
        else:
            resumed, snapshot, pack_counts = self.snapshots[slot]
            state = SchedulerState(
                graph, ft, faults, self.bus,
                priorities=priorities, statics=statics, resume=snapshot,
            )
            cursors.update(pack_counts)
            remaining = state.remaining
            grew = len(new_group) - len(old_group)
            if grew:
                if grew > 0:
                    # New replicas share the base replicas' predecessors,
                    # none of which are placed in the prefix (the process
                    # itself only becomes ready at/after the cone rank) —
                    # so the pending count transfers verbatim.
                    seed = remaining[old_group[0]]
                    for iid in new_group[len(old_group):]:
                        remaining[iid] = seed
                else:
                    for iid in old_group[len(new_group):]:
                        del remaining[iid]
                # Each successor's pending count grows by the group delta
                # exactly once, even when several distinct messages connect
                # the moved process to the same successor — the instance
                # DAG dedupes (src, dst) pairs.
                for dst in {m.dst for m in graph.out_messages(process)}:
                    for iid in ft.group_of[dst]:
                        remaining[iid] += grew
        stats = self._replay(state, ft, cone, cursors, resumed)
        return state, stats

    def _replay(
        self,
        state: SchedulerState,
        ft: FTGraph,
        cone: MoveCone,
        cursors: dict[str, int],
        resumed: int,
    ) -> DeltaStats:
        """Drive ``state`` to completion with base-copy fast paths.

        A copied instance appends its base log entry; a recomputed one runs
        the state's fused placement step.  Neither builds record rows: the
        log is sealed only if the candidate is realized.
        """
        table = self.replay_table
        base_pack = self.trace.pack
        base_medl = self.medl_by_id

        place = state.place
        fast_ready_of = state.fast_ready
        statics = state.statics
        log = state.log
        tails = state.tails
        bus_scheduler = state.bus_scheduler
        ready = state.ready
        remaining = state.remaining
        priorities = state.priorities
        root_finish = state.root_finish
        no_recovery_rows = state.no_recovery_rows
        succ_of = ft._succ
        out_bus = ft._out_bus

        # Instances whose *parameters* changed never copy and keep their
        # readers dirty; value-dirtiness additionally spreads to any
        # instance whose recomputed rows differ from the base, and clears
        # again on convergence.
        param_dirty = frozenset(
            set(self.ft.group_of[cone.process]) | set(ft.group_of[cone.process])
        )
        dirty_values: set[str] = set(param_dirty)
        dirty_desc: set[str] = set()
        pack_dirty: set[str] = set()  # nodes whose pack stream diverged
        # Processes with a recomputed instance: only their completions can
        # differ from the base's.
        stale: set[str] = set()

        copied = 0
        recomputed = 0

        while ready:
            _, iid = heappop(ready)
            static = statics[iid]
            node = static[0]
            base = None if iid in param_dirty else table[iid]

            copy = False
            released = None
            if base is not None and dirty_values.isdisjoint(base[0]) and (
                not dirty_desc or dirty_desc.isdisjoint(base[1])
            ):
                # Inputs as in the base: so is the release row, and the
                # rows too if the chain predecessor's tail is.
                released = base[6]
                pred_tail = base[2]
                if pred_tail is None:
                    copy = node not in tails
                else:
                    copy = tails.get(node) == pred_tail

            if copy:
                copied += 1
                entry = base[3]
                log.append(entry)
                finish_row = entry[1]
                root_finish[iid] = finish_row[0]
                no_recovery_rows[iid] = base[4]
                tails[node] = base[5]
            else:
                recomputed += 1
                stale.add(static[6])
                finish_row, no_recovery_row, tail_row = place(
                    iid, static, released
                )
                # Convergence: rows identical to the base make this
                # instance transparent to its readers again.
                if base is not None:
                    if (
                        finish_row == base[3][1]
                        and no_recovery_row == base[4]
                        and tail_row == base[5]
                    ):
                        dirty_values.discard(iid)
                    else:
                        dirty_values.add(iid)

            outgoing = out_bus.get(iid)
            if outgoing:
                wcf = finish_row[-1]
                pack_ok = node not in pack_dirty
                sequence = base_pack.get(node, ())
                cursor = cursors.get(node, 0)
                for bus_message in outgoing:
                    data_ready = (
                        fast_ready_of(iid, static, finish_row)
                        if bus_message.kind == "fast"
                        else wcf
                    )
                    bid = bus_message.id
                    if (
                        pack_ok
                        and cursor < len(sequence)
                        and sequence[cursor][0] == bid
                        and sequence[cursor][1] == data_ready
                    ):
                        bus_scheduler.copy_descriptor(base_medl[bid])
                        cursor += 1
                        continue
                    if pack_ok:
                        pack_ok = False
                        pack_dirty.add(node)
                    descriptor = bus_scheduler.schedule_message(
                        bid, node, bus_message.message.size, data_ready
                    )
                    # Field-wise divergence check: slot times derive from
                    # (sender node, round) and the payload size is fixed per
                    # message, so three fields decide descriptor equality.
                    base_desc = base_medl.get(bid)
                    if (
                        base_desc is None
                        or base_desc.round_index != descriptor.round_index
                        or base_desc.offset_bytes != descriptor.offset_bytes
                        or base_desc.sender_node != descriptor.sender_node
                    ):
                        dirty_desc.add(bid)
                cursors[node] = cursor

            for succ in succ_of[iid]:
                count = remaining[succ] - 1
                remaining[succ] = count
                if count == 0:
                    heappush(ready, (-priorities[succ], succ))

        state.clean_completions = {
            process: completion
            for process, completion in self.completions.items()
            if process not in stale
        }
        return DeltaStats(
            resumed_rank=resumed, copied=copied, recomputed=recomputed
        )
