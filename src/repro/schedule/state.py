"""The list scheduler's mutable core, exposed as a snapshotable state machine.

:class:`SchedulerState` owns every piece of mutable state the fault-tolerant
list scheduler (paper §5.1, Fig. 6) advances per placement step:

* the ready heap and per-instance predecessor countdowns,
* the *placement log* — one ``(iid, finish_row, binding_kind, source,
  budget)`` tuple per placement, in placement order,
* the per-node chain tails of the worst-case analysis,
* the bus scheduler's slot fill levels and MEDL,
* the per-instance ``root_finish`` / ``no_recovery_row`` maps feeding later
  release computations.

``step()`` places exactly one instance (one iteration of the Fig. 6 loop);
``run()`` drives the schedule to completion; ``seal()`` turns the log into
the :class:`~repro.schedule.record.ScheduleRecord`.  Placing does no record
work at all — no id interning, no chain lists, no index resolution — so a
pass that is only *priced* (:meth:`SchedulerState.cost_view`) never pays
for a record it would throw away.

One placement is one fused step (:meth:`SchedulerState.place`): the
guaranteed release row (:func:`guaranteed_release`) and the chain DP
(:func:`repro.schedule.analysis.chain_rows`) over per-instance constant
tuples (:func:`instance_static`), built once per FT graph.
:func:`release_row` and
:meth:`repro.schedule.analysis.WorstCaseAnalyzer.place` are thin
object-level entry points to the same two halves.

The split exists for the incremental evaluation kernel
(:mod:`repro.schedule.incremental`): every field is a flat dict/list over
immutable values, so :meth:`SchedulerState.snapshot` captures the whole
machine at a process-rank boundary in O(state) shallow copies and
a state constructed with ``resume=snapshot`` starts from it, letting a
re-schedule resume from the deepest prefix unaffected by a design change
instead of starting cold.  The snapshot contract is documented in DESIGN.md.

With ``trace=ScheduleTrace()`` the state additionally records the per-step
facts the delta kernel needs to decide, during a later replay, whether an
instance's base rows can be copied verbatim: the rank at which each instance
became ready, its release and chain tail rows, and each node's bus pack
sequence.
"""

from __future__ import annotations

import functools
import heapq
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.model.application import ProcessGraph
from repro.model.fault import FaultModel
from repro.model.ftgraph import FTGraph, InputGroup, Instance
from repro.obs.metrics import get_registry
from repro.schedule.analysis import (
    chain_rows,
    group_survivor_indices,
    guaranteed_completion,
)
from repro.schedule.priorities import pcp_priorities
from repro.schedule.record import (
    BIND_INPUT,
    BIND_NODE,
    BIND_RELEASE,
    ScheduleRecord,
)
from repro.ttp.bus import BusConfig
from repro.ttp.medl import MessageDescriptor
from repro.ttp.schedule import BusScheduler

#: Bound of the :func:`replicated_group_arrivals` memo.  On the cruise
#: controller searches (NFT, MXR, MR), 1024 entries serve 86% of the
#: replicated-group pricings from the memo (4096 entries: 90%, for about
#: 3 MB more peak memory).
GROUP_ARRIVALS_CACHE_SIZE = 1024

#: Per-instance constants of the placement step (see :func:`instance_static`).
InstanceStatic = tuple[str, int, float, int, float, float, str]


def instance_static(instance: Instance, mu: float) -> InstanceStatic:
    """The constants one placement step reads about ``instance``.

    ``(node, kill_cost, step, reexecutions, wcet, release, process)`` where
    ``step`` is one recovery's duration plus ``mu`` (the checkpointing
    extension re-runs one segment only).  The tuple replaces attribute and
    property lookups on :class:`Instance` in the scheduler's inner loops.
    """
    return (
        instance.node,
        instance.kill_cost,
        instance.recovery_unit + mu,
        instance.reexecutions,
        instance.wcet,
        instance.release,
        instance.process,
    )


def instance_statics(
    instances: dict[str, Instance], mu: float
) -> dict[str, InstanceStatic]:
    """:func:`instance_static` of every instance, keyed by instance id."""
    return {iid: instance_static(inst, mu) for iid, inst in instances.items()}


def group_release_inputs(
    group: InputGroup,
    node: str,
    statics: dict[str, InstanceStatic],
    root_finish: dict[str, float],
    no_recovery_rows: dict[str, tuple[float, ...]],
    medl_by_id: dict[str, MessageDescriptor],
    owner: str,
    missing: list | None = None,
):
    """Classify one input group's senders for release pricing.

    This is the single source of truth for the local/masked/fast sender
    classification both release paths share: :func:`guaranteed_release`
    below and the vectorized kernel in :mod:`repro.schedule.vector` (which
    additionally prices *hypothetical* receiver nodes against base-schedule
    mirrors, so classification drift between the two would silently break
    the vector tier's error bounds).  ``statics`` maps each sender to its
    :func:`instance_static` tuple.

    Returns ``(immune, fast_senders)``:

    * ``immune`` — ``(arrival, kill_cost, src_iid)`` entries whose price
      does not depend on the shared delay budget: local finishes and
      masked frames fall only with their sender.
    * ``fast_senders`` — ``(slot_start, slot_end, guaranteed_slot_end |
      None, no_recovery_row, recovery_step, reexecutions, kill_cost,
      src_iid)`` per replicated remote sender.

    A sender whose fast frame has no MEDL descriptor is an error on the
    live scheduling path (``missing=None`` raises, bus scheduling out of
    sync with the FT graph); the vector estimator passes a list instead
    and receives ``(src_iid, fast_id, guaranteed_id, replicated)`` tuples
    to price with *estimated* slots (the frame would only exist in the
    moved design).
    """
    immune: list[tuple[float, int, str]] = []
    fast_senders: list[
        tuple[float, float, float | None, tuple[float, ...], float, int, int, str]
    ] = []
    frame_ids = group.frame_ids
    replicated = len(frame_ids) > 1
    for src_iid, fast_id, guaranteed_id in frame_ids:
        src_node, kill_cost, step, reexec = statics[src_iid][:4]
        if src_node == node:
            # Local input: delays of the local chain are handled by the
            # node DP, so only the terminal kill removes this entry.
            immune.append((root_finish[src_iid], kill_cost, src_iid))
            continue
        descriptor = medl_by_id.get(fast_id)
        if descriptor is None:
            if missing is None:
                raise _missing_frame(fast_id, owner)
            missing.append((src_iid, fast_id, guaranteed_id, replicated))
            continue
        if not replicated:
            # Masked frame: slot lies after the sender's WCF, so within
            # budget k only a terminal kill (impossible for a sole
            # replica of a valid policy) removes it.
            immune.append((descriptor.slot_end, kill_cost, src_iid))
        else:
            guaranteed = medl_by_id.get(guaranteed_id)
            fast_senders.append(
                (
                    descriptor.slot_start,
                    descriptor.slot_end,
                    None if guaranteed is None else guaranteed.slot_end,
                    no_recovery_rows[src_iid],
                    step,
                    reexec,
                    kill_cost,
                    src_iid,
                )
            )
    return immune, fast_senders


def _missing_frame(fast_id: str, owner: str) -> SchedulingError:
    return SchedulingError(
        f"no MEDL entry for bus message {fast_id!r} while releasing "
        f"{owner!r} (bus scheduling out of sync with the FT graph)"
    )


def release_row(
    ft: FTGraph,
    iid: str,
    faults: FaultModel,
    root_finish: dict[str, float],
    no_recovery_rows: dict[str, tuple[float, ...]],
    medl_by_id: dict[str, MessageDescriptor],
) -> tuple[list[float], list[str | None]]:
    """:func:`guaranteed_release` of instance ``iid`` of ``ft``.

    Object-level entry point for tests and tools; the scheduler calls
    :func:`guaranteed_release` with its precomputed constants.
    """
    instances = ft.instances
    instance = instances[iid]
    inputs = ft.inputs_of(iid)
    statics = {
        src: instance_static(instances[src], faults.mu)
        for group in inputs
        for src in group.sources
    }
    return guaranteed_release(
        inputs, instance.node, instance.release, statics, faults.k,
        root_finish, no_recovery_rows, medl_by_id, iid,
    )


def guaranteed_release(
    inputs: tuple[InputGroup, ...],
    node: str,
    release: float,
    statics: dict[str, InstanceStatic],
    k: int,
    root_finish: dict[str, float],
    no_recovery_rows: dict[str, tuple[float, ...]],
    medl_by_id: dict[str, MessageDescriptor],
    owner: str,
) -> tuple[list[float], list[str | None]]:
    """Guaranteed release per adversary budget, plus per-budget sources.

    ``rel_row[c]`` is the latest guaranteed availability of all inputs when
    the adversary may spend ``c`` faults invalidating input messages;
    ``rel_row[0]`` is the fault-free (root) release.  ``sources[c]`` names
    the sender instance whose (possibly contingency) arrival dominates at
    budget ``c`` — the critical-path extraction follows these links — or
    ``None`` when the release time itself dominates.

    Adversary model (shared upstream delays + per-sender faults)
    ------------------------------------------------------------
    A sender replica's frames can be invalidated three ways, and their
    costs compose differently:

    * **shared delay** — faults that are *not* on the sender itself (its
      inputs, its node chain) push the sender's no-recovery row past its
      fast slot's start.  Such delays *correlate*: replicas of a group
      share predecessors, so one upstream fault may delay every replica
      past its slot simultaneously.  The model spends a single shared
      budget ``d`` whose effect applies to **all** senders at once.
    * **own recoveries** — ``t`` failed attempts on the sender delay it by
      ``t * (recovery + mu)`` on top of the shared delay.  Faults on
      distinct instances are disjoint, so these are priced per sender,
      like (partial) kills.
    * **kill** — ``kill_cost`` faults on the sender terminate it, removing
      *all* its frames; the guaranteed twin therefore costs only the
      *remaining* kills after the fast frame was silenced.

    ``rel_row[c]`` maximizes over every split ``c = d + (c - d)``: given
    ``d``, each fast frame's silencing price is the cheaper of the own
    recoveries still needed (0 if the shared delay alone misses the slot)
    and the outright kill; guaranteed/masked slots lie after the sender's
    WCF and local inputs are covered by the node DP, so only kills remove
    them.  The greedy earliest-first argument of
    :func:`group_survivor_indices` then spends the remaining ``c - d``
    faults.  Enough replicas carry a guaranteed twin that their combined
    kill price out-lasts every split's kill budget
    (``ftgraph._guaranteed_backed``).  Soundness: any concrete <= c fault
    scenario splits into faults on group senders (covered by the per-
    sender prices) and faults elsewhere (covered by some ``d``); budget 0
    reproduces the fault-free fast arrivals exactly.
    """
    rel_row = [release] * (k + 1)
    sources: list[str | None] = [None] * (k + 1)
    budgets = range(k + 1)

    for group in inputs:
        frame_ids = group.frame_ids
        if len(frame_ids) == 1:
            # Single-source group (the common case): a local finish or a
            # masked frame, which survives every budget
            # (`group_survivor_indices` pins index 0), so the breakpoint
            # scan below would only rediscover it.
            src_iid, fast_id, _ = frame_ids[0]
            if statics[src_iid][0] == node:
                arrival = root_finish[src_iid]
            else:
                descriptor = medl_by_id.get(fast_id)
                if descriptor is None:
                    raise _missing_frame(fast_id, owner)
                arrival = descriptor.slot_end
            for c in budgets:
                if arrival > rel_row[c]:
                    rel_row[c] = arrival
                    sources[c] = src_iid
            continue

        immune, fast_senders = group_release_inputs(
            group, node, statics, root_finish, no_recovery_rows,
            medl_by_id, owner,
        )

        arrivals = replicated_group_arrivals(
            tuple(immune), tuple(fast_senders), k
        )
        for c in budgets:
            arrival, src_iid = arrivals[c]
            if arrival > rel_row[c]:
                rel_row[c] = arrival
                sources[c] = src_iid
    return rel_row, sources


@functools.lru_cache(maxsize=GROUP_ARRIVALS_CACHE_SIZE)
def replicated_group_arrivals(
    immune: tuple[tuple[float, int, str], ...],
    fast_senders: tuple[tuple, ...],
    k: int,
) -> tuple[tuple[float, str], ...]:
    """Guaranteed ``(arrival, sender)`` of one replicated input group per
    adversary budget ``0..k`` (the arguments are
    :func:`group_release_inputs`'s output, as tuples).

    Entry ``c`` is the latest survivor over every split of ``c`` faults
    into a shared delay ``d`` and kills (see :func:`guaranteed_release`);
    on equal arrivals the smallest ``d`` wins, so folding the entry into a
    release row with a strict ``>`` equals folding each split's survivor
    in turn.  The result depends on the arguments only, so it is memoized:
    a search prices the same group against the same sender rows and frames
    over and over.  Every time in a key is non-negative, so equal keys are
    bit-identical.
    """
    # Per sender, the fast frame's silencing price at every shared
    # budget d: own recoveries still needed to miss the slot on top of
    # the shared delay (beyond reexec only a kill silences).  The
    # price is non-increasing in d; a branch whose prices all equal
    # the previous d's is dominated by it (same entries, smaller kill
    # budget => an earlier survivor), so only the breakpoints where
    # some price drops need evaluating.
    fast_costs: list[list[int]] = []
    for (
        slot_start, _, _, row, step, reexec, kill_cost, _,
    ) in fast_senders:
        threshold = slot_start + 1e-9
        if reexec == 0:
            # Only the shared delay can miss the slot.
            fast_costs.append(
                [0 if delayed > threshold else kill_cost for delayed in row]
            )
            continue
        costs = []
        for d in range(k + 1):
            fast_cost = kill_cost
            delayed = row[d]
            for t in range(reexec + 1):
                if delayed > threshold:
                    fast_cost = t if t < kill_cost else kill_cost
                    break
                delayed += step
            costs.append(fast_cost)
        fast_costs.append(costs)
    breakpoints = [0]
    for d in range(1, k + 1):
        for costs in fast_costs:
            if costs[d] != costs[d - 1]:
                breakpoints.append(d)
                break

    best: list[tuple[float, str] | None] = [None] * (k + 1)
    for d in breakpoints:
        entries = list(immune)
        for costs, (
            _, slot_end, guaranteed_end, _, _, _, kill_cost, src_iid,
        ) in zip(fast_costs, fast_senders):
            fast_cost = costs[d]
            if fast_cost > 0:
                entries.append((slot_end, fast_cost, src_iid))
            if guaranteed_end is not None:
                # A kill removes both frames: after the fast one was
                # silenced, the twin costs the remaining kills (0 when
                # silencing already was a full kill).
                entries.append(
                    (guaranteed_end, kill_cost - fast_cost, src_iid)
                )
        # Survivors are tracked by *index*: on arrival-time ties a
        # value lookup would name the first tied sender, which may be
        # a replica the adversary already killed, corrupting
        # critical-path extraction.
        entries.sort()
        indices = group_survivor_indices(entries, k - d)
        for c in range(d, k + 1):
            survivor = entries[indices[c - d]]
            current = best[c]
            if current is None or survivor[0] > current[0]:
                best[c] = (survivor[0], survivor[2])
    return tuple(best)


@dataclass(slots=True)
class ScheduleTrace:
    """Per-step facts recorded during a full run for later delta replays.

    All maps are keyed by instance id.  ``ready_rank[iid]`` is the earliest
    placement rank at which ``iid`` could have been popped (0 for roots,
    otherwise one past the rank of its last-placed predecessor) — the delta
    kernel's divergence bound rewinds to the minimum ready rank over all
    affected instances.  ``releases`` holds each instance's
    :func:`guaranteed_release` result, which a replay reuses when the
    instance's senders and the frames it reads are unchanged but its chain
    predecessor is not.  ``pack`` holds each node's bus pack sequence as
    ``(bus_message_id, data_ready)`` pairs in pack order, which is what the
    replay compares against to reuse a base MEDL descriptor without
    re-running first-fit.
    """

    ready_rank: dict[str, int] = field(default_factory=dict)
    tail_rows: dict[str, tuple[float, ...]] = field(default_factory=dict)
    releases: dict[
        str, tuple[tuple[float, ...], tuple[str | None, ...]]
    ] = field(default_factory=dict)
    pack: dict[str, list[tuple[str, float]]] = field(default_factory=dict)


#: One placement in the log: ``(iid, finish_row, binding_kind, source_iid,
#: budget)``.  ``source_iid`` names the dominant input sender of a
#: ``BIND_INPUT`` binding and is ``None`` otherwise; :meth:`SchedulerState.seal`
#: resolves it (and a ``BIND_NODE`` binding's chain predecessor) to record
#: indices.
LogEntry = tuple[str, tuple[float, ...], int, str | None, int]


@dataclass(slots=True)
class SchedulerSnapshot:
    """All mutable scheduler state frozen at one placement-rank boundary.

    Every field is a fresh shallow container over immutable values (floats,
    tuples, descriptors), so restoring is plain re-copying — no deep
    structure is shared mutably with the live state.
    """

    rank: int
    ready: list[tuple[float, str]]
    remaining: dict[str, int]
    tails: dict[str, tuple[float, ...]]
    bus_used: dict[tuple[str, int], int]
    medl_by_id: dict[str, MessageDescriptor]
    root_finish: dict[str, float]
    no_recovery_rows: dict[str, tuple[float, ...]]
    log: list[LogEntry]


class SchedulerState:
    """One in-flight list-scheduling pass as an explicit state machine.

    ``statics`` (default: built from ``ft``) holds every instance's
    :func:`instance_static` tuple; the delta kernel passes the base
    table with only the moved process's entries rebuilt.  ``resume``
    starts the pass from a snapshot of a run over the same design prefix
    instead of from an empty schedule.
    """

    __slots__ = (
        "graph",
        "ft",
        "faults",
        "bus",
        "priorities",
        "statics",
        "bus_scheduler",
        "log",
        "tails",
        "ready",
        "remaining",
        "root_finish",
        "no_recovery_rows",
        "clean_completions",
        "trace",
        "_inputs",
        "_succ_of",
        "_k",
        "_mu",
    )

    def __init__(
        self,
        graph: ProcessGraph,
        ft: FTGraph,
        faults: FaultModel,
        bus: BusConfig,
        *,
        priorities: dict[str, float] | None = None,
        trace: ScheduleTrace | None = None,
        statics: dict[str, InstanceStatic] | None = None,
        resume: SchedulerSnapshot | None = None,
    ) -> None:
        if len(ft) == 0:
            raise SchedulingError("nothing to schedule: the FT graph is empty")
        self.graph = graph
        self.ft = ft
        self.faults = faults
        self.bus = bus
        self.priorities = (
            pcp_priorities(ft, bus, faults) if priorities is None else priorities
        )
        self.statics = (
            instance_statics(ft.instances, faults.mu)
            if statics is None
            else statics
        )
        self.bus_scheduler = BusScheduler(bus)
        #: Completions the delta kernel proved equal to its base's, by
        #: process; :meth:`cost_view` reuses them instead of recomputing.
        self.clean_completions: dict[str, float] = {}
        self.trace = trace
        self._inputs = ft.inputs
        self._succ_of = ft._succ
        self._k = faults.k
        self._mu = faults.mu
        if resume is not None:
            self.restore(resume)
            return

        self.log: list[LogEntry] = []
        self.tails: dict[str, tuple[float, ...]] = {}
        self.root_finish: dict[str, float] = {}
        self.no_recovery_rows: dict[str, tuple[float, ...]] = {}
        # Readiness bookkeeping: an instance is ready when all predecessors
        # in the instance DAG are placed (their bus messages are scheduled
        # at placement time, so readiness implies known arrival times).
        priorities_of = self.priorities
        self.remaining = {iid: len(ft._pred[iid]) for iid in ft.instances}
        self.ready = [
            (-priorities_of[iid], iid)
            for iid, count in self.remaining.items()
            if count == 0
        ]
        heapq.heapify(self.ready)
        if trace is not None:
            for _, iid in self.ready:
                trace.ready_rank[iid] = 0

    @property
    def rank(self) -> int:
        """Number of instances placed so far (= next placement rank)."""
        return len(self.log)

    @property
    def done(self) -> bool:
        return not self.ready

    def place(
        self,
        iid: str,
        static: InstanceStatic,
        released: tuple[Sequence[float], Sequence[str | None]] | None = None,
    ) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """The fused placement step: release row, chain DP, log entry.

        Appends ``iid`` to its node's chain and returns its ``(finish_row,
        no_recovery_row, tail_row)``.  ``released`` is a known
        :func:`guaranteed_release` result for ``iid`` against the current
        senders and MEDL; the delta kernel passes the base's when it proved
        them unchanged.
        """
        node, _, step, reexec, wcet, release, _ = static
        k = self._k
        if released is None:
            released = guaranteed_release(
                self._inputs.get(iid, ()),
                node,
                release,
                self.statics,
                k,
                self.root_finish,
                self.no_recovery_rows,
                self.bus_scheduler.medl.by_id(),
                iid,
            )
            if self.trace is not None:
                # Frozen: every replay of the base reads the same rows.
                self.trace.releases[iid] = (
                    tuple(released[0]), tuple(released[1])
                )
        rel_row, sources = released
        finish_row, tail_row, no_recovery_row, budget, node_bound = chain_rows(
            rel_row, self.tails.get(node), wcet, reexec, step, self._mu, k
        )
        if node_bound:
            entry = (iid, finish_row, BIND_NODE, None, budget)
        else:
            source = sources[budget]
            entry = (
                iid,
                finish_row,
                BIND_RELEASE if source is None else BIND_INPUT,
                source,
                budget,
            )
        self.log.append(entry)
        self.tails[node] = tail_row
        self.root_finish[iid] = finish_row[0]
        self.no_recovery_rows[iid] = no_recovery_row
        return finish_row, no_recovery_row, tail_row

    def fast_ready(
        self, iid: str, static: InstanceStatic, finish_row: tuple[float, ...]
    ) -> float:
        """When ``iid``'s fast frames may depart (placed rows given).

        Fast frames of replicas depart right after the fault-free finish
        (Fig. 4b); masked/guaranteed frames only after the worst-case
        finish so recovery stays transparent (Fig. 4a).

        Co-location caveat: killing an *earlier co-located* replica of the
        same process both removes that replica's frame and delays this one
        (fault reuse).  The fast frame therefore departs only after the
        finish under a budget covering those sibling kills, so the
        receiver-side marginal cost accounting stays sound.
        """
        node = static[0]
        statics = self.statics
        root_finish = self.root_finish
        reuse_budget = 0
        for sibling in self.ft.group_of[static[6]]:
            if sibling != iid and sibling in root_finish:
                sibling_static = statics[sibling]
                if sibling_static[0] == node:
                    reuse_budget += sibling_static[1]
        k = self._k
        return finish_row[reuse_budget if reuse_budget < k else k]

    def step(self) -> str:
        """Place the highest-priority ready instance; one Fig. 6 iteration."""
        _, iid = heapq.heappop(self.ready)
        ft = self.ft
        static = self.statics[iid]
        finish_row, _, tail_row = self.place(iid, static)
        trace = self.trace
        if trace is not None:
            trace.tail_rows[iid] = tail_row

        outgoing = ft._out_bus.get(iid)
        if outgoing:
            node = static[0]
            wcf = finish_row[-1]
            if trace is not None:
                pack_seq = trace.pack.setdefault(node, [])
            schedule_message = self.bus_scheduler.schedule_message
            for bus_message in outgoing:
                data_ready = (
                    self.fast_ready(iid, static, finish_row)
                    if bus_message.kind == "fast"
                    else wcf
                )
                schedule_message(
                    bus_message.id, node, bus_message.message.size, data_ready
                )
                if trace is not None:
                    pack_seq.append((bus_message.id, data_ready))

        remaining = self.remaining
        ready = self.ready
        priorities = self.priorities
        rank_after = len(self.log)
        for succ in self._succ_of[iid]:
            remaining[succ] -= 1
            if remaining[succ] == 0:
                heapq.heappush(ready, (-priorities[succ], succ))
                if trace is not None:
                    trace.ready_rank[succ] = rank_after
        return iid

    def run(self) -> None:
        """Drive the schedule to completion."""
        started = time.perf_counter()
        step = self.step
        while self.ready:
            step()
        registry = get_registry()
        registry.inc("scheduler.passes")
        registry.inc("scheduler.pass_s", time.perf_counter() - started)

    # -- snapshot / restore (incremental kernel) ---------------------------

    def snapshot(self) -> SchedulerSnapshot:
        """Freeze all mutable state at the current rank (shallow copies)."""
        bus_used, medl_by_id = self.bus_scheduler.bus_state()
        return SchedulerSnapshot(
            rank=self.rank,
            ready=list(self.ready),
            remaining=dict(self.remaining),
            tails=dict(self.tails),
            bus_used=bus_used,
            medl_by_id=medl_by_id,
            root_finish=dict(self.root_finish),
            no_recovery_rows=dict(self.no_recovery_rows),
            log=list(self.log),
        )

    def restore(self, snapshot: SchedulerSnapshot) -> None:
        """Rewind to a snapshot taken from *this* configuration.

        The snapshot's containers are copied again on restore, so one
        snapshot can seed any number of replays.
        """
        self.ready = list(snapshot.ready)
        self.remaining = dict(snapshot.remaining)
        self.tails = dict(snapshot.tails)
        self.bus_scheduler.restore_bus_state(
            dict(snapshot.bus_used), dict(snapshot.medl_by_id)
        )
        self.root_finish = dict(snapshot.root_finish)
        self.no_recovery_rows = dict(snapshot.no_recovery_rows)
        self.log = list(snapshot.log)

    # -- pricing and sealing -------------------------------------------------

    def cost_view(self) -> tuple[float, float]:
        """``(degree_of_schedulability, makespan)`` without sealing a record.

        Candidate pricing needs only these two floats; sealing is deferred
        to the winner of a neighbourhood.  Completions listed in
        :attr:`clean_completions` are reused; the rest are derived with the
        same per-group arithmetic as :meth:`seal`.  Bit-parity contract:
        the degree is summed in process-intern order (first placement) —
        the order :meth:`repro.schedule.record.ScheduleRecord.degree_of_schedulability`
        sums in — so both floats equal the sealed record's exactly.
        """
        if len(self.log) != len(self.ft):
            raise SchedulingError(
                "cost_view on an incomplete schedule "
                f"({len(self.log)}/{len(self.ft)} instances placed)"
            )
        statics = self.statics
        clean = self.clean_completions
        group_of = self.ft.group_of
        graph_processes = self.graph.processes
        k = self._k
        order: list[str] = []
        seen: set[str] = set()
        wcf: dict[str, float] = {}
        for entry in self.log:
            iid = entry[0]
            process = statics[iid][6]
            if process not in seen:
                seen.add(process)
                order.append(process)
            if process not in clean:
                wcf[iid] = entry[1][-1]
        degree = 0.0
        makespan = 0.0
        for process in order:
            completion = clean.get(process)
            if completion is None:
                completion = guaranteed_completion(
                    [(wcf[iid], statics[iid][1]) for iid in group_of[process]],
                    k,
                )
            if completion > makespan:
                makespan = completion
            deadline = graph_processes[process].deadline
            if deadline is not None:
                overshoot = completion - deadline
                if overshoot > 1e-9:
                    degree += overshoot
        return degree, makespan

    def seal(self) -> ScheduleRecord:
        """Turn the placement log into the immutable record.

        Interns process and node ids in first-placement order, rebuilds the
        node chains, resolves each binding to record indices and derives
        the guaranteed completion of every process.
        """
        get_registry().inc("scheduler.seals")
        ft = self.ft
        if len(self.log) != len(ft):
            unplaced = [
                iid for iid, count in self.remaining.items() if count > 0
            ]
            raise SchedulingError(
                f"list scheduling left {len(unplaced)} instances unplaced "
                f"(cycle in the FT graph?): {unplaced[:5]}"
            )
        statics = self.statics
        k = self._k
        processes: list[str] = []
        process_index: dict[str, int] = {}
        nodes: list[str] = []
        node_index: dict[str, int] = {}
        chains: list[list[int]] = []
        index_of: dict[str, int] = {}
        instance_ids: list[str] = []
        instance_process: list[int] = []
        instance_node: list[int] = []
        root_start: list[float] = []
        root_finish: list[float] = []
        wcf: list[float] = []
        finish_rows: list[tuple[float, ...]] = []
        bindings: list[tuple[int, int, int]] = []
        for index, (iid, finish_row, kind, source, budget) in enumerate(
            self.log
        ):
            node, _, _, _, wcet, _, process = statics[iid]
            process_id = process_index.get(process)
            if process_id is None:
                process_id = process_index[process] = len(processes)
                processes.append(process)
            node_id = node_index.get(node)
            if node_id is None:
                node_id = node_index[node] = len(nodes)
                nodes.append(node)
                chains.append([])
            chain = chains[node_id]
            if kind == BIND_NODE:
                binding = (BIND_NODE, chain[-1], budget)
            elif kind == BIND_INPUT:
                binding = (BIND_INPUT, index_of[source], budget)
            else:
                binding = (BIND_RELEASE, -1, budget)
            index_of[iid] = index
            chain.append(index)
            instance_ids.append(iid)
            instance_process.append(process_id)
            instance_node.append(node_id)
            first = finish_row[0]
            root_start.append(first - wcet)
            root_finish.append(first)
            wcf.append(finish_row[-1])
            finish_rows.append(finish_row)
            bindings.append(binding)

        replicas: list[tuple[int, ...]] = [()] * len(processes)
        completions: list[float] = [0.0] * len(processes)
        deadlines: list[float | None] = [None] * len(processes)
        graph_processes = self.graph.processes
        for process, replica_ids in ft.group_of.items():
            process_id = process_index[process]
            indices = tuple(index_of[iid] for iid in replica_ids)
            replicas[process_id] = indices
            pairs = [
                (wcf[index], statics[iid][1])
                for index, iid in zip(indices, replica_ids)
            ]
            completions[process_id] = guaranteed_completion(pairs, k)
            deadlines[process_id] = graph_processes[process].deadline
        return ScheduleRecord(
            processes=tuple(processes),
            nodes=tuple(nodes),
            instance_ids=tuple(instance_ids),
            instance_process=tuple(instance_process),
            instance_node=tuple(instance_node),
            root_start=tuple(root_start),
            root_finish=tuple(root_finish),
            wcf=tuple(wcf),
            finish_rows=tuple(finish_rows),
            bindings=tuple(bindings),
            node_chains=tuple(tuple(chain) for chain in chains),
            process_replicas=tuple(replicas),
            completions=tuple(completions),
            deadlines=tuple(deadlines),
            medl=self.bus_scheduler.medl.packed(node_index),
            k=k,
            mu=self.faults.mu,
        )
