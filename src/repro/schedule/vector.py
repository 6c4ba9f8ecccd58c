"""Vectorized neighbourhood pricing: numpy chain-DP / release-row kernels.

The delta kernel (:mod:`repro.schedule.incremental`) prices one move with a
python suffix replay; its byte-identity contract caps the speedup at the
fraction of the schedule a move genuinely reorders (54–67% for critical-path
moves, see DESIGN.md).  This module sidesteps that wall for *ranking*: it
prices an entire neighbourhood as array programs over the captured base
schedule's flat per-rank mirrors, exact where a candidate's cone is
replay-free and bounded-error elsewhere, so the search can re-price only a
shortlist exactly and seal just the winner.

Two layers:

* **Bit-parity kernels** — :func:`fast_cost_table`,
  :func:`release_row_vec`, :func:`chain_dp_batch`, :func:`place_vec` compute
  the same rows as the scalar :func:`repro.schedule.state.release_row` /
  :meth:`repro.schedule.analysis.WorstCaseAnalyzer.place` *bit-for-bit* on
  identical inputs (property-tested in
  ``tests/schedule/test_vector_parity.py``).  Parity is arranged, not
  accidental: float ``max`` is order-independent-exact so 2-D reductions are
  safe, but the scalar paths accumulate ``delayed += step`` / ``extra +=
  step`` *sequentially*, which rounds differently from ``base + t * step`` —
  the kernels therefore build their lattices with ``np.add.accumulate``
  along the budget axis, and first-tie-wins choices (``argmax`` first
  occurrence) mirror the scalar strict-``>`` updates in iteration order.

* **The estimator** — :class:`NeighbourhoodPricer` prices ``(process,
  nodes, policy)`` candidates against the base mirrors without building an
  FT-graph overlay or replaying: replica parameters are derived from the
  process/policy directly, release rows are computed from the *base*
  senders' no-recovery rows and MEDL (cacheable per ``(process, node)`` —
  every candidate that lands a replica on the same node shares one row),
  and the per-node chain DP runs batched across all candidates.  What the
  base mirrors cannot see — displaced chains, re-rounded frames, reordered
  pops from priority changes — is charged to an explicit error allowance
  returned with each price.  The allowance is a calibrated engineering
  bound (validated on seeded cases by the parity suite), *not* a proven
  invariant; correctness of the search never depends on it because the
  shortlist is re-priced by the exact delta kernel before anything is
  sealed (see ``Evaluator.rank_neighbourhood``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.model.fault import FaultModel
from repro.model.ftgraph import FTGraph, Instance, _guaranteed_backed
from repro.schedule.analysis import (
    PlacementResult,
    group_survivor_indices,
    guaranteed_completion,
)
from repro.schedule.state import group_release_inputs, instance_statics

if TYPE_CHECKING:
    from repro.model.policy import Policy
    from repro.schedule.incremental import EvalContext


# -- bit-parity kernels -----------------------------------------------------


def fast_cost_table(
    rows,
    slot_starts,
    steps,
    reexecs,
    kill_costs,
    k: int,
) -> np.ndarray:
    """Fast-frame silencing price per (sender, shared budget) — vectorized.

    ``rows`` is the ``(S, k+1)`` stack of the senders' no-recovery rows;
    the result ``costs[s, d]`` equals the scalar loop in
    :func:`repro.schedule.state.release_row`: the smallest number ``t`` of
    own recoveries that pushes sender ``s`` (already delayed by the shared
    budget ``d``) past its slot start, capped at the kill cost, or the kill
    cost when even ``reexec`` recoveries cannot miss the slot.

    The delay lattice accumulates ``step`` sequentially along the ``t``
    axis (``np.add.accumulate``) so every float matches the scalar
    ``delayed += step`` chain bit-for-bit.
    """
    rows = np.asarray(rows, dtype=np.float64)
    count = rows.shape[0]
    reexecs = np.asarray(reexecs, dtype=np.int64)
    kills = np.asarray(kill_costs, dtype=np.int64)
    tmax = int(reexecs.max()) if count else 0
    lattice = np.empty((count, k + 1, tmax + 1), dtype=np.float64)
    lattice[:, :, 0] = rows
    if tmax:
        lattice[:, :, 1:] = np.asarray(steps, dtype=np.float64)[:, None, None]
        np.add.accumulate(lattice, axis=2, out=lattice)
    thresholds = np.asarray(slot_starts, dtype=np.float64) + 1e-9
    miss = lattice > thresholds[:, None, None]
    miss &= (np.arange(tmax + 1) <= reexecs[:, None])[:, None, :]
    first = miss.argmax(axis=2)
    return np.where(
        miss.any(axis=2), np.minimum(first, kills[:, None]), kills[:, None]
    )


def price_group_into(
    immune: list,
    fast_senders: list,
    rel_row: list[float],
    sources: list,
    k: int,
) -> None:
    """Fold one input group's guaranteed arrivals into ``rel_row``/``sources``.

    In-place counterpart of the per-group body of
    :func:`repro.schedule.state.release_row` with the fast-cost double loop
    replaced by :func:`fast_cost_table`; the per-breakpoint entry sort and
    greedy survivor scan stay scalar because their tie semantics (tuple
    order including the sender id, survivor-by-index) are what the
    critical-path extraction depends on.
    """
    if not fast_senders and len(immune) == 1:
        arrival, _, src_iid = immune[0]
        for c in range(k + 1):
            if arrival > rel_row[c]:
                rel_row[c] = arrival
                sources[c] = src_iid
        return

    if fast_senders:
        costs = fast_cost_table(
            [sender[3] for sender in fast_senders],
            [sender[0] for sender in fast_senders],
            [sender[4] for sender in fast_senders],
            [sender[5] for sender in fast_senders],
            [sender[6] for sender in fast_senders],
            k,
        )
        breaks = np.flatnonzero(
            np.concatenate(
                ([True], (costs[:, 1:] != costs[:, :-1]).any(axis=0))
            )
        ).tolist()
        cost_rows = costs.tolist()
    else:
        breaks = [0]
        cost_rows = []

    for d in breaks:
        entries = list(immune)
        for costs_row, (
            _, slot_end, guaranteed_end, _, _, _, kill_cost, src_iid,
        ) in zip(cost_rows, fast_senders):
            fast_cost = costs_row[d]
            if fast_cost > 0:
                entries.append((slot_end, fast_cost, src_iid))
            if guaranteed_end is not None:
                entries.append(
                    (guaranteed_end, kill_cost - fast_cost, src_iid)
                )
        entries.sort()
        indices = group_survivor_indices(entries, k - d)
        for c in range(d, k + 1):
            survivor = entries[indices[c - d]]
            if survivor[0] > rel_row[c]:
                rel_row[c] = survivor[0]
                sources[c] = survivor[2]


def release_row_vec(
    ft: FTGraph,
    iid: str,
    faults: FaultModel,
    root_finish: dict[str, float],
    no_recovery_rows: dict[str, tuple[float, ...]],
    medl_by_id: dict,
) -> tuple[list[float], list[str | None]]:
    """Drop-in parity twin of :func:`repro.schedule.state.release_row`."""
    k = faults.k
    instance = ft.instances[iid]
    statics = instance_statics(ft.instances, faults.mu)
    rel_row = [instance.release] * (k + 1)
    sources: list[str | None] = [None] * (k + 1)
    for group in ft.inputs_of(iid):
        immune, fast_senders = group_release_inputs(
            group, instance.node, statics, root_finish,
            no_recovery_rows, medl_by_id, iid,
        )
        price_group_into(immune, fast_senders, rel_row, sources, k)
    return rel_row, sources


def chain_dp_batch(
    base_rows,
    wcets,
    reexecs,
    steps,
    mu: float,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Worst-case chain DP for ``C`` independent instances at once.

    ``base_rows`` is the ``(C, k+1)`` stack of per-budget base releases
    (input arrival already merged with the chain tail).  Returns
    ``(finish, tail, no_recovery, dominant_budget)`` where the three row
    arrays are ``(C, k+1)`` and each row is bit-equal to
    :meth:`repro.schedule.analysis.WorstCaseAnalyzer.place` on the same
    inputs: the re-execution surcharge accumulates sequentially
    (``np.add.accumulate`` matches the scalar ``extra += step``), the max
    over re-execution counts is order-independent-exact, and the dominant
    budget at ``q = k`` takes the *first* maximizing ``t`` in ascending
    order (``argmax`` first occurrence == the scalar strict-``>`` update
    walking ``b`` downward).
    """
    base = np.asarray(base_rows, dtype=np.float64)
    count = base.shape[0]
    wcets = np.asarray(wcets, dtype=np.float64)
    reexecs = np.asarray(reexecs, dtype=np.int64)
    steps = np.asarray(steps, dtype=np.float64)
    tmax = int(reexecs.max()) if count else 0

    extras = np.empty((count, tmax + 1), dtype=np.float64)
    extras[:, 0] = wcets
    if tmax:
        extras[:, 1:] = steps[:, None]
        np.add.accumulate(extras, axis=1, out=extras)

    t_index = np.arange(tmax + 1)
    q_index = np.arange(k + 1)
    budgets = q_index[None, :, None] - t_index[None, None, :]
    valid = (budgets >= 0) & (
        t_index[None, None, :] <= reexecs[:, None, None]
    )
    values = (
        base[np.arange(count)[:, None, None], np.clip(budgets, 0, k)]
        + extras[:, None, :]
    )
    values = np.where(valid, values, -np.inf)
    finish = values.max(axis=2)
    dominant_budget = k - values[:, k, :].argmax(axis=1)

    kill_attempts = reexecs + 1
    shift = q_index[None, :] - kill_attempts[:, None]
    killed = (
        base[np.arange(count)[:, None], np.clip(shift, 0, k)]
        + (wcets + mu)[:, None]
    ) + (reexecs * steps)[:, None]
    tail = np.where((shift >= 0) & (killed > finish), killed, finish)

    return finish, tail, base + wcets[:, None], dominant_budget


def place_vec(
    instance: Instance,
    rel_row,
    prev_tail,
    faults: FaultModel,
) -> PlacementResult:
    """Single-instance placement via the batched DP — parity twin of
    :meth:`repro.schedule.analysis.WorstCaseAnalyzer.place` (``prev_tail``
    is the node chain's current tail row, or ``None`` for an empty chain).
    Unlike the analyzer this does not mutate any chain state.
    """
    k = faults.k
    rel = np.asarray(rel_row, dtype=np.float64)
    if prev_tail is None:
        base = rel
        input_row = np.ones(k + 1, dtype=bool)
    else:
        prev = np.asarray(prev_tail, dtype=np.float64)
        input_row = ~(prev > rel)
        base = np.where(input_row, rel, prev)
    finish, tail, no_recovery, dominant = chain_dp_batch(
        base[None, :],
        [instance.wcet],
        [instance.reexecutions],
        [instance.recovery_unit + faults.mu],
        faults.mu,
        k,
    )
    budget = int(dominant[0])
    return PlacementResult(
        finish_row=tuple(finish[0].tolist()),
        tail_row=tuple(tail[0].tolist()),
        no_recovery_row=tuple(no_recovery[0].tolist()),
        dominant="input" if bool(input_row[budget]) else "node",
        dominant_budget=budget,
    )


# -- the neighbourhood estimator -------------------------------------------


@dataclass(frozen=True, slots=True)
class VectorPrice:
    """Estimated cost of one candidate move, with its error allowance.

    ``makespan``/``degree`` are the estimate; the true values are expected
    within ``± error`` / ``± degree_error`` (calibrated, not proven — see
    the module docstring).  ``exact`` is ``True`` only when the estimate is
    provably the true cost (the move's cone is replay-free against the
    base mirrors), in which case both allowances are zero.
    """

    degree: float
    makespan: float
    error: float
    degree_error: float
    exact: bool


class NeighbourhoodPricer:
    """Batched bounded-error pricing of moves against one captured base.

    Built lazily per :class:`~repro.schedule.incremental.EvalContext`
    (``context.pricer()``); all caches below are valid for the context's
    lifetime because they are derived purely from the base schedule:

    * ``_release_cache[(process, node)]`` — a candidate replica's release
      row depends only on the receiver node given the base mirrors (its
      senders are base-fixed), so all candidates landing any replica of
      ``process`` on ``node`` share one row.  The second element counts
      frames that had to be *estimated* (no base MEDL descriptor — the
      frame would only exist in the moved design), each of which charges
      one round length to the error allowance.
    * ``_tail_cache[(process, node)]`` — the base chain tail of ``node``
      just below the process's earliest base rank: the chain prefix a
      freshly inserted replica would extend.
    """

    def __init__(self, context: "EvalContext") -> None:
        self.context = context
        record = context.record
        faults = context.faults
        self.k = faults.k
        self.mu = faults.mu
        self.round_length = context.bus.round_length

        ids = record.instance_ids
        self._root_finish = dict(zip(ids, record.root_finish))
        self._wcf = dict(zip(ids, record.wcf))

        processes = record.processes
        completions = record.completions
        self._completion = dict(zip(processes, completions))
        deadlined = sum(1 for d in record.deadlines if d is not None)
        self._deadlined = max(1, deadlined)

        # Interference model inputs: per-process completion/deadline
        # arrays plus, for each node, the chain of process indices in
        # placement order.  A move that vacates occupancy on a node
        # credits every process placed after it in that chain; a move
        # that adds occupancy debits everything on the receiving node.
        self._proc_index = {name: i for i, name in enumerate(processes)}
        self._completions_arr = np.asarray(completions, dtype=np.float64)
        self._deadlines_arr = np.asarray(
            [np.inf if d is None else d for d in record.deadlines],
            dtype=np.float64,
        )
        instance_process = record.instance_process
        self._node_chain_procs: dict[str, np.ndarray] = {}
        self._node_pos: dict[str, dict[int, int]] = {}
        for node_name, chain in zip(record.nodes, record.node_chains):
            chain_procs = np.asarray(
                [instance_process[i] for i in chain], dtype=np.intp
            )
            self._node_chain_procs[node_name] = chain_procs
            first_pos: dict[int, int] = {}
            for position, proc in enumerate(chain_procs.tolist()):
                if proc not in first_pos:
                    first_pos[proc] = position
            self._node_pos[node_name] = first_pos

        self._release_cache: dict[tuple[str, str], tuple[np.ndarray, int]] = {}
        self._tail_cache: dict[tuple[str, str], np.ndarray | None] = {}
        self._base_occ: dict[str, dict[str, float]] = {}
        self._base_prio_sig: dict[str, list[tuple[str, float]]] = {}
        self._descendants: dict[str, np.ndarray] = {}
        self._out_degree: dict[str, int] = {}

    # -- cached base-schedule derivations ---------------------------------

    def _release_for(self, process: str, node: str) -> tuple[np.ndarray, int]:
        """Release row of a ``process`` replica on ``node`` vs base mirrors."""
        key = (process, node)
        cached = self._release_cache.get(key)
        if cached is not None:
            return cached
        context = self.context
        ft = context.ft
        bus = context.bus
        k = self.k
        mu = self.mu
        instances = ft.instances
        representative = ft.group_of[process][0]
        rel_row = [instances[representative].release] * (k + 1)
        sources: list[str | None] = [None] * (k + 1)
        estimated = 0
        for group in ft.inputs_of(representative):
            missing: list = []
            immune, fast_senders = group_release_inputs(
                group, node, context.statics, self._root_finish,
                context.no_recovery_rows, context.medl_by_id, process,
                missing=missing,
            )
            if missing:
                estimated += len(missing)
                backed = _guaranteed_backed(ft, group.sources, k)
                for src_iid, _fast, _guaranteed, replicated in missing:
                    src = instances[src_iid]
                    if not replicated:
                        # A masked frame departs after the sender's WCF.
                        ready = self._wcf[src_iid]
                        round_index = bus.first_round_at_or_after(
                            src.node, ready
                        )
                        immune.append(
                            (
                                bus.slot_end(src.node, round_index),
                                src.kill_cost,
                                src_iid,
                            )
                        )
                        continue
                    ready = self._root_finish[src_iid]
                    round_index = bus.first_round_at_or_after(src.node, ready)
                    guaranteed_end = None
                    if src_iid in backed:
                        wcf_round = bus.first_round_at_or_after(
                            src.node, self._wcf[src_iid]
                        )
                        guaranteed_end = bus.slot_end(src.node, wcf_round)
                    fast_senders.append(
                        (
                            bus.slot_start(src.node, round_index),
                            bus.slot_end(src.node, round_index),
                            guaranteed_end,
                            context.no_recovery_rows[src_iid],
                            src.recovery_unit + mu,
                            src.reexecutions,
                            src.kill_cost,
                            src_iid,
                        )
                    )
            price_group_into(immune, fast_senders, rel_row, sources, k)
        result = (np.asarray(rel_row, dtype=np.float64), estimated)
        self._release_cache[key] = result
        return result

    def _chain_tail(self, process: str, node: str) -> np.ndarray | None:
        """Base tail row of ``node``'s chain below ``process``'s base rank."""
        key = (process, node)
        if key in self._tail_cache:
            return self._tail_cache[key]
        context = self.context
        record = context.record
        earliest = min(
            context.base_index[iid]
            for iid in context.ft.group_of[process]
        )
        tail: np.ndarray | None = None
        try:
            node_index = record.nodes.index(node)
        except ValueError:
            node_index = None
        if node_index is not None:
            last = None
            for placed in record.node_chains[node_index]:
                if placed >= earliest:
                    break
                last = placed
            if last is not None:
                tail = np.asarray(
                    context.trace.tail_rows[record.instance_ids[last]],
                    dtype=np.float64,
                )
        self._tail_cache[key] = tail
        return tail

    def _base_occupancy(self, process: str) -> dict[str, float]:
        """Worst-case node occupancy of ``process``'s base replicas."""
        occ = self._base_occ.get(process)
        if occ is None:
            occ = {}
            instances = self.context.ft.instances
            mu = self.mu
            for iid in self.context.ft.group_of[process]:
                instance = instances[iid]
                occ[instance.node] = occ.get(instance.node, 0.0) + (
                    instance.reexecutions + 1
                ) * (instance.wcet + mu)
            self._base_occ[process] = occ
        return occ

    def _base_priority_signature(
        self, process: str
    ) -> list[tuple[str, float]]:
        """Sorted (node, PCP weight) multiset of the base replicas.

        Replica priorities — and through them every ancestor's — are a
        function of this multiset alone (successor placements are
        base-fixed), so an unchanged signature means no priority moves.
        """
        signature = self._base_prio_sig.get(process)
        if signature is None:
            instances = self.context.ft.instances
            mu = self.mu
            signature = sorted(
                (
                    instances[iid].node,
                    instances[iid].wcet
                    * (1 + instances[iid].reexecutions)
                    + instances[iid].reexecutions * mu,
                )
                for iid in self.context.ft.group_of[process]
            )
            self._base_prio_sig[process] = signature
        return signature

    def _descendant_indices(self, process: str) -> np.ndarray:
        """Process indices of everything downstream of ``process``."""
        indices = self._descendants.get(process)
        if indices is None:
            seen: set[str] = set()
            stack = [process]
            out_messages = self.context.graph.out_messages
            while stack:
                for message in out_messages(stack.pop()):
                    if message.dst not in seen:
                        seen.add(message.dst)
                        stack.append(message.dst)
            indices = np.asarray(
                sorted(self._proc_index[name] for name in seen),
                dtype=np.intp,
            )
            self._descendants[process] = indices
        return indices

    def _frame_events(
        self, process: str, nodes: tuple[str, ...], policy: "Policy"
    ) -> int:
        """Bus-frame perturbations a candidate can cause (beyond estimates).

        Counts sender frame-set existence flips (a base predecessor frame
        appears/disappears because the receiver node set changed) and the
        process's own outgoing frames when its placement or policy changed
        (their slots re-round).  Each event charges one round length.
        """
        context = self.context
        ft = context.ft
        instances = ft.instances
        base_group = ft.group_of[process]
        base_nodes = {instances[iid].node for iid in base_group}
        new_nodes = set(nodes)
        events = 0
        representative = base_group[0]
        for group in ft.inputs_of(representative):
            for src_iid in group.sources:
                src_node = instances[src_iid].node
                base_has = any(n != src_node for n in base_nodes)
                new_has = any(n != src_node for n in new_nodes)
                if base_has != new_has:
                    events += 1
        out_degree = self._out_degree.get(process)
        if out_degree is None:
            out_degree = len(context.graph.out_messages(process))
            self._out_degree[process] = out_degree
        if out_degree:
            base_multiset = sorted(instances[iid].node for iid in base_group)
            base_policy_sig = tuple(
                (instances[iid].reexecutions, instances[iid].checkpoints)
                for iid in base_group
            )
            new_policy_sig = tuple(
                (policy.reexecutions[r], policy.checkpoints)
                for r in range(len(nodes))
            )
            if (
                sorted(nodes) != base_multiset
                or new_policy_sig != base_policy_sig
            ):
                events += out_degree * max(len(nodes), len(base_group))
        return events

    # -- pricing -----------------------------------------------------------

    def price(
        self, candidates: list[tuple[str, tuple[str, ...], "Policy"]]
    ) -> list[VectorPrice]:
        """Price every ``(process, nodes, policy)`` candidate in one sweep.

        Replica worst-case finishes come from level-batched
        :func:`chain_dp_batch` calls (level = number of earlier same-move
        replicas on the same node, so chained replicas see their
        predecessor's tail); completions and error terms are folded per
        candidate.  Result order matches ``candidates``.
        """
        context = self.context
        graph = context.graph
        faults = context.faults
        k = self.k
        mu = self.mu

        plans: list[list[tuple[str, float, int, float, int]]] = []
        for process, nodes, policy in candidates:
            proc = graph.processes[process]
            level_count: dict[str, int] = {}
            replicas = []
            for index, node in enumerate(nodes):
                wcet = proc.wcet_on(node)
                if policy.checkpoints > 0:
                    wcet += policy.checkpoints * faults.checkpoint_overhead
                recovery = (
                    wcet / policy.checkpoints
                    if policy.checkpoints > 0
                    else wcet
                )
                level = level_count.get(node, 0)
                level_count[node] = level + 1
                replicas.append(
                    (
                        node,
                        wcet,
                        policy.reexecutions[index],
                        recovery + mu,
                        level,
                    )
                )
            plans.append(replicas)

        release_events = [0] * len(candidates)
        finish_rows: list[list[np.ndarray | None]] = [
            [None] * len(plan) for plan in plans
        ]
        chained_tails: dict[tuple[int, str], np.ndarray] = {}
        max_level = max(
            (replica[4] for plan in plans for replica in plan), default=0
        )
        for level in range(max_level + 1):
            batch: list[tuple[int, int, str, np.ndarray]] = []
            wcets: list[float] = []
            reexecs: list[int] = []
            steps: list[float] = []
            for ci, plan in enumerate(plans):
                process = candidates[ci][0]
                for ri, (node, wcet, reexec, step, lvl) in enumerate(plan):
                    if lvl != level:
                        continue
                    rel, estimated = self._release_for(process, node)
                    if level == 0:
                        release_events[ci] += estimated
                        prev = self._chain_tail(process, node)
                    else:
                        prev = chained_tails[(ci, node)]
                    if prev is None:
                        base = rel
                    else:
                        base = np.where(prev > rel, prev, rel)
                    batch.append((ci, ri, node, base))
                    wcets.append(wcet)
                    reexecs.append(reexec)
                    steps.append(step)
            if not batch:
                continue
            finish, tail, _no_recovery, _dominant = chain_dp_batch(
                np.stack([item[3] for item in batch]),
                wcets, reexecs, steps, mu, k,
            )
            for j, (ci, ri, node, _base) in enumerate(batch):
                finish_rows[ci][ri] = finish[j]
                chained_tails[(ci, node)] = tail[j]

        round_length = self.round_length
        prices: list[VectorPrice] = []
        for ci, (process, nodes, policy) in enumerate(candidates):
            plan = plans[ci]
            pairs = [
                (float(finish_rows[ci][ri][k]), 1 + plan[ri][2])
                for ri in range(len(plan))
            ]
            completion = guaranteed_completion(pairs, k)

            base_occ = self._base_occupancy(process)
            new_occ: dict[str, float] = {}
            for node, wcet, reexec, _step, _level in plan:
                new_occ[node] = new_occ.get(node, 0.0) + (reexec + 1) * (
                    wcet + mu
                )
            added = 0.0
            removed = 0.0
            proc = self._proc_index[process]
            adjust = np.zeros(len(self._completions_arr))
            for node in base_occ.keys() | new_occ.keys():
                delta = new_occ.get(node, 0.0) - base_occ.get(node, 0.0)
                if delta > 0.0:
                    # Added occupancy is already visible in the candidate's
                    # own completion (its release/chain-tail rows include
                    # the receiving node's base prefix); debiting other
                    # processes here would double-count the contention, so
                    # it is charged to the error allowance only.
                    added += delta
                    continue
                if delta == 0.0:
                    continue
                removed -= delta
                chain = self._node_chain_procs.get(node)
                if chain is None or chain.size == 0:
                    continue
                # Vacated occupancy: only processes placed *after* this
                # one in the node's chain can start earlier.
                position = self._node_pos[node].get(proc)
                if position is None:
                    continue
                adjust[np.unique(chain[position + 1:])] += delta
            adjust[proc] = 0.0

            # Dependency propagation: the moved process's own completion
            # shift reaches every downstream consumer through its output
            # messages.  A credit is capped at the larger of the two
            # channels (chain credit vs. input arrival — a start time is
            # one max, not a sum); a debit stacks on top of any credit.
            own_delta = completion - self._completion[process]
            if own_delta != 0.0:
                dep = self._descendant_indices(process)
                if dep.size:
                    if own_delta < 0.0:
                        adjust[dep] = np.minimum(adjust[dep], own_delta)
                    else:
                        adjust[dep] += own_delta

            # First-order completions of the *other* processes under the
            # move, then schedule length and degree over the whole set.
            estimated = self._completions_arr + adjust
            estimated[proc] = completion
            makespan = float(estimated.max())
            over = estimated - self._deadlines_arr
            over[over <= 1e-9] = 0.0
            degree = float(over.sum())
            if degree <= 1e-9:
                degree = 0.0

            # -- error allowance (calibrated; see module docstring) -------
            base_shift = abs(completion - self._completion[process])
            frame_events = release_events[ci] + self._frame_events(
                process, nodes, policy
            )
            new_signature = sorted(
                (node, wcet * (1 + reexec) + reexec * mu)
                for node, wcet, reexec, _step, _level in plan
            )
            priorities_changed = (
                new_signature != self._base_priority_signature(process)
            )
            error = (
                base_shift
                + added
                + removed
                + round_length * frame_events
            )
            if error > 0.0 or priorities_changed:
                # A perturbation can cascade: every downstream hop may
                # re-round a frame by up to one round length.
                error += (
                    self._descendant_indices(process).size * round_length
                )
            if priorities_changed:
                # Reordered pops displace unrelated chains; double the
                # allowance rather than trying to model the reorder.
                error = 2.0 * error + round_length
            exact = error == 0.0
            prices.append(
                VectorPrice(
                    degree=degree,
                    makespan=makespan,
                    error=error,
                    degree_error=error * self._deadlined,
                    exact=exact,
                )
            )
        return prices
