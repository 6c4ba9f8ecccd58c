"""Compact schedule IR: the canonical output of the list scheduler.

A :class:`ScheduleRecord` is the synthesized configuration ``S`` of the
paper (schedule tables + MEDL, §4) reduced to flat tuples: every process,
node and instance id is interned once into an index, and all per-instance
data lives in parallel arrays indexed by *placement order*.  The record is

* **immutable and hashable** — every field is a tuple of str/int/float, so
  records can key caches and be compared structurally;
* **cycle-free** — no field ever references the record or any other
  container twice, so retaining thousands of records adds no work to the
  cyclic GC (the reason the evaluator cache bound could be raised, see
  DESIGN.md);
* **picklable** — records cross process boundaries for the price of a few
  flat tuples, which is what lets experiment workers return full schedules
  instead of summary scalars.

Rich behaviour (per-node tables, Gantt, metrics, simulation) lives in
*views* that render lazily from a record bound to its model context —
see :class:`repro.schedule.table.SystemSchedule`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchedulingError

#: Binding kinds, by code: what fixed an instance's root start time.
BIND_RELEASE = 0  # its own release time
BIND_NODE = 1  # the previous instance in the node's schedule
BIND_INPUT = 2  # the dominant input sender's arrival

BINDING_KINDS = ("release", "node", "input")


@dataclass(frozen=True, slots=True)
class ScheduleRecord:
    """One synthesized system schedule as flat, index-interned arrays.

    Index spaces
    ------------
    * *process index* — position in :attr:`processes`;
    * *node index* — position in :attr:`nodes`;
    * *instance index* — position in :attr:`instance_ids`, which is the
      list scheduler's placement order (the replay order of the simulator).

    Per-instance arrays (``instance_process`` … ``bindings``) are parallel
    to :attr:`instance_ids`.  A binding is an index triple ``(kind,
    source, budget)``: the kind code (see :data:`BINDING_KINDS`), the
    instance index of the constraining predecessor (``-1`` for release
    bindings) and the adversary budget at which that constraint dominated
    the worst case.  MEDL descriptors are packed ``(bus_message_id,
    node, round, slot_start, slot_end, offset_bytes, size_bytes)``
    tuples with the sender node interned.
    """

    processes: tuple[str, ...]
    nodes: tuple[str, ...]
    instance_ids: tuple[str, ...]
    instance_process: tuple[int, ...]
    instance_node: tuple[int, ...]
    root_start: tuple[float, ...]
    root_finish: tuple[float, ...]
    wcf: tuple[float, ...]
    finish_rows: tuple[tuple[float, ...], ...]
    bindings: tuple[tuple[int, int, int], ...]
    node_chains: tuple[tuple[int, ...], ...]  # per node index
    process_replicas: tuple[tuple[int, ...], ...]  # per process index
    completions: tuple[float, ...]  # per process index
    deadlines: tuple[float | None, ...]  # per process index
    medl: tuple[tuple[str, int, int, float, float, int, int], ...]
    k: int
    mu: float

    def __len__(self) -> int:
        return len(self.instance_ids)

    # -- schedule-level metrics -------------------------------------------

    @property
    def makespan(self) -> float:
        """Schedule length δ: latest guaranteed completion of any process."""
        if not self.completions:
            raise SchedulingError("schedule has no completions")
        return max(self.completions)

    def tardiness(self) -> dict[str, float]:
        """Per-process positive lateness versus its (absolute) deadline."""
        late: dict[str, float] = {}
        for index, deadline in enumerate(self.deadlines):
            if deadline is None:
                continue
            overshoot = self.completions[index] - deadline
            if overshoot > 1e-9:
                late[self.processes[index]] = overshoot
        return late

    def degree_of_schedulability(self) -> float:
        """Sum of deadline overshoots (0.0 when schedulable)."""
        total = 0.0
        for index, deadline in enumerate(self.deadlines):
            if deadline is None:
                continue
            overshoot = self.completions[index] - deadline
            if overshoot > 1e-9:
                total += overshoot
        return total

    @property
    def is_schedulable(self) -> bool:
        return self.degree_of_schedulability() == 0.0

    # -- lookups -----------------------------------------------------------

    def process_index(self, process: str) -> int:
        try:
            return self.processes.index(process)
        except ValueError:
            raise SchedulingError(f"unknown process {process!r}") from None

    def completion(self, process: str) -> float:
        return self.completions[self.process_index(process)]

    # -- critical path -----------------------------------------------------

    def critical_path(self) -> list[str]:
        """Process names on the chain of constraints behind the makespan.

        Starting from the process whose guaranteed completion equals the
        schedule length, follow each instance's binding backwards through
        the index triples (node predecessor or input sender) until a
        release-bound instance is reached.  Ordered source -> sink,
        deduplicated — the walk never touches the materialized views.
        """
        if not self.completions:
            raise SchedulingError("schedule has no completions")
        target = max(
            range(len(self.processes)),
            key=lambda p: (self.completions[p], self.processes[p]),
        )
        index = max(
            self.process_replicas[target],
            key=lambda i: (self.wcf[i], self.instance_ids[i]),
        )
        path: list[str] = []
        seen: set[int] = set()
        guard = 0
        while index >= 0:
            guard += 1
            if guard > len(self.instance_ids) + 1:
                raise SchedulingError("cyclic binding chain (internal error)")
            process = self.instance_process[index]
            if process not in seen:
                path.append(self.processes[process])
                seen.add(process)
            index = self.bindings[index][1]
        path.reverse()
        return path


    # -- stable JSON round-trip -------------------------------------------

    def to_json_dict(self) -> dict:
        """A JSON-safe dict whose round-trip is byte-stable.

        Tuples flatten to lists and ``None`` deadlines to ``null``; every
        leaf is a str/int/float that the :mod:`json` module reproduces
        exactly (float repr round-trips), so canonical re-encoding of
        :meth:`from_json_dict`'s output is byte-identical.  This is the
        wire format of the distributed experiment queue — records cross
        machine boundaries without pickle.
        """
        return {
            "version": RECORD_FORMAT_VERSION,
            "processes": list(self.processes),
            "nodes": list(self.nodes),
            "instance_ids": list(self.instance_ids),
            "instance_process": list(self.instance_process),
            "instance_node": list(self.instance_node),
            "root_start": list(self.root_start),
            "root_finish": list(self.root_finish),
            "wcf": list(self.wcf),
            "finish_rows": [list(row) for row in self.finish_rows],
            "bindings": [list(binding) for binding in self.bindings],
            "node_chains": [list(chain) for chain in self.node_chains],
            "process_replicas": [list(r) for r in self.process_replicas],
            "completions": list(self.completions),
            "deadlines": list(self.deadlines),
            "medl": [list(descriptor) for descriptor in self.medl],
            "k": self.k,
            "mu": self.mu,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScheduleRecord":
        """Inverse of :meth:`to_json_dict` (strict on the format version)."""
        version = data.get("version", RECORD_FORMAT_VERSION)
        if version != RECORD_FORMAT_VERSION:
            raise SchedulingError(
                f"unsupported record format version {version} "
                f"(expected {RECORD_FORMAT_VERSION})"
            )
        return cls(
            processes=tuple(data["processes"]),
            nodes=tuple(data["nodes"]),
            instance_ids=tuple(data["instance_ids"]),
            instance_process=tuple(data["instance_process"]),
            instance_node=tuple(data["instance_node"]),
            root_start=tuple(data["root_start"]),
            root_finish=tuple(data["root_finish"]),
            wcf=tuple(data["wcf"]),
            finish_rows=tuple(tuple(row) for row in data["finish_rows"]),
            bindings=tuple(
                (binding[0], binding[1], binding[2])
                for binding in data["bindings"]
            ),
            node_chains=tuple(tuple(chain) for chain in data["node_chains"]),
            process_replicas=tuple(tuple(r) for r in data["process_replicas"]),
            completions=tuple(data["completions"]),
            deadlines=tuple(data["deadlines"]),
            medl=tuple(
                (d[0], d[1], d[2], d[3], d[4], d[5], d[6])
                for d in data["medl"]
            ),
            k=data["k"],
            mu=data["mu"],
        )


#: Version tag of the record wire format (bump on layout changes).
RECORD_FORMAT_VERSION = 1
