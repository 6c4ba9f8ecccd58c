"""Canonical indexing of the ≤k-fault scenario space.

A fault scenario over an FT graph is a vector ``(f_0 … f_{n-1})`` of
failed-attempt counts, one entry per instance in sorted-id order, with
``0 <= f_i <= cap_i`` (``cap_i = reexecutions + 1``, beyond which there is
nothing left to hit) — exactly the space
:func:`repro.sim.faults.enumerate_scenarios` walks.  This module gives
that space *random access*:

* the scenarios with exactly ``t`` total faults form **stratum** ``t``,
  whose size is computed exactly by a suffix-count DP;
* within a stratum, scenarios are ordered lexicographically by their
  count vector (the same order the recursive enumerator yields), and a
  rank/unrank bijection maps ``[0, size_t)`` onto them;
* any set of indices of a stratum — a contiguous shard range or a block
  of random draws — is materialized without touching the rest of the
  space, which is what makes disjoint shards independently executable on
  any worker.  One column-parallel kernel unranks a whole block at once
  against a threshold table of cumulative suffix counts (built on first
  use); ``unrank``, ``iter_range``, ``counts_range`` and ``sample_counts``
  are thin views of it, and the scalar ``rank`` is its independent inverse.

Everything here is a pure function of the sorted ``(instance id,
capacity)`` list, so two processes that agree on the FT graph agree on
every index — the foundation of the partitioner's determinism contract.
"""

from __future__ import annotations

import functools
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.model.ftgraph import FTGraph
from repro.sim.faults import FaultScenario


def scenario_key(failures: Mapping[str, int]) -> str:
    """Canonical text fingerprint of one failure map.

    Sorted ``iid:count`` pairs, zero counts dropped — two scenarios are
    the same iff their keys are equal, which is what the samplers dedupe
    on and the aggregator classifies exemplars by.
    """
    items = sorted((iid, n) for iid, n in failures.items() if n > 0)
    return ";".join(f"{iid}:{n}" for iid, n in items) or "-"


class ScenarioSpace:
    """Rank/unrank view of the ≤k-fault scenarios of one FT graph."""

    def __init__(self, capacities: Sequence[tuple[str, int]], k: int) -> None:
        if k < 0:
            raise SimulationError(f"fault budget k must be >= 0, got {k}")
        self.ids = tuple(iid for iid, _ in capacities)
        # Per-stratum counts never exceed k faults on one instance, so
        # capping keeps the DP small without changing any stratum.
        self.caps = tuple(min(cap, k) for _, cap in capacities)
        self.k = k
        # suffix[i][r]: number of ways to distribute exactly r faults
        # over instances i..n-1 within their capacities.
        n = len(self.caps)
        suffix = [[0] * (k + 1) for _ in range(n + 1)]
        suffix[n][0] = 1
        for i in range(n - 1, -1, -1):
            cap = self.caps[i]
            row = suffix[i]
            nxt = suffix[i + 1]
            for r in range(k + 1):
                total = 0
                for f in range(min(cap, r) + 1):
                    total += nxt[r - f]
                row[r] = total
        self._suffix = suffix

    @classmethod
    def of(cls, ft: FTGraph, k: int) -> "ScenarioSpace":
        """The space of ``ft``: sorted instance ids, ``reexec + 1`` caps."""
        capacities = [
            (iid, ft.instance(iid).reexecutions + 1)
            for iid in sorted(ft.instances)
        ]
        return cls(capacities, k)

    # -- sizes -------------------------------------------------------------

    def stratum_size(self, t: int) -> int:
        """Number of scenarios with exactly ``t`` total faults."""
        if not 0 <= t <= self.k:
            raise SimulationError(
                f"stratum {t} outside the fault model (k={self.k})"
            )
        return self._suffix[0][t]

    @property
    def total(self) -> int:
        """Number of scenarios with at most ``k`` total faults."""
        return sum(self._suffix[0][t] for t in range(self.k + 1))

    # -- column-parallel unrank ---------------------------------------------

    @functools.cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(first, T)``, the unrank kernel's threshold tables.

        ``T[i, g, r] = Σ_{f<=min(g, cap_i)} suffix[i+1][r-f]``: of the lex
        ordered vectors of instances ``i..n-1`` spending ``r`` faults, the
        first ``T[i, g, r]`` put at most ``g`` on ``i``.  The last ``g`` is
        the sentinel ``suffix[i][r]``, which no in-range index reaches.
        ``first[r, i] = T[i, 0, r]``, transposed for row gathers.  int64
        when every stratum fits, else Python ints (``dtype=object``), one
        kernel for both.  Built lazily: :meth:`of` runs in every set-up.
        """
        n, k = len(self.caps), self.k
        dtype = np.int64 if max(self._suffix[0]) < 2**63 else object
        nxt = np.array(self._suffix[1:], dtype=dtype).reshape(n, k + 1)
        caps = np.array(self.caps, dtype=np.int64)
        width = max(self.caps, default=0)
        table = np.empty((n, width + 1, k + 1), dtype=dtype)
        table[:, 0] = nxt
        for g in range(1, width + 1):
            step = np.zeros_like(nxt)
            step[:, g:] = nxt[:, :k + 1 - g]
            step[caps < g] = 0
            table[:, g] = table[:, g - 1] + step
        return np.ascontiguousarray(nxt.T), table

    def _indices(self, t: int, indices) -> np.ndarray:
        """``indices`` as a vector in the tables' dtype, bounds-checked."""
        size = self.stratum_size(t)
        try:
            m = np.array(indices, dtype=self._tables[1].dtype)
        except OverflowError:  # beyond int64, so out of range below
            m = np.array(indices, dtype=object)
        bad = np.flatnonzero((m < 0) | (m >= size))
        if bad.size:
            raise SimulationError(
                f"index {m[bad[0]]} outside stratum {t} (size {size})"
            )
        return m

    def _counts_at(self, t: int, indices: np.ndarray) -> np.ndarray:
        """Stratum-``t`` vectors of in-range ``indices``, one per column.

        Per column, ``m`` is the remaining index and ``r`` the remaining
        faults.  ``first[r, i]`` never grows with ``i``, so the positions
        with ``first[r, i] > m`` (no fault) are a prefix, and the first
        ``first[r, p] <= m`` is the next faulted position ``p``: it takes
        as many faults as it has thresholds ``T[p, g, r] <= m``.  A round
        places at least one fault, so ``t`` rounds unrank a whole block.
        """
        first, table = self._tables
        m = indices.copy()
        r = np.full(m.shape, t, dtype=np.int64)
        out = np.zeros((len(self.caps), m.size), dtype=np.int64)
        for _ in range(t):
            live = np.flatnonzero(r)
            if not live.size:
                break
            m_live, r_live = m[live], r[live]
            p = (first[r_live] <= m_live[:, None]).argmax(axis=1)
            rows = table[p, :, r_live]
            f = (rows <= m_live[:, None]).sum(axis=1)
            m[live] = m_live - rows[np.arange(live.size), f - 1]
            r[live] = r_live - f
            out[p, live] = f
        return out

    def _span(self, t: int, lo: int, hi: int) -> np.ndarray:
        """``lo..hi`` as a vector in the tables' dtype, bounds-checked."""
        size = self.stratum_size(t)
        if not 0 <= lo <= hi <= size:
            raise SimulationError(
                f"range [{lo}, {hi}) outside stratum {t} (size {size})"
            )
        return np.arange(lo, hi, dtype=self._tables[1].dtype)

    # -- rank/unrank -------------------------------------------------------

    def unrank(self, t: int, index: int) -> tuple[int, ...]:
        """The ``index``-th count vector of stratum ``t`` (lex order)."""
        column = self._counts_at(t, self._indices(t, [index]))[:, 0]
        return tuple(column.tolist())

    def rank(self, counts: Sequence[int]) -> tuple[int, int]:
        """Inverse of :meth:`unrank`: ``(stratum, index)`` of a vector."""
        if len(counts) != len(self.caps):
            raise SimulationError(
                f"count vector has {len(counts)} entries, "
                f"space has {len(self.caps)} instances"
            )
        t = sum(counts)
        if t > self.k:
            raise SimulationError(
                f"vector spends {t} faults, fault model allows {self.k}"
            )
        suffix = self._suffix
        index = 0
        remaining = t
        for i, (f, cap) in enumerate(zip(counts, self.caps)):
            if not 0 <= f <= cap:
                raise SimulationError(
                    f"count {f} outside capacity {cap} at position {i}"
                )
            for smaller in range(f):
                index += suffix[i + 1][remaining - smaller]
            remaining -= f
        return t, index

    # -- range materialization --------------------------------------------

    def iter_range(self, t: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
        """Count vectors ``lo <= index < hi`` of stratum ``t``, in order:
        the columns of :meth:`counts_range`, as tuples (computed without
        calling it, so a profile of that name counts only matrix work)."""
        counts = self._counts_at(t, self._span(t, lo, hi))
        return map(tuple, counts.T.tolist())

    def counts_range(self, t: int, lo: int, hi: int) -> np.ndarray:
        """Stratum-``t`` count vectors ``lo..hi`` as an ``(n, hi-lo)`` matrix.

        Column ``j`` is the vector at index ``lo + j``, written straight
        into an int64 matrix so the batched simulator's hot path allocates
        no per-scenario tuples or :class:`FaultScenario` objects.
        """
        return self._counts_at(t, self._span(t, lo, hi))

    def sample_counts(self, t: int, indices: Sequence[int]) -> np.ndarray:
        """Arbitrary stratum-``t`` indices as an ``(n, len(indices))`` matrix.

        The stratified tier's draws are not contiguous; column ``j`` is
        ``unrank(t, indices[j])``.
        """
        return self._counts_at(t, self._indices(t, indices))

    def counts_matrix(self, scenarios: Sequence[FaultScenario]) -> np.ndarray:
        """Explicit scenarios (e.g. the importance list) as a count matrix."""
        index_of = {iid: i for i, iid in enumerate(self.ids)}
        out = np.zeros((len(self.ids), len(scenarios)), dtype=np.int64)
        for j, scenario in enumerate(scenarios):
            for iid, count in scenario.failures.items():
                try:
                    out[index_of[iid], j] = count
                except KeyError:
                    raise SimulationError(
                        f"scenario names unknown instance {iid!r}"
                    ) from None
        return out

    # -- scenario construction --------------------------------------------

    def scenario(self, counts: Sequence[int]) -> FaultScenario:
        """Materialize a count vector as a :class:`FaultScenario`.

        Counts are coerced to Python ints so columns sliced from numpy
        matrices serialize and ``repr`` identically to the scalar path.
        """
        return FaultScenario(
            failures={
                iid: int(f) for iid, f in zip(self.ids, counts) if f > 0
            }
        )

    def counts_of(self, scenario: FaultScenario) -> tuple[int, ...]:
        """The count vector of a scenario (unknown ids are an error)."""
        index_of = {iid: i for i, iid in enumerate(self.ids)}
        counts = [0] * len(self.ids)
        for iid, f in scenario.failures.items():
            try:
                counts[index_of[iid]] = f
            except KeyError:
                raise SimulationError(
                    f"scenario names unknown instance {iid!r}"
                ) from None
        return tuple(counts)
