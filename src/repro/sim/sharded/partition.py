"""Cell partitioning and the deterministic mobility pre-pass.

The sharded backend's core trick: the serial simulator resolves each user's
serving cell *during* the replay from one global RNG stream, which is
inherently sequential.  The sharded backend instead gives every user an
independent, path-addressed RNG stream (:class:`~repro.runtime.SeedTree`)
and resolves the whole mobility walk **before** the replay, vectorized per
user.  Every request's serving cell — and therefore its shard — is known up
front, so requests never migrate between shards mid-window.

This makes the sharded backend deterministic under *its own* semantics: the
same seed always produces the same plan, but the per-user streams differ
from the serial engine's single interleaved stream, so sharded results are
statistically equivalent to serial, not byte-identical (the serial engine
remains the bit-identity reference; the sharded path is pinned by its own
golden tables).

The pre-pass is failure-aware: cell outages are static, known-in-advance
intervals (the fault timeline is fixed before the replay starts), so a
request planned onto a failed cell is re-homed to the nearest alive
neighbour here, exactly where the serial engine would have re-homed it at
arrival time.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.runtime.seedtree import SeedTree

# Per-request handover flags produced by the plan (defined with the lifecycle).
from repro.sim.request import FAILOVER_HANDOVER, MOBILITY_HANDOVER, NO_HANDOVER


def partition_cells(cell_names: Sequence[str], num_shards: int) -> List[List[str]]:
    """Split the ring into ``num_shards`` contiguous segments.

    Contiguity matters: mobility handovers move users to ring-adjacent
    cells, so contiguous segments keep most handovers (and therefore most
    cooperative fetches between a user's recent cells) shard-local.  Shard
    sizes differ by at most one cell.  ``num_shards`` is clamped to the cell
    count by the caller.
    """
    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards > len(cell_names):
        raise ConfigurationError(
            f"cannot split {len(cell_names)} cells into {num_shards} shards"
        )
    count = len(cell_names)
    bounds = [(index * count) // num_shards for index in range(num_shards + 1)]
    return [list(cell_names[bounds[i] : bounds[i + 1]]) for i in range(num_shards)]


class FaultTimelineView:
    """Static per-cell outage intervals and the piecewise handover probability.

    Derived once from the recorded fault timeline (a list of
    ``(time_s, ((method, args), ...))`` entries); the pre-pass queries it per
    arrival.  Interval semantics match the engine's tie-break: a fault event
    scheduled at ``t`` fires before an arrival stamped exactly ``t``, so a
    cell is *failed at* ``t`` when ``fail_t <= t < recover_t``.
    """

    def __init__(
        self,
        timeline: Sequence[Tuple[float, Sequence[Tuple[str, tuple]]]],
        base_handover_probability: float,
    ) -> None:
        fail_starts: Dict[str, List[float]] = {}
        intervals: Dict[str, List[Tuple[float, float]]] = {}
        open_fail: Dict[str, float] = {}
        probability_points: List[Tuple[float, float]] = []
        for time_s, calls in sorted(timeline, key=lambda entry: entry[0]):
            for method, args in calls:
                if method == "fail_cell":
                    open_fail.setdefault(args[0], time_s)
                elif method == "recover_cell":
                    started = open_fail.pop(args[0], None)
                    if started is not None:
                        intervals.setdefault(args[0], []).append((started, time_s))
                elif method == "set_handover_probability":
                    probability_points.append((time_s, float(args[0])))
        for name, started in open_fail.items():
            intervals.setdefault(name, []).append((started, float("inf")))
        self._intervals = intervals
        self._fail_starts = {
            name: [start for start, _ in pairs] for name, pairs in intervals.items()
        }
        self.has_failures = bool(intervals)
        self._probability_times = np.asarray([t for t, _ in probability_points])
        self._probability_values = np.asarray(
            [base_handover_probability] + [p for _, p in probability_points]
        )

    def failed_at(self, cell_name: str, time_s: float) -> bool:
        """Whether ``cell_name`` is down when an arrival stamped ``time_s`` lands."""
        starts = self._fail_starts.get(cell_name)
        if not starts:
            return False
        index = bisect_right(starts, time_s) - 1
        if index < 0:
            return False
        start, end = self._intervals[cell_name][index]
        return start <= time_s < end

    def handover_probability(self, times: np.ndarray) -> np.ndarray:
        """The live handover probability at each arrival time (vectorized)."""
        if len(self._probability_times) == 0:
            return np.full(len(times), self._probability_values[0])
        indices = np.searchsorted(self._probability_times, times, side="right")
        return self._probability_values[indices]


def plan_mobility(
    sorted_times: np.ndarray,
    user_labels: Sequence[str],
    user_codes: np.ndarray,
    cell_names: Sequence[str],
    seed_root: int,
    faults: FaultTimelineView,
    neighbor_names: Dict[str, List[str]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve every request's serving cell before the replay.

    Parameters
    ----------
    sorted_times:
        Arrival timestamps, sorted non-decreasingly (the replay order).
    user_labels / user_codes:
        ``user_labels[user_codes[i]]`` is request ``i``'s user.  Labels are
        the RNG path components, so the same user always walks the same way
        regardless of which other users appear in the trace.
    cell_names:
        Deployment cells in ring order.
    seed_root:
        The backend's seed; each user's stream lives at
        ``("sharded-mobility", "user", label)`` below it.
    faults:
        Static outage intervals + piecewise handover probability.
    neighbor_names:
        Each cell's failover candidates in increasing backhaul-cost order
        (the serial engine's ``neighbor_order``, as names).

    Returns ``(cell_index, flag)`` arrays aligned with ``sorted_times``:
    the serving cell of each request and whether it arrived via a mobility
    handover or a failure re-home (:data:`MOBILITY_HANDOVER` /
    :data:`FAILOVER_HANDOVER`).

    Per user the stream consumes exactly ``1 + 2m`` draws for ``m`` arrivals
    (initial placement, one handover draw and one direction draw per
    arrival), independent of cell count or outages — so adding a fault
    timeline never shifts any user's walk.
    """
    num_cells = len(cell_names)
    num_requests = len(sorted_times)
    plan_cells = np.zeros(num_requests, dtype=np.int64)
    plan_flags = np.zeros(num_requests, dtype=np.int8)
    if num_requests == 0:
        return plan_cells, plan_flags
    tree = SeedTree(seed_root).child("sharded-mobility")
    ring_index = {name: index for index, name in enumerate(cell_names)}
    probabilities = faults.handover_probability(sorted_times)
    # Group request positions by user; the stable sort keeps each user's
    # arrivals in time order within its group.
    order = np.argsort(user_codes, kind="stable")
    grouped_codes = user_codes[order]
    boundaries = np.flatnonzero(np.diff(grouped_codes)) + 1
    groups = np.split(order, boundaries)
    for group in groups:
        label = user_labels[int(user_codes[group[0]])]
        rng = tree.rng("user", label)
        m = len(group)
        init = int(rng.integers(num_cells))
        handover_draws = rng.random(m)
        direction_draws = rng.random(m)
        moved = handover_draws < probabilities[group]
        if num_cells < 2:
            moved[:] = False
        if num_cells == 2:
            steps = np.where(moved, 1, 0)
        else:
            steps = np.where(moved, np.where(direction_draws < 0.5, 1, -1), 0)
        if not faults.has_failures:
            plan_cells[group] = (init + np.cumsum(steps)) % num_cells
            plan_flags[group] = np.where(moved, MOBILITY_HANDOVER, NO_HANDOVER)
            continue
        # Outages re-home users, which changes the base of every later ring
        # step — walk this user's arrivals sequentially (fault scenarios are
        # the small minority of the catalog).
        position = init
        times = sorted_times[group]
        for j in range(m):
            flag = NO_HANDOVER
            if moved[j]:
                position = (position + int(steps[j])) % num_cells
                flag = MOBILITY_HANDOVER
            time_s = float(times[j])
            name = cell_names[position]
            if faults.failed_at(name, time_s):
                fallback = None
                for candidate in neighbor_names[name]:
                    if not faults.failed_at(candidate, time_s):
                        fallback = candidate
                        break
                if fallback is not None:
                    position = ring_index[fallback]
                    flag = FAILOVER_HANDOVER
                # No alive candidate: keep the failed cell — the shard drops
                # the request at arrival, exactly as the serial engine would.
            index = group[j]
            plan_cells[index] = position
            plan_flags[index] = flag
    return plan_cells, plan_flags
