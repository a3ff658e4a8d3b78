"""The request object flowing through the multi-cell event simulation.

Each request walks the lifecycle::

    arrival -> (handover?) -> cache lookup -> (model fetch?) -> batch queue
            -> encode on the edge server -> downlink transmit -> completion

Every stage stamps its timestamp on the request, so latency can be decomposed
after the run (how much time went to fetching models vs. waiting for a batch
vs. compute vs. the radio link).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Lifecycle states.
ARRIVED = "arrived"
FETCHING = "fetching"
QUEUED = "queued"
COMPLETED = "completed"
#: Terminal state of a request that could not be served: its serving cell
#: failed and no alive cell was reachable (only possible under fault
#: injection, never in a healthy deployment).
DROPPED = "dropped"
#: Terminal state under a resilience policy: the serving cell's outstanding
#: queue was at ``shed_queue_depth`` so the request was rejected at admission.
SHED = "shed"
#: Terminal state under a resilience policy: the request's ``deadline_s``
#: budget expired before it could be batched.
DEADLINE_EXCEEDED = "deadline_exceeded"

#: Statuses a request can end the run in.
TERMINAL_STATUSES = (COMPLETED, DROPPED, SHED, DEADLINE_EXCEEDED)

#: Transient status of a request object abandoned by the sharded backend
#: because its lifecycle continued on another shard (as a new request id).
#: Never a terminal status — the cross-shard continuation terminates instead —
#: but resilience timers (hedging) check it so they never act on a husk.
FORWARDED = "forwarded"

#: Handover flag of an arrival entering admission: none, a mobility
#: handover (the user moved cells), or a failure re-home (the user's cell was
#: down when it was planned, or a cross-shard continuation arrived).
NO_HANDOVER = 0
MOBILITY_HANDOVER = 1
FAILOVER_HANDOVER = 2

#: Cache-lookup outcomes.
LOCAL_HIT = "hit"
NEIGHBOR_FETCH = "neighbor"
CLOUD_FETCH = "cloud"
COALESCED = "coalesced"
CACHE_OUTCOMES = (LOCAL_HIT, NEIGHBOR_FETCH, CLOUD_FETCH, COALESCED)

#: Sentinel for "stage not reached yet".
UNSET = -1.0


@dataclass(slots=True)
class Request:
    """One user request replayed through the simulator.

    ``slots=True`` keeps the per-request footprint flat across 200k+-request
    replays (no per-instance ``__dict__``), and the order of the six required
    fields is part of the contract: the replay hot loop constructs requests
    positionally.

    Attributes
    ----------
    request_id:
        Monotonically increasing id assigned by the simulator.
    user_id / domain:
        Who sent the request and which domain model it needs.
    model_key:
        Cache key of the semantic model serving the request.
    arrival_time:
        Trace timestamp of the request.
    num_tokens:
        Message length driving the encode FLOP cost.
    cell:
        Name of the serving cell (fixed after mobility/handover resolution).
    """

    request_id: int
    user_id: str
    domain: str
    model_key: str
    arrival_time: float
    num_tokens: int
    cell: str = ""
    status: str = ARRIVED
    cache_outcome: str = ""
    handover: bool = False
    lookup_time: float = UNSET
    fetch_done_time: float = UNSET
    enqueue_time: float = UNSET
    compute_start_time: float = UNSET
    compute_done_time: float = UNSET
    completion_time: float = UNSET
    #: Retry attempts consumed so far (resilience policies only).
    attempts: int = 0
    #: Whether this physical request is the hedged duplicate of another.
    is_hedge: bool = False
    #: Cell whose outstanding-queue counter this request currently occupies
    #: ("" when not admitted); maintained only under a resilience policy.
    admitted_cell: str = ""
    #: Cell whose placed-queue counter this request currently occupies
    #: ("" when not placed); maintained only under a placement policy.
    placed_cell: str = ""

    @property
    def completed(self) -> bool:
        """Whether the request reached the end of its lifecycle."""
        return self.status == COMPLETED

    @property
    def total_latency(self) -> float:
        """Arrival-to-completion latency in seconds (``UNSET`` if unfinished)."""
        if self.completion_time == UNSET:
            return UNSET
        return self.completion_time - self.arrival_time

    @property
    def fetch_delay(self) -> float:
        """Seconds spent establishing the model (0 on a local hit)."""
        if self.fetch_done_time == UNSET or self.lookup_time == UNSET:
            return 0.0
        return self.fetch_done_time - self.lookup_time

    @property
    def batch_wait(self) -> float:
        """Seconds between joining the batch queue and compute starting."""
        if self.compute_start_time == UNSET or self.enqueue_time == UNSET:
            return 0.0
        return self.compute_start_time - self.enqueue_time
