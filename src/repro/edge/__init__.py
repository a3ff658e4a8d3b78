"""Edge-computing substrate: nodes, resources, network, offloading.

The discrete-event engine these build on lives in :mod:`repro.sim.engine`.
"""

from repro.edge.network import LinkSpec, NetworkTopology, build_linear_topology
from repro.edge.offloading import (
    AdaptiveOffloadingPolicy,
    AlwaysDevicePolicy,
    AlwaysEdgePolicy,
    OffloadingContext,
    OffloadingDecision,
    OffloadingPolicy,
    compare_policies,
    offloading_registry,
)
from repro.edge.resources import (
    ComputeResource,
    StorageResource,
    decode_flops,
    encode_flops,
    train_step_flops,
)
from repro.edge.server import ComputeNode, EdgeCluster, EdgeServer, MobileDevice, TaskResult

__all__ = [
    "ComputeResource",
    "StorageResource",
    "encode_flops",
    "decode_flops",
    "train_step_flops",
    "LinkSpec",
    "NetworkTopology",
    "build_linear_topology",
    "EdgeServer",
    "MobileDevice",
    "ComputeNode",
    "EdgeCluster",
    "TaskResult",
    "OffloadingContext",
    "OffloadingDecision",
    "OffloadingPolicy",
    "AlwaysDevicePolicy",
    "AlwaysEdgePolicy",
    "AdaptiveOffloadingPolicy",
    "compare_policies",
    "offloading_registry",
]
