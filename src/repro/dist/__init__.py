"""Fault-tolerant multi-node shard execution (`repro.dist`).

A **coordinator** (:mod:`.coordinator`) runs a batch on the one batch
loop with the nodes as its executor: it **leases** each
predicted-cost-balanced shard (:mod:`.packing`) to a remote **worker
node** (:mod:`.worker` — an HTTP wrapper around a warm
:class:`~repro.align.parallel.WorkerPool`), tracks node liveness with
heartbeats, and accounts every completion **exactly once** through the
resilience checkpoint journal.  Failed leases are re-leased under the
shared seeded retry policy, zombie completions are discarded by lease
epoch, repeatedly failing nodes are quarantined, and while no node is
usable shards run locally — the batch always completes, byte-identical
to a serial run.

The chaos proof lives in :mod:`.chaos`: a seeded ≥100-fault campaign
(node kill / hang / slow / partition mid-shard) across real localhost
worker processes, compared byte-for-byte against the serial engine.
"""

from .coordinator import (
    DistBatchResult,
    DistConfig,
    DistCoordinator,
    NodeHandle,
)
from .chaos import (
    DistCampaignReport,
    NodeFaultPlan,
    NodeSupervisor,
    run_dist_campaign,
)
from .packing import PackedShard, pack_shards, pick_node
from .protocol import (
    NODE_FAULT_KINDS,
    DistError,
    NodeFault,
    ProtocolError,
    ShardCompletion,
    ShardRequest,
)
from .worker import DistWorker, run_worker, running_worker

__all__ = [
    "DistBatchResult",
    "DistCampaignReport",
    "DistConfig",
    "DistCoordinator",
    "DistError",
    "DistWorker",
    "NODE_FAULT_KINDS",
    "NodeFault",
    "NodeFaultPlan",
    "NodeHandle",
    "NodeSupervisor",
    "PackedShard",
    "ProtocolError",
    "ShardCompletion",
    "ShardRequest",
    "pack_shards",
    "pick_node",
    "run_dist_campaign",
    "run_worker",
    "running_worker",
]
