"""Cluster layout and communicator-group construction.

Ranks are laid out Megatron-style with tensor parallelism innermost, then
data parallelism, then pipeline parallelism outermost::

    tp_index = rank % TP
    dp_index = (rank // TP) % DP
    pp_index = rank // (TP * DP)

With 8 GPUs per node this keeps tensor-parallel groups inside a node (the
paper notes TP is "typically fixed in practice (e.g., within a single
node)") and places pipeline stages on different nodes, which is what makes
pipeline and data-parallel communication sensitive to the inter-node
fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.gpu import GPUSpec, H100_SXM
from repro.hardware.network import NetworkSpec, DEFAULT_ROce_NETWORK


@dataclass(frozen=True)
class ProcessGroup:
    """A communicator: an ordered list of global ranks plus a label."""

    kind: str
    ranks: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.ranks)

    def __contains__(self, rank: int) -> bool:
        return rank in self.ranks


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous GPU cluster.

    Attributes
    ----------
    num_gpus:
        Total number of GPUs (the world size of the training job).
    gpus_per_node:
        GPUs per server; 8 for the paper's H100 servers.
    gpu:
        Per-GPU specification; its NVLink bandwidth is the intra-node tier.
    network:
        Fabric specification: the inter-node tier, latencies, efficiencies.
    """

    num_gpus: int
    gpus_per_node: int = 8
    gpu: GPUSpec = field(default=H100_SXM)
    network: NetworkSpec = field(default=DEFAULT_ROce_NETWORK)

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise ValueError(f"num_gpus must be positive, got {self.num_gpus}")
        if self.gpus_per_node <= 0:
            raise ValueError(f"gpus_per_node must be positive, got {self.gpus_per_node}")

    @property
    def num_nodes(self) -> int:
        """Number of servers (rounded up)."""
        return -(-self.num_gpus // self.gpus_per_node)

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank``."""
        self._check_rank(rank)
        return rank // self.gpus_per_node

    def local_rank(self, rank: int) -> int:
        """Index of ``rank`` within its node."""
        self._check_rank(rank)
        return rank % self.gpus_per_node

    def is_intra_node(self, ranks: tuple[int, ...] | list[int]) -> bool:
        """True when all ``ranks`` live on the same node."""
        nodes = {self.node_of(r) for r in ranks}
        return len(nodes) <= 1

    def bandwidth_bytes_per_us(self, intra_node: bool) -> float:
        """Effective per-GPU bandwidth in bytes/us: NVLink or the fabric's NIC."""
        net = self.network
        gbps = (self.gpu.nvlink_bandwidth_gbps * net.intra_node_efficiency if intra_node
                else net.inter_node_bandwidth_gbps * net.inter_node_efficiency)
        return gbps * 1e9 / 1e6

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_gpus:
            raise ValueError(f"rank {rank} out of range for cluster with {self.num_gpus} GPUs")

    @classmethod
    def for_world_size(cls, world_size: int, gpus_per_node: int = 8,
                       gpu: GPUSpec = H100_SXM,
                       network: NetworkSpec = DEFAULT_ROce_NETWORK) -> "ClusterSpec":
        """Convenience constructor sized exactly for ``world_size`` GPUs."""
        return cls(num_gpus=world_size, gpus_per_node=gpus_per_node, gpu=gpu, network=network)


class CommunicatorGroups:
    """Tensor/data/pipeline process groups for a 3D-parallel job."""

    def __init__(self, tensor_parallel: int, pipeline_parallel: int, data_parallel: int) -> None:
        if min(tensor_parallel, pipeline_parallel, data_parallel) < 1:
            raise ValueError("parallel degrees must be >= 1")
        self.tp = tensor_parallel
        self.pp = pipeline_parallel
        self.dp = data_parallel
        self.world_size = tensor_parallel * pipeline_parallel * data_parallel

    # -- coordinates --------------------------------------------------------

    def tp_index(self, rank: int) -> int:
        self._check_rank(rank)
        return rank % self.tp

    def dp_index(self, rank: int) -> int:
        self._check_rank(rank)
        return (rank // self.tp) % self.dp

    def pp_index(self, rank: int) -> int:
        self._check_rank(rank)
        return rank // (self.tp * self.dp)

    def rank_of(self, tp_index: int, dp_index: int, pp_index: int) -> int:
        """Global rank for the given 3D coordinates."""
        if not (0 <= tp_index < self.tp and 0 <= dp_index < self.dp and 0 <= pp_index < self.pp):
            raise ValueError(
                f"coordinates ({tp_index}, {dp_index}, {pp_index}) out of range "
                f"for TP={self.tp}, DP={self.dp}, PP={self.pp}"
            )
        return pp_index * (self.tp * self.dp) + dp_index * self.tp + tp_index

    # -- groups --------------------------------------------------------------

    def tp_group(self, rank: int) -> ProcessGroup:
        """The tensor-parallel group containing ``rank``."""
        dp_index, pp_index = self.dp_index(rank), self.pp_index(rank)
        ranks = tuple(self.rank_of(t, dp_index, pp_index) for t in range(self.tp))
        return ProcessGroup(kind="tp", ranks=ranks)

    def dp_group(self, rank: int) -> ProcessGroup:
        """The data-parallel group containing ``rank``."""
        tp_index, pp_index = self.tp_index(rank), self.pp_index(rank)
        ranks = tuple(self.rank_of(tp_index, d, pp_index) for d in range(self.dp))
        return ProcessGroup(kind="dp", ranks=ranks)

    def pp_group(self, rank: int) -> ProcessGroup:
        """The pipeline group containing ``rank`` (all stages, same TP/DP slot)."""
        tp_index, dp_index = self.tp_index(rank), self.dp_index(rank)
        ranks = tuple(self.rank_of(tp_index, dp_index, p) for p in range(self.pp))
        return ProcessGroup(kind="pp", ranks=ranks)

    def pp_neighbors(self, rank: int) -> tuple[int | None, int | None]:
        """The (previous, next) pipeline-stage peers of ``rank``."""
        group = self.pp_group(rank).ranks
        index = group.index(rank)
        previous = group[index - 1] if index > 0 else None
        nxt = group[index + 1] if index + 1 < len(group) else None
        return previous, nxt

    def all_tp_groups(self) -> list[ProcessGroup]:
        """One group per (dp, pp) slot."""
        return [
            ProcessGroup(kind="tp", ranks=tuple(self.rank_of(t, d, p) for t in range(self.tp)))
            for p in range(self.pp)
            for d in range(self.dp)
        ]

    def all_dp_groups(self) -> list[ProcessGroup]:
        """One group per (tp, pp) slot."""
        return [
            ProcessGroup(kind="dp", ranks=tuple(self.rank_of(t, d, p) for d in range(self.dp)))
            for p in range(self.pp)
            for t in range(self.tp)
        ]

    def all_pp_groups(self) -> list[ProcessGroup]:
        """One group per (tp, dp) slot."""
        return [
            ProcessGroup(kind="pp", ranks=tuple(self.rank_of(t, d, p) for p in range(self.pp)))
            for d in range(self.dp)
            for t in range(self.tp)
        ]

    def representative_ranks(self) -> list[int]:
        """One rank per pipeline stage (tp_index = dp_index = 0).

        The emulator models these ranks explicitly; TP and DP peers execute
        mirrored work whose communication cost is already captured through
        the group sizes, so modeling one rank per stage preserves the
        pipeline and overlap structure while keeping event counts tractable.
        """
        return [self.rank_of(0, 0, p) for p in range(self.pp)]

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range for world size {self.world_size}")
