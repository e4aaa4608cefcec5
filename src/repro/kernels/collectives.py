"""Collective communication cost models.

Ring-based alpha-beta models for NCCL-style collectives on a two-tier
fabric (the GPU's NVLink inside a node, RoCE across nodes).

For groups that span nodes, NCCL builds multiple rings (channels) so that
every group member inside a node drives its own NIC.  The effective
inter-node bandwidth therefore scales with the number of group members per
node, which is why scaling data parallelism across nodes in the paper's
Figure 7a increases communication time only moderately instead of by the
single-NIC worst case.
"""

from __future__ import annotations

from collections import Counter

from repro.hardware.cluster import ClusterSpec

_NCCL_KERNEL_OVERHEAD_US = 6.0


def _ring_parameters(kind: str, group_size: int) -> tuple[float, int]:
    """Return ``(traffic_factor, latency_hops)`` for a ring collective.

    ``traffic_factor`` multiplies the message size to give bytes sent per
    rank; ``latency_hops`` counts ring steps for the alpha term.
    """
    n = group_size
    if n <= 1:
        return 0.0, 0
    if kind == "all_reduce":
        return 2.0 * (n - 1) / n, 2 * (n - 1)
    if kind in ("reduce_scatter", "all_gather"):
        return float(n - 1) / n, n - 1
    if kind == "broadcast":
        return 1.0, n - 1
    raise ValueError(f"unknown collective kind '{kind}'")


def effective_bandwidth_bytes_per_us(group_ranks: tuple[int, ...] | list[int],
                                     cluster: ClusterSpec) -> float:
    """Effective per-rank bus bandwidth for a ring over ``group_ranks``."""
    ranks = tuple(group_ranks)
    if cluster.is_intra_node(ranks):
        return cluster.bandwidth_bytes_per_us(intra_node=True)
    members_per_node = max(Counter(cluster.node_of(r) for r in ranks).values())
    nic_parallelism = min(members_per_node, cluster.gpus_per_node)
    return cluster.bandwidth_bytes_per_us(intra_node=False) * nic_parallelism


def collective_time_us(kind: str, size_bytes: float, group_ranks: tuple[int, ...] | list[int],
                       cluster: ClusterSpec) -> float:
    """Duration of a collective over ``group_ranks`` moving ``size_bytes`` per rank."""
    if size_bytes < 0:
        raise ValueError("size_bytes must be non-negative")
    group_size = len(group_ranks)
    if group_size <= 1 or size_bytes == 0:
        return _NCCL_KERNEL_OVERHEAD_US

    traffic_factor, hops = _ring_parameters(kind, group_size)
    bandwidth = effective_bandwidth_bytes_per_us(group_ranks, cluster)
    intra_node = cluster.is_intra_node(tuple(group_ranks))
    latency = cluster.network.latency_us(intra_node)
    transfer_us = traffic_factor * size_bytes / bandwidth
    return transfer_us + hops * latency + _NCCL_KERNEL_OVERHEAD_US


def point_to_point_time_us(size_bytes: float, src: int, dst: int,
                           cluster: ClusterSpec) -> float:
    """Duration of a send/recv pair moving ``size_bytes`` from ``src`` to ``dst``."""
    if size_bytes < 0:
        raise ValueError("size_bytes must be non-negative")
    intra_node = cluster.is_intra_node((src, dst))
    bandwidth = cluster.bandwidth_bytes_per_us(intra_node)
    latency = cluster.network.latency_us(intra_node)
    return size_bytes / bandwidth + latency + _NCCL_KERNEL_OVERHEAD_US
