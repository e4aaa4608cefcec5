"""Network specifications.

Two tiers matter for 3D-parallel training:

* intra-node: GPUs inside a server communicate over NVLink/NVSwitch, at
  the GPU's own NVLink bandwidth (:attr:`GPUSpec.nvlink_bandwidth_gbps`);
* inter-node: servers communicate over the datacenter fabric (the paper's
  cluster uses 8×400 Gbps RoCE per host, i.e. one 400 Gbps NIC per GPU).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkSpec:
    """Bandwidth/latency description of the training fabric.

    The intra-node tier's bandwidth is the GPU's own NVLink, which
    ``ClusterSpec.bandwidth_bytes_per_us`` reads from the cluster's GPU.

    Attributes
    ----------
    inter_node_bandwidth_gbps:
        Per-GPU unidirectional network bandwidth in GB/s (NIC line rate
        divided by 8 bits, shared fabric effects folded into efficiency).
    intra_node_latency_us:
        Per-hop latency for NVLink transfers.
    inter_node_latency_us:
        Per-hop latency for RoCE transfers (including NIC and switch).
    intra_node_efficiency / inter_node_efficiency:
        Achievable fraction of peak bandwidth for large messages
        (protocol overhead, congestion).
    """

    inter_node_bandwidth_gbps: float = 50.0
    intra_node_latency_us: float = 2.0
    inter_node_latency_us: float = 12.0
    intra_node_efficiency: float = 0.80
    inter_node_efficiency: float = 0.72

    def latency_us(self, intra_node: bool) -> float:
        """Per-hop latency in microseconds for the given tier."""
        return self.intra_node_latency_us if intra_node else self.inter_node_latency_us


#: Default fabric modelled after the paper's testbed: NVLink inside a host,
#: 8×400 Gbps RoCE between hosts (400 Gbps = 50 GB/s per GPU).
DEFAULT_ROce_NETWORK = NetworkSpec()
