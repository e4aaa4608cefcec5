"""Unit tests for the hardware models (GPU, network, cluster, communicators)."""

import pytest

from repro.hardware.cluster import ClusterSpec, CommunicatorGroups
from repro.hardware.gpu import (
    A100_SXM,
    B200,
    H100_SXM,
    H200_SXM,
    GPUSpec,
    gpu_names,
    registry_gpu,
    resolve_gpu,
)
from repro.hardware.network import NetworkSpec


class TestGPUSpec:
    def test_h100_headline_numbers(self):
        assert H100_SXM.sm_count == 132
        assert H100_SXM.bf16_tflops > A100_SXM.bf16_tflops

    def test_unit_conversions(self):
        gpu = GPUSpec(name="x", sm_count=1, bf16_tflops=1.0, fp32_tflops=1.0, memory_gb=1.0,
                      memory_bandwidth_gbps=1.0, nvlink_bandwidth_gbps=1.0)
        assert gpu.bf16_flops_per_us == pytest.approx(1e6)
        assert gpu.memory_bytes_per_us == pytest.approx(1e3)
        assert gpu.nvlink_bytes_per_us == pytest.approx(1e3)


class TestNetworkSpec:
    """The intra-node tier is the cluster GPU's NVLink; the rest is the fabric's."""

    @staticmethod
    def cluster(network: NetworkSpec | None = None) -> ClusterSpec:
        gpu = GPUSpec(name="nvlink-100", sm_count=1, bf16_tflops=1.0, fp32_tflops=1.0,
                      memory_gb=1.0, memory_bandwidth_gbps=1.0,
                      nvlink_bandwidth_gbps=100.0)
        return ClusterSpec(num_gpus=8, gpu=gpu, network=network or NetworkSpec())

    def test_intra_node_is_faster_than_inter_node(self):
        cluster = self.cluster()
        assert cluster.bandwidth_bytes_per_us(True) > cluster.bandwidth_bytes_per_us(False)
        assert cluster.network.latency_us(True) < cluster.network.latency_us(False)

    def test_efficiency_reduces_bandwidth(self):
        cluster = self.cluster(NetworkSpec(intra_node_efficiency=0.5))
        assert cluster.bandwidth_bytes_per_us(True) == pytest.approx(50.0 * 1e9 / 1e6)


class TestClusterSpec:
    def test_node_mapping(self):
        cluster = ClusterSpec(num_gpus=32, gpus_per_node=8)
        assert cluster.num_nodes == 4
        assert cluster.node_of(0) == 0
        assert cluster.node_of(8) == 1
        assert cluster.local_rank(9) == 1

    def test_partial_last_node_rounds_up(self):
        assert ClusterSpec(num_gpus=10, gpus_per_node=8).num_nodes == 2

    def test_is_intra_node(self):
        cluster = ClusterSpec(num_gpus=16, gpus_per_node=8)
        assert cluster.is_intra_node((0, 3, 7))
        assert not cluster.is_intra_node((0, 8))

    def test_rank_out_of_range_raises(self):
        cluster = ClusterSpec(num_gpus=8)
        with pytest.raises(ValueError):
            cluster.node_of(8)

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_gpus=0)
        with pytest.raises(ValueError):
            ClusterSpec(num_gpus=8, gpus_per_node=0)

    def test_for_world_size(self):
        cluster = ClusterSpec.for_world_size(512)
        assert cluster.num_gpus == 512
        assert cluster.num_nodes == 64


class TestCommunicatorGroups:
    def test_world_size(self):
        groups = CommunicatorGroups(2, 4, 8)
        assert groups.world_size == 64

    def test_coordinates_roundtrip(self):
        groups = CommunicatorGroups(2, 4, 8)
        for rank in range(groups.world_size):
            tp, dp, pp = groups.tp_index(rank), groups.dp_index(rank), groups.pp_index(rank)
            assert groups.rank_of(tp, dp, pp) == rank

    def test_tp_groups_are_contiguous(self):
        groups = CommunicatorGroups(4, 2, 2)
        assert groups.tp_group(0).ranks == (0, 1, 2, 3)
        assert groups.tp_group(5).ranks == (4, 5, 6, 7)

    def test_tp_group_is_intra_node_for_typical_configs(self):
        groups = CommunicatorGroups(8, 4, 4)
        cluster = ClusterSpec.for_world_size(groups.world_size)
        for rank in (0, 17, 100):
            assert cluster.is_intra_node(groups.tp_group(rank).ranks)

    def test_dp_group_strides_by_tp(self):
        groups = CommunicatorGroups(2, 2, 4)
        assert groups.dp_group(0).ranks == (0, 2, 4, 6)

    def test_pp_group_strides_by_tp_times_dp(self):
        groups = CommunicatorGroups(2, 2, 4)
        assert groups.pp_group(0).ranks == (0, 8)

    def test_pp_neighbors(self):
        groups = CommunicatorGroups(1, 4, 1)
        assert groups.pp_neighbors(0) == (None, 1)
        assert groups.pp_neighbors(2) == (1, 3)
        assert groups.pp_neighbors(3) == (2, None)

    def test_group_enumeration_counts(self):
        groups = CommunicatorGroups(2, 4, 8)
        assert len(groups.all_tp_groups()) == 4 * 8
        assert len(groups.all_dp_groups()) == 4 * 2
        assert len(groups.all_pp_groups()) == 8 * 2

    def test_every_rank_in_exactly_one_group_of_each_kind(self):
        groups = CommunicatorGroups(2, 2, 4)
        for collection in (groups.all_tp_groups(), groups.all_dp_groups(), groups.all_pp_groups()):
            seen = [rank for group in collection for rank in group.ranks]
            assert sorted(seen) == list(range(groups.world_size))

    def test_representative_ranks_one_per_stage(self):
        groups = CommunicatorGroups(2, 4, 2)
        representatives = groups.representative_ranks()
        assert len(representatives) == 4
        assert [groups.pp_index(rank) for rank in representatives] == [0, 1, 2, 3]

    def test_invalid_coordinates_raise(self):
        groups = CommunicatorGroups(2, 2, 2)
        with pytest.raises(ValueError):
            groups.rank_of(2, 0, 0)
        with pytest.raises(ValueError):
            groups.tp_index(99)

    def test_invalid_degrees_raise(self):
        with pytest.raises(ValueError):
            CommunicatorGroups(0, 1, 1)


class TestGPUSpecValidation:
    def _kwargs(self, **overrides):
        kwargs = dict(name="x", sm_count=1, bf16_tflops=1.0, fp32_tflops=1.0,
                      memory_gb=1.0, memory_bandwidth_gbps=1.0,
                      nvlink_bandwidth_gbps=1.0)
        kwargs.update(overrides)
        return kwargs

    @pytest.mark.parametrize("field", [
        "sm_count", "bf16_tflops", "fp32_tflops", "memory_gb",
        "memory_bandwidth_gbps", "nvlink_bandwidth_gbps",
    ])
    def test_non_positive_rates_raise(self, field):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            GPUSpec(**self._kwargs(**{field: 0}))
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            GPUSpec(**self._kwargs(**{field: -1.0}))

    @pytest.mark.parametrize("field", [
        "kernel_launch_overhead_us", "kernel_fixed_overhead_us",
    ])
    def test_negative_overheads_raise(self, field):
        with pytest.raises(ValueError, match=f"{field} must be non-negative"):
            GPUSpec(**self._kwargs(**{field: -0.5}))
        GPUSpec(**self._kwargs(**{field: 0.0}))  # zero overhead is allowed

    def test_empty_name_raises(self):
        with pytest.raises(ValueError, match="non-empty name"):
            GPUSpec(**self._kwargs(name="  "))


class TestGPURegistry:
    def test_registry_names(self):
        assert gpu_names() == ["A100-SXM", "B200", "H100-SXM", "H200-SXM"]

    def test_lookup_normalises_case_and_separators(self):
        assert registry_gpu("h200_sxm") is H200_SXM
        assert registry_gpu(" H200-SXM ") is H200_SXM
        assert registry_gpu("no-such-gpu") is None

    def test_h200_is_h100_with_hbm3e(self):
        # Same GH100 die: only the memory subsystem moves.
        assert H200_SXM.bf16_tflops == H100_SXM.bf16_tflops
        assert H200_SXM.sm_count == H100_SXM.sm_count
        assert H200_SXM.memory_bandwidth_gbps > H100_SXM.memory_bandwidth_gbps
        assert H200_SXM.memory_gb > H100_SXM.memory_gb

    def test_b200_headline_numbers(self):
        assert B200.bf16_tflops > H100_SXM.bf16_tflops
        assert B200.nvlink_bandwidth_gbps == 900.0


class TestGPUSpecJson:
    def test_round_trip(self):
        for spec in (H100_SXM, A100_SXM, H200_SXM, B200):
            assert GPUSpec.from_json(spec.to_json()) == spec

    def test_unknown_key_rejected(self):
        payload = H100_SXM.to_json()
        payload["tensor_cores"] = 4
        with pytest.raises(ValueError, match="unknown GPU spec keys"):
            GPUSpec.from_json(payload)

    def test_missing_key_rejected(self):
        payload = H100_SXM.to_json()
        del payload["memory_gb"]
        with pytest.raises(ValueError, match="missing required keys"):
            GPUSpec.from_json(payload)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="must be a JSON object"):
            GPUSpec.from_json(["H100-SXM"])

    def test_overheads_are_optional(self):
        payload = {key: value for key, value in H100_SXM.to_json().items()
                   if not key.startswith("kernel_")}
        spec = GPUSpec.from_json(payload)
        assert spec.kernel_launch_overhead_us == 6.0


class TestResolveGPU:
    def test_spec_passes_through(self):
        assert resolve_gpu(H200_SXM) is H200_SXM

    def test_registry_name(self):
        assert resolve_gpu("b200") is B200

    def test_json_file(self, tmp_path):
        import json
        path = tmp_path / "custom.json"
        payload = dict(H100_SXM.to_json(), name="H100-CUSTOM")
        path.write_text(json.dumps(payload))
        spec = resolve_gpu(str(path))
        assert spec.name == "H100-CUSTOM"

    def test_unknown_name_lists_known_specs(self):
        with pytest.raises(ValueError, match="known specs: A100-SXM, B200"):
            resolve_gpu("RTX-9090")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read GPU spec file"):
            resolve_gpu(str(tmp_path / "missing.json"))

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            resolve_gpu(str(path))
