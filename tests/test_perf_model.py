"""Tests for the trace-calibrated kernel performance model."""

import pytest

from repro.core.perf_model import KernelPerfModel, parse_gemm_shape
from repro.hardware.cluster import ClusterSpec
from repro.kernels.gemm import gemm_time_us


class TestGemmShapeParsing:
    def test_parse_from_emulated_kernel_name(self):
        assert parse_gemm_shape("sm90_xmma_gemm_bf16_attn_qkv_m4096_n9216_k6144") == \
            (4096, 9216, 6144)

    def test_parse_missing_shape_returns_none(self):
        assert parse_gemm_shape("flash::attention") is None


@pytest.fixture(scope="module")
def calibrated(small_graph, small_parallel):
    cluster = ClusterSpec.for_world_size(small_parallel.world_size)
    return KernelPerfModel.calibrate(small_graph, cluster)


@pytest.fixture(scope="module")
def calibrated_large_cluster(calibrated):
    """The same calibration re-targeted onto a 4-node cluster."""
    return KernelPerfModel(cluster=ClusterSpec(num_gpus=32, gpus_per_node=8),
                           dtype_bytes=calibrated.dtype_bytes,
                           calibration=dict(calibrated.calibration))


class TestCalibration:
    def test_gemm_calibration_close_to_one(self, calibrated):
        # The emulator and the perf model share the analytical form, so the
        # fitted calibration factor should sit near 1 (jitter aside).
        assert calibrated.calibration_factor("gemm") == pytest.approx(1.0, abs=0.15)

    def test_communication_classes_calibrated(self, calibrated):
        assert any(key.startswith("comm:tp:") for key in calibrated.calibration)
        assert any(key.startswith("comm:pp:") for key in calibrated.calibration)

    def test_unknown_class_falls_back_to_default(self, calibrated):
        assert calibrated.calibration_factor("something_else") == 1.0

    def test_unknown_comm_group_falls_back_to_same_kind(self, calibrated):
        factor = calibrated.calibration_factor("comm:ep:all_reduce")
        assert 0.5 < factor < 2.0


class TestPredictions:
    def test_predict_gemm_matches_analytical_times_calibration(self, calibrated):
        analytical = gemm_time_us(1024, 1024, 1024, 2, calibrated.cluster.gpu)
        predicted = calibrated.predict_gemm_us(1024, 1024, 1024)
        assert predicted == pytest.approx(analytical * calibrated.calibration_factor("gemm"))

    def test_predict_collective_larger_group_not_cheaper(self, calibrated_large_cluster):
        small = calibrated_large_cluster.predict_collective_us("all_reduce", 1e8, (0, 1),
                                                                group="tp")
        large = calibrated_large_cluster.predict_collective_us("all_reduce", 1e8, (0, 8, 16, 24),
                                                               group="dp")
        assert large > small

    def test_predict_memory_bound_scales_with_bytes(self, calibrated):
        assert calibrated.predict_memory_bound_us("elementwise", 2e8) > \
            calibrated.predict_memory_bound_us("elementwise", 1e8)


class TestRatioScaling:
    def test_scale_gemm_identity(self, calibrated):
        assert calibrated.scale_gemm((512, 512, 512), (512, 512, 512))(100.0) == \
            pytest.approx(100.0)

    def test_scale_gemm_larger_shape_takes_longer(self, calibrated):
        assert calibrated.scale_gemm((1024, 1024, 1024), (1024, 2048, 1024))(100.0) > 150.0

    def test_scale_collective_identity(self, calibrated):
        assert calibrated.scale_collective("all_reduce", 1e8, (0, 1), 1e8, (0, 1))(50.0) == \
            pytest.approx(50.0)

    def test_scale_collective_to_inter_node_group_costs_more(self, calibrated_large_cluster):
        scaled = calibrated_large_cluster.scale_collective("all_reduce", 1e8, (0, 2, 4, 6),
                                                           1e8, (0, 2, 8, 10))(50.0)
        assert scaled > 50.0

    def test_scale_collective_point_to_point(self, calibrated):
        scaled = calibrated.scale_collective("send", 1e7, (0, 1), 2e7, (0, 1))(20.0)
        assert scaled > 20.0

    def test_scale_memory_bound_preserves_overhead(self, calibrated):
        overhead = calibrated.cluster.gpu.kernel_fixed_overhead_us
        scaled = calibrated.scale_memory_bound(1e6, 2e6)(overhead + 10.0)
        assert scaled == pytest.approx(overhead + 20.0)

    def test_scale_memory_bound_zero_old_bytes_is_identity(self, calibrated):
        assert calibrated.scale_memory_bound(0.0, 1e6)(42.0) == 42.0

    def test_scale_flops_bound(self, calibrated):
        overhead = calibrated.cluster.gpu.kernel_fixed_overhead_us
        scaled = calibrated.scale_flops_bound(1e12, 2.5e12)(overhead + 100.0)
        assert scaled == pytest.approx(overhead + 250.0)
