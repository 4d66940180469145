"""Named workload shape tests."""

from repro.corpus import (
    factorization_shapes,
    strong_scaling_shapes,
    transformer_shapes,
)
from repro.gemm import FP64


class TestTransformerShapes:
    def test_standard_layer_geometries(self):
        shapes = transformer_shapes(batch_tokens=4096, d_model=1024, d_ff=4096)
        assert shapes["qkv_proj"].shape == (4096, 3072, 1024)
        assert shapes["mlp_up"].shape == (4096, 4096, 1024)
        assert shapes["mlp_down"].shape == (4096, 1024, 4096)

    def test_all_positive(self):
        for p in transformer_shapes().values():
            assert min(p.shape) >= 1


class TestFactorizationShapes:
    def test_trailing_update_is_rank_panel(self):
        shapes = factorization_shapes(panel=128, trailing=2048)
        lu = shapes["lu_trailing_update"]
        assert lu.shape == (2048, 2048, 128)
        assert lu.dtype is FP64


class TestStrongScalingShapes:
    def test_fig8_scenarios_present(self):
        shapes = strong_scaling_shapes()
        assert shapes["fig8a_short_wide"].shape == (256, 3584, 8192)
        assert shapes["fig8b_square"].shape == (1024, 1024, 1024)
        assert shapes["fig8c_single_tile"].shape == (128, 128, 16384)
