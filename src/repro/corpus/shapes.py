"""Named workload shapes for the examples and ablations.

The paper's introduction motivates GEMM via deep-learning workloads
(transformers) and scientific factorizations.  These
are representative concrete geometries used by the example applications —
not part of the evaluation corpus, which is the log-sampled Figure 4 set.
"""

from __future__ import annotations

from ..gemm.dtypes import FP16_FP32, FP64, DtypeConfig
from ..gemm.problem import GemmProblem

__all__ = [
    "transformer_shapes",
    "factorization_shapes",
    "strong_scaling_shapes",
]


def transformer_shapes(
    batch_tokens: int = 4096,
    d_model: int = 1024,
    d_ff: int = 4096,
    d_head: int = 64,
    heads: int = 16,
    dtype: DtypeConfig = FP16_FP32,
) -> "dict[str, GemmProblem]":
    """The GEMMs of one transformer layer at a given token batch.

    QKV/output projections, the two MLP matmuls, and the attention score /
    value products (per head, batched sizes folded into m).
    """
    return {
        "qkv_proj": GemmProblem(batch_tokens, 3 * d_model, d_model, dtype=dtype),
        "attn_out_proj": GemmProblem(batch_tokens, d_model, d_model, dtype=dtype),
        "mlp_up": GemmProblem(batch_tokens, d_ff, d_model, dtype=dtype),
        "mlp_down": GemmProblem(batch_tokens, d_model, d_ff, dtype=dtype),
        "attn_scores": GemmProblem(
            batch_tokens, batch_tokens // heads, d_head, dtype=dtype
        ),
        "attn_values": GemmProblem(
            batch_tokens, d_head, batch_tokens // heads, dtype=dtype
        ),
    }


def factorization_shapes(
    panel: int = 256, trailing: int = 4096, dtype: DtypeConfig = FP64
) -> "dict[str, GemmProblem]":
    """Trailing-matrix updates of blocked LU/QR/Cholesky factorizations:
    rank-``panel`` updates of a ``trailing``-sized remainder."""
    return {
        "lu_trailing_update": GemmProblem(trailing, trailing, panel, dtype=dtype),
        "qr_panel_apply": GemmProblem(panel, trailing, trailing, dtype=dtype),
    }


def strong_scaling_shapes(dtype: DtypeConfig = FP16_FP32) -> "dict[str, GemmProblem]":
    """Small-output, deep-k shapes where tile-based decompositions starve
    (the paper's peak-speedup regime and its Figure 8/9 scenarios)."""
    return {
        "fig8a_short_wide": GemmProblem(256, 3584, 8192, dtype=dtype),
        "fig8b_square": GemmProblem(1024, 1024, 1024, dtype=dtype),
        "fig8c_single_tile": GemmProblem(128, 128, 16384, dtype=dtype),
        "fig9_tiny_output": GemmProblem(128, 128, 384, dtype=dtype),
    }
