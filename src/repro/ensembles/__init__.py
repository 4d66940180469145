"""Library emulations: CUTLASS singletons, the DP oracle, a cuBLAS-like
heuristic ensemble, the shipped Stream-K library, and the Stream-K++
adaptive selector (a winner table over analytic or ensemble-oracle
selection; docs/ADAPTIVE.md)."""

from .adaptive import (
    AdaptiveReplayConfig,
    AdaptiveSelector,
    Selection,
    Winner,
    analytic_evaluator,
    ensemble_evaluator,
    replay_adaptive,
)
from .cublas import SPLIT_FACTORS, CublasChoice, cublas_select, cublas_variants
from .cutlass import ORACLE_BLOCKINGS, oracle_variants, singleton_variant
from .heuristics import ProxyScore, heuristic_select, proxy_score
from .kernels import KernelVariant, variant_time_s
from .oracle import OracleChoice, oracle_select
from .streamk_duo import DuoChoice, StreamKDuoLibrary, small_blocking_for
from .streamk_library import StreamKLibrary

__all__ = [
    "AdaptiveReplayConfig",
    "AdaptiveSelector",
    "Selection",
    "Winner",
    "analytic_evaluator",
    "ensemble_evaluator",
    "replay_adaptive",
    "CublasChoice",
    "KernelVariant",
    "ORACLE_BLOCKINGS",
    "OracleChoice",
    "ProxyScore",
    "SPLIT_FACTORS",
    "DuoChoice",
    "StreamKDuoLibrary",
    "StreamKLibrary",
    "cublas_select",
    "cublas_variants",
    "heuristic_select",
    "oracle_select",
    "oracle_variants",
    "proxy_score",
    "singleton_variant",
    "small_blocking_for",
    "variant_time_s",
]
