"""Evaluation corpora: the paper's 32,824-shape test set and named
example workloads."""

from .filters import compute_bound_mask, intensity_bins, ops_per_byte
from .generator import (
    PAPER_CORPUS,
    PAPER_CORPUS_SIZE,
    PAPER_DOMAIN,
    PAPER_SEED,
    CorpusSpec,
    corpus_problems,
    generate_corpus,
)
from .shapes import (
    factorization_shapes,
    strong_scaling_shapes,
    transformer_shapes,
)

__all__ = [
    "CorpusSpec",
    "PAPER_CORPUS",
    "PAPER_CORPUS_SIZE",
    "PAPER_DOMAIN",
    "PAPER_SEED",
    "compute_bound_mask",
    "corpus_problems",
    "factorization_shapes",
    "generate_corpus",
    "intensity_bins",
    "ops_per_byte",
    "strong_scaling_shapes",
    "transformer_shapes",
]
