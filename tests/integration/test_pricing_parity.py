"""One Stream-K pricing path: the library, a corpus row and a served plan
give the same time and makespan, bit for bit.

``StreamKLibrary`` reads its numbers from ``plan_query``, the corpus
engine reads the ``plan_batch`` columns, and the daemon serves
``plan_query`` records; a second pricing path anywhere shows up here as a
last-bit difference.  The slice covers all three planning regimes on
every preset and both evaluated precisions.
"""

import numpy as np
import pytest

from repro.corpus import PAPER_CORPUS, generate_corpus
from repro.ensembles import StreamKDuoLibrary, StreamKLibrary
from repro.gemm import FP16_FP32, FP64, GemmProblem
from repro.gpu import available_gpus, resolve_gpu
from repro.harness.vectorized import evaluate_corpus
from repro.plan import KIND_NAMES, plan_batch, plan_query

#: Corpus rows taken per planning regime, from the corpus head.
ROWS_PER_KIND = 24
CORPUS_HEAD = 4000


@pytest.fixture(scope="module")
def slices():
    """``(gpu name, dtype name) -> shapes``: up to ``ROWS_PER_KIND``
    corpus rows of each regime, plus one-tile shapes, which are basic
    Stream-K on every preset (the corpus has no such FP64 row on the
    4-SM GPU)."""
    corpus = generate_corpus(PAPER_CORPUS)[:CORPUS_HEAD]
    out = {}
    for gpu_name in available_gpus():
        gpu = resolve_gpu(gpu_name)
        for dtype in (FP64, FP16_FP32):
            kinds = plan_batch(corpus, dtype, gpu).kinds
            rows = [
                np.flatnonzero(kinds == code)[:ROWS_PER_KIND]
                for code in range(len(KIND_NAMES))
            ]
            blk_m, blk_n, blk_k = dtype.default_blocking
            one_tile = np.array(
                [[blk_m, blk_n, 64 * blk_k], [blk_m - 3, blk_n, 7 * blk_k + 5]]
            )
            shapes = np.concatenate([corpus[np.concatenate(rows)], one_tile])
            assert set(plan_batch(shapes, dtype, gpu).kinds) == {0, 1, 2}
            out[gpu_name, dtype.name] = shapes
    return out


@pytest.mark.parametrize("dtype", [FP64, FP16_FP32], ids=lambda d: d.name)
@pytest.mark.parametrize("gpu_name", available_gpus())
def test_library_corpus_and_served_plan_agree_bitwise(slices, gpu_name, dtype):
    gpu = resolve_gpu(gpu_name)
    shapes = slices[gpu_name, dtype.name]
    lib = StreamKLibrary(gpu, dtype)
    res = evaluate_corpus(shapes, dtype, gpu)
    batch = plan_batch(shapes, dtype, gpu)
    for i, (m, n, k) in enumerate(shapes.tolist()):
        problem = GemmProblem(m, n, k, dtype=dtype)
        served = plan_query(m, n, k, dtype, gpu)
        where = "%s %s %s (%s)" % (gpu_name, dtype.name, (m, n, k), served.kind)
        assert lib.time_s(problem) == res.streamk[i] == served.time_s, where
        assert (
            lib.makespan_cycles(problem)
            == batch.makespan_cycles[i]
            == served.makespan_cycles
        ), where


@pytest.mark.parametrize("dtype", [FP64, FP16_FP32], ids=lambda d: d.name)
@pytest.mark.parametrize("gpu_name", available_gpus())
def test_duo_prices_through_the_planner(slices, gpu_name, dtype):
    """The duo's big kernel is the corpus Stream-K column; its small kernel
    is the planner at the small blocking and that kernel's constants."""
    gpu = resolve_gpu(gpu_name)
    shapes = slices[gpu_name, dtype.name]
    duo = StreamKDuoLibrary(gpu, dtype)
    res = evaluate_corpus(shapes, dtype, gpu)
    picked = set()
    for i, (m, n, k) in enumerate(shapes.tolist()):
        problem = GemmProblem(m, n, k, dtype=dtype)
        kernel = duo.choose(problem)
        picked.add(kernel)
        choice = duo.plan(problem)
        assert choice.kernel == kernel
        assert duo.time_s(problem) == choice.time_s == choice.plan.time_s
        if kernel == "big":
            assert duo.time_s(problem) == res.streamk[i], (m, n, k)
        else:
            assert choice.plan == plan_query(
                m, n, k, dtype, gpu,
                params=duo.small.params, blocking=duo.small.blocking,
            )
            assert choice.plan.kind in KIND_NAMES
    assert picked == {"big", "small"}
