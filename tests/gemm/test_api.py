"""High-level gemm() entry-point tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gemm import FP16_FP32, FP64, GemmProblem, gemm, random_operands
from repro.gpu import HYPOTHETICAL_4SM


@pytest.fixture
def fp64_ops():
    p = GemmProblem(96, 80, 64, dtype=FP64)
    return random_operands(p, 0)


class TestGemm:
    def test_plain_product(self, fp64_ops):
        a, b = fp64_ops
        r = gemm(a, b, gpu=HYPOTHETICAL_4SM)
        assert np.allclose(r.c, a @ b)
        assert r.problem.dtype is FP64  # inferred from float64 operands
        assert r.time_s > 0 and r.tflops > 0

    def test_alpha_beta(self, fp64_ops):
        a, b = fp64_ops
        c = np.ones((96, 80))
        r = gemm(a, b, alpha=2.0, beta=0.5, c=c, gpu=HYPOTHETICAL_4SM)
        assert np.allclose(r.c, 2.0 * (a @ b) + 0.5 * c)

    def test_transpose_flags(self, fp64_ops):
        a, b = fp64_ops
        expect = a @ b
        r_tn = gemm(np.ascontiguousarray(a.T), b, transpose_a=True, gpu=HYPOTHETICAL_4SM)
        r_nt = gemm(a, np.ascontiguousarray(b.T), transpose_b=True, gpu=HYPOTHETICAL_4SM)
        r_tt = gemm(
            np.ascontiguousarray(a.T),
            np.ascontiguousarray(b.T),
            transpose_a=True,
            transpose_b=True,
            gpu=HYPOTHETICAL_4SM,
        )
        for r in (r_tn, r_nt, r_tt):
            assert np.allclose(r.c, expect)

    def test_fp16_inference(self):
        p = GemmProblem(64, 64, 128, dtype=FP16_FP32)
        a, b = random_operands(p, 1)
        r = gemm(a, b, gpu=HYPOTHETICAL_4SM)
        assert r.problem.dtype is FP16_FP32
        assert r.c.dtype == np.float32

    def test_plan_kind_exposed(self, fp64_ops):
        a, b = fp64_ops
        r = gemm(a, b, gpu=HYPOTHETICAL_4SM)
        assert r.plan_kind in ("data_parallel", "basic_stream_k", "two_tile")
        assert r.g >= 1

    def test_plans_once(self, fp64_ops, monkeypatch):
        """One plan both builds the schedule and names ``plan_kind``."""
        import repro.ensembles.streamk_library as library

        calls = []
        plan_query = library.plan_query

        def counting(*args, **kwargs):
            calls.append(args[:3])
            return plan_query(*args, **kwargs)

        monkeypatch.setattr(library, "plan_query", counting)
        a, b = fp64_ops
        r = gemm(a, b, gpu=HYPOTHETICAL_4SM)
        assert calls == [(96, 80, 64)]
        assert r.plan_kind == plan_query(96, 80, 64, FP64, HYPOTHETICAL_4SM).kind

    def test_mismatched_inner_dims_rejected(self):
        with pytest.raises(ConfigurationError, match="inner dimensions"):
            gemm(np.zeros((4, 5)), np.zeros((6, 4)), gpu=HYPOTHETICAL_4SM)

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ConfigurationError, match="differ"):
            gemm(
                np.zeros((4, 5), dtype=np.float64),
                np.zeros((5, 4), dtype=np.float16),
                gpu=HYPOTHETICAL_4SM,
            )

    def test_non_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            gemm(np.zeros(5), np.zeros((5, 4)), gpu=HYPOTHETICAL_4SM)

    def test_unknown_input_dtype_rejected(self):
        with pytest.raises(ConfigurationError, match="pass dtype"):
            gemm(
                np.zeros((4, 5), dtype=np.int32),
                np.zeros((5, 4), dtype=np.int32),
                gpu=HYPOTHETICAL_4SM,
            )
