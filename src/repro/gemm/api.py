"""High-level BLAS-like entry point: plan, execute, validate in one call.

A downstream user of this library usually wants "multiply these matrices
the way the paper's kernel would, and tell me what the machine did" —
:func:`gemm` is that: it infers the problem from the operands, lets the
Stream-K library plan the schedule, executes it numerically (with the
partial-sum protocol), simulates the kernel, and returns both the product
and the measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .dtypes import DTYPE_CONFIGS, DtypeConfig
from .problem import GemmProblem

__all__ = ["GemmResult", "gemm"]


@dataclass(frozen=True)
class GemmResult:
    """Product plus the simulated execution that produced it."""

    c: np.ndarray
    problem: GemmProblem
    schedule_name: str
    plan_kind: str
    g: int
    time_s: float
    tflops: float
    max_rel_error: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            "GemmResult(%s via %s[g=%d], %.1f us, %.1f TFLOP/s, err %.1e)"
            % (
                self.problem,
                self.plan_kind,
                self.g,
                self.time_s * 1e6,
                self.tflops,
                self.max_rel_error,
            )
        )


def _infer_dtype(a: np.ndarray, b: np.ndarray) -> DtypeConfig:
    if a.dtype != b.dtype:
        raise ConfigurationError(
            "A and B dtypes differ (%s vs %s)" % (a.dtype, b.dtype)
        )
    for cfg in DTYPE_CONFIGS.values():
        if cfg.input_dtype == a.dtype:
            return cfg
    raise ConfigurationError(
        "no precision configuration accepts %s inputs; pass dtype= "
        "explicitly" % a.dtype
    )


def gemm(
    a: np.ndarray,
    b: np.ndarray,
    alpha: float = 1.0,
    beta: float = 0.0,
    c: "np.ndarray | None" = None,
    dtype: "DtypeConfig | None" = None,
    gpu=None,
    transpose_a: bool = False,
    transpose_b: bool = False,
) -> GemmResult:
    """Compute ``alpha * op(A) @ op(B) + beta * C`` the Stream-K way.

    ``op`` is identity or transpose per the flags (the BLAS tt/tn/nt/nn
    surface; transposition is materialized before tiling — the paper's
    decompositions are layout-agnostic at this level).  The precision is
    inferred from the operand dtype unless given; the GPU defaults to the
    registry default (:func:`repro.gpu.spec.default_gpu`, the paper's
    A100) and accepts any registered or custom
    :class:`~repro.gpu.spec.GpuSpec`.  Returns the validated product plus
    the simulated kernel measurement::

        >>> import numpy as np
        >>> from repro.gemm import gemm
        >>> rng = np.random.default_rng(0)
        >>> a = rng.standard_normal((256, 640)).astype(np.float16)
        >>> b = rng.standard_normal((640, 384)).astype(np.float16)
        >>> res = gemm(a, b)          # plans, executes, validates, times
        >>> res.c.shape, res.plan_kind, res.g
        ((256, 384), 'basic_stream_k', 6)

    Raises :class:`~repro.errors.ConfigurationError` for non-matrix
    operands, mismatched inner dimensions or dtypes, and input dtypes no
    precision configuration accepts.
    """
    from ..ensembles.streamk_library import StreamKLibrary  # cycle guard
    from ..gpu.simulate import simulate_kernel
    from ..gpu.spec import default_gpu
    from .validation import validate_result

    if a.ndim != 2 or b.ndim != 2:
        raise ConfigurationError("operands must be matrices")
    a_op = np.ascontiguousarray(a.T) if transpose_a else a
    b_op = np.ascontiguousarray(b.T) if transpose_b else b
    if a_op.shape[1] != b_op.shape[0]:
        raise ConfigurationError(
            "inner dimensions disagree: %r @ %r" % (a_op.shape, b_op.shape)
        )

    gpu = gpu if gpu is not None else default_gpu()
    cfg = dtype or _infer_dtype(a_op, b_op)
    problem = GemmProblem(
        a_op.shape[0], b_op.shape[1], a_op.shape[1],
        dtype=cfg, alpha=alpha, beta=beta,
    )
    library = StreamKLibrary(gpu, cfg)
    schedule = library.build_schedule(problem)
    out = schedule.execute(a_op, b_op, c=c)
    err = validate_result(problem, out, a_op, b_op, c)
    result = simulate_kernel(schedule, gpu)
    return GemmResult(
        c=out,
        problem=problem,
        schedule_name=schedule.name,
        plan_kind=schedule.metadata["kind"],
        g=schedule.g,
        time_s=result.time_s,
        tflops=problem.flops / result.time_s / 1e12,
        max_rel_error=err,
    )
