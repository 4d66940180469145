"""Shared plumbing for the benchmark: paths, run isolation, child
processes, statistics and the environment stamp.

Nothing here imports ``repro``: the parent process stays a plain client
until a workload's output check needs the reference implementation.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch state inside the checkout: one directory per run plus the
#: per-seed oracle cache.  Listed in the root ``.gitignore``.
STATE = os.path.join(ROOT, ".perfbench")


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, child crashed)."""


def require_program() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        raise BenchError(
            "program sources not found at %s; run from a full checkout" % SRC
        )


def use_program_in_process() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def paper_corpus() -> np.ndarray:
    """The paper's 32,824 log-sampled (m, n, k) shapes in [128, 8192],
    de-duplicated.  The benchmark keeps its own copy of the recipe so a
    change to the program cannot change the serving inputs."""
    rng = np.random.default_rng(0x5EEDC0DE)
    raw = np.exp(rng.uniform(np.log(128), np.log(8192), size=(32_824, 3)))
    return np.unique(np.clip(np.rint(raw).astype(np.int64), 128, 8192), axis=0)


# --------------------------------------------------------------------- #
# Statistics                                                             #
# --------------------------------------------------------------------- #


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise BenchError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def overhead(untraced: dict, traced: dict) -> dict:
    """``obs.overhead_pct.<metric>``: the traced pass minus the untraced
    pass, in percent of the untraced value, per end-to-end metric."""
    return {
        "obs.overhead_pct." + name: 100.0 * (traced[name] - value) / value
        for name, value in untraced.items()
    }


def tail_summary(values_ms) -> dict:
    """p99 and p99.9 with the number of samples beyond each (reported,
    never gated: at these rates they swing run to run)."""
    n = len(values_ms)
    out = {"samples": n}
    for name, q in (("p99_ms", 99.0), ("p999_ms", 99.9)):
        out[name] = percentile(values_ms, q) if n else None
        out[name + "_beyond"] = int(n * (1.0 - q / 100.0))
    return out


# --------------------------------------------------------------------- #
# Run isolation                                                          #
# --------------------------------------------------------------------- #


class RunDir:
    """A fresh directory under the checkout for one run, removed at exit.

    Every daemon or worker gets its own ``REPRO_CACHE_DIR`` below it (so
    set-up always includes calibration and never reads ``~/.cache``).
    """

    def __init__(self, tag: str):
        self.path = os.path.join(
            STATE, "runs", "%s-%d-%d" % (tag, os.getpid(), time.time_ns())
        )
        self._count = 0

    def __enter__(self) -> "RunDir":
        os.makedirs(self.path)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def fresh(self, name: str) -> str:
        """A new, empty subdirectory (unique per call)."""
        self._count += 1
        path = os.path.join(self.path, "%s-%d" % (name, self._count))
        os.makedirs(path)
        return path


def child_env(cache_dir: str, **extra: str) -> dict:
    """Environment for a program process.

    Every ``REPRO_*`` variable of the caller is dropped (executor, jobs,
    profiling, disk-cache switches), then only what the workload sets is
    added back.  ``PYTHONPATH`` points at the checkout's sources and the
    benchmark directory (for the traced launchers).  Bytecode caching is
    allowed, as for an installed package: otherwise every spawn would
    recompile the sources and set-up time would grow with their size.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["REPRO_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR])
    # Fixed string hashing: dict and set layouts are the same in every
    # process, one source of speed differences between runs fewer.
    env["PYTHONHASHSEED"] = "0"
    env.update(extra)
    return env


def isolate_self(cache_dir: str) -> None:
    """Apply :func:`child_env`'s rules to this process (before it imports
    ``repro``, whose modules read these variables)."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = cache_dir


def stop_process(proc: "subprocess.Popen | None", timeout_s: float = 10.0) -> None:
    """Terminate ``proc`` if it still runs, and always reap it."""
    if proc is None:
        return
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


class Worker:
    """A ``worker.py`` process: ``ready()`` waits for its ``READY`` line
    (set-up done), ``result()`` for its final JSON line and its exit."""

    def __init__(self, args: "list[str]", cache_dir: str, timeout_s: float = 170.0,
                 **env: str):
        self.log_path = os.path.join(cache_dir, "worker.log")
        self._log = open(self.log_path, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py")] + args,
            env=child_env(cache_dir, **env), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        # A wedged worker must not hang the run past its time limit.
        self._watchdog = threading.Timer(timeout_s, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def ready(self) -> float:
        """Seconds from spawn to ``READY``."""
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            self._fail("no READY line")
        return time.perf_counter() - self.started

    def result(self) -> dict:
        lines = self.proc.stdout.read().splitlines()
        self.proc.wait()
        self._watchdog.cancel()
        if self.proc.returncode != 0 or not lines:
            self._fail("exit code %s" % self.proc.returncode)
        self._close()
        return json.loads(lines[-1])

    def _fail(self, why: str):
        stop_process(self.proc)
        self._watchdog.cancel()
        self._close()
        with open(self.log_path, errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise BenchError("worker %s failed (%s):\n%s" % (self.proc.args[2], why, tail))

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()

    def stop(self) -> None:
        stop_process(self.proc)
        self._watchdog.cancel()
        self._log.close()


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open("/proc/%d/status" % pid) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


# --------------------------------------------------------------------- #
# Environment stamp                                                      #
# --------------------------------------------------------------------- #


def source_digest() -> str:
    """SHA-256 over the program's sources (the checkout is not a git
    repository, so this stands in for the commit when git is absent)."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "repro")
    for dirpath, dirnames, files in os.walk(pkg):
        dirnames.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit() -> "str | None":
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_stamp() -> dict:
    import numpy

    return {
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_1m": os.getloadavg()[0],
    }


def emit(kind: str, payload) -> None:
    """One human-readable report line (never the last line of output)."""
    print("%-10s %s" % (kind + ":", json.dumps(payload, sort_keys=True)))
    sys.stdout.flush()
