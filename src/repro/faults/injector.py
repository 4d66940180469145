"""Deterministic, site-keyed fault sampling.

A :class:`FaultInjector` answers the executor's and cost model's
questions — "how slow is this SM slot?", "is this CTA's flag dropped?",
"does this compute segment get preempted?" — from a pure function of
``(config.seed, site)``, where *site* identifies the injection point
structurally (SM slot index, CTA id, segment index).  Two consequences:

* **bit-reproducibility** — the same seed and config produce the same
  injections regardless of how many times or in what order sites are
  queried (no shared RNG stream to perturb);
* **comparability** — changing one knob (say, ``signal_drop_prob``)
  leaves every other dimension's draws untouched, so sweeps isolate the
  dimension under study.

The hash is splitmix64 over the seed and the site ids, mixed per fault
dimension through a distinct domain tag.  Draws are recomputed, never
stored: the bulk methods draw whole site arrays in one vectorized pass.
Every injection that *fires* is logged once per site (a set of drawn
integer site keys per dimension, shared by the scalar and bulk paths),
in columnar chunks: :attr:`FaultInjector.log` builds its records only
when read, and each call bumps ``faults.<kind>`` in
:mod:`repro.obs.counters` once, by its fired count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError
from ..gpu.cta import SegmentKind
from ..obs.counters import inc_counter
from .config import FaultConfig

__all__ = ["FaultInjector", "InjectedFault"]

_MASK64 = (1 << 64) - 1

# Domain tags: one per fault dimension so draws never collide across
# dimensions even at the same structural site.
_DOM_STRAGGLER = 0x51A
_DOM_SKEW = 0x5E3
_DOM_JITTER = 0x117
_DOM_SIG_DELAY = 0xDE1
_DOM_SIG_DROP = 0xD20
_DOM_PREEMPT = 0x9EE
_DOM_PREEMPT_FRAC = 0x9EF

#: Site ids must lie in ``[0, 2**31)``: a (CTA, segment) site is keyed
#: as ``cta * 2**32 + segment``, which is then collision-free in int64.
_ID_LIMIT = 1 << 31
_BAD_IDS = "fault site ids must be integers in [0, 2**31)"

#: Segment kinds whose cycle cost is DRAM/L2-latency bound and therefore
#: subject to memory jitter.
_MEMORY_KINDS = frozenset(
    (SegmentKind.STORE_PARTIALS, SegmentKind.FIXUP, SegmentKind.STORE_TILE)
)


def _splitmix64(x: int) -> int:
    """One splitmix64 round: a high-quality 64-bit mixer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@lru_cache(maxsize=64)
def _domain_prefix(seed: int, domain: int) -> int:
    """The hash state after mixing the seed and the domain tag."""
    return _splitmix64(_splitmix64(seed & _MASK64) ^ domain)


def _site_u01(seed: int, domain: int, *ids: int) -> float:
    """Uniform [0, 1) draw keyed by (seed, domain, site ids)."""
    x = _domain_prefix(seed, domain)
    for i in ids:
        x = _splitmix64(x ^ (i & _MASK64))
    return x / float(1 << 64)


def _splitmix64_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 round over a uint64 array (wrapping mod 2^64)."""
    x = (x + np.uint64(0x9E3779B97F4A7C15))
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _site_u01_vec(seed: int, domain: int, *id_arrays) -> np.ndarray:
    """Vectorized :func:`_site_u01`: one draw per row of the id arrays.

    Bitwise identical to the scalar path element for element: uint64
    wraparound reproduces the masked Python arithmetic, and the final
    uint64 -> float64 conversion followed by division by the exact power
    of two ``2^64`` is the same correctly-rounded quotient Python's
    ``int / float`` computes.
    """
    id_arrays = [np.ascontiguousarray(a, dtype=np.uint64) for a in id_arrays]
    n = id_arrays[0].shape[0] if id_arrays else 1
    x = np.full(n, _domain_prefix(seed, domain), dtype=np.uint64)
    for ids in id_arrays:
        x = _splitmix64_vec(x ^ ids)
    return x.astype(np.float64) / float(1 << 64)


def _site_ids(ids) -> np.ndarray:
    """One id column as int64, rejecting ids whose site key would collide."""
    try:
        ids = np.ascontiguousarray(ids, dtype=np.int64)
    except OverflowError:
        ids = np.array([-1])
    if ids.size and (ids.min() < 0 or ids.max() >= _ID_LIMIT):
        raise ConfigurationError(_BAD_IDS)
    return ids


@dataclass(frozen=True)
class InjectedFault:
    """One fault that actually fired, for reports and trace annotation.

    ``kind`` is one of ``straggler``, ``clock_skew``, ``mem_jitter``,
    ``signal_delay``, ``signal_drop``, ``preempt``.  ``value`` is the
    dimension's magnitude: a slowdown multiplier, delay cycles, or
    penalty cycles (0.0 for drops).
    """

    kind: str
    value: float
    sm_slot: "int | None" = None
    cta: "int | None" = None
    segment: "int | None" = None




class FaultInjector:
    """Stateful facade over a :class:`FaultConfig`: once-per-site logging.

    One injector instance corresponds to one simulated execution; the
    drawn-site sets guarantee a site queried twice (cost model then
    executor, or diagnostic replay) reports the same draw and is logged
    and counted exactly once.
    """

    def __init__(self, config: FaultConfig):
        self.config = config
        # Per dimension, the integer keys of the sites already drawn.
        self._drawn = {d: set() for d in ("slot", "mem", "preempt", "delay", "drop")}
        # Penalties scale with the querying base cycles: pinned per site.
        self._seg_mult: "dict[tuple[int, int], float]" = {}
        # Fired injections, one (kinds, which, values, sites) chunk per
        # call; ``which`` indexes ``kinds`` per entry.
        self._chunks: "list[tuple]" = []
        self._counts: "dict[str, int]" = {}

    # ------------------------------------------------------------------ #
    # Per-SM-slot faults                                                  #
    # ------------------------------------------------------------------ #

    def slot_multiplier(self, sm_slot: int) -> float:
        """Duration multiplier for every segment run on ``sm_slot``.

        Combines the straggler draw (slot slowed by ``1 + severity``)
        with the continuous clock-skew drift in ``[1, 1 + clock_skew]``.
        Exactly 1.0 when neither dimension is configured.
        """
        cfg = self.config
        straggle = cfg.straggler_prob > 0.0 and cfg.straggler_severity > 0.0
        if not straggle and cfg.clock_skew <= 0.0:
            return 1.0
        fresh = self._fresh_site("slot", sm_slot)
        mult = 1.0
        if straggle and (
            _site_u01(cfg.seed, _DOM_STRAGGLER, sm_slot) < cfg.straggler_prob
        ):
            mult = 1.0 + cfg.straggler_severity
            if fresh:
                self._record("straggler", mult, sm_slot=sm_slot)
        if cfg.clock_skew > 0.0:
            skew = 1.0 + cfg.clock_skew * _site_u01(cfg.seed, _DOM_SKEW, sm_slot)
            mult *= skew
            if fresh:
                self._record("clock_skew", skew, sm_slot=sm_slot)
        return mult

    # ------------------------------------------------------------------ #
    # Per-segment faults (cost-model side)                                #
    # ------------------------------------------------------------------ #

    def mem_latency_multiplier(self, cta: int, segment: int, kind: SegmentKind) -> float:
        """DRAM/L2 jitter multiplier for one memory-priced segment.

        Keyed by (CTA, segment index); non-memory kinds always get 1.0.
        The cost model applies this when pricing a schedule into timed
        tasks, so jitter is part of the task's intrinsic cycles.
        """
        cfg = self.config
        if cfg.mem_jitter <= 0.0 or kind not in _MEMORY_KINDS:
            return 1.0
        fresh = self._fresh_site("mem", cta, segment)
        mult = 1.0 + cfg.mem_jitter * _site_u01(cfg.seed, _DOM_JITTER, cta, segment)
        if fresh:
            self._record("mem_jitter", mult, cta=cta, segment=segment)
        return mult

    # ------------------------------------------------------------------ #
    # Per-segment faults (executor side)                                  #
    # ------------------------------------------------------------------ #

    def segment_cycles(
        self,
        cta: int,
        segment: int,
        kind: SegmentKind,
        base_cycles: float,
        sm_slot: int,
    ) -> float:
        """Executed duration of one segment under the fault environment.

        Applies the slot's straggler/skew multiplier to every timed
        segment, plus the preempt/restart penalty to compute segments:
        a preempted CTA pays the fixed penalty plus re-execution of the
        uniformly-drawn fraction of work lost at preemption.
        ``WAIT`` segments never pass through here (their duration is
        observed, not intrinsic).
        """
        cycles = base_cycles * self.slot_multiplier(sm_slot)
        cfg = self.config
        if (
            cfg.preempt_prob > 0.0
            and kind is SegmentKind.COMPUTE
            and base_cycles > 0.0
        ):
            key = (cta, segment)
            penalty = self._seg_mult.get(key)
            if penalty is None:
                fresh = self._fresh_site("preempt", cta, segment)
                penalty = 0.0
                if _site_u01(cfg.seed, _DOM_PREEMPT, cta, segment) < cfg.preempt_prob:
                    lost = _site_u01(cfg.seed, _DOM_PREEMPT_FRAC, cta, segment)
                    penalty = cfg.preempt_penalty_cycles + lost * base_cycles
                    if fresh:
                        self._record("preempt", penalty, cta=cta, segment=segment)
                self._seg_mult[key] = penalty
            cycles += penalty
        return cycles

    # ------------------------------------------------------------------ #
    # Signal-protocol faults                                              #
    # ------------------------------------------------------------------ #

    def signal_delay(self, cta: int) -> float:
        """Extra cycles before CTA ``cta``'s flag publication is visible."""
        cfg = self.config
        if cfg.signal_delay_prob <= 0.0 or cfg.signal_delay_cycles <= 0.0:
            return 0.0
        fresh = self._fresh_site("delay", cta)
        if _site_u01(cfg.seed, _DOM_SIG_DELAY, cta) >= cfg.signal_delay_prob:
            return 0.0
        u = _site_u01(cfg.seed, _DOM_SIG_DELAY, cta, 1)
        delay = cfg.signal_delay_cycles * (0.5 + 0.5 * u)
        if fresh:
            self._record("signal_delay", delay, cta=cta)
        return delay

    def signal_dropped(self, cta: int) -> bool:
        """Whether CTA ``cta``'s flag publication is lost entirely.

        A dropped signal leaves every waiter on that slot blocked forever;
        the executor converts the condition into a
        :class:`~repro.errors.DeadlockError` with a wait-chain diagnostic
        instead of hanging.
        """
        cfg = self.config
        if cfg.signal_drop_prob <= 0.0:
            return False
        fresh = self._fresh_site("drop", cta)
        dropped = _site_u01(cfg.seed, _DOM_SIG_DROP, cta) < cfg.signal_drop_prob
        if dropped and fresh:
            self._record("signal_drop", 0.0, cta=cta)
        return dropped

    @property
    def dropped_signals(self) -> "frozenset[int]":
        """CTA ids whose signals were dropped (among queried sites)."""
        return frozenset(f.cta for f in self.log if f.kind == "signal_drop")

    # ------------------------------------------------------------------ #
    # Bulk vectorized draws (array backends)                              #
    # ------------------------------------------------------------------ #

    def draws_for_sites(self, dimension: str, *site_arrays, base_cycles=None):
        """Bulk draws for a whole array of injection sites in one pass.

        This is the array-backend twin of the scalar query methods:
        every returned value is bitwise identical to the corresponding
        scalar draw, the drawn-site sets are shared with the scalar path
        (mixing bulk and scalar queries in either order is safe), and
        each *fired* site is logged and counted exactly once no matter
        how many times or through which API it is queried.

        ``dimension`` selects the fault dimension and fixes the site
        arrays expected:

        * ``"slot_multiplier"`` — ``(sm_slots,)``; returns duration
          multipliers (straggler x clock skew) per slot.
        * ``"preempt_penalty"`` — ``(ctas, segments)`` plus the
          ``base_cycles`` keyword; returns additive penalty cycles.
          Callers must pass only sites the scalar path would draw for:
          ``COMPUTE`` segments with positive base cycles.
        * ``"mem_jitter"`` — ``(ctas, segments)``; returns DRAM/L2
          latency multipliers.  Pass only memory-kind segment sites.
        * ``"signal_delay"`` — ``(ctas,)``; returns delay cycles.
        * ``"signal_drop"`` — ``(ctas,)``; returns a boolean array.

        Site ids must be integers in ``[0, 2**31)``; others raise
        :class:`~repro.errors.ConfigurationError`.
        """
        method = _BULK_METHODS.get(dimension)
        if method is None:
            raise ConfigurationError(
                "unknown fault draw dimension %r; expected %s"
                % (dimension, ", ".join(_BULK_METHODS))
            )
        if dimension == "preempt_penalty":
            if base_cycles is None:
                raise ConfigurationError("preempt_penalty draws require base_cycles")
            site_arrays += (base_cycles,)
        return getattr(self, method)(*site_arrays)

    def slot_multipliers(self, sm_slots) -> np.ndarray:
        """Vectorized :meth:`slot_multiplier` over an array of slot ids."""
        slots = _site_ids(sm_slots)
        cfg = self.config
        mult = np.ones(slots.shape[0], dtype=np.float64)
        draws = []
        if cfg.straggler_prob > 0.0 and cfg.straggler_severity > 0.0:
            fired = _site_u01_vec(cfg.seed, _DOM_STRAGGLER, slots) < cfg.straggler_prob
            mult = np.where(fired, 1.0 + cfg.straggler_severity, 1.0)
            draws.append(("straggler", fired, mult))
        if cfg.clock_skew > 0.0:
            skew = 1.0 + cfg.clock_skew * _site_u01_vec(cfg.seed, _DOM_SKEW, slots)
            mult = mult * skew
            draws.append(("clock_skew", None, skew))
        self._log_fresh("slot", {"sm_slot": slots}, *draws)
        return mult

    def preempt_penalties(self, ctas, segments, base_cycles) -> np.ndarray:
        """Vectorized preempt penalties for compute-segment sites.

        Pass only sites the scalar :meth:`segment_cycles` would draw
        for — ``COMPUTE`` segments with positive base cycles — each with
        its own base cycles.
        """
        ctas, segments = _site_ids(ctas), _site_ids(segments)
        base = np.ascontiguousarray(base_cycles, dtype=np.float64)
        cfg = self.config
        if cfg.preempt_prob <= 0.0:
            return np.zeros(ctas.shape[0], dtype=np.float64)
        fired = _site_u01_vec(cfg.seed, _DOM_PREEMPT, ctas, segments) < cfg.preempt_prob
        lost = _site_u01_vec(cfg.seed, _DOM_PREEMPT_FRAC, ctas, segments)
        penalty = np.where(fired, cfg.preempt_penalty_cycles + lost * base, 0.0)
        sites = {"cta": ctas, "segment": segments}
        self._log_fresh("preempt", sites, ("preempt", fired, penalty))
        return penalty

    def mem_latency_multipliers(self, ctas, segments) -> np.ndarray:
        """Vectorized mem jitter; pass only memory-kind segment sites."""
        ctas, segments = _site_ids(ctas), _site_ids(segments)
        cfg = self.config
        if cfg.mem_jitter <= 0.0:
            return np.ones(ctas.shape[0], dtype=np.float64)
        u = _site_u01_vec(cfg.seed, _DOM_JITTER, ctas, segments)
        mult = 1.0 + cfg.mem_jitter * u
        sites = {"cta": ctas, "segment": segments}
        self._log_fresh("mem", sites, ("mem_jitter", None, mult))
        return mult

    def signal_delays(self, ctas) -> np.ndarray:
        """Vectorized :meth:`signal_delay` over an array of CTA ids."""
        ctas = _site_ids(ctas)
        cfg = self.config
        if cfg.signal_delay_prob <= 0.0 or cfg.signal_delay_cycles <= 0.0:
            return np.zeros(ctas.shape[0], dtype=np.float64)
        fired = _site_u01_vec(cfg.seed, _DOM_SIG_DELAY, ctas) < cfg.signal_delay_prob
        ones = np.ones(ctas.shape[0], dtype=np.uint64)
        u = _site_u01_vec(cfg.seed, _DOM_SIG_DELAY, ctas, ones)
        delay = np.where(fired, cfg.signal_delay_cycles * (0.5 + 0.5 * u), 0.0)
        self._log_fresh("delay", {"cta": ctas}, ("signal_delay", fired, delay))
        return delay

    def signal_drops(self, ctas) -> np.ndarray:
        """Vectorized :meth:`signal_dropped` over an array of CTA ids."""
        ctas = _site_ids(ctas)
        cfg = self.config
        if cfg.signal_drop_prob <= 0.0:
            return np.zeros(ctas.shape[0], dtype=bool)
        dropped = _site_u01_vec(cfg.seed, _DOM_SIG_DROP, ctas) < cfg.signal_drop_prob
        zeros = np.zeros(ctas.shape[0])
        self._log_fresh("drop", {"cta": ctas}, ("signal_drop", dropped, zeros))
        return dropped

    # ------------------------------------------------------------------ #
    # Drawn sites and the columnar log                                    #
    # ------------------------------------------------------------------ #

    def _fresh_site(self, dim: str, *ids: int) -> bool:
        """Mark one site drawn; True when it had not been drawn before."""
        if not all(0 <= i < _ID_LIMIT for i in ids):
            raise ConfigurationError(_BAD_IDS)
        key = ids[0] if len(ids) == 1 else (ids[0] << 32) | ids[1]
        drawn = self._drawn[dim]
        fresh = key not in drawn
        drawn.add(key)
        return fresh

    def _log_fresh(self, dim: str, sites: dict, *draws) -> None:
        """Log, as one chunk, the fired draws of the sites not drawn before.

        Each draw is ``(kind, fired, values)`` over the rows of the
        ``sites`` id columns (``fired`` None: every row fires).  A site
        counts at its first row; entries go by row, then by draw, the
        order the scalar path fires them in.
        """
        cols = list(sites.values())
        keys = cols[0] if len(cols) == 1 else (cols[0] << 32) | cols[1]
        drawn = self._drawn[dim]
        uniq, fresh = np.unique(keys, return_index=True)
        if drawn:
            new = ~np.isin(uniq, np.fromiter(drawn, np.int64, len(drawn)))
            uniq, fresh = uniq[new], fresh[new]
        drawn.update(uniq.tolist())
        fresh.sort()
        rows = [fresh if f is None else fresh[f[fresh]] for _, f, _ in draws]
        if not sum(r.size for r in rows):
            return
        kinds = tuple(kind for kind, _, _ in draws)
        which = np.repeat(np.arange(len(draws)), [r.size for r in rows])
        at = np.concatenate(rows)
        order = (at * len(draws) + which).argsort(kind="stable")
        at, which = at[order], which[order]
        values = np.concatenate([v[r] for (_, _, v), r in zip(draws, rows)])
        self._chunks.append(
            (kinds, which, values[order], {f: c[at] for f, c in sites.items()})
        )
        # Bump the counters in the order the kinds first fired.
        for j in dict.fromkeys(which.tolist()):
            self._count(kinds[j], rows[j].size)

    def _record(self, kind: str, value: float, **site: int) -> None:
        self._chunks.append(((kind,), [0], [value], site))
        self._count(kind, 1)

    def _count(self, kind: str, n: int) -> None:
        self._counts[kind] = self._counts.get(kind, 0) + n
        inc_counter("faults.%s" % kind, n)

    @property
    def log(self) -> "list[InjectedFault]":
        """Every fired injection in firing order, built on each read."""
        out = []
        for kinds, which, values, sites in self._chunks:
            ids = zip(*(np.atleast_1d(c).tolist() for c in sites.values()))
            for j, value, row in zip(which, np.asarray(values).tolist(), ids):
                out.append(InjectedFault(kinds[j], value, **dict(zip(sites, row))))
        return out

    def injection_counts(self) -> "dict[str, int]":
        """Fired-injection totals by kind (for sweep rows and reports)."""
        return dict(self._counts)


_BULK_METHODS = {
    "slot_multiplier": "slot_multipliers",
    "preempt_penalty": "preempt_penalties",
    "mem_jitter": "mem_latency_multipliers",
    "signal_delay": "signal_delays",
    "signal_drop": "signal_drops",
}
