"""ProWGen-style synthetic Web-proxy workload generator.

The paper generates its synthetic traces with ProWGen (Busari &
Williamson, INFOCOM'01), controlling four characteristics (§5.1):

* **one-time referencing** — a fixed fraction of objects is referenced
  exactly once (default 50 %);
* **object popularity** — the remaining objects' reference counts follow
  a Zipf-like distribution with parameter ``alpha`` (default 0.7);
* **number of distinct objects** — default 10 000, one million requests;
* **temporal locality** — modelled with a finite-size LRU stack whose
  capacity is a percentage of the objects referenced more than once
  (Figure 4 sweeps 5 %–60 %).

ProWGen's sources are not available offline, so this is a documented
reimplementation of the published model (DESIGN.md §5).  Generation works
in two phases:

1. **Counts** — one-timers get one reference each; every multi-reference
   object gets ``2 + multinomial(budget, Zipf(alpha))`` references (the
   "+2" enforces *referenced more than once*, which the paper's infinite-
   cache-size definition depends on).
2. **Ordering** — the reference stream is emitted one request at a time.
   A finite LRU stack holds recently referenced, unexhausted objects.
   Each request draws **from the stack** with probability equal to the
   stack's share of the remaining reference mass — so a larger stack
   captures more mass and produces a more temporally local stream, which
   is exactly the knob direction Figure 4 relies on ("a larger LRU stack
   means more objects exhibit temporal locality").  In-stack draws pick a
   stack *position* from a recency-skewed (Zipf ``stack_skew``)
   distribution; out-of-stack draws pick by residual popularity
   (alias-method sampling with rejection, tables rebuilt when the
   acceptance rate degrades).

The emitted trace references each object exactly its assigned count, so
aggregate popularity is Zipf by construction and temporal locality only
reorders requests — matching ProWGen's separation of "static" vs
"temporal" locality.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .lru_stack import LruStack
from .rawdraws import RawDraws
from .stream import CHUNK_REQUESTS, ChunkedTraceWriter, StreamingTrace
from .trace import Trace
from .zipf import AliasSampler, zipf_pmf, zipf_weights

__all__ = [
    "ProWGenConfig",
    "generate_trace",
    "generate_trace_streaming",
    "sample_object_sizes",
]


@dataclass(frozen=True)
class ProWGenConfig:
    """Knobs of the synthetic workload (paper defaults, §5.1)."""

    n_requests: int = 1_000_000
    n_objects: int = 10_000
    one_timer_fraction: float = 0.5
    alpha: float = 0.7
    #: LRU stack capacity as a fraction of multi-reference objects.
    stack_fraction: float = 0.2
    #: Skew of the stack-position re-reference distribution (1 = Zipf-1).
    stack_skew: float = 1.0
    n_clients: int = 100
    #: Per-object byte sizes: ``"off"`` (the paper's equal-size
    #: assumption; capacities stay denominated in objects) or
    #: ``"heavy-tailed"`` (:func:`sample_object_sizes`, drawn from a
    #: dedicated RNG stream so the request stream is unchanged).
    object_sizes: str = "off"

    def __post_init__(self) -> None:
        if self.object_sizes not in ("off", "heavy-tailed"):
            raise ValueError(
                f"object_sizes must be 'off' or 'heavy-tailed', "
                f"got {self.object_sizes!r}"
            )
        if self.n_requests <= 0 or self.n_objects <= 0 or self.n_clients <= 0:
            raise ValueError("n_requests, n_objects and n_clients must be positive")
        if not 0.0 <= self.one_timer_fraction < 1.0:
            raise ValueError("one_timer_fraction must be in [0, 1)")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not 0.0 <= self.stack_fraction <= 1.0:
            raise ValueError("stack_fraction must be in [0, 1]")
        if self.stack_skew < 0:
            raise ValueError("stack_skew must be non-negative")
        n_one = round(self.one_timer_fraction * self.n_objects)
        n_pop = self.n_objects - n_one
        if self.n_requests < n_one + 2 * n_pop:
            raise ValueError(
                f"n_requests={self.n_requests} cannot reference {n_one} one-timers "
                f"once and {n_pop} popular objects at least twice"
            )

    @property
    def n_one_timers(self) -> int:
        return round(self.one_timer_fraction * self.n_objects)

    @property
    def n_popular(self) -> int:
        return self.n_objects - self.n_one_timers

    @property
    def stack_capacity(self) -> int:
        return round(self.stack_fraction * self.n_popular)


def _assign_counts(config: ProWGenConfig, rng: np.random.Generator) -> np.ndarray:
    """Phase 1: per-object reference counts (one-timers + Zipf populars)."""
    counts = np.zeros(config.n_objects, dtype=np.int64)
    n_one, n_pop = config.n_one_timers, config.n_popular
    # Object indices are a random permutation so id order carries no
    # popularity signal (cache policies must not be able to cheat on ids).
    perm = rng.permutation(config.n_objects)
    one_ids, pop_ids = perm[:n_one], perm[n_one:]
    counts[one_ids] = 1
    if n_pop:
        extra = config.n_requests - n_one - 2 * n_pop
        pop_counts = np.full(n_pop, 2, dtype=np.int64)
        if extra > 0:
            pop_counts += rng.multinomial(extra, zipf_pmf(n_pop, config.alpha))
        counts[pop_ids] = pop_counts
    return counts


#: Uniform variates are drawn from the RNG in batches of this many.
_UNIFORM_BATCH = 1 << 16


def _emit_stream_chunks(
    config: ProWGenConfig,
    counts: np.ndarray,
    rng: np.random.Generator,
    chunk_requests: int,
):
    """Phase 2, chunked: yield the ordered reference stream in windows.

    The single implementation behind both the monolithic and the
    streaming generators — the per-request loop and its RNG draw order
    are identical regardless of ``chunk_requests``, so a chunked trace
    is byte-for-byte the monolithic one (asserted by the streaming
    round-trip tests); only the flush granularity differs.

    **Draw contract** (which outputs of the generator are consumed, in
    which order, *is* the trace; pinned by
    ``tests/workload/GOLDEN_streams.json``).  In units of the PCG64
    stream's 64-bit outputs:

    * uniforms come from one ``rng.random(1 << 16)`` batch — 65 536
      consecutive outputs, ``(output >> 11) * 2**-53`` each — drawn up
      front and refilled exactly when a uniform is needed and the batch
      is exhausted;
    * each request consumes one uniform for the stack/outside decision —
      only when the stack is non-empty — and, on a stack hit, one more
      for the position;
    * an outside draw is ``rng.integers(n_objects)`` then
      ``rng.random()`` per candidate (Vose alias sampling) until one has
      references left and is not in the stack.  ``integers`` is numpy's
      buffered 32-bit Lemire draw: the low half of a fresh output, the
      high half kept for the next ``integers`` — so two candidates share
      one output — and re-drawn while rejected; ``random`` is one whole
      output.  After 256 consecutive rejects the alias tables are
      rebuilt from the residual counts (no draw);
    * client ids are drawn by the callers after the whole object stream,
      from the same generator (so it is synced before every ``yield``).

    The scalar draws are served by :class:`~.rawdraws.RawDraws`, which
    reads those outputs a window ahead instead of calling numpy once per
    draw.  The loop indexes only flat Python-level sequences (``array``,
    ``bytearray``, ``list`` — the stack's own list, as a friend): per-
    object state is one machine word per object, and nothing in it pays
    for a numpy scalar.
    """
    n_requests = int(counts.sum())
    n_objects, capacity = config.n_objects, config.stack_capacity
    remaining = array("q", counts.astype(np.int64).tobytes())
    in_stack = bytearray(n_objects)
    stack = LruStack(capacity)
    pop, append = stack._items.pop, stack._items.append  # top at the tail
    occupancy = 0  # == len(stack), kept here to spare the call

    draws = RawDraws(rng)
    integers, random, uniform_batch = draws.integers, draws.random, draws.uniforms
    uniforms = uniform_batch(_UNIFORM_BATCH)
    used = 0

    # Recency-skewed stack-position distribution (prefix sums for search).
    pos_cum = np.cumsum(zipf_weights(max(1, capacity), config.stack_skew)).tolist()

    # Residual-popularity alias tables for out-of-stack draws; rebuilt when
    # the rejection rate shows they have drifted from the residuals.
    def build_outside_tables():
        weights = np.where(
            np.frombuffer(in_stack, dtype=np.bool_),
            0,
            np.frombuffer(remaining, dtype=np.int64),
        ).astype(np.float64)
        if weights.sum() <= 0:
            # Unreachable while masses are consistent: outside mass zero
            # forces the stack branch below.  Guard loudly.
            raise RuntimeError("workload generator mass accounting broke")
        prob, alias = AliasSampler(weights).tables()
        return array("d", prob.tobytes()), array("q", alias.tobytes())

    prob, alias = build_outside_tables()
    rejects = 0
    mass_total = n_requests
    mass_stack = 0

    for start in range(0, n_requests, chunk_requests):
        out = array("q")
        emit = out.append
        for _ in range(min(chunk_requests, n_requests - start)):
            position = 0  # 0 = drawn from outside the stack
            if occupancy:
                if used == _UNIFORM_BATCH:
                    uniforms = uniform_batch(_UNIFORM_BATCH)
                    used = 0
                u = uniforms[used]
                used += 1
                if u * mass_total < mass_stack:
                    # Draw a stack position by recency skew, clipped to
                    # occupancy.
                    if used == _UNIFORM_BATCH:
                        uniforms = uniform_batch(_UNIFORM_BATCH)
                        used = 0
                    u = uniforms[used]
                    used += 1
                    position = bisect_right(pos_cum, u * pos_cum[occupancy - 1]) + 1
                    if position > occupancy:
                        position = occupancy
                    obj = pop(-position)
            if not position:
                # Out-of-stack: residual popularity with rejection.
                while True:
                    obj = integers(n_objects)
                    if not random() < prob[obj]:
                        obj = alias[obj]
                    if remaining[obj] and not in_stack[obj]:
                        rejects = 0
                        break
                    rejects += 1
                    if rejects >= 256:
                        prob, alias = build_outside_tables()
                        rejects = 0

            emit(obj)
            left = remaining[obj] - 1
            remaining[obj] = left
            mass_total -= 1
            if position:
                mass_stack -= 1
                if left:
                    append(obj)  # back on top; no mass change
                else:
                    in_stack[obj] = 0
                    occupancy -= 1
            elif left and capacity:
                in_stack[obj] = 1
                mass_stack += left
                append(obj)
                if occupancy < capacity:
                    occupancy += 1
                else:
                    evicted = pop(0)
                    in_stack[evicted] = 0
                    mass_stack -= remaining[evicted]
        draws.sync()  # the caller may draw from ``rng`` while we are suspended
        yield np.array(out, dtype=np.int64)


def _emit_stream(
    config: ProWGenConfig, counts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Phase 2, monolithic: the full ordered stream as one array."""
    n_requests = int(counts.sum())
    chunks = list(_emit_stream_chunks(config, counts, rng, n_requests or 1))
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


#: Seed-sequence tag for the dedicated size RNG stream (see
#: :func:`_object_sizes_for`).
_SIZE_STREAM_TAG = 0x517E5


def _object_sizes_for(
    config: ProWGenConfig, seed: int, counts_seed: int | None
) -> np.ndarray | None:
    """The per-object size table, or None with sizes off.

    Sizes are a property of the *objects*, not of one cluster's request
    ordering, so they are drawn from their own RNG seeded by the shared
    ``counts_seed`` (falling back to ``seed`` when none is given): every
    cluster of an experiment derives the identical table independently —
    sharded workers need no size exchange — and the generator's existing
    RNG draw order is untouched, keeping sizes-off traces byte-identical.
    """
    if config.object_sizes == "off":
        return None
    base = seed if counts_seed is None else counts_seed
    size_rng = np.random.default_rng([_SIZE_STREAM_TAG, base])
    return sample_object_sizes(config.n_objects, size_rng)


def generate_trace(
    config: ProWGenConfig,
    seed: int,
    name: str | None = None,
    counts_seed: int | None = None,
) -> Trace:
    """Generate one client cluster's trace.

    Different proxies' clusters use the same config with different seeds —
    the paper's "statistically identical" clients assumption (§5.1).
    ``counts_seed`` fixes the per-object popularity assignment separately
    from the request ordering: clusters of one experiment share it, so the
    same objects are hot everywhere (it is one Web), while each cluster
    orders its own references independently.  Without a shared popularity
    assignment, cooperation would have almost nothing to share.  The
    per-object size table (``object_sizes="heavy-tailed"``) shares the
    same logic: one Web, one size per object, identical across clusters.
    """
    rng = np.random.default_rng(seed)
    counts_rng = rng if counts_seed is None else np.random.default_rng(counts_seed)
    counts = _assign_counts(config, counts_rng)
    object_ids = _emit_stream(config, counts, rng)
    client_ids = rng.integers(config.n_clients, size=len(object_ids), dtype=np.int32)
    return Trace(
        object_ids=object_ids,
        client_ids=client_ids,
        n_objects=config.n_objects,
        n_clients=config.n_clients,
        name=name or f"prowgen(a={config.alpha},stack={config.stack_fraction},seed={seed})",
        sizes=_object_sizes_for(config, seed, counts_seed),
    )


def generate_trace_streaming(
    config: ProWGenConfig,
    seed: int,
    path,
    name: str | None = None,
    counts_seed: int | None = None,
    chunk_requests: int = CHUNK_REQUESTS,
) -> StreamingTrace:
    """Generate one cluster's trace straight to disk, chunk by chunk.

    Byte-identical to :func:`generate_trace` for the same
    ``(config, seed, counts_seed)`` — same RNG, same draw order, only
    the flush granularity differs — but peak memory is O(chunk), not
    O(n_requests): the object stream is emitted through
    :func:`_emit_stream_chunks` and the client ids are drawn in chunks
    *after* it (matching the monolithic generator's phase order, which
    is what keeps the RNG streams aligned).
    """
    rng = np.random.default_rng(seed)
    counts_rng = rng if counts_seed is None else np.random.default_rng(counts_seed)
    counts = _assign_counts(config, counts_rng)
    n_requests = int(counts.sum())
    writer = ChunkedTraceWriter(
        path,
        n_requests=n_requests,
        n_objects=config.n_objects,
        n_clients=config.n_clients,
        name=name or f"prowgen(a={config.alpha},stack={config.stack_fraction},seed={seed})",
        sizes=_object_sizes_for(config, seed, counts_seed),
    )
    for chunk in _emit_stream_chunks(config, counts, rng, chunk_requests):
        writer.append_objects(chunk)
    remaining = n_requests
    while remaining > 0:
        n = min(chunk_requests, remaining)
        writer.append_clients(rng.integers(config.n_clients, size=n, dtype=np.int32))
        remaining -= n
    return StreamingTrace(writer.close(), chunk_requests=chunk_requests)


def sample_object_sizes(
    n: int,
    rng: np.random.Generator,
    body_mean_log: float = 9.357,
    body_sigma_log: float = 1.318,
    tail_fraction: float = 0.07,
    pareto_alpha: float = 1.1,
    pareto_scale: float = 10_000.0,
) -> np.ndarray:
    """Object sizes: lognormal body + heavy Pareto tail (ProWGen's model).

    Unused by the paper's experiments (equal-size assumption, §5.1) but
    provided for workload realism in user studies; defaults approximate
    published proxy-trace fits (sizes in bytes).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 <= tail_fraction <= 1:
        raise ValueError("tail_fraction must be in [0, 1]")
    sizes = rng.lognormal(body_mean_log, body_sigma_log, size=n)
    tail = rng.random(n) < tail_fraction
    sizes[tail] = pareto_scale * (1.0 + rng.pareto(pareto_alpha, size=int(tail.sum())))
    return np.maximum(sizes, 64).astype(np.int64)
