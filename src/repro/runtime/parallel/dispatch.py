"""The wavefront dispatcher called by generated kernels.

One call executes one CSR schedule instance: groups in order, blocks of
a group either fanned out over the shared worker pool or run on the
calling thread. The generated code passes a *block closure* — the body
of one sub-domain tile, closed over the sweep's shared NumPy buffers —
plus two flags the compiler computed: ``certified`` (the race analyzer
found no IP-diagnostic) and ``inplace`` (the emitted body mutates
buffers in place instead of rebinding SSA names).

Degradation (RS010): a worker exception stops that worker's chunk; the
barrier still joins, then the blocks that did not complete re-run
sequentially on the calling thread and every later group stays
sequential. Completed blocks are never re-run, so in-place block bodies
recover bit-identically. Refusal (RS011): a multi-thread request on an
uncertified or non-in-place kernel runs sequentially and records why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

import numpy as np

from repro.runtime.parallel.pool import get_num_threads, get_pool
from repro.runtime.resilience.faults import active_plan, maybe_inject

#: Dropping old events beats unbounded growth inside a long time loop.
_MAX_EVENTS = 64

_events: List[Any] = []
_events_dropped = 0
_last_stats: Optional["DispatchStats"] = None


@dataclass
class DispatchStats:
    """What one :func:`dispatch_wavefronts` call actually did."""

    groups: int = 0
    blocks: int = 0
    #: Groups fanned out over the pool / run inline (size 1) / run
    #: block-by-block on the calling thread.
    parallel_groups: int = 0
    inline_groups: int = 0
    sequential_groups: int = 0
    requested_threads: int = 1
    #: None when the request was honored; otherwise why dispatch refused
    #: to go parallel ("uncertified", "not-inplace").
    refusal: Optional[str] = None
    #: Worker failures recovered by the sequential fallback.
    worker_failures: int = 0
    degraded: bool = False
    #: Blocks re-executed sequentially after a worker failure.
    recovered_blocks: int = 0
    errors: List[str] = field(default_factory=list)


def last_dispatch_stats() -> Optional[DispatchStats]:
    """Stats of the most recent dispatch in this process."""
    return _last_stats


def reset_dispatch_stats() -> None:
    global _last_stats
    _last_stats = None


def drain_events() -> List[Any]:
    """Pop the accumulated RS010/RS011 diagnostics (oldest first)."""
    global _events, _events_dropped
    out, _events = _events, []
    _events_dropped = 0
    return out


def _add_event(code: str, message: str) -> None:
    global _events_dropped
    from repro.analysis.diagnostics import REGISTRY, Diagnostic

    if len(_events) >= _MAX_EVENTS:
        _events_dropped += 1
        return
    _events.append(Diagnostic(code, message, severity=REGISTRY[code].severity))


def _run_chunk(
    chunk, block_fn: Callable[[int], None], done: List[int], failures: List
) -> None:
    """Worker body: one contiguous slice of a group's block list.

    ``done.append`` is atomic under the GIL, so the recovery path can
    trust it without a lock; a failure stops this chunk only — the
    group barrier still joins the other workers.
    """
    for lin in chunk:
        try:
            maybe_inject("parallel.worker", block=int(lin))
            block_fn(lin)
        except Exception as exc:  # noqa: BLE001 - degrade, never crash
            failures.append((lin, exc))
            return
        done.append(lin)


def _run_native_chunk(chunk, block_fn, done: List[int], failures: List) -> None:
    """:func:`_run_chunk` as one foreign call of the block's runner."""
    finished, exc = block_fn.run(chunk)
    done.extend(chunk[:finished])
    if exc is not None:
        failures.append((chunk[finished], exc))


def _run_in_order(lins, block_fn: Callable[[int], None], native: bool) -> None:
    """The blocks ``lins`` on the calling thread; the first error raises."""
    if native:
        exc = block_fn.run(lins)[1] if len(lins) else None
        if exc is not None:
            raise exc
    else:
        for lin in lins:
            block_fn(lin)


def dispatch_wavefronts(
    offsets,
    indices,
    block_fn: Callable[[int], None],
    inplace: bool = True,
    certified: bool = False,
) -> DispatchStats:
    """Execute one CSR wavefront schedule; returns the dispatch stats.

    A native block with a runner (``block_fn.run``) takes every span of
    groups that runs on the calling thread, and every worker's slice of
    a group, in one foreign call; with a fault plan installed or a
    refusal it is called block by block, like a NumPy-tier closure.
    """
    global _last_stats
    stats = DispatchStats(requested_threads=get_num_threads())
    _last_stats = stats
    threads = stats.requested_threads
    if threads > 1 and not certified:
        stats.refusal = "uncertified"
        _add_event(
            "RS011",
            f"refusing {threads}-thread dispatch: kernel carries no "
            "parallel-safety certificate; executing sequentially",
        )
        threads = 1
    elif threads > 1 and not inplace:
        stats.refusal = "not-inplace"
        _add_event(
            "RS011",
            f"refusing {threads}-thread dispatch: block body rebinds "
            "SSA values across blocks; executing sequentially",
        )
        threads = 1
    native = (hasattr(block_fn, "run") and stats.refusal is None
              and active_plan() is None)
    chunk_fn = _run_native_chunk if native else _run_chunk
    pool = get_pool(threads) if threads > 1 else None
    sizes = np.diff(offsets)
    stats.groups, stats.blocks = len(sizes), int(sizes.sum())
    stats.inline_groups = int(np.count_nonzero(sizes == 1))
    many = sizes > 1
    wide = np.flatnonzero(many) if pool is not None else ()
    stats.sequential_groups = int(np.count_nonzero(many)) - len(wide)
    start = 0  # the first position of indices not run yet
    for g in wide:
        lo, hi = offsets[g], offsets[g + 1]
        if pool is None:  # degraded: every later group is sequential
            stats.sequential_groups += 1
            continue
        _run_in_order(indices[start:lo], block_fn, native)
        start = hi
        group = indices[lo:hi]
        per = -(-len(group) // threads)
        done: List[int] = []
        failures: List = []
        futures = [
            pool.submit(chunk_fn, group[i : i + per], block_fn, done, failures)
            for i in range(0, len(group), per)
        ]
        for future in futures:  # the group barrier
            future.result()
        if failures:
            stats.worker_failures += len(failures)
            stats.degraded = True
            stats.errors.extend(
                f"block {lin}: {type(exc).__name__}: {exc}"
                for lin, exc in failures
            )
            done_set = set(int(d) for d in done)
            recover = [lin for lin in group if int(lin) not in done_set]
            stats.recovered_blocks += len(recover)
            _add_event(
                "RS010",
                f"worker failed in wavefront group {g} "
                f"({stats.errors[-1]}); re-running {len(recover)} "
                f"block(s) sequentially and degrading the remaining "
                f"{len(offsets) - 2 - g} group(s)",
            )
            _run_in_order(np.array(recover, dtype=np.int64), block_fn, native)
            stats.sequential_groups += 1
            pool = None  # every later group stays sequential
        else:
            stats.parallel_groups += 1
    _run_in_order(indices[start:], block_fn, native)
    return stats
