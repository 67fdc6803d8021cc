"""Sub-domain wavefront scheduling (§2.3, §3.4).

Given the grid of sub-domains and the block-level dependence offsets
derived from the ``L`` subset of the stencil pattern, this module computes
the longest-path schedule of Eq. (3)::

    theta(s) = max_r theta(s + r) + 1

(executed in the sweep-directed lexicographic order of sub-domain
coordinates), groups sub-domains with equal ``theta`` into parallel
wavefronts, and encodes the groups in CSR form — exactly the payload of
``cfd.get_parallel_blocks``.

The module also implements the *affine* alternative discussed in §5
("Affine Scheduling"): a linear schedule ``theta(s) = n . s`` with
``-n . r >= 1`` for every dependence offset ``r``, found by bounded
integer search and compared against the graph schedule in an ablation
benchmark.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.ir.indexing import static_ints

Offset = Tuple[int, ...]


def longest_path_schedule(
    num_blocks: Sequence[int], block_offsets: Iterable[Offset]
) -> np.ndarray:
    """Eq. (3): the optimal-latency schedule of the sub-domain graph.

    ``block_offsets`` point at *predecessors*: sub-domain ``s`` depends on
    ``s + r`` for every offset ``r`` (with ``s + r`` inside the grid).
    Offsets must all be lexicographically negative or all positive (the
    forward/backward sweep cases); the blocks are processed in the
    corresponding topological order.

    Returns an integer array of shape ``num_blocks`` with ``theta`` per
    sub-domain; complexity O(n_blocks * |L|) as discussed in §2.3.
    """
    num_blocks = tuple(int(n) for n in num_blocks)
    offsets = [tuple(int(c) for c in o) for o in block_offsets]
    for o in offsets:
        if len(o) != len(num_blocks):
            raise ValueError(f"offset {o} rank != grid rank {len(num_blocks)}")
        if all(c == 0 for c in o):
            raise ValueError("a sub-domain cannot depend on itself")
    direction = _sweep_direction(offsets)
    theta = np.zeros(num_blocks, dtype=np.int64)
    indices = itertools.product(*(range(n) for n in num_blocks))
    if direction < 0:
        indices = itertools.product(*(range(n - 1, -1, -1) for n in num_blocks))
    for s in indices:
        best = 0
        for r in offsets:
            p = tuple(si + ri for si, ri in zip(s, r))
            if all(0 <= pi < ni for pi, ni in zip(p, num_blocks)):
                candidate = theta[p] + 1
                if candidate > best:
                    best = candidate
        theta[s] = best
    return theta


def _sweep_direction(offsets: List[Offset]) -> int:
    """+1 when all offsets are lexicographically negative, -1 when all
    positive (empty offset lists default to forward)."""

    def lex_sign(o: Offset) -> int:
        for c in o:
            if c:
                return -1 if c < 0 else 1
        return 0

    signs = {lex_sign(o) for o in offsets}
    if not signs:
        return 1
    if signs == {-1}:
        return 1
    if signs == {1}:
        return -1
    raise ValueError(
        "block offsets mix lexicographic directions; no single sweep order "
        f"is a valid schedule: {offsets}"
    )


def wavefront_groups(theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group sub-domains by schedule value into CSR wavefronts.

    Returns ``(offsets, indices)``: group ``g`` is
    ``indices[offsets[g] : offsets[g+1]]``, each entry a row-major
    linearized sub-domain index. Groups are ordered by increasing
    ``theta``; all sub-domains in a group are mutually independent.
    """
    flat = theta.reshape(-1)
    order = np.argsort(flat, kind="stable")
    sorted_theta = flat[order]
    # Group boundaries where theta changes.
    boundaries = np.flatnonzero(np.diff(sorted_theta)) + 1
    offsets = np.concatenate(([0], boundaries, [flat.size])).astype(np.int64)
    return offsets, order.astype(np.int64)


def compute_parallel_blocks(
    num_blocks: Sequence[int], block_offsets: Iterable[Offset]
) -> Tuple[np.ndarray, np.ndarray]:
    """The full ``cfd.get_parallel_blocks`` computation: Eq. (3) + CSR.

    The grid and offsets are compile-time constants of a kernel, so every
    schedule is computed once per process and shared: the arrays are
    read-only (copy them to edit a schedule).
    """
    return _memo(
        tuple(int(n) for n in num_blocks),
        tuple(tuple(int(c) for c in o) for o in block_offsets),
    )


@lru_cache(maxsize=256)
def _memo(num_blocks: Tuple[int, ...], block_offsets: Tuple[Offset, ...]):
    csr = wavefront_groups(longest_path_schedule(num_blocks, block_offsets))
    for a in csr:
        a.flags.writeable = False
    return csr


def validate_schedule(
    num_blocks: Sequence[int],
    block_offsets: Iterable[Offset],
    offsets: np.ndarray,
    indices: np.ndarray,
) -> None:
    """Check a CSR schedule: completeness and dependence-before-use.

    Raises ``ValueError`` on the first violation. Used by property tests
    and by the pipeline's self-check mode.
    """
    num_blocks = tuple(int(n) for n in num_blocks)
    total = int(np.prod(num_blocks))
    indices = np.asarray(indices)
    offsets = np.asarray(offsets)
    if sorted(indices.tolist()) != list(range(total)):
        raise ValueError("schedule does not cover every sub-domain exactly once")
    group_of = np.empty(total, dtype=np.int64)
    for g in range(len(offsets) - 1):
        group_of[indices[offsets[g] : offsets[g + 1]]] = g
    strides = _row_major_strides(num_blocks)
    for linear in range(total):
        s = _delinearize(linear, num_blocks, strides)
        for r in block_offsets:
            p = tuple(si + ri for si, ri in zip(s, r))
            if not all(0 <= pi < ni for pi, ni in zip(p, num_blocks)):
                continue
            p_linear = sum(pi * st for pi, st in zip(p, strides))
            if group_of[p_linear] >= group_of[linear]:
                raise ValueError(
                    f"sub-domain {s} (group {group_of[linear]}) depends on "
                    f"{p} (group {group_of[p_linear]}): not strictly earlier"
                )


def schedule_latency(offsets: np.ndarray) -> int:
    """Number of wavefront groups — the schedule's critical-path length."""
    return len(offsets) - 1


def group_sizes(offsets: np.ndarray) -> List[int]:
    """Sub-domains per wavefront group (the available parallelism)."""
    return list(np.diff(offsets))


def _row_major_strides(shape: Sequence[int]) -> List[int]:
    strides = []
    acc = 1
    for n in reversed(shape):
        strides.insert(0, acc)
        acc *= n
    return strides


def _delinearize(linear: int, shape: Sequence[int], strides: Sequence[int]):
    return tuple((linear // st) % n for st, n in zip(strides, shape))


def delinearize(linear: int, shape: Sequence[int]) -> Tuple[int, ...]:
    """Row-major delinearization of a sub-domain index."""
    return _delinearize(linear, shape, _row_major_strides(shape))


# ---------------------------------------------------------------------------
# Schedule stamping — the compiled artifact carries its wavefront shape.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleStamp:
    """The statically resolved wavefront schedule of one grouped loop.

    Stamped into :class:`~repro.codegen.executor.CompiledKernel.schedule`
    by the pipeline (and persisted in the disk-cache metadata), so the
    runtime, the benchmarks and the machine-model simulator can read the
    schedule of a compiled artifact without re-deriving it from IR.
    """

    num_blocks: Tuple[int, ...]
    block_offsets: Tuple[Offset, ...]
    group_sizes: Tuple[int, ...]

    @property
    def num_groups(self) -> int:
        return len(self.group_sizes)

    @property
    def total_blocks(self) -> int:
        return sum(self.group_sizes)

    @property
    def max_parallelism(self) -> int:
        return max(self.group_sizes, default=0)

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The full CSR payload (offsets, indices), read-only."""
        return compute_parallel_blocks(self.num_blocks, self.block_offsets)

    def to_json(self) -> dict:
        return {
            "num_blocks": list(self.num_blocks),
            "block_offsets": [list(o) for o in self.block_offsets],
            "group_sizes": list(self.group_sizes),
        }

    @staticmethod
    def from_json(data: dict) -> "ScheduleStamp":
        return ScheduleStamp(
            num_blocks=tuple(int(n) for n in data["num_blocks"]),
            block_offsets=tuple(
                tuple(int(c) for c in o) for o in data["block_offsets"]
            ),
            group_sizes=tuple(int(s) for s in data["group_sizes"]),
        )


def extract_schedule_stamps(module) -> List[ScheduleStamp]:
    """One :class:`ScheduleStamp` per ``cfd.get_parallel_blocks`` op
    whose grid extents are statically resolvable (module order).

    Dynamic extents (and divisions without a positive constant divisor)
    simply produce no stamp — the runtime schedule is still computed by
    the generated code; only the static metadata is unavailable.
    """
    stamps: List[ScheduleStamp] = []
    for op in module.walk():
        if op.name != "cfd.get_parallel_blocks":
            continue
        extents = static_ints(op.operands)
        if any(e is None for e in extents):
            continue
        offsets_csr, _ = compute_parallel_blocks(extents, op.block_offsets)
        stamps.append(ScheduleStamp(
            num_blocks=tuple(int(e) for e in extents),
            block_offsets=tuple(tuple(o) for o in op.block_offsets),
            group_sizes=tuple(int(s) for s in np.diff(offsets_csr)),
        ))
    return stamps


# ---------------------------------------------------------------------------
# Affine scheduling (§5 "Affine Scheduling") — the ablation alternative.
# ---------------------------------------------------------------------------


def affine_schedule_vector(
    block_offsets: Iterable[Offset],
    num_blocks: Sequence[int],
    max_coefficient: int = 4,
) -> Tuple[int, ...]:
    """Find an integer vector ``n`` with ``-n . r >= 1`` for all offsets,
    minimizing the latency ``max_s n.s - min_s n.s`` over the grid.

    A bounded exhaustive search is sufficient for stencil patterns (the
    offsets are tiny); raises if no vector within the bound works.
    """
    offsets = [tuple(o) for o in block_offsets]
    rank = len(num_blocks)
    if not offsets:
        return tuple([0] * rank)
    best: Tuple[int, ...] = ()
    best_latency = None
    for n in itertools.product(
        range(-max_coefficient, max_coefficient + 1), repeat=rank
    ):
        if all(-sum(ni * ri for ni, ri in zip(n, r)) >= 1 for r in offsets):
            latency = sum(abs(ni) * (nb - 1) for ni, nb in zip(n, num_blocks))
            if best_latency is None or latency < best_latency:
                best_latency = latency
                best = tuple(n)
    if best_latency is None:
        raise ValueError(
            f"no affine schedule with |coefficients| <= {max_coefficient} "
            f"satisfies the dependences {offsets}"
        )
    return best


def affine_schedule(
    num_blocks: Sequence[int], block_offsets: Iterable[Offset]
) -> np.ndarray:
    """Evaluate the best linear schedule over the grid, shifted to start
    at zero. Latency-optimal only "up to a constant" [Darte et al.],
    unlike :func:`longest_path_schedule`."""
    n = affine_schedule_vector(block_offsets, num_blocks)
    grids = np.meshgrid(
        *(np.arange(nb) for nb in num_blocks), indexing="ij"
    )
    theta = sum(ni * g for ni, g in zip(n, grids))
    if np.size(theta) == 0:
        return np.zeros(tuple(num_blocks), dtype=np.int64)
    return (theta - theta.min()).astype(np.int64)
