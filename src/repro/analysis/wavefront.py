"""Wavefront race detection: replaying ``cfd.get_parallel_blocks``.

The CSR payload of ``cfd.get_parallel_blocks`` is produced at run time by
the longest-path schedule of Eq. (3). The analyzer *replays* that payload
statically (same grid, same computation as the interpreter and backend)
and audits it against the block dependence graph derived **independently**
from the consuming loop's L pattern and tile steps:

* every pair of same-group sub-domains connected by a dependence is a
  race (``IP004``);
* a dependence pointing at a later group breaks the group-order contract
  (``IP007``);
* the schedule must visit every sub-domain exactly once — a missing tile
  is a silent wrong answer (``IP005``), a duplicated one gives two
  same-group tiles overlapping write regions (``IP006``);
* the CSR encoding itself must be well-formed (``IP009``);
* the op's declared ``block_stencil`` must match the offsets derived from
  the pattern and tile sizes (``IP008``).

:func:`check_csr_schedule` is the array-level core, reused by the
mutation-corpus tests to audit deliberately corrupted payloads.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.dependence import schedule_relevant_offsets
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.legality import (
    block_offset_range,
    loop_stencil_raw_attrs,
    static_tile_sizes,
)
from repro.ir.indexing import static_ints
from repro.ir.location import op_excerpt, op_path
from repro.ir.operation import Operation

Offset = Tuple[int, ...]


def derive_block_offsets(
    l_offsets: Sequence[Offset],
    sweep: int,
    allow_initial_reads: bool,
    tile_sizes: Sequence[int],
    engine: Optional[str] = None,
) -> List[Offset]:
    """Block-level predecessor offsets from the element-level L pattern.

    Independent of :meth:`StencilPattern.block_stencil_offsets`. The
    explicit offset list is inherently its own size (the CSR replay
    needs every edge), but under ``auto``/``symbolic`` the per-dimension
    extents are read off the affine reachable-block box — the same
    description the legality disjuncts are built from — instead of the
    corner ranges of :func:`block_offset_range`.
    """
    from repro.analysis.affine import ENGINE_STATS, resolve_verify_engine

    t0 = time.perf_counter()
    mode = resolve_verify_engine(engine)
    blocks = set()
    for offset in schedule_relevant_offsets(
        list(l_offsets), sweep, allow_initial_reads
    ):
        if mode != "enumerated":
            from repro.analysis.affine.blockdep import reachable_block_box
            from repro.analysis.affine.sets import LinExpr

            box = reachable_block_box(offset, tile_sizes)
            per_dim = []
            for d in range(len(tile_sizes)):
                lo, hi = box.bounds(LinExpr.var(f"b{d}"))
                per_dim.append(range(lo, hi + 1))
        else:
            per_dim = [
                block_offset_range(offset[d], int(tile_sizes[d]))
                for d in range(len(tile_sizes))
            ]
        stack: List[Offset] = [()]
        for r in per_dim:
            stack = [prefix + (c,) for prefix in stack for c in r]
        for block in stack:
            if any(c != 0 for c in block):
                blocks.add(block)
    ENGINE_STATS.record(
        "wavefront",
        "symbolic" if mode != "enumerated" else "enumerated",
        seconds=time.perf_counter() - t0,
    )
    return sorted(blocks)


def _delinearize(linear: int, shape: Sequence[int]) -> Offset:
    coords = []
    for extent in reversed(shape):
        coords.append(linear % extent)
        linear //= extent
    return tuple(reversed(coords))


def _linearize(coords: Offset, shape: Sequence[int]) -> int:
    out = 0
    for c, extent in zip(coords, shape):
        out = out * extent + c
    return out


def check_csr_schedule(
    num_blocks: Sequence[int],
    block_offsets: Sequence[Offset],
    offsets,
    indices,
    op: Optional[Operation] = None,
    max_reports_per_code: int = 8,
) -> List[Diagnostic]:
    """Audit one CSR wavefront payload against a block dependence graph.

    ``block_offsets`` point at predecessors: sub-domain ``s`` depends on
    ``s + r`` whenever that lands inside the grid.
    """
    path = op_path(op) if op is not None else ""
    excerpt = op_excerpt(op) if op is not None else ""

    def diag(code: str, message: str) -> Diagnostic:
        return Diagnostic(code=code, message=message, op_path=path, excerpt=excerpt)

    diags: List[Diagnostic] = []
    num_blocks = [int(n) for n in num_blocks]
    total = int(np.prod(num_blocks)) if num_blocks else 0
    offsets = np.asarray(offsets)
    indices = np.asarray(indices)

    # -- IP009: structural well-formedness of the CSR encoding.
    malformed = []
    if offsets.ndim != 1 or indices.ndim != 1:
        malformed.append("offsets/indices must be one-dimensional")
    else:
        if len(offsets) < 1 or offsets[0] != 0:
            malformed.append("offsets must start at 0")
        if len(offsets) >= 1 and offsets[-1] != len(indices):
            malformed.append(
                f"offsets must end at len(indices)={len(indices)}, "
                f"got {int(offsets[-1]) if len(offsets) else 'nothing'}"
            )
        if np.any(np.diff(offsets) < 0):
            malformed.append("offsets must be non-decreasing")
        if indices.size and (
            indices.min() < 0 or indices.max() >= total
        ):
            malformed.append(
                f"indices must lie in [0, {total}), found range "
                f"[{int(indices.min())}, {int(indices.max())}]"
            )
    if malformed:
        diags.append(diag("IP009", "; ".join(malformed)))
        return diags  # group membership is meaningless beyond this point

    # -- IP005 / IP006: exactly-once coverage.
    counts = np.bincount(indices, minlength=total) if total else np.array([])
    missing = np.flatnonzero(counts == 0)
    duplicated = np.flatnonzero(counts > 1)
    for linear in missing[:max_reports_per_code]:
        diags.append(
            diag(
                "IP005",
                f"sub-domain {_delinearize(int(linear), num_blocks)} "
                "is never scheduled: its cells are never updated",
            )
        )
    if len(missing) > max_reports_per_code:
        diags.append(
            diag("IP005", f"... and {len(missing) - max_reports_per_code} more")
        )
    for linear in duplicated[:max_reports_per_code]:
        diags.append(
            diag(
                "IP006",
                f"sub-domain {_delinearize(int(linear), num_blocks)} is "
                f"scheduled {int(counts[linear])} times: tiles with "
                "identical write regions overlap",
            )
        )

    # -- IP004 / IP007: dependence placement. The group of a duplicated
    # sub-domain is its earliest occurrence (the most forgiving reading).
    group_of = np.full(total, -1, dtype=np.int64)
    for g in range(len(offsets) - 1):
        for linear in indices[offsets[g] : offsets[g + 1]]:
            if group_of[linear] == -1:
                group_of[linear] = g
    races = 0
    order_violations = 0
    for linear in range(total):
        if group_of[linear] == -1:
            continue
        s = _delinearize(linear, num_blocks)
        for r in block_offsets:
            p = tuple(si + ri for si, ri in zip(s, r))
            if not all(0 <= pi < ni for pi, ni in zip(p, num_blocks)):
                continue
            p_linear = _linearize(p, num_blocks)
            if group_of[p_linear] == -1:
                continue
            if group_of[p_linear] == group_of[linear]:
                races += 1
                if races <= max_reports_per_code:
                    diags.append(
                        diag(
                            "IP004",
                            f"sub-domains {s} and {p} are in the same "
                            f"parallel group {int(group_of[linear])} but "
                            f"connected by block dependence {r}: "
                            "executing them concurrently races on the "
                            "halo cells",
                        )
                    )
            elif group_of[p_linear] > group_of[linear]:
                order_violations += 1
                if order_violations <= max_reports_per_code:
                    diags.append(
                        diag(
                            "IP007",
                            f"sub-domain {s} (group {int(group_of[linear])}) "
                            f"depends on {p} scheduled in later group "
                            f"{int(group_of[p_linear])}: the dependence "
                            "executes backwards",
                        )
                    )
    for count, code in ((races, "IP004"), (order_violations, "IP007")):
        if count > max_reports_per_code:
            diags.append(
                diag(code, f"... and {count - max_reports_per_code} more")
            )
    return diags


def _consumer_loop(op: Operation) -> Optional[Operation]:
    """The ``cfd.tiled_loop`` consuming this op's CSR results."""
    for res in op.results:
        for use in res.uses:
            if use.owner.name == "cfd.tiled_loop":
                return use.owner
    return None


def check_get_parallel_blocks(
    op: Operation, engine: Optional[str] = None
) -> List[Diagnostic]:
    """Audit one ``cfd.get_parallel_blocks`` op."""
    from repro.core.scheduling import compute_parallel_blocks

    diags: List[Diagnostic] = []
    declared = sorted(tuple(o) for o in op.block_offsets)

    # Independent derivation from the consuming loop's pattern and steps.
    loop = _consumer_loop(op)
    derived: Optional[List[Offset]] = None
    if loop is not None:
        raw = loop_stencil_raw_attrs(loop)
        tile_sizes = static_tile_sizes(loop)
        if raw is not None and tile_sizes is not None:
            rank, l_offsets, _, sweep, allow_initial = raw
            if len(tile_sizes) == rank:
                derived = derive_block_offsets(
                    l_offsets, sweep, allow_initial, tile_sizes, engine=engine
                )
    if derived is not None and declared != derived:
        diags.append(
            Diagnostic(
                code="IP008",
                message=(
                    f"declared block stencil {declared} disagrees with the "
                    f"offsets {derived} derived from the consuming loop's "
                    "L pattern and tile steps"
                ),
                op_path=op_path(op),
                excerpt=op_excerpt(op),
            )
        )

    num_blocks = static_ints(op.operands)
    if any(n is None or n < 1 for n in num_blocks):
        diags.append(
            Diagnostic(
                code="IP010",
                severity="note",
                message="sub-domain grid extents are not statically "
                "resolvable; wavefront replay skipped",
                op_path=op_path(op),
            )
        )
        return diags

    # Replay the runtime payload (the same computation the interpreter
    # and backend run) and audit it against the *derived* graph.
    try:
        csr_offsets, csr_indices = compute_parallel_blocks(num_blocks, declared)
    except ValueError as exc:
        diags.append(
            Diagnostic(
                code="IP009",
                message=f"declared block offsets admit no schedule: {exc}",
                op_path=op_path(op),
                excerpt=op_excerpt(op),
            )
        )
        return diags
    audit_graph = derived if derived is not None else declared
    diags.extend(
        check_csr_schedule(
            num_blocks, audit_graph, csr_offsets, csr_indices, op=op
        )
    )
    return diags
