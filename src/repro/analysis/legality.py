"""In-place legality: the §2.1 restrictions, re-derived independently.

Two checks, both working from *raw attributes* (never through
:class:`StencilPattern` or :func:`legalize_tile_sizes`, whose code they
audit):

* **sweep order** (``IP001``): every L offset must be lexicographically
  negative under the declared sweep direction (positive offsets are only
  admissible with ``allow_initial_reads``, where they are initial-content
  anti-dependences);
* **tile legality** (``IP002``): a rectangular tiling executed in
  (sweep-directed) lexicographic tile order is valid only when every
  schedule-relevant offset maps to lexicographically negative block
  offsets for every corner alignment of the tile (Fig. 1). A tile-size
  vector that lets an L dependence cross *forward* at block granularity
  creates a cyclic tile dependence — e.g. tile sizes ``(16, 128)`` for
  the 9-point kernel's ``(-1, 1)`` offset, which the paper fixes by
  forcing ``1 x 128``.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from repro.analysis.dependence import (
    lex_sign,
    schedule_relevant_offsets,
    stencil_raw_attrs,
)
from repro.analysis.diagnostics import Diagnostic
from repro.ir.attributes import BoolAttr
from repro.ir.indexing import static_ints
from repro.ir.location import op_excerpt, op_path
from repro.ir.operation import Operation

Offset = Tuple[int, ...]


def _floor_div(a: int, b: int) -> int:
    return a // b  # Python's // is the floor division the derivation needs


def block_offset_range(element_offset: int, tile_size: int) -> range:
    """The block offsets an element offset can produce along one dim.

    An element at in-tile position ``c`` (``0 <= c < T``) reaches in-tile
    position ``c + o``; the containing block moves by
    ``floor((c + o) / T)``. The extremes are attained at the tile's two
    corners, and every integer in between is attainable.
    """
    lo = _floor_div(element_offset, tile_size)
    hi = _floor_div(tile_size - 1 + element_offset, tile_size)
    return range(lo, hi + 1)


def illegal_block_offsets(
    l_offsets: Sequence[Offset],
    sweep: int,
    allow_initial_reads: bool,
    tile_sizes: Sequence[int],
    engine: Optional[str] = None,
) -> List[Tuple[Offset, Offset]]:
    """All ``(element_offset, block_offset)`` pairs violating §2.1.

    A block offset is a violation when it is non-zero and not
    lexicographically negative after sweep adjustment: the tile schedule
    would then run a dependent tile no later than its predecessor.

    Under ``auto``/``symbolic`` the violating region is read off the
    lex-disjunct boxes of :mod:`repro.analysis.affine.blockdep`: legal
    tilings are dismissed without visiting a single corner alignment,
    and violations are listed in time linear in their number. The
    ``enumerated`` engine scans the full corner product (the oracle the
    affine path is audited against); both produce the identical
    lexicographically-ordered pair list.
    """
    from repro.analysis.affine import ENGINE_STATS, resolve_verify_engine

    t0 = time.perf_counter()
    mode = resolve_verify_engine(engine)
    relevant = schedule_relevant_offsets(
        list(l_offsets), sweep, allow_initial_reads
    )
    violations: List[Tuple[Offset, Offset]] = []
    if mode != "enumerated":
        from repro.analysis.affine.blockdep import violating_blocks

        for offset in relevant:
            violations.extend(
                (offset, block)
                for block in violating_blocks(offset, sweep, tile_sizes)
            )
        ENGINE_STATS.record(
            "legality", "symbolic", seconds=time.perf_counter() - t0
        )
        return violations
    for offset in relevant:
        per_dim = [
            block_offset_range(offset[d], int(tile_sizes[d]))
            for d in range(len(tile_sizes))
        ]
        for block in _product(per_dim):
            if all(c == 0 for c in block):
                continue
            adjusted = tuple(c * sweep for c in block)
            if lex_sign(adjusted) >= 0:
                violations.append((offset, block))
    ENGINE_STATS.record(
        "legality", "enumerated", seconds=time.perf_counter() - t0
    )
    return violations


def _product(ranges: List[range]):
    if not ranges:
        yield ()
        return
    for head in ranges[0]:
        for tail in _product(ranges[1:]):
            yield (head,) + tail


def tile_sizes_legal(
    pattern, tile_sizes: Sequence[int], engine: Optional[str] = None
) -> bool:
    """Convenience predicate over a :class:`StencilPattern` (used by the
    checker/legalizer agreement property test and the tile-size
    legalizer). A pure existence query: under ``auto``/``symbolic`` it
    is one affine overlap test per offset — independent of the tile
    sizes — via :func:`~repro.analysis.dependence.block_dependence_witness`."""
    from repro.analysis.dependence import block_dependence_witness

    return (
        block_dependence_witness(
            list(pattern.l_offsets),
            pattern.sweep,
            pattern.allow_initial_reads,
            tile_sizes,
            engine=engine,
        )
        is None
    )


# ---------------------------------------------------------------------------
# Op-level checks.
# ---------------------------------------------------------------------------


def check_sweep_order(op: Operation) -> List[Diagnostic]:
    """``IP001`` for every L offset on the wrong lexicographic side."""
    raw = stencil_raw_attrs(op)
    if raw is None:
        return []
    _, l_offsets, _, sweep, allow_initial = raw
    if sweep not in (1, -1):
        return [
            Diagnostic(
                code="IP001",
                message=f"declared sweep {sweep!r} is neither 1 nor -1",
                op_path=op_path(op),
                excerpt=op_excerpt(op),
            )
        ]
    diags: List[Diagnostic] = []
    direction = "negative" if sweep == 1 else "positive"
    for o in l_offsets:
        adjusted = tuple(c * sweep for c in o)
        sign = lex_sign(adjusted)
        if sign < 0:
            continue
        if sign == 0:
            message = (
                f"L offset {o} is the center: the update would read the "
                "value it is about to write"
            )
        elif allow_initial:
            continue  # an initial-content read, explicitly permitted
        else:
            message = (
                f"L offset {o} is not lexicographically {direction}: the "
                f"{'forward' if sweep == 1 else 'backward'} traversal "
                "would read a cell it has not written yet"
            )
        diags.append(
            Diagnostic(
                code="IP001",
                message=message,
                op_path=op_path(op),
                excerpt=op_excerpt(op),
            )
        )
    return diags


def loop_stencil_raw_attrs(loop: Operation):
    """Stencil attributes of a ``cfd.tiled_loop``: the stamped copies
    left by the tiling pass, or the direct inner ``cfd.stencilOp``."""
    if "stencil" in loop.attributes:
        return stencil_raw_attrs(loop)
    for op in loop.walk():
        if op is not loop and op.name == "cfd.stencilOp":
            return stencil_raw_attrs(op)
    return None


def static_tile_sizes(loop: Operation) -> Optional[List[int]]:
    """Tile sizes of a ``cfd.tiled_loop``: its step operands, evaluated
    statically (the stamped ``tile_sizes`` attribute is *not* consulted —
    the steps are what actually executes)."""
    steps = getattr(loop, "steps", None)
    if steps is None:
        return None
    sizes = static_ints(steps)
    if any(s is None or s < 1 for s in sizes):
        return None
    return [int(s) for s in sizes]


def check_tiled_loop(
    loop: Operation, engine: Optional[str] = None
) -> List[Diagnostic]:
    """Audit one ``cfd.tiled_loop``: sweep consistency and tile legality."""
    raw = loop_stencil_raw_attrs(loop)
    if raw is None:
        return []  # not a stencil loop (or already fully lowered)
    rank, l_offsets, _, sweep, allow_initial = raw
    diags: List[Diagnostic] = []

    reverse_attr = loop.attributes.get("reverse")
    reverse = bool(reverse_attr.value) if isinstance(reverse_attr, BoolAttr) else False
    if reverse != (sweep == -1):
        diags.append(
            Diagnostic(
                code="IP001",
                message=(
                    f"loop traversal direction (reverse={reverse}) does not "
                    f"match the stencil sweep ({sweep}): the tile order "
                    "would run against the dependence direction"
                ),
                op_path=op_path(loop),
                excerpt=op_excerpt(loop),
            )
        )

    tile_sizes = static_tile_sizes(loop)
    if tile_sizes is None or len(tile_sizes) != rank:
        diags.append(
            Diagnostic(
                code="IP010",
                severity="note",
                message="tile step sizes are not statically resolvable; "
                "tile-legality check skipped",
                op_path=op_path(loop),
            )
        )
        return diags
    for element_offset, block in illegal_block_offsets(
        l_offsets, sweep, allow_initial, tile_sizes, engine=engine
    ):
        diags.append(
            Diagnostic(
                code="IP002",
                message=(
                    f"tile sizes {tile_sizes} let L offset {element_offset} "
                    f"reach block offset {block}, which is not "
                    "lexicographically negative under the declared sweep: "
                    "the lexicographic tile order has a cyclic dependence "
                    "(a dimension carrying a negative dependence distance "
                    "must have tile size 1, §2.1)"
                ),
                op_path=op_path(loop),
                excerpt=op_excerpt(loop),
            )
        )
    return diags
