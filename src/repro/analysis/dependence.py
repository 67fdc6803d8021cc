"""The two-level dependence engine.

Distance vectors are extracted **two independent ways** so that one can
audit the other:

* at the ``cfd`` level, by decoding the raw ``stencil`` attribute box of
  a ``cfd.stencilOp`` — deliberately *not* through
  :class:`~repro.core.stencil.StencilPattern`, whose constructor already
  enforces the invariants the analyzer is supposed to check;
* at the ``scf`` level, by lowering a probe clone of the op with the
  production scalar lowering and recovering access offsets from the raw
  index arithmetic of the emitted loop nest (``tensor.extract`` /
  ``tensor.insert`` coordinates resolved to ``induction_var + constant``
  form).

:func:`cross_check_stencil` compares the two and reports any mismatch as
``IP003`` — a machine check that the lowering reads exactly the cells the
L/U tags promise (the correctness argument of §3.2/Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.ir.attributes import BoolAttr, DenseIntElementsAttr, IntegerAttr
from repro.ir.location import op_excerpt, op_path
from repro.ir.operation import Operation
from repro.ir.schedule import resolve_affine
from repro.ir.values import BlockArgument, OpResult, Value

Offset = Tuple[int, ...]


def lex_sign(offset: Offset) -> int:
    """-1 / 0 / +1 for lexicographically negative / zero / positive."""
    for c in offset:
        if c < 0:
            return -1
        if c > 0:
            return 1
    return 0


@dataclass
class AccessSet:
    """The access structure of one in-place stencil update.

    ``y_reads`` are reads of the output tensor (the L subset), ``x_reads``
    reads of the previous iterate (the U subset plus the center), and
    ``b_reads`` reads of the right-hand side (the center only, for a
    well-formed lowering).
    """

    rank: int
    y_reads: Set[Offset] = field(default_factory=set)
    x_reads: Set[Offset] = field(default_factory=set)
    b_reads: Set[Offset] = field(default_factory=set)

    def describe(self) -> str:
        return (
            f"Y{sorted(self.y_reads)} X{sorted(self.x_reads)} "
            f"B{sorted(self.b_reads)}"
        )


# ---------------------------------------------------------------------------
# Level 1: the cfd.stencilOp attribute box, decoded from scratch.
# ---------------------------------------------------------------------------


def decode_stencil_attr(attr: DenseIntElementsAttr):
    """Decode a pattern box into ``(rank, l_offsets, u_offsets)``.

    An independent re-derivation of :class:`StencilPattern`'s enumeration:
    row-major positions re-centered by the per-dimension radii.
    """
    shape = attr.shape
    rank = len(shape)
    radii = [s // 2 for s in shape]
    strides: List[int] = []
    acc = 1
    for s in reversed(shape):
        strides.insert(0, acc)
        acc *= s
    l_offsets: List[Offset] = []
    u_offsets: List[Offset] = []
    for pos, tag in enumerate(attr.flat()):
        if tag == 0:
            continue
        coords = [(pos // st) % s for st, s in zip(strides, shape)]
        offset = tuple(c - r for c, r in zip(coords, radii))
        (l_offsets if tag == -1 else u_offsets).append(offset)
    return rank, l_offsets, u_offsets


def stencil_raw_attrs(op: Operation):
    """``(rank, l, u, sweep, allow_initial_reads)`` from raw attributes,
    or ``None`` when the op does not carry a well-formed box."""
    attr = op.attributes.get("stencil")
    if not isinstance(attr, DenseIntElementsAttr) or not attr.shape:
        return None
    rank, l_offsets, u_offsets = decode_stencil_attr(attr)
    sweep_attr = op.attributes.get("sweep")
    sweep = sweep_attr.value if isinstance(sweep_attr, IntegerAttr) else 1
    initial = op.attributes.get("allow_initial_reads")
    allow_initial = bool(initial.value) if isinstance(initial, BoolAttr) else False
    return rank, l_offsets, u_offsets, sweep, allow_initial


def pattern_access_set(op: Operation) -> Optional[AccessSet]:
    """The :class:`AccessSet` promised by the op's L/U tags."""
    raw = stencil_raw_attrs(op)
    if raw is None:
        return None
    rank, l_offsets, u_offsets, _, _ = raw
    center = tuple([0] * rank)
    return AccessSet(
        rank=rank,
        y_reads=set(l_offsets),
        x_reads=set(u_offsets) | {center},
        b_reads={center},
    )


def schedule_relevant_offsets(
    l_offsets: List[Offset], sweep: int, allow_initial_reads: bool
) -> List[Offset]:
    """Predecessor offsets constraining tile execution order.

    Sweep-adjusted lexicographically negative L offsets are true
    dependences and contribute themselves; offsets on the other side are
    initial-content reads (anti-dependences) and contribute their
    negation. Independent of
    :meth:`StencilPattern.schedule_relevant_offsets`.
    """
    out: Set[Offset] = set()
    for o in l_offsets:
        adjusted = tuple(c * sweep for c in o)
        if lex_sign(adjusted) < 0:
            out.add(o)
        elif allow_initial_reads:
            out.add(tuple(-c for c in o))
    return sorted(out)


def flow_distance_vectors(
    l_offsets: List[Offset], sweep: int, allow_initial_reads: bool
) -> List[Offset]:
    """Iteration-space distance vectors of the in-place dependences.

    A (sweep-directed) read at offset ``r`` of a value written in the
    same sweep has distance ``-r`` — lexicographically positive exactly
    when the schedule is legal.
    """
    return [
        tuple(-c for c in o)
        for o in schedule_relevant_offsets(l_offsets, sweep, allow_initial_reads)
    ]


def block_dependence_witness(
    l_offsets: List[Offset],
    sweep: int,
    allow_initial_reads: bool,
    tile_sizes,
    engine: Optional[str] = None,
) -> Optional[Tuple[Offset, Offset]]:
    """Does some L offset cross *forward* at block granularity?

    The dependence-existence query behind §2.1 tile legality: a
    ``(element_offset, block_offset)`` witness of a cyclic tile
    dependence, or ``None`` when the tiling is legal. Under ``auto`` /
    ``symbolic`` the answer is an affine overlap test over the
    lex-disjunct decomposition of the reachable-block box
    (:mod:`repro.analysis.affine.blockdep`) — O(rank²) per offset, never
    an instance-pair scan; ``enumerated`` forces the corner-alignment
    product the affine path is audited against.
    """
    import time

    from repro.analysis.affine import ENGINE_STATS, resolve_verify_engine
    from repro.analysis.affine.blockdep import (
        block_offset_bounds,
        violation_witness,
    )

    t0 = time.perf_counter()
    mode = resolve_verify_engine(engine)
    relevant = schedule_relevant_offsets(
        list(l_offsets), sweep, allow_initial_reads
    )
    if mode != "enumerated":
        found = None
        for offset in relevant:
            block = violation_witness(offset, sweep, tile_sizes)
            if block is not None:
                found = (offset, block)
                break
        ENGINE_STATS.record(
            "dependence", "symbolic", seconds=time.perf_counter() - t0
        )
        return found
    found = None
    for offset in relevant:
        per_dim = []
        for d in range(len(tile_sizes)):
            lo, hi = block_offset_bounds(offset[d], int(tile_sizes[d]))
            per_dim.append(range(lo, hi + 1))
        for block in _iter_product(per_dim):
            if any(c != 0 for c in block) and lex_sign(
                tuple(c * sweep for c in block)
            ) >= 0:
                found = (offset, block)
                break
        if found:
            break
    ENGINE_STATS.record(
        "dependence", "enumerated", seconds=time.perf_counter() - t0
    )
    return found


def _iter_product(ranges):
    if not ranges:
        yield ()
        return
    for head in ranges[0]:
        for tail in _iter_product(ranges[1:]):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# Level 2: lowered scf loop nests, read back from index arithmetic.
# ---------------------------------------------------------------------------


def _tensor_origin(value: Value) -> Tuple[str, Optional[int]]:
    """Classify the tensor a ``tensor.extract``/``insert`` touches.

    Chases insert chains and loop iter-args upward. Returns
    ``("iter", None)`` for the in-place accumulator threaded through
    ``scf.for`` iter-args, ``("arg", i)`` for function block argument
    ``i``, and ``("other", None)`` otherwise.
    """
    current = value
    for _ in range(10_000):  # defensive bound; chains are short
        if isinstance(current, OpResult):
            op = current.op
            if op.name == "tensor.insert":
                current = op.operand(1)
                continue
            return "other", None
        if isinstance(current, BlockArgument):
            block = current.block
            parent = block.parent.parent if block.parent is not None else None
            if parent is not None and parent.name == "scf.for":
                if current.index == 0:
                    return "other", None  # an induction variable
                return "iter", None
            if parent is not None and parent.name == "func.func":
                return "arg", current.index
            return "other", None
        return "other", None
    return "other", None


def extract_loop_access_set(root: Operation) -> Optional[AccessSet]:
    """Recover the :class:`AccessSet` of the innermost in-place loop nest
    under ``root`` from raw index arithmetic.

    The write anchor is the first ``tensor.insert`` into the iter-arg
    chain: its space coordinates define the per-dimension index roots.
    Every ``tensor.extract`` is then resolved against those roots via
    :func:`~repro.ir.schedule.resolve_affine`; reads whose roots do
    not all match the write roots (e.g. boundary handling) are ignored.
    Returns ``None`` when no in-place write is found.
    """
    inserts = [
        op
        for op in root.walk()
        if op.name == "tensor.insert"
        and _tensor_origin(op.operand(1))[0] == "iter"
    ]
    if not inserts:
        return None
    anchor = inserts[0]
    # Coordinate 0 is the variable index; space coordinates follow.
    write_coords = anchor.operands[2:]
    roots = []
    base = []
    for coord in write_coords[1:]:
        r, off = resolve_affine(coord)
        roots.append(r)
        base.append(off)
    rank = len(roots)
    access = AccessSet(rank=rank)
    for op in root.walk():
        if op.name != "tensor.extract":
            continue
        coords = op.operands[1:]
        if len(coords) != rank + 1:
            continue
        offset = []
        matched = True
        for d, coord in enumerate(coords[1:]):
            r, off = resolve_affine(coord)
            if r is not roots[d]:
                matched = False
                break
            offset.append(off - base[d])
        if not matched:
            continue
        kind, arg_index = _tensor_origin(op.operand(0))
        offset_t = tuple(offset)
        if kind == "iter":
            access.y_reads.add(offset_t)
        elif kind == "arg" and arg_index == 0:
            access.x_reads.add(offset_t)
        elif kind == "arg" and arg_index == 1:
            access.b_reads.add(offset_t)
    return access


def lowered_access_set(op: Operation) -> Optional[AccessSet]:
    """Lower a probe clone of a ``cfd.stencilOp`` with the production
    scalar lowering and read its access set back from the loop nest."""
    from repro.core.lowering import LowerStencilsPass
    from repro.dialects import func
    from repro.ir import ModuleOp, OpBuilder
    from repro.ir.types import FunctionType

    raw = stencil_raw_attrs(op)
    if raw is None or op.num_operands < 3:
        return None
    probe = ModuleOp.create()
    builder = OpBuilder.at_end(probe.body)
    types = [op.operand(i).type for i in range(3)]
    fn = func.FuncOp.build(
        builder, "probe", FunctionType(types, [types[2]])
    )
    fb = OpBuilder.at_end(fn.body)
    x, b, y = fn.arguments
    # Rebuild the op from its raw attributes (bounds dropped: the probe
    # analyzes the full interior, which has the same access structure).
    attrs = {
        key: op.attributes[key]
        for key in ("stencil", "nbVar", "sweep", "allow_initial_reads")
        if key in op.attributes
    }
    attrs["has_bounds"] = BoolAttr(False)
    clone = fb.create(op.name, [x, b, y], [y.type], attrs, regions=[])
    body_region = op.regions[0]
    mapping: Dict[Value, Value] = {}
    from repro.ir.block import Block, Region

    new_region = Region(
        [Block(arg_types=[a.type for a in body_region.entry_block.arguments])]
    )
    for old_arg, new_arg in zip(
        body_region.entry_block.arguments, new_region.entry_block.arguments
    ):
        mapping[old_arg] = new_arg
    for inner in body_region.entry_block.operations:
        new_region.entry_block.append(inner.clone(mapping))
    clone.append_region(new_region)
    func.ReturnOp.build(fb, [clone.result()])
    LowerStencilsPass().run(probe)
    return extract_loop_access_set(fn)


# ---------------------------------------------------------------------------
# The cross-check.
# ---------------------------------------------------------------------------


def compare_access_sets(
    expected: AccessSet, actual: AccessSet, op: Optional[Operation] = None
) -> List[Diagnostic]:
    """``IP003`` diagnostics for every disagreement between the two."""
    diags: List[Diagnostic] = []
    path = op_path(op) if op is not None else ""
    excerpt = op_excerpt(op) if op is not None else ""
    pairs = (
        ("Y (current-iterate / L)", expected.y_reads, actual.y_reads),
        ("X (previous-iterate / U)", expected.x_reads, actual.x_reads),
        ("B (right-hand side)", expected.b_reads, actual.b_reads),
    )
    for label, want, got in pairs:
        if want == got:
            continue
        missing = sorted(want - got)
        extra = sorted(got - want)
        parts = []
        if missing:
            parts.append(f"pattern offsets absent from the loop nest: {missing}")
        if extra:
            parts.append(f"loop-nest offsets absent from the pattern: {extra}")
        diags.append(
            Diagnostic(
                code="IP003",
                message=f"{label} reads disagree — " + "; ".join(parts),
                op_path=path,
                excerpt=excerpt,
            )
        )
    return diags


def cross_check_stencil(op: Operation) -> List[Diagnostic]:
    """Audit one ``cfd.stencilOp``: L/U tags vs lowered index arithmetic."""
    expected = pattern_access_set(op)
    if expected is None:
        return []
    try:
        actual = lowered_access_set(op)
    except Exception as exc:
        return [
            Diagnostic(
                code="IP010",
                severity="note",
                message=f"could not lower a probe clone for cross-checking: {exc}",
                op_path=op_path(op),
            )
        ]
    if actual is None:
        return [
            Diagnostic(
                code="IP010",
                severity="note",
                message="no in-place loop nest found in the lowered probe",
                op_path=op_path(op),
            )
        ]
    return compare_access_sets(expected, actual, op)
