"""Partial vectorization of in-place stencils (§2.4, §3.5, Figs. 2 and 7).

The innermost (contiguous) space dimension is strip-mined by the
vectorization factor ``VF``. Per strip:

* the ``B`` term, all ``U`` accesses, the center ``X`` access, and every
  ``L`` access touching a *different* row (some leading offset non-zero —
  that row is already fully updated) are read as VF-wide vectors with
  ``vector.transfer_read`` and combined into a vector ``temp`` by a
  vector-typed clone of the payload region (scalars broadcast on demand);
* the true recurrence — ``L`` accesses within the current row — is
  resolved by ``VF`` *unrolled scalar* updates, each combining its lane of
  ``temp`` (via ``vector.extract``) with the SSA values the earlier lanes
  just produced (forwarded, not re-read; only the sources lying before
  the strip are ``tensor.extract``-ed, once, at its head);
* trailing iterations that do not fill a strip are peeled into a scalar
  loop.

Legality: the vector clone of the region (producing ``d`` and the
vectorizable contributions) must not read recurrent arguments, and must
consist of elementwise-liftable operations; otherwise the op falls back
to the scalar lowering of :mod:`repro.core.lowering`.

Backward sweeps mirror everything: strips walk the row from high to low
addresses and lanes unroll in descending order.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.lowering import (
    backward_slice,
    build_sweep_nest,
    inline_region_scalars,
    lower_stencil_scalar,
    slice_depends_on,
    stencil_write_bounds,
)
from repro.dialects import arith, cfd, scf, tensor, vector
from repro.ir import Pass
from repro.ir.builder import OpBuilder
from repro.ir.rewriter import PatternRewriter, RewritePattern, apply_patterns_greedily
from repro.ir.types import VectorType, f64
from repro.ir.values import Value

#: Region operations that lift elementwise to vectors.
_VECTORIZABLE_OPS = {"arith.constant"} | {
    name for name, op in arith.value_ops().items() if op.LANEWISE
}


def classify_accesses(pattern) -> Tuple[List[int], List[int]]:
    """Indices of (vectorizable, recurrent) accesses in pattern order.

    An access is *recurrent* when it reads the current iteration (``L``)
    within the row being written on the dependence side: all leading
    offsets zero. Everything else — ``U`` reads, ``L`` reads from
    already-completed rows like ``y[i-1, j:j+VF]`` in Fig. 2, and
    initial-content reads (anti-dependence side; strips read before they
    write, and strips they haven't reached are untouched) — is
    vectorizable.
    """
    dependent = set(pattern.dependent_l_offsets)
    vectorizable, recurrent = [], []
    for a, (offset, tag) in enumerate(pattern.accesses):
        if (
            tag == -1
            and offset in dependent
            and all(c == 0 for c in offset[:-1])
        ):
            recurrent.append(a)
        else:
            vectorizable.append(a)
    return vectorizable, recurrent


def can_vectorize(op: cfd.StencilOp) -> bool:
    """Check the region-level legality conditions (see module docstring)."""
    pattern = op.pattern
    nv = op.nb_var
    vectorizable, recurrent = classify_accesses(pattern)
    term = op.body.terminator
    yields = list(term.operands)
    d_val = yields[0]
    contribs = yields[1:]
    recurrent_args: Set[Value] = set()
    for a in recurrent:
        for v in range(nv):
            recurrent_args.add(op.body.arguments[a * nv + v])
    vector_targets = [d_val]
    for a in vectorizable + [pattern.num_accesses]:  # incl. center contribs
        for v in range(nv):
            vector_targets.append(contribs[a * nv + v])
    if slice_depends_on(op.body, vector_targets, recurrent_args):
        return False
    needed = backward_slice(op.body, vector_targets)
    for region_op in op.body.operations:
        if id(region_op) in needed and region_op.name not in _VECTORIZABLE_OPS:
            return False
    # The scalar recurrence part must also be cloneable — any op is fine
    # there (it stays scalar), so no further checks.
    return True


def _emit_vector_clone(
    builder: OpBuilder,
    block,
    targets: Sequence[Value],
    bindings: Dict[Value, Value],
    vf: int,
) -> List[Value]:
    """Clone the ops computing ``targets`` with vector-typed block-arg
    bindings; scalar intermediate values are broadcast at their first
    vector use. Returns the mapped targets (vectors or scalars)."""
    vec_t = VectorType([vf], f64)
    needed = backward_slice(block, targets)
    mapping: Dict[Value, Value] = dict(bindings)
    broadcast_cache: Dict[int, Value] = {}

    def as_vector(v: Value) -> Value:
        if isinstance(v.type, VectorType):
            return v
        key = id(v)
        if key not in broadcast_cache:
            broadcast_cache[key] = vector.BroadcastOp.build(
                builder, v, vec_t
            ).result()
        return broadcast_cache[key]

    term = block.terminator
    for op in block.operations:
        if op is term or id(op) not in needed:
            continue
        operands = [mapping.get(o, o) for o in op.operands]
        if any(isinstance(o.type, VectorType) for o in operands):
            operands = [as_vector(o) for o in operands]
            result_types = [vec_t for _ in op.results]
        else:
            result_types = [r.type for r in op.results]
        clone = builder.create(
            op.name, operands, result_types, dict(op.attributes)
        )
        for old_res, new_res in zip(op.results, clone.results):
            mapping[old_res] = new_res

    out = []
    for t in targets:
        out.append(mapping.get(t, t))
    return out


def lower_stencil_vectorized(
    op: cfd.StencilOp, vf: int, rewriter: PatternRewriter
) -> bool:
    """The partially vectorized lowering; returns False on fallback."""
    pattern = op.pattern
    if not can_vectorize(op):
        return False
    nv = op.nb_var
    k = pattern.rank
    n_access = pattern.num_accesses
    vectorizable, recurrent = classify_accesses(pattern)
    sweep = pattern.sweep
    vec_t = VectorType([vf], f64)

    los, his = stencil_write_bounds(rewriter, op)
    x, b = op.x, op.b

    # Outer dims: a sweep-directed scalar nest threading Y.
    if k > 1:
        outer, body, idx_outer, iter_args = build_sweep_nest(
            rewriter, los[:-1], his[:-1], sweep, [op.y_init]
        )
        y0 = iter_args[0]
    else:
        outer, body, idx_outer, y0 = None, rewriter, [], op.y_init

    lo_j, hi_j = los[-1], his[-1]
    span = arith.subi(body, hi_j, lo_j)
    vf_c = arith.const_index(body, vf)
    n_strips = arith.floordivi(body, span, vf_c)
    zero = arith.const_index(body, 0)
    one = arith.const_index(body, 1)

    # --- the vectorized strip loop (over strip indices) -----------------
    strip_loop = scf.ForOp.build(body, zero, n_strips, one, [y0])
    sb = OpBuilder.at_end(strip_loop.body)
    t_iv = strip_loop.induction_var
    y_strip = strip_loop.iter_args[0]
    strip_off = arith.muli(sb, t_iv, arith.const_index(sb, vf))
    if sweep == 1:
        j0 = arith.addi(sb, lo_j, strip_off)  # strip start (ascending)
    else:
        hi_minus = arith.subi(sb, hi_j, arith.const_index(sb, vf))
        j0 = arith.subi(sb, hi_minus, strip_off)  # descending strips

    v_consts = [arith.const_index(sb, v) for v in range(nv)]

    def vec_coords(v_c: Value, offset: Sequence[int]) -> List[Value]:
        out = [v_c]
        for d in range(k - 1):
            if offset[d]:
                out.append(
                    arith.addi(sb, idx_outer[d], arith.const_index(sb, offset[d]))
                )
            else:
                out.append(idx_outer[d])
        if offset[k - 1]:
            out.append(arith.addi(sb, j0, arith.const_index(sb, offset[k - 1])))
        else:
            out.append(j0)
        return out

    # Vector reads for every vectorizable access, the center and B.
    zero_off = [0] * k
    vec_args: Dict[int, List[Value]] = {}
    for a in vectorizable:
        offset, tag = pattern.accesses[a]
        src = y_strip if tag == -1 else x
        vec_args[a] = [
            vector.TransferReadOp.build(
                sb, src, vec_coords(v_consts[v], offset), vec_t
            ).result()
            for v in range(nv)
        ]
    center_vecs = [
        vector.TransferReadOp.build(
            sb, x, vec_coords(v_consts[v], zero_off), vec_t
        ).result()
        for v in range(nv)
    ]
    b_vecs = [
        vector.TransferReadOp.build(
            sb, b, vec_coords(v_consts[v], zero_off), vec_t
        ).result()
        for v in range(nv)
    ]

    # Vector clone of the region for d + vectorizable contributions.
    bindings: Dict[Value, Value] = {}
    for a in vectorizable:
        for v in range(nv):
            bindings[op.body.arguments[a * nv + v]] = vec_args[a][v]
    for v in range(nv):
        bindings[op.body.arguments[n_access * nv + v]] = center_vecs[v]
    term = op.body.terminator
    yields = list(term.operands)
    targets = [yields[0]]  # d
    for a in vectorizable + [n_access]:
        for v in range(nv):
            targets.append(yields[1 + a * nv + v])
    mapped = _emit_vector_clone(sb, op.body, targets, bindings, vf)
    d_val = mapped[0]
    temp = []
    for v in range(nv):
        acc = b_vecs[v]
        for i_a in range(len(vectorizable) + 1):
            c = mapped[1 + i_a * nv + v]
            if not isinstance(c.type, VectorType):
                c = vector.BroadcastOp.build(sb, c, vec_t).result()
            acc = arith.addf(sb, acc, c)
        temp.append(acc)

    if not recurrent:
        # No in-row recurrence (out-of-place stencils like Jacobi, or
        # in-place patterns whose L offsets all leave the row): the whole
        # strip is computed and stored as one vector (§4.1's observation
        # that out-of-place stencils vectorize fully).
        d_vec = d_val
        if not isinstance(d_val.type, VectorType):
            d_vec = vector.BroadcastOp.build(sb, d_val, vec_t).result()
        y_cur = y_strip
        for v in range(nv):
            result_vec = arith.divf(sb, temp[v], d_vec)
            y_cur = vector.TransferWriteOp.build(
                sb, result_vec, y_cur, vec_coords(v_consts[v], zero_off)
            ).result()
        scf.YieldOp.build(sb, [y_cur])
        _emit_peel_and_finish(
            op, vf, rewriter, body, strip_loop, outer, idx_outer,
            lo_j, hi_j, n_strips, vf_c, k, nv, pattern, x, b, sweep,
        )
        return True

    # Unrolled scalar resolution of the recurrence, lane by lane. Lane u's
    # read at in-row offset o is the value lane u+o just produced: forward
    # it. Sources before the strip are loaded up front from ``y_strip``,
    # leaving the lanes' inserts one uninterrupted chain.
    recurrent_targets = []
    for a in recurrent:
        for v in range(nv):
            recurrent_targets.append(yields[1 + a * nv + v])
    lanes = range(vf) if sweep == 1 else range(vf - 1, -1, -1)
    row_offsets = [pattern.accesses[a][0][k - 1] for a in recurrent]
    lane_vals: Dict[Tuple[int, int], Value] = {}  # (in-strip lane, var)
    for src in sorted({u + o for u in lanes for o in row_offsets}):
        if 0 <= src < vf:
            continue
        j_src = arith.addi(sb, j0, arith.const_index(sb, src))
        for v in range(nv):
            lane_vals[src, v] = tensor.ExtractOp.build(
                sb, y_strip, [v_consts[v]] + idx_outer + [j_src]
            ).result()
    y_cur = y_strip
    for u in lanes:
        j_u = arith.addi(sb, j0, arith.const_index(sb, u))
        lane_bindings: Dict[Value, Value] = {}
        for a in vectorizable:
            for v in range(nv):
                lane_bindings[op.body.arguments[a * nv + v]] = (
                    vector.VectorExtractOp.build(sb, vec_args[a][v], u).result()
                )
        for v in range(nv):
            lane_bindings[op.body.arguments[n_access * nv + v]] = (
                vector.VectorExtractOp.build(sb, center_vecs[v], u).result()
            )
        for a, o in zip(recurrent, row_offsets):
            for v in range(nv):
                lane_bindings[op.body.arguments[a * nv + v]] = lane_vals[u + o, v]
        rec_vals = _emit_scalar_clone(
            sb, op.body, recurrent_targets, lane_bindings
        )
        d_u = d_val  # a scalar divisor is every lane's divisor
        if isinstance(d_val.type, VectorType):
            d_u = vector.VectorExtractOp.build(sb, d_val, u).result()
        for v in range(nv):
            total = vector.VectorExtractOp.build(sb, temp[v], u).result()
            for i_a in range(len(recurrent)):
                total = arith.addf(sb, total, rec_vals[i_a * nv + v])
            lane_vals[u, v] = val = arith.divf(sb, total, d_u)
            y_cur = tensor.InsertOp.build(
                sb, val, y_cur, [v_consts[v]] + idx_outer + [j_u]
            ).result()
    scf.YieldOp.build(sb, [y_cur])
    _emit_peel_and_finish(
        op, vf, rewriter, body, strip_loop, outer, idx_outer,
        lo_j, hi_j, n_strips, vf_c, k, nv, pattern, x, b, sweep,
    )
    return True


def _emit_peel_and_finish(
    op, vf, rewriter, body, strip_loop, outer, idx_outer,
    lo_j, hi_j, n_strips, vf_c, k, nv, pattern, x, b, sweep,
) -> None:
    """The peeled scalar loop over trailing iterations, plus the final
    replacement of the stencil op (shared by both vectorized paths)."""
    n_access = pattern.num_accesses
    zero_off = [0] * k
    n_full = arith.muli(body, n_strips, vf_c)
    if sweep == 1:
        peel_lo = arith.addi(body, lo_j, n_full)
        peel_hi = hi_j
    else:
        peel_lo = lo_j
        peel_hi = arith.subi(body, hi_j, n_full)
    peel_outer, pb, peel_idx, peel_args = build_sweep_nest(
        body, [peel_lo], [peel_hi], sweep, [strip_loop.result()]
    )
    y_peel = peel_args[0]
    j_p = peel_idx[0]
    pv_consts = [arith.const_index(pb, v) for v in range(nv)]

    def peel_coords(v_c: Value, offset: Sequence[int]) -> List[Value]:
        out = [v_c]
        for d in range(k - 1):
            if offset[d]:
                out.append(
                    arith.addi(pb, idx_outer[d], arith.const_index(pb, offset[d]))
                )
            else:
                out.append(idx_outer[d])
        if offset[k - 1]:
            out.append(arith.addi(pb, j_p, arith.const_index(pb, offset[k - 1])))
        else:
            out.append(j_p)
        return out

    args: List[Value] = []
    for offset, tag in pattern.accesses:
        src = y_peel if tag == -1 else x
        for v in range(nv):
            args.append(
                tensor.ExtractOp.build(
                    pb, src, peel_coords(pv_consts[v], offset)
                ).result()
            )
    for v in range(nv):
        args.append(
            tensor.ExtractOp.build(
                pb, x, peel_coords(pv_consts[v], zero_off)
            ).result()
        )
    peel_yields = inline_region_scalars(pb, op.body, args)
    d_val = peel_yields[0]
    contribs = peel_yields[1:]
    y_out = y_peel
    for v in range(nv):
        total = tensor.ExtractOp.build(
            pb, b, peel_coords(pv_consts[v], zero_off)
        ).result()
        for a in range(n_access + 1):
            total = arith.addf(pb, total, contribs[a * nv + v])
        val = arith.divf(pb, total, d_val)
        y_out = tensor.InsertOp.build(
            pb, val, y_out, peel_coords(pv_consts[v], zero_off)
        ).result()
    scf.YieldOp.build(pb, [y_out])

    root = outer if k > 1 else peel_outer
    if "tv_id" in op.attributes:
        root.attributes["tv_id"] = op.attributes["tv_id"]
    if k > 1:
        scf.YieldOp.build(body, [peel_outer.result()])
        rewriter.replace_op(op, [outer.result()])
    else:
        rewriter.replace_op(op, [peel_outer.result()])


def _emit_scalar_clone(
    builder: OpBuilder,
    block,
    targets: Sequence[Value],
    bindings: Dict[Value, Value],
) -> List[Value]:
    """Clone the ops computing ``targets`` with scalar bindings."""
    needed = backward_slice(block, targets)
    mapping: Dict[Value, Value] = dict(bindings)
    term = block.terminator
    for op in block.operations:
        if op is term or id(op) not in needed:
            continue
        builder.insert(op.clone(mapping))
    return [mapping.get(t, t) for t in targets]


def lower_stencil_out_of_place(
    op: cfd.StencilOp, rewriter: PatternRewriter
) -> bool:
    """Lower a fully out-of-place stencil (empty ``L``) to a whole-array
    ``linalg.generic``.

    With no intra-iteration dependence, the stencil is an ordinary
    shifted-access pointwise computation — a real compiler vectorizes it
    completely (the §4.1 Jacobi observation); in this backend the
    structured form becomes whole-array NumPy. Applies to single-field
    unbounded stencils whose payload is elementwise-liftable.
    """
    from repro.dialects.linalg import GenericOp, LinalgYieldOp

    pattern = op.pattern
    if pattern.is_in_place or op.has_bounds or op.nb_var != 1:
        return False
    if not can_vectorize(op):
        return False
    x, b, y = op.x, op.b, op.y_init
    rank = pattern.rank
    ins = [b] + [x] * (pattern.num_accesses + 1)
    offsets = [[0] * (rank + 1)]
    for offset, _tag in pattern.accesses:
        offsets.append([0] + list(offset))
    offsets.append([0] * (rank + 1))  # the center access
    g = GenericOp.build(rewriter, ins, y, offsets=offsets)
    gb = OpBuilder.at_end(g.body)
    g_args = g.body.arguments
    bindings: Dict[Value, Value] = {}
    for a in range(pattern.num_accesses + 1):
        bindings[op.body.arguments[a]] = g_args[1 + a]
    term = op.body.terminator
    targets = list(term.operands)
    mapped = _emit_scalar_clone(gb, op.body, targets, bindings)
    d_val = mapped[0]
    total = g_args[0]  # the B value
    for c in mapped[1:]:
        total = arith.addf(gb, total, c)
    LinalgYieldOp.build(gb, [arith.divf(gb, total, d_val)])
    if "tv_id" in op.attributes:
        g.attributes["tv_id"] = op.attributes["tv_id"]
    rewriter.replace_op(op, [g.result()])
    return True


class _VectorizeStencil(RewritePattern):
    op_name = "cfd.stencilOp"

    def __init__(self, vf: int):
        self.vf = vf
        self.fallbacks = 0

    def match_and_rewrite(self, op, rewriter):
        if lower_stencil_out_of_place(op, rewriter):
            return True
        if not lower_stencil_vectorized(op, self.vf, rewriter):
            lower_stencil_scalar(op, rewriter)
            self.fallbacks += 1
        return True


class VectorizeStencilsPass(Pass):
    """Lower every ``cfd.stencilOp`` with partial vectorization (falling
    back to scalar lowering when the region is not liftable)."""

    def __init__(self, vf: int = 8) -> None:
        if vf < 1:
            raise ValueError("vectorization factor must be >= 1")
        self.vf = vf
        self.name = f"vectorize-stencils<vf={vf}>"
        self.fallbacks = 0

    def run(self, module) -> None:
        pattern = _VectorizeStencil(self.vf)
        apply_patterns_greedily(module, [pattern])
        self.fallbacks = pattern.fallbacks
