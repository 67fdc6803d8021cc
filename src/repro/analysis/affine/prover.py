"""The affine in-bounds prover: IP011/IP012 at mesh-independent cost.

Walks each function **once**, binding every loop induction variable to a
symbolic variable constrained by the loop bounds (plus a stride
constraint for non-unit steps) instead of enumerating the tile grid the
way :class:`~repro.analysis.absint.engine.AbstractEvaluator` does. Index
expressions evaluate to piecewise-affine values
(:class:`~repro.analysis.affine.pwaff.PwAff`) — ``min``/``max`` window
arithmetic splits into exact affine cases — and every access footprint
is decided by a handful of integer emptiness tests:

* every piece provably inside ``[0, extent)`` → *decided*, with the
  exact attained hull recorded for the checked interpreter's oracle;
* a reachable piece provably escaping, in an exactly-modelled context →
  an ``IP011``/``IP012`` violation;
* anything non-affine (data-dependent bounds, products of variables,
  piece blow-ups) → *undecided*: the caller falls back to the
  enumerating interval engine for exactly those ops.

Loop bounds built from pure ``min``/``max`` trees over affine leaves
(the tiling pass's window arithmetic) are decomposed structurally, so
``iv < min(a, b)`` contributes the two conjuncts ``iv < a`` and
``iv < b`` without forking the domain. Bounds that do not decompose
degrade to their constant hull (the same over-approximation the
interval engine applies), marking the context inexact so failed proofs
report "undecided", never a spurious violation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.absint.interval import Box, Interval, box_join, box_str
from repro.analysis.affine.pwaff import (
    PROVEN,
    VIOLATES,
    PwAff,
    PwAffDomain,
    hull,
    prove_ge0,
    prove_lt,
)
from repro.analysis.affine.sets import AffineSet, AffineUnknown, LinExpr
from repro.analysis.diagnostics import Diagnostic
from repro.ir import indexing
from repro.ir.dataflow import ForwardDataflowWalker
from repro.ir.location import op_excerpt, op_path
from repro.ir.operation import Operation
from repro.ir.types import MemRefType, TensorType
from repro.ir.values import OpResult, Value


class ProofReport:
    """What one prover sweep decided (aggregated over all functions)."""

    def __init__(self) -> None:
        #: id(op) -> exact attained access hull (parity with the
        #: interval engine's ``InBoundsChecker.proven``).
        self.proven: Dict[int, Box] = {}
        #: (id(op), code) -> violation diagnostic, for ops whose escape
        #: is provable and whose context is exactly modelled.
        self.violations: Dict[Tuple[int, str], Diagnostic] = {}
        #: id(op) -> reason the symbolic engine could not decide it.
        self.undecided: Dict[int, str] = {}
        #: id(op) -> the op itself, for the ops in :attr:`undecided`
        #: (so callers can attach diagnostics to the fallback sites).
        self.undecided_ops: Dict[int, "Operation"] = {}
        #: Number of access ops inspected.
        self.checked: int = 0

    @property
    def decided_ids(self) -> set:
        ids = set(self.proven)
        ids.update(op_id for op_id, _ in self.violations)
        return ids

    def diagnostics(self) -> List[Diagnostic]:
        return list(self.violations.values())


class AffineProver(ForwardDataflowWalker):
    """Symbolic single-walk in-bounds proofs for one function body."""

    def __init__(self, report: ProofReport) -> None:
        self.report = report
        #: id(Value) -> symbolic value of an index-typed SSA value.
        self.env: Dict[int, PwAff] = {}
        #: id(Value) -> per-dim symbolic extents of a shaped value.
        self.extent_env: Dict[int, Tuple[PwAff, ...]] = {}
        #: Conjunction of every enclosing loop's bound constraints.
        self.domain: AffineSet = AffineSet.universe()
        #: > 0 while some enclosing loop was over-approximated; failed
        #: proofs are then "undecided", never claimed violations.
        self.inexact_depth = 0
        self._fresh = 0
        self.dom = PwAffDomain(self.fresh)

    # ---- plumbing --------------------------------------------------------

    def fresh(self, stem: str) -> str:
        self._fresh += 1
        return f"{stem}{self._fresh}"

    def run(self, fn: Operation) -> None:
        self.walk_block(fn.regions[0].entry_block)

    # ---- symbolic evaluation ---------------------------------------------

    def eval(self, value: Value) -> PwAff:
        """The piecewise-affine form of an index value; unresolvable
        expressions become fresh unconstrained parameters (sound: any
        integer), mirroring the interval engine's ``top()``."""
        cached = self.env.get(id(value))
        if cached is not None:
            return cached
        try:
            result = self._prune(
                indexing.step(value, self.dom, self.eval, self.extent)
            )
        except AffineUnknown:
            result = self.dom.unknown()
        self.env[id(value)] = result
        return result

    def _prune(self, pw: PwAff) -> PwAff:
        """Drop pieces infeasible under the current domain. Values are
        evaluated eagerly at their defining op (see :meth:`before_op`),
        so the current domain is the definition scope — an ancestor of
        every use scope, which makes the pruned form valid everywhere
        the value is in scope. This is what keeps correlated
        ``min``/``max`` chains (the tiling pass's window arithmetic)
        from exploding combinatorially."""
        if len(pw.pieces) == 1:
            return pw
        kept = []
        for g, e in pw.pieces:
            try:
                if self.domain.conjoin(g).is_empty():
                    continue
            except AffineUnknown:
                pass
            kept.append((g, e))
        return PwAff(kept, pw.exact) if kept else pw

    # ---- symbolic extents ------------------------------------------------

    def extent(self, value: Value) -> Tuple[PwAff, ...]:
        """Per-dim symbolic extents, memoized so every use of the same
        dynamic extent unifies with one parameter."""
        bound = self.extent_env.get(id(value))
        if bound is not None:
            return bound
        if not isinstance(value.type, (TensorType, MemRefType)):
            raise AffineUnknown("extent of a non-shaped value")
        result = indexing.extents(value, self.dom, self.eval, self.extent)
        self.extent_env[id(value)] = result
        return result

    # ---- loop binding ----------------------------------------------------

    def _bound_exprs(
        self, value: Value, want: str
    ) -> Optional[List[Tuple[AffineSet, LinExpr]]]:
        """Decompose a loop bound into affine conjuncts: a ``min`` tree
        for upper bounds (``want == "min"``) or a ``max`` tree for lower
        bounds, distributing ``+``/``-`` over the tree. Each conjunct
        carries its guard (e.g. the definitional quotient constraints of
        a ``floordiv`` leaf — always satisfiable, so conjoining them is
        exact). Returns ``None`` when the value is not such a tree."""
        if isinstance(value, OpResult):
            op = value.op
            name = op.name
            if name == "arith.index_cast":
                return self._bound_exprs(op.operand(0), want)
            if (name == "arith.minsi" and want == "min") or (
                name == "arith.maxsi" and want == "max"
            ):
                a = self._bound_exprs(op.operand(0), want)
                b = self._bound_exprs(op.operand(1), want)
                if a is None or b is None:
                    return None
                return a + b
            if name in ("arith.addi", "arith.subi") and op.num_operands == 2:
                rhs = self.eval(op.operand(1))
                if len(rhs.pieces) == 1:
                    base = self._bound_exprs(op.operand(0), want)
                    if base is not None:
                        g_off, off = rhs.pieces[0]
                        if name == "arith.subi":
                            off = -off
                        return [
                            (g.conjoin(g_off), e + off) for g, e in base
                        ]
        pw = self.eval(value)
        if len(pw.pieces) == 1:
            return [pw.pieces[0]]
        return None

    #: Cap on simultaneous domain forks per loop nest; past this the
    #: binding degrades to the constant hull (inexact, like the
    #: interval engine's approximate visit).
    MAX_FORKS = 16

    def _lb_cases(
        self, lb_v: Value, step: Optional[int]
    ) -> Optional[List[Tuple[AffineSet, List[LinExpr], Optional[LinExpr]]]]:
        """Case analysis of a loop lower bound: ``(guard, conjuncts,
        stride_base)`` triples whose guards cover the context. For a
        unit step a ``max`` tree needs no case split (each leaf is one
        ``iv >= e`` conjunct); a non-unit step needs the attained value
        of the bound as the stride base, so each piece of an exact case
        analysis becomes its own fork."""
        lbs = self._bound_exprs(lb_v, "max")
        if lbs is not None and (step == 1 or len(lbs) == 1):
            dom = AffineSet.universe()
            for g, _ in lbs:
                dom = dom.conjoin(g)
            return [(dom, [e for _, e in lbs], lbs[0][1])]
        pw = self.eval(lb_v)
        if not pw.exact:
            return None
        if lbs is not None and len(lbs) > 1:
            # max-tree with a non-unit step: fork on which leaf attains
            # the max (guards overlap on ties; that only re-proves).
            cases = []
            for i, (gi, ei) in enumerate(lbs):
                g = gi
                for j, (gj, ej) in enumerate(lbs):
                    if i != j:
                        g = g.conjoin(gj).and_ge0(ei - ej)
                cases.append((g, [ei], ei))
            return cases
        return [(g, [e], e) for g, e in pw.pieces]

    def _ub_cases(
        self, ub_v: Value
    ) -> Optional[List[Tuple[AffineSet, List[LinExpr]]]]:
        ubs = self._bound_exprs(ub_v, "min")
        if ubs is not None:
            dom = AffineSet.universe()
            for g, _ in ubs:
                dom = dom.conjoin(g)
            return [(dom, [e for _, e in ubs])]
        pw = self.eval(ub_v)
        if not pw.exact:
            return None
        return [(g, [e]) for g, e in pw.pieces]

    def _bind_range(
        self,
        forks: List[Tuple[AffineSet, bool]],
        iv: Value,
        lb_v: Value,
        ub_v: Value,
        step: Optional[int],
    ) -> List[Tuple[AffineSet, bool]]:
        """Bind ``iv`` to a fresh variable constrained by
        ``lb <= iv < ub`` (with a stride constraint for ``step > 1``)
        in every fork, case-splitting on exact piecewise bounds.
        Returns the extended fork list."""
        name = self.fresh("i")
        var = LinExpr.var(name)
        self.env[id(iv)] = PwAff.expr(var)
        saved = self.domain
        out: List[Tuple[AffineSet, bool]] = []
        try:
            for dom, exact in forks:
                self.domain = dom  # bound evaluation prunes against it
                lb_cases = self._lb_cases(lb_v, step)
                ub_cases = self._ub_cases(ub_v)
                if (
                    lb_cases is None
                    or ub_cases is None
                    or len(out) + len(lb_cases) * len(ub_cases)
                    > self.MAX_FORKS
                ):
                    out.append(self._bind_hull(dom, var, lb_v, ub_v))
                    continue
                for g_lb, lbs, base in lb_cases:
                    for g_ub, ubs in ub_cases:
                        d = dom.conjoin(g_lb).conjoin(g_ub)
                        for e in lbs:
                            d = d.and_ge0(var - e)
                        for e in ubs:
                            d = d.and_ge0(-var + e - 1)
                        e2 = exact
                        if step is None:
                            e2 = False
                        elif step != 1:
                            d = d.and_stride(
                                var - base, step, self.fresh("q")
                            )
                        out.append((d, e2))
        finally:
            self.domain = saved
        return out

    def _bind_hull(
        self, dom: AffineSet, var: LinExpr, lb_v: Value, ub_v: Value
    ) -> Tuple[AffineSet, bool]:
        saved = self.domain
        self.domain = dom
        try:
            try:
                lo, _ = hull(self.eval(lb_v), dom)
                dom = dom.and_ge0(var - lo)
            except AffineUnknown:
                pass
            try:
                _, hi = hull(self.eval(ub_v), dom)
                dom = dom.and_ge0(-var + hi - 1)
            except AffineUnknown:
                pass
        finally:
            self.domain = saved
        return dom, False

    def _walk_forks(
        self, op: Operation, forks: List[Tuple[AffineSet, bool]]
    ) -> None:
        """Walk the loop body once per fork. Each fork gets a snapshot
        of the value environments: memoized values are pruned against
        the domain they were first evaluated under, so a value pruned
        inside one fork must not leak into a sibling."""
        saved_dom = self.domain
        for dom, exact in forks:
            if exact and self._provably_empty(dom):
                continue  # zero-trip loop: the body never executes
            env_snap = dict(self.env)
            ext_snap = dict(self.extent_env)
            self.domain = dom
            self.inexact_depth += 0 if exact else 1
            try:
                self.walk_block(op.regions[0].entry_block)
            finally:
                self.domain = saved_dom
                self.inexact_depth -= 0 if exact else 1
                self.env = env_snap
                self.extent_env = ext_snap

    # ---- control flow ----------------------------------------------------

    def visit_scf_for(self, op: Operation) -> None:
        self.before_op(op)
        body = op.regions[0].entry_block
        for j, init in enumerate(op.operands[3:]):
            if isinstance(init.type, (TensorType, MemRefType)):
                try:
                    self.extent_env[id(body.arguments[1 + j])] = self.extent(
                        init
                    )
                except AffineUnknown:
                    pass
        step = self.eval(op.operand(2)).as_const()
        if step is not None and step <= 0:
            step = None
        forks = self._bind_range(
            [(self.domain, True)],
            body.arguments[0], op.operand(0), op.operand(1), step,
        )
        self._walk_forks(op, forks)

    def visit_scf_parallel(self, op: Operation) -> None:
        self.before_op(op)
        rank = op.num_operands // 3
        body = op.regions[0].entry_block
        forks = [(self.domain, True)]
        for d in range(rank):
            step = self.eval(op.operand(2 * rank + d)).as_const()
            if step is not None and step <= 0:
                step = None
            forks = self._bind_range(
                forks, body.arguments[d],
                op.operand(d), op.operand(rank + d), step,
            )
        self._walk_forks(op, forks)

    def visit_scf_if(self, op: Operation) -> None:
        # Parity with the interval engine: both branches are analyzed
        # in the enclosing context (the condition is not modelled).
        self.before_op(op)
        for region in op.regions:
            for block in region.blocks:
                self.walk_block(block)

    def visit_cfd_tiled_loop(self, op: Operation) -> None:
        self.before_op(op)
        for arg, val in zip(op.in_args, op.ins):
            if isinstance(val.type, (TensorType, MemRefType)):
                try:
                    self.extent_env[id(arg)] = self.extent(val)
                except AffineUnknown:
                    pass
        for arg, val in zip(op.out_args, op.outs):
            if isinstance(val.type, (TensorType, MemRefType)):
                try:
                    self.extent_env[id(arg)] = self.extent(val)
                except AffineUnknown:
                    pass
        forks = [(self.domain, True)]
        for iv, lb_v, ub_v, st_v in zip(
            op.induction_vars, op.lbs, op.ubs, op.steps
        ):
            step = self.eval(st_v).as_const()
            if step is not None and step <= 0:
                step = None
            forks = self._bind_range(forks, iv, lb_v, ub_v, step)
        self._walk_forks(op, forks)

    # ---- access dispatch (mirror of absint.bounds) -----------------------

    def before_op(self, op: Operation) -> None:
        name = op.name
        if name in indexing.OPS and op.num_results == 1:
            # Index producers are evaluated eagerly at their definition,
            # so pruning (and memoization) happen under the
            # definition-scope domain.
            self.eval(op.result())
        try:
            if name in ("tensor.extract", "memref.load"):
                self._check_point(op, op.operand(0), op.operands[1:], "read")
            elif name == "tensor.insert":
                self._check_point(op, op.operand(1), op.operands[2:], "write")
            elif name == "memref.store":
                self._check_point(op, op.operand(1), op.operands[2:], "write")
            elif name in ("tensor.extract_slice", "memref.subview"):
                rank = (op.num_operands - 1) // 2
                self._check_window(
                    op, op.operand(0),
                    op.operands[1 : 1 + rank], op.operands[1 + rank :],
                )
            elif name == "tensor.insert_slice":
                rank = (op.num_operands - 2) // 2
                self._check_window(
                    op, op.operand(1),
                    op.operands[2 : 2 + rank], op.operands[2 + rank :],
                )
            elif name == "vector.transfer_read":
                self._check_transfer(
                    op, op.operand(0), op.operands[1:],
                    op.result().type.shape[0], "read",
                )
            elif name == "vector.transfer_write":
                self._check_transfer(
                    op, op.operand(1), op.operands[2:],
                    op.operand(0).type.shape[0], "write",
                )
            elif name == "cfd.stencilOp":
                self._check_stencil(op)
            elif name == "linalg.generic":
                self._check_generic(op)
        except AffineUnknown as exc:
            self._undecide(op, str(exc))

    def _undecide(self, op: Operation, reason: str) -> None:
        self.report.undecided.setdefault(id(op), reason)
        self.report.undecided_ops.setdefault(id(op), op)

    # ---- the footprint shapes --------------------------------------------

    def _check_point(self, op, buffer, index_values, what) -> None:
        idx = [self.eval(v) for v in index_values]
        self._verdict(op, buffer, self.domain, idx, idx, "IP011",
                      lambda box: f"{what} at index {box_str(box)}")

    def _check_window(self, op, buffer, offs, sizes) -> None:
        offs_pw = [self.eval(v) for v in offs]
        sizes_pw = [self.eval(v) for v in sizes]
        one = PwAff.const(1)
        uppers = [
            o.max_(o + s - one) for o, s in zip(offs_pw, sizes_pw)
        ]
        self._verdict(op, buffer, self.domain, offs_pw, uppers, "IP012",
                      lambda box: f"slice window {box_str(box)}")

    def _check_transfer(self, op, buffer, index_values, vf, what) -> None:
        idx = [self.eval(v) for v in index_values]
        uppers = list(idx)
        uppers[-1] = uppers[-1] + PwAff.const(vf - 1)
        self._verdict(
            op, buffer, self.domain, idx, uppers, "IP011",
            lambda box: f"vector {what} of width {vf} at {box_str(box)}",
        )

    def _check_stencil(self, op) -> None:
        if not op.has_bounds:
            return  # interior bounds are in range by construction
        pattern = op.pattern
        k = pattern.rank
        halo_lo = [
            max([0] + [-o[d] for o, _ in pattern.accesses]) for d in range(k)
        ]
        halo_hi = [
            max([0] + [o[d] for o, _ in pattern.accesses]) for d in range(k)
        ]
        los = [self.eval(v) for v in op.bounds_lo]
        his = [self.eval(v) for v in op.bounds_hi]
        # Contexts with an empty core update nothing; constrain the
        # domain to non-empty cores (the enumerated checker skips those
        # visits). If no context has a non-empty core, there is nothing
        # to prove.
        dom = self.domain
        for lo, hi in zip(los, his):
            dom = self._require_lt(dom, lo, hi)
        if self._provably_empty(dom):
            return
        one = PwAff.const(1)
        nv_lo = [PwAff.const(0)]
        nv_hi = [PwAff.const(op.nb_var - 1)]
        w_lo = nv_lo + los
        w_hi = nv_hi + [h - one for h in his]
        r_lo = nv_lo + [
            lo - PwAff.const(hl) for lo, hl in zip(los, halo_lo)
        ]
        r_hi = nv_hi + [
            h - one + PwAff.const(hh) for h, hh in zip(his, halo_hi)
        ]

        def reads(box):
            return f"halo reads {box_str(box)}"

        self._verdict(op, op.x, dom, r_lo, r_hi, "IP011", reads)
        self._verdict(op, op.y_init, dom, r_lo, r_hi, "IP011", reads)
        self._verdict(op, op.b, dom, w_lo, w_hi, "IP011",
                      lambda box: f"rhs reads {box_str(box)}")

    def _check_generic(self, op) -> None:
        out_ext = self.extent(op.out_init)
        offsets = op.offsets
        margins = op.margins
        rank = len(out_ext)
        one = PwAff.const(1)
        los: List[int] = []
        his: List[PwAff] = []
        for d in range(rank):
            lo = max([0] + [-o[d] for o in offsets] + [margins[d][0]])
            hi_margin = max([0] + [o[d] for o in offsets] + [margins[d][1]])
            los.append(lo)
            his.append(out_ext[d] - PwAff.const(hi_margin))
        dom = self.domain
        for lo, hi in zip(los, his):
            dom = self._require_lt(dom, PwAff.const(lo), hi)
        if self._provably_empty(dom):
            return
        for j, (value, off) in enumerate(zip(op.ins, offsets)):
            lo_pw = [PwAff.const(lo + off[d]) for d, lo in enumerate(los)]
            hi_pw = [
                his[d] - one + PwAff.const(off[d]) for d in range(rank)
            ]
            self._verdict(
                op, value, dom, lo_pw, hi_pw, "IP011",
                lambda box, j=j: f"input #{j} reads {box_str(box)}",
            )

    @staticmethod
    def _provably_empty(dom: AffineSet) -> bool:
        try:
            return dom.is_empty()
        except AffineUnknown:
            return False

    @staticmethod
    def _require_lt(dom: AffineSet, lo: PwAff, hi: PwAff) -> AffineSet:
        """Constrain ``dom`` to contexts with ``lo < hi``. Exact only
        for single-piece values; multi-piece bounds keep the domain
        unchanged (a sound over-approximation of the non-empty cases)."""
        if len(lo.pieces) == 1 and len(hi.pieces) == 1:
            ga, ea = lo.pieces[0]
            gb, eb = hi.pieces[0]
            return dom.conjoin(ga).conjoin(gb).and_ge0(eb - ea - 1)
        return dom

    # ---- verdicts --------------------------------------------------------

    def _verdict(
        self, op, buffer, dom: AffineSet,
        lowers: List[PwAff], uppers: List[PwAff], code: str, render,
    ) -> None:
        if not isinstance(buffer.type, (TensorType, MemRefType)):
            return
        if id(op) in self.report.undecided:
            return
        self.report.checked += 1
        ext = self.extent(buffer)
        if len(ext) != len(lowers):
            return  # malformed IR; the verifier owns this complaint
        proven = True
        violated = False
        for lo, hi, e in zip(lowers, uppers, ext):
            v1 = prove_ge0(lo, dom)
            v2 = prove_lt(hi, e, dom)
            if VIOLATES in (v1, v2):
                violated = True
            if (v1, v2) != (PROVEN, PROVEN):
                proven = False
        if violated and not self.inexact_depth:
            box = self._hull_box(dom, lowers, uppers)
            ext_box = self._hull_box(dom, ext, ext)
            ext_str = box_str(ext_box) if ext_box else "<symbolic>"
            what = render(box) if box else render(
                tuple(Interval.top() for _ in lowers)
            )
            diag = Diagnostic(
                code=code,
                message=f"{what} escapes the allocation of extent {ext_str}",
                severity="error",
                op_path=op_path(op),
                excerpt=op_excerpt(op),
            )
            self.report.violations.setdefault((id(op), code), diag)
            return
        if not proven:
            self._undecide(op, "footprint not provably in bounds symbolically")
            return
        box = self._hull_box(dom, lowers, uppers)
        if box is None:
            self._undecide(
                op, "proven in bounds but the attained hull is unbounded"
            )
            return
        key = id(op)
        prior = self.report.proven.get(key)
        self.report.proven[key] = (
            box if prior is None else box_join(prior, box)
        )

    @staticmethod
    def _hull_box(
        dom: AffineSet, lowers: List[PwAff], uppers: List[PwAff]
    ) -> Optional[Box]:
        try:
            dims = []
            for lo, hi in zip(lowers, uppers):
                a, _ = hull(lo, dom)
                _, b = hull(hi, dom)
                dims.append(Interval(a, max(a, b)))
            return tuple(dims)
        except AffineUnknown:
            return None


def prove_module(module: Operation) -> ProofReport:
    """Run the affine prover over every function of ``module``."""
    report = ProofReport()
    for op in module.regions[0].entry_block.operations:
        if op.name != "func.func":
            continue
        AffineProver(report).run(op)
    return report
