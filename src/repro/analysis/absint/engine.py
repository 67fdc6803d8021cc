"""The forward abstract evaluator over the interval domain.

The engine walks a function in execution order
(:class:`~repro.ir.dataflow.ForwardDataflowWalker`) and maintains two
environments:

* an *index* environment mapping bound SSA values (loop induction
  variables, enumerated tile coordinates) to :class:`Interval`\\ s; every
  other index expression is evaluated on demand by recursing through its
  defining ``arith`` ops (:func:`repro.ir.indexing.step`);
* an *extent* environment mapping shaped values (tensors, memrefs,
  block arguments of loops) to per-dimension extent intervals, resolved
  through the producing op (``tensor.empty`` sizes, slice windows,
  loop-carried inits) or the static type.

Precision strategy — the part that makes the in-bounds proofs *exact*
rather than conservative: ``cfd.tiled_loop`` grids with statically known
bounds are **enumerated** (every tile coordinate visited with point
intervals), because the tiling pass's window arithmetic
(``max(iv - halo, 0)``, ``iv - w_lo``) correlates the induction variable
with itself and pure interval arithmetic would lose that correlation
catastrophically. Corpus-scale grids are tiny; loops whose trip-count
product exceeds ``enumeration_limit`` fall back to a single hull-bound
visit with :attr:`approx_depth` raised, which clients degrade to IP010
notes instead of hard verdicts. Innermost ``scf.for`` ranges stay
symbolic — their induction variables occur at most once per access
expression, so the interval stays exact.

Client analyses implement :class:`AbsintClient` and receive every op (in
execution order, once per enumerated visit) through ``on_op``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.analysis.absint.interval import INTERVALS, Box, Interval
from repro.analysis.diagnostics import Diagnostic
from repro.ir.dataflow import ForwardDataflowWalker
from repro.ir.indexing import extents, step
from repro.ir.operation import Operation
from repro.ir.types import MemRefType, TensorType
from repro.ir.values import Value

#: Default cap on the number of enumerated tile coordinates per loop.
ENUMERATION_LIMIT = 4096


class AbsintClient:
    """Base class of the engine's client analyses."""

    def on_op(self, op: Operation, engine: "AbstractEvaluator") -> None:
        raise NotImplementedError

    def diagnostics(self) -> List[Diagnostic]:
        return []


class AbstractEvaluator(ForwardDataflowWalker):
    """Interval-domain forward evaluation of one function body."""

    def __init__(
        self,
        clients: Optional[List[AbsintClient]] = None,
        enumeration_limit: int = ENUMERATION_LIMIT,
    ) -> None:
        self.clients: List[AbsintClient] = clients or []
        self.enumeration_limit = enumeration_limit
        #: id(Value) -> Interval for explicitly bound values.
        self.index_env: Dict[int, Interval] = {}
        #: id(Value) -> per-dim extents for explicitly bound shaped values.
        self.extent_env: Dict[int, Box] = {}
        #: Enclosing loop ops (innermost last) at the current visit point.
        self.loop_stack: List[Operation] = []
        #: > 0 while inside a loop whose bounds could not be resolved or
        #: whose grid was too large to enumerate; clients must then treat
        #: failed containment checks as "unprovable", not as violations.
        self.approx_depth = 0

    # ---- evaluation ------------------------------------------------------

    def eval(self, value: Value) -> Interval:
        """The interval of an index-typed SSA value in the current context:
        bound values first, everything else through
        :func:`~repro.ir.indexing.step` with one memo per query."""
        memo: Dict[int, Interval] = {}

        def ev(v: Value) -> Interval:
            bound = self.index_env.get(id(v))
            if bound is not None:
                return bound
            key = id(v)
            out = memo.get(key)
            if out is None:
                memo[key] = Interval.top()  # cycle guard
                out = memo[key] = step(v, INTERVALS, ev, self.extent)
            return out

        return ev(value)

    def eval_exact(self, value: Value) -> Optional[int]:
        """The concrete integer of ``value``, or ``None`` if not a point."""
        return INTERVALS.as_const(self.eval(value))

    # ---- extents ---------------------------------------------------------

    def extent(self, value: Value) -> Box:
        """Per-dimension extent intervals of a tensor/memref value."""
        bound = self.extent_env.get(id(value))
        if bound is not None:
            return bound
        if not isinstance(value.type, (TensorType, MemRefType)):
            raise TypeError(f"extent() of non-shaped value {value!r}")
        return extents(value, INTERVALS, self.eval, self.extent)

    # ---- walking ---------------------------------------------------------

    def run(self, fn: Operation) -> None:
        """Evaluate one ``func.func`` body."""
        self.walk_block(fn.regions[0].entry_block)

    def before_op(self, op: Operation) -> None:
        for client in self.clients:
            client.on_op(op, self)

    def _walk_loop_body(self, op: Operation) -> None:
        self.loop_stack.append(op)
        try:
            self.walk_block(op.regions[0].entry_block)
        finally:
            self.loop_stack.pop()

    def visit_scf_for(self, op: Operation) -> None:
        self.before_op(op)
        lb, ub, step = (self.eval(op.operand(i)) for i in range(3))
        body = op.regions[0].entry_block
        for j, init in enumerate(op.operands[3:]):
            if isinstance(init.type, (TensorType, MemRefType)):
                self.extent_env[id(body.arguments[1 + j])] = self.extent(init)
        exact = (
            lb.is_point
            and ub.is_point
            and step.is_point
            and isinstance(step.lo, int)
            and step.lo > 0
        )
        if exact:
            trip = len(range(lb.lo, ub.lo, step.lo))
            if trip == 0:
                return  # the body never executes
            iv = Interval(lb.lo, lb.lo + (trip - 1) * step.lo)
            self.index_env[id(body.arguments[0])] = iv
            self._walk_loop_body(op)
            return
        hi = ub.hi - 1
        iv = Interval(lb.lo, max(hi, lb.lo))
        self.index_env[id(body.arguments[0])] = iv
        self.approx_depth += 1
        try:
            self._walk_loop_body(op)
        finally:
            self.approx_depth -= 1

    def visit_scf_parallel(self, op: Operation) -> None:
        self.before_op(op)
        rank = op.num_operands // 3
        body = op.regions[0].entry_block
        approx = False
        for d in range(rank):
            lb = self.eval(op.operand(d))
            ub = self.eval(op.operand(rank + d))
            hi = ub.hi - 1
            if not (lb.is_point and ub.is_point):
                approx = True
            self.index_env[id(body.arguments[d])] = Interval(
                lb.lo, max(hi, lb.lo)
            )
        self.approx_depth += 1 if approx else 0
        try:
            self._walk_loop_body(op)
        finally:
            self.approx_depth -= 1 if approx else 0

    def visit_scf_if(self, op: Operation) -> None:
        self.before_op(op)
        for region in op.regions:
            for block in region.blocks:
                self.walk_block(block)

    def visit_cfd_tiled_loop(self, op: Operation) -> None:
        self.before_op(op)
        body = op.regions[0].entry_block
        rank = op.rank
        for arg, val in zip(op.in_args, op.ins):
            if isinstance(val.type, (TensorType, MemRefType)):
                self.extent_env[id(arg)] = self.extent(val)
        for arg, val in zip(op.out_args, op.outs):
            if isinstance(val.type, (TensorType, MemRefType)):
                self.extent_env[id(arg)] = self.extent(val)
        lbs = [self.eval_exact(v) for v in op.lbs]
        ubs = [self.eval_exact(v) for v in op.ubs]
        steps = [self.eval_exact(v) for v in op.steps]
        ivs = op.induction_vars
        if (
            None not in lbs
            and None not in ubs
            and None not in steps
            and all(s > 0 for s in steps)
        ):
            per_dim = [
                range(lb, ub, st) for lb, ub, st in zip(lbs, ubs, steps)
            ]
            total = 1
            for r in per_dim:
                total *= len(r)
            if total == 0:
                return
            if total <= self.enumeration_limit:
                for coords in itertools.product(*per_dim):
                    for iv, c in zip(ivs, coords):
                        self.index_env[id(iv)] = Interval.point(c)
                    self._walk_loop_body(op)
                return
            # Statically known but too large to enumerate: one hull visit.
            for iv, lb, ub, st in zip(ivs, lbs, ubs, steps):
                last = lb + (len(range(lb, ub, st)) - 1) * st
                self.index_env[id(iv)] = Interval(lb, last)
            self.approx_depth += 1
            try:
                self._walk_loop_body(op)
            finally:
                self.approx_depth -= 1
            return
        # Unresolvable bounds: hull-bind what we can, flag approximation.
        for d, iv in enumerate(ivs):
            lb = self.eval(op.lbs[d])
            ub = self.eval(op.ubs[d])
            hi = ub.hi - 1
            self.index_env[id(iv)] = Interval(lb.lo, max(hi, lb.lo))
        self.approx_depth += 1
        try:
            self._walk_loop_body(op)
        finally:
            self.approx_depth -= 1


def run_clients(
    module: Operation,
    make_clients,
    enumeration_limit: int = ENUMERATION_LIMIT,
) -> List[AbsintClient]:
    """Run ``make_clients()`` over every function of ``module``.

    ``make_clients`` is called once per ``func.func`` (clients keep
    per-function state); the instantiated clients are returned so the
    caller can collect their diagnostics and reports.
    """
    all_clients: List[AbsintClient] = []
    for op in module.regions[0].entry_block.operations:
        if op.name != "func.func":
            continue
        clients = make_clients()
        all_clients.extend(clients)
        AbstractEvaluator(clients, enumeration_limit).run(op)
    return all_clients
