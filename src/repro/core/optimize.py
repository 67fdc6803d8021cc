"""The midend optimizer: IR-level cleanups between lowering and codegen.

The paper's pipeline (tiling -> fusion -> vectorization -> lowering,
SS2-SS3) stops at straightforward lowering, which leaves the generated
loop bodies full of rematerialized constants, duplicate index arithmetic
and loop-invariant computations. On a Python-hosted backend every one of
those is an interpreted statement *per loop iteration*, so a classic
scalar-optimizer suite pays off directly in kernel run time:

* :class:`ConstantFoldPass` — evaluate operations over constants and the
  usual algebraic identities (``x + 0``, ``x * 1``, ...);
* :class:`CSEPass` — dominance-scoped common-subexpression elimination
  driven by :meth:`repro.ir.operation.Operation.structural_key`;
* :class:`LICMPass` — loop-invariant code motion hoisting speculatable
  ops (including ``tensor.extract_slice`` and index arithmetic) out of
  ``scf.for`` / ``cfd.tiled_loop`` / ``scf.parallel`` bodies;
* :class:`DCEPass` — dead-code elimination of unused side-effect-free ops.

:func:`optimization_pipeline` assembles them per ``CompileOptions.opt_level``:
level 0 is off, level 1 runs fold+dce, level 2 (the default) adds CSE and
LICM. Every pass preserves value semantics exactly — the property suite
asserts bit-identical numerics between levels 0 and 2.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro.dialects.arith import CMP, DivFOp, MulFOp, value_ops
from repro.ir.attributes import Attribute, FloatAttr, IntegerAttr
from repro.ir.indexing import ARITH_OPS, fold, literal
from repro.ir.operation import Operation
from repro.ir.pass_manager import Pass
from repro.ir.rewriter import PatternRewriter, RewritePattern, apply_patterns_greedily
from repro.ir.types import FloatType
from repro.ir.values import BlockArgument, OpResult, Value

# ---------------------------------------------------------------------------
# Effects model: which operations the optimizer may touch.
# ---------------------------------------------------------------------------

#: The value ops' records; their ``EFFECT`` says what may be speculated.
_VALUE_OPS = value_ops()

#: Side-effect-free ops whose results are pure functions of their operands:
#: safe to CSE (given identical operands) and to DCE when unused.
_PURE_OPS = frozenset(_VALUE_OPS) | {
    "arith.constant",
    "tensor.dim",
    "tensor.extract",
    "tensor.extract_slice",
    "vector.broadcast",
    "vector.extract",
    "vector.transfer_read",
}

#: Ops eligible for CSE. Pure ops only: ``tensor.empty`` and the
#: functional-update ops are deliberately excluded — each application
#: stands for a distinct buffer, and keeping them distinct preserves the
#: backend's in-place buffer-stealing opportunities.
_CSE_OPS = _PURE_OPS

#: Value-semantics ops that may be erased when every result is unused but
#: whose results must never be merged (fresh buffers / functional updates).
_DCE_ONLY_OPS = frozenset(
    {
        "tensor.empty",
        "tensor.insert",
        "tensor.insert_slice",
        "linalg.fill",
        "cfd.get_parallel_blocks",
    }
)

#: Ops safe to *speculate*: executing them when the enclosing loop would
#: have run zero iterations cannot raise. Scalar indexing
#: (``tensor.extract``, ``vector.transfer_read``) is excluded — a hoisted
#: out-of-range index would fault in the emitted Python — while slicing
#: (``tensor.extract_slice``) clamps and is always safe. A value op whose
#: ``EFFECT`` is ``"divides"`` is speculated only with a nonzero constant
#: divisor (:meth:`LICMPass._hoistable`), a ``"may-raise"`` one never.
_SPECULATABLE_OPS = _PURE_OPS - {"tensor.extract", "vector.transfer_read"} - {
    name for name, op in _VALUE_OPS.items() if op.EFFECT != "pure"
}
_DIVIDING_OPS = frozenset(n for n, op in _VALUE_OPS.items() if op.EFFECT == "divides")

#: Region-carrying ops whose single body block is a loop body.
_LOOP_OPS = frozenset({"scf.for", "scf.parallel", "cfd.tiled_loop"})


# ---------------------------------------------------------------------------
# Constant folding.
# ---------------------------------------------------------------------------


class _FoldArith(RewritePattern):
    """Fold constant expressions and algebraic identities in one pattern."""

    op_name = None  # dispatch on the op name inside match_and_rewrite

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        name = op.name
        if name in ARITH_OPS:
            folded = fold(op)
            if folded is None:
                return False
            if isinstance(folded, Value):
                rewriter.replace_op(op, [folded])
                return True
            return self._replace_with_constant(op, rewriter, folded)
        record = _VALUE_OPS.get(name)
        if record is None:
            return False
        if record.FOLD is not None:
            return self._fold_float(op, record.FOLD, rewriter)
        if record.TYPE.startswith("cmp"):
            return self._fold_cmp(op, rewriter)
        if record.TYPE == "select":
            return self._fold_select(op, rewriter)
        return False

    # -- helpers ----------------------------------------------------------

    def _replace_with_constant(
        self, op: Operation, rewriter: PatternRewriter, value: Union[int, float]
    ) -> bool:
        result_type = op.result().type
        attr: Attribute
        if isinstance(result_type, FloatType):
            attr = FloatAttr(float(value), result_type)
        else:
            attr = IntegerAttr(int(value), result_type)
        const = rewriter.create("arith.constant", [], [result_type], {"value": attr})
        rewriter.replace_op(op, [const.result()])
        return True

    def _fold_float(self, op: Operation, fn: Callable, rewriter: PatternRewriter) -> bool:
        args = [literal(o) for o in op.operands]
        if None not in args and isinstance(op.result().type, FloatType):
            try:
                value = fn(*args)
            except (ArithmeticError, ValueError):  # what the kernel raises
                return False
            return self._replace_with_constant(op, rewriter, value)
        # Identities are limited to `x * 1.0` and `x / 1.0`, which are
        # bit-exact for every IEEE input (including NaN, infinities and
        # signed zeros).
        if op.num_operands != 2:
            return False
        (a, b), (lhs, rhs) = args, op.operands
        if op.name in (MulFOp.OP_NAME, DivFOp.OP_NAME) and b == 1.0:
            rewriter.replace_op(op, [lhs])
            return True
        if op.name == MulFOp.OP_NAME and a == 1.0:
            rewriter.replace_op(op, [rhs])
            return True
        return False

    def _fold_cmp(self, op: Operation, rewriter: PatternRewriter) -> bool:
        a = literal(op.operand(0))
        b = literal(op.operand(1))
        if a is None or b is None:
            return False
        predicate = op.attributes["predicate"].value  # type: ignore[union-attr]
        return self._replace_with_constant(op, rewriter, int(CMP[predicate][1](a, b)))

    def _fold_select(self, op: Operation, rewriter: PatternRewriter) -> bool:
        cond = literal(op.operand(0))
        if cond is None:
            return False
        rewriter.replace_op(op, [op.operand(1) if cond else op.operand(2)])
        return True


class ConstantFoldPass(Pass):
    """Evaluate constant expressions and algebraic identities."""

    name = "constant-fold"

    def run(self, module: Operation) -> None:
        apply_patterns_greedily(module, [_FoldArith()])


# ---------------------------------------------------------------------------
# Common-subexpression elimination.
# ---------------------------------------------------------------------------


class CSEPass(Pass):
    """Dominance-scoped CSE over :meth:`Operation.structural_key`.

    Walks the region tree with a scope stack (one hash table per block,
    MLIR's CSE structure): an op may be replaced by a structurally
    identical op seen earlier in the same block or in any enclosing
    block — positions that are guaranteed to dominate it. Sibling blocks
    (e.g. the two arms of ``scf.if``) never share entries.
    """

    name = "cse"

    def run(self, module: Operation) -> None:
        self._process_op(module, [])

    def _process_op(self, op: Operation, scopes: List[Dict[tuple, Operation]]) -> None:
        for region in op.regions:
            for block in region.blocks:
                scopes.append({})
                for inner in list(block.operations):
                    self._visit(inner, scopes)
                scopes.pop()

    def _visit(self, op: Operation, scopes: List[Dict[tuple, Operation]]) -> None:
        if op.name in _CSE_OPS and not op.regions and op.num_results > 0:
            key = op.structural_key()
            for scope in reversed(scopes):
                existing = scope.get(key)
                if existing is not None:
                    for old, new in zip(op.results, existing.results):
                        old.replace_all_uses_with(new)
                    op.erase()
                    return
            scopes[-1][key] = op
        self._process_op(op, scopes)


# ---------------------------------------------------------------------------
# Loop-invariant code motion.
# ---------------------------------------------------------------------------


class LICMPass(Pass):
    """Hoist speculatable loop-invariant ops out of loop bodies.

    Handles ``scf.for``, ``scf.parallel`` and ``cfd.tiled_loop``.
    Division and remainder are hoisted only when the divisor is a nonzero
    constant (speculating a division by a runtime-zero divisor out of a
    zero-trip loop would introduce a crash). Iterates to fixpoint so
    invariants escape multi-level loop nests: an op hoisted out of the
    cache-tile loop becomes a candidate at the sub-domain level.
    """

    name = "licm"

    def run(self, module: Operation) -> None:
        changed = True
        while changed:
            changed = False
            for op in list(module.walk()):
                if op.name in _LOOP_OPS and op.parent is not None:
                    changed |= self._hoist_from(op)

    @staticmethod
    def _defined_inside(value: Value, loop: Operation) -> bool:
        if isinstance(value, BlockArgument):
            region = value.block.parent
            owner = region.parent if region is not None else None
        else:
            owner = value.op if isinstance(value, OpResult) else None
        return owner is not None and loop.is_ancestor_of(owner)

    @classmethod
    def _hoistable(cls, op: Operation, loop: Operation) -> bool:
        if op.regions or op.num_results == 0:
            return False
        if op.name in _DIVIDING_OPS:
            divisor = literal(op.operand(1))
            if divisor is None or divisor == 0:
                return False
        elif op.name not in _SPECULATABLE_OPS:
            return False
        return not any(cls._defined_inside(o, loop) for o in op.operands)

    def _hoist_from(self, loop: Operation) -> bool:
        parent = loop.parent
        changed = False
        for region in loop.regions:
            for block in region.blocks:
                term = block.terminator
                for op in list(block.operations):
                    if op is term or not self._hoistable(op, loop):
                        continue
                    block.remove_op(op)
                    parent.insert_before(loop, op)
                    changed = True
        return changed


# ---------------------------------------------------------------------------
# Dead-code elimination.
# ---------------------------------------------------------------------------


class DCEPass(Pass):
    """Erase unused side-effect-free ops, bottom-up, to fixpoint."""

    name = "dce"

    _ERASABLE = _PURE_OPS | _DCE_ONLY_OPS | {"vector.transfer_write"}

    def run(self, module: Operation) -> None:
        changed = True
        while changed:
            changed = False
            for op in reversed(list(module.walk())):
                if op is module or op.parent is None:
                    continue
                if op.name not in self._ERASABLE or op.regions:
                    continue
                # `vector.transfer_write` is functional (erasable) only in
                # its tensor form, where it produces the updated tensor.
                if op.num_results == 0:
                    continue
                if op is op.parent.terminator:
                    continue
                if any(r.has_uses for r in op.results):
                    continue
                op.erase()
                changed = True


# ---------------------------------------------------------------------------
# Pipeline assembly.
# ---------------------------------------------------------------------------


def optimization_pipeline(opt_level: int) -> List[Pass]:
    """The midend pass list for one ``CompileOptions.opt_level``.

    * ``0`` — no optimization (the raw lowering output);
    * ``1`` — constant folding + DCE;
    * ``2`` — folding, CSE, LICM, a second CSE round (duplicates hoisted
      out of sibling loops meet in the parent block) and a final DCE.
    """
    if opt_level <= 0:
        return []
    if opt_level == 1:
        return [ConstantFoldPass(), DCEPass()]
    return [
        ConstantFoldPass(),
        CSEPass(),
        LICMPass(),
        CSEPass(),
        DCEPass(),
    ]
