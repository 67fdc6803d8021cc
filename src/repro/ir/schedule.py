"""Schedule timestamps and linear index forms for translation validation.

The translation validator (:mod:`repro.analysis.tv`) assigns every
statement instance a *timestamp*: a tuple of ``(flag, value)`` components
compared lexicographically, where ``flag`` is :data:`SEQ` for sequential
components (loop iteration numbers, positions of ops inside a block,
wavefront group numbers) and :data:`PAR` for parallel components (the
tile index inside a wavefront group, the lane of a vector write). Two
timestamps whose first differing component is parallel are *concurrent*
— neither happens-before the other.

This module also recovers *linear index forms*: an index-typed SSA value
expressed as ``const + sum(coeff * iv)`` over the induction variables of
an enclosing loop nest, which is how the validator maps a lowered
``tensor.insert``/``memref.store``/``vector.transfer_write`` back to the
cell it writes. The recovery is purely structural over ``arith``
add/sub/mul chains; everything else is delegated to an evaluator
callback (in practice :meth:`AbstractEvaluator.eval_exact
<repro.analysis.absint.engine.AbstractEvaluator.eval_exact>` with the
enclosing tile's induction variables pinned to concrete points).
:func:`resolve_affine` is the dependence engine's simpler
``root + offset`` form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.ir.indexing import literal
from repro.ir.values import OpResult, Value

#: Timestamp component flags.
SEQ = 0  #: sequential: ordered by component value
PAR = 1  #: parallel: equal-prefix instances are concurrent

#: One timestamp: ``((flag, value), ...)`` compared lexicographically.
Timestamp = Tuple[Tuple[int, int], ...]

#: :func:`compare_timestamps` verdicts.
BEFORE, CONCURRENT, AFTER = -1, 0, 1


def compare_timestamps(a: Timestamp, b: Timestamp) -> int:
    """Happens-before comparison of two timestamps.

    Returns :data:`BEFORE` (-1) when ``a`` is scheduled strictly before
    ``b``, :data:`AFTER` (1) for the converse, and :data:`CONCURRENT` (0)
    when the first differing component is parallel (or the timestamps are
    equal / one is a prefix of the other, which only happens for distinct
    instances mapped to the same event — also unordered).
    """
    for (fa, va), (fb, vb) in zip(a, b):
        if fa == fb and va == vb:
            continue
        if fa == SEQ and fb == SEQ:
            return BEFORE if va < vb else AFTER
        return CONCURRENT
    return CONCURRENT


def render_timestamp(ts: Timestamp) -> str:
    """Compact human form, e.g. ``s0.p7.s1.s5`` (s=sequential, p=parallel)."""
    return ".".join(f"{'sp'[flag]}{value}" for flag, value in ts) or "<empty>"


@dataclass
class LinearForm:
    """``const + sum(coeffs[id(iv)] * iv)`` over loop induction variables."""

    const: int = 0
    coeffs: Dict[int, int] = field(default_factory=dict)

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def value_at(self, env: Dict[int, int]) -> int:
        """Evaluate under concrete induction-variable bindings
        (``id(iv) -> int``). Raises ``KeyError`` on an unbound variable."""
        return self.const + sum(c * env[k] for k, c in self.coeffs.items())

    def _merge(self, other: "LinearForm", sign: int) -> "LinearForm":
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + sign * c
            if coeffs[k] == 0:
                del coeffs[k]
        return LinearForm(self.const + sign * other.const, coeffs)

    def scaled(self, factor: int) -> "LinearForm":
        return LinearForm(
            self.const * factor,
            {k: c * factor for k, c in self.coeffs.items()},
        )


def resolve_linear(
    value: Value,
    iv_ids: Dict[int, Value],
    evaluate: Callable[[Value], Optional[int]],
) -> Optional[LinearForm]:
    """Recover ``value`` as a :class:`LinearForm` over the induction
    variables in ``iv_ids`` (``id(iv) -> iv``).

    Structural recursion over ``arith.addi``/``subi``/``muli`` (one
    multiplicand must be loop-invariant); any other sub-expression must
    evaluate to a concrete integer via ``evaluate`` or the recovery fails
    with ``None``. This shape covers every index expression our lowerings
    emit: forward ``lo + iv``, backward ``(hi - 1) - iv``, vector strips
    ``lo + vf * t`` and ``(hi - vf) - vf * t``, and unrolled lanes
    ``j0 + u``.
    """
    if id(value) in iv_ids:
        return LinearForm(0, {id(value): 1})
    if isinstance(value, OpResult):
        op = value.op
        if op.name in ("arith.addi", "arith.subi") and op.num_operands == 2:
            lhs = resolve_linear(op.operand(0), iv_ids, evaluate)
            rhs = resolve_linear(op.operand(1), iv_ids, evaluate)
            if lhs is None or rhs is None:
                return None
            return lhs._merge(rhs, 1 if op.name == "arith.addi" else -1)
        if op.name == "arith.muli" and op.num_operands == 2:
            lhs = resolve_linear(op.operand(0), iv_ids, evaluate)
            rhs = resolve_linear(op.operand(1), iv_ids, evaluate)
            if lhs is None or rhs is None:
                return None
            if rhs.is_const:
                return lhs.scaled(rhs.const)
            if lhs.is_const:
                return rhs.scaled(lhs.const)
            return None
        if op.name == "arith.index_cast":
            return resolve_linear(op.operand(0), iv_ids, evaluate)
    c = evaluate(value)
    if c is None:
        return None
    return LinearForm(c, {})


def resolve_affine(value: Value) -> Tuple[Value, int]:
    """Peel ``+c`` / ``-c`` literal terms off an index expression.

    Returns ``(root, offset)`` with ``value == root + offset``, where
    ``root`` is the first value that is not an add/sub with a literal
    operand. This is how the lowered-loop dependence engine recovers
    stencil offsets from raw index arithmetic: reads are emitted as
    ``addi(idx, const)`` around the write index ``idx`` (for both sweep
    directions — the backward sweep's ``idx = hi - 1 - iv`` is itself the
    shared root).
    """
    offset = 0
    while isinstance(value, OpResult) and value.op.name in (
        "arith.addi", "arith.subi"
    ):
        op = value.op
        lhs, rhs = literal(op.operand(0)), literal(op.operand(1))
        if rhs is not None and lhs is None:
            offset += rhs if op.name == "arith.addi" else -rhs
            value = op.operand(0)
        elif lhs is not None and rhs is None and op.name == "arith.addi":
            offset += lhs
            value = op.operand(1)
        else:
            break
    return value, offset
