"""The ``arith`` dialect: constants, integer/index and float arithmetic.

Like in MLIR, floating-point operations apply elementwise when their
operands are vectors, which is what lets the vectorization pass reuse the
scalar payload unchanged (§3.5 of the paper).
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Optional, Union

from repro.ir.attributes import Attribute, FloatAttr, IntegerAttr, StringAttr
from repro.ir.builder import OpBuilder
from repro.ir.operation import Operation, OpRegistry, register_op
from repro.ir.types import (
    FloatType,
    IndexType,
    IntegerType,
    Type,
    VectorType,
    f64,
    i1,
    index,
)
from repro.ir.values import Value


def _element_type(t: Type) -> Type:
    return t.element_type if isinstance(t, VectorType) else t


def _is_float_like(t: Type) -> bool:
    return isinstance(_element_type(t), FloatType)


def _is_int_like(t: Type) -> bool:
    return isinstance(_element_type(t), (IntegerType, IndexType))


@register_op
class ConstantOp(Operation):
    """``arith.constant {value = <attr>}``: a compile-time constant."""

    OP_NAME = "arith.constant"

    @classmethod
    def build(cls, builder: OpBuilder, value: Attribute) -> "ConstantOp":
        if isinstance(value, IntegerAttr):
            result_type = value.type
        elif isinstance(value, FloatAttr):
            result_type = value.type
        else:
            raise TypeError(f"unsupported constant attribute {value!r}")
        op = builder.create(cls.OP_NAME, [], [result_type], {"value": value})
        return op  # type: ignore[return-value]

    @property
    def value(self) -> Union[int, float]:
        attr = self.attributes["value"]
        return attr.value  # type: ignore[union-attr]

    def verify_(self) -> None:
        attr = self.attributes.get("value")
        if not isinstance(attr, (IntegerAttr, FloatAttr)):
            raise ValueError("arith.constant needs an integer or float 'value'")
        if self.result().type != attr.type:
            raise ValueError("arith.constant result type must match its value")


def const_f64(builder: OpBuilder, value: float) -> Value:
    """Shorthand: build an f64 constant and return its result value."""
    return ConstantOp.build(builder, FloatAttr(float(value), f64)).result()


def const_index(builder: OpBuilder, value: int) -> Value:
    """Shorthand: build an index constant and return its result value."""
    return ConstantOp.build(builder, IntegerAttr(int(value), index)).result()


#: Comparison predicates of CmpFOp / CmpIOp -> (symbol, function).
CMP = {
    "eq": ("==", operator.eq), "ne": ("!=", operator.ne),
    "lt": ("<", operator.lt), "le": ("<=", operator.le),
    "gt": (">", operator.gt), "ge": (">=", operator.ge),
}
CMP_PREDICATES = tuple(CMP)

_KINDS = {
    "float": _is_float_like,
    "int": _is_int_like,
    "vector-float": lambda t: isinstance(t, VectorType) and _is_float_like(t),
}


class ValueOp(Operation):
    """A value op as a record: class attributes hold each fact about it,
    read by :meth:`build`, :meth:`verify_`, the printers, the optimizer
    and the vectorizer (:func:`value_ops`).

    * ``ARITY`` — operand count (the result is one);
    * ``TYPE`` — the type rule: ``float``/``int``/``vector-float``
      (operands and result one type of that kind), ``cmp:<kind>`` (two
      operands of that kind, an ``i1`` result, a ``predicate``),
      ``select`` (an ``i1`` and two operands of the result type) or
      ``cast:<kind>`` (an integer-like operand to a ``<kind>`` result);
    * ``NUMPY`` — the Python/NumPy expression over the printed operands
      (``{cmp}`` is a predicate's symbol); ``ARRAY`` — the whole-array
      form (``linalg.generic`` payloads), ``NUMPY`` unless it differs,
      ``None`` where there is none; ``C`` — the native tier's, ``None``
      where it is not native;
    * ``EFFECT`` — ``"pure"`` (never raises, so it may be speculated),
      ``"divides"`` (raises only on a zero operand 1) or ``"may-raise"``;
    * ``LANEWISE`` — lifts to vectors lane by lane (§3.5);
    * ``FOLD`` — constant folding's function, given only to correctly
      rounded ops, so that a folded literal is what the kernel computes.
    """

    ARITY: int
    TYPE: str
    NUMPY: str
    ARRAY: Optional[str]
    C: Optional[str]
    EFFECT = "pure"
    LANEWISE = False
    FOLD: Optional[Callable] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "NUMPY" in vars(cls) and "ARRAY" not in vars(cls):
            cls.ARRAY = cls.NUMPY
        if "TYPE" in vars(cls):  # (rule, kind), parsed once for verify_
            cls._rule = cls.TYPE.partition(":")[::2]

    @classmethod
    def build(cls, builder: OpBuilder, *args):
        """``(predicate,)? operands... (result type of a cast)?``"""
        rule, attrs = cls._rule[0], {}
        if rule == "cmp":
            predicate, *args = args
            if predicate not in CMP:
                raise ValueError(f"unknown comparison predicate {predicate!r}")
            attrs["predicate"] = StringAttr(predicate)
            result = i1
        elif rule == "cast":
            result = args[1] if len(args) > 1 else f64
        else:
            result = args[rule == "select"].type
        return builder.create(cls.OP_NAME, args[: cls.ARITY], [result], attrs)

    def verify_(self) -> None:
        operands = self.operands
        if len(operands) != self.ARITY or len(self.results) != 1:
            raise ValueError(f"needs {self.ARITY} operand(s) and 1 result")
        rule, kind = self._rule
        first, result = operands[0].type, self.results[0].type
        if rule == "cast":
            if not (_is_int_like(first) and _KINDS[kind](result)):
                raise ValueError(f"casts integer-like to {kind}, not {first} -> {result}")
            return
        if rule == "select":
            if first != i1:
                raise ValueError("condition must be i1")
            operands, first = operands[1:], operands[1].type
        for other in operands[1:]:
            if other.type != first:
                raise ValueError(f"operand types disagree: {first}, {other.type}")
        if rule == "cmp":
            pred = self.attributes.get("predicate")
            if not isinstance(pred, StringAttr) or pred.value not in CMP:
                raise ValueError("bad or missing predicate")
        if result != (i1 if rule == "cmp" else first):
            raise ValueError(f"result type {result} does not fit {first}")
        check = _KINDS.get(kind or rule)
        if check is not None and not check(first):
            raise ValueError(f"requires {kind or rule} operands, got {first}")


def value_ops() -> Dict[str, type]:
    """Every registered :class:`ValueOp` record by name."""
    from repro.dialects import math, vector  # noqa: F401 (their records)

    return {name: cls for name in OpRegistry.registered_names()
            if issubclass(cls := OpRegistry.lookup(name), ValueOp)}


@register_op
class AddFOp(ValueOp):
    OP_NAME, ARITY, TYPE = "arith.addf", 2, "float"
    NUMPY = C = "({0} + {1})"
    LANEWISE, FOLD = True, operator.add


@register_op
class SubFOp(ValueOp):
    OP_NAME, ARITY, TYPE = "arith.subf", 2, "float"
    NUMPY = C = "({0} - {1})"
    LANEWISE, FOLD = True, operator.sub


@register_op
class MulFOp(ValueOp):
    OP_NAME, ARITY, TYPE = "arith.mulf", 2, "float"
    NUMPY = C = "({0} * {1})"
    LANEWISE, FOLD = True, operator.mul


@register_op
class DivFOp(ValueOp):
    """A scalar zero divisor raises (``E_DIV`` natively); lanes give inf."""

    OP_NAME, ARITY, TYPE = "arith.divf", 2, "float"
    NUMPY, C = "({0} / {1})", "_div({0}, {1}, &_err)"
    EFFECT, LANEWISE, FOLD = "divides", True, operator.truediv


@register_op
class MaximumFOp(ValueOp):
    """NumPy's NaN propagation, so not folded with Python's ``max``."""

    OP_NAME, ARITY, TYPE = "arith.maximumf", 2, "float"
    NUMPY, C = "_np.maximum({0}, {1})", "_FMAX({0}, {1})"
    LANEWISE = True


@register_op
class MinimumFOp(ValueOp):
    OP_NAME, ARITY, TYPE = "arith.minimumf", 2, "float"
    NUMPY, C = "_np.minimum({0}, {1})", "_FMIN({0}, {1})"
    LANEWISE = True


@register_op
class NegFOp(ValueOp):
    OP_NAME, ARITY, TYPE = "arith.negf", 1, "float"
    NUMPY = C = "(-{0})"
    LANEWISE, FOLD = True, operator.neg


@register_op
class AddIOp(ValueOp):
    OP_NAME, ARITY, TYPE = "arith.addi", 2, "int"
    NUMPY = C = "({0} + {1})"


@register_op
class SubIOp(ValueOp):
    OP_NAME, ARITY, TYPE = "arith.subi", 2, "int"
    NUMPY = C = "({0} - {1})"


@register_op
class MulIOp(ValueOp):
    OP_NAME, ARITY, TYPE = "arith.muli", 2, "int"
    NUMPY = C = "({0} * {1})"


@register_op
class FloorDivIOp(ValueOp):
    """Floored division; used for VF-divisibility bounds (§3.5)."""

    OP_NAME, ARITY, TYPE = "arith.floordivi", 2, "int"
    NUMPY, C = "({0} // {1})", "_fdiv({0}, {1}, &_err)"
    EFFECT = "divides"


@register_op
class RemIOp(ValueOp):
    OP_NAME, ARITY, TYPE = "arith.remi", 2, "int"
    NUMPY, C = "({0} % {1})", "_mod({0}, {1}, &_err)"
    EFFECT = "divides"


@register_op
class MinSIOp(ValueOp):
    """Signed minimum; clamps partial-tile sizes at domain boundaries."""

    OP_NAME, ARITY, TYPE = "arith.minsi", 2, "int"
    NUMPY, ARRAY, C = "min({0}, {1})", None, "_MIN({0}, {1})"


@register_op
class MaxSIOp(ValueOp):
    OP_NAME, ARITY, TYPE = "arith.maxsi", 2, "int"
    NUMPY, ARRAY, C = "max({0}, {1})", None, "_MAX({0}, {1})"


@register_op
class CmpFOp(ValueOp):
    OP_NAME, ARITY, TYPE = "arith.cmpf", 2, "cmp:float"
    NUMPY = C = "({0} {cmp} {1})"
    ARRAY = "{0} {cmp} {1}"


@register_op
class CmpIOp(ValueOp):
    OP_NAME, ARITY, TYPE = "arith.cmpi", 2, "cmp:int"
    NUMPY = C = "({0} {cmp} {1})"
    ARRAY = "{0} {cmp} {1}"


@register_op
class SelectOp(ValueOp):
    """``arith.select(cond, a, b)``: ternary select."""

    OP_NAME, ARITY, TYPE = "arith.select", 3, "select"
    NUMPY, ARRAY, C = "({1} if {0} else {2})", "_np.where({0}, {1}, {2})", "({0} ? {1} : {2})"


@register_op
class IndexCastOp(ValueOp):
    """Cast between index and fixed-width integers (schedule bookkeeping)."""

    OP_NAME, ARITY, TYPE = "arith.index_cast", 1, "cast:int"
    NUMPY, ARRAY, C = "int({0})", None, "((long)({0}))"


@register_op
class SIToFPOp(ValueOp):
    """Signed integer (or index) to floating point conversion."""

    OP_NAME, ARITY, TYPE = "arith.sitofp", 1, "cast:float"
    NUMPY, ARRAY, C = "float({0})", None, "((double)({0}))"
    FOLD = float


# Builder-style free functions: the fluent API used by the passes.
def addf(b: OpBuilder, x: Value, y: Value) -> Value:
    return AddFOp.build(b, x, y).result()


def subf(b: OpBuilder, x: Value, y: Value) -> Value:
    return SubFOp.build(b, x, y).result()


def mulf(b: OpBuilder, x: Value, y: Value) -> Value:
    return MulFOp.build(b, x, y).result()


def divf(b: OpBuilder, x: Value, y: Value) -> Value:
    return DivFOp.build(b, x, y).result()


def negf(b: OpBuilder, x: Value) -> Value:
    return NegFOp.build(b, x).result()


def addi(b: OpBuilder, x: Value, y: Value) -> Value:
    return AddIOp.build(b, x, y).result()


def subi(b: OpBuilder, x: Value, y: Value) -> Value:
    return SubIOp.build(b, x, y).result()


def muli(b: OpBuilder, x: Value, y: Value) -> Value:
    return MulIOp.build(b, x, y).result()


def floordivi(b: OpBuilder, x: Value, y: Value) -> Value:
    return FloorDivIOp.build(b, x, y).result()


def minsi(b: OpBuilder, x: Value, y: Value) -> Value:
    return MinSIOp.build(b, x, y).result()


def maxsi(b: OpBuilder, x: Value, y: Value) -> Value:
    return MaxSIOp.build(b, x, y).result()
