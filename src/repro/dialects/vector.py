"""The ``vector`` dialect: VF-sized vector transfers and arithmetic.

``vector.transfer_read``/``transfer_write`` move VF contiguous elements
between a (mem)ref/tensor and a 1-D vector along the innermost dimension;
they are the mid-level abstractions the paper's partial vectorization emits
(§3.5, Fig. 7). Elementwise arithmetic on vectors is provided by the
``arith`` ops themselves, which are type-polymorphic.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.dialects.arith import ValueOp
from repro.ir.attributes import IntegerAttr
from repro.ir.builder import OpBuilder
from repro.ir.operation import Operation, register_op
from repro.ir.types import MemRefType, TensorType, VectorType
from repro.ir.values import Value


def _shaped(t) -> bool:
    return isinstance(t, (TensorType, MemRefType))


@register_op
class TransferReadOp(Operation):
    """``vector.transfer_read(source, indices...)``: read a contiguous
    1-D vector starting at ``indices`` along the last dimension."""

    OP_NAME = "vector.transfer_read"

    @classmethod
    def build(
        cls,
        builder: OpBuilder,
        source: Value,
        indices: Sequence[Value],
        vector_type: VectorType,
    ) -> "TransferReadOp":
        return builder.create(  # type: ignore[return-value]
            cls.OP_NAME, [source] + list(indices), [vector_type]
        )

    @property
    def source(self) -> Value:
        return self.operand(0)

    @property
    def indices(self) -> List[Value]:
        return self.operands[1:]

    @property
    def vector_length(self) -> int:
        return self.result().type.shape[0]  # type: ignore[union-attr]

    def verify_(self) -> None:
        t = self.operand(0).type
        if not _shaped(t):
            raise ValueError("vector.transfer_read source must be shaped")
        if self.num_operands - 1 != t.rank:
            raise ValueError("vector.transfer_read index count must equal rank")
        vt = self.result().type
        if not isinstance(vt, VectorType) or vt.rank != 1:
            raise ValueError("vector.transfer_read produces a 1-D vector")
        if vt.element_type != t.element_type:
            raise ValueError("vector.transfer_read element type mismatch")


@register_op
class TransferWriteOp(Operation):
    """``vector.transfer_write(vector, dest, indices...)``.

    Writing to a tensor yields the updated tensor; writing to a memref
    yields nothing (the buffer mutates).
    """

    OP_NAME = "vector.transfer_write"

    @classmethod
    def build(
        cls,
        builder: OpBuilder,
        vector: Value,
        dest: Value,
        indices: Sequence[Value],
    ) -> "TransferWriteOp":
        results = [dest.type] if isinstance(dest.type, TensorType) else []
        return builder.create(  # type: ignore[return-value]
            cls.OP_NAME, [vector, dest] + list(indices), results
        )

    @property
    def vector(self) -> Value:
        return self.operand(0)

    @property
    def dest(self) -> Value:
        return self.operand(1)

    @property
    def indices(self) -> List[Value]:
        return self.operands[2:]

    def verify_(self) -> None:
        vt = self.operand(0).type
        t = self.operand(1).type
        if not isinstance(vt, VectorType) or vt.rank != 1:
            raise ValueError("vector.transfer_write writes a 1-D vector")
        if not _shaped(t):
            raise ValueError("vector.transfer_write destination must be shaped")
        if self.num_operands - 2 != t.rank:
            raise ValueError("vector.transfer_write index count must equal rank")
        if isinstance(t, TensorType):
            if self.num_results != 1 or self.result().type != t:
                raise ValueError(
                    "vector.transfer_write to a tensor must return the tensor"
                )
        elif self.num_results:
            raise ValueError("vector.transfer_write to a memref has no result")


@register_op
class BroadcastOp(Operation):
    """``vector.broadcast(scalar)``: splat a scalar into a vector."""

    OP_NAME = "vector.broadcast"

    @classmethod
    def build(
        cls, builder: OpBuilder, scalar: Value, vector_type: VectorType
    ) -> "BroadcastOp":
        return builder.create(cls.OP_NAME, [scalar], [vector_type])  # type: ignore[return-value]

    def verify_(self) -> None:
        vt = self.result().type
        if not isinstance(vt, VectorType):
            raise ValueError("vector.broadcast produces a vector")
        if self.operand(0).type != vt.element_type:
            raise ValueError("vector.broadcast scalar type mismatch")


@register_op
class VectorExtractOp(Operation):
    """``vector.extract {position}``: one scalar lane of a vector.

    The unrolled scalar part of the partial vectorization (Fig. 7) reads
    individual lanes of the vectorized ``temp`` with this op.
    """

    OP_NAME = "vector.extract"

    @classmethod
    def build(cls, builder: OpBuilder, vector: Value, position: int):
        elem = vector.type.element_type  # type: ignore[union-attr]
        return builder.create(
            cls.OP_NAME, [vector], [elem], {"position": IntegerAttr(position)}
        )

    @property
    def position(self) -> int:
        return self.attributes["position"].value  # type: ignore[union-attr]

    def verify_(self) -> None:
        vt = self.operand(0).type
        if not isinstance(vt, VectorType) or vt.rank != 1:
            raise ValueError("vector.extract operates on 1-D vectors")
        pos = self.attributes.get("position")
        if not isinstance(pos, IntegerAttr) or not (0 <= pos.value < vt.shape[0]):
            raise ValueError("vector.extract position out of range")
        if self.result().type != vt.element_type:
            raise ValueError("vector.extract result must be the element type")


@register_op
class VectorFMAOp(ValueOp):
    """``vector.fma(a, b, c) = a*b + c`` elementwise on vectors."""

    OP_NAME, ARITY, TYPE = "vector.fma", 3, "vector-float"
    NUMPY = C = "({0} * {1} + {2})"
