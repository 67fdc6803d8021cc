"""A structured-operations dialect modeled on ``linalg``.

:class:`GenericOp` is the workhorse for the *out-of-place* parts of a CFD
solver: pointwise updates and shifted-access computations such as the
finite-difference right-hand side of the 3D heat equation (Fig. 9/10).
Each input is read at ``i + offset`` for a constant per-input offset
vector; the iteration domain shrinks so no access leaves the tensors.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.ir.attributes import ArrayAttr, IntegerAttr, index_array_attr
from repro.ir.block import Block, Region
from repro.ir.builder import OpBuilder
from repro.ir.operation import Operation, register_op
from repro.ir.types import TensorType, f64
from repro.ir.values import Value


@register_op
class LinalgYieldOp(Operation):
    OP_NAME = "linalg.yield"

    @classmethod
    def build(cls, builder: OpBuilder, values: Sequence[Value]) -> "LinalgYieldOp":
        return builder.create(cls.OP_NAME, list(values))  # type: ignore[return-value]


@register_op
class GenericOp(Operation):
    """``linalg.generic ins(...) outs(init)`` with constant access offsets.

    Semantics: with per-input offsets ``off_j`` and output init ``O``::

        lo[d] = max(0, -min_j off_j[d]);  hi[d] = N[d] - max(0, off_j[d])
        result[i] = body(in_1[i+off_1], ..., in_n[i+off_n], O[i])
                    for i in [lo, hi), else O[i]

    The same tensor may appear several times in ``ins`` with different
    offsets (the 7-point laplacian reads T seven times). All operands
    must share the output's shape.
    """

    OP_NAME = "linalg.generic"

    @classmethod
    def build(
        cls,
        builder: OpBuilder,
        ins: Sequence[Value],
        out_init: Value,
        offsets: Sequence[Sequence[int]] = None,
        margins: Sequence[Tuple[int, int]] = None,
    ) -> "GenericOp":
        ins = list(ins)
        rank = out_init.type.rank  # type: ignore[union-attr]
        if offsets is None:
            offsets = [[0] * rank for _ in ins]
        if margins is None:
            margins = [(0, 0)] * rank
        offsets_attr = ArrayAttr(
            [index_array_attr(list(o)) for o in offsets]
        )
        margins_attr = ArrayAttr(
            [index_array_attr([lo, hi]) for lo, hi in margins]
        )
        region = Region([Block(arg_types=[f64] * (len(ins) + 1))])
        op = builder.create(
            cls.OP_NAME,
            ins + [out_init],
            [out_init.type],
            {
                "offsets": offsets_attr,
                "margins": margins_attr,
                "num_ins": IntegerAttr(len(ins)),
            },
            regions=[region],
        )
        return op  # type: ignore[return-value]

    @property
    def num_ins(self) -> int:
        return self.attributes["num_ins"].value  # type: ignore[union-attr]

    @property
    def ins(self) -> List[Value]:
        return self.operands[: self.num_ins]

    @property
    def out_init(self) -> Value:
        return self.operand(self.num_ins)

    @property
    def offsets(self) -> List[Tuple[int, ...]]:
        attr: ArrayAttr = self.attributes["offsets"]  # type: ignore[assignment]
        return [tuple(e.value for e in inner) for inner in attr]

    @property
    def body(self) -> Block:
        return self.regions[0].entry_block

    @property
    def margins(self) -> List[Tuple[int, int]]:
        """Extra per-dimension ``(lo, hi)`` insets of the iteration domain
        (the PolyBench kernels iterate ``1 .. N-1`` even for pointwise
        updates; margins model that without fake shifted accesses)."""
        attr = self.attributes.get("margins")
        if not isinstance(attr, ArrayAttr):
            out_t = self.operand(self.num_ins).type
            return [(0, 0)] * out_t.rank
        return [(inner[0].value, inner[1].value) for inner in attr]

    def insets(self) -> List[Tuple[int, int]]:
        """Per-dimension ``(lo, hi)`` cells the iteration domain leaves out
        at each end: every shifted access stays in bounds, and the explicit
        margins hold."""
        offsets = self.offsets
        return [
            (max([0, m_lo] + [-o[d] for o in offsets]),
             max([0, m_hi] + [o[d] for o in offsets]))
            for d, (m_lo, m_hi) in enumerate(self.margins)
        ]

    def iteration_bounds(
        self, shape: Sequence[int]
    ) -> List[Tuple[int, int]]:
        """Per-dimension ``[lo, hi)`` over an output of ``shape``."""
        return [(lo, n - hi) for n, (lo, hi) in zip(shape, self.insets())]

    def halo(self) -> List[Tuple[int, int]]:
        """Per-dimension access halo (how far reads reach past a point):
        the window inflation a fused tile-local instance needs."""
        offsets = self.offsets
        out_t = self.operand(self.num_ins).type
        return [
            (
                max([0] + [-o[d] for o in offsets]),
                max([0] + [o[d] for o in offsets]),
            )
            for d in range(out_t.rank)
        ]

    def verify_(self) -> None:
        n = self.num_ins
        if self.num_operands != n + 1:
            raise ValueError("linalg.generic needs num_ins inputs + one init")
        out_t = self.operand(n).type
        if not isinstance(out_t, TensorType):
            raise ValueError("linalg.generic output must be a tensor")
        for i in range(n):
            t = self.operand(i).type
            if not isinstance(t, TensorType) or t.rank != out_t.rank:
                raise ValueError(
                    f"linalg.generic input #{i} must be a tensor of matching rank"
                )
        offsets = self.offsets
        if len(offsets) != n:
            raise ValueError("linalg.generic needs one offset vector per input")
        for o in offsets:
            if len(o) != out_t.rank:
                raise ValueError("linalg.generic offset rank mismatch")
        if self.result().type != out_t:
            raise ValueError("linalg.generic result type must match init")
        body = self.regions[0].entry_block
        if len(body.arguments) != n + 1:
            raise ValueError("linalg.generic body needs one arg per input + init")
        term = body.terminator
        if term is None or term.name != "linalg.yield":
            raise ValueError("linalg.generic body must end with linalg.yield")
        if len(term.operands) != 1:
            raise ValueError("linalg.generic yields exactly one value")


@register_op
class FillOp(Operation):
    """``linalg.fill(scalar, init)``: a tensor filled with one value."""

    OP_NAME = "linalg.fill"

    @classmethod
    def build(cls, builder: OpBuilder, scalar: Value, init: Value) -> "FillOp":
        return builder.create(  # type: ignore[return-value]
            cls.OP_NAME, [scalar, init], [init.type]
        )

    @property
    def scalar(self) -> Value:
        return self.operand(0)

    @property
    def init(self) -> Value:
        return self.operand(1)

    def verify_(self) -> None:
        t = self.operand(1).type
        if not isinstance(t, TensorType):
            raise ValueError("linalg.fill init must be a tensor")
        if self.operand(0).type != t.element_type:
            raise ValueError("linalg.fill scalar must be the element type")
        if self.result().type != t:
            raise ValueError("linalg.fill result must match init")
