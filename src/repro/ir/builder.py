"""The operation builder.

:class:`OpBuilder` creates operations at an :class:`InsertionPoint` (a
block plus a position inside it). Builders are how every pass and every
frontend in this reproduction constructs IR; they guarantee new ops land
in a block so the use-def machinery stays coherent.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.ir.attributes import Attribute
from repro.ir.block import Block, Region
from repro.ir.operation import Operation, create_operation
from repro.ir.types import Type
from repro.ir.values import Value


class InsertionPoint:
    """A position inside a block: new ops are inserted *before* ``index``.

    ``index=None`` means "at the end of the block". A point made
    :meth:`before` or :meth:`after` an op finds that op's index only at
    its first insert (most are never used: the rewrite driver makes one
    per op and pattern), so it stays next to the op even when other ops
    were inserted ahead of it in the meantime.
    """

    def __init__(self, block: Block, index: Optional[int] = None) -> None:
        self.block = block
        self._index = index
        #: ``(op, 0 | 1)``: before / after ``op``, until the first insert
        self._anchor: Optional[Tuple[Operation, int]] = None

    @property
    def index(self) -> Optional[int]:
        if self._anchor is not None:
            self._resolve()
        return self._index

    def _resolve(self) -> None:
        op, shift = self._anchor
        self._index, self._anchor = self.block.index_of(op) + shift, None

    @classmethod
    def at_end(cls, block: Block) -> "InsertionPoint":
        return cls(block, None)

    @classmethod
    def at_start(cls, block: Block) -> "InsertionPoint":
        return cls(block, 0)

    @classmethod
    def before(cls, op: Operation) -> "InsertionPoint":
        return cls._next_to(op, 0)

    @classmethod
    def after(cls, op: Operation) -> "InsertionPoint":
        return cls._next_to(op, 1)

    @classmethod
    def _next_to(cls, op: Operation, shift: int) -> "InsertionPoint":
        if op.parent is None:
            raise ValueError("operation is not inserted in a block")
        ip = cls(op.parent)
        ip._anchor = (op, shift)
        return ip

    def insert(self, op: Operation) -> Operation:
        if self._anchor is not None:
            self._resolve()
        if self._index is None:
            self.block.append(op)
        else:
            self.block.insert(self._index, op)
            self._index += 1
        return op


class OpBuilder:
    """Creates operations at the current insertion point.

    Typical usage::

        builder = OpBuilder.at_end(block)
        c = arith.ConstantOp.build(builder, FloatAttr(1.0))
        s = arith.AddFOp.build(builder, c.result(), x)
    """

    def __init__(self, insertion_point: Optional[InsertionPoint] = None) -> None:
        self.insertion_point = insertion_point

    @classmethod
    def at_end(cls, block: Block) -> "OpBuilder":
        return cls(InsertionPoint.at_end(block))

    @classmethod
    def at_start(cls, block: Block) -> "OpBuilder":
        return cls(InsertionPoint.at_start(block))

    @classmethod
    def before(cls, op: Operation) -> "OpBuilder":
        return cls(InsertionPoint.before(op))

    @classmethod
    def after(cls, op: Operation) -> "OpBuilder":
        return cls(InsertionPoint.after(op))

    def set_insertion_point(self, ip: InsertionPoint) -> None:
        self.insertion_point = ip

    @contextmanager
    def at(self, ip: InsertionPoint) -> Iterator["OpBuilder"]:
        """Temporarily move the insertion point."""
        saved = self.insertion_point
        self.insertion_point = ip
        try:
            yield self
        finally:
            self.insertion_point = saved

    def insert(self, op: Operation) -> Operation:
        if self.insertion_point is None:
            raise ValueError("builder has no insertion point")
        return self.insertion_point.insert(op)

    def create(
        self,
        name: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[Dict[str, Attribute]] = None,
        regions: Sequence[Region] = (),
    ) -> Operation:
        """Create a (registered or generic) op and insert it."""
        op = create_operation(name, operands, result_types, attributes, regions)
        return self.insert(op)
