"""Operations: the single unit of semantics in the IR.

Every operation has a dotted name (``dialect.mnemonic``), a list of SSA
operands, a list of typed results, a dictionary of attributes and a list of
regions. Dialects *register* operation subclasses against
:class:`OpRegistry` so the parser and generic passes can construct the
right class from a name; unregistered names fall back to the generic
:class:`Operation`, exactly like MLIR's unregistered-op mechanism.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Type as PyType

from repro.ir.attributes import Attribute
from repro.ir.types import Type
from repro.ir.values import OpResult, Use, Value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ir.block import Block, Region


class OpRegistry:
    """Global name -> operation-class registry populated by dialects."""

    _ops: Dict[str, PyType["Operation"]] = {}

    @classmethod
    def register(cls, op_class: PyType["Operation"]) -> None:
        name = getattr(op_class, "OP_NAME", None)
        if not name:
            raise ValueError(f"{op_class.__name__} lacks an OP_NAME")
        existing = cls._ops.get(name)
        if existing is not None and existing is not op_class:
            raise ValueError(f"operation {name!r} registered twice")
        cls._ops[name] = op_class

    @classmethod
    def lookup(cls, name: str) -> Optional[PyType["Operation"]]:
        return cls._ops.get(name)

    @classmethod
    def registered_names(cls) -> List[str]:
        return sorted(cls._ops)


def register_op(op_class: PyType["Operation"]) -> PyType["Operation"]:
    """Class decorator registering an operation with :class:`OpRegistry`."""
    OpRegistry.register(op_class)
    return op_class


class Operation:
    """A generic operation; dialect ops subclass this with ``OP_NAME`` set.

    Subclasses may override :meth:`verify_` for op-specific invariants and
    usually provide a ``build(...)`` classmethod for ergonomic creation.
    """

    #: Dotted operation name, e.g. ``arith.addf``; set by subclasses.
    OP_NAME: str = ""

    def __init__(
        self,
        name: Optional[str] = None,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[Dict[str, Attribute]] = None,
        regions: Sequence["Region"] = (),
    ) -> None:
        self.name = name or self.OP_NAME
        if not self.name:
            raise ValueError("operation needs a name")
        self._operands: List[Value] = []
        self.results: List[OpResult] = [
            OpResult(t, self, i) for i, t in enumerate(result_types)
        ]
        self.attributes: Dict[str, Attribute] = dict(attributes or {})
        self.regions: List["Region"] = []
        #: The block containing this operation, if inserted.
        self.parent: Optional["Block"] = None
        for operand in operands:
            self.append_operand(operand)
        for region in regions:
            self.append_region(region)

    # ---- operands -------------------------------------------------------

    @property
    def operands(self) -> List[Value]:
        return list(self._operands)

    @property
    def num_operands(self) -> int:
        return len(self._operands)

    def operand(self, i: int) -> Value:
        return self._operands[i]

    def append_operand(self, value: Value) -> None:
        if not isinstance(value, Value):
            raise TypeError(f"operand of {self.name} is {value!r}, not a Value")
        self._operands.append(value)
        value.uses.append(Use(self, len(self._operands) - 1))

    def set_operand(self, i: int, value: Value) -> None:
        old = self._operands[i]
        old.uses[:] = [
            u for u in old.uses if not (u.owner is self and u.operand_index == i)
        ]
        self._operands[i] = value
        value.uses.append(Use(self, i))

    def set_operands(self, values: Sequence[Value]) -> None:
        self._drop_all_operand_uses()
        self._operands = []
        for v in values:
            self.append_operand(v)

    def _drop_all_operand_uses(self) -> None:
        for i, operand in enumerate(self._operands):
            operand.uses[:] = [
                u
                for u in operand.uses
                if not (u.owner is self and u.operand_index == i)
            ]

    # ---- results --------------------------------------------------------

    @property
    def num_results(self) -> int:
        return len(self.results)

    def result(self, i: int = 0) -> OpResult:
        return self.results[i]

    # ---- regions --------------------------------------------------------

    def append_region(self, region: "Region") -> None:
        region.parent = self
        self.regions.append(region)

    def region(self, i: int = 0) -> "Region":
        return self.regions[i]

    # ---- structure ------------------------------------------------------

    def parent_op(self) -> Optional["Operation"]:
        """The operation owning the region containing this op."""
        if self.parent is None or self.parent.parent is None:
            return None
        return self.parent.parent.parent

    def is_ancestor_of(self, other: "Operation") -> bool:
        op: Optional["Operation"] = other
        while op is not None:
            if op is self:
                return True
            op = op.parent_op()
        return False

    def walk(self) -> Iterator["Operation"]:
        """Pre-order traversal of this op and everything nested under it."""
        yield self
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.operations):
                    yield from op.walk()

    def erase(self) -> None:
        """Remove from the parent block and drop operand uses.

        The op must have no remaining uses of its results.
        """
        for res in self.results:
            if res.has_uses:
                raise ValueError(
                    f"cannot erase {self.name}: result #{res.index} still has uses"
                )
        self._drop_all_operand_uses()
        if self.parent is not None:
            self.parent.remove_op(self)

    def drop_all_uses_and_erase(self) -> None:
        """Erase even if results are used (users must be erased separately)."""
        for res in self.results:
            res.uses.clear()
        self._drop_all_operand_uses()
        if self.parent is not None:
            self.parent.remove_op(self)

    def clone(self, value_map: Optional[Dict[Value, Value]] = None) -> "Operation":
        """Deep-copy this operation.

        ``value_map`` maps old values to their replacements; operands found
        in the map are remapped, results and block arguments of the clone
        are entered into the map so nested uses resolve correctly.
        """
        from repro.ir.block import Block, Region

        value_map = value_map if value_map is not None else {}
        operands = [value_map.get(o, o) for o in self._operands]
        cls = type(self)
        new = Operation.__new__(cls)
        Operation.__init__(
            new,
            name=self.name,
            operands=operands,
            result_types=[r.type for r in self.results],
            attributes=dict(self.attributes),
        )
        for old_res, new_res in zip(self.results, new.results):
            new_res.name_hint = old_res.name_hint
            value_map[old_res] = new_res
        for region in self.regions:
            new_region = Region()
            for block in region.blocks:
                new_block = Block(arg_types=[a.type for a in block.arguments])
                for old_arg, new_arg in zip(block.arguments, new_block.arguments):
                    new_arg.name_hint = old_arg.name_hint
                    value_map[old_arg] = new_arg
                new_region.append_block(new_block)
            for block, new_block in zip(region.blocks, new_region.blocks):
                for op in block.operations:
                    new_block.append(op.clone(value_map))
            new.append_region(new_region)
        return new

    # ---- structural hashing / equivalence --------------------------------

    def structural_key(self) -> tuple:
        """A hashable key capturing this op's *shallow* structure.

        Two region-free operations with equal keys compute the same value
        whenever they are side-effect free: the key covers the op name,
        the identities of the operands, the attribute dictionary and the
        result types. This is what the CSE pass hashes on.
        """
        return (
            self.name,
            tuple(id(o) for o in self._operands),
            tuple(sorted(self.attributes.items(), key=lambda kv: kv[0])),
            tuple(self.results[i].type for i in range(len(self.results))),
            len(self.regions),
        )

    def structural_hash(self) -> int:
        """A deep structural hash: insensitive to SSA value identity.

        Values are numbered by first occurrence (operands defined outside
        this op hash by position of first use), so two independently built
        but isomorphic subtrees hash equal. Collisions are possible, as
        with any hash; use :meth:`is_structurally_equivalent` to confirm.
        """
        numbering: Dict[int, int] = {}

        def value_num(v: Value) -> int:
            return numbering.setdefault(id(v), len(numbering))

        parts: List[object] = []

        def visit(op: "Operation") -> None:
            parts.append(op.name)
            parts.append(tuple(value_num(o) for o in op._operands))
            parts.append(tuple(sorted(op.attributes.items(), key=lambda kv: kv[0])))
            parts.append(tuple(r.type for r in op.results))
            for r in op.results:
                value_num(r)
            for region in op.regions:
                parts.append("region")
                for block in region.blocks:
                    parts.append(tuple(a.type for a in block.arguments))
                    for a in block.arguments:
                        value_num(a)
                    for inner in block.operations:
                        visit(inner)

        visit(self)
        return hash(tuple(parts))

    def is_structurally_equivalent(
        self, other: "Operation", value_map: Optional[Dict[Value, Value]] = None
    ) -> bool:
        """Deep structural equality up to SSA value renaming.

        ``value_map`` carries the correspondence of already-matched values
        (e.g. function arguments); it is extended with this op's results
        and nested block arguments as matching proceeds. Operands defined
        *outside* the compared ops must be identical (or already mapped).
        """
        value_map = value_map if value_map is not None else {}
        if (
            self.name != other.name
            or self.num_operands != other.num_operands
            or self.num_results != other.num_results
            or len(self.regions) != len(other.regions)
            or self.attributes != other.attributes
        ):
            return False
        for mine, theirs in zip(self._operands, other._operands):
            if value_map.get(mine, mine) is not theirs:
                return False
        for mine_r, theirs_r in zip(self.results, other.results):
            if mine_r.type != theirs_r.type:
                return False
            value_map[mine_r] = theirs_r
        for my_region, other_region in zip(self.regions, other.regions):
            if len(my_region.blocks) != len(other_region.blocks):
                return False
            for my_block, other_block in zip(my_region.blocks, other_region.blocks):
                if len(my_block.arguments) != len(other_block.arguments):
                    return False
                if len(my_block.operations) != len(other_block.operations):
                    return False
                for a, b in zip(my_block.arguments, other_block.arguments):
                    if a.type != b.type:
                        return False
                    value_map[a] = b
                for my_op, other_op in zip(my_block.operations, other_block.operations):
                    if not my_op.is_structurally_equivalent(other_op, value_map):
                        return False
        return True

    # ---- verification ---------------------------------------------------

    def verify_(self) -> None:
        """Op-specific invariants; overridden by dialect operations."""

    # ---- display --------------------------------------------------------

    def __repr__(self) -> str:
        res = ", ".join(str(r.type) for r in self.results)
        return f"<{self.name} -> ({res})>"


def create_operation(
    name: str,
    operands: Sequence[Value] = (),
    result_types: Sequence[Type] = (),
    attributes: Optional[Dict[str, Attribute]] = None,
    regions: Sequence["Region"] = (),
) -> Operation:
    """Create an op of the registered class for ``name`` (generic fallback)."""
    cls = OpRegistry.lookup(name) or Operation
    op = Operation.__new__(cls)
    Operation.__init__(op, name, operands, result_types, attributes, regions)
    return op
