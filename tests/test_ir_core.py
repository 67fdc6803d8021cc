"""Unit tests for operations, blocks, regions, builder, use-def chains."""

import pytest

from repro.ir.attributes import FloatAttr, StringAttr
from repro.ir.block import Block, Region, single_block_region
from repro.ir.builder import InsertionPoint, OpBuilder
from repro.ir.module import ModuleOp
from repro.ir.operation import Operation, OpRegistry, create_operation
from repro.ir.types import f64, index
from repro.ir.values import BlockArgument, OpResult


def _make_add(builder, lhs, rhs):
    return builder.create("arith.addf", [lhs, rhs], [f64])


class TestOperationBasics:
    def test_results_are_typed_and_indexed(self):
        op = create_operation("test.op", result_types=[f64, index])
        assert op.num_results == 2
        assert isinstance(op.result(0), OpResult)
        assert op.result(0).type == f64
        assert op.result(1).type == index
        assert op.result(1).index == 1

    def test_operand_use_tracking(self):
        a = create_operation("test.def", result_types=[f64])
        b = create_operation("test.use", operands=[a.result(), a.result()])
        assert a.result().num_uses == 2
        assert a.result().users() == [b]

    def test_set_operand_updates_uses(self):
        a = create_operation("test.def", result_types=[f64])
        c = create_operation("test.def2", result_types=[f64])
        b = create_operation("test.use", operands=[a.result()])
        b.set_operand(0, c.result())
        assert not a.result().has_uses
        assert c.result().num_uses == 1

    def test_replace_all_uses_with(self):
        a = create_operation("test.def", result_types=[f64])
        c = create_operation("test.def2", result_types=[f64])
        u1 = create_operation("test.u1", operands=[a.result()])
        u2 = create_operation("test.u2", operands=[a.result(), a.result()])
        a.result().replace_all_uses_with(c.result())
        assert not a.result().has_uses
        assert c.result().num_uses == 3
        assert u1.operand(0) is c.result()
        assert u2.operand(1) is c.result()

    def test_erase_requires_no_uses(self):
        a = create_operation("test.def", result_types=[f64])
        create_operation("test.use", operands=[a.result()])
        block = Block()
        # a is not in a block; insert it so erase has something to remove.
        block.append(a)
        with pytest.raises(ValueError):
            a.erase()

    def test_erase_drops_operand_uses(self):
        block = Block()
        a = block.append(create_operation("test.def", result_types=[f64]))
        b = block.append(create_operation("test.use", operands=[a.result()]))
        b.erase()
        assert not a.result().has_uses
        assert len(block) == 1

    def test_non_value_operand_rejected(self):
        with pytest.raises(TypeError):
            create_operation("test.op", operands=[3.14])  # type: ignore[list-item]


class TestBlocksAndRegions:
    def test_block_arguments(self):
        block = Block(arg_types=[f64, index])
        assert len(block.arguments) == 2
        assert isinstance(block.arguments[0], BlockArgument)
        assert block.arguments[1].type == index
        extra = block.add_argument(f64)
        assert extra.index == 2

    def test_erase_unused_argument_renumbers(self):
        block = Block(arg_types=[f64, f64, f64])
        block.erase_argument(1)
        assert [a.index for a in block.arguments] == [0, 1]

    def test_erase_used_argument_rejected(self):
        block = Block(arg_types=[f64])
        create_operation("test.use", operands=[block.arguments[0]])
        with pytest.raises(ValueError):
            block.erase_argument(0)

    def test_insert_before_after(self):
        block = Block()
        a = block.append(create_operation("test.a"))
        c = block.append(create_operation("test.c"))
        b = create_operation("test.b")
        block.insert_before(c, b)
        assert [op.name for op in block] == ["test.a", "test.b", "test.c"]
        d = create_operation("test.d")
        block.insert_after(a, d)
        assert [op.name for op in block] == [
            "test.a",
            "test.d",
            "test.b",
            "test.c",
        ]

    def test_op_cannot_be_in_two_blocks(self):
        b1, b2 = Block(), Block()
        op = b1.append(create_operation("test.a"))
        with pytest.raises(ValueError):
            b2.append(op)

    def test_region_structure(self):
        region = single_block_region(arg_types=[f64])
        op = create_operation("test.with_region", regions=[region])
        assert op.region(0).entry_block.arguments[0].type == f64
        assert region.parent is op
        assert region.entry_block.parent is region

    def test_parent_op_chain(self):
        module = ModuleOp.create()
        inner = module.body.append(
            create_operation("test.inner", regions=[single_block_region()])
        )
        leaf = inner.region(0).entry_block.append(create_operation("test.leaf"))
        assert leaf.parent_op() is inner
        assert inner.parent_op() is module
        assert module.is_ancestor_of(leaf)
        assert not leaf.is_ancestor_of(module)

    def test_walk_is_preorder(self):
        module = ModuleOp.create()
        a = module.body.append(
            create_operation("test.a", regions=[single_block_region()])
        )
        a.region(0).entry_block.append(create_operation("test.nested"))
        module.body.append(create_operation("test.b"))
        names = [op.name for op in module.walk()]
        assert names == ["builtin.module", "test.a", "test.nested", "test.b"]


class TestBuilder:
    def test_builds_in_order(self):
        block = Block(arg_types=[f64, f64])
        builder = OpBuilder.at_end(block)
        x, y = block.arguments
        s = _make_add(builder, x, y)
        t = _make_add(builder, s.result(), y)
        assert [op.name for op in block] == ["arith.addf", "arith.addf"]
        assert t.operand(0) is s.result()

    def test_insertion_before_anchor(self):
        block = Block()
        last = block.append(create_operation("test.last"))
        builder = OpBuilder.before(last)
        builder.create("test.first")
        builder.create("test.second")
        assert [op.name for op in block] == [
            "test.first",
            "test.second",
            "test.last",
        ]

    def test_anchored_point_finds_its_op_at_the_first_insert(self):
        """A point made before (after) an op, with other ops inserted ahead
        of it since, still inserts directly before (after) that op."""
        block = Block()
        last = block.append(create_operation("test.last"))
        before, after = InsertionPoint.before(last), InsertionPoint.after(last)
        OpBuilder.at_start(block).create("test.early")
        OpBuilder(before).create("test.before")
        OpBuilder(after).create("test.after")
        OpBuilder(after).create("test.after2")
        assert [op.name for op in block] == [
            "test.early", "test.before", "test.last", "test.after", "test.after2",
        ]

    def test_at_context_manager_restores(self):
        b1, b2 = Block(), Block()
        builder = OpBuilder.at_end(b1)
        with builder.at(InsertionPoint.at_end(b2)):
            builder.create("test.inner")
        builder.create("test.outer")
        assert [op.name for op in b1] == ["test.outer"]
        assert [op.name for op in b2] == ["test.inner"]

    def test_builder_without_ip_raises(self):
        with pytest.raises(ValueError):
            OpBuilder().create("test.x")


class TestClone:
    def test_clone_remaps_nested_values(self):
        module = ModuleOp.create()
        builder = OpBuilder.at_end(module.body)
        outer = builder.create(
            "test.outer",
            result_types=[f64],
            regions=[single_block_region(arg_types=[f64])],
        )
        inner_block = outer.region(0).entry_block
        inner_builder = OpBuilder.at_end(inner_block)
        add = _make_add(
            inner_builder, inner_block.arguments[0], inner_block.arguments[0]
        )
        clone = outer.clone()
        cloned_add = clone.region(0).entry_block.operations[0]
        assert cloned_add is not add
        assert cloned_add.operand(0) is clone.region(0).entry_block.arguments[0]
        # The original is untouched.
        assert add.operand(0) is inner_block.arguments[0]

    def test_clone_remaps_free_operands_through_map(self):
        ext = create_operation("test.def", result_types=[f64])
        repl = create_operation("test.def2", result_types=[f64])
        user = create_operation("test.use", operands=[ext.result()])
        clone = user.clone({ext.result(): repl.result()})
        assert clone.operand(0) is repl.result()
        assert user.operand(0) is ext.result()

    def test_clone_preserves_attributes(self):
        op = create_operation(
            "test.op", attributes={"name": StringAttr("k"), "v": FloatAttr(2.0)}
        )
        clone = op.clone()
        assert clone.attributes == op.attributes
        assert clone.attributes is not op.attributes


class TestModule:
    def test_lookup_symbol(self):
        module = ModuleOp.create()
        f = module.body.append(
            create_operation(
                "func.func", attributes={"sym_name": StringAttr("main")}
            )
        )
        assert module.lookup_symbol("main") is f
        assert module.lookup_symbol("missing") is None

    def test_registry_returns_module_class(self):
        assert OpRegistry.lookup("builtin.module") is ModuleOp
        op = create_operation("builtin.module", regions=[single_block_region()])
        assert isinstance(op, ModuleOp)
