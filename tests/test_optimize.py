"""Unit tests for the midend optimizer suite (repro.core.optimize)."""

from repro.core.optimize import (
    CSEPass,
    ConstantFoldPass,
    DCEPass,
    LICMPass,
    optimization_pipeline,
)
import numpy as np

from repro.core import frontend
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.core.stencil import gauss_seidel_5pt_2d
from repro.dialects import arith, math, scf
from repro.ir import ModuleOp, PassManager
from repro.ir.attributes import FloatAttr, IntegerAttr
from repro.ir.builder import OpBuilder
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.types import f64, index
from repro.ir.verifier import verify


def _empty_module():
    module = ModuleOp.create()
    return module, OpBuilder.at_end(module.body)


def _ops(module):
    return [op.name for op in module.body.operations]


def _run(module, pass_):
    PassManager([pass_]).run(module)


class TestStructuralHashing:
    def test_key_equal_for_identical_ops(self):
        module, b = _empty_module()
        x = arith.const_index(b, 7)
        one = arith.const_index(b, 1)
        s1 = arith.addi(b, x, one)
        s2 = arith.addi(b, x, one)
        assert s1.op.structural_key() == s2.op.structural_key()

    def test_key_differs_on_operands_and_attrs(self):
        module, b = _empty_module()
        x = arith.const_index(b, 7)
        y = arith.const_index(b, 8)
        assert x.op.structural_key() != y.op.structural_key()
        assert (
            arith.addi(b, x, y).op.structural_key()
            != arith.addi(b, y, x).op.structural_key()
        )

    def test_deep_hash_and_equivalence_ignore_value_identity(self):
        def build_loop():
            module, b = _empty_module()
            lo = arith.const_index(b, 0)
            hi = arith.const_index(b, 4)
            one = arith.const_index(b, 1)
            loop = scf.ForOp.build(b, lo, hi, one)
            body = OpBuilder.at_end(loop.body)
            arith.addi(body, loop.induction_var, one)
            scf.YieldOp.build(body)
            return module

        m1, m2 = build_loop(), build_loop()
        assert m1.structural_hash() == m2.structural_hash()
        assert m1.is_structurally_equivalent(m2)

    def test_equivalence_detects_difference(self):
        module, b = _empty_module()
        x = arith.const_index(b, 7)
        y = arith.const_index(b, 9)
        assert not x.op.is_structurally_equivalent(y.op)


class TestConstantFold:
    def test_folds_integer_chain(self):
        module, b = _empty_module()
        three = arith.const_index(b, 3)
        four = arith.const_index(b, 4)
        total = arith.addi(b, three, four)
        b.create("test.use", [arith.muli(b, total, total)])
        _run(module, ConstantFoldPass())
        _run(module, DCEPass())
        use = module.body.operations[-1]
        folded = use.operand(0)
        assert folded.op.name == "arith.constant"
        assert folded.op.attributes["value"].value == 49

    def test_folds_float_and_identities(self):
        module, b = _empty_module()
        x = b.create("test.def", result_types=[f64]).result()
        one = arith.ConstantOp.build(b, FloatAttr(1.0, f64)).result()
        b.create("test.use", [arith.mulf(b, x, one)])
        _run(module, ConstantFoldPass())
        use = module.body.operations[-1]
        assert use.operand(0) is x  # x * 1.0 == x, bit-exact

    def test_division_by_zero_not_folded(self):
        module, b = _empty_module()
        ten = arith.const_index(b, 10)
        zero = arith.const_index(b, 0)
        b.create("test.use", [arith.floordivi(b, ten, zero)])
        _run(module, ConstantFoldPass())
        assert "arith.floordivi" in _ops(module)

    def test_select_with_constant_condition(self):
        module, b = _empty_module()
        x = b.create("test.def", result_types=[f64]).result()
        y = b.create("test.def", result_types=[f64]).result()
        cond = arith.ConstantOp.build(b, IntegerAttr(1, index)).result()
        true_attr = arith.CmpIOp.build(b, "eq", cond, cond).result()
        sel = arith.SelectOp.build(b, true_attr, x, y)
        b.create("test.use", [sel.result()])
        _run(module, ConstantFoldPass())
        use = module.body.operations[-1]
        assert use.operand(0) is x


def _exp_divisor_kernel(exponent, opt_level):
    """A 10^2 Gauss-Seidel sweep dividing by ``math.exp(exponent)``."""

    def body(builder, args):
        d = math.ExpOp.build(builder, arith.const_f64(builder, exponent)).result()
        zero = arith.const_f64(builder, 0.0)
        return d, [*args[:-1], zero]

    module = frontend.build_stencil_kernel(gauss_seidel_5pt_2d(), (10, 10), body)
    return StencilCompiler(
        CompileOptions(opt_level=opt_level, use_cache=False)).compile(module)


class TestFoldMatchesTheKernel:
    """A folded literal is the bits the unfolded op computes: libm's
    ``exp``/``log`` are not NumPy's, so they are not folded."""

    def test_exp_divisor_is_bit_identical_between_o0_and_o2(self):
        x = np.random.default_rng(0).standard_normal((1, 10, 10))
        b = np.random.default_rng(1).standard_normal((1, 10, 10))
        (o0,) = _exp_divisor_kernel(4.808353387762301, 0)(x, b, x.copy())
        (o2,) = _exp_divisor_kernel(4.808353387762301, 2)(x, b, x.copy())
        np.testing.assert_array_equal(o0, o2)

    def test_an_overflowing_exp_compiles_at_o2(self):
        x = np.ones((1, 10, 10))
        with np.errstate(over="ignore"):  # exp(1000.0) is inf
            (o0,) = _exp_divisor_kernel(1000.0, 0)(x, x, x.copy())
            (o2,) = _exp_divisor_kernel(1000.0, 2)(x, x, x.copy())
        np.testing.assert_array_equal(o0, o2)

    def test_exp_and_log_of_literals_stay_and_sqrt_folds(self):
        module, b = _empty_module()
        two = arith.const_f64(b, 2.0)
        b.create("test.use", [
            math.ExpOp.build(b, two).result(), math.LogOp.build(b, two).result(),
            math.sqrt(b, two), math.sqrt(b, arith.const_f64(b, -1.0)),
        ])
        _run(module, ConstantFoldPass())
        names = _ops(module)
        assert "math.exp" in names and "math.log" in names
        assert names.count("math.sqrt") == 1  # sqrt(-1.0) raises, so stays


class TestCSE:
    def test_merges_duplicate_pure_ops(self):
        module, b = _empty_module()
        x = arith.const_index(b, 5)
        y = arith.const_index(b, 5)
        s1 = arith.addi(b, x, x)
        s2 = arith.addi(b, x, x)
        b.create("test.use", [s1, s2, y])
        _run(module, CSEPass())
        _run(module, DCEPass())
        names = _ops(module)
        assert names.count("arith.constant") == 1
        assert names.count("arith.addi") == 1
        use = module.body.operations[-1]
        assert use.operand(0) is use.operand(1)

    def test_nested_block_reuses_outer_op(self):
        module, b = _empty_module()
        lo = arith.const_index(b, 0)
        hi = arith.const_index(b, 4)
        one = arith.const_index(b, 1)
        outer_sum = arith.addi(b, hi, one)
        b.create("test.use", [outer_sum])
        loop = scf.ForOp.build(b, lo, hi, one)
        body = OpBuilder.at_end(loop.body)
        inner_sum = arith.addi(body, hi, one)  # same computation inside
        body.create("test.use", [inner_sum])
        scf.YieldOp.build(body)
        _run(module, CSEPass())
        inner_use = [op for op in loop.body.operations if op.name == "test.use"][0]
        assert inner_use.operand(0) is outer_sum
        verify(module)

    def test_sibling_regions_do_not_share(self):
        module, b = _empty_module()
        lo = arith.const_index(b, 0)
        hi = arith.const_index(b, 4)
        one = arith.const_index(b, 1)
        for _ in range(2):
            loop = scf.ForOp.build(b, lo, hi, one)
            body = OpBuilder.at_end(loop.body)
            body.create("test.use", [arith.addi(body, hi, one)])
            scf.YieldOp.build(body)
        _run(module, CSEPass())
        # Each loop body keeps its own addi: neither dominates the other.
        addis = [op for op in module.walk() if op.name == "arith.addi"]
        assert len(addis) == 2


class TestDCE:
    def test_erases_dead_pure_chain(self):
        module, b = _empty_module()
        x = arith.const_index(b, 5)
        dead = arith.addi(b, x, x)
        arith.muli(b, dead, dead)
        live = arith.const_index(b, 7)
        b.create("test.use", [live])
        _run(module, DCEPass())
        assert _ops(module) == ["arith.constant", "test.use"]

    def test_keeps_unknown_ops(self):
        module, b = _empty_module()
        b.create("test.effectful", result_types=[f64])
        _run(module, DCEPass())
        assert _ops(module) == ["test.effectful"]


class TestLICM:
    def _loop_with_body(self):
        module, b = _empty_module()
        lo = arith.const_index(b, 0)
        hi = b.create("test.def", result_types=[index]).result()
        one = arith.const_index(b, 1)
        loop = scf.ForOp.build(b, lo, hi, one)
        body = OpBuilder.at_end(loop.body)
        return module, loop, body, hi, one

    def test_hoists_invariant_chain(self):
        module, loop, body, hi, one = self._loop_with_body()
        inv = arith.addi(body, hi, one)
        inv2 = arith.muli(body, inv, inv)
        body.create("test.use", [inv2, loop.induction_var])
        scf.YieldOp.build(body)
        _run(module, LICMPass())
        assert [op.name for op in loop.body.operations] == ["test.use", "scf.yield"]
        assert "arith.addi" in _ops(module) and "arith.muli" in _ops(module)
        verify(module)

    def test_keeps_variant_ops(self):
        module, loop, body, hi, one = self._loop_with_body()
        variant = arith.addi(body, loop.induction_var, one)
        body.create("test.use", [variant])
        scf.YieldOp.build(body)
        _run(module, LICMPass())
        assert "arith.addi" in [op.name for op in loop.body.operations]

    def test_division_needs_constant_divisor(self):
        module, loop, body, hi, one = self._loop_with_body()
        eight = arith.const_index(body, 8)
        hoistable = arith.floordivi(body, hi, eight)
        trapping = arith.floordivi(body, hi, hi)  # divisor not a constant
        body.create("test.use", [hoistable, trapping, loop.induction_var])
        scf.YieldOp.build(body)
        _run(module, LICMPass())
        body_names = [op.name for op in loop.body.operations]
        assert body_names.count("arith.floordivi") == 1
        assert "arith.floordivi" in _ops(module)

    def test_powf_may_raise_so_stays_while_sqrt_is_hoisted(self):
        module, loop, body, hi, one = self._loop_with_body()
        outer = OpBuilder.before(loop)
        x = outer.create("test.def", result_types=[f64]).result()
        y = outer.create("test.def", result_types=[f64]).result()
        pow_ = math.PowFOp.build(body, x, y).result()  # 0.0 ** -1.0 raises
        root = math.sqrt(body, x)
        body.create("test.use", [pow_, root, loop.induction_var])
        scf.YieldOp.build(body)
        _run(module, LICMPass())
        body_names = [op.name for op in loop.body.operations]
        assert "math.powf" in body_names and "math.sqrt" not in body_names
        assert "math.sqrt" in _ops(module)
        verify(module)


class TestPipelineIntegration:
    def test_levels(self):
        assert optimization_pipeline(0) == []
        assert [p.name for p in optimization_pipeline(1)] == [
            "constant-fold",
            "dce",
        ]
        assert [p.name for p in optimization_pipeline(2)] == [
            "constant-fold",
            "cse",
            "licm",
            "cse",
            "dce",
        ]

    def test_describe_includes_level(self):
        from repro.core.pipeline import CompileOptions

        assert ",O2" in CompileOptions().describe()
        assert ",O0" in CompileOptions(opt_level=0).describe()

    def test_optimized_module_round_trips(self):
        from repro.core import frontend
        from repro.core.pipeline import CompileOptions, StencilCompiler
        from repro.core.stencil import gauss_seidel_5pt_2d

        module = frontend.build_stencil_kernel(
            gauss_seidel_5pt_2d(), (16, 16), frontend.identity_body(4.0)
        )
        StencilCompiler(
            CompileOptions(subdomain_sizes=(8, 8), tile_sizes=(4, 4),
                           fuse=True, parallel=True, vectorize=4)
        ).lower(module)
        text = print_module(module)
        assert print_module(parse_module(text)) == text

    def test_optimizer_shrinks_emitted_source(self):
        from repro.codegen.python_backend import emit_module
        from repro.core import frontend
        from repro.core.pipeline import CompileOptions, StencilCompiler
        from repro.core.stencil import gauss_seidel_5pt_2d

        def emit(opt_level):
            module = frontend.build_stencil_kernel(
                gauss_seidel_5pt_2d(), (16, 16), frontend.identity_body(4.0)
            )
            StencilCompiler(
                CompileOptions(subdomain_sizes=(8, 8), vectorize=4,
                               opt_level=opt_level)
            ).lower(module)
            return emit_module(module)

        assert len(emit(2).splitlines()) < len(emit(0).splitlines())
