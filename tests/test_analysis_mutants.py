"""The seeded-mutant corpus: the acceptance gate of the analyzer.

Mutants spanning the corruption families of the issues — illegal tile
sizes, wrong sweep order/direction, corrupted CSR wavefronts,
declared-vs-derived mismatches, a lowering-bug stand-in, out-of-bounds
accesses (shrunk allocation, off-by-one halo, widened stencil offset)
and uninitialized reads. The analyzer must detect 100% of them, each
with its stable ``IP0xx`` code, while producing zero diagnostics on the
unmutated pipelines (checked both here and in
``test_analysis_pipeline``)."""

import pytest

from repro.analysis import analyze_module, check_csr_schedule
from repro.analysis.tv import TranslationValidator
from repro.cfdlib.heat import build_heat3d_module
from repro.analysis.dependence import (
    compare_access_sets,
    extract_loop_access_set,
    pattern_access_set,
)
from repro.core import frontend
from repro.core.bufferization import BufferizePass
from repro.core.fusion import FuseProducersPass
from repro.core.lowering import LowerStencilsPass
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.core.tiling import TileStencilsPass
from repro.core.scheduling import compute_parallel_blocks
from repro.core.stencil import gauss_seidel_5pt_2d, gauss_seidel_9pt_2d
from repro.dialects import arith, memref
from repro.ir import OpBuilder
from repro.ir.attributes import BoolAttr, DenseIntElementsAttr, IntegerAttr
from repro.ir.types import MemRefType, f64


def _frontend_module(make=gauss_seidel_5pt_2d):
    return frontend.build_stencil_kernel(
        make(), (24, 24), frontend.identity_body(4.0)
    )


def _lowered_module(make=gauss_seidel_5pt_2d, subdomains=(12, 12)):
    module = _frontend_module(make)
    options = CompileOptions(
        subdomain_sizes=subdomains, parallel=True, vectorize=0, use_cache=False
    )
    StencilCompiler(options).lower(module)
    return module


def _only(module, name):
    ops = [op for op in module.walk() if op.name == name]
    assert ops, f"no {name} in module"
    return ops[0]


def _error_codes(module):
    return sorted(
        {d.code for d in analyze_module(module).diagnostics if d.is_error}
    )


# --- family 1: wrong sweep order / traversal direction ---------------------


def mutant_sweep_flipped():
    module = _frontend_module()
    _only(module, "cfd.stencilOp").attributes["sweep"] = IntegerAttr(-1)
    return _error_codes(module), "IP001"


def mutant_sweep_invalid_value():
    module = _frontend_module()
    _only(module, "cfd.stencilOp").attributes["sweep"] = IntegerAttr(2)
    return _error_codes(module), "IP001"


def mutant_center_tagged_l():
    module = _frontend_module()
    op = _only(module, "cfd.stencilOp")
    box = op.attributes["stencil"].to_nested_lists()
    box[1][1] = -1  # the update now reads the cell it writes
    op.attributes["stencil"] = DenseIntElementsAttr(box)
    return _error_codes(module), "IP001"


def mutant_loop_reverse_flipped():
    module = _lowered_module()
    loop = _only(module, "cfd.tiled_loop")
    loop.attributes["reverse"] = BoolAttr(not loop.reverse)
    return _error_codes(module), "IP001"


# --- family 2: illegal tile sizes ------------------------------------------


def mutant_step_unpinned_9pt():
    module = _lowered_module(gauss_seidel_9pt_2d)
    loop = _only(module, "cfd.tiled_loop")
    builder = OpBuilder.before(loop)
    loop.set_operand(4, arith.const_index(builder, 4))  # steps[0]: 1 -> 4
    return _error_codes(module), "IP002"


def mutant_stencil_widened_behind_tiles():
    # The loop was tiled for the 5pt pattern; sneak the 9pt L pattern
    # (with its (-1, 1) offset) into the stamped attributes, as a buggy
    # rewrite changing a pattern after tiling would.
    module = _lowered_module(gauss_seidel_5pt_2d, subdomains=(12, 12))
    loop = _only(module, "cfd.tiled_loop")
    loop.attributes["stencil"] = DenseIntElementsAttr(
        [[-1, -1, -1], [-1, 0, 1], [1, 1, 1]]
    )
    return _error_codes(module), "IP002"


# --- family 3: corrupted CSR wavefronts ------------------------------------

_NB = (3, 3)
_DEPS = [(-1, 0), (0, -1)]


def _csr():
    offsets, indices = compute_parallel_blocks(_NB, _DEPS)
    return list(offsets), list(indices)


def _csr_codes(offsets, indices):
    diags = check_csr_schedule(_NB, _DEPS, offsets, indices)
    return sorted({d.code for d in diags if d.is_error})


def mutant_csr_groups_merged():
    offsets, indices = _csr()
    del offsets[1]
    return _csr_codes(offsets, indices), "IP004"


def mutant_csr_swapped_across_groups():
    offsets, indices = _csr()
    i, j = offsets[1], offsets[2]  # first entry of group 1 and of group 2
    indices[i], indices[j] = indices[j], indices[i]
    codes = _csr_codes(offsets, indices)
    # The dependent moved before its predecessor: flagged as a same-group
    # race or an order inversion depending on which neighbor moved.
    return codes, ("IP004", "IP007")


def mutant_csr_dropped_subdomain():
    offsets, indices = _csr()
    del indices[-1]
    offsets = [min(o, len(indices)) for o in offsets]
    return _csr_codes(offsets, indices), "IP005"


def mutant_csr_duplicated_subdomain():
    offsets, indices = _csr()
    indices.append(indices[0])
    offsets[-1] += 1
    return _csr_codes(offsets, indices), "IP006"


def mutant_csr_out_of_range():
    offsets, indices = _csr()
    indices[0] = 42
    return _csr_codes(offsets, indices), "IP009"


def mutant_get_parallel_blocks_understated():
    module = _lowered_module()
    gp = _only(module, "cfd.get_parallel_blocks")
    gp.attributes["block_stencil"] = DenseIntElementsAttr(
        [[0, 0, 0], [-1, 0, 0], [0, 0, 0]]
    )
    return _error_codes(module), "IP008"


# --- family 4: a lowering bug (dependence cross-check) ---------------------


def mutant_lowered_read_shifted():
    module = _frontend_module()
    op = _only(module, "cfd.stencilOp")
    expected = pattern_access_set(op)
    LowerStencilsPass().run(module)
    for nest_op in module.walk():
        if nest_op.name != "arith.addi":
            continue
        rhs = nest_op.operand(1)
        if (
            rhs.op.name == "arith.constant"
            and rhs.op.attributes["value"].value == -1
        ):
            builder = OpBuilder.before(nest_op)
            nest_op.set_operand(1, arith.const_index(builder, -2))
            break
    actual = extract_loop_access_set(module)
    diags = compare_access_sets(expected, actual)
    return sorted({d.code for d in diags if d.is_error}), "IP003"


# --- family 5: out-of-bounds accesses (the absint bounds client) -----------


def mutant_oob_shrunk_allocation():
    # Shrink the x-window slice by one row: the stencil's +1 halo row is
    # still read by the sweep, but the window no longer holds it.
    module = _lowered_module()
    window = _only(module, "tensor.extract_slice")
    builder = OpBuilder.before(window)
    shrunk = arith.subi(
        builder, window.operand(5), arith.const_index(builder, 1)
    )
    window.set_operand(5, shrunk)
    return _error_codes(module), "IP011"


def mutant_oob_off_by_one_halo():
    # Drop the halo from the window's lower bound (iv - 1 becomes iv - 0):
    # the sweep's core start stays put, so its -1 reads land at local
    # index -1.
    module = _lowered_module()
    for op in module.walk():
        if op.name != "arith.subi":
            continue
        rhs = op.operand(1)
        if (
            rhs.op is not None
            and rhs.op.name == "arith.constant"
            and rhs.op.attributes["value"].value == 1
            and any(u.name == "arith.maxsi" for u in op.result().users())
        ):
            builder = OpBuilder.before(op)
            op.set_operand(1, arith.const_index(builder, 0))
            break
    return _error_codes(module), "IP011"


def mutant_oob_widened_stencil_offset():
    # Same corruption as mutant_lowered_read_shifted (-1 read becomes -2),
    # but caught by the interval engine as an out-of-bounds proof failure
    # rather than by the dependence cross-check: the sweep starts at row 1,
    # so the widened offset reads row -1.
    module = _frontend_module()
    LowerStencilsPass().run(module)
    for op in module.walk():
        if op.name != "arith.addi":
            continue
        rhs = op.operand(1)
        if (
            rhs.op is not None
            and rhs.op.name == "arith.constant"
            and rhs.op.attributes["value"].value == -1
        ):
            builder = OpBuilder.before(op)
            op.set_operand(1, arith.const_index(builder, -2))
            break
    return _error_codes(module), "IP011"


# --- family 5b: affine-specific miscompiles --------------------------------
#
# Corruption shapes chosen to stress exactly the places a buggy affine
# translation would get wrong — an inequality bound off by one, a dropped
# stride constraint, swapped coefficients in the access map. Each asserts
# that the symbolic engine AND the enumerated oracle both flag it: a bug
# in either engine (or a silent divergence between them) fails the test.


def _error_codes_both_engines(module):
    """Error codes agreed on by the symbolic and enumerated engines."""
    per_engine = {
        eng: sorted({
            d.code
            for d in analyze_module(module, engine=eng).diagnostics
            if d.is_error
        })
        for eng in ("symbolic", "enumerated")
    }
    for eng, codes in per_engine.items():
        assert codes, f"{eng} engine missed the miscompile"
    return sorted(set(per_engine["symbolic"]) & set(per_engine["enumerated"]))


def mutant_affine_off_by_one_bound():
    # Drop the -1 from a sweep loop's upper bound (24-1 becomes 24): the
    # +1 halo read of the last iteration lands exactly one row past the
    # window — the boundary a `<` vs `<=` slip in the affine inequality
    # translation would miss.
    module = _frontend_module()
    LowerStencilsPass().run(module)
    for op in module.walk():
        if op.name == "scf.for":
            ub = op.operand(1)
            if ub.op is not None and ub.op.name == "arith.subi":
                op.set_operand(1, ub.op.operand(0))
                break
    return _error_codes_both_engines(module), "IP011"


def mutant_affine_dropped_stride():
    # Double the innermost sweep step: every other column is never
    # written. Only an engine that models the stride constraint of the
    # written progression (not just its hull) can see the gap.
    results = []
    for eng in ("symbolic", "enumerated"):
        module = _frontend_module()
        tv = TranslationValidator(fail_fast=False, engine=eng)
        tv.begin(module)
        LowerStencilsPass().run(module)
        inner = [op for op in module.walk() if op.name == "scf.for"][-1]
        builder = OpBuilder.before(inner)
        inner.set_operand(2, arith.const_index(builder, 2))
        tv.after_pass(module, "lower-stencils")
        codes = _tv_codes(tv)
        assert codes, f"{eng} engine missed the dropped stride"
        results.append(set(codes))
    return sorted(results[0] & results[1]), "TV003"


def mutant_affine_swapped_coefficient():
    # Swap the two space offsets of a sub-domain window on an asymmetric
    # 8x12 tiling: the access map's coefficient columns are exchanged, so
    # later windows land transposed and escape the domain — invisible to
    # any check that treats the dimensions symmetrically.
    module = _frontend_module()
    options = CompileOptions(
        subdomain_sizes=(8, 12), parallel=True, vectorize=0, use_cache=False
    )
    StencilCompiler(options).lower(module)
    window = _only(module, "tensor.extract_slice")
    a, b = window.operand(2), window.operand(3)
    window.set_operand(2, b)
    window.set_operand(3, a)
    return _error_codes_both_engines(module), "IP012"


# --- family 6: uninitialized reads -----------------------------------------


def _bufferized_module():
    module = _frontend_module()
    LowerStencilsPass().run(module)
    BufferizePass().run(module)
    return module


def mutant_uninit_partially_written():
    # Erase the copy-on-write seeding the insert's destination buffer:
    # the only remaining write is the single-point store, so the
    # full-extent copy out of it reads uninitialized interior.
    module = _bufferized_module()
    for op in list(module.walk()):
        if op.name != "memref.copy":
            continue
        dst = op.operand(1)
        if (
            dst.op is not None
            and dst.op.name == "memref.alloc"
            and any(u.name == "memref.store" for u in dst.users())
        ):
            op.erase()
            break
    return _error_codes(module), "IP013"


def mutant_uninit_never_written():
    # A read of a fresh allocation that no write can ever precede.
    module = _bufferized_module()
    ret = _only(module, "func.return")
    builder = OpBuilder.before(ret)
    buf = memref.AllocOp.build(builder, MemRefType((4, 4), f64)).result()
    memref.LoadOp.build(
        builder,
        buf,
        [arith.const_index(builder, 1), arith.const_index(builder, 2)],
    )
    return _error_codes(module), "IP013"


# --- family 7: miscompiles caught by translation validation ----------------
#
# These corruptions leave the IR structurally valid and (mostly) pass the
# semantic lint: each one silently reorders or drops statement instances,
# which only the per-pass dependence-preservation check can see. Every
# mutant returns the TV codes from the validator's collected report, and
# each violation carries a concrete witness (two statement instances with
# their timestamps) naming the offending pass.


def _tv_codes(tv):
    return sorted(
        {d.code for d in tv.report.diagnostics if d.severity == "error"}
    )


def mutant_tv_tile_order_reversed():
    # Flip the tile traversal direction after tiling: the forward
    # Gauss-Seidel dependences now point against the tile order.
    module = _frontend_module()
    tv = TranslationValidator(fail_fast=False)
    tv.begin(module)
    TileStencilsPass((12, 12), with_groups=False, level=0).run(module)
    loop = _only(module, "cfd.tiled_loop")
    loop.attributes["reverse"] = BoolAttr(not loop.reverse)
    tv.after_pass(module, "tile-stencils")
    return _tv_codes(tv), "TV001"


def mutant_tv_fusion_halo_dropped():
    # Shrink the fused producer's computed window by one plane: the
    # consumer stencil still reads the halo cell the producer no longer
    # recomputes per tile.
    module = build_heat3d_module(12, 1)
    tv = TranslationValidator(fail_fast=False)
    tv.begin(module)
    TileStencilsPass((5, 5, 5), level=0).run(module)
    FuseProducersPass().run(module)
    loop = _only(module, "cfd.tiled_loop")
    inner = next(
        op for op in loop.walk() if op.name == "cfd.stencilOp"
    )
    producer = inner.b.op  # the fused laplacian generic
    assert producer.name == "linalg.generic"
    out_init = producer.operand(producer.num_ins).op  # zero-seeding fill
    out_slice = out_init.init.op  # the per-tile window slice
    assert out_slice.name == "tensor.extract_slice"
    last_size = out_slice.num_operands - 1
    builder = OpBuilder.before(out_slice)
    shrunk = arith.subi(
        builder, out_slice.operand(last_size), arith.const_index(builder, 1)
    )
    out_slice.set_operand(last_size, shrunk)
    tv.after_pass(module, "fuse-structured-ops")
    return _tv_codes(tv), "TV004"


def mutant_tv_wavefront_merged_early():
    # Understate the inter-tile dependences the wavefront schedule was
    # built from: the replayed groups now run dependent tiles
    # concurrently.
    module = _frontend_module()
    tv = TranslationValidator(fail_fast=False)
    tv.begin(module)
    TileStencilsPass((12, 12), with_groups=True, level=0).run(module)
    gp = _only(module, "cfd.get_parallel_blocks")
    gp.attributes["block_stencil"] = DenseIntElementsAttr(
        [[0, 0, 0], [-1, 0, 0], [0, 0, 0]]  # drops the (0, -1) dependence
    )
    tv.after_pass(module, "tile-stencils")
    return _tv_codes(tv), "TV002"


def mutant_tv_loop_interchange():
    # Transpose the store coordinates in the lowered nest, simulating a
    # loop interchange: legal for the symmetric 5-point pattern, but the
    # 9-point kernel's (-1, 1) dependence crosses the new order.
    module = _frontend_module(gauss_seidel_9pt_2d)
    tv = TranslationValidator(fail_fast=False)
    tv.begin(module)
    LowerStencilsPass().run(module)
    for op in list(module.walk()):
        if op.name == "tensor.insert":
            i, j = op.operand(3), op.operand(4)
            op.set_operand(3, j)
            op.set_operand(4, i)
    tv.after_pass(module, "lower-stencils")
    return _tv_codes(tv), "TV001"


def mutant_tv_dce_live_store():
    # An over-eager DCE stand-in: forward the insert's destination past
    # the insert and erase it, dropping every write of the sweep.
    module = _frontend_module()
    tv = TranslationValidator(fail_fast=False)
    tv.begin(module)
    LowerStencilsPass().run(module)
    insert = _only(module, "tensor.insert")
    insert.result().replace_all_uses_with(insert.operand(1))
    insert.erase()
    tv.after_pass(module, "dce")
    return _tv_codes(tv), "TV003"


def mutant_tv_bufferized_write_reordered():
    # Mirror the innermost store's column coordinate after bufferization
    # (j -> 23 - j over the interior [1, 23)): writes stay inside the box
    # and bijective, but the column order now runs against the (0, -1)
    # dependence.
    module = _frontend_module()
    tv = TranslationValidator(fail_fast=False)
    tv.begin(module)
    LowerStencilsPass().run(module)
    BufferizePass().run(module)
    store = _only(module, "memref.store")
    last = store.num_operands - 1
    builder = OpBuilder.before(store)
    mirrored = arith.subi(
        builder, arith.const_index(builder, 23), store.operand(last)
    )
    store.set_operand(last, mirrored)
    tv.after_pass(module, "bufferize")
    codes = _tv_codes(tv)
    assert any(
        d.after_pass == "bufferize"
        for d in tv.report.diagnostics
        if d.severity == "error"
    ), "violation does not name the offending pass"
    return codes, "TV001"


MUTANTS = [
    mutant_sweep_flipped,
    mutant_sweep_invalid_value,
    mutant_center_tagged_l,
    mutant_loop_reverse_flipped,
    mutant_step_unpinned_9pt,
    mutant_stencil_widened_behind_tiles,
    mutant_csr_groups_merged,
    mutant_csr_swapped_across_groups,
    mutant_csr_dropped_subdomain,
    mutant_csr_duplicated_subdomain,
    mutant_csr_out_of_range,
    mutant_get_parallel_blocks_understated,
    mutant_lowered_read_shifted,
    mutant_oob_shrunk_allocation,
    mutant_oob_off_by_one_halo,
    mutant_oob_widened_stencil_offset,
    mutant_affine_off_by_one_bound,
    mutant_affine_dropped_stride,
    mutant_affine_swapped_coefficient,
    mutant_uninit_partially_written,
    mutant_uninit_never_written,
    mutant_tv_tile_order_reversed,
    mutant_tv_fusion_halo_dropped,
    mutant_tv_wavefront_merged_early,
    mutant_tv_loop_interchange,
    mutant_tv_dce_live_store,
    mutant_tv_bufferized_write_reordered,
]


class TestMutantCorpus:
    def test_corpus_size(self):
        assert len(MUTANTS) >= 10

    @pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.__name__)
    def test_mutant_detected_with_stable_code(self, mutant):
        codes, expected = mutant()
        assert codes, f"{mutant.__name__} produced no error diagnostics"
        expected = (expected,) if isinstance(expected, str) else expected
        assert set(codes) & set(expected), (
            f"{mutant.__name__}: expected one of {expected}, got {codes}"
        )

    def test_zero_false_positives_on_unmutated_modules(self):
        """The exact modules the mutants corrupt are clean beforehand."""
        assert _error_codes(_frontend_module()) == []
        assert _error_codes(_frontend_module(gauss_seidel_9pt_2d)) == []
        assert _error_codes(_lowered_module()) == []
        assert _error_codes(_lowered_module(gauss_seidel_9pt_2d)) == []
        assert _error_codes(_bufferized_module()) == []
        scalar = _frontend_module()
        LowerStencilsPass().run(scalar)
        assert _error_codes(scalar) == []
        offsets, indices = _csr()
        assert _csr_codes(offsets, indices) == []

    @pytest.mark.parametrize("with_groups", [False, True], ids=["seq", "wf"])
    def test_zero_tv_false_positives_on_unmutated_tiling(self, with_groups):
        """The exact pipelines the TV mutants corrupt certify clean."""
        module = _frontend_module()
        tv = TranslationValidator(fail_fast=False)
        tv.begin(module)
        TileStencilsPass(
            (12, 12), with_groups=with_groups, level=0
        ).run(module)
        tv.after_pass(module, "tile-stencils")
        assert _tv_codes(tv) == []
        assert all(not c["violations"] for c in tv.certificates)

    @pytest.mark.parametrize(
        "make", [gauss_seidel_5pt_2d, gauss_seidel_9pt_2d], ids=["5pt", "9pt"]
    )
    def test_zero_tv_false_positives_on_unmutated_lowering(self, make):
        module = _frontend_module(make)
        tv = TranslationValidator(fail_fast=False)
        tv.begin(module)
        LowerStencilsPass().run(module)
        tv.after_pass(module, "lower-stencils")
        BufferizePass().run(module)
        tv.after_pass(module, "bufferize")
        assert _tv_codes(tv) == []
        assert all(not c["violations"] for c in tv.certificates)

    def test_zero_tv_false_positives_on_unmutated_heat3d_fusion(self):
        module = build_heat3d_module(12, 1)
        tv = TranslationValidator(fail_fast=False)
        tv.begin(module)
        TileStencilsPass((5, 5, 5), level=0).run(module)
        tv.after_pass(module, "tile-stencils")
        FuseProducersPass().run(module)
        tv.after_pass(module, "fuse-structured-ops")
        assert _tv_codes(tv) == []

    def test_tv_witness_names_instances_and_pass(self):
        """A TV violation carries two concrete statement instances with
        rendered timestamps and names the offending pass."""
        module = _frontend_module()
        tv = TranslationValidator(fail_fast=False)
        tv.begin(module)
        TileStencilsPass((12, 12), with_groups=False, level=0).run(module)
        loop = _only(module, "cfd.tiled_loop")
        loop.attributes["reverse"] = BoolAttr(not loop.reverse)
        tv.after_pass(module, "tile-stencils")
        errors = [d for d in tv.report.diagnostics if d.severity == "error"]
        assert errors
        witness = errors[0].message
        assert errors[0].after_pass == "tile-stencils"
        # Two instances, each with a rendered timestamp:
        # "... source instance (1, 12) [t=s0.s0.s1.s12] is scheduled
        #  after its target (1, 13) [t=s0.s-1.s1.s1]".
        assert witness.count("[t=") == 2
        assert "source instance" in witness and "target" in witness


class TestForwardingMutantEscapesStaticGates:
    """A miscompile the static layers cannot see, pinned so that nobody
    assumes they can: TV proves write *order*, the absint provers prove
    *where* accesses land; neither follows dataflow through SSA scalars.
    The vectorizer forwards the in-row recurrence as SSA values, so
    "lane u reads the wrong lane" leaves every anchor where it was."""

    def test_wrong_lane_is_caught_by_the_differential_oracle_only(self):
        import numpy as np

        from repro.analysis.absint import run_memory_safety
        from repro.codegen.executor import compile_function
        from repro.codegen.interpreter import Interpreter, run_function
        from repro.core.vectorization import VectorizeStencilsPass

        module = _frontend_module()
        tv = TranslationValidator(fail_fast=False)
        tv.begin(module)
        VectorizeStencilsPass(4).run(module)
        # Lanes chain divf -> addf -> divf; feed lane 2 from lane 0's
        # value instead of lane 1's (u + o - 1 instead of u + o).
        lanes = [
            op for op in module.walk()
            if op.name == "arith.divf"
            and any(u.owner.name == "tensor.insert" for u in op.result().uses)
        ][:4]
        reader = next(
            u.owner for u in lanes[1].result().uses
            if u.owner.name == "arith.addf"
        )
        reader.set_operand(
            list(reader.operands).index(lanes[1].result()), lanes[0].result()
        )
        tv.after_pass(module, "vectorize-stencils")

        # Every static layer is clean ...
        assert _tv_codes(tv) == []
        assert _error_codes(module) == []
        assert run_memory_safety(module).diagnostics == []
        rng = np.random.default_rng(3)
        x, b = rng.standard_normal((2, 1, 24, 24))
        checked = Interpreter(module, checked=True)
        (mutated,) = checked.run("kernel", x, b, x.copy())  # no trap either
        # ... the emitter agrees with the interpreter on the wrong IR ...
        (compiled,) = compile_function(module)(x, b, x.copy())
        np.testing.assert_array_equal(compiled, mutated)
        # ... and only the reference sweep says it is wrong.
        (expected,) = run_function(_frontend_module(), "kernel", x, b, x.copy())
        assert np.abs(mutated - expected).max() > 1e-3
