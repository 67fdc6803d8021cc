"""The in-bounds prover and its dynamic oracle (the checked interpreter).

Two acceptance properties from the issue:

* canonical pipelines carry a full set of in-bounds proofs — zero
  IP011–IP015 diagnostics and a bounded proven hull for every access;
* the checked interpreter is the ground truth: every access it observes
  lies inside the statically proven range, and every out-of-bounds
  mutant it traps dynamically is also flagged statically.
"""

import numpy as np
import pytest

from repro.analysis.absint import run_memory_safety
from repro.analysis.absint.interval import Interval, box_contains, box_is_bounded
from repro.codegen.interpreter import Interpreter, OutOfBoundsError
from repro.core import frontend
from repro.core.lowering import LowerStencilsPass
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.core.stencil import gauss_seidel_5pt_2d, gauss_seidel_9pt_2d
from repro.dialects import arith
from repro.ir import OpBuilder

SHAPE = (1, 24, 24)


def _tiled_module(make=gauss_seidel_5pt_2d, **overrides):
    module = frontend.build_stencil_kernel(
        make(), SHAPE[1:], frontend.identity_body(float(make().num_accesses))
    )
    options = CompileOptions(
        subdomain_sizes=(12, 12), parallel=True, vectorize=0, use_cache=False,
        **overrides,
    )
    StencilCompiler(options).lower(module)
    return module


def _fields(seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal(SHAPE),
        rng.standard_normal(SHAPE),
        rng.standard_normal(SHAPE),
    )


def _observed_box(ranges):
    return tuple(Interval(lo, hi) for lo, hi in ranges)


class TestStaticProofs:
    @pytest.mark.parametrize(
        "make", [gauss_seidel_5pt_2d, gauss_seidel_9pt_2d], ids=["5pt", "9pt"]
    )
    def test_tiled_pipeline_fully_proven(self, make):
        report = run_memory_safety(_tiled_module(make))
        assert report.diagnostics == []
        assert report.proven, "no accesses were proven"
        assert all(box_is_bounded(box) for box in report.proven.values())

    def test_scalar_lowering_fully_proven(self):
        module = frontend.build_stencil_kernel(
            gauss_seidel_5pt_2d(), SHAPE[1:], frontend.identity_body(4.0)
        )
        LowerStencilsPass().run(module)
        report = run_memory_safety(module)
        assert report.diagnostics == []
        assert report.proven

    def test_enumeration_limit_degrades_to_notes(self):
        # With tile enumeration forced off, window extents become
        # symbolic: proofs must degrade to IP010 notes plus the IP017
        # precision-cliff attribution, never errors and never silent
        # passes. (An explicit limit forces the enumerated engine.)
        report = run_memory_safety(_tiled_module(), enumeration_limit=1)
        assert report.diagnostics, "unprovable accesses passed silently"
        assert {d.code for d in report.diagnostics} == {"IP010", "IP017"}
        assert all(d.severity == "note" for d in report.diagnostics)
        assert report.engine_mode == "enumerated"
        (cliff,) = [d for d in report.diagnostics if d.code == "IP017"]
        assert "exceeds the enumeration limit" in cliff.message
        assert "hull bounds only" in cliff.message

    @pytest.mark.parametrize("opt_level", [0, 2], ids=["O0", "O2"])
    def test_precision_cliff_note_independent_of_opt_level(self, opt_level):
        # At O0 the sub-domain loop's upper bounds are unfolded
        # `arith.subi`s: the grid must still be counted, so the IP010
        # hull degradation comes with the IP017 note explaining it.
        module = frontend.build_stencil_kernel(
            gauss_seidel_5pt_2d(), (66, 66), frontend.identity_body(4.0)
        )
        options = CompileOptions(
            subdomain_sizes=(4, 4), vectorize=0, opt_level=opt_level,
            use_cache=False,
        )
        StencilCompiler(options).lower(module)
        report = run_memory_safety(module, enumeration_limit=10)
        assert {d.code for d in report.diagnostics} == {"IP010", "IP017"}
        (cliff,) = [d for d in report.diagnostics if d.code == "IP017"]
        assert "tile grid of 256 points" in cliff.message


class TestDynamicOracle:
    """`Interpreter(checked=True)` records the exact per-op access hulls;
    the static prover must cover every one of them."""

    @pytest.mark.parametrize(
        "make", [gauss_seidel_5pt_2d, gauss_seidel_9pt_2d], ids=["5pt", "9pt"]
    )
    def test_observed_inside_proven(self, make):
        module = _tiled_module(make)
        report = run_memory_safety(module)
        assert report.diagnostics == []

        interp = Interpreter(module, checked=True)
        interp.run("kernel", *_fields(1))
        assert interp.access_ranges, "checked run observed no accesses"

        shared = set(report.proven) & set(interp.access_ranges)
        assert shared == set(interp.access_ranges), (
            "dynamically exercised accesses missing a static proof"
        )
        for key in shared:
            observed = _observed_box(interp.access_ranges[key])
            assert box_contains(report.proven[key], observed)

    def test_oob_mutant_trapped_and_flagged(self):
        # The off-by-one-halo mutant (see test_analysis_mutants): the
        # window loses its -1 halo row, so the sweep reads local index -1.
        module = _tiled_module()
        for op in module.walk():
            if op.name != "arith.subi":
                continue
            rhs = op.operand(1)
            if (
                rhs.op is not None
                and rhs.op.name == "arith.constant"
                and rhs.op.attributes["value"].value == 1
                and any(
                    u.name == "arith.maxsi" for u in op.result().users()
                )
            ):
                builder = OpBuilder.before(op)
                op.set_operand(1, arith.const_index(builder, 0))
                break

        report = run_memory_safety(module)
        assert "IP011" in {d.code for d in report.diagnostics}

        with pytest.raises(OutOfBoundsError):
            Interpreter(module, checked=True).run("kernel", *_fields(2))

    def test_unchecked_interpreter_does_not_trap(self):
        # Without checked=True the same run silently wraps around — the
        # exact failure mode the oracle exists to expose.
        module = _tiled_module()
        interp = Interpreter(module)
        interp.run("kernel", *_fields(3))
        assert interp.access_ranges == {}
