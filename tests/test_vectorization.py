"""Tests for the partially vectorized lowering (Figs. 2 and 7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.executor import compile_function
from repro.codegen.interpreter import run_function
from repro.core import frontend
from repro.core.stencil import (
    StencilPattern,
    gauss_seidel_5pt_2d,
    gauss_seidel_6pt_3d,
    gauss_seidel_9pt_2d,
    gauss_seidel_9pt_2nd_order_2d,
    jacobi_5pt_2d,
)
from repro.core.tiling import TileStencilsPass
from repro.core.vectorization import (
    VectorizeStencilsPass,
    can_vectorize,
    classify_accesses,
)
from repro.dialects import arith, cfd
from repro.ir import PassManager, verify
from repro.ir.printer import print_module


def _fields(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape), rng.standard_normal(shape)


def _check(pattern, shape, vf, seed=0, nb_var=1, tiles=None, groups=False,
           d=None):
    d = d if d is not None else float(pattern.num_accesses)
    reference = frontend.build_stencil_kernel(
        pattern, shape[1:], frontend.identity_body(d), nb_var=nb_var
    )
    vectorized = frontend.build_stencil_kernel(
        pattern, shape[1:], frontend.identity_body(d), nb_var=nb_var
    )
    passes = []
    if tiles:
        passes.append(TileStencilsPass(tiles, with_groups=groups))
    passes.append(VectorizeStencilsPass(vf))
    PassManager(passes).run(vectorized)
    assert not any(op.name == "cfd.stencilOp" for op in vectorized.walk())
    x, b = _fields(shape, seed)
    (expected,) = run_function(reference, "kernel", x, b, x.copy())
    (actual,) = run_function(vectorized, "kernel", x, b, x.copy())
    np.testing.assert_allclose(actual, expected, rtol=1e-11)
    verify(vectorized)
    return vectorized


class TestClassification:
    def test_5pt(self):
        vec, rec = classify_accesses(gauss_seidel_5pt_2d())
        pattern = gauss_seidel_5pt_2d()
        # L = {(-1,0), (0,-1)}: (-1,0) reads a finished row -> vectorizable;
        # (0,-1) is the in-row recurrence.
        rec_offsets = [pattern.accesses[a][0] for a in rec]
        assert rec_offsets == [(0, -1)]
        assert len(vec) == 3

    def test_second_order_two_recurrences(self):
        pattern = gauss_seidel_9pt_2nd_order_2d()
        _, rec = classify_accesses(pattern)
        rec_offsets = sorted(pattern.accesses[a][0] for a in rec)
        assert rec_offsets == [(0, -2), (0, -1)]

    def test_jacobi_fully_vectorizable(self):
        vec, rec = classify_accesses(jacobi_5pt_2d())
        assert rec == []
        assert len(vec) == 4

    def test_backward_sweep_recurrence(self):
        pattern = gauss_seidel_5pt_2d().inverted()
        _, rec = classify_accesses(pattern)
        rec_offsets = [pattern.accesses[a][0] for a in rec]
        assert rec_offsets == [(0, 1)]


class TestLegality:
    def test_identity_body_vectorizable(self):
        module = frontend.build_stencil_kernel(
            gauss_seidel_5pt_2d(), (8, 8), frontend.identity_body(4.0)
        )
        op = next(o for o in module.walk() if o.name == "cfd.stencilOp")
        assert can_vectorize(op)

    def test_cross_dependent_body_rejected(self):
        """A body whose vector part reads a recurrent argument falls back."""
        pattern = gauss_seidel_5pt_2d()
        module = frontend.build_stencil_kernel(
            pattern, (8, 8), _poisoned_body()
        )
        op = next(o for o in module.walk() if o.name == "cfd.stencilOp")
        assert not can_vectorize(op)
        # The pass must still lower it (scalar fallback) and stay correct.
        reference = frontend.build_stencil_kernel(
            pattern, (8, 8), _poisoned_body()
        )
        pass_ = VectorizeStencilsPass(4)
        PassManager([pass_]).run(module)
        assert pass_.fallbacks == 1
        x, b = _fields((1, 8, 8), 3)
        (expected,) = run_function(reference, "kernel", x, b, x.copy())
        (actual,) = run_function(module, "kernel", x, b, x.copy())
        np.testing.assert_allclose(actual, expected, rtol=1e-12)


def _poisoned_body():
    """d depends on a recurrent (in-row L) argument: not vectorizable."""

    def body(builder, args):
        # args[1] is the (0,-1) access for the 5-pt pattern (pattern
        # order: (-1,0), (0,-1), (0,1), (1,0)).
        four = arith.const_f64(builder, 4.0)
        tiny = arith.const_f64(builder, 1e-12)
        d = arith.addf(
            builder, four, arith.mulf(builder, tiny, args[1])
        )
        zero = arith.const_f64(builder, 0.0)
        return d, list(args[:-1]) + [zero]

    return body


class TestVectorizedSemantics:
    @pytest.mark.parametrize("vf", [2, 4, 8])
    def test_5pt_various_vf(self, vf):
        _check(gauss_seidel_5pt_2d(), (1, 10, 17), vf)

    @pytest.mark.parametrize(
        "pattern_fn,shape",
        [
            (gauss_seidel_9pt_2d, (1, 9, 14)),
            (gauss_seidel_9pt_2nd_order_2d, (1, 12, 13)),
            (gauss_seidel_6pt_3d, (1, 6, 7, 11)),
            (jacobi_5pt_2d, (1, 9, 13)),
        ],
    )
    def test_all_paper_patterns(self, pattern_fn, shape):
        _check(pattern_fn(), shape, 4)

    def test_width_not_divisible_by_vf_peels(self):
        # 15 interior columns, VF=4 -> 3 strips + 3 peeled.
        module = _check(gauss_seidel_5pt_2d(), (1, 8, 17), 4)
        text = print_module(module)
        assert "vector.transfer_read" in text
        assert "vector.extract" in text

    def test_width_smaller_than_vf_all_peeled(self):
        _check(gauss_seidel_5pt_2d(), (1, 8, 5), 8)

    def test_backward_sweep_vectorized(self):
        _check(gauss_seidel_5pt_2d().inverted(), (1, 9, 14), 4)

    def test_backward_9pt(self):
        _check(gauss_seidel_9pt_2d().inverted(), (1, 9, 14), 4)

    def test_multivar(self):
        _check(gauss_seidel_5pt_2d(), (2, 8, 12), 4, nb_var=2)

    def test_after_tiling(self):
        _check(gauss_seidel_5pt_2d(), (1, 14, 18), 4, tiles=(4, 8))

    def test_after_tiling_with_groups(self):
        _check(
            gauss_seidel_5pt_2d(), (1, 12, 16), 4, tiles=(4, 8), groups=True
        )

    def test_1d_stencil(self):
        pattern = StencilPattern.from_offsets(
            1, l_offsets=[(-1,)], u_offsets=[(1,)]
        )
        _check(pattern, (1, 23), 4, d=2.0)

    def test_ir_structure_matches_fig7(self):
        module = _check(gauss_seidel_5pt_2d(), (1, 8, 20), 4)
        text = print_module(module)
        # Vector part, unrolled scalar part and peeled loop coexist.
        assert text.count("vector.transfer_read") >= 4
        assert "vector.broadcast" in text or "vector.extract" in text
        assert "tensor.insert" in text


@st.composite
def _vec_case(draw):
    pattern = draw(
        st.sampled_from(
            [
                gauss_seidel_5pt_2d(),
                gauss_seidel_9pt_2d(),
                gauss_seidel_9pt_2nd_order_2d(),
                gauss_seidel_5pt_2d().inverted(),
            ]
        )
    )
    n0 = draw(st.integers(5, 12))
    n1 = draw(st.integers(5, 20))
    vf = draw(st.sampled_from([2, 4, 8]))
    return pattern, (1, n0, n1), vf


class TestVectorizationProperty:
    @given(_vec_case())
    @settings(max_examples=20, deadline=None)
    def test_vectorization_preserves_semantics(self, case):
        pattern, shape, vf = case
        _check(pattern, shape, vf, seed=17)


@st.composite
def _in_row_case(draw):
    """A random legal 2-D pattern whose L set has in-row offsets: any
    non-empty subset of {(0,-1), (0,-2), (0,-3)}, optionally reads of the
    finished row above, and U reads ahead of the sweep."""
    in_row = draw(st.sets(st.sampled_from([1, 2, 3]), min_size=1))
    above = draw(st.sets(st.sampled_from([-1, 0, 1])))
    ahead = draw(st.sets(st.sampled_from([(0, 1), (0, 2), (1, -1), (1, 0)])))
    pattern = StencilPattern.from_offsets(
        2,
        l_offsets=[(0, -o) for o in sorted(in_row)] + [(-1, c) for c in sorted(above)],
        u_offsets=sorted(ahead),
    )
    if draw(st.booleans()):
        pattern = pattern.inverted()
    shape = (draw(st.sampled_from([1, 2])), draw(st.integers(5, 8)),
             draw(st.integers(6, 22)))
    return pattern, shape, draw(st.sampled_from([2, 3, 4, 8]))


class TestForwardedRecurrenceProperty:
    @given(_in_row_case())
    @settings(max_examples=25, deadline=None)
    def test_random_in_row_patterns(self, case):
        """Forwarded lanes == Eq. 2 on the interpreter, and the emitted
        scalar unit == the interpreter bit for bit on the same IR."""
        pattern, shape, vf = case
        module = _check(pattern, shape, vf, seed=29, nb_var=shape[0])
        x, b = _fields(shape, 29)
        (interpreted,) = run_function(module, "kernel", x, b, x.copy())
        (compiled,) = compile_function(module)(x, b, x.copy())
        np.testing.assert_array_equal(compiled, interpreted)
