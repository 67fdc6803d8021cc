"""One meaning of index arithmetic, checked across its three domains.

:func:`repro.ir.indexing.step` gives every index op its meaning once, and
three domains evaluate it: partial ints (the folder, the schedule stamp,
the audits, translation validation), intervals (the enumerating engine)
and piecewise-affine forms (the symbolic prover). The reference
interpreter keeps Python's run-time semantics on its own, so it is the
oracle here. On random index DAGs over constants, ``tensor.dim`` of a
static shape and one bound loop variable:

* the int domain equals the interpreter wherever every divisor is
  positive (``select`` of unequal branches may stay unknown);
* the interval result contains every value the loop variable produces;
* the hull of the piecewise-affine result contains every such value;
* a zero or negative divisor is unknown in all three static domains, and
  a schedule stamp over it is skipped rather than raising.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.absint.engine import AbstractEvaluator
from repro.analysis.absint.interval import Interval
from repro.analysis.affine import AffineSet, AffineUnknown, LinExpr
from repro.analysis.affine.prover import AffineProver, ProofReport
from repro.analysis.affine.pwaff import PwAff, hull
from repro.codegen.interpreter import run_function
from repro.core.scheduling import extract_schedule_stamps
from repro.dialects import arith, cfd, func, scf, tensor
from repro.ir import ModuleOp, OpBuilder
from repro.ir.indexing import IntEval, static_ints
from repro.ir.types import FunctionType, TensorType, f64, index

SHAPE = (1, 5, 7)
#: ops drawn as ``op(node, node)``
_BINARY = {
    "addi": arith.AddIOp, "subi": arith.SubIOp,
    "minsi": arith.MinSIOp, "maxsi": arith.MaxSIOp,
}
#: ops drawn as ``op(node, leaf)``: the right operand is a constant or an
#: extent, as in the tiling pass's window arithmetic
_BY_LEAF = {
    "muli": arith.MulIOp, "floordivi": arith.FloorDivIOp,
    "remi": arith.RemIOp,
}


def _build(ops, consts):
    """``func @f(%t, %lo, %hi) -> index``: one ``scf.for`` whose body
    evaluates the DAG and yields its last node."""
    module = ModuleOp.create()
    b = OpBuilder.at_end(module.body)
    t = TensorType(list(SHAPE), f64)
    fn = func.FuncOp.build(b, "f", FunctionType([t, index, index], [index]))
    fb = OpBuilder.at_end(fn.body)
    arg, lo, hi = fn.arguments
    one = arith.const_index(fb, 1)
    loop = scf.ForOp.build(fb, lo, hi, one, [arith.const_index(fb, 0)])
    lb = OpBuilder.at_end(loop.body)
    iv = loop.induction_var
    leaves = [arith.const_index(lb, c) for c in consts] + [
        tensor.DimOp.build(lb, arg, d).result() for d in (1, 2)
    ]
    nodes = [iv] + leaves
    divisors, has_select = [], False
    for kind, i, j in ops:
        x = nodes[i % len(nodes)]
        if kind in _BY_LEAF:
            y = leaves[j % len(leaves)]
            if kind != "muli":
                divisors.append(y)
            nodes.append(_BY_LEAF[kind].build(lb, x, y).result())
        elif kind == "select":
            y = nodes[j % len(nodes)]
            cond = arith.CmpIOp.build(lb, "lt", x, y).result()
            nodes.append(arith.SelectOp.build(lb, cond, y, x).result())
            has_select = True
        elif kind == "index_cast":
            nodes.append(arith.IndexCastOp.build(lb, x, index).result())
        else:
            y = nodes[j % len(nodes)]
            nodes.append(_BINARY[kind].build(lb, x, y).result())
    root = nodes[-1]
    scf.YieldOp.build(lb, [root])
    func.ReturnOp.build(fb, [loop.result()])
    return module, iv, root, divisors, has_select


_ops = st.lists(
    st.tuples(
        st.sampled_from([*_BINARY, *_BY_LEAF, "select", "index_cast"]),
        st.integers(0, 31),
        st.integers(0, 31),
    ),
    min_size=1,
    max_size=6,
)
_consts = st.lists(st.integers(-6, 9), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(_ops, _consts, st.integers(-3, 6), st.integers(1, 3))
def test_domains_agree_with_the_interpreter(ops, consts, lo, n):
    module, iv, root, divisors, has_select = _build(ops, consts)
    if any(d <= 0 for d in static_ints(divisors)):
        return  # the oracle raises or floors; covered below
    hi = lo + n
    ev = AbstractEvaluator()
    ev.index_env[id(iv)] = Interval(lo, hi - 1)
    interval = ev.eval(root)

    prover = AffineProver(ProofReport())
    prover.env[id(iv)] = PwAff.var("i")
    prover.domain = (
        AffineSet.universe()
        .and_ge0(LinExpr.var("i") - lo)
        .and_ge0(LinExpr.of(hi - 1) - LinExpr.var("i"))
    )
    lo_h, hi_h = hull(prover.eval(root), prover.domain)

    x = np.zeros(SHAPE)
    for k in range(lo, hi):
        (want,) = run_function(module, "f", x, k, k + 1)
        ints = IntEval()
        ints.memo[id(iv)] = k  # the int domain with the loop variable bound
        got = ints(root)
        if has_select:
            assert got in (None, want)
        else:
            assert got == want
        assert interval.lo <= want <= interval.hi
        assert lo_h <= want <= hi_h


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([arith.FloorDivIOp, arith.RemIOp]),
    st.integers(-4, 0),
    st.integers(-9, 9),
)
def test_non_positive_divisor_is_unknown_everywhere(op, divisor, dividend):
    module = ModuleOp.create()
    b = OpBuilder.at_end(module.body)
    fn = func.FuncOp.build(b, "f", FunctionType([], []))
    fb = OpBuilder.at_end(fn.body)
    value = op.build(
        fb, arith.const_index(fb, dividend), arith.const_index(fb, divisor)
    ).result()
    cfd.GetParallelBlocksOp.build(fb, [value, arith.const_index(fb, 2)], [(-1, 0)])
    func.ReturnOp.build(fb, [])

    assert static_ints([value]) == [None]
    assert AbstractEvaluator().eval(value) == Interval.top()
    prover = AffineProver(ProofReport())
    with pytest.raises(AffineUnknown):
        hull(prover.eval(value), prover.domain)
    assert extract_schedule_stamps(module) == []
