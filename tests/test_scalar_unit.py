"""Differential tests for the emitter's scalar unit: the forwarded in-row
``L`` recurrence, lanes taken from one ``tolist()`` and one slice store
per strip row.

Every case compiles one kernel and checks it three ways: bit-for-bit
against ``Interpreter`` on the *same* lowered module, against the
reference lexicographic sweep (``repro.baselines.naive``), and — with the
mesh split into sub-domains whose widths do and do not divide ``VF`` — at
one and two worker threads plus the ``$REPRO_THREADS`` default (the CI
thread matrix runs this file under 1 and 4).
"""

import re

import numpy as np
import pytest

from repro.baselines import naive
from repro.codegen.executor import compile_function
from repro.codegen.interpreter import Interpreter, run_function
from repro.core import frontend
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.core.stencil import StencilPattern
from repro.core.vectorization import VectorizeStencilsPass
from repro.dialects import arith
from repro.ir import PassManager
from repro.runtime.parallel import drain_events, num_threads, set_num_threads

ROWS = 4  # interior rows; two sub-domain rows of two


@pytest.fixture(autouse=True)
def _clean_runtime():
    yield
    set_num_threads(None)
    drain_events()


def _pattern(depth, sweep):
    """L = {row above, in-row at distance ``depth``}, U = {next column,
    row below}; mirrored for the backward sweep."""
    forward = StencilPattern.from_offsets(
        2, l_offsets=[(-1, 0), (0, -depth)], u_offsets=[(0, 1), (1, 0)]
    )
    return forward if sweep == 1 else forward.inverted()


def _shape(depth, vf, nb_var):
    """A mesh whose interior is ``ROWS`` x ``(2 VF) + (VF + 1)`` cells:
    with sub-domains ``2 x 2 VF`` the first column of blocks is all full
    strips, the second one strip plus a one-cell peel loop. The halo is
    one cell except ``depth`` on the recurrence side."""
    return (nb_var, ROWS + 2, 3 * vf + 1 + depth + 1)


def _lowered(pattern, shape, vf, opt_level, d=4.0):
    nb_var = shape[0]
    module = frontend.build_stencil_kernel(
        pattern, shape[1:], frontend.identity_body(d), nb_var=nb_var
    )
    options = CompileOptions(
        subdomain_sizes=(2, 2 * vf), parallel=True, vectorize=vf,
        opt_level=opt_level, use_cache=False,
    )
    compiler = StencilCompiler(options)
    compiler.lower(module)
    return module, compiler.finish(module)


def _fields(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape), rng.standard_normal(shape)


@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("vf", [2, 3, 8, 64])
@pytest.mark.parametrize("nb_var", [1, 5])
@pytest.mark.parametrize("sweep", [1, -1], ids=["forward", "backward"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_compiled_equals_interpreter_and_reference(
    depth, sweep, nb_var, vf, opt_level
):
    pattern = _pattern(depth, sweep)
    shape = _shape(depth, vf, nb_var)
    module, kernel = _lowered(pattern, shape, vf, opt_level)
    assert kernel.parallel_certified
    x, b = _fields(shape, seed=depth * 100 + vf)
    (interpreted,) = Interpreter(module).run("kernel", x, b, x.copy())
    expected = naive.stencil_sweep_python(
        x.copy(), b, x.copy(), pattern,
        naive.identity_scalar_body(4.0, nb_var), nb_var,
    )
    for threads in (1, 2, None):  # None: the $REPRO_THREADS default
        with num_threads(threads):
            (compiled,) = kernel(x, b, x.copy())
        np.testing.assert_array_equal(compiled, interpreted)
    np.testing.assert_allclose(compiled, expected, rtol=1e-12, atol=1e-12)
    _assert_strip_structure(module, kernel.source, depth, vf, nb_var)


def _strip_loops(module):
    """The ``scf.for`` bodies holding a strip (vector reads + inserts)."""
    return [
        op for op in module.walk()
        if op.name == "scf.for"
        and any(o.name == "vector.transfer_read" for o in op.body.operations)
    ]


def _assert_strip_structure(module, source, depth, vf, nb_var):
    (strip,) = _strip_loops(module)
    ops = strip.body.operations
    # Only the sources lying before the strip are loaded; every other
    # recurrent read is a forwarded SSA value.
    extracts = [o for o in ops if o.name == "tensor.extract"]
    assert len(extracts) == nb_var * min(depth, vf)
    first_insert = next(i for i, o in enumerate(ops) if o.name == "tensor.insert")
    assert all(ops.index(e) < first_insert for e in extracts)
    assert sum(o.name == "tensor.insert" for o in ops) == nb_var * vf
    # A scalar divisor is never broadcast and re-extracted per lane.
    for o in ops:
        if o.name == "vector.extract":
            assert o.operand(0).op.name != "vector.broadcast"
    # One slice store per variable per strip, no per-lane element store.
    slice_stores = re.findall(r"^\s+\w+\[[^\]]*:[^\]]*\] = \(", source, re.M)
    assert len(slice_stores) == nb_var
    assert ".tolist()" in source and ".item(" in source


def test_forwarding_at_o0_needs_no_optimizer():
    """The vectorizer itself forwards: the raw lowering already holds one
    recurrent load per strip, and the O0 and O2 kernels are bit-equal."""
    pattern = _pattern(1, 1)
    shape = _shape(1, 8, 1)
    results = []
    for opt_level in (0, 2):
        module, kernel = _lowered(pattern, shape, 8, opt_level)
        (strip,) = _strip_loops(module)
        assert sum(o.name == "tensor.extract" for o in strip.body.operations) == 1
        x, b = _fields(shape, 5)
        results.append(kernel(x, b, x.copy())[0])
    np.testing.assert_array_equal(*results)


def _same_row_u_body(builder, args):
    """``u[i,j-1]`` (recurrent) scaled by the ``u[i,j+1]`` lane of the
    same row: the recurrent contribution reads a ``U`` vector lane."""
    up, left, right, down, _center = args  # (-1,0), (0,-1), (0,1), (1,0)
    d = arith.const_f64(builder, 4.0)
    zero = arith.const_f64(builder, 0.0)
    mixed = arith.mulf(builder, left, arith.addf(builder, right, d))
    return d, [up, mixed, right, down, zero]


@pytest.mark.parametrize("opt_level", [0, 2])
def test_recurrence_reading_a_u_lane_of_the_same_row(opt_level):
    """View aliasing: the ``u[i, j+1]`` vector is a view taken at the
    head of the strip, its lanes a ``tolist()`` snapshot, and the strip's
    stores are deferred to its end — the lanes must still see ``x``."""
    pattern = StencilPattern.from_offsets(
        2, l_offsets=[(-1, 0), (0, -1)], u_offsets=[(0, 1), (1, 0)]
    )
    module = frontend.build_stencil_kernel(pattern, (7, 14), _same_row_u_body)
    reference = frontend.build_stencil_kernel(pattern, (7, 14), _same_row_u_body)
    StencilCompiler(
        CompileOptions(vectorize=4, opt_level=opt_level, use_cache=False)
    ).lower(module)
    assert _strip_loops(module), "fell back to the scalar lowering"
    kernel = compile_function(module)
    x, b = _fields((1, 7, 14), 23)
    (compiled,) = kernel(x, b, x.copy())
    (interpreted,) = run_function(module, "kernel", x, b, x.copy())
    (expected,) = run_function(reference, "kernel", x, b, x.copy())
    np.testing.assert_array_equal(compiled, interpreted)
    np.testing.assert_allclose(compiled, expected, rtol=1e-12, atol=1e-12)


class TestZeroDivisor:
    """Python-float ``/`` raises where ``np.float64 /`` returned ``inf``
    with a warning; the interpreter always raised."""

    def _module(self):
        return frontend.build_stencil_kernel(
            _pattern(1, 1), (6, 11), frontend.identity_body(0.0)
        )

    def test_kernel_and_interpreter_raise_the_same_class(self):
        module = self._module()
        PassManager([VectorizeStencilsPass(4)]).run(module)
        x, b = _fields((1, 6, 11), 1)
        with pytest.raises(ZeroDivisionError):
            run_function(module, "kernel", x, b, x.copy())
        with pytest.raises(ZeroDivisionError):
            compile_function(module)(x, b, x.copy())

    def test_resilient_driver_reports_rs005_not_a_traceback(self):
        from repro.runtime.resilience.driver import (
            ResilienceExhausted,
            ResilientCompiler,
        )

        x, b = _fields((1, 6, 11), 1)
        driver = ResilientCompiler(
            CompileOptions(vectorize=4, use_cache=False),
            max_retries=0, backoff_base=0.0,
        )
        with pytest.raises(ResilienceExhausted) as caught:
            driver.compile_and_run(self._module(), lambda: (x, b, x.copy()))
        failures = [e for e in caught.value.report.events if e.code == "RS005"]
        # the compiled kernel, then the interpreter fallback: same class
        assert len(failures) == 2
        assert all("ZeroDivisionError" in e.message for e in failures)

    def test_service_execute_replies_failed_with_rs005(self):
        import asyncio

        from repro.codegen.cache import KernelCache
        from repro.service import CompileService, ServiceConfig

        x, b = _fields((1, 6, 11), 1)

        async def scenario():
            svc = CompileService(
                ServiceConfig(options=CompileOptions(vectorize=4)),
                cache=KernelCache(),
            )
            resp = await svc.execute(self._module(), lambda: (x, b, x.copy()))
            await svc.drain()
            return resp

        resp = asyncio.run(scenario())
        assert resp.status == "failed" and resp.values is None
        assert [d.code for d in resp.diagnostics] == ["RS005"]
        assert "ZeroDivisionError" in resp.diagnostics[0].message
