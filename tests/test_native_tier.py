"""The native tier: C block bodies printed by the emitter's one walk,
built by the host ``cc`` off the compile path, called through ``ctypes``.

The NumPy tier is the reference for the native one and the interpreter
the oracle for both: every differential case asserts
``call_tier("native") == call_tier("numpy") == Interpreter`` bit-for-bit.
Everything that needs a compiler is skipped when ``cc`` is absent; the
fallback cases (no ``cc``, a ``cc`` that fails or hangs) run regardless.
"""

import dataclasses
import os
import re
import shutil
import stat
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.analysis.corpus import build_corpus
from repro.codegen import native
from repro.codegen.cache import KernelCache
from repro.codegen.executor import compile_function
from repro.codegen.interpreter import Interpreter, run_function
from repro.codegen.native import BUILDER, NativeBuilder
from repro.codegen.python_backend import BackendError
from repro.core import frontend
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.core.stencil import gauss_seidel_5pt_2d
from repro.dialects import arith, cfd, linalg
from repro.frontend import stencil_from_source
from repro.ir import OpBuilder
from repro.runtime.parallel import drain_events, num_threads, set_num_threads
from repro.runtime.resilience import FaultPlan, clear_plan, injected
from tests.test_scalar_unit import _fields, _lowered, _pattern, _shape

CC = shutil.which("cc")
needs_cc = pytest.mark.skipif(CC is None, reason="no host C compiler")

CORPUS = [e for entries in build_corpus().values() for e in entries]
#: Pipelines whose bodies go through libm: equal within the benchmark's
#: tolerance, not bit-for-bit.
LIBM = {"euler_lusgs"}


@pytest.fixture(autouse=True)
def _fresh_native_state():
    """Each test starts from a builder that has loaded nothing."""
    saved = (BUILDER.cc, BUILDER.timeout, BUILDER.rate)
    BUILDER.libs.clear()
    BUILDER._scratch = None  # a new temp dir on first use
    native.drain_events()
    yield
    BUILDER.cc, BUILDER.timeout, BUILDER.rate = saved
    BUILDER.libs.clear()
    native.drain_events()
    set_num_threads(None)
    drain_events()
    clear_plan()


def _gs_module(shape=(18, 34), d=4.0, pattern=None):
    return frontend.build_stencil_kernel(
        pattern or gauss_seidel_5pt_2d(), shape, frontend.identity_body(d)
    )


TILED = CompileOptions(
    subdomain_sizes=(8, 16), tile_sizes=(4, 8), fuse=True, parallel=True,
    vectorize=4, use_cache=False,
)


def _tiled_kernel(module=None, options=TILED):
    return StencilCompiler(options).compile(module or _gs_module())


def _args(shape=(1, 18, 34), seed=0):
    x, b = _fields(shape, seed)
    return x, b, x.copy()


def _script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def _codes(kernel):
    return [e.message.split("NumPy tier: ", 1)[1] for e in kernel.events()]


# ---------------------------------------------------------------------------
# Differential: native == NumPy tier == interpreter
# ---------------------------------------------------------------------------


@needs_cc
@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("vf", [2, 3, 8, 64])
@pytest.mark.parametrize("nb_var", [1, 5])
@pytest.mark.parametrize("sweep", [1, -1], ids=["forward", "backward"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_scalar_unit_grid_is_bit_identical(depth, sweep, nb_var, vf, opt_level):
    """The ``tests/test_scalar_unit.py`` grid (full strips beside a strip
    plus a peel loop), at one and two threads."""
    pattern = _pattern(depth, sweep)
    shape = _shape(depth, vf, nb_var)
    module, kernel = _lowered(pattern, shape, vf, opt_level)
    assert kernel.native_source and not kernel.events()
    x, b = _fields(shape, seed=depth * 100 + vf)
    (interpreted,) = Interpreter(module).run("kernel", x, b, x.copy())
    for threads in (1, 2):
        with num_threads(threads):
            (on_numpy,) = kernel.call_tier("numpy", x, b, x.copy())
            (on_native,) = kernel.call_tier("native", x, b, x.copy())
        np.testing.assert_array_equal(on_numpy, interpreted)
        np.testing.assert_array_equal(on_native, interpreted)
    assert kernel.tier == "native"


FIG11 = {
    "seidel-2D-5pt": (
        "def k(u, b, i, j):\n"
        "    u[i, j] = (b[i, j] + u[i - 1, j] + u[i, j - 1]\n"
        "               + u[i, j + 1] + u[i + 1, j]) / 5.0\n",
        (34, 34), ((16, 16), (4, 16), 8)),
    "seidel-2D-9pt": (
        "def k(u, b, i, j):\n"
        "    u[i, j] = (b[i, j] + u[i - 1, j - 1] + u[i - 1, j]\n"
        "               + u[i - 1, j + 1] + u[i, j - 1] + u[i, j + 1]\n"
        "               + u[i + 1, j - 1] + u[i + 1, j]\n"
        "               + u[i + 1, j + 1]) / 9.0\n",
        (34, 34), ((16, 32), (1, 32), 8)),
    "seidel-2D-9pt-2nd": (
        "def k(u, b, i, j):\n"
        "    u[i, j] = (b[i, j] + u[i - 2, j] + u[i - 1, j] + u[i, j - 2]\n"
        "               + u[i, j - 1] + u[i, j + 1] + u[i, j + 2]\n"
        "               + u[i + 1, j] + u[i + 2, j]) / 9.0\n",
        (36, 36), ((16, 16), (4, 16), 8)),
    "heat-3D": (
        "def k(u, b, i, j, k):\n"
        "    u[i, j, k] = (b[i, j, k] + u[i - 1, j, k] + u[i, j - 1, k]\n"
        "                  + u[i, j, k - 1] + u[i, j, k + 1]\n"
        "                  + u[i, j + 1, k] + u[i + 1, j, k]) / 7.0\n",
        (10, 10, 18), ((4, 4, 16), (2, 2, 16), 8)),
}


@needs_cc
@pytest.mark.parametrize("name", sorted(FIG11))
def test_fig11_kernels_are_native_and_bit_identical(name):
    source, shape, (subdomains, tiles, vf) = FIG11[name]
    options = CompileOptions(
        subdomain_sizes=subdomains, tile_sizes=tiles, fuse=True, parallel=True,
        vectorize=vf, use_cache=False,
    )
    program = stencil_from_source(source, {})
    kernel = program.compile(shape, options=options, iterations=2)
    x, b = _fields((1,) + shape, 3)
    (interpreted,) = run_function(
        program.build_module(shape, iterations=2), "kernel", x, b, x.copy())
    (on_numpy,) = kernel.call_tier("numpy", x, b, x.copy())
    with num_threads(2):
        (on_native,) = kernel.call_tier("native", x, b, x.copy())
    assert not kernel.events()  # all four print in full
    np.testing.assert_array_equal(on_native, on_numpy)
    np.testing.assert_allclose(on_native, interpreted, rtol=1e-12, atol=1e-12)


def _corpus_args(entry):
    module = entry.build()
    fn = next(op for op in module.body.operations if op.sym_name == entry.entry)
    rng = np.random.default_rng(11)
    if entry.entry == "lusgs":
        from repro.cfdlib import euler
        from repro.cfdlib.boundary import add_ghost_layers

        return (add_ghost_layers(euler.density_wave((12, 12, 12))),)
    return tuple(rng.standard_normal(a.type.shape) for a in fn.body.arguments)


@needs_cc
@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_canonical_pipelines_native_or_rs017_never_wrong(entry, tmp_path):
    """Every canonical pipeline: its C text builds under ``-Wall -Wextra
    -Werror``; what is native equals the NumPy tier (bit-for-bit unless
    libm is involved); what is not says why."""
    kernel = StencilCompiler(
        CompileOptions(**{**entry.options.__dict__, "use_cache": False})
    ).compile(entry.build(), entry=entry.entry)
    args = _corpus_args(entry)
    on_numpy = kernel.call_tier("numpy", *[a.copy() for a in args])
    if kernel.native_source is None:
        assert "_native(" not in kernel.source
        assert not kernel.wait_native(10)
        assert kernel.tier == "numpy"
        return
    (tmp_path / "k.c").write_text(kernel.native_source)
    subprocess.run(
        [CC, "-O1", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
         "-o", "k.so", "k.c"], cwd=tmp_path, check=True)
    on_native = kernel.call_tier("native", *[a.copy() for a in args])
    for got, want in zip(on_native, on_numpy):
        if entry.name in LIBM:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        else:
            np.testing.assert_array_equal(got, want)
    for reason in _codes(kernel):  # a loop the printer left to NumPy
        assert reason.startswith("unsupported-op:")


def test_no_emitted_python_name_is_assigned_and_never_read():
    """Constants print as literals where they are read and buffer renames
    share a name: nothing is declared that nothing reads."""
    import ast

    for entry in CORPUS:
        kernel = StencilCompiler(
            CompileOptions(**{**entry.options.__dict__, "use_cache": False})
        ).compile(entry.build(), entry=entry.entry)
        tree = ast.parse(kernel.source)
        stored, loaded = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store):
                            stored.add(leaf.id)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
        dead = stored - loaded - {"_PARALLEL_CERTIFIED", "_ARG_SHAPES"}
        assert not dead, f"{entry.name}: assigned, never read: {sorted(dead)}"


def _mixed_body(builder, args):
    """``max``/``min``/compare/``select`` over the neighbours, and a
    divisor that is not a constant."""
    up, left, right, down, _center = args
    hi = builder.create("arith.maximumf", [up, left], [up.type]).result()
    lo = builder.create("arith.minimumf", [right, down], [up.type]).result()
    less = arith.CmpFOp.build(builder, "lt", hi, lo).result()
    pick = arith.SelectOp.build(builder, less, hi, lo).result()
    zero = arith.const_f64(builder, 0.0)
    d = arith.addf(builder, arith.const_f64(builder, 3.0),
                   arith.const_f64(builder, 1.0))
    return d, [pick, arith.negf(builder, left), right, down, zero]


@needs_cc
def test_min_max_select_compare_are_bit_identical():
    """Property (a) beyond ``+ - * /``, on the scalar lowering."""
    module = frontend.build_stencil_kernel(
        gauss_seidel_5pt_2d(), (18, 18), _mixed_body)
    reference = frontend.build_stencil_kernel(
        gauss_seidel_5pt_2d(), (18, 18), _mixed_body)
    kernel = _tiled_kernel(module, CompileOptions(
        subdomain_sizes=(8, 8), tile_sizes=(4, 4), parallel=True, vectorize=0,
        opt_level=0, use_cache=False))
    assert "_FMAX(" in kernel.native_source and "?" in kernel.native_source
    assert "_div(" in kernel.native_source  # the divisor is not a literal
    args = _args((1, 18, 18), 9)
    (on_native,) = kernel.call_tier("native", *args)
    (on_numpy,) = kernel.call_tier("numpy", *args)
    (interpreted,) = run_function(reference, "kernel", *args)
    assert not kernel.events()
    np.testing.assert_array_equal(on_native, on_numpy)
    np.testing.assert_array_equal(on_native, interpreted)


# ---------------------------------------------------------------------------
# Whole-array ops: linalg.fill, linalg.generic, cfd.faceIteratorOp
# ---------------------------------------------------------------------------


def _same_bits(got, want):
    """Equal bit for bit (signed zeros included; any NaN matches a NaN)."""
    assert got.shape == want.shape and np.array_equal(np.isnan(got), np.isnan(want))
    real = ~np.isnan(want)
    np.testing.assert_array_equal(got[real].view(np.int64), want[real].view(np.int64))


def _three_ways(compiler, module, entry, args, tmp_path=None):
    """``call_tier("native") == call_tier("numpy") == Interpreter`` bit
    for bit, at one and four threads, on ``module`` lowered once (and,
    given ``tmp_path``, its C text clean under ``-Wall -Wextra -Werror``)."""
    compiler.lower(module)
    kernel = compiler.finish(module, entry=entry)
    if tmp_path is not None:
        (tmp_path / "k.c").write_text(kernel.native_source)
        subprocess.run([CC, "-O1", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                        "k.c"], cwd=tmp_path, check=True)
    assert not kernel.events() and kernel.wait_native(120), kernel.events()
    with np.errstate(all="ignore"):
        interpreted = Interpreter(module).run(entry, *[a.copy() for a in args])
        for threads in (1, 4):
            with num_threads(threads):
                on_numpy = kernel.call_tier("numpy", *[a.copy() for a in args])
                on_native = kernel.call_tier("native", *[a.copy() for a in args])
            for native_, numpy_, oracle in zip(on_native, on_numpy, interpreted):
                _same_bits(numpy_, oracle)
                _same_bits(native_, numpy_)
    return kernel


def _e2e_programs():
    from benchmarks.e2e import programs

    return programs


def _function(body, shapes, entry="f"):
    """``func @entry(args of shapes) -> the last shape``, its result what
    ``body(builder, args)`` returns."""
    from repro.dialects import func
    from repro.ir import ModuleOp, OpBuilder
    from repro.ir.types import FunctionType, TensorType, f64

    module = ModuleOp.create()
    types = [TensorType(list(shape), f64) for shape in shapes]
    fn = func.FuncOp.build(
        OpBuilder.at_end(module.body), entry, FunctionType(types, types[-1:]))
    builder = OpBuilder.at_end(fn.body)
    func.ReturnOp.build(builder, [body(builder, fn.arguments)])
    return module


PLAIN = CompileOptions(use_cache=False)


@needs_cc
def test_lusgs_runs_fully_native_and_bit_identical(tmp_path):
    """Fig. 15's solver at 8^3: the flux producer (fill + three face
    sweeps) and both fused sweeps are C."""
    P = _e2e_programs()
    program = P.lusgs_program(
        8, P.tr4_options((4, 4, 8), (2, 2, 8), 8), np.random.default_rng(0))
    compiler = StencilCompiler(dataclasses.replace(program.options, use_cache=False))
    kernel = _three_ways(
        compiler, program.build(), "lusgs", program.make_args(), tmp_path)
    # every loop and whole-array run the Python text names has its C twin
    outlined = set(re.findall(r"\b(blk\d+)\b", kernel.source))
    assert outlined == set(re.findall(r"int (blk\d+)\(", kernel.native_source))
    assert len(outlined) >= 3 and "_faces(" in kernel.native_source


@needs_cc
def test_implicit_heat_tr4_runs_fully_native_and_bit_identical(tmp_path):
    P = _e2e_programs()
    program = P.heat_implicit_program(
        18, P.tr4_options((8, 8, 16), (4, 4, 16), 16), np.random.default_rng(0))
    compiler = StencilCompiler(dataclasses.replace(program.options, use_cache=False))
    _three_ways(compiler, program.build(), "heat", program.make_args(), tmp_path)


def _faces(builder, args):
    """Two face sweeps with two variables: every inner cell receives the
    ``-=`` of its upper face and the ``+=`` of its lower one, in an order
    the rounding of ``b`` shows."""
    x, b = args
    for axis in (1, 0):
        face = cfd.FaceIteratorOp.build(builder, x, b, axis=axis, nb_var=2)
        rb = OpBuilder.at_end(face.body)
        l0, l1, r0, r1 = face.body.arguments
        jump = arith.subf(rb, r0, l0)
        mean = arith.mulf(rb, arith.const_f64(rb, 0.1), arith.addf(rb, l1, r1))
        cfd.CFDYieldOp.build(rb, [arith.mulf(rb, jump, mean), arith.divf(rb, jump, l1)])
        b = face.result()
    return b


@needs_cc
def test_face_sweeps_keep_numpys_update_order():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 9, 11))
    b = rng.standard_normal((2, 9, 11)) * 1e3  # rounds differently per order
    kernel = _three_ways(StencilCompiler(PLAIN), _function(_faces, [x.shape] * 2),
                         "f", (x, b))
    assert "_faces(" in kernel.native_source


def _shifted(builder, args):
    """``out = in[i + (0, -1, 2)] * 3 - in[i + (0, 2, -1)] / out`` inside
    margins that are wider than the offsets on one side."""
    a, out = args
    generic = linalg.GenericOp.build(
        builder, [a, a], out, offsets=[(0, -1, 2), (0, 2, -1)],
        margins=[(0, 0), (3, 0), (0, 4)])
    gb = OpBuilder.at_end(generic.body)
    up, down, old = generic.body.arguments
    three = arith.const_f64(gb, 3.0)
    value = arith.subf(gb, arith.mulf(gb, up, three), arith.divf(gb, down, old))
    linalg.LinalgYieldOp.build(gb, [value])
    return generic.result()


@needs_cc
def test_generic_with_offsets_and_margins():
    rng = np.random.default_rng(8)
    args = (rng.standard_normal((2, 10, 13)), rng.standard_normal((2, 10, 13)))
    _three_ways(StencilCompiler(PLAIN), _function(_shifted, [(2, 10, 13)] * 2),
                "f", args)


def _ratio(builder, args):
    a, b, out = args
    fill = linalg.FillOp.build(builder, arith.const_f64(builder, -0.0), out)
    generic = linalg.GenericOp.build(builder, [a, b], fill.result())
    gb = OpBuilder.at_end(generic.body)
    num, den, _ = generic.body.arguments
    linalg.LinalgYieldOp.build(gb, [arith.divf(gb, num, den)])
    return generic.result()


@needs_cc
def test_whole_array_zero_divisor_gives_inf_not_an_error():
    """A zero divisor inside a whole-array op is IEEE: ``inf``/``nan`` on
    every tier, where the scalar unit's would raise."""
    a = np.array([[1.0, -2.0, 0.0, 3.0, -0.0, 5.0]])
    b = np.array([[0.0, -0.0, 0.0, 2.0, 4.0, -0.0]])
    kernel = _three_ways(StencilCompiler(PLAIN), _function(_ratio, [(1, 6)] * 3),
                         "f", (a, b, np.ones((1, 6))))
    (got,) = kernel.call_tier("native", a, b, np.ones((1, 6)))
    with np.errstate(all="ignore"):
        _same_bits(got, a / b)
    assert "_div(" not in kernel.native_source.split("int blk")[1]


def test_the_eight_benchmark_kinds_leave_no_op_to_numpy():
    """No RS017 ``unsupported-op``: every kind's C text covers its loops
    and whole-array ops (with or without a compiler to build it)."""
    P = _e2e_programs()
    programs = P.small_set(np.random.default_rng(0))
    assert len({p.name.split("@")[0] for p in programs}) == 8
    for program in programs:
        kernel = program.compile(
            dataclasses.replace(program.options, use_cache=False))
        assert kernel.native_source is not None, program.name
        assert not [r for r in _codes(kernel) if r.startswith("unsupported-op")]


# ---------------------------------------------------------------------------
# Properties (b)-(e)
# ---------------------------------------------------------------------------


@needs_cc
class TestZeroScalarDivisor:
    """Property (b): the C lane returns ``E_DIV``, the wrapper raises."""

    def _module(self):
        return _gs_module(d=0.0)

    def _prime(self):
        """Build the library once, so every later kernel printed from the
        same text is native from its first call."""
        kernel = _tiled_kernel(self._module())
        assert kernel.wait_native(60)
        assert "_div(" in kernel.native_source
        return kernel

    def test_native_block_raises_zero_division(self):
        kernel = self._prime()
        with pytest.raises(ZeroDivisionError):
            kernel.call_tier("numpy", *_args())
        with pytest.raises(ZeroDivisionError):
            kernel(*_args())
        assert kernel.tier == "native"

    def test_constant_divisor_folds_the_test_away(self):
        kernel = _tiled_kernel()
        assert "_div(" not in kernel.native_source.split("int blk")[1]

    def test_resilient_driver_reports_rs005(self):
        from repro.runtime.resilience.driver import (
            ResilienceExhausted,
            ResilientCompiler,
        )

        self._prime()
        driver = ResilientCompiler(TILED, max_retries=0, backoff_base=0.0)
        with pytest.raises(ResilienceExhausted) as caught:
            driver.compile_and_run(self._module(), _args)
        failures = [e for e in caught.value.report.events if e.code == "RS005"]
        assert failures and all("ZeroDivisionError" in e.message for e in failures)

    def test_service_execute_replies_failed_with_rs005(self):
        import asyncio

        from repro.service import CompileService, ServiceConfig

        self._prime()

        async def scenario():
            svc = CompileService(ServiceConfig(options=TILED), cache=KernelCache())
            resp = await svc.execute(self._module(), _args)
            await svc.drain()
            return resp

        resp = asyncio.run(scenario())
        assert resp.status == "failed" and resp.values is None
        assert [d.code for d in resp.diagnostics] == ["RS005"]
        assert "ZeroDivisionError" in resp.diagnostics[0].message


@needs_cc
def test_block_given_a_short_buffer_fails_with_backend_error_not_a_segfault():
    """Property (c): every window is range-checked against the extents
    the block is actually handed."""
    kernel = _tiled_kernel()
    assert kernel.wait_native(60)
    fn, arrays, longs = re.search(
        r'_native\("(\w+)", \w+, \((.*?)\), \((.*?)\), \(\)\)', kernel.source
    ).groups()
    n_arrays = len([a for a in arrays.split(",") if a.strip()])
    n_longs = len([a for a in longs.split(",") if a.strip()])
    tiny = tuple(np.zeros((1, 2, 2)) for _ in range(n_arrays))
    block = kernel.native.lib(fn, None, tiny, (2,) * n_longs, ())
    with pytest.raises(BackendError, match="outside its buffer"):
        block(0)
    assert all(not a.any() for a in tiny)  # and nothing was written


@needs_cc
def test_arguments_the_c_text_was_not_printed_for_stay_on_numpy():
    """Strided, float32 and wrong-shape arguments behave exactly as on
    the NumPy tier, with one ``bad-args`` event."""
    kernel = _tiled_kernel()
    x, b, y = _args()
    assert kernel.wait_native(60)
    wide = np.zeros((1, 18, 68))
    wide[:, :, ::2] = x
    cases = {
        "strided": (wide[:, :, ::2], b, y),
        "float32": (x.astype(np.float32), b, y),
        "bigger": tuple(np.pad(a, ((0, 0), (0, 2), (0, 2))) for a in (x, b, y)),
        "smaller": (x[:, :9], b[:, :9], y[:, :9]),
    }
    for name, args in cases.items():
        try:
            want = kernel.call_tier("numpy", *args)
        except Exception as exc:  # noqa: BLE001 - whatever NumPy does
            with pytest.raises(type(exc)):
                kernel(*args)
        else:
            got = kernel(*args)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype, name
                np.testing.assert_array_equal(g, w)
        with pytest.raises(BackendError, match="bad-args"):
            kernel.call_tier("native", *args)
    assert _codes(kernel) == ["bad-args"]
    assert kernel.tier == "native"  # the next good call is native again
    np.testing.assert_array_equal(
        kernel(x, b, y)[0], kernel.call_tier("numpy", x, b, y)[0])


@needs_cc
def test_caller_arrays_are_never_written_and_source_stays_python():
    """Properties (d) and (e)."""
    kernel = _tiled_kernel()
    x, b, y = _args()
    before = [a.copy() for a in (x, b, y)]
    kernel.call_tier("native", x, b, y)
    for a, was in zip((x, b, y), before):
        np.testing.assert_array_equal(a, was)
    assert isinstance(kernel.source, str)
    compile(kernel.source, "<source>", "exec")
    assert "def kernel(" in kernel.source and "#include" not in kernel.source
    assert "#include <math.h>" in kernel.native_source
    assert "tier='native'" in repr(kernel)


@needs_cc
def test_parallel_worker_fault_with_native_blocks_recovers_bit_identically():
    kernel = _tiled_kernel()
    assert kernel.parallel_certified and kernel.wait_native(60)
    x, b, y = _args()
    with num_threads(1):
        (expected,) = kernel(x, b, y)
    drain_events()
    plan = FaultPlan.seeded("parallel.worker", seed=1)
    with injected(plan), num_threads(4):
        for _ in range(4):
            (got,) = kernel(x, b, y)
            np.testing.assert_array_equal(got, expected)
    assert plan.fired and kernel.tier == "native"
    assert "RS010" in {d.code for d in drain_events()}


# ---------------------------------------------------------------------------
# Earning the build
# ---------------------------------------------------------------------------


@needs_cc
def test_kernel_earns_its_build_by_time_spent_on_numpy():
    kernel = _tiled_kernel()
    BUILDER.rate = 1.0  # an 8 KB text would take hours: never earned
    for _ in range(3):
        kernel(*_args())
    assert kernel.tier == "numpy" and kernel.native.done is None
    assert kernel.native.spent > 0
    BUILDER.rate = 1e-12  # ... and now one call has paid for it
    (on_numpy,) = kernel(*_args())
    assert kernel.native.done is not None
    assert kernel.native.done.wait(60)
    assert kernel.tier == "native" and not kernel.events()
    np.testing.assert_array_equal(kernel(*_args())[0], on_numpy)
    assert 1e-12 < BUILDER.rate < 1.0  # refined by the finished build


@needs_cc
def test_a_text_built_once_is_native_from_the_first_call_of_its_next_kernel():
    first = _tiled_kernel()
    assert first.wait_native(60)
    again = _tiled_kernel()
    assert again.tier == "numpy" and again.native.key == first.native.key
    again(*_args())
    assert again.tier == "native" and again.native.lib is first.native.lib


def test_a_kernel_without_a_tiled_loop_has_nothing_to_build():
    module = _gs_module()
    StencilCompiler(CompileOptions(vectorize=4)).lower(module)
    kernel = compile_function(module)
    assert kernel.native_source is None and not kernel.wait_native(1)
    kernel(*_args())
    assert kernel.tier == "numpy" and not kernel.events()
    with pytest.raises(BackendError, match="unavailable"):
        kernel.call_tier("native", *_args())


def test_an_op_the_c_printer_does_not_cover_is_one_rs017():
    from repro.cfdlib.heat import build_heat3d_module
    from repro.core.pipeline import ablation_options

    kernel = StencilCompiler(ablation_options(
        "Tr4", (6, 12, 22), (6, 6, 22), vf=22)).compile(
            build_heat3d_module(24, 1), entry="heat")
    reasons = _codes(kernel)
    if reasons:  # whatever is left out is named, once
        assert len(reasons) == 1 and reasons[0].startswith("unsupported-op:")
    assert all(e.code == "RS017" for e in kernel.events())


# ---------------------------------------------------------------------------
# The store: sealed, checked before CDLL, quarantined like any bad entry
# ---------------------------------------------------------------------------


@needs_cc
class TestSharedObjectOnDisk:
    def _cached(self, root):
        cache = KernelCache(disk_dir=root)
        kernel = compile_function(
            self._module(), cache=cache, options_key="native-test")
        return cache, kernel

    def _module(self):
        module = _gs_module()
        StencilCompiler(TILED).lower(module)
        return module

    def test_c_text_and_shared_object_live_beside_the_kernel(self, tmp_path):
        cache, kernel = self._cached(tmp_path)
        assert kernel.wait_native(60) and not kernel.events()
        names = sorted(p.name.split(".", 1)[1] for p in tmp_path.iterdir())
        assert names == ["c", "json", "py", "so", "so.json"]
        # a restarted process: the entry decodes with its C text, and the
        # build request finds the sealed .so instead of running cc
        BUILDER.libs.clear()
        BUILDER.cc = _script(tmp_path, "no-cc", "exit 1\n")
        restarted, again = self._cached(tmp_path)
        assert again is not kernel and again.native_source == kernel.native_source
        assert again.wait_native(60) and restarted.native.stats.disk_hits == 1
        np.testing.assert_array_equal(
            again(*_args())[0], kernel.call_tier("numpy", *_args())[0])

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_damaged_shared_object_is_quarantined_once(self, tmp_path, damage):
        _, kernel = self._cached(tmp_path)
        assert kernel.wait_native(60)
        (so,) = tmp_path.glob("*.so")
        blob = bytearray(so.read_bytes())
        if damage == "truncate":
            blob = blob[: len(blob) // 2]
        else:
            blob[len(blob) // 2] ^= 0xFF
        so.unlink()  # a new inode: this process has the old one mapped
        so.write_bytes(bytes(blob))
        BUILDER.libs.clear()
        restarted, again = self._cached(tmp_path)
        assert not again.wait_native(60)
        assert again.tier == "numpy" and _codes(again) == ["corrupt-so"]
        assert restarted.native.stats.quarantined == 1
        assert not so.exists() and (tmp_path / "quarantine" / so.name).is_file()
        (event,) = restarted.events()
        assert event.code == "RS004" and "native" in event.message
        np.testing.assert_array_equal(  # and the kernel still answers
            again(*_args())[0], kernel.call_tier("numpy", *_args())[0])
        # the hole is rebuilt over by the next kernel object
        _, third = self._cached(tmp_path)
        assert third.wait_native(60)

    def test_a_store_that_refuses_falls_back_to_the_process_temp_dir(self, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        cache, kernel = self._cached(blocker / "store")  # mkdir must fail
        assert kernel.wait_native(60) and not kernel.events()
        assert cache.native.stats.disk_errors == 1
        assert BUILDER.scratch().stats.disk_hits == 1

    def test_os_replace_stays_in_the_disk_store(self):
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        hits = [p.name for p in root.rglob("*.py") if "os.replace" in p.read_text()]
        assert hits == ["diskstore.py"]


# ---------------------------------------------------------------------------
# Fallbacks: these run with or without a compiler
# ---------------------------------------------------------------------------


class TestNoCompiler:
    def test_no_cc_is_one_event_per_process_and_no_noise(
        self, tmp_path, monkeypatch, capfd
    ):
        monkeypatch.setenv("PATH", str(tmp_path))
        BUILDER.cc = False  # look again
        kernels = [_tiled_kernel(), _tiled_kernel(_gs_module((18, 18)))]
        for kernel in kernels:
            assert not kernel.wait_native(5)
            shape = (1,) + tuple(kernel._shapes[0][1:])
            kernel(*_args(shape))
            assert kernel.tier == "numpy" and _codes(kernel) == ["no-cc"]
        process = native.drain_events()
        assert [e.code for e in process] == ["RS017"]
        assert process[0].message.endswith("no-cc")
        assert BUILDER._thread is None or BUILDER._queue.empty()
        out, err = capfd.readouterr()
        assert out == "" and err == ""

    def test_cc_exiting_1_leaves_the_kernel_on_numpy(self, tmp_path):
        BUILDER.cc = _script(tmp_path, "cc", "echo 'boom' >&2\nexit 1\n")
        kernel = _tiled_kernel()
        assert not kernel.wait_native(30)
        (reason,) = _codes(kernel)
        assert reason.startswith("build-failed") and "boom" in reason
        (x, b, y) = _args()
        np.testing.assert_array_equal(
            kernel(x, b, y)[0], kernel.call_tier("numpy", x, b, y)[0])
        assert kernel.native.done.is_set()  # and it is not asked for again

    def test_cc_hanging_past_the_timeout_never_blocks_a_call(self, tmp_path):
        BUILDER.cc = _script(tmp_path, "cc", "exec sleep 30\n")
        BUILDER.timeout = 0.5
        BUILDER.rate = 1e-12
        kernel = _tiled_kernel()
        start = time.perf_counter()
        kernel(*_args())  # earns, asks, returns
        kernel(*_args())
        assert time.perf_counter() - start < 5.0
        assert kernel.native.done.wait(30)
        assert kernel.tier == "numpy" and _codes(kernel) == ["build-timeout"]


@needs_cc
def test_two_kernels_crossing_together_build_one_at_a_time(tmp_path):
    lock = tmp_path / "building"
    BUILDER.cc = _script(tmp_path, "cc", f"""\
        mkdir {lock} || touch {tmp_path}/overlap
        sleep 0.3
        rmdir {lock}
        exec {CC} "$@"
    """)
    BUILDER.rate = 1e-12
    kernels = [_tiled_kernel(), _tiled_kernel(_gs_module((18, 18)))]
    threads = [
        threading.Thread(target=k, args=_args((1,) + tuple(k._shapes[0][1:])))
        for k in kernels
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    for kernel in kernels:
        assert kernel.native.done.wait(60)
        assert kernel.tier == "native"
    assert not (tmp_path / "overlap").exists()
    assert sum(t.name == "repro-native-builder" for t in threading.enumerate()) == 1
    assert NativeBuilder().libs == {}  # a fresh builder shares nothing


def test_interpreter_exit_with_a_build_in_flight_does_not_hang(tmp_path):
    cc = _script(tmp_path, "cc", "exec sleep 60\n")
    program = textwrap.dedent(f"""
        import numpy as np
        from repro.codegen.native import BUILDER
        from repro.core import frontend
        from repro.core.pipeline import CompileOptions, StencilCompiler
        from repro.core.stencil import gauss_seidel_5pt_2d
        BUILDER.cc = {cc!r}
        module = frontend.build_stencil_kernel(
            gauss_seidel_5pt_2d(), (18, 34), frontend.identity_body(4.0))
        kernel = StencilCompiler(CompileOptions(
            subdomain_sizes=(8, 16), parallel=True, vectorize=4,
            use_cache=False)).compile(module)
        kernel.native.request()
        assert not kernel.native.done.wait(1.0)
        print("exiting", kernel.tier)
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", program], env=env, timeout=45,
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "exiting numpy"
    assert time.perf_counter() - start < 40
