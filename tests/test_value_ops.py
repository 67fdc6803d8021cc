"""The value-op records (:class:`repro.dialects.arith.ValueOp`) against
the interpreter, which keeps its own meaning of every op as the oracle.

(a) the records and the interpreter's ``arith``/``math``/``vector.fma``
    handlers name the same ops;
(b) each float record, applied to the neighbours of a 5-point stencil
    over ±0, subnormals, large magnitudes and NaN, gives a NumPy-tier
    result bit-identical to the interpreter on the same lowered module;
(c) with a host C compiler the native tier equals the NumPy tier
    (``exp``/``log`` within 1e-12: libm is not NumPy), its C text builds
    under ``-Wall -Wextra -Werror``, and a record without a C format is
    exactly one RS017 ``unsupported-op:<name>``.

Plus the verifier on ill-typed IR text, which the records' arity and
type rule reject, and the canonical pipelines, which still verify.
"""

import dataclasses
import re
import shutil
import subprocess

import numpy as np
import pytest

from repro.analysis.corpus import build_corpus
from repro.codegen.interpreter import _HANDLERS, Interpreter
from repro.core import frontend
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.core.stencil import gauss_seidel_5pt_2d
from repro.dialects import arith
from repro.ir.parser import parse_module
from repro.ir.verifier import IRVerificationError, verify

CC = shutil.which("cc")
needs_cc = pytest.mark.skipif(CC is None, reason="no host C compiler")

RECORDS = arith.value_ops()
FLOAT_OPS = sorted(n for n, r in RECORDS.items() if r.TYPE == "float")
#: Not correctly rounded in libm: equal to NumPy within 1e-12 only.
LIBM = {"math.exp", "math.log"}
#: NumPy breaks a ±0 tie by the host's SIMD rule (x86: the second
#: operand); the C macros ``_FMAX``/``_FMIN`` follow it.
SIGNED_ZERO_TIES = {"arith.maximumf", "arith.minimumf"}

SHAPE = (10, 15)  # rows of two strips and of a strip plus a scalar peel
OPTIONS = CompileOptions(
    subdomain_sizes=(4, 8), tile_sizes=(2, 4), parallel=True, vectorize=4,
    use_cache=False,
)
#: ±0, subnormals, large magnitudes, NaN, inf and a few ordinary values.
EDGE = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.5, -2.75, 0.1, 3.0,
        float("nan"), 7e-3, float("-inf"), -1e-5, 1e-200]


def _body(name):
    """``Y = (B + name(right, down, ...)) / 4``, the other contributions
    ``-0.0`` (which keeps a zero's sign): the op reads the ``U``
    neighbours, the initial field, so each cell applies it to edge values
    of its own, unmixed with what other cells made of theirs."""
    record = RECORDS[name]

    def body(builder, args):
        up, left, right, down, _center = args
        term = record.build(builder, *[right, down, right][: record.ARITY]).result()
        nothing = arith.const_f64(builder, -0.0)
        return arith.const_f64(builder, 4.0), [nothing, nothing, term, nothing, nothing]

    return body


def _compiled(name):
    """The lowered module and the kernel finished from it."""
    module = frontend.build_stencil_kernel(gauss_seidel_5pt_2d(), SHAPE, _body(name))
    compiler = StencilCompiler(OPTIONS)
    compiler.lower(module)
    return module, compiler.finish(module)


def _inputs():
    """The edge values drawn over the mesh with ``B = -0.0``, so that
    ``Y`` is the op's result over 4; then ordinary ones, on which no op
    raises."""
    edge = np.random.default_rng(5).choice(EDGE, (1, *SHAPE))
    ordinary = np.random.default_rng(3).uniform(0.5, 1.0, (1, *SHAPE))
    return [(edge, np.full_like(edge, -0.0)), (ordinary, ordinary[:, ::-1].copy())]


def _outcome(run, x, b):
    """The result field, or the class of what was raised."""
    try:
        with np.errstate(all="ignore"):
            (y,) = run(x.copy(), b.copy(), x.copy())
        return y
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)


def _assert_same_bits(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    assert np.array_equal(np.isnan(got), np.isnan(want))
    real = ~np.isnan(want)
    np.testing.assert_array_equal(got[real].view(np.int64), want[real].view(np.int64))


def test_records_and_interpreter_name_the_same_ops():
    handled = {
        n for n in _HANDLERS
        if n.startswith(("arith.", "math.")) or n == "vector.fma"
    } - {"arith.constant"}
    assert set(RECORDS) == handled


@pytest.mark.parametrize("name", FLOAT_OPS)
def test_numpy_tier_is_bit_identical_to_the_interpreter(name):
    module, kernel = _compiled(name)
    for x, b in _inputs():
        interpreted = _outcome(lambda *a: Interpreter(module).run("kernel", *a), x, b)
        on_numpy = _outcome(lambda *a: kernel.call_tier("numpy", *a), x, b)
        _assert_same_bits(on_numpy, interpreted)
    assert isinstance(on_numpy, np.ndarray), "the ordinary inputs must run"


@needs_cc
@pytest.mark.parametrize("name", [n for n in FLOAT_OPS if RECORDS[n].C is not None])
def test_native_tier_equals_the_numpy_tier(name, tmp_path):
    _, kernel = _compiled(name)
    (tmp_path / "k.c").write_text(kernel.native_source)
    subprocess.run(
        [CC, "-O1", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", "k.c"],
        cwd=tmp_path, check=True)
    assert kernel.wait_native(60), kernel.events()
    for x, b in _inputs():
        on_numpy = _outcome(lambda *a: kernel.call_tier("numpy", *a), x, b)
        on_native = _outcome(lambda *a: kernel.call_tier("native", *a), x, b)
        if name in LIBM and isinstance(on_numpy, np.ndarray):
            np.testing.assert_allclose(on_native, on_numpy, rtol=1e-12, atol=1e-12)
        elif name in SIGNED_ZERO_TIES:
            np.testing.assert_array_equal(on_native, on_numpy)
        else:
            _assert_same_bits(on_native, on_numpy)
    assert not kernel.events()


@needs_cc
@pytest.mark.parametrize("name", sorted(SIGNED_ZERO_TIES))
def test_native_max_min_break_signed_zero_ties_like_numpy(name):
    _, kernel = _compiled(name)
    assert kernel.wait_native(60), kernel.events()
    x, b = _inputs()[0]
    on_numpy = _outcome(lambda *a: kernel.call_tier("numpy", *a), x, b)
    on_native = _outcome(lambda *a: kernel.call_tier("native", *a), x, b)
    _assert_same_bits(on_native, on_numpy)


@pytest.mark.parametrize("name", [n for n, r in RECORDS.items() if r.C is None])
def test_an_op_without_a_c_format_is_one_rs017(name):
    _, kernel = _compiled(name)
    assert kernel.native_source is None
    assert [e.code for e in kernel.events()] == ["RS017"]
    assert kernel.events()[0].message.endswith(f"unsupported-op:{name}")


#: Row values: ``powf`` reads its base from a cell's row (the right
#: neighbour) and its exponent from the next row (the one below).
POWF_ROWS = [1.0, -2.0, 0.5, 1e300, 2.0, -1e300, 3.0, -3.0, 1001.0, 0.0]


@pytest.mark.parametrize("vf", [0, 4], ids=["scalar-unit", "vector-lanes"])
def test_powf_edges_are_numpy_power_not_an_exception(vf):
    """A negative base with a non-integer exponent is NaN and an overflow
    ±inf, on the scalar unit and in the interpreter alike: what
    ``numpy.power`` gives the kernel's vector lanes."""
    module = frontend.build_stencil_kernel(
        gauss_seidel_5pt_2d(), SHAPE, _body("math.powf"))
    compiler = StencilCompiler(dataclasses.replace(OPTIONS, vectorize=vf))
    compiler.lower(module)
    kernel = compiler.finish(module)
    x = np.repeat(np.array(POWF_ROWS)[:, None], SHAPE[1], axis=1)[None]
    b = np.full_like(x, -0.0)
    with np.errstate(all="ignore"):
        (on_numpy,) = kernel.call_tier("numpy", x.copy(), b.copy(), x.copy())
        (interpreted,) = Interpreter(module).run("kernel", x.copy(), b.copy(), x.copy())
        want = np.power(POWF_ROWS[1:-1], POWF_ROWS[2:]) / 4.0
    _assert_same_bits(on_numpy, interpreted)
    for row, value in enumerate(want, start=1):
        _assert_same_bits(on_numpy[0, row, 1:-1], np.full(SHAPE[1] - 2, value))
    assert np.isnan(want).any() and np.isposinf(want).any() and np.isneginf(want).any()


_HEAD = """builtin.module() ({
^bb():
  %0 = test.def() : () -> (f64)
  %1 = test.def() : () -> (index)
"""


@pytest.mark.parametrize("line, message", [
    ('%2 = arith.cmpf(%1, %1) {predicate = "lt"} : (index, index) -> (i1)',
     "requires float operands"),
    ('%2 = arith.cmpi(%0, %0) {predicate = "lt"} : (f64, f64) -> (i1)',
     "requires int operands"),
    ("%2 = math.powf(%1, %1) : (index, index) -> (index)", "requires float operands"),
    ("%2 = math.powf(%0, %0) : (f64, f64) -> (i1)", "result type i1"),
    ("%2, %3 = arith.sitofp(%1) : (index) -> (f64, f64)", "1 operand(s) and 1 result"),
    ('%2 = arith.cmpf(%0) {predicate = "lt"} : (f64) -> (i1)',
     "2 operand(s) and 1 result"),
    ("%2 = arith.sitofp() : () -> (f64)", "1 operand(s) and 1 result"),
    ("%2 = arith.sitofp(%0) : (f64) -> (f64)", "casts integer-like to float"),
    ("%2 = math.fma(%0, %0, %0) : (f64, f64, f64) -> (index)", "result type index"),
    ("%2 = arith.select(%0, %0, %0) : (f64, f64, f64) -> (f64)", "condition must be i1"),
], ids=["cmpf-index", "cmpi-f64", "powf-index", "powf-i1", "sitofp-2-results",
        "cmpf-1-operand", "sitofp-0-operands", "sitofp-f64", "fma-index",
        "select-f64-condition"])
def test_ill_typed_value_ops_are_rejected(line, message):
    module = parse_module(_HEAD + f"  {line}\n}}) : () -> ()")
    with pytest.raises(IRVerificationError, match=re.escape(message)):
        verify(module)


def test_well_typed_value_ops_verify():
    verify(parse_module(_HEAD + """\
  %2 = arith.cmpf(%0, %0) {predicate = "lt"} : (f64, f64) -> (i1)
  %3 = math.powf(%0, %0) : (f64, f64) -> (f64)
  %4 = arith.sitofp(%1) : (index) -> (f64)
  %5 = arith.select(%2, %0, %4) : (i1, f64, f64) -> (f64)
}) : () -> ()"""))


@pytest.mark.parametrize(
    "entry", [e for entries in build_corpus().values() for e in entries],
    ids=lambda e: e.name,
)
def test_canonical_pipelines_verify_at_every_pass(entry):
    options = dataclasses.replace(entry.options, verify_each=True, use_cache=False)
    compiler = StencilCompiler(options)
    module = entry.build()
    verify(module)
    compiler.lower(module)  # the structural verifier runs after each pass
    verify(module)
