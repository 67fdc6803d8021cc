"""Slices as views: a ``tensor.extract_slice`` that is only read, or that
is updated in place and put back where it came from, prints as a view of
its source — ``src[w]`` on the NumPy tier, ``_view`` in C — instead of a
copy; every other slice stays a copy (``Emitter.view``).

Three parts: what the printers print (structural), that views change no
bit on any tier at one and two threads (differential, the interpreter
keeping value semantics as the oracle), and that each way of getting the
rule or the C helpers wrong is caught (mutants).
"""

import ctypes
import dataclasses
import re
import subprocess

import numpy as np
import pytest

from repro.codegen import c_backend, python_backend
from repro.codegen.interpreter import Interpreter
from repro.codegen.python_backend import Emitter
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.frontend import stencil_from_source
from repro.ir.parser import parse_module
from repro.runtime.parallel import last_dispatch_stats, num_threads
from tests.test_native_tier import (
    CC, CORPUS, FIG11, LIBM, _corpus_args, _e2e_programs, _fields, _same_bits,
    needs_cc,
)
from tests.test_wavefront_runner import _per_block


def _fig11_kernel(name):
    source, shape, (subdomains, tiles, vf) = FIG11[name]
    options = CompileOptions(
        subdomain_sizes=subdomains, tile_sizes=tiles, fuse=True, parallel=True,
        vectorize=vf, use_cache=False,
    )
    return stencil_from_source(source, {}).compile(shape, options=options, iterations=2)


def _lusgs():
    P = _e2e_programs()
    return P.lusgs_program(
        8, P.tr4_options((4, 4, 8), (2, 2, 8), 8), np.random.default_rng(0))


def _block_bodies(source):
    """The text of every ``def blkN`` closure (a grouped loop's body)."""
    return re.findall(r"def blk\d+\(.*?(?=\n        _dispatch_wavefronts)",
                      source, re.S)


# ---------------------------------------------------------------------------
# Structural
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FIG11))
def test_fig11_blocks_and_tiles_copy_no_slice(name):
    kernel = _fig11_kernel(name)
    assert kernel.native_source and "_slice(&" not in kernel.native_source
    assert "_view(&" in kernel.native_source
    bodies = _block_bodies(kernel.source)
    assert bodies and not [b for b in bodies if ".copy()" in b]


def test_lusgs_keeps_exactly_its_scratch_slice_copies():
    """LU-SGS's flux accumulator is sliced, filled and never put back: as a
    view it would write the scratch buffer that other tiles share."""
    kernel = StencilCompiler(
        dataclasses.replace(_lusgs().options, use_cache=False)
    ).compile(_lusgs().build(), entry="lusgs")
    c = kernel.native_source
    copies = re.findall(r"T (v\d+); if \(_slice\(", c)
    assert copies
    for n in copies:
        assert f"_fill(&{n}," in c and not re.search(rf"_put\([^;]*&{n}, &_err", c)
    python = [re.match(r"\s*(v\d+) = ", line).group(1)
              for body in _block_bodies(kernel.source)
              for line in body.splitlines() if line.endswith(".copy()")]
    assert sorted(python) == sorted(copies)
    assert c.count("_view(&") > 2 * len(copies)


# ---------------------------------------------------------------------------
# Differential: native runner == native per block == NumPy tier == interpreter
# ---------------------------------------------------------------------------


def _programs():
    return {p.name.split("@")[0]: p
            for p in _e2e_programs().small_set(np.random.default_rng(0))}


CASES = sorted(_programs()) + [e.name for e in CORPUS]


def _case(name):
    """``(unlowered module, entry, options, args)`` of one case."""
    programs = _programs()
    if name in programs:
        p = programs[name]
        return p.build(), p.entry, p.options, p.make_args()
    entry = next(e for e in CORPUS if e.name == name)
    return entry.build(), entry.entry, entry.options, _corpus_args(entry)


def _captured_arrays(block):
    """The arrays a block closure (NumPy tier) or a bound native block
    (its ``_keep`` default) works on."""
    values = [c.cell_contents for c in block.__closure__ or ()]
    for v in block.__defaults__ or ():
        values += list(v) if isinstance(v, (list, tuple)) else [v]
    return [v for v in values if isinstance(v, np.ndarray) and v.flags.writeable]


def _commuting(offsets, indices, block, **_):
    """Wavefront dispatch that runs each group of two or more blocks in
    order and again in reverse from the same state: blocks that may run
    concurrently must leave every buffer the same either way. A block that
    writes cells outside its core (a view too many) breaks that, at one
    thread and every time."""
    arrays = _captured_arrays(block)
    for g in range(len(offsets) - 1):
        lins = [int(v) for v in indices[offsets[g]:offsets[g + 1]]]
        before = [a.copy() for a in arrays]
        for lin in lins:
            block(lin)
        if len(lins) > 1:
            after = [a.copy() for a in arrays]
            for a, b in zip(arrays, before):
                a[...] = b
            for lin in reversed(lins):
                block(lin)
            for a, b in zip(arrays, after):
                _same_bits(a, b)


def _every_tier(kernel, module, entry, args, monkeypatch, libm=False):
    """Every tier against the interpreter, at one and two threads, and
    with the groups' blocks run in both orders."""
    fresh = lambda: [a.copy() for a in args]  # noqa: E731
    native = kernel.native_source is not None
    assert not native or kernel.wait_native(120), kernel.events()
    tiers = ("numpy", "native") if native else ("numpy",)
    with np.errstate(all="ignore"):
        oracle = Interpreter(module).run(entry, *fresh())
        runs = []
        for threads in (1, 2):
            with num_threads(threads):
                runs += [kernel.call_tier(tier, *fresh()) for tier in tiers]
                with monkeypatch.context() as m:
                    _per_block(m)
                    runs += [kernel.call_tier(tier, *fresh()) for tier in tiers[1:]]
        with monkeypatch.context() as m:
            m.setitem(kernel._fn.__globals__, "_dispatch_wavefronts", _commuting)
            runs += [kernel.call_tier(tier, *fresh()) for tier in tiers]
    for got in runs:
        for g, want in zip(got, oracle):
            if libm and got is not runs[0]:  # libm: C vs NumPy
                np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-12)
            else:
                _same_bits(g, want)


@needs_cc
@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("name", CASES)
def test_views_are_bit_identical_on_every_tier(name, opt_level, monkeypatch):
    module, entry, options, args = _case(name)
    compiler = StencilCompiler(
        dataclasses.replace(options, opt_level=opt_level, use_cache=False))
    compiler.lower(module)
    kernel = compiler.finish(module, entry=entry)
    _every_tier(kernel, module, entry, args, monkeypatch, libm=name in LIBM)


@needs_cc
def test_two_threads_with_tiles_straddling_block_corners():
    """The 5pt kernel on 2x2 blocks whose middle group runs two blocks at
    once: each tile window reaches one cell past its block, so the tiles
    at a block corner view cells the concurrent block writes."""
    source = FIG11["seidel-2D-5pt"][0]
    options = CompileOptions(
        subdomain_sizes=(48, 48), tile_sizes=(8, 16), fuse=True, parallel=True,
        vectorize=8, use_cache=False,
    )
    program = stencil_from_source(source, {})
    kernel = program.compile((98, 98), options=options, iterations=2)
    assert kernel.wait_native(120), kernel.events()
    x, b = _fields((1, 98, 98), 5)
    (want,) = kernel.call_tier("numpy", x, b, x.copy())
    with num_threads(2):
        for tier in ("native", "numpy") * 5:
            (got,) = kernel.call_tier(tier, x, b, x.copy())
            _same_bits(got, want)
            assert last_dispatch_stats().parallel_groups == 1


# ---------------------------------------------------------------------------
# Mutants
# ---------------------------------------------------------------------------


def _lusgs_differs(monkeypatch, target, attr, mutant):
    """Does LU-SGS with ``target.<attr>`` replaced by ``mutant`` differ
    from the interpreter on some tier?"""
    monkeypatch.setattr(target, attr, mutant)
    program = _lusgs()
    compiler = StencilCompiler(dataclasses.replace(program.options, use_cache=False))
    module = program.build()
    compiler.lower(module)
    kernel = compiler.finish(module, entry="lusgs")
    try:
        _every_tier(kernel, module, "lusgs", program.make_args(), monkeypatch)
    except AssertionError:
        return True
    return False


@needs_cc
def test_viewing_every_slice_is_caught(monkeypatch):
    assert _lusgs_differs(monkeypatch, Emitter, "view", lambda self, op: True)


#: A slice updated in place, then put back at other cells: no update pair.
_SHIFTED_PUT = """builtin.module() ({
^bb():
  func.func() {function_type = (tensor<4x4xf64>) -> tensor<4x4xf64>, sym_name = "kernel"} ({
  ^bb(%0: tensor<4x4xf64>):
    %1 = arith.constant() {value = 0 : index} : () -> (index)
    %2 = arith.constant() {value = 2 : index} : () -> (index)
    %3 = arith.constant() {value = 5.0 : f64} : () -> (f64)
    %4 = tensor.insert(%3, %0, %2, %2) : (f64, tensor<4x4xf64>, index, index) -> (tensor<4x4xf64>)
    %5 = tensor.extract_slice(%4, %1, %1, %2, %2) : (tensor<4x4xf64>, index, index, index, index) -> (tensor<?x?xf64>)
    %6 = tensor.insert(%3, %5, %1, %1) : (f64, tensor<?x?xf64>, index, index) -> (tensor<?x?xf64>)
    %7 = tensor.insert_slice(%6, %4, %2, %2, %2, %2) : (tensor<?x?xf64>, tensor<4x4xf64>, index, index, index, index) -> (tensor<4x4xf64>)
    func.return(%7) : (tensor<4x4xf64>) -> ()
  }) : () -> ()
}) : () -> ()
"""


def _shifted_put_differs():
    """Does the emitted ``_SHIFTED_PUT`` differ from the interpreter?"""
    module = parse_module(_SHIFTED_PUT)
    x = np.arange(16.0).reshape(4, 4)
    scope = {}
    exec(compile(python_backend.emit_module(module), "<shifted>", "exec"), scope)
    (got,) = scope["kernel"](x.copy())
    (want,) = Interpreter(module).run("kernel", x.copy())
    return not np.array_equal(got, want)


def test_an_update_pair_without_the_window_check_is_caught(monkeypatch):
    """As a view, the slice's in-place update would also write the cells
    it came from, which the put-back at other cells leaves unchanged."""
    assert not _shifted_put_differs()
    monkeypatch.setattr(python_backend, "_same_cells", lambda *a: True)
    assert _shifted_put_differs()


#: C checks of the PRELUDE helpers a view meets: 1 when right.
_CHECKS = r"""
int copy_onto_same_pointer_other_strides(void) {
    double a[8] = {0, 1, 2, 3, 4, 5, 6, 7};
    T d = {a, {2, 2}, {4, 1}}, s = {a, {2, 2}, {2, 1}};
    int e = 0;
    _copy(&d, &s, 2, &e);
    return !e && a[4] == 2 && a[5] == 3 && a[2] == 2;
}
int copy_onto_itself_is_left_be(void) {
    double a[4] = {0, 1, 2, 3};
    T d = {a, {2, 2}, {2, 1}};
    int e = 0;
    return !_copy(&d, &d, 2, &e) && a[3] == 3;
}
int fill_of_a_strided_view(void) {
    double a[12] = {0}, sum = 0;
    T t = _arg(a, (long[]){3, 4}, 2), v;
    int e = 0;
    if (_view(&v, &t, 2, (long[]){1, 1}, (long[]){2, 2}, &e)) return 0;
    _fill(&v, 2, 1.0);
    for (int k = 0; k < 12; ++k) sum += a[k];
    return sum == 4 && a[5] == 1 && a[6] == 1 && a[9] == 1 && a[10] == 1;
}
"""

#: (what is replaced in the PRELUDE, the mutant, the check that fails)
MUTANTS = {
    "copy-skips-on-pointer-only": (
        "if (d->p == s->p && !memcmp(d->s, s->s, r * sizeof(long))) return 0;",
        "if (d->p == s->p) return 0;",
        "copy_onto_same_pointer_other_strides",
    ),
    "contiguous-fill": (
        "FN void _fill(const T *t, int r, double v) { _rows(t, NULL, v, r); }",
        "FN void _fill(const T *t, int r, double v) {\n"
        "    long size = 1;\n"
        "    for (int d = 0; d < r; ++d) size *= t->n[d];\n"
        "    for (long k = 0; k < size; ++k) t->p[k] = v;\n"
        "}",
        "fill_of_a_strided_view",
    ),
}


def _checks(tmp_path, prelude):
    (tmp_path / "checks.c").write_text(prelude + _CHECKS)
    subprocess.run([CC, "-O1", "-shared", "-fPIC", "-o", "checks.so", "checks.c"],
                   cwd=tmp_path, check=True)
    lib = ctypes.CDLL(str(tmp_path / "checks.so"))
    return {n: getattr(lib, n)() for n in re.findall(r"int (\w+)\(void\)", _CHECKS)}


@needs_cc
def test_prelude_helpers_walk_a_views_strides(tmp_path):
    assert set(_checks(tmp_path, c_backend.PRELUDE).values()) == {1}


@needs_cc
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_prelude_mutant_is_caught(mutant, tmp_path):
    old, new, check = MUTANTS[mutant]
    assert old in c_backend.PRELUDE
    results = _checks(tmp_path, c_backend.PRELUDE.replace(old, new))
    assert results[check] == 0
