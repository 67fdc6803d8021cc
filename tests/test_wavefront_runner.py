"""A wavefront schedule is computed once per process and walked in C.

``scheduling.compute_parallel_blocks`` memoises the CSR arrays of each
``(grid, offsets)`` pair (read-only, bounded); a grouped loop's native
block carries ``block.run(lins)``, the C runner that takes a run of
tiles in one foreign call. The runner must change nothing but the
number of calls: native with the runner == native block by block ==
the NumPy tier, bit for bit, with the same dispatch stats, at one and
two threads, and a worker failure re-runs exactly the blocks the runner
did not report done.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.codegen.native import NativeLib
from repro.core import frontend, scheduling
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.core.stencil import gauss_seidel_5pt_2d
from repro.frontend import stencil_from_source
from repro.runtime.parallel import last_dispatch_stats, num_threads
from tests.test_native_tier import (
    FIG11, TILED, _args, _e2e_programs, _fields, _gs_module, _same_bits,
    needs_cc,
)

# ---------------------------------------------------------------------------
# The memo
# ---------------------------------------------------------------------------

DEPS = [(-1, 0), (0, -1)]


def test_a_kernels_second_call_computes_no_schedule(monkeypatch):
    kernel = StencilCompiler(TILED).compile(_gs_module())
    calls = Counter()
    original = scheduling.longest_path_schedule

    def counted(*args):
        calls["schedule"] += 1
        return original(*args)

    monkeypatch.setattr(scheduling, "longest_path_schedule", counted)
    scheduling._memo.cache_clear()
    first = kernel.call_tier("numpy", *_args())
    assert calls["schedule"] >= 1
    before = calls["schedule"]
    second = kernel.call_tier("numpy", *_args())
    assert calls["schedule"] == before
    np.testing.assert_array_equal(first[0], second[0])


def test_schedules_are_shared_read_only_and_still_valid():
    offsets, indices = scheduling.compute_parallel_blocks((4, 5), DEPS)
    assert not offsets.flags.writeable and not indices.flags.writeable
    with pytest.raises(ValueError):
        indices[0] = 1
    scheduling.validate_schedule((4, 5), DEPS, offsets, indices)
    # Lists, tuples and NumPy integers name the same entry.
    again = scheduling.compute_parallel_blocks(
        [np.int64(4), 5], [[-1, 0], [np.int64(0), -1]])
    assert again[0] is offsets and again[1] is indices


def test_distinct_grids_or_offsets_get_distinct_entries():
    scheduling._memo.cache_clear()
    a = scheduling.compute_parallel_blocks((4, 4), DEPS)
    b = scheduling.compute_parallel_blocks((4, 5), DEPS)
    c = scheduling.compute_parallel_blocks((4, 4), [(-1, 0)])
    assert scheduling._memo.cache_info().currsize == 3
    assert len(a[1]) == 16 and len(b[1]) == 20
    assert len(a[0]) == 8 and len(c[0]) == 5  # 7 diagonals vs 4 rows
    for x, y in ((a, b), (a, c), (b, c)):
        assert x[0] is not y[0] and x[1] is not y[1]


def test_the_memo_stays_bounded_after_a_thousand_grids():
    bound = scheduling._memo.cache_info().maxsize
    assert bound is not None
    for k in range(1000):
        scheduling.compute_parallel_blocks((k % 40 + 1, k // 40 + 1), DEPS)
    assert scheduling._memo.cache_info().currsize <= bound < 1000


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


@pytest.fixture
def calls(monkeypatch):
    """Counts the foreign calls of every native block: ``block`` (one
    tile) and ``run`` (a run of tiles), with each run's
    ``(lins, finished, error)`` in ``calls.runs``."""
    counts = Counter()
    counts.runs = []
    bind = NativeLib.__call__

    def spied(self, fn, fallback, *args, **kwargs):
        block = bind(self, fn, fallback, *args, **kwargs)
        if block is None or block is fallback:
            return block

        def one(lin):
            counts["block"] += 1
            return block(lin)

        if hasattr(block, "run"):
            def run(lins):
                counts["run"] += 1
                finished, exc = block.run(lins)
                counts.runs.append(([int(v) for v in lins], finished, exc))
                return finished, exc

            one.run = run
        return one

    monkeypatch.setattr(NativeLib, "__call__", spied)
    return counts


def _per_block(monkeypatch):
    """Native blocks without their runner: the per-block dispatch path."""
    entry = NativeLib._entry
    monkeypatch.setattr(NativeLib, "_entry", lambda self, fn: (entry(self, fn)[0], None))


def _stats():
    return dataclasses.asdict(last_dispatch_stats())


def _runner_vs_per_block(kernel, entry_args, calls, monkeypatch):
    """At 1 and 2 threads: native with the runner == native block by
    block == NumPy tier, bit for bit, with equal dispatch stats."""
    assert kernel.wait_native(120), kernel.events()
    fresh = lambda: [a.copy() for a in entry_args]  # noqa: E731
    for threads in (1, 2):
        with num_threads(threads):
            on_numpy, numpy_stats = kernel.call_tier("numpy", *fresh()), _stats()
            calls.clear()
            runner, runner_stats = kernel.call_tier("native", *fresh()), _stats()
            assert calls["run"] >= 1
            with monkeypatch.context() as m:
                _per_block(m)
                calls.clear()
                per_block, per_block_stats = kernel.call_tier("native", *fresh()), _stats()
                assert calls["run"] == 0 and calls["block"] >= 1
        for got, by_block, want in zip(runner, per_block, on_numpy):
            _same_bits(got, want)
            _same_bits(by_block, want)
        assert runner_stats == per_block_stats == numpy_stats


@needs_cc
@pytest.mark.parametrize("name", sorted(FIG11))
def test_fig11_runner_is_bit_identical_at_1_and_2_threads(name, calls, monkeypatch):
    source, shape, (subdomains, tiles, vf) = FIG11[name]
    options = CompileOptions(
        subdomain_sizes=subdomains, tile_sizes=tiles, fuse=True, parallel=True,
        vectorize=vf, use_cache=False,
    )
    kernel = stencil_from_source(source, {}).compile(shape, options=options, iterations=2)
    x, b = _fields((1,) + shape, 3)
    _runner_vs_per_block(kernel, (x, b, x.copy()), calls, monkeypatch)


@needs_cc
@pytest.mark.parametrize("kind", ["heat", "lusgs"])
def test_solver_runner_is_bit_identical_at_1_and_2_threads(kind, calls, monkeypatch):
    P = _e2e_programs()
    if kind == "heat":
        program = P.heat_implicit_program(
            18, P.tr4_options((8, 8, 16), (4, 4, 16), 16), np.random.default_rng(0))
    else:
        program = P.lusgs_program(
            8, P.tr4_options((4, 4, 8), (2, 2, 8), 8), np.random.default_rng(0))
    kernel = StencilCompiler(
        dataclasses.replace(program.options, use_cache=False)
    ).compile(program.build(), entry=program.entry)
    with np.errstate(all="ignore"):
        _runner_vs_per_block(kernel, program.make_args(), calls, monkeypatch)


@needs_cc
def test_9pt_sweep_at_threads_1_is_one_foreign_call(calls, monkeypatch):
    source, shape, (subdomains, tiles, vf) = FIG11["seidel-2D-9pt"]
    options = CompileOptions(
        subdomain_sizes=subdomains, tile_sizes=tiles, fuse=True, parallel=True,
        vectorize=vf, use_cache=False,
    )
    kernel = stencil_from_source(source, {}).compile(shape, options=options, iterations=2)
    assert kernel.wait_native(120)
    scope = kernel._fn.__globals__
    dispatch = scope["_dispatch_wavefronts"]
    sweeps = Counter()

    def counted(*args, **kwargs):
        sweeps["dispatch"] += 1
        return dispatch(*args, **kwargs)

    monkeypatch.setitem(scope, "_dispatch_wavefronts", counted)
    x, b = _fields((1,) + shape, 3)
    with num_threads(1):
        kernel(x, b, x.copy())
    assert sweeps["dispatch"] == 2  # one grouped loop per iteration
    assert last_dispatch_stats().blocks > 1
    assert calls["run"] == sweeps["dispatch"] and calls["block"] == 0


def _divide_by_old_neighbour(builder, args):
    """``u = (sum of neighbours) / (old u[i + 1, j])``: a zero in the
    input fails the one tile whose cell reads it."""
    _, contributions = frontend.identity_body(1.0)(builder, args)
    return args[3], contributions


@needs_cc
def test_runner_failure_re_runs_only_unfinished_blocks_at_2_threads(calls, monkeypatch):
    # A 4 x 4 tile grid: the wavefront of tiles 3, 6, 9, 12 is split
    # [3, 6] | [9, 12] over two workers. Cell (6, 20) lies in tile 6,
    # the second of its worker's slice, and divides by x[7, 20].
    kernel = StencilCompiler(CompileOptions(
        subdomain_sizes=(4, 8), tile_sizes=(2, 4), fuse=True, parallel=True,
        vectorize=0, use_cache=False,
    )).compile(frontend.build_stencil_kernel(
        gauss_seidel_5pt_2d(), (18, 34), _divide_by_old_neighbour))
    assert kernel.wait_native(120) and "_div(" in kernel.native_source
    x, b = _fields((1, 18, 34), 5)
    x += 3.0
    x[0, 7, 20] = 0.0
    outcomes = {}
    for path in ("numpy", "per-block", "runner"):
        with monkeypatch.context() as m, num_threads(2):
            if path == "per-block":
                _per_block(m)
            calls.clear()
            calls.runs.clear()
            with pytest.raises(ZeroDivisionError):
                kernel.call_tier("numpy" if path == "numpy" else "native",
                                 x.copy(), b.copy(), x.copy())
            outcomes[path] = _stats()
    assert outcomes["runner"] == outcomes["per-block"] == outcomes["numpy"]
    assert outcomes["runner"]["recovered_blocks"] == 1
    assert outcomes["runner"]["errors"] == [
        "block 6: ZeroDivisionError: float division by zero"]
    # The worker's run stopped after tile 3; recovery re-ran tile 6 alone.
    failed = [(lins, done) for lins, done, exc in calls.runs if exc is not None]
    assert failed == [([3, 6], 1), ([6], 0)]
    assert calls["block"] == 0
