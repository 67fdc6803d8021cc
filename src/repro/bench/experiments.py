"""The evaluation experiments (§4), scaled to this environment.

Every table/figure of the paper has an entry here; the ``benchmarks/``
modules call these builders, print the regenerated rows/series, and
persist them under ``benchmarks/results/``.

Scaling strategy (see DESIGN.md): kernels execute for real at reduced
domain sizes on one core; multi-thread points are produced by the
:mod:`repro.machine` simulator running the compiler's *actual* wavefront
schedule at the paper's original domain/tile sizes, with tile costs
extrapolated from the measured per-cell times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import naive
from repro.baselines.pluto import PlutoOptions, PlutoStencil, pluto_jacobi
from repro.bench.harness import time_callable
from repro.core import frontend, scheduling
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.core.stencil import (
    StencilPattern,
    gauss_seidel_5pt_2d,
    gauss_seidel_6pt_3d,
    gauss_seidel_9pt_2d,
    gauss_seidel_9pt_2nd_order_2d,
    jacobi_5pt_2d,
)
from repro.machine import XEON_6152, WorkloadProfile, simulate_wavefront_execution

#: The vectorization factor used throughout the benchmarks. The paper
#: uses VF = 8 (one AVX-512 register of f64); this reproduction's vector
#: unit is a NumPy slice, whose sweet spot on small arrays sits higher.
BENCH_VF = 32

#: Hardware anchor for the thread-scaling simulation: the per-cell time
#: of a *scalar compiled* Gauss-Seidel cell update on the paper's Xeon
#: (order 10 ns). Our Python-backend per-cell times are ~100x slower,
#: which would make every kernel look compute-bound and hide the
#: bandwidth saturation of Figs. 12/13/15; anchoring the simulated tile
#: cost to hardware scale — while keeping OUR measured ratios between
#: implementations — restores realistic arithmetic intensity. Documented
#: in DESIGN.md/EXPERIMENTS.md.
HW_SCALAR_CELL_SECONDS = 10e-9


@dataclass
class KernelCase:
    """One §4.1 stencil use case, with the paper's and our parameters."""

    name: str
    pattern_factory: Callable[[], StencilPattern]
    paper_domain: Tuple[int, ...]
    paper_iterations: int
    domain: Tuple[int, ...]
    iterations: int
    #: Cache-tile sizes (the Table 2 "1-10 threads" column), ours.
    mlir_tiles: Tuple[int, ...]
    #: Paper's autotuned tile sizes (Table 2), for reference rows.
    paper_mlir_tiles: Tuple[int, ...]
    #: Pluto tile sizes (Table 3 analog), ours.
    pluto_tiles: Tuple[int, ...]
    paper_pluto_tiles: Tuple[int, ...]
    #: Sub-domain sizes used for the *simulated* parallel schedule, at
    #: the paper's domain scale.
    paper_subdomains: Tuple[int, ...]
    #: Vectorization factor for this case (chosen so the interior is a
    #: multiple of VF: the NumPy vector unit pays per-call overhead, so
    #: peeled remainders are kept at zero where the paper's AVX-512
    #: remainder handling is nearly free).
    vf: int = BENCH_VF

    @property
    def d(self) -> float:
        return float(self.pattern_factory().num_accesses)


#: Table 1 (configurations) + Tables 2/3 (tile sizes), paper vs ours.
KERNEL_CASES: Dict[str, KernelCase] = {
    "seidel-2D-5pt": KernelCase(
        name="seidel-2D-5pt",
        pattern_factory=gauss_seidel_5pt_2d,
        paper_domain=(2000, 2000),
        paper_iterations=500,
        domain=(130, 130),
        iterations=3,
        mlir_tiles=(32, 64),
        paper_mlir_tiles=(64, 256),
        pluto_tiles=(16, 16),
        paper_pluto_tiles=(16, 16),
        paper_subdomains=(32, 64),
    ),
    "seidel-2D-9pt": KernelCase(
        name="seidel-2D-9pt",
        pattern_factory=gauss_seidel_9pt_2d,
        paper_domain=(4000, 4000),
        paper_iterations=200,
        domain=(130, 130),
        iterations=2,
        mlir_tiles=(1, 64),
        paper_mlir_tiles=(1, 128),
        pluto_tiles=(16, 32),
        paper_pluto_tiles=(16, 32),
        paper_subdomains=(1, 128),
    ),
    "seidel-2D-9pt-2nd": KernelCase(
        name="seidel-2D-9pt-2nd",
        pattern_factory=gauss_seidel_9pt_2nd_order_2d,
        paper_domain=(2000, 2000),
        paper_iterations=500,
        domain=(132, 132),
        iterations=3,
        mlir_tiles=(32, 64),
        paper_mlir_tiles=(64, 256),
        pluto_tiles=(16, 16),
        paper_pluto_tiles=(16, 16),
        paper_subdomains=(20, 64),
    ),
    "heat-3D": KernelCase(
        name="heat-3D",
        pattern_factory=gauss_seidel_6pt_3d,
        paper_domain=(256, 256, 256),
        paper_iterations=50,
        domain=(26, 26, 26),
        iterations=2,
        mlir_tiles=(4, 8, 24),
        paper_mlir_tiles=(4, 26, 256),
        pluto_tiles=(4, 8, 16),
        paper_pluto_tiles=(4, 16, 256),
        paper_subdomains=(6, 12, 256),
        vf=24,
    ),
}


def _cells(domain: Sequence[int]) -> int:
    n = 1
    for d in domain:
        n *= d
    return n


# ---------------------------------------------------------------------------
# Kernel builders.
# ---------------------------------------------------------------------------


def build_mlir_kernel(
    case: KernelCase, options: Optional[CompileOptions] = None
):
    """The compiled generated kernel for one case (tiled + vectorized)."""
    pattern = case.pattern_factory()
    module = frontend.build_stencil_kernel(
        pattern,
        case.domain,
        frontend.identity_body(case.d),
        iterations=case.iterations,
    )
    options = options or CompileOptions(
        tile_sizes=case.mlir_tiles, vectorize=case.vf
    )
    return StencilCompiler(options).compile(module)


def case_inputs(case: KernelCase, seed: int = 0):
    rng = np.random.default_rng(seed)
    shape = (1,) + tuple(case.domain)
    return rng.standard_normal(shape), rng.standard_normal(shape)


def measure_case(
    case: KernelCase, repeats: int = 3
) -> Dict[str, float]:
    """Wall-clock seconds per implementation, single thread, real runs:
    the backbone of Fig. 11's 1-thread panel."""
    pattern = case.pattern_factory()
    x, b = case_inputs(case)
    u2, b2 = x[0].copy(), b[0]

    naive_t = time_callable(
        lambda: naive.iterate(
            naive.gauss_seidel_sweep_python, u2.copy(), b2, pattern,
            case.d, case.iterations,
        ),
        repeats=repeats,
    )
    pluto1 = PlutoStencil(
        pattern, case.d, PlutoOptions(variant=1, tile_sizes=case.pluto_tiles)
    )
    pluto1_t = time_callable(
        lambda: pluto1.run(u2, b2, case.iterations), repeats=repeats
    )
    pluto2 = PlutoStencil(
        pattern, case.d, PlutoOptions(variant=2, tile_sizes=case.pluto_tiles)
    )
    pluto2_t = time_callable(
        lambda: pluto2.run(u2, b2, case.iterations), repeats=repeats
    )
    kernel = build_mlir_kernel(case)
    # The speedups feed the py-numpy machine model: time that tier, and
    # do not let repeated calls change it mid-measurement.
    mlir_t = time_callable(
        lambda: kernel.call_tier("numpy", x, b, x.copy()), repeats=repeats
    )
    return {
        "naive": naive_t,
        "C+Pluto 1": pluto1_t,
        "C+Pluto 2": pluto2_t,
        "MLIR": mlir_t,
        "_pluto1_waves": pluto1.last_wavefront_sizes,
        "_pluto2_waves": pluto2.last_wavefront_sizes,
    }


_MEASURED_CACHE: Dict[str, Dict[str, float]] = {}


def measured(case_name: str, repeats: int = 2) -> Dict[str, float]:
    """Cached :func:`measure_case` (several benchmarks share the runs)."""
    if case_name not in _MEASURED_CACHE:
        _MEASURED_CACHE[case_name] = measure_case(
            KERNEL_CASES[case_name], repeats=repeats
        )
    return _MEASURED_CACHE[case_name]


# ---------------------------------------------------------------------------
# Simulated parallel profiles (paper-scale schedules, measured tile cost).
# ---------------------------------------------------------------------------


def hw_per_cell(
    implementation_seconds: float, naive_seconds: float
) -> float:
    """Map a measured per-run time onto the hardware anchor: the scalar
    baseline is pinned at :data:`HW_SCALAR_CELL_SECONDS` per cell and
    every implementation keeps its *measured* ratio to it."""
    return HW_SCALAR_CELL_SECONDS * implementation_seconds / naive_seconds


def mlir_parallel_profile(
    case: KernelCase, measured_seconds: float, naive_seconds: float
) -> WorkloadProfile:
    """The compiler's wavefront schedule at the *paper's* domain size,
    with hardware-anchored tile cost (measured implementation ratios)."""
    pattern = case.pattern_factory()
    from repro.core.tiling import legalize_tile_sizes

    sub = legalize_tile_sizes(pattern, case.paper_subdomains)
    grid = [
        max(1, -(-n // t)) for n, t in zip(case.paper_domain, sub)
    ]
    deps = pattern.block_stencil_offsets(sub)
    offsets, _ = scheduling.compute_parallel_blocks(grid, deps)
    sizes = scheduling.group_sizes(offsets)
    per_cell = hw_per_cell(measured_seconds, naive_seconds)
    tile_cells = _cells(sub)
    return WorkloadProfile(
        wavefront_sizes=[int(s) for s in sizes],
        tile_seconds=per_cell * tile_cells,
        tile_bytes=tile_cells * 3 * 8.0,
        iterations=case.paper_iterations,
    )


def pluto_parallel_profile(
    case: KernelCase,
    measured_seconds: float,
    naive_seconds: float,
    wavefront_sizes: List[int],
    variant: int,
) -> WorkloadProfile:
    """The Pluto baseline's wavefront profile scaled to paper size.

    The measured run already produced the tile wavefront structure at our
    scale; paper-scale profiles scale the group count with the domain
    ratio per dimension (parallelogram tiling preserves the diamond
    shape)."""
    scale = max(
        1,
        round(
            (_cells(case.paper_domain) / _cells(case.domain))
            ** (1.0 / len(case.domain))
        ),
    )
    sizes = []
    for s in wavefront_sizes:
        sizes.extend([s * scale ** (len(case.domain) - 1)] * scale)
    total_tiles = sum(sizes)
    iterations = (
        1 if variant == 1 else case.paper_iterations
    )
    per_cell = hw_per_cell(measured_seconds, naive_seconds)
    paper_cells = _cells(case.paper_domain) * (
        case.paper_iterations if variant == 1 else 1
    )
    tile_seconds = per_cell * paper_cells / max(1, total_tiles)
    # Parallelogram tiles traverse the domain diagonally: accesses are
    # strided across cache lines ("scatter and gather instructions
    # under-utilizing memory bandwidth", §2.4), and partial tiles at the
    # skewed boundaries re-stream their halos. Modeled as a 3x traffic
    # inflation relative to the rectangular-tile kernels.
    skew_traffic = 3.0
    return WorkloadProfile(
        wavefront_sizes=sizes,
        tile_seconds=tile_seconds,
        tile_bytes=(paper_cells / max(1, total_tiles)) * 3 * 8.0 * skew_traffic,
        iterations=iterations,
    )


def simulated_speedups(
    case: KernelCase,
    measured: Dict[str, float],
    threads: Sequence[int],
) -> Dict[str, Dict[int, float]]:
    """Fig. 11/12 panels: speedup over sequential naive per thread count.

    1-thread points are the real measurements; >1 threads scale them by
    the simulated parallel efficiency of each implementation's schedule.
    """
    out: Dict[str, Dict[int, float]] = {}
    base = measured["naive"]
    profiles = {
        "C+Pluto 1": pluto_parallel_profile(
            case, measured["C+Pluto 1"], base, measured["_pluto1_waves"], 1
        ),
        "C+Pluto 2": pluto_parallel_profile(
            case, measured["C+Pluto 2"], base, measured["_pluto2_waves"], 2
        ),
        "MLIR": mlir_parallel_profile(case, measured["MLIR"], base),
    }
    for name, profile in profiles.items():
        one = simulate_wavefront_execution(profile, 1, XEON_6152)
        curve = {}
        for p in threads:
            sim = simulate_wavefront_execution(profile, p, XEON_6152)
            efficiency = one / sim
            curve[p] = (base / measured[name]) * efficiency
        out[name] = curve
    return out


# ---------------------------------------------------------------------------
# Jacobi (out-of-place) comparison, §4.1 last paragraph.
# ---------------------------------------------------------------------------


def measure_jacobi(n: int = 258, iterations: int = 10, repeats: int = 3):
    pattern = jacobi_5pt_2d()
    rng = np.random.default_rng(1)
    u = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    pluto_t = time_callable(
        lambda: pluto_jacobi(u, b, pattern, 4.0, iterations), repeats=repeats
    )
    module = frontend.build_stencil_kernel(
        pattern, (n, n), frontend.identity_body(4.0), iterations=iterations
    )
    kernel = StencilCompiler(
        CompileOptions(vectorize=128)
    ).compile(module)
    x = u[None].copy()
    bb = b[None].copy()
    mlir_t = time_callable(lambda: kernel(x, bb, x.copy()), repeats=repeats)
    return {"C+Pluto": pluto_t, "MLIR": mlir_t}
