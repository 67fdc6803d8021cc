"""Figure 15 — LU-SGS for the 3D Euler equations: generated vs elsA-like.

The paper's headline result: the generated implicit solver matches the
manually optimized industrial elsA framework. Here the generated solver
(full pipeline: sub-domain wavefronts + tiling + fusion + partial
vectorization) runs against the hand-optimized NumPy LU-SGS of
:mod:`repro.baselines.elsa` on a periodic density-wave box, reporting the
paper's metric::

    t_cell = threads * elapsed / (iterations * cells)

1-thread points are measured; the thread curves come from the Xeon 6152
simulator with each implementation's sub-domain schedule at the paper's
512^3 scale (elsA plotted up to one socket's 22 cores, as in the paper).

The curves are priced on the NumPy tier (pinned: repeated calls would
otherwise tier up mid-measurement). Beside them the generated solver is
timed once more on the native tier, where its flux producer and both
sweeps print as C; ``None`` where this host has no compiler.
"""

import numpy as np
import pytest

from repro.baselines.elsa import elsa_solve, subdomain_wavefront_sizes
from repro.bench.harness import format_series, save_results, time_callable
from repro.cfdlib import euler
from repro.cfdlib.boundary import add_ghost_layers
from repro.cfdlib.lusgs import (
    LUSGSConfig,
    build_lusgs_module,
    lusgs_reference,
    stable_dt,
)
from repro.cfdlib.mesh import StructuredMesh
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.machine import XEON_6152, WorkloadProfile, simulate_wavefront_execution
from repro.machine.simulator import cell_time_curve

N = 12
STEPS = 2
PAPER_N = 512
PAPER_SUBDOMAINS = (8, 16, 128)
MLIR_THREADS = [1, 2, 4, 8, 16, 22, 32, 40]
ELSA_THREADS = [1, 2, 4, 8, 16, 22]


@pytest.fixture(scope="module")
def setup():
    mesh = StructuredMesh((N, N, N))
    w0 = euler.density_wave((N, N, N), amplitude=0.05)
    config = LUSGSConfig(mesh=mesh, dt=stable_dt(w0, mesh, cfl=1.0))
    return config, w0


#: Hardware anchor: the paper's Fig. 15 curves sit around 0.4 us per
#: cell per iteration at low thread counts; the two implementations keep
#: their measured relative times around that scale.
PAPER_T_CELL = 0.4e-6


def _paper_profile(seconds: float, anchor_seconds: float) -> WorkloadProfile:
    sizes = subdomain_wavefront_sizes(
        [PAPER_N] * 3, list(PAPER_SUBDOMAINS)
    )
    per_cell = PAPER_T_CELL * seconds / anchor_seconds
    tile_cells = 1
    for t in PAPER_SUBDOMAINS:
        tile_cells *= t
    return WorkloadProfile(
        wavefront_sizes=sizes,
        tile_seconds=per_cell * tile_cells,
        tile_bytes=tile_cells * 5 * 3 * 8.0,
        iterations=50,
    )


def test_fig15_lusgs_vs_elsa(benchmark, setup):
    config, w0 = setup

    module = build_lusgs_module(config, steps=STEPS)
    options = CompileOptions(
        subdomain_sizes=(6, 6, 12),
        tile_sizes=(3, 3, 12),
        fuse=True,
        parallel=True,
        vectorize=12,
    )
    kernel = StencilCompiler(options).compile(module, entry="lusgs")
    w_padded = add_ghost_layers(w0)

    # Correctness first: both implementations agree with the reference.
    (generated,) = kernel(w_padded.copy())
    expected = lusgs_reference(w0, config, steps=STEPS)
    inner = (slice(None),) + (slice(1, -1),) * 3
    np.testing.assert_allclose(generated[inner], expected, rtol=1e-8)
    elsa_out = elsa_solve(w0, config, steps=STEPS)
    np.testing.assert_allclose(elsa_out, expected, rtol=1e-8)

    # The curve is anchored on the py-numpy unit the other figures price.
    mlir_t = time_callable(
        lambda: kernel.call_tier("numpy", w_padded.copy()), repeats=2
    )
    native_t = None
    if kernel.wait_native(120):
        native_t = time_callable(
            lambda: kernel.call_tier("native", w_padded.copy()), repeats=5
        )
    elsa_t = benchmark.pedantic(
        lambda: elsa_solve(w0, config, steps=STEPS), rounds=2, iterations=1
    )
    elsa_t = time_callable(
        lambda: elsa_solve(w0, config, steps=STEPS), repeats=2
    )

    curves = {}
    for name, seconds, threads in (
        ("This paper (generated)", mlir_t, MLIR_THREADS),
        ("elsA (hand-optimized)", elsa_t, ELSA_THREADS),
    ):
        profile = _paper_profile(seconds, elsa_t)
        sim_curve = cell_time_curve(
            profile, XEON_6152, threads, num_cells=PAPER_N**3
        )
        curves[name] = {p: v * 1e6 for p, v in sim_curve.items()}

    print()
    print(
        format_series(
            "threads",
            curves,
            title=(
                "Figure 15: LU-SGS Euler cell time per iteration and "
                "thread [microseconds] (1 thread measured; scaling "
                f"simulated at {PAPER_N}^3)"
            ),
        )
    )
    print("measured 1-thread seconds [NumPy tier | native tier | elsA]:")
    shown = "-" if native_t is None else f"{native_t * 1e3:.2f} ms"
    print(f"  {mlir_t * 1e3:.2f} ms | {shown} | {elsa_t * 1e3:.2f} ms")
    save_results("fig15_lusgs_euler", {
        "tier": "numpy", **curves,
        "measured_seconds": {"numpy": mlir_t, "native": native_t, "elsa": elsa_t},
    })

    # Paper shape: generated ~= hand-optimized (same order of magnitude;
    # the paper's curves overlap).
    gen = curves["This paper (generated)"]
    hand = curves["elsA (hand-optimized)"]
    for p in ELSA_THREADS:
        assert 0.2 <= gen[p] / hand[p] <= 5.0
