"""PR8 bench: prediction accuracy of the static performance prover.

Cross-validates ``repro.analysis.perf`` three ways, written to
``results/BENCH_pr8_static_cost.json``:

* **rank correlation** — over a Table-2-style tile sweep for heat-3D
  and the LU-SGS symmetric sweeps, the static cost (priced against
  :data:`PY_NUMPY_BACKEND`, the model calibrated to the executor that
  actually runs generated code here) must rank candidates like the
  measured runtimes do: Spearman ρ ≥ 0.8 per case;
* **tile gap** — the tile the static model ranks first must measure
  within 10% of the measured-best tile's runtime;
* **Brent vs simulator** — the prover's wavefront
  :func:`~repro.analysis.perf.wavefront_profile` Brent bound is an
  upper envelope of the machine-model simulator's speedup on the same
  CSR schedule (exact list scheduling can never beat it), and tracks
  it closely when barriers and bandwidth pressure are removed.

``REPRO_BENCH_SMOKE=1`` (the CI mode) shrinks the sweep and repeats and
skips the statistical assertions — measured rank order is not
trustworthy on shared CI runners — while still exercising every code
path and writing the results file.
"""

import dataclasses
import json
import os
import time

import numpy as np

from repro.analysis.perf import (
    predict,
    static_cost,
    wavefront_profile,
)
from repro.bench.harness import RESULTS_DIR, save_results
from repro.core import frontend
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.core.stencil import gauss_seidel_5pt_2d, gauss_seidel_6pt_3d
from repro.core.tiling import legalize_tile_sizes
from repro.machine import (
    XEON_6152,
    WorkloadProfile,
    simulate_wavefront_execution,
)
from repro.machine.model import PY_NUMPY_BACKEND

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Mesh and vector factor shared by both cases (interior 48 = 2 * VF).
DOMAIN = (50, 50, 50)
VF = 24

#: The Table-2-style ladder, spread across the backend's real cost
#: tiers (driven by innermost strip extent): full-width aligned strips
#: (with and without an L1-resident reuse plane, and one L2-spilling
#: point), ragged vector splits, and short-strip tilings. Near-tied
#: candidates are deliberately few — this backend's runtimes plateau,
#: and rank correlation against measurement is only meaningful where
#: runtimes actually differ.
TILE_SWEEP = [
    (4, 8, 48), (8, 48, 48), (48, 48, 48),
    (8, 48, 32), (48, 48, 32),
    (16, 16, 16), (8, 48, 12), (48, 48, 4), (4, 4, 4),
]
SMOKE_SWEEP = [(4, 8, 48), (48, 48, 48), (4, 4, 4), (16, 16, 16)]
ROUNDS = 2 if SMOKE else 7

SPEARMAN_FLOOR = 0.8
GAP_CEILING = 1.10


def _save_section(section, data):
    """Merge one section into BENCH_pr8_static_cost.json (the tests
    fill their sections independently)."""
    path = RESULTS_DIR / "BENCH_pr8_static_cost.json"
    merged = {}
    if path.exists():
        merged = json.loads(path.read_text())
    merged[section] = data
    merged["smoke"] = SMOKE
    merged["tier"] = "numpy"
    save_results("BENCH_pr8_static_cost", merged)


def spearman(a, b):
    """Spearman rank correlation, hand-rolled (no scipy here)."""

    def ranks(values):
        values = np.asarray(values, dtype=float)
        r = np.empty(len(values))
        r[np.argsort(values)] = np.arange(len(values))
        for v in np.unique(values):  # average tied ranks
            mask = values == v
            r[mask] = r[mask].mean()
        return r

    return float(np.corrcoef(ranks(a), ranks(b))[0, 1])


def _case_kernels(symmetric):
    """Compile one kernel per (legalized) sweep tile size."""
    pattern = gauss_seidel_6pt_3d()
    kernels = {}
    for proposed in (SMOKE_SWEEP if SMOKE else TILE_SWEEP):
        tiles = tuple(legalize_tile_sizes(pattern, proposed))
        if tiles in kernels:
            continue
        options = CompileOptions(
            tile_sizes=tiles, vectorize=VF, machine="py-numpy"
        )
        if symmetric:
            module = frontend.build_symmetric_sweep_kernel(
                pattern, DOMAIN, frontend.identity_body(6.0)
            )
            kernel = StencilCompiler(options).compile(
                module, entry="symmetric_kernel"
            )
        else:
            module = frontend.build_stencil_kernel(
                pattern, DOMAIN, frontend.identity_body(6.0), iterations=1
            )
            kernel = StencilCompiler(options).compile(module)
        kernels[tiles] = kernel
    return pattern, kernels


def _measure_interleaved(kernels):
    """Min-of-N per kernel with the candidates interleaved per round, so
    machine-load drift lands on every candidate instead of one."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1,) + DOMAIN)
    b = rng.standard_normal((1,) + DOMAIN)
    best = {tiles: None for tiles in kernels}
    for _ in range(ROUNDS):
        for tiles, kernel in kernels.items():
            start = time.perf_counter()
            kernel.call_tier("numpy", x, b, x.copy())  # what py-numpy prices
            elapsed = time.perf_counter() - start
            if best[tiles] is None or elapsed < best[tiles]:
                best[tiles] = elapsed
    return best


def _sweep_case(name, symmetric):
    pattern, kernels = _case_kernels(symmetric)
    measured = _measure_interleaved(kernels)
    sweeps = 2 if symmetric else 1
    rows = []
    for tiles in kernels:
        static_s = sweeps * static_cost(
            pattern, DOMAIN, tiles, machine=PY_NUMPY_BACKEND, vf=VF
        )
        rows.append(
            {
                "tiles": list(tiles),
                "measured_ms": measured[tiles] * 1e3,
                "static_ms": static_s * 1e3,
            }
        )
    measured_s = [r["measured_ms"] for r in rows]
    static_s = [r["static_ms"] for r in rows]
    rho = spearman(measured_s, static_s)
    static_best = rows[int(np.argmin(static_s))]
    measured_best = rows[int(np.argmin(measured_s))]
    gap = static_best["measured_ms"] / measured_best["measured_ms"]
    report = {
        "domain": list(DOMAIN),
        "vf": VF,
        "machine": PY_NUMPY_BACKEND.name,
        "rounds": ROUNDS,
        "sweep": rows,
        "spearman_rho": rho,
        "static_best_tiles": static_best["tiles"],
        "measured_best_tiles": measured_best["tiles"],
        "static_best_measured_ms": static_best["measured_ms"],
        "measured_best_ms": measured_best["measured_ms"],
        "gap_x": gap,
    }
    print(f"\n{name}: static-cost sweep over {len(rows)} tilings")
    for r in sorted(rows, key=lambda r: r["static_ms"]):
        print(
            f"  {'x'.join(map(str, r['tiles'])):>10}  "
            f"static {r['static_ms']:8.2f} ms   "
            f"measured {r['measured_ms']:8.2f} ms"
        )
    print(
        f"  spearman rho {rho:.3f}; static best "
        f"{'x'.join(map(str, static_best['tiles']))} measures "
        f"{gap:.3f}x the measured best"
    )
    _save_section(name, report)
    if not SMOKE:
        assert rho >= SPEARMAN_FLOOR, (
            f"{name}: static-vs-measured Spearman {rho:.3f} < "
            f"{SPEARMAN_FLOOR}"
        )
        assert gap <= GAP_CEILING, (
            f"{name}: static-best tile measures {gap:.3f}x the "
            f"measured best (> {GAP_CEILING}x)"
        )
    return report


def test_heat3d_tile_sweep_rank_correlation():
    _sweep_case("heat-3D", symmetric=False)


def test_lusgs_tile_sweep_rank_correlation():
    _sweep_case("lu-sgs", symmetric=True)


def test_brent_bound_envelopes_simulator():
    """The prover's Brent ceiling vs the simulator on the same CSR
    schedule: an exact list-scheduled executor can approach but never
    beat ``T1 / max(T1/p, T_inf)``."""
    pattern = gauss_seidel_5pt_2d()
    tile_sizes = (32, 64)
    grid = (2000 // 32, 2000 // 64)  # the paper-scale 5pt schedule
    wf = wavefront_profile(pattern, grid, tile_sizes)
    assert wf is not None
    # A frictionless machine: no barriers, no bandwidth ceiling, no
    # remote-NUMA surcharge — the simulator then measures pure
    # barrier-quantized list-scheduling efficiency.
    frictionless = dataclasses.replace(
        XEON_6152,
        barrier_seconds=0.0,
        mem_bw_per_numa=1e18,
        remote_penalty=1.0,
    )
    profile = WorkloadProfile(
        wavefront_sizes=_csr_sizes(pattern, grid, tile_sizes),
        tile_seconds=1e-5,
        tile_bytes=1.0,
    )
    t1 = simulate_wavefront_execution(profile, 1, frictionless)
    points = {}
    for threads in (1, 2, 4, 8, 16, 31, 44):
        sim = t1 / simulate_wavefront_execution(
            profile, threads, frictionless
        )
        ceiling = wf.brent_speedup(threads)
        points[threads] = {"simulated_x": sim, "brent_x": ceiling}
        assert sim <= ceiling * 1.001, (
            f"simulator beat the Brent bound at p={threads}: "
            f"{sim:.2f}x > {ceiling:.2f}x"
        )
        # And the bound is informative: exact list scheduling of these
        # wide wavefronts stays within 30% of it.
        assert sim >= 0.7 * ceiling, (
            f"Brent bound is loose at p={threads}: simulator "
            f"{sim:.2f}x vs ceiling {ceiling:.2f}x"
        )
    print("\nBrent bound vs frictionless simulator (paper-scale 5pt):")
    for threads, row in points.items():
        print(
            f"  p={threads:<3d} simulated {row['simulated_x']:6.2f}x   "
            f"Brent ceiling {row['brent_x']:6.2f}x"
        )
    _save_section(
        "brent_vs_simulator",
        {
            "tile_grid": list(grid),
            "num_tiles": wf.num_tiles,
            "num_groups": wf.num_groups,
            "points": {str(p): row for p, row in points.items()},
        },
    )


def _csr_sizes(pattern, grid, tile_sizes):
    from repro.core import scheduling

    deps = pattern.block_stencil_offsets(tile_sizes)
    offsets, _ = scheduling.compute_parallel_blocks(list(grid), deps)
    return [int(s) for s in scheduling.group_sizes(offsets)]


def test_static_report_matches_simulator_traffic_model():
    """The report's per-tile traffic feeds the simulator's bandwidth
    model: one tile's window bytes on the report equals the
    ``tile_bytes`` a profile built from the same schedule would carry."""
    pattern = gauss_seidel_5pt_2d()
    report = predict(
        pattern, (130, 130), (32, 64), machine=XEON_6152, vf=8
    )
    assert report.wavefront is not None
    # Per-tile window bytes implied by the sweep totals.
    per_tile = report.bytes_l2 / report.num_tiles
    window_cells = report.sweep_window_cells / report.num_tiles
    assert per_tile == window_cells * 3 * 8
    _save_section(
        "traffic_consistency",
        {
            "per_tile_window_bytes": per_tile,
            "num_tiles": report.num_tiles,
            "wavefront_groups": report.wavefront.num_groups,
        },
    )
