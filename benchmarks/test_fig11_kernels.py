"""Figure 11 — optimization of the four stencil kernels, 1 and 10 threads.

Speedups relative to the sequential baseline for C+Pluto 1, C+Pluto 2 and
MLIR. 1-thread points are real measurements on this machine; 10-thread
points scale them by the simulated parallel efficiency of each
implementation's wavefront schedule at the paper's domain sizes
(see DESIGN.md "Substitutions").

Shape checks (the paper's findings):
* the MLIR-generated kernels consistently outperform Pluto at one thread;
* the gap narrows with threads (bandwidth limits).
"""

import pytest

from repro.bench.experiments import (
    KERNEL_CASES,
    build_mlir_kernel,
    case_inputs,
    measured,
    simulated_speedups,
)
from repro.bench.harness import format_series, save_results


@pytest.mark.parametrize("name", list(KERNEL_CASES))
def test_fig11_case(benchmark, name):
    case = KERNEL_CASES[name]
    m = measured(name)
    speedups = simulated_speedups(case, m, threads=[1, 10])
    series = {
        impl: {f"{p} thr": v for p, v in curve.items()}
        for impl, curve in speedups.items()
    }
    print()
    print(
        format_series(
            "threads",
            {k: {p: v for p, v in curve.items()} for k, curve in speedups.items()},
            title=(
                f"Figure 11 [{name}]: speedup over sequential "
                f"(measured 1 thread, simulated 10 threads)"
            ),
        )
    )
    save_results(
        f"fig11_{name}",
        {"tier": "numpy", **{impl: curve for impl, curve in speedups.items()}},
    )
    # Paper shape: MLIR beats both Pluto configurations at 1 thread
    # (the 9-pt exception in the paper concerns the multithreaded case).
    assert speedups["MLIR"][1] > speedups["C+Pluto 1"][1]
    assert speedups["MLIR"][1] > speedups["C+Pluto 2"][1]
    assert speedups["MLIR"][1] > 1.0  # vectorization pays off

    kernel = build_mlir_kernel(case)
    x, b = case_inputs(case)
    y0 = x.copy()
    benchmark(lambda: kernel.call_tier("numpy", x, b, y0))
