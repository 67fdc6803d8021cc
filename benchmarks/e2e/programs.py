"""The benchmark's input programs and their independent references.

Eight program kinds — the paper's four Fig. 11 Gauss-Seidel kernels,
SOR, split-form Jacobi (all written as ``@stencil`` source), the Fig. 9
implicit heat solver and the Fig. 15 Euler LU-SGS solver (IR built by
``repro.cfdlib``). Each :class:`Program` knows how a user would compile
it, how to make fresh seeded arguments, and the expected output, which
is computed by ``repro.baselines.naive`` / ``heat3d_reference`` /
``lusgs_reference`` — never by the compiled path.

Shapes are fixed per workload: the seed draws the input arrays, the
program order and the service request stream, but not the amount of
work, because the benchmark's metrics must agree across seeds.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import naive
from repro.cfdlib import euler
from repro.cfdlib.boundary import add_ghost_layers
from repro.cfdlib.heat import build_heat3d_module, heat3d_reference
from repro.cfdlib.lusgs import (
    LUSGSConfig,
    build_lusgs_module,
    forward_pattern,
    lusgs_reference,
    stable_dt,
)
from repro.cfdlib.mesh import StructuredMesh
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.core.stencil import (
    StencilPattern,
    gauss_seidel_5pt_2d,
    gauss_seidel_6pt_3d,
)
from repro.frontend import FRONTEND_VERSION, stencil_from_source

#: SOR closure constants (omega = 1.5 folded into the Eq. 2 normal form).
_SOR_OMEGA = 1.5
_SOR_ENV = {
    "coeff": (1.0 - _SOR_OMEGA) * 4.0 / _SOR_OMEGA,
    "d_eff": 4.0 / _SOR_OMEGA,
}

#: name -> (kernel source, closure environment, divisor d).
SOURCES: Dict[str, Tuple[str, Dict[str, float], float]] = {
    "seidel-2D-5pt": (
        "def k(u, b, i, j):\n"
        "    u[i, j] = (b[i, j] + u[i - 1, j] + u[i, j - 1]\n"
        "               + u[i, j + 1] + u[i + 1, j]) / 5.0\n",
        {}, 5.0,
    ),
    "seidel-2D-9pt": (
        "def k(u, b, i, j):\n"
        "    u[i, j] = (b[i, j] + u[i - 1, j - 1] + u[i - 1, j]\n"
        "               + u[i - 1, j + 1] + u[i, j - 1] + u[i, j + 1]\n"
        "               + u[i + 1, j - 1] + u[i + 1, j]\n"
        "               + u[i + 1, j + 1]) / 9.0\n",
        {}, 9.0,
    ),
    "seidel-2D-9pt-2nd": (
        "def k(u, b, i, j):\n"
        "    u[i, j] = (b[i, j] + u[i - 2, j] + u[i - 1, j] + u[i, j - 2]\n"
        "               + u[i, j - 1] + u[i, j + 1] + u[i, j + 2]\n"
        "               + u[i + 1, j] + u[i + 2, j]) / 9.0\n",
        {}, 9.0,
    ),
    "heat-3D": (
        "def k(u, b, i, j, k):\n"
        "    u[i, j, k] = (b[i, j, k] + u[i - 1, j, k] + u[i, j - 1, k]\n"
        "                  + u[i, j, k - 1] + u[i, j, k + 1]\n"
        "                  + u[i, j + 1, k] + u[i + 1, j, k]) / 7.0\n",
        {}, 7.0,
    ),
    "sor": (
        "def k(u, b, i, j):\n"
        "    u[i, j] = (b[i, j] + u[i - 1, j] + u[i, j - 1] + u[i, j + 1]\n"
        "               + u[i + 1, j] + coeff * u[i, j]) / d_eff\n",
        _SOR_ENV, _SOR_ENV["d_eff"],
    ),
    "jacobi": (
        "def k(y, x, b, i, j):\n"
        "    y[i, j] = (b[i, j] + x[i - 1, j] + x[i, j - 1]\n"
        "               + x[i, j + 1] + x[i + 1, j]) / 4.0\n",
        {}, 4.0,
    ),
}

ITERATIONS = 2


def tr4_options(
    subdomains: Sequence[int], tiles: Sequence[int], vf: int
) -> CompileOptions:
    """The paper's Tr4 configuration: sub-domains with wavefront
    groups, cache tiles, fusion and partial vectorization."""
    return CompileOptions(
        subdomain_sizes=tuple(subdomains), tile_sizes=tuple(tiles),
        fuse=True, parallel=True, vectorize=vf,
    )


def verified(options: CompileOptions) -> CompileOptions:
    return dataclasses.replace(
        options, check_level="after-pipeline", validate_passes=True
    )


@dataclass
class Program:
    """One input program, as a user holds it.

    ``compile(options)`` is the user's whole path from source (or a
    ``cfdlib`` builder) to a kernel; ``build()`` returns a fresh
    *unlowered* module for the layer probes and the service requests.
    """

    name: str
    entry: str
    options: CompileOptions
    space_shape: Tuple[int, ...]
    build: Callable[[], Any]
    compile: Callable[[CompileOptions], Any]
    make_args: Callable[[], Tuple[np.ndarray, ...]]
    #: Expected value of ``select(kernel(*make_args()))``.
    expected: np.ndarray
    select: Callable[[Sequence[np.ndarray]], np.ndarray]
    #: Seconds the single-threaded naive baseline took in set-up.
    naive_seconds: float
    #: Dominant stencil pattern (for ``analysis.perf.predict`` and the
    #: computed flop/byte counts), the cells one sweep updates, its
    #: variable count and sweep count.
    pattern: StencilPattern
    cells: int
    nb_var: int = 1
    sweeps: int = ITERATIONS
    #: ``(source, env)`` for ``@stencil`` programs, else ``None``.
    source: Optional[Tuple[str, Dict[str, float]]] = None

    @property
    def flops(self) -> int:
        """Computed, not measured: one add per access plus the divide,
        per variable, per updated cell, per sweep."""
        per_cell = (self.pattern.num_accesses + 1) * self.nb_var
        return per_cell * self.cells * self.sweeps

    @property
    def computed_bytes(self) -> int:
        """Computed compulsory traffic: read U and B, write U, once per
        sweep (cache misses and halo re-reads are not counted)."""
        return 3 * 8 * self.nb_var * self.cells * self.sweeps

    def check(self, result: Sequence[np.ndarray]) -> Tuple[bool, bool]:
        """``(within tolerance, bit-equal)`` against the reference."""
        got = self.select(result)
        close = bool(
            got.shape == self.expected.shape
            and np.allclose(got, self.expected, rtol=1e-12, atol=1e-12)
        )
        return close, close and bool(np.array_equal(got, self.expected))


def _interior_cells(pattern: StencilPattern, space_shape) -> int:
    n = 1
    for lo, hi in pattern.interior_bounds(space_shape):
        n *= hi - lo
    return n


def _timed_reference(fn: Callable[[], np.ndarray]) -> Tuple[np.ndarray, float]:
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def _sweep_6pt_planes(u: np.ndarray, b: np.ndarray, d: float) -> np.ndarray:
    """One lexicographic 6-point Gauss-Seidel sweep, plane by plane:
    with plane ``i - 1`` already updated and plane ``i + 1`` still old,
    plane ``i`` is a 2-D 5-point sweep with both folded into ``b``."""
    plane = gauss_seidel_5pt_2d()
    for i in range(1, u.shape[0] - 1):
        naive.gauss_seidel_sweep_rows(
            u[i], b[i] + u[i - 1] + u[i + 1], plane, d
        )
    return u


def _pattern_reference(
    name: str, pattern: StencilPattern, d: float,
    x: np.ndarray, b: np.ndarray,
) -> np.ndarray:
    u = x[0].copy()
    for _ in range(ITERATIONS):
        if name == "jacobi":
            u = naive.jacobi_sweep(u, b[0], pattern, d)
        elif name == "sor":
            coeff = _SOR_ENV["coeff"]
            u = naive.stencil_sweep_python(
                u[None], b, u[None].copy(), pattern,
                lambda a: (d, list(a[:-1]) + [coeff * a[-1]]),
            )[0]
        elif pattern.rank == 3:
            _sweep_6pt_planes(u, b[0], d)
        else:
            naive.gauss_seidel_sweep_rows(u, b[0], pattern, d)
    return u


def source_program(
    kind: str,
    space_shape: Sequence[int],
    options: CompileOptions,
    rng: np.random.Generator,
) -> Program:
    """A ``@stencil`` kernel of ``kind`` over ``space_shape``."""
    source, env, d = SOURCES[kind]
    space_shape = tuple(space_shape)
    analyzed = stencil_from_source(source, env)
    full = (1,) + space_shape
    x = rng.standard_normal(full)
    b = rng.standard_normal(full)
    expected, naive_s = _timed_reference(
        lambda: _pattern_reference(kind, analyzed.pattern, d, x, b)
    )

    def compile_(opts: CompileOptions):
        # Source in: the analysis is part of what the user waits for.
        return stencil_from_source(source, env).compile(
            space_shape, options=opts, iterations=ITERATIONS
        )

    return Program(
        name=f"{kind}@{'x'.join(map(str, space_shape))}",
        entry="kernel",
        # What StencilProgram.compile stamps: the fingerprint a service
        # client computes must match the one the direct path caches.
        options=dataclasses.replace(
            options, frontend_version=FRONTEND_VERSION
        ),
        space_shape=space_shape,
        build=lambda: analyzed.build_module(
            space_shape, iterations=ITERATIONS
        ),
        compile=compile_,
        make_args=lambda: (x.copy(), b.copy(), x.copy()),
        expected=expected,
        select=lambda result: result[0][0],
        naive_seconds=naive_s,
        pattern=analyzed.pattern,
        cells=_interior_cells(analyzed.pattern, space_shape),
        source=(source, env),
    )


def heat_implicit_program(
    n: int, options: CompileOptions, rng: np.random.Generator
) -> Program:
    """Fig. 9's implicit heat solver (laplacian producer, 6-point
    Gauss-Seidel, pointwise update) from ``cfdlib.heat``."""
    steps, lam = ITERATIONS, 0.1
    x = np.linspace(0.0, np.pi, n)
    xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
    t0 = np.sin(xx) * np.sin(yy) * np.sin(zz)
    t0 = t0 + 0.01 * rng.standard_normal((n, n, n))
    dt0 = np.zeros((n, n, n))
    expected, naive_s = _timed_reference(
        lambda: heat3d_reference(t0, dt0, steps, lam)[0]
    )

    def build():
        return build_heat3d_module(n, steps=steps, lam=lam)

    return Program(
        name=f"heat3d-implicit@{n}x{n}x{n}",
        entry="heat",
        options=options,
        space_shape=(n, n, n),
        build=build,
        compile=lambda opts: StencilCompiler(opts).compile(
            build(), entry="heat"
        ),
        make_args=lambda: (t0[None].copy(), dt0[None].copy()),
        expected=expected,
        select=lambda result: result[0][0],
        naive_seconds=naive_s,
        pattern=gauss_seidel_6pt_3d(),
        cells=(n - 2) ** 3,
    )


def lusgs_program(
    n: int, options: CompileOptions, rng: np.random.Generator
) -> Program:
    """Fig. 15's Euler LU-SGS solver on an ``n``-cubed periodic box."""
    steps = ITERATIONS
    mesh = StructuredMesh((n, n, n))
    w0 = euler.density_wave(
        (n, n, n), amplitude=float(rng.uniform(0.03, 0.07))
    )
    config = LUSGSConfig(mesh=mesh, dt=stable_dt(w0, mesh, cfl=1.0))
    padded = add_ghost_layers(w0)
    expected, naive_s = _timed_reference(
        lambda: lusgs_reference(w0, config, steps=steps)
    )
    inner = (slice(None),) + (slice(1, -1),) * 3

    def build():
        return build_lusgs_module(config, steps=steps)

    return Program(
        name=f"lusgs@{n}x{n}x{n}",
        entry="lusgs",
        options=options,
        space_shape=config.padded_shape,
        build=build,
        compile=lambda opts: StencilCompiler(opts).compile(
            build(), entry="lusgs"
        ),
        make_args=lambda: (padded.copy(),),
        expected=expected,
        select=lambda result: result[0][inner],
        naive_seconds=naive_s,
        pattern=forward_pattern(),
        cells=n ** 3,
        nb_var=euler.NB_VAR,
        sweeps=2 * steps,  # a forward and a backward sweep per step
    )


# ---------------------------------------------------------------------------
# Program sets of the six workloads.
# ---------------------------------------------------------------------------


def fig11_set(rng: np.random.Generator) -> Sequence[Program]:
    """The four Fig. 11 kernels at execution-dominated sizes. The 9pt
    pattern's negative distances force tile size 1 in dimension 0."""
    return [
        source_program("seidel-2D-5pt", (514, 514),
                       tr4_options((256, 256), (32, 128), 64), rng),
        source_program("seidel-2D-9pt", (514, 514),
                       tr4_options((256, 512), (1, 512), 64), rng),
        source_program("seidel-2D-9pt-2nd", (516, 516),
                       tr4_options((256, 256), (32, 128), 64), rng),
        source_program("heat-3D", (64, 64, 64),
                       tr4_options((31, 31, 62), (4, 8, 62), 62), rng),
    ]


def lusgs_set(rng: np.random.Generator) -> Sequence[Program]:
    return [lusgs_program(20, tr4_options((10, 10, 20), (5, 5, 20), 20), rng)]


def small_set(
    rng: np.random.Generator, with_lusgs: bool = True
) -> Sequence[Program]:
    """Every kind at shapes whose execution is negligible next to the
    compile (66 squared / 18 cubed), in seeded order."""
    opts_2d = tr4_options((32, 64), (8, 32), 32)
    opts_3d = tr4_options((8, 8, 16), (4, 4, 16), 16)
    programs = [
        source_program("seidel-2D-5pt", (66, 66), opts_2d, rng),
        source_program("seidel-2D-9pt", (66, 66),
                       tr4_options((32, 64), (1, 64), 32), rng),
        source_program("seidel-2D-9pt-2nd", (68, 68), opts_2d, rng),
        source_program("heat-3D", (18, 18, 18), opts_3d, rng),
        source_program("sor", (66, 66), opts_2d, rng),
        source_program("jacobi", (66, 66), opts_2d, rng),
        heat_implicit_program(18, opts_3d, rng),
    ]
    if with_lusgs:
        programs.append(
            lusgs_program(8, tr4_options((4, 4, 8), (2, 2, 8), 8), rng)
        )
    order = rng.permutation(len(programs))
    return [programs[i] for i in order]


#: The 2-D kinds a service client sends, and the shape grid they come
#: in: ``(2 + 32 p, 2 + 32 q)`` keeps every interior a multiple of VF.
SERVICE_KINDS = ("seidel-2D-5pt", "seidel-2D-9pt", "seidel-2D-9pt-2nd", "sor")
SERVICE_HOT_SHAPES = ((34, 34), (34, 66))


def service_options(kind: str) -> CompileOptions:
    tiles = (1, 32) if kind == "seidel-2D-9pt" else (4, 32)
    return tr4_options((16, 32), tiles, 32)


def service_set(rng: np.random.Generator) -> Sequence[Program]:
    """The hot set: 4 kinds x 2 shapes = 8 fingerprints."""
    programs = [
        source_program(kind, shape, service_options(kind), rng)
        for kind in SERVICE_KINDS
        for shape in SERVICE_HOT_SHAPES
    ]
    order = rng.permutation(len(programs))
    return [programs[i] for i in order]


def novel_shapes(count: int) -> Sequence[Tuple[int, int]]:
    """``count`` grid shapes outside the hot set, smallest first."""
    shapes = []
    s = 2
    while len(shapes) < count:
        for p in range(1, s):
            q = s - p
            shape = (2 + 32 * p, 2 + 32 * q)
            if shape not in SERVICE_HOT_SHAPES:
                shapes.append(shape)
        s += 1
    return shapes[:count]


def probe_program(rng: np.random.Generator) -> Program:
    """The fixed 34-squared 5-point program behind the unit-cost layer
    probes (interpreter floor, cold service sweep, resilience driver)
    and the stand-in wherever a workload has no program a probe
    applies to."""
    return source_program(
        "seidel-2D-5pt", (34, 34), service_options("seidel-2D-5pt"), rng
    )
