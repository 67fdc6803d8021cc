"""The chaos suite: every registered fault site, swept deterministically.

Each registered :data:`~repro.runtime.resilience.faults.FAULT_SITES`
entry gets a scenario that (1) installs a seeded plan for that site,
(2) drives a workload that hits the site enough times for the plan to
fire, and (3) asserts the run *still produces the correct result* —
recovery, degradation, quarantine or checkpoint resume, depending on
the site's category. The firing invocation is derived from
``$CHAOS_SEED`` (default 0), so CI sweeps a seed matrix and every run
is reproducible: same seed, same faults, same recovery path.

A new ``maybe_inject`` call site only needs to register its site in
``FAULT_SITES`` plus add a scenario here; the completeness test fails
until it does.
"""

import os

import numpy as np
import pytest

from repro.codegen.cache import KernelCache, module_fingerprint
from repro.codegen.executor import compile_function
from repro.codegen.interpreter import run_function
from repro.core import frontend
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.core.stencil import gauss_seidel_5pt_2d
from repro.runtime.resilience import (
    FAULT_SITES,
    FaultPlan,
    InjectedFault,
    clear_plan,
    injected,
)
from repro.runtime.resilience.checkpoint import CheckpointManager
from repro.runtime.resilience.driver import ResilientCompiler
from repro.cfdlib.heat import checkpointed_heat3d, initial_temperature
from repro.cfdlib.solvers import checkpointed_poisson_solve

SEED = int(os.environ.get("CHAOS_SEED", "0"))
SHAPE = (8, 8)
OPTIONS = CompileOptions(
    subdomain_sizes=(4, 4), tile_sizes=(2, 2), fuse=True, vectorize=4,
    use_cache=False,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    clear_plan()


def _module():
    return frontend.build_stencil_kernel(
        gauss_seidel_5pt_2d(), SHAPE, frontend.identity_body(4.0)
    )


def _inputs():
    rng = np.random.default_rng(SEED)
    full = (1,) + SHAPE
    return rng.standard_normal(full), rng.standard_normal(full)


def _reference(x, b):
    (expected,) = run_function(_module(), "kernel", x, b, x.copy())
    return expected


def _chaos_compile_and_run(plan, **compiler_kwargs):
    """Drive enough resilient runs that the seeded plan must fire."""
    x, b = _inputs()
    expected = _reference(x, b)
    kwargs = {"max_retries": 2, "backoff_base": 0.0, **compiler_kwargs}
    with injected(plan):
        for _ in range(4):
            values, report = ResilientCompiler(
                OPTIONS, **kwargs
            ).compile_and_run(
                _module(), lambda: (x.copy(), b.copy(), x.copy())
            )
            np.testing.assert_allclose(values[0], expected, rtol=1e-12)
    assert plan.fired, "the seeded fault never fired"
    return report


def _chaos_pipeline(site):
    plan = FaultPlan.seeded(site, seed=SEED)
    report = _chaos_compile_and_run(plan)
    assert report.final in ("compiled", "interpreter")


def _chaos_cache_read(site):
    cache = KernelCache(disk_dir=_tmp_dir())
    module = _module()
    StencilCompiler(CompileOptions(vectorize=4)).lower(module)
    fp = module_fingerprint(module)
    cache.put(fp, compile_function(module))
    plan = FaultPlan.seeded(site, seed=SEED)
    with injected(plan):
        for _ in range(4):
            KernelCache(disk_dir=cache.disk_dir).get(fp)
    assert plan.fired
    # The entry survives injected read failures: a clean read still hits.
    assert KernelCache(disk_dir=cache.disk_dir).get(fp)


def _chaos_cache_write(site):
    cache = KernelCache(disk_dir=_tmp_dir())
    module = _module()
    StencilCompiler(CompileOptions(vectorize=4)).lower(module)
    fp = module_fingerprint(module)
    kernel = compile_function(module)
    plan = FaultPlan.seeded(site, seed=SEED)
    with injected(plan):
        for _ in range(4):
            cache.put(fp, kernel)
    assert plan.fired
    assert cache.stats.disk_errors >= 1
    # Memory tier never degraded; disk holds the last successful write.
    assert cache.get(fp) is not None
    assert KernelCache(disk_dir=cache.disk_dir).get(fp)


def _chaos_executor(site):
    plan = FaultPlan.seeded(site, seed=SEED)
    _chaos_compile_and_run(plan)


def _chaos_hang(site):
    plan = FaultPlan.seeded(
        site, seed=SEED, action="hang", hang_seconds=0.4
    )
    report = _chaos_compile_and_run(plan, watchdog_timeout=0.1)
    del report  # the last run may have been clean; plan.fired is the check


def _chaos_solver(site):
    if site == "solver.sweep":
        rng = np.random.default_rng(SEED)
        f = rng.standard_normal((10, 10))
        run = lambda mgr: checkpointed_poisson_solve(  # noqa: E731
            f, 6, method="sor", omega=1.5, manager=mgr
        )
        expected = run(None)
    elif site == "solver.heat-step":
        t0 = initial_temperature(5, seed=SEED)
        dt0 = np.zeros_like(t0)
        run = lambda mgr: checkpointed_heat3d(  # noqa: E731
            t0, dt0, 6, manager=mgr
        )[0]
        expected = run(None)
    else:  # solver.lusgs-step
        from repro.cfdlib import euler
        from repro.cfdlib.lusgs import (
            LUSGSConfig, checkpointed_lusgs, stable_dt,
        )
        from repro.cfdlib.mesh import StructuredMesh

        mesh = StructuredMesh((5, 5, 5), extent=(1.0, 1.0, 1.0))
        w0 = euler.density_wave((5, 5, 5), amplitude=0.05)
        config = LUSGSConfig(mesh=mesh, dt=stable_dt(w0, mesh, cfl=1.0))
        run = lambda mgr: checkpointed_lusgs(  # noqa: E731
            w0, config, 6, manager=mgr
        )
        expected = run(None)

    mgr = CheckpointManager(every=2, directory=_tmp_dir())
    plan = FaultPlan.seeded(site, seed=SEED)
    with injected(plan):
        with pytest.raises(InjectedFault):
            run(mgr)
    assert plan.fired
    got = run(mgr)  # resume from the last checkpoint (or from scratch)
    assert np.array_equal(got, expected), (
        "resumed solve is not bit-identical to the uninterrupted one"
    )


def _chaos_parallel_worker(site):
    """A worker fault mid-group degrades to sequential, bit-identically."""
    from repro.runtime.parallel import drain_events, num_threads

    options = CompileOptions(
        subdomain_sizes=(4, 4), vectorize=4, parallel=True, use_cache=False
    )
    kernel = StencilCompiler(options).compile(_module())
    assert kernel.parallel_certified
    x, b = _inputs()
    with num_threads(1):
        (expected,) = kernel(x.copy(), b.copy(), x.copy())
    drain_events()
    plan = FaultPlan.seeded(site, seed=SEED)
    with injected(plan), num_threads(4):
        for _ in range(4):
            (got,) = kernel(x.copy(), b.copy(), x.copy())
            assert np.array_equal(got, expected), (
                "degraded parallel run is not bit-identical to sequential"
            )
    assert plan.fired
    codes = {d.code for d in drain_events()}
    assert "RS010" in codes


def _service(**overrides):
    from repro.service import CompileService, ServiceConfig

    config = ServiceConfig(**{
        "options": OPTIONS, "backoff_base": 0.0, "max_retries": 4,
        **overrides,
    })
    return CompileService(config, cache=KernelCache())


def _chaos_service_queue(site):
    """A faulted admission stage rejects explicitly — never loses."""
    import asyncio

    plan = FaultPlan.seeded(site, seed=SEED)

    async def scenario():
        svc = _service()
        resps = [await svc.compile(_module()) for _ in range(6)]
        await svc.drain()
        return svc, resps

    with injected(plan):
        svc, resps = asyncio.run(scenario())
    assert plan.fired, "the seeded fault never fired"
    assert all(r.status in ("ok", "rejected") for r in resps)
    rejected = [r for r in resps if r.status == "rejected"]
    assert rejected, "the faulted admission was not rejected"
    for r in rejected:
        assert "RS012" in r.codes() and r.retry_after is not None


def _chaos_service_leader(site):
    """A crashed leader's waiters re-dispatch; every request succeeds."""
    import asyncio

    plan = FaultPlan.seeded(site, seed=SEED)

    async def scenario():
        svc = _service()
        resps = []
        for _ in range(4):
            resps.extend(await asyncio.gather(
                *[svc.compile(_module()) for _ in range(2)]
            ))
        await svc.drain()
        return svc, resps

    with injected(plan):
        svc, resps = asyncio.run(scenario())
    assert plan.fired
    assert all(r.ok for r in resps)
    assert svc.stats.redispatches >= 1
    assert "RS014" in {d.code for d in svc._events}


def _chaos_service_drain(site):
    """A faulted drain path still finishes every in-flight request."""
    import asyncio

    plan = FaultPlan.seeded(site, seed=SEED)

    async def one_round():
        svc = _service()
        task = asyncio.ensure_future(svc.compile(_module()))
        while not svc._flights and not task.done():
            await asyncio.sleep(0.001)
        await svc.drain()
        return svc, await task

    with injected(plan):
        for _ in range(4):
            svc, resp = asyncio.run(one_round())
            assert resp.ok
            if plan.fired:
                break
    assert plan.fired
    assert "RS009" in {d.code for d in svc._events}


_SCENARIOS = {
    "pipeline.pass-run": _chaos_pipeline,
    "pipeline.verify": _chaos_pipeline,
    "cache.disk-read": _chaos_cache_read,
    "cache.disk-write": _chaos_cache_write,
    "executor.compile": _chaos_executor,
    "executor.execute": _chaos_executor,
    "executor.hang": _chaos_hang,
    "parallel.worker": _chaos_parallel_worker,
    "service.queue": _chaos_service_queue,
    "service.leader": _chaos_service_leader,
    "service.drain": _chaos_service_drain,
    "solver.sweep": _chaos_solver,
    "solver.heat-step": _chaos_solver,
    "solver.lusgs-step": _chaos_solver,
}

def _tmp_dir():
    import tempfile
    from pathlib import Path

    return Path(tempfile.mkdtemp(prefix="chaos-"))


def test_every_registered_site_has_a_scenario():
    """Registering a new fault site without chaos coverage fails here."""
    assert set(_SCENARIOS) == set(FAULT_SITES)


@pytest.mark.parametrize("site", sorted(FAULT_SITES))
def test_chaos(site):
    _SCENARIOS[site](site)
