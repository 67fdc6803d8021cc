"""The compile service (`repro.service`): single-flight dedup,
admission control, load shedding, deadlines, drain, and the stats
surface.

No pytest-asyncio in the environment: each test drives its own event
loop with ``asyncio.run`` — which also proves the service needs nothing
beyond a plain loop.
"""

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.codegen.cache import KernelCache
from repro.codegen.interpreter import run_function
from repro.core import frontend
from repro.core.pipeline import CompileOptions
from repro.core.stencil import gauss_seidel_5pt_2d
from repro.service import (
    CompileService,
    ServiceConfig,
    ServiceReport,
    ServiceResponse,
    percentile,
)
from repro.service.server import ServiceClosed

SHAPE = (8, 8)
OPTIONS = CompileOptions(
    subdomain_sizes=(4, 4), tile_sizes=(2, 2), fuse=True, vectorize=4,
)


def _module(shape=SHAPE):
    return frontend.build_stencil_kernel(
        gauss_seidel_5pt_2d(), shape, frontend.identity_body(4.0)
    )


def _service(**overrides):
    config = ServiceConfig(**{"options": OPTIONS, **overrides})
    return CompileService(config, cache=KernelCache())


def _inputs(shape=SHAPE, seed=0):
    rng = np.random.default_rng(seed)
    full = (1,) + shape
    return rng.standard_normal(full), rng.standard_normal(full)


class TestSingleFlight:
    def test_eight_identical_requests_one_compilation(self):
        async def scenario():
            svc = _service()
            resps = await asyncio.gather(
                *[svc.compile(_module()) for _ in range(8)]
            )
            await svc.drain()
            return svc, resps

        svc, resps = asyncio.run(scenario())
        assert all(r.ok for r in resps)
        assert svc.stats.compiles_started == 1
        assert svc.stats.single_flight_hits == 7
        assert svc.stats.single_flight_hit_rate == pytest.approx(7 / 8)
        # All eight share the one compiled artifact.
        assert len({id(r.kernel) for r in resps}) == 1

    def test_distinct_fingerprints_do_not_share_flights(self):
        async def scenario():
            svc = _service(workers=2)
            resps = await asyncio.gather(
                svc.compile(_module((8, 8))),
                svc.compile(_module((10, 8))),
            )
            await svc.drain()
            return svc, resps

        svc, resps = asyncio.run(scenario())
        assert all(r.ok for r in resps)
        assert svc.stats.compiles_started == 2
        assert svc.stats.single_flight_hits == 0
        assert resps[0].fingerprint != resps[1].fingerprint

    def test_warm_requests_hit_the_cache_without_queueing(self):
        async def scenario():
            svc = _service()
            cold = await svc.compile(_module())
            warm = await svc.compile(_module())
            await svc.drain()
            return svc, cold, warm

        svc, cold, warm = asyncio.run(scenario())
        assert cold.ok and warm.ok
        assert svc.stats.compiles_started == 1
        assert svc.stats.cache_hits == 1

    def test_options_key_the_flight(self):
        """Different options on the same module are different work."""

        async def scenario():
            svc = _service(workers=2)
            resps = await asyncio.gather(
                svc.compile(_module(), options=OPTIONS),
                svc.compile(
                    _module(), options=replace(OPTIONS, vectorize=0)
                ),
            )
            await svc.drain()
            return svc, resps

        svc, resps = asyncio.run(scenario())
        assert all(r.ok for r in resps)
        assert svc.stats.compiles_started == 2


class TestAdmissionControl:
    def test_backpressure_rejects_with_retry_hint(self):
        async def scenario():
            svc = _service(max_queue=1, shed_watermark=1.0, shed_floor=1.0)
            resps = await asyncio.gather(
                *[svc.compile(_module((8 + 2 * i, 8))) for i in range(4)]
            )
            await svc.drain()
            return svc, resps

        svc, resps = asyncio.run(scenario())
        rejected = [r for r in resps if r.status == "rejected"]
        served = [r for r in resps if r.ok]
        assert served and rejected
        assert len(served) + len(rejected) == 4
        for r in rejected:
            assert "RS012" in r.codes()
            assert r.retry_after is not None and r.retry_after > 0
        assert svc.stats.rejected_backpressure == len(rejected)

    def test_rejection_is_not_an_exception(self):
        async def scenario():
            svc = _service(max_queue=1, shed_watermark=1.0, shed_floor=1.0)
            resps = await asyncio.gather(
                *[svc.compile(_module((8 + 2 * i, 8))) for i in range(3)]
            )
            await svc.drain()
            return resps

        resps = asyncio.run(scenario())
        assert all(isinstance(r, ServiceResponse) for r in resps)


class TestLoadShedding:
    def test_pressure_walks_the_degradation_chain(self):
        async def scenario():
            svc = _service(
                max_queue=4, shed_watermark=0.25, shed_floor=0.75, workers=1
            )
            resps = await asyncio.gather(
                *[svc.compile(_module((8 + 2 * i, 8))) for i in range(5)]
            )
            await svc.drain()
            return svc, resps

        svc, resps = asyncio.run(scenario())
        assert all(r.ok for r in resps)
        # First request full quality; pressure then sheds to O0, and at
        # the floor to the interpreter. Every decision is recorded.
        assert resps[0].degraded_to is None
        assert svc.stats.shed.get("opt_level -> O0", 0) >= 1
        assert svc.stats.shed.get("interpreter", 0) >= 1
        shed = [r for r in resps if r.degraded_to]
        assert all("RS015" in r.codes() for r in shed)

    def test_interpreter_shed_still_computes_correctly(self):
        async def scenario():
            svc = _service(max_queue=1, shed_watermark=0.0, shed_floor=0.0)
            return await svc.compile(_module()), svc

        resp, svc = asyncio.run(scenario())
        assert resp.ok and resp.degraded_to == "interpreter"
        x, b = _inputs()
        (expected,) = run_function(_module(), "kernel", x, b, x.copy())
        (got,) = resp.kernel.run(x.copy(), b.copy(), x.copy())
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_degraded_kernel_not_cached_under_full_quality_key(self):
        """An O0-shed compile must not alias a later full-quality hit."""

        async def scenario():
            svc = _service(
                max_queue=4, shed_watermark=0.25, shed_floor=1.0, workers=1
            )
            first = await asyncio.gather(
                *[svc.compile(_module((8 + 2 * i, 8))) for i in range(3)]
            )
            shed = next(r for r in first if r.degraded_to)
            # Re-request the shed module at full quality, uncontended.
            idx = first.index(shed)
            quiet = await svc.compile(_module((8 + 2 * idx, 8)))
            await svc.drain()
            return shed, quiet

        shed, quiet = asyncio.run(scenario())
        assert shed.ok and quiet.ok
        assert quiet.degraded_to is None
        assert quiet.fingerprint != shed.fingerprint


class TestDeadlines:
    def test_deadline_expiry_is_structured(self):
        async def scenario():
            svc = _service()
            resp = await svc.compile(_module(), deadline=1e-4)
            await svc.drain()
            return svc, resp

        svc, resp = asyncio.run(scenario())
        assert resp.status == "deadline"
        assert "RS013" in resp.codes()
        assert svc.stats.deadlines_expired == 1

    def test_waiter_deadline_does_not_kill_the_shared_flight(self):
        async def scenario():
            svc = _service()
            impatient, patient = await asyncio.gather(
                svc.compile(_module(), deadline=1e-4),
                svc.compile(_module()),
            )
            await svc.drain()
            return svc, impatient, patient

        svc, impatient, patient = asyncio.run(scenario())
        assert impatient.status == "deadline"
        assert patient.ok
        assert svc.stats.compiles_started == 1


class TestDrain:
    def test_drain_finishes_inflight_and_rejects_newcomers(self):
        async def scenario():
            svc = _service()
            first = asyncio.ensure_future(svc.compile(_module()))
            while not svc._flights:
                await asyncio.sleep(0.001)
            drain = asyncio.ensure_future(svc.drain())
            await asyncio.sleep(0)
            late = await svc.compile(_module((10, 8)))
            inflight = await first
            await drain
            return svc, inflight, late

        svc, inflight, late = asyncio.run(scenario())
        assert inflight.ok
        assert late.status == "rejected"
        assert "RS016" in late.codes()
        assert svc.stats.rejected_draining == 1

    def test_drain_is_idempotent_and_closes(self):
        async def scenario():
            svc = _service()
            await svc.drain()
            await svc.drain()
            with pytest.raises(ServiceClosed):
                await svc.compile(_module())

        asyncio.run(scenario())


class TestExecute:
    def test_execute_matches_interpreter_reference(self):
        x, b = _inputs()
        (expected,) = run_function(_module(), "kernel", x, b, x.copy())

        async def scenario():
            svc = _service()
            resp = await svc.execute(
                _module(), lambda: (x.copy(), b.copy(), x.copy())
            )
            await svc.drain()
            return svc, resp

        svc, resp = asyncio.run(scenario())
        assert resp.ok
        np.testing.assert_allclose(resp.values[0], expected, rtol=1e-12)
        assert svc.stats.executions == 1

    def test_each_execute_request_runs_exactly_once(self):
        x, b = _inputs()

        async def scenario():
            svc = _service()
            resps = await asyncio.gather(*[
                svc.execute(
                    _module(), lambda: (x.copy(), b.copy(), x.copy())
                )
                for _ in range(4)
            ])
            await svc.drain()
            return svc, resps

        svc, resps = asyncio.run(scenario())
        assert all(r.ok for r in resps)
        # One shared compilation, but four independent executions.
        assert svc.stats.compiles_started == 1
        assert svc.stats.executions == 4


class TestOneCompileTail:
    """Direct, resilient and served compiles share the post-lowering
    tail (``StencilCompiler.finish``): a ``parallel=True`` kernel comes
    back certified and schedule-stamped whichever driver built it."""

    def test_parallel_kernels_agree_across_drivers(self):
        from repro.codegen.certificates import CertificateMemo, set_default_memo
        from repro.core.pipeline import StencilCompiler
        from repro.runtime.resilience.driver import ResilientCompiler

        options = replace(OPTIONS, parallel=True, use_cache=False)

        async def serve():
            svc = _service(options=options)
            resp = await svc.compile(_module())
            await svc.drain()
            assert resp.ok and resp.degraded_to is None
            return resp.kernel

        drivers = {
            "direct": lambda: StencilCompiler(options).compile(_module()),
            "resilient": lambda: ResilientCompiler(options).compile(_module())[0],
            "served": lambda: asyncio.run(serve()),
        }
        kernels = {}
        for name, build in drivers.items():
            # A fresh memo per driver: each must run the race check
            # itself rather than inherit the previous one's verdict.
            previous = set_default_memo(CertificateMemo())
            try:
                kernels[name] = build()
            finally:
                set_default_memo(previous)

        direct = kernels["direct"]
        assert direct.parallel_certified and len(direct.schedule) == 1
        x, b = _inputs()
        (expected,) = direct(x.copy(), b.copy(), x.copy())
        for name in ("resilient", "served"):
            kernel = kernels[name]
            assert kernel.parallel_certified == direct.parallel_certified
            assert [s.to_json() for s in kernel.schedule] == [
                s.to_json() for s in direct.schedule
            ], name
            (got,) = kernel(x.copy(), b.copy(), x.copy())
            assert np.array_equal(got, expected), name


class TestStatsSurface:
    def test_snapshot_and_render(self):
        async def scenario():
            svc = _service()
            await asyncio.gather(*[svc.compile(_module()) for _ in range(4)])
            await svc.compile(_module((10, 8)), deadline=1e-5)
            await svc.drain()
            return svc

        svc = asyncio.run(scenario())
        snap = svc.snapshot()
        for key in (
            "queue_depth", "inflight", "single_flight_hit_rate",
            "p50_latency", "p99_latency", "shed", "degradations",
            "completed", "deadlines_expired",
        ):
            assert key in snap
        assert snap["queue_depth"] == 0 and snap["inflight"] == 0
        assert snap["completed"] == 4
        assert snap["p99_latency"] >= snap["p50_latency"] >= 0.0
        text = svc.report().render()
        assert "single-flight hit rate" in text
        assert "p50" in text and "p99" in text

    def test_service_report_json_round_trip(self):
        async def scenario():
            svc = _service(max_queue=1, shed_watermark=1.0, shed_floor=1.0)
            await asyncio.gather(
                *[svc.compile(_module((8 + 2 * i, 8))) for i in range(3)]
            )
            await svc.drain()
            return svc.report()

        report = asyncio.run(scenario())
        assert report.codes()  # at least the RS012 rejections
        clone = ServiceReport.from_json(report.to_json())
        assert clone.to_json() == report.to_json()
        assert clone.codes() == report.codes()
        assert clone.stats == report.stats

    def test_per_request_summaries_are_bounded(self):
        async def scenario():
            svc = _service(latency_window=4)
            for _ in range(8):
                await svc.compile(_module())
            await svc.drain()
            return svc

        svc = asyncio.run(scenario())
        assert len(svc.report().requests) == 4
        assert len(svc.stats.latencies) == 4


class TestPercentile:
    def test_empty_and_bounds(self):
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 100.0
        assert percentile(samples, 50) == pytest.approx(50.0, abs=1.0)


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ServiceConfig(workers=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_queue=0)
        with pytest.raises(ValueError):
            ServiceConfig(shed_watermark=0.9, shed_floor=0.5)
        with pytest.raises(ValueError):
            ServiceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ServiceConfig(jitter=-0.1)
