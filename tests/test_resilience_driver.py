"""The resilient compiler: snapshot retry, degradation chain, fallback."""

import numpy as np
import pytest

from repro.codegen.interpreter import run_function
from repro.core import frontend
from repro.core.pipeline import CompileOptions
from repro.core.stencil import gauss_seidel_5pt_2d
from repro.runtime.resilience import (
    FaultPlan,
    FaultSpec,
    clear_plan,
    injected,
)
from repro.runtime.resilience.driver import (
    InterpreterKernel,
    ResilientCompiler,
    degradation_chain,
)
from repro.ir.printer import print_module

SHAPE = (8, 8)
OPTIONS = CompileOptions(
    subdomain_sizes=(4, 4),
    tile_sizes=(2, 2),
    fuse=True,
    vectorize=4,
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


def _inputs(seed=0):
    rng = np.random.default_rng(seed)
    full = (1,) + SHAPE
    return rng.standard_normal(full), rng.standard_normal(full)


def _reference(x, b):
    (expected,) = run_function(_module(), "kernel", x, b, x.copy())
    return expected


class TestDegradationChain:
    def test_walks_to_weakest_config(self):
        steps = list(degradation_chain(OPTIONS))
        labels = [label for label, _ in steps]
        assert labels[0] == "as-requested"
        assert "opt_level -> O0" in labels
        assert labels[-2] == "vectorization -> off"
        assert labels[-1] == "fusion -> off"
        last = steps[-1][1]
        assert last.opt_level == 0 and last.vectorize == 0 and not last.fuse

    def test_requested_options_unmutated(self):
        list(degradation_chain(OPTIONS))
        assert OPTIONS.vectorize == 4 and OPTIONS.fuse

    def test_already_weak_config_yields_only_itself(self):
        weak = CompileOptions(vectorize=0, fuse=False, opt_level=0)
        assert [label for label, _ in degradation_chain(weak)] == [
            "as-requested"
        ]


class TestCleanCompile:
    def test_no_faults_no_events(self):
        kernel, report = ResilientCompiler(OPTIONS).compile(_module())
        assert report.final == "compiled"
        assert not report.recovered and not report.degraded
        assert report.attempts[0].outcome == "ok"
        x, b = _inputs()
        (got,) = kernel.run(x, b, x.copy())
        np.testing.assert_allclose(got, _reference(x, b), rtol=1e-12)

    def test_input_module_not_consumed(self):
        module = _module()
        before = print_module(module)
        ResilientCompiler(OPTIONS).compile(module)
        assert print_module(module) == before


class TestSnapshotRetry:
    def test_transient_pass_fault_recovered(self):
        plan = FaultPlan([FaultSpec("pipeline.pass-run", at=3)])
        with injected(plan):
            kernel, report = ResilientCompiler(OPTIONS).compile(_module())
        assert plan.fired
        assert report.recovered  # RS001 in the event log
        assert not report.degraded  # retry succeeded at full config
        assert report.final == "compiled"
        x, b = _inputs(1)
        (got,) = kernel.run(x, b, x.copy())
        np.testing.assert_allclose(got, _reference(x, b), rtol=1e-12)

    def test_transient_verify_fault_recovered(self):
        plan = FaultPlan([FaultSpec("pipeline.verify", at=2)])
        with injected(plan):
            kernel, report = ResilientCompiler(OPTIONS).compile(_module())
        assert report.recovered
        assert report.final == "compiled"

    def test_pipeline_scoped_gc_suspension_is_inherited(self):
        # The resilient manager overrides only the per-pass step, so
        # PassManager.run's GC suspension covers its passes too.
        import gc

        from repro.ir.pass_manager import Pass
        from repro.runtime.resilience.driver import ResilientPassManager

        seen = []

        class Probe(Pass):
            name = "probe"

            def run(self, module):
                seen.append(gc.isenabled())

        assert gc.isenabled()
        ResilientPassManager([Probe()]).run(_module())
        assert seen == [False]
        assert gc.isenabled()


class TestDegradation:
    def test_persistent_vectorize_fault_degrades_past_vectorization(self):
        # The vectorize pass always fails -> the chain must reach a
        # configuration that doesn't run it.
        plan = FaultPlan([FaultSpec(
            "pipeline.pass-run", at=1, times=10**6,
            match={"pass_name": "vectorize-stencils"},
        )])
        with injected(plan):
            kernel, report = ResilientCompiler(
                OPTIONS, max_retries=1, backoff_base=0.0
            ).compile(_module())
        assert report.degraded
        assert "RS002" in report.codes()
        assert report.final == "compiled"
        assert "vectorization -> off" in report.degradations
        assert "vf=" not in report.final_options
        x, b = _inputs(2)
        (got,) = kernel.run(x, b, x.copy())
        np.testing.assert_allclose(got, _reference(x, b), rtol=1e-12)

    def test_persistent_all_pass_fault_falls_back_to_interpreter(self):
        plan = FaultPlan([FaultSpec(
            "pipeline.pass-run", at=1, times=10**6
        )])
        with injected(plan):
            kernel, report = ResilientCompiler(
                OPTIONS, max_retries=0, backoff_base=0.0
            ).compile(_module())
        assert isinstance(kernel, InterpreterKernel)
        assert "RS003" in report.codes()
        assert report.final == "interpreter"
        x, b = _inputs(3)
        (got,) = kernel.run(x, b, x.copy())
        np.testing.assert_allclose(got, _reference(x, b), rtol=1e-12)

    def test_interpreter_kernel_reusable_across_calls(self):
        kernel = InterpreterKernel(print_module(_module()))
        x, b = _inputs(4)
        (a,) = kernel.run(x, b, x.copy())
        (c,) = kernel.run(x, b, x.copy())
        np.testing.assert_array_equal(a, c)


class TestCompileAndRun:
    def test_execution_fault_retried(self):
        plan = FaultPlan([FaultSpec("executor.execute", at=1)])
        x, b = _inputs(5)
        with injected(plan):
            values, report = ResilientCompiler(
                OPTIONS, backoff_base=0.0
            ).compile_and_run(
                _module(), lambda: (x.copy(), b.copy(), x.copy())
            )
        assert any(
            a.stage == "execute" and a.outcome == "failed"
            for a in report.attempts
        )
        np.testing.assert_allclose(values[0], _reference(x, b), rtol=1e-12)

    def test_persistent_execution_fault_falls_back_to_interpreter(self):
        plan = FaultPlan([FaultSpec(
            "executor.execute", at=1, times=10**6
        )])
        x, b = _inputs(6)
        with injected(plan):
            values, report = ResilientCompiler(
                OPTIONS, max_retries=1, backoff_base=0.0
            ).compile_and_run(
                _module(), lambda: (x.copy(), b.copy(), x.copy())
            )
        assert "RS003" in report.codes()
        assert report.final == "interpreter"
        np.testing.assert_allclose(values[0], _reference(x, b), rtol=1e-12)


class TestReport:
    def test_render_and_json_round_out(self):
        plan = FaultPlan([FaultSpec("pipeline.pass-run", at=1)])
        with injected(plan):
            _, report = ResilientCompiler(
                OPTIONS, backoff_base=0.0
            ).compile(_module())
        text = report.render()
        assert "recovery report: final=compiled" in text
        assert "RS001" in text
        blob = report.to_json()
        assert blob["final"] == "compiled"
        assert any(e["code"] == "RS001" for e in blob["events"])
        assert all(a["stage"] == "compile" for a in blob["attempts"])

    def test_json_round_trip_is_stable(self):
        """`from_json(to_json(r))` reproduces the report exactly — the
        service ships these over the wire (PR 10)."""
        from repro.runtime.resilience.report import RecoveryReport

        plan = FaultPlan([FaultSpec("pipeline.pass-run", at=1)])
        with injected(plan):
            _, report = ResilientCompiler(
                OPTIONS, backoff_base=0.0
            ).compile(_module())
        blob = report.to_json()
        clone = RecoveryReport.from_json(blob)
        assert clone.to_json() == blob
        assert clone.final == report.final
        assert clone.final_options == report.final_options
        assert clone.degradations == report.degradations
        assert clone.codes() == report.codes()
        assert len(clone.attempts) == len(report.attempts)
        for a, b in zip(clone.attempts, report.attempts):
            assert (a.options, a.outcome, a.stage) == (
                b.options, b.outcome, b.stage
            )
        # Event fields added in PR 10 survive the round trip too.
        for d_clone, d_orig in zip(clone.events, report.events):
            assert d_clone.code == d_orig.code
            assert d_clone.op_path == d_orig.op_path
            assert d_clone.after_pass == d_orig.after_pass

    def test_from_json_tolerates_pre_service_payloads(self):
        """Reports serialized before the service's extra event fields
        existed still deserialize (missing keys default)."""
        from repro.runtime.resilience.report import RecoveryReport

        legacy = {
            "final": "compiled",
            "final_options": "vf=4,O2",
            "degradations": [],
            "attempts": [{"options": "vf=4,O2", "outcome": "ok",
                          "stage": "compile", "error": ""}],
            "events": [{"code": "RS001", "severity": "warning",
                        "message": "retried"}],
        }
        clone = RecoveryReport.from_json(legacy)
        assert clone.final == "compiled"
        assert clone.codes() == ["RS001"]
        assert not clone.events[0].op_path
