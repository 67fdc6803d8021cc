"""Checkpoint/restart: cadence, disk tier, bit-identical solver resume."""

import numpy as np
import pytest

from repro.cfdlib import euler
from repro.cfdlib.heat import (
    checkpointed_heat3d,
    heat3d_reference,
    initial_temperature,
)
from repro.cfdlib.lusgs import (
    LUSGSConfig,
    checkpointed_lusgs,
    lusgs_reference,
    stable_dt,
)
from repro.cfdlib.mesh import StructuredMesh
from repro.cfdlib.solvers import checkpointed_poisson_solve, solve_poisson
from repro.runtime.resilience import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    clear_plan,
    injected,
)
from repro.runtime.resilience.checkpoint import (
    CheckpointManager,
    run_checkpointed,
)
from repro.runtime.resilience.report import RecoveryReport


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    clear_plan()


def _count_step(s, _k):
    return {"u": s["u"] + 1.0}


class TestCheckpointManager:
    def test_cadence(self):
        mgr = CheckpointManager(every=3)
        state = {"u": np.zeros(4)}
        run_checkpointed(_count_step, state, 10, manager=mgr)
        assert mgr.saved_steps == [3, 6, 9]

    def test_zero_cadence_disables_periodic_saves(self):
        mgr = CheckpointManager(every=0)
        run_checkpointed(_count_step, {"u": np.zeros(4)}, 10, manager=mgr)
        assert mgr.saved_steps == []

    def test_checkpoints_are_deep_copies(self):
        mgr = CheckpointManager(every=1)
        u = np.zeros(4)
        mgr.save(1, {"u": u})
        u[:] = 99.0
        assert np.all(mgr.latest.restore()["u"] == 0.0)

    def test_disk_round_trip_and_pruning(self, tmp_path):
        mgr = CheckpointManager(every=2, directory=tmp_path, keep=2)
        run_checkpointed(_count_step, {"u": np.zeros(4)}, 10, manager=mgr)
        files = sorted(p.name for p in tmp_path.glob("ckpt_*.npz"))
        assert files == ["ckpt_00000008.npz", "ckpt_00000010.npz"]
        fresh = CheckpointManager(every=2, directory=tmp_path)
        cp = fresh.load_latest()
        assert cp.step == 10
        np.testing.assert_array_equal(cp.arrays["u"], np.full(4, 10.0))

    def test_corrupt_disk_checkpoint_skipped(self, tmp_path):
        mgr = CheckpointManager(every=2, directory=tmp_path, keep=3)
        run_checkpointed(_count_step, {"u": np.zeros(4)}, 6, manager=mgr)
        (tmp_path / "ckpt_00000006.npz").write_bytes(b"\x00 not an npz")
        fresh = CheckpointManager(directory=tmp_path)
        assert fresh.load_latest().step == 4

    @pytest.mark.parametrize("damage", ["truncated", "bit-flipped"])
    def test_damaged_npz_falls_back_and_is_quarantined(self, tmp_path, damage):
        # Both used to escape load_latest() as zipfile.BadZipFile ("File
        # is not a zip file" / "Bad CRC-32 for file 'u.npy'").
        mgr = CheckpointManager(every=2, directory=tmp_path, keep=3)
        run_checkpointed(_count_step, {"u": np.zeros(64)}, 6, manager=mgr)
        path = tmp_path / "ckpt_00000006.npz"
        blob = bytearray(path.read_bytes())
        if damage == "truncated":
            blob = blob[: len(blob) // 2]
        else:
            blob[len(blob) // 2] ^= 0xFF  # inside u.npy's array data
        path.write_bytes(bytes(blob))
        fresh = CheckpointManager(directory=tmp_path)
        assert fresh.load_latest().step == 4
        assert not path.exists()
        assert (tmp_path / "quarantine" / path.name).exists()
        assert [e.code for e in fresh.events()] == ["RS004"]
        # Quarantine is terminal: a second manager sees a clean directory.
        again = CheckpointManager(directory=tmp_path)
        assert again.load_latest().step == 4
        assert again.events() == []

    def test_clear_removes_disk_and_memory(self, tmp_path):
        mgr = CheckpointManager(every=1, directory=tmp_path)
        run_checkpointed(_count_step, {"u": np.zeros(4)}, 3, manager=mgr)
        mgr.clear()
        assert mgr.latest is None
        assert not list(tmp_path.glob("ckpt_*.npz"))

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            CheckpointManager(every=-1)
        with pytest.raises(ValueError):
            CheckpointManager(keep=0)


class TestRunCheckpointed:
    def test_resume_skips_completed_steps(self):
        mgr = CheckpointManager(every=5)
        report = RecoveryReport()
        with injected(FaultPlan([FaultSpec("solver.sweep", at=8)])):
            with pytest.raises(InjectedFault):
                run_checkpointed(
                    _count_step, {"u": np.zeros(4)}, 10,
                    manager=mgr, site="solver.sweep", report=report,
                )
        assert mgr.latest.step == 5
        assert "RS007" in report.codes()
        resumed = run_checkpointed(
            _count_step, {"u": np.zeros(4)}, 10,
            manager=mgr, site="solver.sweep", report=report,
        )
        assert "RS008" in report.codes()
        np.testing.assert_array_equal(resumed["u"], np.full(4, 10.0))

    def test_resume_false_restarts_from_scratch(self):
        mgr = CheckpointManager(every=2)
        mgr.save(2, {"u": np.full(4, 2.0)})
        out = run_checkpointed(
            _count_step, {"u": np.zeros(4)}, 4, manager=mgr, resume=False
        )
        np.testing.assert_array_equal(out["u"], np.full(4, 4.0))


def _crash_then_resume(run, site, crash_at, manager):
    """Crash an instrumented solve at ``crash_at``, resume, return output."""
    with injected(FaultPlan([FaultSpec(site, at=crash_at)])):
        with pytest.raises(InjectedFault):
            run(manager)
    return run(manager)


class TestSolverResume:
    def test_poisson_resume_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((10, 10))
        expected = checkpointed_poisson_solve(f, 12, method="sor", omega=1.5)

        mgr = CheckpointManager(every=4, directory=tmp_path / "pc")
        got = _crash_then_resume(
            lambda m: checkpointed_poisson_solve(
                f, 12, method="sor", omega=1.5, manager=m
            ),
            "solver.sweep", 9, mgr,
        )
        assert np.array_equal(got, expected)

    def test_poisson_checkpointed_matches_plain_solver(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((10, 10))
        expected, _ = solve_poisson(
            f, method="sor", max_iterations=8, tolerance=0.0, omega=1.3
        )
        got = checkpointed_poisson_solve(f, 8, method="sor", omega=1.3)
        assert np.array_equal(got, expected)

    def test_heat3d_resume_bit_identical(self, tmp_path):
        t0 = initial_temperature(6)
        dt0 = np.zeros_like(t0)
        t_exp, dt_exp = heat3d_reference(t0, dt0, 6)

        mgr = CheckpointManager(every=2, directory=tmp_path / "hc")
        report = RecoveryReport()
        with injected(FaultPlan([FaultSpec("solver.heat-step", at=5)])):
            with pytest.raises(InjectedFault):
                checkpointed_heat3d(t0, dt0, 6, manager=mgr)
        t_got, dt_got = checkpointed_heat3d(
            t0, dt0, 6, manager=mgr, report=report
        )
        assert "RS008" in report.codes()
        assert np.array_equal(t_got, t_exp)
        assert np.array_equal(dt_got, dt_exp)

    def test_lusgs_resume_bit_identical(self, tmp_path):
        mesh = StructuredMesh((5, 5, 5), extent=(1.0, 1.0, 1.0))
        w0 = euler.density_wave((5, 5, 5), amplitude=0.05)
        config = LUSGSConfig(mesh=mesh, dt=stable_dt(w0, mesh, cfl=1.0))
        expected = lusgs_reference(w0, config, 4)

        mgr = CheckpointManager(every=2, directory=tmp_path / "lc")
        got = _crash_then_resume(
            lambda m: checkpointed_lusgs(w0, config, 4, manager=m),
            "solver.lusgs-step", 4, mgr,
        )
        assert np.array_equal(got, expected)

    def test_uninterrupted_checkpointed_heat_matches_reference(self):
        t0 = initial_temperature(5, seed=3)
        dt0 = np.zeros_like(t0)
        t_exp, dt_exp = heat3d_reference(t0, dt0, 4)
        t_got, dt_got = checkpointed_heat3d(t0, dt0, 4)
        assert np.array_equal(t_got, t_exp)
        assert np.array_equal(dt_got, dt_exp)
