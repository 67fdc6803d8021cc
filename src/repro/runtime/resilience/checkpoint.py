"""Solver checkpoint/restart: periodic state snapshots + bit-identical resume.

The paper's in-place stencils drive *iterative* solvers (SOR sweeps, the
LU-SGS time loop, heat-3D implicit steps) whose long runs are exactly
the workloads that need restartability. :class:`CheckpointManager`
snapshots the full solver state every ``every`` steps (in memory, and
optionally as ``.npz`` files in a :class:`~repro.runtime.diskstore
.DiskStore` for cross-process restart: atomic writes, and a damaged
file — the zip CRC is the checksum — is quarantined and skipped);
:func:`run_checkpointed` is the generic loop driver the ``cfdlib``
solvers build on: it resumes from the latest checkpoint when one exists,
so a crash mid-solve costs at most ``every - 1`` recomputed steps and
the final state is bit-identical to an uninterrupted run (the step
functions are deterministic and the snapshots are deep copies).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.runtime.diskstore import DiskBacked, DiskStats, DiskStore
from repro.runtime.resilience.faults import maybe_inject

#: Solver state: named arrays (e.g. ``{"u": ...}`` or ``{"t": ..., "dt": ...}``).
State = Dict[str, np.ndarray]


@dataclass
class Checkpoint:
    """A deep-copied solver state captured after ``step`` completed steps."""

    step: int
    arrays: State

    def restore(self) -> State:
        """A fresh deep copy safe for in-place mutation by the solver."""
        return {k: np.array(v, copy=True) for k, v in self.arrays.items()}


class CheckpointManager(DiskBacked):
    """Keeps the latest checkpoints in memory and optionally on disk.

    Parameters
    ----------
    every:
        Checkpoint cadence in completed steps (``0`` disables periodic
        saves; explicit :meth:`save` still works).
    directory:
        When set, each checkpoint is also written as
        ``ckpt_<step>.npz`` so a *new process* (or a fresh manager) can
        resume via :meth:`load_latest`.
    keep:
        How many on-disk checkpoints to retain (older ones are pruned).
    """

    def __init__(
        self,
        every: int = 10,
        directory: Optional[Path] = None,
        keep: int = 2,
    ) -> None:
        if every < 0:
            raise ValueError("every must be >= 0")
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.every = every
        self._store = DiskStore(directory, "checkpoint", ("ckpt_{}.npz",))
        self.directory = self._store.root
        self.keep = keep
        self.latest: Optional[Checkpoint] = None
        #: Steps at which a checkpoint was captured (for tests/reports).
        self.saved_steps: List[int] = []

    def save(self, step: int, arrays: State) -> Checkpoint:
        cp = Checkpoint(step, {k: np.array(v, copy=True) for k, v in arrays.items()})
        self.latest = cp
        self.saved_steps.append(step)
        if self.directory is not None:
            if self._store.store(
                f"{step:08d}", lambda file: np.savez(file, **cp.arrays)
            ):
                for stale in self._store.keys()[: -self.keep]:
                    self._store.remove(stale)
        return cp

    def maybe_save(self, step: int, arrays: State) -> Optional[Checkpoint]:
        """Save when the cadence says so (``step`` is 1-based completed count)."""
        if self.every and step and step % self.every == 0:
            return self.save(step, arrays)
        return None

    def load_latest(self) -> Optional[Checkpoint]:
        """The most recent checkpoint: memory first, then the newest
        intact one on disk."""
        if self.latest is not None:
            return self.latest
        for key in reversed(self._store.keys()):
            cp = self._store.load(key, lambda path: _decode(int(key), path))
            if cp is not None:
                self.latest = cp
                return cp
        return None

    def clear(self) -> None:
        self.latest = None
        self.saved_steps = []
        self._store.clear(DiskStats(), disk=True)


def _decode(step: int, path: Path) -> Checkpoint:
    # Opened here, not by numpy, which leaks the handle on a bad zip.
    with open(path, "rb") as file, np.load(file) as data:
        return Checkpoint(step, {k: np.array(data[k]) for k in data.files})


def run_checkpointed(
    step_fn: Callable[[State, int], State],
    state: State,
    steps: int,
    manager: Optional[CheckpointManager] = None,
    site: Optional[str] = None,
    report=None,
    resume: bool = True,
) -> State:
    """Drive ``state = step_fn(state, k)`` for ``k in range(steps)``.

    With a ``manager`` holding a checkpoint (a previous run crashed),
    execution resumes from it instead of step 0; periodic checkpoints are
    captured per the manager's cadence. ``site`` names the fault-injection
    point hit before every step; ``report`` (a
    :class:`~repro.runtime.resilience.report.RecoveryReport`) records
    RS007 checkpoint and RS008 resume events when provided.
    """
    start = 0
    if manager is not None and resume:
        cp = manager.load_latest()
        if cp is not None:
            state = cp.restore()
            start = cp.step
            if report is not None:
                report.add_event(
                    "RS008",
                    f"resuming solve from checkpoint at step {cp.step} "
                    f"(skipping {cp.step} completed step(s))",
                )
    for k in range(start, steps):
        if site is not None:
            maybe_inject(site, step=k)
        state = step_fn(state, k)
        if manager is not None:
            saved = manager.maybe_save(k + 1, state)
            if saved is not None and report is not None:
                report.add_event(
                    "RS007", f"checkpoint written after step {k + 1}"
                )
    return state
