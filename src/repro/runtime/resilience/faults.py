"""Deterministic, seedable fault injection for chaos testing.

Production code is instrumented with :func:`maybe_inject` calls at
*registered fault sites* — named points in the pass manager, the shared
disk tier, the executor and the ``cfdlib`` solver loops. With no
:class:`FaultPlan` installed (the normal case) every call is a cheap
no-op; the chaos suite installs a plan that fires an
:class:`InjectedFault` (or a simulated hang) at a chosen invocation of a
chosen site, so recovery paths can be exercised deterministically.

Determinism contract: a plan is a pure function of its specs and seed.
:meth:`FaultPlan.seeded` derives the firing invocation from a SHA-256 of
``(site, seed)``, so CI can sweep a seed matrix and every run is exactly
reproducible.

This module depends only on the standard library so that low-level
modules (``repro.ir.pass_manager``, ``repro.runtime.diskstore``) can
import it without cycles.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Valid :attr:`FaultSpec.action` values.
ACTIONS = ("raise", "hang")


@dataclass(frozen=True)
class FaultSite:
    """One named injection point compiled into production code."""

    name: str
    category: str  # "pipeline" | "cache" | "executor" | "parallel" | "service" | "solver"
    description: str


#: Every registered injection point, keyed by site name. The chaos suite
#: sweeps this registry, so a new ``maybe_inject`` call must register its
#: site here (and thereby gets chaos coverage for free).
FAULT_SITES: Dict[str, FaultSite] = {}


def register_fault_site(name: str, category: str, description: str) -> FaultSite:
    """Register an injection point (idempotent re-registration is an error)."""
    if name in FAULT_SITES:
        raise ValueError(f"fault site {name!r} registered twice")
    site = FaultSite(name, category, description)
    FAULT_SITES[name] = site
    return site


# ---- the static site registry ---------------------------------------------

register_fault_site(
    "pipeline.pass-run", "pipeline",
    "a transformation pass raises before its body runs",
)
register_fault_site(
    "pipeline.verify", "pipeline",
    "the post-pass IR verifier raises (validation rejection path)",
)
register_fault_site(
    "cache.disk-read", "cache",
    "a disk tier (context ``kind`` names the tenant) fails reading an entry",
)
register_fault_site(
    "cache.disk-write", "cache",
    "a disk tier (context ``kind`` names the tenant) fails writing an entry",
)
register_fault_site(
    "executor.compile", "executor",
    "emission or exec of the generated Python source raises",
)
register_fault_site(
    "executor.execute", "executor",
    "a compiled kernel raises mid-execution",
)
register_fault_site(
    "executor.hang", "executor",
    "a compiled kernel hangs (exercises the wall-clock watchdog)",
)
register_fault_site(
    "parallel.worker", "parallel",
    "a wavefront worker thread raises at block entry (exercises the "
    "sequential-degradation path of the parallel dispatcher)",
)
register_fault_site(
    "service.queue", "service",
    "the compile service's admission/queue stage fails while enqueuing "
    "an accepted request (the request must be rejected explicitly, "
    "never lost)",
)
register_fault_site(
    "service.leader", "service",
    "a single-flight leader crashes (or hangs) inside its compile job "
    "before the pipeline runs (exercises loser-wakeup re-dispatch)",
)
register_fault_site(
    "service.drain", "service",
    "the graceful-drain path fails while finalizing an in-flight "
    "request (drain must still complete without losing requests)",
)
register_fault_site(
    "solver.sweep", "solver",
    "an iterative Poisson solve crashes between sweeps",
)
register_fault_site(
    "solver.heat-step", "solver",
    "the heat-3D time loop crashes between implicit steps",
)
register_fault_site(
    "solver.lusgs-step", "solver",
    "the LU-SGS time loop crashes between implicit steps",
)


class InjectedFault(RuntimeError):
    """The exception raised by a firing fault site."""

    def __init__(self, site: str, invocation: int) -> None:
        self.site = site
        self.invocation = invocation
        super().__init__(
            f"injected fault at {site!r} (invocation {invocation})"
        )


def _stable_seed(site: str, seed: int) -> int:
    digest = hashlib.sha256(f"{site}:{seed}".encode("utf-8")).hexdigest()
    return int(digest[:12], 16)


@dataclass
class FaultSpec:
    """When and how one site misbehaves.

    The spec fires on the ``at``-th *eligible* invocation of ``site``
    (1-based; an invocation is eligible when ``match`` accepts its
    context) and keeps firing for ``times`` consecutive eligible
    invocations. ``match`` maps context keys to expected values; a string
    expectation also accepts a context value that starts with it (so
    ``{"pass_name": "vectorize-stencils"}`` matches the parameterized
    ``vectorize-stencils<vf=8>``).
    """

    site: str
    at: int = 1
    times: int = 1
    action: str = "raise"
    hang_seconds: float = 0.2
    match: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r}")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.at < 1 or self.times < 1:
            raise ValueError("at and times must be >= 1")

    def accepts(self, ctx: Dict[str, Any]) -> bool:
        if not self.match:
            return True
        for key, expected in self.match.items():
            got = ctx.get(key)
            if got == expected:
                continue
            if isinstance(expected, str) and isinstance(got, str) and \
                    got.startswith(expected):
                continue
            return False
        return True


@dataclass
class FaultPlan:
    """A deterministic schedule of fault firings.

    Thread-safe: invocation counters are guarded, so faults fire
    deterministically even when kernels run under the watchdog thread.
    """

    specs: List[FaultSpec] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self.specs = list(self.specs)
        #: (site, invocation) log of every firing, for test assertions.
        self.fired: List[Tuple[str, int]] = []
        self._counts: Dict[int, int] = {}
        self._invocations: Dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def seeded(
        cls,
        site: str,
        seed: int = 0,
        max_at: int = 3,
        times: int = 1,
        action: str = "raise",
        hang_seconds: float = 0.2,
        match: Optional[Dict[str, Any]] = None,
    ) -> "FaultPlan":
        """One spec whose firing invocation is derived from ``seed``."""
        rng = random.Random(_stable_seed(site, seed))
        spec = FaultSpec(
            site,
            at=rng.randint(1, max(1, max_at)),
            times=times,
            action=action,
            hang_seconds=hang_seconds,
            match=match,
        )
        return cls([spec], seed=seed)

    def invocations(self, site: str) -> int:
        """How many times ``site`` was hit under this plan."""
        with self._lock:
            return self._invocations.get(site, 0)

    def observe(self, site: str, ctx: Dict[str, Any]) -> Optional[FaultSpec]:
        """Record one hit of ``site``; return the spec that should fire."""
        with self._lock:
            self._invocations[site] = self._invocations.get(site, 0) + 1
            firing = None
            for spec in self.specs:
                if spec.site != site or not spec.accepts(ctx):
                    continue
                key = id(spec)
                self._counts[key] = self._counts.get(key, 0) + 1
                count = self._counts[key]
                if spec.at <= count < spec.at + spec.times and firing is None:
                    firing = spec
            if firing is not None:
                self.fired.append((site, self._invocations[site]))
            return firing


_ACTIVE: Optional[FaultPlan] = None
_ACTIVE_LOCK = threading.Lock()


def install_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` process-wide (returns the previous plan)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = plan
    return previous


def clear_plan() -> None:
    install_plan(None)


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scope a plan installation (the chaos-test entry point)."""
    previous = install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


def maybe_inject(site: str, **ctx: Any) -> None:
    """The instrumentation hook: a no-op unless an installed plan fires.

    ``action="raise"`` raises :class:`InjectedFault`; ``action="hang"``
    sleeps ``hang_seconds`` (long enough for a watchdog to trip) and then
    returns normally.
    """
    plan = _ACTIVE
    if plan is None:
        return
    if site not in FAULT_SITES:
        raise ValueError(f"maybe_inject at unregistered site {site!r}")
    spec = plan.observe(site, ctx)
    if spec is None:
        return
    if spec.action == "hang":
        time.sleep(spec.hang_seconds)
        return
    raise InjectedFault(site, plan.invocations(site))


def sites_by_category(category: str) -> Sequence[FaultSite]:
    """All registered sites of one category (chaos-suite helper)."""
    return tuple(s for s in FAULT_SITES.values() if s.category == category)
