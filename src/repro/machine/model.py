"""Machine descriptions.

The :data:`XEON_6152` preset matches §4's evaluation platform: a
dual-socket Intel Xeon Gold 6152 @ 2.10 GHz, 22 cores per socket in
sub-NUMA clustering (2 NUMA nodes of 11 cores each per socket), two
AVX-512 units per core, 32 KB L1D and 1 MB L2 per core, 32 MB L3 and one
memory controller per NUMA node.

Besides the capacities and bandwidths the thread-scaling simulator
needs, a :class:`MachineModel` carries the per-event costs the *static
performance prover* (:mod:`repro.analysis.perf`) prices a schedule with:
peak floating-point rate, private-cache stream bandwidth, and fixed
per-tile / per-vector-invocation overheads. :data:`PY_NUMPY_BACKEND` is
calibrated to the executor that actually runs generated code in this
reproduction — NumPy slice kernels, whose per-call overhead dwarfs
per-cell arithmetic — so static predictions can be ranked against
measured runtimes on this container.

Model selection is shared by every perf client: the ``REPRO_MACHINE``
environment variable (or an explicit option / ``CompileOptions.machine``)
pins :func:`resolve_machine_model` to a named preset from
:data:`MACHINE_PRESETS`, making predictions and CI lint output
deterministic across hosts; unset, the host-calibrated model is used.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class MachineModel:
    """The parameters the thread-scaling simulator needs."""

    name: str
    cores: int
    numa_nodes: int
    l1_bytes: int
    l2_bytes: int
    l3_bytes_per_numa: int
    #: Sustainable DRAM bandwidth per NUMA node, bytes/second.
    mem_bw_per_numa: float
    #: Cost of one synchronization barrier across ``p`` threads, seconds
    #: (scaled by log2(p) in the simulator).
    barrier_seconds: float
    #: Throughput penalty factor for remote-NUMA traffic (>= 1).
    remote_penalty: float = 1.6
    #: Peak double-precision vector flop rate of one core, flops/second
    #: (the roofline ceiling of the static cost model).
    flops_per_core: float = 16.8e9
    #: Private-cache (L2) stream bandwidth of one core, bytes/second —
    #: prices halo re-reads that hit cache rather than DRAM.
    cache_bw: float = 100e9
    #: Fixed cost of entering one tile (loop setup, slice bookkeeping).
    tile_start_seconds: float = 2e-7
    #: Fixed cost of entering one innermost strip (loop-carried index
    #: arithmetic and per-access slice setup, paid once per unit-stride
    #: row regardless of its length). Near-free on hardware; dominant on
    #: the NumPy backend, where every strip rebuilds its slice views.
    strip_start_seconds: float = 2e-9
    #: Fixed cost of issuing one vector operation (per stencil access per
    #: VF-wide chunk) — models instruction issue on hardware and the
    #: per-call overhead of the NumPy vector unit on this backend.
    vector_call_seconds: float = 2e-8
    #: Multiplier on the per-tile/strip/call overheads once a tile's
    #: halo-inclusive working set no longer fits the private (L2) cache:
    #: every operand touch then comes from a slower level (the PF001
    #: regime).
    cache_spill_penalty: float = 1.25
    #: Milder multiplier for the middle tier — the tile fits L2 but its
    #: cross-strip reuse plane (the trailing plane of the halo window,
    #: re-read each time the outermost tile index advances) spills L1.
    #: Tiles whose reuse plane stays L1-resident reread halos for free.
    l1_spill_penalty: float = 1.05

    @property
    def cores_per_numa(self) -> int:
        return self.cores // self.numa_nodes

    @property
    def l3_bytes_total(self) -> int:
        return self.l3_bytes_per_numa * self.numa_nodes

    def numa_nodes_used(self, threads: int) -> int:
        """Threads fill NUMA nodes in order (compact pinning)."""
        if threads <= 0:
            raise ValueError("threads must be positive")
        return min(
            self.numa_nodes, -(-threads // self.cores_per_numa)
        )

    def bandwidth_available(self, threads: int) -> float:
        """Aggregate DRAM bandwidth reachable by ``threads`` workers."""
        return self.numa_nodes_used(threads) * self.mem_bw_per_numa


#: The paper's platform (§4): 2 x Xeon Gold 6152, 44 cores, 4 NUMA nodes.
XEON_6152 = MachineModel(
    name="2x Intel Xeon Gold 6152 @ 2.10GHz",
    cores=44,
    numa_nodes=4,
    l1_bytes=32 * 1024,
    l2_bytes=1024 * 1024,
    l3_bytes_per_numa=32 * 1024 * 1024,
    mem_bw_per_numa=30e9,  # ~120 GB/s aggregate over 4 nodes
    barrier_seconds=4e-6,
)


#: This reproduction's environment: a single-core container.
LOCAL_SINGLE_CORE = MachineModel(
    name="single-core container",
    cores=1,
    numa_nodes=1,
    l1_bytes=32 * 1024,
    l2_bytes=1024 * 1024,
    l3_bytes_per_numa=32 * 1024 * 1024,
    mem_bw_per_numa=20e9,
    barrier_seconds=1e-6,
)


#: The executor of this reproduction: generated Python/NumPy kernels.
#: Capacities are the container's; the event costs are calibrated to the
#: NumPy backend, where a tile entry costs tens of microseconds of slice
#: bookkeeping, a vector invocation pays a NumPy call (~0.4 us) and flops
#: run at the Python-float scalar unit's ~85 ns per lane, so the static cost
#: ranks tiles as measured runtimes do (benchmarks/test_pr8_static_cost.py).
PY_NUMPY_BACKEND = MachineModel(
    name="python-numpy backend (calibrated)",
    cores=1,
    numa_nodes=1,
    l1_bytes=32 * 1024,
    l2_bytes=1024 * 1024,
    l3_bytes_per_numa=32 * 1024 * 1024,
    mem_bw_per_numa=20e9,
    barrier_seconds=1e-6,
    flops_per_core=1.2e8,
    cache_bw=10e9,
    tile_start_seconds=4e-5,
    strip_start_seconds=1e-6,
    vector_call_seconds=4e-7,
    cache_spill_penalty=1.15,
    l1_spill_penalty=1.08,
)


#: Environment variable pinning the machine model to a named preset.
MACHINE_ENV = "REPRO_MACHINE"

#: The named presets ``REPRO_MACHINE`` / ``CompileOptions.machine`` may
#: select. ``"host"`` explicitly requests the host-calibrated model.
MACHINE_PRESETS: Dict[str, MachineModel] = {
    "xeon-6152": XEON_6152,
    "single-core": LOCAL_SINGLE_CORE,
    "py-numpy": PY_NUMPY_BACKEND,
}


def _host_calibrated() -> MachineModel:
    """The raw host probe (no environment consultation)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        cores = os.cpu_count() or 1
    if cores <= 1:
        return LOCAL_SINGLE_CORE
    return MachineModel(
        name=f"host ({cores} cores, 1 NUMA node assumed)",
        cores=cores,
        numa_nodes=1,
        l1_bytes=32 * 1024,
        l2_bytes=1024 * 1024,
        l3_bytes_per_numa=32 * 1024 * 1024,
        mem_bw_per_numa=20e9,
        barrier_seconds=1e-6,
    )


def host_machine_model() -> MachineModel:
    """A model calibrated to the machine actually running this process.

    When the ``REPRO_MACHINE`` environment variable names a preset, that
    preset is returned instead — the pin that makes perf predictions and
    CI lint output deterministic across hosts.

    Otherwise the core count comes from the scheduling affinity mask
    (the honest number inside containers); the memory system is assumed
    to be one NUMA node of commodity bandwidth. This is what the
    parallel-wavefront benchmark cross-checks its *measured* speedups
    against — on the single-core CI container it reduces to
    :data:`LOCAL_SINGLE_CORE`.
    """
    return resolve_machine_model()


def resolve_machine_model(explicit: Optional[str] = None) -> MachineModel:
    """The effective machine model: explicit name > ``REPRO_MACHINE`` >
    host calibration. ``"host"`` forces the host-calibrated model even
    when the environment pins a preset."""
    name = explicit or os.environ.get(MACHINE_ENV)
    if not name or name == "host":
        return _host_calibrated()
    try:
        return MACHINE_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown machine preset {name!r}; expected one of "
            f"{sorted(MACHINE_PRESETS)} or 'host'"
        ) from None
