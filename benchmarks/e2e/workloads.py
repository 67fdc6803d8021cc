"""The six workloads: set-up, the timed laps and the layer probes.

Every workload is a program set, a choice of verification options and
the make-up of one *lap* over the same five steps, so every run
reports every metric:

* ``cold``     empty caches: source/IR in, checked field out
* ``exec``     timed kernel calls at one thread and at two
* ``service``  closed loop of 2 clients against ``repro.service``
* ``diskwarm`` empty memory tiers over the populated disk tier
* ``warm``     repeat compiles against the warm tiers

A run is as many laps as fit its ``--seconds``. The workload's name
says which step a lap spends its time on; the others run at their
minimum so the metric is still there to regress. Laps, not one long
phase per step, because interference on a shared host comes in spells:
samples of one metric taken seconds apart are far less likely to be
all slow than samples taken back to back.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

import programs as P
from harness import (
    Tracer,
    geomean,
    median,
    percentile,
    staged_compile,
    summarize,
)
from repro.analysis.affine import ENGINE_STATS
from repro.analysis.perf import predict
from repro.bench.harness import time_callable
from repro.codegen.cache import (
    KernelCache,
    module_fingerprint,
    set_default_cache,
)
from repro.codegen.certificates import CertificateMemo, set_default_memo
from repro.codegen.interpreter import run_function
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.frontend import FRONTEND_VERSION, stencil_from_source
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.runtime.parallel import (
    drain_events,
    last_dispatch_stats,
    set_num_threads,
    shutdown_pools,
)
from repro.runtime.resilience.checkpoint import CheckpointManager
from repro.runtime.resilience.driver import ResilientCompiler
from repro.runtime.resilience.faults import active_plan
from repro.service import CompileService, ServiceConfig
from repro.service.frontdoor import handle_request

now = time.perf_counter

#: Client coroutines, service workers and the multi-thread count: never
#: more than the host has cores.
CLIENTS = WORKERS = MT = min(2, os.cpu_count() or 1)

SETUP_REPEATS = 3
#: Novel (never-seen) service fingerprints generated in set-up; the
#: stream builds more on demand if a faster service outruns the pool.
NOVEL_POOL = 320


@dataclass(frozen=True)
class Spec:
    """One workload: programs, options, and what one lap holds."""

    name: str
    programs: Callable[[np.random.Generator], Sequence[P.Program]]
    cold_rounds: int
    exec_rounds: int
    service_s: float
    #: Compile with the analysis gate and translation validation on.
    verify: bool = False
    #: Service stream: hot-set compiles only, or the read/write mix.
    mixed: bool = False


def _small_no_lusgs(rng):
    # One verified LU-SGS compile is 7-11 s, most of a run: the
    # contract's time cap cuts it from this workload's draw.
    return P.small_set(rng, with_lusgs=False)


WORKLOADS: Dict[str, Spec] = {
    s.name: s
    for s in (
        Spec("fig11_exec", P.fig11_set, 1, 3, 0.8),
        Spec("lusgs_exec", P.lusgs_set, 1, 10, 0.8),
        Spec("compile_plain", P.small_set, 3, 2, 0.8),
        Spec("compile_verified", _small_no_lusgs, 1, 2, 0.8, verify=True),
        Spec("service_warm", P.service_set, 1, 2, 3.5),
        Spec("service_mixed", P.service_set, 1, 2, 3.5, mixed=True),
    )
}


# ---------------------------------------------------------------------------
# Correctness tally.
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    bit_equal: int = 0
    errors: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def check(self, program: P.Program, result, what: str) -> None:
        close, exact = program.check(result)
        self.bit_equal += exact
        self.record(close, f"{what}: {program.name} differs from reference")

    @contextmanager
    def guard(self, what: str) -> Iterator[None]:
        """An exception inside counts as one failed operation."""
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - counted and reported
            self.record(False, f"{what}: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# Set-up.
# ---------------------------------------------------------------------------


@dataclass
class Request:
    payload: Dict[str, Any]
    fingerprint: str
    kind: str  # "hot" | "novel" | "execute" | "dup"
    program: Optional[P.Program] = None


@dataclass
class State:
    spec: Spec
    seed: int
    programs: Sequence[P.Program]
    hot: List[Request]
    executes: List[Request]
    novel: List[Request]
    tmp: Path
    tally: Tally = field(default_factory=Tally)
    samples: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    kernels: Dict[str, Any] = field(default_factory=dict)
    #: ``DispatchStats`` of each program's latest multi-thread call.
    dispatch: Dict[str, Any] = field(default_factory=dict)
    cache: Optional[KernelCache] = None
    memo: Optional[CertificateMemo] = None
    cold_rounds: int = 0
    exec_rounds: int = 0
    stream: Optional[Iterator[Request]] = None
    #: One entry per service slice: its length in seconds and one
    #: ``(latency, ok and inside the slice, kind)`` per reply.
    slices: List[Tuple[float, List[Tuple[float, bool, str]]]] = field(
        default_factory=list)

    def sample(self, metric: str, series: str, seconds: float) -> None:
        self.samples.setdefault(metric, {}).setdefault(series, []).append(
            seconds
        )


def _options_json(options: CompileOptions) -> Dict[str, Any]:
    data = dataclasses.asdict(options)
    for key in ("subdomain_sizes", "tile_sizes"):
        if data[key] is not None:
            data[key] = list(data[key])
    return data


def _compile_request(
    module, entry: str, options: CompileOptions, kind: str,
    program: Optional[P.Program] = None,
) -> Request:
    return Request(
        payload={
            "op": "compile",
            "ir": print_module(module),
            "entry": entry,
            "options": _options_json(options),
        },
        fingerprint=module_fingerprint(module, entry, options.cache_key()),
        kind=kind,
        program=program,
    )


def _novel_requests(rng: np.random.Generator, skip: int, count: int):
    """Compile requests for fingerprints outside the hot set: the hot
    kinds over the ``skip``-th to ``skip + count``-th grid shapes."""
    analyzed = {
        kind: stencil_from_source(*P.SOURCES[kind][:2])
        for kind in P.SERVICE_KINDS
    }
    out = []
    for shape in P.novel_shapes(skip + count)[skip:]:
        kind = P.SERVICE_KINDS[int(rng.integers(len(P.SERVICE_KINDS)))]
        options = dataclasses.replace(
            P.service_options(kind), frontend_version=FRONTEND_VERSION
        )
        module = analyzed[kind].build_module(shape, iterations=P.ITERATIONS)
        out.append(_compile_request(module, "kernel", options, "novel"))
    return out


def set_up(spec: Spec, seed: int, tmp: Path) -> State:
    """Everything before the first timed sample: programs, seeded
    inputs, references, and the service requests."""
    if active_plan() is not None:
        raise RuntimeError("a fault plan is installed; the benchmark "
                           "measures the fault-free path")
    rng = np.random.default_rng(seed)
    programs = list(spec.programs(rng))
    if spec.verify:
        for p in programs:
            p.options = P.verified(p.options)
    hot = [
        _compile_request(p.build(), p.entry, p.options, "hot", p)
        for p in programs
    ]
    # Executes carry their arrays as JSON, in and out: they go to the
    # smallest (34 x 34) members of the hot set only.
    executes = [
        Request(
            payload={**r.payload, "op": "execute",
                     "args": [a.tolist() for a in r.program.make_args()]},
            fingerprint=r.fingerprint, kind="execute", program=r.program,
        )
        for r in hot
        if r.program.space_shape == (34, 34)
    ]
    novel = _novel_requests(rng, 0, NOVEL_POOL) if spec.mixed else []
    return State(spec, seed, programs, hot, executes, novel, tmp)


def fresh_caches(state: State, disk: Path) -> None:
    """Empty process-wide kernel cache and certificate memo, with
    their disk tiers under ``disk`` (never ``~/.cache``)."""
    state.cache = KernelCache(disk_dir=disk / "kernels")
    state.memo = CertificateMemo(disk_dir=disk / "certs")
    use_caches(state)


def use_caches(state: State) -> None:
    set_default_cache(state.cache)
    set_default_memo(state.memo)


@contextmanager
def scratch_caches(state: State) -> Iterator[None]:
    """Empty memory-only tiers for a probe; the state's come back."""
    set_default_cache(KernelCache())
    set_default_memo(CertificateMemo())
    try:
        yield
    finally:
        use_caches(state)


# ---------------------------------------------------------------------------
# The steps of a lap.
# ---------------------------------------------------------------------------


def cold_round(state: State) -> None:
    """Every program once with empty caches: compile, first call,
    check."""
    set_num_threads(1)
    fresh_caches(state, state.tmp / f"cold-{state.cold_rounds}")
    state.cold_rounds += 1
    for p in state.programs:
        with state.tally.guard(f"cold compile of {p.name}"):
            t0 = now()
            kernel = p.compile(p.options)
            t1 = now()
            result = kernel(*p.make_args())
            t2 = now()
            state.kernels[p.name] = kernel
            state.sample("compile_cold", p.name, t1 - t0)
            state.sample("time_to_solution_cold", p.name, t2 - t0)
            state.tally.check(p, result, "cold first call")


def exec_round(state: State) -> None:
    """One checked call per kernel; three rounds in five run at one
    thread, two at ``MT`` threads."""
    multi = state.exec_rounds % 5 in (1, 3)
    state.exec_rounds += 1
    threads = MT if multi else 1
    set_num_threads(threads)
    for p in state.programs:
        with state.tally.guard(f"call of {p.name}"):
            args = p.make_args()
            t0 = now()
            result = state.kernels[p.name](*args)
            state.sample("run_mt" if multi else "run", p.name, now() - t0)
            if multi:
                state.dispatch[p.name] = last_dispatch_stats()
            state.tally.check(p, result, f"call at {threads} thread(s)")
    set_num_threads(1)


def _same_kernel(state: State, p: P.Program, kernel, what: str) -> None:
    state.tally.record(
        kernel.source == state.kernels[p.name].source,
        f"{what}: {p.name} is not the kernel the cold compile produced",
    )


def diskwarm_step(state: State, repeats: int = 2) -> None:
    """The first compile of a restarted process: empty memory tiers
    over the disk tier the last cold round populated."""
    for p in state.programs:
        with state.tally.guard(f"disk-warm compile of {p.name}"):
            for _ in range(repeats):
                set_default_cache(KernelCache(disk_dir=state.cache.disk_dir))
                set_default_memo(
                    CertificateMemo(disk_dir=state.memo.disk_dir))
                t0 = now()
                kernel = p.compile(p.options)
                state.sample("compile_diskwarm", p.name, now() - t0)
            _same_kernel(state, p, kernel, "disk-warm compile")
    use_caches(state)


def warm_step(state: State) -> None:
    """Repeat compiles. Plain options: 25 in-memory kernel-cache hits
    per program. Verified options: one certified recompile — the
    kernel cache is emptied, the certificate memo kept, so the
    pipeline runs without its gates."""
    for p in state.programs:
        with state.tally.guard(f"warm compile of {p.name}"):
            for _ in range(1 if state.spec.verify else 25):
                if state.spec.verify:
                    set_default_cache(KernelCache())
                t0 = now()
                kernel = p.compile(p.options)
                state.sample("compile_warm", p.name, now() - t0)
            _same_kernel(state, p, kernel, "warm compile")
    use_caches(state)


def _request_stream(state: State) -> Iterator[Request]:
    """The seeded request stream, stratified so that every run sends
    the same mix and only the order is drawn. Warm: the hot set, one
    seeded permutation after another. Mixed: blocks of 20 requests,
    each holding 13 hot compiles, 3 never-seen fingerprints, 2 executes
    and 2 never-seen fingerprints issued twice at once (single-flight),
    in seeded order."""
    rng = np.random.default_rng([state.seed, 1])
    novel = iter(state.novel)
    made = len(state.novel)

    def cycle(requests: List[Request]) -> Iterator[Request]:
        while True:
            for i in rng.permutation(len(requests)):
                yield requests[i]

    hot = cycle(state.hot)
    if not state.spec.mixed:
        yield from hot
    executes = cycle(state.executes)
    block = ["hot"] * 13 + ["novel"] * 3 + ["execute"] * 2 + ["dup"] * 2
    while True:
        for kind in rng.permutation(block):
            if kind == "hot":
                yield next(hot)
            elif kind == "execute":
                yield next(executes)
            else:
                request = next(novel, None)
                if request is None:  # the service outran the pool
                    novel = iter(_novel_requests(rng, made, 64))
                    made += 64
                    request = next(novel)
                yield dataclasses.replace(request, kind=str(kind))


def _reply_ok(request: Request, reply: Dict[str, Any]) -> bool:
    if reply.get("status") != "ok":
        return False
    if reply.get("fingerprint") != request.fingerprint:
        return False
    if request.kind == "execute":
        values = [np.asarray(v) for v in reply.get("values") or ()]
        return bool(values) and request.program.check(values)[0]
    return True


def service_slice(
    state: State, seconds: float, probes: Optional[Dict[str, Any]] = None
) -> None:
    """Closed loop: ``CLIENTS`` coroutines each send the next request
    of the stream when their previous reply arrives, against a fresh
    in-process service over the kernel cache the last cold round
    filled. The first eighth of ``seconds`` is warm-up."""
    if state.stream is None:
        state.stream = _request_stream(state)
    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(_serve(state, seconds, probes))
    finally:
        loop.close()


async def _serve(
    state: State, seconds: float, probes: Optional[Dict[str, Any]]
) -> None:
    service = CompileService(
        ServiceConfig(workers=WORKERS), cache=state.cache
    )
    opened = now() + seconds / 8.0
    end = now() + seconds
    replies: List[Tuple[float, bool, str]] = []

    async def send(request: Request) -> None:
        t0 = now()
        reply = await handle_request(service, request.payload)
        t1 = now()
        if t0 < opened:
            return
        ok = _reply_ok(request, reply)
        state.tally.record(
            ok, f"{request.kind} request: {reply.get('status')} "
                f"{reply.get('error', '')}"
        )
        replies.append((t1 - t0, ok and t1 <= end, request.kind))

    async def client() -> None:
        while now() < end:
            request = next(state.stream)
            if request.kind == "dup":
                await asyncio.gather(send(request), send(request))
            else:
                await send(request)
            # A cache hit never suspends; yield so clients alternate.
            await asyncio.sleep(0)

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    state.slices.append((end - opened, replies))
    if probes is not None:
        probes["snapshot"] = service.snapshot()
        await _frontdoor_probe(state, service, probes)
    await service.drain()


def lap(state: State, smoke: bool = False) -> None:
    spec = state.spec
    for _ in range(1 if smoke else spec.cold_rounds):
        cold_round(state)
    diskwarm_step(state)
    warm_step(state)
    for _ in range(2 if smoke else spec.exec_rounds):
        exec_round(state)
    service_slice(state, 0.3 if smoke else spec.service_s)


# ---------------------------------------------------------------------------
# End-to-end metrics.
# ---------------------------------------------------------------------------


def latencies(state: State, *kinds: str) -> List[float]:
    """Latencies of all replies, or of the given request kinds."""
    return [
        latency for _, replies in state.slices
        for latency, _, kind in replies if not kinds or kind in kinds
    ]


def service_metrics(state: State) -> Dict[str, Any]:
    """Throughput and hot-path latency over the laps' service slices:
    each is its best slice (see ``harness.summarize`` for why the best
    and not the middle); ``median`` is over all slices pooled.

    The latency is that of hot-set compile requests. Over *all*
    requests of the mixed stream the median falls where the hot
    distribution ends and the cold one begins, and moves by 30 % with
    nothing changed; the cold path shows in the per-layer p95/p99."""
    seconds = sum(length for length, _ in state.slices)
    done = sum(ok for _, replies in state.slices for _, ok, _ in replies)
    hot = latencies(state, "hot")
    return {
        "req_per_s": {
            "value": max(
                sum(ok for _, ok, _ in replies) / length
                for length, replies in state.slices
            ),
            "median": done / seconds,
            "n": len(latencies(state)),
        },
        "latency_p50_ms": {
            "value": min(
                median([l for l, _, kind in replies if kind == "hot"])
                for _, replies in state.slices
            ) * 1e3,
            "median": median(hot) * 1e3,
            "n": len(hot),
        },
    }


def end_to_end_metrics(
    state: State, setup_s: float, setups: int
) -> Dict[str, Any]:
    s = state.samples
    return {
        "setup_s": {"value": setup_s, "n": setups},
        "time_to_solution_cold_s": summarize(s["time_to_solution_cold"]),
        "compile_cold_ms": summarize(s["compile_cold"], 1e3),
        "compile_warm_ms": summarize(s["compile_warm"], 1e3),
        "compile_diskwarm_ms": summarize(s["compile_diskwarm"], 1e3),
        "run_ms": summarize(s["run"], 1e3),
        "run_mt_ms": summarize(s["run_mt"], 1e3),
        **service_metrics(state),
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "n": 1,
        },
    }


def run_untraced(spec: Spec, seed: int, seconds: float, tmp: Path,
                 import_s: float, smoke: bool = False) -> Dict[str, Any]:
    """``import_s`` is the fastest import of this module seen by the
    caller. After the first lap the run knows how long a lap takes and
    makes as many as fit ``seconds`` to the nearest lap, at least two;
    ``smoke`` makes one, shortened."""
    setups = []
    for i in range(1 if smoke else SETUP_REPEATS):
        t0 = now()
        state = set_up(spec, seed, tmp)
        setups.append(now() - t0)
    setup_s = import_s + min(setups)

    begin = now()
    lap(state, smoke)
    laps = 1 if smoke else max(2, round(seconds / (now() - begin)))
    for _ in range(laps - 1):
        lap(state)
    shutdown_pools()
    return {
        "metrics": end_to_end_metrics(state, setup_s, len(setups)),
        "tally": state.tally,
        "measured_s": now() - begin,
        "laps": laps,
    }


# ---------------------------------------------------------------------------
# The traced run: per-layer metrics.
# ---------------------------------------------------------------------------

#: Span names whose self time becomes a ``<name>_ms`` per-layer metric.
LAYERS = (
    "frontend.analyze", "frontend.build", "frontend.crosscheck",
    "ir.verify", "core.tile", "core.fuse", "core.vectorize",
    "core.optimize", "analysis.gate", "analysis.tv",
    "codegen.fingerprint", "codegen.emit", "codegen.pyexec",
)


def _timeit(fn: Callable[[], Any], repeats: int) -> float:
    return time_callable(fn, repeats=repeats, warmup=0)


def traced_cold_phase(
    state: State, tracer: Tracer, budget: float, min_rounds: int
) -> Dict[str, Any]:
    """Per program, alternately: one untraced cold compile (the real
    ``compile`` call) and one staged, traced cold compile, each into
    its own empty tiers. A layer's time is the per-program median of
    its spans' self time, averaged over the programs (a program
    without the stage counts 0), so the layers add up to the staged
    compile."""
    set_num_threads(1)
    untraced: Dict[str, List[float]] = {}
    traced: Dict[str, List[float]] = {}
    layers: Dict[str, Dict[str, List[float]]] = {}
    counts: Dict[str, Dict[str, int]] = {}
    end = now() + budget
    rounds, round_s = 0, 0.0
    while rounds < min_rounds or now() + round_s < end:
        start = now()
        tiers = {}
        for which in ("plain", "staged"):
            fresh_caches(state, state.tmp / f"{which}-{rounds}")
            tiers[which] = (state.cache, state.memo)
        # Alternate which of the two goes first, so neither always
        # compiles into the other's warmed allocator and code caches.
        order = ("plain", "staged") if rounds % 2 else ("staged", "plain")
        for p in state.programs:
            for which in order:
                state.cache, state.memo = tiers[which]
                use_caches(state)
                with state.tally.guard(f"{which} compile of {p.name}"):
                    if which == "plain":
                        t0 = now()
                        p.compile(p.options)
                        untraced.setdefault(p.name, []).append(now() - t0)
                        continue
                    root = len(tracer.spans)
                    out = staged_compile(p, p.options, tracer)
                    span = tracer.spans[root]
                    traced.setdefault(p.name, []).append(
                        span["t1"] - span["t0"])
                    for name, own in tracer.self_times(root).items():
                        layers.setdefault(name, {}).setdefault(
                            p.name, []).append(own)
                    state.tally.record(
                        counts.setdefault(p.name, out["counts"])
                        == out["counts"],
                        f"op counts of {p.name} changed between compiles",
                    )
                    state.kernels[p.name] = out["kernel"]
        state.cache, state.memo = tiers["staged"]
        use_caches(state)
        rounds += 1
        round_s = now() - start

    n = len(state.programs)

    def mean_ms(per_program: Dict[str, List[float]]) -> float:
        return sum(median(v) for v in per_program.values()) / n * 1e3

    staged_ms = sum(
        mean_ms(v) for name, v in layers.items() if name != "harness.count"
    )
    untraced_ms, traced_ms = mean_ms(untraced), mean_ms(traced)
    analysis_ms = sum(
        mean_ms(layers.get(name, {}))
        for name in ("analysis.gate", "analysis.tv", "analysis.race_check")
    )
    out = {f"{name}_ms": mean_ms(layers.get(name, {})) for name in LAYERS}
    out.update({
        "analysis.verify_frac": analysis_ms / staged_ms,
        "trace.untraced_compile_ms": untraced_ms,
        "trace.traced_compile_ms": traced_ms,
        "trace.coverage_frac": staged_ms / untraced_ms,
        "trace.overhead_frac": traced_ms / untraced_ms - 1.0,
    })
    for key in next(iter(counts.values())):
        out[key] = sum(c[key] for c in counts.values())
    out["_per_program"] = {
        "untraced_compile_ms": {k: median(v) * 1e3
                                for k, v in untraced.items()},
        "counts": counts,
    }
    return out


def probe_stand_in(state: State, tracer: Tracer,
                   probe: P.Program) -> Dict[str, float]:
    """Layer times of one verified staged compile of the 34-squared
    probe: the stand-in for a layer none of the workload's programs
    pass through (the gates under plain options; the ``@stencil``
    analyzer when every program is built by ``cfdlib``)."""
    with scratch_caches(state):
        root = len(tracer.spans)
        with tracer.span("probe.stand_in"):
            staged_compile(probe, P.verified(probe.options), tracer)
    own = tracer.self_times(root)
    return {f"{name}_ms": own[name] * 1e3 for name in LAYERS}


def _symbolic_frac() -> float:
    symbolic = enumerated = 0
    for gate in ENGINE_STATS.snapshot().values():
        symbolic += gate["counts"].get("symbolic", 0)
        enumerated += gate["counts"].get("enumerated", 0)
    return symbolic / max(1, symbolic + enumerated)


def ir_and_tier_probes(state: State) -> Dict[str, float]:
    """Parse/print, kernel-cache and certificate-memo unit costs on the
    workload's own programs (mean over programs of medians)."""
    acc: Dict[str, List[float]] = {}

    def add(name: str, scale: float, fn: Callable[[], Any], repeats: int):
        acc.setdefault(name, []).append(_timeit(fn, repeats) * scale)

    disk = state.tmp / "tier-probe"
    for p, request in zip(state.programs, state.hot):
        module = p.build()
        text, fp = request.payload["ir"], request.fingerprint
        kernel = state.kernels[p.name]
        add("ir.print_ms", 1e3, lambda: print_module(module), 5)
        add("ir.parse_ms", 1e3, lambda: parse_module(text), 5)
        cache, memo = KernelCache(), CertificateMemo()
        cache.put(fp, kernel)
        memo.record(fp, parallel_clean=True)
        add("codegen.cache_get_us", 1e6, lambda: cache.get(fp), 200)
        add("codegen.cert_get_us", 1e6, lambda: memo.get(fp), 200)
        store = KernelCache(disk_dir=disk / "kernels")
        add("codegen.cache_disk_store_ms", 1e3,
            lambda: store.put(fp, kernel), 3)
        add("codegen.cache_disk_load_ms", 1e3,
            lambda: KernelCache(disk_dir=disk / "kernels").get(fp), 3)
        CertificateMemo(disk_dir=disk / "certs").record(
            fp, parallel_clean=True)
        add("codegen.cert_disk_load_ms", 1e3,
            lambda: CertificateMemo(disk_dir=disk / "certs").get(fp), 3)
    return {k: sum(v) / len(v) for k, v in acc.items()}


def kernel_probes(state: State) -> Dict[str, Any]:
    """Generated-code and runtime numbers: run time per program at one
    and ``MT`` threads, the O0 and scalar builds, the naive baseline,
    the static prover's prediction, and computed flops and bytes."""
    for _ in range(4):  # one thread, MT, one thread, MT
        exec_round(state)
    run = {k: median(v) for k, v in state.samples["run"].items()}
    run_mt = {k: median(v) for k, v in state.samples["run_mt"].items()}
    dispatched = [d for d in state.dispatch.values() if d is not None]
    events = drain_events()

    def one_call(p: P.Program, what: str, **changes) -> float:
        seconds = 0.0
        with state.tally.guard(f"{what} build of {p.name}"):
            kernel = p.compile(dataclasses.replace(
                p.options, use_cache=False, **changes))
            t0 = now()
            result = kernel(*p.make_args())
            seconds = now() - t0
            state.tally.check(p, result, f"{what} call")
        return seconds

    o0, predicted, predict_s = {}, {}, []
    for p in state.programs:
        o0[p.name] = one_call(p, "O0", opt_level=0)
        t0 = now()
        report = predict(
            p.pattern, p.space_shape, p.options.tile_sizes,
            nb_var=p.nb_var, vf=p.options.vectorize,
        )
        predict_s.append(now() - t0)
        predicted[p.name] = report.predicted_seconds * p.sweeps

    # The scalar build of one program, by name so that the seed's order
    # does not pick it: the first 3-D one (heat-3D in the Fig. 11 set).
    # Element loops where the vector strips were.
    scalar_p = min(
        [p for p in state.programs if len(p.space_shape) == 3]
        or state.programs, key=lambda p: p.name)
    scalar_s = one_call(scalar_p, "scalar", vectorize=0)

    flops = sum(p.flops for p in state.programs)
    nbytes = sum(p.computed_bytes for p in state.programs)
    by_name = {p.name: p for p in state.programs}
    return {
        "codegen.run_ms": geomean(list(run.values())) * 1e3,
        "codegen.ns_per_cell": geomean([
            run[n] / (p.cells * p.sweeps) for n, p in by_name.items()
        ]) * 1e9,
        "codegen.o0_run_ms": geomean(list(o0.values())) * 1e3,
        "codegen.scalar_run_ms": scalar_s * 1e3,
        "codegen.vs_naive_x": geomean([
            p.naive_seconds / run[n] for n, p in by_name.items()
        ]),
        "codegen.flops": flops,
        "codegen.computed_bytes": nbytes,
        "codegen.ops_per_byte": flops / nbytes,
        "analysis.perf_predict_ms": median(predict_s) * 1e3,
        "analysis.predicted_run_ms":
            geomean(list(predicted.values())) * 1e3,
        "analysis.prediction_ratio": geomean([
            predicted[n] / run[n] for n in run
        ]),
        "runtime.parallel.groups": sum(d.groups for d in dispatched),
        "runtime.parallel.blocks": sum(d.blocks for d in dispatched),
        "runtime.parallel.mt_speedup": geomean([
            run[n] / run_mt[n] for n in run
        ]),
        "runtime.parallel.sequential_fallbacks": len(events),
        "_per_program": {
            "run_ms": {k: v * 1e3 for k, v in run.items()},
            "run_mt_ms": {k: v * 1e3 for k, v in run_mt.items()},
            "o0_run_ms": {k: v * 1e3 for k, v in o0.items()},
            "predicted_run_ms": {k: v * 1e3 for k, v in predicted.items()},
            "scalar_program": scalar_p.name,
        },
    }


def probe_program_metrics(state: State, probe: P.Program) -> Dict[str, float]:
    """Unit costs on the fixed 34-squared program: the interpreter
    floor, the resilient driver against the plain compiler on the same
    IR (interleaved), checkpoint save/load, and a cold service sweep of
    8 fingerprints at 1 and at 2 workers."""
    out: Dict[str, float] = {}
    t0 = now()
    result = run_function(probe.build(), probe.entry, *probe.make_args())
    out["codegen.interpreter_ms"] = (now() - t0) * 1e3
    state.tally.check(probe, result, "interpreter")

    text = print_module(probe.build())
    options = dataclasses.replace(probe.options, use_cache=False)
    plain, resilient, retries, degradations = [], [], 0, 0
    with scratch_caches(state):
        for i in range(12):
            t0 = now()
            if i % 2:
                StencilCompiler(options).compile(parse_module(text))
                plain.append(now() - t0)
            else:
                _, report = ResilientCompiler(options).compile(
                    parse_module(text))
                resilient.append(now() - t0)
                retries += report.codes().count("RS001")
                degradations += len(report.degradations)
    out["runtime.resilience.driver_overhead_frac"] = (
        median(resilient) / median(plain) - 1.0)
    out["runtime.resilience.retries"] = retries
    out["runtime.resilience.degradations"] = degradations

    arrays = {"u": state.programs[0].make_args()[0]}
    directory = state.tmp / "checkpoints"
    out["runtime.resilience.checkpoint_save_ms"] = _timeit(
        lambda: CheckpointManager(directory=directory).save(1, arrays), 3
    ) * 1e3
    out["runtime.resilience.checkpoint_load_ms"] = _timeit(
        lambda: CheckpointManager(directory=directory).load_latest(), 3
    ) * 1e3

    sweep = _novel_requests(np.random.default_rng(state.seed), 0, 8)
    for workers in (1, 2):
        out[f"service.cold_req_per_s_w{workers}"] = _cold_sweep(
            state, sweep, workers)
    return out


def _cold_sweep(state: State, requests: List[Request], workers: int) -> float:
    async def sweep() -> float:
        service = CompileService(
            ServiceConfig(workers=workers), cache=KernelCache())
        t0 = now()
        replies = await asyncio.gather(
            *(handle_request(service, r.payload) for r in requests))
        elapsed = now() - t0
        for request, reply in zip(requests, replies):
            state.tally.record(
                _reply_ok(request, reply),
                f"cold sweep at {workers} worker(s): {reply.get('status')}",
            )
        await service.drain()
        return len(requests) / elapsed

    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(sweep())
    finally:
        loop.close()


async def _frontdoor_probe(
    state: State, service: CompileService, probes: Dict[str, Any]
) -> None:
    """``handle_request`` against a direct ``service.compile`` of the
    same hot fingerprints: the difference is the front door (IR parse,
    options decode, reply encode)."""
    via_door, direct = [], []
    modules = [r.program.build() for r in state.hot]
    for _ in range(8):
        for request, module in zip(state.hot, modules):
            t0 = now()
            await handle_request(service, request.payload)
            via_door.append(now() - t0)
            t0 = now()
            response = await service.compile(
                module, entry=request.program.entry,
                options=request.program.options,
            )
            direct.append(now() - t0)
            state.tally.record(
                response.ok and response.fingerprint == request.fingerprint,
                "direct service.compile of a hot fingerprint",
            )
    probes["handle_request_us"] = median(via_door) * 1e6
    probes["compile_call_us"] = median(direct) * 1e6


def run_traced(spec: Spec, seed: int, seconds: float, tmp: Path) -> Dict[str, Any]:
    state = set_up(spec, seed, tmp)
    probe = P.probe_program(np.random.default_rng([seed, 2]))
    tracer = Tracer(spec.name)
    ENGINE_STATS.reset()

    begin = now()
    metrics = traced_cold_phase(
        state, tracer, 0.4 * seconds, min_rounds=1 if spec.verify else 2)
    detail = {"compile": metrics.pop("_per_program")}
    for name, value in probe_stand_in(state, tracer, probe).items():
        if metrics[name] == 0.0:
            metrics[name] = value
    metrics["analysis.symbolic_frac"] = _symbolic_frac()
    metrics.update(ir_and_tier_probes(state))

    # From here to the end of the service phase the kernel cache is
    # warm: every lookup that misses is a compile somebody waits for.
    before = dataclasses.replace(state.cache.stats)
    warm_step(state)
    kernels = kernel_probes(state)
    detail["kernels"] = kernels.pop("_per_program")
    metrics.update(kernels)

    probes: Dict[str, Any] = {}
    service_slice(state, max(1.0, spec.service_s), probes)
    hits = state.cache.stats.hits - before.hits
    misses = state.cache.stats.misses - before.misses
    metrics["codegen.cache_hit_frac"] = hits / max(1, hits + misses)
    snap = probes["snapshot"]
    latency = latencies(state)
    metrics.update({
        "service.handle_request_us": probes["handle_request_us"],
        "service.compile_call_us": probes["compile_call_us"],
        "service.frontdoor_overhead_us":
            probes["handle_request_us"] - probes["compile_call_us"],
        "service.latency_p95_ms": percentile(latency, 95) * 1e3,
        "service.latency_p99_ms": percentile(latency, 99) * 1e3,
        "service.cache_hit_frac":
            snap["cache_hits"] / max(1, snap["accepted"]),
        "service.single_flight_hit_frac": snap["single_flight_hit_rate"],
        "service.shed": sum(snap["shed"].values()),
        "service.rejected":
            snap["rejected_backpressure"] + snap["rejected_draining"],
        "service.deadline": snap["deadlines_expired"],
    })
    metrics.update(probe_program_metrics(state, probe))
    shutdown_pools()
    return {
        "metrics": {k: {"value": v} for k, v in metrics.items()},
        "detail": detail,
        "tally": state.tally,
        "measured_s": now() - begin,
        "tracer": tracer,
    }
