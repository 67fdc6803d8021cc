"""Timing statistics, the in-memory span tracer and the staged compile.

Everything here measures the system from outside: the staged compile
drives one cold compile stage by stage through the public calls
``StencilProgram.compile`` / ``StencilCompiler.compile`` make
themselves, with a span around each, so a layer's self time is its
spans' duration minus their children's. Spans inside ``src/`` are a
later issue.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from contextlib import contextmanager
from statistics import median
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.analyzer import analyze_module
from repro.codegen.cache import default_cache, module_fingerprint
from repro.codegen.certificates import default_memo
from repro.codegen.executor import CompiledKernel
from repro.codegen.python_backend import emit_module
from repro.core.pipeline import StencilCompiler
from repro.core.scheduling import extract_schedule_stamps
from repro.frontend import stencil_from_source
from repro.frontend.build import build_summary_module, cross_check_module
from repro.frontend.diagnostics import FrontendReporter
from repro.ir.verifier import verify
from repro.service import stats


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the service's own estimator)."""
    return stats.percentile(sorted(samples), q)


def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    if len(samples) < 2:
        return (samples[0],) * 3
    q = statistics.quantiles(samples, n=4)
    return q[0], q[1], q[2]


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(p, value)`` for the highest percentile that still has at
    least ten samples beyond it; ``None`` below 40 samples."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return p, percentile(samples, p)
    return None


def summarize(
    per_series: Dict[str, List[float]], scale: float = 1.0
) -> Dict[str, Any]:
    """One timing metric from one sample list per program.

    ``value`` is the geometric mean over programs of each program's
    *fastest* sample. On the shared hosts this runs on, interference
    only ever slows a sample down, and it comes in spells that last
    from milliseconds to minutes: measured in 5-second blocks, the
    median of a fixed interpreter-bound loop wandered by +-25 % while
    its minimum stayed within +-2 %. The fastest sample is the one
    estimate that two runs of the same commit agree on.

    The typical case is kept beside it: ``median`` (geometric mean of
    per-program medians), the sample count, and quartiles and the
    highest percentile with ten samples beyond it, taken over the
    pooled samples relative to their own program's median so that
    programs of different cost can pool."""
    medians = {k: median(v) for k, v in per_series.items()}
    center = geomean(list(medians.values()))
    pooled = [s / medians[k] for k, v in per_series.items() for s in v]
    q1, _, q3 = quartiles(pooled)
    out: Dict[str, Any] = {
        "value": geomean([min(v) for v in per_series.values()]) * scale,
        "median": center * scale,
        "n": len(pooled),
        "quartiles": [q1 * center * scale, q3 * center * scale],
    }
    t = tail(pooled)
    if t is not None:
        out["tail"] = {"p": t[0], "value": t[1] * center * scale}
    if len(medians) > 1:
        out["per_program"] = {
            k: min(v) * scale for k, v in per_series.items()
        }
    return out


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans: name, parent, start, end and free attributes.
    Flushed to a Chrome trace-event file when the run ends."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        index = len(self.spans)
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "t0": time.perf_counter(),
            "t1": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["t1"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, root: int) -> Dict[str, float]:
        """Self seconds per span name under span ``root`` (inclusive)."""
        children: Dict[int, List[int]] = {}
        for i in range(root + 1, len(self.spans)):  # descendants follow
            children.setdefault(self.spans[i]["parent"], []).append(i)
        out: Dict[str, float] = {}
        todo = [root]
        while todo:
            i = todo.pop()
            s = self.spans[i]
            kids = children.get(i, [])
            own = (s["t1"] - s["t0"]) - sum(
                self.spans[k]["t1"] - self.spans[k]["t0"] for k in kids
            )
            out[s["name"]] = out.get(s["name"], 0.0) + own
            todo.extend(kids)
        return out

    def chrome_trace(self) -> Dict[str, Any]:
        origin = self.spans[0]["t0"] if self.spans else 0.0
        events = [
            {
                "name": s["name"],
                "cat": s["name"].split(".")[0],
                "ph": "X",
                "ts": (s["t0"] - origin) * 1e6,
                "dur": (s["t1"] - s["t0"]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "workload": self.workload,
                    "span": i,
                    "parent": s["parent"],
                    **s["attrs"],
                },
            }
            for i, s in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# The staged cold compile.
# ---------------------------------------------------------------------------

#: Pass-name prefix -> the per-layer metric its self time is billed to.
_PASS_LAYERS = (
    ("tile-stencils", "core.tile"),
    ("fuse-structured-ops", "core.fuse"),
    ("vectorize-stencils", "core.vectorize"),
    ("lower-", "core.vectorize"),
)


def pass_layer(pass_name: str) -> str:
    for prefix, layer in _PASS_LAYERS:
        if pass_name.startswith(prefix):
            return layer
    return "core.optimize"


def count_ops(module) -> int:
    return sum(1 for _ in module.walk())


def staged_compile(program, options, tracer: Tracer) -> Dict[str, Any]:
    """One cold compile of ``program`` through the process-wide cache
    and certificate memo, stage by stage, every stage in a span.

    Mirrors ``StencilProgram.compile`` + ``StencilCompiler.compile``
    from public calls only; ``trace.coverage_frac`` is the check that
    the mirror has not drifted from the real thing. Returns the kernel
    and the exact counts taken between stages (outside any layer span).
    """
    counts: Dict[str, int] = {}
    entry = program.entry
    with tracer.span("compile", program=program.name):
        if program.source is not None:
            source, env = program.source
            with tracer.span("frontend.analyze"):
                analyzed = stencil_from_source(source, env)
            with tracer.span("frontend.build"):
                module, _ = build_summary_module(
                    analyzed.summary, program.space_shape,
                    iterations=program.sweeps, name=entry,
                )
                with tracer.span("frontend.crosscheck"):
                    reporter = FrontendReporter(analyzed.src, analyzed.name)
                    cross_check_module(module, analyzed.summary, reporter)
                    reporter.raise_if_errors()
        else:
            with tracer.span("frontend.build"):
                module = program.build()
        with tracer.span("harness.count"):
            counts["ir.ops_unlowered"] = count_ops(module)

        with tracer.span("codegen.fingerprint"):
            fingerprint = module_fingerprint(
                module, entry, options.cache_key()
            )
        memo, cache = default_memo(), default_cache()
        with tracer.span("codegen.cert_get"):
            cert = memo.get(fingerprint)
        with tracer.span("codegen.cache_get"):
            hit = cache.get(fingerprint)
        if hit is not None or cert is not None:
            raise RuntimeError(
                f"staged compile of {program.name} is not cold"
            )

        with tracer.span("core.build_pipeline"):
            pm = StencilCompiler(options).build_pipeline()
        # PassManager.run suspends the cyclic collector for the pipeline.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            if pm.validator is not None:
                with tracer.span("analysis.tv", after="begin"):
                    pm.validator.begin(module)
            for pass_ in pm.passes:
                with tracer.span(pass_layer(pass_.name), pass_name=pass_.name):
                    pass_.run(module)
                if pm.verify_each:
                    with tracer.span("ir.verify"):
                        verify(module)
                if pm.validator is not None:
                    with tracer.span("analysis.tv", after=pass_.name):
                        pm.validator.after_pass(module, pass_.name)
                with tracer.span("harness.count"):
                    key = pass_layer(pass_.name).replace(
                        "core.", "core.ops_after_"
                    )
                    counts[key] = count_ops(module)
            if pm.gate is not None:
                with tracer.span("analysis.gate"):
                    pm.gate(module, after_pass=None)
        finally:
            if gc_was_enabled:
                gc.enable()
        with tracer.span("harness.count"):
            counts["ir.ops_lowered"] = count_ops(module)
            counts["analysis.tv_invocations"] = (
                len(pm.passes) + 1 if pm.validator is not None else 0
            )

        with tracer.span("codegen.emit"):
            source_text = emit_module(module)
        with tracer.span("codegen.pyexec"):
            namespace: Dict[str, Any] = {}
            exec(compile(source_text, "<repro-generated>", "exec"), namespace)
            kernel = CompiledKernel(source_text, namespace, entry)
        parallel_clean = None
        if options.parallel:
            with tracer.span("core.schedule_stamps"):
                kernel.schedule = extract_schedule_stamps(module)
            if options.check_level != "off":
                parallel_clean = True  # the gate above cleared the module
            else:
                with tracer.span("analysis.race_check"):
                    report = analyze_module(
                        module, cross_check=False, memory=False
                    )
                parallel_clean = not report.has_errors
            if parallel_clean:
                kernel.certify_parallel()
        with tracer.span("codegen.cert_record"):
            memo.record(
                fingerprint,
                check_level=options.check_level,
                validated=options.validate_passes,
                parallel_clean=parallel_clean,
            )
        with tracer.span("codegen.cache_put"):
            cache.put(fingerprint, kernel)
    counts["codegen.generated_loc"] = source_text.count("\n")
    counts["codegen.generated_bytes"] = len(source_text.encode("utf-8"))
    return {"kernel": kernel, "counts": counts, "fingerprint": fingerprint}
