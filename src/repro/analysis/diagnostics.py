"""Structured diagnostics with stable ``IP0xx``/``TV0xx`` error codes.

Every finding of the static analyzer is a :class:`Diagnostic`: an error
code from :data:`REGISTRY`, a severity, a human-readable message, the
path of the offending operation inside the module and a short printed IR
excerpt. Codes are *stable* — tests, CI and downstream tooling match on
them — so new checks get new codes instead of repurposing old ones.

``IP0xx`` codes belong to the in-place legality / wavefront / memory
analyzers; ``TV0xx`` codes belong to the per-pass translation validator
(:mod:`repro.analysis.tv`); ``RS0xx`` codes belong to the resilience
layer (:mod:`repro.runtime.resilience`) — retries, degradations,
fallbacks, quarantines, checkpoints and watchdog timeouts; ``PF0xx``
codes belong to the static performance prover
(:mod:`repro.analysis.perf`) — cache-capacity, halo-traffic, vector
shape and wavefront-parallelism findings priced against a machine
model; ``FE0xx`` codes belong to the Python ``@stencil`` frontend
(:mod:`repro.frontend`) — kernel-semantics findings produced by the
static analysis pass that runs over the user's Python AST *before* any
IR is constructed. This module is the single source of truth for the code table:
the README diagnostics tables are generated from :data:`REGISTRY` and a
test asserts they match exactly (codes, canonical severities, one-line
descriptions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: severity levels, most severe first.
SEVERITIES = ("error", "warning", "note")


@dataclass(frozen=True)
class DiagnosticInfo:
    """One registry entry: the stable identity of a diagnostic code."""

    code: str
    title: str
    #: The severity this code is normally emitted at (README table column).
    severity: str
    #: One-line description (README table column).
    description: str


def _info(code: str, title: str, severity: str, description: str) -> DiagnosticInfo:
    assert severity in SEVERITIES
    return DiagnosticInfo(code, title, severity, description)


#: The stable code registry. Never renumber; new checks get new codes.
REGISTRY: Dict[str, DiagnosticInfo] = {
    info.code: info
    for info in (
        _info("IP001", "sweep-order violation", "error",
              "an L offset is on the wrong lexicographic side for the "
              "declared sweep direction (§2.1)"),
        _info("IP002", "illegal tile sizes across a backward dependence",
              "error",
              "the tiling maps an L dependence to a non-lexicographically-"
              "negative block offset (§2.1, Fig. 1)"),
        _info("IP003", "dependence cross-check mismatch", "error",
              "access offsets recovered from lowered loop index arithmetic "
              "disagree with the L/U pattern tags"),
        _info("IP004", "wavefront race inside a parallel group", "error",
              "two sub-domains in the same parallel group are connected by "
              "a block-level dependence (Eq. 3, §2.3)"),
        _info("IP005", "wavefront schedule misses a sub-domain", "error",
              "a sub-domain is missing from the CSR schedule"),
        _info("IP006", "wavefront schedule duplicates a sub-domain "
              "(write overlap)", "error",
              "a sub-domain appears twice, so two scheduled tiles have "
              "overlapping write regions"),
        _info("IP007", "wavefront dependence scheduled in a later group",
              "error",
              "a dependence points at a sub-domain scheduled in a later "
              "group (predecessor not strictly earlier)"),
        _info("IP008", "declared block stencil disagrees with derived "
              "offsets", "error",
              "the declared block stencil of cfd.get_parallel_blocks "
              "disagrees with the offsets derived from the L pattern and "
              "tile sizes"),
        _info("IP009", "malformed wavefront CSR payload", "error",
              "non-monotonic offsets, out-of-range or non-integral "
              "indices, or mixed-direction dependence offsets"),
        _info("IP010", "static information unavailable; check skipped",
              "note",
              "a check was skipped because static information (tile "
              "sizes, grid extents) could not be resolved"),
        _info("IP011", "out-of-bounds access (interval proof failed)",
              "error",
              "an element or vector access range proven by the interval "
              "engine escapes its allocation"),
        _info("IP012", "slice window exceeds its source buffer", "error",
              "an extract_slice/subview/insert_slice window exceeds its "
              "source buffer"),
        _info("IP013", "uninitialized read of a local buffer", "error",
              "a read of locally allocated cells that no producer or "
              "initializer has written"),
        _info("IP014", "bufferization reuse clobbers a live value", "error",
              "an in-place buffer reuse overwrote a value that a later "
              "access still reads"),
        _info("IP015", "unverifiable in-place buffer reuse", "warning",
              "a read overlaps a write of an unrelated value lineage on "
              "the same buffer"),
        _info("IP016", "fusion opportunity rejected", "note",
              "a producer could not be fused because its halo exceeds the "
              "stencil halo"),
        _info("IP017", "enumeration budget exceeded", "note",
              "a tile grid is larger than the enumeration limit; reports "
              "which engine (symbolic, enumerated, or hull-only) decided "
              "each access"),
        _info("TV001", "dependence scheduled out of order", "error",
              "a pass scheduled the source of a flow dependence after its "
              "target (witness: both instances and their timestamps)"),
        _info("TV002", "dependent instances scheduled concurrently", "error",
              "two instances connected by a dependence landed in the same "
              "parallel component (wavefront group or vector write)"),
        _info("TV003", "write coverage broken", "error",
              "a statement instance of the reference write box is missing, "
              "duplicated, or written outside the box after a pass"),
        _info("TV004", "fused producer no longer covers the consumed "
              "region", "error",
              "a fused producer's computed window does not contain the "
              "tile core the consumer stencil reads (dropped halo "
              "recomputation)"),
        _info("TV005", "stencil site lost or reordered", "error",
              "a stamped stencil site disappeared or changed relative "
              "program order during a pass"),
        _info("TV006", "translation validation skipped", "note",
              "a site could not be validated after a pass (unsupported "
              "form, unresolved bounds, or domain too large)"),
        _info("TV007", "anti-dependence scheduled out of order", "error",
              "a pass scheduled the write of an initially-read cell "
              "before (or concurrent with) its reader"),
        _info("RS001", "transient failure retried from snapshot", "warning",
              "a pass or compile attempt failed and was retried from the "
              "last-good IR snapshot with backoff"),
        _info("RS002", "configuration degraded", "warning",
              "retries were exhausted and the compile was reattempted at "
              "a weaker configuration on the policy chain"),
        _info("RS003", "interpreter fallback engaged", "warning",
              "every compiled configuration failed; the pristine module "
              "runs on the reference interpreter instead"),
        _info("RS004", "corrupted disk entry quarantined", "warning",
              "a truncated, corrupted or version-skewed disk entry of the "
              "kernel cache, the certificate memo or the solver "
              "checkpoints was quarantined and treated as a miss"),
        _info("RS005", "kernel execution failed", "error",
              "a compiled kernel's entry point was missing or raised "
              "mid-execution"),
        _info("RS006", "execution watchdog timeout", "error",
              "an execution exceeded its wall-clock budget and was "
              "cancelled by the watchdog"),
        _info("RS007", "solver checkpoint written", "note",
              "an iterative solve captured a periodic state checkpoint "
              "for crash recovery"),
        _info("RS008", "solver resumed from checkpoint", "warning",
              "a crashed solve resumed from its last checkpoint instead "
              "of restarting from step 0"),
        _info("RS009", "internal tool crash converted to a finding", "error",
              "an analyzer or driver crashed internally; the crash was "
              "converted to a structured finding instead of a traceback"),
        _info("RS010", "parallel worker degraded to sequential", "warning",
              "a wavefront worker thread failed mid-group; the remaining "
              "blocks of the dispatch re-ran sequentially"),
        _info("RS011", "parallel dispatch refused", "note",
              "a kernel without a clean parallel-safety certificate (or "
              "with a rebinding block body) executed its wavefront "
              "groups sequentially despite a multi-thread request"),
        _info("RS012", "request rejected by admission control", "warning",
              "the compile service's bounded queue was full (or the "
              "admission stage faulted); the request was rejected with "
              "a retry-after hint instead of queuing unboundedly"),
        _info("RS013", "request deadline exceeded", "warning",
              "a service request's deadline expired while queued or "
              "mid-compile; the request was cancelled with a structured "
              "response (a shared compilation continues for its other "
              "waiters)"),
        _info("RS014", "single-flight leader failed; waiter re-dispatched",
              "warning",
              "the leader compiling a fingerprint crashed or hung; one "
              "waiter was promoted to re-dispatch the compilation "
              "exactly once per round, so a crashed leader never "
              "strands its waiters"),
        _info("RS015", "compile request load-shed to a degraded "
              "configuration", "warning",
              "under queue pressure a new compile was admitted at a "
              "weaker configuration on the degradation chain "
              "(O2 -> O0 -> interpreter) instead of being rejected"),
        _info("RS016", "request rejected: service draining", "note",
              "a request arrived during graceful shutdown; it was "
              "rejected immediately while in-flight requests were "
              "allowed to finish"),
        _info("RS017", "native tier unavailable; kernel stays on NumPy",
              "note",
              "a kernel (or one call) was left on the NumPy tier; the "
              "reason is one of no-cc, unsupported-op:<name>, build-failed, "
              "build-timeout, corrupt-so, bad-args"),
        _info("PF001", "working set exceeds the private cache", "error",
              "a tile's halo-inclusive working set is larger than the "
              "machine model's private (L2) cache, so every sweep "
              "re-streams its windows"),
        _info("PF002", "un-tileable dimension pinned to 1", "note",
              "a dimension carrying a negative dependence distance is "
              "pinned to tile size 1 by §2.1 legality and cannot be "
              "widened"),
        _info("PF003", "wavefront width below thread count", "warning",
              "the widest wavefront group holds fewer tiles than the "
              "machine has cores; the Brent bound caps the parallel "
              "speedup below the core count"),
        _info("PF004", "halo-recompute ratio above threshold", "warning",
              "halo re-reads exceed the threshold multiple of the useful "
              "(core) traffic; the tiles are too thin for the stencil's "
              "halo"),
        _info("PF005", "non-unit-stride innermost access", "warning",
              "the innermost tile extent is 1, so no access is "
              "unit-stride and vectorization degrades to scalar"),
        _info("PF006", "memory-bound kernel with redundant traffic",
              "warning",
              "the DRAM roofline term dominates compute while a "
              "significant fraction of the traffic is redundant halo "
              "re-reads"),
        _info("PF007", "prediction-confidence note", "note",
              "the static prediction's headline numbers plus why its "
              "confidence is reduced (cache-resident working set or an "
              "unprofiled wavefront)"),
        _info("FE001", "unsupported kernel construct", "error",
              "a statement or expression in the kernel body is outside "
              "the supported @stencil subset"),
        _info("FE002", "malformed kernel signature", "error",
              "the kernel signature does not follow the "
              "(out[, in], rhs, *indices) parameter convention"),
        _info("FE003", "non-affine subscript", "error",
              "an array subscript does not resolve to index variables "
              "plus constant offsets (non-affine or data-dependent "
              "indexing)"),
        _info("FE004", "subscript rank mismatch", "error",
              "an array subscript has a different arity than the "
              "kernel's index variables"),
        _info("FE005", "impure reference", "error",
              "the kernel references an unknown name or closes over "
              "non-constant state"),
        _info("FE006", "update not in normal form", "error",
              "the update is not in the (B + sum of weighted reads) / d "
              "normal form of Eq. 2"),
        _info("FE007", "invalid in-place target", "error",
              "the kernel must contain exactly one plain assignment to "
              "the output field"),
        _info("FE008", "conflicting accesses", "error",
              "the same relative offset is read twice, or tagged both "
              "current- and previous-iteration"),
        _info("FE009", "self-read of the output center", "error",
              "the output field is read at the cell being written"),
        _info("FE010", "non-constant coefficient", "error",
              "a stencil coefficient or divisor does not fold to a "
              "nonzero compile-time number"),
        _info("FE011", "in-place schedule violation", "error",
              "an inferred current-iteration (L) read is on the wrong "
              "lexicographic side for the sweep (§2.1)"),
        _info("FE012", "pattern cross-check mismatch", "error",
              "the frontend's inferred L/U pattern disagrees with the "
              "dependence engine's re-derivation from the built IR"),
    )
}

#: Backwards-compatible ``code -> title`` view of :data:`REGISTRY`.
ERROR_CODES = {code: info.title for code, info in REGISTRY.items()}


def render_registry_table(prefix: str) -> List[str]:
    """The README markdown table rows for codes starting with ``prefix``
    (the test asserting README⟷registry parity renders through this)."""
    rows = ["| Code | Severity | Description |", "| --- | --- | --- |"]
    for code, info in REGISTRY.items():
        if code.startswith(prefix):
            rows.append(
                f"| `{code}` | {info.severity} | {info.description} |"
            )
    return rows


@dataclass
class Diagnostic:
    """One finding of the static analyzer."""

    code: str
    message: str
    severity: str = "error"
    op_path: str = ""
    excerpt: str = ""
    #: Name of the pipeline pass after which the finding was produced
    #: (filled in by the :class:`~repro.analysis.analyzer.AnalysisGate`).
    after_pass: Optional[str] = None

    def __post_init__(self) -> None:
        if self.code not in REGISTRY:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def title(self) -> str:
        return REGISTRY[self.code].title

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def render(self) -> str:
        """Multi-line human-readable form (the CLI output format)."""
        lines = [f"{self.severity}[{self.code}] {self.title}: {self.message}"]
        if self.op_path:
            lines.append(f"  at {self.op_path}")
        if self.after_pass:
            lines.append(f"  after pass {self.after_pass!r}")
        if self.excerpt:
            for row in self.excerpt.splitlines():
                lines.append(f"  | {row}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics with summary helpers."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def extend(self, diags: List[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def has_errors(self) -> bool:
        return any(d.is_error for d in self.diagnostics)

    def codes(self) -> List[str]:
        return [d.code for d in self.diagnostics]

    def summary(self) -> str:
        counts = {s: 0 for s in SEVERITIES}
        for d in self.diagnostics:
            counts[d.severity] += 1
        parts = [f"{n} {s}{'s' if n != 1 else ''}" for s, n in counts.items() if n]
        return ", ".join(parts) if parts else "no diagnostics"

    def render(self) -> str:
        if not self.diagnostics:
            return "no diagnostics"
        return "\n".join(d.render() for d in self.diagnostics)
