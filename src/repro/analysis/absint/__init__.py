"""Abstract interpretation for memory safety (IP011–IP015).

A forward dataflow engine over an interval domain for index arithmetic
(:mod:`~repro.analysis.absint.engine`,
:mod:`~repro.analysis.absint.interval`) with three client analyses:

* in-bounds proofs for every load/store/slice/vector transfer
  (:mod:`~repro.analysis.absint.bounds`, IP011/IP012);
* uninitialized-read detection over bufferized IR
  (:mod:`~repro.analysis.absint.memory`, IP013);
* replay of bufferization's in-place reuse decisions against interval
  footprints (IP014/IP015).

Since PR 7 the first-choice decision procedure is the symbolic affine
prover (:mod:`repro.analysis.affine.prover`), which walks each function
once and decides affine accesses at a cost independent of the mesh. The
enumerating interval engine remains the fallback for non-affine
accesses and the only engine for the memref-level clients (IP013–IP015
need bufferized footprints). :data:`~repro.analysis.affine.VERIFY_ENGINE_ENV`
or the ``engine`` argument selects the mode; an explicit
``enumeration_limit`` forces the legacy enumerated path (callers that
cap enumeration are asking for exactly its degradation behavior).

:func:`run_memory_safety` is the entry point :func:`analyze_module`
wires into the :class:`~repro.analysis.analyzer.AnalysisGate`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.absint.bounds import InBoundsChecker
from repro.analysis.absint.engine import (
    ENUMERATION_LIMIT,
    AbsintClient,
    AbstractEvaluator,
    run_clients,
)
from repro.analysis.absint.interval import (
    Box,
    Interval,
    box_contains,
    box_join,
    box_str,
)
from repro.analysis.absint.memory import ClobberChecker, UninitReadChecker
from repro.analysis.affine import resolve_verify_engine
from repro.analysis.diagnostics import Diagnostic
from repro.ir.indexing import IntEval
from repro.ir.location import op_excerpt, op_path
from repro.ir.operation import Operation


@dataclass
class MemorySafetyReport:
    """The result of one :func:`run_memory_safety` sweep."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: id(op) -> statically proven access hull (see ``InBoundsChecker``).
    proven: Dict[int, Box] = field(default_factory=dict)
    #: How many access ops each decision path settled: ``symbolic`` (the
    #: affine prover), ``enumerated`` (the interval walk), ``hull``
    #: (undecided by both — the IP010 notes).
    engine_stats: Dict[str, int] = field(default_factory=dict)
    #: The engine mode this sweep ran under.
    engine_mode: str = "auto"


def _oversized_grids(module: Operation, limit: int) -> List[tuple]:
    """``(op, grid_points)`` for each tiled loop whose statically known
    grid exceeds ``limit`` — the loops the interval engine degrades to a
    single hull visit on. Bounds are evaluated, not read as literals, so
    an unfolded (``opt_level=0``) bound counts like a folded one."""
    ev = IntEval()
    out = []
    for op in module.walk():
        if op.name != "cfd.tiled_loop":
            continue
        dims = [tuple(map(ev, b)) for b in zip(op.lbs, op.ubs, op.steps)]
        if any(None in d or d[2] <= 0 for d in dims):
            continue
        total = math.prod(len(range(*d)) for d in dims)
        if total > limit:
            out.append((op, total))
    return out


def _has_memref_ops(module: Operation) -> bool:
    return any(op.name.startswith("memref.") for op in module.walk())


def run_memory_safety(
    module: Operation,
    enumeration_limit: Optional[int] = None,
    engine: Optional[str] = None,
) -> MemorySafetyReport:
    """Run the memory-safety gate over every function of ``module``.

    ``engine`` (or ``REPRO_VERIFY``) picks the decision procedure:
    ``auto`` runs the symbolic affine prover first and falls back to the
    enumerating interval engine only for what it could not decide;
    ``symbolic`` does the same but reports every fallback explicitly
    (IP017); ``enumerated`` is the legacy path. Passing an explicit
    ``enumeration_limit`` also forces the enumerated path.
    """
    t0 = time.perf_counter()
    forced_enumerated = enumeration_limit is not None
    limit = ENUMERATION_LIMIT if enumeration_limit is None else enumeration_limit
    mode = "enumerated" if forced_enumerated else resolve_verify_engine(engine)

    report = MemorySafetyReport()
    prover_report = None
    predecided: set = set()
    if mode != "enumerated":
        from repro.analysis.affine.prover import prove_module

        prover_report = prove_module(module)
        predecided = prover_report.decided_ids - set(prover_report.undecided)

    walk_needed = (
        mode == "enumerated"
        or (prover_report is not None and bool(prover_report.undecided))
        or _has_memref_ops(module)
    )

    checkers: List[InBoundsChecker] = []
    if walk_needed:
        clients = run_clients(
            module,
            lambda: [
                InBoundsChecker(predecided=predecided),
                UninitReadChecker(),
                ClobberChecker(),
            ],
            enumeration_limit=limit,
        )
        for client in clients:
            report.diagnostics.extend(client.diagnostics())
            if isinstance(client, InBoundsChecker):
                checkers.append(client)
                report.proven.update(client.proven)

    walk_decided = set(report.proven)
    walk_decided.update(
        id_for
        for checker in checkers
        for (id_for, code) in checker.emitted
        if code in ("IP011", "IP012")
    )

    if prover_report is not None:
        emitted = {(d.code, d.op_path) for d in report.diagnostics}
        for (op_id, code), diag in prover_report.violations.items():
            if (diag.code, diag.op_path) not in emitted:
                report.diagnostics.append(diag)
        for op_id, box in prover_report.proven.items():
            if op_id not in report.proven and (
                op_id not in prover_report.undecided
            ):
                report.proven[op_id] = box
        if mode == "symbolic":
            # Forced symbolic: every fallback site is reported, not
            # silently re-enumerated.
            for op_id, reason in prover_report.undecided.items():
                op = prover_report.undecided_ops[op_id]
                report.diagnostics.append(
                    Diagnostic(
                        code="IP017",
                        message=(
                            f"symbolic engine could not decide {op.name}: "
                            f"{reason}; fell back to enumeration"
                        ),
                        severity="note",
                        op_path=op_path(op),
                        excerpt=op_excerpt(op),
                    )
                )

    # ---- attribution -----------------------------------------------------
    symbolic_ids = predecided
    enumerated_ids = walk_decided - symbolic_ids
    hull_ids = {
        key
        for checker in checkers
        for (key, code) in checker.emitted
        if code == "IP010" and key not in symbolic_ids
    }
    report.engine_mode = mode
    report.engine_stats = {
        "symbolic": len(symbolic_ids),
        "enumerated": len(enumerated_ids),
        "hull": len(hull_ids),
    }
    from repro.analysis.affine import ENGINE_STATS

    for name, n in report.engine_stats.items():
        if n:
            ENGINE_STATS.record("absint", name, n)
    ENGINE_STATS.record_time("absint", time.perf_counter() - t0)

    # ---- the precision-cliff diagnostic (IP017) --------------------------
    for op, total in _oversized_grids(module, limit):
        detail = (
            f"{len(symbolic_ids)} access(es) decided symbolically, "
            f"{len(enumerated_ids)} by enumeration, "
            f"{len(hull_ids)} by hull bounds only"
        )
        report.diagnostics.append(
            Diagnostic(
                code="IP017",
                message=(
                    f"tile grid of {total} points exceeds the enumeration "
                    f"limit ({limit}): per-instance interval proofs are "
                    f"unavailable for {op.name}; {detail}"
                ),
                severity="note",
                op_path=op_path(op),
                excerpt=op_excerpt(op),
            )
        )
    return report


__all__ = [
    "AbsintClient",
    "AbstractEvaluator",
    "Box",
    "ClobberChecker",
    "ENUMERATION_LIMIT",
    "InBoundsChecker",
    "Interval",
    "MemorySafetyReport",
    "UninitReadChecker",
    "box_contains",
    "box_join",
    "box_str",
    "run_memory_safety",
]
