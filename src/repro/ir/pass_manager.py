"""Compiler passes and the pass manager.

A :class:`Pass` transforms a module in place; the :class:`PassManager`
runs a pipeline of them, optionally verifying the IR between passes and
recording wall-clock timings (useful for the compile-time numbers in
EXPERIMENTS.md).
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Sequence

from repro.ir.operation import Operation
from repro.ir.verifier import verify
from repro.runtime.resilience.faults import maybe_inject


class Pass:
    """Base class: subclasses set ``name`` and implement :meth:`run`."""

    name: str = "<unnamed>"

    def run(self, module: Operation) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"Pass({self.name})"


class PassManager:
    """Runs a pipeline of passes over a module.

    With ``verify_each=True`` (the default) the structural verifier runs
    after every pass, so a pass that corrupts use-def chains fails fast
    with the pass name attached.

    An optional *gate* — any ``callable(module, after_pass=...)``, in
    practice an :class:`~repro.analysis.analyzer.AnalysisGate` — runs the
    semantic checks on top of the structural verifier: once after the
    whole pipeline by default, or after every pass with
    ``gate_each=True``. Gate time is recorded in :attr:`timings` under
    ``"analysis-gate"``.

    An optional *validator* — in practice a
    :class:`~repro.analysis.tv.TranslationValidator` — is called as
    ``validator.begin(module)`` before the first pass (capturing the
    reference schedule) and ``validator.after_pass(module, name)`` after
    every pass, with its time recorded under ``"translation-validate"``.

    Both hooks can fire many times per :meth:`run`; :attr:`timings`
    *aggregates* wall-clock across invocations (it never overwrites an
    earlier measurement) and :attr:`invocations` counts them, so
    :meth:`timing_report` shows, e.g., ``analysis-gate ... x7``.
    """

    #: The :attr:`timings` key accumulating gate wall-clock time.
    GATE_TIMING_KEY = "analysis-gate"
    #: The :attr:`timings` key accumulating translation-validator time.
    VALIDATE_TIMING_KEY = "translation-validate"

    def __init__(
        self,
        passes: Sequence[Pass] = (),
        verify_each: bool = True,
        gate=None,
        gate_each: bool = False,
        validator=None,
    ) -> None:
        self.passes: List[Pass] = list(passes)
        self.verify_each = verify_each
        self.gate = gate
        self.gate_each = gate_each
        self.validator = validator
        #: Wall-clock seconds per pass/hook, aggregated by :meth:`run`.
        self.timings: Dict[str, float] = {}
        #: Number of times each :attr:`timings` key was measured.
        self.invocations: Dict[str, int] = {}

    def add(self, pass_: Pass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def _record(self, key: str, seconds: float) -> None:
        self.timings[key] = self.timings.get(key, 0.0) + seconds
        self.invocations[key] = self.invocations.get(key, 0) + 1

    def _run_gate(self, module: Operation, after_pass) -> None:
        start = time.perf_counter()
        try:
            self.gate(module, after_pass=after_pass)
        finally:
            self._record(self.GATE_TIMING_KEY, time.perf_counter() - start)

    def _run_validator(self, module: Operation, after_pass) -> None:
        start = time.perf_counter()
        try:
            if after_pass is None:
                self.validator.begin(module)
            else:
                self.validator.after_pass(module, after_pass)
        finally:
            self._record(
                self.VALIDATE_TIMING_KEY, time.perf_counter() - start
            )

    def _run_single(self, pass_: Pass, module: Operation) -> None:
        """One pass plus its verify/validate/gate hooks (the unit
        :meth:`_step` runs and the resilient subclass retries). The
        ``pipeline.pass-run`` / ``pipeline.verify`` fault sites live
        here so chaos tests exercise every pipeline, resilient or not.
        """
        maybe_inject("pipeline.pass-run", pass_name=pass_.name)
        start = time.perf_counter()
        pass_.run(module)
        self._record(pass_.name, time.perf_counter() - start)
        if self.verify_each:
            try:
                maybe_inject("pipeline.verify", pass_name=pass_.name)
                verify(module)
            except Exception as exc:
                raise RuntimeError(
                    f"IR verification failed after pass {pass_.name!r}: {exc}"
                ) from exc
        if self.validator is not None:
            self._run_validator(module, pass_.name)
        if self.gate is not None and self.gate_each:
            self._run_gate(module, after_pass=pass_.name)

    def _step(self, pass_: Pass, module: Operation) -> Operation:
        """One pass; returns the module to carry on with (the resilient
        subclass retries from an IR snapshot, swapping the object)."""
        self._run_single(pass_, module)
        return module

    def run(self, module: Operation) -> Operation:
        # Passes and hooks churn through large volumes of acyclic IR
        # nodes and analysis tuples that reference counting reclaims by
        # itself; the cyclic collector firing mid-pipeline walks the
        # whole IR graph repeatedly and costs more wall clock than it
        # recovers. Suspend it for the pipeline, restore on exit.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if self.validator is not None:
                self._run_validator(module, None)
            for pass_ in self.passes:
                module = self._step(pass_, module)
            if self.gate is not None and not self.gate_each:
                self._run_gate(module, after_pass=None)
        finally:
            if gc_was_enabled:
                gc.enable()
        return module

    def pipeline_description(self) -> str:
        return " -> ".join(p.name for p in self.passes)

    def timing_report(self, title: str = "pass timings") -> str:
        """Per-pass wall-clock breakdown, slowest first.

        The observability hook used by ``examples/inspect_pipeline.py``,
        the autotuner and the compile-time benchmarks. Repeated
        invocations of a key (the analysis gate in ``gate_each`` mode,
        the translation validator, re-run passes) aggregate into one row
        with an ``xN`` invocation count.
        """
        total = sum(self.timings.values())
        lines = [f"{title} (total {total * 1e3:.2f} ms)"]
        width = max((len(n) for n in self.timings), default=0)
        for name, seconds in sorted(
            self.timings.items(), key=lambda kv: kv[1], reverse=True
        ):
            share = 100.0 * seconds / total if total else 0.0
            count = self.invocations.get(name, 1)
            suffix = f"  x{count}" if count > 1 else ""
            lines.append(
                f"  {name.ljust(width)}  {seconds * 1e3:8.3f} ms  "
                f"{share:5.1f}%{suffix}"
            )
        return "\n".join(lines)
