"""The resilient pipeline driver: snapshot-retry, degrade, never die.

:class:`ResilientCompiler` wraps the :class:`~repro.core.pipeline
.StencilCompiler` flow with three recovery layers:

1. **Snapshot retry** — :class:`ResilientPassManager` prints the IR after
   every successful pass; when a pass (or the verifier, the analysis
   gate, or the translation validator) raises, the last-good snapshot is
   re-parsed and the pass retried with exponential backoff (transient
   faults — the fault-injection framework's bread and butter — succeed
   on retry).
2. **Degradation chain** — when retries are exhausted the whole compile
   is reattempted at a weaker configuration: ``opt_level`` steps down to
   0, then vectorization is disabled, then fusion. Every step is
   recorded as an RS002 event.
3. **Interpreter fallback** — when no compiled configuration survives,
   the pristine (pre-pipeline) module runs on the reference interpreter
   (:class:`InterpreterKernel`), recorded as RS003. Slow, but
   numerically identical and unconditionally available.

Every decision lands in a :class:`~repro.runtime.resilience.report
.RecoveryReport`; no raw traceback escapes :meth:`ResilientCompiler
.compile` or :meth:`ResilientCompiler.compile_and_run` short of
:class:`ResilienceExhausted`, which carries the full report.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.ir.parser import parse_module
from repro.ir.pass_manager import Pass, PassManager
from repro.ir.printer import print_module
from repro.runtime.resilience.execution import ExecutionResult, execute_kernel
from repro.runtime.resilience.report import AttemptRecord, RecoveryReport


class ResilienceExhausted(RuntimeError):
    """Even the interpreter fallback failed; carries the full report."""

    def __init__(self, report: RecoveryReport, message: str) -> None:
        self.report = report
        super().__init__(f"{message}\n{report.render()}")


class InterpreterKernel:
    """A :class:`CompiledKernel`-compatible wrapper over the interpreter.

    Holds the pristine module as printed IR and re-parses per call (the
    interpreter consumes argument arrays; a fresh module per call keeps
    repeated invocations independent). ``.source`` is the IR text — there
    is no generated Python for the fallback path.
    """

    def __init__(self, ir_text: str, entry: str = "kernel") -> None:
        self.source = ir_text
        self.entry = entry

    def run(self, *args: Any) -> List[Any]:
        from repro.codegen.interpreter import Interpreter

        module = parse_module(self.source)
        return Interpreter(module).run(self.entry, *args)

    def __call__(self, *args: Any):
        return tuple(self.run(*args))

    def __repr__(self) -> str:
        return f"InterpreterKernel(entry={self.entry!r})"


class ResilientPassManager(PassManager):
    """A :class:`PassManager` that retries failed passes from IR snapshots.

    Before every pass the module is printed; a failing pass restores
    that last-good text (``parse_module``) and retries up to
    ``max_retries`` times with exponential backoff before re-raising.
    Only the per-pass :meth:`_step` is overridden, so the pipeline-scoped
    behaviour of :meth:`PassManager.run` (GC suspension, validator
    begin, end-of-pipeline gate) is shared. Because restoration swaps
    the module *object*, :meth:`run` returns the surviving module and
    callers must use the return value.
    """

    def __init__(
        self,
        passes=(),
        max_retries: int = 2,
        backoff_base: float = 0.005,
        report: Optional[RecoveryReport] = None,
        **kwargs,
    ) -> None:
        super().__init__(passes, **kwargs)
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.report = report if report is not None else RecoveryReport()

    @classmethod
    def from_manager(cls, pm: PassManager, **kwargs) -> "ResilientPassManager":
        """Adopt an existing manager's pipeline, hooks and settings."""
        return cls(
            pm.passes,
            verify_each=pm.verify_each,
            gate=pm.gate,
            gate_each=pm.gate_each,
            validator=pm.validator,
            **kwargs,
        )

    def _step(self, pass_: Pass, module):
        snapshot = print_module(module)
        for attempt in range(self.max_retries + 1):
            try:
                self._run_single(pass_, module)
            except Exception as exc:
                if attempt == self.max_retries:
                    raise
                self.report.add_event(
                    "RS001",
                    f"pass {pass_.name!r} failed "
                    f"({type(exc).__name__}: {exc}); restoring last-good "
                    f"IR snapshot and retrying "
                    f"(attempt {attempt + 1}/{self.max_retries})",
                )
                time.sleep(self.backoff_base * (2 ** attempt))
                module = parse_module(snapshot)
            else:
                return module
        raise AssertionError("unreachable")  # pragma: no cover


def degradation_chain(
    options: CompileOptions,
) -> Iterator[Tuple[str, CompileOptions]]:
    """The policy chain: requested config first, then weaker and weaker.

    ``opt_level`` steps down to 0, then vectorization is disabled, then
    fusion (with its cache tiling). The interpreter fallback is not part
    of the chain — the driver appends it unconditionally.
    """
    current = dataclasses.replace(options)
    yield "as-requested", current
    while current.opt_level > 0:
        current = dataclasses.replace(current, opt_level=current.opt_level - 1)
        yield f"opt_level -> O{current.opt_level}", current
    if current.vectorize:
        current = dataclasses.replace(current, vectorize=0)
        yield "vectorization -> off", current
    if current.fuse:
        current = dataclasses.replace(current, fuse=False)
        yield "fusion -> off", current


class ResilientCompiler:
    """Drives a module to an executable kernel, surviving faults.

    Parameters
    ----------
    options:
        The requested configuration (the head of the degradation chain).
        The driver always runs the pipeline itself — the process-wide
        kernel cache is not consulted, so every fault site is actually
        exercised.
    max_retries:
        Per-pass snapshot retries *and* whole-attempt retries per chain
        step *and* execution retries in :meth:`compile_and_run`.
    backoff_base:
        First backoff sleep in seconds; doubles per retry.
    watchdog_timeout:
        Wall-clock budget per kernel execution in
        :meth:`compile_and_run`; ``None`` disables the watchdog.
    use_certificates:
        Consult (and widen) the process-wide certificate memo
        (:mod:`repro.codegen.certificates`) per attempt: a fingerprint
        already certified clean skips the analysis gate and the
        translation validator, and a clean verified attempt records its
        certificate — so the compile service's warm path stays cheap
        with ``validate_passes=True`` even across processes (the memo's
        disk tier). The *kernel* cache is still never consulted, so
        every pipeline fault site stays exercised.
    """

    def __init__(
        self,
        options: Optional[CompileOptions] = None,
        max_retries: int = 2,
        backoff_base: float = 0.005,
        watchdog_timeout: Optional[float] = None,
        use_certificates: bool = True,
    ) -> None:
        self.options = options or CompileOptions()
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.watchdog_timeout = watchdog_timeout
        self.use_certificates = use_certificates
        self._pristine: Optional[str] = None
        #: The :class:`CompileOptions` that finally produced a kernel
        #: (``None`` until :meth:`compile` succeeds, or when the
        #: interpreter fallback engaged). The service uses this to key
        #: degraded kernels under their *actual* configuration.
        self.final_options: Optional[CompileOptions] = None

    # ---- compilation ----------------------------------------------------

    def compile(
        self, module, entry: str = "kernel"
    ) -> Tuple[Any, RecoveryReport]:
        """Compile resiliently; returns ``(kernel, report)``.

        The input module is never consumed: each attempt re-parses the
        pristine printed IR, so a half-transformed state can never leak
        into the next attempt.
        """
        report = RecoveryReport()
        pristine = print_module(module)
        self._pristine = pristine
        self.final_options = None
        for step, (label, opts) in enumerate(degradation_chain(self.options)):
            if step:
                report.degradations.append(label)
                report.add_event(
                    "RS002",
                    f"degrading configuration: {label} "
                    f"(now {opts.describe()})",
                )
            kernel = self._attempt_with_retries(pristine, opts, entry, report)
            if kernel is not None:
                report.final = "compiled"
                report.final_options = opts.describe()
                self.final_options = opts
                return kernel, report
        report.add_event(
            "RS003",
            "every compiled configuration failed; falling back to the "
            "reference interpreter on the pristine module",
        )
        report.final = "interpreter"
        report.final_options = "interpreter"
        return InterpreterKernel(pristine, entry), report

    def _attempt_with_retries(
        self,
        pristine: str,
        opts: CompileOptions,
        entry: str,
        report: RecoveryReport,
    ) -> Optional[Any]:
        for attempt in range(self.max_retries + 1):
            try:
                kernel = self._attempt(pristine, opts, entry, report)
            except Exception as exc:  # noqa: BLE001 - recorded, then degrade
                report.attempts.append(AttemptRecord(
                    opts.describe(), "failed", error=f"{type(exc).__name__}: {exc}"
                ))
                if attempt == self.max_retries:
                    return None
                report.add_event(
                    "RS001",
                    f"compile attempt at {opts.describe()} failed "
                    f"({type(exc).__name__}: {exc}); retrying "
                    f"(attempt {attempt + 1}/{self.max_retries})",
                )
                time.sleep(self.backoff_base * (2 ** attempt))
            else:
                report.attempts.append(AttemptRecord(opts.describe(), "ok"))
                return kernel
        return None

    def _attempt(
        self,
        pristine: str,
        opts: CompileOptions,
        entry: str,
        report: RecoveryReport,
    ):
        work = parse_module(pristine)
        compiler = StencilCompiler(opts)
        fingerprint = cert = None
        if self.use_certificates:
            fingerprint, cert = compiler.certificate(work, entry)
        pm = ResilientPassManager.from_manager(
            compiler.build_pipeline(*compiler.verification_skips(cert)),
            max_retries=self.max_retries,
            backoff_base=self.backoff_base,
            report=report,
        )
        return compiler.finish(pm.run(work), entry, fingerprint, cert)

    # ---- execution ------------------------------------------------------

    def compile_and_run(
        self,
        module,
        make_args: Callable[[], Tuple[Any, ...]],
        entry: str = "kernel",
    ) -> Tuple[List[Any], RecoveryReport]:
        """Compile resiliently, then execute with guarded retries.

        ``make_args`` must return a *fresh* argument tuple per call (the
        generated kernels may write into their output argument, so a
        retried execution needs untouched inputs). Execution failures and
        timeouts retry up to ``max_retries`` times, then degrade to the
        interpreter fallback; if even that fails,
        :class:`ResilienceExhausted` is raised with the report attached.
        """
        kernel, report = self.compile(module, entry)
        result = self._execute_with_retries(kernel, make_args, report)
        if result is not None:
            return result, report
        if not isinstance(kernel, InterpreterKernel):
            report.add_event(
                "RS003",
                "compiled kernel kept failing at execution time; falling "
                "back to the reference interpreter",
            )
            report.final = "interpreter"
            report.final_options = "interpreter"
            self.final_options = None
            fallback = InterpreterKernel(self._pristine, entry)
            outcome = execute_kernel(fallback, *make_args())
            if outcome.ok:
                report.attempts.append(
                    AttemptRecord("interpreter", "ok", stage="execute")
                )
                return outcome.values, report
            report.events.append(outcome.diagnostic)
        raise ResilienceExhausted(
            report, "execution failed on every backend including the "
            "interpreter fallback"
        )

    def _execute_with_retries(
        self,
        kernel,
        make_args: Callable[[], Tuple[Any, ...]],
        report: RecoveryReport,
    ) -> Optional[List[Any]]:
        label = f"entry {getattr(kernel, 'entry', '?')!r}"
        for attempt in range(self.max_retries + 1):
            outcome: ExecutionResult = execute_kernel(
                kernel, *make_args(), timeout=self.watchdog_timeout, what=label
            )
            if outcome.ok:
                report.attempts.append(
                    AttemptRecord(label, "ok", stage="execute")
                )
                return outcome.values
            report.events.append(outcome.diagnostic)
            report.attempts.append(AttemptRecord(
                label, "failed", stage="execute",
                error=outcome.diagnostic.message,
            ))
            if attempt < self.max_retries:
                time.sleep(self.backoff_base * (2 ** attempt))
        return None
