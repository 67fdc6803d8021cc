"""Compile emitted Python source and wrap it as a callable kernel."""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.codegen.native import NativeTier, dense_f64
from repro.codegen.python_backend import BackendError, emit_module
from repro.ir.module import ModuleOp
from repro.runtime.resilience.faults import maybe_inject

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.codegen.cache import KernelCache


class CompiledKernel:
    """A compiled entry point of a lowered module.

    Calling the kernel returns the tuple of function results. The
    generated source is kept on ``.source`` for inspection (tests assert
    on it; EXPERIMENTS.md quotes it).

    A kernel starts on the NumPy tier — the emitted Python — and *earns*
    the native one (:mod:`repro.codegen.native`): its calls are timed,
    and once they add up to the estimated cost of building
    ``native_source`` the first call after the build runs the outlined
    loops as C. ``tier``, ``wait_native``, ``call_tier`` inspect that.
    """

    def __init__(self, source: str, namespace: Dict[str, Any], entry: str) -> None:
        self.source = source
        self.namespace = namespace
        self.entry = entry
        self._fn: Callable = namespace[entry]
        #: Set by :meth:`certify_parallel` once the race analyzer has
        #: cleared the lowered module; until then the runtime dispatcher
        #: executes wavefront groups sequentially.
        self.parallel_certified = False
        #: Diagnostics that blocked certification (empty when certified
        #: or never gated).
        self.parallel_diagnostics: List[Any] = []
        #: Static wavefront schedules stamped by the compiler
        #: (:class:`repro.core.scheduling.ScheduleStamp` per grouped
        #: loop with statically known extents).
        self.schedule: List[Any] = []
        #: The C text of the outlined loops (``None``: there are none).
        self.native_source = getattr(source, "native_source", None)
        self.native = NativeTier(
            self.native_source, getattr(source, "native_reason", None),
            what=f"kernel {entry!r}",
        )
        #: Static shape per argument (``None``: not an array).
        self._shapes = namespace.get("_ARG_SHAPES", {}).get(entry, ())

    def certify_parallel(self) -> None:
        """Allow multi-threaded wavefront dispatch for this kernel.

        Flips the module-level ``_PARALLEL_CERTIFIED`` flag the emitted
        dispatch calls read, so certification survives re-entry and is
        shared by every function in the namespace.
        """
        self.parallel_certified = True
        self.namespace["_PARALLEL_CERTIFIED"] = True

    def __call__(self, *args: Any):
        maybe_inject("executor.execute", entry=self.entry)
        maybe_inject("executor.hang", entry=self.entry)
        native = self.native
        if native.earning and native.adopt() is None:
            start = time.perf_counter()
            try:
                return self._fn(*args)
            finally:
                native.charge(time.perf_counter() - start)
        if native.lib is not None:
            if self._fits(args):
                return self._fn(*args, _native=native.lib)
            native.note("bad-args")  # this call only
        return self._fn(*args)

    def _fits(self, args) -> bool:
        """Are ``args`` what the C text was printed for: C-contiguous
        float64 arrays of the entry point's static shapes?"""
        if len(args) != len(self._shapes):
            return False
        return all(
            shape is None or (
                dense_f64(a) and a.ndim == len(shape)
                and all(s in (-1, n) for s, n in zip(shape, a.shape))
            )
            for a, shape in zip(args, self._shapes)
        )

    # ---- tier inspection --------------------------------------------------

    @property
    def tier(self) -> str:
        """``"native"`` once the built library is loaded, else ``"numpy"``."""
        return "native" if self.native.lib is not None else "numpy"

    def wait_native(self, timeout: Optional[float] = None) -> bool:
        """Ask for the native build now instead of earning it, and wait
        for it; ``True`` when the kernel is native afterwards."""
        return self.native.wait(timeout)

    def call_tier(self, tier: str, *args: Any):
        """One call pinned to ``"numpy"`` or ``"native"`` (built first if
        need be; :class:`BackendError` where it cannot be had)."""
        if tier == "numpy":
            return self._fn(*args)
        if tier != "native":
            raise ValueError(f"unknown tier {tier!r}")
        if not self.wait_native() or not self._fits(args):
            raise BackendError(
                f"native tier unavailable for {self.entry!r}: "
                + ("; ".join(e.message for e in self.events()) or "bad-args")
            )
        return self._fn(*args, _native=self.native.lib)

    def events(self) -> List[Any]:
        """This kernel's RS017 diagnostics: why it, or one of its calls,
        stayed on the NumPy tier."""
        return list(self.native.events.values())

    def run(self, *args: Any) -> List[Any]:
        return list(self(*args))

    def __repr__(self) -> str:
        return (
            f"CompiledKernel(entry={self.entry!r}, "
            f"source={len(self.source)} chars, tier={self.tier!r})"
        )


def compile_module(module: ModuleOp) -> Dict[str, Any]:
    """Emit and exec a module; returns its namespace."""
    maybe_inject("executor.compile")
    source = emit_module(module)
    namespace: Dict[str, Any] = {}
    code = compile(source, "<repro-generated>", "exec")
    exec(code, namespace)  # noqa: S102 - this is the JIT of the backend
    namespace["__source__"] = source
    return namespace


def compile_function(
    module: ModuleOp,
    entry: str = "kernel",
    cache: Optional["KernelCache"] = None,
    options_key: str = "",
) -> CompiledKernel:
    """Emit the module and return the named function as a kernel.

    With ``cache`` set, the lowered module's printed IR (plus ``entry``
    and ``options_key``) is fingerprinted first and a hit skips emission
    entirely; ``StencilCompiler.compile`` additionally fingerprints the
    *unlowered* module so hits skip the pass pipeline too.
    """
    fingerprint = None
    if cache is not None:
        from repro.codegen.cache import module_fingerprint

        fingerprint = module_fingerprint(module, entry, options_key)
        kernel = cache.get(fingerprint)
        if kernel is not None:
            return kernel
    namespace = compile_module(module)
    if entry not in namespace:
        raise BackendError(f"module defines no function {entry!r}")
    kernel = CompiledKernel(namespace["__source__"], namespace, entry)
    if cache is not None and fingerprint is not None:
        cache.put(fingerprint, kernel)
    return kernel
