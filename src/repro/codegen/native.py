"""The native tier: a kernel's outlined loops, built by the host ``cc``
off the compile path and called through ``ctypes``.

A kernel is born on the NumPy tier with the C text of its block bodies
beside it (:mod:`repro.codegen.c_backend`); ``cc`` never runs when a
kernel is compiled. :class:`NativeTier` counts the wall time the kernel
spends on the NumPy tier; once that exceeds what the build is estimated
to cost — the ski-rental rule: at most twice what the best choice in
hindsight would have paid, with nothing to configure — the process's one
:class:`NativeBuilder` thread builds the text (one build at a time,
``nice``'d, sanitised environment, timeout), seals the ``.so`` into a
:class:`NativeStore` and loads it from there; the kernel's next call
takes the native blocks. No ``cc``, a failed or hung build, a ``.so``
that does not match its seal: the kernel stays on the NumPy tier with
one RS017 event, and no call ever waits or fails.

The store is the fourth :class:`~repro.runtime.diskstore.DiskStore`
tenant — ``<sha256 of the C text and flags>.so`` plus its commit record,
checked against the sealed SHA-256 before every ``CDLL`` — under the
kernel cache's disk tier, or a per-process temp dir otherwise.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import json
import os
import queue
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.codegen.python_backend import BackendError
from repro.runtime.diskstore import DiskBacked, DiskStats, DiskStore

#: Part of every ``.so`` key and envelope, with the flags.
NATIVE_VERSION = "1"
#: No ``-ffast-math``, no contraction: the NumPy tier's arithmetic.
CFLAGS = ("-O1", "-ffp-contract=off", "-shared", "-fPIC")

_ERRORS = {
    1: lambda fn: ZeroDivisionError("float division by zero"),
    2: lambda fn: BackendError(f"native block {fn}: access outside its buffer"),
    3: lambda fn: MemoryError(f"native block {fn}: out of memory"),
}


def dense_f64(a: Any) -> bool:
    """Is ``a`` what a ``T`` can describe: a C-contiguous float64 array?"""
    return (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.c_contiguous)


#: RS017 diagnostics of this process, oldest first (bounded).
_events: List[Any] = []


def _event(reason: str, what: str, log: bool = True) -> Any:
    from repro.analysis.diagnostics import Diagnostic

    event = Diagnostic(
        "RS017", f"{what} stays on the NumPy tier: {reason}", severity="note"
    )
    if log and len(_events) < 64:
        _events.append(event)
    return event


def drain_events() -> List[Any]:
    """Pop the process's RS017 diagnostics (oldest first)."""
    out = _events[:]
    del _events[:]
    return out


class NativeLib:
    """A loaded block library. Calling it binds one function to the
    arrays and scalars of one Python scope."""

    def __init__(self, cdll: ctypes.CDLL) -> None:
        self._cdll = cdll
        #: fn -> (its entry, its run-of-tiles entry or None), typed once
        self._entries: Dict[str, tuple] = {}

    def _entry(self, fn: str) -> tuple:
        entries = self._entries.get(fn)
        if entries is None:
            call = getattr(self._cdll, fn)
            call.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_long]
            runner = getattr(self._cdll, fn + "_run", None)
            if runner is not None:  # a grouped loop's
                runner.argtypes = [ctypes.c_void_p] * 4 + [
                    ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p]
            entries = self._entries[fn] = (call, runner)
        return entries

    def __call__(
        self, fn: str, fallback: Optional[Callable], arrays: Sequence[Any],
        longs: Sequence[int] = (), doubles: Sequence[float] = (),
    ) -> Optional[Callable[[int], None]]:
        """``block(lin)`` running ``fn`` over ``arrays`` in place, or
        ``fallback`` when one of them is not C-contiguous float64. A
        grouped loop's ``block`` also has ``block.run(lins)``."""
        shapes: List[int] = []
        for a in arrays:
            if not dense_f64(a):
                return fallback
            shapes.extend(a.shape)
        call, runner = self._entry(fn)
        args = (
            (ctypes.c_void_p * len(arrays))(*[a.ctypes.data for a in arrays]),
            (ctypes.c_long * len(shapes))(*shapes),
            (ctypes.c_long * len(longs))(*map(int, longs)),
            (ctypes.c_double * len(doubles))(*doubles),
        )

        def block(lin, _keep=arrays) -> None:  # the arrays outlive the call
            code = call(*args, int(lin))
            if code:
                raise _ERRORS.get(code, _ERRORS[2])(fn)

        if runner is not None:
            def run(lins, _keep=arrays):
                """``block`` over the tiles ``lins`` in order, in one call:
                ``(tiles finished, the error that stopped it or None)``."""
                lins = np.ascontiguousarray(lins, dtype=np.int64)
                done = ctypes.c_long(0)
                code = runner(*args, lins.ctypes.data, len(lins), ctypes.byref(done))
                return done.value, _ERRORS.get(code, _ERRORS[2])(fn) if code else None

            block.run = run
        return block


class NativeStore(DiskBacked):
    """Sealed shared objects by key: ``put`` bytes, ``get`` a library."""

    def __init__(self, root: Optional[Path]) -> None:
        self.stats = DiskStats()
        self._store = DiskStore(
            root, "native", ("{}.so", "{}.so.json"), self.stats,
            version=("native", NATIVE_VERSION + " " + " ".join(CFLAGS)),
        )

    def put(self, key: str, blob: bytes) -> bool:
        record = json.dumps(self._store.seal(blob)).encode("utf-8")
        return self._store.store(key, blob, record)

    def get(self, key: str) -> Optional[NativeLib]:
        return self._store.load(key, self._decode)

    def _decode(self, so_path: Path, record_path: Path) -> NativeLib:
        self._store.check(json.loads(record_path.read_bytes()), so_path.read_bytes())
        return NativeLib(ctypes.CDLL(str(so_path)))


class NativeBuilder:
    """The process's one builder: a daemon thread that runs ``cc``."""

    #: Seconds before a build is abandoned.
    timeout = 120.0
    #: CPU seconds of ``cc`` per byte of C text: the EXPERIMENTS.md prior,
    #: then a running mean over this process's own builds.
    rate = 1e-5

    def __init__(self) -> None:
        #: Every library this process has loaded, by key: a kernel whose
        #: C text was built before has nothing left to earn.
        self.libs: dict = {}
        #: The host compiler (``False``: not looked for yet).
        self.cc: Any = False
        self._queue: "queue.SimpleQueue[NativeTier]" = queue.SimpleQueue()
        self._thread: Optional[threading.Thread] = None
        self._scratch: Optional[NativeStore] = None
        self._lock = threading.Lock()

    def compiler(self) -> Optional[str]:
        """``cc``; its presence on ``PATH`` is the tier's only switch."""
        if self.cc is False:
            self.cc = shutil.which("cc")
            if self.cc is None:
                _event("no-cc", "every kernel of this process")
        return self.cc

    def scratch(self) -> NativeStore:
        """The per-process store of kernels outside any disk cache."""
        with self._lock:
            if self._scratch is None:
                root = tempfile.mkdtemp(prefix="repro-native-")
                atexit.register(shutil.rmtree, root, ignore_errors=True)
                self._scratch = NativeStore(Path(root))
            return self._scratch

    def submit(self, tier: "NativeTier") -> None:
        with self._lock:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="repro-native-builder", daemon=True
                )
                self._thread.start()
        self._queue.put(tier)

    def _run(self) -> None:
        while True:
            tier = self._queue.get()
            try:
                lib, reason = self._build(tier)
            except Exception as exc:  # noqa: BLE001 - the tier must hear back
                lib, reason = None, f"build-failed ({type(exc).__name__}: {exc})"
            if lib is not None:
                self.libs[tier.key] = lib
            tier.finish(lib, reason)

    def _build(self, tier: "NativeTier"):
        """``(library, None)`` or ``(None, reason)`` for one kernel."""
        stores = [s for s in (tier.store, self.scratch()) if s is not None]
        for store in stores:
            bad = store.stats.quarantined
            lib = store.get(tier.key)
            if lib is not None:  # built before: by this process or an earlier one
                return lib, None
            if store.stats.quarantined > bad:
                return None, "corrupt-so"
        with tempfile.TemporaryDirectory(prefix="repro-cc-") as tmp:
            (Path(tmp) / "k.c").write_text(tier.source)
            nice = shutil.which("nice")
            command = ([nice, "-n", "19"] if nice else []) + [
                self.cc, *CFLAGS, "-o", "k.so", "k.c"]
            before = os.times()
            try:
                done = subprocess.run(
                    command, cwd=tmp, timeout=self.timeout, capture_output=True,
                    stdin=subprocess.DEVNULL,
                    env={"PATH": os.environ.get("PATH", ""), "LC_ALL": "C",
                         "TMPDIR": tmp},
                )
            except subprocess.TimeoutExpired:
                return None, "build-timeout"
            except OSError as exc:
                return None, f"build-failed ({exc})"
            if done.returncode != 0:
                tail = done.stderr.decode("utf-8", "replace").strip()[-200:]
                return None, f"build-failed (cc exited {done.returncode}: {tail})"
            after = os.times()  # the children's CPU time: what the build cost
            spent = (after.children_user + after.children_system
                     - before.children_user - before.children_system)
            self.rate = 0.5 * (self.rate + spent / max(1, len(tier.source)))
            blob = (Path(tmp) / "k.so").read_bytes()
        for store in stores:
            if store.put(tier.key, blob):
                lib = store.get(tier.key)
                return (lib, None) if lib is not None else (None, "corrupt-so")
        return None, "build-failed (no writable store)"


#: The process-wide builder.
BUILDER = NativeBuilder()


class NativeTier:
    """Where one kernel stands between the two tiers."""

    def __init__(self, source: Optional[str], reason: Optional[str] = None,
                 what: str = "kernel") -> None:
        #: The C text (``None``: the kernel has no outlined loop).
        self.source = source
        self.what = what
        #: The loaded library once the kernel is native.
        self.lib: Optional[NativeLib] = None
        #: The store of the disk-backed cache the kernel lives in.
        self.store: Optional[NativeStore] = None
        #: Seconds spent on the NumPy tier so far.
        self.spent = 0.0
        #: ``None`` until a build has been asked for.
        self.done: Optional[threading.Event] = None
        #: reason -> its RS017 diagnostic, in the order met
        self.events: Dict[str, Any] = {}
        #: The content address of the built library.
        self.key = hashlib.sha256("\x1f".join(
            (NATIVE_VERSION, *CFLAGS, source or "")).encode("utf-8")).hexdigest()
        self._lock = threading.Lock()
        if reason is not None:
            self.note(reason)

    @property
    def earning(self) -> bool:
        """Still counting towards a build that was not asked for yet."""
        return self.done is None and self.source is not None

    def note(self, reason: str) -> None:
        """Register one RS017 per distinct reason (the process log has
        its one ``no-cc`` from :meth:`NativeBuilder.compiler`)."""
        if reason not in self.events:
            self.events[reason] = _event(reason, self.what, log=reason != "no-cc")

    def adopt(self) -> Optional[NativeLib]:
        """The library, if this process already loaded one for this text."""
        lib = BUILDER.libs.get(self.key)
        if lib is not None:
            with self._lock:
                if self.earning:
                    self.done = threading.Event()
                    self.finish(lib, None)
        return lib

    def charge(self, seconds: float) -> None:
        """``seconds`` more on the NumPy tier; ask for the build once
        they add up to its estimated cost."""
        self.spent += seconds
        if self.spent >= BUILDER.rate * len(self.source):
            self.request()

    def request(self) -> None:
        with self._lock:
            if not self.earning:
                return
            self.done = threading.Event()
        if BUILDER.compiler() is None:
            self.finish(None, "no-cc")
        else:
            BUILDER.submit(self)

    def finish(self, lib: Optional[NativeLib], reason: Optional[str]) -> None:
        if reason is not None:
            self.note(reason)
        self.lib = lib
        self.done.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Ask for the build now and wait for it; ``True`` once native."""
        if self.source is None:
            return False
        self.request()
        self.done.wait(timeout)
        return self.lib is not None
