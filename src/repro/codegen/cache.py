"""Content-addressed cache of compiled kernels.

Compiling a kernel means running the whole pass pipeline and re-emitting
Python source — for the autotuner sweeps and the Fig. 11-13 benchmarks,
which recompile the same four kernels dozens of times per process, that
cost dominates end-to-end time. This module caches :class:`CompiledKernel`
objects under a *content address*:

    fingerprint = sha256(printed IR || entry || options key || backend version)

so a hit is possible only when the input module, the compilation options
and the emitter that produced the cached source are all identical. Stale
entries are invalidated structurally — a changed emitter version changes
every fingerprint, so old entries simply never match again.

Two tiers:

* an in-memory LRU (:class:`KernelCache`), the default, process-local;
* optional on-disk persistence (``disk_dir=``; :func:`default_disk_dir`
  is ``~/.cache/repro-stencils/`` or ``$REPRO_CACHE_DIR``): the emitted
  source ``<fp>.py`` and the C text of its outlined loops ``<fp>.c`` are
  stored next to a metadata file ``<fp>.json`` and re-``exec``'d on
  load, which is orders of magnitude cheaper than re-lowering. The
  shared objects the native tier builds from ``<fp>.c`` live in the same
  directory as a tenant of their own (:class:`NativeStore`).

The disk tier is a :class:`~repro.runtime.diskstore.DiskStore`, which
owns atomic writes, the emitter-version + SHA-256 envelope, quarantine
and memory-only degradation; this module only says what an entry *is*
(source, committing metadata, entry-point check before it is trusted).

The process-wide default instance (:func:`default_cache`) is what
``StencilCompiler.compile`` consults when ``CompileOptions.use_cache``
is set; tests and benchmarks swap it with :func:`set_default_cache`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from repro.codegen.executor import CompiledKernel
from repro.codegen.native import NativeStore
from repro.codegen.python_backend import EMITTER_VERSION, EmittedSource
from repro.ir.module import ModuleOp
from repro.ir.printer import print_module
from repro.runtime.diskstore import CorruptEntry, DiskBacked, DiskStats, DiskStore


def default_disk_dir() -> Path:
    """The on-disk cache root (``$REPRO_CACHE_DIR`` overrides)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root).expanduser()
    return Path("~/.cache/repro-stencils").expanduser()


def module_fingerprint(
    module: ModuleOp,
    entry: str = "kernel",
    options_key: str = "",
    backend_version: str = EMITTER_VERSION,
) -> str:
    """The content address of one (module, entry, options, emitter) tuple.

    ``options_key`` must identify the *complete* compilation
    configuration — callers pass ``CompileOptions.cache_key()``, which is
    built from every option field, not the lossy human-oriented
    ``describe()`` string — otherwise two configurations that lower
    differently would alias to one cached kernel.
    """
    digest = hashlib.sha256()
    for part in (print_module(module), entry, options_key, backend_version):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


@dataclass
class CacheStats(DiskStats):
    """Counters of one :class:`KernelCache` instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class KernelCache(DiskBacked):
    """An LRU of compiled kernels keyed by :func:`module_fingerprint`.

    Thread-safe: the benchmark harness compiles from worker threads.
    With ``disk_dir`` set every entry is also written there, and lookups
    that miss in memory fall through to disk, re-``exec`` the stored
    source and promote the kernel back into the LRU.
    """

    def __init__(
        self, max_entries: int = 256, disk_dir: Optional[Path] = None
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._store = DiskStore(
            disk_dir, "kernel", ("{}.py", "{}.c", "{}.json"), self.stats,
            version=("emitter", EMITTER_VERSION),
        )
        self.disk_dir = self._store.root
        #: Where this cache's kernels keep their built ``.so``.
        self.native = NativeStore(self.disk_dir)
        self._entries: "OrderedDict[str, CompiledKernel]" = OrderedDict()
        self._lock = threading.Lock()

    # ---- lookup ---------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[CompiledKernel]:
        with self._lock:
            kernel = self._entries.get(fingerprint)
            if kernel is not None:
                self._entries.move_to_end(fingerprint)
                self.stats.hits += 1
                return kernel
        kernel = self._store.load(fingerprint, self._decode)
        with self._lock:
            if kernel is not None:
                self.stats.hits += 1
                self._insert(fingerprint, kernel)
            else:
                self.stats.misses += 1
        return kernel

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ---- insertion ------------------------------------------------------

    def put(self, fingerprint: str, kernel: CompiledKernel) -> None:
        with self._lock:
            self.stats.puts += 1
            self._insert(fingerprint, kernel)
        if self.disk_dir is not None:
            kernel.native.store = self.native
            source = kernel.source.encode("utf-8")
            native = (kernel.native_source or "").encode("utf-8")
            meta = json.dumps({
                **self._store.seal(source + native),
                "native_reason": getattr(kernel.source, "native_reason", None),
                "entry": kernel.entry,
                "parallel_certified": kernel.parallel_certified,
                "schedule": [s.to_json() for s in kernel.schedule],
            })
            # Sources first: the metadata is the commit record.
            self._store.store(
                fingerprint, source, native or None, meta.encode("utf-8")
            )

    def _insert(self, fingerprint: str, kernel: CompiledKernel) -> None:
        self._entries[fingerprint] = kernel
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self, disk: bool = False) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()
        self._store.clear(self.stats, disk)

    def events(self) -> list:
        """RS004 for every quarantined kernel entry and shared object."""
        return super().events() + self.native.events()

    def _decode(
        self, source_path: Path, native_path: Path, meta_path: Path
    ) -> CompiledKernel:
        """Validate and re-``exec`` one disk entry; raises on any doubt."""
        meta = json.loads(meta_path.read_bytes())
        source = source_path.read_bytes()
        native = native_path.read_bytes() if native_path.exists() else b""
        self._store.check(meta, source + native)
        text = EmittedSource(source.decode("utf-8"))
        text.native_source = native.decode("utf-8") or None
        text.native_reason = meta.get("native_reason")
        namespace: Dict[str, Any] = {}
        exec(compile(text, "<repro-cached>", "exec"), namespace)  # noqa: S102
        namespace["__source__"] = text
        entry = meta.get("entry")
        if not isinstance(entry, str) or entry not in namespace:
            raise CorruptEntry(f"cached namespace lacks entry point {entry!r}")
        kernel = CompiledKernel(text, namespace, entry)
        kernel.native.store = self.native
        if meta.get("parallel_certified"):
            kernel.certify_parallel()
        if meta.get("schedule"):
            from repro.core.scheduling import ScheduleStamp

            kernel.schedule = [
                ScheduleStamp.from_json(s) for s in meta["schedule"]
            ]
        return kernel


_default_cache = KernelCache()
_default_lock = threading.Lock()


def default_cache() -> KernelCache:
    """The process-wide cache used by ``StencilCompiler.compile``."""
    return _default_cache


def set_default_cache(cache: KernelCache) -> KernelCache:
    """Swap the process-wide cache (returns the previous one)."""
    global _default_cache
    with _default_lock:
        previous = _default_cache
        _default_cache = cache
    return previous
