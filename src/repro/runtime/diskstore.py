"""The one disk tier under the kernel cache, the certificate memo and
the solver checkpoints.

A :class:`DiskStore` keeps *entries* — one file per name template under
``root``, named by the entry's key — and owns everything about them
that is not the tenant's data format:

* **Atomic, ordered writes.** Each file is written under a temp name
  unique per writer (pid + thread) and installed with ``os.replace``,
  in template order. The *last* file is the commit record: an entry
  exists iff it does, so a reader arriving between two renames misses.
* **The envelope.** ``seal`` yields the version field and SHA-256 the
  tenant embeds in its commit record; ``check`` rejects skew/corruption.
* **Quarantine.** Whatever the tenant's decoder raises, the load is a
  miss and the entry moves to ``<root>/quarantine/``, so a bad entry
  fails at most once (logged; rendered as RS004 by ``events()``).
* **Degradation.** ``OSError`` and injected ``cache.disk-read`` /
  ``cache.disk-write`` faults (fired with ``kind=`` context) count a
  ``disk_errors`` and leave the tenant memory-only; they never raise.

Imports only the stdlib-only ``resilience.faults``: no cycle with
``repro.codegen`` or ``repro.runtime.resilience``.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Callable, Optional, Sequence, TypeVar, Union

from repro.runtime.resilience.faults import InjectedFault, maybe_inject

T = TypeVar("T")


class CorruptEntry(Exception):
    """A disk entry failed its version/checksum/shape validation."""


@dataclass
class DiskStats:
    """The disk-tier counters every tenant's stats record carries."""

    #: Memory misses satisfied by the disk tier.
    disk_hits: int = 0
    #: Disk reads/writes that failed outright (I/O error or injected
    #: fault); the tenant degraded to memory-only for that operation.
    disk_errors: int = 0
    #: Disk entries that failed validation and were moved to quarantine.
    quarantined: int = 0


class DiskStore:
    """Entries of one file per ``names`` template (``"{}.py"``) under
    ``root`` (``None``: disabled). ``version`` is the ``(field, value)``
    :meth:`seal` stamps and :meth:`check` demands, raising ``corrupt``;
    ``stats`` is the tenant's own record, so the disk counters show up
    beside its memory-tier ones.
    """

    def __init__(
        self,
        root: Optional[Path],
        kind: str,
        names: Sequence[str],
        stats: Optional[DiskStats] = None,
        version: Optional[tuple[str, Any]] = None,
        corrupt: type = CorruptEntry,
    ) -> None:
        self.root = Path(root) if root else None
        self.kind = kind
        self.names = tuple(names)
        self.stats = stats or DiskStats()
        self.version = version
        self.corrupt = corrupt
        #: ``(key, reason)`` per quarantined entry.
        self.quarantine_log: list[tuple[str, str]] = []
        self._lock = threading.Lock()

    def _paths(self, key: str) -> list[Path]:
        return [self.root / name.format(key) for name in self.names]

    def _disk_error(self) -> None:
        with self._lock:
            self.stats.disk_errors += 1  # degrade to memory-only

    # ---- envelope -------------------------------------------------------

    def seal(self, payload: bytes) -> dict[str, Any]:
        """The envelope fields vouching for ``payload``."""
        field, value = self.version
        return {field: value, "sha256": hashlib.sha256(payload).hexdigest()}

    def check(self, envelope: dict[str, Any], payload: bytes) -> None:
        """Raise ``corrupt`` unless ``envelope`` was sealed over
        ``payload`` by this version of the tenant."""
        field, value = self.version
        if envelope.get(field) != value:
            raise self.corrupt(
                f"{field} version skew: entry has {envelope.get(field)!r}, "
                f"current is {value!r}"
            )
        if envelope.get("sha256") != self.seal(payload)["sha256"]:
            raise self.corrupt(
                "checksum mismatch (truncated or corrupted entry)"
            )

    # ---- entries --------------------------------------------------------

    def store(
        self, key: str, *parts: Union[bytes, Callable[[BinaryIO], Any], None]
    ) -> bool:
        """Install one part per file — its bytes, or a callable writing
        them to the open file, or ``None`` for a file this entry does
        without; ``False`` when the disk refused."""
        if self.root is None:
            return False
        tmp_suffix = f".{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            maybe_inject("cache.disk-write", fingerprint=key, kind=self.kind)
            self.root.mkdir(parents=True, exist_ok=True)
            for path, part in zip(self._paths(key), parts):
                if part is None:
                    path.unlink(missing_ok=True)
                    continue
                tmp = path.with_name(path.name + tmp_suffix)
                with open(tmp, "wb") as fh:
                    if callable(part):
                        part(fh)
                    else:
                        fh.write(part)
                os.replace(tmp, path)
        except (OSError, InjectedFault):
            self._disk_error()
            return False
        return True

    def load(self, key: str, decode: Callable[..., T]) -> Optional[T]:
        """``decode(*paths)`` of the entry's files, or ``None`` on a
        miss; any exception out of reading or decoding a committed
        entry — whatever its type — quarantines it."""
        if self.root is None:
            return None
        paths = self._paths(key)
        try:
            maybe_inject("cache.disk-read", fingerprint=key, kind=self.kind)
            if not paths[-1].exists():
                return None  # clean miss: never committed
        except (OSError, InjectedFault):
            self._disk_error()
            return None
        try:
            value = decode(*paths)
        except Exception as exc:  # noqa: BLE001 - any bad entry is a miss
            self._quarantine(key, f"{type(exc).__name__}: {exc}")
            return None
        with self._lock:
            self.stats.disk_hits += 1
        return value

    def _quarantine(self, key: str, reason: str) -> None:
        """Move a bad entry aside so it can fail at most once."""
        with self._lock:
            self.stats.quarantined += 1
            self.quarantine_log.append((key, reason))
        qdir = self.root / "quarantine"
        for path in self._paths(key):
            try:
                if path.exists():
                    qdir.mkdir(parents=True, exist_ok=True)
                    os.replace(path, qdir / path.name)
            except OSError:
                try:  # cannot even move it: drop it so it never re-trips
                    path.unlink(missing_ok=True)
                except OSError:
                    pass

    def keys(self) -> list[str]:
        """Committed keys, sorted."""
        if self.root is None or not self.root.is_dir():
            return []
        head, tail = self.names[-1].split("{}")
        return sorted(
            path.name[len(head): len(path.name) - len(tail)]
            for path in self.root.glob(f"{head}*{tail}")
        )

    def remove(self, key: str) -> None:
        try:
            for path in self._paths(key):
                path.unlink(missing_ok=True)
        except OSError:
            self._disk_error()

    def clear(self, stats: DiskStats, disk: bool = False) -> None:
        """Start over on ``stats``; with ``disk`` also drop every entry
        file (quarantined ones stay for inspection)."""
        with self._lock:
            self.stats = stats
            self.quarantine_log = []
        if disk and self.root is not None and self.root.is_dir():
            for name in self.names:
                for path in self.root.glob(name.format("*")):
                    path.unlink(missing_ok=True)

    def events(self) -> list[Any]:
        """RS004 diagnostics for every quarantined entry (lazy import so
        the store itself stays analysis-free)."""
        from repro.analysis.diagnostics import Diagnostic

        return [
            Diagnostic(
                "RS004",
                f"quarantined {self.kind} disk entry {key}: {reason}",
                severity="warning",
            )
            for key, reason in self.quarantine_log
        ]


class DiskBacked:
    """What every tenant shows of the :class:`DiskStore` in ``_store``."""

    _store: DiskStore

    @property
    def quarantine_log(self) -> list[tuple[str, str]]:
        """``(key, reason)`` per quarantined disk entry."""
        return self._store.quarantine_log

    def events(self) -> list[Any]:
        """RS004 diagnostics for every quarantined disk entry."""
        return self._store.events()
