"""Verification-certificate memo: pay for analysis once per fingerprint.

The analysis gate (``check_level``), the per-pass translation validator
(``validate_passes``) and the parallel-safety race check all re-run on
every compile, even when the *identical* (module, entry, options,
emitter) tuple was already certified clean in this process. This memo
keys a small certificate record on the same sha256 fingerprint the
kernel cache uses (:func:`repro.codegen.cache.module_fingerprint`), so a
re-compile of a certified fingerprint skips the gate and the validator
— the expensive part of a verified build — while still lowering and
emitting if the kernel cache itself missed.

A certificate asserts only what was actually proven: the check level
the gate ran at, whether translation validation passed, and whether the
parallel race check came back clean. A compile requesting *more*
verification than the record covers runs the missing checks and widens
the record.

Disk tier: with ``disk_dir`` set, every record is also written through
to ``<disk_dir>/<fingerprint>.cert.json`` so a pipeline certified clean
in one process never re-validates in another — the warm path of the
compile service with ``validate_passes=True``. The tier is a
:class:`~repro.runtime.diskstore.DiskStore` (atomic writes, schema
version + SHA-256 envelope, quarantine, memory-only degradation); this
module only defines a certificate's JSON payload.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Set

from repro.runtime.diskstore import CorruptEntry, DiskBacked, DiskStats, DiskStore

#: Bump when the on-disk certificate payload shape changes; skewed
#: entries are quarantined like corrupted ones.
CERT_SCHEMA_VERSION = 1


class CorruptCertificateEntry(CorruptEntry):
    """A disk certificate failed checksum/schema/shape validation."""


@dataclass
class Certificate:
    """What one fingerprint has been proven to satisfy."""

    #: Check levels the analysis gate passed at ("after-pipeline",
    #: "after-every-pass").
    check_levels: Set[str] = field(default_factory=set)
    #: Per-pass translation validation passed.
    validated: bool = False
    #: The parallel race check found no IP-diagnostic. ``None`` means
    #: the check never ran; ``False`` means it ran and found problems
    #: (memoized too — a dirty module stays refused without re-analysis).
    parallel_clean: Optional[bool] = None

    def covers_gate(self, check_level: str) -> bool:
        if check_level == "off":
            return True
        if check_level == "after-pipeline":
            # A stricter per-pass run subsumes the end-of-pipeline gate.
            return bool(self.check_levels)
        return check_level in self.check_levels

    def to_json(self) -> Dict[str, Any]:
        """Canonical JSON payload (sorted, so the checksum is stable)."""
        return {
            "check_levels": sorted(self.check_levels),
            "validated": self.validated,
            "parallel_clean": self.parallel_clean,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Certificate":
        check_levels = data.get("check_levels")
        if not isinstance(check_levels, list) or not all(
            isinstance(c, str) for c in check_levels
        ):
            raise CorruptCertificateEntry("check_levels must be a string list")
        validated = data.get("validated")
        if not isinstance(validated, bool):
            raise CorruptCertificateEntry("validated must be a bool")
        parallel_clean = data.get("parallel_clean")
        if parallel_clean is not None and not isinstance(parallel_clean, bool):
            raise CorruptCertificateEntry("parallel_clean must be bool/null")
        return cls(set(check_levels), validated, parallel_clean)


def _canonical(snapshot: Any) -> bytes:
    """The bytes a certificate's checksum is taken over."""
    return json.dumps(snapshot, sort_keys=True).encode("utf-8")


@dataclass
class MemoStats(DiskStats):
    hits: int = 0
    misses: int = 0
    records: int = 0


class CertificateMemo(DiskBacked):
    """Thread-safe fingerprint -> :class:`Certificate` map.

    With ``disk_dir`` set, records write through to a checksummed disk
    tier and memory misses fall through to it, so certificates survive
    process boundaries (see the module docstring).
    """

    def __init__(self, disk_dir: Optional[Path] = None) -> None:
        self.stats = MemoStats()
        self._store = DiskStore(
            disk_dir, "certificate", ("{}.cert.json",), self.stats,
            version=("schema", CERT_SCHEMA_VERSION),
            corrupt=CorruptCertificateEntry,
        )
        self.disk_dir = self._store.root
        self._entries: Dict[str, Certificate] = {}
        self._lock = threading.Lock()

    def get(self, fingerprint: str) -> Optional[Certificate]:
        with self._lock:
            cert = self._entries.get(fingerprint)
            if cert is not None:
                self.stats.hits += 1
                return cert
        cert = self._store.load(fingerprint, self._decode)
        with self._lock:
            if cert is not None:
                # A concurrent record may have widened the in-memory
                # entry meanwhile; never narrow it with the disk copy.
                cert = self._entries.setdefault(fingerprint, cert)
                self.stats.hits += 1
            else:
                self.stats.misses += 1
            return cert

    def peek(self, fingerprint: str) -> Optional[Certificate]:
        """Lookup without touching the hit/miss counters (memory only)."""
        with self._lock:
            return self._entries.get(fingerprint)

    def record(
        self,
        fingerprint: str,
        check_level: Optional[str] = None,
        validated: bool = False,
        parallel_clean: Optional[bool] = None,
    ) -> Certificate:
        """Widen (or create) the certificate for ``fingerprint``."""
        with self._lock:
            cert = self._entries.get(fingerprint)
            if cert is None:
                cert = Certificate()
                self._entries[fingerprint] = cert
                self.stats.records += 1
            if check_level and check_level != "off":
                cert.check_levels.add(check_level)
            if validated:
                cert.validated = True
            if parallel_clean is not None:
                cert.parallel_clean = parallel_clean
            snapshot = cert.to_json()
        if self.disk_dir is not None:
            self._store.store(fingerprint, json.dumps({
                **self._store.seal(_canonical(snapshot)), "cert": snapshot,
            }, sort_keys=True).encode("utf-8"))
        return cert

    def clear(self, disk: bool = False) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = MemoStats()
        self._store.clear(self.stats, disk)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _decode(self, path: Path) -> Certificate:
        wrapper = json.loads(path.read_bytes())
        snapshot = wrapper.get("cert")
        self._store.check(wrapper, _canonical(snapshot))
        return Certificate.from_json(snapshot)


_default_memo = CertificateMemo()
_default_lock = threading.Lock()


def default_memo() -> CertificateMemo:
    """The process-wide memo ``StencilCompiler.compile`` consults."""
    return _default_memo


def set_default_memo(memo: CertificateMemo) -> CertificateMemo:
    """Swap the process-wide memo (returns the previous one)."""
    global _default_memo
    with _default_lock:
        previous = _default_memo
        _default_memo = memo
    return previous
