"""The :class:`repro.runtime.diskstore.DiskStore` contract, run against
each of its four tenants through the tenant's own public API (the
native tier's shared objects need a host ``cc`` to make one).

What every disk tier promises, whatever it stores: an entry written by
one instance is read back by a fresh one; a truncated, corrupted or
version-skewed entry is a miss that is moved to ``quarantine/`` exactly
once and reported as RS004; a disk that refuses (unwritable root,
injected ``cache.disk-read`` / ``cache.disk-write`` fault) costs a
``disk_errors`` count and nothing else; concurrent writers of one key
leave no temp file and nothing for a reader to quarantine.

Tenant-specific behaviour (entry-point validation, certificate
widening, ``keep`` pruning, bit-identical resume) is tested beside each
tenant, not here.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.codegen.cache import KernelCache
from repro.codegen.certificates import CertificateMemo
from repro.codegen.executor import CompiledKernel
from repro.codegen.native import NativeStore
from repro.runtime.resilience import FaultPlan, FaultSpec, clear_plan, injected
from repro.runtime.resilience.checkpoint import CheckpointManager

KEY = "ab" * 32
SOURCE = "def kernel(*args):\n    return args\n" + "# pad\n" * 40


class KernelTenant:
    kind = "kernel"
    files = (f"{KEY}.py", f"{KEY}.json")  # payload first, commit record last

    def open(self, root):
        return KernelCache(disk_dir=root)

    def put(self, cache):
        namespace = {}
        exec(SOURCE, namespace)  # noqa: S102
        cache.put(KEY, CompiledKernel(SOURCE, namespace, "kernel"))

    def get(self, cache):
        return cache.get(KEY)

    def stats(self, cache):
        return cache.stats

    def flip(self, root):
        path = root / self.files[0]
        path.write_text(path.read_text().replace("# pad", "# dap", 1))

    def skew(self, root):
        path = root / self.files[1]
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "emitter": "0-ancient"}))


class CertificateTenant:
    kind = "certificate"
    files = (f"{KEY}.cert.json",)

    def open(self, root):
        return CertificateMemo(disk_dir=root)

    def put(self, memo):
        memo.record(KEY, check_level="after-pipeline", validated=True)

    def get(self, memo):
        return memo.get(KEY)

    def stats(self, memo):
        return memo.stats

    def flip(self, root):
        path = root / self.files[0]
        wrapper = json.loads(path.read_text())
        wrapper["cert"]["validated"] = False  # stale checksum
        path.write_text(json.dumps(wrapper))

    def skew(self, root):
        path = root / self.files[0]
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "schema": 999}))


class CheckpointTenant:
    kind = "checkpoint"
    files = ("ckpt_00000007.npz",)

    def open(self, root):
        return CheckpointManager(directory=root)

    def put(self, manager):
        manager.save(7, {"u": np.arange(64.0)})

    def get(self, manager):
        return manager.load_latest()

    def stats(self, manager):
        return manager._store.stats

    def flip(self, root):
        path = root / self.files[0]
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # array data: the zip CRC-32 trips
        path.write_bytes(bytes(blob))


class NativeTenant:
    kind = "native"
    files = (f"{KEY}.so", f"{KEY}.so.json")
    _blob = None

    def open(self, root):
        return NativeStore(root)

    def put(self, store):
        if NativeTenant._blob is None:  # one real shared object per run
            with tempfile.TemporaryDirectory() as tmp:
                (Path(tmp) / "k.c").write_text("int answer(void) { return 42; }\n")
                subprocess.run(["cc", "-shared", "-fPIC", "-o", "k.so", "k.c"],
                               cwd=tmp, check=True)
                NativeTenant._blob = (Path(tmp) / "k.so").read_bytes()
        store.put(KEY, NativeTenant._blob)

    def get(self, store):
        lib = store.get(KEY)
        assert lib is None or lib._cdll.answer() == 42
        return lib

    def stats(self, store):
        return store.stats

    def flip(self, root):
        path = root / self.files[0]
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

    def skew(self, root):
        path = root / self.files[1]
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "native": "0 -O9"}))


TENANTS = [KernelTenant(), CertificateTenant(), CheckpointTenant()]
if shutil.which("cc"):
    TENANTS.insert(2, NativeTenant())  # before the version-less checkpoints


@pytest.fixture(params=TENANTS, ids=lambda t: t.kind)
def tenant(request):
    yield request.param
    clear_plan()


def _populate(tenant, root):
    tenant.put(tenant.open(root))
    for name in tenant.files:
        assert (root / name).is_file()


def _assert_quarantined_once(tenant, root):
    reader = tenant.open(root)
    assert tenant.get(reader) is None
    assert tenant.stats(reader).quarantined == 1
    for name in tenant.files:
        assert not (root / name).exists()
        assert (root / "quarantine" / name).is_file()
    (event,) = reader.events()
    assert event.code == "RS004" and tenant.kind in event.message
    # Terminal: the same instance and a fresh one now miss cleanly.
    assert tenant.get(reader) is None
    assert tenant.stats(reader).quarantined == 1
    again = tenant.open(root)
    assert tenant.get(again) is None
    assert tenant.stats(again).quarantined == 0
    # ... and a rewrite installs a readable entry over the hole.
    tenant.put(again)
    assert tenant.get(tenant.open(root)) is not None


def test_round_trip_across_a_fresh_instance(tenant, tmp_path):
    _populate(tenant, tmp_path)
    assert not list(tmp_path.glob("*.tmp"))
    reader = tenant.open(tmp_path)
    assert tenant.get(reader) is not None
    stats = tenant.stats(reader)
    assert (stats.disk_hits, stats.disk_errors, stats.quarantined) == (1, 0, 0)


def test_never_written_is_a_clean_miss(tenant, tmp_path):
    reader = tenant.open(tmp_path / "never-created")
    assert tenant.get(reader) is None
    stats = tenant.stats(reader)
    assert (stats.disk_hits, stats.disk_errors, stats.quarantined) == (0, 0, 0)


def test_truncated_entry_quarantined_once(tenant, tmp_path):
    for name in tenant.files:  # the payload, then the commit record
        root = tmp_path / name
        _populate(tenant, root)
        path = root / name
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        _assert_quarantined_once(tenant, root)


def test_checksum_mismatch_quarantined_once(tenant, tmp_path):
    _populate(tenant, tmp_path)
    tenant.flip(tmp_path)
    _assert_quarantined_once(tenant, tmp_path)


# Not the checkpoints: an .npz carries no version field of ours (numpy
# owns the format), so there is nothing to skew.
@pytest.mark.parametrize("tenant", TENANTS[:-1], ids=lambda t: t.kind)
def test_version_skew_quarantined_once(tenant, tmp_path):
    _populate(tenant, tmp_path)
    tenant.skew(tmp_path)
    _assert_quarantined_once(tenant, tmp_path)


def test_unwritable_root_degrades_to_memory_only(tenant, tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory")
    writer = tenant.open(blocker / "store")  # mkdir must fail, even as root
    tenant.put(writer)
    assert tenant.stats(writer).disk_errors == 1
    if tenant.kind != "native":  # (whose memory tier is the builder's memo)
        assert tenant.get(writer) is not None  # the memory tier still serves
    assert blocker.read_text() == "not a directory"


def test_injected_write_fault_degrades_to_memory_only(tenant, tmp_path):
    writer = tenant.open(tmp_path)
    plan = FaultPlan([FaultSpec(
        "cache.disk-write", at=1, match={"kind": tenant.kind},
    )])
    with injected(plan):
        tenant.put(writer)
    assert plan.fired
    assert tenant.stats(writer).disk_errors == 1
    assert not any((tmp_path / name).exists() for name in tenant.files)
    if tenant.kind != "native":
        assert tenant.get(writer) is not None
    assert tenant.get(tenant.open(tmp_path)) is None


def test_injected_read_fault_is_a_miss_that_spares_the_entry(tenant, tmp_path):
    _populate(tenant, tmp_path)
    reader = tenant.open(tmp_path)
    plan = FaultPlan([FaultSpec(
        "cache.disk-read", at=1, match={"kind": tenant.kind},
    )])
    with injected(plan):
        assert tenant.get(reader) is None
    assert plan.fired
    stats = tenant.stats(reader)
    assert (stats.disk_errors, stats.quarantined) == (1, 0)
    assert tenant.get(reader) is not None


def test_eight_concurrent_writers_of_one_key(tenant, tmp_path):
    rounds, failures = 6, []

    def worker():
        try:
            mine = tenant.open(tmp_path)
            for _ in range(rounds):
                tenant.put(mine)
                assert tenant.stats(mine).disk_errors == 0, (
                    "a store swallowed an OSError or InjectedFault "
                    "(disk_errors), so it left nothing committed"
                )
                reader = tenant.open(tmp_path)
                assert tenant.get(reader) is not None
                assert tenant.stats(reader).quarantined == 0
            assert tenant.stats(mine).disk_errors == 0
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures
    assert not list(tmp_path.rglob("*.tmp"))
    assert not (tmp_path / "quarantine").exists()
    assert tenant.get(tenant.open(tmp_path)) is not None
