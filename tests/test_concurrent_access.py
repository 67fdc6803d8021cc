"""Concurrent writers on the shared disk tiers (PR 10).

The kernel cache, the certificate memo and the checkpoint manager all
write atomically (temp file + ``os.replace``) into directories that a
fleet of service workers — threads in one process, or separate
processes — may share. These tests hammer each tier from both kinds of
writer and assert the crash-safety invariants:

* readers never observe a torn entry (every read is a valid entry or a
  clean miss),
* nothing valid is ever quarantined, and a corrupt entry is moved
  aside at most once (no double-quarantine),
* the last write for a key wins and remains loadable afterwards.
"""

import json
import multiprocessing
import threading

import numpy as np

from repro.codegen.cache import KernelCache
from repro.codegen.certificates import CertificateMemo
from repro.codegen.executor import compile_function
from repro.core import frontend
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.core.stencil import gauss_seidel_5pt_2d
from repro.runtime.resilience.checkpoint import CheckpointManager

N_THREADS = 6
N_PROCS = 4
ROUNDS = 8
FINGERPRINTS = [c * 64 for c in "abcd"]


def _module():
    return frontend.build_stencil_kernel(
        gauss_seidel_5pt_2d(), (8, 8), frontend.identity_body(4.0)
    )


def _kernel():
    module = _module()
    StencilCompiler(CompileOptions(vectorize=4)).lower(module)
    return module, compile_function(module)


def _run_threads(worker, n=N_THREADS):
    errors = []

    def guarded(idx):
        try:
            worker(idx)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


def _run_processes(target, args_per_proc):
    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=target, args=args) for args in args_per_proc]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    codes = [p.exitcode for p in procs]
    assert all(c == 0 for c in codes), f"worker exit codes: {codes}"


# ---- kernel cache ---------------------------------------------------------


def _cache_process_worker(disk_dir, idx):
    module, kernel = _kernel()
    cache = KernelCache(disk_dir=disk_dir)
    for round_ in range(ROUNDS):
        fp = FINGERPRINTS[(idx + round_) % len(FINGERPRINTS)]
        cache.put(fp, kernel)
        fresh = KernelCache(disk_dir=disk_dir)
        got = fresh.get(FINGERPRINTS[(idx + round_ + 1) % len(FINGERPRINTS)])
        # A concurrent reader sees a valid entry or a clean miss —
        # never a quarantine (atomic writes leave no torn state).
        assert fresh.stats.quarantined == 0, fresh.quarantine_log
        if got is not None:
            assert callable(got)
    assert cache.stats.disk_errors == 0


class TestKernelCacheConcurrency:
    def test_threaded_writers_shared_instance(self, tmp_path):
        module, kernel = _kernel()
        cache = KernelCache(disk_dir=tmp_path)

        def worker(idx):
            for round_ in range(ROUNDS):
                fp = FINGERPRINTS[(idx + round_) % len(FINGERPRINTS)]
                cache.put(fp, kernel)
                assert cache.get(fp) is not None

        _run_threads(worker)
        assert cache.stats.quarantined == 0
        assert cache.stats.disk_errors == 0
        # Every fingerprint is durably readable by a new process.
        reborn = KernelCache(disk_dir=tmp_path)
        for fp in FINGERPRINTS:
            assert reborn.get(fp) is not None
        assert reborn.stats.quarantined == 0

    def test_threaded_writers_separate_instances(self, tmp_path):
        """Separate cache instances over one directory — the service's
        N-workers-one-disk shape."""
        module, kernel = _kernel()

        def worker(idx):
            cache = KernelCache(disk_dir=tmp_path)
            for round_ in range(ROUNDS):
                fp = FINGERPRINTS[(idx + round_) % len(FINGERPRINTS)]
                cache.put(fp, kernel)
                fresh = KernelCache(disk_dir=tmp_path)
                fresh.get(FINGERPRINTS[idx % len(FINGERPRINTS)])
                assert fresh.stats.quarantined == 0, fresh.quarantine_log

        _run_threads(worker)
        assert not (tmp_path / "quarantine").exists()

    def test_process_writers(self, tmp_path):
        _run_processes(
            _cache_process_worker,
            [(tmp_path, i) for i in range(N_PROCS)],
        )
        reborn = KernelCache(disk_dir=tmp_path)
        for fp in FINGERPRINTS:
            assert reborn.get(fp) is not None
        assert reborn.stats.quarantined == 0
        assert not (tmp_path / "quarantine").exists()

    def test_corrupt_entry_quarantined_at_most_once(self, tmp_path):
        module, kernel = _kernel()
        seed = KernelCache(disk_dir=tmp_path)
        for fp in FINGERPRINTS:
            seed.put(fp, kernel)
        victim = FINGERPRINTS[0]
        src = tmp_path / f"{victim}.py"
        src.write_text(src.read_text()[:40])  # torn entry

        def worker(idx):
            cache = KernelCache(disk_dir=tmp_path)
            for _ in range(ROUNDS):
                assert cache.get(victim) is None

        _run_threads(worker)
        # The entry was moved aside exactly once; the main dir is clean
        # and every healthy entry survived the stampede.
        qdir = tmp_path / "quarantine"
        assert not src.exists()
        assert len(list(qdir.glob(f"{victim}*"))) <= 2  # .py + .json
        reborn = KernelCache(disk_dir=tmp_path)
        for fp in FINGERPRINTS[1:]:
            assert reborn.get(fp) is not None
        assert reborn.stats.quarantined == 0


# ---- certificate memo -----------------------------------------------------


def _memo_process_worker(disk_dir, idx):
    memo = CertificateMemo(disk_dir=disk_dir)
    levels = ["after-pipeline", "after-every-pass"]
    for round_ in range(ROUNDS):
        fp = FINGERPRINTS[(idx + round_) % len(FINGERPRINTS)]
        memo.record(
            fp,
            check_level=levels[round_ % 2],
            validated=bool(round_ % 2),
        )
        fresh = CertificateMemo(disk_dir=disk_dir)
        cert = fresh.get(fp)
        assert cert is not None
        assert fresh.stats.quarantined == 0, fresh.quarantine_log
    assert memo.stats.disk_errors == 0


class TestCertificateMemoConcurrency:
    def test_threaded_widening_converges(self, tmp_path):
        memo = CertificateMemo(disk_dir=tmp_path)

        def worker(idx):
            for round_ in range(ROUNDS):
                fp = FINGERPRINTS[(idx + round_) % len(FINGERPRINTS)]
                if idx % 2:
                    memo.record(fp, check_level="after-pipeline")
                else:
                    memo.record(fp, validated=True)
                assert memo.get(fp) is not None

        _run_threads(worker)
        # Widening from racing writers converges to the union.
        reborn = CertificateMemo(disk_dir=tmp_path)
        for fp in FINGERPRINTS:
            cert = reborn.get(fp)
            assert cert.covers_gate("after-pipeline")
            assert cert.validated
        assert reborn.stats.quarantined == 0

    def test_threaded_separate_memos_never_tear(self, tmp_path):
        def worker(idx):
            memo = CertificateMemo(disk_dir=tmp_path)
            for round_ in range(ROUNDS):
                fp = FINGERPRINTS[(idx + round_) % len(FINGERPRINTS)]
                memo.record(fp, validated=True)
                fresh = CertificateMemo(disk_dir=tmp_path)
                cert = fresh.get(fp)
                assert cert is not None and cert.validated
                assert fresh.stats.quarantined == 0, fresh.quarantine_log

        _run_threads(worker)
        # Every disk entry is internally consistent (checksum matches).
        for path in tmp_path.glob("*.cert.json"):
            wrapper = json.loads(path.read_text())
            payload = json.dumps(wrapper["cert"], sort_keys=True)
            import hashlib

            digest = hashlib.sha256(payload.encode()).hexdigest()
            assert wrapper["sha256"] == digest

    def test_process_writers(self, tmp_path):
        _run_processes(
            _memo_process_worker,
            [(tmp_path, i) for i in range(N_PROCS)],
        )
        reborn = CertificateMemo(disk_dir=tmp_path)
        for fp in FINGERPRINTS:
            assert reborn.get(fp) is not None
        assert reborn.stats.quarantined == 0
        assert not (tmp_path / "quarantine").exists()


# ---- checkpoint manager ---------------------------------------------------


def _checkpoint_process_worker(directory, idx):
    mgr = CheckpointManager(every=1, directory=directory, keep=50)
    for step in range(1, ROUNDS + 1):
        arrays = {"state": np.full((16, 16), float(step), dtype=np.float64)}
        mgr.save(step, arrays)


class TestCheckpointConcurrency:
    def test_threaded_writers_latest_always_loadable(self, tmp_path):
        def worker(idx):
            mgr = CheckpointManager(every=1, directory=tmp_path, keep=50)
            for step in range(1, ROUNDS + 1):
                mgr.save(
                    step,
                    {"state": np.full((16, 16), float(step))},
                )

        _run_threads(worker)
        fresh = CheckpointManager(every=1, directory=tmp_path, keep=50)
        cp = fresh.load_latest()
        assert cp is not None
        # The loaded checkpoint is self-consistent: its arrays carry
        # exactly the value its step number promises (no torn mix).
        assert np.all(cp.arrays["state"] == float(cp.step))

    def test_process_writers_resume_is_consistent(self, tmp_path):
        _run_processes(
            _checkpoint_process_worker,
            [(tmp_path, i) for i in range(N_PROCS)],
        )
        fresh = CheckpointManager(every=1, directory=tmp_path, keep=50)
        cp = fresh.load_latest()
        assert cp is not None
        assert cp.step == ROUNDS
        assert np.all(cp.arrays["state"] == float(cp.step))


# ---- the service over a shared disk cache ---------------------------------


class TestServiceSharedCache:
    def test_two_services_one_disk_cache(self, tmp_path):
        """Two service instances (think: two processes) sharing a disk
        cache dir: the second gets warm hits off the first's work."""
        import asyncio

        from repro.service import CompileService, ServiceConfig

        async def scenario():
            first = CompileService(
                ServiceConfig(),
                cache=KernelCache(disk_dir=tmp_path),
            )
            r1 = await first.compile(_module())
            await first.drain()
            second = CompileService(
                ServiceConfig(),
                cache=KernelCache(disk_dir=tmp_path),
            )
            r2 = await second.compile(_module())
            await second.drain()
            return first, second, r1, r2

        first, second, r1, r2 = asyncio.run(scenario())
        assert r1.ok and r2.ok
        assert r1.fingerprint == r2.fingerprint
        assert second.stats.compiles_started == 0
        assert second.stats.cache_hits == 1
