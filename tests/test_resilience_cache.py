"""Disk-tier hardening of the kernel cache: corruption, skew, quarantine."""

import json

import numpy as np
import pytest

from repro.codegen.cache import KernelCache, module_fingerprint
from repro.codegen.executor import compile_function
from repro.codegen.python_backend import EMITTER_VERSION
from repro.core import frontend
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.core.stencil import gauss_seidel_5pt_2d
from repro.runtime.resilience import (
    FaultPlan,
    FaultSpec,
    clear_plan,
    injected,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    clear_plan()


def _lowered_module(shape=(8, 8)):
    module = frontend.build_stencil_kernel(
        gauss_seidel_5pt_2d(), shape, frontend.identity_body(4.0)
    )
    StencilCompiler(CompileOptions(vectorize=4)).lower(module)
    return module


def _populated_cache(tmp_path):
    """A persistent cache holding one entry; returns (cache, fingerprint)."""
    cache = KernelCache(disk_dir=tmp_path)
    module = _lowered_module()
    fp = module_fingerprint(module)
    cache.put(fp, compile_function(module))
    return cache, fp


def _fresh_view(tmp_path):
    """A second cache over the same directory (forces the disk path)."""
    return KernelCache(disk_dir=tmp_path)


class TestDiskRoundTrip:
    def test_disk_hit_promotes_and_runs(self, tmp_path):
        _, fp = _populated_cache(tmp_path)
        fresh = _fresh_view(tmp_path)
        kernel = fresh.get(fp)
        assert kernel is not None
        assert fresh.stats.disk_hits == 1
        x = np.random.default_rng(0).standard_normal((1, 8, 8))
        b = np.zeros_like(x)
        kernel.run(x, b, x.copy())

    def test_meta_records_checksum_and_emitter(self, tmp_path):
        _, fp = _populated_cache(tmp_path)
        meta = json.loads((tmp_path / f"{fp}.json").read_text())
        assert meta["emitter"] == EMITTER_VERSION
        assert len(meta["sha256"]) == 64
        assert meta["entry"] == "kernel"

    def test_no_tmp_files_left_behind(self, tmp_path):
        _populated_cache(tmp_path)
        assert not list(tmp_path.glob("*.tmp"))


class TestCorruptedEntries:
    def test_garbage_bytes_are_a_miss_not_a_crash(self, tmp_path):
        # The regression test demanded by the issue: flip the stored
        # source to garbage bytes; the load must quarantine + miss.
        _, fp = _populated_cache(tmp_path)
        (tmp_path / f"{fp}.py").write_bytes(b"\x00\xff garbage \x9c\x01")
        fresh = _fresh_view(tmp_path)
        assert fresh.get(fp) is None
        assert fresh.stats.quarantined == 1
        assert fresh.stats.misses == 1
        fp_logged, reason = fresh.quarantine_log[0]
        assert fp_logged == fp and reason  # decode or checksum failure

    def test_flipped_ascii_source_is_a_checksum_mismatch(self, tmp_path):
        _, fp = _populated_cache(tmp_path)
        path = tmp_path / f"{fp}.py"
        path.write_text(path.read_text() + "\n# flipped\n")
        fresh = _fresh_view(tmp_path)
        assert fresh.get(fp) is None
        assert "checksum mismatch" in fresh.quarantine_log[0][1]

    def test_truncated_source_quarantined(self, tmp_path):
        _, fp = _populated_cache(tmp_path)
        path = tmp_path / f"{fp}.py"
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        fresh = _fresh_view(tmp_path)
        assert fresh.get(fp) is None
        assert fresh.stats.quarantined == 1

    def test_emitter_version_skew_quarantined(self, tmp_path):
        _, fp = _populated_cache(tmp_path)
        meta_path = tmp_path / f"{fp}.json"
        meta = json.loads(meta_path.read_text())
        meta["emitter"] = "0-ancient"
        meta_path.write_text(json.dumps(meta))
        fresh = _fresh_view(tmp_path)
        assert fresh.get(fp) is None
        assert "version skew" in fresh.quarantine_log[0][1]

    def test_wrong_entry_point_quarantined(self, tmp_path):
        _, fp = _populated_cache(tmp_path)
        meta_path = tmp_path / f"{fp}.json"
        meta = json.loads(meta_path.read_text())
        meta["entry"] = "no_such_function"
        meta_path.write_text(json.dumps(meta))
        fresh = _fresh_view(tmp_path)
        assert fresh.get(fp) is None
        assert "entry point" in fresh.quarantine_log[0][1]

    def test_invalid_json_meta_quarantined(self, tmp_path):
        _, fp = _populated_cache(tmp_path)
        (tmp_path / f"{fp}.json").write_text("{not json")
        fresh = _fresh_view(tmp_path)
        assert fresh.get(fp) is None
        assert fresh.stats.quarantined == 1

    def test_missing_meta_with_source_is_a_clean_miss(self, tmp_path):
        # The metadata is the commit record: a source without it is an
        # entry that was never (or not yet) installed, not a corrupt one.
        _, fp = _populated_cache(tmp_path)
        (tmp_path / f"{fp}.json").unlink()
        fresh = _fresh_view(tmp_path)
        assert fresh.get(fp) is None
        assert fresh.stats.quarantined == 0
        # The orphan source stays put; the next put overwrites it.
        assert (tmp_path / f"{fp}.py").exists()
        fresh.put(fp, compile_function(_lowered_module()))
        assert _fresh_view(tmp_path).get(fp) is not None

    def test_reader_between_the_two_renames(self, tmp_path):
        # A writer has installed <fp>.py but not yet <fp>.json. The
        # reader must miss cleanly — not quarantine the half-installed
        # source — and the completed write must then hit.
        _, fp = _populated_cache(tmp_path)
        meta_path = tmp_path / f"{fp}.json"
        meta = meta_path.read_bytes()
        meta_path.unlink()
        reader = _fresh_view(tmp_path)
        assert reader.get(fp) is None
        meta_path.write_bytes(meta)  # the writer's second rename lands
        assert reader.get(fp) is not None
        assert reader.stats.quarantined == 0
        assert reader.stats.disk_hits == 1
        assert not (tmp_path / "quarantine").exists()

    def test_missing_both_files_is_a_clean_miss(self, tmp_path):
        fresh = _fresh_view(tmp_path)
        assert fresh.get("0" * 64) is None
        assert fresh.stats.quarantined == 0
        assert fresh.stats.misses == 1


class TestQuarantine:
    def test_bad_entry_moved_to_quarantine_dir(self, tmp_path):
        _, fp = _populated_cache(tmp_path)
        (tmp_path / f"{fp}.py").write_bytes(b"\x00 garbage")
        fresh = _fresh_view(tmp_path)
        fresh.get(fp)
        qdir = tmp_path / "quarantine"
        assert (qdir / f"{fp}.py").exists()
        assert (qdir / f"{fp}.json").exists()
        assert not (tmp_path / f"{fp}.py").exists()

    def test_bad_entry_fails_at_most_once(self, tmp_path):
        _, fp = _populated_cache(tmp_path)
        (tmp_path / f"{fp}.py").write_bytes(b"\x00 garbage")
        fresh = _fresh_view(tmp_path)
        assert fresh.get(fp) is None
        assert fresh.get(fp) is None  # now a clean miss, not re-quarantined
        assert fresh.stats.quarantined == 1

    def test_recompile_replaces_quarantined_entry(self, tmp_path):
        _, fp = _populated_cache(tmp_path)
        (tmp_path / f"{fp}.py").write_bytes(b"\x00 garbage")
        fresh = _fresh_view(tmp_path)
        assert fresh.get(fp) is None
        fresh.put(fp, compile_function(_lowered_module()))
        again = _fresh_view(tmp_path)
        assert again.get(fp) is not None

    def test_events_render_rs004(self, tmp_path):
        _, fp = _populated_cache(tmp_path)
        (tmp_path / f"{fp}.py").write_bytes(b"\x00 garbage")
        fresh = _fresh_view(tmp_path)
        fresh.get(fp)
        (event,) = fresh.events()
        assert event.code == "RS004"
        assert event.severity == "warning"
        assert fp[:12] in event.message


class TestInjectedDiskFaults:
    def test_disk_read_fault_degrades_to_miss(self, tmp_path):
        _, fp = _populated_cache(tmp_path)
        fresh = _fresh_view(tmp_path)
        with injected(FaultPlan([FaultSpec("cache.disk-read", at=1)])):
            assert fresh.get(fp) is None
        assert fresh.stats.disk_errors == 1
        # The entry itself is untouched: the next read succeeds.
        assert fresh.get(fp) is not None

    def test_disk_write_fault_degrades_to_memory_only(self, tmp_path):
        cache = KernelCache(disk_dir=tmp_path)
        module = _lowered_module()
        fp = module_fingerprint(module)
        with injected(FaultPlan([FaultSpec("cache.disk-write", at=1)])):
            cache.put(fp, compile_function(module))
        assert cache.stats.disk_errors == 1
        assert not (tmp_path / f"{fp}.py").exists()
        # The in-memory tier still serves the kernel.
        assert cache.get(fp) is not None
