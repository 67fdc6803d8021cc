"""Tests for the content-addressed compiled-kernel cache."""

import numpy as np
import pytest

from repro.codegen.cache import (
    KernelCache,
    default_cache,
    module_fingerprint,
    set_default_cache,
)
from repro.codegen.executor import compile_function
from repro.codegen.python_backend import BackendError
from repro.core import frontend
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.core.stencil import gauss_seidel_5pt_2d
from repro.baselines import naive


def _build_module(shape=(8, 8), d=4.0):
    return frontend.build_stencil_kernel(
        gauss_seidel_5pt_2d(), shape, frontend.identity_body(d)
    )


def _lowered_module(shape=(8, 8), d=4.0):
    module = _build_module(shape, d)
    StencilCompiler(CompileOptions(vectorize=4)).lower(module)
    return module


def _inputs(shape=(8, 8), seed=0):
    rng = np.random.default_rng(seed)
    full = (1,) + tuple(shape)
    x = rng.standard_normal(full)
    b = rng.standard_normal(full)
    return x, b, x.copy()


class TestFingerprint:
    def test_deterministic(self):
        f1 = module_fingerprint(_lowered_module(), "kernel", "opts")
        f2 = module_fingerprint(_lowered_module(), "kernel", "opts")
        assert f1 == f2
        assert len(f1) == 64  # sha256 hex

    def test_sensitive_to_every_component(self):
        module = _lowered_module()
        base = module_fingerprint(module, "kernel", "opts")
        assert module_fingerprint(_lowered_module(d=5.0), "kernel", "opts") != base
        assert module_fingerprint(module, "other", "opts") != base
        assert module_fingerprint(module, "kernel", "opts,O0") != base

    def test_stale_backend_version_invalidates(self):
        module = _lowered_module()
        current = module_fingerprint(module, "kernel", "opts")
        old = module_fingerprint(module, "kernel", "opts", backend_version="0-old")
        assert current != old
        cache = KernelCache()
        cache.put(old, compile_function(module))
        # After an emitter bump the fingerprint changes, so the stale
        # entry is simply unreachable: the new lookup misses.
        assert cache.get(current) is None
        assert cache.stats.misses == 1

    def test_disk_entry_of_the_previous_emitter_is_a_clean_miss(self, tmp_path):
        """A ``<fp>.py``/``.json`` pair persisted by the previous emitter
        version is never looked at by the current one: a miss, not a
        quarantine, file intact."""
        import json

        from repro.codegen.python_backend import EMITTER_VERSION

        previous = str(int(EMITTER_VERSION) - 1)
        assert previous != EMITTER_VERSION
        module = _lowered_module()
        old = module_fingerprint(module, "kernel", "opts", backend_version=previous)
        KernelCache(disk_dir=tmp_path).put(old, compile_function(module))
        meta_path = tmp_path / f"{old}.json"
        meta_path.write_text(
            json.dumps({**json.loads(meta_path.read_text()), "emitter": previous})
        )
        restarted = KernelCache(disk_dir=tmp_path)
        assert restarted.get(module_fingerprint(module, "kernel", "opts")) is None
        assert restarted.stats.misses == 1
        assert restarted.stats.quarantined == 0 and not restarted.quarantine_log
        assert meta_path.exists() and (tmp_path / f"{old}.py").exists()


class TestKernelCacheLRU:
    def _kernel(self):
        return compile_function(_lowered_module())

    def test_hit_miss_and_stats(self):
        cache = KernelCache()
        kernel = self._kernel()
        assert cache.get("fp") is None
        cache.put("fp", kernel)
        assert cache.get("fp") is kernel
        assert "fp" in cache and len(cache) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = KernelCache(max_entries=2)
        kernel = self._kernel()
        cache.put("a", kernel)
        cache.put("b", kernel)
        assert cache.get("a") is kernel  # refresh "a": "b" is now oldest
        cache.put("c", kernel)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_clear_resets_entries_and_stats(self):
        cache = KernelCache()
        cache.put("fp", self._kernel())
        cache.get("fp")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 0 and cache.stats.puts == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            KernelCache(max_entries=0)


class TestDiskPersistence:
    def test_roundtrip_through_disk(self, tmp_path):
        module = _lowered_module()
        fingerprint = module_fingerprint(module)
        writer = KernelCache(disk_dir=tmp_path)
        writer.put(fingerprint, compile_function(module))
        assert (tmp_path / f"{fingerprint}.py").is_file()
        assert (tmp_path / f"{fingerprint}.json").is_file()

        # A fresh cache (fresh process stand-in) misses in memory, loads
        # the stored source from disk and promotes it into the LRU.
        reader = KernelCache(disk_dir=tmp_path)
        kernel = reader.get(fingerprint)
        assert kernel is not None
        assert reader.stats.disk_hits == 1
        assert fingerprint in reader  # promoted

        x, b, y = _inputs()
        expected = naive.stencil_sweep_python(
            x, b, y.copy(), gauss_seidel_5pt_2d(), naive.identity_scalar_body(4.0)
        )
        (out,) = kernel(x, b, y)
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-12)

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = KernelCache(disk_dir=tmp_path)
        (tmp_path / "deadbeef.py").write_text("x = 1\n")
        (tmp_path / "deadbeef.json").write_text("{not json")
        assert cache.get("deadbeef") is None

    def test_clear_disk(self, tmp_path):
        cache = KernelCache(disk_dir=tmp_path)
        cache.put("fp", compile_function(_lowered_module()))
        cache.clear(disk=True)
        assert list(tmp_path.glob("*.py")) == []


class TestCompileFunctionIntegration:
    def test_cache_kwarg_short_circuits_emission(self):
        cache = KernelCache()
        module = _lowered_module()
        k1 = compile_function(module, cache=cache, options_key="k")
        k2 = compile_function(module, cache=cache, options_key="k")
        assert k2 is k1
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_missing_entry_raises_backend_error(self):
        module = _lowered_module()
        with pytest.raises(BackendError, match="no_such_fn"):
            compile_function(module, entry="no_such_fn")

    def test_compiled_kernel_repr(self):
        kernel = compile_function(_lowered_module())
        text = repr(kernel)
        assert "kernel" in text
        assert f"{len(kernel.source)} chars" in text


class TestStencilCompilerIntegration:
    def test_compile_uses_default_cache(self):
        previous = set_default_cache(KernelCache())
        try:
            cache = default_cache()
            options = CompileOptions(subdomain_sizes=(4, 4), vectorize=4)
            k1 = StencilCompiler(options).compile(_build_module())
            assert cache.stats.misses == 1 and cache.stats.puts == 1
            k2 = StencilCompiler(options).compile(_build_module())
            assert k2 is k1
            assert cache.stats.hits == 1
        finally:
            set_default_cache(previous)

    def test_distinct_options_do_not_collide(self):
        previous = set_default_cache(KernelCache())
        try:
            o_scalar = CompileOptions(vectorize=0)
            o_vector = CompileOptions(vectorize=4)
            k_scalar = StencilCompiler(o_scalar).compile(_build_module())
            k_vector = StencilCompiler(o_vector).compile(_build_module())
            assert k_scalar is not k_vector
            assert default_cache().stats.misses == 2

            x, b, y = _inputs()
            (out_scalar,) = k_scalar(x, b, y.copy())
            (out_vector,) = k_vector(x, b, y.copy())
            # Scalar vs. vectorized lowering reassociates sums, so agree
            # only up to rounding (bit-exactness is across opt levels).
            np.testing.assert_allclose(out_scalar, out_vector, rtol=1e-12)
        finally:
            set_default_cache(previous)

    def test_use_cache_false_bypasses_cache(self):
        previous = set_default_cache(KernelCache())
        try:
            options = CompileOptions(use_cache=False)
            StencilCompiler(options).compile(_build_module())
            stats = default_cache().stats
            assert stats.hits == 0 and stats.misses == 0 and stats.puts == 0
        finally:
            set_default_cache(previous)
