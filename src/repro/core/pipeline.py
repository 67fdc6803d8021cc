"""The end-to-end compilation pipeline: the ``StencilCompiler``.

Assembles the paper's transformations in their canonical order:

1. sub-domain tiling with wavefront groups (§2.3, §3.4);
2. producer/consumer fusion into the sub-domain loop (§2.2, §3.3);
3. cache tiling inside each sub-domain (§2.1);
4. producer fusion into the cache-tile loop (B recomputed per tile);
5. lowering with partial vectorization (§2.4, §3.5) or scalar lowering;
6. for the scalar configuration, structured ops (linalg.generic,
   faceIteratorOp) are also lowered to scalar loops so "no vectorization"
   means *no* vectorization anywhere, matching the ablation of §4.2.

The four ablation configurations of Fig. 13 map to options as:

========  =========================================================
 Tr1      ``parallel`` (sub-domain tiling + groups), no fusion, scalar
 Tr2      Tr1 + ``fuse`` + cache ``tile_sizes``
 Tr3      Tr1 + ``vectorize``
 Tr4      everything (the default production pipeline)
========  =========================================================
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.codegen.executor import CompiledKernel, compile_function
from repro.core.fusion import FuseProducersPass
from repro.core.lowering import LowerStencilsPass, LowerStructuredPass
from repro.core.optimize import optimization_pipeline
from repro.core.scheduling import extract_schedule_stamps
from repro.core.tiling import TileStencilsPass
from repro.core.vectorization import VectorizeStencilsPass
from repro.ir import ModuleOp, PassManager


@dataclass
class CompileOptions:
    """Configuration of the code-generation strategy.

    Attributes
    ----------
    subdomain_sizes:
        Sub-domain (outer) tile sizes per space dimension; enables the
        sub-domain level. ``None`` disables it.
    tile_sizes:
        Cache-blocking (inner) tile sizes; legalized per stencil pattern
        (dimensions carrying negative dependence distances are forced to
        size 1 as in §2.1). ``None`` disables cache tiling.
    fuse:
        Pull structured producers (and pointwise consumers) into the
        tile loops, recomputing ``B`` per tile.
    vectorize:
        Vectorization factor ``VF``; ``0`` selects the scalar lowering
        everywhere (stencils *and* structured ops).
    parallel:
        Attach wavefront groups (``cfd.get_parallel_blocks``) to the
        sub-domain loop so independent sub-domains may run concurrently.
    opt_level:
        Midend optimization level (:mod:`repro.core.optimize`): ``0``
        disables the optimizer, ``1`` runs constant folding + DCE, ``2``
        (the default) adds CSE and loop-invariant code motion. All levels
        produce bit-identical numerics.
    use_cache:
        Consult the process-wide compiled-kernel cache
        (:mod:`repro.codegen.cache`) in :meth:`StencilCompiler.compile`;
        a hit skips the whole pass pipeline and emission.
    verify_each:
        Run the IR verifier between passes (on by default; benchmarks
        may disable it to measure pure compile time).
    check_level:
        Static-analysis gating (:mod:`repro.analysis`): ``"off"`` (the
        default) runs no semantic checks, ``"after-pipeline"`` analyzes
        the lowered module once at the end of the pass pipeline, and
        ``"after-every-pass"`` re-analyzes after each pass (the setting
        the lint CLI and the mutation tests use). Any error-severity
        diagnostic raises :class:`~repro.analysis.analyzer.AnalysisError`.
    validate_passes:
        Per-pass translation validation (:mod:`repro.analysis.tv`): the
        pipeline captures every stencil site's reference schedule before
        the first pass and re-checks dependence preservation after each
        pass, raising
        :class:`~repro.analysis.tv.TranslationValidationError` with a
        concrete witness when a pass miscompiles. Timed under
        ``"translation-validate"`` in the pass-manager report.
    verify_engine:
        Decision procedure of every analysis gate and of the translation
        validator: ``"auto"`` (symbolic affine engines first, silent
        fallback to enumeration), ``"symbolic"`` (affine forced, precise
        diagnostics on fallback), ``"enumerated"`` (legacy per-instance
        engines). ``None`` defers to the ``REPRO_VERIFY`` environment
        variable, then ``auto``.
    machine:
        Machine model preset name for every performance client — the
        static performance prover, the perf lint and the autotuner's
        static costing (see
        :data:`repro.machine.model.MACHINE_PRESETS`; ``"host"`` forces
        host calibration). ``None`` defers to the ``REPRO_MACHINE``
        environment variable, then the host-calibrated model. Part of
        the cache fingerprint like every other option.
    frontend_version:
        Version stamp of the frontend that produced the module
        (:data:`repro.frontend.FRONTEND_VERSION`;
        ``StencilProgram.compile`` fills it in). ``None`` for
        hand-built IR. Carried as an option field so the mechanical
        :meth:`cache_key` audit below folds it into the kernel-cache
        fingerprint — a frontend behaviour change can never alias a
        ``@stencil``-built kernel to a stale cached one.
    """

    subdomain_sizes: Optional[Tuple[int, ...]] = None
    tile_sizes: Optional[Tuple[int, ...]] = None
    fuse: bool = False
    vectorize: int = 8
    parallel: bool = False
    opt_level: int = 2
    use_cache: bool = True
    verify_each: bool = True
    check_level: str = "off"
    validate_passes: bool = False
    verify_engine: Optional[str] = None
    machine: Optional[str] = None
    frontend_version: Optional[str] = None

    def describe(self) -> str:
        parts = []
        if self.subdomain_sizes:
            parts.append(
                f"subdomains={'x'.join(map(str, self.subdomain_sizes))}"
                + ("+groups" if self.parallel else "")
            )
        if self.tile_sizes:
            parts.append(f"tiles={'x'.join(map(str, self.tile_sizes))}")
        if self.fuse:
            parts.append("fuse")
        parts.append(f"vf={self.vectorize}" if self.vectorize else "scalar")
        parts.append(f"O{self.opt_level}")
        return ",".join(parts)

    def cache_key(self) -> str:
        """The options component of the kernel-cache fingerprint.

        Built mechanically from *every* dataclass field except
        ``use_cache`` (which selects whether the cache is consulted but
        cannot change what is compiled), so a newly added option can
        never silently alias two distinct configurations to one cached
        kernel. ``describe()`` stays human-oriented and lossy; this is
        the lossless form.
        """
        parts = []
        for f in dataclasses.fields(self):
            if f.name == "use_cache":
                continue
            parts.append(f"{f.name}={getattr(self, f.name)!r}")
        return ";".join(parts)


#: The ablation configurations of §4.2 (Fig. 13), parameterized by sizes.
def ablation_options(
    name: str,
    subdomain_sizes: Tuple[int, ...],
    tile_sizes: Tuple[int, ...],
    vf: int = 8,
) -> CompileOptions:
    """Tr1..Tr4 of Fig. 13."""
    configs = {
        "Tr1": CompileOptions(
            subdomain_sizes=subdomain_sizes, parallel=True, vectorize=0
        ),
        "Tr2": CompileOptions(
            subdomain_sizes=subdomain_sizes,
            tile_sizes=tile_sizes,
            fuse=True,
            parallel=True,
            vectorize=0,
        ),
        "Tr3": CompileOptions(
            subdomain_sizes=subdomain_sizes, parallel=True, vectorize=vf
        ),
        "Tr4": CompileOptions(
            subdomain_sizes=subdomain_sizes,
            tile_sizes=tile_sizes,
            fuse=True,
            parallel=True,
            vectorize=vf,
        ),
    }
    if name not in configs:
        raise ValueError(f"unknown ablation configuration {name!r}")
    return configs[name]


class StencilCompiler:
    """Drives a module through the full pipeline down to a compiled
    Python/NumPy kernel."""

    def __init__(self, options: Optional[CompileOptions] = None) -> None:
        self.options = options or CompileOptions()
        self.pass_manager: Optional[PassManager] = None

    def build_pipeline(
        self, skip_gate: bool = False, skip_validation: bool = False
    ) -> PassManager:
        """Assemble the pass pipeline.

        ``skip_gate`` / ``skip_validation`` drop the analysis gate and
        the translation validator even when the options request them —
        :meth:`compile` passes these when the certificate memo already
        holds a clean record for the module's fingerprint.
        """
        o = self.options
        gate = None
        if o.check_level != "off":
            # Imported lazily: repro.analysis depends on the lowering and
            # tiling passes this module also imports.
            from repro.analysis.analyzer import CHECK_LEVELS, AnalysisGate

            if o.check_level not in CHECK_LEVELS:
                raise ValueError(
                    f"unknown check_level {o.check_level!r}; "
                    f"expected one of {CHECK_LEVELS}"
                )
            if not skip_gate:
                gate = AnalysisGate(fail_fast=True, engine=o.verify_engine)
        validator = None
        if o.validate_passes and not skip_validation:
            from repro.analysis.tv import TranslationValidator

            validator = TranslationValidator(
                fail_fast=True, engine=o.verify_engine
            )
        pm = PassManager(
            verify_each=o.verify_each,
            gate=gate,
            gate_each=o.check_level == "after-every-pass",
            validator=validator,
        )
        level = 0
        if o.subdomain_sizes:
            pm.add(
                TileStencilsPass(
                    o.subdomain_sizes, with_groups=o.parallel, level=level
                )
            )
            level += 1
            if o.fuse:
                pm.add(FuseProducersPass())
        if o.tile_sizes:
            pm.add(TileStencilsPass(o.tile_sizes, level=level))
            level += 1
            if o.fuse:
                pm.add(FuseProducersPass(consumers=False))
        if o.vectorize:
            pm.add(VectorizeStencilsPass(o.vectorize))
        else:
            pm.add(LowerStencilsPass())
            pm.add(LowerStructuredPass())
        for opt_pass in optimization_pipeline(o.opt_level):
            pm.add(opt_pass)
        return pm

    def lower(
        self,
        module: ModuleOp,
        skip_gate: bool = False,
        skip_validation: bool = False,
    ) -> ModuleOp:
        """Run the transformation pipeline in place; returns the module."""
        self.pass_manager = self.build_pipeline(
            skip_gate=skip_gate, skip_validation=skip_validation
        )
        self.pass_manager.run(module)
        return module

    def compile(self, module: ModuleOp, entry: str = "kernel") -> CompiledKernel:
        """Lower and compile; the module is consumed (transformed).

        With ``options.use_cache`` (the default) the *unlowered* module is
        fingerprinted against the process-wide kernel cache first: a hit
        returns the cached kernel without running any pass, so repeated
        configurations — autotuner sweeps, the Fig. 11-13 benches — skip
        the pipeline and emission entirely. On a hit the module is
        returned untransformed.

        Verification is pay-as-you-go: the same fingerprint also keys
        the process-wide certificate memo
        (:mod:`repro.codegen.certificates`). When the memo already holds
        a clean record covering the requested ``check_level`` /
        ``validate_passes``, the gate and the validator are skipped even
        though the kernel cache missed — re-verifying an
        already-certified module proves nothing new.
        """
        o = self.options
        fingerprint, cert = self.certificate(module, entry, always=o.use_cache)
        if o.use_cache:
            from repro.codegen.cache import default_cache

            cache = default_cache()
            kernel = cache.get(fingerprint)
            if kernel is not None:
                return kernel
        self.lower(module, *self.verification_skips(cert))
        kernel = self.finish(module, entry, fingerprint, cert)
        if o.use_cache:
            cache.put(fingerprint, kernel)
        return kernel

    # ---- shared with repro.runtime.resilience.driver.ResilientCompiler ---

    def certificate(
        self, module: ModuleOp, entry: str = "kernel", always: bool = False
    ):
        """``(fingerprint, certificate or None)`` of the unlowered module
        under these options, from the process-wide memo — ``(None,
        None)`` when the options ask for nothing a certificate records,
        unless ``always``."""
        o = self.options
        if not (always or o.parallel or o.validate_passes or o.check_level != "off"):
            return None, None
        from repro.codegen.cache import module_fingerprint
        from repro.codegen.certificates import default_memo

        fingerprint = module_fingerprint(module, entry, o.cache_key())
        return fingerprint, default_memo().get(fingerprint)

    def verification_skips(self, cert) -> Tuple[bool, bool]:
        """``(skip_gate, skip_validation)``: which requested checks
        ``cert`` already covers."""
        o = self.options
        if cert is None:
            return False, False
        return (
            o.check_level != "off" and cert.covers_gate(o.check_level),
            o.validate_passes and cert.validated,
        )

    def finish(
        self,
        lowered: ModuleOp,
        entry: str = "kernel",
        fingerprint: Optional[str] = None,
        cert=None,
    ) -> CompiledKernel:
        """Everything after lowering: emit, then widen the certificate
        of ``fingerprint`` (if the caller looked one up) with what this
        compile proved. With ``options.parallel`` the lowered module
        must also pass the race analyzer (or carry a certificate that it
        did) before the kernel is certified for multi-threaded wavefront
        dispatch; an IP-diagnostic leaves it uncertified (the runtime
        then runs its groups sequentially and records RS011). The static
        wavefront schedules are stamped onto ``kernel.schedule``.
        """
        o = self.options
        skip_gate, skip_tv = self.verification_skips(cert)
        kernel = compile_function(lowered, entry)
        parallel_clean = None
        if o.parallel:
            kernel.schedule = extract_schedule_stamps(lowered)
            if cert is not None and cert.parallel_clean is not None:
                parallel_clean = cert.parallel_clean
            elif o.check_level != "off":
                # The gate already analyzed this module (or a certificate
                # says it did) and raised on any error — clean by proof.
                parallel_clean = True
            else:
                report = self._race_check(lowered)
                parallel_clean = not report.has_errors
                kernel.parallel_diagnostics = report.errors
            if parallel_clean:
                kernel.certify_parallel()
        if fingerprint is not None:
            from repro.codegen.certificates import default_memo

            default_memo().record(
                fingerprint,
                check_level=None if skip_gate else o.check_level,
                validated=o.validate_passes and not skip_tv,
                parallel_clean=parallel_clean,
            )
        return kernel

    @staticmethod
    def _race_check(lowered: ModuleOp):
        """The mandatory parallel legality gate: the PR-2 analyzers on
        the lowered module (attribute walks only — the expensive probe
        cross-check and the memory sweep stay out of the hot path)."""
        from repro.analysis.analyzer import analyze_module

        return analyze_module(lowered, cross_check=False, memory=False)
