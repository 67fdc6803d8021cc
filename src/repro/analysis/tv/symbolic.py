"""Symbolic (per-dependence-class) translation validation.

The enumerated validator (:mod:`repro.analysis.tv.extract`) timestamps
every statement instance — 10k–17k per snapshot on the paper's kernels —
even though the schedules our lowerings emit are *uniform*: within one
loop nest, every cell's timestamp is the same affine function of the
cell. This module exploits that. A site's instance map is represented as
a small set of :class:`Piece` objects

* ``dims`` — per space dimension an arithmetic progression
  ``(start, step, count)`` of absolute cell coordinates,
* ``vs`` — the variable indices written,
* ``ts`` — the timestamp, each component either a constant (tile
  prefixes, op positions) or a :class:`RatForm`, an integer-valued
  rational-affine function of the cell,
* ``mult`` — how many times each covered ``(cell, v)`` is written,

and the dependence checks become algebra over pieces:

* **TV003** coverage by inclusion–exclusion over clipped progressions:
  duplicate writes are a non-empty pairwise intersection (or
  ``mult > 1``), missing writes a volume deficit, out-of-box writes a
  clip loss;
* **TV001/TV002/TV007** by a lexicographic walk over each piece pair's
  *joint domain* (per-dimension progression intersection via gcd/CRT):
  within a pair, the difference of two timestamp components is an affine
  function of the cell whose sign over an AP box is decided exactly from
  its corners — for the common same-nest case it is a constant, so the
  whole dependence class is decided with a handful of integer
  comparisons, independent of the mesh.

Anything non-uniform (mixed-sign component differences, unsupported
index shapes, piece blow-ups) raises :class:`SymbolicUnsupported`; the
validator falls back to enumeration for exactly that site. A detected
violation is also re-materialized through the enumerated extractor so
witness messages stay byte-identical with the legacy path; only when the
mesh is too large to enumerate does the checker synthesize its witness
from the affine counterexample point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import Dict, List, Optional, Tuple

from repro.analysis.absint.interval import INTERVALS
from repro.analysis.tv.extract import (
    ExtractionUnsupported,
    InstanceExtractor,
    SiteRef,
)
from repro.ir import indexing
from repro.ir.operation import Operation
from repro.ir.schedule import (
    AFTER,
    BEFORE,
    CONCURRENT,
    PAR,
    SEQ,
    LinearForm,
    render_timestamp,
    resolve_linear,
)
from repro.ir.values import OpResult

#: Cap on pieces per site; past this, symbolic validation degrades to
#: enumeration (one piece per loop nest anchor per tile — real pipelines
#: sit far below this).
MAX_SITE_PIECES = 4096

#: An arithmetic progression ``start + j*step`` for ``j in [0, count)``,
#: normalized to ``step >= 1``.
AP = Tuple[int, int, int]


class SymbolicUnsupported(Exception):
    """This site's schedule is not uniform enough to validate
    symbolically (the caller falls back to enumeration)."""


def _ap(start: int, step: int, count: int) -> AP:
    if count <= 0:
        return (start, 1, 0)
    if count == 1:
        return (start, 1, 1)
    if step < 0:
        return (start + (count - 1) * step, -step, count)
    if step == 0:
        raise SymbolicUnsupported("zero-step progression")
    return (start, step, count)


def ap_last(ap: AP) -> int:
    return ap[0] + (ap[2] - 1) * ap[1]


def ap_clip(ap: AP, lo: int, hi: int) -> AP:
    """Restrict to values in ``[lo, hi)``."""
    start, step, count = ap
    if count == 0:
        return ap
    j_lo = max(0, -(-(lo - start) // step))
    j_hi = min(count - 1, (hi - 1 - start) // step)
    if j_lo > j_hi:
        return (start, 1, 0)
    return (start + j_lo * step, step, j_hi - j_lo + 1)


def ap_shift(ap: AP, off: int) -> AP:
    return (ap[0] + off, ap[1], ap[2])


def ap_intersect(a: AP, b: AP) -> AP:
    """The common values of two progressions (gcd/CRT)."""
    if a[2] == 0 or b[2] == 0:
        return (a[0], 1, 0)
    sa, sb = a[1], b[1]
    if sa == 1 and sb == 1:  # contiguous ranges: plain interval overlap
        lo = max(a[0], b[0])
        hi = min(a[0] + a[2], b[0] + b[2]) - 1
        if lo > hi:
            return (a[0], 1, 0)
        return (lo, 1, hi - lo + 1)
    g = gcd(sa, sb)
    if (b[0] - a[0]) % g != 0:
        return (a[0], 1, 0)
    # Solve a0 + i*sa == b0 + j*sb: i == (b0 - a0)/g * inv(sa/g) mod sb/g
    m = sb // g
    i0 = ((b[0] - a[0]) // g * pow(sa // g, -1, m)) % m if m > 1 else 0
    start = a[0] + i0 * sa
    step = sa // g * sb  # lcm
    lo = max(a[0], b[0])
    hi = min(ap_last(a), ap_last(b))
    if start < lo:
        start += -(-(lo - start) // step) * step
    if start > hi:
        return (a[0], 1, 0)
    return (start, step, (hi - start) // step + 1)


def ap_volume(dims: Tuple[AP, ...]) -> int:
    v = 1
    for ap in dims:
        v *= ap[2]
    return v


@dataclass(frozen=True)
class RatForm:
    """``(const + sum(coeffs[d] * cell[d])) / den`` — integral on the
    domain it is used on; ``den >= 1``."""

    const: int
    coeffs: Tuple[Tuple[int, int], ...] = ()
    den: int = 1

    @staticmethod
    def make(const: int, coeffs: Dict[int, int], den: int) -> "RatForm":
        if den < 0:
            const, den = -const, -den
            coeffs = {d: -c for d, c in coeffs.items()}
        if den == 0:
            raise SymbolicUnsupported("zero-denominator timestamp")
        return RatForm(
            const, tuple(sorted((d, c) for d, c in coeffs.items() if c)), den
        )

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def value_at(self, cell: Tuple[int, ...]) -> int:
        n = self.const + sum(c * cell[d] for d, c in self.coeffs)
        if n % self.den:
            raise SymbolicUnsupported("non-integral timestamp component")
        return n // self.den


#: A timestamp component: ``(flag, int | RatForm)``.
Comp = Tuple[int, object]

#: Affine numerators used by the lexicographic walk: const + coeff*cell.
Affine = Tuple[int, Tuple[Tuple[int, int], ...]]


def _as_rat(value) -> RatForm:
    if isinstance(value, RatForm):
        return value
    return RatForm(int(value))


def _rat_shift(f: RatForm, off: Tuple[int, ...]) -> RatForm:
    """``x -> f(x + off)`` as a form of ``x``."""
    return RatForm(
        f.const + sum(c * off[d] for d, c in f.coeffs), f.coeffs, f.den
    )


def _diff(a: RatForm, b: RatForm) -> Affine:
    """The numerator of ``a - b`` over the (positive) common denominator."""
    coeffs: Dict[int, int] = {}
    for d, c in a.coeffs:
        coeffs[d] = coeffs.get(d, 0) + c * b.den
    for d, c in b.coeffs:
        coeffs[d] = coeffs.get(d, 0) - c * a.den
    const = a.const * b.den - b.const * a.den
    return const, tuple(sorted((d, c) for d, c in coeffs.items() if c))


def _affine_range(aff: Affine, dims: Tuple[AP, ...]) -> Tuple[int, int]:
    """Exact ``[min, max]`` of an affine form over an AP box."""
    const, coeffs = aff
    lo = hi = const
    for d, c in coeffs:
        a, b = dims[d][0] * c, ap_last(dims[d]) * c
        lo += min(a, b)
        hi += max(a, b)
    return lo, hi


def _affine_argmax(aff: Affine, dims: Tuple[AP, ...]) -> Tuple[int, ...]:
    """A cell of the AP box attaining the maximum of ``aff``."""
    const, coeffs = aff
    by_dim = dict(coeffs)
    return tuple(
        (ap_last(ap) if by_dim.get(d, 0) >= 0 else ap[0])
        for d, ap in enumerate(dims)
    )


@dataclass
class Piece:
    """One uniform family of write instances."""

    dims: Tuple[AP, ...]
    vs: Tuple[int, ...]
    ts: Tuple[Comp, ...]
    mult: int = 1

    def ts_at(self, cell: Tuple[int, ...]):
        out = []
        for flag, value in self.ts:
            out.append(
                (flag, value.value_at(cell))
                if isinstance(value, RatForm)
                else (flag, value)
            )
        return tuple(out)


@dataclass
class SitePieces:
    """The symbolic instance map of one site in one snapshot."""

    form: str
    pieces: List[Piece]

    def instances(self) -> int:
        return sum(p.mult * ap_volume(p.dims) * len(p.vs) for p in self.pieces)


def canonical_site_key(sp: SitePieces) -> tuple:
    """A key equal across snapshots whenever the checker's verdict must
    be equal.

    Scalar cleanup passes (cse, licm, dce, constant-fold) move and
    delete ops inside the nests, shifting the absolute ``(SEQ, op_idx)``
    timestamp components while preserving their relative order. The
    checker compares timestamps positionally, so at every position where
    all pieces carry an integer component under the same flag the values
    are rank-compressed; everything else (geometry, variables, rational
    forms, multiplicities) is kept verbatim.
    """
    pieces = sp.pieces
    keys = [[p.dims, p.vs, list(p.ts), p.mult] for p in pieces]
    if pieces:
        length = len(pieces[0].ts)
        if all(len(p.ts) == length for p in pieces):
            for pos in range(length):
                comps = [p.ts[pos] for p in pieces]
                flag0 = comps[0][0]
                if all(
                    flag == flag0 and isinstance(val, int)
                    for flag, val in comps
                ):
                    rank = {
                        v: i
                        for i, v in enumerate(
                            sorted({val for _, val in comps})
                        )
                    }
                    for key, (flag, val) in zip(keys, comps):
                        key[2][pos] = (flag, rank[val])
    return (
        sp.form,
        tuple((d, vs, tuple(ts), m) for d, vs, ts, m in keys),
    )


class _VersionedEnv(dict):
    """``index_env`` that counts its mutations, so the concrete-integer
    memo below knows when the enclosing tile bindings changed."""

    def __init__(self) -> None:
        super().__init__()
        self.version = 0

    def __setitem__(self, key, value) -> None:
        self.version += 1
        super().__setitem__(key, value)


class _ConstEval(indexing.IntEval):
    """Concrete-integer evaluation under the tile bindings, with one
    shared memo per tile environment, seeded with the bindings whenever
    they change. ``AbstractEvaluator.eval_exact`` builds a fresh memo per
    call and allocates intervals through the whole expression tree; the
    tile window bounds feed every anchor of a nest, so sharing the memo
    across the ~100 queries of one tile is a large constant-factor win."""

    def __init__(self, env: _VersionedEnv) -> None:
        super().__init__()
        self.env = env
        self.version = -1

    def __call__(self, value) -> Optional[int]:
        if self.env.version != self.version:
            self.version = self.env.version
            self.memo = {k: INTERVALS.as_const(v) for k, v in self.env.items()}
        return self.eval(value)


class SymbolicExtractor(InstanceExtractor):
    """Extracts :class:`SitePieces` instead of enumerating instances.

    Tile grids (``cfd.tiled_loop``) are still walked tile by tile — the
    wavefront CSR replay and the TV004 fused-producer hook need concrete
    tile indices, and the tile count is the *grid*, not the mesh — but
    the per-tile loop nests inside become single pieces each.
    """

    def __init__(self) -> None:
        super().__init__(limit=1)  # _record must never be reached
        self.pieces: List[Piece] = []
        self.ev.index_env = _VersionedEnv()
        self._cexact = _ConstEval(self.ev.index_env)
        self._nest_tpl: Dict[int, list] = {}

    def _exact(self, value, what: str) -> int:
        c = self._cexact(value)
        if c is None:
            raise ExtractionUnsupported(
                f"{what} is not statically resolvable"
            )
        return c

    def site_pieces(self, root: Operation, site: SiteRef) -> SitePieces:
        self.pieces = []
        out = SitePieces(form=root.name, pieces=self.pieces)
        self._emit(root, site, (0,) * site.rank, (), out)
        return out

    def _push(self, piece: Piece) -> None:
        if ap_volume(piece.dims) == 0:
            return
        self.pieces.append(piece)
        if len(self.pieces) > MAX_SITE_PIECES:
            raise SymbolicUnsupported(
                f"more than {MAX_SITE_PIECES} uniform pieces"
            )

    # ---- form A: the declarative stencil op ------------------------------

    def _emit_stencil(self, op, site, origin, prefix, out) -> None:
        if op.has_bounds:
            lo = [self._exact(v, "stencil bound") for v in op.bounds_lo]
            hi = [self._exact(v, "stencil bound") for v in op.bounds_hi]
        else:
            if site.box is None:
                raise ExtractionUnsupported(site.degraded)
            lo = [b[0] - o for b, o in zip(site.box, origin)]
            hi = [b[1] - o for b, o in zip(site.box, origin)]
        sweep = op.sweep
        dims = tuple(
            _ap(a + o, 1, b - a) for a, b, o in zip(lo, hi, origin)
        )
        ts = tuple(prefix) + tuple(
            (SEQ, RatForm.make(-sweep * o, {d: sweep}, 1))
            for d, o in enumerate(origin)
        )
        self._push(Piece(dims, tuple(range(site.nv)), ts))

    # ---- form C: lowered scf.for nests -----------------------------------
    #
    # The nest *structure* — the loop tree, which induction variable
    # drives which index with what coefficient — is tile-invariant; only
    # the leaf constants (window bounds, tile origins) change from tile
    # to tile. ``_nest_template`` decodes each nest root once per
    # extractor into a skeleton holding SSA values for the leaves, and
    # ``_emit_nest`` re-evaluates just those leaves per tile through the
    # shared-memo evaluator instead of re-resolving every index
    # expression on every tile of the grid.

    def _nest_template(self, root) -> list:
        iv_ids: Dict[int, object] = {}

        def linear_tpl(value):
            """``(const, iv_coeffs, leaves)`` mirroring
            :func:`resolve_linear` with loop-invariant sub-expressions
            kept symbolic, ``("dyn", value, ivs)`` when instantiation
            needs a full per-tile resolve (a tile-dependent scalar
            scaling an induction variable), or ``None`` when every
            tile's resolve would fail."""
            if id(value) in iv_ids:
                return (0, {id(value): 1}, ())
            if isinstance(value, OpResult):
                op = value.op
                name = op.name
                if (
                    name in ("arith.addi", "arith.subi")
                    and op.num_operands == 2
                ):
                    lhs = linear_tpl(op.operand(0))
                    rhs = linear_tpl(op.operand(1))
                    if lhs is None or rhs is None:
                        return None
                    if lhs[0] == "dyn" or rhs[0] == "dyn":
                        return ("dyn", value, dict(iv_ids))
                    sign = 1 if name == "arith.addi" else -1
                    coeffs = dict(lhs[1])
                    for k, c in rhs[1].items():
                        coeffs[k] = coeffs.get(k, 0) + sign * c
                        if coeffs[k] == 0:
                            del coeffs[k]
                    leaves = lhs[2] + tuple(
                        (v, sign * c) for v, c in rhs[2]
                    )
                    return (lhs[0] + sign * rhs[0], coeffs, leaves)
                if name == "arith.muli" and op.num_operands == 2:
                    lhs = linear_tpl(op.operand(0))
                    rhs = linear_tpl(op.operand(1))
                    if lhs is None or rhs is None:
                        return None
                    if lhs[0] == "dyn" or rhs[0] == "dyn":
                        return ("dyn", value, dict(iv_ids))
                    if not lhs[1] and not rhs[1]:
                        # Loop-invariant either way: one opaque leaf.
                        return (0, {}, ((value, 1),))
                    for a, b in ((lhs, rhs), (rhs, lhs)):
                        if b[1]:
                            continue
                        if not b[2]:  # static integer scale
                            f = b[0]
                            return (
                                a[0] * f,
                                {k: c * f for k, c in a[1].items()},
                                tuple((v, c * f) for v, c in a[2]),
                            )
                        # Tile-dependent scalar times an iv expression:
                        # the coefficients themselves vary per tile.
                        return ("dyn", value, dict(iv_ids))
                    return None
                if name == "arith.index_cast":
                    return linear_tpl(op.operand(0))
            c = indexing.literal(value)
            if isinstance(c, int):
                return (c, {}, ())
            return (0, {}, ((value, 1),))

        def decode_block(block) -> list:
            nodes = []
            for op_idx, op in enumerate(block.operations):
                if op.name == "scf.for":
                    iv = op.induction_var
                    iv_ids[id(iv)] = iv
                    nodes.append(
                        ("loop", op_idx, iv, op.lower, op.upper, op.step,
                         decode_block(op.body))
                    )
                elif op.name in ("tensor.insert", "memref.store",
                                 "vector.transfer_write"):
                    tpls = [linear_tpl(v) for v in op.indices]
                    if any(t is None for t in tpls):
                        raise ExtractionUnsupported(
                            f"{op.name} index is not linear in the nest"
                        )
                    if tpls[0][0] != "dyn" and tpls[0][1]:
                        raise ExtractionUnsupported(
                            f"{op.name} variable index is not constant"
                        )
                    lanes = 1
                    if op.name == "vector.transfer_write":
                        lanes = op.vector.type.shape[0]
                    plan = None
                    if all(t[0] != "dyn" for t in tpls):
                        # Tile-invariant anchor structure: which iv
                        # drives which dimension with what coefficient
                        # is fixed; only the leaf constants move.
                        driver: Dict[int, Tuple[int, int]] = {}
                        dim_specs = []
                        for d, t in enumerate(tpls[1:]):
                            const, ivs, leaves = t
                            if len(ivs) > 1:
                                raise SymbolicUnsupported(
                                    "space index mixes induction "
                                    "variables"
                                )
                            if ivs:
                                ((iv_id, coeff),) = ivs.items()
                                if iv_id in driver:
                                    raise SymbolicUnsupported(
                                        "one induction variable drives "
                                        "two dimensions"
                                    )
                                driver[iv_id] = (d, coeff)
                                dim_specs.append(
                                    (iv_id, coeff, const, leaves)
                                )
                            else:
                                dim_specs.append((None, 0, const, leaves))
                        plan = (tuple(dim_specs), driver)
                    nodes.append(
                        ("anchor", op_idx, op.name, tpls[0], tpls[1:],
                         lanes, plan)
                    )
            return nodes

        iv_ids[id(root.induction_var)] = root.induction_var
        return [("loop", 0, root.induction_var,
                 root.lower, root.upper, root.step,
                 decode_block(root.body))]

    def _inst_form(self, tpl) -> Optional[LinearForm]:
        """Instantiate one index template under the current tile."""
        if tpl[0] == "dyn":
            return resolve_linear(tpl[1], tpl[2], self._cexact)
        const, coeffs, leaves = tpl
        for v, c in leaves:
            x = self._cexact(v)
            if x is None:
                return None
            const += c * x
        return LinearForm(const, coeffs)

    def _emit_nest(self, root, site, origin, prefix, out) -> None:
        tpl = self._nest_tpl.get(id(root))
        if tpl is None:
            tpl = self._nest_template(root)
            self._nest_tpl[id(root)] = tpl

        # loops on the path to the current anchor: (op_idx, id(iv), lb,
        # st, trip), innermost last.
        path: List[Tuple[int, int, int, int, int]] = []

        cexact = self._cexact

        def finish(op_idx, v, dims, comps, mult, lanes, rank) -> None:
            for d in range(rank):
                if dims[d] is None:
                    raise SymbolicUnsupported(
                        "space dimension driven by a variable outside "
                        "the nest"
                    )
            comps.append((SEQ, op_idx))
            if lanes == 1:
                self._push(Piece(tuple(dims), (v,), tuple(comps), mult))
                return
            if lanes > 64:
                raise SymbolicUnsupported("vector with more than 64 lanes")
            if dims[-1][2] == 1:
                # All lanes of a single vector write, merged into one
                # piece: the cells are base..base+lanes-1, every earlier
                # timestamp form evaluates at the base (freeze its
                # last-dim term there), and the lane id becomes the
                # parallel component x_last - base. Equivalent to the
                # per-lane pieces below, at 1/lanes the piece count.
                base = dims[-1][0]
                lane_dims = list(dims)
                lane_dims[-1] = _ap(base, 1, lanes)
                frozen = []
                for flag, val in comps:
                    if isinstance(val, RatForm):
                        c_last = dict(val.coeffs).get(rank - 1, 0)
                        if c_last:
                            val = RatForm(
                                val.const + c_last * base,
                                tuple(
                                    (d, c) for d, c in val.coeffs
                                    if d != rank - 1
                                ),
                                val.den,
                            )
                    frozen.append((flag, val))
                frozen.append((PAR, RatForm.make(-base, {rank - 1: 1}, 1)))
                self._push(Piece(
                    tuple(lane_dims), (v,), tuple(frozen), mult,
                ))
                return
            for u in range(lanes):
                lane_dims = list(dims)
                lane_dims[-1] = ap_shift(dims[-1], u)
                # Lane u writes x_last = base + u, so every timestamp
                # form of x must be re-expressed with the lane shift
                # folded out: f(x) -> f(x - u*e_last).
                back = tuple(
                    -u if d == rank - 1 else 0 for d in range(rank)
                )
                lane_comps = tuple(
                    (flag, _rat_shift(val, back))
                    if isinstance(val, RatForm) else (flag, val)
                    for flag, val in comps
                )
                self._push(Piece(
                    tuple(lane_dims), (v,),
                    lane_comps + ((PAR, u),), mult,
                ))

        def emit_static(op_idx, op_name, v, plan, lanes) -> None:
            dim_specs, driver = plan
            rank = len(dim_specs)
            dims: List[Optional[AP]] = [None] * rank
            starts: List[int] = [0] * rank
            for d, (iv_id, _, const, leaves) in enumerate(dim_specs):
                for lv, lc in leaves:
                    x = cexact(lv)
                    if x is None:
                        raise ExtractionUnsupported(
                            f"{op_name} index is not linear in the nest"
                        )
                    const += lc * x
                starts[d] = const
                if iv_id is None:
                    dims[d] = _ap(const + origin[d], 1, 1)

            mult = 1
            comps: List[Comp] = list(prefix)
            for l_op_idx, iv_id, lb, st, trip in path:
                comps.append((SEQ, l_op_idx))
                drv = driver.get(iv_id)
                if drv is None:
                    if trip > 1:
                        mult *= trip
                    comps.append((SEQ, 0))
                    continue
                d, coeff = drv
                start = starts[d] + coeff * lb + origin[d]
                dims[d] = _ap(start, coeff * st, trip)
                # it = (x_d - origin_d - starts_d - coeff*lb) / (coeff*st)
                den = coeff * st
                if den == 0:
                    raise SymbolicUnsupported("zero-denominator timestamp")
                if den < 0:
                    comps.append((SEQ, RatForm(start, ((d, -1),), -den)))
                else:
                    comps.append((SEQ, RatForm(-start, ((d, 1),), den)))
            finish(op_idx, v, dims, comps, mult, lanes, rank)

        def emit_anchor(op_idx, v, space_forms, lanes) -> None:
            rank = len(space_forms)
            # Which enclosing loop drives which space dimension.
            driver: Dict[int, Tuple[int, int]] = {}  # id(iv) -> (dim, coeff)
            dims: List[Optional[AP]] = [None] * rank
            starts: List[int] = [0] * rank
            for d, f in enumerate(space_forms):
                items = list(f.coeffs.items())
                if len(items) > 1:
                    raise SymbolicUnsupported(
                        "space index mixes induction variables"
                    )
                if not items:
                    dims[d] = _ap(f.const + origin[d], 1, 1)
                    starts[d] = f.const
                    continue
                iv_id, coeff = items[0]
                if iv_id in driver:
                    raise SymbolicUnsupported(
                        "one induction variable drives two dimensions"
                    )
                driver[iv_id] = (d, coeff)
                starts[d] = f.const

            mult = 1
            comps: List[Comp] = list(prefix)
            for l_op_idx, iv_id, lb, st, trip in path:
                comps.append((SEQ, l_op_idx))
                drv = driver.get(iv_id)
                if drv is None:
                    if trip > 1:
                        mult *= trip
                    comps.append((SEQ, 0))
                    continue
                d, coeff = drv
                start = starts[d] + coeff * lb + origin[d]
                dims[d] = _ap(start, coeff * st, trip)
                # it = (x_d - origin_d - starts_d - coeff*lb) / (coeff*st)
                comps.append((SEQ, RatForm.make(
                    -(starts[d] + coeff * lb + origin[d]) * 1,
                    {d: 1}, coeff * st,
                )))
            finish(op_idx, v, dims, comps, mult, lanes, rank)

        def walk(nodes) -> None:
            for node in nodes:
                if node[0] == "loop":
                    _, op_idx, iv, lb_v, ub_v, st_v, children = node
                    lb = self._exact(lb_v, "loop bound")
                    ub = self._exact(ub_v, "loop bound")
                    st = self._exact(st_v, "loop step")
                    if st <= 0:
                        raise ExtractionUnsupported("non-positive loop step")
                    trip = len(range(lb, ub, st))
                    if trip == 0:
                        continue
                    path.append((op_idx, id(iv), lb, st, trip))
                    walk(children)
                    path.pop()
                else:
                    _, op_idx, op_name, var_tpl, space_tpls, lanes, plan = (
                        node
                    )
                    var_f = self._inst_form(var_tpl)
                    if var_f is None:
                        raise ExtractionUnsupported(
                            f"{op_name} index is not linear in the nest"
                        )
                    if not var_f.is_const:
                        raise ExtractionUnsupported(
                            f"{op_name} variable index is not constant"
                        )
                    if plan is not None:
                        emit_static(op_idx, op_name, var_f.const, plan,
                                    lanes)
                        continue
                    forms = [self._inst_form(t) for t in space_tpls]
                    if any(f is None for f in forms):
                        raise ExtractionUnsupported(
                            f"{op_name} index is not linear in the nest"
                        )
                    emit_anchor(op_idx, var_f.const, forms, lanes)

        walk(tpl)

    # ---- form D: the fully-parallel pointwise generic --------------------

    def _emit_pointwise(self, op, site, origin, prefix, out) -> None:
        out_t = op.operand(op.num_ins).type
        shape = out_t.shape
        if any(d == -1 for d in shape):
            raise ExtractionUnsupported("dynamic generic output shape")
        bounds = op.iteration_bounds(shape)
        v_lo, v_hi = bounds[0]
        space = bounds[1:]
        dims = tuple(
            _ap(lo + o, 1, hi - lo) for (lo, hi), o in zip(space, origin)
        )
        # Row-major linearization of the local coordinates — the same
        # parallel id the enumerated path counts out.
        coeffs: Dict[int, int] = {}
        const = 0
        stride = 1
        for d in range(len(space) - 1, -1, -1):
            lo, hi = space[d]
            coeffs[d] = stride
            const -= stride * (lo + origin[d])
            stride *= hi - lo
        ts = tuple(prefix) + ((PAR, RatForm.make(const, coeffs, 1)),)
        self._push(Piece(dims, tuple(range(v_lo, v_hi)), ts))


# ---------------------------------------------------------------------------
# The symbolic dependence checker
# ---------------------------------------------------------------------------


@dataclass
class SymbolicCheck:
    """The verdict of one symbolic site validation.

    ``stats`` carries the certificate fields (``instances``, ``cells``,
    ``flow_edges``, ``anti_edges``) matching what the enumerated
    ``_check_site`` would report on a clean site. ``violations`` is a
    list of ``(code, witnesses)`` in the legacy emission order; each
    witness is synthesized from an affine counterexample point and uses
    the enumerated path's exact message format.
    """

    stats: Dict[str, int]
    violations: List[Tuple[str, List[str]]]

    @property
    def clean(self) -> bool:
        return not self.violations


def _joint(
    a_dims: Tuple[AP, ...],
    b_dims: Tuple[AP, ...],
    off: Optional[Tuple[int, ...]] = None,
) -> Optional[Tuple[AP, ...]]:
    """Per-dimension progression intersection of ``a`` with ``b - off``
    (``None`` when empty), with a cheap interval reject first."""
    out = []
    for d, (a, b) in enumerate(zip(a_dims, b_dims)):
        if off is not None and off[d]:
            b = ap_shift(b, -off[d])
        if a[2] == 0 or b[2] == 0:
            return None
        if a[0] > ap_last(b) or b[0] > ap_last(a):
            return None
        j = ap_intersect(a, b)
        if j[2] == 0:
            return None
        out.append(j)
    return tuple(out)


def _compare_forms(
    ts_a: Tuple[Comp, ...],
    off_a: Optional[Tuple[int, ...]],
    ts_b: Tuple[Comp, ...],
    off_b: Optional[Tuple[int, ...]],
    box: Tuple[AP, ...],
) -> int:
    """``compare_timestamps(ts_a(x + off_a), ts_b(x + off_b))`` for
    *every* cell ``x`` of the AP box at once. Shifts are applied lazily —
    constant components (tile prefixes, op positions) are
    shift-invariant and decide most pairs with plain integer compares.
    Raises :class:`SymbolicUnsupported` when the verdict is not uniform
    over the box (mixed-sign component difference) — the caller then
    falls back to enumeration."""
    for (fa, va), (fb, vb) in zip(ts_a, ts_b):
        a_rat = type(va) is RatForm
        b_rat = type(vb) is RatForm
        if not a_rat and not b_rat:
            if va == vb:
                if fa == fb:
                    continue
                return CONCURRENT
            if fa != fb:
                return CONCURRENT
            if fa == SEQ:
                return BEFORE if va < vb else AFTER
            return CONCURRENT  # differing parallel constants
        if va is vb:
            # Identical forms (a piece against itself across an offset):
            # the difference is the constant sum(c * (off_a - off_b)).
            n0 = 0
            if off_a:
                n0 += sum(c * off_a[d] for d, c in va.coeffs)
            if off_b:
                n0 -= sum(c * off_b[d] for d, c in vb.coeffs)
            nmin = nmax = n0
        else:
            ra = _rat_shift(va, off_a) if a_rat and off_a else _as_rat(va)
            rb = _rat_shift(vb, off_b) if b_rat and off_b else _as_rat(vb)
            n = _diff(ra, rb)
            nmin, nmax = _affine_range(n, box)
        if nmin == 0 == nmax:
            if fa == fb:
                continue
            return CONCURRENT
        if fa != fb:
            return CONCURRENT
        if fa == SEQ:
            if nmax < 0:
                return BEFORE
            if nmin > 0:
                return AFTER
            raise SymbolicUnsupported(
                "mixed-sign sequential component difference"
            )
        # Both parallel with differing values somewhere.
        if nmin > 0 or nmax < 0:
            return CONCURRENT
        raise SymbolicUnsupported("mixed parallel component difference")
    return CONCURRENT


class _SpatialIndex:
    """A bucket grid over piece bounding boxes, for sub-quadratic pair
    enumeration: ``query`` returns only the pieces whose bounding box
    overlaps the query box.

    The bucket edge per dimension is the largest piece extent in that
    dimension, so every piece lands in at most two buckets per dimension
    and a piece-sized query box touches a bounded number of buckets.
    (A sorted-by-dim-0 list degenerates on tiled grids: with only a
    handful of distinct tile origins per dimension, a dim-0 window
    admits most of the rows and every query pays a linear scan.)"""

    #: Below this many pieces a plain scan beats building the grid.
    LINEAR_CUTOFF = 24

    def __init__(self, entries: List[Tuple[Piece, Tuple[AP, ...]]]) -> None:
        rows = []
        for k, (p, cd) in enumerate(entries):
            bbox = tuple((ap[0], ap_last(ap)) for ap in cd)
            rows.append((k, p, cd, bbox))
        self.rows = rows
        self.buckets: Optional[Dict[Tuple[int, ...], list]] = None
        self.cell: Tuple[int, ...] = ()
        if len(rows) <= self.LINEAR_CUTOFF:
            return
        rank = len(rows[0][3])
        self.cell = tuple(
            max(1, max(r[3][d][1] - r[3][d][0] + 1 for r in rows))
            for d in range(rank)
        )
        buckets: Dict[Tuple[int, ...], list] = {}
        for row in rows:
            for key in product(*(
                range(lo // c, hi // c + 1)
                for (lo, hi), c in zip(row[3], self.cell)
            )):
                buckets.setdefault(key, []).append(row)
        self.buckets = buckets

    def query(self, qbox: Tuple[Tuple[int, int], ...]) -> list:
        """``(k, piece, dims)`` rows with bbox overlapping ``qbox``."""
        out: list = []
        if self.buckets is None:
            for row in self.rows:
                for (blo, bhi), (qlo, qhi) in zip(row[3], qbox):
                    if blo > qhi or bhi < qlo:
                        break
                else:
                    out.append((row[0], row[1], row[2]))
            return out
        buckets = self.buckets
        seen = set()
        for key in product(*(
            range(lo // c, hi // c + 1)
            for (lo, hi), c in zip(qbox, self.cell)
        )):
            for row in buckets.get(key, ()):
                k = row[0]
                if k in seen:
                    continue
                seen.add(k)
                for (blo, bhi), (qlo, qhi) in zip(row[3], qbox):
                    if blo > qhi or bhi < qlo:
                        break
                else:
                    out.append((k, row[1], row[2]))
        return out


def _outside_cell(
    dims: Tuple[AP, ...], box: Tuple[Tuple[int, int], ...],
) -> Optional[Tuple[int, ...]]:
    """A concrete cell of the piece landing outside the box."""
    cell: List[int] = []
    found = False
    for ap, (lo, hi) in zip(dims, box):
        if not found and ap[0] < lo:
            cell.append(ap[0])
            found = True
        elif not found and ap_last(ap) >= hi:
            cell.append(ap_last(ap))
            found = True
        else:
            clipped = ap_clip(ap, lo, hi)
            cell.append(clipped[0] if clipped[2] else ap[0])
    return tuple(cell) if found else None


def check_site_symbolic(site: SiteRef, sp: SitePieces) -> SymbolicCheck:
    """Validate one site's :class:`SitePieces` against the reference
    dependences, entirely by progression algebra — no instance is ever
    enumerated, so the cost is a function of the *piece* count (loop
    nests x tiles), not the mesh."""
    assert site.box is not None
    box = site.box
    box_vol = 1
    for lo, hi in box:
        box_vol *= max(0, hi - lo)

    clipped: List[Tuple[Piece, Tuple[AP, ...], int]] = []
    outside_w: List[str] = []
    for p in sp.pieces:
        cdims = tuple(
            ap_clip(ap, lo, hi) for ap, (lo, hi) in zip(p.dims, box)
        )
        raw, cv = ap_volume(p.dims), ap_volume(cdims)
        if raw > cv:
            cell = _outside_cell(p.dims, box)
            for v in p.vs:
                outside_w.append(
                    f"write of {cell} (var {v}) lands outside the "
                    f"reference write box"
                )
        if cv:
            clipped.append((p, cdims, cv))

    # ---- TV003: exactly-once coverage of the write box -------------------
    missing_w: List[str] = []
    dup_w: List[str] = []
    per_v: Dict[int, List[Tuple[Piece, Tuple[AP, ...], int]]] = {}
    for entry in clipped:
        p = entry[0]
        for v in p.vs:
            per_v.setdefault(v, []).append(entry)
        if p.mult > 1:
            cell = tuple(ap[0] for ap in entry[1])
            for v in p.vs:
                dup_w.append(
                    f"instance {cell} (var {v}) is written {p.mult} times"
                )
    # Variables written by sibling anchors of one nest share the same
    # clipped geometry, and the pairwise-overlap scan only depends on
    # that geometry — run it once per distinct multiset of progressions
    # and replay the verdict for every variable in the group.
    scanned: Dict[tuple, Tuple[List[Tuple[int, ...]], int]] = {}
    overlapped = False
    for v in range(site.nv):
        plist = per_v.get(v, [])
        key = tuple(sorted(cd for _, cd, _ in plist))
        res = scanned.get(key)
        if res is None:
            pair_cells: List[Tuple[int, ...]] = []
            index = _SpatialIndex([(p, cd) for p, cd, _ in plist])
            for i, (_, di, _) in enumerate(plist):
                qbox = tuple((ap[0], ap_last(ap)) for ap in di)
                for j, _, dj in index.query(qbox):
                    if j <= i:
                        continue
                    joint = _joint(di, dj)
                    if joint is not None:
                        pair_cells.append(tuple(ap[0] for ap in joint))
            res = (pair_cells, sum(cv for _, _, cv in plist))
            scanned[key] = res
        pair_cells, covered = res
        for cell in pair_cells:
            dup_w.append(
                f"instance {cell} (var {v}) is written 2 times"
            )
            overlapped = True
        if not overlapped and covered < box_vol:
            missing_w.append(
                f"instance coverage deficit for var {v}: "
                f"{box_vol - covered} cell(s) of the reference write box "
                f"are never written (live store removed?)"
            )

    # ---- TV001/TV002/TV007: the per-dependence-class lex walk ------------
    v0 = [(p, cd) for p, cd, _ in clipped if 0 in p.vs]
    order_w: List[str] = []
    conc_w: List[str] = []
    anti_w: List[str] = []

    def witness_flow(a: Piece, b: Piece, off, jbox, kind: str) -> str:
        x = tuple(ap[0] for ap in jbox)
        src = tuple(c + d for c, d in zip(x, off))
        ts_c = a.ts_at(x)
        ts_s = b.ts_at(src)
        if kind == "after":
            return (
                f"flow dependence (offset {off}): source instance "
                f"{src} [t={render_timestamp(ts_s)}] is scheduled "
                f"after its target {x} [t={render_timestamp(ts_c)}]"
            )
        return (
            f"flow dependence (offset {off}): instances {src} "
            f"[t={render_timestamp(ts_s)}] and {x} "
            f"[t={render_timestamp(ts_c)}] are concurrent"
        )

    index0 = _SpatialIndex(v0)
    for off in site.flow_offsets:
        for a, a_dims in v0:          # target cells live in a
            qbox = tuple(
                (ap[0] + o, ap_last(ap) + o) for ap, o in zip(a_dims, off)
            )
            for _, b, b_dims in index0.query(qbox):  # source cells in b
                jbox = _joint(a_dims, b_dims, off)
                if jbox is None:
                    continue
                verdict = _compare_forms(b.ts, off, a.ts, None, jbox)
                if verdict == AFTER:
                    order_w.append(witness_flow(a, b, off, jbox, "after"))
                elif verdict == CONCURRENT:
                    conc_w.append(witness_flow(a, b, off, jbox, "conc"))

    for off in site.anti_offsets:
        for a, a_dims in v0:          # reader cells live in a
            qbox = tuple(
                (ap[0] + o, ap_last(ap) + o) for ap, o in zip(a_dims, off)
            )
            for _, b, b_dims in index0.query(qbox):  # overwritten cell in b
                jbox = _joint(a_dims, b_dims, off)
                if jbox is None:
                    continue
                verdict = _compare_forms(a.ts, None, b.ts, off, jbox)
                if verdict != BEFORE:
                    x = tuple(ap[0] for ap in jbox)
                    dst = tuple(c + d for c, d in zip(x, off))
                    anti_w.append(
                        f"anti dependence (offset {off}): instance {x} "
                        f"[t={render_timestamp(a.ts_at(x))}] reads the "
                        f"initial value of {dst} but is not scheduled "
                        f"before its write "
                        f"[t={render_timestamp(b.ts_at(dst))}]"
                    )

    # ---- certificate stats ------------------------------------------------
    # With exactly-once coverage, the timestamp map holds every box cell,
    # so the checked edge counts close to a product formula per offset.
    def edges(offsets) -> int:
        total = 0
        for off in offsets:
            pairs = 1
            for (lo, hi), o in zip(box, off):
                pairs *= max(0, (hi - lo) - abs(o))
            total += pairs
        return total

    cells = (
        box_vol
        if not missing_w and not overlapped
        else sum(cv for p, _, cv in clipped if 0 in p.vs)
    )
    stats = {
        "instances": sp.instances(),
        "cells": cells,
        "flow_edges": edges(site.flow_offsets),
        "anti_edges": edges(site.anti_offsets),
    }
    violations = [
        (code, ws)
        for code, ws in (
            ("TV003", missing_w), ("TV003", dup_w), ("TV003", outside_w),
            ("TV001", order_w), ("TV002", conc_w), ("TV007", anti_w),
        )
        if ws
    ]
    return SymbolicCheck(stats, violations)
