"""Piecewise-affine index expressions over an affine domain.

The tiling pass's window arithmetic (``max(iv - halo, 0)``,
``min(core_end + halo, n)``) is not affine, but it *is* piecewise
affine: each ``min``/``max`` splits the induction-variable space into
two affine regions. :class:`PwAff` represents an index value as a small
set of ``(guard, expression)`` pieces — the guard an
:class:`~repro.analysis.affine.sets.AffineSet` over the same variables,
the expression a :class:`~repro.analysis.affine.sets.LinExpr` — so the
in-bounds prover can decide every access by a handful of emptiness
tests instead of enumerating the tile grid.

Guards need not partition: they only need to *cover* the context domain
(a point may satisfy several guards whose expressions then agree or
over-approximate). ``min``/``max`` produce exact complementary splits;
``select`` joins both branches (a sound over-approximation, matching
the interval engine's join). ``floordiv``/``rem`` introduce an
existential quotient variable via the caller-supplied ``fresh`` namer.

Piece counts are capped: blowing past :data:`MAX_PIECES` raises
:class:`~repro.analysis.affine.sets.AffineUnknown`, which callers treat
as "not affine — fall back to enumeration".
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.analysis.affine.sets import AffineSet, AffineUnknown, LinExpr
from repro.ir.indexing import IndexDomain

#: Cap on pieces per value; past this the expression is "not affine".
MAX_PIECES = 32

Piece = Tuple[AffineSet, LinExpr]


class PwAff:
    """A piecewise-affine integer value: ``[(guard, expr), ...]``.

    ``exact`` records whether the pieces are an exact case analysis of
    the value (every ``min``/``max``/``floordiv`` split is); it is
    cleared by :meth:`join`, whose branches merely over-approximate.
    Exact values support domain forking: a client may case-split its
    context on the guards and treat each piece's expression as the
    value.
    """

    __slots__ = ("pieces", "exact")

    def __init__(self, pieces: List[Piece], exact: bool = True) -> None:
        if not pieces:
            raise AffineUnknown("empty piecewise value")
        if len(pieces) > MAX_PIECES:
            raise AffineUnknown(
                f"piecewise value exceeds {MAX_PIECES} pieces"
            )
        self.pieces = list(pieces)
        self.exact = exact

    # ---- constructors ----------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "PwAff":
        return cls([(AffineSet.universe(), LinExpr.of(c))])

    @classmethod
    def var(cls, name: str) -> "PwAff":
        return cls([(AffineSet.universe(), LinExpr.var(name))])

    @classmethod
    def expr(cls, e: LinExpr) -> "PwAff":
        return cls([(AffineSet.universe(), e)])

    @property
    def is_const(self) -> bool:
        return len(self.pieces) == 1 and self.pieces[0][1].is_const

    def as_const(self) -> Optional[int]:
        if self.is_const:
            return self.pieces[0][1].const
        return None

    # ---- arithmetic ------------------------------------------------------

    def _map2(self, other: "PwAff", fn) -> "PwAff":
        out: List[Piece] = []
        for ga, ea in self.pieces:
            for gb, eb in other.pieces:
                out.append((ga.conjoin(gb), fn(ea, eb)))
        return PwAff(out, self.exact and other.exact)

    def __add__(self, other: "PwAff") -> "PwAff":
        return self._map2(other, lambda a, b: a + b)

    def __sub__(self, other: "PwAff") -> "PwAff":
        return self._map2(other, lambda a, b: a - b)

    def __neg__(self) -> "PwAff":
        return PwAff([(g, -e) for g, e in self.pieces], self.exact)

    def scaled(self, k: int) -> "PwAff":
        return PwAff([(g, e.scaled(k)) for g, e in self.pieces], self.exact)

    def mul(self, other: "PwAff") -> "PwAff":
        """Multiplication, defined when either side is constant."""
        k = other.as_const()
        if k is not None:
            return self.scaled(k)
        k = self.as_const()
        if k is not None:
            return other.scaled(k)
        raise AffineUnknown("product of two non-constant index values")

    # ---- the piecewise combinators ---------------------------------------

    def min_(self, other: "PwAff") -> "PwAff":
        out: List[Piece] = []
        for ga, ea in self.pieces:
            for gb, eb in other.pieces:
                g = ga.conjoin(gb)
                # a <= b -> a;  b <= a - 1 -> b  (exact split)
                out.append((g.and_le(ea, eb), ea))
                out.append((g.and_ge0(ea - eb - 1), eb))
        return PwAff(out, self.exact and other.exact)

    def max_(self, other: "PwAff") -> "PwAff":
        out: List[Piece] = []
        for ga, ea in self.pieces:
            for gb, eb in other.pieces:
                g = ga.conjoin(gb)
                out.append((g.and_le(eb, ea), ea))
                out.append((g.and_ge0(eb - ea - 1), eb))
        return PwAff(out, self.exact and other.exact)

    def join(self, other: "PwAff") -> "PwAff":
        """Both branches possible (``arith.select`` without the cond)."""
        return PwAff(self.pieces + other.pieces, exact=False)

    def div(
        self, m: int, fresh: Callable[[str], str], rem: bool = False
    ) -> "PwAff":
        """``floor(self / m)``, or with ``rem`` the non-negative
        ``self mod m``, for a positive constant ``m``, via an existential
        quotient: ``q`` with ``0 <= e - m*q <= m - 1``."""
        out: List[Piece] = []
        for g, e in self.pieces:
            q = LinExpr.var(fresh("q"))
            r = e - q.scaled(m)
            out.append(
                (g.and_ge0(r).and_ge0(LinExpr.of(m - 1) - r), r if rem else q)
            )
        return PwAff(out, self.exact)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PwAff(" + "; ".join(
            f"{e!r} if {g!r}" for g, e in self.pieces
        ) + ")"


class PwAffDomain(IndexDomain):
    """:class:`PwAff` as an index domain: an unknown value is a fresh
    unconstrained parameter (sound: any integer) named by ``fresh``."""

    add = staticmethod(PwAff.__add__)
    sub = staticmethod(PwAff.__sub__)
    mul = staticmethod(PwAff.mul)
    min = staticmethod(PwAff.min_)
    max = staticmethod(PwAff.max_)
    join = staticmethod(PwAff.join)
    const = staticmethod(PwAff.const)
    as_const = staticmethod(PwAff.as_const)

    def __init__(self, fresh: Callable[[str], str]) -> None:
        super().__init__()
        self.unknown = lambda: PwAff.var(fresh("p"))
        self.floordiv = lambda a, d: a.div(d, fresh)
        self.rem = lambda a, d: a.div(d, fresh, rem=True)


#: three-valued verdict of a piecewise proof
PROVEN, VIOLATES, UNKNOWN = "proven", "violates", "unknown"


def prove_ge0(pw: PwAff, domain: AffineSet) -> str:
    """Is ``pw >= 0`` for every point of ``domain``?

    Returns :data:`PROVEN` when every piece is non-negative on its
    guard, :data:`VIOLATES` when some reachable piece goes negative (the
    domain must be exact for the caller to treat this as an error), and
    :data:`UNKNOWN` when the integer emptiness test gave up.
    """
    verdict = PROVEN
    for g, e in pw.pieces:
        bad = domain.conjoin(g).and_ge0(-e - 1)
        try:
            if not bad.is_empty():
                return VIOLATES
        except AffineUnknown:
            verdict = UNKNOWN
    return verdict


def prove_lt(pw: PwAff, bound: PwAff, domain: AffineSet) -> str:
    """Is ``pw < bound`` for every point of ``domain``?"""
    verdict = PROVEN
    for ga, ea in pw.pieces:
        for gb, eb in bound.pieces:
            bad = domain.conjoin(ga).conjoin(gb).and_ge0(ea - eb)
            try:
                if not bad.is_empty():
                    return VIOLATES
            except AffineUnknown:
                verdict = UNKNOWN
    return verdict


def hull(pw: PwAff, domain: AffineSet) -> Tuple[int, int]:
    """The exact attained ``[lo, hi]`` of ``pw`` over ``domain``
    (the affine analogue of the interval engine's proven hull). Raises
    :class:`AffineUnknown` when unbounded or undecidable; the hull of a
    value over an empty domain is also unknown (there is nothing to
    attain)."""
    lo: Optional[int] = None
    hi: Optional[int] = None
    for g, e in pw.pieces:
        piece_dom = domain.conjoin(g)
        if piece_dom.is_empty():
            continue
        a, b = piece_dom.bounds(e)
        lo = a if lo is None else min(lo, a)
        hi = b if hi is None else max(hi, b)
    if lo is None or hi is None:
        raise AffineUnknown("hull over an empty domain")
    return lo, hi
