"""The interval abstract domain for index arithmetic.

An :class:`Interval` is an inclusive integer range ``[lo, hi]`` whose
endpoints may be ``-inf``/``+inf`` (``float`` infinities; every finite
endpoint is an ``int``). The engine (:mod:`repro.analysis.absint.engine`)
interprets every ``arith`` index op over this domain (:data:`INTERVALS`,
through :func:`repro.ir.indexing.step`); the client analyses
then phrase their questions as containment queries, e.g. "is the access
range inside ``[0, extent)``".

Precision notes baked into the operations:

* point intervals (``lo == hi``) propagate *exactly* through all
  arithmetic, which is what makes the engine's concrete enumeration of
  tile coordinates lossless;
* ``min``/``max`` are exact on intervals (the clamp idiom of the tiling
  window arithmetic), while division is widened to ``TOP`` except for
  exact positive constant divisors.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from repro.ir.indexing import IndexDomain

Endpoint = Union[int, float]

NEG_INF: float = float("-inf")
POS_INF: float = float("inf")


class Interval:
    """An inclusive integer interval ``[lo, hi]`` (possibly unbounded)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Endpoint, hi: Endpoint) -> None:
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # ---- constructors ----------------------------------------------------

    @staticmethod
    def point(value: int) -> "Interval":
        return Interval(int(value), int(value))

    @staticmethod
    def top() -> "Interval":
        return Interval(NEG_INF, POS_INF)

    # ---- predicates ------------------------------------------------------

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def is_bounded(self) -> bool:
        return self.lo != NEG_INF and self.hi != POS_INF

    def contains(self, other: "Interval") -> bool:
        """Is every value of ``other`` inside ``self``?"""
        return self.lo <= other.lo and other.hi <= self.hi

    def disjoint_from(self, other: "Interval") -> bool:
        """Do ``self`` and ``other`` share no value?"""
        return self.hi < other.lo or other.hi < self.lo

    # ---- arithmetic ------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        corners = [
            _mul(a, b)
            for a in (self.lo, self.hi)
            for b in (other.lo, other.hi)
        ]
        return Interval(min(corners), max(corners))

    def floordiv(self, other: "Interval") -> "Interval":
        """Exact only for a positive point divisor; otherwise ``TOP``."""
        if other.is_point and isinstance(other.lo, int) and other.lo > 0:
            d = other.lo
            lo = NEG_INF if self.lo == NEG_INF else self.lo // d
            hi = POS_INF if self.hi == POS_INF else self.hi // d
            return Interval(lo, hi)
        return Interval.top()

    def remainder(self, other: "Interval") -> "Interval":
        if other.is_point and isinstance(other.lo, int) and other.lo > 0:
            if self.is_point and isinstance(self.lo, int):
                return Interval.point(self.lo % other.lo)
            return Interval(0, other.lo - 1)
        return Interval.top()

    def min_(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    # ---- lattice ---------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        """The convex hull (least upper bound)."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    # ---- misc ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _mul(a: Endpoint, b: Endpoint) -> Endpoint:
    if a == 0 or b == 0:  # 0 * inf is 0 for interval corners
        return 0
    return a * b


class _Intervals(IndexDomain):
    """Intervals as an index domain: unknown is ``TOP``."""

    add = staticmethod(Interval.__add__)
    sub = staticmethod(Interval.__sub__)
    mul = staticmethod(Interval.__mul__)
    min = staticmethod(Interval.min_)
    max = staticmethod(Interval.max_)
    join = staticmethod(Interval.join)
    const = staticmethod(Interval.point)
    unknown = staticmethod(Interval.top)
    as_const = staticmethod(
        lambda v: v.lo if v.is_point and isinstance(v.lo, int) else None
    )
    floordiv = staticmethod(lambda a, d: a.floordiv(Interval.point(d)))
    rem = staticmethod(lambda a, d: a.remainder(Interval.point(d)))


#: The interval index domain (:func:`repro.ir.indexing.step`).
INTERVALS = _Intervals()


#: A per-dimension box of intervals (an access footprint).
Box = Tuple[Interval, ...]


def box_join(a: Box, b: Box) -> Box:
    if len(a) != len(b):
        raise ValueError(f"rank mismatch joining boxes {a} and {b}")
    return tuple(x.join(y) for x, y in zip(a, b))


def box_contains(outer: Box, inner: Box) -> bool:
    return len(outer) == len(inner) and all(
        o.contains(i) for o, i in zip(outer, inner)
    )


def box_disjoint(a: Box, b: Box) -> bool:
    """Definitely no common cell (disjoint along some dimension)."""
    return any(x.disjoint_from(y) for x, y in zip(a, b))


def box_overlaps(a: Box, b: Box) -> bool:
    """May share a cell (the negation of :func:`box_disjoint`)."""
    return not box_disjoint(a, b)


def box_is_bounded(box: Box) -> bool:
    return all(iv.is_bounded for iv in box)


def box_str(box: Sequence[Interval]) -> str:
    return "x".join(str(iv) for iv in box)


def hull_of_points(points: Sequence[Sequence[int]]) -> List[Interval]:
    """The bounding box of a non-empty set of concrete index tuples."""
    lo = [min(p[d] for p in points) for d in range(len(points[0]))]
    hi = [max(p[d] for p in points) for d in range(len(points[0]))]
    return [Interval(a, b) for a, b in zip(lo, hi)]
