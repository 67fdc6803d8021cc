"""The one meaning of index arithmetic.

Tiling (§2.1) and the wavefront schedule (§3) live in the IR as index
arithmetic: ``(n + t - 1) // t`` tile counts, ``min(iv + t, n)`` windows,
``tensor.dim`` extents. :func:`step` says once what each op of that
subset means, MLIR's per-op ``fold`` hook written over a small domain
protocol (:class:`IndexDomain`); a client only says how an operand is
read (its memo, its bindings). The domains are :data:`INT` here (partial
ints: the folder, the schedule stamp, the audits, translation
validation) and the analyses' ``Interval`` and ``PwAff``.

One policy holds for all of them: ``floordivi``/``remi`` are defined
only for a positive constant divisor, anything else is unknown. The
reference interpreter keeps Python's run-time semantics on its own, as
the oracle the domains are checked against.
"""

from __future__ import annotations

import builtins
import operator
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.ir.attributes import FloatAttr, IntegerAttr
from repro.ir.types import DYNAMIC
from repro.ir.values import OpResult, Value

_BINARY = ("arith.addi", "arith.subi", "arith.muli", "arith.minsi", "arith.maxsi")
_DIVISION = ("arith.floordivi", "arith.remi")

#: The ops :func:`fold` folds: integer arithmetic over integer operands.
ARITH_OPS = frozenset(_BINARY + _DIVISION + ("arith.index_cast",))
#: Every op :func:`step` gives a meaning to.
OPS = ARITH_OPS | {"arith.constant", "arith.select", "tensor.dim", "memref.dim"}

#: Ops whose result has the extents of one operand: name -> operand index.
_EXTENT_FORWARD = {
    "tensor.insert": 1,
    "tensor.insert_slice": 1,
    "cfd.stencilOp": 2,
    "cfd.faceIteratorOp": 1,
    "linalg.fill": 1,
    "vector.transfer_write": 1,
}


class IndexDomain:
    """What a domain supplies to :func:`step`: ``const(c)``,
    ``unknown()``, ``as_const(v)`` (the int ``v`` is known to be, else
    ``None``), binary ``add``/``sub``/``mul``/``min``/``max``/``join``, and
    ``floordiv(a, d)``/``rem(a, d)`` for a positive int ``d``."""

    def __init__(self) -> None:
        #: op name -> binary operation: the step's dispatch table.
        self.binary: Dict[str, Callable] = dict(
            zip(_BINARY, (self.add, self.sub, self.mul, self.min, self.max))
        )


def _strict(fn: Callable[[int, int], int]) -> Callable:
    return staticmethod(lambda a, b: None if a is None or b is None else fn(a, b))


class _Ints(IndexDomain):
    """Partial ints: ``None`` is unknown and absorbs every operation."""

    add, sub, mul = _strict(operator.add), _strict(operator.sub), _strict(operator.mul)
    min, max = _strict(builtins.min), _strict(builtins.max)
    floordiv, rem = _strict(operator.floordiv), _strict(operator.mod)
    const = as_const = staticmethod(lambda v: v)
    unknown = staticmethod(lambda: None)
    join = staticmethod(lambda a, b: a if a == b else None)


#: The partial-int domain.
INT = _Ints()


def _no_extent(value: Value) -> tuple:
    return ()


def step(value: Value, dom, ev: Callable, extent: Callable = _no_extent):
    """The value of ``value`` in ``dom``: its defining op's meaning
    applied to its operands, each read through ``ev``; ``extent`` reads a
    ``tensor.dim``/``memref.dim`` source's per-dimension extents.
    Anything outside :data:`OPS`, and block arguments, are unknown."""
    if not isinstance(value, OpResult):
        return dom.unknown()
    op = value.op
    name = op.name
    if name == "arith.constant":
        attr = op.attributes.get("value")
        return dom.const(attr.value) if isinstance(attr, IntegerAttr) else dom.unknown()
    fn = dom.binary.get(name)
    if fn is not None and op.num_operands == 2:
        return fn(ev(op.operand(0)), ev(op.operand(1)))
    if name in _DIVISION and op.num_operands == 2:
        d = dom.as_const(ev(op.operand(1)))
        if d is None or d <= 0:
            return dom.unknown()
        a = ev(op.operand(0))
        return dom.floordiv(a, d) if name == "arith.floordivi" else dom.rem(a, d)
    if name == "arith.index_cast":
        return ev(op.operand(0))
    if name == "arith.select" and op.num_operands == 3:
        return dom.join(ev(op.operand(1)), ev(op.operand(2)))
    if name in ("tensor.dim", "memref.dim"):
        dim = op.attributes.get("dim")
        if isinstance(dim, IntegerAttr):
            ext = extent(op.operand(0))
            if 0 <= dim.value < len(ext):
                return ext[dim.value]
    return dom.unknown()


def extents(value: Value, dom, ev: Callable, extent_of: Callable) -> tuple:
    """Per-dimension extents of a shaped value in ``dom``: static dims as
    constants, dynamic ones recovered through the producing op (sizes of
    ``tensor.empty``/slices, loop-carried inits, functional updates; read
    through ``ev`` and ``extent_of``), else unknown."""
    shape = value.type.shape
    if DYNAMIC in shape and isinstance(value, OpResult):
        op = value.op
        name = op.name
        forward = _EXTENT_FORWARD.get(name)
        if forward is not None:
            return extent_of(op.operand(forward))
        if name in ("tensor.empty", "memref.alloc"):
            dyn = iter(op.operands)
            return tuple(
                dom.const(d) if d != DYNAMIC else ev(next(dyn)) for d in shape
            )
        if name in ("tensor.extract_slice", "memref.subview"):
            sizes = op.operands[1 + (op.num_operands - 1) // 2 :]
            return tuple(
                dom.const(d) if d != DYNAMIC else ev(s)
                for d, s in zip(shape, sizes)
            )
        if name == "scf.for":
            return extent_of(op.operand(3 + value.index))
        if name == "cfd.tiled_loop":
            return extent_of(op.outs[value.index])
        if name == "linalg.generic":
            return extent_of(op.operand(op.attributes["num_ins"].value))
    return tuple(dom.const(d) if d != DYNAMIC else dom.unknown() for d in shape)


_MISS = object()


class IntEval:
    """Partial-int evaluation with one memo: the static value of index
    expressions, ``None`` wherever it depends on something unbound. A
    value is bound by seeding :attr:`memo` (``id(value) -> int``)."""

    def __init__(self) -> None:
        self.memo: Dict[int, Optional[int]] = {}
        # Bound once: the step below is the hot loop of translation
        # validation.
        self._ev, self._extent = self.eval, self.extent

    def eval(self, value: Value) -> Optional[int]:
        memo = self.memo
        key = id(value)
        out = memo.get(key, _MISS)
        if out is _MISS:
            memo[key] = None  # cycle guard
            out = memo[key] = step(value, INT, self._ev, self._extent)
        return out

    __call__ = eval

    def extent(self, value: Value) -> tuple:
        return extents(value, INT, self._ev, self._extent)


def static_ints(values: Sequence[Value]) -> List[Optional[int]]:
    """The static value of each index expression (``None`` if dynamic)."""
    ev = IntEval()
    return [ev(v) for v in values]


def literal(value: Value) -> Optional[Union[int, float]]:
    """The number an ``arith.constant`` result holds, else ``None``."""
    if isinstance(value, OpResult) and value.op.name == "arith.constant":
        attr = value.op.attributes.get("value")
        if isinstance(attr, (IntegerAttr, FloatAttr)):
            return attr.value
    return None


def _literal_int(value: Value) -> Optional[int]:
    c = literal(value)
    return c if isinstance(c, int) else None


def fold(op) -> Union[int, Value, None]:
    """MLIR's ``fold`` hook for :data:`ARITH_OPS`: the int ``op``
    computes from literal operands, or the operand it equals by an
    identity (``x + 0``, ``x * 1``, ``x // 1``, ``min(x, x)``), else
    ``None``."""
    value = step(op.result(), INT, _literal_int)
    if value is not None or op.num_operands != 2:
        return value
    name = op.name
    lhs, rhs = op.operands
    a, b = _literal_int(lhs), _literal_int(rhs)
    if name in ("arith.addi", "arith.subi") and b == 0:
        return lhs
    if name == "arith.addi" and a == 0:
        return rhs
    if name in ("arith.muli", "arith.floordivi") and b == 1:
        return lhs
    if name == "arith.muli" and a == 1:
        return rhs
    if name == "arith.muli" and 0 in (a, b):
        return 0
    if name in ("arith.minsi", "arith.maxsi") and lhs is rhs:
        return lhs
    return None
