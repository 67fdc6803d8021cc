"""Reference interpreter: the executable semantics of the IR.

Every operation of every dialect has a handler here; the high-level cfd
operations (``stencilOp``, ``faceIteratorOp``) are implemented directly
from their mathematical definition (Eq. 2), which makes this interpreter
the ground truth that tiling, fusion, scheduling, vectorization and the
NumPy backend are all tested against.

Value semantics: tensors are immutable SSA values. The interpreter avoids
gratuitous copies with a single-use ownership rule — an operand array may
be mutated in place only when it is the operand's *last* (sole) use and
the producer lives in the consuming op's own block; otherwise it is
copied first. Memrefs are plain mutable ``numpy`` arrays and ``subview``
returns an aliasing view.

``Interpreter(module, checked=True)`` additionally validates every
element, slice, vector and structured-op access against the accessed
array's extents *before* performing it (NumPy would silently wrap
negative indices) and raises :class:`OutOfBoundsError` on escape. Each
checked op also records the hull of every index range it touched in
:attr:`Interpreter.access_ranges`, keyed by ``id(op)`` — the dynamic
oracle the abstract-interpretation analyzer
(:mod:`repro.analysis.absint`) is tested against: every observed range
must lie inside the statically proven one.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core import scheduling
from repro.dialects.cfd import FaceIteratorOp, GetParallelBlocksOp, StencilOp, TiledLoopOp
from repro.dialects.func import FuncOp
from repro.dialects.linalg import GenericOp
from repro.ir.block import Block
from repro.ir.module import ModuleOp
from repro.ir.operation import Operation
from repro.ir.values import OpResult, Value


class InterpreterError(Exception):
    """Raised on malformed or unsupported IR at execution time."""


class OutOfBoundsError(InterpreterError):
    """A checked-mode access escaped its array (``checked=True`` only)."""


#: Handlers: op name -> callable(interpreter, op) evaluating the op.
_HANDLERS: Dict[str, Callable[["Interpreter", Operation], None]] = {}


def handler(name: str):
    def wrap(fn):
        _HANDLERS[name] = fn
        return fn

    return wrap


class Interpreter:
    """Executes functions of a module on NumPy/scalar values."""

    def __init__(self, module: ModuleOp, checked: bool = False) -> None:
        self.module = module
        self.env: Dict[int, Any] = {}
        self.checked = checked
        #: id(op) -> per-dimension [lo, hi] hull of every access the op
        #: performed, inclusive on both ends (checked mode only).
        self.access_ranges: Dict[int, List[Tuple[int, int]]] = {}

    def check_access(
        self,
        op: Operation,
        shape: Sequence[int],
        box: Sequence[Tuple[int, int]],
    ) -> None:
        """Checked mode: trap an escaping access, else record its hull.

        ``box`` is the inclusive per-dimension index range the op is
        about to touch. Validated explicitly because NumPy would wrap a
        negative index around instead of failing.
        """
        if not self.checked:
            return
        box = [(int(lo), int(hi)) for lo, hi in box]
        for d, ((lo, hi), n) in enumerate(zip(box, shape)):
            if lo < 0 or hi > n - 1:
                raise OutOfBoundsError(
                    f"{op.name} accesses [{lo}, {hi}] along dimension {d} "
                    f"of an array of extent {n}"
                )
        hull = self.access_ranges.get(id(op))
        if hull is None:
            self.access_ranges[id(op)] = box
        else:
            self.access_ranges[id(op)] = [
                (min(a, lo), max(b, hi))
                for (a, b), (lo, hi) in zip(hull, box)
            ]

    # ---- environment ----------------------------------------------------

    def get(self, value: Value) -> Any:
        try:
            return self.env[id(value)]
        except KeyError:
            raise InterpreterError(f"unbound value {value!r}") from None

    def set(self, value: Value, obj: Any) -> None:
        self.env[id(value)] = obj

    def consume_array(self, op: Operation, operand_index: int) -> np.ndarray:
        """The operand's array, mutable by the caller.

        Steals the buffer only when the value is an :class:`OpResult`
        defined in the consuming op's own block with this as its single
        use — then its previous binding is provably dead. Block arguments
        are never stolen: their array may alias a value owned by an outer
        scope (a function argument, a loop's initial iter operand), which
        must not be mutated.
        """
        value = op.operand(operand_index)
        arr = self.get(value)
        if (
            isinstance(value, OpResult)
            and value.num_uses == 1
            and value.owner_block() is op.parent
        ):
            return arr
        return arr.copy()

    # ---- execution -------------------------------------------------------

    def run(self, func_name: str, *args: Any) -> List[Any]:
        func = self.module.lookup_symbol(func_name)
        if not isinstance(func, FuncOp):
            raise InterpreterError(f"no function named {func_name!r}")
        if len(args) != len(func.arguments):
            raise InterpreterError(
                f"{func_name} expects {len(func.arguments)} arguments, got {len(args)}"
            )
        return self.eval_block(func.body, args)

    def eval_block(self, block: Block, args: Sequence[Any]) -> List[Any]:
        """Execute a block; returns the terminator's operand values."""
        if len(args) != len(block.arguments):
            raise InterpreterError(
                f"block expects {len(block.arguments)} arguments, got {len(args)}"
            )
        for formal, actual in zip(block.arguments, args):
            self.set(formal, actual)
        for op in block.operations:
            self.eval_op(op)
        term = block.terminator
        if term is None:
            return []
        return [self.get(o) for o in term.operands]

    def eval_op(self, op: Operation) -> None:
        fn = _HANDLERS.get(op.name)
        if fn is None:
            raise InterpreterError(f"no interpreter handler for {op.name!r}")
        fn(self, op)

    def eval_region_scalars(
        self, block: Block, args: Sequence[float]
    ) -> List[float]:
        """Evaluate a payload region (stencil/flux body) on scalars."""
        return self.eval_block(block, list(args))


def run_function(module: ModuleOp, name: str, *args: Any) -> List[Any]:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    return Interpreter(module).run(name, *args)


# ---------------------------------------------------------------------------
# Terminators (no-ops: the enclosing construct reads their operands).
# ---------------------------------------------------------------------------

for _name in ("scf.yield", "cfd.yield", "linalg.yield", "func.return"):

    @handler(_name)
    def _terminator(interp: Interpreter, op: Operation) -> None:
        pass


# ---------------------------------------------------------------------------
# arith + math
# ---------------------------------------------------------------------------


@handler("arith.constant")
def _constant(interp, op):
    interp.set(op.result(), op.attributes["value"].value)


def _binary(fn):
    def run(interp, op):
        interp.set(op.result(), fn(interp.get(op.operand(0)), interp.get(op.operand(1))))

    return run


_HANDLERS["arith.addf"] = _binary(lambda a, b: a + b)
_HANDLERS["arith.subf"] = _binary(lambda a, b: a - b)
_HANDLERS["arith.mulf"] = _binary(lambda a, b: a * b)
_HANDLERS["arith.divf"] = _binary(lambda a, b: a / b)
_HANDLERS["arith.maximumf"] = _binary(np.maximum)
_HANDLERS["arith.minimumf"] = _binary(np.minimum)
_HANDLERS["arith.addi"] = _binary(lambda a, b: a + b)
_HANDLERS["arith.subi"] = _binary(lambda a, b: a - b)
_HANDLERS["arith.muli"] = _binary(lambda a, b: a * b)
_HANDLERS["arith.floordivi"] = _binary(lambda a, b: a // b)
_HANDLERS["arith.remi"] = _binary(lambda a, b: a % b)
_HANDLERS["arith.minsi"] = _binary(min)
_HANDLERS["arith.maxsi"] = _binary(max)


@handler("arith.negf")
def _negf(interp, op):
    interp.set(op.result(), -interp.get(op.operand(0)))


_CMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


def _cmp(interp, op):
    fn = _CMP[op.attributes["predicate"].value]
    interp.set(op.result(), bool(fn(interp.get(op.operand(0)), interp.get(op.operand(1)))))


_HANDLERS["arith.cmpf"] = _cmp
_HANDLERS["arith.cmpi"] = _cmp


@handler("arith.select")
def _select(interp, op):
    cond = interp.get(op.operand(0))
    interp.set(
        op.result(),
        interp.get(op.operand(1)) if cond else interp.get(op.operand(2)),
    )


@handler("arith.index_cast")
def _index_cast(interp, op):
    interp.set(op.result(), int(interp.get(op.operand(0))))


@handler("arith.sitofp")
def _sitofp(interp, op):
    interp.set(op.result(), float(interp.get(op.operand(0))))


_HANDLERS["math.sqrt"] = lambda i, op: i.set(op.result(), np.sqrt(i.get(op.operand(0))))
_HANDLERS["math.absf"] = lambda i, op: i.set(op.result(), np.abs(i.get(op.operand(0))))
_HANDLERS["math.exp"] = lambda i, op: i.set(op.result(), np.exp(i.get(op.operand(0))))
_HANDLERS["math.log"] = lambda i, op: i.set(op.result(), np.log(i.get(op.operand(0))))
_HANDLERS["math.powf"] = _binary(np.power)


@handler("math.fma")
def _fma(interp, op):
    a, b, c = (interp.get(op.operand(i)) for i in range(3))
    interp.set(op.result(), a * b + c)


# ---------------------------------------------------------------------------
# func
# ---------------------------------------------------------------------------


@handler("func.func")
def _func(interp, op):
    pass  # functions execute when called


@handler("func.call")
def _call(interp, op):
    callee = interp.module.lookup_symbol(op.attributes["callee"].value)
    if not isinstance(callee, FuncOp):
        raise InterpreterError(f"call to unknown function {op.attributes['callee']}")
    args = [interp.get(o) for o in op.operands]
    results = interp.eval_block(callee.body, args)
    for res, val in zip(op.results, results):
        interp.set(res, val)


# ---------------------------------------------------------------------------
# scf
# ---------------------------------------------------------------------------


@handler("scf.for")
def _for(interp, op):
    lb = int(interp.get(op.operand(0)))
    ub = int(interp.get(op.operand(1)))
    step = int(interp.get(op.operand(2)))
    if step <= 0:
        raise InterpreterError("scf.for requires a positive step")
    carried = [interp.get(o) for o in op.operands[3:]]
    body = op.regions[0].entry_block
    for iv in range(lb, ub, step):
        carried = interp.eval_block(body, [iv] + carried)
    for res, val in zip(op.results, carried):
        interp.set(res, val)


@handler("scf.if")
def _if(interp, op):
    cond = interp.get(op.operand(0))
    block = op.regions[0].entry_block if cond else op.regions[1].entry_block
    results = interp.eval_block(block, [])
    for res, val in zip(op.results, results):
        interp.set(res, val)


@handler("scf.parallel")
def _parallel(interp, op):
    rank = op.num_operands // 3
    lbs = [int(interp.get(op.operand(i))) for i in range(rank)]
    ubs = [int(interp.get(op.operand(rank + i))) for i in range(rank)]
    steps = [int(interp.get(op.operand(2 * rank + i))) for i in range(rank)]
    body = op.regions[0].entry_block
    for ivs in itertools.product(
        *(range(lb, ub, st) for lb, ub, st in zip(lbs, ubs, steps))
    ):
        interp.eval_block(body, list(ivs))


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


@handler("tensor.empty")
def _tensor_empty(interp, op):
    t = op.result().type
    shape = list(t.shape)
    dyn = iter(int(interp.get(o)) for o in op.operands)
    shape = [next(dyn) if d == -1 else d for d in shape]
    interp.set(op.result(), np.zeros(shape, dtype=np.float64))


@handler("tensor.dim")
def _tensor_dim(interp, op):
    arr = interp.get(op.operand(0))
    interp.set(op.result(), int(arr.shape[op.attributes["dim"].value]))


@handler("tensor.extract")
def _tensor_extract(interp, op):
    arr = interp.get(op.operand(0))
    idx = tuple(int(interp.get(o)) for o in op.operands[1:])
    interp.check_access(op, arr.shape, [(i, i) for i in idx])
    interp.set(op.result(), float(arr[idx]))


@handler("tensor.insert")
def _tensor_insert(interp, op):
    arr = interp.consume_array(op, 1)
    idx = tuple(int(interp.get(o)) for o in op.operands[2:])
    interp.check_access(op, arr.shape, [(i, i) for i in idx])
    arr[idx] = interp.get(op.operand(0))
    interp.set(op.result(), arr)


@handler("tensor.extract_slice")
def _tensor_extract_slice(interp, op):
    arr = interp.get(op.operand(0))
    rank = (op.num_operands - 1) // 2
    offs = [int(interp.get(o)) for o in op.operands[1 : 1 + rank]]
    sizes = [int(interp.get(o)) for o in op.operands[1 + rank :]]
    interp.check_access(
        op, arr.shape, [(o, max(o, o + s - 1)) for o, s in zip(offs, sizes)]
    )
    slices = tuple(slice(o, o + s) for o, s in zip(offs, sizes))
    interp.set(op.result(), arr[slices].copy())


@handler("tensor.insert_slice")
def _tensor_insert_slice(interp, op):
    tile = interp.get(op.operand(0))
    dest = interp.consume_array(op, 1)
    rank = (op.num_operands - 2) // 2
    offs = [int(interp.get(o)) for o in op.operands[2 : 2 + rank]]
    sizes = [int(interp.get(o)) for o in op.operands[2 + rank :]]
    interp.check_access(
        op, dest.shape, [(o, max(o, o + s - 1)) for o, s in zip(offs, sizes)]
    )
    slices = tuple(slice(o, o + s) for o, s in zip(offs, sizes))
    dest[slices] = tile
    interp.set(op.result(), dest)


# ---------------------------------------------------------------------------
# memref
# ---------------------------------------------------------------------------


@handler("memref.alloc")
def _alloc(interp, op):
    t = op.result().type
    dyn = iter(int(interp.get(o)) for o in op.operands)
    shape = [next(dyn) if d == -1 else d for d in t.shape]
    interp.set(op.result(), np.zeros(shape, dtype=np.float64))


@handler("memref.dealloc")
def _dealloc(interp, op):
    pass


@handler("memref.load")
def _load(interp, op):
    arr = interp.get(op.operand(0))
    idx = tuple(int(interp.get(o)) for o in op.operands[1:])
    interp.check_access(op, arr.shape, [(i, i) for i in idx])
    interp.set(op.result(), float(arr[idx]))


@handler("memref.store")
def _store(interp, op):
    arr = interp.get(op.operand(1))
    idx = tuple(int(interp.get(o)) for o in op.operands[2:])
    interp.check_access(op, arr.shape, [(i, i) for i in idx])
    arr[idx] = interp.get(op.operand(0))


@handler("memref.subview")
def _subview(interp, op):
    arr = interp.get(op.operand(0))
    rank = (op.num_operands - 1) // 2
    offs = [int(interp.get(o)) for o in op.operands[1 : 1 + rank]]
    sizes = [int(interp.get(o)) for o in op.operands[1 + rank :]]
    interp.check_access(
        op, arr.shape, [(o, max(o, o + s - 1)) for o, s in zip(offs, sizes)]
    )
    slices = tuple(slice(o, o + s) for o, s in zip(offs, sizes))
    interp.set(op.result(), arr[slices])  # an aliasing view, not a copy


@handler("memref.copy")
def _memref_copy(interp, op):
    src = interp.get(op.operand(0))
    dst = interp.get(op.operand(1))
    dst[...] = src


@handler("memref.dim")
def _memref_dim(interp, op):
    arr = interp.get(op.operand(0))
    interp.set(op.result(), int(arr.shape[op.attributes["dim"].value]))


# ---------------------------------------------------------------------------
# vector
# ---------------------------------------------------------------------------


@handler("vector.transfer_read")
def _transfer_read(interp, op):
    arr = interp.get(op.operand(0))
    idx = [int(interp.get(o)) for o in op.operands[1:]]
    vf = op.result().type.shape[0]
    lead, last = tuple(idx[:-1]), idx[-1]
    interp.check_access(
        op, arr.shape, [(i, i) for i in lead] + [(last, last + vf - 1)]
    )
    interp.set(op.result(), arr[lead + (slice(last, last + vf),)].copy())


@handler("vector.transfer_write")
def _transfer_write(interp, op):
    vec = interp.get(op.operand(0))
    idx = [int(interp.get(o)) for o in op.operands[2:]]
    lead, last = tuple(idx[:-1]), idx[-1]
    window = lead + (slice(last, last + len(vec)),)
    box = [(i, i) for i in lead] + [(last, last + len(vec) - 1)]
    if op.num_results:  # tensor destination: functional update
        dest = interp.consume_array(op, 1)
        interp.check_access(op, dest.shape, box)
        dest[window] = vec
        interp.set(op.result(), dest)
    else:  # memref destination: in-place
        dest = interp.get(op.operand(1))
        interp.check_access(op, dest.shape, box)
        dest[window] = vec


@handler("vector.broadcast")
def _broadcast(interp, op):
    n = op.result().type.shape[0]
    interp.set(op.result(), np.full(n, interp.get(op.operand(0)), dtype=np.float64))


@handler("vector.extract")
def _vector_extract(interp, op):
    vec = interp.get(op.operand(0))
    interp.set(op.result(), float(vec[op.attributes["position"].value]))


@handler("vector.fma")
def _vector_fma(interp, op):
    a, b, c = (interp.get(op.operand(i)) for i in range(3))
    interp.set(op.result(), a * b + c)


# ---------------------------------------------------------------------------
# linalg
# ---------------------------------------------------------------------------


def _cell(interp, body: Block, args: List[float]) -> List[Any]:
    """A whole-array op's payload on one cell, meaning what it does over
    arrays: a zero divisor gives inf (NumPy scalars), not an exception."""
    try:
        return interp.eval_block(body, args)
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore"):
            return interp.eval_block(body, [np.float64(a) for a in args])


@handler("linalg.generic")
def _generic(interp, op: GenericOp):
    n = op.num_ins
    ins = [interp.get(v) for v in op.operands[:n]]
    out = interp.consume_array(op, n)
    offsets = op.offsets
    bounds = op.iteration_bounds(out.shape)
    body = op.regions[0].entry_block
    if interp.checked and all(hi > lo for lo, hi in bounds):
        for arr, off in zip(ins, offsets):
            interp.check_access(
                op, arr.shape,
                [(lo + o, hi - 1 + o) for (lo, hi), o in zip(bounds, off)],
            )
        interp.check_access(op, out.shape, [(lo, hi - 1) for lo, hi in bounds])
    for i in itertools.product(*(range(lo, hi) for lo, hi in bounds)):
        args = [
            float(a[tuple(ii + oi for ii, oi in zip(i, off))])
            for a, off in zip(ins, offsets)
        ]
        args.append(float(out[i]))
        out[i] = _cell(interp, body, args)[0]
    interp.set(op.result(), out)


@handler("linalg.fill")
def _fill(interp, op):
    out = interp.consume_array(op, 1)
    out[...] = interp.get(op.operand(0))
    interp.set(op.result(), out)


# ---------------------------------------------------------------------------
# cfd — the reference semantics of the paper's operations
# ---------------------------------------------------------------------------


@handler("cfd.stencilOp")
def _stencil(interp, op: StencilOp):
    x = interp.get(op.operand(0))
    b = interp.get(op.operand(1))
    y = interp.consume_array(op, 2)
    pattern = op.pattern
    nv = op.nb_var
    space_shape = y.shape[1:]
    bounds = pattern.interior_bounds(space_shape)
    if op.has_bounds:
        los = [int(interp.get(v)) for v in op.bounds_lo]
        his = [int(interp.get(v)) for v in op.bounds_hi]
        if interp.checked and not any(h <= l for l, h in zip(los, his)):
            # Validate the *declared* window (the lowered loops honour it
            # verbatim; the interior clamp below is interpreter-only).
            k = pattern.rank
            halo_lo = [max([0] + [-o[d] for o, _ in pattern.accesses])
                       for d in range(k)]
            halo_hi = [max([0] + [o[d] for o, _ in pattern.accesses])
                       for d in range(k)]
            write_box = [(0, nv - 1)] + [(l, h - 1) for l, h in zip(los, his)]
            read_box = [(0, nv - 1)] + [
                (l - hl, h - 1 + hh)
                for l, h, hl, hh in zip(los, his, halo_lo, halo_hi)
            ]
            interp.check_access(op, x.shape, read_box)
            interp.check_access(op, y.shape, read_box)
            interp.check_access(op, b.shape, write_box)
        bounds = [
            (max(lo, wl), min(hi, wh))
            for (lo, hi), wl, wh in zip(bounds, los, his)
        ]
    ranges = [range(lo, hi) for lo, hi in bounds]
    if pattern.sweep == -1:
        ranges = [range(hi - 1, lo - 1, -1) for lo, hi in bounds]
    body = op.regions[0].entry_block
    accesses = pattern.accesses
    for i in itertools.product(*ranges):
        args: List[float] = []
        for offset, tag in accesses:
            src = y if tag == -1 else x
            pos = tuple(ii + oi for ii, oi in zip(i, offset))
            for v in range(nv):
                args.append(float(src[(v,) + pos]))
        for v in range(nv):
            args.append(float(x[(v,) + i]))
        outs = interp.eval_block(body, args)
        d = outs[0]
        contribs = outs[1:]
        for v in range(nv):
            total = float(b[(v,) + i])
            for a in range(len(accesses) + 1):
                total += contribs[a * nv + v]
            y[(v,) + i] = total / d
    interp.set(op.result(), y)


@handler("cfd.faceIteratorOp")
def _face_iterator(interp, op: FaceIteratorOp):
    x = interp.get(op.operand(0))
    b = interp.consume_array(op, 1)
    axis = op.axis
    nv = op.nb_var
    space_shape = x.shape[1:]
    body = op.regions[0].entry_block
    # Backwards along the axis: each cell's ``-=`` comes before its ``+=``,
    # the order of the whole-array statements ``b[v, :-1] -= f`` then
    # ``b[v, 1:] += f`` the NumPy tier runs (a sum's rounding depends on it).
    face_ranges = [
        range(n - 2, -1, -1) if d == axis else range(n)
        for d, n in enumerate(space_shape)
    ]
    for i in itertools.product(*face_ranges):
        j = tuple(ii + (1 if d == axis else 0) for d, ii in enumerate(i))
        args = [float(x[(v,) + i]) for v in range(nv)]
        args += [float(x[(v,) + j]) for v in range(nv)]
        flux = _cell(interp, body, args)
        for v in range(nv):
            b[(v,) + i] -= flux[v]
            b[(v,) + j] += flux[v]
    interp.set(op.result(), b)


@handler("cfd.tiled_loop")
def _tiled_loop(interp, op: TiledLoopOp):
    k = op.rank
    lbs = [int(interp.get(v)) for v in op.lbs]
    ubs = [int(interp.get(v)) for v in op.ubs]
    steps = [int(interp.get(v)) for v in op.steps]
    ins = [interp.get(v) for v in op.ins]
    outs = [interp.get(v).copy() for v in op.outs]
    body = op.regions[0].entry_block
    grid = [
        max(0, -(-(ub - lb) // st)) for lb, ub, st in zip(lbs, ubs, steps)
    ]
    if op.has_groups:
        group_offsets = np.asarray(interp.get(op.group_operands[0]))
        group_indices = np.asarray(interp.get(op.group_operands[1]))
        order = [
            scheduling.delinearize(int(linear), grid)
            for g in range(len(group_offsets) - 1)
            for linear in group_indices[group_offsets[g] : group_offsets[g + 1]]
        ]
    else:
        order = list(itertools.product(*(range(n) for n in grid)))
        if op.reverse:
            order.reverse()
    for coords in order:
        ivs = [lb + c * st for lb, c, st in zip(lbs, coords, steps)]
        outs = interp.eval_block(body, ivs + ins + outs)
    for res, val in zip(op.results, outs):
        interp.set(res, val)


@handler("cfd.get_parallel_blocks")
def _get_parallel_blocks(interp, op: GetParallelBlocksOp):
    num_blocks = [int(interp.get(o)) for o in op.operands]
    offsets, indices = scheduling.compute_parallel_blocks(
        num_blocks, op.block_offsets
    )
    interp.set(op.result(0), offsets)
    interp.set(op.result(1), indices)
