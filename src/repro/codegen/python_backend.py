"""The NumPy backend: emit lowered IR as executable Python source.

This plays the role of MLIR's LLVM lowering in the reproduction: the
final, optimized IR (scf loops + tensor/vector ops + ``cfd.tiled_loop``)
is translated into Python where

* ``vector.transfer_read/write`` and whole-array ``linalg.generic`` /
  ``cfd.faceIteratorOp`` emissions become NumPy slice operations — the
  "vector unit" (C speed);
* scalar loops become Python ``for`` loops — the "scalar unit" (slow),
  so the vectorized-vs-scalar performance shape of the paper carries
  over. An f64 SSA scalar is a Python ``float``, as in the interpreter:
  loads are ``.item(...)``, lanes come from one ``tolist()`` per vector,
  and a scalar op with one user in its block nests into that user;
* ``cfd.tiled_loop`` becomes a grid loop, its CSR wavefront groups a
  group-ordered loop.

One walk, two printers: :class:`Emitter` owns the traversal — naming,
ownership, expression nesting, deferred stores — and prints through a
few *syntax methods* (``declare``, ``block``, ``load``, ``store_row``,
... and the :data:`FORMATS` table). The C printer
(:mod:`repro.codegen.c_backend`) overrides only those and is forked over
the body of every outermost ``cfd.tiled_loop``, and over every run of
whole-array ops outside one: the walk that prints ``def blkN(lin)`` (or
the run's NumPy statements) also prints ``int blkN(...)``, same SSA names.

Buffer ownership: tensors are SSA values, but emitting a copy per
``tensor.insert`` would be quadratic. The emitter runs a static
ownership analysis — a value's buffer may be mutated in place iff the
binding *owns* it (the producer created it fresh) and the mutating op is
the value's last use in block order; otherwise a ``.copy()`` is emitted.
Function arguments are never owned, so caller arrays are never mutated.
A value that merely renames a buffer (a stolen operand, a loop result)
shares its name: no statement is printed for it.

Deferred stores: a chain of in-place ``tensor.insert``s is held back and
written as one slice store per row (:class:`_PendingStores`). Until the
flush — forced by every op that is not a scalar expression and by the end
of the block — emitted code only reads Python floats/ints and ``tolist()``
snapshots, never an array. So a lane list and a deferred store cannot
observe each other: the list was copied out when its vector was bound
(``vector.transfer_read`` itself is a *view*), and a view read after an
in-place insert merely sees the older contents its SSA value denotes.
"""

from __future__ import annotations

import math
from contextlib import ExitStack, contextmanager
from itertools import groupby
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.dialects.arith import CMP, value_ops
from repro.dialects.cfd import TiledLoopOp
from repro.dialects.linalg import GenericOp
from repro.ir.block import Block
from repro.ir.indexing import literal as _const
from repro.ir.module import ModuleOp
from repro.ir.operation import Operation
from repro.ir.types import MemRefType, TensorType, VectorType
from repro.ir.values import OpResult, Value


#: Version of the emission strategy. Part of every kernel-cache
#: fingerprint: bump it whenever emitted code changes for the same IR, so
#: persisted cache entries from older emitters are never reused.
EMITTER_VERSION = "6"


class BackendError(Exception):
    """Raised when the module still contains unlowered operations or
    lacks the requested entry point."""


class EmittedSource(str):
    """The emitted Python text. It carries the C text of the outlined
    block bodies (``None``: no loop was printable) and, when a loop was
    left out, why (``unsupported-op:<name>``)."""

    native_source: Optional[str] = None
    native_reason: Optional[str] = None


# ``_PARALLEL_CERTIFIED`` is flipped by CompiledKernel.certify_parallel()
# once the race analyzer has cleared the lowered module; the dispatcher
# refuses multi-thread execution until then.
_HEADER = """\
import numpy as _np
from repro.core.scheduling import compute_parallel_blocks as _compute_parallel_blocks
from repro.runtime.parallel import dispatch_wavefronts as _dispatch_wavefronts
_PARALLEL_CERTIFIED = False

"""

#: op name -> expression over its printed operands, from the op records;
#: ``"grid"`` is the tile count along one dimension: (lb, ub, step).
FORMATS = {name: op.NUMPY for name, op in value_ops().items()}
FORMATS["grid"] = "max(0, -(-({1} - {0}) // {2}))"


def _format(fmt: str, op: Operation, operands: Sequence[str]) -> str:
    """``fmt`` over ``operands``; ``{cmp}`` is a comparison's symbol."""
    pred = op.attributes.get("predicate")
    if pred is None:
        return fmt.format(*operands)
    return fmt.format(*operands, cmp=CMP[pred.value][0])


#: Like scalar expressions, these print each operand once (safe to nest into).
_ELEMENT_OPS = {"tensor.extract", "tensor.insert", "memref.load", "memref.store"}


#: Whole-array ops: a run of them outside any outlined loop is forked as
#: one C function of its own.
_ARRAY_OPS = {"linalg.fill", "linalg.generic", "cfd.faceIteratorOp"}


def _is_buffer(t) -> bool:
    return isinstance(t, (TensorType, MemRefType))


def _is_scalar_expr(op: Operation) -> bool:
    """A memory-free op on scalars: nested into a lone user, not emitted
    when unused, and emitted without flushing pending stores."""
    return (
        op.name.startswith(("arith.", "math.")) or op.name == "vector.extract"
    ) and not isinstance(op.result().type, (TensorType, VectorType))


def _base_offset(index: Value) -> Tuple[Value, int]:
    """``index`` as ``base + constant``, peeling one ``arith.addi``."""
    if isinstance(index, OpResult) and index.op.name == "arith.addi":
        base, offset = index.op.operands
        if _const(offset) is not None:
            return base, _const(offset)
    return index, 0


class _PendingStores:
    """One ``tensor.insert`` chain's element stores, by row: a row is keyed
    by its leading indices (constants by value) and holds one run of
    consecutive innermost offsets from a common base. Rows coexist only
    when two of their constant leading indices differ, so regrouping the
    chain's writes by row never reorders two writes to one cell."""

    def __init__(self, buf: str) -> None:
        self.buf = buf
        self.tip: Optional[Value] = None
        #: lead key -> [base, (offset, index text, value text), ...]
        self.rows: Dict[tuple, list] = {}

    def add(self, key: tuple, base: Value, *entry) -> bool:
        row = self.rows.get(key)
        if row is None:
            apart = all(
                any(type(a) is type(b) is int and a != b for a, b in zip(key, k))
                for k in self.rows
            )
            if apart:
                self.rows[key] = [base, entry]
            return apart
        last = row[-1][0]  # a run continues in the direction it started
        ahead = {2 * last - row[-2][0]} if len(row) > 2 else {last - 1, last + 1}
        if row[0] is not base or entry[0] not in ahead:
            return False
        row.append(entry)
        return True


class Emitter:
    """Walks one module and prints it — as Python here; the syntax
    methods are what :class:`repro.codegen.c_backend.CEmitter` replaces."""

    FORMATS = FORMATS
    #: what opens, fills when empty, and closes a block
    OPEN, EMPTY, CLOSE = ":", "pass", ""

    def __init__(self, module: ModuleOp, native=None) -> None:
        self.module = module
        self.lines: List[str] = []
        self.indent = 0
        self.names: Dict[int, str] = {}
        self.owned: Dict[int, bool] = {}
        #: id(vector value) -> name of its lane snapshot (``tolist()``).
        self.lists: Dict[int, str] = {}
        self.pending: Optional[_PendingStores] = None
        self.counter = 0
        #: id(block) -> {id(op): its index}, for can_steal; shared with forks.
        self.positions: Dict[int, Dict[int, int]] = {}
        #: Collects the C functions of outlined loops (``None``: off, and
        #: inside a loop that is already outlined).
        self.native = native
        #: (id(op), operand index) -> the buffer a forked run's op updates,
        #: taken before the fork so both twins update the same one.
        self.taken: Dict[Tuple[int, int], str] = {}

    # ---- infrastructure -------------------------------------------------

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def fresh(self, prefix: str = "v") -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def name(self, value: Value) -> str:
        n = self.names.get(id(value))
        return n if n is not None else self.unnamed(value)

    def unnamed(self, value: Value) -> str:
        """The name of a value met for the first time."""
        number = _const(value)  # never declared: printed where read
        n = self.fresh() if number is None else self.literal(number)
        self.names[id(value)] = n
        return n

    def alias(self, value: Value, name: str, owned: bool) -> None:
        """``value`` is the buffer (or variable) already called ``name``."""
        self.names[id(value)] = name
        self.owned[id(value)] = owned

    def bind(self, value: Value, expr: str, owned: bool = False) -> None:
        op, uses = getattr(value, "op", None), value.uses  # no op: block arg
        if op is not None and _is_scalar_expr(op):
            if not uses:
                return
            user = uses[0].owner
            # An index plus a constant is reprinted wherever it is read (as
            # a lane index it is mostly not: rows print base and offset).
            shift = op.name == "arith.addi" and _const(op.operand(1)) is not None
            # (the length cap bounds parenthesis depth far below CPython's 200)
            if len(expr) < 256 and (shift or (
                len(uses) == 1 and user.parent is op.parent
                and (user.name in _ELEMENT_OPS or _is_scalar_expr(user))
            )):
                self.names[id(value)] = expr
                return
        self.declare(self.name(value), expr, value.type)
        self.owned[id(value)] = owned
        self.snapshot_lanes(value)

    def snapshot_lanes(self, value: Value) -> None:
        """Copy a vector's lanes out where it is bound, if any are read."""
        if isinstance(value.type, VectorType) and any(
            u.owner.name == "vector.extract" and u.owner.result().uses
            for u in value.uses
        ):
            n = self.name(value)
            self.lists[id(value)] = f"{n}_l"
            self.snapshot(n, value.type.shape[0])

    # ---- syntax: what the C printer overrides ---------------------------

    def literal(self, number) -> str:
        if isinstance(number, float) and not math.isfinite(number):
            return f'float("{number}")'
        return repr(number) if number >= 0 else f"({number!r})"

    def operand(self, value: Value) -> str:
        """``value`` as an operand of an elementwise expression."""
        return self.name(value)

    def declare(self, name: str, expr: str, type=None, mutable=False) -> None:
        self.emit(f"{name} = {expr}")

    def assign(self, name: str, expr: str, type=None) -> None:
        self.emit(f"{name} = {expr}")

    @contextmanager
    def block(self, header: str) -> Iterator[None]:
        self.emit(header + self.OPEN)
        self.indent += 1
        mark = len(self.lines)
        yield
        if len(self.lines) == mark and self.EMPTY:
            self.emit(self.EMPTY)
        self.indent -= 1
        if self.CLOSE:
            self.emit(self.CLOSE)

    def for_range(self, iv: str, lb: str, ub: str, step: str) -> str:
        return f"for {iv} in range({lb}, {ub}, {step})"

    def snapshot(self, name: str, lanes: int) -> None:
        self.emit(f"{name}_l = {name}.tolist()")

    def zeros(self, value: Value, shape: Sequence[str]) -> None:
        dims = ", ".join(shape) + ("," if len(shape) == 1 else "")
        self.bind(value, f"_np.zeros(({dims}))", owned=True)

    def copy_buffer(self, name: str, src: str, type) -> None:
        self.emit(f"{name} = {src}.copy()")

    def dim(self, buf: str, d: int) -> str:
        return f"{buf}.shape[{d}]"

    def load(self, buf: str, idx: Sequence[str]) -> str:
        return f"{buf}.item({', '.join(idx)})"

    def store_row(self, buf: str, lead: Sequence, base, run: list) -> None:
        """One row of deferred stores: ``run`` is sorted ``(offset from
        base, index text, value text)``; ``base`` is ``None`` for one."""
        lo, where, what = run[0]
        if base is not None:
            where = f"{f'{base} + {lo}' if lo else base}:{base} + {lo + len(run)}"
            what = "(" + ", ".join(r[2] for r in run) + ")"
        self.emit(f"{buf}[{''.join(f'{i}, ' for i in lead)}{where}] = {what}")

    def _window(self, offs: Sequence[str], sizes: Sequence[str]) -> str:
        return ", ".join(f"{o}:{o} + {s}" for o, s in zip(offs, sizes))

    def slice_copy(self, value: Value, src: str, offs, sizes) -> None:
        self.bind(value, f"{src}[{self._window(offs, sizes)}].copy()", owned=True)

    def slice_store(self, dst: str, offs, sizes, src: str) -> None:
        self.emit(f"{dst}[{self._window(offs, sizes)}] = {src}")

    def fill(self, buf: str, value: str, type) -> None:
        self.emit(f"{buf}[...] = {value}")

    def _strip(self, idx: Sequence[str], lanes: str) -> str:
        return ", ".join([*idx[:-1], f"{idx[-1]}:{idx[-1]} + {lanes}"])

    def vector_view(self, value: Value, src: str, idx, lanes: int) -> None:
        self.bind(value, f"{src}[{self._strip(idx, str(lanes))}]")

    def vector_store(self, dst: str, idx, vec: str, lanes: int) -> None:
        self.emit(f"{dst}[{self._strip(idx, f'len({vec})')}] = {vec}")

    def broadcast(self, value: Value, scalar: str, lanes: int) -> None:
        self.bind(value, f"_np.full({lanes}, {scalar})", owned=True)

    def lane(self, vec: Value, pos: int) -> str:
        lanes = self.lists.get(id(vec))  # absent for e.g. a block argument
        return f"{lanes}[{pos}]" if lanes else f"{self.name(vec)}.item({pos})"

    # ---- ownership ------------------------------------------------------

    def _position_in(self, block: Block, op: Operation) -> int:
        """Index in ``block`` of ``op``'s ancestor that lives in it."""
        current = op
        while current.parent is not block:
            current = current.parent_op()
            if current is None:
                return -1
        index = self.positions.get(id(block))
        if index is None:  # (the module does not change under the emitter)
            index = self.positions[id(block)] = {
                id(o): i for i, o in enumerate(block.operations)}
        return index[id(current)]

    def can_steal(self, value: Value, consumer: Operation) -> bool:
        """May ``consumer`` mutate ``value``'s buffer in place?"""
        if not self.owned.get(id(value), False):
            return False
        if sum(1 for u in value.uses if u.owner is consumer) > 1:
            return False  # e.g. the same tensor as both input and output
        block = value.owner_block()
        if block is None:
            return False
        my_pos = self._position_in(block, consumer)
        if my_pos < 0:
            return False
        for use in value.uses:
            if use.owner is consumer:
                continue
            other = self._position_in(block, use.owner)
            if other < 0 or other >= my_pos:
                return False
        return True

    def take(self, op: Operation, operand_index: int) -> str:
        """The name of a buffer holding the operand's contents that the
        caller may mutate: the operand's own when it can be stolen, else
        a fresh copy."""
        n = self.taken.get((id(op), operand_index))
        if n is not None:
            return n
        value = op.operand(operand_index)
        n = self.name(value)
        if self.can_steal(value, op):
            return n
        fresh = self.fresh()
        self.copy_buffer(fresh, n, value.type)
        return fresh

    # ---- top level -------------------------------------------------------

    def run(self) -> EmittedSource:
        self.lines = _HEADER.splitlines()
        shapes = {}
        for op in self.module.body.operations:
            if op.name == "func.func":
                self.emit_function(op)
                shapes[op.sym_name] = tuple(
                    tuple(a.type.shape) if _is_buffer(a.type) else None
                    for a in op.body.arguments
                )
            else:
                raise BackendError(f"unexpected top-level op {op.name}")
        # What CompiledKernel checks before a call may take the native tier.
        self.emit(f"_ARG_SHAPES = {shapes!r}")
        source = EmittedSource("\n".join(self.lines) + "\n")
        if self.native is not None:
            source.native_source = self.native.text()
            source.native_reason = self.native.reason
        return source

    def emit_function(self, fn) -> None:
        arg_names = []
        for i, a in enumerate(fn.body.arguments):
            arg_names.append(f"arg{i}_{self.fresh('f')}")
            self.alias(a, arg_names[-1], isinstance(a.type, MemRefType))
        # ``_native``: the loaded block library, passed by CompiledKernel
        # on the calls that take the native tier.
        arg_names.append("_native=None")
        with self.block(f"def {fn.sym_name}({', '.join(arg_names)})"):
            self.emit_block_body(fn.body)
            term = fn.body.terminator
            if term is not None and term.name == "func.return":
                rets = ", ".join(self.name(v) for v in term.operands)
                self.emit(f"return ({rets},)" if term.operands else "return ()")
        self.emit("")

    def emit_block_body(self, block: Block) -> None:
        ops = block.operations
        if ops and ops[-1].name in (
            "func.return", "scf.yield", "cfd.yield", "linalg.yield"
        ):
            ops = ops[:-1]
        for forked, run in groupby(
            ops, lambda op: self.native is not None and op.name in _ARRAY_OPS
        ):
            if forked:
                self._emit_run(list(run))
            else:
                for op in run:
                    self.emit_op(op)
        self.flush()

    def _emit_run(self, run: List[Operation]) -> None:
        """Whole-array ops outside any outlined loop, as one C function
        beside its NumPy twin. The buffers they update in place are taken
        here first, so that both twins update the one this scope names."""
        self.flush()
        made = {id(r) for op in run for r in op.results}
        for op in run:
            dest = op.num_operands - 1  # fill, generic and faces alike
            if id(op.operand(dest)) not in made:
                self.taken[id(op), dest] = self.take(op, dest)
        fn = self.fresh("blk")
        bound = self.native.function(self, fn, (), lambda c: c.outline(run))
        with self.twin(fn, bound):
            for op in run:
                self.emit_op(op)

    @contextmanager
    def twin(self, fn: str, bound: Optional[str]) -> Iterator[None]:
        """What is printed inside runs only when the C function ``fn``,
        bound to ``bound``, is not called instead."""
        with ExitStack() as twin:
            if bound:
                self.emit(f'{fn} = _native and _native("{fn}", None, {bound})')
                with self.block(f"if {fn}"):
                    self.emit(f"{fn}(0)")
                twin.enter_context(self.block("else"))
            yield

    # ---- dispatch ---------------------------------------------------------

    def emit_op(self, op: Operation) -> None:
        handler = getattr(self, "_emit_" + op.name.replace(".", "_"), None)
        if handler is None and op.name in self.FORMATS:
            handler = self._emit_expression
        if handler is None:
            raise BackendError(f"no backend emission for {op.name!r}")
        if op.name != "tensor.insert" and not _is_scalar_expr(op):
            self.flush()
        handler(op)

    def flush(self) -> None:
        """Write out the pending insert chain, one store per row."""
        p, self.pending = self.pending, None
        for key, (base, *run) in (p.rows.items() if p else ()):
            run.sort()  # backward sweeps chain their lanes descending
            self.store_row(
                p.buf, key, self.name(base) if len(run) > 1 else None, run
            )

    # ---- arith / math -----------------------------------------------------

    def _emit_expression(self, op) -> None:
        operands = [self.operand(o) for o in op.operands]
        self.bind(op.result(), _format(self.FORMATS[op.name], op, operands))

    def _emit_arith_constant(self, op) -> None:
        pass  # printed as a literal by name()

    # ---- func ----------------------------------------------------------------

    def _emit_func_call(self, op) -> None:
        callee = op.attributes["callee"].value
        args = ", ".join([self.name(o) for o in op.operands] + ["_native=_native"])
        if op.num_results == 0:
            self.emit(f"{callee}({args})")
            return
        names = [self.name(r) for r in op.results]
        self.emit(f"{', '.join(names)}, = {callee}({args})")
        for r in op.results:
            self.owned[id(r)] = _is_buffer(r.type)

    # ---- scf -------------------------------------------------------------------

    def _emit_scf_for(self, op) -> None:
        lb, ub, step = (self.name(op.operand(i)) for i in range(3))
        carried: List[str] = []
        for arg, init in zip(op.body.arguments[1:], op.operands[3:]):
            if isinstance(init.type, TensorType):
                n = self.take(op, op.operands.index(init))
            else:
                n = self.fresh()
                self.declare(n, self.name(init), init.type, mutable=True)
            self.alias(arg, n, owned=True)
            carried.append(n)
        iv = self.name(op.body.arguments[0])
        with self.block(self.for_range(iv, lb, ub, step)):
            self.emit_block_body(op.body)
            self.rebind(carried, op.body.terminator.operands)
        for res, n in zip(op.results, carried):
            self.alias(res, n, owned=True)

    def rebind(self, names: Sequence[str], yielded: Sequence[Value]) -> List[str]:
        """Carry the yielded values into the next iteration; returns the
        names that had to be rebound (a yield that updated its carried
        buffer in place needs nothing)."""
        moved = []
        for n, y in zip(names, yielded):
            if self.name(y) != n:
                self.assign(n, self.name(y), y.type)
                moved.append(n)
        return moved

    def _emit_scf_if(self, op) -> None:
        res_names = [self.name(r) for r in op.results]
        with self.block(f"if {self.name(op.operand(0))}"):
            self.emit_block_body(op.then_block)
            for n, y in zip(res_names, op.then_block.terminator.operands):
                self.assign(n, self.name(y))
        if len(op.regions) > 1:
            with self.block("else"):
                self.emit_block_body(op.else_block)
                for n, y in zip(res_names, op.else_block.terminator.operands):
                    self.assign(n, self.name(y))
        for r in op.results:
            self.owned[id(r)] = False  # conservative: may alias either side

    def _emit_scf_parallel(self, op) -> None:
        rank = op.num_operands // 3
        lbs = [self.name(op.operand(i)) for i in range(rank)]
        ubs = [self.name(op.operand(rank + i)) for i in range(rank)]
        steps = [self.name(op.operand(2 * rank + i)) for i in range(rank)]
        with ExitStack() as nest:
            for d in range(rank):
                iv = self.name(op.body.arguments[d])
                nest.enter_context(
                    self.block(self.for_range(iv, lbs[d], ubs[d], steps[d])))
            self.emit_block_body(op.body)

    # ---- tensor -----------------------------------------------------------------

    def _shape(self, op, result_type) -> List[str]:
        dyn = iter(self.name(o) for o in op.operands)
        return [next(dyn) if d == -1 else str(d) for d in result_type.shape]

    def _emit_tensor_empty(self, op) -> None:
        self.zeros(op.result(), self._shape(op, op.result().type))

    def _emit_tensor_dim(self, op) -> None:
        d = op.attributes["dim"].value
        self.bind(op.result(), self.dim(self.name(op.operand(0)), d))

    def _emit_tensor_extract(self, op) -> None:
        idx = [self.name(o) for o in op.operands[1:]]
        self.bind(op.result(), self.load(self.name(op.operand(0)), idx))

    def _emit_tensor_insert(self, op) -> None:
        # Deferred: joins the pending chain when it updates its tip in place.
        dest, (*lead, last) = op.operand(1), op.operands[2:]
        steal = self.can_steal(dest, op)
        p = self.pending
        if p is None or p.tip is not dest or not steal:
            self.flush()
            p = self.pending = _PendingStores(self.take(op, 1))
        key = tuple(self.name(i) if _const(i) is None else _const(i) for i in lead)
        base, off = _base_offset(last)
        store = (key, base, off, self.name(last), self.name(op.operand(0)))
        if not p.add(*store):
            self.flush()
            p = self.pending = _PendingStores(p.buf)
            p.add(*store)
        p.tip = op.result()
        self.alias(p.tip, p.buf, owned=True)

    def _window_operands(self, op, first: int):
        rank = (op.num_operands - first) // 2
        names = [self.name(o) for o in op.operands[first:]]
        return names[:rank], names[rank:]

    def _emit_tensor_extract_slice(self, op) -> None:
        offs, sizes = self._window_operands(op, 1)
        self.slice_copy(op.result(), self.name(op.operand(0)), offs, sizes)

    def _emit_tensor_insert_slice(self, op) -> None:
        offs, sizes = self._window_operands(op, 2)
        # In place when the destination can be stolen: the result *is*
        # that buffer (grouped loop bodies rely on this — a rebind-free
        # body can run its blocks concurrently).
        n = self.take(op, 1)
        self.slice_store(n, offs, sizes, self.name(op.operand(0)))
        self.alias(op.result(), n, owned=True)

    # ---- memref ----------------------------------------------------------

    def _emit_memref_alloc(self, op) -> None:
        self.zeros(op.result(), self._shape(op, op.result().type))

    def _emit_memref_dealloc(self, op) -> None:
        self.emit(f"del {self.name(op.operand(0))}")

    _emit_memref_load = _emit_tensor_extract

    def _emit_memref_store(self, op) -> None:
        idx = ", ".join(self.name(o) for o in op.operands[2:])
        self.emit(
            f"{self.name(op.operand(1))}[{idx}] = {self.name(op.operand(0))}"
        )

    def _emit_memref_subview(self, op) -> None:
        offs, sizes = self._window_operands(op, 1)
        src = self.name(op.operand(0))
        self.bind(op.result(), f"{src}[{self._window(offs, sizes)}]")

    def _emit_memref_copy(self, op) -> None:
        self.emit(
            f"{self.name(op.operand(1))}[...] = {self.name(op.operand(0))}"
        )

    _emit_memref_dim = _emit_tensor_dim

    # ---- vector -----------------------------------------------------------

    def _emit_vector_transfer_read(self, op) -> None:
        idx = [self.name(o) for o in op.operands[1:]]
        lanes = op.result().type.shape[0]
        self.vector_view(op.result(), self.name(op.operand(0)), idx, lanes)

    def _emit_vector_transfer_write(self, op) -> None:
        idx = [self.name(o) for o in op.operands[2:]]
        vec = op.operand(0)
        dest = self.take(op, 1) if op.num_results else self.name(op.operand(1))
        self.vector_store(dest, idx, self.name(vec), vec.type.shape[0])
        if op.num_results:
            self.alias(op.result(), dest, owned=True)

    def _emit_vector_broadcast(self, op) -> None:
        lanes = op.result().type.shape[0]
        self.broadcast(op.result(), self.name(op.operand(0)), lanes)

    def _emit_vector_extract(self, op) -> None:
        pos = op.attributes["position"].value
        self.bind(op.result(), self.lane(op.operand(0), pos))

    # ---- linalg (vectorized whole-array emission) ---------------------------

    def _emit_linalg_fill(self, op) -> None:
        n = self.take(op, 1)
        self.fill(n, self.name(op.operand(0)), op.result().type)
        self.alias(op.result(), n, owned=True)

    def _emit_linalg_generic(self, op: GenericOp) -> None:
        n_ins = op.num_ins
        insets = op.insets()
        out = self.take(op, n_ins)
        self.alias(op.result(), out, owned=True)

        def window(off: Sequence[int]) -> str:
            parts = []
            for d, (lo, hi) in enumerate(insets):
                hi_shift = hi - off[d]
                stop = f"{out}.shape[{d}] - {hi_shift}" if hi_shift else f"{out}.shape[{d}]"
                parts.append(f"{lo + off[d]}:{stop}")
            return ", ".join(parts)

        arg_exprs = [
            f"{self.name(in_v)}[{window(off)}]"
            for in_v, off in zip(op.operands[:n_ins], op.offsets)
        ]
        domain = window([0] * len(insets))
        arg_exprs.append(f"{out}[{domain}]")
        result = self._emit_elementwise_region(op.body, arg_exprs)
        self.emit(f"{out}[{domain}] = {result[0]}")

    def _emit_cfd_faceIteratorOp(self, op) -> None:
        nv = op.attributes["nbVar"].value
        axis = op.attributes["axis"].value + 1
        rank = op.operand(0).type.rank  # type: ignore[union-attr]
        b = self.take(op, 1)
        self.alias(op.result(), b, owned=True)
        x = self.name(op.operand(0))

        def face_window(side: int, v: int) -> str:
            parts = [str(v)]
            for d in range(1, rank):
                if d == axis:
                    parts.append(":-1" if side == 0 else "1:")
                else:
                    parts.append(":")
            return ", ".join(parts)

        arg_exprs = [f"{x}[{face_window(0, v)}]" for v in range(nv)]
        arg_exprs += [f"{x}[{face_window(1, v)}]" for v in range(nv)]
        fluxes = self._emit_elementwise_region(op.regions[0].entry_block, arg_exprs)
        for v in range(nv):
            fn = self.fresh("flux")
            self.emit(f"{fn} = {fluxes[v]}")
            self.emit(f"{b}[{face_window(0, v)}] -= {fn}")
            self.emit(f"{b}[{face_window(1, v)}] += {fn}")

    def _emit_elementwise_region(
        self, block: Block, arg_exprs: Sequence[str]
    ) -> List[str]:
        """Emit a payload region, each value bound once; returns the
        expressions of the terminator operands."""
        mapping: Dict[int, str] = {}
        for arg, expr in zip(block.arguments, arg_exprs):
            if not arg.uses:
                continue
            n = self.fresh("r")
            self.declare(n, expr, arg.type)
            mapping[id(arg)] = n
        term = block.terminator
        for op in block.operations:
            if op is term:
                break
            expr = self.payload(op, [mapping.get(id(v)) or self.name(v)
                                     for v in op.operands])
            n = self.fresh("r")
            self.declare(n, expr, op.result().type)
            for res in op.results:
                mapping[id(res)] = n
        return [mapping.get(id(v)) or self.name(v) for v in term.operands]

    def payload(self, op: Operation, args: Sequence[str]) -> str:
        """One op of a payload region over whole arrays."""
        fmt = getattr(op, "ARRAY", None)
        if op.name == "arith.constant":
            return repr(op.attributes["value"].value)
        if fmt is None:
            raise BackendError(
                f"{op.name!r} cannot be emitted as a whole-array expression"
            )
        return _format(fmt, op, args)

    # ---- cfd ------------------------------------------------------------------

    def _emit_cfd_get_parallel_blocks(self, op) -> None:
        sizes = ", ".join(self.name(o) for o in op.operands)
        offsets = repr(list(op.block_offsets))
        o_n = self.name(op.result(0))
        i_n = self.name(op.result(1))
        trailing = "," if op.num_operands == 1 else ""
        self.emit(
            f"{o_n}, {i_n} = _compute_parallel_blocks(({sizes}{trailing}), {offsets})"
        )

    def _emit_cfd_tiled_loop(self, op: TiledLoopOp) -> None:
        lbs = [self.name(v) for v in op.lbs]
        steps = [self.name(v) for v in op.steps]
        # In args are aliases (read-only inside the body); out args are
        # buffers the body updates in place.
        for arg, in_v in zip(op.in_args, op.ins):
            self.alias(arg, self.name(in_v), owned=False)
        outs = [self.take(op, op.operands.index(v)) for v in op.outs]
        for arg, n in zip(op.out_args, outs):
            self.alias(arg, n, owned=True)
        grid = [self.fresh("g") for _ in op.ubs]
        for d, ub in enumerate(op.ubs):
            self.declare(
                grid[d],
                self.FORMATS["grid"].format(lbs[d], self.name(ub), steps[d]),
            )
        ivs = [self.name(a) for a in op.induction_vars]
        lin = self.fresh("lin") if op.has_groups else None
        fn, tile = self.fresh("blk"), (lin, op, grid, lbs, steps, ivs, outs)
        # The same walk prints the body as the C function ``fn`` too;
        # ``bound`` binds it to this scope's arrays and scalars (``None``:
        # the C printer does not cover an op of the body, or is off).
        native = self.native
        bound = native and native.function(
            self, fn, grid, lambda c: c.tiles(*tile), lin)
        if bound:  # nothing inside the Python twin is outlined again
            self.native = None
        if op.has_groups:
            # The block body is a per-block closure handed, with the CSR
            # schedule, to the runtime dispatcher: group by group, blocks
            # of one group concurrently when legal. It mutates the out
            # buffers in place; should it still rebind an out name (no
            # steal was possible), the rebind is declared nonlocal and
            # the loop marked not-in-place so it never runs concurrently.
            go, gi = (self.name(v) for v in op.group_operands[:2])
            with self.block(f"def {fn}({lin})"):
                nonlocal_at = len(self.lines)
                moved = self.tiles(*tile)
                if moved:
                    self.lines.insert(
                        nonlocal_at,
                        "    " * self.indent + "nonlocal " + ", ".join(sorted(moved)),
                    )
            if bound:
                with self.block("if _native"):
                    self.emit(f'{fn} = _native("{fn}", {fn}, {bound})')
            self.emit(
                f"_dispatch_wavefronts({go}, {gi}, {fn}, "
                f"inplace={not moved}, certified=_PARALLEL_CERTIFIED)"
            )
        else:
            with self.twin(fn, bound):  # the whole nest is one native call
                self.tiles(*tile)
        self.native = native
        for res, n in zip(op.results, outs):
            self.alias(res, n, owned=True)

    def tiles(self, lin, op, grid, lbs, steps, ivs, outs) -> List[str]:
        """The loop body over the tile of linear index ``lin`` or, with
        ``None``, over every tile in (reverse) grid order; returns the out
        names the body rebound."""
        coords = [self.fresh("c") for _ in grid]
        with ExitStack() as nest:
            if lin is None:
                for c, g in zip(coords, grid):
                    span = (f"{g} - 1", "(-1)", "(-1)") if op.reverse else ("0", g, "1")
                    nest.enter_context(self.block(self.for_range(c, *span)))
            else:
                rem = self.fresh("rem")
                self.declare(rem, self.FORMATS["arith.index_cast"].format(lin),
                             mutable=True)
                for c, g in reversed(list(zip(coords, grid))):
                    self.declare(c, self.FORMATS["arith.remi"].format(rem, g))
                    if c is not coords[0]:
                        self.assign(rem, self.FORMATS["arith.floordivi"].format(rem, g))
            for iv, lb, c, step in zip(ivs, lbs, coords, steps):
                self.declare(iv, f"{lb} + {c} * {step}")
            self.emit_block_body(op.body)
            return self.rebind(outs, op.body.terminator.operands)


def emit_module(module: ModuleOp) -> EmittedSource:
    """Emit the whole module as Python source (and, on its
    ``native_source``, the C text of its outlined loops)."""
    from repro.codegen.c_backend import CModule

    return Emitter(module, CModule()).run()
