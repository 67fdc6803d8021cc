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

Buffer ownership: tensors are SSA values, but emitting a copy per
``tensor.insert`` would be quadratic. The emitter runs a static
ownership analysis — a value's buffer may be mutated in place iff the
binding *owns* it (the producer created it fresh) and the mutating op is
the value's last use in block order; otherwise a ``.copy()`` is emitted.
Function arguments are never owned, so caller arrays are never mutated.

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

from typing import Dict, List, Optional, Sequence, Tuple

from repro.dialects.cfd import TiledLoopOp
from repro.dialects.linalg import GenericOp
from repro.ir.block import Block
from repro.ir.module import ModuleOp
from repro.ir.operation import Operation
from repro.ir.types import MemRefType, TensorType, VectorType
from repro.ir.values import OpResult, Value


#: Version of the emission strategy. Part of every kernel-cache
#: fingerprint: bump it whenever emitted code changes for the same IR, so
#: persisted cache entries from older emitters are never reused.
EMITTER_VERSION = "3"


class BackendError(Exception):
    """Raised when the module still contains unlowered operations or
    lacks the requested entry point."""


_BINOPS = {
    "arith.addf": "+",
    "arith.subf": "-",
    "arith.mulf": "*",
    "arith.divf": "/",
    "arith.addi": "+",
    "arith.subi": "-",
    "arith.muli": "*",
    "arith.floordivi": "//",
    "arith.remi": "%",
}

_CMPOPS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

_MATH_FUNCS = {
    "math.sqrt": "_np.sqrt",
    "math.absf": "_np.abs",
    "math.exp": "_np.exp",
    "math.log": "_np.log",
}


#: Like scalar expressions, these print each operand once (safe to nest into).
_ELEMENT_OPS = {"tensor.extract", "tensor.insert", "memref.load", "memref.store"}


def _is_buffer(t) -> bool:
    return isinstance(t, (TensorType, MemRefType))


def _is_scalar_expr(op: Operation) -> bool:
    """A memory-free op on scalars: nested into a lone user, not emitted
    when unused, and emitted without flushing pending stores."""
    return (
        op.name.startswith(("arith.", "math.")) or op.name == "vector.extract"
    ) and not isinstance(op.result().type, (TensorType, VectorType))


def _const_int(value: Value) -> Optional[int]:
    if isinstance(value, OpResult) and value.op.name == "arith.constant":
        return value.op.attributes["value"].value
    return None


def _base_offset(index: Value) -> Tuple[Value, int]:
    """``index`` as ``base + constant``, peeling one ``arith.addi``."""
    if isinstance(index, OpResult) and index.op.name == "arith.addi":
        base, offset = index.op.operands
        if _const_int(offset) is not None:
            return base, _const_int(offset)
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
    """Emits one module as Python source."""

    def __init__(self, module: ModuleOp) -> None:
        self.module = module
        self.lines: List[str] = []
        self.indent = 0
        self.names: Dict[int, str] = {}
        self.owned: Dict[int, bool] = {}
        #: id(vector value) -> name of its ``tolist()`` snapshot.
        self.lists: Dict[int, str] = {}
        self.pending: Optional[_PendingStores] = None
        self.counter = 0

    # ---- infrastructure -------------------------------------------------

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def fresh(self, prefix: str = "v") -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def name(self, value: Value) -> str:
        key = id(value)
        if key not in self.names:
            self.names[key] = self.fresh()
        return self.names[key]

    def bind(self, value: Value, expr: str, owned: bool = False) -> None:
        op, uses = getattr(value, "op", None), value.uses  # no op: block arg
        if op is not None and _is_scalar_expr(op):
            if not uses:
                return
            user = uses[0].owner
            # (the length cap bounds parenthesis depth far below CPython's 200)
            if len(uses) == 1 and user.parent is op.parent and len(expr) < 256 and (
                user.name in _ELEMENT_OPS or _is_scalar_expr(user)
            ):
                self.names[id(value)] = expr
                return
        n = self.name(value)
        self.emit(f"{n} = {expr}")
        self.owned[id(value)] = owned
        if isinstance(value.type, VectorType) and any(
            u.owner.name == "vector.extract" and u.owner.result().uses for u in uses
        ):
            self.lists[id(value)] = f"{n}_l"
            self.emit(f"{n}_l = {n}.tolist()")

    def is_owned(self, value: Value) -> bool:
        return self.owned.get(id(value), False)

    # ---- ownership ------------------------------------------------------

    @staticmethod
    def _position_in(block: Block, op: Operation) -> int:
        """Index in ``block`` of ``op``'s ancestor that lives in it."""
        current = op
        while current.parent is not block:
            current = current.parent_op()
            if current is None:
                return -1
        return block.index_of(current)

    def can_steal(self, value: Value, consumer: Operation) -> bool:
        """May ``consumer`` mutate ``value``'s buffer in place?"""
        if not self.is_owned(value):
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

    def consume(self, op: Operation, operand_index: int) -> str:
        """An expression for a buffer the caller may mutate."""
        value = op.operand(operand_index)
        n = self.name(value)
        if self.can_steal(value, op):
            return n
        return f"{n}.copy()"

    # ---- top level -------------------------------------------------------

    def run(self) -> str:
        self.emit("import numpy as _np")
        self.emit(
            "from repro.core.scheduling import compute_parallel_blocks "
            "as _compute_parallel_blocks"
        )
        self.emit(
            "from repro.runtime.parallel import dispatch_wavefronts "
            "as _dispatch_wavefronts"
        )
        # Flipped to True by CompiledKernel.certify_parallel() once the
        # race analyzer has cleared the lowered module; the dispatcher
        # refuses multi-thread execution until then.
        self.emit("_PARALLEL_CERTIFIED = False")
        self.emit("")
        for op in self.module.body.operations:
            if op.name == "func.func":
                self.emit_function(op)
            else:
                raise BackendError(f"unexpected top-level op {op.name}")
        return "\n".join(self.lines) + "\n"

    def emit_function(self, fn) -> None:
        args = fn.body.arguments
        arg_names = []
        for i, a in enumerate(args):
            n = f"arg{i}_{self.fresh('f')}"
            self.names[id(a)] = n
            self.owned[id(a)] = isinstance(a.type, MemRefType)
            arg_names.append(n)
        self.emit(f"def {fn.sym_name}({', '.join(arg_names)}):")
        self.indent += 1
        self.emit_block_body(fn.body)
        term = fn.body.terminator
        if term is not None and term.name == "func.return":
            rets = ", ".join(self.name(v) for v in term.operands)
            self.emit(f"return ({rets},)" if term.operands else "return ()")
        self.indent -= 1
        self.emit("")

    def emit_block_body(self, block: Block) -> None:
        term = block.terminator
        mark = len(self.lines)
        for op in block.operations:
            if op is term and op.name in (
                "func.return",
                "scf.yield",
                "cfd.yield",
                "linalg.yield",
            ):
                break
            self.emit_op(op)
        self.flush()
        if len(self.lines) == mark:  # every op nested, unused or absent
            self.emit("pass")

    # ---- dispatch ---------------------------------------------------------

    def emit_op(self, op: Operation) -> None:
        handler = getattr(self, "_emit_" + op.name.replace(".", "_"), None)
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
            lo, where, what = run[0]
            if len(run) > 1:
                b = self.name(base)
                where = f"{f'{b} + {lo}' if lo else b}:{b} + {lo + len(run)}"
                what = "(" + ", ".join(r[2] for r in run) + ")"
            lead = "".join(f"{i}, " for i in key)
            self.emit(f"{p.buf}[{lead}{where}] = {what}")

    # ---- arith / math -----------------------------------------------------

    def _emit_arith_constant(self, op) -> None:
        value = op.attributes["value"].value
        self.bind(op.result(), repr(value) if value >= 0 else f"({value!r})")

    def _binary(self, op, symbol: str) -> None:
        a, b = self.name(op.operand(0)), self.name(op.operand(1))
        self.bind(op.result(), f"({a} {symbol} {b})")

    def _emit_arith_negf(self, op) -> None:
        self.bind(op.result(), f"(-{self.name(op.operand(0))})")

    def _emit_arith_minsi(self, op) -> None:
        a, b = self.name(op.operand(0)), self.name(op.operand(1))
        self.bind(op.result(), f"min({a}, {b})")

    def _emit_arith_maxsi(self, op) -> None:
        a, b = self.name(op.operand(0)), self.name(op.operand(1))
        self.bind(op.result(), f"max({a}, {b})")

    def _emit_arith_maximumf(self, op) -> None:
        a, b = self.name(op.operand(0)), self.name(op.operand(1))
        self.bind(op.result(), f"_np.maximum({a}, {b})")

    def _emit_arith_minimumf(self, op) -> None:
        a, b = self.name(op.operand(0)), self.name(op.operand(1))
        self.bind(op.result(), f"_np.minimum({a}, {b})")

    def _emit_cmp(self, op) -> None:
        sym = _CMPOPS[op.attributes["predicate"].value]
        a, b = self.name(op.operand(0)), self.name(op.operand(1))
        self.bind(op.result(), f"({a} {sym} {b})")

    _emit_arith_cmpf = _emit_cmp
    _emit_arith_cmpi = _emit_cmp

    def _emit_arith_select(self, op) -> None:
        c = self.name(op.operand(0))
        a, b = self.name(op.operand(1)), self.name(op.operand(2))
        self.bind(op.result(), f"({a} if {c} else {b})")

    def _emit_arith_index_cast(self, op) -> None:
        self.bind(op.result(), f"int({self.name(op.operand(0))})")

    def _emit_arith_sitofp(self, op) -> None:
        self.bind(op.result(), f"float({self.name(op.operand(0))})")

    def _emit_math_fma(self, op) -> None:
        a, b, c = (self.name(op.operand(i)) for i in range(3))
        self.bind(op.result(), f"({a} * {b} + {c})")

    def _emit_math_powf(self, op) -> None:
        a, b = self.name(op.operand(0)), self.name(op.operand(1))
        self.bind(op.result(), f"({a} ** {b})")

    # ---- func ----------------------------------------------------------------

    def _emit_func_call(self, op) -> None:
        callee = op.attributes["callee"].value
        args = ", ".join(self.name(o) for o in op.operands)
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
            n = self.name(arg)
            if _is_buffer(init.type) and isinstance(init.type, TensorType):
                self.emit(f"{n} = {self.consume(op, op.operands.index(init))}")
            else:
                self.emit(f"{n} = {self.name(init)}")
            self.owned[id(arg)] = True
            carried.append(n)
        iv = self.name(op.body.arguments[0])
        self.emit(f"for {iv} in range({lb}, {ub}, {step}):")
        self.indent += 1
        self.emit_block_body(op.body)
        term = op.body.terminator
        for n, y in zip(carried, term.operands):
            yn = self.name(y)
            if yn != n:
                self.emit(f"{n} = {yn}")
        self.indent -= 1
        for res, n in zip(op.results, carried):
            self.bind(res, n, owned=True)

    def _emit_scf_if(self, op) -> None:
        res_names = [self.name(r) for r in op.results]
        self.emit(f"if {self.name(op.operand(0))}:")
        self.indent += 1
        self.emit_block_body(op.then_block)
        t_term = op.then_block.terminator
        for n, y in zip(res_names, t_term.operands):
            self.emit(f"{n} = {self.name(y)}")
        self.indent -= 1
        if len(op.regions) > 1:
            self.emit("else:")
            self.indent += 1
            self.emit_block_body(op.else_block)
            e_term = op.else_block.terminator
            for n, y in zip(res_names, e_term.operands):
                self.emit(f"{n} = {self.name(y)}")
            self.indent -= 1
        for r in op.results:
            self.owned[id(r)] = False  # conservative: may alias either side

    def _emit_scf_parallel(self, op) -> None:
        rank = op.num_operands // 3
        lbs = [self.name(op.operand(i)) for i in range(rank)]
        ubs = [self.name(op.operand(rank + i)) for i in range(rank)]
        steps = [self.name(op.operand(2 * rank + i)) for i in range(rank)]
        for d in range(rank):
            iv = self.name(op.body.arguments[d])
            self.emit(f"for {iv} in range({lbs[d]}, {ubs[d]}, {steps[d]}):")
            self.indent += 1
        self.emit_block_body(op.body)
        self.indent -= rank

    # ---- tensor -----------------------------------------------------------------

    def _shape_expr(self, op, result_type) -> str:
        dims = []
        dyn = iter(self.name(o) for o in op.operands)
        for d in result_type.shape:
            dims.append(next(dyn) if d == -1 else str(d))
        return "(" + ", ".join(dims) + ("," if len(dims) == 1 else "") + ")"

    def _emit_tensor_empty(self, op) -> None:
        shape = self._shape_expr(op, op.result().type)
        self.bind(op.result(), f"_np.zeros({shape})", owned=True)

    def _emit_tensor_dim(self, op) -> None:
        d = op.attributes["dim"].value
        self.bind(op.result(), f"{self.name(op.operand(0))}.shape[{d}]")

    def _emit_tensor_extract(self, op) -> None:
        idx = ", ".join(self.name(o) for o in op.operands[1:])
        self.bind(op.result(), f"{self.name(op.operand(0))}.item({idx})")

    def _emit_tensor_insert(self, op) -> None:
        # Deferred: joins the pending chain when it updates its tip in place.
        dest, (*lead, last) = op.operand(1), op.operands[2:]
        steal = self.can_steal(dest, op)
        p = self.pending
        if p is None or p.tip is not dest or not steal:
            self.flush()
            buf = self.name(dest if steal else op.result())
            if not steal:
                self.emit(f"{buf} = {self.name(dest)}.copy()")
            p = self.pending = _PendingStores(buf)
        key = tuple(self.name(i) if _const_int(i) is None else _const_int(i) for i in lead)
        base, off = _base_offset(last)
        store = (key, base, off, self.name(last), self.name(op.operand(0)))
        if not p.add(*store):
            self.flush()
            p = self.pending = _PendingStores(p.buf)
            p.add(*store)
        p.tip = op.result()
        self.names[id(p.tip)] = p.buf
        self.owned[id(p.tip)] = True

    def _slice_expr(self, offs: Sequence[str], sizes: Sequence[str]) -> str:
        return ", ".join(f"{o}:{o} + {s}" for o, s in zip(offs, sizes))

    def _emit_tensor_extract_slice(self, op) -> None:
        rank = (op.num_operands - 1) // 2
        offs = [self.name(o) for o in op.operands[1 : 1 + rank]]
        sizes = [self.name(o) for o in op.operands[1 + rank :]]
        src = self.name(op.operand(0))
        self.bind(
            op.result(),
            f"{src}[{self._slice_expr(offs, sizes)}].copy()",
            owned=True,
        )

    def _emit_tensor_insert_slice(self, op) -> None:
        rank = (op.num_operands - 2) // 2
        offs = [self.name(o) for o in op.operands[2 : 2 + rank]]
        sizes = [self.name(o) for o in op.operands[2 + rank :]]
        dest = op.operand(1)
        if self.can_steal(dest, op):
            # Pure in-place store: the result *is* the destination
            # buffer, so alias the SSA name instead of emitting a
            # rebinding assignment (grouped loop bodies rely on this —
            # a rebind-free body can run its blocks concurrently).
            n = self.name(dest)
            self.names[id(op.result())] = n
        else:
            n = self.name(op.result())
            self.emit(f"{n} = {self.name(dest)}.copy()")
        self.emit(
            f"{n}[{self._slice_expr(offs, sizes)}] = {self.name(op.operand(0))}"
        )
        self.owned[id(op.result())] = True

    # ---- memref ----------------------------------------------------------

    def _emit_memref_alloc(self, op) -> None:
        shape = self._shape_expr(op, op.result().type)
        self.bind(op.result(), f"_np.zeros({shape})", owned=True)

    def _emit_memref_dealloc(self, op) -> None:
        self.emit(f"del {self.name(op.operand(0))}")

    _emit_memref_load = _emit_tensor_extract

    def _emit_memref_store(self, op) -> None:
        idx = ", ".join(self.name(o) for o in op.operands[2:])
        self.emit(
            f"{self.name(op.operand(1))}[{idx}] = {self.name(op.operand(0))}"
        )

    def _emit_memref_subview(self, op) -> None:
        rank = (op.num_operands - 1) // 2
        offs = [self.name(o) for o in op.operands[1 : 1 + rank]]
        sizes = [self.name(o) for o in op.operands[1 + rank :]]
        src = self.name(op.operand(0))
        self.bind(op.result(), f"{src}[{self._slice_expr(offs, sizes)}]")

    def _emit_memref_copy(self, op) -> None:
        self.emit(
            f"{self.name(op.operand(1))}[...] = {self.name(op.operand(0))}"
        )

    def _emit_memref_dim(self, op) -> None:
        d = op.attributes["dim"].value
        self.bind(op.result(), f"{self.name(op.operand(0))}.shape[{d}]")

    # ---- vector -----------------------------------------------------------

    def _emit_vector_transfer_read(self, op) -> None:
        vf = op.result().type.shape[0]
        idx = [self.name(o) for o in op.operands[1:]]
        lead = ", ".join(idx[:-1])
        last = idx[-1]
        src = self.name(op.operand(0))
        prefix = f"{lead}, " if lead else ""
        self.bind(op.result(), f"{src}[{prefix}{last}:{last} + {vf}]")

    def _emit_vector_transfer_write(self, op) -> None:
        idx = [self.name(o) for o in op.operands[2:]]
        lead = ", ".join(idx[:-1])
        last = idx[-1]
        vec = self.name(op.operand(0))
        vf_expr = f"len({vec})"
        prefix = f"{lead}, " if lead else ""
        window = f"{prefix}{last}:{last} + {vf_expr}"
        if op.num_results:
            dest_expr = self.consume(op, 1)
            n = self.name(op.result())
            self.emit(f"{n} = {dest_expr}")
            self.emit(f"{n}[{window}] = {vec}")
            self.owned[id(op.result())] = True
        else:
            self.emit(f"{self.name(op.operand(1))}[{window}] = {vec}")

    def _emit_vector_broadcast(self, op) -> None:
        vf = op.result().type.shape[0]
        self.bind(
            op.result(),
            f"_np.full({vf}, {self.name(op.operand(0))})",
            owned=True,
        )

    def _emit_vector_extract(self, op) -> None:
        pos = op.attributes["position"].value
        vec = op.operand(0)
        lanes = self.lists.get(id(vec))  # absent for e.g. a block argument
        expr = f"{lanes}[{pos}]" if lanes else f"{self.name(vec)}.item({pos})"
        self.bind(op.result(), expr)

    def _emit_vector_fma(self, op) -> None:
        a, b, c = (self.name(op.operand(i)) for i in range(3))
        self.bind(op.result(), f"({a} * {b} + {c})")

    # ---- linalg (vectorized whole-array emission) ---------------------------

    def _emit_linalg_fill(self, op) -> None:
        out_expr = self.consume(op, 1)
        n = self.name(op.result())
        self.emit(f"{n} = {out_expr}")
        self.emit(f"{n}[...] = {self.name(op.operand(0))}")
        self.owned[id(op.result())] = True

    def _emit_linalg_generic(self, op: GenericOp) -> None:
        n_ins = op.num_ins
        offsets = op.offsets
        margins = op.margins
        rank = op.out_init.type.rank  # type: ignore[union-attr]
        out_expr = self.consume(op, n_ins)
        out = self.name(op.result())
        self.emit(f"{out} = {out_expr}")
        self.owned[id(op.result())] = True
        los, his = [], []
        for d in range(rank):
            lo = max([0] + [-o[d] for o in offsets])
            hi = max([0] + [o[d] for o in offsets])
            m_lo, m_hi = margins[d]
            los.append(max(lo, m_lo))
            his.append(max(hi, m_hi))

        def window(off: Sequence[int]) -> str:
            parts = []
            for d in range(rank):
                lo = los[d] + off[d]
                hi_shift = his[d] - off[d]
                hi = f"{out}.shape[{d}] - {hi_shift}" if hi_shift else f"{out}.shape[{d}]"
                parts.append(f"{lo}:{hi}")
            return ", ".join(parts)

        arg_exprs = [
            f"{self.name(in_v)}[{window(off)}]"
            for in_v, off in zip(op.operands[:n_ins], offsets)
        ]
        domain = window([0] * rank)
        arg_exprs.append(f"{out}[{domain}]")
        result = self._emit_elementwise_region(op.body, arg_exprs)
        self.emit(f"{out}[{domain}] = {result[0]}")

    def _emit_cfd_faceIteratorOp(self, op) -> None:
        nv = op.attributes["nbVar"].value
        axis = op.attributes["axis"].value + 1
        rank = op.operand(0).type.rank  # type: ignore[union-attr]
        b_expr = self.consume(op, 1)
        b = self.name(op.result())
        self.emit(f"{b} = {b_expr}")
        self.owned[id(op.result())] = True
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
        """Emit a payload region as whole-array NumPy statements; returns
        the expressions of the terminator operands."""
        mapping: Dict[int, str] = {}
        for arg, expr in zip(block.arguments, arg_exprs):
            n = self.fresh("r")
            self.emit(f"{n} = {expr}")
            mapping[id(arg)] = n
        term = block.terminator
        for op in block.operations:
            if op is term:
                break
            self._emit_region_op(op, mapping)
        return [mapping.get(id(v), self.names.get(id(v), "?")) for v in term.operands]

    def _emit_region_op(self, op: Operation, mapping: Dict[int, str]) -> None:
        def nm(v: Value) -> str:
            return mapping.get(id(v)) or self.name(v)

        n = self.fresh("r")
        if op.name == "arith.constant":
            self.emit(f"{n} = {op.attributes['value'].value!r}")
        elif op.name in _BINOPS:
            self.emit(f"{n} = {nm(op.operand(0))} {_BINOPS[op.name]} {nm(op.operand(1))}")
        elif op.name == "arith.negf":
            self.emit(f"{n} = -{nm(op.operand(0))}")
        elif op.name == "arith.maximumf":
            self.emit(f"{n} = _np.maximum({nm(op.operand(0))}, {nm(op.operand(1))})")
        elif op.name == "arith.minimumf":
            self.emit(f"{n} = _np.minimum({nm(op.operand(0))}, {nm(op.operand(1))})")
        elif op.name in _MATH_FUNCS:
            self.emit(f"{n} = {_MATH_FUNCS[op.name]}({nm(op.operand(0))})")
        elif op.name == "math.fma":
            a, b, c = (nm(op.operand(i)) for i in range(3))
            self.emit(f"{n} = {a} * {b} + {c}")
        elif op.name == "math.powf":
            self.emit(f"{n} = {nm(op.operand(0))} ** {nm(op.operand(1))}")
        elif op.name == "arith.select":
            c, a, b = (nm(op.operand(i)) for i in range(3))
            self.emit(f"{n} = _np.where({c}, {a}, {b})")
        elif op.name in ("arith.cmpf", "arith.cmpi"):
            sym = _CMPOPS[op.attributes["predicate"].value]
            self.emit(f"{n} = {nm(op.operand(0))} {sym} {nm(op.operand(1))}")
        else:
            raise BackendError(
                f"{op.name!r} cannot be emitted as a whole-array expression"
            )
        for res in op.results:
            mapping[id(res)] = n

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
        k = op.rank
        lbs = [self.name(v) for v in op.lbs]
        ubs = [self.name(v) for v in op.ubs]
        steps = [self.name(v) for v in op.steps]
        # Bind in args (aliases: read-only inside the body).
        for arg, in_v in zip(op.in_args, op.ins):
            self.names[id(arg)] = self.name(in_v)
            self.owned[id(arg)] = False
        # Bind out args to consumable buffers.
        out_names = []
        for j, (arg, out_v) in enumerate(zip(op.out_args, op.outs)):
            n = self.name(arg)
            idx = op.operands.index(out_v)
            self.emit(f"{n} = {self.consume(op, idx)}")
            self.owned[id(arg)] = True
            out_names.append(n)
        grid = [self.fresh("g") for _ in range(k)]
        for d in range(k):
            self.emit(
                f"{grid[d]} = max(0, -(-({ubs[d]} - {lbs[d]}) // {steps[d]}))"
            )
        ivs = [self.name(a) for a in op.induction_vars]
        term = op.body.terminator
        if op.has_groups:
            # Emit the block body as a per-block closure and hand the
            # CSR schedule to the runtime dispatcher: group-by-group,
            # blocks of one group concurrently when legal, sequentially
            # otherwise. The closure mutates the out buffers in place;
            # should the body still rebind an out name (no steal was
            # possible), the rebind is declared nonlocal and the loop is
            # marked not-in-place so dispatch never runs it concurrently.
            go = self.name(op.group_operands[0])
            gi = self.name(op.group_operands[1])
            lin = self.fresh("lin")
            blk = self.fresh("blk")
            self.emit(f"def {blk}({lin}):")
            self.indent += 1
            nonlocal_at = len(self.lines)
            rem = self.fresh("rem")
            self.emit(f"{rem} = int({lin})")
            for d in range(k - 1, -1, -1):
                c = self.fresh("c")
                self.emit(f"{c} = {rem} % {grid[d]}")
                if d > 0:
                    self.emit(f"{rem} //= {grid[d]}")
                self.emit(f"{ivs[d]} = {lbs[d]} + {c} * {steps[d]}")
            self.emit_block_body(op.body)
            rebinds = []
            for n, y in zip(out_names, term.operands):
                yn = self.name(y)
                if yn != n:
                    rebinds.append((n, yn))
            if rebinds:
                self.lines.insert(
                    nonlocal_at,
                    "    " * self.indent
                    + "nonlocal "
                    + ", ".join(sorted({n for n, _ in rebinds})),
                )
                for n, yn in rebinds:
                    self.emit(f"{n} = {yn}")
            self.indent -= 1
            self.emit(
                f"_dispatch_wavefronts({go}, {gi}, {blk}, "
                f"inplace={not rebinds}, certified=_PARALLEL_CERTIFIED)"
            )
        else:
            coords = [self.fresh("c") for _ in range(k)]
            for d in range(k):
                rng = f"range({grid[d]})"
                if op.reverse:
                    rng = f"range({grid[d]} - 1, -1, -1)"
                self.emit(f"for {coords[d]} in {rng}:")
                self.indent += 1
            for d in range(k):
                self.emit(f"{ivs[d]} = {lbs[d]} + {coords[d]} * {steps[d]}")
            self.emit_block_body(op.body)
            for n, y in zip(out_names, term.operands):
                yn = self.name(y)
                if yn != n:
                    self.emit(f"{n} = {yn}")
            self.indent -= k
        for res, n in zip(op.results, out_names):
            self.bind(res, n, owned=True)


# Wire the generic binary handlers.
for _op_name, _sym in _BINOPS.items():
    def _make(sym):
        def h(self, op):
            self._binary(op, sym)
        return h
    setattr(Emitter, "_emit_" + _op_name.replace(".", "_"), _make(_sym))

for _op_name, _fn in _MATH_FUNCS.items():
    def _make_m(fn):
        def h(self, op):
            self.bind(op.result(), f"{fn}({self.name(op.operand(0))})")
        return h
    setattr(Emitter, "_emit_" + _op_name.replace(".", "_"), _make_m(_fn))


def emit_module(module: ModuleOp) -> str:
    """Emit the whole module as Python source."""
    return Emitter(module).run()
