"""The C printer of the native tier.

Not a second backend: :class:`CEmitter` is the walk of
:class:`~repro.codegen.python_backend.Emitter` with the syntax methods
swapped, forked by ``Emitter._emit_cfd_tiled_loop`` over the body of an outermost
``cfd.tiled_loop`` and by ``Emitter._emit_run`` over a run of whole-array
ops outside one. The fork starts from the Python emitter's names and
ownership facts, so both texts call every SSA value the same; whatever
the body reads from the enclosing scope becomes an argument of::

    int fn(double *const *_b, const long *_m, const long *_i,
           const double *_f, long lin)

``_b`` the captured arrays (C-contiguous float64), ``_m`` their shapes
back to back, ``_i`` / ``_f`` the captured integers and doubles. The
result is 0 or an ``E_*`` code the wrapper raises. A grouped loop also
gets ``fn_run(_b, _m, _i, _f, const long *lins, long n, long *done)``:
the body over the tiles ``lins[0..n)`` in order, one set of slice slots
for all of them, stopping at the first error with ``*done`` the tiles
that finished — the whole CSR schedule, or a worker's slice of one
wavefront, in one foreign call.

What keeps the two tiers bit-identical: buffers are ``T`` (pointer,
extents, strides), a ``vector<N>`` is ``double[N]`` or a pointer into its
buffer (``transfer_read`` stays a view), scalar chains are the same SSA
chain in ``double``; statements, slice copies and deferred row stores
come out where the shared walk puts them; ``+ - * /`` are as written
(build with ``-ffp-contract=off``), a scalar zero divisor is ``E_DIV``,
a vector or whole-array one ``inf``; a whole-array op is a loop over the
cells of the window its NumPy statements slice, in an order that rounds
as they do. Every window, strip, row and element load is
range-checked against its buffer's extents (``E_RANGE``).

A slice copy lives in the slot of its allocation site, reused each time
the site runs (and by every tile of a run) and freed when the call
returns. That is sound because no buffer
allocated in a loop body outlives its iteration: the walk yields buffers
by updating the carried one in place, and the one exception — a rebound
name — is :class:`Unsupported` here.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from typing import Callable, Dict, List, Optional, Sequence

from repro.codegen.python_backend import Emitter, _const, _format, _is_buffer
from repro.dialects.arith import value_ops
from repro.ir.types import FloatType, VectorType
from repro.ir.values import Value

#: Highest buffer rank a ``T`` holds.
MAX_RANK = 6


class Unsupported(Exception):
    """The C printer does not cover this op (the message is its name)."""


PRELUDE = r"""/* generated by repro.codegen.c_backend */
#include <math.h>
#include <stdlib.h>
#include <string.h>
#define RANK 6
typedef struct { double *p; long n[RANK], s[RANK]; } T;
typedef struct { double *p; long cap; } S; /* one allocation site's memory */
enum { E_DIV = 1, E_RANGE = 2, E_MEM = 3 };
#define INL static inline __attribute__((always_inline, unused))
/* called once per slice, strip or load: kept out of line, cc stays cheap */
#define FN static __attribute__((noinline, unused))
#define FAIL(e, code) (*(e) = *(e) ? *(e) : (code))
#define _MIN(a, b) ((a) < (b) ? (a) : (b))
#define _MAX(a, b) ((a) > (b) ? (a) : (b))
/* numpy.maximum / minimum on x86: the second operand on a tie (+0 vs -0
   too), NaN wins */
#define _FMAX(a, b) (((a) > (b) || (a) != (a)) ? (a) : (b))
#define _FMIN(a, b) (((a) < (b) || (a) != (a)) ? (a) : (b))

/* Python's // and %, and its ZeroDivisionError */
INL long _fdiv(long a, long b, int *e) {
    if (b == 0) { FAIL(e, E_DIV); return 0; }
    if (b == -1) return -a;
    long q = a / b;
    return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q;
}
INL long _mod(long a, long b, int *e) {
    if (b == 0) { FAIL(e, E_DIV); return 0; }
    if (b == -1) return 0;
    long r = a % b;
    return (r != 0 && (r < 0) != (b < 0)) ? r + b : r;
}
INL double _div(double a, double b, int *e) {
    if (b == 0.0) FAIL(e, E_DIV);
    return a / b;
}
INL long _step(long s, int *e) { if (s == 0) FAIL(e, E_RANGE); return s; }
/* a C-contiguous buffer of extents n[0..r) */
INL T _arg(double *p, const long *n, int r) {
    T t = {p, {0}, {0}};
    long s = 1;
    for (int d = r - 1; d >= 0; --d) { t.n[d] = n[d]; t.s[d] = s; s *= n[d]; }
    return t;
}
/* v = t[o : o + n] per dimension */
FN int _view(T *v, const T *t, int r, const long *o, const long *n, int *e) {
    *v = *t;
    for (int d = 0; d < r; ++d) {
        if (o[d] < 0 || n[d] < 0 || o[d] + n[d] > t->n[d]) return FAIL(e, E_RANGE);
        v->p += o[d] * t->s[d];
        v->n[d] = n[d];
    }
    return 0;
}
FN int _new(T *t, int r, const long *n, S *slot, int zero, int *e) {
    long size = 1;
    for (int d = 0; d < r; ++d) {
        if (n[d] < 0) return FAIL(e, E_RANGE);
        size *= n[d];
    }
    if (size >= slot->cap) {
        free(slot->p);
        slot->p = malloc((size + 1) * sizeof(double));
        slot->cap = slot->p ? size + 1 : 0;
    }
    if (!slot->p) return FAIL(e, E_MEM);
    if (zero) memset(slot->p, 0, size * sizeof(double));
    *t = _arg(slot->p, n, r);
    return 0;
}
/* d[...] = s[...], or = v without s: row by row (a view's rows lie its
   strides apart; each row is contiguous) */
FN int _rows(const T *d, const T *s, double v, int r) {
    long i[RANK] = {0}, row = r ? d->n[r - 1] : 1;
    for (int k = 0; k < r; ++k) if (d->n[k] == 0) return 0;
    for (;;) {
        long od = 0, os = 0;
        int k = r - 2;
        for (int j = 0; j < r - 1; ++j) { od += i[j] * d->s[j]; os += i[j] * (s ? s->s[j] : 0); }
        if (s) memmove(d->p + od, s->p + os, row * sizeof(double));
        else for (long j = 0; j < row; ++j) d->p[od + j] = v;
        for (; k >= 0; --k) { if (++i[k] < d->n[k]) break; i[k] = 0; }
        if (k < 0) return 0;
    }
}
/* d[...] = s[...]: equal extents; a view put onto itself is left be */
FN int _copy(const T *d, const T *s, int r, int *e) {
    for (int k = 0; k < r; ++k) if (d->n[k] != s->n[k]) return FAIL(e, E_RANGE);
    if (d->p == s->p && !memcmp(d->s, s->s, r * sizeof(long))) return 0;
    return _rows(d, s, 0.0, r);
}
/* t = src[o : o + n].copy() */
FN int _slice(T *t, const T *src, int r, const long *o, const long *n,
              S *slot, int *e) {
    T v;
    return _view(&v, src, r, o, n, e) || _new(t, r, n, slot, 0, e) || _copy(t, &v, r, e);
}
/* dst[o : o + n] = src */
FN int _put(const T *dst, int r, const long *o, const long *n, const T *src, int *e) {
    T v;
    return _view(&v, dst, r, o, n, e) || _copy(&v, src, r, e);
}
/* &t[i..., j : j + len]; NULL (and the error set) outside t */
FN double *_row(const T *t, int r, const long *i, long len, int *e) {
    long o = 0;
    for (int d = 0; d < r; ++d) {
        long n = d == r - 1 ? len : 1;
        if (i[d] < 0 || i[d] + n > t->n[d]) { FAIL(e, E_RANGE); return NULL; }
        o += i[d] * t->s[d];
    }
    return t->p + o;
}
/* t[...] = v */
FN void _fill(const T *t, int r, double v) { _rows(t, NULL, v, r); }
/* a faceIteratorOp's state x and right-hand side b: one spatial shape,
   at least nv variables each */
FN int _faces(const T *x, const T *b, int r, long nv, int *e) {
    if (x->n[0] < nv || b->n[0] < nv) return FAIL(e, E_RANGE);
    for (int d = 1; d < r; ++d) if (x->n[d] != b->n[d]) return FAIL(e, E_RANGE);
    return 0;
}
/* t[i...]; 0.0 (and the error set) outside t */
FN double _ld(const T *t, int r, const long *i, int *e) {
    const double *p = _row(t, r, i, 1, e);
    return p ? *p : 0.0;
}
/* a block body over the tiles lins[0..n) in order, its slots reused from
   one tile to the next; *done (if given) = how many tiles finished */
typedef int (*BODY)(double *const *, const long *, const long *,
                    const double *, long, S *);
FN int _blocks(BODY body, int slots, double *const *b, const long *m,
               const long *i, const double *f, const long *lins, long n,
               long *done) {
    S live[slots];
    int err = 0;
    long k = 0;
    memset(live, 0, sizeof live);
    while (k < n && !(err = body(b, m, i, f, lins[k], live))) ++k;
    for (int s = 0; s < slots; ++s) free(live[s].p);
    if (done) *done = k;
    return err;
}
"""

C_FORMATS = {name: op.C for name, op in value_ops().items() if op.C is not None}
C_FORMATS["grid"] = "_MAX(0, -_fdiv(-({1} - {0}), {2}, &_err))"

SUPPORTED = frozenset(C_FORMATS) - {"grid"} | {
    "arith.constant", "scf.for", "cfd.tiled_loop", "cfd.faceIteratorOp",
    "linalg.fill", "linalg.generic",
    "tensor.empty", "tensor.dim", "tensor.extract", "tensor.insert",
    "tensor.extract_slice", "tensor.insert_slice", "vector.transfer_read",
    "vector.transfer_write", "vector.broadcast", "vector.extract",
}


def _longs(items: Sequence) -> str:
    return "(long[]){" + ", ".join(map(str, items)) + "}"


class CEmitter(Emitter):
    """One C function: the shared walk over one loop body."""

    FORMATS = C_FORMATS
    OPEN, EMPTY, CLOSE = " {", "", "}"

    def __init__(self, parent: Emitter, ints: Sequence[str]) -> None:
        super().__init__(parent.module)
        self.owned = dict(parent.owned)
        self.counter, self.positions = parent.counter, parent.positions
        self.taken = parent.taken
        self.indent = 1
        #: id(value) -> name of what the enclosing Python scope defines
        self.outer = parent.names
        #: name -> type (``None``: a plain integer) of what the body reads
        #: from that scope, in the order met
        self.captures: Dict[str, object] = dict.fromkeys(ints)
        self.declared: set = set()
        self.slots = 0  # allocation sites

    # ---- the function around the body -------------------------------------

    def function(self, fn: str, lin: Optional[str]) -> str:
        """The C function ``fn``: the body ``fn_`` run on one tile by
        ``_blocks``, which owns its slots; a grouped loop's (``lin``
        named) also gets ``fn_run``, the body over a run of tiles."""
        arrays, longs, doubles = self.arguments()
        params = "double *const *_b, const long *_m, const long *_i, const double *_f"
        slots, grouped, lin = max(1, self.slots), lin is not None, lin or "_lin"
        head = [
            f"static int {fn}_({params}, long {lin}, S *_live) {{",
            "    int _err = 0; (void)_live;",
            f"    (void)_b; (void)_m; (void)_i; (void)_f; (void){lin};",
        ]
        tail = [
            "    goto done;",
            "done:",
            "    return _err;",
            "}",
            f"int {fn}({params}, long {lin}) {{",
            f"    return _blocks({fn}_, {slots}, _b, _m, _i, _f, &{lin}, 1, NULL);",
            "}",
        ]
        if grouped:
            tail += [
                f"int {fn}_run({params}, const long *_lins, long _n, long *_done) {{",
                f"    return _blocks({fn}_, {slots}, _b, _m, _i, _f, _lins, _n, _done);",
                "}",
            ]
        at = 0
        for k, n in enumerate(arrays):
            t = self.captures[n]
            if isinstance(t, VectorType):
                head.append(f"    const double *{n} = _b[{k}];")
            else:
                head.append(f"    const T {n} = _arg(_b[{k}], _m + {at}, {t.rank});")
            at += t.rank
        head += [f"    const long {n} = _i[{k}];" for k, n in enumerate(longs)]
        head += [f"    const double {n} = _f[{k}];" for k, n in enumerate(doubles)]
        return "\n".join(head + self.lines + tail) + "\n"

    def arguments(self) -> List[List[str]]:
        """Captured names as ``[arrays, longs, doubles]``."""
        kinds: List[List[str]] = [[], [], []]
        for n, t in self.captures.items():
            if n not in self.declared:
                shaped = isinstance(t, VectorType) or _is_buffer(t)
                kinds[0 if shaped else 2 if isinstance(t, FloatType) else 1].append(n)
        return kinds

    def unnamed(self, value: Value) -> str:
        n = self.outer.get(id(value))
        if n is None or _const(value) is not None:  # (literals print as C)
            return super().unnamed(value)
        self.names[id(value)] = n
        if n.isidentifier():  # a variable of that scope: an argument here
            if getattr(value.type, "rank", 0) > MAX_RANK:
                raise Unsupported(f"rank-{value.type.rank}")
            self.captures.setdefault(n, value.type)
        return n

    def emit_op(self, op) -> None:
        if op.name not in SUPPORTED:
            raise Unsupported(op.name)
        super().emit_op(op)

    def _emit_cfd_tiled_loop(self, op) -> None:
        if op.has_groups:  # dispatch stays Python
            raise Unsupported(op.name)
        super()._emit_cfd_tiled_loop(op)

    def _emit_expression(self, op) -> None:
        # Lanes divide to inf as in NumPy; a constant divisor is not zero.
        if op.name == "arith.divf" and (
            isinstance(op.result().type, VectorType) or _const(op.operand(1))
        ):
            a, b = (self.operand(o) for o in op.operands)
            self.bind(op.result(), f"({a} / {b})")
        else:
            super()._emit_expression(op)

    def outline(self, ops) -> None:
        """Print ``ops``, a run whose results that are read after it must
        be the enclosing scope's buffers, updated in place."""
        for op in ops:
            self.emit_op(op)
        inside = {id(op) for op in ops}
        for op in ops:
            for r in op.results:
                if self.names[id(r)] not in self.captures and any(
                    id(u.owner) not in inside for u in r.uses
                ):
                    raise Unsupported(op.name)

    def take(self, op, operand_index: int) -> str:
        n = self.taken.get((id(op), operand_index))
        if n is not None:  # taken by the enclosing scope: an argument here
            self.captures.setdefault(n, op.operand(operand_index).type)
            return n
        return super().take(op, operand_index)

    def payload(self, op, args) -> str:
        # One cell of a whole-array op: a zero divisor gives inf there.
        if op.name == "arith.divf":
            return "({0} / {1})".format(*args)
        if op.name == "arith.constant":
            return self.literal(op.attributes["value"].value)
        if getattr(op, "ARRAY", None) is None or op.name not in self.FORMATS:
            raise Unsupported(op.name)
        return _format(self.FORMATS[op.name], op, args)

    def _cells(self, nest: ExitStack, extents: Sequence[str], axis=None) -> List[str]:
        """Open one loop per extent (backwards along ``axis``); the
        induction variables."""
        ivs = [f"_i{d}" for d in range(len(extents))]
        for d, (iv, n) in enumerate(zip(ivs, extents)):
            span = (f"{n} - 1", "(-1)", "(-1)") if d == axis else ("0", n, "1")
            nest.enter_context(self.block(self.for_range(iv, *span)))
        return ivs

    def _emit_linalg_generic(self, op) -> None:
        n_ins, insets = op.num_ins, op.insets()
        out = self.take(op, n_ins)
        self.alias(op.result(), out, owned=True)
        rank = len(insets)
        sizes = ", ".join(f"{out}.n[{d}] - {lo + hi}" for d, (lo, hi) in enumerate(insets))
        bufs = [self.name(v) for v in op.operands[:n_ins]] + [out]
        if out in bufs[:n_ins]:  # a cell would read cells already written
            raise Unsupported(op.name)
        with self.block(""):
            self.emit(f"const long _n[{rank}] = {{{sizes}}};")
            positive = " && ".join(f"_n[{d}] > 0" for d in range(rank)) or "1"
            with self.block(f"if ({positive})"), ExitStack() as nest:
                loads = []
                for k, (arg, buf, off) in enumerate(
                    zip(op.body.arguments, bufs, op.offsets + [(0,) * rank])
                ):
                    loads.append(f"_w{k}.p[_o{k}]")
                    if arg.uses or k == n_ins:
                        start = _longs(lo + o for (lo, _), o in zip(insets, off))
                        self.emit(f"T _w{k}; if (_view(&_w{k}, &{buf}, {rank}, "
                                  f"{start}, _n, &_err)) goto done;")
                ivs = self._cells(nest, [f"_n[{d}]" for d in range(rank)])
                for k, arg in enumerate(op.body.arguments):
                    if arg.uses or k == n_ins:
                        at = " + ".join(f"{i} * _w{k}.s[{d}]" for d, i in enumerate(ivs))
                        self.emit(f"const long _o{k} = {at or 0};")
                (result,) = self._emit_elementwise_region(op.body, loads)
                self.emit(f"_w{n_ins}.p[_o{n_ins}] = {result};")

    def _emit_cfd_faceIteratorOp(self, op) -> None:
        nv = op.attributes["nbVar"].value
        axis = op.attributes["axis"].value + 1
        rank = op.operand(0).type.rank
        b = self.take(op, 1)
        self.alias(op.result(), b, owned=True)
        x = self.name(op.operand(0))
        if x == b:  # a flux would read cells already updated
            raise Unsupported(op.name)
        with self.block(""), ExitStack() as nest:
            self.emit(f"if (_faces(&{x}, &{b}, {rank}, {nv}, &_err)) goto done;")
            # One face per cell: the cells above the axis' last one, taken
            # backwards, so each cell's ``-=`` comes before its ``+=`` as in
            # the NumPy statements ``b[v, :-1] -= f`` then ``b[v, 1:] += f``.
            extents = [f"{x}.n[{d}]" for d in range(1, rank)]
            extents[axis - 1] += " - 1"
            ivs = self._cells(nest, extents, axis - 1)
            for t, p in ((x, "const double *_x"), (b, "double *_y")):
                at = " + ".join(f"{i} * {t}.s[{d + 1}]" for d, i in enumerate(ivs))
                self.emit(f"{p} = {t}.p + {at or 0};")
            loads = [f"_x[{v} * {x}.s[0]]" for v in range(nv)]
            loads += [f"_x[{v} * {x}.s[0] + {x}.s[{axis}]]" for v in range(nv)]
            fluxes = self._emit_elementwise_region(op.regions[0].entry_block, loads)
            for v in range(nv):
                fn = self.fresh("flux")
                self.emit(f"const double {fn} = {fluxes[v]};")
                self.emit(f"_y[{v} * {b}.s[0]] -= {fn};")
                self.emit(f"_y[{v} * {b}.s[0] + {b}.s[{axis}]] += {fn};")

    def _slot(self) -> str:
        self.slots += 1
        return f"&_live[{self.slots - 1}]"

    def _buffer(self, name: str, call: str) -> None:
        self.emit(f"T {name}; if ({call}) goto done;")

    # ---- syntax -----------------------------------------------------------

    def literal(self, number) -> str:
        if isinstance(number, float) and not math.isfinite(number):
            return "NAN" if number != number else (
                "INFINITY" if number > 0 else "(-INFINITY)")
        text = repr(number) if isinstance(number, float) else str(int(number))
        return text if number >= 0 else f"({text})"

    def operand(self, value: Value) -> str:
        n = self.name(value)
        return f"{n}[_l]" if isinstance(value.type, VectorType) else n

    def declare(self, name: str, expr: str, type=None, mutable=False) -> None:
        self.declared.add(name)
        if isinstance(type, VectorType) and not mutable:  # elementwise
            lanes = type.shape[0]
            self.emit(
                f"double {name}[{lanes}]; for (int _l = 0; _l < {lanes}; ++_l) "
                f"{name}[_l] = {expr};"
            )
        elif hasattr(type, "shape"):
            raise Unsupported("scf.for")  # a carried vector or memref
        else:
            ctype = "double" if isinstance(type, FloatType) else "long"
            self.emit(f"{'' if mutable else 'const '}{ctype} {name} = {expr};")

    def assign(self, name: str, expr: str, type=None) -> None:
        if hasattr(type, "shape"):  # a rebound buffer would outlive its scope
            raise Unsupported("rebind")
        self.emit(f"{name} = {expr};")

    def for_range(self, iv: str, lb: str, ub: str, step: str) -> str:
        self.declared.add(iv)
        literal = step.strip("()")
        if literal.lstrip("-").isdigit() and int(literal):
            test = "<" if int(literal) > 0 else ">"
            return f"for (long {iv} = {lb}; {iv} {test} {ub}; {iv} += {step})"
        return (
            f"for (long {iv} = {lb}, {iv}_s = _step({step}, &_err); "
            f"{iv}_s > 0 ? {iv} < {ub} : {iv}_s < 0 && {iv} > {ub}; {iv} += {iv}_s)"
        )

    def snapshot(self, name: str, lanes: int) -> None:
        self.emit(
            f"double {name}_l[{lanes}]; memcpy({name}_l, {name}, sizeof {name}_l);"
        )

    def zeros(self, value: Value, shape: Sequence[str]) -> None:
        n = self.name(value)
        self._buffer(
            n, f"_new(&{n}, {len(shape)}, {_longs(shape)}, {self._slot()}, 1, &_err)"
        )
        self.owned[id(value)] = True

    def copy_buffer(self, name: str, src: str, type) -> None:
        self._buffer(
            name, f"_new(&{name}, {type.rank}, {src}.n, {self._slot()}, 0, &_err) "
                  f"|| _copy(&{name}, &{src}, {type.rank}, &_err)")

    def dim(self, buf: str, d: int) -> str:
        return f"{buf}.n[{d}]"

    def load(self, buf: str, idx: Sequence[str]) -> str:
        return f"_ld(&{buf}, {len(idx)}, {_longs(idx)}, &_err)"

    def store_row(self, buf: str, lead: Sequence, base, run: list) -> None:
        first = run[0][1]
        if base is not None:
            first = f"{base} + {run[0][0]}" if run[0][0] else base
        with self.block(""):
            self.emit(
                f"double *_p = _row(&{buf}, {len(lead) + 1}, "
                f"{_longs([*lead, first])}, {len(run)}, &_err);"
            )
            self.emit("if (!_p) goto done;")
            for k, (_, _, what) in enumerate(run):
                self.emit(f"_p[{k}] = {what};")

    def slice(self, value: Value, src: str, offs, sizes, view) -> None:
        n, window = self.name(value), f"{len(offs)}, {_longs(offs)}, {_longs(sizes)}"
        self._buffer(n, f"_view(&{n}, &{src}, {window}, &_err)" if view is not None
                     else f"_slice(&{n}, &{src}, {window}, {self._slot()}, &_err)")
        self.owned[id(value)] = view is not False

    def slice_store(self, dst: str, offs, sizes, src: str) -> None:
        self.emit(f"if (_put(&{dst}, {len(offs)}, {_longs(offs)}, "
                  f"{_longs(sizes)}, &{src}, &_err)) goto done;")

    def vector_view(self, value: Value, src: str, idx, lanes: int) -> None:
        n = self.name(value)
        self.emit(f"const double *{n} = _row(&{src}, {len(idx)}, {_longs(idx)}, "
                  f"{lanes}, &_err); if (!{n}) goto done;")
        self.snapshot_lanes(value)

    def vector_store(self, dst: str, idx, vec: str, lanes: int) -> None:
        with self.block(""):
            self.emit(f"double *_p = _row(&{dst}, {len(idx)}, {_longs(idx)}, "
                      f"{lanes}, &_err);")
            self.emit("if (!_p) goto done;")
            self.emit(f"memmove(_p, {vec}, {lanes} * sizeof(double));")

    def fill(self, buf: str, value: str, type) -> None:
        self.emit(f"_fill(&{buf}, {type.rank}, {value});")

    def broadcast(self, value: Value, scalar: str, lanes: int) -> None:
        self.declare(self.name(value), scalar, value.type)

    def lane(self, vec: Value, pos: int) -> str:
        return f"{self.lists.get(id(vec)) or self.name(vec)}[{pos}]"


class CModule:
    """Collects the C functions of one module's outlined loops."""

    def __init__(self) -> None:
        self.functions: List[str] = []
        #: ``unsupported-op:<name>`` of the first loop left out
        self.reason: Optional[str] = None

    def function(self, parent: Emitter, fn: str, ints,
                 walk: Callable[[CEmitter], object], lin=None) -> Optional[str]:
        """Print what ``walk`` prints, forked from ``parent``, as the C
        function ``fn``; the Python argument text binding its captures,
        or ``None`` if an op is not covered."""
        c = CEmitter(parent, ints)
        try:
            walk(c)
        except Unsupported as exc:
            self.reason = self.reason or f"unsupported-op:{exc}"
            return None
        self.functions.append(c.function(fn, lin))
        return ", ".join(
            "(" + "".join(f"{n}, " for n in names) + ")" for names in c.arguments()
        )

    def text(self) -> Optional[str]:
        return PRELUDE + "\n" + "\n".join(self.functions) if self.functions else None
