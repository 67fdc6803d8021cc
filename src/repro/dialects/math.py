"""The ``math`` dialect: libm-style functions and fused multiply-add.

All operations are elementwise over vectors, like their MLIR namesakes.
Only correctly rounded ones fold: libm's ``exp``/``log`` are not
bit-identical to NumPy's, the tier kernels compute with.
"""

from __future__ import annotations

import math

from repro.dialects.arith import ValueOp
from repro.ir.builder import OpBuilder
from repro.ir.operation import register_op
from repro.ir.values import Value


@register_op
class SqrtOp(ValueOp):
    """Square root — the speed of sound in the Roe flux needs it."""

    OP_NAME, ARITY, TYPE = "math.sqrt", 1, "float"
    NUMPY, C = "_np.sqrt({0})", "sqrt({0})"
    LANEWISE, FOLD = True, math.sqrt


@register_op
class AbsFOp(ValueOp):
    """Absolute value — wave-speed magnitudes in upwind fluxes."""

    OP_NAME, ARITY, TYPE = "math.absf", 1, "float"
    NUMPY, C = "_np.abs({0})", "fabs({0})"
    LANEWISE, FOLD = True, abs


@register_op
class ExpOp(ValueOp):
    OP_NAME, ARITY, TYPE = "math.exp", 1, "float"
    NUMPY, C = "_np.exp({0})", "exp({0})"
    LANEWISE = True


@register_op
class LogOp(ValueOp):
    OP_NAME, ARITY, TYPE = "math.log", 1, "float"
    NUMPY, C = "_np.log({0})", "log({0})"
    LANEWISE = True


@register_op
class PowFOp(ValueOp):
    """``numpy.power`` on scalars and lanes alike: NaN for a negative base
    and a non-integer exponent, ±inf on overflow, where Python's ``**``
    would raise. Not native: NumPy's vectorised ``power`` and libm's
    ``pow()`` differ in the last bit for some inputs. Not speculated
    either: under ``numpy.errstate(all="raise")`` those inputs raise."""

    OP_NAME, ARITY, TYPE = "math.powf", 2, "float"
    NUMPY, C = "_np.power({0}, {1})", None
    EFFECT, LANEWISE = "may-raise", True


@register_op
class FmaOp(ValueOp):
    """``math.fma(a, b, c) = a*b + c`` — the workhorse of Fig. 7."""

    OP_NAME, ARITY, TYPE = "math.fma", 3, "float"
    NUMPY = C = "({0} * {1} + {2})"
    LANEWISE = True


def sqrt(b: OpBuilder, x: Value) -> Value:
    return SqrtOp.build(b, x).result()


def absf(b: OpBuilder, x: Value) -> Value:
    return AbsFOp.build(b, x).result()


def fma(b: OpBuilder, x: Value, y: Value, z: Value) -> Value:
    return FmaOp.build(b, x, y, z).result()
