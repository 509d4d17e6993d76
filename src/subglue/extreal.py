"""Extended real numbers with the arithmetic conventions used by the toolkit.

An :class:`ExtReal` is a ``float`` that is never NaN, so its order, equality
and hashing are the float ones (``-inf <= x <= +inf``).  Arithmetic follows
the conventions the rest of the package relies on where IEEE differs:

* ``x * (+-inf) = +-inf`` for ``x > 0`` (sign flips for ``x < 0``),
* ``0 * (+-inf) = 0``,
* ``x / (+-inf) = 0`` for finite ``x``.

Forms with no assigned value -- ``(+inf) + (-inf)``, ``inf / inf`` -- raise
:class:`~subglue.errors.UndefinedOperation` instead of producing a silent
NaN, because any such expression in this package is a bug.
"""

from __future__ import annotations

import math
import operator

from .errors import UndefinedOperation

__all__ = ["ExtReal", "MINUS_INF", "PLUS_INF"]


def _mul(a: float, b: float) -> float:
    # 0 * (+-inf) = 0 by convention, where IEEE would give NaN.
    return 0.0 if a == 0.0 or b == 0.0 else a * b


def _truediv(a: float, b: float) -> float:
    return 0.0 if math.isinf(b) and not math.isinf(a) else a / b


def _arith(op, symbol: str, reflected: bool = False):
    """The dunder applying ``op`` to two floats, with the result an ``ExtReal``.

    A NaN result is one of the undefined forms and raises.
    """

    def method(self, other):
        if not isinstance(other, (int, float)):
            return NotImplemented
        a, b = (float(other), float(self)) if reflected else (float(self), float(other))
        r = op(a, b)
        if math.isnan(r):
            raise UndefinedOperation(f"{a!r} {symbol} {b!r} is undefined")
        return ExtReal(r)

    return method


class ExtReal(float):
    """A real number extended with -inf and +inf.

    Values are immutable floats, so ``ExtReal(2.0) == 2`` and
    ``MINUS_INF < 0`` hold.  ``__array_ufunc__ = None`` makes numpy scalars
    and arrays defer to this class's arithmetic instead of running IEEE's.
    """

    __slots__ = ()
    __array_ufunc__ = None

    def __new__(cls, value: float):
        self = super().__new__(cls, value)
        if math.isnan(self):
            raise ValueError("ExtReal cannot hold NaN")
        return self

    @property
    def value(self) -> float:
        return float(self)

    def __repr__(self) -> str:
        if math.isinf(self):
            return "ExtReal(+inf)" if self > 0 else "ExtReal(-inf)"
        return f"ExtReal({float(self)!r})"

    def __neg__(self):
        return ExtReal(-float(self))

    def __pos__(self):
        return self

    def __abs__(self):
        return ExtReal(abs(float(self)))

    __add__ = _arith(operator.add, "+")
    __radd__ = _arith(operator.add, "+", reflected=True)
    __sub__ = _arith(operator.sub, "-")
    __rsub__ = _arith(operator.sub, "-", reflected=True)
    __mul__ = _arith(_mul, "*")
    __rmul__ = _arith(_mul, "*", reflected=True)
    __truediv__ = _arith(_truediv, "/")
    __rtruediv__ = _arith(_truediv, "/", reflected=True)


MINUS_INF = ExtReal(-math.inf)
PLUS_INF = ExtReal(math.inf)
