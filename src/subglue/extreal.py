"""Extended real numbers with the arithmetic conventions used by the toolkit.

An :class:`ExtReal` is a finite float or one of the two marks ``MINUS_INF`` /
``PLUS_INF``.  The order is total (``-inf <= x <= +inf``) and arithmetic
follows the conventions the rest of the package relies on:

* ``x * (+-inf) = +-inf`` for ``x > 0`` (sign flips for ``x < 0``),
* ``0 * (+-inf) = 0``,
* ``x / (+-inf) = 0`` for finite ``x``.

Forms with no assigned value -- ``(+inf) + (-inf)``, ``inf / inf`` -- raise
:class:`~subglue.errors.UndefinedOperation` instead of producing a silent
NaN, because any such expression in this package is a bug.
"""

from __future__ import annotations

import math
from functools import total_ordering

from .errors import UndefinedOperation

__all__ = ["ExtReal", "MINUS_INF", "PLUS_INF"]


def _coerce(x):
    if isinstance(x, ExtReal):
        return x
    if isinstance(x, (int, float)):
        return ExtReal(float(x))
    return NotImplemented


@total_ordering
class ExtReal:
    """A real number extended with -inf and +inf.

    Values are immutable.  Comparisons work against plain ints/floats, so
    ``ExtReal(2.0) == 2`` and ``MINUS_INF < 0`` hold.
    """

    __slots__ = ("_v",)

    def __init__(self, value: float):
        v = float(value)
        if math.isnan(v):
            raise ValueError("ExtReal cannot hold NaN")
        object.__setattr__(self, "_v", v)

    def __setattr__(self, name, value):
        raise AttributeError("ExtReal is immutable")

    @property
    def value(self) -> float:
        return self._v

    def __float__(self) -> float:
        return self._v

    def __repr__(self) -> str:
        if self._v == math.inf:
            return "ExtReal(+inf)"
        if self._v == -math.inf:
            return "ExtReal(-inf)"
        return f"ExtReal({self._v!r})"

    def __hash__(self):
        return hash(self._v)

    def __eq__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._v == o._v

    def __lt__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._v < o._v

    def __neg__(self):
        return ExtReal(-self._v)

    def __pos__(self):
        return self

    def __abs__(self):
        return ExtReal(abs(self._v))

    def __add__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._v, o._v
        if math.isinf(a) and math.isinf(b) and a != b:
            raise UndefinedOperation("(+inf) + (-inf) is undefined")
        return ExtReal(a + b)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._v, o._v
        # 0 * (+-inf) = 0 by convention, where IEEE would give NaN.
        if a == 0.0 or b == 0.0:
            return ExtReal(0.0)
        return ExtReal(a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._v, o._v
        if math.isinf(a) and math.isinf(b):
            raise UndefinedOperation("inf / inf is undefined")
        if math.isinf(b):
            return ExtReal(0.0)
        if b == 0.0:
            raise ZeroDivisionError("division by zero")
        return ExtReal(a / b)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self


MINUS_INF = ExtReal(-math.inf)
PLUS_INF = ExtReal(math.inf)
