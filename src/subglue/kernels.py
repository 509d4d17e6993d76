"""Radial kernels of potential theory and the Kelvin transform.

``kernel_k(q, t)`` is ``log t`` for q = 0 and ``-sgn(q) * t**(-q)`` otherwise
(so q = d - 2 gives the logarithmic kernel in the plane and the Newton kernel
in higher dimension).  ``kernel_K(d, x, y)`` evaluates it on point pairs with
the diagonal convention: ``-inf`` at x = y for d >= 2, and 0 for d = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError
from .extreal import ExtReal, MINUS_INF
from .field import ScalarField, interpolate
from .geometry import GridDomain, as_point, inversion_points

__all__ = [
    "kernel_k",
    "kernel_k_inverse",
    "kernel_K",
    "kernel_field",
    "kelvin_transform",
]


def kernel_k(q: int, t):
    """Radial kernel profile: ``log t`` if q = 0, else ``-sgn(q) t**(-q)``.

    Accepts a scalar or array ``t``; every entry must be positive.  Strictly
    increasing in ``t`` for every ``q``.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise PreconditionError("kernel argument must be positive")
    if q == 0:
        out = np.log(t_arr)
    else:
        out = -float(np.sign(q)) * t_arr ** (-float(q))
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out


def kernel_k_inverse(q: int, y: float) -> float:
    """Inverse of ``kernel_k(q, .)`` on its range."""
    if q == 0:
        return math.exp(y)
    x = -float(np.sign(q)) * y
    if x <= 0:
        raise PreconditionError("value outside the kernel profile's range")
    return x ** (-1.0 / float(q))


def kernel_K(d: int, x, y) -> ExtReal:
    """The kernel ``k_{d-2}(|x - y|)``, with ``-inf`` on the diagonal for
    d >= 2 and 0 on the diagonal for d = 1."""
    if d < 1:
        raise PreconditionError("dimension must be >= 1")
    x = as_point(x)
    y = as_point(y)
    if x.dim != d or y.dim != d:
        raise PreconditionError("point dimension does not match d")
    t = float(np.linalg.norm(x.as_array() - y.as_array()))
    if t == 0.0:
        return MINUS_INF if d >= 2 else ExtReal(0.0)
    return ExtReal(kernel_k(d - 2, t))


def kernel_field(domain: GridDomain, d: int, o) -> ScalarField:
    """The field ``x -> K_{d-2}(x, o)`` on a grid domain; a node coinciding
    with ``o`` gets ``-inf`` (d >= 2)."""
    if d != domain.dim:
        raise PreconditionError("kernel dimension must match the grid")
    o = as_point(o)
    dist = np.sqrt(domain.distance2_to(o))
    vals = np.zeros(domain.shape)
    pos = dist > 0
    vals[pos] = kernel_k(d - 2, dist[pos])
    vals[~pos] = -np.inf if d >= 2 else 0.0
    return ScalarField(domain, vals)


def kelvin_transform(u: ScalarField, o, target: GridDomain) -> ScalarField:
    """Kelvin transform of ``u`` onto ``target``.

    Each active target node ``y`` is pulled back through the sphere inversion
    centred at ``o`` to ``x`` with ``y = x`` inverted, and receives
    ``|x - o|**(d-2) * u(x)`` with ``u(x)`` multilinearly interpolated;
    ``-inf`` maps to ``-inf``.

    Requires ``o`` to lie outside the active nodes of ``u``'s domain, and the
    preimage of every active target node to stay within interpolation reach
    of ``u``.
    """
    o = as_point(o)
    d = u.domain.dim
    if target.dim != d or o.dim != d:
        raise PreconditionError("dimensions of field, target and centre differ")
    # the centre must not lie in the source set; at grid resolution that
    # means no active corner on the cell containing it
    t = (o.as_array() - u.domain.origin.as_array()) / u.domain.spacing
    if np.all(t > -1.0) and np.all(t < np.asarray(u.domain.shape)):
        base = np.clip(np.floor(t).astype(int), 0, np.asarray(u.domain.shape) - 2)
        cell = tuple(slice(b, b + 2) for b in base)
        if np.any(u.domain.mask[cell]):
            raise PreconditionError("inversion centre lies in the source domain")
    y_pts = target.active_set().points()
    delta = y_pts - o.as_array()
    n2 = np.sum(delta**2, axis=1)
    if np.any(n2 == 0.0):
        raise PreconditionError("pole of inversion: a target node coincides with o")
    x_pts = inversion_points(y_pts, o)
    try:
        u_vals = interpolate(u, x_pts)
    except PreconditionError as exc:
        raise PreconditionError(f"inversion image escapes source: {exc}") from exc
    r = np.sqrt(np.sum((x_pts - o.as_array()) ** 2, axis=1))
    factor = r ** float(d - 2)
    out_vals = np.where(u_vals == -np.inf, -np.inf, factor * u_vals)
    vals = np.zeros(target.shape)
    vals[target.mask] = out_vals
    return ScalarField(target, vals)
