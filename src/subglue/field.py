"""Discrete scalar fields on masked grids and their certification tests.

A :class:`ScalarField` holds one value per active node of a
:class:`~subglue.geometry.GridDomain`: a finite float or ``-inf`` (``+inf``
is never allowed).  The discrete Laplacian is the standard 2d-point stencil
``(sum of axis neighbours - 2d * centre) / h**2``; a field is certified
subharmonic when the stencil is ``>= -tol`` at every interior node and
harmonic on a region when ``|stencil| <= tol`` there.

Values at ``-inf`` act as absorbing elements in means and are never counted
as violations of the sub-mean inequality: a ``-inf`` node passes the
subharmonicity test automatically, and interior nodes whose stencil touches a
``-inf`` value are exempted (and counted in the report) since an isolated
``-inf`` carries no mass in the continuum inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import PreconditionError, _require_memory
from .extreal import ExtReal, MINUS_INF, PLUS_INF
from .geometry import (
    GridDomain,
    NodeSet,
    _bounding_box,
    _interior_mask,
    _shift_slices,
    _shifted,
    as_point,
)

__all__ = [
    "ScalarField",
    "VerificationReport",
    "interpolate",
    "spherical_mean",
    "discrete_laplacian",
    "laplacian_array",
    "is_subharmonic",
    "is_harmonic",
    "boundary_limsup",
    "extremal_constants",
    "mean_inf_constant",
    "default_certification_tol",
]

_WEIGHT_EPS = 1e-12
# Sphere sample points handled per block of mean_inf_constant centres.  One
# block's corner arrays hold at most this many points times 2**d entries,
# which with a few lattice-sized arrays bounds the stage's memory.
_MEAN_BLOCK_POINTS = 2**15


@dataclass
class VerificationReport:
    """Outcome of one certification or hypothesis check.

    ``worst`` is the magnitude of the largest violation found (0 when the
    check is vacuous); the check fails exactly when ``worst > tol``.
    ``tag`` is the short rule identifier used across the toolkit's reports,
    ``kind`` is ``"hypothesis"`` or ``"conclusion"``.
    """

    name: str
    tag: str
    passed: bool
    worst: float
    tol: float
    where: tuple | None = None
    kind: str = "conclusion"
    details: dict = dataclass_field(default_factory=dict)

    def as_record(self) -> dict:
        rec = {
            "name": self.name,
            "tag": self.tag,
            "pass": bool(self.passed),
            "worst_violation": float(self.worst),
            "tol": float(self.tol),
            "kind": self.kind,
            "location": list(self.where) if self.where is not None else None,
        }
        if self.details:
            rec["details"] = {k: self.details[k] for k in sorted(self.details)}
        return rec

    def __str__(self):
        state = "pass" if self.passed else "FAIL"
        return f"[{state}] {self.name} ({self.tag}): worst={self.worst:.3e} tol={self.tol:.3e}"


def check(name, tag, worst, tol, where=None, kind="conclusion", **details) -> VerificationReport:
    """Build a report from a worst-violation magnitude; it passes exactly
    when ``worst <= tol``.  Every report in the package is built here."""
    worst = float(worst)
    return VerificationReport(
        name=name,
        tag=tag,
        passed=worst <= tol,
        worst=worst,
        tol=float(tol),
        where=where,
        kind=kind,
        details=details,
    )


class ScalarField:
    """Values (finite or -inf) on the active nodes of a grid domain.

    Inactive lattice nodes hold NaN and are never read by the operations
    here.  Instances are immutable; derive new fields with ``with_values``.
    """

    def __init__(self, domain: GridDomain, values: np.ndarray, _validate=True):
        values = np.asarray(values, dtype=float)
        if values.shape != domain.shape:
            raise PreconditionError("value array shape does not match grid")
        vals = np.where(domain.mask, values, np.nan)
        if _validate:
            active_vals = values[domain.mask]
            if np.any(np.isnan(active_vals)):
                raise PreconditionError("NaN value on an active node")
            if np.any(active_vals == np.inf):
                raise PreconditionError("+inf is not an allowed field value")
        self.domain = domain
        self.values = vals
        self.values.setflags(write=False)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, domain: GridDomain, c: float) -> "ScalarField":
        return cls(domain, np.full(domain.shape, float(c)))

    @classmethod
    def affine(cls, domain: GridDomain, a, b: float) -> "ScalarField":
        """The field ``a . x + b``."""
        a = np.asarray(a, dtype=float)
        vals = np.full(domain.shape, float(b))
        for k, c in enumerate(domain.coordinate_grids()):
            vals = vals + a[k] * c
        return cls(domain, vals)

    # -- basic queries ------------------------------------------------

    @property
    def spacing(self) -> float:
        return self.domain.spacing

    def minus_inf_set(self) -> NodeSet:
        return NodeSet(self.domain, self.values == -np.inf)

    def active_values(self) -> np.ndarray:
        return self.values[self.domain.mask]

    def finite_range(self) -> tuple:
        av = self.active_values()
        finite = av[np.isfinite(av)]
        if finite.size == 0:
            return (math.nan, math.nan)
        return (float(finite.min()), float(finite.max()))

    def at(self, index) -> ExtReal:
        index = tuple(index)
        if not self.domain.mask[index]:
            raise PreconditionError("node is not active")
        return ExtReal(self.values[index])

    # -- derived fields -----------------------------------------------

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self.domain, values)

    def restricted(self, mask: np.ndarray | NodeSet) -> "ScalarField":
        """The same values on a smaller active set."""
        if isinstance(mask, NodeSet):
            mask = mask.mask
        mask = np.asarray(mask, dtype=bool)
        if np.any(mask & ~self.domain.mask):
            raise PreconditionError("restriction mask leaves the active set")
        sub = self.domain.with_mask(mask)
        return ScalarField(sub, np.where(mask, self.values, 0.0))

    def affine_image(self, scale: float, offset: float) -> "ScalarField":
        """``scale * v + offset`` with ``0 * (-inf) = 0``."""
        if scale == 0.0:
            vals = np.full(self.domain.shape, float(offset))
        else:
            vals = scale * self.values + offset
        return ScalarField(self.domain, np.where(self.domain.mask, vals, 0.0))

    def equal_on(self, other: "ScalarField", mask: np.ndarray) -> bool:
        """Bit-exact equality of values on the given nodes."""
        a = self.values[mask]
        b = other.values[mask]
        return bool(np.array_equal(a, b))


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def _strides(shape) -> np.ndarray:
    """Flat-index strides of a C-ordered lattice of the given shape."""
    return np.array(
        [int(np.prod(shape[k + 1 :], dtype=np.int64)) for k in range(len(shape))]
    )


def _lattice_coords(dom: GridDomain, pts: np.ndarray) -> np.ndarray:
    """Points in lattice units; raises when one leaves the lattice box."""
    t = (pts - dom.origin.as_array()) / dom.spacing
    pad = 1e-9  # tolerate points that sit on the outer gridline
    lo = -pad
    hi = np.asarray(dom.shape, dtype=float) - 1.0 + pad
    if np.any(t < lo) or np.any(t > hi):
        raise PreconditionError("interpolation point leaves the lattice box")
    return t


def _corners(base: np.ndarray, frac: np.ndarray, strides: np.ndarray):
    """Multilinear weights and flat indices, both (m, 2**d), of the cell
    corners of m points with integer cell origin ``base`` and position
    ``frac`` in the cell."""
    m, d = base.shape
    weights = np.ones((m, 1))
    flat_index = np.zeros((m, 1), dtype=np.int64)
    for k in range(d):
        w_axis = np.stack([1.0 - frac[:, k], frac[:, k]], axis=1)
        idx_axis = np.stack([base[:, k], base[:, k] + 1], axis=1)
        weights = (weights[:, :, None] * w_axis[:, None, :]).reshape(m, -1)
        flat_index = (
            flat_index[:, :, None] + (idx_axis * strides[k])[:, None, :]
        ).reshape(m, -1)
    return weights, flat_index


def interpolate(v: ScalarField, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of ``v`` at an (m, d) array of points.

    Cells with some inactive corners are handled by renormalizing the
    remaining weights over the active corners, which keeps values usable one
    cell away from a mask edge at O(h) cost in accuracy.  A point whose cell
    has no active corner (or that leaves the lattice box) raises.  Any active
    corner at ``-inf`` with positive weight makes the result ``-inf``.
    """
    dom = v.domain
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    t = _lattice_coords(dom, pts)
    base = np.clip(np.floor(t).astype(int), 0, np.asarray(dom.shape) - 2)
    frac = np.clip(t - base, 0.0, 1.0)
    weights, flat_index = _corners(base, frac, _strides(dom.shape))

    corner_active = dom.mask.ravel()[flat_index]
    corner_vals = v.values.ravel()[flat_index]
    w = np.where(corner_active, weights, 0.0)
    total = w.sum(axis=1)
    if np.any(total <= _WEIGHT_EPS):
        raise PreconditionError("interpolation point escapes the active region")
    w = w / total[:, None]
    contributes = w > _WEIGHT_EPS
    neg_inf = np.any(contributes & (corner_vals == -np.inf), axis=1)
    safe_vals = np.where(corner_active & np.isfinite(corner_vals), corner_vals, 0.0)
    out = np.einsum("ij,ij->i", w, safe_vals)
    out[neg_inf] = -np.inf
    return out


# ---------------------------------------------------------------------------
# spherical means
# ---------------------------------------------------------------------------


def sphere_points(center, r: float, samples: int, d: int) -> np.ndarray:
    """Deterministic sample points on the sphere of radius ``r``.

    Uniform angles for d=2; a Fibonacci lattice for d=3.
    """
    c = as_point(center).as_array()
    if d == 2:
        ang = 2.0 * np.pi * np.arange(samples) / samples
        return c + r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if d == 3:
        k = np.arange(samples)
        z = 1.0 - 2.0 * (k + 0.5) / samples
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        golden = np.pi * (3.0 - np.sqrt(5.0))
        ang = golden * k
        return c + r * np.stack([rho * np.cos(ang), rho * np.sin(ang), z], axis=1)
    raise PreconditionError("spherical means are implemented for d = 2 and 3")


def _require_samples(samples: int, d: int):
    """Reject too few sphere samples, and too many to fit in memory: the
    samples' multilinear corner weights and indices are (samples, 2**d)
    arrays of 8-byte entries."""
    if samples < 8:
        raise PreconditionError("need at least 8 sphere samples")
    _require_memory(8 * 2**d * samples, f"a {samples}-sample sphere stencil")


def spherical_mean(v: ScalarField, x, r: float, samples: int = 256) -> float:
    """Average of ``v`` over ``samples`` interpolated points of the sphere
    of radius ``r`` about ``x`` (surface measure normalized to 1).

    Returns ``-inf`` when any sample hits the field's -inf set.  Raises when
    the sphere leaves interpolation reach of the active nodes.
    """
    _require_samples(samples, v.domain.dim)
    if not (r > 0):
        raise PreconditionError("sphere radius must be positive")
    pts = sphere_points(x, r, samples, v.domain.dim)
    try:
        vals = interpolate(v, pts)
    except PreconditionError as exc:
        raise PreconditionError(f"sphere exits domain: {exc}") from exc
    if np.any(vals == -np.inf):
        return -math.inf
    return float(vals.mean())


def mean_inf_constant(
    v: ScalarField, shell: NodeSet, r: float, samples: int = 256
) -> float:
    """Infimum over the shell nodes of the spherical mean of ``v`` at radius
    ``r/3`` (the averaging radius is one third of the supplied ``r``).

    The values are those of ``spherical_mean`` at every shell node.  The
    sample points' corner weights relative to a lattice node are the same
    for every node, so they are summed once into a stencil; centres whose
    stencil leaves the lattice box or touches an inactive node are
    interpolated point by point instead.  Centres go in blocks of a fixed
    number of sample points, so memory does not grow with the shell.
    """
    _require_samples(samples, v.domain.dim)
    v.domain.require_same_lattice(shell.domain)
    if shell.is_empty():
        raise PreconditionError("mean-infimum over an empty shell")
    radius = r / 3.0
    if not (radius > 0):
        raise PreconditionError("averaging radius must be positive")
    dom = v.domain
    d = dom.dim
    # c + radius * directions gives exactly the points sphere_points(c, ...)
    directions = sphere_points((0.0,) * d, 1.0, samples, d)
    nodes = shell.indices()
    centres = shell.points()
    try:
        # rounding is monotone, so each sphere's extreme coordinates are
        # those of its centre plus the extreme directions: testing these
        # tests every sample point against the lattice box
        _lattice_coords(dom, centres + radius * directions.min(axis=0))
        _lattice_coords(dom, centres + radius * directions.max(axis=0))
    except PreconditionError as exc:
        raise PreconditionError(f"sphere exits domain: {exc}") from exc

    strides = _strides(dom.shape)
    offsets, weights, absorbs, lo, hi = _sphere_stencil(
        radius * directions / dom.spacing, strides
    )
    active = dom.mask.ravel()
    values = v.values.ravel()
    safe = np.where(active & np.isfinite(values), values, 0.0)
    minus_inf = values == -np.inf
    means = np.empty(len(nodes))
    block = max(1, _MEAN_BLOCK_POINTS // samples)

    # fast path: centres whose whole stencil lies in the lattice box on
    # active nodes take the stencil sum; the others are interpolated exactly
    in_box = np.all((nodes + lo >= 0) & (nodes + hi < dom.shape), axis=1)
    inside = np.flatnonzero(in_box)
    exact = [np.flatnonzero(~in_box)]
    for start in range(0, len(inside), block):
        ids = inside[start : start + block]
        idx = (nodes[ids] @ strides)[:, None] + offsets
        means[ids] = safe[idx] @ weights / samples
        means[ids[minus_inf[idx[:, absorbs]].any(axis=1)]] = -np.inf
        exact.append(ids[~active[idx].all(axis=1)])

    # centres near inactive nodes: renormalized interpolation, as spherical_mean
    exact = np.concatenate(exact)
    for start in range(0, len(exact), block):
        ids = exact[start : start + block]
        pts = (centres[ids, None, :] + radius * directions).reshape(-1, d)
        try:
            vals = interpolate(v, pts)
        except PreconditionError as exc:
            raise PreconditionError(f"sphere exits domain: {exc}") from exc
        means[ids] = vals.reshape(len(ids), samples).mean(axis=1)
    return float(means.min())


def _sphere_stencil(u: np.ndarray, strides: np.ndarray):
    """The multilinear stencil of sphere points ``u`` given in lattice units
    relative to a lattice node.

    Returns the flat offsets of the corners with positive weight, their
    summed weights, whether some single point gives the corner more than
    ``_WEIGHT_EPS`` (so a -inf there absorbs the mean), and the lowest and
    highest per-axis corner offsets.  Offsets are merged by flat index; two
    different corners can share one only when the stencil spans more than
    the lattice box, and then no centre takes the stencil path.
    """
    base = np.floor(u).astype(np.int64)
    corner_w, corner_off = _corners(base, u - base, strides)
    offsets, inverse = np.unique(corner_off.ravel(), return_inverse=True)
    weights = np.bincount(inverse, weights=corner_w.ravel())
    largest = np.zeros_like(weights)
    np.maximum.at(largest, inverse, corner_w.ravel())
    keep = weights > 0
    return (
        offsets[keep], weights[keep], largest[keep] > _WEIGHT_EPS,
        base.min(axis=0), base.max(axis=0) + 1,
    )


# ---------------------------------------------------------------------------
# discrete Laplacian and certification
# ---------------------------------------------------------------------------


def _neighbour_sum(values: np.ndarray, fill: float = np.nan) -> np.ndarray:
    """Sum of the 2d axis neighbours, ``fill`` used beyond the lattice.

    The neighbours are added in place, axis by axis and +1 before -1, so
    every node sums them in the same order."""
    total = np.zeros_like(values)
    for k in range(values.ndim):
        for step in (1, -1):
            dst, src, edge = _shift_slices(values.ndim, k, step)
            total[dst] += values[src]
            total[edge] += fill
    return total


def _laplacian(values: np.ndarray, mask: np.ndarray, h: float):
    """Stencil Laplacian of ``values`` on the interior nodes of ``mask``
    (nodes beyond the array count as outside); ``(lap, interior_mask)`` as
    for :func:`laplacian_array`.  On a bounding box of the nodes of
    interest grown by one node, their entries are those of the whole
    lattice."""
    interior = _interior_mask(mask)
    twod = 2.0 * values.ndim
    with np.errstate(invalid="ignore"):
        nb = _neighbour_sum(values)
        lap = (nb - twod * values) / h**2
    lap = np.where(interior, lap, np.nan)
    # centre at -inf: (-inf)*(-2d) would give +inf together with a finite or
    # -inf neighbour sum; pin the convention explicitly.
    centre_minus = interior & (values == -np.inf)
    nb_minus = interior & (nb == -np.inf)
    lap[nb_minus & ~centre_minus] = -np.inf
    lap[centre_minus] = np.inf
    return lap, interior


def laplacian_array(v: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Stencil Laplacian on interior nodes.

    Returns ``(lap, interior_mask)``; entries of ``lap`` outside the interior
    are NaN.  Stencils touching a -inf value produce -inf (neighbour) or
    +inf (centre at -inf); callers decide how to treat those.
    """
    return _laplacian(v.values, v.domain.mask, v.domain.spacing)


def discrete_laplacian(v: ScalarField, node) -> ExtReal:
    """Stencil Laplacian at one node: ``(sum neighbours - 2d v) / h^2``.

    Requires the node and its 2d axis neighbours to be active.  A -inf
    neighbour gives ``-inf``; a -inf centre gives ``+inf`` (the sub-mean
    inequality holds trivially there).
    """
    node = tuple(int(i) for i in node)
    dom = v.domain
    if not dom.interior_mask()[node]:
        raise PreconditionError("not interior: node or an axis neighbour is inactive")
    centre = v.values[node]
    nb = 0.0
    for k in range(dom.dim):
        for step in (1, -1):
            idx = list(node)
            idx[k] += step
            nb += v.values[tuple(idx)]
    if centre == -np.inf:
        return PLUS_INF
    if nb == -np.inf:
        return MINUS_INF
    return ExtReal((nb - 2.0 * dom.dim * centre) / dom.spacing**2)


def default_certification_tol(v: ScalarField) -> float:
    """Default tolerance separating violations from discretization noise:
    ``1e-8 * (finite value range) + 4 h^2``.  Fields sampled from functions
    with large fourth derivatives need an explicit, larger tolerance."""
    lo, hi = v.finite_range()
    rng = 0.0 if math.isnan(lo) else hi - lo
    return 1e-8 * rng + 4.0 * v.spacing**2


def _worst_index(arr: np.ndarray, where_mask: np.ndarray, box):
    """Lattice index of the first maximum of ``arr`` over ``where_mask``,
    both given on ``box``; None when the mask is empty."""
    if not where_mask.any():
        return None
    masked = np.where(where_mask, arr, -np.inf)
    idx = np.unravel_index(np.argmax(masked), arr.shape)
    return tuple(int(i) + s.start for i, s in zip(idx, box))


def is_subharmonic(
    v: ScalarField,
    tol: float,
    exclude: NodeSet | None = None,
    name: str = "subharmonic",
    tag: str = "subharmonic",
    kind: str = "conclusion",
) -> VerificationReport:
    """Certify the discrete sub-mean inequality: stencil Laplacian >= -tol at
    every interior node.

    Nodes in ``exclude`` are skipped (used to puncture a Green pole).  -inf
    centres pass automatically and stencils touching a -inf neighbour are
    exempted; the report counts them under ``minus_inf_skipped``.
    """
    if not (tol > 0):
        raise PreconditionError("tolerance must be positive")
    if exclude is not None:
        v.domain.require_same_lattice(exclude.domain)
    # the interior nodes and their neighbours lie in the box of the active
    # nodes; an empty box, for a domain without active nodes, tests none
    box = _bounding_box(v.domain.mask) or (slice(0, 0),) * v.domain.dim
    lap, tested = _laplacian(v.values[box], v.domain.mask[box], v.spacing)
    if exclude is not None:
        tested &= ~exclude.mask[box]
    skipped = tested & ~np.isfinite(lap)
    tested &= np.isfinite(lap)
    violation = np.where(tested, np.maximum(0.0, -lap), 0.0)
    worst = float(violation.max()) if tested.any() else 0.0
    return check(
        name, tag, worst, tol, _worst_index(violation, tested, box), kind,
        tested_nodes=int(tested.sum()), minus_inf_skipped=int(skipped.sum()),
    )


def is_harmonic(
    v: ScalarField,
    region: NodeSet,
    tol: float,
    name: str = "harmonic",
    tag: str = "harmonic",
    kind: str = "conclusion",
) -> VerificationReport:
    """Certify ``|stencil Laplacian| <= tol`` on the region's interior nodes.

    Region nodes that are not interior cannot be evaluated and are skipped;
    an empty evaluable region raises.  A stencil touching -inf counts as an
    infinite violation (harmonic values must be finite).
    """
    if not (tol > 0):
        raise PreconditionError("tolerance must be positive")
    v.domain.require_same_lattice(region.domain)
    # the region's nodes and their neighbours lie in its box grown by one
    # node; an empty box, for an empty region, tests none
    box = _bounding_box(region.mask, grow=1) or (slice(0, 0),) * v.domain.dim
    lap, interior = _laplacian(v.values[box], v.domain.mask[box], v.spacing)
    tested = region.mask[box] & interior
    if not tested.any():
        raise PreconditionError("no interior node to test in the region")
    bad_inf = tested & ~np.isfinite(lap)
    with np.errstate(invalid="ignore"):
        violation = np.where(tested & np.isfinite(lap), np.abs(lap), 0.0)
    violation[bad_inf] = np.inf
    return check(
        name, tag, violation.max(), tol, _worst_index(violation, tested, box), kind,
        tested_nodes=int(tested.sum()),
    )


# ---------------------------------------------------------------------------
# boundary limsup surrogate and extremal constants
# ---------------------------------------------------------------------------


def neighbour_max(v: ScalarField, from_set: NodeSet) -> np.ndarray:
    """At every lattice node, the max of ``v`` over its Moore neighbours that
    belong to ``from_set`` (-inf where there is none)."""
    v.domain.require_same_lattice(from_set.domain)
    if np.any(from_set.mask & ~v.domain.mask):
        raise PreconditionError("approach set must lie in the field's active nodes")
    out = np.full(v.domain.shape, -np.inf)
    # a node with a neighbour in from_set lies in its box grown by one node
    box = _bounding_box(from_set.mask, grow=1)
    if box is None:
        return out
    near = out[box]
    src = np.where(from_set.mask[box], v.values[box], -np.inf)
    for offset in np.ndindex(*(3,) * v.domain.dim):
        if all(o == 1 for o in offset):
            continue
        shifted = src
        for k, o in enumerate(offset):
            if o != 1:
                shifted = _shifted(shifted, k, o - 1, -np.inf)
        np.maximum(near, shifted, out=near)
    return out


def boundary_limsup(v: ScalarField, from_set: NodeSet, at_node) -> ExtReal:
    """Discrete limsup surrogate: max of ``v`` over the Moore neighbours of
    ``at_node`` lying in ``from_set``."""
    at_node = tuple(int(i) for i in at_node)
    nb = neighbour_max(v, from_set)
    at = np.zeros(v.domain.shape, dtype=bool)
    at[at_node] = True
    if not NodeSet(v.domain, at).adjacent().mask[from_set.mask].any():
        raise PreconditionError("node has no neighbour in the approach set")
    return ExtReal(nb[at_node])


def extremal_constants(v: ScalarField, s: NodeSet) -> tuple[ExtReal, ExtReal]:
    """(inf, sup) of the field over a node set."""
    v.domain.require_same_lattice(s.domain)
    if s.is_empty():
        raise PreconditionError("extremal constants over an empty set")
    if np.any(s.mask & ~v.domain.mask):
        raise PreconditionError("node set must lie in the field's active nodes")
    vals = v.values[s.mask]
    return ExtReal(float(vals.min())), ExtReal(float(vals.max()))
