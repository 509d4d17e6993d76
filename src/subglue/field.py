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
from .extreal import ExtReal
from .geometry import (
    GridDomain,
    NodeSet,
    _bounding_box,
    _interior_mask,
    _moore_structure,
    _shift_slices,
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
# The mean stage's screen.  A centre is recomputed exactly when its screened
# mean is within twice _SCREEN_SLACK times the largest |value| of the least
# one, or when one of its samples has active corners weighing less than
# _SCREEN_MIN_WEIGHT: renormalizing divides the rounding difference between
# the screen's corner weights and interpolate's by that weight.
_SCREEN_SLACK = 1e-9
_SCREEN_MIN_WEIGHT = 1e-2
# Peak bytes per node of the padded box while one FFT correlation runs: the
# two half spectra and the real result (tracemalloc: 24.0-24.8 B on 2-d and
# 3-d boxes of 18k to 1.2M nodes).
_FFT_BYTES_PER_NODE = 25


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


def check_on(
    name, tag, violation, mask, tol, kind="conclusion", box=None, **details
) -> VerificationReport:
    """Build a report from pointwise violations: ``violation`` holds one
    entry per member of ``mask``, in row-major order.  The worst is their
    maximum (0 for an empty mask) and the location the first member that
    attains it, None unless the worst is positive.  ``box`` places a mask
    given on a bounding box in the lattice."""
    worst = (float(np.max(violation)) if np.size(violation) else 0.0) + 0.0  # no -0.0
    where = None
    if worst > 0:
        at = np.unravel_index(np.flatnonzero(mask)[np.argmax(violation)], mask.shape)
        where = tuple(int(i) + (box[k].start if box else 0) for k, i in enumerate(at))
    return check(name, tag, worst, tol, where, kind, **details)


class ScalarField:
    """Values (finite or -inf) on the active nodes of a grid domain.

    Inactive lattice nodes hold NaN and are never read by the operations
    here.  Instances are immutable; derive new fields with ``with_values``.
    """

    def __init__(self, domain: GridDomain, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != domain.shape:
            raise PreconditionError("value array shape does not match grid")
        vals = np.where(domain.mask, values, np.nan)
        # one masked reduction: a NaN propagates through the max, so a NaN is
        # reported even where +inf occurs too
        top = values.max(where=domain.mask, initial=-np.inf)
        if np.isnan(top):
            raise PreconditionError("NaN value on an active node")
        if top == np.inf:
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
        return ScalarField(sub, self.values)

    def affine_image(self, scale: float, offset: float) -> "ScalarField":
        """``scale * v + offset`` with ``0 * (-inf) = 0``."""
        if scale == 0.0:
            vals = np.full(self.domain.shape, float(offset))
        else:
            vals = scale * self.values + offset
        return ScalarField(self.domain, vals)


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

    The value is the least of the exact means, each that of
    ``spherical_mean`` at its node.  The sample points' corner weights
    relative to a lattice node are the same for every node, so they are
    summed once into a stencil: a centre whose stencil lies in the lattice
    box on active nodes takes the stencil sum, each row summed on its own so
    that the bits depend neither on the other centres nor on the BLAS thread
    count; every other centre is interpolated point by point.

    Only the centres that could hold the infimum are computed exactly.  A
    screen first estimates every mean: one FFT correlation of the field with
    the stencil over the box of the centres, and for centres whose stencil
    touches an inactive node the sample weights renormalized over the active
    corners.  The slack is ``1e-9`` times the largest ``|value|`` in that
    box; the screen's error is about ``1e-15`` of it.  Every centre whose
    screened mean is within twice the slack of the least one is recomputed
    exactly, and so is every centre the screen cannot bound: one whose
    stencil leaves the lattice box, one that may be absorbed by a -inf, and
    one with a sample whose active corners are too light to renormalize (an
    escaping sphere among them, which raises).  The result is bit-identical
    to the least exact mean over the whole shell whenever the screen's error
    is below the slack.  When all means tie, as on a constant field, every
    centre is recomputed.
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
    centres = dom.node_points(nodes)
    try:
        # rounding is monotone, so each sphere's extreme coordinates are
        # those of its centre plus the extreme directions: testing these
        # tests every sample point against the lattice box
        _lattice_coords(dom, centres + radius * directions.min(axis=0))
        _lattice_coords(dom, centres + radius * directions.max(axis=0))
    except PreconditionError as exc:
        raise PreconditionError(f"sphere exits domain: {exc}") from exc

    strides = _strides(dom.shape)
    offsets, weights, absorbs, lo, hi, corner_w, corner_off = _sphere_stencil(
        radius * directions / dom.spacing, strides
    )
    active = dom.mask.ravel()
    values = v.values.ravel()
    safe = np.where(active & np.isfinite(values), values, 0.0)
    minus_inf = values == -np.inf
    block = max(1, _MEAN_BLOCK_POINTS // samples)
    in_box = np.all((nodes + lo >= 0) & (nodes + hi < dom.shape), axis=1)
    inside = np.flatnonzero(in_box)

    # the screen; -inf sends a centre to the exact recomputation whatever
    # its mean, and stays there for the centres outside the lattice box
    screen = np.full(len(nodes), -np.inf)
    near = np.zeros(len(nodes), dtype=bool)
    slack = 0.0
    if inside.size:
        # valid-mode correlations over the box of the in-box centres grown
        # by the stencil's reach; centre n is entry n - first of each
        first = nodes[inside].min(axis=0)
        box = tuple(
            slice(a, b) for a, b in zip(first + lo, nodes[inside].max(axis=0) + hi + 1)
        )
        at = tuple((nodes[inside] - first).T)
        # the stencil spans at most the lattice box, so the offsets unravel
        # to per-axis offsets lo..hi
        kernel_at = np.unravel_index(offsets - lo @ strides, dom.shape)
        kernel = np.zeros(hi - lo + 1)
        kernel[kernel_at] = weights
        safe_box = safe.reshape(dom.shape)[box]
        screen[inside] = _correlate(safe_box, kernel)[at] / samples
        # the 0/1 correlations count nodes, exact integers to about 1e-12
        inactive = ~dom.mask[box]
        if inactive.any():
            touched = _correlate(inactive.astype(float), (kernel > 0).astype(float))
            near[inside] = touched[at] > 0.5
        minus_inf_box = minus_inf.reshape(dom.shape)[box]
        near_minus_inf = None
        if minus_inf_box.any():
            support = np.zeros(kernel.shape)
            support[tuple(k[absorbs] for k in kernel_at)] = 1.0
            absorbed = _correlate(minus_inf_box.astype(float), support)[at] > 0.5
            screen[inside[absorbed]] = -np.inf
            # interpolate's cell for a sample on a gridline may be the next
            # one over, so every -inf within one node of a corner counts
            near_minus_inf = (
                NodeSet(dom, minus_inf.reshape(dom.shape)).dilate().mask.ravel()
            )
        ids_near = np.flatnonzero(near)
        active_01 = active.astype(float) if ids_near.size else None
        for start in range(0, len(ids_near), block):
            ids = ids_near[start : start + block]
            screen[ids] = _renormalized_means(
                nodes[ids] @ strides, active_01, safe, near_minus_inf,
                corner_w.T, corner_off.T,
            )
        # tiny keeps the slack positive where the FFT's error is absolute
        slack = _SCREEN_SLACK * float(np.abs(safe_box).max()) + np.finfo(float).tiny

    # an overflowed or NaN screen bounds nothing
    screen[~np.isfinite(screen)] = -np.inf
    finite = screen > -np.inf
    least_screen = screen[finite].min() if finite.any() else np.inf
    candidates = screen <= least_screen + 2.0 * slack

    least = np.inf
    # einsum sums each row alone, in one order whatever the block or threads
    stencil = candidates & in_box & ~near
    ids_stencil = np.flatnonzero(stencil)
    for start in range(0, len(ids_stencil), block):
        ids = ids_stencil[start : start + block]
        idx = (nodes[ids] @ strides)[:, None] + offsets
        means = np.einsum("ij,j->i", safe[idx], weights) / samples
        means[minus_inf[idx[:, absorbs]].any(axis=1)] = -np.inf
        least = min(least, means.min())

    # the others: renormalized interpolation, as spherical_mean
    exact = np.flatnonzero(candidates & ~stencil)
    for start in range(0, len(exact), block):
        ids = exact[start : start + block]
        pts = (centres[ids, None, :] + radius * directions).reshape(-1, d)
        try:
            vals = interpolate(v, pts)
        except PreconditionError as exc:
            raise PreconditionError(f"sphere exits domain: {exc}") from exc
        least = min(least, vals.reshape(len(ids), samples).mean(axis=1).min())
    return float(least)


def _renormalized_means(flat, active, safe, near_minus_inf, corner_w, corner_off):
    """Screened means about the lattice nodes at flat indices ``flat``, with
    each sample's corner weights renormalized over its active corners as in
    ``interpolate``; ``active`` is the 0/1 float mask and ``corner_w``,
    ``corner_off`` are (2**d, samples).

    A mean is -inf where some sample's active corners weigh less than
    ``_SCREEN_MIN_WEIGHT`` or where a corner is set in ``near_minus_inf``
    (None when the field has no -inf nearby)."""
    idx = flat[:, None, None] + corner_off
    total = np.einsum("ks,cks->cs", corner_w, active[idx])
    # safe values are 0 on inactive corners, so only the total needs the mask
    part = np.einsum("ks,cks->cs", corner_w, safe[idx])
    samples = corner_w.shape[1]
    means = (part / np.maximum(total, _SCREEN_MIN_WEIGHT)).sum(axis=1) / samples
    means[(total < _SCREEN_MIN_WEIGHT).any(axis=1)] = -np.inf
    if near_minus_inf is not None:
        means[near_minus_inf[idx].any(axis=(1, 2))] = -np.inf
    return means


def _correlate(data: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid-mode correlation ``out[c] = sum_o kernel[o] * data[c + o]``, by
    FFT (Cooley & Tukey, Math. Comp. 19, 1965).

    A circular correlation at least as long as ``data`` along each axis
    wraps only outside the valid part.  The padded box and its spectra are
    checked against the memory budget before they are allocated.
    """
    # imported here: loading scipy.fft would lengthen every start-up
    from scipy import fft

    shape = tuple(fft.next_fast_len(n, real=True) for n in data.shape)
    _require_memory(
        _FFT_BYTES_PER_NODE * math.prod(shape),
        f"an FFT correlation over the {'x'.join(map(str, data.shape))} box "
        f"(padded to {'x'.join(map(str, shape))})",
    )
    spectrum = fft.rfftn(data, shape)
    spectrum *= fft.rfftn(kernel, shape).conj()
    out = fft.irfftn(spectrum, shape)
    return out[tuple(slice(0, n - k + 1) for n, k in zip(data.shape, kernel.shape))]


def _sphere_stencil(u: np.ndarray, strides: np.ndarray):
    """The multilinear stencil of sphere points ``u`` given in lattice units
    relative to a lattice node.

    Returns the flat offsets of the corners with positive weight, their
    summed weights, whether some single point gives the corner more than
    ``_WEIGHT_EPS`` (so a -inf there absorbs the mean), the lowest and
    highest per-axis corner offsets, and each point's own corner weights and
    flat offsets, both (points, 2**d).  Offsets are merged by flat index;
    two different corners can share one only when the stencil spans more
    than the lattice box, and then no centre takes the stencil path.
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
        base.min(axis=0), base.max(axis=0) + 1, corner_w, corner_off,
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
    inequality holds trivially there).  The value is that of
    :func:`laplacian_array` at the node.
    """
    dom = v.domain
    # the node as the lattice reads it (negative entries count from the end)
    node = tuple(range(n)[int(i)] for i, n in zip(node, dom.shape, strict=True))
    box = tuple(slice(max(i - 1, 0), i + 2) for i in node)
    lap, interior = _laplacian(v.values[box], dom.mask[box], dom.spacing)
    at = tuple(i - s.start for i, s in zip(node, box))
    if not interior[at]:
        raise PreconditionError("not interior: node or an axis neighbour is inactive")
    return ExtReal(lap[at])


def default_certification_tol(v: ScalarField) -> float:
    """Default tolerance separating violations from discretization noise:
    ``1e-8 * (finite value range) + 4 h^2``.  Fields sampled from functions
    with large fourth derivatives need an explicit, larger tolerance."""
    lo, hi = v.finite_range()
    rng = 0.0 if math.isnan(lo) else hi - lo
    return 1e-8 * rng + 4.0 * v.spacing**2


def is_subharmonic(
    v: ScalarField,
    tol: float,
    exclude: NodeSet | None = None,
    name: str = "subharmonic",
    tag: str = "subharmonic",
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
    return check_on(
        name, tag, np.maximum(0.0, -lap[tested]), tested, tol, box=box,
        tested_nodes=int(tested.sum()), minus_inf_skipped=int(skipped.sum()),
    )


def is_harmonic(
    v: ScalarField,
    region: NodeSet,
    tol: float,
    name: str = "harmonic",
    tag: str = "harmonic",
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
    violation = np.abs(lap[tested])
    violation[~np.isfinite(violation)] = np.inf
    return check_on(name, tag, violation, tested, tol, box=box, tested_nodes=int(tested.sum()))


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
    src = np.where(from_set.mask[box], v.values[box], -np.inf)
    ring = _moore_structure(v.domain.dim)
    ring[(1,) * v.domain.dim] = False
    from scipy import ndimage
    out[box] = ndimage.maximum_filter(src, footprint=ring, mode="constant", cval=-np.inf)
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
