"""Points, balls, boxes, masked grid domains and node-set operations.

Open sets are represented by their rasterization on a uniform lattice: a node
is active iff its point lies in the set, with *strict* inequalities at ball
and box boundaries so the result is deterministic.  Behaviour of boundaries
below the grid spacing ``h`` is undefined by design.

Connectivity conventions: the 2d-neighbour (axis) stencil defines interior
and boundary nodes, while the Moore neighbourhood (8 neighbours in 2-d, 26 in
3-d) defines connectedness and adjacency between node sets.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PreconditionError

__all__ = [
    "Point",
    "Ball",
    "Box",
    "GridDomain",
    "NodeSet",
    "as_point",
    "rasterize",
    "parallel_set",
    "regularized_domain",
    "dist_to_complement",
    "inversion",
]


@dataclass(frozen=True)
class Point:
    """A point of R^d, d >= 1, with finite coordinates."""

    coords: tuple

    def __init__(self, *coords):
        if len(coords) == 1 and not np.isscalar(coords[0]):
            coords = tuple(coords[0])
        if len(coords) < 1:
            raise PreconditionError("a point needs at least one coordinate")
        vals = tuple(float(c) for c in coords)
        if not all(np.isfinite(vals)):
            raise PreconditionError("point coordinates must be finite")
        object.__setattr__(self, "coords", vals)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]


def as_point(p) -> Point:
    """Coerce a Point, sequence or scalar-iterable into a Point."""
    if isinstance(p, Point):
        return p
    return Point(p)


def _require_power(x: float, k: int, what: str):
    """Reject an ``x`` whose ``k``-th power overflows a float."""
    try:
        x**k
    except OverflowError:
        raise PreconditionError(f"{what} {x:g} is too large: its power {k} overflows") from None


@dataclass(frozen=True)
class Ball:
    """Open Euclidean ball ``{x : |x - center| < radius}``."""

    center: Point
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0):
            raise PreconditionError("ball radius must be positive")
        _require_power(self.radius, 2, "ball radius")

    def contains(self, coords) -> np.ndarray:
        """Membership of the points whose k-th coordinates are
        ``coords[k]``: per-axis arrays that broadcast together, such as
        :meth:`GridDomain.coordinate_grids`, or the columns ``pts.T`` of an
        (m, d) array."""
        # a squared distance that overflows lies beyond radius**2, which does not
        with np.errstate(over="ignore"):
            d2 = sum((x - c) ** 2 for x, c in zip(coords, self.center))
        return d2 < self.radius**2


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box ``{x : lo_k < x_k < hi_k}``."""

    lo: Point
    hi: Point

    def __post_init__(self):
        object.__setattr__(self, "lo", as_point(self.lo))
        object.__setattr__(self, "hi", as_point(self.hi))
        if self.lo.dim != self.hi.dim:
            raise PreconditionError("box corners must share a dimension")
        if not all(a < b for a, b in zip(self.lo, self.hi)):
            raise PreconditionError("box must have positive extent")

    def contains(self, coords) -> np.ndarray:
        """Membership of the points whose k-th coordinates are
        ``coords[k]``, as for :meth:`Ball.contains`."""
        inside = True
        for x, lo, hi in zip(coords, self.lo, self.hi):
            inside = inside & (x > lo) & (x < hi)
        return inside


# Nodes in one row slab of a lattice-wide float computation done slab by
# slab, so that its temporaries stay a few bytes a node at 257^2 and less
# on larger lattices.
_SLAB_NODES = 2**14


def _bounding_box(mask: np.ndarray, grow: int = 0):
    """Slices of the smallest box that holds the mask's members, grown by
    ``grow`` nodes on every side and clipped to the lattice; None for an
    empty mask.

    Row-major order inside the box is the lattice's row-major order, so a
    numbering, an argmin or a sum taken over the box gives what it gives
    over the whole lattice.
    """
    box = []
    for k, n in enumerate(mask.shape):
        others = tuple(j for j in range(mask.ndim) if j != k)
        hit = np.flatnonzero(mask.any(axis=others))
        if hit.size == 0:
            return None
        box.append(slice(max(int(hit[0]) - grow, 0), min(int(hit[-1]) + 1 + grow, n)))
    return tuple(box)


def _distance2(domain: "GridDomain", p, box) -> np.ndarray:
    """Squared distance to point ``p`` from the nodes of ``box``, a tuple of
    slices of the lattice: the axes' squares summed from 0 in axis order,
    so each entry is that of the whole lattice."""
    d2 = 0.0
    for k, s in enumerate(box):
        c = domain.axis_coords(k)[s]
        axis = [c.size if j == k else 1 for j in range(domain.dim)]
        d2 = d2 + (c.reshape(axis) - p[k]) ** 2
    return d2


def _shift_slices(ndim: int, axis: int, step: int):
    """``(dst, src, edge)`` index tuples with ``arr[src]`` the values that
    land on ``dst`` when shifting by ``step`` along ``axis``
    (``out[i] = arr[i + step]``), and ``edge`` the nodes whose source lies
    beyond the lattice."""
    src = [slice(None)] * ndim
    dst = [slice(None)] * ndim
    edge = [slice(None)] * ndim
    if step > 0:
        src[axis], dst[axis] = slice(step, None), slice(None, -step)
        edge[axis] = slice(-step, None)
    else:
        src[axis], dst[axis] = slice(None, step), slice(-step, None)
        edge[axis] = slice(None, -step)
    return tuple(dst), tuple(src), tuple(edge)


def _interior_mask(mask: np.ndarray) -> np.ndarray:
    """Members whose 2d axis neighbours are all members (lattice edges count
    as outside)."""
    interior = mask.copy()
    for k in range(mask.ndim):
        for step in (1, -1):
            dst, src, edge = _shift_slices(mask.ndim, k, step)
            interior[dst] &= mask[src]
            interior[edge] = False
    return interior


def _moore_structure(d: int) -> np.ndarray:
    return np.ones((3,) * d, dtype=bool)


def _axis_structure(d: int) -> np.ndarray:
    from scipy import ndimage
    return ndimage.generate_binary_structure(d, 1)


def _moore_labels(mask: np.ndarray):
    """``(labels, box, count)``: the Moore-connected components of the mask
    labelled on its bounding box ``box``, and how many there are; ``(None,
    None, 0)`` for an empty mask."""
    from scipy import ndimage
    box = _bounding_box(mask)
    if box is None:
        return None, None, 0
    labels, count = ndimage.label(mask[box], structure=_moore_structure(mask.ndim))
    return labels, box, int(count)


def _component_count(mask: np.ndarray) -> int:
    """How many Moore-connected components the mask has, labelled with the
    axis structure first: every axis neighbour is a Moore neighbour, so a
    nonempty axis-connected mask is one Moore component, and the sparser
    structure labels faster.  Only a mask of several axis components is
    labelled again with the Moore structure."""
    from scipy import ndimage
    box = _bounding_box(mask)
    if box is None:
        return 0
    count = ndimage.label(mask[box], structure=_axis_structure(mask.ndim))[1]
    if count > 1:
        count = ndimage.label(mask[box], structure=_moore_structure(mask.ndim))[1]
    return int(count)


class GridDomain:
    """A uniform lattice with an active-node mask.

    ``origin`` is the coordinate of node index ``(0, ..., 0)``; nodes sit at
    ``origin + index * spacing``.  Active nodes are the grid stand-in for an
    open set.  Instances are immutable once constructed.
    """

    def __init__(self, origin, spacing: float, shape, mask: np.ndarray):
        origin = as_point(origin)
        shape = tuple(int(n) for n in shape)
        if not (float(spacing) > 0):
            raise PreconditionError("grid spacing must be positive")
        if len(shape) != origin.dim:
            raise PreconditionError("origin dimension does not match shape")
        if any(n < 2 for n in shape):
            raise PreconditionError("each grid axis needs at least 2 nodes")
        # the stencil divides by h**2 and the Green pole strength by h**d
        _require_power(float(spacing), max(2, len(shape)), "grid spacing")
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != shape:
            raise PreconditionError("mask shape does not match grid shape")
        self.origin = origin
        self.spacing = float(spacing)
        self.shape = shape
        self.mask = mask.copy()
        self.mask.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def active_count(self) -> int:
        return int(self.mask.sum())

    def same_lattice(self, other: "GridDomain") -> bool:
        return (
            self.shape == other.shape
            and self.spacing == other.spacing
            and self.origin == other.origin
        )

    def require_same_lattice(self, other: "GridDomain"):
        if not self.same_lattice(other):
            raise PreconditionError("grid domains live on different lattices")

    def axis_coords(self, k: int) -> np.ndarray:
        return self.origin[k] + self.spacing * np.arange(self.shape[k])

    def node_point(self, index) -> Point:
        return Point(
            tuple(self.origin[k] + self.spacing * index[k] for k in range(self.dim))
        )

    def node_points(self, indices: np.ndarray) -> np.ndarray:
        """Coordinates for an (m, d) array of integer indices."""
        return self.origin.as_array() + self.spacing * np.asarray(indices, dtype=float)

    def coordinate_grids(self):
        """Per-axis coordinate arrays broadcastable to ``shape``."""
        out = []
        for k in range(self.dim):
            sh = [1] * self.dim
            sh[k] = self.shape[k]
            out.append(self.axis_coords(k).reshape(sh))
        return out

    def distance2_to(self, p) -> np.ndarray:
        """Squared distance from every lattice node to point ``p``."""
        return _distance2(self, as_point(p), tuple(slice(0, n) for n in self.shape))

    def interior_mask(self) -> np.ndarray:
        """Active nodes whose 2d axis neighbours are all active."""
        return _interior_mask(self.mask)

    def component_count(self) -> int:
        """How many Moore-connected components the active nodes form; axis
        labels answer first, since an axis-connected mask is one Moore
        component, and only a mask of several axis components is labelled
        again with the Moore structure."""
        return _component_count(self.mask)

    def with_mask(self, mask: np.ndarray) -> "GridDomain":
        return GridDomain(self.origin, self.spacing, self.shape, mask)

    def full_lattice(self) -> "GridDomain":
        """The lattice with every node active.  Its mask is a read-only
        broadcast of one True, which holds no lattice-sized array."""
        full = copy.copy(self)
        full.mask = np.broadcast_to(True, self.shape)
        return full

    def node_set(self, mask: np.ndarray) -> "NodeSet":
        return NodeSet(self, mask)

    def active_set(self) -> "NodeSet":
        return NodeSet(self, self.mask)

    def __eq__(self, other):
        if not isinstance(other, GridDomain):
            return NotImplemented
        return self.same_lattice(other) and bool(np.array_equal(self.mask, other.mask))

    def __repr__(self):
        return (
            f"GridDomain(shape={self.shape}, spacing={self.spacing}, "
            f"active={self.active_count})"
        )


class NodeSet:
    """A set of lattice nodes of one GridDomain, stored as a boolean mask."""

    def __init__(self, domain: GridDomain, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != domain.shape:
            raise PreconditionError("node-set mask shape does not match grid")
        self.domain = domain
        self.mask = mask.copy()
        self.mask.setflags(write=False)

    @cached_property
    def distance(self) -> np.ndarray:
        """Euclidean distance from every lattice node to the nearest member
        (0 on members), read-only.  Computed once per node set: the mask and
        the lattice are frozen, so every parallel set of this set thresholds
        the same field.

        scipy's feature transform names each node's nearest member; the
        distances are formed from it as ``distance_transform_edt`` forms
        them (each axis offset scaled by ``h`` and squared, the squares
        summed in axis order, the root taken), bit for bit, but one row
        slab at a time, so no float array of d lattices is made."""
        from scipy import ndimage
        if self.is_empty():
            raise PreconditionError("distance to an empty node set")
        dom = self.domain
        nearest = ndimage.distance_transform_edt(
            ~self.mask, sampling=[dom.spacing] * dom.dim,
            return_distances=False, return_indices=True,
        )
        dist = np.empty(dom.shape)
        rows = max(1, _SLAB_NODES // math.prod(dom.shape[1:]))
        for start in range(0, dom.shape[0], rows):
            slab = (slice(start, min(start + rows, dom.shape[0])), *map(slice, dom.shape[1:]))
            total = 0.0
            for k, index in enumerate(np.ogrid[slab]):
                offset = (nearest[k][slab] - index) * dom.spacing
                total = total + offset * offset
            dist[slab] = np.sqrt(total)
        dist.setflags(write=False)
        return dist

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    def is_empty(self) -> bool:
        return not self.mask.any()

    def _check(self, other: "NodeSet"):
        self.domain.require_same_lattice(other.domain)

    def union(self, other: "NodeSet") -> "NodeSet":
        self._check(other)
        return NodeSet(self.domain, self.mask | other.mask)

    def intersection(self, other: "NodeSet") -> "NodeSet":
        self._check(other)
        return NodeSet(self.domain, self.mask & other.mask)

    def difference(self, other: "NodeSet") -> "NodeSet":
        self._check(other)
        return NodeSet(self.domain, self.mask & ~other.mask)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def issubset(self, other: "NodeSet") -> bool:
        self._check(other)
        return bool(np.all(~self.mask | other.mask))

    def __eq__(self, other):
        if not isinstance(other, NodeSet):
            return NotImplemented
        self._check(other)
        return bool(np.array_equal(self.mask, other.mask))

    def __repr__(self):
        return f"NodeSet(count={self.count})"

    def indices(self) -> np.ndarray:
        """(m, d) integer indices of the member nodes, row-major order."""
        return np.argwhere(self.mask)

    def points(self) -> np.ndarray:
        """(m, d) coordinates of the member nodes."""
        return self.domain.node_points(self.indices())

    def dilate(self, connectivity: str = "moore") -> "NodeSet":
        """Members plus their adjacent nodes (``"moore"`` or ``"axis"``)."""
        struct = (
            _moore_structure(self.domain.dim)
            if connectivity == "moore"
            else _axis_structure(self.domain.dim)
        )
        out = np.zeros(self.domain.shape, dtype=bool)
        box = _bounding_box(self.mask, grow=1)
        if box is not None:
            from scipy import ndimage
            out[box] = ndimage.binary_dilation(self.mask[box], struct)
        return NodeSet(self.domain, out)

    def adjacent(self, connectivity: str = "moore") -> "NodeSet":
        """Nodes not in the set that touch it."""
        return self.dilate(connectivity).difference(self)

    def inner_boundary(self) -> "NodeSet":
        """Member nodes with an axis neighbour outside the set (lattice
        edges count as outside); the grid stand-in for the set's boundary."""
        return NodeSet(self.domain, self.mask & ~_interior_mask(self.mask))

    def interior(self) -> "NodeSet":
        """Member nodes whose 2d axis neighbours are all members."""
        return NodeSet(self.domain, _interior_mask(self.mask))

    def is_connected(self) -> bool:
        """Whether the set is one Moore-connected component; axis labels
        answer first, since an axis-connected set is Moore-connected, and
        only a set of several axis components is labelled again with the
        Moore structure."""
        return _component_count(self.mask) == 1

    def component_containing(self, index) -> "NodeSet":
        index = tuple(index)
        if not self.mask[index]:
            raise PreconditionError("node is not a member of the set")
        labels, box, _ = _moore_labels(self.mask)
        # the index as the mask reads it (negative entries count from the
        # end), relative to the box
        local = tuple(i % n - s.start for i, n, s in zip(index, self.domain.shape, box))
        out = np.zeros(self.domain.shape, dtype=bool)
        out[box] = labels == labels[local]
        return NodeSet(self.domain, out)

    def compactly_inside(self, other: "NodeSet") -> bool:
        """Whether the set plus its Moore shell lies inside ``other`` (the
        grid surrogate for being compactly contained)."""
        return self.dilate("moore").issubset(other)


def _recipe_mask(shapes, lattice: GridDomain) -> np.ndarray:
    """The mask of a :func:`rasterize` recipe on ``lattice``, possibly empty;
    a recipe shape may also be a boolean mask of the lattice's shape."""
    grids = lattice.coordinate_grids()
    mask = np.zeros(lattice.shape, dtype=bool)
    for op, shp in shapes:
        if op not in ("add", "sub"):
            raise PreconditionError(f"unknown rasterize op {op!r}")
        if isinstance(shp, np.ndarray):
            inside = shp
        else:
            dim = (shp.center if isinstance(shp, Ball) else shp.lo).dim
            if dim != lattice.dim:
                raise PreconditionError(f"shape of dimension {dim} on a {lattice.dim}-d grid")
            inside = shp.contains(grids)
        mask = mask | inside if op == "add" else mask & ~inside
    return mask


def rasterize(shapes, origin, spacing: float, shape) -> GridDomain:
    """Rasterize a union/difference recipe of balls and boxes onto a lattice.

    ``shapes`` is a sequence of ``(op, shape)`` pairs with ``op`` one of
    ``"add"`` / ``"sub"`` applied in order, starting from the empty set.
    A node is active iff its point lies in the resulting open set; strict
    inequalities at shape boundaries make the result deterministic.

    Raises
    ------
    PreconditionError
        If the recipe is empty, a shape's dimension differs from the
        lattice's, or the resulting domain has no active nodes.
    """
    shapes = list(shapes)
    if not shapes:
        raise PreconditionError("empty shape recipe gives an empty domain")
    probe = GridDomain(origin, spacing, shape, np.zeros(shape, dtype=bool))
    mask = _recipe_mask(shapes, probe)
    if not mask.any():
        raise PreconditionError("empty domain: no lattice node lies in the set")
    return probe.with_mask(mask)


def rasterize_ball(center, radius, origin, spacing, shape) -> GridDomain:
    """Convenience wrapper for a single open ball."""
    return rasterize([("add", Ball(as_point(center), radius))], origin, spacing, shape)


def parallel_set(s: NodeSet, r: float) -> NodeSet:
    """Outer r-parallel set: members plus every active node at Euclidean
    distance < r from some member."""
    if not (r > 0):
        raise PreconditionError("parallel-set radius must be positive")
    if s.is_empty():
        raise PreconditionError("parallel set of an empty node set")
    near = (s.distance < r) & s.domain.mask
    return NodeSet(s.domain, near | s.mask)


def dist_to_complement(s: NodeSet, o: GridDomain) -> float:
    """Minimum Euclidean distance from a node of ``s`` to an inactive node of
    ``o``'s lattice or to the lattice's outermost node ring.

    Set distance is symmetric, so this reads the cached ``s.distance`` at
    those nodes; the parallel sets of ``s`` threshold the same field, so one
    distance transform serves both."""
    s.domain.require_same_lattice(o)
    if s.is_empty():
        raise PreconditionError("distance from an empty node set")
    if not s.issubset(o.active_set()):
        raise PreconditionError("node set must lie in the domain's active nodes")
    ring = ~_interior_mask(np.ones(o.shape, dtype=bool))
    return float(s.distance[~o.mask | ring].min())


def regularized_domain(s0: NodeSet, r: float, host: GridDomain) -> GridDomain:
    """A grid domain D sandwiched between the r/3- and 2r/3-parallel sets of
    a connected node set ``s0``.

    D is the connected component of the r/2-parallel set containing ``s0``.
    On a lattice every finite masked component is regular for the Dirichlet
    problem of the 2d-point discrete Laplacian, so no extra regularity work
    is needed.  Requires the resolution guard ``r/3 >= 2h`` so the three
    parallel shells are separated by at least two node layers.
    """
    s0.domain.require_same_lattice(host)
    if not (r > 0):
        raise PreconditionError("parallel radius must be positive")
    if not s0.is_connected():
        raise PreconditionError("seed node set must be connected")
    h = host.spacing
    if r / 3.0 < 2.0 * h:
        raise PreconditionError(
            f"resolution too coarse: need r/3 >= 2h, got r/3={r / 3.0:g}, h={h:g}"
        )
    if not parallel_set(s0, r).issubset(host.active_set()):
        raise PreconditionError("r-parallel set of the seed leaves the host domain")
    half = parallel_set(s0, r / 2.0)
    seed_index = tuple(s0.indices()[0])
    d_mask = half.component_containing(seed_index)
    third = parallel_set(s0, r / 3.0)
    two_thirds = parallel_set(s0, 2.0 * r / 3.0)
    strictly_inside = third.issubset(d_mask) and third.count < d_mask.count
    strictly_outside = d_mask.issubset(two_thirds) and d_mask.count < two_thirds.count
    if not (strictly_inside and strictly_outside):
        raise PreconditionError(
            "resolution too coarse: parallel shells are not strictly separated"
        )
    return host.with_mask(d_mask.mask)


def inversion(x, o) -> Point:
    """Inversion in the unit sphere centred at ``o``:
    ``x -> o + (x - o) / |x - o|^2``.  The centre itself has no finite image."""
    x = as_point(x)
    o = as_point(o)
    if x.dim != o.dim:
        raise PreconditionError("points must share a dimension")
    delta = x.as_array() - o.as_array()
    n2 = float(np.dot(delta, delta))
    if n2 == 0.0:
        raise PreconditionError("pole of inversion: the centre has no image")
    return Point(o.as_array() + delta / n2)


def inversion_points(pts: np.ndarray, o) -> np.ndarray:
    """Vectorized inversion of an (m, d) coordinate array."""
    o = as_point(o).as_array()
    delta = np.asarray(pts, dtype=float) - o
    n2 = np.sum(delta**2, axis=-1, keepdims=True)
    if np.any(n2 == 0.0):
        raise PreconditionError("pole of inversion: the centre has no image")
    return o + delta / n2
