"""Discrete Dirichlet solves, Green's functions and harmonic continuation.

Every solve colours its unknown nodes red and black by the parity of their
index sum.  The 2d-point stencil couples only nodes of opposite colour, so
the red unknowns are eliminated: conjugate gradients run on the symmetric
positive definite Schur complement over the black unknowns (the "reduced
system" of Hageman & Young, *Applied Iterative Methods*, 1981, ch. 9), with
a quarter of the full Laplacian's condition number and so about half its
iterations, and the red values are back-substituted.  The fixed data are
folded into the right-hand side.  Every solve runs on one box: the caller
fills the fixed data in an array of the bounding box of the unknowns and
any nonzero fixed data grown by one node, solves on that array with the
box's start, and only then places the result in a lattice array.  A node's
colour is the parity of its lattice index, box start included, and
row-major order in the box is the lattice's, so the numbering, the system
and every sum are those of the solve on the whole lattice, bit for bit.
The red-to-black adjacency ``N`` is
stored once, as CSR; ``N^T`` is its CSC view, whose product sums each row
in the same order (Saad, *Iterative Methods for Sparse Linear Systems*,
2003, ch. 3).  A solve stops once the max-norm of the stencil residual
over both colours meets the target; the iteration is deterministic.  The
Green's function of a domain D with pole o is obtained by solving the
discrete Poisson problem with a normalized point source at the pole node
and zero boundary values, which makes the result discretely harmonic away
from the pole (up to the solver residual) and reproduces the
``-K_{d-2}(. , o) + O(1)`` profile of the continuum object near the pole.
The pole node itself carries the solve's large finite value and stands in
for +inf; it is excluded from every certification.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .field import ScalarField
from .geometry import (
    GridDomain,
    NodeSet,
    Point,
    _bounding_box,
    _distance2,
    _shift_slices,
    as_point,
)

__all__ = [
    "SolverParams",
    "GreenField",
    "ContinuationResult",
    "solve_dirichlet",
    "green_function",
    "green_min_constant",
    "harmonic_layer_continuation",
]


@dataclass(frozen=True)
class SolverParams:
    """Conjugate-gradient settings.

    A solve stops once the max-norm of the stencil residual is at most
    ``rtol`` times the extent of the fixed lattice values together with 0,
    ``max(hi, 0) - min(lo, 0)`` over every finite value the solve holds
    fixed (the nodes outside the domain hold 0), or ``h^2`` times the pole
    strength if that is larger; ``max_iter`` bounds the number of CG
    iterations on the reduced system.
    """

    max_iter: int = 1_000_000
    rtol: float = 1e-10

    def __post_init__(self):
        if self.max_iter < 1:
            raise PreconditionError("max_iter must be positive")
        if not (self.rtol > 0):
            raise PreconditionError("residual tolerance must be positive")


def _red_black_system(values: np.ndarray, unknown: np.ndarray, h: float, pole, start):
    """The stencil system on the unknowns, split by colour.

    ``values`` and ``unknown`` are a box of the lattice whose first node has
    lattice index ``start``; the box holds every unknown and every fixed
    neighbour of one.  A node is black when its lattice index sum is odd
    and red when it is even; the 2d-point stencil couples only nodes of
    opposite colour.  Returns ``(red, black, adj, b_red, b_black)``: the two
    colour masks on the box, the 0/1 red-to-black adjacency ``N`` (CSR,
    rows red and columns black, each colour numbered in row-major order,
    which is the lattice's order; ``adj.T`` is ``N^T`` as a CSC view of the
    same arrays), and the right-hand side of each colour, which holds the
    sum of the fixed neighbour values (0 beyond the box) minus, at the pole
    node, ``h^2 strength`` for ``pole = (node, strength)`` (or None), the
    node an index of the box.  The full system is ``2d u_red - N u_black =
    b_red`` and ``2d u_black - N^T u_red = b_black``.  The neighbour sums
    of both colours come from one pass of 2d shifted adds over the box,
    which runs only when some fixed value is nonzero: with zero data, as in
    every Green solve, the right-hand side is the pole term alone, with the
    same bits.  The black numbering and the red neighbour table are freed
    before the right-hand sides are summed.
    """
    # imported here, not at module level, so that importing subglue for
    # capacity or certification alone does not load scipy.sparse
    from scipy import sparse

    # the colour is the parity of the lattice index, box start included
    odd = functools.reduce(
        np.logical_xor,
        ((i + s) % 2 == 1 for i, s in zip(np.indices(values.shape, sparse=True), start)),
    )
    red = unknown & ~odd
    black = unknown & odd
    # on the box padded by one node, the 2d neighbours of flat index i sit
    # at i + offsets, in ascending order; the pad stands for the nodes
    # beyond the box (unnumbered)
    number = np.full(tuple(n + 2 for n in values.shape), -1, dtype=np.int32)
    number[(slice(1, -1),) * values.ndim][black] = np.arange(
        np.count_nonzero(black), dtype=np.int32
    )
    strides = np.array(number.strides) // number.itemsize
    offsets = np.sort(np.concatenate([-strides, strides]))
    # the unknown neighbours of a red node are all black; one column of the
    # table at a time, so the only index temporary is one column's.  The pad
    # keeps every index in range, so "clip" never clips and spares the
    # buffered copy that "raise" makes of ``out``
    at = np.flatnonzero(np.pad(red, 1))
    table = np.empty((at.size, offsets.size), dtype=np.int32)
    for j, offset in enumerate(offsets):
        np.take(number, at + offset, out=table[:, j], mode="clip")
    del number, at
    present = table >= 0
    # each row's count as a sum of the 2d columns: strided column adds are
    # several times faster than a reduction along rows of 2d entries
    counts = np.zeros(table.shape[0], dtype=np.int32)
    for column in present.T:
        counts += column
    indptr = np.zeros(table.shape[0] + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    adj = sparse.csr_matrix(
        (np.ones(int(indptr[-1])), table[present], indptr),
        shape=(table.shape[0], np.count_nonzero(black)),
    )
    del table, present, counts
    if values.any(where=~unknown):
        # the fixed neighbour sums, added from 0 in ascending offset order as
        # a row sum of the gathered neighbours adds them; an unknown
        # neighbour adds +0 and one beyond the box is skipped, both leaving
        # every bit
        fixed = np.where(unknown, 0.0, values)
        b = np.zeros(values.shape)
        axes = range(values.ndim)
        for k, step in [*((k, -1) for k in axes), *((k, 1) for k in reversed(axes))]:
            dst, src, _ = _shift_slices(values.ndim, k, step)
            b[dst] += fixed[src]
        del fixed
        b_red, b_black = b[red], b[black]
    else:
        # every fixed value is +0 or -0, and sums of them from +0 are +0
        b_red, b_black = np.zeros(np.count_nonzero(red)), np.zeros(np.count_nonzero(black))
    if pole is not None and unknown[pole[0]]:
        # the pole's index in its colour's row-major numbering
        colour, b_colour = (black, b_black) if odd[pole[0]] else (red, b_red)
        flat = np.ravel_multi_index(pole[0], values.shape)
        b_colour[np.count_nonzero(colour.ravel()[:flat])] -= (h * h) * pole[1]
    return red, black, adj, b_red, b_black


def _cg_solve(
    values: np.ndarray, unknown: np.ndarray, h: float, params: SolverParams, pole=None, start=None
):
    """Conjugate gradients for ``lap u = f`` on the unknown nodes, run on the
    red-black reduced system, where ``f`` is 0 but for ``strength`` at the
    unknown ``node`` of ``pole = (node, strength)``.

    ``values`` enters with the fixed data preset and an initial guess on the
    black unknowns; it is modified in place.  It is a box of the lattice
    whose first node has lattice index ``start`` (None for the whole
    lattice, the box that starts at 0) and which holds every unknown and
    every fixed neighbour of one; the colours are the lattice's, so every
    such box gives the bits of the whole lattice.  The pole's node is an
    index of ``values``.  ``N^T`` is ``adj.T``, the CSC view of ``N``'s
    arrays, not a copy.  With ``D = 2d``, eliminating the red unknowns,
    ``u_red = (b_red + N u_black) / D``, leaves the symmetric positive
    definite Schur complement ``S = D I - N^T N / D`` on the black ones,
    with right-hand side ``b_black + N^T b_red / D``.  Its residual is the
    stencil residual on the black nodes once the red values are
    back-substituted, and the red residual is then zero up to roundoff.
    Returns ``(residual, iterations)`` where the residual is
    ``max |sum(neighbours) - 2d u - h^2 f|`` over all the unknowns and
    the iterations are those of the reduced system.  The target is ``rtol``
    times the scale ``max(hi, 0) - min(lo, 0)``, where ``lo`` and ``hi``
    bound the finite values on every node of ``values`` that is not an
    unknown, raised to ``h^2 |strength|`` by a pole; a scale of 0 (zero
    data, no pole) sets the unknowns to 0 after no iteration.  A recurrence
    residual that meets the target is confirmed against the true residual
    over both colours, and CG restarts from the true one if not.
    """
    # the extent of the fixed data together with 0, by masked reductions
    # without a copy of the fixed data: 0 keeps the target of offset data
    # above the roundoff of their magnitude
    fixed = ~unknown & np.isfinite(values)
    scale = float(values.max(where=fixed, initial=0.0) - values.min(where=fixed, initial=0.0))
    if pole is not None:
        scale = max(scale, (h * h) * abs(pole[1]))
    target = params.rtol * scale
    if not unknown.any():
        return 0.0, 0
    if scale == 0.0:  # zero data and no pole: the solution is 0
        values[unknown] = 0.0
        return 0.0, 0

    if start is None:
        start = (0,) * values.ndim
    red, black, adj, b_red, b_black = _red_black_system(values, unknown, h, pole, start)
    # N^T as a CSC view of adj's arrays: its product sums each row from 0
    # in ascending column order, as the product of a CSR copy would
    adj_t = adj.T
    diag = 2.0 * values.ndim

    def back_substitute(x):
        """The red values for black values ``x``, the black residual, and
        the max-norm of the residual ``b - M u`` of the full system over
        both colours.  The red residual is formed apart from ``x_red``, so
        it carries the roundoff of the back-substitution rather than
        cancelling it."""
        nx = adj @ x
        x_red = (b_red + nx) / diag
        r_red = b_red - (diag * x_red - nx)
        r = b_black - (diag * x - adj_t @ x_red)
        residual = max(np.abs(r_red).max(initial=0.0), np.abs(r).max(initial=0.0))
        return x_red, r, float(residual)

    x = values[black]
    x_red, r, residual = back_substitute(x)
    iterations = 0
    p = r.copy()
    # einsum's dot products do not thread: no BLAS thread count moves a bit
    rr = float(np.einsum("i,i->", r, r))
    # rr == 0 leaves nothing to iterate on: the black values are exact
    while residual > target and rr > 0.0 and iterations < params.max_iter:
        iterations += 1
        q = adj_t @ (adj @ p)
        q *= -1.0 / diag
        q += diag * p
        alpha = rr / float(np.einsum("i,i->", p, q))
        x += alpha * p
        r -= alpha * q
        residual = max(float(r.max()), -float(r.min()))
        if residual <= target:  # confirm; if the true residual fails, restart
            x_red, r, residual = back_substitute(x)
            p[:] = 0.0
        rr, rr_prev = float(np.einsum("i,i->", r, r)), rr
        p *= rr / rr_prev
        p += r
    converged = residual <= target
    if not converged:  # the values left behind carry their true residual
        x_red, _, residual = back_substitute(x)
    values[red] = x_red
    values[black] = x
    if not converged:
        raise ConvergenceError(
            f"CG did not reach residual {target:g} within {params.max_iter} "
            f"iterations (final residual {residual:g})",
            residual=residual,
            iterations=iterations,
        )
    return residual, iterations


def solve_dirichlet(
    domain: GridDomain, boundary_values: np.ndarray, params: SolverParams | None = None
) -> ScalarField:
    """Solve the discrete Laplace equation on a connected grid domain.

    ``boundary_values`` is a full-lattice array read at the domain's boundary
    nodes; those nodes are held fixed, the nodes outside the domain hold 0,
    and the interior is iterated until the stencil residual drops below
    ``rtol * (max(hi, 0) - min(lo, 0))`` for boundary values in ``[lo, hi]``
    (see :class:`SolverParams`), so offset data stop at a residual relative
    to their magnitude, not to their range.  The output is
    clamped into ``[min boundary, max boundary]``, which the exact discrete
    solution satisfies (maximum principle) and the clamp only trims solver
    noise.
    """
    params = params or SolverParams()
    boundary_values = np.asarray(boundary_values, dtype=float)
    if boundary_values.shape != domain.shape:
        raise PreconditionError("boundary value array shape does not match grid")
    if domain.component_count() != 1:
        raise PreconditionError("Dirichlet domain must be connected")
    interior = domain.interior_mask()
    boundary = domain.mask & ~interior
    if not boundary.any():
        raise PreconditionError("domain has no boundary nodes")
    bvals = boundary_values[boundary]
    if not np.all(np.isfinite(bvals)):
        raise PreconditionError("boundary values must be finite")
    # the whole domain's box: a boundary value that touches no interior node
    # still counts in the stopping rule's extent
    box = _bounding_box(domain.mask, grow=1)
    unknown, active = interior[box], domain.mask[box]
    values = np.zeros(unknown.shape)
    values[active] = boundary_values[box][active]
    values[unknown] = float(bvals.mean())
    _cg_solve(values, unknown, domain.spacing, params, start=tuple(s.start for s in box))
    lo, hi = float(bvals.min()), float(bvals.max())
    values[active] = np.clip(values[active], lo, hi)
    out = np.zeros(domain.shape)
    out[box] = values
    return ScalarField._adopt(domain, out)


@dataclass
class GreenField:
    """A discrete Green's function with its metadata.

    ``field`` lives on the full host lattice: positive inside D, identically
    0 outside, the pole node holding the solve's large finite surrogate for
    +inf.  ``min_constant`` is filled in once the function is bound to a core
    set via :func:`green_min_constant`.
    """

    field: ScalarField
    pole: Point
    pole_node: tuple
    pole_offset: float
    domain: GridDomain
    residual: float
    iterations: int
    unknowns: int
    min_constant: float | None = None

    @property
    def values(self) -> np.ndarray:
        return self.field.values

    def pole_set(self) -> NodeSet:
        """The pole node as a one-node set on the host lattice."""
        mask = np.zeros(self.domain.shape, dtype=bool)
        mask[self.pole_node] = True
        return NodeSet(self.field.domain, mask)

    def metadata(self) -> dict:
        return {
            "pole": list(self.pole.coords),
            "pole_node": list(self.pole_node),
            "pole_offset": self.pole_offset,
            "min_constant": self.min_constant,
            "method": "cg",
            "unknowns": self.unknowns,
            "residual": self.residual,
            "iterations": self.iterations,
        }


def _source_strength(d: int) -> float:
    """Total flux of the fundamental profile ``-k_{d-2}``: 2 for d = 1,
    2*pi for d = 2, (d-2) * (surface area of the unit sphere) for d >= 3."""
    if d == 1:
        return 2.0
    if d == 2:
        return 2.0 * math.pi
    area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return (d - 2) * area


def _snap_pole(domain: GridDomain, interior: np.ndarray, o: Point):
    """The interior node nearest to ``o`` (first in row-major order on
    ties) and its distance; raises when it is farther than ``sqrt(d) h``.

    Only the box of nodes within ``sqrt(d) h`` of ``o`` on every axis,
    padded by one node against rounding, is searched: a node farther out
    is too far either way.
    """
    h = domain.spacing
    reach = math.sqrt(domain.dim)
    box = []
    for k, n in enumerate(domain.shape):
        # the pole in lattice units, clamped so that a far pole stays finite
        t = min(max((o[k] - domain.origin[k]) / h, -reach - 3.0), n + reach + 3.0)
        lo, hi = math.floor(t - reach) - 1, math.ceil(t + reach) + 2
        box.append(slice(max(lo, 0), min(hi, n)))
    # an empty box is a pole beyond the lattice, maybe too far for a finite d2
    if any(s.start >= s.stop for s in box):
        raise PreconditionError("pole does not lie inside the domain")
    d2 = np.where(interior[tuple(box)], _distance2(domain, o, box), np.inf)
    local = np.unravel_index(np.argmin(d2), d2.shape)
    offset = float(math.sqrt(d2[local]))
    if offset > h * reach:
        raise PreconditionError("pole does not lie inside the domain")
    return tuple(int(i) + s.start for i, s in zip(local, box)), offset


def green_function(
    domain: GridDomain, o, params: SolverParams | None = None
) -> GreenField:
    """Discrete Green's function of a connected grid domain with pole ``o``.

    The pole is snapped to the nearest active interior node (the offset is
    recorded).  The field solves the discrete Poisson problem with a point
    source of strength ``-c_d / h^d`` at the pole node and zero values on the
    domain boundary, then is clamped below at 0 and extended by 0 over the
    rest of the lattice.  This makes it discretely harmonic away from the
    pole at solver-residual accuracy while matching ``-K_{d-2}(. , o)`` up to
    a bounded correction near the pole.
    """
    params = params or SolverParams()
    o = as_point(o)
    if o.dim != domain.dim:
        raise PreconditionError("pole dimension does not match the grid")
    if domain.component_count() != 1:
        raise PreconditionError("Green domain must be connected")
    interior = domain.interior_mask()
    if not interior.any():
        raise PreconditionError("domain has no interior nodes")
    pole_node, offset = _snap_pole(domain, interior, o)
    h = domain.spacing
    box = _bounding_box(interior, grow=1)
    start = tuple(s.start for s in box)
    unknown = interior[box]
    values = np.zeros(unknown.shape)
    pole = (
        tuple(i - s for i, s in zip(pole_node, start)),
        -_source_strength(domain.dim) / h**domain.dim,
    )
    residual, iterations = _cg_solve(values, unknown, h, params, pole=pole, start=start)
    # the solve writes only interior nodes, so the rest of the lattice is 0
    full = np.zeros(domain.shape)
    np.maximum(values, 0.0, out=full[box])
    host = domain.full_lattice()
    gfield = ScalarField._adopt(host, full)
    return GreenField(
        field=gfield,
        pole=host.node_point(pole_node),
        pole_node=pole_node,
        pole_offset=offset,
        domain=domain,
        residual=residual,
        iterations=iterations,
        unknowns=int(np.count_nonzero(unknown)),
    )


def green_min_constant(g: GreenField, s0: NodeSet) -> float:
    """The minimum of the Green's function over the discrete boundary of a
    core set compactly inside its domain; positive by the minimum principle.

    Raises ``"degenerate Green minimum"`` when the minimum is not positive,
    which indicates the core is not compactly inside D.
    """
    s0.domain.require_same_lattice(g.domain)
    if s0.is_empty():
        raise PreconditionError("core set is empty")
    if not s0.compactly_inside(g.domain.active_set()):
        raise PreconditionError("core set is not compactly inside the Green domain")
    ring = s0.inner_boundary()
    if ring.is_empty():
        raise PreconditionError("core set has an empty discrete boundary")
    m = float(g.values[ring.mask].min())
    if not (m > 0):
        raise PreconditionError(
            f"degenerate Green minimum: min over the core boundary is {m:g}"
        )
    g.min_constant = m
    return m


@dataclass
class ContinuationResult:
    """Harmonic continuation output: the continued field, how many nodes the
    ``max(. , v)`` guard engaged on, and the solve's residual/iterations."""

    field: ScalarField
    max_engaged: int
    residual: float
    iterations: int


def harmonic_layer_continuation(
    v: ScalarField, layer: NodeSet, params: SolverParams | None = None
) -> ContinuationResult:
    """Replace ``v`` on an open layer by the discrete harmonic extension of
    its values on the layer's exterior ring, guarded below by ``v``.

    The layer must be open in the grid sense: every member is an interior
    node of ``v``'s domain, so the ring of adjacent nodes carries ``v``
    values.  Those values must be finite.  The output equals ``v`` off the
    layer and ``max(harmonic extension, v)`` on it; the max guards the
    discrete leftovers of the domination principle and the report counts how
    often it engaged.
    """
    params = params or SolverParams()
    v.domain.require_same_lattice(layer.domain)
    if layer.is_empty():
        raise PreconditionError("continuation layer is empty")
    if not layer.issubset(v.domain.active_set().interior()):
        raise PreconditionError(
            "layer must be open in the grid sense (interior nodes of the field's domain)"
        )
    ring = layer.adjacent("axis")
    ring_vals = v.values[ring.mask]
    if np.any(ring_vals == -np.inf):
        raise PreconditionError("-inf value on the layer's boundary ring")
    box = _bounding_box(layer.mask, grow=1)
    unknown, on_ring = layer.mask[box], ring.mask[box]
    values = np.zeros(unknown.shape)
    values[on_ring] = v.values[box][on_ring]
    values[unknown] = float(ring_vals.mean())
    residual, iterations = _cg_solve(
        values, unknown, v.domain.spacing, params, start=tuple(s.start for s in box)
    )
    solved = np.clip(values[unknown], ring_vals.min(), ring_vals.max())
    inside = v.values[layer.mask]
    out = v.values.copy()
    out[layer.mask] = np.maximum(solved, inside)
    engaged = int(np.sum(inside > solved))
    tilde = ScalarField._adopt(v.domain, out)
    return ContinuationResult(
        field=tilde, max_engaged=engaged, residual=residual, iterations=iterations
    )
