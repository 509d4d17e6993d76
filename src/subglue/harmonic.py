"""Discrete Dirichlet solves, Green's functions and harmonic continuation.

Every solve colours its unknown nodes red and black by the parity of their
index sum.  The 2d-point stencil couples only nodes of opposite colour, so
the red unknowns are eliminated: conjugate gradients run on the symmetric
positive definite Schur complement over the black unknowns (the "reduced
system" of Hageman & Young, *Applied Iterative Methods*, 1981, ch. 9), with
a quarter of the full Laplacian's condition number and so about half its
iterations, and the red values are back-substituted.  The fixed data are
folded into the right-hand side.  The system is assembled on the bounding
box of the unknowns grown by one node, not on the whole lattice: row-major
order in the box is the lattice's, so the numbering, the colours and every
sum are the same, while the assembly for a small domain in a large lattice
touches only the domain's box.  A solve stops once the max-norm of the
stencil residual over both colours meets the target; the iteration is
deterministic.  The Green's function of a domain D with pole o is obtained by
solving the discrete Poisson problem with a normalized point source at the
pole node and zero boundary values, which makes the result discretely
harmonic away from the pole (up to the solver residual) and reproduces the
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
from .geometry import GridDomain, NodeSet, Point, _bounding_box, as_point

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
    ``rtol`` times the data range; ``max_iter`` bounds the number of CG
    iterations on the reduced system.
    """

    max_iter: int = 1_000_000
    rtol: float = 1e-10

    def __post_init__(self):
        if self.max_iter < 1:
            raise PreconditionError("max_iter must be positive")
        if not (self.rtol > 0):
            raise PreconditionError("residual tolerance must be positive")


def _red_black_system(values: np.ndarray, unknown: np.ndarray, h: float, source):
    """The stencil system on the unknowns, split by colour.

    A node is black when its lattice index sum is odd and red when it is
    even; the 2d-point stencil couples only nodes of opposite colour.  The
    system is assembled on ``box``, the bounding box of the unknowns grown
    by one node (clipped to the lattice), which holds every unknown and
    every fixed neighbour of one.  Returns ``(box, red, black, adj, adj_t,
    b_red, b_black)``: the box (a tuple of slices of the lattice), the two
    colour masks on the box, the 0/1 red-to-black adjacency ``N`` (CSR, rows
    red and columns black, each colour numbered in row-major order, which
    is the lattice's order) and ``N^T``, and the right-hand side of each
    colour, which holds the fixed neighbour values (0 beyond the lattice)
    minus ``h^2 source`` (a full-lattice array, or None).  The full system
    is ``2d u_red - N u_black = b_red`` and ``2d u_black - N^T u_red =
    b_black``.
    """
    # imported here, not at module level, so that importing subglue for
    # capacity or certification alone does not load scipy.sparse
    from scipy import sparse

    box = _bounding_box(unknown, grow=1)
    values = values[box]
    unknown = unknown[box]
    # the colour is the parity of the lattice index, box start included
    odd = functools.reduce(
        np.logical_xor,
        ((i + s.start) % 2 == 1 for i, s in zip(np.indices(values.shape, sparse=True), box)),
    )
    red = unknown & ~odd
    black = unknown & odd
    # on the box padded by one node, the 2d neighbours of flat index i sit
    # at i + offsets, in ascending order; the pad stands for the nodes
    # beyond the lattice (unnumbered, value 0)
    number = np.full(values.shape, -1, dtype=np.int32)
    number[black] = np.arange(np.count_nonzero(black), dtype=np.int32)
    number = np.pad(number, 1, constant_values=-1)
    strides = np.array(number.strides) // number.itemsize
    offsets = np.sort(np.concatenate([-strides, strides]))
    number = number.ravel()
    fixed = np.pad(np.where(unknown, 0.0, values), 1).ravel()

    def neighbours(colour: np.ndarray) -> np.ndarray:
        return np.flatnonzero(np.pad(colour, 1))[:, None] + offsets

    at = neighbours(red)
    # the unknown neighbours of a red node are all black
    table = number[at]
    present = table >= 0
    indptr = np.zeros(table.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(present, axis=1), out=indptr[1:])
    adj = sparse.csr_matrix(
        (np.ones(int(indptr[-1])), table[present], indptr),
        shape=(table.shape[0], np.count_nonzero(black)),
    )
    b_red = fixed[at].sum(axis=1)
    b_black = fixed[neighbours(black)].sum(axis=1)
    if source is not None:
        source = source[box]
        b_red -= (h * h) * source[red]
        b_black -= (h * h) * source[black]
    return box, red, black, adj, adj.T.tocsr(), b_red, b_black


def _cg_solve(
    values: np.ndarray,
    unknown: np.ndarray,
    h: float,
    params: SolverParams,
    source: np.ndarray | None = None,
):
    """Conjugate gradients for ``lap u = source`` on the unknown nodes, run
    on the red-black reduced system.

    ``values`` enters with the fixed data preset and an initial guess on the
    black unknowns; it is modified in place.  With ``D = 2d``, eliminating
    the red unknowns, ``u_red = (b_red + N u_black) / D``, leaves the
    symmetric positive definite Schur complement ``S = D I - N^T N / D`` on
    the black ones, with right-hand side ``b_black + N^T b_red / D``.  Its
    residual is the stencil residual on the black nodes once the red values
    are back-substituted, and the red residual is then zero up to roundoff.
    Returns ``(residual, iterations)`` where the residual is
    ``max |sum(neighbours) - 2d u - h^2 source|`` over all the unknowns and
    the iterations are those of the reduced system.  A recurrence residual
    that meets the target is confirmed against the true residual over both
    colours, and CG restarts from the true one if not.
    """
    # the data range by masked reductions, without a copy of the fixed data
    fixed = ~unknown & np.isfinite(values)
    scale = 0.0
    if fixed.any():
        hi = values.max(where=fixed, initial=-np.inf)
        scale = float(hi - values.min(where=fixed, initial=np.inf))
    if source is not None:
        scale = max(scale, (h * h) * float(max(source.max(), -source.min())))
    target = params.rtol * scale
    if not unknown.any():
        return 0.0, 0

    box, red, black, adj, adj_t, b_red, b_black = _red_black_system(
        values, unknown, h, source
    )
    view = values[box]
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

    x = view[black]
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
    view[red] = x_red
    view[black] = x
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
    nodes; those nodes are held fixed and the interior is iterated until the
    stencil residual drops below ``rtol * (boundary range)``.  The output is
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
    values = np.zeros(domain.shape)
    values[boundary] = boundary_values[boundary]
    values[interior] = float(bvals.mean())
    _cg_solve(values, interior, domain.spacing, params)
    lo, hi = float(bvals.min()), float(bvals.max())
    values[domain.mask] = np.clip(values[domain.mask], lo, hi)
    return ScalarField(domain, values)


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
    d2 = 0.0
    for k, s in enumerate(box):
        c = domain.axis_coords(k)[s]
        axis = [c.size if j == k else 1 for j in range(domain.dim)]
        d2 = d2 + (c.reshape(axis) - o[k]) ** 2
    d2 = np.where(interior[tuple(box)], d2, np.inf)
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
    source = np.zeros(domain.shape)
    source[pole_node] = -_source_strength(domain.dim) / h**domain.dim
    values = np.zeros(domain.shape)
    residual, iterations = _cg_solve(values, interior, h, params, source=source)
    # the solve writes only interior nodes, so the rest of the lattice is 0
    np.maximum(values, 0.0, out=values)
    host = domain.full_lattice()
    gfield = ScalarField(host, values)
    return GreenField(
        field=gfield,
        pole=host.node_point(pole_node),
        pole_node=pole_node,
        pole_offset=offset,
        domain=domain,
        residual=residual,
        iterations=iterations,
        unknowns=int(np.count_nonzero(interior)),
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
    values = np.zeros(v.domain.shape)
    values[ring.mask] = v.values[ring.mask]
    values[layer.mask] = float(ring_vals.mean())
    residual, iterations = _cg_solve(values, layer.mask, v.domain.spacing, params)
    solved = np.clip(values[layer.mask], ring_vals.min(), ring_vals.max())
    inside = v.values[layer.mask]
    out = v.values.copy()
    with np.errstate(invalid="ignore"):
        out[layer.mask] = np.maximum(solved, inside)
    engaged = int(np.sum(inside > solved))
    tilde = ScalarField(v.domain, out)
    return ContinuationResult(
        field=tilde, max_engaged=engaged, residual=residual, iterations=iterations
    )
