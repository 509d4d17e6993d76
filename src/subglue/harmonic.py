"""Discrete Dirichlet solves, Green's functions and harmonic continuation.

Every solve assembles the masked 2d-point Laplacian over its unknown nodes
once, as a sparse symmetric positive definite matrix with the fixed data
folded into the right-hand side, and runs conjugate gradients on it until the
max-norm of the stencil residual meets the target; the iteration is
deterministic.  The Green's function of a domain D with pole o is obtained by
solving the discrete Poisson problem with a normalized point source at the
pole node and zero boundary values, which makes the result discretely
harmonic away from the pole (up to the solver residual) and reproduces the
``-K_{d-2}(. , o) + O(1)`` profile of the continuum object near the pole.
The pole node itself carries the solve's large finite value and stands in
for +inf; it is excluded from every certification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .field import ScalarField
from .geometry import GridDomain, NodeSet, Point, _shifted, as_point

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
    iterations.
    """

    max_iter: int = 1_000_000
    rtol: float = 1e-10

    def __post_init__(self):
        if self.max_iter < 1:
            raise PreconditionError("max_iter must be positive")
        if not (self.rtol > 0):
            raise PreconditionError("residual tolerance must be positive")


def _laplacian_system(values: np.ndarray, unknown: np.ndarray, h2src):
    """``(M, b)`` with ``M = -A`` the 2d-point Laplacian on the unknowns, in
    row-major order, and the fixed neighbour values (0 beyond the lattice)
    and ``h2src`` (per unknown, or None) folded into ``b``, so that
    ``b - M u`` is the stencil residual.

    CSR arrays are built straight from the (unknowns x (2d+1)) neighbour
    table; missing neighbours are -1 there and dropped.
    """
    # imported here, not at module level, so that importing subglue for
    # capacity or certification alone does not load scipy.sparse
    from scipy import sparse

    d = values.ndim
    n = int(np.count_nonzero(unknown))
    number = np.full(values.shape, -1, dtype=np.int32)
    number[unknown] = np.arange(n, dtype=np.int32)
    fixed_values = np.where(unknown, 0.0, values)
    b = np.zeros(n) if h2src is None else -h2src
    # keyed by step * (d - axis), so sorting the keys puts each row's
    # columns in ascending order
    columns = {0: number[unknown]}
    for k in range(d):
        for step in (-1, 1):
            columns[step * (d - k)] = _shifted(number, k, step, -1)[unknown]
            b += _shifted(fixed_values, k, step, 0.0)[unknown]
    table = np.stack([columns[key] for key in sorted(columns)], axis=1)
    coef = np.full(2 * d + 1, -1.0)
    coef[d] = 2.0 * d
    present = table >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(present, axis=1), out=indptr[1:])
    data = np.broadcast_to(coef, table.shape)[present]
    matrix = sparse.csr_matrix((data, table[present], indptr), shape=(n, n))
    return matrix, b


def _cg_solve(
    values: np.ndarray,
    unknown: np.ndarray,
    h: float,
    params: SolverParams,
    source: np.ndarray | None = None,
):
    """Conjugate gradients for ``lap u = source`` on the unknown nodes.

    ``values`` enters with the fixed data preset and an initial guess on the
    unknowns; it is modified in place.  Returns ``(residual, iterations)``
    where the residual is ``max |sum(neighbours) - 2d u - h^2 source|`` over
    the unknowns.  A recurrence residual that meets the target is confirmed
    against the true residual, and CG restarts from the true one if not.
    """
    fixed = values[~unknown]
    fixed = fixed[np.isfinite(fixed)]
    scale = float(fixed.max() - fixed.min()) if fixed.size else 0.0
    if source is not None:
        scale = max(scale, (h * h) * float(np.abs(source).max()))
    target = params.rtol * scale
    if not unknown.any():
        return 0.0, 0

    h2src = None if source is None else (h * h) * source[unknown]
    matrix, b = _laplacian_system(values, unknown, h2src)
    x = values[unknown]
    r = b - matrix @ x
    residual = float(np.abs(r).max())
    iterations = 0
    p = r.copy()
    rr = float(r @ r)
    while residual > target and iterations < params.max_iter:
        iterations += 1
        q = matrix @ p
        alpha = rr / float(p @ q)
        x += alpha * p
        r -= alpha * q
        residual = float(np.abs(r).max())
        if residual <= target:  # confirm; if the true residual fails, restart
            r = b - matrix @ x
            residual = float(np.abs(r).max())
            p[:] = 0.0
        rr, rr_prev = float(r @ r), rr
        p = r + (rr / rr_prev) * p
    values[unknown] = x
    if residual > target:
        residual = float(np.abs(b - matrix @ x).max())
        raise ConvergenceError(
            f"CG did not reach residual {target:g} within {params.max_iter} "
            f"iterations (final residual {residual:g})",
            residual=residual,
            iterations=params.max_iter,
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
    return ScalarField(domain, np.where(domain.mask, values, 0.0))


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
    d2 = np.where(interior, domain.distance2_to(o), np.inf)
    pole_node = tuple(
        int(i) for i in np.unravel_index(np.argmin(d2), domain.shape)
    )
    offset = float(math.sqrt(d2[pole_node]))
    if offset > domain.spacing * math.sqrt(domain.dim):
        raise PreconditionError("pole does not lie inside the domain")
    boundary = domain.mask & ~interior
    h = domain.spacing
    source = np.zeros(domain.shape)
    source[pole_node] = -_source_strength(domain.dim) / h**domain.dim
    values = np.zeros(domain.shape)
    residual, iterations = _cg_solve(values, interior, h, params, source=source)
    values[domain.mask] = np.maximum(values[domain.mask], 0.0)
    values[~domain.mask] = 0.0
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
    residual, iterations = _cg_solve(
        values, layer.mask.copy(), v.domain.spacing, params
    )
    lo, hi = float(ring_vals.min()), float(ring_vals.max())
    solved = np.clip(values, lo, hi)
    out = v.values.copy()
    with np.errstate(invalid="ignore"):
        guarded = np.maximum(solved[layer.mask], v.values[layer.mask])
    engaged = int(np.sum(v.values[layer.mask] > solved[layer.mask]))
    out[layer.mask] = guarded
    tilde = ScalarField(v.domain, np.where(v.domain.mask, out, 0.0))
    return ContinuationResult(
        field=tilde, max_engaged=engaged, residual=residual, iterations=iterations
    )
