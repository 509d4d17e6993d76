import functools
import math
import tracemalloc

import numpy as np
import pytest

from subglue import (
    Ball,
    Box,
    ConvergenceError,
    GridDomain,
    NodeSet,
    Point,
    PreconditionError,
    ScalarField,
    SolverParams,
    green_function,
    green_min_constant,
    harmonic_layer_continuation,
    is_harmonic,
    is_subharmonic,
    rasterize,
    rasterize_ball,
    solve_dirichlet,
)

from subglue import harmonic
from subglue.field import _neighbour_sum
from subglue.geometry import _bounding_box, _shift_slices
from subglue.harmonic import _cg_solve, _red_black_system, _snap_pole, _source_strength

from conftest import annulus_domain, disk_domain, log_field


def box_domain(h=1 / 32, half=1.0):
    n = int(round(2 * half / h)) + 1
    return rasterize(
        [("add", Box((-half - h, -half - h), (half + h, half + h)))],
        origin=(-half, -half),
        spacing=h,
        shape=(n, n),
    )


# ---------------------------------------------------------------------------
# Dirichlet solves
# ---------------------------------------------------------------------------


def test_solve_constant_boundary_is_fixed_point():
    dom = disk_domain(1.0, h=1 / 16)
    sol = solve_dirichlet(dom, np.full(dom.shape, 2.5))
    assert np.all(sol.values[dom.mask] == 2.5)


def test_solve_affine_boundary_reproduces_affine():
    dom = box_domain(h=1 / 32)
    grids = dom.coordinate_grids()
    data = np.broadcast_to(grids[0], dom.shape).copy()
    sol = solve_dirichlet(dom, data)
    err = np.abs(sol.values - data)[dom.mask]
    assert float(err.max()) <= 1e-7


def test_solve_log_annulus_second_order():
    # harmonic oracle log|x| on the annulus; measured error constant is
    # ~0.07 h^2, asserted with a 7x margin
    h = 1 / 32
    dom = annulus_domain(0.5, 1.0, h, half=1.1)
    r2 = dom.distance2_to((0, 0))
    exact = 0.5 * np.log(np.where(r2 > 0, r2, 1.0))
    sol = solve_dirichlet(dom, exact)
    err = np.abs(sol.values - exact)[dom.mask]
    assert float(err.max()) <= 0.5 * h * h


def test_solve_respects_maximum_principle():
    rng = np.random.default_rng(8)
    dom = disk_domain(1.0, h=1 / 32)
    data = np.where(dom.mask, rng.uniform(-3.0, 7.0, size=dom.shape), 0.0)
    sol = solve_dirichlet(dom, data)
    boundary = dom.active_set().inner_boundary().mask
    lo, hi = data[boundary].min(), data[boundary].max()
    vals = sol.values[dom.mask]
    assert vals.min() >= lo and vals.max() <= hi


def test_solve_rejects_bad_inputs():
    dom = disk_domain(1.0, h=1 / 16)
    bad = np.full(dom.shape, np.inf)
    with pytest.raises(PreconditionError, match="finite"):
        solve_dirichlet(dom, bad)

    two = rasterize(
        [("add", Ball((-0.5, 0), 0.2)), ("add", Ball((0.5, 0), 0.2))],
        origin=(-1, -1), spacing=1 / 16, shape=(33, 33),
    )
    with pytest.raises(PreconditionError, match="connected"):
        solve_dirichlet(two, np.zeros(two.shape))


def test_solver_nonconvergence_carries_residual():
    dom = disk_domain(1.0, h=1 / 32)
    grids = dom.coordinate_grids()
    data = np.broadcast_to(grids[0] * grids[1], dom.shape).copy()
    with pytest.raises(ConvergenceError) as err:
        solve_dirichlet(dom, data, SolverParams(max_iter=2, rtol=1e-15))
    assert err.value.residual is not None and err.value.residual > 0


# ---------------------------------------------------------------------------
# Green's functions
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def unit_disk_green():
    dom = rasterize_ball((0, 0), 1.0, origin=(-1, -1), spacing=1 / 64, shape=(129, 129))
    return dom, green_function(dom, (0.0, 0.0))


def test_green_disk_matches_log_oracle(unit_disk_green):
    dom, g = unit_disk_green
    r = np.sqrt(dom.distance2_to((0, 0)))
    oracle = np.where(r > 0, -np.log(np.maximum(r, 1e-300)), 0.0)
    sel = dom.mask & (r >= 0.1)
    assert float(np.abs(g.values - oracle)[sel].max()) <= 0.05


def test_green_zero_outside_exactly(unit_disk_green):
    dom, g = unit_disk_green
    assert np.all(g.values[~dom.mask] == 0.0)


def test_green_harmonic_off_pole_ring(unit_disk_green):
    dom, g = unit_disk_green
    h = dom.spacing
    ring = np.zeros(dom.shape, dtype=bool)
    ring[g.pole_node] = True
    ring = NodeSet(dom, ring).dilate("axis")
    region = NodeSet(dom, dom.interior_mask() & ~ring.mask)
    assert is_harmonic(g.field, region, 10 * h).passed


def test_green_subharmonic_everywhere_off_pole(unit_disk_green):
    dom, g = unit_disk_green
    pole = np.zeros(dom.shape, dtype=bool)
    pole[g.pole_node] = True
    rep = is_subharmonic(g.field, 1e-4, exclude=NodeSet(dom, pole))
    assert rep.passed, rep


def test_green_pole_asymptotics_slope(unit_disk_green):
    dom, g = unit_disk_green
    h = dom.spacing
    r = np.sqrt(dom.distance2_to((0, 0)))
    ring = dom.mask & (r >= 2 * h * (1 - 1e-12)) & (r <= 8 * h * (1 + 1e-12))
    x = -np.log(r[ring])
    y = g.values[ring]
    slope = float(np.mean((x - x.mean()) * (y - y.mean())) / np.var(x))
    assert abs(slope - 1.0) <= 0.05
    # the pole node itself carries a large finite surrogate value
    assert np.isfinite(g.values[g.pole_node])
    assert g.values[g.pole_node] > y.max()


def test_green_positive_inside(unit_disk_green):
    dom, g = unit_disk_green
    assert g.values[dom.mask].min() >= 0.0


def test_green_three_dimensional_ball_oracle():
    h = 1 / 32
    radius = 0.75
    n = int(round(2 / h)) + 1
    dom = rasterize_ball((0, 0, 0), radius, origin=(-1, -1, -1), spacing=h,
                         shape=(n, n, n))
    g = green_function(dom, (0.0, 0.0, 0.0))
    r = np.sqrt(dom.distance2_to((0, 0, 0)))
    oracle = np.where(r > 0, 1.0 / np.maximum(r, 1e-300) - 1.0 / radius, 0.0)
    sel = dom.mask & (r >= 0.2)
    assert float(np.abs(g.values - oracle)[sel].max()) <= 0.1
    ring = dom.mask & (r >= 2 * h * (1 - 1e-12)) & (r <= 8 * h * (1 + 1e-12))
    x = 1.0 / r[ring]
    y = g.values[ring]
    slope = float(np.mean((x - x.mean()) * (y - y.mean())) / np.var(x))
    assert abs(slope - 1.0) <= 0.05


def test_green_pole_outside_domain_errors():
    dom = disk_domain(1.0, h=1 / 32)
    with pytest.raises(PreconditionError, match="pole"):
        green_function(dom, (5.0, 5.0))


def test_green_min_constant_disk_oracle(unit_disk_green):
    dom, g = unit_disk_green
    s0 = NodeSet(dom, dom.mask & (dom.distance2_to((0, 0)) < 0.25))
    m = green_min_constant(g, s0)
    assert m == pytest.approx(np.log(2.0), abs=0.05)
    assert g.min_constant == m


def test_green_min_constant_grows_for_smaller_core(unit_disk_green):
    dom, g = unit_disk_green
    big = green_min_constant(g, NodeSet(dom, dom.mask & (dom.distance2_to((0, 0)) < 0.25)))
    small = green_min_constant(g, NodeSet(dom, dom.mask & (dom.distance2_to((0, 0)) < 0.01)))
    assert small > big


def test_green_min_constant_core_touching_boundary_errors(unit_disk_green):
    dom, g = unit_disk_green
    s0 = NodeSet(dom, dom.mask & (dom.distance2_to((0, 0)) < 0.99**2))
    with pytest.raises(PreconditionError):
        green_min_constant(g, s0)


# ---------------------------------------------------------------------------
# harmonic layer continuation
# ---------------------------------------------------------------------------


def _annular_layer(dom, r_in, r_out):
    rr = np.sqrt(dom.distance2_to((0, 0)))
    return NodeSet(dom, dom.mask & (rr > r_in) & (rr < r_out) & dom.interior_mask())


def test_continuation_of_harmonic_field_is_identity():
    dom = disk_domain(1.0, h=1 / 32)
    v = log_field(dom, (2.0, 0.0))
    layer = _annular_layer(dom, 0.3, 0.7)
    res = harmonic_layer_continuation(v, layer)
    diff = np.abs(res.field.values - v.values)[dom.mask]
    assert float(diff.max()) <= 1e-6


def test_continuation_of_subharmonic_field_becomes_harmonic():
    dom = disk_domain(1.0, h=1 / 64)
    v = ScalarField(dom, np.where(dom.mask, dom.distance2_to((0, 0)), 0.0))
    layer = _annular_layer(dom, 0.3, 0.7)
    res = harmonic_layer_continuation(v, layer)
    assert bool(np.all(res.field.values[dom.mask] >= v.values[dom.mask] - 1e-12))
    interior_layer = NodeSet(dom, layer.interior().mask)
    assert is_harmonic(res.field, interior_layer, 1e-6).passed
    assert res.max_engaged == 0


def test_continuation_guard_engages_for_superharmonic_field():
    # a concave field dominates its harmonic replacement, so the max guard
    # keeps the original values everywhere on the layer
    dom = disk_domain(1.0, h=1 / 32)
    v = ScalarField(dom, np.where(dom.mask, -dom.distance2_to((0, 0)), 0.0))
    layer = _annular_layer(dom, 0.3, 0.7)
    res = harmonic_layer_continuation(v, layer)
    assert res.max_engaged == layer.count
    assert np.allclose(res.field.values[dom.mask], v.values[dom.mask], atol=1e-9)


def test_continuation_constant_field():
    dom = disk_domain(1.0, h=1 / 32)
    v = ScalarField.constant(dom, -2.0)
    layer = _annular_layer(dom, 0.3, 0.7)
    res = harmonic_layer_continuation(v, layer)
    assert np.allclose(res.field.values[dom.mask], -2.0, atol=1e-12)


def test_continuation_rejects_minus_inf_ring():
    dom = disk_domain(1.0, h=1 / 32)
    layer = _annular_layer(dom, 0.3, 0.7)
    ring = layer.dilate("axis").difference(layer)
    vals = np.where(dom.mask, 0.0, 0.0)
    vals[tuple(ring.indices()[0])] = -np.inf
    v = ScalarField(dom, vals)
    with pytest.raises(PreconditionError, match="-inf"):
        harmonic_layer_continuation(v, layer)


def test_continuation_rejects_non_open_layer():
    dom = disk_domain(1.0, h=1 / 32)
    v = ScalarField.constant(dom, 0.0)
    layer = NodeSet(dom, dom.mask)  # includes boundary nodes
    with pytest.raises(PreconditionError, match="open in the grid sense"):
        harmonic_layer_continuation(v, layer)


# ---------------------------------------------------------------------------
# the conjugate-gradient solver against a dense solve of the same system
# ---------------------------------------------------------------------------


def _dense_stencil_solve(values, unknown, h, source):
    """The stencil system ``sum(neighbours) - 2d u = h^2 source`` assembled
    node by node (fixed neighbours read from ``values``, 0 beyond the
    lattice) and solved with a dense LU factorization."""
    nodes = [tuple(int(i) for i in node) for node in np.argwhere(unknown)]
    number = {node: i for i, node in enumerate(nodes)}
    a = np.zeros((len(nodes), len(nodes)))
    rhs = np.zeros(len(nodes))
    for i, node in enumerate(nodes):
        a[i, i] = -2.0 * values.ndim
        rhs[i] = h * h * source[node]
        for k in range(values.ndim):
            for step in (1, -1):
                nb = list(node)
                nb[k] += step
                nb = tuple(nb)
                if not 0 <= nb[k] < values.shape[k]:
                    continue
                if nb in number:
                    a[i, number[nb]] = 1.0
                else:
                    rhs[i] -= values[nb]
    return np.linalg.solve(a, rhs)


@pytest.mark.parametrize("shape", [(21, 19), (8, 9, 7), (330,)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cg_matches_dense_solve_on_random_masked_domains(shape, seed):
    # unknowns are a random subset of the whole lattice, edges included, so
    # a neighbour shift that wrapped around would show up as a mismatch
    rng = np.random.default_rng(seed)
    h = 1 / 16
    unknown = rng.random(shape) < 0.7
    values = np.where(unknown, 0.0, rng.uniform(-1.0, 1.0, shape))
    source = np.zeros(shape)
    pole = tuple(np.argwhere(unknown)[rng.integers(unknown.sum())])
    source[pole] = -2.0 * np.pi / h ** len(shape)
    assert 200 <= unknown.sum() <= 400
    expected = _dense_stencil_solve(values, unknown, h, source)

    # the residual target is rtol * max(fixed-data range, h^2 |source|)
    rtol = 1e-12
    scale = max(np.ptp(values[~unknown]), h * h * abs(source[pole]))
    solved = values.copy()
    residual, iterations = _cg_solve(
        solved, unknown, h, SolverParams(rtol=rtol), pole=(pole, source[pole])
    )
    assert iterations > 0 and 0 < residual <= rtol * scale
    assert float(np.abs(solved[unknown] - expected).max()) <= 1e-9
    assert np.array_equal(solved[~unknown], values[~unknown])


def test_cg_below_roundoff_target_restarts_and_reports_true_residual():
    # a target below roundoff: the recurrence residual passes it, the true
    # residual cannot, so CG keeps restarting until max_iter and reports
    # the true residual of the values it leaves behind
    rng = np.random.default_rng(0)
    unknown = rng.random((21, 19)) < 0.7
    values = np.where(unknown, 0.0, rng.uniform(-1.0, 1.0, unknown.shape))
    with pytest.raises(ConvergenceError) as err:
        _cg_solve(values, unknown, 1 / 16, SolverParams(max_iter=300, rtol=1e-17))
    stencil = _neighbour_sum(values, fill=0.0) - 4.0 * values
    true = float(np.abs(stencil[unknown]).max())
    target = 1e-17 * np.ptp(values[~unknown])
    assert err.value.iterations == 300
    assert target < err.value.residual <= 1e-14
    # b - M u and the stencil sum round differently at this level
    assert true / 4 <= err.value.residual <= 4 * true


def test_constant_data_over_the_whole_lattice_solve():
    # only the outer ring is fixed, so the data range is 0; the target
    # counts the extent with 0 and is not below roundoff
    dom = GridDomain((-1, -1), 1 / 16, (33, 33), np.ones((33, 33), dtype=bool))
    sol = solve_dirichlet(dom, np.full(dom.shape, 0.1))
    assert np.all(sol.values == 0.1)


def test_cg_with_one_fixed_node_converges():
    # one fixed node and zero data beyond the lattice: the range is 0
    values = np.zeros(7)
    values[0] = -0.606
    unknown = np.arange(7) > 0
    expected = _dense_stencil_solve(values, unknown, 0.1, np.zeros(7))
    residual, iterations = _cg_solve(values, unknown, 0.1, SolverParams())
    assert 0 < iterations <= 6 and residual <= 1e-10 * 0.606
    assert float(np.abs(values[unknown] - expected).max()) <= 1e-14


def test_cg_with_zero_data_and_no_pole_returns_zero():
    values = np.zeros((9, 8))
    unknown = np.zeros(values.shape, dtype=bool)
    unknown[1:-1, 1:-1] = True
    values[unknown] = 0.3  # the initial guess
    assert _cg_solve(values, unknown, 1 / 8, SolverParams()) == (0.0, 0)
    assert np.all(values == 0.0)


def test_solve_target_is_relative_to_the_extent_of_the_data_with_zero():
    # x y + 1e4 on the boundary: the range is 0.78, the extent with 0 is
    # 1e4, and the solve stops at rtol * 1e4, far above rtol * range
    dom = rasterize_ball((0, 0), 0.9, origin=(-1, -1), spacing=1 / 32, shape=(65, 65))
    grids = dom.coordinate_grids()
    data = np.broadcast_to(grids[0] * grids[1] + 1e4, dom.shape).copy()
    boundary = dom.mask & ~dom.interior_mask()
    lo, hi = data[boundary].min(), data[boundary].max()
    sol = solve_dirichlet(dom, data)
    stencil = _neighbour_sum(sol.values, fill=0.0) - 4.0 * sol.values
    residual = float(np.abs(stencil[dom.interior_mask()]).max())
    assert 100 * 1e-10 * (hi - lo) < residual <= 1e-10 * hi


# ---------------------------------------------------------------------------
# the red-black reduced solve against a dense solve and a plain-CG reference
# ---------------------------------------------------------------------------


def _plain_cg_solve(values, unknown, h, rtol, source=None):
    """Plain conjugate gradients on the full stencil system ``M u = b`` over
    every unknown, with the solver's stopping rule: the max-norm of the
    residual meets ``rtol`` times the data range, and a recurrence residual
    that meets it is confirmed against the true one.  Returns the solved
    lattice values and the iteration count."""
    from scipy import sparse

    nodes = np.argwhere(unknown)
    n = len(nodes)
    number = np.full(values.shape, -1)
    number[unknown] = np.arange(n)
    fixed = np.where(unknown, 0.0, values)
    b = np.zeros(n) if source is None else -h * h * source[unknown]
    rows, cols = [], []
    for k in range(values.ndim):
        for step in (1, -1):
            nb = nodes.copy()
            nb[:, k] += step
            inside = np.flatnonzero((nb[:, k] >= 0) & (nb[:, k] < values.shape[k]))
            at = tuple(nb[inside].T)
            b[inside] += fixed[at]
            linked = number[at] >= 0
            rows.append(inside[linked])
            cols.append(number[at][linked])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    adjacency = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    matrix = 2.0 * values.ndim * sparse.identity(n, format="csr") - adjacency
    scale = np.ptp(values[~unknown])
    if source is not None:
        scale = max(scale, h * h * np.abs(source).max())
    target = rtol * scale
    x = values[unknown]
    r = b - matrix @ x
    p, rr, iterations = r.copy(), r @ r, 0
    while np.abs(r).max() > target:
        iterations += 1
        q = matrix @ p
        alpha = rr / (p @ q)
        x += alpha * p
        r -= alpha * q
        if np.abs(r).max() <= target:
            r = b - matrix @ x
            p[:] = 0.0
        rr, rr_prev = r @ r, rr
        p = r + (rr / rr_prev) * p
    out = values.copy()
    out[unknown] = x
    return out, iterations


@pytest.mark.parametrize("colour", [0, 1])
@pytest.mark.parametrize("shape", [(31,), (12, 11), (6, 7, 5)])
def test_reduced_cg_on_one_colour_unknowns(colour, shape):
    # every unknown has only fixed neighbours: with all unknowns red the
    # back-substitution alone solves the system, with all of them black the
    # reduced matrix is 2d I and CG needs one step
    rng = np.random.default_rng(7)
    parity = sum(np.indices(shape)) % 2
    unknown = (parity == colour) & (rng.random(shape) < 0.8)
    values = np.where(unknown, 0.0, rng.uniform(-1.0, 1.0, shape))
    expected = _dense_stencil_solve(values, unknown, 1 / 16, np.zeros(shape))
    solved = values.copy()
    residual, iterations = _cg_solve(solved, unknown, 1 / 16, SolverParams())
    assert iterations == (0 if colour == 0 else 1)
    assert residual <= 1e-10 * np.ptp(values[~unknown])
    assert float(np.abs(solved[unknown] - expected).max()) <= 1e-14


def test_reduced_cg_matches_plain_cg_on_the_ball_green_function():
    h = 1 / 32
    n = int(round(2 / h)) + 1
    dom = rasterize_ball((0, 0, 0), 0.75, origin=(-1, -1, -1), spacing=h, shape=(n, n, n))
    params = SolverParams(rtol=1e-12)
    g = green_function(dom, (0.0, 0.0, 0.0), params)
    interior = dom.interior_mask()
    source = np.zeros(dom.shape)
    source[g.pole_node] = -4.0 * np.pi / h**3
    expected, ref_iterations = _plain_cg_solve(
        np.zeros(dom.shape), interior, h, params.rtol, source
    )
    assert g.unknowns == int(interior.sum())
    assert g.metadata()["method"] == "cg"
    assert g.iterations <= 0.6 * ref_iterations
    assert float(np.abs(g.values - expected)[interior].max()) <= 1e-9


def test_reduced_cg_matches_plain_cg_on_a_continuation_layer():
    # v = |x|^2 is subharmonic, so its harmonic replacement lies above it
    # and the max guard never engages: the layer holds the plain solve
    dom = disk_domain(1.0, h=1 / 64)
    v = ScalarField(dom, np.where(dom.mask, dom.distance2_to((0, 0)), 0.0))
    layer = _annular_layer(dom, 0.3, 0.7)
    params = SolverParams(rtol=1e-12)
    res = harmonic_layer_continuation(v, layer, params)
    ring = layer.adjacent("axis").mask
    start = np.where(ring, v.values, 0.0)
    start[layer.mask] = v.values[ring].mean()
    expected, ref_iterations = _plain_cg_solve(start, layer.mask, dom.spacing, params.rtol)
    assert res.max_engaged == 0
    assert res.iterations <= 0.6 * ref_iterations
    assert float(np.abs(res.field.values - expected)[layer.mask].max()) <= 1e-9


# ---------------------------------------------------------------------------
# the assembly and the pole snap on a box against the whole lattice
# ---------------------------------------------------------------------------


def _whole_lattice_red_black_system(values, unknown, h, source):
    """The reduced system assembled on the whole lattice padded by one
    node: ``(red, black, adj, adj_t, b_red, b_black)`` with lattice-shaped
    colour masks."""
    from scipy import sparse

    odd = functools.reduce(
        np.logical_xor, (i % 2 == 1 for i in np.indices(values.shape, sparse=True))
    )
    red = unknown & ~odd
    black = unknown & odd
    number = np.full(values.shape, -1, dtype=np.int32)
    number[black] = np.arange(np.count_nonzero(black), dtype=np.int32)
    number = np.pad(number, 1, constant_values=-1)
    strides = np.array(number.strides) // number.itemsize
    offsets = np.sort(np.concatenate([-strides, strides]))
    number = number.ravel()
    fixed = np.pad(np.where(unknown, 0.0, values), 1).ravel()

    def neighbours(colour):
        return np.flatnonzero(np.pad(colour, 1))[:, None] + offsets

    at = neighbours(red)
    table = number[at]
    present = table >= 0
    indptr = np.zeros(table.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(present, axis=1), out=indptr[1:])
    adj = sparse.csr_matrix(
        (np.ones(int(indptr[-1])), table[present], indptr),
        shape=(table.shape[0], np.count_nonzero(black)),
    )
    b_red = fixed[at].sum(axis=1) - (h * h) * source[red]
    b_black = fixed[neighbours(black)].sum(axis=1) - (h * h) * source[black]
    return red, black, adj, adj.T.tocsr(), b_red, b_black


# (shape, first and last index of the unknowns' bounding box, parity of
# the index sum of the start the assembly receives, the start of that box
# grown by one node): boxes that touch the near or the far lattice edge or
# neither, starting on either colour
RED_BLACK_BOXES = [
    ((40,), (0,), (24,), 0),
    ((40,), (6,), (39,), 1),
    ((40,), (3,), (30,), 0),
    ((17, 15), (0, 4), (10, 14), 1),
    ((17, 15), (3, 4), (16, 11), 1),
    ((17, 15), (2, 6), (12, 12), 0),
    ((9, 8, 10), (0, 0, 2), (8, 5, 9), 1),
    ((9, 8, 10), (2, 1, 3), (6, 7, 9), 1),
    ((9, 8, 10), (1, 2, 2), (7, 6, 8), 0),
]


def _assert_box_system_matches(rng, values, unknown, h, pole, strength):
    """The assembly on the box of the unknowns grown by one node against
    the whole lattice's, bit for bit, sign bits included."""
    shape = values.shape
    box = _bounding_box(unknown, grow=1)
    start = tuple(s.start for s in box)
    local = tuple(i - s for i, s in zip(pole, start))
    source = np.zeros(shape)
    source[pole] = strength
    system = _red_black_system(values[box], unknown[box], h, (local, strength), start)
    expected = _whole_lattice_red_black_system(values, unknown, h, source)
    for colour, ref in zip(system[:2], expected[:2]):
        full = np.zeros(shape, dtype=bool)
        full[box] = colour
        assert np.array_equal(full, ref)
    adj, ref = system[2], expected[2]
    assert adj.shape == ref.shape
    assert np.array_equal(adj.indptr, ref.indptr)
    assert np.array_equal(adj.indices, ref.indices)
    assert np.array_equal(adj.data, ref.data)
    # N^T is adj's CSC view: its product is the CSR transpose's, bit for bit
    y = rng.uniform(-1.0, 1.0, adj.shape[0])
    y[rng.random(y.size) < 0.2] = -0.0
    assert (adj.T @ y).tobytes() == (expected[3] @ y).tobytes()
    for rhs, ref in zip(system[3:], expected[4:]):
        assert np.array_equal(rhs, ref)
        assert np.array_equal(np.signbit(rhs), np.signbit(ref))


@pytest.mark.parametrize("shape, first, last, parity", RED_BLACK_BOXES)
def test_red_black_system_on_the_box_matches_the_whole_lattice(
    shape, first, last, parity, monkeypatch
):
    # the pass of neighbour sums takes one shifted add per stencil offset
    shifts = []
    monkeypatch.setattr(
        harmonic, "_shift_slices", lambda *args: shifts.append(args) or _shift_slices(*args)
    )
    rng = np.random.default_rng(sum(first) + len(shape))
    inside = np.zeros(shape, dtype=bool)
    inside[tuple(slice(a, b + 1) for a, b in zip(first, last))] = True
    unknown = inside & (rng.random(shape) < 0.7)
    for k, (a, b) in enumerate(zip(first, last)):  # pin the box's faces
        for i in (a, b):
            face = [slice(a2, b2 + 1) for a2, b2 in zip(first, last)]
            face[k] = i
            unknown[tuple(face)] = True
    assert sum(s.start for s in _bounding_box(unknown, grow=1)) % 2 == parity
    # a fifth of the fixed values are -0.0: a sum of them from 0 is +0.0
    fixed = rng.uniform(-1.0, 1.0, shape)
    fixed[rng.random(shape) < 0.2] = -0.0
    values = np.where(unknown, 0.0, fixed)
    pole = tuple(np.argwhere(unknown)[rng.integers(unknown.sum())])
    h = 1 / 16
    _assert_box_system_matches(rng, values, unknown, h, pole, rng.uniform(-5.0, 5.0))
    assert len(shifts) == 2 * len(shape)
    # zero data, +0.0 and -0.0 mixed, skip the pass of neighbour sums: the
    # right-hand side is the pole term alone, on a red and on a black pole
    zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    odd = np.indices(shape).sum(axis=0) % 2 == 1
    for colour in (~odd, odd):
        on = np.argwhere(unknown & colour)
        pole = tuple(on[rng.integers(len(on))])
        _assert_box_system_matches(rng, zeros, unknown, h, pole, rng.uniform(-5.0, 5.0))
    assert len(shifts) == 2 * len(shape)
    # one nonzero fixed value next to an unknown takes the full pass
    from scipy import ndimage

    axis = ndimage.generate_binary_structure(len(shape), 1)
    next_to = np.argwhere(ndimage.binary_dilation(unknown, axis) & ~unknown)
    single = zeros.copy()
    single[tuple(next_to[rng.integers(len(next_to))])] = 0.5
    _assert_box_system_matches(rng, single, unknown, h, pole, rng.uniform(-5.0, 5.0))
    assert len(shifts) == 4 * len(shape)


def _whole_lattice_pole(domain, o):
    """The pole snap by an argmin over every interior node, as
    ``(pole_node, offset)`` or the error message."""
    with np.errstate(over="ignore"):
        d2 = np.where(domain.interior_mask(), domain.distance2_to(o), np.inf)
    node = np.unravel_index(np.argmin(d2), domain.shape)
    offset = float(math.sqrt(d2[node]))
    if offset > domain.spacing * math.sqrt(domain.dim):
        return "pole does not lie inside the domain"
    return tuple(int(i) for i in node), offset


def _box_pole(domain, o):
    try:
        return _snap_pole(domain, domain.interior_mask(), Point(o))
    except PreconditionError as exc:
        return str(exc)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pole_snap_on_a_box_matches_the_whole_lattice(d):
    # a ball that leaves the lattice, so its interior touches the lattice's
    # inner ring, on a lattice with a non-dyadic origin along the last axis
    h = 1 / 16
    n = {1: 41, 2: 33, 3: 17}[d]
    origin = (-1.0,) * (d - 1) + (-0.7,)
    dom = rasterize_ball((0.0,) * d, 1.1, origin=origin, spacing=h, shape=(n,) * d)
    hi = np.array(origin) + h * (n - 1)
    rng = np.random.default_rng(d)
    poles = list(rng.uniform(np.array(origin) - 0.3, hi + 0.3, size=(40, d)))
    # midway between nodes: two or more nodes tie
    cells = rng.integers(0, n - 1, size=(20, d))
    poles += list(np.array(origin) + h * (cells + 0.5))
    poles += [np.array(origin) + h * (cells[0] + 0.5 * (np.arange(d) == 0))]
    # beyond the lattice: just past an edge, far away and at the float limit
    poles += [hi + h, np.array(origin) - 2 * h, np.full(d, 50.0), np.full(d, -1e300)]
    poles += [np.where(np.arange(d) == d - 1, 1e300, 0.0)]
    # on boundary nodes, where the nearest interior node may lie just at
    # the sqrt(d) h limit
    poles += list(dom.node_points(np.argwhere(dom.active_set().inner_boundary().mask))[::5])
    found = 0
    for o in poles:
        expected = _whole_lattice_pole(dom, o)
        assert _box_pole(dom, o) == expected
        found += not isinstance(expected, str)
    assert 16 <= found <= len(poles) - 5
    with pytest.raises(PreconditionError, match="pole does not lie inside the domain"):
        green_function(dom, np.full(d, -1e300))


# ---------------------------------------------------------------------------
# the public solves on the unknowns' box against a whole-lattice solve
# ---------------------------------------------------------------------------

# (shape, first and last index of the domain's box, parities of the index
# sums of the grown box starts of the interior and of the domain): boxes
# that reach the near or the far lattice edge or neither, starting on
# either colour
SOLVE_BOXES = [
    ((40,), (0,), (25,), 0, 0),
    ((40,), (7,), (39,), 1, 0),
    ((40,), (4,), (30,), 0, 1),
    ((17, 15), (0, 4), (10, 14), 0, 1),
    ((17, 15), (3, 4), (16, 11), 1, 1),
    ((17, 15), (2, 4), (12, 12), 0, 0),
    ((9, 8, 10), (0, 0, 1), (8, 5, 9), 1, 0),
    ((9, 8, 10), (1, 1, 2), (6, 7, 9), 0, 1),
    ((9, 8, 10), (1, 2, 2), (7, 6, 8), 1, 0),
]


def _seeded_box_domain(shape, first, last, rng):
    """A connected domain filling the box ``[first, last]`` but for a
    tenth of its nodes.  Beyond 1-d, the box's first two slabs along the
    first axis shrink to a one-node stub: its nodes are boundary nodes that
    touch no interior node, so they lie beyond the interior's grown box."""
    inside = np.zeros(shape, dtype=bool)
    inside[tuple(slice(a, b + 1) for a, b in zip(first, last))] = True
    mask = inside.copy()
    if len(shape) > 1:
        mask &= rng.random(shape) >= 0.1
        mask[first[0] : first[0] + 2] = False
        mask[(slice(first[0], first[0] + 2), *first[1:])] = True
    dom = GridDomain((0.0,) * len(shape), 1 / 16, shape, mask)
    assert dom.component_count() == 1
    return dom


@pytest.mark.parametrize("shape, first, last, parity, domain_parity", SOLVE_BOXES)
def test_solves_on_the_box_match_the_whole_lattice(
    shape, first, last, parity, domain_parity, monkeypatch
):
    rng = np.random.default_rng(sum(first) + sum(last))
    dom = _seeded_box_domain(shape, first, last, rng)
    h, params = dom.spacing, SolverParams()
    interior = dom.interior_mask()
    for held, odd in [(interior, parity), (dom.mask, domain_parity)]:
        assert sum(s.start for s in _bounding_box(held, grow=1)) % 2 == odd

    # Green's function: a zero lattice and the pole as one node
    node = tuple(np.argwhere(interior)[rng.integers(interior.sum())])
    g = green_function(dom, dom.node_point(node), params)
    expected = np.zeros(shape)
    strength = -_source_strength(len(shape)) / h ** len(shape)
    assert (g.residual, g.iterations) == _cg_solve(
        expected, interior, h, params, pole=(node, strength)
    )
    assert g.values.tobytes() == np.maximum(expected, 0.0).tobytes()

    # Dirichlet data with a large value on the stub, which sets the
    # stopping rule's extent from beyond the interior's grown box
    data = rng.uniform(-1.0, 1.0, shape)
    data[first] = 50.0
    boundary = dom.mask & ~interior
    solves = []

    def recording(*args, **kwargs):
        solves.append(_cg_solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(harmonic, "_cg_solve", recording)
    got = solve_dirichlet(dom, data, params).values
    expected = np.zeros(shape)
    expected[boundary] = data[boundary]
    expected[interior] = data[boundary].mean()
    assert solves == [_cg_solve(expected, interior, h, params)]
    expected[dom.mask] = np.clip(expected[dom.mask], data[boundary].min(), data[boundary].max())
    assert got.tobytes() == ScalarField(dom, expected).values.tobytes()

    # continuation on a random part of the interior
    v = ScalarField(dom, data)
    layer = NodeSet(dom, interior & (rng.random(shape) < 0.6))
    res = harmonic_layer_continuation(v, layer, params)
    ring = layer.adjacent("axis").mask
    expected = np.zeros(shape)
    expected[ring] = data[ring]
    expected[layer.mask] = data[ring].mean()
    assert (res.residual, res.iterations) == _cg_solve(expected, layer.mask, h, params)
    solved = np.clip(expected[layer.mask], data[ring].min(), data[ring].max())
    expected = v.values.copy()
    expected[layer.mask] = np.maximum(solved, data[layer.mask])
    assert res.field.values.tobytes() == ScalarField(dom, expected).values.tobytes()


def test_green_solve_peak_memory_lives_on_the_box():
    # the 65^3 ball of radius 0.75: the lattice is 2.2 MB a float64 array,
    # and a solve that held the whole lattice and a copy of N^T peaked at
    # 10.0 MB
    h = 1 / 32
    dom = rasterize_ball((0, 0, 0), 0.75, origin=(-1, -1, -1), spacing=h, shape=(65,) * 3)
    green_function(dom, (0.0, 0.0, 0.0))  # scipy.sparse loads outside the trace
    tracemalloc.start()
    try:
        green_function(dom, (0.0, 0.0, 0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7_000_000
